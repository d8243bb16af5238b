//! An LRU buffer pool over the [`Pager`], with page pins.
//!
//! A probe that decodes a row slice in place must be able to hold the page
//! across its own logic without the pool yanking the frame on the next
//! fetch. [`BufferPool::fetch_pin`] returns a [`PagePin`] — a shared handle
//! to the frame — and eviction only ever considers unpinned frames. If every
//! frame is pinned the pool temporarily overflows its capacity rather than
//! invalidate a live borrow.
//!
//! Frames sit in a slab linked into an intrusive recency list (head = most
//! recently used), and a table indexed by page id takes each resident page
//! to its slot (4 bytes per page of the pager, no hashing). A hit relinks its
//! frame at the head; a miss on a full pool walks from the tail past pinned
//! frames — pins live for one probe, so the walk is about one step — and
//! reuses the victim's slot and page buffer. Every fetch is therefore O(1)
//! frames, and the victim is exactly the least recently used unpinned frame.

use std::io;
use std::ops::Deref;
use std::sync::Arc;

use crate::{PageId, Pager};

/// Hit/miss statistics of a buffer pool.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches served from the pool.
    pub hits: u64,
    /// Fetches that had to go to the pager (disk reads).
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
}

impl PoolStats {
    /// Hit ratio in `[0, 1]` (`NaN` with no fetches).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        self.hits as f64 / total as f64
    }
}

/// A pinned page image. Holding the pin keeps the bytes alive even if the
/// pool evicts the frame underneath — the pin shares ownership, so the worst
/// case is a redundant re-read later, never a dangling slice.
#[derive(Debug, Clone)]
pub struct PagePin {
    data: Arc<[u8]>,
}

impl Deref for PagePin {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data
    }
}

/// End of the recency list; a page with no slot.
const NIL: u32 = u32::MAX;

/// One cached page, linked into the recency list (32 bytes, two frames to
/// a cache line).
#[derive(Debug)]
struct Frame {
    /// The image; any strong count above one is an outstanding [`PagePin`].
    data: Arc<[u8]>,
    page: PageId,
    /// Neighbour toward the head (more recently used), or [`NIL`].
    prev: u32,
    /// Neighbour toward the tail (less recently used), or [`NIL`].
    next: u32,
}

/// A fixed-capacity LRU cache of page images.
///
/// Read-only (the stores in this crate are build-once/query-many, like the
/// paper's materialized closure), so eviction never writes back.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// Slab of frames; every slot is live and mapped in `slot_of`.
    frames: Vec<Frame>,
    /// Page id -> slot in `frames`, or [`NIL`]; grown to the pager's page
    /// count on the first miss past its end.
    slot_of: Vec<u32>,
    /// Most recently used slot, or [`NIL`] when empty.
    head: u32,
    /// Least recently used slot, or [`NIL`] when empty.
    tail: u32,
    /// An unshared page buffer a miss reads into before it takes a slot, so
    /// a failed read leaves every frame as it was. A victim's buffer becomes
    /// the next spare: a full pool allocates nothing per miss.
    spare: Option<Arc<[u8]>>,
    stats: PoolStats,
}

impl BufferPool {
    /// Creates a pool holding at most `capacity` pages.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "buffer pool needs at least one frame");
        BufferPool {
            capacity,
            frames: Vec::with_capacity(capacity),
            slot_of: Vec::new(),
            head: NIL,
            tail: NIL,
            spare: None,
            stats: PoolStats::default(),
        }
    }

    /// Fetches a page through the pool, touching the pager only on a miss.
    ///
    /// A read error is returned as is; it counts as a miss and changes no
    /// frame, so the pool stays usable.
    pub fn fetch<'a>(&'a mut self, pager: &Pager, id: PageId) -> io::Result<&'a [u8]> {
        let slot = self.fetch_slot(pager, id)?;
        Ok(&self.frames[slot as usize].data)
    }

    /// Fetches a page and pins it. The returned [`PagePin`] keeps the bytes
    /// valid for as long as it lives; a pinned frame is never evicted.
    /// Errors as [`BufferPool::fetch`].
    pub fn fetch_pin(&mut self, pager: &Pager, id: PageId) -> io::Result<PagePin> {
        let slot = self.fetch_slot(pager, id)?;
        Ok(PagePin { data: Arc::clone(&self.frames[slot as usize].data) })
    }

    fn fetch_slot(&mut self, pager: &Pager, id: PageId) -> io::Result<u32> {
        let page = id.0 as usize;
        if let Some(&slot) = self.slot_of.get(page).filter(|&&slot| slot != NIL) {
            self.stats.hits += 1;
            if slot != self.head {
                self.unlink(slot);
                self.push_front(slot);
            }
            return Ok(slot);
        }
        self.stats.misses += 1;
        let mut image = match self.spare.take() {
            Some(buf) if buf.len() == pager.page_size() => buf,
            _ => vec![0u8; pager.page_size()].into(),
        };
        let bytes = Arc::get_mut(&mut image).expect("spare page buffer is unshared");
        if let Err(e) = pager.read_into(id, bytes) {
            self.spare = Some(image);
            return Err(e);
        }
        // All frames pinned: overflow capacity rather than drop a pin.
        let victim = if self.frames.len() >= self.capacity { self.lru_unpinned() } else { None };
        let slot = match victim {
            Some(slot) => {
                self.stats.evictions += 1;
                self.unlink(slot);
                let frame = &mut self.frames[slot as usize];
                self.slot_of[frame.page.0 as usize] = NIL;
                frame.page = id;
                self.spare = Some(std::mem::replace(&mut frame.data, image));
                slot
            }
            None => {
                self.frames.push(Frame { data: image, page: id, prev: NIL, next: NIL });
                u32::try_from(self.frames.len() - 1).expect("fewer than 2^32 - 1 frames")
            }
        };
        if page >= self.slot_of.len() {
            self.slot_of.resize(pager.page_count().max(page + 1), NIL);
        }
        self.slot_of[page] = slot;
        self.push_front(slot);
        Ok(slot)
    }

    /// The least recently used frame no [`PagePin`] holds. Only a pin can
    /// clone a frame's image, so a count of one stays one while the pool is
    /// borrowed mutably.
    fn lru_unpinned(&self) -> Option<u32> {
        let mut slot = self.tail;
        while slot != NIL {
            let frame = &self.frames[slot as usize];
            if Arc::strong_count(&frame.data) == 1 {
                return Some(slot);
            }
            slot = frame.prev;
        }
        None
    }

    fn unlink(&mut self, slot: u32) {
        let Frame { prev, next, .. } = self.frames[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.frames[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.frames[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old = self.head;
        let frame = &mut self.frames[slot as usize];
        frame.prev = NIL;
        frame.next = old;
        match old {
            NIL => self.tail = slot,
            h => self.frames[h as usize].prev = slot,
        }
        self.head = slot;
    }

    /// Access statistics so far.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Clears cached pages and statistics (for cold-cache measurements).
    /// Outstanding pins stay valid — they own their images.
    pub fn clear(&mut self) {
        for frame in self.frames.drain(..) {
            self.slot_of[frame.page.0 as usize] = NIL;
        }
        self.head = NIL;
        self.tail = NIL;
        self.stats = PoolStats::default();
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeSet, HashMap};

    fn disk_with(n: usize) -> Pager {
        let mut pager = Pager::with_page_size(64);
        for i in 0..n {
            let id = pager.alloc();
            let mut img = vec![0u8; 64];
            img[0] = i as u8;
            pager.write(id, &img);
        }
        pager.reset_counters();
        pager
    }

    fn resident_pages(pool: &BufferPool) -> BTreeSet<PageId> {
        pool.frames.iter().map(|f| f.page).collect()
    }

    /// Pages from most to least recently used, with the list's links, the
    /// slab and the slot table checked against each other on the way.
    fn recency(pool: &BufferPool) -> Vec<PageId> {
        let mut order = Vec::new();
        let (mut slot, mut prev) = (pool.head, NIL);
        while slot != NIL {
            let frame = &pool.frames[slot as usize];
            assert_eq!(frame.prev, prev, "back link of slot {slot}");
            assert_eq!(pool.slot_of[frame.page.0 as usize], slot, "slot of {:?}", frame.page);
            order.push(frame.page);
            (prev, slot) = (slot, frame.next);
        }
        assert_eq!(pool.tail, prev, "tail is the last linked slot");
        assert_eq!(order.len(), pool.frames.len(), "every slot is linked once");
        let mapped = pool.slot_of.iter().filter(|&&slot| slot != NIL).count();
        assert_eq!(mapped, pool.frames.len(), "no stale slot entries");
        order
    }

    #[test]
    fn hits_avoid_disk() {
        let pager = disk_with(2);
        let mut pool = BufferPool::new(2);
        assert_eq!(pool.fetch(&pager, PageId(0)).unwrap()[0], 0);
        assert_eq!(pool.fetch(&pager, PageId(0)).unwrap()[0], 0);
        assert_eq!(pool.stats(), PoolStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(pager.reads(), 1, "second fetch never touched the pager");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pager = disk_with(3);
        let mut pool = BufferPool::new(2);
        pool.fetch(&pager, PageId(0)).unwrap();
        pool.fetch(&pager, PageId(1)).unwrap();
        pool.fetch(&pager, PageId(0)).unwrap(); // 1 is now LRU
        pool.fetch(&pager, PageId(2)).unwrap(); // evicts 1
        assert_eq!(pool.stats().evictions, 1);
        // 0 must still be resident.
        let before = pager.reads();
        pool.fetch(&pager, PageId(0)).unwrap();
        assert_eq!(pager.reads(), before, "page 0 survived eviction");
        // 1 must not be.
        pool.fetch(&pager, PageId(1)).unwrap();
        assert_eq!(pager.reads(), before + 1);
    }

    #[test]
    fn hits_mid_list_and_at_the_tail_relink_to_the_head() {
        let pager = disk_with(6);
        let mut pool = BufferPool::new(4);
        for i in 0..4 {
            pool.fetch(&pager, PageId(i)).unwrap();
        }
        let ids = |v: &[u32]| v.iter().map(|&i| PageId(i)).collect::<Vec<_>>();
        assert_eq!(recency(&pool), ids(&[3, 2, 1, 0]));
        pool.fetch(&pager, PageId(2)).unwrap(); // mid-list hit
        assert_eq!(recency(&pool), ids(&[2, 3, 1, 0]));
        pool.fetch(&pager, PageId(0)).unwrap(); // tail hit
        assert_eq!(recency(&pool), ids(&[0, 2, 3, 1]));
        pool.fetch(&pager, PageId(0)).unwrap(); // head hit
        assert_eq!(recency(&pool), ids(&[0, 2, 3, 1]));
        assert_eq!(pool.stats(), PoolStats { hits: 3, misses: 4, evictions: 0 });
        // Misses now evict 1, then 3: the least recently used, in order.
        pool.fetch(&pager, PageId(4)).unwrap();
        assert_eq!(recency(&pool), ids(&[4, 0, 2, 3]));
        pool.fetch(&pager, PageId(5)).unwrap();
        assert_eq!(recency(&pool), ids(&[5, 4, 0, 2]));
        assert_eq!(pool.stats().evictions, 2);
        // The reused slots hold the new pages' bytes.
        assert_eq!(pool.fetch(&pager, PageId(4)).unwrap()[0], 4);
        assert_eq!(pool.fetch(&pager, PageId(5)).unwrap()[0], 5);
        assert_eq!(pager.reads(), 6);
    }

    #[test]
    fn eviction_walks_past_pinned_frames_at_the_tail() {
        let pager = disk_with(5);
        let mut pool = BufferPool::new(3);
        let p0 = pool.fetch_pin(&pager, PageId(0)).unwrap();
        let p1 = pool.fetch_pin(&pager, PageId(1)).unwrap();
        pool.fetch(&pager, PageId(2)).unwrap();
        // 0 and 1 are the two least recently used, but pinned.
        pool.fetch(&pager, PageId(3)).unwrap();
        assert_eq!(resident_pages(&pool), [0, 1, 3].map(PageId).into());
        drop(p0);
        pool.fetch(&pager, PageId(4)).unwrap();
        assert_eq!(resident_pages(&pool), [1, 3, 4].map(PageId).into());
        assert_eq!((p1[0], pool.stats().evictions), (1, 2));
    }

    #[test]
    fn clear_resets_everything() {
        let pager = disk_with(1);
        let mut pool = BufferPool::new(4);
        pool.fetch(&pager, PageId(0)).unwrap();
        pool.clear();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats(), PoolStats::default());
        pool.fetch(&pager, PageId(0)).unwrap();
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn hit_ratio() {
        let pager = disk_with(1);
        let mut pool = BufferPool::new(1);
        pool.fetch(&pager, PageId(0)).unwrap();
        pool.fetch(&pager, PageId(0)).unwrap();
        pool.fetch(&pager, PageId(0)).unwrap();
        assert!((pool.stats().hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn pinned_page_survives_eviction_pressure() {
        let pager = disk_with(4);
        let mut pool = BufferPool::new(2);
        let pin = pool.fetch_pin(&pager, PageId(0)).unwrap();
        // Churn enough distinct pages through a 2-frame pool to evict
        // everything unpinned several times over.
        for _ in 0..3 {
            for i in 1..4u32 {
                pool.fetch(&pager, PageId(i)).unwrap();
            }
        }
        // The pinned frame was never chosen as a victim...
        let before = pager.reads();
        pool.fetch(&pager, PageId(0)).unwrap();
        assert_eq!(pager.reads(), before, "pinned page 0 stayed resident");
        // ...and the pin's bytes are intact regardless.
        assert_eq!(pin[0], 0);
    }

    #[test]
    fn all_pinned_overflows_instead_of_evicting() {
        let pager = disk_with(4);
        let mut pool = BufferPool::new(2);
        let p0 = pool.fetch_pin(&pager, PageId(0)).unwrap();
        let p1 = pool.fetch_pin(&pager, PageId(1)).unwrap();
        // Pool is full of pinned frames; a third fetch must not invalidate
        // either pin.
        let p2 = pool.fetch_pin(&pager, PageId(2)).unwrap();
        assert_eq!(pool.resident(), 3, "pool overflowed rather than evict a pin");
        assert_eq!(pool.stats().evictions, 0);
        assert_eq!((p0[0], p1[0], p2[0]), (0, 1, 2));
        drop(p0);
        drop(p1);
        // With pins released, a miss evicts normally again.
        pool.fetch(&pager, PageId(3)).unwrap();
        assert!(pool.stats().evictions >= 1);
        drop(p2);
    }

    #[test]
    fn pin_outlives_clear() {
        let pager = disk_with(1);
        let mut pool = BufferPool::new(1);
        let pin = pool.fetch_pin(&pager, PageId(0)).unwrap();
        pool.clear();
        assert_eq!(pin[0], 0, "pin owns its image across clear()");
    }

    #[test]
    fn failed_read_leaves_every_frame_in_place() {
        let path = std::env::temp_dir().join(format!(
            "tc-pager-bufpool-{}-short.pg",
            std::process::id()
        ));
        let mut pager = Pager::create_file(&path, 64).expect("create");
        for i in 0..3u8 {
            let id = pager.alloc();
            pager.write(id, &[i; 64]);
        }
        let mut pool = BufferPool::new(2);
        pool.fetch(&pager, PageId(0)).unwrap();
        pool.fetch(&pager, PageId(1)).unwrap();
        // Cut page 2 off the file: its read fails with a short read.
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(128).unwrap();
        let err = pool.fetch(&pager, PageId(2)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Counted as a miss; the would-be victim (page 0) is still mapped,
        // with its own bytes, and nothing is mapped under page 2.
        assert_eq!(pool.stats(), PoolStats { hits: 0, misses: 3, evictions: 0 });
        assert_eq!(recency(&pool), vec![PageId(1), PageId(0)]);
        assert_eq!(pool.fetch(&pager, PageId(0)).unwrap(), &[0u8; 64][..]);
        assert_eq!(pool.fetch(&pager, PageId(1)).unwrap(), &[1u8; 64][..]);
        assert_eq!(pager.reads(), 3, "the failed read was the only extra read");
        std::fs::remove_file(&path).ok();
    }

    /// The pool's original algorithm, kept as the model the slab-and-list
    /// pool must match: a map of page -> (image, last-use tick), with the
    /// victim found by scanning every frame for the smallest tick among the
    /// unpinned ones.
    struct ScanPool {
        capacity: usize,
        frames: HashMap<PageId, (Arc<[u8]>, u64)>,
        tick: u64,
        stats: PoolStats,
    }

    impl ScanPool {
        fn new(capacity: usize) -> Self {
            ScanPool { capacity, frames: HashMap::new(), tick: 0, stats: PoolStats::default() }
        }

        fn fetch_pin(&mut self, pager: &Pager, id: PageId) -> PagePin {
            self.tick += 1;
            let tick = self.tick;
            if let Some(entry) = self.frames.get_mut(&id) {
                self.stats.hits += 1;
                entry.1 = tick;
                return PagePin { data: Arc::clone(&entry.0) };
            }
            self.stats.misses += 1;
            if self.frames.len() >= self.capacity {
                let victim = self
                    .frames
                    .iter()
                    .filter(|(_, (image, _))| Arc::strong_count(image) == 1)
                    .min_by_key(|(_, (_, last))| *last)
                    .map(|(id, _)| *id);
                if let Some(victim) = victim {
                    self.frames.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
            let mut image = vec![0u8; pager.page_size()];
            pager.read_into(id, &mut image).unwrap();
            let image: Arc<[u8]> = image.into();
            self.frames.insert(id, (Arc::clone(&image), tick));
            PagePin { data: image }
        }

        fn clear(&mut self) {
            self.frames.clear();
            self.stats = PoolStats::default();
            self.tick = 0;
        }
    }

    /// SplitMix64: a seeded, dependency-free step source.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn matches_the_scanning_reference_pool() {
        for capacity in [1usize, 2, 3, 7, 64] {
            let pages = 2 * capacity + 1;
            for seed in 0..8u64 {
                let (pager, model_pager) = (disk_with(pages), disk_with(pages));
                let mut pool = BufferPool::new(capacity);
                let mut model = ScanPool::new(capacity);
                // Pins held on both sides, dropped together.
                let mut pins: Vec<(PagePin, PagePin)> = Vec::new();
                let mut state = seed * 1_000 + capacity as u64;
                let mut overflowed = false;
                for step in 0..3_000 {
                    let roll = next(&mut state) % 1_000;
                    let id = PageId((next(&mut state) % pages as u64) as u32);
                    // Pins pile up in alternate phases until every frame is
                    // pinned and the pool overflows, then drain again.
                    let pin_below = if step / 400 % 2 == 0 { 950 } else { 640 };
                    match roll {
                        0..=599 => {
                            let got = pool.fetch(&pager, id).unwrap()[0];
                            let want = model.fetch_pin(&model_pager, id)[0];
                            assert_eq!(got, want);
                        }
                        999 => {
                            pool.clear();
                            model.clear();
                        }
                        r if r < pin_below && pins.len() < 2 * capacity + 2 => {
                            let pin = pool.fetch_pin(&pager, id).unwrap();
                            let model_pin = model.fetch_pin(&model_pager, id);
                            assert_eq!((pin[0], model_pin[0]), (id.0 as u8, id.0 as u8));
                            pins.push((pin, model_pin));
                        }
                        _ if !pins.is_empty() => {
                            let at = (next(&mut state) % pins.len() as u64) as usize;
                            pins.swap_remove(at);
                        }
                        _ => {}
                    }
                    let ctx = format!("capacity {capacity} seed {seed} step {step}");
                    assert_eq!(pool.stats(), model.stats, "{ctx}: stats");
                    assert_eq!(
                        resident_pages(&pool),
                        model.frames.keys().copied().collect::<BTreeSet<_>>(),
                        "{ctx}: resident pages"
                    );
                    assert_eq!(pager.reads(), model_pager.reads(), "{ctx}: pager reads");
                    overflowed |= pool.resident() > capacity;
                    recency(&pool);
                }
                assert!(overflowed, "capacity {capacity} seed {seed}: no all-pinned overflow");
            }
        }
    }
}
