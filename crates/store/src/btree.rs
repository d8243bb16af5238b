//! A page-resident B+tree directory.
//!
//! The [`crate::LabelStore`] keeps its node → record directory in memory,
//! which is fair for a hot index but understates I/O for a cold database.
//! [`BTreeDirectory`] puts the directory itself on pages — a static,
//! bulk-loaded B+tree — so a lookup pays for its descent like any other
//! disk structure, and [`IndexedLabelStore`] combines it with the record
//! blob for a fully disk-resident reachability index: every byte consulted
//! by a query is behind a counted page fetch.

use bytes::{Buf, BufMut};
use tc_core::CompressedClosure;
use tc_graph::NodeId;

use crate::{BlobStore, BufferPool, PageId, Pager};

/// Byte width of a leaf entry: key u32 + offset u64 + length u32.
const LEAF_ENTRY: usize = 16;
/// Byte width of an internal entry: separator key u32 + child page u32.
const INNER_ENTRY: usize = 8;
/// Per-page header: entry count u16.
const HEADER: usize = 2;

/// A static, bulk-loaded B+tree mapping `u32` keys to `(offset, length)`
/// record extents, stored entirely on pages.
#[derive(Debug)]
pub struct BTreeDirectory {
    pager: Pager,
    root: PageId,
    height: usize, // 1 = root is a leaf
    entries: usize,
}

impl BTreeDirectory {
    /// Bulk-loads the tree from entries sorted by key.
    ///
    /// # Panics
    ///
    /// Panics if the keys are not strictly ascending.
    pub fn build(entries: &[(u32, u64, u32)], page_size: usize) -> Self {
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "directory keys must be strictly ascending"
        );
        let mut pager = Pager::with_page_size(page_size);
        let leaf_cap = (page_size - HEADER) / LEAF_ENTRY;
        let inner_cap = (page_size - HEADER) / INNER_ENTRY;
        assert!(leaf_cap >= 2 && inner_cap >= 2, "page size too small for B+tree");

        // Leaf level.
        let mut level: Vec<(u32, PageId)> = Vec::new(); // (first key, page)
        if entries.is_empty() {
            let id = pager.alloc();
            pager.write(id, &vec![0u8; page_size]);
            level.push((0, id));
        }
        for chunk in entries.chunks(leaf_cap) {
            let mut img = Vec::with_capacity(page_size);
            img.put_u16_le(chunk.len() as u16);
            for &(key, off, len) in chunk {
                img.put_u32_le(key);
                img.put_u64_le(off);
                img.put_u32_le(len);
            }
            img.resize(page_size, 0);
            let id = pager.alloc();
            pager.write(id, &img);
            level.push((chunk[0].0, id));
        }

        // Internal levels until a single root remains.
        let mut height = 1;
        while level.len() > 1 {
            let mut next: Vec<(u32, PageId)> = Vec::new();
            for chunk in level.chunks(inner_cap) {
                let mut img = Vec::with_capacity(page_size);
                img.put_u16_le(chunk.len() as u16);
                for &(sep, child) in chunk {
                    img.put_u32_le(sep);
                    img.put_u32_le(child.0);
                }
                img.resize(page_size, 0);
                let id = pager.alloc();
                pager.write(id, &img);
                next.push((chunk[0].0, id));
            }
            level = next;
            height += 1;
        }

        let root = level[0].1;
        pager.reset_counters();
        BTreeDirectory {
            pager,
            root,
            height,
            entries: entries.len(),
        }
    }

    /// Looks up a key, descending through the buffer pool. Costs one page
    /// fetch per level (`height` fetches cold).
    pub fn lookup(&self, key: u32, pool: &mut BufferPool) -> Option<(u64, u32)> {
        let mut page = self.root;
        for _ in 0..self.height - 1 {
            let img = pool.fetch(&self.pager, page).expect("in-memory page read");
            let mut buf = img;
            let count = buf.get_u16_le() as usize;
            // Rightmost child whose separator <= key.
            let mut child = None;
            for _ in 0..count {
                let sep = buf.get_u32_le();
                let ptr = buf.get_u32_le();
                if sep <= key {
                    child = Some(PageId(ptr));
                } else {
                    break;
                }
            }
            page = child?;
        }
        let img = pool.fetch(&self.pager, page).expect("in-memory page read");
        let mut buf = img;
        let count = buf.get_u16_le() as usize;
        for _ in 0..count {
            let k = buf.get_u32_le();
            let off = buf.get_u64_le();
            let len = buf.get_u32_le();
            if k == key {
                return Some((off, len));
            }
            if k > key {
                return None;
            }
        }
        None
    }

    /// Tree height (1 = root is a leaf).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of directory entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Pages occupied by the directory.
    pub fn page_count(&self) -> usize {
        self.pager.page_count()
    }

    /// The directory's disk (for counter access).
    pub fn pager(&self) -> &Pager {
        &self.pager
    }
}

/// A fully disk-resident compressed-closure index: B+tree directory pages
/// plus interval-record pages, every access counted.
///
/// The only in-memory state is the postorder key per node — the query
/// argument itself; a DBMS would obtain it from the same directory, adding
/// one more descent, which [`IndexedLabelStore::reaches_cold`] models.
#[derive(Debug)]
pub struct IndexedLabelStore {
    directory: BTreeDirectory,
    blob: BlobStore,
    post: Vec<u64>,
}

impl IndexedLabelStore {
    /// Serializes the closure's labels and bulk-loads the directory.
    pub fn build(closure: &CompressedClosure, page_size: usize) -> Self {
        let n = closure.node_count();
        let mut records = Vec::with_capacity(n);
        let mut post = Vec::with_capacity(n);
        for v in closure.graph().nodes() {
            post.push(closure.post_number(v));
            let set = closure.intervals(v);
            let mut rec = Vec::with_capacity(4 + 16 * set.count());
            rec.put_u32_le(set.count() as u32);
            for iv in set.iter() {
                rec.put_u64_le(iv.lo());
                rec.put_u64_le(iv.hi());
            }
            records.push(rec);
        }
        let blob = BlobStore::build(&records, page_size);
        // Directory entries mirror the blob's extents (offsets are the
        // cumulative record lengths) so the lookup path exercises the same
        // geometry a standalone directory would.
        let mut off = 0u64;
        let entries: Vec<(u32, u64, u32)> = (0..n as u32)
            .map(|v| {
                let len = blob.record_len(v as usize) as u32;
                let e = (v, off, len);
                off += len as u64;
                e
            })
            .collect();
        IndexedLabelStore {
            directory: BTreeDirectory::build(&entries, page_size),
            blob,
            post,
        }
    }

    /// Disk-resident reachability query: one directory descent plus the
    /// record pages.
    pub fn reaches(
        &self,
        src: NodeId,
        dst: NodeId,
        dir_pool: &mut BufferPool,
        rec_pool: &mut BufferPool,
    ) -> bool {
        let Some((_, _)) = self.directory.lookup(src.0, dir_pool) else {
            return false;
        };
        let target = self.post[dst.index()];
        let rec = self.blob.read(src.index(), rec_pool);
        let mut buf = rec.as_slice();
        let count = buf.get_u32_le();
        for _ in 0..count {
            let lo = buf.get_u64_le();
            let hi = buf.get_u64_le();
            if lo <= target && target <= hi {
                return true;
            }
        }
        false
    }

    /// Fully cold model: also resolves `dst`'s postorder number through the
    /// directory (two descents total), as a DBMS without a hot key index
    /// would.
    pub fn reaches_cold(
        &self,
        src: NodeId,
        dst: NodeId,
        dir_pool: &mut BufferPool,
        rec_pool: &mut BufferPool,
    ) -> bool {
        let _ = self.directory.lookup(dst.0, dir_pool);
        self.reaches(src, dst, dir_pool, rec_pool)
    }

    /// The directory component.
    pub fn directory(&self) -> &BTreeDirectory {
        &self.directory
    }

    /// The record component.
    pub fn blob(&self) -> &BlobStore {
        &self.blob
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tc_graph::generators;

    #[test]
    fn directory_lookup_matches_model() {
        let entries: Vec<(u32, u64, u32)> =
            (0..1000u32).map(|k| (k * 3, k as u64 * 100, k + 1)).collect();
        let dir = BTreeDirectory::build(&entries, 128);
        assert!(dir.height() >= 2, "1000 entries cannot fit one 128B leaf");
        let mut pool = BufferPool::new(16);
        for &(k, off, len) in &entries {
            assert_eq!(dir.lookup(k, &mut pool), Some((off, len)), "key {k}");
        }
        // Misses: keys between the stored multiples of 3, and out of range.
        assert_eq!(dir.lookup(1, &mut pool), None);
        assert_eq!(dir.lookup(2999 * 3 + 1, &mut pool), None);
        assert_eq!(dir.len(), 1000);
    }

    #[test]
    fn empty_directory() {
        let dir = BTreeDirectory::build(&[], 128);
        assert!(dir.is_empty());
        let mut pool = BufferPool::new(2);
        assert_eq!(dir.lookup(0, &mut pool), None);
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn unsorted_keys_rejected() {
        let _ = BTreeDirectory::build(&[(3, 0, 1), (1, 8, 1)], 128);
    }

    #[test]
    fn cold_lookup_costs_height_pages() {
        let entries: Vec<(u32, u64, u32)> =
            (0..5000u32).map(|k| (k, k as u64, 1)).collect();
        let dir = BTreeDirectory::build(&entries, 256);
        let mut pool = BufferPool::new(1); // effectively uncached
        dir.pager().reset_counters();
        dir.lookup(2500, &mut pool);
        assert_eq!(dir.pager().reads() as usize, dir.height());
    }

    #[test]
    fn indexed_store_matches_closure() {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: 150,
            avg_out_degree: 2.5,
            seed: 12,
        });
        let closure = CompressedClosure::build(&g).unwrap();
        let store = IndexedLabelStore::build(&closure, 256);
        let mut dp = BufferPool::new(8);
        let mut rp = BufferPool::new(8);
        for u in g.nodes() {
            for v in g.nodes() {
                assert_eq!(
                    store.reaches(u, v, &mut dp, &mut rp),
                    closure.reaches(u, v),
                    "({u:?},{v:?})"
                );
            }
        }
        // reaches_cold answers identically, just with more directory I/O.
        let mut dp = BufferPool::new(8);
        let mut rp = BufferPool::new(8);
        assert_eq!(
            store.reaches_cold(tc_graph::NodeId(0), tc_graph::NodeId(140), &mut dp, &mut rp),
            closure.reaches(tc_graph::NodeId(0), tc_graph::NodeId(140))
        );
    }

    #[test]
    fn total_cold_query_cost_is_bounded() {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: 2000,
            avg_out_degree: 2.0,
            seed: 8,
        });
        let closure = CompressedClosure::build(&g).unwrap();
        let store = IndexedLabelStore::build(&closure, 4096);
        let mut dp = BufferPool::new(1);
        let mut rp = BufferPool::new(1);
        store.directory().pager().reset_counters();
        store.blob().pager().reset_counters();
        store.reaches(tc_graph::NodeId(17), tc_graph::NodeId(1900), &mut dp, &mut rp);
        let total = store.directory().pager().reads() + store.blob().pager().reads();
        // Directory descent (height <= 2 at this size) + a 1-2 page record.
        assert!(total <= 4, "cold query cost {total} pages");
    }
}
