//! The out-of-core frozen plane: a [`QueryPlane`]-equivalent snapshot that
//! lives in a page-aligned `PLN1` file section and answers queries through
//! `tc-store`'s buffer pool instead of RAM-resident arrays.
//!
//! [`crate::CompressedClosure::freeze`] builds an in-memory [`QueryPlane`];
//! for closures whose frozen arrays dwarf memory, the same snapshot can be
//! *streamed* to disk instead and probed page by page:
//!
//! * **Streaming freeze** — [`write_plane_section`] walks the labeling
//!   twice (a counting pass to size the segment directory, then sequential
//!   segment writes) and never materializes the row headers or boundary
//!   spill; peak RSS is the number line plus the stabbing triples, well
//!   below a full [`QueryPlane`].
//! * **`PLN1` section** — eight page-aligned segments (row heads, boundary
//!   spill, rank array, line array, the stabbing index's `los`/`his`/
//!   `owners`/segment tree), a fixed-size header with the segment
//!   directory and an FNV-1a digest of the payload, and a 12-byte footer
//!   locating the header from the end of the file. The section rides
//!   behind an `ITC1` stream ([`CompressedClosure::save_paged`]) or stands
//!   alone (freeze-to-temp).
//! * **[`PagedPlane`]** — opens a section in O(directory) time (only the
//!   footer and header are read — *instant restart*, independent of the
//!   interval count) and serves `reaches`/`reaches_batch`/`successors`/
//!   `predecessors` by pulling pages through an LRU [`BufferPool`]. The
//!   row byte layout is `tc_interval::paged` — identical geometry to the
//!   in-memory boundary arrays — so every answer is bit-identical to the
//!   [`QueryPlane`]'s.
//! * **[`PagedClosure`]** — the instant-restart handle: queries straight
//!   from the section, with [`PagedClosure::thaw`] decoding the `ITC1`
//!   stream on demand when the caller needs to write.
//!
//! Every query has a fallible `try_*` form whose reads are bounds-checked
//! against the directory — a corrupt or truncated section reports
//! [`PagedError::Corrupt`] instead of panicking or over-allocating, which
//! is what the `PLN1` byte-mutation fuzz campaign in `tc-fuzz` leans on —
//! and a page read that fails reports [`PagedError::Io`].
//!
//! [`QueryPlane`]: crate::QueryPlane

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Seek, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tc_graph::topo::CutoffLabels;
use tc_graph::{DiGraph, NodeId};
use tc_interval::paged::{
    count_le, decode_head, encode_boundaries, encode_head, padded_boundary_keys, probe_head,
    HeadProbe, KeyWidth,
};
use tc_interval::{BitRows, BitRowsBuilder};
use tc_pager::{BufferPool, PageId, PagePin, Pager, PoolStats, DEFAULT_PAGE_SIZE};

use crate::codec::{fnv1a, DecodeError, HashingWriter};
use crate::labeling::Labeling;
use crate::plane::merged_row_into;
use crate::CompressedClosure;

/// Magic of the plane section ("PLN1").
const PLANE_MAGIC: [u8; 4] = *b"PLN1";
/// Magic of the optional hybrid-oracle overlay appended *after* the plane
/// footer ("HYB1"). Old files simply end with the `PLN1` footer and keep
/// opening unchanged.
const HYBRID_MAGIC: [u8; 4] = *b"HYB1";
/// Fixed hybrid trailer at the very end of an overlay-bearing file:
/// `[magic][n][live][threshold][word count][payload fnv][plane end][fnv]`.
const HYBRID_TRAILER_BYTES: usize = 60;
/// Bytes of the hybrid trailer covered by its digest.
const HYBRID_HASHED: usize = 52;
/// Fixed header size: fields, segment directory, header digest.
const HEADER_BYTES: usize = 224;
/// Trailing footer: `[header locator: section_start u64][magic]`.
const FOOTER_BYTES: usize = 12;
/// Bytes of the header covered by the header digest.
const HEADER_HASHED: usize = 216;

/// Segment indices in the directory (fixed order, ascending offsets).
const SEG_HEADS: usize = 0;
const SEG_SPILL: usize = 1;
const SEG_RANK: usize = 2;
const SEG_LINE: usize = 3;
const SEG_STAB_LOS: usize = 4;
const SEG_STAB_HIS: usize = 5;
const SEG_STAB_OWNERS: usize = 6;
const SEG_STAB_TREE: usize = 7;
const SEG_COUNT: usize = 8;

/// Default buffer-pool capacity (pages) for paged planes opened without an
/// explicit size: 256 × 4 KiB = 1 MiB of cache.
pub const DEFAULT_POOL_PAGES: usize = 256;

/// Failure opening or probing a paged plane.
#[derive(Debug)]
pub enum PagedError {
    /// Underlying file I/O failed.
    Io(io::Error),
    /// The `PLN1` section is missing, structurally invalid, or a probe hit
    /// bytes inconsistent with the directory.
    Corrupt(&'static str),
    /// Thawing failed: the `ITC1` stream ahead of the plane section did
    /// not decode.
    Decode(DecodeError),
}

impl fmt::Display for PagedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PagedError::Io(e) => write!(f, "paged plane I/O: {e}"),
            PagedError::Corrupt(what) => write!(f, "paged plane corrupt: {what}"),
            PagedError::Decode(e) => write!(f, "paged plane thaw: {e}"),
        }
    }
}

impl std::error::Error for PagedError {}

impl From<io::Error> for PagedError {
    fn from(e: io::Error) -> Self {
        PagedError::Io(e)
    }
}

impl From<DecodeError> for PagedError {
    fn from(e: DecodeError) -> Self {
        PagedError::Decode(e)
    }
}

const fn corrupt<T>(what: &'static str) -> Result<T, PagedError> {
    Err(PagedError::Corrupt(what))
}

/// One directory entry: a byte range within the payload.
#[derive(Debug, Clone, Copy, Default)]
struct Segment {
    off: u64,
    len: u64,
}

/// The parsed, validated plane header.
#[derive(Debug, Clone)]
struct PlaneMeta {
    kw: KeyWidth,
    page_size: usize,
    nodes: usize,
    live: usize,
    /// Total *merged* rank intervals (the stabbing index length).
    intervals: usize,
    /// Labeling interval count at freeze time, before rank merging.
    source_intervals: usize,
    /// Stabbing-tree leaf count (power of two, 0 when `intervals == 0`).
    leaves: usize,
    /// Where the section begins in the file (the `ITC1` stream's length).
    section_start: u64,
    /// Absolute file offset of the payload pages.
    payload_off: u64,
    payload_len: u64,
    payload_fnv: u64,
    segs: [Segment; SEG_COUNT],
}

fn rd_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn rd_u64(b: &[u8], at: usize) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(buf)
}

fn align_up(x: u64, a: u64) -> Option<u64> {
    let rem = x % a;
    if rem == 0 {
        Some(x)
    } else {
        x.checked_add(a - rem)
    }
}

impl PlaneMeta {
    /// Parses and validates a header against the file length. `footer` is
    /// the trailing [`FOOTER_BYTES`]; `header` the [`HEADER_BYTES`] before
    /// them.
    fn parse(file_len: u64, header: &[u8], footer: &[u8]) -> Result<PlaneMeta, PagedError> {
        if footer.len() != FOOTER_BYTES || header.len() != HEADER_BYTES {
            return corrupt("short header read");
        }
        if footer[8..12] != PLANE_MAGIC {
            return corrupt("no plane section (footer magic)");
        }
        if header[0..4] != PLANE_MAGIC {
            return corrupt("header magic");
        }
        if fnv1a(&header[..HEADER_HASHED]) != rd_u64(header, HEADER_HASHED) {
            return corrupt("header digest mismatch");
        }
        let section_start = rd_u64(footer, 0);
        let kw = match header[4] {
            2 => KeyWidth::Narrow,
            4 => KeyWidth::Wide,
            _ => return corrupt("key width"),
        };
        let page_size = rd_u32(header, 8) as usize;
        if page_size < 128 || page_size % 128 != 0 || page_size > (1 << 24) {
            return corrupt("page size");
        }
        let as_count = |v: u64, what: &'static str| -> Result<usize, PagedError> {
            if v > u32::MAX as u64 {
                Err(PagedError::Corrupt(what))
            } else {
                Ok(v as usize)
            }
        };
        let nodes = as_count(rd_u64(header, 16), "node count")?;
        let live = as_count(rd_u64(header, 24), "live count")?;
        let intervals = as_count(rd_u64(header, 32), "interval count")?;
        let source_intervals = as_count(rd_u64(header, 40), "source interval count")?;
        let leaves = as_count(rd_u64(header, 48), "leaf count")?;
        let spill_keys = rd_u64(header, 56);
        let payload_off = rd_u64(header, 64);
        let payload_len = rd_u64(header, 72);
        let payload_fnv = rd_u64(header, 80);
        let mut segs = [Segment::default(); SEG_COUNT];
        for (i, seg) in segs.iter_mut().enumerate() {
            seg.off = rd_u64(header, 88 + 16 * i);
            seg.len = rd_u64(header, 88 + 16 * i + 8);
        }
        let meta = PlaneMeta {
            kw,
            page_size,
            nodes,
            live,
            intervals,
            source_intervals,
            leaves,
            section_start,
            payload_off,
            payload_len,
            payload_fnv,
            segs,
        };
        // Ranks must fit the key width (mirrors the freeze gate), and the
        // tree leaf count must be what the stab descent assumes.
        if live as u64 > kw.max_key() as u64 {
            return corrupt("live count exceeds key width");
        }
        if intervals == 0 {
            if leaves != 0 {
                return corrupt("leaf count for empty index");
            }
        } else if leaves != intervals.next_power_of_two() {
            return corrupt("leaf count");
        }
        // The payload must sit between the section start and the header,
        // in whole pages, with a page count a PageId can address.
        let header_pos = file_len
            .checked_sub((HEADER_BYTES + FOOTER_BYTES) as u64)
            .ok_or(PagedError::Corrupt("file shorter than header"))?;
        if payload_len % page_size as u64 != 0 {
            return corrupt("payload not whole pages");
        }
        if payload_len / page_size as u64 > u32::MAX as u64 {
            return corrupt("payload page count");
        }
        let payload_end =
            payload_off.checked_add(payload_len).ok_or(PagedError::Corrupt("payload range"))?;
        if section_start > payload_off || payload_end > header_pos {
            return corrupt("payload outside section");
        }
        // Directory: fixed order, page-aligned, non-overlapping, inside the
        // payload, with the lengths the counts dictate.
        let (n, lv, m) = (nodes as u64, live as u64, intervals as u64);
        let expect: [u64; SEG_COUNT] = [
            n * kw.head_bytes() as u64,
            spill_keys
                .checked_mul(kw.key_bytes() as u64)
                .ok_or(PagedError::Corrupt("spill length"))?,
            n * 4,
            lv * 4,
            m * 4,
            m * 4,
            m * 4,
            if m == 0 { 0 } else { 2 * leaves as u64 * 4 },
        ];
        let mut prev_end = 0u64;
        for (i, &want) in expect.iter().enumerate() {
            let seg = meta.segs[i];
            if seg.len != want {
                return corrupt("segment length");
            }
            if seg.off % page_size as u64 != 0 || seg.off < prev_end {
                return corrupt("segment offset");
            }
            prev_end =
                seg.off.checked_add(seg.len).ok_or(PagedError::Corrupt("segment range"))?;
            if prev_end > payload_len {
                return corrupt("segment past payload");
            }
        }
        Ok(meta)
    }

    fn payload_pages(&self) -> u64 {
        self.payload_len / self.page_size as u64
    }
}

// ---------------------------------------------------------------------------
// Streaming writer
// ---------------------------------------------------------------------------

/// Streams the labeling's frozen snapshot to `out` as a `PLN1` section,
/// starting at the current stream position. Two passes over the label sets
/// (count, then write); row headers and boundary spill are re-derived per
/// pass and never held in memory, so peak RSS is the number line plus the
/// stabbing triples.
pub(crate) fn write_plane_section<W: Write + Seek>(
    lab: &Labeling,
    out: &mut W,
    page_size: usize,
) -> io::Result<()> {
    assert!(
        page_size >= 128 && page_size % 128 == 0,
        "plane page size must be a multiple of 128"
    );
    let too_big = || io::Error::new(io::ErrorKind::InvalidData, "plane exceeds PLN1 extents");
    let section_start = out.stream_position()?;
    let n = lab.post.len();
    let live = lab.line.live_count();
    if n > u32::MAX as usize || live > u32::MAX as usize {
        return Err(too_big());
    }
    let mut line_nums: Vec<u64> = Vec::with_capacity(live);
    let mut line_nodes: Vec<u32> = Vec::with_capacity(live);
    for (num, node) in lab.line.live_in_range(0, u64::MAX) {
        line_nums.push(num);
        line_nodes.push(node);
    }
    let mut rank = vec![0u32; n];
    for (r, &node) in line_nodes.iter().enumerate() {
        rank[node as usize] = r as u32;
    }
    let kw = if live <= u16::MAX as usize { KeyWidth::Narrow } else { KeyWidth::Wide };

    // Counting pass: per-row merged interval counts size every segment and
    // collect the stabbing triples (the only per-interval state kept).
    let mut row: Vec<(u32, u32)> = Vec::new();
    let mut stab: Vec<(u32, u32, u32)> = Vec::new();
    let mut source_intervals = 0u64;
    let mut spill_keys = 0u64;
    for (owner, set) in lab.sets.iter().enumerate() {
        source_intervals += set.count() as u64;
        merged_row_into(&line_nums, set, &mut row);
        for &(lo, hi) in &row {
            stab.push((lo, hi, owner as u32));
        }
        spill_keys += padded_boundary_keys(row.len(), kw) as u64;
    }
    stab.sort_unstable();
    let m = stab.len();
    if m > u32::MAX as usize || spill_keys > u32::MAX as u64 {
        return Err(too_big());
    }
    let leaves = if m == 0 { 0 } else { m.next_power_of_two() };

    // Directory: fixed segment order at page-aligned payload offsets.
    let lens: [u64; SEG_COUNT] = [
        n as u64 * kw.head_bytes() as u64,
        spill_keys * kw.key_bytes() as u64,
        n as u64 * 4,
        live as u64 * 4,
        m as u64 * 4,
        m as u64 * 4,
        m as u64 * 4,
        if m == 0 { 0 } else { 2 * leaves as u64 * 4 },
    ];
    let ps = page_size as u64;
    let mut segs = [Segment::default(); SEG_COUNT];
    let mut pos = 0u64;
    for (seg, &len) in segs.iter_mut().zip(&lens) {
        let off = align_up(pos, ps).ok_or_else(too_big)?;
        *seg = Segment { off, len };
        pos = off.checked_add(len).ok_or_else(too_big)?;
    }
    let payload_len = align_up(pos, ps).ok_or_else(too_big)?;
    let payload_off = align_up(section_start, ps).ok_or_else(too_big)?;

    // Pad to the first payload page, then stream every payload byte —
    // segment bytes and alignment padding alike — through the digest.
    write_zeros(out, payload_off - section_start)?;
    let mut w = HashingWriter::new(&mut *out);
    let mut cursor = 0u64;
    let mut head_buf = vec![0u8; kw.head_bytes()];
    let mut bound_buf: Vec<u8> = Vec::new();

    // HEADS: re-derive each row, encode its fixed-size header.
    pad_to(&mut w, &mut cursor, segs[SEG_HEADS].off)?;
    let mut next_spill = 0u64;
    for set in lab.sets.iter() {
        merged_row_into(&line_nums, set, &mut row);
        encode_head(&mut head_buf, kw, &row, next_spill as u32);
        next_spill += padded_boundary_keys(row.len(), kw) as u64;
        w.write_all(&head_buf)?;
        cursor += head_buf.len() as u64;
    }
    // SPILL: re-derive again, encode each row's padded boundary keys.
    pad_to(&mut w, &mut cursor, segs[SEG_SPILL].off)?;
    for set in lab.sets.iter() {
        merged_row_into(&line_nums, set, &mut row);
        bound_buf.clear();
        encode_boundaries(&mut bound_buf, kw, &row);
        w.write_all(&bound_buf)?;
        cursor += bound_buf.len() as u64;
    }
    pad_to(&mut w, &mut cursor, segs[SEG_RANK].off)?;
    write_u32s(&mut w, &mut cursor, rank.iter().copied())?;
    pad_to(&mut w, &mut cursor, segs[SEG_LINE].off)?;
    write_u32s(&mut w, &mut cursor, line_nodes.iter().copied())?;
    pad_to(&mut w, &mut cursor, segs[SEG_STAB_LOS].off)?;
    write_u32s(&mut w, &mut cursor, stab.iter().map(|t| t.0))?;
    pad_to(&mut w, &mut cursor, segs[SEG_STAB_HIS].off)?;
    write_u32s(&mut w, &mut cursor, stab.iter().map(|t| t.1))?;
    pad_to(&mut w, &mut cursor, segs[SEG_STAB_OWNERS].off)?;
    write_u32s(&mut w, &mut cursor, stab.iter().map(|t| t.2))?;
    if m > 0 {
        // Stabbing segment tree, identical to StabbingIndex::rebuild:
        // leaves hold hi + 1 (padding stays 0), internals the child max.
        let mut tree = vec![0u32; 2 * leaves];
        for (i, t) in stab.iter().enumerate() {
            tree[leaves + i] = t.1 + 1;
        }
        for i in (1..leaves).rev() {
            tree[i] = tree[2 * i].max(tree[2 * i + 1]);
        }
        pad_to(&mut w, &mut cursor, segs[SEG_STAB_TREE].off)?;
        write_u32s(&mut w, &mut cursor, tree.iter().copied())?;
    }
    pad_to(&mut w, &mut cursor, payload_len)?;
    debug_assert_eq!(w.written(), payload_len);
    let payload_fnv = w.digest();

    // Header + footer close the section; the header digest covers
    // everything above it.
    let mut h = [0u8; HEADER_BYTES];
    h[0..4].copy_from_slice(&PLANE_MAGIC);
    h[4] = kw.key_bytes() as u8;
    h[8..12].copy_from_slice(&(page_size as u32).to_le_bytes());
    h[16..24].copy_from_slice(&(n as u64).to_le_bytes());
    h[24..32].copy_from_slice(&(live as u64).to_le_bytes());
    h[32..40].copy_from_slice(&(m as u64).to_le_bytes());
    h[40..48].copy_from_slice(&source_intervals.to_le_bytes());
    h[48..56].copy_from_slice(&(leaves as u64).to_le_bytes());
    h[56..64].copy_from_slice(&spill_keys.to_le_bytes());
    h[64..72].copy_from_slice(&payload_off.to_le_bytes());
    h[72..80].copy_from_slice(&payload_len.to_le_bytes());
    h[80..88].copy_from_slice(&payload_fnv.to_le_bytes());
    for (i, seg) in segs.iter().enumerate() {
        h[88 + 16 * i..96 + 16 * i].copy_from_slice(&seg.off.to_le_bytes());
        h[96 + 16 * i..104 + 16 * i].copy_from_slice(&seg.len.to_le_bytes());
    }
    let hfnv = fnv1a(&h[..HEADER_HASHED]);
    h[HEADER_HASHED..HEADER_BYTES].copy_from_slice(&hfnv.to_le_bytes());
    out.write_all(&h)?;
    out.write_all(&section_start.to_le_bytes())?;
    out.write_all(&PLANE_MAGIC)?;
    Ok(())
}

fn write_zeros<W: Write>(out: &mut W, count: u64) -> io::Result<()> {
    let zeros = [0u8; 512];
    let mut left = count;
    while left > 0 {
        let take = left.min(zeros.len() as u64) as usize;
        out.write_all(&zeros[..take])?;
        left -= take as u64;
    }
    Ok(())
}

fn pad_to<W: Write>(w: &mut W, cursor: &mut u64, target: u64) -> io::Result<()> {
    debug_assert!(*cursor <= target, "writer overran segment plan");
    write_zeros(w, target - *cursor)?;
    *cursor = target;
    Ok(())
}

fn write_u32s<W: Write>(
    w: &mut W,
    cursor: &mut u64,
    items: impl Iterator<Item = u32>,
) -> io::Result<()> {
    // Chunk through a small staging buffer so the hashing writer sees a
    // few large writes per segment instead of one per element.
    let mut buf = Vec::with_capacity(4096);
    for v in items {
        buf.extend_from_slice(&v.to_le_bytes());
        if buf.len() >= 4096 {
            w.write_all(&buf)?;
            *cursor += buf.len() as u64;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    *cursor += buf.len() as u64;
    Ok(())
}

// ---------------------------------------------------------------------------
// The hybrid overlay (HYB1)
// ---------------------------------------------------------------------------
//
// The hybrid oracle's two structures — negative-cutoff labels and the
// bitset rows — are consulted on (nearly) every probe, so paging them would
// defeat their purpose. They ride as a *resident overlay* appended after
// the `PLN1` footer: `mn[n] ++ post[n] ++ slots[n]` as `u32`s, then the
// words arena as `u64`s, closed by a fixed trailer that locates where the
// plain plane image ends. The `PLN1` section itself is unchanged (every
// node keeps its full interval row on disk), so files without the overlay
// still end with the plane footer and open exactly as before.

/// The hybrid structures held in memory alongside a [`PagedPlane`].
#[derive(Debug)]
struct ResidentHybrid {
    cutoff: CutoffLabels,
    bitrows: BitRows,
    threshold: u64,
}

/// A parsed, shape-validated hybrid trailer.
struct HybridTail {
    n: usize,
    live: usize,
    threshold: u64,
    words: usize,
    payload_fnv: u64,
    /// Where the `PLN1` file image ends — also the overlay payload start.
    plane_end: u64,
}

impl HybridTail {
    fn payload_len(&self) -> u64 {
        self.n as u64 * 12 + self.words as u64 * 8
    }

    /// Parses the trailing [`HYBRID_TRAILER_BYTES`] of a file. `Ok(None)`
    /// means "no overlay here" (fall through to a plain `PLN1` parse);
    /// a valid magic with a broken digest or shape is `Corrupt`.
    fn parse(file_len: u64, t: &[u8]) -> Result<Option<HybridTail>, PagedError> {
        if t.len() != HYBRID_TRAILER_BYTES || t[0..4] != HYBRID_MAGIC {
            return Ok(None);
        }
        if fnv1a(&t[..HYBRID_HASHED]) != rd_u64(t, HYBRID_HASHED) {
            return corrupt("hybrid trailer digest mismatch");
        }
        let as_count = |v: u64, what: &'static str| -> Result<usize, PagedError> {
            if v > u32::MAX as u64 {
                Err(PagedError::Corrupt(what))
            } else {
                Ok(v as usize)
            }
        };
        let tail = HybridTail {
            n: as_count(rd_u64(t, 4), "hybrid node count")?,
            live: as_count(rd_u64(t, 12), "hybrid live count")?,
            threshold: rd_u64(t, 20),
            words: as_count(rd_u64(t, 28), "hybrid word count")?,
            payload_fnv: rd_u64(t, 36),
            plane_end: rd_u64(t, 44),
        };
        let end = tail
            .plane_end
            .checked_add(tail.payload_len())
            .and_then(|v| v.checked_add(HYBRID_TRAILER_BYTES as u64));
        if end != Some(file_len) {
            return corrupt("hybrid overlay extents");
        }
        Ok(Some(tail))
    }

    /// Reassembles the resident structures from the raw payload bytes.
    fn load(&self, payload: &[u8]) -> Result<ResidentHybrid, PagedError> {
        if payload.len() as u64 != self.payload_len() {
            return corrupt("hybrid payload length");
        }
        if fnv1a(payload) != self.payload_fnv {
            return corrupt("hybrid payload digest mismatch");
        }
        let n = self.n;
        let u32s = |at: usize| -> Vec<u32> {
            payload[at..at + 4 * n].chunks_exact(4).map(|c| rd_u32(c, 0)).collect()
        };
        let mn = u32s(0);
        let post = u32s(4 * n);
        let slots = u32s(8 * n);
        let words: Vec<u64> = payload[12 * n..].chunks_exact(8).map(|c| rd_u64(c, 0)).collect();
        let width = self.live.div_ceil(64);
        let bitrows =
            BitRows::from_parts(width, slots, words, 0).map_err(PagedError::Corrupt)?;
        Ok(ResidentHybrid {
            cutoff: CutoffLabels::from_parts(mn, post),
            bitrows,
            threshold: self.threshold,
        })
    }
}

/// If `data` ends with a valid hybrid trailer, the prefix holding the plain
/// `PLN1` file image; `data` unchanged otherwise. Purely structural.
fn strip_hybrid_tail(data: &[u8]) -> &[u8] {
    if data.len() < HYBRID_TRAILER_BYTES {
        return data;
    }
    let t = &data[data.len() - HYBRID_TRAILER_BYTES..];
    match HybridTail::parse(data.len() as u64, t) {
        Ok(Some(tail)) => &data[..tail.plane_end as usize],
        _ => data,
    }
}

/// Appends the hybrid overlay for `lab` (frozen against `graph` at
/// `threshold`) at the writer's current position — which must be the end of
/// the `PLN1` section — and closes it with the trailer.
pub(crate) fn write_hybrid_overlay<W: Write + Seek>(
    graph: &DiGraph,
    lab: &Labeling,
    threshold: usize,
    out: &mut W,
) -> io::Result<()> {
    let plane_end = out.stream_position()?;
    let n = lab.post.len();
    debug_assert_eq!(graph.node_count(), n, "hybrid overlay graph/labeling mismatch");
    let live = lab.line.live_count();
    let cutoff = CutoffLabels::build(graph);
    let line_nums: Vec<u64> = lab.line.live_in_range(0, u64::MAX).map(|(num, _)| num).collect();
    let mut bits = BitRowsBuilder::new(n, live);
    let mut row: Vec<(u32, u32)> = Vec::new();
    for (owner, set) in lab.sets.iter().enumerate() {
        merged_row_into(&line_nums, set, &mut row);
        if row.len() > threshold {
            bits.add_row(owner, &row);
        }
    }
    let rows = bits.finish();
    let mut w = HashingWriter::new(&mut *out);
    let mut cursor = 0u64;
    write_u32s(&mut w, &mut cursor, cutoff.mn().iter().copied())?;
    write_u32s(&mut w, &mut cursor, cutoff.post().iter().copied())?;
    write_u32s(&mut w, &mut cursor, rows.slots().iter().copied())?;
    let mut buf = Vec::with_capacity(4096);
    for &word in rows.words() {
        buf.extend_from_slice(&word.to_le_bytes());
        if buf.len() >= 4096 {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    let payload_fnv = w.digest();
    let mut t = [0u8; HYBRID_TRAILER_BYTES];
    t[0..4].copy_from_slice(&HYBRID_MAGIC);
    t[4..12].copy_from_slice(&(n as u64).to_le_bytes());
    t[12..20].copy_from_slice(&(live as u64).to_le_bytes());
    t[20..28].copy_from_slice(&(threshold as u64).to_le_bytes());
    t[28..36].copy_from_slice(&(rows.words().len() as u64).to_le_bytes());
    t[36..44].copy_from_slice(&payload_fnv.to_le_bytes());
    t[44..52].copy_from_slice(&plane_end.to_le_bytes());
    let tfnv = fnv1a(&t[..HYBRID_HASHED]);
    t[HYBRID_HASHED..].copy_from_slice(&tfnv.to_le_bytes());
    out.write_all(&t)?;
    Ok(())
}

// ---------------------------------------------------------------------------
// The paged prober
// ---------------------------------------------------------------------------

/// The pager and its buffer pool, locked together: the pager's read
/// counters and the pool's LRU state both need exclusive access, and a
/// fetch must consult them atomically. Pins escape the lock — a [`PagePin`]
/// owns its bytes — so the critical section is one map probe and an O(1)
/// relink of the recency list plus, on a miss, one page read into a reused
/// buffer.
#[derive(Debug)]
struct PoolInner {
    pager: Pager,
    pool: BufferPool,
}

/// Aggregate I/O counters of a [`PagedPlane`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagedIoStats {
    /// Pages read from the backing file (pool misses).
    pub page_reads: u64,
    /// Buffer-pool hit/miss/eviction counters.
    pub pool: PoolStats,
    /// Pages currently cached.
    pub resident: usize,
}

/// A frozen query plane served out-of-core: the `PLN1` section stays on
/// disk and probes pull pages through an LRU buffer pool. Answers are
/// bit-identical to the in-memory [`crate::QueryPlane`] frozen from the
/// same labeling. Cheap to share: wrap in an [`Arc`] and query from any
/// thread (fetches serialize on an internal lock; decoded bytes are read
/// outside it).
#[derive(Debug)]
pub struct PagedPlane {
    meta: PlaneMeta,
    inner: Mutex<PoolInner>,
    /// Resident hybrid-oracle structures (negative-cutoff labels + bitset
    /// rows) when the file carries a `HYB1` overlay; `None` serves the
    /// plain interval plane.
    hybrid: Option<ResidentHybrid>,
    /// A temp file owned by this plane (freeze-to-temp), removed on drop.
    owned_path: Option<PathBuf>,
}

impl Drop for PagedPlane {
    fn drop(&mut self) {
        if let Some(path) = &self.owned_path {
            let _ = fs::remove_file(path);
        }
    }
}

impl PagedPlane {
    /// Opens the plane section of `path` — a file written by
    /// [`CompressedClosure::save_paged`] or a standalone section — reading
    /// only the footer and header: O(directory), independent of the
    /// interval count. `pool_pages` caps the buffer pool (min 1).
    pub fn open<P: AsRef<Path>>(path: P, pool_pages: usize) -> Result<PagedPlane, PagedError> {
        Self::open_impl(path.as_ref(), pool_pages, None)
    }

    fn open_impl(
        path: &Path,
        pool_pages: usize,
        owned_path: Option<PathBuf>,
    ) -> Result<PagedPlane, PagedError> {
        let file = File::open(path)?;
        let file_len = file.metadata()?.len();
        // A hybrid overlay, when present, sits between the plane footer and
        // the end of the file; load it resident and parse the `PLN1`
        // section as if the file ended where the overlay begins.
        let mut hybrid = None;
        let mut plane_len = file_len;
        if file_len >= HYBRID_TRAILER_BYTES as u64 {
            let mut tb = [0u8; HYBRID_TRAILER_BYTES];
            file.read_exact_at(&mut tb, file_len - HYBRID_TRAILER_BYTES as u64)?;
            if let Some(tail) = HybridTail::parse(file_len, &tb)? {
                let mut payload = vec![0u8; tail.payload_len() as usize];
                file.read_exact_at(&mut payload, tail.plane_end)?;
                hybrid = Some(tail.load(&payload)?);
                plane_len = tail.plane_end;
            }
        }
        let tail = (HEADER_BYTES + FOOTER_BYTES) as u64;
        if plane_len < tail {
            return corrupt("file shorter than header");
        }
        let mut buf = [0u8; HEADER_BYTES + FOOTER_BYTES];
        file.read_exact_at(&mut buf, plane_len - tail)?;
        let meta = PlaneMeta::parse(plane_len, &buf[..HEADER_BYTES], &buf[HEADER_BYTES..])?;
        Self::check_hybrid_shape(&meta, hybrid.as_ref())?;
        let pager = Pager::open_file_region(
            file,
            meta.payload_off,
            meta.payload_pages() as usize,
            meta.page_size,
        );
        let pool = BufferPool::new(pool_pages.max(1));
        Ok(PagedPlane { meta, inner: Mutex::new(PoolInner { pager, pool }), hybrid, owned_path })
    }

    /// The overlay's counts must match the plane it annotates.
    fn check_hybrid_shape(
        meta: &PlaneMeta,
        hybrid: Option<&ResidentHybrid>,
    ) -> Result<(), PagedError> {
        if let Some(h) = hybrid {
            if h.cutoff.len() != meta.nodes || h.bitrows.slots().len() != meta.nodes {
                return corrupt("hybrid overlay node count mismatch");
            }
            if h.bitrows.row_count() > 0 && h.bitrows.width_words() != meta.live.div_ceil(64) {
                return corrupt("hybrid overlay width mismatch");
            }
        }
        Ok(())
    }

    /// As [`PagedPlane::open`], but taking ownership of `path`: the file is
    /// removed when the plane drops. Used by freeze-to-temp.
    pub(crate) fn open_owning(path: PathBuf, pool_pages: usize) -> Result<PagedPlane, PagedError> {
        Self::open_impl(&path, pool_pages, Some(path.clone()))
    }

    /// Opens a plane from an in-memory image of a section-bearing file,
    /// backing it with a memory pager (no file I/O). This is the fuzz
    /// campaign's entry point: byte mutations hit the same parse and probe
    /// paths as a corrupt file would.
    pub fn open_from_bytes(data: &[u8], pool_pages: usize) -> Result<PagedPlane, PagedError> {
        let mut hybrid = None;
        let mut plane = data;
        if data.len() >= HYBRID_TRAILER_BYTES {
            let tb = &data[data.len() - HYBRID_TRAILER_BYTES..];
            if let Some(tail) = HybridTail::parse(data.len() as u64, tb)? {
                let payload = &data[tail.plane_end as usize
                    ..tail.plane_end as usize + tail.payload_len() as usize];
                hybrid = Some(tail.load(payload)?);
                plane = &data[..tail.plane_end as usize];
            }
        }
        let tail = HEADER_BYTES + FOOTER_BYTES;
        if plane.len() < tail {
            return corrupt("file shorter than header");
        }
        let header = &plane[plane.len() - tail..plane.len() - FOOTER_BYTES];
        let footer = &plane[plane.len() - FOOTER_BYTES..];
        let meta = PlaneMeta::parse(plane.len() as u64, header, footer)?;
        Self::check_hybrid_shape(&meta, hybrid.as_ref())?;
        let mut pager = Pager::with_page_size(meta.page_size);
        let payload =
            &plane[meta.payload_off as usize..(meta.payload_off + meta.payload_len) as usize];
        for chunk in payload.chunks(meta.page_size) {
            let id = pager.alloc();
            pager.write(id, chunk);
        }
        pager.reset_counters();
        let pool = BufferPool::new(pool_pages.max(1));
        Ok(PagedPlane {
            meta,
            inner: Mutex::new(PoolInner { pager, pool }),
            hybrid,
            owned_path: None,
        })
    }

    /// Number of nodes in the snapshot.
    pub fn node_count(&self) -> usize {
        self.meta.nodes
    }

    /// Live number-line entries at freeze time.
    pub fn live_count(&self) -> usize {
        self.meta.live
    }

    /// Total merged rank intervals in the snapshot.
    pub fn total_intervals(&self) -> usize {
        self.meta.intervals
    }

    /// The labeling's interval count at freeze time, before rank merging.
    pub fn source_intervals(&self) -> usize {
        self.meta.source_intervals
    }

    /// Page size of the section.
    pub fn page_size(&self) -> usize {
        self.meta.page_size
    }

    /// The hybrid threshold the overlay was written with, when the file
    /// carries one (`None` = plain interval plane).
    pub fn hybrid_threshold(&self) -> Option<u64> {
        self.hybrid.as_ref().map(|h| h.threshold)
    }

    /// Number of nodes served from resident bitset rows (0 without an
    /// overlay).
    pub fn bitset_rows(&self) -> usize {
        self.hybrid.as_ref().map_or(0, |h| h.bitrows.row_count())
    }

    /// Total payload pages on disk (the plane's out-of-core footprint).
    pub fn payload_pages(&self) -> u64 {
        self.meta.payload_pages()
    }

    /// Where the plane section begins in the file — equivalently, the byte
    /// length of the `ITC1` stream ahead of it (0 for a standalone plane).
    pub(crate) fn section_start(&self) -> u64 {
        self.meta.section_start
    }

    /// Cumulative I/O counters (pager reads, pool hits/misses/evictions).
    pub fn io_stats(&self) -> PagedIoStats {
        let g = self.lock();
        PagedIoStats {
            page_reads: g.pager.reads(),
            pool: g.pool.stats(),
            resident: g.pool.resident(),
        }
    }

    /// Resets the I/O counters *and empties the buffer pool* — the next
    /// probe starts cold. For warm-cache deltas, diff [`PagedPlane::io_stats`]
    /// snapshots instead.
    pub fn reset_io(&self) {
        let mut g = self.lock();
        g.pager.reset_counters();
        g.pool.clear();
    }

    fn lock(&self) -> MutexGuard<'_, PoolInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetches one payload page as a pin (bytes stay valid after unlock).
    fn pin(&self, page: u64) -> Result<PagePin, PagedError> {
        if page >= self.meta.payload_pages() {
            return corrupt("page index out of range");
        }
        let mut g = self.lock();
        let PoolInner { pager, pool } = &mut *g;
        Ok(pool.fetch_pin(pager, PageId(page as u32))?)
    }

    /// Runs `f` over `len` bytes at `byte_off` within segment `seg`,
    /// bounds-checked against the directory. Single-page runs borrow the
    /// pinned frame; straddling runs are copied (only multi-key reads can
    /// straddle — heads and `u32` cells divide the page size).
    fn with_run<R>(
        &self,
        seg: usize,
        byte_off: u64,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, PagedError> {
        let s = self.meta.segs[seg];
        let end = byte_off.checked_add(len as u64).ok_or(PagedError::Corrupt("range overflow"))?;
        if end > s.len {
            return corrupt("read past segment end");
        }
        let ps = self.meta.page_size as u64;
        let abs = s.off + byte_off;
        let in_page = (abs % ps) as usize;
        if in_page + len <= self.meta.page_size {
            let pin = self.pin(abs / ps)?;
            return Ok(f(&pin[in_page..in_page + len]));
        }
        let mut buf = vec![0u8; len];
        let mut filled = 0usize;
        while filled < len {
            let at = abs + filled as u64;
            let in_page = (at % ps) as usize;
            let take = (self.meta.page_size - in_page).min(len - filled);
            let pin = self.pin(at / ps)?;
            buf[filled..filled + take].copy_from_slice(&pin[in_page..in_page + take]);
            filled += take;
        }
        Ok(f(&buf))
    }

    /// The `u32` at `index` of a 4-byte-element segment.
    fn u32_at(&self, seg: usize, index: u64) -> Result<u32, PagedError> {
        let off = index.checked_mul(4).ok_or(PagedError::Corrupt("index overflow"))?;
        self.with_run(seg, off, 4, |b| rd_u32(b, 0))
    }

    /// Node id bounds check shared by the public probes.
    fn check_node(&self, node: NodeId) -> Result<usize, PagedError> {
        if node.index() >= self.meta.nodes {
            return corrupt("node id out of range");
        }
        Ok(node.index())
    }

    /// The rank of `node`'s own postorder number — the probe key.
    fn rank_of(&self, node: NodeId) -> Result<u32, PagedError> {
        let idx = self.check_node(node)?;
        let r = self.u32_at(SEG_RANK, idx as u64)?;
        if r as u64 >= self.meta.live as u64 {
            return corrupt("rank out of range");
        }
        Ok(r)
    }

    /// Parity-counts spill keys `<= t` over `[key_start, key_start +
    /// key_count)`, page by page — `count_le` is associative, so no slice
    /// is ever materialized across a page boundary.
    fn spill_count_le(&self, key_start: u64, key_count: u64, t: u32) -> Result<usize, PagedError> {
        let kb = self.meta.kw.key_bytes() as u64;
        let start =
            key_start.checked_mul(kb).ok_or(PagedError::Corrupt("spill range overflow"))?;
        let len =
            key_count.checked_mul(kb).ok_or(PagedError::Corrupt("spill range overflow"))?;
        let end = start.checked_add(len).ok_or(PagedError::Corrupt("spill range overflow"))?;
        if end > self.meta.segs[SEG_SPILL].len {
            return corrupt("row slice past spill segment");
        }
        let ps = self.meta.page_size as u64;
        let seg_off = self.meta.segs[SEG_SPILL].off;
        let mut count = 0usize;
        let mut pos = start;
        while pos < end {
            let at = seg_off + pos;
            let in_page = (at % ps) as usize;
            let take = ((ps - in_page as u64).min(end - pos)) as usize;
            let pin = self.pin(at / ps)?;
            count += count_le(&pin[in_page..in_page + take], self.meta.kw, t);
            pos += take as u64;
        }
        Ok(count)
    }

    /// Whether row `row`'s interval set contains rank `t`: one header page,
    /// then at most one boundary slice (≤ 2 pages when it straddles).
    fn row_contains(&self, row: usize, t: u32) -> Result<bool, PagedError> {
        let kw = self.meta.kw;
        let hb = kw.head_bytes();
        let probe =
            self.with_run(SEG_HEADS, (row * hb) as u64, hb, |bytes| probe_head(bytes, kw, t))?;
        match probe {
            HeadProbe::Hit(ans) => Ok(ans),
            HeadProbe::Scan { key_start, key_count } => {
                Ok(self.spill_count_le(key_start, key_count as u64, t)? % 2 == 1)
            }
        }
    }

    /// Fallible [`PagedPlane::reaches`]: reports corruption and page-read
    /// errors instead of panicking.
    pub fn try_reaches(&self, src: NodeId, dst: NodeId) -> Result<bool, PagedError> {
        let row = self.check_node(src)?;
        if let Some(h) = &self.hybrid {
            self.check_node(dst)?;
            // The cutoff labels rule out most unreachable pairs without a
            // single page fetch; a resident bitset row answers the rest of
            // its node's probes with one word test.
            if !h.cutoff.may_reach(src, dst) {
                return Ok(false);
            }
            let t = self.rank_of(dst)?;
            if let Some(hit) = h.bitrows.contains(row, t) {
                return Ok(hit);
            }
            return self.row_contains(row, t);
        }
        let t = self.rank_of(dst)?;
        self.row_contains(row, t)
    }

    /// Whether `src` reaches `dst` (reflexive) — bit-identical to the
    /// in-memory plane's answer.
    ///
    /// # Panics
    ///
    /// Panics if the section is corrupt or a page read fails; use
    /// [`PagedPlane::try_reaches`] for untrusted files.
    pub fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        self.try_reaches(src, dst).expect("paged plane probe")
    }

    /// Answers a batch of reachability pairs in one call.
    pub fn reaches_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<bool> {
        pairs.iter().map(|&(s, d)| self.reaches(s, d)).collect()
    }

    /// Reads row `row`'s merged rank intervals out of the header + spill
    /// segments, validating shape (ascending, disjoint, within the line).
    fn read_row_intervals(&self, row: usize, out: &mut Vec<(u32, u32)>) -> Result<(), PagedError> {
        out.clear();
        let kw = self.meta.kw;
        let hb = kw.head_bytes();
        let head = self.with_run(SEG_HEADS, (row * hb) as u64, hb, |b| decode_head(b, kw))?;
        let m = head.intervals as usize;
        if m == 0 {
            return Ok(());
        }
        if m > self.meta.intervals {
            return corrupt("row interval count exceeds total");
        }
        let kb = kw.key_bytes();
        let start = head.spill_start as u64;
        let bytes = 2 * m * kb;
        let byte_off = start.checked_mul(kb as u64).ok_or(PagedError::Corrupt("spill range"))?;
        out.reserve(m);
        self.with_run(SEG_SPILL, byte_off, bytes, |buf| {
            let mut prev_hi = 0u32;
            for j in 0..m {
                let lo = kw.key_at(buf, 2 * j);
                let hi1 = kw.key_at(buf, 2 * j + 1);
                if hi1 <= lo {
                    return corrupt("row interval inverted");
                }
                let hi = hi1 - 1;
                if hi as u64 >= self.meta.live as u64 {
                    return corrupt("row interval past line end");
                }
                if j > 0 && lo <= prev_hi {
                    return corrupt("row intervals not ascending");
                }
                prev_hi = hi;
                out.push((lo, hi));
            }
            Ok(())
        })?
    }

    /// Fallible [`PagedPlane::successors_into`].
    pub fn try_successors_into(
        &self,
        node: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<(), PagedError> {
        let row = self.check_node(node)?;
        let mut intervals = Vec::new();
        let from_bits = self
            .hybrid
            .as_ref()
            .is_some_and(|h| h.bitrows.for_each_run(row, |lo, hi| intervals.push((lo, hi))));
        if !from_bits {
            self.read_row_intervals(row, &mut intervals)?;
        }
        out.clear();
        for (rlo, rhi) in intervals {
            self.read_line_run(rlo, rhi, out)?;
        }
        Ok(())
    }

    /// Appends the line nodes at ranks `[rlo, rhi]` to `out`, page by page.
    fn read_line_run(&self, rlo: u32, rhi: u32, out: &mut Vec<NodeId>) -> Result<(), PagedError> {
        let start = rlo as u64 * 4;
        let end = (rhi as u64 + 1) * 4;
        if end > self.meta.segs[SEG_LINE].len {
            return corrupt("rank run past line segment");
        }
        let ps = self.meta.page_size as u64;
        let seg_off = self.meta.segs[SEG_LINE].off;
        let mut pos = start;
        while pos < end {
            let at = seg_off + pos;
            let in_page = (at % ps) as usize;
            let take = ((ps - in_page as u64).min(end - pos)) as usize;
            let pin = self.pin(at / ps)?;
            let chunk = &pin[in_page..in_page + take];
            out.extend(chunk.chunks_exact(4).map(|c| NodeId(rd_u32(c, 0))));
            pos += take as u64;
        }
        Ok(())
    }

    /// All nodes reachable from `node` (including itself), ascending by
    /// postorder number — identical to the in-memory decode.
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.try_successors_into(node, &mut out).expect("paged plane probe");
        out
    }

    /// [`PagedPlane::successors`] into a caller-provided buffer.
    pub fn successors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        self.try_successors_into(node, out).expect("paged plane probe");
    }

    /// Fallible [`PagedPlane::successor_count`].
    pub fn try_successor_count(&self, node: NodeId) -> Result<usize, PagedError> {
        let row = self.check_node(node)?;
        if let Some(count) = self.hybrid.as_ref().and_then(|h| h.bitrows.count(row)) {
            return Ok(count);
        }
        let mut intervals = Vec::new();
        self.read_row_intervals(row, &mut intervals)?;
        Ok(intervals.iter().map(|&(lo, hi)| (hi - lo) as usize + 1).sum())
    }

    /// Count of nodes reachable from `node` without materializing the list.
    pub fn successor_count(&self, node: NodeId) -> usize {
        self.try_successor_count(node).expect("paged plane probe")
    }

    /// Fallible [`PagedPlane::predecessors_into`].
    pub fn try_predecessors_into(
        &self,
        node: NodeId,
        out: &mut Vec<NodeId>,
    ) -> Result<(), PagedError> {
        out.clear();
        let t = self.rank_of(node)?;
        let m = self.meta.intervals as u64;
        if m == 0 {
            return Ok(());
        }
        // Candidate prefix: positions with lo <= t (los is ascending).
        let mut lo = 0u64;
        let mut hi = m;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.u32_at(SEG_STAB_LOS, mid)? <= t {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let pos = lo as usize;
        if pos == 0 {
            return Ok(());
        }
        // Max-hi segment-tree descent, pruned exactly like the in-memory
        // StabbingIndex (tree entries are hi + 1; padding leaves are 0).
        let mut scratch: Vec<u32> = Vec::new();
        let mut stack: Vec<(u64, usize, usize)> = vec![(1, 0, self.meta.leaves)];
        while let Some((node_ix, range_lo, range_hi)) = stack.pop() {
            if range_lo >= pos || self.u32_at(SEG_STAB_TREE, node_ix)? <= t {
                continue;
            }
            if range_hi - range_lo == 1 {
                let owner = self.u32_at(SEG_STAB_OWNERS, range_lo as u64)?;
                if owner as usize >= self.meta.nodes {
                    return corrupt("stab owner out of range");
                }
                scratch.push(owner);
                continue;
            }
            let mid = range_lo + (range_hi - range_lo) / 2;
            if scratch.len() > self.meta.intervals {
                return corrupt("stab result exceeds interval count");
            }
            stack.push((2 * node_ix + 1, mid, range_hi));
            stack.push((2 * node_ix, range_lo, mid));
        }
        // A row's merged intervals are disjoint, so each owner appears at
        // most once — sorting alone restores id order.
        scratch.sort_unstable();
        out.extend(scratch.into_iter().map(NodeId));
        Ok(())
    }

    /// All nodes that reach `node` (including itself), ascending by node
    /// id — identical to the in-memory stab.
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.try_predecessors_into(node, &mut out).expect("paged plane probe");
        out
    }

    /// [`PagedPlane::predecessors`] into a caller-provided buffer.
    pub fn predecessors_into(&self, node: NodeId, out: &mut Vec<NodeId>) {
        self.try_predecessors_into(node, out).expect("paged plane probe");
    }

    /// Streams every payload page through FNV-1a and compares against the
    /// digest stored at freeze time. O(payload) — [`PagedPlane::open`]
    /// deliberately skips this to keep restart O(directory); run it when
    /// ingesting files from untrusted storage.
    pub fn verify_payload(&self) -> Result<(), PagedError> {
        let mut fnv = crate::codec::Fnv1a::new();
        for page in 0..self.meta.payload_pages() {
            let pin = self.pin(page)?;
            fnv.update(&pin);
        }
        if fnv.finish() != self.meta.payload_fnv {
            return corrupt("payload digest mismatch");
        }
        Ok(())
    }

    /// Cross-checks the snapshot's counts against the labeling it should
    /// mirror — the paged analogue of the in-memory plane's audit hook.
    pub(crate) fn check_consistency(&self, lab: &Labeling) -> Result<(), String> {
        if self.meta.nodes != lab.post.len() {
            return Err(format!(
                "paged plane holds {} nodes for {} in the labeling",
                self.meta.nodes,
                lab.post.len()
            ));
        }
        if self.meta.live != lab.line.live_count() {
            return Err(format!(
                "paged plane line length {} != {} live numbers",
                self.meta.live,
                lab.line.live_count()
            ));
        }
        let total: usize = lab.sets.iter().map(|s| s.count()).sum();
        if self.meta.source_intervals != total {
            return Err(format!(
                "paged plane frozen from {} intervals but labeling now holds {total}",
                self.meta.source_intervals
            ));
        }
        if self.meta.intervals > total {
            return Err(format!(
                "paged plane holds {} merged intervals, more than the labeling's {total}",
                self.meta.intervals
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Freeze-to-temp and the closure-level API
// ---------------------------------------------------------------------------

/// Distinguishes temp plane files of concurrent freezes in one process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Streams `lab`'s snapshot to a fresh temp file and opens it paged; the
/// file is removed when the returned plane drops. A finite `threshold`
/// appends the hybrid overlay, served resident by the opened plane.
pub(crate) fn freeze_paged(
    graph: &DiGraph,
    lab: &Labeling,
    threshold: usize,
    pool_pages: usize,
) -> Result<PagedPlane, PagedError> {
    let path = std::env::temp_dir().join(format!(
        "tc-plane-{}-{}.pln",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let write = || -> io::Result<()> {
        let mut w = io::BufWriter::new(File::create(&path)?);
        write_plane_section(lab, &mut w, DEFAULT_PAGE_SIZE)?;
        if threshold != usize::MAX {
            write_hybrid_overlay(graph, lab, threshold, &mut w)?;
        }
        w.flush()
    };
    if let Err(e) = write() {
        let _ = fs::remove_file(&path);
        return Err(PagedError::Io(e));
    }
    PagedPlane::open_owning(path, pool_pages)
}

/// An instant-restart handle over a [`CompressedClosure::save_paged`] file:
/// opened in O(directory) time, read queries served straight from the
/// on-disk plane section, and the full mutable closure decoded only when
/// [`PagedClosure::thaw`] asks for it.
#[derive(Debug)]
pub struct PagedClosure {
    plane: Arc<PagedPlane>,
    path: PathBuf,
}

impl PagedClosure {
    /// Opens `path` (written by [`CompressedClosure::save_paged`]) without
    /// decoding the `ITC1` stream: startup reads only the plane footer,
    /// header, and directory.
    pub fn open<P: AsRef<Path>>(path: P, pool_pages: usize) -> Result<PagedClosure, PagedError> {
        let plane = PagedPlane::open(path.as_ref(), pool_pages)?;
        Ok(PagedClosure { plane: Arc::new(plane), path: path.as_ref().to_path_buf() })
    }

    /// The underlying paged plane (shareable across threads).
    pub fn plane(&self) -> &Arc<PagedPlane> {
        &self.plane
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.plane.node_count()
    }

    /// Whether `src` reaches `dst` (reflexive).
    pub fn reaches(&self, src: NodeId, dst: NodeId) -> bool {
        self.plane.reaches(src, dst)
    }

    /// Answers a batch of reachability pairs.
    pub fn reaches_batch(&self, pairs: &[(NodeId, NodeId)]) -> Vec<bool> {
        self.plane.reaches_batch(pairs)
    }

    /// All nodes reachable from `node` (including itself).
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        self.plane.successors(node)
    }

    /// Count of nodes reachable from `node`.
    pub fn successor_count(&self, node: NodeId) -> usize {
        self.plane.successor_count(node)
    }

    /// All nodes that reach `node` (including itself).
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        self.plane.predecessors(node)
    }

    /// Decodes the `ITC1` stream ahead of the plane section into a full
    /// mutable [`CompressedClosure`] — the deferred half of instant
    /// restart, paid only when the caller needs to write. The paged plane
    /// stays attached and keeps serving reads until the first update
    /// invalidates it.
    pub fn thaw(&self) -> Result<CompressedClosure, PagedError> {
        let data = fs::read(&self.path)?;
        let cut = self.plane.section_start() as usize;
        if cut > data.len() {
            return corrupt("section start past end of file");
        }
        let mut closure = CompressedClosure::from_bytes(&data[..cut])?;
        closure.paged = Some(Arc::clone(&self.plane));
        Ok(closure)
    }
}

impl CompressedClosure {
    /// Serializes the closure as an `ITC1` stream followed by a `PLN1`
    /// plane section, streaming both (the plane section is written
    /// level-by-level from the labeling, never materialized in memory).
    /// The result can be reopened instantly with
    /// [`CompressedClosure::open_paged`] or loaded fully with
    /// [`CompressedClosure::load`].
    pub fn save_paged<P: AsRef<Path>>(&self, path: P) -> io::Result<()> {
        let mut w = io::BufWriter::new(File::create(path)?);
        self.write_to(&mut w)?;
        write_plane_section(&self.lab, &mut w, DEFAULT_PAGE_SIZE)?;
        if self.config.hybrid_threshold != usize::MAX {
            write_hybrid_overlay(&self.graph, &self.lab, self.config.hybrid_threshold, &mut w)?;
        }
        w.flush()
    }

    /// [`CompressedClosure::save_paged`] into memory — the fuzz campaign's
    /// corpus seed.
    pub fn to_paged_bytes(&self) -> Vec<u8> {
        let mut cur = io::Cursor::new(self.to_bytes());
        cur.seek(io::SeekFrom::End(0)).expect("in-memory seek");
        write_plane_section(&self.lab, &mut cur, DEFAULT_PAGE_SIZE)
            .expect("in-memory plane write");
        if self.config.hybrid_threshold != usize::MAX {
            write_hybrid_overlay(&self.graph, &self.lab, self.config.hybrid_threshold, &mut cur)
                .expect("in-memory overlay write");
        }
        cur.into_inner()
    }

    /// Opens a [`CompressedClosure::save_paged`] file as an instant-restart
    /// [`PagedClosure`]: O(directory) startup, reads served from the paged
    /// plane, the mutable closure decoded lazily by [`PagedClosure::thaw`].
    pub fn open_paged<P: AsRef<Path>>(
        path: P,
        pool_pages: usize,
    ) -> Result<PagedClosure, PagedError> {
        PagedClosure::open(path, pool_pages)
    }

    /// Loads a closure from a file written by either
    /// `std::fs::write(path, closure.to_bytes())` or
    /// [`CompressedClosure::save_paged`] — a trailing plane section, when
    /// present, is skipped.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<CompressedClosure, PagedError> {
        let data = fs::read(path)?;
        Self::from_bytes_auto(&data)
    }

    /// [`CompressedClosure::load`] for a buffer already in memory (e.g. a
    /// stream read from stdin): decodes a bare `ITC1` stream or a
    /// [`CompressedClosure::save_paged`] image, skipping the trailing
    /// plane section in the latter case.
    pub fn from_bytes_auto(data: &[u8]) -> Result<CompressedClosure, PagedError> {
        let stream = match plane_section_start(data) {
            Some(cut) => &data[..cut],
            None => data,
        };
        Ok(CompressedClosure::from_bytes(stream)?)
    }
}

/// If `data` ends with a plane footer (optionally followed by a hybrid
/// overlay), the byte offset where the section begins (i.e. the `ITC1`
/// stream length). Purely structural — corrupt sections are caught later by
/// the header digest.
fn plane_section_start(data: &[u8]) -> Option<usize> {
    let data = strip_hybrid_tail(data);
    if data.len() < HEADER_BYTES + FOOTER_BYTES {
        return None;
    }
    let footer = &data[data.len() - FOOTER_BYTES..];
    if footer[8..12] != PLANE_MAGIC {
        return None;
    }
    let start = rd_u64(footer, 0);
    (start <= data.len() as u64).then_some(start as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClosureConfig;
    use tc_graph::generators;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "tc-paged-test-{}-{}-{tag}.itc",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn sample_closure() -> CompressedClosure {
        let g = generators::random_dag(generators::RandomDagConfig {
            nodes: 120,
            avg_out_degree: 2.5,
            seed: 31,
        });
        ClosureConfig::new().reserve(2).build(&g).unwrap()
    }

    fn assert_plane_matches(c: &CompressedClosure, paged: &PagedPlane) {
        let mut mem = c.clone();
        mem.freeze();
        let plane = mem.plane().expect("frozen");
        assert_eq!(paged.node_count(), plane.node_count());
        assert_eq!(paged.total_intervals(), plane.total_intervals());
        for v in (0..c.node_count()).map(NodeId::from_index) {
            assert_eq!(paged.successors(v), plane.successors(v), "successors({v:?})");
            assert_eq!(paged.predecessors(v), plane.predecessors(v), "predecessors({v:?})");
            assert_eq!(paged.successor_count(v), plane.successor_count(v));
            for w in (0..c.node_count()).step_by(7).map(NodeId::from_index) {
                assert_eq!(paged.reaches(v, w), plane.reaches(v, w), "reaches({v:?},{w:?})");
            }
        }
    }

    #[test]
    fn save_open_round_trip_matches_memory_plane() {
        let c = sample_closure();
        let path = temp_path("roundtrip");
        c.save_paged(&path).unwrap();
        let paged = PagedPlane::open(&path, 64).unwrap();
        paged.verify_payload().unwrap();
        assert_plane_matches(&c, &paged);
        drop(paged);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn tiny_pool_still_answers_identically() {
        // Pool of one page ≪ plane: every probe evicts, answers unchanged.
        let c = sample_closure();
        let bytes = c.to_paged_bytes();
        let paged = PagedPlane::open_from_bytes(&bytes, 1).unwrap();
        assert!(paged.payload_pages() > 1, "plane must outsize the pool");
        assert_plane_matches(&c, &paged);
        let stats = paged.io_stats();
        assert!(stats.pool.evictions > 0, "one-frame pool must evict");
    }

    #[test]
    fn open_reads_only_the_directory() {
        let c = sample_closure();
        let path = temp_path("instant");
        c.save_paged(&path).unwrap();
        let paged = PagedPlane::open(&path, 64).unwrap();
        // Opening touched no payload pages at all; the first probe does.
        assert_eq!(paged.io_stats().page_reads, 0);
        assert!(paged.reaches(NodeId(0), NodeId(0)));
        assert!(paged.io_stats().page_reads > 0);
        drop(paged);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reaches_costs_a_bounded_page_count() {
        let c = sample_closure();
        let bytes = c.to_paged_bytes();
        let paged = PagedPlane::open_from_bytes(&bytes, 1).unwrap();
        // With a one-frame pool every touched page is a read: a point probe
        // is rank + head + at most one straddling slice = ≤ 4 pages.
        for v in (0..c.node_count()).step_by(11).map(NodeId::from_index) {
            for w in (0..c.node_count()).step_by(13).map(NodeId::from_index) {
                let before = paged.io_stats().page_reads;
                let _ = paged.reaches(v, w);
                assert!(paged.io_stats().page_reads - before <= 4);
            }
        }
    }

    #[test]
    fn paged_closure_thaws_to_equal_closure() {
        let c = sample_closure();
        let path = temp_path("thaw");
        c.save_paged(&path).unwrap();
        let handle = CompressedClosure::open_paged(&path, 32).unwrap();
        assert_eq!(handle.node_count(), c.node_count());
        assert_eq!(handle.successors(NodeId(3)), c.successors(NodeId(3)));
        let thawed = handle.thaw().unwrap();
        assert!(thawed.is_frozen(), "thaw keeps the paged plane attached");
        assert_eq!(thawed.to_bytes(), c.to_bytes(), "thawed stream is bit-identical");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_strips_the_plane_section() {
        let c = sample_closure();
        let path = temp_path("load");
        c.save_paged(&path).unwrap();
        let loaded = CompressedClosure::load(&path).unwrap();
        assert_eq!(loaded.to_bytes(), c.to_bytes());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_sections_error_instead_of_panicking() {
        let c = sample_closure();
        let good = c.to_paged_bytes();
        // Truncations at every granularity: parse must reject, never panic.
        for cut in [0, 1, 100, good.len() / 2, good.len() - 1] {
            assert!(PagedPlane::open_from_bytes(&good[..cut], 4).is_err());
        }
        // A flipped header byte breaks the header digest.
        let mut bad = good.clone();
        let hdr = bad.len() - HEADER_BYTES - FOOTER_BYTES;
        bad[hdr + 16] ^= 0xff;
        assert!(matches!(
            PagedPlane::open_from_bytes(&bad, 4),
            Err(PagedError::Corrupt(_))
        ));
        // A flipped payload byte passes open (O(directory) by design) but
        // fails the deep verify.
        let mut bad = good.clone();
        let meta_probe = PagedPlane::open_from_bytes(&good, 4).unwrap();
        let off = meta_probe.meta.payload_off as usize;
        bad[off] ^= 0xff;
        let opened = PagedPlane::open_from_bytes(&bad, 4).unwrap();
        assert!(matches!(opened.verify_payload(), Err(PagedError::Corrupt(_))));
    }

    #[test]
    fn failed_page_reads_are_errors_and_leave_the_pool_consistent() {
        let c = sample_closure();
        let path = temp_path("truncated");
        c.save_paged(&path).unwrap();
        let image = fs::read(&path).unwrap();
        let pool_pages = 4;
        let paged = PagedPlane::open(&path, pool_pages).unwrap();
        // Cut the file 100 bytes into the rank segment, which every
        // `reaches` reads: that page's read comes back short, after
        // filling part of the buffer.
        let cut = paged.meta.payload_off + paged.meta.segs[SEG_RANK].off + 100;
        fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(cut).unwrap();
        let mut failed = 0u64;
        // Every read the pager made was a pool miss; each failed probe
        // stopped at its one failed read, which mapped no frame; every
        // other miss added a frame or replaced one.
        let assert_consistent = |failed: u64| {
            let io = paged.io_stats();
            assert_eq!(io.pool.misses, io.page_reads);
            assert_eq!(io.resident as u64, io.pool.misses - io.pool.evictions - failed);
            assert!(io.resident <= pool_pages);
        };
        for v in (0..c.node_count()).step_by(3).map(NodeId::from_index) {
            for w in (0..c.node_count()).step_by(7).map(NodeId::from_index) {
                let got = paged.try_reaches(v, w);
                assert!(matches!(got, Err(PagedError::Io(_))), "reaches({v:?},{w:?}): {got:?}");
                failed += 1;
                assert_consistent(failed);
            }
        }
        let mut out = Vec::new();
        for v in (0..c.node_count()).step_by(5).map(NodeId::from_index) {
            let got = paged.try_successors_into(v, &mut out);
            assert!(matches!(got, Err(PagedError::Io(_))), "successors({v:?}): {got:?}");
            let got = paged.try_predecessors_into(v, &mut out);
            assert!(matches!(got, Err(PagedError::Io(_))), "predecessors({v:?}): {got:?}");
            failed += 2;
            assert_consistent(failed);
        }
        // Restore the file under the open plane: had a failed read left a
        // half-filled frame mapped, the probes below would hit it.
        fs::write(&path, &image).unwrap();
        assert_plane_matches(&c, &paged);
        assert_consistent(failed);
        drop(paged);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_single_node_planes() {
        for edges in [vec![], vec![(0u32, 1u32)]] {
            let g = tc_graph::DiGraph::from_edges(edges);
            let c = CompressedClosure::build(&g).unwrap();
            let bytes = c.to_paged_bytes();
            let paged = PagedPlane::open_from_bytes(&bytes, 2).unwrap();
            assert_plane_matches(&c, &paged);
        }
    }

    fn hybrid_closure() -> CompressedClosure {
        // Dense layered graphs fragment successor sets, so a low threshold
        // actually selects bitset rows.
        let g = generators::dense_layered(6, 18, 4, 9);
        ClosureConfig::new().hybrid(2).build(&g).unwrap()
    }

    #[test]
    fn hybrid_overlay_roundtrips_and_matches_every_plane() {
        let c = hybrid_closure();
        let bytes = c.to_paged_bytes();
        let paged = PagedPlane::open_from_bytes(&bytes, 8).unwrap();
        assert_eq!(paged.hybrid_threshold(), Some(2));
        assert!(paged.bitset_rows() > 0, "threshold 2 must select bitset rows");
        // Identical to the hybrid in-memory plane...
        assert_plane_matches(&c, &paged);
        // ...and to a pure-interval freeze of the same labels.
        let mut pure = c.clone();
        pure.set_hybrid_threshold(usize::MAX);
        pure.freeze();
        let plain = pure.plane().expect("frozen");
        for v in (0..c.node_count()).map(NodeId::from_index) {
            assert_eq!(paged.successors(v), plain.successors(v));
            assert_eq!(paged.successor_count(v), plain.successor_count(v));
            for w in (0..c.node_count()).step_by(5).map(NodeId::from_index) {
                assert_eq!(paged.reaches(v, w), plain.reaches(v, w), "reaches({v:?},{w:?})");
            }
        }
    }

    #[test]
    fn hybrid_overlay_survives_a_file_roundtrip() {
        let c = hybrid_closure();
        let path = temp_path("hybrid");
        c.save_paged(&path).unwrap();
        let paged = PagedPlane::open(&path, 16).unwrap();
        assert!(paged.bitset_rows() > 0);
        assert_plane_matches(&c, &paged);
        // `load` sees through the overlay *and* the plane section, and the
        // HYB1 config footer restores the threshold.
        let loaded = CompressedClosure::load(&path).unwrap();
        assert_eq!(loaded.hybrid_threshold(), 2);
        assert_eq!(loaded.to_bytes(), c.to_bytes());
        drop(paged);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_hybrid_overlays_error_instead_of_panicking() {
        let c = hybrid_closure();
        let good = c.to_paged_bytes();
        // A flipped overlay payload byte breaks the payload digest.
        let plane_end = {
            let t = &good[good.len() - HYBRID_TRAILER_BYTES..];
            rd_u64(t, 44) as usize
        };
        let mut bad = good.clone();
        bad[plane_end] ^= 0xff;
        assert!(matches!(
            PagedPlane::open_from_bytes(&bad, 4),
            Err(PagedError::Corrupt(_))
        ));
        // A flipped trailer byte breaks the trailer digest.
        let mut bad = good.clone();
        let at = good.len() - HYBRID_TRAILER_BYTES + 20;
        bad[at] ^= 0xff;
        assert!(PagedPlane::open_from_bytes(&bad, 4).is_err());
        // Truncations anywhere in the overlay reject cleanly.
        for cut in [plane_end + 1, good.len() - HYBRID_TRAILER_BYTES, good.len() - 1] {
            assert!(PagedPlane::open_from_bytes(&good[..cut], 4).is_err());
        }
    }

    #[test]
    fn plane_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PagedPlane>();
        assert_send_sync::<PagedClosure>();
    }
}
