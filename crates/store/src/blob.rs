//! Page-resident record storage.
//!
//! Records (one per node) are serialized into a contiguous byte stream that
//! is chopped into pages; a directory maps each record to its byte extent.
//! Reading a record fetches exactly the pages its bytes span — so short
//! records (interval labels) cost one page read and long records (full
//! successor lists) cost proportionally many, which is precisely the effect
//! the experiments measure.

use bytes::BufMut;

use crate::{BufferPool, PageId, Pager};

/// A read-optimized store of per-node byte records on the simulated disk.
#[derive(Debug)]
pub struct BlobStore {
    pager: Pager,
    /// `(byte offset, byte length)` per record.
    directory: Vec<(u64, u32)>,
}

impl BlobStore {
    /// Packs `records` onto a fresh disk with the given page size.
    pub fn build(records: &[Vec<u8>], page_size: usize) -> Self {
        let mut stream = Vec::new();
        let mut directory = Vec::with_capacity(records.len());
        for rec in records {
            directory.push((stream.len() as u64, rec.len() as u32));
            stream.put_slice(rec);
        }

        let mut pager = Pager::with_page_size(page_size);
        for chunk in stream.chunks(page_size) {
            let id = pager.alloc();
            let mut img = vec![0u8; page_size];
            img[..chunk.len()].copy_from_slice(chunk);
            pager.write(id, &img);
        }
        pager.reset_counters();
        BlobStore { pager, directory }
    }

    /// Number of records.
    pub fn record_count(&self) -> usize {
        self.directory.len()
    }

    /// Byte length of record `ix`.
    pub fn record_len(&self, ix: usize) -> usize {
        self.directory[ix].1 as usize
    }

    /// Number of pages record `ix` spans (the cold-cache read cost).
    pub fn record_pages(&self, ix: usize) -> usize {
        let (off, len) = self.directory[ix];
        if len == 0 {
            return 0;
        }
        let ps = self.pager.page_size() as u64;
        let first = off / ps;
        let last = (off + len as u64 - 1) / ps;
        (last - first + 1) as usize
    }

    /// Reads record `ix` through a buffer pool, fetching each spanned page.
    pub fn read(&self, ix: usize, pool: &mut BufferPool) -> Vec<u8> {
        let (off, len) = self.directory[ix];
        let ps = self.pager.page_size() as u64;
        let mut out = Vec::with_capacity(len as usize);
        let mut pos = off;
        let end = off + len as u64;
        while pos < end {
            let page = (pos / ps) as u32;
            let in_page = (pos % ps) as usize;
            let take = ((ps - pos % ps) as usize).min((end - pos) as usize);
            let img = pool.fetch(&self.pager, PageId(page)).expect("in-memory page read");
            out.extend_from_slice(&img[in_page..in_page + take]);
            pos += take as u64;
        }
        out
    }

    /// The underlying disk (for counter access).
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Total pages on disk.
    pub fn page_count(&self) -> usize {
        self.pager.page_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_records() {
        let records = vec![vec![1u8, 2, 3], vec![], vec![9u8; 100]];
        let store = BlobStore::build(&records, 64);
        let mut pool = BufferPool::new(8);
        for (ix, rec) in records.iter().enumerate() {
            assert_eq!(&store.read(ix, &mut pool), rec, "record {ix}");
        }
    }

    #[test]
    fn spanning_records_cost_multiple_pages() {
        let records = vec![vec![7u8; 200]]; // spans 4 pages of 64 bytes
        let store = BlobStore::build(&records, 64);
        assert_eq!(store.record_pages(0), 4);
        let mut pool = BufferPool::new(8);
        let back = store.read(0, &mut pool);
        assert_eq!(back.len(), 200);
        assert_eq!(store.pager().reads(), 4, "one disk read per spanned page");
        // Re-read: everything cached.
        store.read(0, &mut pool);
        assert_eq!(store.pager().reads(), 4);
        assert_eq!(pool.stats().hits, 4);
    }

    #[test]
    fn small_records_share_pages() {
        let records: Vec<Vec<u8>> = (0..16).map(|i| vec![i as u8; 8]).collect();
        let store = BlobStore::build(&records, 64);
        assert_eq!(store.page_count(), 2, "16 x 8 bytes = 2 x 64-byte pages");
        for ix in 0..16 {
            assert_eq!(store.record_pages(ix), 1);
        }
    }

    #[test]
    fn empty_record_costs_nothing() {
        let store = BlobStore::build(&[vec![]], 64);
        assert_eq!(store.record_pages(0), 0);
        let mut pool = BufferPool::new(2);
        assert!(store.read(0, &mut pool).is_empty());
        assert_eq!(store.pager().reads(), 0);
    }
}
