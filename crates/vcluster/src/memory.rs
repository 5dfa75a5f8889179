//! Paged VM memory images with dirty-page tracking.
//!
//! This is the hypervisor-visible surface the paper's checkpointing
//! mechanisms consume: the ability to read a VM's pages, and to know which
//! pages were written since the last checkpoint (the write-protect /
//! exception-catch machinery of incremental checkpointing, Section II-B1,
//! collapses to a dirty bitmap at this level of abstraction).

use crate::ids::PageIndex;

/// A VM's memory image: `page_count` pages of `page_size` bytes each, plus
/// a dirty bitmap recording writes since the last [`clear_dirty`].
///
/// [`clear_dirty`]: MemoryImage::clear_dirty
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryImage {
    page_size: usize,
    data: Vec<u8>,
    /// One bit per page, packed into u64 words.
    dirty: Vec<u64>,
    page_count: usize,
}

impl MemoryImage {
    /// Creates a zero-filled image.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeroed(page_count: usize, page_size: usize) -> Self {
        assert!(page_count > 0, "image needs at least one page");
        assert!(page_size > 0, "pages must be non-empty");
        MemoryImage {
            page_size,
            data: vec![0u8; page_count * page_size],
            dirty: vec![0u64; page_count.div_ceil(64)],
            page_count,
        }
    }

    /// Creates an image with deterministic per-page contents derived from
    /// `seed` — distinct across pages and seeds, so recovery tests can
    /// verify bytes, not just lengths.
    pub fn patterned(page_count: usize, page_size: usize, seed: u64) -> Self {
        let mut img = MemoryImage::zeroed(page_count, page_size);
        for p in 0..page_count {
            let base = p * page_size;
            let mut x = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(p as u64 + 1);
            for b in &mut img.data[base..base + page_size] {
                // xorshift64* keeps the pattern cheap but non-repeating.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                *b = (x >> 32) as u8;
            }
        }
        img
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.page_count
    }

    /// Bytes per page.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Total image size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len()
    }

    /// Read-only view of one page.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn page(&self, idx: PageIndex) -> &[u8] {
        let i = idx.index();
        assert!(i < self.page_count, "page {i} out of range");
        &self.data[i * self.page_size..(i + 1) * self.page_size]
    }

    /// Overwrites one page and marks it dirty.
    ///
    /// # Panics
    /// Panics if the index is out of range or `bytes` is not page-sized.
    pub fn write_page(&mut self, idx: usize, bytes: &[u8]) {
        assert!(idx < self.page_count, "page {idx} out of range");
        assert_eq!(bytes.len(), self.page_size, "write must cover a full page");
        self.data[idx * self.page_size..(idx + 1) * self.page_size].copy_from_slice(bytes);
        self.mark_dirty(idx);
    }

    /// Mutates a few bytes in a page (simulating a guest store) and marks
    /// it dirty. `payload` is mixed into the start of the page.
    pub fn touch_page(&mut self, idx: usize, payload: u64) {
        assert!(idx < self.page_count, "page {idx} out of range");
        let base = idx * self.page_size;
        let n = self.page_size.min(8);
        let bytes = payload.to_le_bytes();
        for (d, s) in self.data[base..base + n].iter_mut().zip(bytes.iter()) {
            *d = d.wrapping_add(*s).rotate_left(1);
        }
        self.mark_dirty(idx);
    }

    /// Marks a page dirty without changing contents (e.g. a write of the
    /// same value still dirties the page at hypervisor granularity).
    fn mark_dirty(&mut self, idx: usize) {
        assert!(idx < self.page_count, "page {idx} out of range");
        self.dirty[idx / 64] |= 1 << (idx % 64);
    }

    /// Number of dirty pages.
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Indices of dirty pages, ascending.
    pub fn dirty_pages(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.dirty_count());
        for (w_idx, &word) in self.dirty.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as usize;
                let idx = w_idx * 64 + bit;
                if idx < self.page_count {
                    out.push(idx);
                }
                w &= w - 1;
            }
        }
        out
    }

    /// Resets the dirty bitmap — called when a checkpoint epoch completes
    /// (the write-protect of incremental checkpointing is re-armed).
    pub fn clear_dirty(&mut self) {
        self.dirty.fill(0);
    }

    /// A full copy of the image bytes (the "normal" checkpoint of
    /// Section II-B2, which needs a whole extra image of memory).
    pub fn snapshot(&self) -> Vec<u8> {
        self.data.clone()
    }

    /// Restores the full image from `bytes` and clears the dirty bitmap —
    /// this is rollback to a checkpoint.
    ///
    /// # Panics
    /// Panics if `bytes` has the wrong length.
    pub fn restore(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.data.len(), "restore size mismatch");
        self.data.copy_from_slice(bytes);
        self.clear_dirty();
    }

    /// Raw image bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_image_is_clean() {
        let img = MemoryImage::zeroed(10, 32);
        assert_eq!(img.page_count(), 10);
        assert_eq!(img.page_size(), 32);
        assert_eq!(img.size_bytes(), 320);
        assert_eq!(img.dirty_count(), 0);
        assert!(img.as_bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn patterned_images_differ_by_seed_and_page() {
        let a = MemoryImage::patterned(4, 64, 1);
        let b = MemoryImage::patterned(4, 64, 2);
        assert_ne!(a.as_bytes(), b.as_bytes());
        assert_ne!(a.page(PageIndex(0)), a.page(PageIndex(1)));
        // Deterministic:
        let a2 = MemoryImage::patterned(4, 64, 1);
        assert_eq!(a.as_bytes(), a2.as_bytes());
    }

    #[test]
    fn write_page_dirties_exactly_one_page() {
        let mut img = MemoryImage::zeroed(100, 16);
        img.write_page(42, &[7u8; 16]);
        assert_eq!(img.dirty_count(), 1);
        assert_eq!(img.dirty_pages(), vec![42]);
        assert_eq!(img.page(PageIndex(42)), &[7u8; 16]);
    }

    #[test]
    fn touch_page_changes_content_and_dirties() {
        let mut img = MemoryImage::patterned(8, 32, 3);
        let before = img.page(PageIndex(3)).to_vec();
        img.touch_page(3, 0xDEADBEEF);
        assert_ne!(img.page(PageIndex(3)), &before[..]);
        assert_eq!(img.dirty_pages(), vec![3]);
    }

    #[test]
    fn clear_dirty_resets_bitmap() {
        let mut img = MemoryImage::zeroed(70, 8);
        for idx in [0, 63, 64, 69] {
            img.mark_dirty(idx);
        }
        assert_eq!(img.dirty_count(), 4);
        assert_eq!(img.dirty_pages(), vec![0, 63, 64, 69]);
        img.clear_dirty();
        assert_eq!(img.dirty_count(), 0);
        assert!(img.dirty_pages().is_empty());
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let mut img = MemoryImage::patterned(6, 16, 9);
        let saved = img.snapshot();
        img.write_page(0, &[0xFFu8; 16]);
        img.write_page(5, &[0x11u8; 16]);
        assert_ne!(img.as_bytes(), &saved[..]);
        img.restore(&saved);
        assert_eq!(img.as_bytes(), &saved[..]);
        assert_eq!(img.dirty_count(), 0, "rollback clears dirty state");
    }

    #[test]
    fn dirty_bitmap_word_boundaries() {
        let mut img = MemoryImage::zeroed(130, 4);
        for idx in 0..130 {
            img.mark_dirty(idx);
        }
        assert_eq!(img.dirty_count(), 130);
        assert_eq!(img.dirty_pages().len(), 130);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_page_panics() {
        let img = MemoryImage::zeroed(4, 8);
        let _ = img.page(PageIndex(4));
    }

    #[test]
    #[should_panic(expected = "full page")]
    fn partial_write_panics() {
        let mut img = MemoryImage::zeroed(4, 8);
        img.write_page(0, &[0u8; 4]);
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn restore_wrong_size_panics() {
        let mut img = MemoryImage::zeroed(4, 8);
        img.restore(&[0u8; 31]);
    }
}
