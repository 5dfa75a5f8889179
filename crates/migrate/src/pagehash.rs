//! Page-hash dedup for live migration.
//!
//! The paper's future work (Section VII): "we are currently looking at the
//! benefits of using page hashes to speed up live migration when similar
//! VMs reside at the host destination." The idea: hash every page of the
//! images already present at the destination; a migrating VM's page whose
//! hash is already in the index need not be transferred — only its hash
//! (negligible) travels.

use std::collections::HashSet;

use dvdc_vcluster::memory::MemoryImage;

/// 64-bit FNV-1a over a page. Collisions are ~2⁻⁶⁴ per pair — acceptable
/// for a simulation; a production system would use a cryptographic hash.
pub use dvdc_simcore::rng::fnv1a64 as hash_page;

/// A destination node's index of page hashes.
#[derive(Debug, Clone, Default)]
pub struct PageHashIndex {
    hashes: HashSet<u64>,
}

impl PageHashIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Indexes every page of `image` (a VM already resident at the
    /// destination).
    pub fn index_image(&mut self, image: &MemoryImage) {
        for p in 0..image.page_count() {
            self.hashes
                .insert(hash_page(image.page(dvdc_vcluster::ids::PageIndex(p))));
        }
    }

    /// Indexes raw image bytes sliced into `page_size` pages.
    pub fn index_bytes(&mut self, bytes: &[u8], page_size: usize) {
        assert!(page_size > 0, "page size must be positive");
        for page in bytes.chunks(page_size) {
            self.hashes.insert(hash_page(page));
        }
    }

    /// Number of distinct page hashes known.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// True if no hashes are indexed.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }

    /// True if a page with this content is already present.
    pub fn contains(&self, page: &[u8]) -> bool {
        self.hashes.contains(&hash_page(page))
    }

    /// Splits a migrating image into (bytes that must travel, bytes
    /// dedup'd away).
    pub fn dedup_transfer(&self, image: &MemoryImage) -> DedupReport {
        let mut transfer = 0usize;
        let mut deduped = 0usize;
        for p in 0..image.page_count() {
            let page = image.page(dvdc_vcluster::ids::PageIndex(p));
            if self.contains(page) {
                deduped += page.len();
            } else {
                transfer += page.len();
            }
        }
        DedupReport {
            transfer_bytes: transfer,
            deduped_bytes: deduped,
        }
    }
}

/// Result of a dedup scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupReport {
    /// Bytes that still need to cross the network.
    pub transfer_bytes: usize,
    /// Bytes skipped because the destination already has identical pages.
    pub deduped_bytes: usize,
}

impl DedupReport {
    /// Fraction of the image saved by dedup.
    pub fn savings(&self) -> f64 {
        let total = self.transfer_bytes + self.deduped_bytes;
        if total == 0 {
            0.0
        } else {
            self.deduped_bytes as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_images_dedup_fully() {
        let img = MemoryImage::patterned(16, 64, 42);
        let mut idx = PageHashIndex::new();
        idx.index_image(&img);
        let report = idx.dedup_transfer(&img);
        assert_eq!(report.transfer_bytes, 0);
        assert_eq!(report.deduped_bytes, 16 * 64);
        assert_eq!(report.savings(), 1.0);
    }

    #[test]
    fn disjoint_images_dedup_nothing() {
        let resident = MemoryImage::patterned(16, 64, 1);
        let migrating = MemoryImage::patterned(16, 64, 2);
        let mut idx = PageHashIndex::new();
        idx.index_image(&resident);
        let report = idx.dedup_transfer(&migrating);
        assert_eq!(report.deduped_bytes, 0);
        assert_eq!(report.transfer_bytes, 16 * 64);
        assert_eq!(report.savings(), 0.0);
    }

    #[test]
    fn partial_similarity_partially_dedups() {
        let resident = MemoryImage::patterned(16, 64, 7);
        let mut migrating = resident.clone();
        // Overwrite half the pages with new content.
        for p in 0..8 {
            migrating.write_page(p, &[p as u8 + 100; 64]);
        }
        let mut idx = PageHashIndex::new();
        idx.index_image(&resident);
        let report = idx.dedup_transfer(&migrating);
        assert_eq!(report.deduped_bytes, 8 * 64);
        assert_eq!(report.transfer_bytes, 8 * 64);
        assert!((report.savings() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_pages_are_shared_across_unrelated_vms() {
        // The classic win: freshly-booted VMs share zero pages.
        let a = MemoryImage::zeroed(8, 32);
        let b = MemoryImage::zeroed(8, 32);
        let mut idx = PageHashIndex::new();
        idx.index_image(&a);
        // All-zero pages collapse to one hash.
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.dedup_transfer(&b).savings(), 1.0);
    }

    #[test]
    fn index_bytes_equivalent_to_index_image() {
        let img = MemoryImage::patterned(8, 32, 5);
        let mut from_img = PageHashIndex::new();
        from_img.index_image(&img);
        let mut from_bytes = PageHashIndex::new();
        from_bytes.index_bytes(img.as_bytes(), 32);
        assert_eq!(from_img.len(), from_bytes.len());
        assert!(from_bytes.contains(img.page(dvdc_vcluster::ids::PageIndex(3))));
    }

    #[test]
    fn hash_distinguishes_contents() {
        assert_ne!(hash_page(&[1, 2, 3]), hash_page(&[1, 2, 4]));
        assert_ne!(hash_page(&[]), hash_page(&[0]));
        assert_eq!(hash_page(&[9, 9]), hash_page(&[9, 9]));
    }

    #[test]
    fn empty_index_reports() {
        let idx = PageHashIndex::new();
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
    }
}
