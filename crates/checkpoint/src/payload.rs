//! Checkpoint payload representation.
//!
//! A checkpoint either carries the whole VM image ("normal" checkpointing)
//! or just the pages dirtied since the previous epoch (incremental). The
//! payload size is the quantity every cost model downstream consumes: it
//! is what crosses the network and what feeds the parity XOR.

use bytes::Bytes;
use dvdc_vcluster::ids::VmId;

/// One dirtied page: its index and its post-write contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageDelta {
    /// Page index within the VM image.
    pub index: usize,
    /// Full page contents after the write.
    pub bytes: Bytes,
}

/// The data portion of a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointPayload {
    /// The complete memory image.
    Full {
        /// Image bytes.
        image: Bytes,
        /// Page size used to slice the image.
        page_size: usize,
    },
    /// Only the pages dirtied since `base_epoch`.
    Incremental {
        /// The epoch this increment applies on top of.
        base_epoch: u64,
        /// Page size of the underlying image.
        page_size: usize,
        /// Total image length in bytes (for validation on apply).
        image_len: usize,
        /// Dirtied pages, ascending by index.
        pages: Vec<PageDelta>,
    },
}

impl CheckpointPayload {
    /// Payload bytes that must travel / be stored (page data only; the
    /// per-page index metadata is negligible and excluded, matching the
    /// paper's accounting).
    pub fn size_bytes(&self) -> usize {
        match self {
            CheckpointPayload::Full { image, .. } => image.len(),
            CheckpointPayload::Incremental { pages, .. } => {
                pages.iter().map(|p| p.bytes.len()).sum()
            }
        }
    }

    /// Number of pages carried.
    pub fn page_count(&self) -> usize {
        match self {
            CheckpointPayload::Full { image, page_size } => {
                if *page_size == 0 {
                    0
                } else {
                    image.len() / page_size
                }
            }
            CheckpointPayload::Incremental { pages, .. } => pages.len(),
        }
    }

    /// True for full-image payloads.
    pub fn is_full(&self) -> bool {
        matches!(self, CheckpointPayload::Full { .. })
    }

    /// The page size of the underlying image.
    pub fn page_size(&self) -> usize {
        match self {
            CheckpointPayload::Full { page_size, .. } => *page_size,
            CheckpointPayload::Incremental { page_size, .. } => *page_size,
        }
    }

    /// Length of the full image this payload describes.
    pub fn image_len(&self) -> usize {
        match self {
            CheckpointPayload::Full { image, .. } => image.len(),
            CheckpointPayload::Incremental { image_len, .. } => *image_len,
        }
    }

    /// Applies this payload on top of `base`, producing the image bytes it
    /// represents. For a full payload `base` is ignored.
    ///
    /// # Panics
    /// Panics if `base` has the wrong length for an incremental payload,
    /// or a page index is out of range.
    pub fn apply_to(&self, base: &[u8]) -> Vec<u8> {
        match self {
            CheckpointPayload::Full { image, .. } => image.to_vec(),
            CheckpointPayload::Incremental {
                page_size,
                image_len,
                pages,
                ..
            } => {
                assert_eq!(base.len(), *image_len, "base image length mismatch");
                let mut out = base.to_vec();
                for p in pages {
                    assert_eq!(p.bytes.len(), *page_size, "page delta must be page-sized");
                    let start = p.index * page_size;
                    assert!(
                        start + page_size <= out.len(),
                        "page index {} out of range",
                        p.index
                    );
                    out[start..start + page_size].copy_from_slice(&p.bytes);
                }
                out
            }
        }
    }
}

/// A complete checkpoint record: who, when, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// The VM checkpointed.
    pub vm: VmId,
    /// Checkpoint epoch (coordinated round number).
    pub epoch: u64,
    /// The captured data.
    pub payload: CheckpointPayload,
}

impl Checkpoint {
    /// Payload size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.payload.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(image: Vec<u8>, page_size: usize) -> CheckpointPayload {
        CheckpointPayload::Full {
            image: Bytes::from(image),
            page_size,
        }
    }

    #[test]
    fn full_payload_accounting() {
        let p = full(vec![7u8; 64], 16);
        assert_eq!(p.size_bytes(), 64);
        assert_eq!(p.page_count(), 4);
        assert!(p.is_full());
        assert_eq!(p.image_len(), 64);
    }

    #[test]
    fn incremental_payload_accounting() {
        let p = CheckpointPayload::Incremental {
            base_epoch: 3,
            page_size: 16,
            image_len: 64,
            pages: vec![
                PageDelta {
                    index: 1,
                    bytes: Bytes::from(vec![1u8; 16]),
                },
                PageDelta {
                    index: 3,
                    bytes: Bytes::from(vec![2u8; 16]),
                },
            ],
        };
        assert_eq!(p.size_bytes(), 32);
        assert_eq!(p.page_count(), 2);
        assert!(!p.is_full());
    }

    #[test]
    fn apply_full_replaces_base() {
        let p = full(vec![9u8; 32], 16);
        let got = p.apply_to(&[0u8; 99]); // base ignored for full
        assert_eq!(got, vec![9u8; 32]);
    }

    #[test]
    fn apply_incremental_patches_pages() {
        let base = vec![0u8; 48];
        let p = CheckpointPayload::Incremental {
            base_epoch: 0,
            page_size: 16,
            image_len: 48,
            pages: vec![PageDelta {
                index: 2,
                bytes: Bytes::from(vec![5u8; 16]),
            }],
        };
        let got = p.apply_to(&base);
        assert!(got[..32].iter().all(|&b| b == 0));
        assert!(got[32..].iter().all(|&b| b == 5));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_incremental_wrong_base_panics() {
        let p = CheckpointPayload::Incremental {
            base_epoch: 0,
            page_size: 16,
            image_len: 48,
            pages: vec![],
        };
        let _ = p.apply_to(&[0u8; 32]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_incremental_bad_index_panics() {
        let p = CheckpointPayload::Incremental {
            base_epoch: 0,
            page_size: 16,
            image_len: 32,
            pages: vec![PageDelta {
                index: 2,
                bytes: Bytes::from(vec![0u8; 16]),
            }],
        };
        let _ = p.apply_to(&[0u8; 32]);
    }

    #[test]
    fn checkpoint_record_size() {
        let c = Checkpoint {
            vm: VmId(4),
            epoch: 9,
            payload: full(vec![1u8; 10], 5),
        };
        assert_eq!(c.size_bytes(), 10);
        assert_eq!(c.vm, VmId(4));
    }

    #[test]
    fn empty_image_edge_cases() {
        let p = full(vec![], 16);
        assert_eq!(p.size_bytes(), 0);
        assert_eq!(p.page_count(), 0);
    }
}
