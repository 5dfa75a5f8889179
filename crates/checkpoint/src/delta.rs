//! XOR deltas of page increments, ready for a parity fold.
//!
//! Section IV-C: the in-memory footprint and network traffic of diskless
//! checkpointing become "a function of how fast and how many pages get
//! dirtied". The classic trick (Plank's "compressed differences") is to
//! XOR the new page against its previous version, so unchanged bytes
//! become zero. A round ships those XORs as coalesced [`XorRun`]s, which
//! a parity holder folds into its standing block in place.

use crate::payload::CheckpointPayload;

/// One coalesced dirty region of an incremental checkpoint, expressed as
/// the parity-ready XOR delta: `bytes[i] = old[offset + i] ^ new[offset +
/// i]`. Because every code in `dvdc-parity` is GF(2)-linear, a parity
/// holder folds such a run into its standing block in place and lands on
/// exactly the parity a full re-encode of the new image would produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XorRun {
    /// Byte offset of the run within the image / parity shard.
    pub offset: usize,
    /// `old ⊕ new` over the run.
    pub bytes: Vec<u8>,
}

impl XorRun {
    /// Run length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True if the run carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Converts an incremental payload into coalesced [`XorRun`]s against the
/// base image it applies to, returning the payload's base epoch alongside.
/// Adjacent dirty pages merge into one run, so large contiguous dirty
/// regions hit the XOR kernels as single long slices. Returns `None` for
/// full payloads (there is no delta to extract — the caller re-encodes).
///
/// # Panics
/// Panics if `base` does not match the payload's image length, or a page
/// index is out of range (the same misuse [`CheckpointPayload::apply_to`]
/// rejects).
pub fn xor_runs(payload: &CheckpointPayload, base: &[u8]) -> Option<(u64, Vec<XorRun>)> {
    let CheckpointPayload::Incremental {
        base_epoch,
        page_size,
        image_len,
        pages,
    } = payload
    else {
        return None;
    };
    assert_eq!(base.len(), *image_len, "base image length mismatch");
    let mut runs: Vec<XorRun> = Vec::new();
    for p in pages {
        assert_eq!(p.bytes.len(), *page_size, "page delta must be page-sized");
        let offset = p.index * page_size;
        assert!(
            offset + page_size <= base.len(),
            "page index {} out of range",
            p.index
        );
        let xor: Vec<u8> = base[offset..offset + page_size]
            .iter()
            .zip(p.bytes.iter())
            .map(|(o, n)| o ^ n)
            .collect();
        match runs.last_mut() {
            Some(run) if run.offset + run.bytes.len() == offset => {
                run.bytes.extend_from_slice(&xor)
            }
            _ => runs.push(XorRun { offset, bytes: xor }),
        }
    }
    Some((*base_epoch, runs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn incremental(
        pages: Vec<(usize, Vec<u8>)>,
        page_size: usize,
        image_len: usize,
    ) -> CheckpointPayload {
        CheckpointPayload::Incremental {
            base_epoch: 7,
            page_size,
            image_len,
            pages: pages
                .into_iter()
                .map(|(index, bytes)| crate::payload::PageDelta {
                    index,
                    bytes: bytes::Bytes::from(bytes),
                })
                .collect(),
        }
    }

    #[test]
    fn xor_runs_coalesce_adjacent_pages() {
        let base = vec![0x11u8; 64];
        // Pages 2 and 3 are adjacent, page 0 stands alone.
        let p = incremental(
            vec![
                (0, vec![0x12; 16]),
                (2, vec![0x13; 16]),
                (3, vec![0x14; 16]),
            ],
            16,
            64,
        );
        let (epoch, runs) = xor_runs(&p, &base).unwrap();
        assert_eq!(epoch, 7);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].offset, 0);
        assert_eq!(runs[0].bytes, vec![0x11 ^ 0x12; 16]);
        assert_eq!(runs[1].offset, 32);
        assert_eq!(runs[1].len(), 32);
        assert_eq!(&runs[1].bytes[..16], &[0x11 ^ 0x13u8; 16][..]);
        assert_eq!(&runs[1].bytes[16..], &[0x11 ^ 0x14u8; 16][..]);
        assert!(!runs[1].is_empty());
    }

    #[test]
    fn xor_runs_applied_to_base_rebuild_new_image() {
        let base: Vec<u8> = (0..64u8).collect();
        let p = incremental(vec![(1, vec![9; 16]), (3, vec![7; 16])], 16, 64);
        let (_, runs) = xor_runs(&p, &base).unwrap();
        let mut rebuilt = base.clone();
        for run in &runs {
            for (i, b) in run.bytes.iter().enumerate() {
                rebuilt[run.offset + i] ^= b;
            }
        }
        assert_eq!(rebuilt, p.apply_to(&base));
    }

    #[test]
    fn xor_runs_absent_for_full_payloads() {
        let p = CheckpointPayload::Full {
            image: bytes::Bytes::from(vec![1u8; 32]),
            page_size: 16,
        };
        assert_eq!(xor_runs(&p, &[0u8; 32]), None);
    }

    #[test]
    fn xor_runs_empty_increment_yields_no_runs() {
        let p = incremental(vec![], 16, 64);
        let (_, runs) = xor_runs(&p, &[0u8; 64]).unwrap();
        assert!(runs.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn xor_runs_wrong_base_panics() {
        let p = incremental(vec![], 16, 64);
        let _ = xor_runs(&p, &[0u8; 32]);
    }
}
