//! The erasure-code interface [`ReedSolomon`](crate::rs::ReedSolomon)
//! implements, and the shape checks its methods share.

use std::fmt;

/// Errors returned by [`ErasureCode::reconstruct`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// More shards were lost than the code can tolerate.
    TooManyErasures {
        /// Number of missing shards.
        missing: usize,
        /// Maximum number of missing shards the code can repair.
        tolerance: usize,
    },
    /// The shard vector has the wrong number of entries for this code.
    WrongShardCount {
        /// Number of shards supplied.
        got: usize,
        /// Number of shards the code expects (`k + m`).
        expected: usize,
    },
    /// Present shards have inconsistent lengths.
    ShardLengthMismatch,
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::TooManyErasures { missing, tolerance } => write!(
                f,
                "{missing} shards missing but code only tolerates {tolerance}"
            ),
            CodeError::WrongShardCount { got, expected } => {
                write!(f, "expected {expected} shards, got {got}")
            }
            CodeError::ShardLengthMismatch => write!(f, "present shards differ in length"),
        }
    }
}

impl std::error::Error for CodeError {}

/// A systematic erasure code over byte blocks: `data_shards()` data blocks
/// are protected by `parity_shards()` parity blocks, and any
/// `parity_shards()` losses among the `total_shards()` blocks are
/// repairable.
pub trait ErasureCode: fmt::Debug {
    /// Number of data shards `k`.
    fn data_shards(&self) -> usize;

    /// Number of parity shards `m` (also the erasure tolerance).
    fn parity_shards(&self) -> usize;

    /// Total shards `k + m`.
    fn total_shards(&self) -> usize {
        self.data_shards() + self.parity_shards()
    }

    /// Computes the parity shards for `data` (must contain exactly
    /// `data_shards()` equal-length blocks).
    fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>>;

    /// Repairs missing shards in place. `shards` must hold
    /// `total_shards()` entries ordered data-then-parity; `None` marks an
    /// erased shard. On success every entry is `Some` and data shards hold
    /// their original contents.
    fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodeError>;

    /// Applies an incremental data update to one parity shard in place.
    ///
    /// `delta` must be `old ⊕ new` over bytes `[offset, offset + delta.len())`
    /// of data shard `data_index`. Because the code is GF(2)-linear,
    /// updating each parity shard this way yields byte-for-byte the shard
    /// `encode` would produce from the updated data — without
    /// touching the other `k − 1` data shards. This is the transport the
    /// paper's incremental checkpointing rides on: parity holders fold in
    /// `old ⊕ new` for just the dirtied pages instead of re-encoding whole
    /// images.
    ///
    /// # Panics
    /// Panics if `parity_index ≥ parity_shards()`, `data_index ≥
    /// data_shards()`, or the delta overruns the shard (mirroring
    /// `encode`'s shape panics).
    fn apply_delta(
        &self,
        parity_index: usize,
        parity: &mut [u8],
        data_index: usize,
        offset: usize,
        delta: &[u8],
    );
}

/// Validates the shared `apply_delta` preconditions. Panics (like
/// `encode`'s shape assertions) rather than returning an error: a bad
/// index or overrunning delta is a caller bug, not a runtime condition.
pub(crate) fn validate_delta(
    parity_index: usize,
    m: usize,
    parity_len: usize,
    data_index: usize,
    k: usize,
    offset: usize,
    delta_len: usize,
) {
    assert!(
        parity_index < m,
        "parity index {parity_index} out of range (code has {m} parity shards)"
    );
    assert!(
        data_index < k,
        "data index {data_index} out of range (code has {k} data shards)"
    );
    assert!(
        offset + delta_len <= parity_len,
        "delta [{offset}, {}) overruns shard of {parity_len} bytes",
        offset + delta_len
    );
}

/// Validates the common preconditions of a reconstruct: shard count,
/// erasure count, and equal lengths of present shards. Returns the common
/// shard length.
pub(crate) fn validate_shards(
    shards: &[Option<Vec<u8>>],
    expected: usize,
    tolerance: usize,
) -> Result<usize, CodeError> {
    if shards.len() != expected {
        return Err(CodeError::WrongShardCount {
            got: shards.len(),
            expected,
        });
    }
    let missing = shards.iter().filter(|s| s.is_none()).count();
    if missing > tolerance {
        return Err(CodeError::TooManyErasures { missing, tolerance });
    }
    let mut len = None;
    for s in shards.iter().flatten() {
        match len {
            None => len = Some(s.len()),
            Some(l) if l != s.len() => return Err(CodeError::ShardLengthMismatch),
            _ => {}
        }
    }
    // missing ≤ tolerance < expected, so at least one shard is present.
    Ok(len.expect("at least one shard present"))
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::ErasureCode;
    use crate::rs::ReedSolomon;

    /// Asserts that folding `old ⊕ new` deltas into encoded parity matches
    /// a from-scratch re-encode, across a spread of update shapes: a short
    /// prefix patch, an unaligned mid-shard patch, a single tail byte, and
    /// a whole-shard rewrite. `len` must be at least 8 (and satisfy the
    /// code's own length constraints).
    pub(crate) fn assert_delta_matches_reencode(code: &ReedSolomon, len: usize) {
        assert!(len >= 8, "helper expects non-trivial shards");
        let k = code.data_shards();
        let mut data: Vec<Vec<u8>> = (0..k)
            .map(|c| {
                (0..len)
                    .map(|i| ((i * 37 + c * 101 + 11) % 251) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let mut parity = code.encode(&refs);

        let updates = [
            (0, 0, 3),
            (k - 1, len / 3, (len / 4).max(1)),
            (k / 2, len - 1, 1),
            (0, 0, len),
        ];
        for (round, (shard, offset, n)) in updates.into_iter().enumerate() {
            let old = data[shard][offset..offset + n].to_vec();
            for (i, b) in data[shard][offset..offset + n].iter_mut().enumerate() {
                *b = b
                    .wrapping_mul(3)
                    .wrapping_add((i + round) as u8)
                    .wrapping_add(1);
            }
            let delta: Vec<u8> = old
                .iter()
                .zip(&data[shard][offset..offset + n])
                .map(|(o, n)| o ^ n)
                .collect();
            for (j, block) in parity.iter_mut().enumerate() {
                code.apply_delta(j, block, shard, offset, &delta);
            }
        }
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        assert_eq!(
            parity,
            code.encode(&refs),
            "incrementally updated parity diverged from re-encode"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rs::ReedSolomon;

    #[test]
    fn validate_accepts_good_shards() {
        let shards = vec![Some(vec![1, 2]), None, Some(vec![3, 4])];
        assert_eq!(validate_shards(&shards, 3, 1), Ok(2));
    }

    #[test]
    fn validate_rejects_too_many_erasures() {
        let shards = vec![None, None, Some(vec![1])];
        assert_eq!(
            validate_shards(&shards, 3, 1),
            Err(CodeError::TooManyErasures {
                missing: 2,
                tolerance: 1
            })
        );
    }

    #[test]
    fn validate_rejects_wrong_count() {
        let shards = vec![Some(vec![1])];
        assert_eq!(
            validate_shards(&shards, 3, 1),
            Err(CodeError::WrongShardCount {
                got: 1,
                expected: 3
            })
        );
    }

    #[test]
    fn validate_rejects_ragged_lengths() {
        let shards = vec![Some(vec![1, 2]), Some(vec![3])];
        assert_eq!(
            validate_shards(&shards, 2, 1),
            Err(CodeError::ShardLengthMismatch)
        );
    }

    #[test]
    fn every_pattern_of_up_to_m_erasures_decodes_byte_exact() {
        // Every group with k + m ≤ 8 and m ≤ 3, at a length no word or
        // cache block divides.
        let len = 1_027;
        for m in 1..=3 {
            for k in 1..=8 - m {
                let code = ReedSolomon::new(k, m);
                assert!((0..k).all(|c| code.coefficient(0, c) == 1), "k={k} m={m}");
                let data: Vec<Vec<u8>> = (0..k)
                    .map(|c| {
                        (0..len)
                            .map(|i| ((i * 31 + c * 101 + 7) % 251) as u8)
                            .collect()
                    })
                    .collect();
                let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
                let whole: Vec<Option<Vec<u8>>> = (data.iter().cloned())
                    .chain(code.encode(&refs))
                    .map(Some)
                    .collect();
                for lost in 0u32..1 << (k + m) {
                    if lost.count_ones() as usize > m {
                        continue;
                    }
                    let mut shards = whole.clone();
                    for (i, shard) in shards.iter_mut().enumerate() {
                        if lost >> i & 1 == 1 {
                            *shard = None;
                        }
                    }
                    code.reconstruct(&mut shards).expect("within tolerance");
                    assert!(shards == whole, "{code:?} lost {lost:0w$b}", w = k + m);
                }
            }
        }
    }

    #[test]
    fn error_display_is_informative() {
        let e = CodeError::TooManyErasures {
            missing: 3,
            tolerance: 1,
        };
        assert!(e.to_string().contains("3 shards missing"));
    }
}
