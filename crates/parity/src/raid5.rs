//! Single-parity XOR code: [`XorCode`] is "parity taken from each
//! checkpoint (e.g. A XOR B XOR C for ABC)" (Fig. 3), one parity block
//! protecting a group against any single loss. Which node holds a group's
//! parity (Section IV-B) is the placement's question, not the code's.

use crate::code::{validate_delta, validate_shards, CodeError, ErasureCode};
use crate::xor::{xor_all, xor_into};

/// XOR single-parity code: `k` data shards, one parity shard, tolerates one
/// erasure. The code underlying every RAID-5 group in DVDC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorCode {
    k: usize,
}

impl XorCode {
    /// Creates a code over `k` data shards.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "XOR code needs at least one data shard");
        XorCode { k }
    }
}

impl ErasureCode for XorCode {
    fn data_shards(&self) -> usize {
        self.k
    }

    fn parity_shards(&self) -> usize {
        1
    }

    fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "expected {} data shards", self.k);
        vec![xor_all(data)]
    }

    fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodeError> {
        validate_shards(shards, self.k + 1, 1)?;
        let missing = match shards.iter().position(|s| s.is_none()) {
            Some(i) => i,
            None => return Ok(()), // nothing to repair
        };
        // Data and parity XOR to zero, so the lost shard — either kind —
        // is the encode of the survivors.
        let survivors: Vec<&[u8]> = shards.iter().flatten().map(Vec::as_slice).collect();
        shards[missing] = Some(xor_all(&survivors));
        Ok(())
    }

    fn apply_delta(
        &self,
        parity_index: usize,
        parity: &mut [u8],
        data_index: usize,
        offset: usize,
        delta: &[u8],
    ) {
        validate_delta(
            parity_index,
            1,
            parity.len(),
            data_index,
            self.k,
            offset,
            delta.len(),
        );
        // Single parity is the plain XOR of all data shards, so the update
        // is the delta folded straight in at the same offset.
        xor_into(&mut parity[offset..offset + delta.len()], delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_update_matches_reencode() {
        use crate::code::test_util::assert_delta_matches_reencode;
        assert_delta_matches_reencode(&XorCode::new(3), 24);
        assert_delta_matches_reencode(&XorCode::new(2), (64 << 10) + 9);
    }

    #[test]
    #[should_panic(expected = "overruns shard")]
    fn delta_overrun_panics() {
        let code = XorCode::new(2);
        let mut parity = vec![0u8; 16];
        code.apply_delta(0, &mut parity, 0, 10, &[0u8; 7]);
    }

    #[test]
    #[should_panic(expected = "parity index")]
    fn delta_bad_parity_index_panics() {
        let code = XorCode::new(2);
        let mut parity = vec![0u8; 16];
        code.apply_delta(1, &mut parity, 0, 0, &[0u8; 4]);
    }

    #[test]
    fn encode_then_lose_each_shard_in_turn() {
        let code = XorCode::new(4);
        let data: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i * 17 + 1; 33]).collect();
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let parity = code.encode(&refs);
        assert_eq!(parity.len(), 1);

        for lost in 0..5 {
            let mut shards: Vec<Option<Vec<u8>>> = data
                .iter()
                .cloned()
                .map(Some)
                .chain(std::iter::once(Some(parity[0].clone())))
                .collect();
            shards[lost] = None;
            code.reconstruct(&mut shards).unwrap();
            for (i, d) in data.iter().enumerate() {
                assert_eq!(shards[i].as_ref().unwrap(), d, "lost={lost} shard={i}");
            }
            assert_eq!(shards[4].as_ref().unwrap(), &parity[0], "lost={lost}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        /// Whichever shard is lost — data or parity — comes back as the
        /// byte-wise XOR of the survivors, at lengths on both sides of
        /// the 8-byte word loop and well past it.
        #[test]
        fn lost_shard_is_the_bytewise_xor_of_the_survivors(
            k in 1usize..6,
            tile in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..257usize),
        ) {
            let code = XorCode::new(k);
            for len in [0usize, 1, 7, 8, 9, 4_099, 65_539] {
                let mut full: Vec<Vec<u8>> = (0..k)
                    .map(|c| {
                        (0..len)
                            .map(|i| tile[(i + 31 * c) % tile.len()] ^ (i >> 8) as u8)
                            .collect()
                    })
                    .collect();
                let refs: Vec<&[u8]> = full.iter().map(|v| v.as_slice()).collect();
                let parity = code.encode(&refs);
                full.extend(parity);
                for lost in 0..=k {
                    let mut shards: Vec<Option<Vec<u8>>> =
                        full.iter().cloned().map(Some).collect();
                    shards[lost] = None;
                    code.reconstruct(&mut shards).unwrap();
                    let want: Vec<u8> = (0..len)
                        .map(|i| (0..=k).filter(|&s| s != lost).fold(0, |x, s| x ^ full[s][i]))
                        .collect();
                    proptest::prop_assert!(
                        shards[lost].as_ref() == Some(&want),
                        "k={} len={} lost={}", k, len, lost
                    );
                }
            }
        }
    }

    #[test]
    fn reconstruct_with_nothing_missing_is_noop() {
        let code = XorCode::new(2);
        let a = vec![1u8; 8];
        let b = vec![2u8; 8];
        let p = code.encode(&[&a, &b]).remove(0);
        let mut shards = vec![Some(a.clone()), Some(b.clone()), Some(p)];
        let before = shards.clone();
        code.reconstruct(&mut shards).unwrap();
        assert_eq!(shards, before);
    }

    #[test]
    fn two_erasures_rejected() {
        let code = XorCode::new(3);
        let mut shards = vec![None, None, Some(vec![0u8; 4]), Some(vec![0u8; 4])];
        assert_eq!(
            code.reconstruct(&mut shards),
            Err(CodeError::TooManyErasures {
                missing: 2,
                tolerance: 1
            })
        );
    }

    #[test]
    fn tolerances_reported() {
        let code = XorCode::new(5);
        assert_eq!(code.data_shards(), 5);
        assert_eq!(code.parity_shards(), 1);
        assert_eq!(code.total_shards(), 6);
        assert!(!code.can_reconstruct(&vec![None; 0][..]));
    }

    #[test]
    fn empty_blocks_are_legal() {
        let code = XorCode::new(2);
        let parity = code.encode(&[&[], &[]]);
        assert!(parity[0].is_empty());
        let mut shards = vec![Some(vec![]), None, Some(vec![])];
        code.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[1].as_deref(), Some(&[][..]));
    }
}
