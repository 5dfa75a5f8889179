//! The paper's single-parity code, "parity taken from each checkpoint
//! (e.g. A XOR B XOR C for ABC)" (Fig. 3), is Reed–Solomon with one parity
//! row: `ReedSolomon::new(k, 1)`, whose row is all ones, encodes the XOR
//! of the data byte for byte. [`XorCode::new`] is another name for it.

use crate::rs::ReedSolomon;

/// The single-parity code's name; it has no state of its own.
pub struct XorCode;

impl XorCode {
    /// `ReedSolomon::new(k, 1)`: `k` data shards, one parity shard, the
    /// XOR of the data.
    ///
    /// # Panics
    /// Panics if `k == 0` or `k + 1` exceeds
    /// [`MAX_SHARDS`](crate::rs::MAX_SHARDS).
    // It names Reed–Solomon's m = 1 case: the code is not a type of its own.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(k: usize) -> ReedSolomon {
        ReedSolomon::new(k, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{CodeError, ErasureCode};

    #[test]
    fn delta_update_matches_reencode() {
        use crate::code::test_util::assert_delta_matches_reencode;
        assert_delta_matches_reencode(&ReedSolomon::new(3, 1), 24);
        assert_delta_matches_reencode(&ReedSolomon::new(2, 1), (64 << 10) + 9);
    }

    #[test]
    #[should_panic(expected = "overruns shard")]
    fn delta_overrun_panics() {
        let code = ReedSolomon::new(2, 1);
        let mut parity = vec![0u8; 16];
        code.apply_delta(0, &mut parity, 0, 10, &[0u8; 7]);
    }

    #[test]
    #[should_panic(expected = "parity index")]
    fn delta_bad_parity_index_panics() {
        let code = ReedSolomon::new(2, 1);
        let mut parity = vec![0u8; 16];
        code.apply_delta(1, &mut parity, 0, 0, &[0u8; 4]);
    }

    #[test]
    fn encode_then_lose_each_shard_in_turn() {
        let code = ReedSolomon::new(4, 1);
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

        /// At every m, whichever of the data and the first parity shard is
        /// lost comes back as the byte-wise XOR of the other k of them, at
        /// lengths on both sides of the 8-byte word loop and well past it.
        #[test]
        fn lost_shard_is_the_bytewise_xor_of_the_survivors(
            k in 1usize..6,
            tile in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..257usize),
        ) {
            for m in 1..=3 {
                let code = ReedSolomon::new(k, m);
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
                            "k={} m={} len={} lost={}", k, m, len, lost
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reconstruct_with_nothing_missing_is_noop() {
        let code = ReedSolomon::new(2, 1);
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
        let code = ReedSolomon::new(3, 1);
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
        assert!((0..5).all(|c| code.coefficient(0, c) == 1));
    }

    #[test]
    fn empty_blocks_are_legal() {
        let code = ReedSolomon::new(2, 1);
        let parity = code.encode(&[&[], &[]]);
        assert!(parity[0].is_empty());
        let mut shards = vec![Some(vec![]), None, Some(vec![])];
        code.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[1].as_deref(), Some(&[][..]));
    }
}
