//! Property tests pinning the table-driven GF(2⁸) kernels to the scalar
//! log/exp reference.
//!
//! The rewrite (per-coefficient 256-entry product tables, cache-blocked
//! encode, parallel folds) must be byte-identical to the branchy scalar
//! kernel it replaced — across block sizes including ragged tails, at the
//! `k + m = 256` field boundary, and through the incremental delta-fold
//! path the protocol rides on.

use dvdc_parity::code::ErasureCode;
use dvdc_parity::gf256::{MulTable, Tables};
use dvdc_parity::rs::ReedSolomon;
use proptest::collection::vec;
use proptest::prelude::*;

/// The scalar reference encode: per parity row, fold every data shard
/// with the branchy per-byte log/exp kernel the rewrite replaced.
fn scalar_reference_encode(code: &ReedSolomon, data: &[&[u8]]) -> Vec<Vec<u8>> {
    let tables = code.tables();
    let len = data.first().map(|d| d.len()).unwrap_or(0);
    (0..code.parity_shards())
        .map(|r| {
            let mut row = vec![0u8; len];
            for (c, src) in data.iter().enumerate() {
                tables.mul_acc_scalar(&mut row, src, code.coefficient(r, c));
            }
            row
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `MulTable::mul_acc` matches the scalar kernel byte-for-byte at
    /// every length — ragged tails (the 8-wide unroll's remainder loop)
    /// included — for every coefficient, 0 and 1 included.
    #[test]
    fn mul_table_matches_scalar_kernel(
        src in vec(any::<u8>(), 0..2048usize),
        dst in vec(any::<u8>(), 0..2048usize),
        coeff in any::<u8>(),
    ) {
        let len = src.len().min(dst.len());
        let (src, dst) = (&src[..len], &dst[..len]);
        let tables = Tables::shared();

        let mut expect = dst.to_vec();
        tables.mul_acc_scalar(&mut expect, src, coeff);

        let mut via_table = dst.to_vec();
        MulTable::new(tables, coeff).mul_acc(&mut via_table, src);
        prop_assert_eq!(&via_table, &expect);
    }

    /// The cache-blocked (and, for large blocks, parallel) encode equals
    /// the scalar reference fold for arbitrary geometry and payload.
    #[test]
    fn rs_encode_matches_scalar_reference(
        k in 1usize..10,
        m in 1usize..5,
        len in 0usize..600,
        seed in any::<u64>(),
    ) {
        let code = ReedSolomon::new(k, m);
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| patterned(len, seed ^ (i as u64 + 1)))
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        prop_assert_eq!(code.encode(&refs), scalar_reference_encode(&code, &refs));
    }

    /// Incremental delta-fold through the table-driven `mul_acc` equals a
    /// full re-encode: patch one shard, fold `old ⊕ new` into every
    /// standing parity row, compare against encoding the patched data.
    #[test]
    fn delta_fold_matches_full_reencode(
        k in 1usize..8,
        m in 1usize..5,
        len in 1usize..400,
        patch in vec(any::<u8>(), 1..200usize),
        which in any::<u16>(),
        at in any::<u16>(),
        seed in any::<u64>(),
    ) {
        let code = ReedSolomon::new(k, m);
        let mut data: Vec<Vec<u8>> = (0..k)
            .map(|i| patterned(len, seed ^ (i as u64 + 0x77)))
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let mut parity = code.encode(&refs);

        let shard = which as usize % k;
        let offset = at as usize % len;
        let span = patch.len().min(len - offset);
        let delta: Vec<u8> = data[shard][offset..offset + span]
            .iter()
            .zip(&patch[..span])
            .map(|(o, p)| o ^ p)
            .collect();
        for (i, b) in patch[..span].iter().enumerate() {
            data[shard][offset + i] = *b;
        }
        for (r, row) in parity.iter_mut().enumerate() {
            code.apply_delta(r, row, shard, offset, &delta);
        }

        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        prop_assert_eq!(parity, code.encode(&refs));
    }
}

/// Deterministic patterned payload (SplitMix64).
fn patterned(len: usize, mut state: u64) -> Vec<u8> {
    let mut v = vec![0u8; len];
    for chunk in v.chunks_mut(8) {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let bytes = (z ^ (z >> 31)).to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
    v
}

/// The widest code the field admits: `k + m = 256`. Every Vandermonde
/// coefficient is exercised; encode must still match the scalar
/// reference, and the code must still decode `m` erasures.
#[test]
fn field_boundary_k_plus_m_256() {
    let code = ReedSolomon::new(254, 2);
    let len = 96; // a ragged tail past the 8-wide unroll
    let data: Vec<Vec<u8>> = (0..254).map(|i| patterned(len, i as u64 + 1)).collect();
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let parity = code.encode(&refs);
    assert_eq!(parity, scalar_reference_encode(&code, &refs));

    let mut shards: Vec<Option<Vec<u8>>> = data
        .iter()
        .cloned()
        .map(Some)
        .chain(parity.into_iter().map(Some))
        .collect();
    shards[0] = None;
    shards[253] = None;
    code.reconstruct(&mut shards)
        .expect("two erasures at k+m=256");
    assert_eq!(shards[0].as_deref(), Some(&data[0][..]));
    assert_eq!(shards[253].as_deref(), Some(&data[253][..]));
}

/// Blocked-encode boundaries: payloads straddling the 32 KiB cache block
/// and the parallel-fold threshold must match the scalar reference
/// exactly (ragged final block included).
#[test]
fn block_and_parallel_boundaries_match_reference() {
    let code = ReedSolomon::new(5, 3);
    for len in [
        (32 << 10) - 1,
        32 << 10,
        (32 << 10) + 17,
        (64 << 10) + 3, // one minimum encode chunk: still one worker
        (96 << 10) + 29,
        (128 << 10) + 5, // two minimum chunks: on ≥ 2 cores the split engages
    ] {
        let data: Vec<Vec<u8>> = (0..5).map(|i| patterned(len, i as u64 + 9)).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        assert_eq!(
            code.encode(&refs),
            scalar_reference_encode(&code, &refs),
            "len {len}"
        );
    }
}
