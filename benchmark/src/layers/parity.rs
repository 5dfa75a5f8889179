//! `dvdc-parity` kernels and `NodeCore`'s block digest.

use dvdc::protocol::node_core::fnv64;
use dvdc_parity::code::ErasureCode;
use dvdc_parity::raid5::XorCode;
use dvdc_parity::rs::ReedSolomon;

use super::{filler, gb_per_s, K};

/// Parity shards of the Reed–Solomon group (`live_rs_1m`'s `m`).
const RS_M: usize = 2;

/// Encode and reconstruct rates count the `k` data blocks a call reads;
/// `apply_delta` counts the delta it folds.
fn code_pass(
    code: &dyn ErasureCode,
    names: [&'static str; 2],
    data: &[Vec<u8>],
) -> Vec<(&'static str, f64)> {
    let k = code.data_shards();
    let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
    let parity = code.encode(&refs);
    // As many erasures as the code tolerates, data shards first.
    let damaged = || -> Vec<Option<Vec<u8>>> {
        data.iter()
            .chain(parity.iter())
            .enumerate()
            .map(|(i, shard)| (i >= code.parity_shards()).then(|| shard.clone()))
            .collect()
    };
    let bytes = k * data[0].len();
    vec![
        (names[0], gb_per_s(bytes, || (), |()| code.encode(&refs))),
        (
            names[1],
            gb_per_s(bytes, damaged, |mut shards| {
                code.reconstruct(&mut shards).expect("within tolerance");
                shards
            }),
        ),
    ]
}

pub fn pass(image_len: usize, seed: u64) -> Vec<(&'static str, f64)> {
    let data: Vec<Vec<u8>> = (0..K).map(|i| filler(image_len, seed + i as u64)).collect();
    let xor = XorCode::new(K);
    let mut out = code_pass(
        &xor,
        ["parity.xor.encode_gb_s", "parity.xor.reconstruct_gb_s"],
        &data,
    );
    let mut parity = filler(image_len, seed + 9);
    out.push((
        "parity.xor.apply_delta_gb_s",
        gb_per_s(
            image_len,
            || (),
            |()| xor.apply_delta(0, &mut parity, 1, 0, &data[0]),
        ),
    ));
    out.extend(code_pass(
        &ReedSolomon::new(K, RS_M),
        ["parity.rs.encode_gb_s", "parity.rs.reconstruct_gb_s"],
        &data,
    ));
    out.push((
        "core.node_core.fnv64_gb_s",
        gb_per_s(image_len, || (), |()| fnv64(&data[0])),
    ));
    out
}
