//! The layer pass: each of the repository's modules that a checkpoint byte
//! crosses, called in isolation on one thread at the workload's image
//! length. One adapter file per product crate, so a changed public signature
//! costs a one-file follow-up.

pub mod checkpoint;
pub mod os;
pub mod parity;
pub mod transport;

use std::hint::black_box;
use std::time::Instant;

/// Data shards of the group every layer is sized for (the workloads' `k`).
pub const K: usize = 4;

/// Isolated passes are the minimum of this many repetitions: the least
/// disturbed run is the closest to what the code costs.
const REPS: usize = 5;

/// Each repetition moves about this much, so that at a 2 KiB image one
/// repetition is far above the clock's resolution.
const BYTES_PER_REP: usize = 4 << 20;

/// Deterministic, incompressible filler.
pub fn filler(len: usize, seed: u64) -> Vec<u8> {
    dvdc::protocol::node_core::initial_image(seed, dvdc_vcluster::ids::NodeId(0), len)
}

/// GB/s of `pass`, which handles `bytes` bytes per call. `prepare` builds
/// the call's input outside the timed region.
pub fn gb_per_s<I, O>(
    bytes: usize,
    mut prepare: impl FnMut() -> I,
    mut pass: impl FnMut(I) -> O,
) -> f64 {
    let calls = (BYTES_PER_REP / bytes.max(1)).max(1);
    let best = (0..REPS)
        .map(|_| {
            let inputs: Vec<I> = (0..calls).map(|_| prepare()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(pass(black_box(input)));
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    (bytes * calls) as f64 / best / 1e9
}

/// Every isolated pass at `image_len`, as `(metric name, GB/s)`.
pub fn layer_pass(image_len: usize, page_size: usize, seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = transport::pass(image_len, seed);
    out.extend(parity::pass(image_len, seed));
    out.extend(checkpoint::pass(image_len, page_size, seed));
    out.extend(os::pass(image_len, seed));
    out
}
