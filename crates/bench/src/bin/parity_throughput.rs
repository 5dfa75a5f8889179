//! Parity-kernel throughput — GB/s for encode, decode (one-erasure
//! reconstruct), and delta-fold across the code families and block sizes,
//! plus the pre-table scalar Reed–Solomon kernel as the baseline the
//! table-driven rewrite is measured against.
//!
//! Throughput convention: every operation is credited with the *data
//! payload* it processes — `k × block` bytes for encode and decode,
//! `m × block` delta bytes for a fold — so numbers are comparable across
//! families with different m.
//!
//! The structural claim asserted at the end: the table-driven Reed–Solomon
//! encode (per-coefficient 256-entry product tables, cache-blocked,
//! split across cores for large blocks) is at least 3× the pre-rewrite
//! scalar log/exp kernel at the table encode's best block size. The two
//! kernels are timed there as alternating pairs, and the median of the
//! pairs' ratios is what must reach 3×, so one noisy pass cannot decide
//! it. The medians land in the JSON record.
//!
//! Run: `cargo run --release -p dvdc-bench --bin parity_throughput`
//! Reduced sweep (CI): `DVDC_PARITY_QUICK=1 cargo run --release ...`

use std::time::Instant;

use dvdc_bench::{human_bytes, render_table, write_json};
use dvdc_parity::code::ErasureCode;
use dvdc_parity::gf256::Tables;
use dvdc_parity::rs::ReedSolomon;
use serde::Serialize;

/// Data shards per group — matches the protocol benches' group width.
const K: usize = 8;

/// Alternating (table, scalar) encode timings the speedup gate takes the
/// median of.
const SPEEDUP_PAIRS: usize = 5;

#[derive(Serialize)]
struct ThroughputRow {
    family: String,
    block_bytes: usize,
    encode_gbps: f64,
    decode_gbps: f64,
    delta_fold_gbps: f64,
}

#[derive(Serialize)]
struct ThroughputReport {
    rows: Vec<ThroughputRow>,
    /// The block size the table-driven RS encode ran fastest at, where
    /// the pairs below are timed.
    rs_encode_block_bytes: usize,
    /// Pre-rewrite scalar RS encode at that block, median of the pairs
    /// (GB/s).
    rs_encode_scalar_gbps: f64,
    /// Table-driven RS encode at that block, median of the pairs (GB/s).
    rs_encode_table_gbps: f64,
    /// Median over the pairs of table ÷ scalar.
    rs_encode_speedup: f64,
}

/// Deterministic pseudo-random fill (SplitMix64) — no RNG dependency.
fn fill(buf: &mut [u8], mut state: u64) {
    for chunk in buf.chunks_mut(8) {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let bytes = (z ^ (z >> 31)).to_le_bytes();
        let n = chunk.len();
        chunk.copy_from_slice(&bytes[..n]);
    }
}

/// `K` data blocks of `block` bytes, each its own SplitMix64 stream.
fn group_data(block: usize, seed: u64) -> Vec<Vec<u8>> {
    (0..K)
        .map(|i| {
            let mut v = vec![0u8; block];
            fill(&mut v, (i as u64 + 1) * seed);
            v
        })
        .collect()
}

/// Times `op` repeatedly until `budget_secs` of samples accumulate (after
/// one warmup call) and returns GB/s for `bytes_per_iter`.
fn measure<F: FnMut()>(bytes_per_iter: usize, budget_secs: f64, mut op: F) -> f64 {
    op(); // warmup
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        op();
        iters += 1;
        if start.elapsed().as_secs_f64() >= budget_secs {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    (bytes_per_iter as u64 * iters) as f64 / secs / 1e9
}

/// Measures one code family at one block size.
fn bench_family(family: &str, code: &ReedSolomon, block: usize, budget: f64) -> ThroughputRow {
    let m = code.parity_shards();
    let data = group_data(block, 0x9e37);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let payload = K * block;

    let encode_gbps = measure(payload, budget, || {
        std::hint::black_box(code.encode(&refs));
    });

    let parity = code.encode(&refs);
    let mut shards: Vec<Option<Vec<u8>>> = data
        .iter()
        .cloned()
        .map(Some)
        .chain(parity.iter().cloned().map(Some))
        .collect();
    let decode_gbps = measure(payload, budget, || {
        shards[0] = None;
        code.reconstruct(&mut shards)
            .expect("single erasure decodes");
    });

    let mut parity = parity;
    let mut delta = vec![0u8; block];
    fill(&mut delta, 0xde17a);
    let delta_fold_gbps = measure(m * block, budget, || {
        for (r, row) in parity.iter_mut().enumerate() {
            code.apply_delta(r, row, 0, 0, &delta);
        }
        std::hint::black_box(&parity);
    });

    ThroughputRow {
        family: family.to_string(),
        block_bytes: block,
        encode_gbps,
        decode_gbps,
        delta_fold_gbps,
    }
}

/// The middle value of `xs` (the upper one of an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// The pre-rewrite Reed–Solomon encode: one branchy log/exp multiply per
/// byte per coefficient (`Tables::mul_acc_scalar`), no blocking, no
/// threads — the kernel every round used before the table rewrite.
fn rs_encode_scalar_gbps(m: usize, block: usize, budget: f64) -> f64 {
    let tables = Tables::shared();
    let data = group_data(block, 0x517);
    let mut parity = vec![vec![0u8; block]; m];
    measure(K * block, budget, || {
        for (r, row) in parity.iter_mut().enumerate() {
            row.fill(0);
            for (c, src) in data.iter().enumerate() {
                let coeff = ((r * K + c) % 254 + 2) as u8;
                tables.mul_acc_scalar(row, src, coeff);
            }
        }
        std::hint::black_box(&parity);
    })
}

fn main() {
    let quick = std::env::var("DVDC_PARITY_QUICK").is_ok();
    let budget = if quick { 0.05 } else { 0.25 };
    let blocks: &[usize] = if quick {
        &[64 << 10, 1 << 20]
    } else {
        &[16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20]
    };
    println!("Parity-kernel throughput (k = {K}, payload-credited GB/s)\n");

    let mut rows = Vec::new();
    for &block in blocks {
        rows.push(bench_family(
            "xor(m=1)",
            &ReedSolomon::new(K, 1),
            block,
            budget,
        ));
        rows.push(bench_family(
            "rs(m=2)",
            &ReedSolomon::new(K, 2),
            block,
            budget,
        ));
        rows.push(bench_family(
            "rs(m=4)",
            &ReedSolomon::new(K, 4),
            block,
            budget,
        ));
    }

    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.family.clone(),
                human_bytes(r.block_bytes),
                format!("{:.2}", r.encode_gbps),
                format!("{:.2}", r.decode_gbps),
                format!("{:.2}", r.delta_fold_gbps),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "family",
                "block",
                "encode GB/s",
                "decode GB/s",
                "delta-fold GB/s"
            ],
            &table_rows
        )
    );

    // Baseline vs. rewrite at the table encode's best block, as
    // alternating pairs so a slow phase of the host hits both sides.
    let best_block = rows
        .iter()
        .filter(|r| r.family == "rs(m=2)")
        .max_by(|a, b| a.encode_gbps.total_cmp(&b.encode_gbps))
        .map(|r| r.block_bytes)
        .expect("rs(m=2) rows were measured");
    let rs = ReedSolomon::new(K, 2);
    let data = group_data(best_block, 0x9e37);
    let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
    let (mut table, mut scalar, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_PAIRS {
        let t = measure(K * best_block, budget, || {
            std::hint::black_box(rs.encode(&refs));
        });
        let s = rs_encode_scalar_gbps(2, best_block, budget);
        table.push(t);
        scalar.push(s);
        ratios.push(t / s);
    }
    let (best_table, best_scalar, speedup) = (median(table), median(scalar), median(ratios));
    println!(
        "rs(m=2) encode at {}, median of {SPEEDUP_PAIRS} pairs: scalar {best_scalar:.2} GB/s → \
         table {best_table:.2} GB/s, ratio {speedup:.2}×",
        human_bytes(best_block)
    );
    assert!(
        speedup >= 3.0,
        "table-driven RS encode must be ≥3× the scalar kernel, median ratio {speedup:.2}×"
    );
    println!("table-driven RS encode is ≥3× the pre-rewrite scalar kernel ✓");

    write_json(
        "parity_throughput",
        &ThroughputReport {
            rows,
            rs_encode_block_bytes: best_block,
            rs_encode_scalar_gbps: best_scalar,
            rs_encode_table_gbps: best_table,
            rs_encode_speedup: speedup,
        },
    );
}
