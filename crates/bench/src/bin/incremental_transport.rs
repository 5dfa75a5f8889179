//! Incremental delta-parity transport — full re-encode vs dirty-byte
//! XOR folding.
//!
//! Steady state, DVDC ships `old ⊕ new` runs for the dirty pages only
//! and parity holders fold them in place (`ErasureCode::apply_delta`),
//! so per-round parity work is proportional to the *dirty* bytes. The
//! fallback path (`with_incremental_parity(false)`, also taken on the
//! first round and after a recovery rollback) re-encodes every parity
//! block from the members' whole images.
//!
//! The experiment runs the same workload through both paths for m = 1
//! (XOR) and m = 2 (Reed–Solomon), and reports measured wall-clock per round,
//! the dirty-byte vs whole-block parity charge, and the latency each
//! round's load prices to.
//!
//! Run: `cargo run --release -p dvdc-bench --bin incremental_transport`

use std::time::Instant;

use dvdc::placement::GroupPlacement;
use dvdc::protocol::DvdcProtocol;
use dvdc_bench::{human_bytes, render_table, write_json};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::{Cluster, ClusterBuilder};
use dvdc_vcluster::fabric::base_overhead;
use serde::Serialize;

const STEADY_ROUNDS: u64 = 8;

#[derive(Serialize)]
struct TransportRecord {
    parity_blocks: usize,
    incremental: bool,
    /// Mean wall-clock of one steady-state round (host time, µs).
    round_wall_micros: f64,
    /// Mean dirty payload shipped per steady round.
    payload_bytes: f64,
    /// Mean parity bytes actually rewritten per steady round.
    parity_update_bytes: f64,
    /// Parity bytes a full re-encode touches every round.
    redundancy_bytes: usize,
    /// Mean simulated checkpoint latency per steady round (s).
    latency_secs: f64,
}

fn build_cluster() -> Cluster {
    ClusterBuilder::new()
        .physical_nodes(6)
        .vms_per_node(2)
        .vm_memory(256, 4096) // 1 MiB per VM → parity blocks hit the parallel XOR path
        .writes_per_sec(150.0)
        .build(11)
}

fn run(m: usize, incremental: bool) -> TransportRecord {
    let mut c = build_cluster();
    let placement = GroupPlacement::orthogonal(&c, 3, m).unwrap();
    let mut p = DvdcProtocol::new(placement).with_incremental_parity(incremental);

    // First round is always a full encode; exclude it from the averages.
    p.run_round(&mut c).unwrap();

    let hub = RngHub::new(29);
    let mut wall = 0.0f64;
    let mut payload = 0usize;
    let mut updated = 0usize;
    let mut latency = 0.0f64;
    let mut redundancy = 0usize;
    for round in 0..STEADY_ROUNDS {
        c.run_all(Duration::from_secs(0.2), |vm| {
            hub.subhub("round", round)
                .stream_indexed("vm", vm.index() as u64)
        });
        let t0 = Instant::now();
        let r = p.run_round(&mut c).unwrap();
        wall += t0.elapsed().as_secs_f64() * 1e6;
        payload += r.payload_bytes;
        updated += r.parity_update_bytes;
        latency += r.load.price(c.fabric(), base_overhead()).1.as_secs();
        redundancy = r.redundancy_bytes;

        // The accounting invariant the transport is built on.
        if incremental {
            assert_eq!(r.parity_update_bytes, r.payload_bytes * m);
        } else {
            assert_eq!(r.parity_update_bytes, r.redundancy_bytes);
        }
    }

    let n = STEADY_ROUNDS as f64;
    TransportRecord {
        parity_blocks: m,
        incremental,
        round_wall_micros: wall / n,
        payload_bytes: payload as f64 / n,
        parity_update_bytes: updated as f64 / n,
        redundancy_bytes: redundancy,
        latency_secs: latency / n,
    }
}

fn main() {
    println!("Incremental delta-parity transport vs full re-encode\n");
    println!("cluster: 6 nodes × 2 VMs × 1 MiB, k=3, 150 writes/s, 0.2 s rounds\n");

    let mut records = Vec::new();
    for m in [1usize, 2] {
        for incremental in [false, true] {
            records.push(run(m, incremental));
        }
    }

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                format!(
                    "m={} {}",
                    r.parity_blocks,
                    if r.incremental {
                        "incremental"
                    } else {
                        "re-encode"
                    }
                ),
                format!("{:.0} µs", r.round_wall_micros),
                human_bytes(r.payload_bytes as usize),
                human_bytes(r.parity_update_bytes as usize),
                human_bytes(r.redundancy_bytes),
                format!("{:.1} ms", r.latency_secs * 1e3),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "path",
                "round wall",
                "dirty payload",
                "parity rewritten",
                "full-encode charge",
                "sim latency"
            ],
            &rows
        )
    );

    for m in [1usize, 2] {
        let full = records
            .iter()
            .find(|r| r.parity_blocks == m && !r.incremental)
            .unwrap();
        let inc = records
            .iter()
            .find(|r| r.parity_blocks == m && r.incremental)
            .unwrap();
        assert!(
            inc.parity_update_bytes < full.parity_update_bytes,
            "incremental must rewrite fewer parity bytes"
        );
        println!(
            "m={m}: parity bytes rewritten per round {} → {} ({:.1}× less), wall {:.0} µs → {:.0} µs",
            human_bytes(full.parity_update_bytes as usize),
            human_bytes(inc.parity_update_bytes as usize),
            full.parity_update_bytes / inc.parity_update_bytes,
            full.round_wall_micros,
            inc.round_wall_micros,
        );
    }

    write_json("incremental_transport", &records);
}
