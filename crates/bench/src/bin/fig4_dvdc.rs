//! Figure 4 — "A virtualized cluster using diskless checkpointing and
//! orthogonal RAID with no checkpoint node" — the DVDC configuration.
//!
//! 4 physical machines × 3 VMs; parity (A⊕D⊕G etc.) is distributed so
//! every node does compute work and holds exactly one group's parity.
//! The experiment prints the placement (matching the figure's lettering),
//! the round cost against Fig. 3's dedicated-node placement — same
//! protocol, same options, only where parity lives differs — and drills
//! every single-node failure.
//!
//! Run: `cargo run -p dvdc-bench --bin fig4_dvdc`

use dvdc::placement::GroupPlacement;
use dvdc::protocol::DvdcProtocol;
use dvdc_bench::{human_bytes, human_secs, render_table, write_json};
use dvdc_vcluster::cluster::ClusterBuilder;
use dvdc_vcluster::fabric::base_overhead;
use dvdc_vcluster::ids::NodeId;
use serde::Serialize;

#[derive(Serialize)]
struct Fig4Record {
    parity_load: Vec<usize>,
    dvdc_overhead_secs: f64,
    dvdc_latency_secs: f64,
    /// Fig. 3's synchronous round, as `fig3_checkpoint_node` records it.
    first_shot_overhead_secs: f64,
    /// Both placements under both transports, first (full) round.
    rounds: Vec<RoundRow>,
    recovery_secs: Vec<f64>,
    all_recoveries_byte_exact: bool,
}

#[derive(Serialize)]
struct RoundRow {
    placement: &'static str,
    parity: &'static str,
    payload_bytes: usize,
    overhead_secs: f64,
    latency_secs: f64,
}

fn vm_letter(i: usize) -> char {
    (b'A' + i as u8) as char
}

fn main() {
    println!("Figure 4 — DVDC: distributed parity, no checkpoint node (4 nodes × 3 VMs)\n");

    let build = || {
        ClusterBuilder::new()
            .physical_nodes(4)
            .vms_per_node(3)
            .vm_memory(256, 4096)
    };
    let cluster = build().build(4);
    let placement = GroupPlacement::orthogonal(&cluster, 3, 1).unwrap();

    // Print the placement in the figure's lettering (VM i → letter).
    let mut rows = Vec::new();
    for g in placement.groups() {
        let letters: String = g
            .data
            .iter()
            .map(|&vm| {
                // Figure 4 letters VMs by (node, slot): node0 = A,B,C etc.
                let node = cluster.node_of(vm).index();
                let slot = cluster
                    .vms_on(cluster.node_of(vm))
                    .iter()
                    .position(|&v| v == vm)
                    .unwrap();
                vm_letter(node * 3 + slot)
            })
            .collect();
        rows.push(vec![
            format!("{}", g.id),
            letters,
            format!("{}", g.parity_nodes[0]),
        ]);
    }
    println!(
        "{}",
        render_table(&["group", "members", "parity on"], &rows)
    );
    let load = placement.parity_load(4);
    println!("parity blocks per node: {load:?} — perfectly balanced, all nodes compute\n");

    // Round cost: rotated parity (Fig. 4) vs one checkpoint node (Fig. 3,
    // whose fourth node hosts no VMs), each with parity taken in the
    // background (Section IV-C) and synchronously.
    let (mut rounds, mut round_rows) = (Vec::new(), Vec::new());
    for (name, spare) in [("rotated (Fig. 4)", 0), ("dedicated (Fig. 3)", 1)] {
        let mut c = build().spare_nodes(spare).build(4);
        let placement = if spare == 0 {
            GroupPlacement::orthogonal(&c, 3, 1).unwrap()
        } else {
            GroupPlacement::dedicated(&c, NodeId(3)).unwrap()
        };
        let r = DvdcProtocol::new(placement).run_round(&mut c).unwrap();
        let (pause, latency) = r.load.price(c.fabric(), base_overhead());
        for (parity, overhead) in [("background", pause), ("synchronous", latency)] {
            round_rows.push(vec![
                name.to_string(),
                parity.to_string(),
                human_bytes(r.payload_bytes),
                human_secs(overhead.as_secs()),
                human_secs(latency.as_secs()),
            ]);
            rounds.push(RoundRow {
                placement: name,
                parity,
                payload_bytes: r.payload_bytes,
                overhead_secs: overhead.as_secs(),
                latency_secs: latency.as_secs(),
            });
        }
    }
    println!(
        "{}",
        render_table(
            &["placement", "parity", "payload", "overhead", "latency"],
            &round_rows
        )
    );
    println!(
        "background parity hides the transfer either way; what rotation buys is latency\n\
         (and the synchronous pause): one holder takes every image vs. each taking a share\n"
    );
    // Loop order above: the paper's Fig. 4 configuration (rotated,
    // background) comes first, Fig. 3's (dedicated, synchronous) last.
    let (dvdc_round, fs_round) = (&rounds[0], &rounds[3]);

    // Drill every node failure.
    let mut recovery_secs = Vec::new();
    let mut all_exact = true;
    let mut drill_rows = Vec::new();
    for victim in 0..4 {
        let mut c = build().build(4);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3, 1).unwrap());
        p.run_round(&mut c).unwrap();
        let want: Vec<Vec<u8>> = c
            .vm_ids()
            .iter()
            .map(|&v| c.vm(v).memory().snapshot())
            .collect();
        c.fail_node(NodeId(victim));
        let rep = p.recover(&mut c, NodeId(victim)).unwrap();
        let exact = c
            .vm_ids()
            .iter()
            .enumerate()
            .all(|(i, &v)| c.vm(v).memory().snapshot() == want[i]);
        all_exact &= exact;
        recovery_secs.push(rep.repair_time.as_secs());
        drill_rows.push(vec![
            format!("node{victim}"),
            rep.recovered_vms.len().to_string(),
            rep.parity_rebuilt.len().to_string(),
            human_secs(rep.repair_time.as_secs()),
            if exact { "yes".into() } else { "NO".into() },
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "failed",
                "VMs rebuilt",
                "parity rebuilt",
                "repair",
                "byte-exact"
            ],
            &drill_rows
        )
    );
    assert!(all_exact);
    println!("every single-node failure recovered byte-exactly ✓");

    write_json(
        "fig4_dvdc",
        &Fig4Record {
            parity_load: load,
            dvdc_overhead_secs: dvdc_round.overhead_secs,
            dvdc_latency_secs: dvdc_round.latency_secs,
            first_shot_overhead_secs: fs_round.overhead_secs,
            rounds,
            recovery_secs,
            all_recoveries_byte_exact: all_exact,
        },
    );
}
