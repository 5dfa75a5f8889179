//! Figure 3 — "A virtualized cluster using diskless checkpointing and
//! orthogonal RAID", with a dedicated checkpointing node holding the
//! slot-aligned parities (ABC, DEF, GHI in the figure's lettering).
//!
//! The experiment runs the Fig. 3 configuration — 3 compute nodes with 3
//! VMs each plus 1 VM-less checkpoint node, i.e. `DvdcProtocol` on
//! `GroupPlacement::dedicated` — reports the round cost breakdown, then
//! exercises compute-node and checkpoint-node failures.
//!
//! Run: `cargo run -p dvdc-bench --bin fig3_checkpoint_node`

use dvdc_bench::{checkpoint_node_protocol, human_bytes, human_secs, render_table, write_json};
use dvdc_vcluster::cluster::ClusterBuilder;
use dvdc_vcluster::fabric::{base_overhead, RoundLoad};
use dvdc_vcluster::ids::NodeId;
use serde::Serialize;

#[derive(Serialize)]
struct Fig3Record {
    round_overhead_secs: f64,
    round_latency_secs: f64,
    payload_bytes: usize,
    parity_bytes: usize,
    compute_failure_repair_secs: f64,
    parity_failure_repair_secs: f64,
    incremental_payload_bytes: usize,
}

fn main() {
    println!("Figure 3 — diskless checkpointing with a dedicated checkpoint node");
    println!("  3 compute nodes × 3 VMs + checkpoint node (parity = A⊕B⊕C per slot)\n");

    let build = || {
        ClusterBuilder::new()
            .physical_nodes(4)
            .spare_nodes(1)
            .vms_per_node(3)
            .vm_memory(256, 4096)
            .writes_per_sec(2000.0)
            .build(3)
    };

    // Round cost: full first round, then an incremental one.
    let mut cluster = build();
    let mut proto = checkpoint_node_protocol(&cluster, NodeId(3));
    let full = proto.run_round(&mut cluster).unwrap();
    let hub = dvdc_simcore::rng::RngHub::new(33);
    cluster.run_all(dvdc_simcore::time::Duration::from_secs(1.0), |vm| {
        hub.stream_indexed("w", vm.index() as u64)
    });
    let incremental = proto.run_round(&mut cluster).unwrap();
    // Synchronous parity: the guests pause for the whole latency.
    let secs = |load: RoundLoad| load.price(cluster.fabric(), base_overhead()).1.as_secs();
    let (full_secs, incremental_secs) = (secs(full.load), secs(incremental.load));

    let rows = vec![
        vec![
            "full (epoch 0)".to_string(),
            human_bytes(full.payload_bytes),
            human_bytes(full.redundancy_bytes),
            human_secs(full_secs),
            human_secs(full_secs),
        ],
        vec![
            "incremental".to_string(),
            human_bytes(incremental.payload_bytes),
            human_bytes(incremental.redundancy_bytes),
            human_secs(incremental_secs),
            human_secs(incremental_secs),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["round", "payload", "parity", "overhead", "latency"],
            &rows
        )
    );

    // Failure drills.
    let mut c1 = build();
    let mut p1 = checkpoint_node_protocol(&c1, NodeId(3));
    p1.run_round(&mut c1).unwrap();
    let want = c1.vm(dvdc_vcluster::ids::VmId(0)).memory().snapshot();
    c1.fail_node(NodeId(0));
    let compute_rep = p1.recover(&mut c1, NodeId(0)).unwrap();
    assert_eq!(
        c1.vm(dvdc_vcluster::ids::VmId(0)).memory().snapshot(),
        want,
        "compute-node recovery must be byte-exact"
    );

    let mut c2 = build();
    let mut p2 = checkpoint_node_protocol(&c2, NodeId(3));
    p2.run_round(&mut c2).unwrap();
    c2.fail_node(NodeId(3));
    let parity_rep = p2.recover(&mut c2, NodeId(3)).unwrap();

    println!(
        "compute-node failure: {} VMs rebuilt from survivors ⊕ parity in {}",
        compute_rep.recovered_vms.len(),
        human_secs(compute_rep.repair_time.as_secs())
    );
    println!(
        "checkpoint-node failure: no VM lost; {} parities recomputed in {}",
        parity_rep.parity_rebuilt.len(),
        human_secs(parity_rep.repair_time.as_secs())
    );

    write_json(
        "fig3_checkpoint_node",
        &Fig3Record {
            round_overhead_secs: full_secs,
            round_latency_secs: full_secs,
            payload_bytes: full.payload_bytes,
            parity_bytes: full.redundancy_bytes,
            compute_failure_repair_secs: compute_rep.repair_time.as_secs(),
            parity_failure_repair_secs: parity_rep.repair_time.as_secs(),
            incremental_payload_bytes: incremental.payload_bytes,
        },
    );
}
