//! Figure 1 — "A first-shot implementation of diskless checkpointing on a
//! simple virtualized cluster."
//!
//! N+1 physical nodes, one VM per compute node, the extra node holds
//! parity: `GroupPlacement::dedicated` with one slot, run by the same
//! `DvdcProtocol` as every other figure. The scenario exercised: take a
//! coordinated checkpoint, fail each node in turn (including the parity
//! node), and verify byte-exact recovery plus the round/recovery costs.
//!
//! Run: `cargo run -p dvdc-bench --bin fig1_first_shot`

use dvdc_bench::{checkpoint_node_protocol, human_bytes, human_secs, render_table, write_json};
use dvdc_vcluster::cluster::ClusterBuilder;
use dvdc_vcluster::fabric::base_overhead;
use dvdc_vcluster::ids::NodeId;
use serde::Serialize;

#[derive(Serialize)]
struct Fig1Row {
    failed_node: usize,
    role: &'static str,
    recovered_vms: usize,
    parity_rebuilt: usize,
    repair_secs: f64,
    bytewise_ok: bool,
}

fn main() {
    const COMPUTE: usize = 4;
    let parity_node = NodeId(COMPUTE);
    println!(
        "Figure 1 — first-shot diskless checkpointing: {COMPUTE}+1 nodes, 1 VM per compute node\n"
    );

    let mut records = Vec::new();
    let mut rows = Vec::new();
    for victim in 0..=COMPUTE {
        let mut cluster = ClusterBuilder::new()
            .physical_nodes(COMPUTE + 1)
            .spare_nodes(1)
            .vms_per_node(1)
            .vm_memory(256, 4096)
            .build(1);
        let mut proto = checkpoint_node_protocol(&cluster, parity_node);
        let round = proto.run_round(&mut cluster).unwrap();
        if victim == 0 {
            // Synchronous parity: the guests pause for the whole latency.
            let (_, overhead) = round.load.price(cluster.fabric(), base_overhead());
            println!(
                "round cost: overhead {} (fan-in to the parity node dominates), payload {}\n",
                human_secs(overhead.as_secs()),
                human_bytes(round.payload_bytes),
            );
        }
        let want: Vec<Vec<u8>> = cluster
            .vm_ids()
            .iter()
            .map(|&v| cluster.vm(v).memory().snapshot())
            .collect();

        cluster.fail_node(NodeId(victim));
        let rep = proto.recover(&mut cluster, NodeId(victim)).unwrap();
        let ok = cluster
            .vm_ids()
            .iter()
            .enumerate()
            .all(|(i, &v)| cluster.vm(v).memory().snapshot() == want[i]);

        let role = if NodeId(victim) == parity_node {
            "parity"
        } else {
            "compute"
        };
        rows.push(vec![
            format!("node{victim}"),
            role.to_string(),
            rep.recovered_vms.len().to_string(),
            rep.parity_rebuilt.len().to_string(),
            human_secs(rep.repair_time.as_secs()),
            if ok { "yes".into() } else { "NO".into() },
        ]);
        records.push(Fig1Row {
            failed_node: victim,
            role,
            recovered_vms: rep.recovered_vms.len(),
            parity_rebuilt: rep.parity_rebuilt.len(),
            repair_secs: rep.repair_time.as_secs(),
            bytewise_ok: ok,
        });
    }

    println!(
        "{}",
        render_table(
            &[
                "failed",
                "role",
                "recovered",
                "parity rebuilt",
                "repair",
                "byte-exact"
            ],
            &rows
        )
    );
    assert!(
        records.iter().all(|r| r.bytewise_ok),
        "recovery must be exact"
    );
    println!("every single-node failure recovered byte-exactly ✓");
    write_json("fig1_first_shot", &records);
}
