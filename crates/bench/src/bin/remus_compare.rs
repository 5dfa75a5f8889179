//! DVDC vs Remus-like replication (Section VI).
//!
//! The paper's qualitative trade-off, measured: Remus resumes instantly
//! from the standby replica and never rolls survivors back, but pays full
//! memory replication; DVDC pays 1/k parity memory but must roll the
//! whole cluster back and decode. The DVDC row is a run of the protocol;
//! the paper treats Remus in prose only, so its row is
//! [`dvdc_bench::remus_row`], a cost row over the same cluster's fabric.
//! We also sweep the checkpoint frequency up to Remus's "40 times per
//! second" and report the expected lost work per failure (half the
//! interval) against per-round network traffic.
//!
//! Run: `cargo run -p dvdc-bench --bin remus_compare`

use dvdc::placement::GroupPlacement;
use dvdc::protocol::DvdcProtocol;
use dvdc_bench::{human_bytes, human_secs, remus_row, render_table, write_json, CompareRecord};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::ClusterBuilder;
use dvdc_vcluster::fabric::base_overhead;
use dvdc_vcluster::ids::NodeId;
use serde::Serialize;

#[derive(Serialize)]
struct RateRow {
    checkpoints_per_sec: f64,
    expected_lost_work_secs: f64,
    network_bytes_per_sec: f64,
}

fn build() -> dvdc_vcluster::cluster::Cluster {
    ClusterBuilder::new()
        .physical_nodes(4)
        .vms_per_node(3)
        .vm_memory(128, 4096)
        .writes_per_sec(500.0)
        .build(0)
}

fn main() {
    println!("DVDC vs Remus-like active/standby replication (Section VI)\n");

    // DVDC: one committed round + some progress + a node failure.
    let hub = RngHub::new(0xCAFE);
    let mut c1 = build();
    let mut dvdc = DvdcProtocol::new(GroupPlacement::orthogonal(&c1, 3).unwrap());
    let r1 = dvdc.run_round(&mut c1).unwrap();
    let (round_pause, _) = r1.load.price(c1.fabric(), base_overhead());
    c1.run_all(Duration::from_secs(1.0), |vm| {
        hub.stream_indexed("a", vm.index() as u64)
    });
    c1.fail_node(NodeId(0));
    let rep1 = dvdc.recover(&mut c1, NodeId(0)).unwrap();
    let records = [
        CompareRecord {
            protocol: "dvdc".into(),
            cross_node_redundancy_bytes: r1.redundancy_bytes,
            total_protocol_bytes: dvdc.redundancy_bytes(),
            repair_secs: rep1.repair_time.as_secs(),
            rolls_back_survivors: rep1.rolled_back_to.is_some(),
            round_overhead_secs: round_pause.as_secs(),
            round_network_bytes: r1.network_bytes,
        },
        remus_row(&build(), NodeId(0)),
    ];

    let rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.protocol.clone(),
                human_bytes(r.cross_node_redundancy_bytes),
                human_secs(r.repair_secs),
                if r.rolls_back_survivors { "yes" } else { "no" }.to_string(),
                human_secs(r.round_overhead_secs),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "protocol",
                "cross-node redundancy",
                "repair",
                "global rollback",
                "round overhead"
            ],
            &rows
        )
    );
    println!("the Section VI trade-off, quantified: Remus avoids rollback but pays k× memory\n");

    // Frequency sweep: Remus-style rates up to 40 Hz.
    let image_bytes = 128 * 4096;
    let dirty_rate_bytes = 500.0 * 4096.0; // writes/s × page size, per VM
    let vms = 12.0;
    let mut rate_rows = Vec::new();
    let mut rates = Vec::new();
    for hz in [1.0f64, 5.0, 10.0, 20.0, 40.0] {
        let interval = 1.0 / hz;
        let dirty_per_round = (dirty_rate_bytes * interval).min(image_bytes as f64);
        let net = dirty_per_round * vms * hz;
        let lost = interval / 2.0;
        rate_rows.push(vec![
            format!("{hz:.0} Hz"),
            human_secs(lost),
            format!("{}/s", human_bytes(net as usize)),
        ]);
        rates.push(RateRow {
            checkpoints_per_sec: hz,
            expected_lost_work_secs: lost,
            network_bytes_per_sec: net,
        });
    }
    println!(
        "{}",
        render_table(
            &[
                "checkpoint rate",
                "expected lost work/failure",
                "network traffic"
            ],
            &rate_rows
        )
    );
    println!("\"as many as 40 times per second … although at that rate there was a");
    println!(" significant impact to the system\" — visible as the traffic column ✓");

    // DVDC's cross-node redundancy is ~1/k of Remus's full replication.
    assert!(records[0].cross_node_redundancy_bytes * 2 < records[1].cross_node_redundancy_bytes);
    write_json("remus_compare", &(records, rates));
}
