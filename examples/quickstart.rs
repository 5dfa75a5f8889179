//! Quickstart: protect a virtualized cluster with DVDC and survive a
//! physical-node crash.
//!
//! Run: `cargo run --example quickstart`

use dvdc::placement::GroupPlacement;
use dvdc::protocol::DvdcProtocol;
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::ClusterBuilder;
use dvdc_vcluster::fabric::base_overhead;
use dvdc_vcluster::ids::NodeId;

fn main() {
    // 1. A virtualized cluster: 4 physical machines, 3 VMs each (the
    //    paper's Figure 4 configuration).
    let mut cluster = ClusterBuilder::new()
        .physical_nodes(4)
        .vms_per_node(3)
        .vm_memory(256, 4096) // 1 MiB VMs for the demo
        .writes_per_sec(2_000.0)
        .build(42);
    println!(
        "cluster: {} nodes, {} VMs, {} MiB of guest memory",
        cluster.node_count(),
        cluster.vm_count(),
        cluster.total_vm_bytes() >> 20
    );

    // 2. Orthogonal RAID groups: 3 data VMs per group, each on a distinct
    //    node, XOR parity on a fourth node, parity role balanced.
    let placement = GroupPlacement::orthogonal(&cluster, 3).expect("placement");
    for g in placement.groups() {
        println!(
            "  {}: data {:?} parity on {}",
            g.id,
            g.data.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
            g.parity_nodes[0]
        );
    }

    // 3. Checkpoint rounds while guests run.
    let mut protocol = DvdcProtocol::new(placement);
    let hub = RngHub::new(7);
    for round in 0..3u64 {
        cluster.run_all(Duration::from_secs(1.0), |vm| {
            hub.subhub("run", round)
                .stream_indexed("vm", vm.index() as u64)
        });
        let report = protocol.run_round(&mut cluster).expect("round");
        // Parity runs in the background: the guests pause for the capture.
        let (pause, usable) = report.load.price(cluster.fabric(), base_overhead());
        println!(
            "round {}: payload {} KiB, guest pause {:.1} ms, checkpoint usable after {:.1} ms",
            report.epoch,
            report.payload_bytes >> 10,
            pause.as_millis(),
            usable.as_millis()
        );
    }

    // 4. Crash a node — its 3 VMs (and one group's parity) vanish.
    let victim = NodeId(2);
    let before = cluster.vm(cluster.vms_on(victim)[0]).memory().snapshot();
    let lost = cluster.fail_node(victim);
    println!("\n{victim} crashed, taking {} VMs down", lost.len());

    // 5. Recover: decode the lost checkpoints from survivors + parity,
    //    rebuild the lost parity, roll everyone back to the last epoch.
    let report = protocol.recover(&mut cluster, victim).expect("recover");
    println!(
        "recovered {} VMs and {} parity block(s) in {:.1} ms, rolled back to epoch {}",
        report.recovered_vms.len(),
        report.parity_rebuilt.len(),
        report.repair_time.as_millis(),
        report.rolled_back_to.unwrap()
    );

    // 6. The reconstructed memory is byte-identical to the checkpoint.
    let after = cluster.vm(lost[0]).memory().snapshot();
    assert_eq!(before, after, "recovery must be byte-exact");
    println!("byte-exact recovery verified ✓");
}
