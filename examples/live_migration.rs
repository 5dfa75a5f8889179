//! Live migration: evacuate a failing node, with and without the paper's
//! Section VII page-hash acceleration, while keeping the DVDC RAID groups
//! orthogonal.
//!
//! Run: `cargo run --example live_migration`

use dvdc::placement::{GroupPlacement, Member};
use dvdc_migrate::engine::migrate_vm;
use dvdc_migrate::pagehash::PageHashIndex;
use dvdc_migrate::precopy::PreCopyConfig;
use dvdc_vcluster::cluster::ClusterBuilder;
use dvdc_vcluster::ids::{NodeId, VmId};

fn main() {
    // 6 nodes so groups of 3 (+1 parity) leave migration headroom.
    let mut cluster = ClusterBuilder::new()
        .physical_nodes(6)
        .vms_per_node(2)
        .vm_memory(1024, 4096) // 4 MiB VMs
        .writes_per_sec(500.0)
        .build(5);
    let placement = GroupPlacement::orthogonal(&cluster, 3).expect("placement");
    println!(
        "cluster: {} nodes × 2 VMs; groups of 3 + parity\n",
        cluster.node_count()
    );

    // Health monitoring says node 0 is about to fail: evacuate its VMs.
    let failing = NodeId(0);
    let evacuees: Vec<VmId> = cluster.vms_on(failing).to_vec();
    println!("evacuating {failing} ({} VMs)…", evacuees.len());

    let cfg = PreCopyConfig::default();
    for (i, vm) in evacuees.into_iter().enumerate() {
        // The placement picks the destination that keeps the VM's RAID
        // group orthogonal: no node hosting a group peer or its parity.
        let dest = placement
            .host_for(&cluster, Member::Vm(vm), Some(failing))
            .expect("a valid destination exists");

        // Second evacuee demonstrates the page-hash acceleration: the
        // destination indexes its resident images first.
        let outcome = if i == 0 {
            migrate_vm(&mut cluster, vm, dest, &cfg, None)
        } else {
            let mut idx = PageHashIndex::new();
            for &resident in cluster.vms_on(dest) {
                idx.index_image(cluster.vm(resident).memory());
            }
            // Seed similarity: zero pages are common across VMs, so wipe
            // a third of the migrating VM (e.g. free page cache).
            let pages = cluster.vm(vm).memory().page_count();
            for p in 0..pages / 3 {
                cluster
                    .vm_mut(vm)
                    .memory_mut()
                    .write_page(p, &vec![0u8; 4096]);
            }
            let mut zero_idx = idx.clone();
            zero_idx.index_bytes(&vec![0u8; 4096], 4096);
            migrate_vm(&mut cluster, vm, dest, &cfg, Some(&zero_idx))
        };

        println!(
            "  {} → {}: {} rounds, {:.1} MiB sent ({} deduped), total {:.0} ms, downtime {:.1} ms",
            outcome.vm,
            outcome.to,
            outcome.stats.rounds,
            outcome.stats.bytes_sent as f64 / (1 << 20) as f64,
            outcome.deduped_bytes >> 10,
            outcome.stats.total_time.as_millis(),
            outcome.stats.downtime.as_millis(),
        );
    }

    // The placement must still be orthogonal after evacuation — otherwise
    // the next node failure could take two members of one group.
    placement
        .validate(&cluster)
        .expect("evacuation preserved orthogonality");
    println!("\nplacement still orthogonal after evacuation ✓");
    cluster.fail_node(failing);
    println!("{failing} can now fail safely: zero VMs were on it");
    assert!(cluster.vms_on(failing).is_empty());
}
