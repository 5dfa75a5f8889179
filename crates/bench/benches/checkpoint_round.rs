//! Criterion bench for full coordinated checkpoint rounds: DVDC
//! (full vs incremental capture) against the disk-full baseline and the
//! first-shot dedicated-parity-node variant, on the Fig. 4 cluster shape.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dvdc::placement::GroupPlacement;
use dvdc::protocol::{CheckpointProtocol, DiskFullProtocol, DvdcProtocol, FirstShotProtocol};
use dvdc_checkpoint::strategy::Mode;
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::{Cluster, ClusterBuilder};
use dvdc_vcluster::ids::NodeId;

fn cluster() -> Cluster {
    ClusterBuilder::new()
        .physical_nodes(4)
        .vms_per_node(3)
        .vm_memory(128, 4096) // 512 KiB per VM keeps iterations fast
        .writes_per_sec(500.0)
        .build(0)
}

fn dirty_some(c: &mut Cluster, hub: &RngHub, round: u64) {
    c.run_all(Duration::from_secs(0.2), |vm| {
        hub.subhub("bench", round)
            .stream_indexed("vm", vm.index() as u64)
    });
}

fn bench_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("round_fig4_cluster_6MiB");

    g.bench_function("dvdc_incremental", |b| {
        let mut cl = cluster();
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&cl, 3).unwrap());
        p.run_round(&mut cl).unwrap();
        let hub = RngHub::new(1);
        let mut round = 0u64;
        b.iter(|| {
            dirty_some(&mut cl, &hub, round);
            round += 1;
            black_box(p.run_round(&mut cl).unwrap())
        })
    });

    g.bench_function("dvdc_incremental_no_delta_parity", |b| {
        // Same dirty-page capture, but parity holders re-encode whole
        // blocks instead of folding XOR deltas — isolates the delta
        // transport's contribution.
        let mut cl = cluster();
        let placement = GroupPlacement::orthogonal(&cl, 3).unwrap();
        let mut p = DvdcProtocol::new(placement).with_incremental_parity(false);
        p.run_round(&mut cl).unwrap();
        let hub = RngHub::new(1);
        let mut round = 0u64;
        b.iter(|| {
            dirty_some(&mut cl, &hub, round);
            round += 1;
            black_box(p.run_round(&mut cl).unwrap())
        })
    });

    g.bench_function("dvdc_full_capture", |b| {
        let mut cl = cluster();
        let placement = GroupPlacement::orthogonal(&cl, 3).unwrap();
        let mut p =
            DvdcProtocol::with_options(placement, Mode::Full, true, Duration::from_millis(40.0));
        b.iter(|| black_box(p.run_round(&mut cl).unwrap()))
    });

    g.bench_function("disk_full_baseline", |b| {
        let mut cl = cluster();
        let mut p = DiskFullProtocol::new();
        b.iter(|| black_box(p.run_round(&mut cl).unwrap()))
    });

    g.bench_function("first_shot_dedicated_node", |b| {
        let mut cl = cluster();
        let mut p = FirstShotProtocol::new(NodeId(3));
        p.run_round(&mut cl).unwrap();
        let hub = RngHub::new(2);
        let mut round = 0u64;
        b.iter(|| {
            dirty_some(&mut cl, &hub, round);
            round += 1;
            black_box(p.run_round(&mut cl).unwrap())
        })
    });

    g.finish();
}

criterion_group!(benches, bench_round);
criterion_main!(benches);
