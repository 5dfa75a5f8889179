//! End-to-end failover: run the same failure-riddled job under four
//! protection schemes and compare realised completion times.
//!
//! A 10-minute job runs on a 4×3 cluster while exponential node failures
//! (MTBF 2 minutes across the cluster — brutal on purpose) strike per a
//! shared fault plan, so every protocol faces the *same* failures.
//!
//! Run: `cargo run --release --example cluster_failover`

use dvdc::placement::GroupPlacement;
use dvdc::protocol::{DiskFullProtocol, DvdcProtocol, RemusLikeProtocol};
use dvdc::sim::JobRunner;
use dvdc_checkpoint::strategy::Mode;
use dvdc_faults::dist::Exponential;
use dvdc_faults::injector::FaultInjector;
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::{Cluster, ClusterBuilder};
use dvdc_vcluster::ids::NodeId;

fn cluster() -> Cluster {
    ClusterBuilder::new()
        .physical_nodes(4)
        .vms_per_node(3)
        .vm_memory(2048, 4096)
        .writes_per_sec(2000.0)
        .build(99)
}

fn main() {
    let job = Duration::from_secs(600.0);
    let interval = Duration::from_secs(30.0);
    let runner = JobRunner::new(job, interval);

    // One failure schedule shared by all protocols: per-node MTBF of 8
    // minutes → cluster-wide MTBF ≈ 2 minutes.
    let hub = RngHub::new(2012);
    let injector = FaultInjector::new(
        4,
        Exponential::from_mtbf(Duration::from_secs(480.0)),
        Duration::from_secs(5.0),
    );
    let plan = injector.plan(Duration::from_secs(3_600.0), &hub);
    println!(
        "job: {} | checkpoint every {} | {} failures scheduled in the first hour\n",
        job,
        interval,
        plan.len()
    );

    let mut rows: Vec<(String, f64, u64, f64, f64)> = Vec::new();

    {
        let mut c = cluster();
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3).unwrap());
        let out = runner.run(&mut p, &mut c, &plan, &hub).unwrap();
        rows.push((
            "dvdc".into(),
            out.wall_time.as_secs(),
            out.failures,
            out.lost_work.as_secs(),
            out.overhead_total.as_secs(),
        ));
    }
    {
        let mut c = cluster();
        let mut p = DiskFullProtocol::new();
        let out = runner.run(&mut p, &mut c, &plan, &hub).unwrap();
        rows.push((
            "disk-full".into(),
            out.wall_time.as_secs(),
            out.failures,
            out.lost_work.as_secs(),
            out.overhead_total.as_secs(),
        ));
    }
    {
        let mut c = ClusterBuilder::new()
            .physical_nodes(5) // extra dedicated checkpoint node
            .spare_nodes(1)
            .vms_per_node(3)
            .vm_memory(2048, 4096)
            .writes_per_sec(2000.0)
            .build(99);
        // Fig. 3: the same protocol with every parity block on node 4,
        // taken synchronously.
        let mut p = DvdcProtocol::with_options(
            GroupPlacement::dedicated(&c, NodeId(4)).unwrap(),
            Mode::Incremental,
            false,
            Duration::from_millis(40.0),
        );
        let plan5 = FaultInjector::new(
            5,
            Exponential::from_mtbf(Duration::from_secs(480.0)),
            Duration::from_secs(5.0),
        )
        .plan(Duration::from_secs(3_600.0), &hub);
        let out = runner.run(&mut p, &mut c, &plan5, &hub).unwrap();
        rows.push((
            "first-shot".into(),
            out.wall_time.as_secs(),
            out.failures,
            out.lost_work.as_secs(),
            out.overhead_total.as_secs(),
        ));
    }
    {
        let mut c = cluster();
        let mut p = RemusLikeProtocol::new();
        let out = runner.run(&mut p, &mut c, &plan, &hub).unwrap();
        rows.push((
            "remus-like".into(),
            out.wall_time.as_secs(),
            out.failures,
            out.lost_work.as_secs(),
            out.overhead_total.as_secs(),
        ));
    }

    println!(
        "{:<12} {:>12} {:>9} {:>12} {:>14}",
        "protocol", "wall (s)", "failures", "lost work(s)", "ckpt overhead"
    );
    for (name, wall, failures, lost, ov) in &rows {
        println!("{name:<12} {wall:>12.1} {failures:>9} {lost:>12.1} {ov:>14.3}",);
    }

    let dvdc_wall = rows[0].1;
    let disk_wall = rows[1].1;
    println!(
        "\nunder identical failures, DVDC finished {:.1}% sooner than disk-full checkpointing",
        (disk_wall - dvdc_wall) / disk_wall * 100.0
    );
}
