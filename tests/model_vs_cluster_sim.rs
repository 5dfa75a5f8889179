//! Cross-validation between the Section V closed forms (`dvdc-model`) and
//! the byte-level cluster simulator (`dvdc::sim`): when the cluster
//! runner is driven by the same (λ, T, N, T_ov, T_r) parameters, its
//! mean completion time over many seeds must track the analytic
//! expectation.
//!
//! This closes the loop the paper leaves open (its evaluation is
//! analytic-only): the protocol implementation, with real byte movement
//! and parity math, realises the modelled behaviour.

use dvdc::placement::GroupPlacement;
use dvdc::protocol::DvdcProtocol;
use dvdc::sim::JobRunner;
use dvdc_checkpoint::strategy::Mode;
use dvdc_faults::dist::Exponential;
use dvdc_faults::injector::FaultInjector;
use dvdc_model::analytic;
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::stats::Welford;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::ClusterBuilder;

#[test]
fn cluster_sim_tracks_analytic_expectation() {
    // Cluster-wide failure process: 4 nodes, per-node MTBF 4·m so the
    // aggregate rate is λ = 1/m.
    let cluster_mtbf = 300.0;
    let job = 1_200.0;
    let interval = 60.0;
    let trials = 60u64;

    let runner = JobRunner {
        job_length: Duration::from_secs(job),
        interval: Duration::from_secs(interval),
        recovery: dvdc::sim::RecoveryPolicy::RepairInPlace,
        drive_guests: false,
    };

    let mut walls = Welford::new();
    let mut round_overhead = 0.0f64;
    let mut repair_mean = Welford::new();
    for seed in 0..trials {
        let hub = RngHub::new(seed);
        let mut cluster = ClusterBuilder::new()
            .physical_nodes(4)
            .vms_per_node(3)
            .vm_memory(16, 64)
            .build(seed);
        let placement = GroupPlacement::orthogonal(&cluster, 3).unwrap();
        let mut protocol = DvdcProtocol::with_options(
            placement,
            Mode::Incremental,
            true,
            Duration::from_millis(40.0),
        );
        let injector = FaultInjector::new(
            4,
            Exponential::from_mtbf(Duration::from_secs(4.0 * cluster_mtbf)),
            Duration::ZERO,
        );
        let plan = injector.plan(Duration::from_secs(20.0 * job), &hub);
        let out = runner
            .run(&mut protocol, &mut cluster, &plan, &hub)
            .unwrap();
        // Restart-from-scratch (failure before the first commit) is a
        // modelling mismatch the closed form excludes; skip those runs.
        if out.restarted_from_scratch {
            continue;
        }
        walls.push(out.wall_time.as_secs());
        if out.rounds > 0 {
            round_overhead = out.overhead_total.as_secs() / out.rounds as f64;
        }
        if out.recoveries > 0 {
            repair_mean.push(out.repair_total.as_secs() / out.recoveries as f64);
        }
    }

    assert!(walls.count() > trials / 2, "too many scratch restarts");
    let lambda = 1.0 / cluster_mtbf;
    let analytic = analytic::expected_time_checkpoint_overhead(
        lambda,
        job,
        interval,
        round_overhead,
        repair_mean.mean(),
    );
    let rel = (walls.mean() - analytic).abs() / analytic;
    assert!(
        rel < 0.12,
        "cluster sim mean {} vs analytic {} (rel {:.3}, ci95 ±{:.1})",
        walls.mean(),
        analytic,
        rel,
        walls.ci95_half_width()
    );
}
