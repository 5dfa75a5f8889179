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
use dvdc_faults::dist::Exponential;
use dvdc_faults::injector::FaultInjector;
use dvdc_model::analytic;
use dvdc_model::overhead::{cost, ProtocolKind};
use dvdc_model::Fig5Params;
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::stats::Welford;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::ClusterBuilder;
use dvdc_vcluster::fabric::base_overhead;

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
        drive_guests: false,
        sync_parity: false,
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
        let mut protocol = DvdcProtocol::new(placement);
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

#[test]
fn fig5_prices_the_round_fig4_runs() {
    // Fig. 5 models "the configuration seen in [Fig.] 4": its parameters
    // at fig4_dvdc's shape (4 nodes × 3 VMs of 1 MiB, groups of k = 3)
    // imply the load that fig4_dvdc's first rotated round reports, and
    // the model prices it as the protocol's readers do.
    let mut c = ClusterBuilder::new()
        .physical_nodes(4)
        .vms_per_node(3)
        .vm_memory(256, 4096)
        .build(4);
    let placement = GroupPlacement::orthogonal(&c, 3).unwrap();
    let round = DvdcProtocol::new(placement).run_round(&mut c).unwrap();
    let p = Fig5Params {
        vm_image_bytes: 256 * 4096,
        fabric: *c.fabric(),
        ..Fig5Params::default()
    };
    assert_eq!(p.round_load(), round.load);
    let (pause, latency) = round.load.price(c.fabric(), base_overhead());
    let background = cost(ProtocolKind::Diskless, &p);
    assert_eq!((background.overhead, background.latency), (pause, latency));
    assert_eq!(cost(ProtocolKind::DisklessSync, &p).overhead, latency);
}
