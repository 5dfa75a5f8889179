//! Trace determinism: the simulation is seeded and single-threaded, so
//! two runs from the same seed must emit the *same event stream* — and
//! therefore byte-identical Chrome trace and metrics exports. Any
//! divergence means nondeterminism crept into the protocol, the fault
//! plan, or the exporters (e.g. hash-map iteration order), which would
//! also break seed-repro debugging.

use std::rc::Rc;

use dvdc::placement::GroupPlacement;
use dvdc::protocol::DvdcProtocol;
use dvdc::sim::{JobOutcome, JobRunner};
use dvdc_faults::{DomainShape, FaultSchedule, NodeCrashes};
use dvdc_observe::chrome::chrome_trace;
use dvdc_observe::metrics::{fold_events, metrics_snapshot};
use dvdc_observe::{MetricsHub, RecorderHandle, TimedEvent, TraceRecorder};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::ClusterBuilder;

/// One fully traced job run — the same flow `dvdc-sim run --trace-out`
/// drives — returning the recorded timeline and the run's own tally.
fn traced_run(seed: u64) -> (Vec<TimedEvent>, JobOutcome) {
    let mut cluster = ClusterBuilder::new()
        .physical_nodes(4)
        .vms_per_node(3)
        .vm_memory(8, 32)
        .writes_per_sec(300.0)
        .build(seed);
    let placement = GroupPlacement::orthogonal(&cluster, 3, 1).unwrap();
    let hub = RngHub::new(seed);
    let plan = NodeCrashes::exponential(Duration::from_secs(400.0), Duration::from_secs(5.0)).plan(
        DomainShape::flat(4),
        Duration::from_secs(600.0 * 20.0),
        &hub,
    );
    let runner = JobRunner::new(Duration::from_secs(600.0), Duration::from_secs(30.0));

    let buf = Rc::new(TraceRecorder::unbounded());
    let recorder = RecorderHandle::new(buf.clone());
    let mut p = DvdcProtocol::new(placement).with_recorder(recorder.clone());
    let outcome = runner
        .run_with_recorder(&mut p, &mut cluster, &plan, &hub, &recorder)
        .unwrap();
    (buf.events(), outcome)
}

/// Both exports of one traced run, plus the raw event count.
fn traced_job(seed: u64) -> (String, String, usize) {
    let (events, _) = traced_run(seed);
    (
        chrome_trace(&events, &[]),
        metrics_snapshot(&events),
        events.len(),
    )
}

#[test]
fn same_seed_exports_are_byte_identical() {
    for seed in [42u64, 7, 1001] {
        let (chrome_a, metrics_a, n_a) = traced_job(seed);
        let (chrome_b, metrics_b, n_b) = traced_job(seed);
        assert!(n_a > 0, "seed={seed}: a traced run must emit events");
        assert_eq!(n_a, n_b, "seed={seed}: event counts diverged");
        assert_eq!(
            chrome_a, chrome_b,
            "seed={seed}: Chrome trace export is nondeterministic"
        );
        assert_eq!(
            metrics_a, metrics_b,
            "seed={seed}: metrics snapshot is nondeterministic"
        );
    }
}

#[test]
fn different_seeds_actually_diverge() {
    // Guards the identity test against vacuous passes (e.g. a recorder
    // that stopped recording would make every export trivially equal).
    let (chrome_a, _, _) = traced_job(42);
    let (chrome_b, _, _) = traced_job(43);
    assert_ne!(
        chrome_a, chrome_b,
        "different seeds should produce different traces"
    );
}

/// One metrics vocabulary: a traced simulation, folded, reports every
/// instrument a live `dvdc-node` registers, under the same name — bar
/// the three facts only a `Note` carries — and its span counts agree
/// with the run's own tally. (`tests/loopback_cluster.rs` holds the
/// mirror image: a live arc reporting what this fold registers.)
#[test]
fn a_traced_run_reports_the_instruments_a_live_node_registers() {
    const NOTE_ONLY: [&str; 3] = [
        "node.capture_window_ns",
        "faults.detector.confirmed_by_evidence",
        "faults.detector.confirmed_by_timeout",
    ];
    let live = MetricsHub::new();
    dvdc_node::NodeMetrics::new(&live);
    let live = live.snapshot();

    let (events, outcome) = traced_run(42);
    let sim = fold_events(&events);
    for (name, _) in &live.counters {
        assert!(
            sim.counter(name).is_some() || NOTE_ONLY.contains(&name.as_str()),
            "{name}"
        );
    }
    for (name, _) in &live.histograms {
        assert!(
            sim.histogram(name).is_some() || NOTE_ONLY.contains(&name.as_str()),
            "{name}"
        );
    }

    assert!(outcome.rounds > 0 && outcome.recoveries > 0);
    assert_eq!(sim.counter("node.rounds_committed"), Some(outcome.rounds));
    assert_eq!(sim.counter("node.rebuilds"), Some(outcome.recoveries));
    let count = |name: &str| sim.histogram(name).map(|h| h.count);
    assert_eq!(count("node.round_latency_ns"), Some(outcome.rounds));
    assert_eq!(count("node.rebuild_total_ns"), Some(outcome.recoveries));
    assert_eq!(count("node.rebuild_fetch_ns"), Some(outcome.recoveries));
    assert_eq!(count("node.round_phase_ns.Capture"), Some(outcome.rounds));
    assert!(count("node.transfer_latency_ns") > Some(0));
}

/// One audited harness run — the daemon's `NodeCore`s under a seeded plan
/// of crashes and seeded link delays — as what an operator would scrape:
/// the merged per-node trace and every node's metrics registry.
fn harness_exports(seed: u64) -> (String, String) {
    use dvdc::protocol::harness::Harness;
    use dvdc::protocol::ClusterSpec;
    use dvdc_faults::buggify::{FaultRegistry, Intensity};
    use dvdc_observe::chrome::merge_node_traces;

    let mut h = Harness::new(ClusterSpec::drill(3, 2));
    h.run_until(500.0, "full mesh", |h| h.fully_meshed());
    assert_eq!(h.checkpoint(0, 1000.0), Ok(1));
    let horizon = Duration::from_millis(400.0);
    let crashes = NodeCrashes::exponential(horizon * 0.5, Duration::from_millis(30.0));
    let plan = crashes.plan(DomainShape::flat(5), horizon, &RngHub::new(seed));
    assert!(!plan.is_empty(), "seed={seed}: nothing would strike");
    h.attach_plan(&plan)
        .expect("crashes are the harness's to apply");
    h.attach_registry(Rc::new(FaultRegistry::new(seed, Intensity::Aggressive)));
    h.run_for(horizon * 2.0);
    let metrics: Vec<String> = (0..5).map(|i| h.metrics(i).to_json()).collect();
    (merge_node_traces(&h.tails(), &[]), metrics.join("\n"))
}

/// No `HashMap` order, no wall clock and no thread reaches a harness run:
/// the same seed is the same bytes, and another seed is not.
#[test]
fn same_seed_harness_exports_are_byte_identical() {
    for seed in [42u64, 7] {
        let (trace, metrics) = harness_exports(seed);
        assert!(trace.contains("\"ph\": \"B\"") && metrics.contains("node.rebuilds"));
        assert_eq!((trace, metrics), harness_exports(seed), "seed={seed}");
    }
    assert_ne!(harness_exports(42).0, harness_exports(43).0);
}
