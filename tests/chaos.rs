//! Chaos testing: long random sequences of guest activity, checkpoint
//! rounds, node failures, recoveries (repair-in-place *and* failover),
//! migrations — and, since the rounds became phase-interruptible,
//! mid-round node kills at random microstates of the protocol — with
//! byte-exact state verification after every recovery. Since recovery
//! itself became a phased rebuild pipeline, the chaos also kills nodes
//! *mid-rebuild* (cancel, restart against the remaining redundancy,
//! honest data loss when the double failure exceeds tolerance) and rots
//! committed blocks at random to drive the checksum scrub. The goal is
//! to shake out interactions no scripted scenario covers.
//!
//! Reproducibility: every test honours `DVDC_CHAOS_SEED` (a single u64
//! seed replacing the default seed sweep), and every panic message
//! carries the exact command line to replay the failing run.

use std::fmt;
use std::rc::Rc;

use dvdc::placement::GroupPlacement;
use dvdc::protocol::{
    run_round_with_faults, DvdcProtocol, PhasedOutcome, ProtocolError, RebuildMode, RebuildPhase,
    RebuildStep, RecoverError, RoundStep,
};
use dvdc::scenario::{apply_op, ScenarioReport};
use dvdc_faults::{ClusterFaultPlan, NodeFault, PeerSet, PlanCursor};
use dvdc_observe::audit::InvariantAuditor;
use dvdc_observe::{Fanout, Recorder, RecorderHandle, TraceDumpGuard, TraceRecorder};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::cluster::{Cluster, ClusterBuilder, TopologySpec};
use dvdc_vcluster::ids::NodeId;
use dvdc_vcluster::workload::{
    BurstyDirtyStorm, ClusterWorkload, MigrationChurn, RollingRestarts, ScrubStorm,
    SteadyCheckpoint, WorkloadOp,
};
use rand::Rng;

/// Counters one chaos run accumulates; the soak test prints the totals.
#[derive(Debug, Default, Clone, Copy)]
struct ChaosStats {
    steps: usize,
    rounds_committed: usize,
    degraded_commits: usize,
    mid_round_kills: usize,
    rollbacks: usize,
    recoveries: usize,
    migrations: usize,
    restarts: usize,
    storms: usize,
    rack_kills: usize,
    dc_kills: usize,
    hangs: usize,
    partitions: usize,
    false_suspicions: usize,
    false_failovers: usize,
    resyncs: usize,
    rebuilds_interrupted: usize,
    corrupt_blocks: usize,
    scrub_repaired: usize,
    transfer_retries: usize,
    data_loss: usize,
}

impl ChaosStats {
    fn merge(&mut self, other: ChaosStats) {
        self.steps += other.steps;
        self.rounds_committed += other.rounds_committed;
        self.degraded_commits += other.degraded_commits;
        self.mid_round_kills += other.mid_round_kills;
        self.rollbacks += other.rollbacks;
        self.recoveries += other.recoveries;
        self.migrations += other.migrations;
        self.restarts += other.restarts;
        self.storms += other.storms;
        self.rack_kills += other.rack_kills;
        self.dc_kills += other.dc_kills;
        self.hangs += other.hangs;
        self.partitions += other.partitions;
        self.false_suspicions += other.false_suspicions;
        self.false_failovers += other.false_failovers;
        self.resyncs += other.resyncs;
        self.rebuilds_interrupted += other.rebuilds_interrupted;
        self.corrupt_blocks += other.corrupt_blocks;
        self.scrub_repaired += other.scrub_repaired;
        self.transfer_retries += other.transfer_retries;
        self.data_loss += other.data_loss;
    }
}

impl fmt::Display for ChaosStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "steps={} rounds_committed={} degraded_commits={} mid_round_kills={} \
             rollbacks={} recoveries={} migrations={} restarts={} storms={} \
             rack_kills={} dc_kills={} hangs={} partitions={} \
             false_suspicions={} false_failovers={} resyncs={} \
             rebuilds_interrupted={} corrupt_blocks={} scrub_repaired={} \
             transfer_retries={} data_loss={}",
            self.steps,
            self.rounds_committed,
            self.degraded_commits,
            self.mid_round_kills,
            self.rollbacks,
            self.recoveries,
            self.migrations,
            self.restarts,
            self.storms,
            self.rack_kills,
            self.dc_kills,
            self.hangs,
            self.partitions,
            self.false_suspicions,
            self.false_failovers,
            self.resyncs,
            self.rebuilds_interrupted,
            self.corrupt_blocks,
            self.scrub_repaired,
            self.transfer_retries,
            self.data_loss,
        )
    }
}

/// The exact command line that replays one failing chaos run.
fn repro(seed: u64, test: &str) -> String {
    format!(
        "reproduce with: DVDC_CHAOS_SEED={seed} cargo test --release --test chaos \
         {test} -- --exact --nocapture --include-ignored"
    )
}

/// The seeds a test sweeps: `DVDC_CHAOS_SEED` (one seed) if set, the
/// test's default range otherwise.
fn seeds(default: std::ops::Range<u64>) -> Vec<u64> {
    match std::env::var("DVDC_CHAOS_SEED") {
        Ok(raw) => vec![raw
            .parse()
            .unwrap_or_else(|_| panic!("DVDC_CHAOS_SEED must be a u64, got {raw:?}"))],
        Err(_) => default.collect(),
    }
}

fn snapshots(c: &Cluster) -> Vec<Vec<u8>> {
    c.vm_ids()
        .iter()
        .map(|&v| c.vm(v).memory().snapshot())
        .collect()
}

fn assert_rolled_back(cluster: &Cluster, committed: &[Vec<u8>], ctx: &str) {
    for (i, vm) in cluster.vm_ids().into_iter().enumerate() {
        if cluster.is_up(cluster.node_of(vm)) {
            assert_eq!(
                cluster.vm(vm).memory().snapshot(),
                committed[i],
                "{ctx} vm={vm} host={}: live VM deviates from committed epoch",
                cluster.node_of(vm)
            );
        }
    }
}

/// Resolves one declarative [`WorkloadOp`] through the scenario driver's
/// resolver, checks the whole placement is still orthogonal, and folds
/// what the resolver reports into the chaos counters. Returns
/// `true` when the op exceeded the parity tolerance — honest loss the
/// caller records by ending the run.
fn workload_op(
    protocol: &mut DvdcProtocol,
    cluster: &mut Cluster,
    op: WorkloadOp,
    stats: &mut ChaosStats,
    ctx: &str,
) -> bool {
    let mut did = ScenarioReport::default();
    apply_op(protocol, cluster, op, &mut did)
        .unwrap_or_else(|e| panic!("{ctx}: workload op {op:?} failed: {e}"));
    protocol
        .placement()
        .validate(cluster)
        .unwrap_or_else(|e| panic!("{ctx}: {op:?} left the placement non-orthogonal: {e}"));
    stats.migrations += did.migrations as usize;
    stats.restarts += did.restarts as usize;
    stats.recoveries += did.recoveries as usize;
    stats.scrub_repaired += did.scrub_repaired as usize;
    stats.data_loss += did.data_loss as usize;
    !did.lossless()
}

/// Drives one detector-supervised round with `fault` injected mid-flight
/// and folds the outcome into `stats`: the shared path for transient
/// hangs, partitions, and correlated rack/DC kills. Returns `true` when
/// the fault pattern exceeded the parity tolerance — honest loss the
/// caller records by ending the run.
fn detector_round(
    protocol: &mut DvdcProtocol,
    cluster: &mut Cluster,
    fault: NodeFault,
    stats: &mut ChaosStats,
    committed: &mut Vec<Vec<u8>>,
    ctx: &str,
) -> bool {
    let plan = ClusterFaultPlan::new(vec![fault]);
    let mut cursor = PlanCursor::new(&plan);
    let (outcome, _end) = run_round_with_faults(protocol, cluster, &mut cursor, SimTime::ZERO)
        .unwrap_or_else(|e| panic!("{ctx}: detector round failed: {e}"));
    let det = *outcome.detection();
    stats.false_suspicions += det.false_suspicions as usize;
    stats.false_failovers += det.false_failovers as usize;
    stats.resyncs += det.resyncs as usize;
    stats.transfer_retries += det.transfer_retries as usize;
    stats.rebuilds_interrupted += det.rebuilds_interrupted as usize;
    stats.corrupt_blocks += det.corrupt_blocks as usize;
    stats.scrub_repaired += det.scrub_repaired as usize;
    if !outcome.data_loss().is_empty() {
        stats.data_loss += outcome.data_loss().len();
        return true;
    }
    assert!(
        cluster.node_ids().iter().all(|&n| cluster.is_up(n)),
        "{ctx}: detector round left a node down"
    );
    assert!(
        cluster
            .node_ids()
            .iter()
            .all(|&n| !protocol.fences().is_fenced(n)),
        "{ctx}: a node is still fenced after the round settled"
    );
    match outcome {
        PhasedOutcome::Committed { .. } => {
            stats.rounds_committed += 1;
            *committed = snapshots(cluster);
        }
        PhasedOutcome::RolledBack { recoveries, .. } => {
            stats.rollbacks += 1;
            stats.recoveries += recoveries.len();
            assert_rolled_back(cluster, committed, ctx);
        }
    }
    false
}

/// One chaos run on the rotated-parity layout
/// (`orthogonal(k, m)`); see [`chaos_run_on`].
#[allow(clippy::too_many_arguments)]
fn chaos_run(
    seed: u64,
    test: &'static str,
    topo: TopologySpec,
    nodes: usize,
    vms: usize,
    k: usize,
    m: usize,
    steps: usize,
) -> ChaosStats {
    let cluster = ClusterBuilder::new()
        .physical_nodes(nodes)
        .vms_per_node(vms)
        .vm_memory(8, 32)
        .writes_per_sec(300.0)
        .topology(topo)
        .build(seed);
    let placement = GroupPlacement::orthogonal(&cluster, k, m).unwrap();
    chaos_run_on(seed, test, cluster, placement, steps)
}

/// One chaos run: random interleavings of workload ticks, rounds,
/// failures — and mid-round kills striking the protocol between its
/// discrete steps. On racked topologies the action space grows two
/// correlated arms: whole-rack and whole-DC kills through the detector.
fn chaos_run_on(
    seed: u64,
    test: &'static str,
    mut cluster: Cluster,
    placement: GroupPlacement,
    steps: usize,
) -> ChaosStats {
    let k = placement.groups()[0].width();
    // A node that hosts no VMs from the start yet holds parity (Fig. 3's
    // checkpoint node) is as much a kill target as any VM host.
    let checkpoint_nodes: Vec<NodeId> = cluster
        .node_ids()
        .into_iter()
        .filter(|&n| cluster.vms_on(n).is_empty() && placement.parity_slots_on(n).next().is_some())
        .collect();
    let mut protocol = DvdcProtocol::new(placement);
    let hub = RngHub::new(seed);
    let mut rng = hub.stream("chaos");
    let mut stats = ChaosStats::default();

    // Every chaos run streams its events through the invariant auditor
    // (the causal-ordering checks run online, against the live stream)
    // and a 64-event trace ring whose tail the panic guard dumps next
    // to the seed-repro command.
    let trace = Rc::new(TraceRecorder::ring(64));
    let audit = Rc::new(InvariantAuditor::new());
    protocol.set_recorder(RecorderHandle::new(Rc::new(Fanout::new(vec![
        RecorderHandle::new(trace.clone()),
        RecorderHandle::new(audit.clone()),
    ]))));
    let _guard = TraceDumpGuard::new(trace, repro(seed, test));

    // Committed reference state (what a rollback must restore).
    protocol.run_round(&mut cluster).unwrap();
    stats.rounds_committed += 1;
    let mut committed = snapshots(&cluster);

    // The workload axis: the same composable cluster workloads the
    // scenario driver crosses with fault schedules, here interleaved
    // with the chaos actions. Index 1 is the bursty storm (for the
    // storm counter).
    let mut workloads: Vec<Box<dyn ClusterWorkload>> = vec![
        Box::new(SteadyCheckpoint),
        Box::new(BurstyDirtyStorm::default()),
        Box::new(MigrationChurn::default()),
        Box::new(RollingRestarts::default()),
        Box::new(ScrubStorm),
    ];
    let storm_meter = BurstyDirtyStorm::default();
    let mut wl_round: u64 = 0;
    // Correlated rack/DC kill arms only make sense when nodes actually
    // share racks.
    let racked = cluster.topology().rack_count() < cluster.node_count();

    for step in 0..steps {
        stats.steps += 1;
        let ctx = format!("seed={seed} step={step}; {}", repro(seed, test));
        // Whatever ran before — failover, false failover, resync,
        // migration — no group may have two members on one node.
        protocol
            .placement()
            .validate(&cluster)
            .unwrap_or_else(|e| panic!("{ctx}: the previous step broke orthogonality: {e}"));
        let action = rng.random_range(0..if racked { 26u8 } else { 22u8 });
        if std::env::var("DVDC_CHAOS_TRACE").is_ok() {
            eprintln!("step={step} action={action}");
        }
        match action {
            // Workload ticks (~27 % flat, ~23 % racked): one of the five
            // composable workloads dirties guest memory and declares ops
            // (migrations, rolling restarts, scrubs) resolved exactly as
            // the scenario driver would resolve them.
            0..=5 => {
                let span = Duration::from_secs(rng.random_range(0.1..2.0));
                let wi = rng.random_range(0..workloads.len());
                if wi == 1 && storm_meter.is_storm(wl_round) {
                    stats.storms += 1;
                }
                let tick = workloads[wi].tick(&mut cluster, span, &hub, wl_round);
                wl_round += 1;
                for op in tick.ops {
                    if workload_op(&mut protocol, &mut cluster, op, &mut stats, &ctx) {
                        audit.assert_clean();
                        return stats;
                    }
                }
            }
            // Checkpoint round (~11 %) — no all-nodes-up precondition:
            // a node evacuated by failover may stay down and the round
            // completes degraded around it.
            6..=7 => {
                let degraded = cluster.node_ids().iter().any(|&n| !cluster.is_up(n));
                protocol
                    .run_round(&mut cluster)
                    .unwrap_or_else(|e| panic!("{ctx}: round failed: {e}"));
                stats.rounds_committed += 1;
                if degraded {
                    stats.degraded_commits += 1;
                }
                committed = snapshots(&cluster);
            }
            // Targeted migration (~9 %): a churn op for one random VM,
            // resolved through the shared rack-aware destination picker.
            8..=9 => {
                let vm = {
                    let ids = cluster.vm_ids();
                    ids[rng.random_range(0..ids.len())]
                };
                if std::env::var("DVDC_CHAOS_TRACE").is_ok() {
                    eprintln!("  migrate: vm={vm}");
                }
                let op = WorkloadOp::Migrate { vm };
                if workload_op(&mut protocol, &mut cluster, op, &mut stats, &ctx) {
                    audit.assert_clean();
                    return stats;
                }
            }
            // Mid-round kill (~11 %): start a phased round, advance it a
            // random number of discrete steps, then fail a node at that
            // exact microstate. An involved victim forces abort + byte-
            // exact rollback; an uninvolved one lets the round finish
            // degraded.
            10..=11 => {
                let mut round = match protocol.begin_round(&cluster) {
                    Ok(r) => r,
                    Err(ProtocolError::NodeDown { .. }) => continue,
                    Err(e) => panic!("{ctx}: begin_round failed: {e}"),
                };
                // Aim inside the round: draw the cut from its estimated
                // step count so kills land mid-flight, not post-commit.
                // The hint undercounts transfers (they enqueue during
                // capture), so stretch it to reach the later phases too.
                let cut = rng.random_range(0..2 * round.steps_remaining_hint());
                let mut committed_early = false;
                for _ in 0..cut {
                    match protocol
                        .step_round(&mut cluster, &mut round)
                        .unwrap_or_else(|e| panic!("{ctx}: step_round failed: {e}"))
                    {
                        RoundStep::Progress { .. } => {}
                        RoundStep::Committed(_) => {
                            committed_early = true;
                            break;
                        }
                    }
                }
                if committed_early {
                    if std::env::var("DVDC_CHAOS_TRACE").is_ok() {
                        eprintln!("  midround: committed early (cut={cut})");
                    }
                    stats.rounds_committed += 1;
                    committed = snapshots(&cluster);
                    continue;
                }
                let up: Vec<NodeId> = cluster
                    .node_ids()
                    .into_iter()
                    .filter(|&n| cluster.is_up(n))
                    .collect();
                if up.len() <= k {
                    // Not enough survivors for a safe decode: abandon
                    // the round voluntarily instead of killing.
                    protocol.abort_round(round);
                    continue;
                }
                let victim = up[rng.random_range(0..up.len())];
                let phase = round.phase();
                cluster.fail_node(victim);
                stats.mid_round_kills += 1;
                if std::env::var("DVDC_CHAOS_TRACE").is_ok() {
                    eprintln!(
                        "  midround: cut={cut} victim={victim} phase={phase:?} involved={}",
                        protocol.round_involves(&cluster, &round, victim)
                    );
                }
                if protocol.round_involves(&cluster, &round, victim) {
                    protocol.abort_round(round);
                    stats.rollbacks += 1;
                    protocol.recover(&mut cluster, victim).unwrap_or_else(|e| {
                        panic!("{ctx} victim={victim} phase={phase:?}: recovery failed: {e}")
                    });
                    stats.recoveries += 1;
                    assert_rolled_back(
                        &cluster,
                        &committed,
                        &format!("{ctx} victim={victim} phase={phase:?}"),
                    );
                } else {
                    while let RoundStep::Progress { .. } = protocol
                        .step_round(&mut cluster, &mut round)
                        .unwrap_or_else(|e| {
                            panic!("{ctx} victim={victim}: degraded round failed: {e}")
                        })
                    {}
                    stats.rounds_committed += 1;
                    stats.degraded_commits += 1;
                    committed = snapshots(&cluster);
                    protocol.recover(&mut cluster, victim).unwrap_or_else(|e| {
                        panic!("{ctx} victim={victim}: post-degraded repair failed: {e}")
                    });
                    stats.recoveries += 1;
                    assert_rolled_back(&cluster, &committed, &format!("{ctx} victim={victim}"));
                }
            }
            // Impairment under the in-band detector (~22 % combined,
            // split between transient hangs and partitions): a phased
            // round runs with a non-crash fault injected mid-flight. A
            // short impairment stalls the round and heals invisibly (at
            // worst a refuted suspicion); one outliving the confirmation
            // window draws a *false failover* — the live node is fenced,
            // its state evacuated, and on waking it is rejected and must
            // resync — and committed state stays byte-exact throughout.
            14..=17 => {
                if cluster.node_ids().iter().any(|&n| !cluster.is_up(n)) {
                    continue; // the detector monitors a full house
                }
                let up = cluster.node_ids();
                let victim = up[rng.random_range(0..up.len())];
                let at = SimTime::from_secs(rng.random_range(0.0..0.02));
                let span = Duration::from_millis(rng.random_range(5.0..200.0));
                let fault = if action <= 15 {
                    stats.hangs += 1;
                    NodeFault::hang(victim.index(), at, span)
                } else {
                    stats.partitions += 1;
                    let peers = PeerSet::from_nodes(
                        cluster
                            .node_ids()
                            .iter()
                            .map(|n| n.index())
                            .filter(|&n| n != victim.index()),
                    );
                    NodeFault::partition(victim.index(), at, peers, span)
                };
                if std::env::var("DVDC_CHAOS_TRACE").is_ok() {
                    eprintln!("  detector: victim={victim} at={at} span={span}");
                }
                if detector_round(
                    &mut protocol,
                    &mut cluster,
                    fault,
                    &mut stats,
                    &mut committed,
                    &format!("{ctx} victim={victim} span={span}"),
                ) {
                    // Honest loss: the state can no longer be rebuilt
                    // byte-exactly, so the run ends here — recorded,
                    // never a panic.
                    audit.assert_clean();
                    return stats;
                }
            }
            // Correlated whole-rack kill (~8 %, racked topologies only):
            // every node in one rack dies mid-round through the same
            // detector path. Rack-aware placement keeps each group within
            // its parity tolerance; a layout eroded past that (or m
            // exceeded by simultaneous damage) pays with honest loss.
            22..=23 => {
                if cluster.node_ids().iter().any(|&n| !cluster.is_up(n)) {
                    continue; // the detector monitors a full house
                }
                let rack = rng.random_range(0..cluster.topology().rack_count());
                let at = SimTime::from_secs(rng.random_range(0.0..0.02));
                stats.rack_kills += 1;
                if std::env::var("DVDC_CHAOS_TRACE").is_ok() {
                    eprintln!("  rackkill: rack={rack} at={at}");
                }
                if detector_round(
                    &mut protocol,
                    &mut cluster,
                    NodeFault::rack_failure(rack, at, Duration::ZERO),
                    &mut stats,
                    &mut committed,
                    &format!("{ctx} rack={rack}"),
                ) {
                    audit.assert_clean();
                    return stats;
                }
            }
            // Correlated whole-DC kill (~8 %, multi-DC topologies only):
            // half the cluster dies at once — almost always an honest,
            // recorded tolerance-exceeding loss that ends the run, the
            // catastrophic end of the fault-domain hierarchy.
            24..=25 => {
                if cluster.topology().dc_count() < 2
                    || cluster.node_ids().iter().any(|&n| !cluster.is_up(n))
                {
                    continue;
                }
                let dc = rng.random_range(0..cluster.topology().dc_count());
                let at = SimTime::from_secs(rng.random_range(0.0..0.02));
                stats.dc_kills += 1;
                if std::env::var("DVDC_CHAOS_TRACE").is_ok() {
                    eprintln!("  dckill: dc={dc} at={at}");
                }
                if detector_round(
                    &mut protocol,
                    &mut cluster,
                    NodeFault::dc_failure(dc, at, Duration::ZERO),
                    &mut stats,
                    &mut committed,
                    &format!("{ctx} dc={dc}"),
                ) {
                    audit.assert_clean();
                    return stats;
                }
            }
            // Failure between rounds + recovery (~9 %).
            12..=13 => {
                let up: Vec<NodeId> = cluster
                    .node_ids()
                    .into_iter()
                    .filter(|&n| cluster.is_up(n))
                    .filter(|n| !cluster.vms_on(*n).is_empty() || checkpoint_nodes.contains(n))
                    .collect();
                if up.len() <= k {
                    continue; // not enough survivors for a decode
                }
                let victim = up[rng.random_range(0..up.len())];
                cluster.fail_node(victim);
                let use_failover = rng.random_bool(0.4);
                let result = if use_failover {
                    match protocol.recover_failover(&mut cluster, victim) {
                        Err(ProtocolError::Unrecoverable { .. }) => {
                            protocol.recover(&mut cluster, victim)
                        }
                        other => other,
                    }
                } else {
                    protocol.recover(&mut cluster, victim)
                };
                result.unwrap_or_else(|e| panic!("{ctx} victim={victim}: {e}"));
                stats.recoveries += 1;
                assert_rolled_back(&cluster, &committed, &format!("{ctx} victim={victim}"));
            }
            // Kill during rebuild (~9 %): fail a node, drive its phased
            // rebuild to a random resting phase, then confirm a *second*
            // failure at that exact microstate. The in-flight rebuild is
            // cancelled (mutation-free before Readmit, so cancel is a
            // pure drop) and restarted against the remaining redundancy:
            // m >= 2 decodes byte-exactly around both victims; a double
            // failure that exceeds the code's tolerance is honest data
            // loss — recorded, never a panic — and ends the run, since
            // the lost bytes cannot be rebuilt.
            18..=19 => {
                let all = cluster.node_ids();
                let up: Vec<NodeId> = all
                    .iter()
                    .copied()
                    .filter(|&n| cluster.is_up(n))
                    .filter(|n| !cluster.vms_on(*n).is_empty() || checkpoint_nodes.contains(n))
                    .collect();
                if up.len() < all.len() || up.len() <= 2 {
                    continue; // want a full house before a double failure
                }
                let first = up[rng.random_range(0..up.len())];
                cluster.fail_node(first);
                let mut rebuild = protocol
                    .begin_rebuild(&cluster, first, RebuildMode::InPlace)
                    .unwrap_or_else(|e| panic!("{ctx} first={first}: begin_rebuild failed: {e}"));
                let phases = [
                    RebuildPhase::FetchSurvivors,
                    RebuildPhase::Decode,
                    RebuildPhase::Place,
                    RebuildPhase::Readmit,
                ];
                let target = phases[rng.random_range(0..phases.len())];
                let mut first_done = false;
                while rebuild.phase() < target {
                    match protocol.step_rebuild(&mut cluster, &mut rebuild) {
                        Ok(RebuildStep::Progress { .. }) => {}
                        Ok(RebuildStep::Completed(_)) => {
                            first_done = true;
                            stats.recoveries += 1;
                            break;
                        }
                        Err(e) => panic!("{ctx} first={first}: step_rebuild failed: {e}"),
                    }
                }
                let survivors: Vec<NodeId> =
                    all.iter().copied().filter(|&n| cluster.is_up(n)).collect();
                let second = survivors[rng.random_range(0..survivors.len())];
                cluster.fail_node(second);
                if !first_done {
                    protocol.abort_rebuild(rebuild);
                    stats.rebuilds_interrupted += 1;
                }
                if std::env::var("DVDC_CHAOS_TRACE").is_ok() {
                    eprintln!("  rebuildkill: first={first} second={second} phase={target:?}");
                }
                let rctx = format!("{ctx} first={first} second={second} phase={target:?}");
                let mut lost = false;
                for victim in [first, second] {
                    if !cluster.is_up(victim) {
                        match protocol.recover_typed(&mut cluster, victim) {
                            Ok(_) => stats.recoveries += 1,
                            Err(RecoverError::DataLoss { .. }) => {
                                stats.data_loss += 1;
                                lost = true;
                                break;
                            }
                            Err(e) => panic!("{rctx}: restarted rebuild failed: {e}"),
                        }
                    }
                }
                if lost {
                    audit.assert_clean();
                    return stats;
                }
                assert_rolled_back(&cluster, &committed, &rctx);
            }
            // Silent corruption + scrub (~9 %): rot one committed block
            // on a random node, then run a full integrity scrub — the
            // checksum walk must find every injected rotten block and
            // repair it in place from the group's surviving redundancy.
            20..=21 => {
                let all = cluster.node_ids();
                if all.iter().any(|&n| !cluster.is_up(n)) {
                    continue; // repair needs the group's redundancy intact
                }
                let target = all[rng.random_range(0..all.len())];
                let hit = protocol.apply_corruption(
                    &cluster,
                    target,
                    1,
                    seed ^ ((step as u64) << 8 | u64::from(action)),
                );
                stats.corrupt_blocks += hit;
                let report = protocol
                    .scrub(&mut cluster)
                    .unwrap_or_else(|e| panic!("{ctx} target={target}: scrub failed: {e}"));
                assert!(
                    report.corrupt_found >= hit,
                    "{ctx} target={target}: scrub missed injected rot \
                     (found {}, injected {hit})",
                    report.corrupt_found
                );
                assert_eq!(
                    report.corrupt_found, report.repaired,
                    "{ctx} target={target}: scrub left rot unrepaired"
                );
                stats.scrub_repaired += report.repaired;
                let clean = protocol
                    .scrub(&mut cluster)
                    .unwrap_or_else(|e| panic!("{ctx} target={target}: verify scrub failed: {e}"));
                assert_eq!(
                    clean.corrupt_found, 0,
                    "{ctx} target={target}: rot survived a repair scrub"
                );
            }
            _ => unreachable!("action {action} outside the dispatch range"),
        }
    }

    audit.assert_clean();
    assert!(
        audit.events_seen() > 0,
        "seed={seed}: the auditor saw no events — recorder wiring is broken; {}",
        repro(seed, test)
    );
    assert!(
        stats.mid_round_kills >= 1,
        "seed={seed}: chaos run never exercised a mid-round kill; {}",
        repro(seed, test)
    );
    stats
}

/// Negative control for the auditor: record a genuine crash round, then
/// replay the stream with one `Suspected`/`Confirmed` pair swapped. The
/// original stream must be clean; the reordered one must not be — proof
/// the auditor actually checks causal order rather than event presence.
#[test]
fn auditor_flags_injected_ordering_violation() {
    let mut cluster = ClusterBuilder::new()
        .physical_nodes(4)
        .vms_per_node(3)
        .vm_memory(8, 32)
        .writes_per_sec(300.0)
        .build(7);
    let placement = GroupPlacement::orthogonal(&cluster, 3, 1).unwrap();
    let mut protocol = DvdcProtocol::new(placement);
    let trace = Rc::new(TraceRecorder::unbounded());
    protocol.set_recorder(RecorderHandle::new(trace.clone()));
    protocol.run_round(&mut cluster).unwrap();

    // A crash mid-round draws Suspected -> Confirmed -> fence -> rebuild.
    let plan = ClusterFaultPlan::new(vec![NodeFault::crash(
        1,
        SimTime::from_secs(1e-7),
        Duration::ZERO,
    )]);
    let mut cursor = PlanCursor::new(&plan);
    run_round_with_faults(&mut protocol, &mut cluster, &mut cursor, SimTime::ZERO).unwrap();

    let events = trace.events();
    let suspected = events
        .iter()
        .position(|e| matches!(e.event, dvdc_observe::Event::Suspected { .. }))
        .expect("crash round must raise a suspicion");
    let confirmed = events
        .iter()
        .position(|e| matches!(e.event, dvdc_observe::Event::Confirmed { .. }))
        .expect("crash round must confirm the failure");
    assert!(
        suspected < confirmed,
        "stream must suspect before confirming"
    );

    // The faithful replay is clean...
    let replay = InvariantAuditor::new();
    for e in &events {
        replay.record(e.at, &e.event);
    }
    replay.assert_clean();

    // ...and the same stream with the pair swapped is not.
    let mut tampered = events;
    tampered.swap(suspected, confirmed);
    let tampered_audit = InvariantAuditor::new();
    for e in &tampered {
        tampered_audit.record(e.at, &e.event);
    }
    assert!(
        !tampered_audit.is_clean(),
        "auditor missed a Confirmed that precedes its Suspected"
    );
    assert!(
        tampered_audit
            .violations()
            .iter()
            .any(|v| v.contains("confirmed") || v.contains("Confirmed")),
        "violation should name the unsuspected confirmation, got: {:?}",
        tampered_audit.violations()
    );
}

#[test]
fn chaos_xor_parity_fig4_shape() {
    for seed in seeds(0..4) {
        chaos_run(
            seed,
            "chaos_xor_parity_fig4_shape",
            TopologySpec::Flat,
            4,
            3,
            3,
            1,
            80,
        );
    }
}

/// The Fig. 4 shape's sibling: same four nodes, but the fourth hosts no
/// VMs and holds all three slot parities (Fig. 3). Mid-round and
/// mid-rebuild kills, hangs, corruption and scrub reach the checkpoint
/// node like any other, with the auditor attached.
#[test]
fn chaos_xor_parity_fig3_shape() {
    for seed in seeds(60..64) {
        let cluster = ClusterBuilder::new()
            .physical_nodes(4)
            .spare_nodes(1)
            .vms_per_node(3)
            .vm_memory(8, 32)
            .writes_per_sec(300.0)
            .build(seed);
        let placement = GroupPlacement::dedicated(&cluster, NodeId(3)).unwrap();
        chaos_run_on(seed, "chaos_xor_parity_fig3_shape", cluster, placement, 80);
    }
}

#[test]
fn chaos_xor_parity_roomy_cluster() {
    for seed in seeds(10..14) {
        chaos_run(
            seed,
            "chaos_xor_parity_roomy_cluster",
            TopologySpec::Flat,
            6,
            2,
            3,
            1,
            80,
        );
    }
}

#[test]
fn chaos_double_parity() {
    for seed in seeds(20..23) {
        chaos_run(
            seed,
            "chaos_double_parity",
            TopologySpec::Flat,
            6,
            2,
            3,
            2,
            60,
        );
    }
}

#[test]
fn chaos_wide_groups() {
    for seed in seeds(30..32) {
        chaos_run(
            seed,
            "chaos_wide_groups",
            TopologySpec::Flat,
            8,
            2,
            4,
            1,
            60,
        );
    }
}

/// Racked topology (4 racks of 2, one DC): the correlated rack-kill arm
/// joins the dispatch, and the rack-aware placement plus rack-aware
/// migration resolution must keep every single-rack kill within the m=1
/// tolerance unless chaos has already degraded the layout.
#[test]
fn chaos_racked_rack_kills() {
    for seed in seeds(40..43) {
        chaos_run(
            seed,
            "chaos_racked_rack_kills",
            TopologySpec::UniformRacks {
                nodes_per_rack: 2,
                racks_per_dc: 4,
            },
            8,
            3,
            3,
            1,
            80,
        );
    }
}

/// Two-DC topology (6 racks of 2, 3 racks per DC): adds the whole-DC
/// kill arm — a catastrophic correlated failure that is expected to end
/// runs with honest recorded data loss, never a panic.
#[test]
fn chaos_dc_split() {
    for seed in seeds(50..52) {
        chaos_run(
            seed,
            "chaos_dc_split",
            TopologySpec::UniformRacks {
                nodes_per_rack: 2,
                racks_per_dc: 3,
            },
            12,
            2,
            3,
            1,
            60,
        );
    }
}

/// Long soak: many seeds, long runs, every configuration — meant for the
/// non-blocking CI chaos job (`cargo test --release --test chaos --
/// --ignored --nocapture`). Prints the aggregate interruption/recovery
/// counts that EXPERIMENTS.md records.
#[test]
#[ignore = "long soak; run explicitly with --ignored"]
fn chaos_soak_mid_round() {
    let configs: [(&str, TopologySpec, usize, usize, usize, usize); 6] = [
        ("fig4 4n x 3vm k=3 m=1", TopologySpec::Flat, 4, 3, 3, 1),
        ("roomy 6n x 2vm k=3 m=1", TopologySpec::Flat, 6, 2, 3, 1),
        ("double 6n x 2vm k=3 m=2", TopologySpec::Flat, 6, 2, 3, 2),
        ("wide 8n x 2vm k=4 m=1", TopologySpec::Flat, 8, 2, 4, 1),
        (
            "racked 8n/4r k=3 m=1",
            TopologySpec::UniformRacks {
                nodes_per_rack: 2,
                racks_per_dc: 4,
            },
            8,
            3,
            3,
            1,
        ),
        (
            "dc-split 12n/6r/2dc k=3 m=1",
            TopologySpec::UniformRacks {
                nodes_per_rack: 2,
                racks_per_dc: 3,
            },
            12,
            2,
            3,
            1,
        ),
    ];
    let mut total = ChaosStats::default();
    for (label, topo, nodes, vms, k, m) in configs {
        let mut per = ChaosStats::default();
        for seed in seeds(100..112) {
            per.merge(chaos_run(
                seed,
                "chaos_soak_mid_round",
                topo.clone(),
                nodes,
                vms,
                k,
                m,
                250,
            ));
        }
        println!("soak [{label}]: {per}");
        total.merge(per);
    }
    println!("soak [total]: {total}");
    assert!(total.rollbacks > 0, "soak never rolled a round back");
    assert!(
        total.degraded_commits > 0,
        "soak never completed a round degraded"
    );
    assert!(
        total.hangs > 0 && total.partitions > 0,
        "soak never exercised the non-crash fault kinds"
    );
    assert!(
        total.false_failovers > 0,
        "soak never drew a false failover from a long impairment"
    );
    assert!(
        total.resyncs >= total.false_failovers.saturating_sub(total.recoveries),
        "false failovers must end in resync or in-place repair"
    );
    assert!(
        total.rebuilds_interrupted > 0,
        "soak never interrupted an in-flight rebuild with a second failure"
    );
    assert!(
        total.corrupt_blocks > 0 && total.scrub_repaired > 0,
        "soak never exercised the corruption/scrub path"
    );
    assert!(
        total.migrations > 0 && total.restarts > 0,
        "soak never resolved workload migrations/restarts"
    );
    assert!(
        total.storms > 0,
        "soak never ticked a bursty dirty-page storm round"
    );
    assert!(
        total.rack_kills > 0,
        "soak never killed a whole rack on the racked topologies"
    );
    assert!(
        total.dc_kills > 0,
        "soak never killed a whole DC on the two-DC topology"
    );
    assert!(
        total.data_loss > 0,
        "soak never recorded honest data loss from an m-exceeding double failure"
    );
}
