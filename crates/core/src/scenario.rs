//! Composable workload × fault scenario driver.
//!
//! The matrix experiments (and `tests/domain_matrix.rs`) need to run
//! *any* workload against *any* fault schedule without rewriting the
//! round loop for each pairing. This module is the glue:
//!
//! * the workload axis is a [`ClusterWorkload`] — it dirties guest
//!   memory and emits declarative [`WorkloadOp`]s (migrate a VM, restart
//!   a node, scrub) each round;
//! * the fault axis is a [`FaultSchedule`] — it plans a
//!   [`ClusterFaultPlan`](dvdc_faults::ClusterFaultPlan) over the cluster's [`DomainShape`] (node, rack
//!   and DC counts) without ever seeing the workload;
//! * [`run_scenario`] resolves the ops against the live cluster through
//!   [`apply_op`] (the placement's own choice of destination for each
//!   migration, honest [`RecoverError::DataLoss`] accounting for each
//!   restart) and then
//!   drives every checkpoint round through the unchanged
//!   detector-supervised [`run_round_with_faults`] harness.
//!
//! Because the two axes only meet inside the harness, the matrix is a
//! genuine cross product: five workloads × four schedules is twenty
//! scenarios from nine definitions.
//!
//! [`run_round_with_faults`]: crate::protocol::run_round_with_faults

use dvdc_faults::{DomainShape, FaultSchedule, PlanCursor};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::cluster::Cluster;
use dvdc_vcluster::workload::{ClusterWorkload, WorkloadOp};

use crate::placement::Member;
use crate::protocol::{
    run_round_with_faults, DvdcProtocol, PhasedOutcome, ProtocolError, RecoverError,
};

/// How long one scenario runs and how its rounds are spaced.
#[derive(Debug, Clone, Copy)]
pub struct ScenarioConfig {
    /// Checkpoint rounds to drive (after the initial committed epoch).
    pub rounds: u64,
    /// Guest-work span handed to the workload before each round.
    pub round_gap: Duration,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            rounds: 6,
            round_gap: Duration::from_secs(0.5),
        }
    }
}

impl ScenarioConfig {
    /// The horizon the fault schedule plans over: the total guest-work
    /// span of the run. Each round advances the scenario clock by one
    /// `round_gap` (plus whatever detection latency, stalls, and rebuild
    /// windows cost on top), so a fault planned anywhere inside this
    /// horizon lands inside the run.
    pub fn horizon(&self) -> Duration {
        Duration::from_secs(self.round_gap.as_secs() * self.rounds as f64)
    }
}

/// What one workload × fault-schedule scenario did, aggregated over all
/// of its rounds.
#[derive(Debug, Clone, Default)]
pub struct ScenarioReport {
    /// Workload axis label.
    pub workload: String,
    /// Fault-schedule axis label.
    pub schedule: String,
    /// Rounds that committed (possibly degraded).
    pub rounds_committed: u64,
    /// Rounds aborted by a confirmed mid-round failure.
    pub rollbacks: u64,
    /// Rounds skipped because the cluster was too degraded to begin one.
    pub rounds_skipped: u64,
    /// Completed node rebuilds across all rounds.
    pub recoveries: u64,
    /// Workload migrations performed (orthogonality re-validated each).
    pub migrations: u64,
    /// Workload-driven node restarts (fail + rebuild) performed.
    pub restarts: u64,
    /// Workload-driven integrity scrubs performed.
    pub scrubs: u64,
    /// Detector confirmations across all rounds.
    pub confirmations: u64,
    /// Live nodes wrongly confirmed dead (fenced, failed over, resynced).
    pub false_failovers: u64,
    /// Fenced nodes that resynced from the committed epoch and rejoined.
    pub resyncs: u64,
    /// Rebuilds cancelled mid-pipeline by a cascading failure.
    pub rebuilds_interrupted: u64,
    /// Blocks rotted by corruption faults.
    pub corrupt_blocks: u64,
    /// Rotten blocks found and repaired by scrubs (workload + closing).
    pub scrub_repaired: u64,
    /// Honest data-loss events: failure patterns that exceeded the parity
    /// tolerance. The affected state is gone; nothing panicked.
    pub data_loss: u64,
    /// When the scenario's last round settled.
    pub end: SimTime,
}

impl ScenarioReport {
    /// True when every committed byte survived: no group ever exceeded
    /// its parity tolerance.
    pub fn lossless(&self) -> bool {
        self.data_loss == 0
    }
}

/// The cluster's domain shape — node, rack, and DC counts — as the fault
/// schedules see it.
pub fn shape_of(cluster: &Cluster) -> DomainShape {
    let topo = cluster.topology();
    DomainShape {
        nodes: topo.node_count(),
        racks: topo.rack_count(),
        dcs: topo.dc_count(),
    }
}

/// Runs one workload × fault-schedule scenario: commits an initial
/// epoch, then for each round lets the workload dirty guest memory and
/// resolves its declarative ops before driving the round through the
/// detector-supervised harness with the schedule's planned faults.
///
/// Data loss is never a panic: a restart or rebuild that exceeds the
/// parity tolerance is counted in [`ScenarioReport::data_loss`] and the
/// scenario keeps going degraded (rounds that cannot begin are counted
/// as skipped).
pub fn run_scenario(
    protocol: &mut DvdcProtocol,
    cluster: &mut Cluster,
    workload: &mut dyn ClusterWorkload,
    schedule: &dyn FaultSchedule,
    cfg: &ScenarioConfig,
    hub: &RngHub,
) -> Result<ScenarioReport, ProtocolError> {
    let mut report = ScenarioReport {
        workload: workload.name().to_string(),
        schedule: schedule.name().to_string(),
        ..ScenarioReport::default()
    };
    // The committed epoch every later rollback restores.
    protocol.run_round(cluster)?;
    report.rounds_committed += 1;

    let plan = schedule.plan(shape_of(cluster), cfg.horizon(), hub);
    let mut cursor = PlanCursor::new(&plan);
    let mut now = SimTime::ZERO;

    for round in 0..cfg.rounds {
        let tick = workload.tick(cluster, cfg.round_gap, hub, round);
        for op in &tick.ops {
            apply_op(protocol, cluster, *op, &mut report)?;
        }
        // The guest work the tick modelled elapses on the scenario
        // clock; a fault planned inside that span strikes (overdue) at
        // the round's first instant.
        now += cfg.round_gap;
        match run_round_with_faults(protocol, cluster, &mut cursor, now) {
            Ok((outcome, end)) => {
                now = end;
                absorb(&outcome, &mut report);
            }
            Err(ProtocolError::NodeDown { .. }) => {
                // Too degraded to coordinate a round (a node lost to an
                // earlier tolerance-exceeding failure is still down):
                // the round is skipped, time still passes.
                report.rounds_skipped += 1;
                now += cfg.round_gap;
            }
            Err(e) => return Err(e),
        }
    }
    report.end = now;
    Ok(report)
}

/// Resolves one declarative workload op against the live cluster — the
/// one resolver: [`run_scenario`] and the chaos suite both call it and
/// read what it did from the counters it bumps in `report`
/// (`migrations`, `restarts`, `recoveries`, `scrubs`, `scrub_repaired`,
/// `data_loss`). An op that is unsafe or pointless right now (host down,
/// too few survivors, already best-placed) is skipped silently.
pub fn apply_op(
    protocol: &mut DvdcProtocol,
    cluster: &mut Cluster,
    op: WorkloadOp,
    report: &mut ScenarioReport,
) -> Result<(), ProtocolError> {
    match op {
        WorkloadOp::Migrate { vm } => {
            let from = cluster.node_of(vm);
            if !cluster.is_up(from) {
                return Ok(()); // its host is down; the rebuild path owns it
            }
            let dest = protocol.placement().host_for(cluster, Member::Vm(vm), None);
            if let Some(dest) = dest.filter(|&d| d != from) {
                protocol
                    .migrate(cluster, vm, dest)
                    .expect("host_for only offers orthogonality-preserving hosts");
                report.migrations += 1;
            }
            Ok(())
        }
        WorkloadOp::RestartNode { node } => {
            let k = protocol
                .placement()
                .groups()
                .first()
                .map_or(0, |g| g.data.len());
            if !cluster.is_up(node) || cluster.up_node_count() <= k {
                return Ok(()); // already down, or too few survivors to decode
            }
            cluster.fail_node(node);
            match protocol.recover_typed(cluster, node) {
                Ok(_) => {
                    report.restarts += 1;
                    report.recoveries += 1;
                    Ok(())
                }
                Err(RecoverError::DataLoss { .. }) => {
                    // Honest loss: the node stays down with its loss on
                    // record; the scenario continues degraded.
                    report.restarts += 1;
                    report.data_loss += 1;
                    Ok(())
                }
                Err(RecoverError::Protocol(p)) => Err(p),
            }
        }
        WorkloadOp::Scrub => match protocol.scrub(cluster) {
            Ok(s) => {
                report.scrubs += 1;
                report.scrub_repaired += s.repaired as u64;
                Ok(())
            }
            Err(RecoverError::DataLoss { .. }) => {
                report.scrubs += 1;
                report.data_loss += 1;
                Ok(())
            }
            Err(RecoverError::Protocol(p)) => Err(p),
        },
    }
}

/// Folds one round's outcome into the scenario totals.
fn absorb(outcome: &PhasedOutcome, report: &mut ScenarioReport) {
    let det = outcome.detection();
    report.confirmations += det.confirmations;
    report.false_failovers += det.false_failovers;
    report.resyncs += det.resyncs;
    report.rebuilds_interrupted += det.rebuilds_interrupted;
    report.corrupt_blocks += det.corrupt_blocks;
    report.scrub_repaired += det.scrub_repaired;
    report.data_loss += outcome.data_loss().len() as u64;
    match outcome {
        PhasedOutcome::Committed { recovered, .. } => {
            report.rounds_committed += 1;
            report.recoveries += recovered.len() as u64;
        }
        PhasedOutcome::RolledBack { recoveries, .. } => {
            report.rollbacks += 1;
            report.recoveries += recoveries.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::GroupPlacement;
    use dvdc_faults::{Quiet, RackKills};
    use dvdc_vcluster::cluster::ClusterBuilder;
    use dvdc_vcluster::workload::{MigrationChurn, SteadyCheckpoint};

    fn racked(nodes: usize, vms: usize, per_rack: usize, seed: u64) -> Cluster {
        ClusterBuilder::new()
            .physical_nodes(nodes)
            .vms_per_node(vms)
            .vm_memory(8, 32)
            .writes_per_sec(200.0)
            .racks(per_rack)
            .build(seed)
    }

    #[test]
    fn steady_quiet_scenario_commits_every_round() {
        let mut c = racked(8, 3, 2, 11);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3, 1).unwrap());
        let hub = RngHub::new(3);
        let cfg = ScenarioConfig::default();
        let report =
            run_scenario(&mut p, &mut c, &mut SteadyCheckpoint, &Quiet, &cfg, &hub).unwrap();
        assert_eq!(report.rounds_committed, cfg.rounds + 1);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.rounds_skipped, 0);
        assert!(report.lossless());
        assert_eq!(report.workload, "steady");
        assert_eq!(report.schedule, "quiet");
    }

    #[test]
    fn churn_under_a_rack_kill_survives_with_rack_aware_placement() {
        let mut c = racked(8, 3, 2, 23);
        let placement = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
        assert!(placement.is_rack_orthogonal(&c));
        let mut p = DvdcProtocol::new(placement);
        let cfg = ScenarioConfig::default();
        let schedule = RackKills {
            mtbf: Duration::from_secs(cfg.horizon().as_secs() * 3.0),
            repair: Duration::ZERO,
        };
        // m = 1 tolerates one erasure per group, so the survivable claim
        // is about a *single* rack kill — two racks dying in the same
        // inter-round gap exceed any single-parity code. The hub's
        // streams are deterministic, so pre-planning the schedule finds
        // a seed whose plan holds exactly one kill; the scenario then
        // consumes that exact plan.
        let mut seed = 0;
        let hub = loop {
            let hub = RngHub::new(seed);
            if schedule.plan(shape_of(&c), cfg.horizon(), &hub).len() == 1 {
                break hub;
            }
            seed += 1;
            assert!(seed < 64, "no single-kill seed in a reasonable sweep");
        };
        let report = run_scenario(
            &mut p,
            &mut c,
            &mut MigrationChurn::default(),
            &schedule,
            &cfg,
            &hub,
        )
        .unwrap();
        assert_eq!(
            report.confirmations, 2,
            "both rack members must draw their own verdict: {report:?}"
        );
        assert!(
            report.lossless(),
            "rack-aware m=1 placement survives a single-rack kill: {report:?}"
        );
        assert!(
            report.migrations > 0,
            "churn must have migrated: {report:?}"
        );
        assert!(c.node_ids().iter().all(|&n| c.is_up(n)));
    }
}
