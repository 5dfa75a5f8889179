//! Multi-seed buggify swarm: sweep hundreds of seeds × intensities across
//! the workload × fault-domain matrix with the invariant auditor attached,
//! classify every cell's outcome, and shrink any failure to a minimal set
//! of fault points.
//!
//! The swarm is the consumer the buggify subsystem was built for (see
//! `dvdc_faults::buggify`): each cell builds a fresh cluster, protocol,
//! and seed-deterministic [`FaultRegistry`], runs one scenario of its
//! [`Subject`] — the global model on the workload × fault-schedule matrix,
//! or the daemon's `NodeCore`s on the harness — under `catch_unwind`, and
//! demands
//! that every induced misbehaviour surface as a *typed* outcome —
//! committed (possibly degraded), rolled back, or honest
//! [`RecoverError::DataLoss`] — never a panic, never an auditor
//! violation, never an unexpected protocol error. When a cell does fail,
//! the engine replays it under [`FaultRegistry::restrict`] to greedily
//! drop fault points until only a minimal still-failing subset remains,
//! and records a single-line repro.
//!
//! [`RecoverError::DataLoss`]: dvdc::protocol::RecoverError::DataLoss

use std::panic::{self, AssertUnwindSafe};
use std::rc::Rc;

use dvdc::placement::GroupPlacement;
use dvdc::protocol::harness::Harness;
use dvdc::protocol::{ClusterSpec, DvdcProtocol, Note, PART_LEN};
use dvdc::scenario::{run_scenario, ScenarioConfig, ScenarioReport};
use dvdc_faults::buggify::{self, FaultRegistry, Intensity};
use dvdc_faults::{
    DcKill, DomainShape, FaultSchedule, ImpairmentStorm, MixedSchedule, NodeCrashes, RackKills,
};
use dvdc_observe::audit::InvariantAuditor;
use dvdc_observe::RecorderHandle;
use dvdc_parity::code::ErasureCode;
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::{Cluster, ClusterBuilder, TopologySpec};
use dvdc_vcluster::workload::{
    BurstyDirtyStorm, ClusterWorkload, MigrationChurn, RollingRestarts, ScrubStorm,
    SteadyCheckpoint,
};
use serde::Serialize;

/// Workload axis size. `tests/domain_matrix.rs` walks these same axes.
pub const WORKLOADS: u64 = 5;
/// Fault-schedule axis size.
pub const SCHEDULES: u64 = 5;

/// The matrix cluster: 12 nodes in 6 racks of 2 across 2 DCs — deep
/// enough that rack kills are partial and a DC kill is
/// catastrophic-but-honest.
pub fn build_cluster(seed: u64) -> Cluster {
    ClusterBuilder::new()
        .physical_nodes(12)
        .vms_per_node(2)
        .vm_memory(8, 32)
        .writes_per_sec(200.0)
        .topology(TopologySpec::UniformRacks {
            nodes_per_rack: 2,
            racks_per_dc: 3,
        })
        .build(seed)
}

/// Entry `idx % WORKLOADS` of the workload axis, freshly built.
pub fn make_workload(idx: u64) -> (&'static str, Box<dyn ClusterWorkload>) {
    match idx % WORKLOADS {
        0 => ("steady", Box::new(SteadyCheckpoint)),
        1 => ("bursty-storm", Box::new(BurstyDirtyStorm::default())),
        2 => ("migration-churn", Box::new(MigrationChurn::default())),
        3 => ("rolling-restarts", Box::new(RollingRestarts::default())),
        _ => ("scrub-storm", Box::new(ScrubStorm)),
    }
}

/// Entry `idx % SCHEDULES` of the fault-schedule axis, its rates scaled
/// to the scenario's `horizon`.
pub fn make_schedule(idx: u64, horizon: Duration) -> Box<dyn FaultSchedule> {
    match idx % SCHEDULES {
        0 => Box::new(NodeCrashes::exponential(
            Duration::from_secs(horizon.as_secs() * 2.0),
            Duration::ZERO,
        )),
        1 => Box::new(RackKills {
            mtbf: Duration::from_secs(horizon.as_secs() * 3.0),
            repair: Duration::ZERO,
        }),
        2 => Box::new(DcKill {
            at_fraction: 0.45,
            repair: Duration::ZERO,
        }),
        3 => Box::new(ImpairmentStorm::default()),
        _ => Box::new(MixedSchedule::new(
            "mixed",
            vec![
                Box::new(NodeCrashes::exponential(
                    Duration::from_secs(horizon.as_secs() * 4.0),
                    Duration::ZERO,
                )),
                Box::new(RackKills {
                    mtbf: Duration::from_secs(horizon.as_secs() * 6.0),
                    repair: Duration::ZERO,
                }),
            ],
        )),
    }
}

/// What a cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// The global `DvdcProtocol` model on the workload × schedule matrix.
    Model,
    /// A cluster of the daemon's `NodeCore`s on the deterministic harness:
    /// the seed picks the layout, the plan and how long a crashed process
    /// stays down, and the registry's `*.delay` points slow single links.
    Core,
    /// [`Subject::Core`] with images of three whole parts and a ragged
    /// fourth, so every block travels and lands part by part, and each
    /// part may be delayed on its own.
    CoreInParts,
}

/// The layouts `NodeCore` has, as `(k, m)`; a seed runs `seed % 4`.
const CORE_LAYOUTS: [(usize, usize); 4] = [(2, 1), (4, 1), (3, 2), (4, 2)];

/// Crashes, impairment storms or both for a core cell. A crashed process
/// is restarted at once, soon, or after its peers have given up on it; a
/// storm freezes one node at a time, for longer than detection takes.
fn core_schedule(seed: u64, horizon: Duration) -> Box<dyn FaultSchedule> {
    let repair = Duration::from_millis([0.0, 30.0, 150.0][(seed / 12 % 3) as usize]);
    let crashes = NodeCrashes::exponential(horizon * 2.0, repair);
    let storm = ImpairmentStorm {
        nodes_per_storm: 1,
        ..ImpairmentStorm::default()
    };
    match seed / 4 % 3 {
        0 => Box::new(crashes),
        1 => Box::new(storm),
        _ => Box::new(MixedSchedule::new(
            "mixed",
            vec![Box::new(crashes), Box::new(storm)],
        )),
    }
}

/// One core cell: a meshed cluster with one round committed, then `rounds`
/// checkpoints requested of whoever coordinates while the plan strikes,
/// then time to settle. Request `i` is due 100 ms × `i` after the first
/// commit, or at once if the one before returned later, so how long a
/// rebuild or a round takes shifts no later request. A cell that lost
/// nothing must end whole: every member back and meshed, a full-strength
/// round committing, and the parity that round left behind the parity of
/// the images it left behind. Anything else is the error. Besides the
/// report, the requests refused because a rebuild was in flight.
fn core_cell(
    spec: ClusterSpec,
    seed: u64,
    rounds: u64,
    registry: Rc<FaultRegistry>,
) -> Result<(ScenarioReport, u64), String> {
    let (k, m) = (spec.data_nodes, spec.parity_nodes);
    let gap = Duration::from_millis(100.0);
    let horizon = gap * rounds as f64;
    let schedule = core_schedule(seed, horizon);
    let plan = schedule.plan(DomainShape::flat(k + m), horizon, &RngHub::new(seed));
    let mut h = Harness::new(spec.clone());
    h.run_until(500.0, "full mesh", |h| h.fully_meshed());
    h.checkpoint(0, 500.0)?;
    h.attach_registry(registry);
    let refused = |fault| format!("the harness cannot apply {fault:?}");
    h.attach_plan(&plan).map_err(refused)?;
    let mut report = ScenarioReport {
        workload: format!("{k}+{m}"),
        schedule: schedule.name().to_string(),
        ..ScenarioReport::default()
    };
    let count = |h: &Harness, pred: fn(&Note) -> bool| {
        h.notes().iter().filter(|(.., note)| pred(note)).count() as u64
    };
    let started = |h: &Harness| count(h, |n| matches!(n, Note::RoundStarted { .. }));
    let (first, mut rebuilding) = (h.now(), 0);
    for i in 1..=rounds {
        let due = first + gap * i as f64;
        if h.now() < due {
            h.run_for(due.since(h.now()));
        }
        let before = started(&h);
        let coordinator = h.live().next().map(|n| n.id().index());
        match coordinator.map(|c| h.checkpoint(c, 500.0)) {
            Some(Ok(_)) => report.rounds_committed += 1,
            Some(Err(_)) if started(&h) > before => report.rollbacks += 1,
            Some(Err(e)) if e.contains("a rebuild is in flight") => rebuilding += 1,
            _ => report.rounds_skipped += 1,
        }
    }
    h.run_for(Duration::from_millis(600.0));
    report.data_loss = count(&h, |n| matches!(n, Note::DataLoss { .. }));
    report.end = h.now();
    if report.data_loss > 0 {
        return Ok((report, rebuilding));
    }

    if h.live().count() < k + m || !h.fully_meshed() {
        return Err("not whole 600 ms after the last round".to_string());
    }
    let epoch = h
        .checkpoint(0, 500.0)
        .map_err(|e| format!("no full-strength round: {e}"))?;
    let blocks: Vec<Vec<u8>> = (0..k + m)
        .map(|i| match h.node(i).committed() {
            Some((e, block)) if e == epoch => Ok(block.to_vec()),
            other => Err(format!(
                "node{i} holds {:?}, not epoch {epoch}",
                other.map(|(e, _)| e)
            )),
        })
        .collect::<Result<_, _>>()?;
    let images: Vec<&[u8]> = blocks[..k].iter().map(Vec::as_slice).collect();
    match spec.code().encode(&images) == blocks[k..] {
        true => Ok((report, rebuilding)),
        false => Err(format!(
            "epoch {epoch}'s parity is not parity of its images"
        )),
    }
}

/// How one swarm cell ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Every round committed; no rollbacks, no loss.
    Committed,
    /// Some rounds rolled back or were skipped, but all state survived.
    Degraded,
    /// Failures honestly exceeded the parity tolerance (typed loss).
    DataLoss,
    /// Panic, auditor violation, or unexpected protocol error.
    Failed,
}

impl CellStatus {
    /// Stable lower-case label (also the JSON encoding).
    pub fn name(self) -> &'static str {
        match self {
            CellStatus::Committed => "committed",
            CellStatus::Degraded => "degraded",
            CellStatus::DataLoss => "data-loss",
            CellStatus::Failed => "failed",
        }
    }
}

// The vendored serde derive handles only structs; encode the enum as its
// stable label by hand.
impl Serialize for CellStatus {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

/// Why a cell failed, with the evidence needed to reproduce it.
#[derive(Debug, Clone, Serialize)]
pub struct CellFailure {
    /// `panic`, `auditor-violation`, or `protocol-error`.
    pub kind: String,
    /// Panic payload, violation list, or error display.
    pub detail: String,
    /// Every fault point that fired during the failing run.
    pub fired_points: Vec<String>,
    /// Greedily-shrunk minimal still-failing subset of `fired_points`
    /// (empty when shrinking was disabled or the failure is
    /// buggify-independent).
    pub minimal_points: Vec<String>,
    /// Exact single-line reproduction recipe.
    pub repro: String,
}

/// One cell of the swarm: a (seed, intensity) pair mapped onto the
/// workload × schedule matrix.
#[derive(Debug, Clone, Serialize)]
pub struct CellOutcome {
    /// Buggify seed (also selects the matrix cell and cluster layout).
    pub seed: u64,
    /// Buggify intensity tier name.
    pub intensity: String,
    /// Workload axis label.
    pub workload: String,
    /// Fault-schedule axis label.
    pub schedule: String,
    /// Classification of the run.
    pub status: CellStatus,
    /// Rounds that committed (including the initial epoch).
    pub rounds_committed: u64,
    /// Rounds aborted by a confirmed mid-round failure.
    pub rollbacks: u64,
    /// Core cells: requests refused because a rebuild was in flight.
    pub rebuild_refusals: u64,
    /// Typed data-loss events.
    pub data_loss: u64,
    /// Fault points that fired, with counts folded in.
    pub fired_points: Vec<String>,
    /// Total fault-point activations.
    pub fired: u64,
    /// Total fault-point evaluations (fired or not).
    pub evaluated: u64,
    /// Present iff `status == Failed`.
    pub failure: Option<CellFailure>,
}

/// Swarm sweep parameters.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// First buggify seed; the sweep covers `base_seed..base_seed + seeds`.
    pub base_seed: u64,
    /// Number of seeds to sweep (25 consecutive seeds cover the full
    /// workload × schedule matrix once).
    pub seeds: u64,
    /// Intensity tiers to run every seed at.
    pub intensities: Vec<Intensity>,
    /// Checkpoint rounds per scenario.
    pub rounds: u64,
    /// Shrink failing activation sets to minimal subsets.
    pub shrink: bool,
}

impl Default for SwarmConfig {
    fn default() -> Self {
        SwarmConfig {
            base_seed: 1,
            seeds: 100,
            intensities: vec![Intensity::Quick],
            rounds: 4,
            shrink: true,
        }
    }
}

/// Aggregate swarm results.
#[derive(Debug, Serialize)]
pub struct SwarmSummary {
    /// Cells run (seeds × intensities).
    pub cells: u64,
    /// Cells where every round committed.
    pub committed: u64,
    /// Cells degraded (rollbacks/skips) without loss.
    pub degraded: u64,
    /// Cells with typed, honest data loss.
    pub data_loss: u64,
    /// Cells that failed (panic / violation / unexpected error).
    pub failed: u64,
    /// Total fault-point activations across the sweep.
    pub fired: u64,
    /// Total fault-point evaluations across the sweep.
    pub evaluated: u64,
    /// Every cell, in sweep order.
    pub outcomes: Vec<CellOutcome>,
}

impl SwarmSummary {
    /// Repro lines for every failed cell.
    pub fn repro_lines(&self) -> Vec<String> {
        self.outcomes
            .iter()
            .filter_map(|c| c.failure.as_ref().map(|f| f.repro.clone()))
            .collect()
    }
}

/// What one raw cell run produced, before shrinking.
struct RawRun {
    /// The report, and the requests refused while a rebuild was in flight.
    report: Option<(ScenarioReport, u64)>,
    failure: Option<(String, String)>, // (kind, detail)
    fired_points: Vec<&'static str>,
    fired: u64,
    evaluated: u64,
}

impl RawRun {
    fn failed(&self) -> bool {
        self.failure.is_some()
    }
}

/// One model cell: the seed's workload × schedule scenario on the matrix
/// cluster, with `audit` recording.
fn model_cell(
    seed: u64,
    rounds: u64,
    registry: Rc<FaultRegistry>,
    audit: Rc<InvariantAuditor>,
) -> Result<ScenarioReport, String> {
    let cfg = ScenarioConfig {
        rounds,
        round_gap: Duration::from_secs(0.5),
    };
    let mut cluster = build_cluster(seed);
    let placement = GroupPlacement::orthogonal(&cluster, 3, 1)
        .expect("12-node/6-rack cluster fits k=3,m=1 orthogonally");
    let mut protocol = DvdcProtocol::new(placement)
        .with_recorder(RecorderHandle::new(audit))
        .with_buggify(registry);
    let (_, mut workload) = make_workload(seed);
    let schedule = make_schedule(seed / WORKLOADS, cfg.horizon());
    let hub = RngHub::new(seed);
    let result = run_scenario(
        &mut protocol,
        &mut cluster,
        workload.as_mut(),
        schedule.as_ref(),
        &cfg,
        &hub,
    );
    result.map_err(|e| e.to_string())
}

/// Runs one cell raw: fresh subject + auditor + registry, scenario under
/// `catch_unwind`. `restrict` limits which fault points may fire
/// (occurrence counters still advance — see [`FaultRegistry::restrict`]);
/// `poison` names a conjunction of points that, if all fired, detonate a
/// deliberate panic — the hook the negative shrinker tests use to plant a
/// known bug.
fn run_raw(
    subject: Subject,
    seed: u64,
    intensity: Intensity,
    rounds: u64,
    restrict: Option<&[&'static str]>,
    poison: &[&'static str],
) -> RawRun {
    let registry = Rc::new(FaultRegistry::new(seed, intensity));
    if let Some(allowed) = restrict {
        registry.restrict(allowed);
    }
    let audit = Rc::new(InvariantAuditor::new());
    let run_registry = registry.clone();
    let run_audit = audit.clone();
    // The panic hook would spray a backtrace for every *expected* panic
    // the shrinker replays; silence it for the guarded section and
    // restore it after.
    let hook = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    let caught = panic::catch_unwind(AssertUnwindSafe(move || {
        // The harness carries its own auditors and asserts them when it is
        // dropped; the model records into ours.
        let (k, m) = CORE_LAYOUTS[(seed % 4) as usize];
        let spec = ClusterSpec::drill(k, m);
        let result = match subject {
            Subject::Model => {
                model_cell(seed, rounds, run_registry.clone(), run_audit).map(|r| (r, 0))
            }
            Subject::Core => core_cell(spec, seed, rounds, run_registry.clone()),
            Subject::CoreInParts => {
                let image_len = 3 * PART_LEN + 4_099;
                let spec = ClusterSpec { image_len, ..spec };
                core_cell(spec, seed, rounds, run_registry.clone())
            }
        };
        if let Ok(ref _report) = result {
            let fired = run_registry.fired_points();
            if !poison.is_empty() && poison.iter().all(|p| fired.contains(p)) {
                panic!("deliberately planted bug: poison points all fired");
            }
        }
        result
    }));
    panic::set_hook(hook);

    let fired_points = registry.fired_points();
    let fired = registry.fired_total();
    let evaluated = registry.evaluated_total();
    let (report, failure) = match caught {
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            let kind = match msg.starts_with("invariant auditor found") {
                true => "auditor-violation",
                false => "panic",
            };
            (None, Some((kind.to_string(), msg)))
        }
        Ok(Err(e)) => (None, Some(("protocol-error".to_string(), e))),
        Ok(Ok(report)) => {
            let violations = audit.violations();
            if violations.is_empty() {
                (Some(report), None)
            } else {
                (
                    None,
                    Some(("auditor-violation".to_string(), violations.join("; "))),
                )
            }
        }
    };
    RawRun {
        report,
        failure,
        fired_points,
        fired,
        evaluated,
    }
}

/// Runs one (seed, intensity) cell of `subject`, shrinking on failure.
pub fn run_cell(
    subject: Subject,
    seed: u64,
    intensity: Intensity,
    rounds: u64,
    shrink: bool,
) -> CellOutcome {
    run_cell_poisoned(subject, seed, intensity, rounds, shrink, &[])
}

/// [`run_cell`] with a planted bug: if every point in `poison` fires in
/// a clean run, the cell panics deliberately, so tests can prove
/// the swarm catches and minimises a known injected defect.
fn run_cell_poisoned(
    subject: Subject,
    seed: u64,
    intensity: Intensity,
    rounds: u64,
    shrink: bool,
    poison: &[&'static str],
) -> CellOutcome {
    let raw = run_raw(subject, seed, intensity, rounds, None, poison);
    let horizon = Duration::from_secs(1.0);
    let (workload, schedule) = match subject {
        Subject::Model => (
            make_workload(seed).0.to_string(),
            make_schedule(seed / WORKLOADS, horizon).name(),
        ),
        Subject::Core | Subject::CoreInParts => {
            let (k, m) = CORE_LAYOUTS[(seed % 4) as usize];
            (format!("{k}+{m}"), core_schedule(seed, horizon).name())
        }
    };
    let mut outcome = CellOutcome {
        seed,
        intensity: intensity.name().to_string(),
        workload,
        schedule: schedule.to_string(),
        status: CellStatus::Committed,
        rounds_committed: 0,
        rollbacks: 0,
        rebuild_refusals: 0,
        data_loss: 0,
        fired_points: raw.fired_points.iter().map(|p| p.to_string()).collect(),
        fired: raw.fired,
        evaluated: raw.evaluated,
        failure: None,
    };
    match (&raw.report, &raw.failure) {
        (Some((report, rebuilding)), None) => {
            outcome.rounds_committed = report.rounds_committed;
            outcome.rollbacks = report.rollbacks;
            outcome.rebuild_refusals = *rebuilding;
            outcome.data_loss = report.data_loss;
            let skipped = report.rounds_skipped + rebuilding;
            outcome.status = if report.data_loss > 0 {
                CellStatus::DataLoss
            } else if report.rollbacks > 0 || skipped > 0 {
                CellStatus::Degraded
            } else {
                CellStatus::Committed
            };
        }
        (_, Some((kind, detail))) => {
            outcome.status = CellStatus::Failed;
            let minimal = if shrink && !raw.fired_points.is_empty() {
                buggify::shrink(&raw.fired_points, |subset| {
                    run_raw(subject, seed, intensity, rounds, Some(subset), poison).failed()
                })
            } else {
                raw.fired_points.clone()
            };
            let repro = format!(
                "reproduce with: DVDC_BUGGIFY_SEED={seed} DVDC_BUGGIFY_INTENSITY={} \
                 (cell {} x {}, minimal points: {})",
                intensity.name(),
                outcome.workload,
                outcome.schedule,
                if minimal.is_empty() {
                    "none - fails without buggify".to_string()
                } else {
                    minimal.join(",")
                },
            );
            outcome.failure = Some(CellFailure {
                kind: kind.clone(),
                detail: detail.clone(),
                fired_points: outcome.fired_points.clone(),
                minimal_points: minimal.iter().map(|p| p.to_string()).collect(),
                repro,
            });
        }
        (None, None) => unreachable!("raw run produced neither report nor failure"),
    }
    outcome
}

/// Sweeps the configured seeds × intensities of `subject` and aggregates.
pub fn run_swarm(subject: Subject, cfg: &SwarmConfig) -> SwarmSummary {
    let mut summary = SwarmSummary {
        cells: 0,
        committed: 0,
        degraded: 0,
        data_loss: 0,
        failed: 0,
        fired: 0,
        evaluated: 0,
        outcomes: Vec::new(),
    };
    for &intensity in &cfg.intensities {
        for seed in cfg.base_seed..cfg.base_seed + cfg.seeds {
            let cell = run_cell(subject, seed, intensity, cfg.rounds, cfg.shrink);
            summary.cells += 1;
            summary.fired += cell.fired;
            summary.evaluated += cell.evaluated;
            match cell.status {
                CellStatus::Committed => summary.committed += 1,
                CellStatus::Degraded => summary.degraded += 1,
                CellStatus::DataLoss => summary.data_loss += 1,
                CellStatus::Failed => summary.failed += 1,
            }
            summary.outcomes.push(cell);
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_faults::buggify::points;

    #[test]
    fn one_cell_runs_clean_at_quick_intensity() {
        let cell = run_cell(Subject::Model, 1, Intensity::Quick, 3, true);
        assert_ne!(cell.status, CellStatus::Failed, "{:?}", cell.failure);
        assert!(cell.evaluated > 0, "buggify never consulted");
    }

    #[test]
    fn disabled_registry_fires_nothing() {
        let cell = run_cell(Subject::Model, 2, Intensity::Off, 3, true);
        assert_ne!(cell.status, CellStatus::Failed, "{:?}", cell.failure);
        assert_eq!(cell.fired, 0);
    }

    #[test]
    fn poisoned_cell_fails_and_shrinks_to_the_poison() {
        // Find a seed where the poison point actually fires, then prove
        // the swarm flags the cell and the shrinker isolates the point.
        let poison = [points::ROUND_TRANSFER_DELAY];
        let seed = (1..200)
            .find(|&s| {
                run_cell(Subject::Model, s, Intensity::Standard, 3, false)
                    .fired_points
                    .iter()
                    .any(|p| p == points::ROUND_TRANSFER_DELAY)
            })
            .expect("some seed fires the transfer-delay point");
        let cell = run_cell_poisoned(Subject::Model, seed, Intensity::Standard, 3, true, &poison);
        assert_eq!(cell.status, CellStatus::Failed);
        let failure = cell.failure.expect("failed cell carries its failure");
        assert_eq!(failure.kind, "panic");
        assert!(
            failure.minimal_points.len() <= 3,
            "shrinker left a non-minimal set: {:?}",
            failure.minimal_points
        );
        assert!(
            failure
                .minimal_points
                .contains(&points::ROUND_TRANSFER_DELAY.to_string()),
            "minimal set must retain the culprit: {:?}",
            failure.minimal_points
        );
        assert!(failure.repro.contains("DVDC_BUGGIFY_SEED="));
    }
}
