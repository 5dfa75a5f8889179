//! Detector-driven execution of phase-interruptible DVDC rounds.
//!
//! [`run_round_with_faults`] drives one [`DvdcProtocol`] round as
//! discrete events on the `simcore` engine — one event per capture,
//! transfer launch/arrival, parity fold, and commit ack — **plus** the
//! in-band failure detector's traffic: every monitored node heartbeats at
//! the configured interval (each heartbeat charged through the cluster's
//! network timing model), and deadline events escalate silence to
//! `Suspected`, then `Confirmed`.
//!
//! The fault plan drives only the *injector*. A [`NodeFault`] firing
//! mid-round impairs the node — a [`FaultKind::Crash`] kills it, a
//! [`FaultKind::TransientHang`] or [`FaultKind::Partition`] merely
//! silences it — and, if the victim holds pending round state, the round
//! *stalls* (a coordinated checkpoint cannot progress past an
//! unresponsive member). Nothing recovers until the **detector** rules:
//!
//! * **Confirmed, node really dead** — the round aborts (two-phase
//!   commit: the old parity generation was retained, nothing torn
//!   survives) and the victim is rebuilt from survivors. The time from
//!   injection to confirmation is real detection latency; it elapses on
//!   the simulated clock before any recovery begins.
//! * **Confirmed, node actually alive** (the hang/partition outlasted the
//!   confirmation window) — a **false failover**: the node is fenced and
//!   excommunicated, its state re-homed from parity. When it later wakes
//!   holding stale round state, every stale token is rejected and it must
//!   [`DvdcProtocol::resync_node`] from the committed epoch to rejoin.
//! * **Healed before confirmation** — the node resumes, a standing
//!   suspicion is refuted (a counted *false suspicion*), and the stalled
//!   round picks up where it left off, having paid the impairment span
//!   as delay.
//!
//! Recovery itself runs as a **rebuild window** after the round settles:
//! each down node is rebuilt through the phased
//! [`DvdcProtocol::begin_rebuild`] pipeline, its fetch/decode/place work
//! charged through the fabric timing model, with the remaining plan
//! faults firing at their instants as the rebuild clock advances. A crash
//! landing mid-rebuild cancels the mutation-free pipeline and restarts it
//! against the enlarged down set; a failure pattern exceeding the parity
//! tolerance is recorded as honest [`RecoverError::DataLoss`] in the
//! outcome — never a panic. A [`FaultKind::Corruption`] fault is silent —
//! the node stays up and heartbeating while stored blocks rot — and is
//! caught by checksums: rotten survivors decode as erasures, and a
//! closing [`DvdcProtocol::scrub`] repairs whatever corruption the round
//! left behind. A partition that cuts an in-flight transfer is retried
//! with bounded exponential backoff before it can doom the round.
//!
//! The detector runs under the default [`DetectorConfig`]: the protocol
//! learns of a failure only by detecting it, never from the plan.
//!
//! One simplification is deliberate: the detector is an abstract monitor
//! observing through the same links as everyone else, so *any* partition
//! of a node silences its heartbeats (we do not model per-peer
//! observability quorums).
//!
//! [`NodeFault`]: dvdc_faults::NodeFault
//! [`FaultKind::Crash`]: dvdc_faults::FaultKind::Crash
//! [`FaultKind::TransientHang`]: dvdc_faults::FaultKind::TransientHang
//! [`FaultKind::Partition`]: dvdc_faults::FaultKind::Partition
//! [`FaultKind::Corruption`]: dvdc_faults::FaultKind::Corruption

use std::collections::{BTreeMap, BTreeSet};

use dvdc_faults::buggify;
use dvdc_faults::detector::{DetectorConfig, DetectorEventKind, FailureDetector, Verdict};
use dvdc_faults::{FaultKind, NodeFault, PlanCursor};
use dvdc_observe::{Event, RecorderHandle};
use dvdc_simcore::engine::{Scheduler, Simulation};
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::cluster::Cluster;
use dvdc_vcluster::ids::NodeId;
use dvdc_vcluster::messaging::{RetryDecision, RetryPolicy};

use super::dvdc_proto::{
    DvdcProtocol, PhasedRound, RebuildMode, RebuildStep, RoundPhase, RoundStep,
};
use super::{apply_fault, ProtocolError, RecoverError, RecoveryReport, RoundReport};

/// Size of one heartbeat message on the wire.
const HEARTBEAT_BYTES: usize = 64;

/// What the failure detector saw and did during one round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectionReport {
    /// Heartbeats delivered to the detector.
    pub heartbeats: u64,
    /// Suspicions raised (nodes silent past the timeout).
    pub suspicions: u64,
    /// Suspicions that survived the grace and triggered failover.
    pub confirmations: u64,
    /// Suspicions refuted by a late heartbeat — false suspicions that
    /// cost delay but no failover.
    pub false_suspicions: u64,
    /// Confirmations of nodes that were actually alive (hangs/partitions
    /// outlasting the confirmation window): each one fenced and
    /// excommunicated a live node.
    pub false_failovers: u64,
    /// Stale rejoin attempts rejected by the fence.
    pub fenced_rejections: u64,
    /// Wrongly-failed-over nodes that resynced from the committed epoch
    /// and rejoined.
    pub resyncs: u64,
    /// Injection-to-confirmation latency of the first confirmed failure,
    /// if any — the detection-delay term of the completion-time model.
    pub first_detection_latency: Option<Duration>,
    /// In-flight transfers retried (with backoff) after a transient
    /// partition cut their path mid-flight.
    pub transfer_retries: u64,
    /// Rebuilds cancelled mid-pipeline by a cascading failure and then
    /// restarted against the enlarged down set.
    pub rebuilds_interrupted: u64,
    /// Stored blocks silently rotted by corruption faults this round.
    pub corrupt_blocks: u64,
    /// Rotten blocks the post-round scrub found and repaired from parity.
    pub scrub_repaired: u64,
}

/// How a detector-driven round ended.
#[derive(Debug)]
pub enum PhasedOutcome {
    /// The round committed. If uninvolved (evacuated) nodes failed while
    /// it ran, it completed degraded and they were recovered afterwards.
    Committed {
        /// The committed round's report.
        report: RoundReport,
        /// Post-commit recoveries of nodes that failed mid-round without
        /// holding round state.
        recovered: Vec<RecoveryReport>,
        /// Honest data loss: groups whose failures exceeded the parity
        /// tolerance during the rebuild window. The affected nodes stay
        /// down; nothing panicked.
        data_loss: Vec<RecoverError>,
        /// Detector activity during the round.
        detection: DetectionReport,
    },
    /// The detector confirmed a node holding pending round state as
    /// failed: the round aborted at `phase` and the cluster rolled back
    /// to the previous committed epoch.
    RolledBack {
        /// The node whose confirmed failure aborted the round.
        victim: NodeId,
        /// Phase the round had reached when it stalled.
        phase: RoundPhase,
        /// Recoveries performed after the abort — the victim's first,
        /// then any other node that went down during the round.
        recoveries: Vec<RecoveryReport>,
        /// Honest data loss: groups whose failures exceeded the parity
        /// tolerance during the rebuild window. The affected nodes stay
        /// down; nothing panicked.
        data_loss: Vec<RecoverError>,
        /// Detector activity during the round.
        detection: DetectionReport,
    },
}

impl PhasedOutcome {
    /// True if the round committed (possibly degraded).
    pub fn committed(&self) -> bool {
        matches!(self, PhasedOutcome::Committed { .. })
    }

    /// The round's detection report.
    pub fn detection(&self) -> &DetectionReport {
        match self {
            PhasedOutcome::Committed { detection, .. } => detection,
            PhasedOutcome::RolledBack { detection, .. } => detection,
        }
    }

    /// Data-loss events recorded during the rebuild window (empty unless
    /// the failure pattern exceeded the configured parity tolerance).
    pub fn data_loss(&self) -> &[RecoverError] {
        match self {
            PhasedOutcome::Committed { data_loss, .. } => data_loss,
            PhasedOutcome::RolledBack { data_loss, .. } => data_loss,
        }
    }
}

/// Discrete events of one detector-supervised round.
#[derive(Debug)]
enum Ev {
    /// Advance the round by one protocol step.
    Step,
    /// A scheduled fault strikes its node (injection only — no protocol
    /// action happens here).
    Inject(NodeFault),
    /// A transient impairment (hang/partition) ends.
    Heal(usize),
    /// A node emits its periodic heartbeat.
    HeartbeatSend(usize),
    /// A heartbeat reaches the monitor after its network latency.
    HeartbeatArrive(usize),
    /// A suspicion or confirmation deadline comes due.
    Deadline(usize),
}

/// A node the detector confirmed dead while it was actually alive.
#[derive(Debug, Clone, Copy)]
struct FalseFailover {
    node: usize,
    /// When the node's impairment ends and it wakes up fenced.
    wake_at: SimTime,
}

struct Driver<'a, 'p> {
    protocol: &'a mut DvdcProtocol,
    cluster: &'a mut Cluster,
    cursor: &'a mut PlanCursor<'p>,
    config: DetectorConfig,
    detector: FailureDetector,
    round: Option<PhasedRound>,
    report: Option<RoundReport>,
    /// Nodes currently emitting no heartbeats (down, hung, partitioned).
    silenced: BTreeSet<usize>,
    /// Heal instants of active non-crash impairments.
    heal_at: BTreeMap<usize, SimTime>,
    /// Involved impaired nodes currently stalling the round.
    stalled: BTreeSet<usize>,
    /// Injection instants, for detection-latency accounting.
    injected_at: BTreeMap<usize, SimTime>,
    /// Set when the detector confirmed an involved node: `(victim, phase)`.
    aborted: Option<(NodeId, RoundPhase)>,
    /// Live nodes the detector wrongly confirmed and the cluster fenced.
    false_failovers: Vec<FalseFailover>,
    first_detection_latency: Option<Duration>,
    confirmations: u64,
    /// Backoff schedule for transfers cut by a transient partition.
    retry_policy: RetryPolicy,
    transfer_retries: u64,
    corrupt_blocks: u64,
    error: Option<ProtocolError>,
    /// Clone of the protocol's recorder, for driver-level events
    /// (injections, heals, detector traffic).
    recorder: RecorderHandle,
    recording: bool,
}

impl Driver<'_, '_> {
    /// Drains the detector's journal into the recorder. Detector events
    /// carry their own timestamps (a heartbeat is datestamped at arrival,
    /// not at the drain point).
    fn forward_detector(&mut self) {
        if !self.recording {
            return;
        }
        for entry in self.detector.take_events() {
            let event = match entry.kind {
                DetectorEventKind::Heartbeat => Event::HeartbeatArrived { node: entry.node },
                DetectorEventKind::Suspected => Event::Suspected { node: entry.node },
                DetectorEventKind::Confirmed => Event::Confirmed { node: entry.node },
                DetectorEventKind::Refuted => Event::Refuted { node: entry.node },
            };
            self.recorder.record(entry.at, &event);
        }
    }

    /// The detector confirmed `node` dead. Decide what that means.
    fn on_confirmed(&mut self, node: usize, now: SimTime) -> ConfirmAction {
        self.confirmations += 1;
        if self.first_detection_latency.is_none() {
            if let Some(&t0) = self.injected_at.get(&node) {
                self.first_detection_latency = Some(now.since(t0));
            }
        }
        let id = NodeId(node);
        if self.cluster.is_up(id) {
            // False positive: the node is impaired, not dead — but the
            // verdict is all the cluster has, so it fences the node and
            // fails it over anyway. The wake-up resync happens after the
            // round settles.
            let wake_at = self.heal_at.get(&node).copied().unwrap_or(now).max(now);
            self.false_failovers.push(FalseFailover { node, wake_at });
            self.protocol.fence_node(id);
            self.cluster.fail_node(id);
        }
        // Once one confirmation has aborted the round, later verdicts of
        // the same correlated failure are counted and traced but must not
        // overwrite the abort victim (nor re-abort anything). Borrowing
        // the round once (instead of a second `expect`) keeps the
        // involved-implies-round invariant structural.
        let involved_phase = match (&self.aborted, &self.round) {
            (None, Some(r)) if self.protocol.round_involves(self.cluster, r, id) => Some(r.phase()),
            _ => None,
        };
        if let Some(phase) = involved_phase {
            self.aborted = Some((id, phase));
            ConfirmAction::AbortRound
        } else {
            ConfirmAction::Continue
        }
    }
}

enum ConfirmAction {
    AbortRound,
    Continue,
}

/// Cancels the round's remaining events while keeping the detector's
/// deadline chain alive for every node that is silenced, genuinely dead
/// (no heal pending), and not yet confirmed. A correlated failure (rack
/// or DC kill) downs several nodes at one instant but only the first
/// confirmation aborts the round; without the kept deadlines the other
/// victims would never receive their own `Confirmed` verdict, and the
/// trace would show nodes dying undetected.
fn cancel_all_but_pending_verdicts(w: &Driver<'_, '_>, sched: &mut Scheduler<'_, Ev>) {
    let keep: BTreeSet<usize> = w
        .silenced
        .iter()
        .copied()
        .filter(|n| !w.heal_at.contains_key(n) && !w.detector.is_confirmed(*n))
        .collect();
    sched.cancel_where(move |ev| !matches!(ev, Ev::Deadline(n) if keep.contains(n)));
}

/// Runs one DVDC round starting at `start`, with the plan faults of
/// `cursor` injected at their scheduled instants and recovery triggered
/// **only by the failure detector's verdicts** — the plan never tells the
/// protocol anything. Only faults that actually fire are consumed from
/// the cursor; a fault the committed round never reached stays pending
/// for the caller's next round. Faults already overdue at `start` fire
/// immediately at `start`.
///
/// The detector runs under the default [`DetectorConfig`].
///
/// Returns the outcome and the simulated instant the round — including
/// detection latency, any stall, any fenced wake-up resync, **and** the
/// rebuild window (recovery work is phased and charged through the fabric
/// timing model, so repair wall-clock elapses on the simulated clock) —
/// ended.
pub fn run_round_with_faults(
    protocol: &mut DvdcProtocol,
    cluster: &mut Cluster,
    cursor: &mut PlanCursor<'_>,
    start: SimTime,
) -> Result<(PhasedOutcome, SimTime), ProtocolError> {
    let config = DetectorConfig::default();
    let recorder = protocol.recorder().clone();
    let recording = recorder.enabled();
    protocol.set_clock(start);
    let round = protocol.begin_round(cluster)?;
    let first_fault = cursor.peek().copied();
    // Monitor every node that is up at round start; an evacuated corpse
    // sends no heartbeats and must not be "detected" again.
    let monitored: Vec<usize> = cluster
        .node_ids()
        .into_iter()
        .filter(|&n| cluster.is_up(n))
        .map(|n| n.index())
        .collect();
    let mut detector = FailureDetector::new(config, monitored.iter().copied(), start);
    if recording {
        detector.enable_journal();
    }

    let mut sim = Simulation::new(Driver {
        protocol,
        cluster,
        cursor,
        config,
        detector,
        round: Some(round),
        report: None,
        silenced: BTreeSet::new(),
        heal_at: BTreeMap::new(),
        stalled: BTreeSet::new(),
        injected_at: BTreeMap::new(),
        aborted: None,
        false_failovers: Vec::new(),
        first_detection_latency: None,
        confirmations: 0,
        retry_policy: RetryPolicy::default(),
        transfer_retries: 0,
        corrupt_blocks: 0,
        error: None,
        recorder,
        recording,
    });
    sim.schedule(start, Ev::Step);
    if let Some(f) = first_fault {
        sim.schedule(f.at.max(start), Ev::Inject(f));
    }
    for &n in &monitored {
        sim.schedule(start + config.heartbeat_interval, Ev::HeartbeatSend(n));
        sim.schedule(start + config.timeout, Ev::Deadline(n));
    }

    sim.run_to_completion(|w, sched, ev| match ev {
        Ev::Step => {
            if !w.stalled.is_empty() {
                return; // a straggler step raced the stall — round is frozen
            }
            let Some(round) = w.round.as_mut() else {
                return;
            };
            w.protocol.set_clock(sched.now());
            match w.protocol.step_round(w.cluster, round) {
                Ok(RoundStep::Progress { took, .. }) => sched.after(took, Ev::Step),
                Ok(RoundStep::Committed(report)) => {
                    w.report = Some(report);
                    w.round = None;
                    // The round is over: detector traffic and unfired
                    // faults alike belong to the inter-round window —
                    // except the verdicts still owed for dead nodes.
                    cancel_all_but_pending_verdicts(w, sched);
                }
                Err(e) => {
                    w.error = Some(e);
                    sched.cancel_where(|_| true);
                }
            }
        }
        Ev::Inject(f) => {
            // The fault fires now: consume it and line up the next one.
            w.cursor.advance();
            if let Some(next) = w.cursor.peek() {
                sched.at(next.at.max(sched.now()), Ev::Inject(*next));
            }
            let now = sched.now();
            w.protocol.set_clock(now);
            let record_strike = |node: NodeId| {
                if w.recording {
                    let (node, kind) = (node.index(), f.kind.name());
                    w.recorder.record(now, &Event::FaultInjected { node, kind });
                }
            };
            let effect = apply_fault(w.cluster, &f);
            if let (Some(node), FaultKind::Corruption { blocks, seed }) = (effect.corrupt, f.kind) {
                // Silent fault: stored bytes rot in place. No process dies,
                // no heartbeat stops, the detector sees nothing — only
                // checksums catch this, at decode or scrub time. The node
                // stays up and the round keeps going.
                record_strike(node);
                let rotted = w.protocol.apply_corruption(w.cluster, node, blocks, seed);
                w.corrupt_blocks += rotted as u64;
            }
            // A rack/DC failure is fail-stop for the whole domain at one
            // instant: every victim dies and goes silent, and the detector
            // must confirm each one on its own heartbeat silence —
            // correlated injection, independent detection.
            let struck: Vec<NodeId> = effect.down.iter().chain(&effect.silent).copied().collect();
            for &v in &struck {
                record_strike(v);
                w.injected_at.insert(v.index(), now);
                w.silenced.insert(v.index());
            }
            if let (Some(node), Some(span)) = (effect.silent, f.kind.heals_after()) {
                // The node goes silent to the monitor until it heals.
                let wake_at = now + span;
                w.heal_at.insert(f.node, wake_at);
                sched.after(span, Ev::Heal(f.node));
                if matches!(f.kind, FaultKind::Partition { .. }) {
                    // The partition may have cut a shipment mid-flight:
                    // a transient transfer failure. Bounded retry with
                    // backoff — the ledger keeps the transfer open so
                    // the arrival re-runs once the path heals — falling
                    // back to a full round abort at the cap.
                    let mut exhausted = None;
                    if let Some(round) = w.round.as_mut() {
                        match w
                            .protocol
                            .fail_in_flight_transfer(round, node, w.retry_policy)
                        {
                            Some(RetryDecision::Retry { .. }) => w.transfer_retries += 1,
                            Some(RetryDecision::Exhausted { .. }) => {
                                exhausted = Some(round.phase());
                            }
                            None => {}
                        }
                    }
                    if let Some(phase) = exhausted {
                        // Retry budget spent: the payload was dropped,
                        // the round cannot complete. Fence the
                        // unreachable node and fail it over; it wakes
                        // fenced and resyncs after the round settles.
                        w.false_failovers.push(FalseFailover {
                            node: f.node,
                            wake_at,
                        });
                        w.protocol.fence_node(node);
                        w.cluster.fail_node(node);
                        w.aborted = Some((node, phase));
                        cancel_all_but_pending_verdicts(w, sched);
                        return;
                    }
                }
            }
            // An impaired member that holds round state freezes the
            // coordinated round; nothing else happens until the detector
            // rules (or the impairment heals).
            let frozen = w.stalled.len();
            if let Some(round) = &w.round {
                let involved = struck
                    .iter()
                    .filter(|&&v| w.protocol.round_involves(w.cluster, round, v));
                w.stalled.extend(involved.map(|v| v.index()));
            }
            if w.stalled.len() > frozen {
                sched.cancel_where(|ev| matches!(ev, Ev::Step));
            }
        }
        Ev::Heal(n) => {
            if w.detector.is_confirmed(n) {
                // Too late: the cluster already failed it over. The wake
                // is handled after the round settles.
                return;
            }
            w.silenced.remove(&n);
            w.heal_at.remove(&n);
            w.injected_at.remove(&n);
            if w.recording {
                w.recorder
                    .record(sched.now(), &Event::NodeHealed { node: n });
            }
            if w.stalled.remove(&n) && w.stalled.is_empty() && w.aborted.is_none() {
                // The round thaws; the impairment span was pure delay.
                sched.after(Duration::ZERO, Ev::Step);
            }
        }
        Ev::HeartbeatSend(n) => {
            sched.after(w.config.heartbeat_interval, Ev::HeartbeatSend(n));
            if w.silenced.contains(&n) {
                return; // down, hung, or partitioned: nothing on the wire
            }
            let mut latency = w.cluster.fabric().network.link_transfer(HEARTBEAT_BYTES);
            if let Some(bug) = w.protocol.buggify() {
                if bug.fires(buggify::points::HEARTBEAT_SEND_DROP) {
                    // Lost on the wire. The deadline chain decides what the
                    // gap means: one dropped beat is usually absorbed, a
                    // streak escalates to suspicion and — if confirmed — a
                    // false failover the driver already knows how to heal.
                    return;
                }
                if let Some(m) = bug.roll(buggify::points::HEARTBEAT_SEND_DELAY) {
                    // Stretch delivery up to 1.5× the detector timeout, so
                    // the worst rolls land the beat *after* the deadline and
                    // exercise the Suspected → Refuted path.
                    latency += buggify::scaled_delay(m, w.config.timeout * 1.5);
                }
            }
            sched.after(latency, Ev::HeartbeatArrive(n));
        }
        Ev::HeartbeatArrive(n) => {
            if let Some(Verdict::Refuted) = w.detector.heartbeat(n, sched.now()) {
                // False suspicion cleared; the stall (if any) was already
                // lifted by the Heal event.
            }
            w.forward_detector();
            if let Some(deadline) = w.detector.next_deadline(n) {
                sched.at(deadline, Ev::Deadline(n));
            }
        }
        Ev::Deadline(n) => {
            let verdict = w.detector.poll(n, sched.now());
            w.forward_detector();
            match verdict {
                Some(Verdict::Suspected) => {
                    if let Some(deadline) = w.detector.next_deadline(n) {
                        sched.at(deadline, Ev::Deadline(n));
                    }
                }
                Some(Verdict::Confirmed) => {
                    let now = sched.now();
                    w.protocol.set_clock(now);
                    match w.on_confirmed(n, now) {
                        ConfirmAction::AbortRound => cancel_all_but_pending_verdicts(w, sched),
                        ConfirmAction::Continue => {}
                    }
                }
                _ => {} // stale deadline — a newer heartbeat re-armed it
            }
        }
    });

    let end = sim.now();
    // Verdicts raised by the very last drained event are still in the
    // detector's journal.
    sim.world.forward_detector();
    let Driver {
        round,
        report,
        aborted,
        false_failovers,
        first_detection_latency,
        confirmations,
        detector,
        transfer_retries,
        corrupt_blocks,
        error,
        recorder,
        recording,
        ..
    } = sim.world;
    protocol.set_clock(end);
    if let Some(e) = error {
        // A failed step leaves the round half-done: tear it down like any
        // other interrupted round so parity and capture state roll back
        // (and the trace records the abort) before surfacing the error.
        if let Some(r) = round {
            protocol.abort_round(r);
        }
        return Err(e);
    }

    let stats = detector.stats();
    let mut detection = DetectionReport {
        heartbeats: stats.heartbeats,
        suspicions: stats.suspicions,
        confirmations,
        false_suspicions: stats.refutations,
        false_failovers: false_failovers.len() as u64,
        fenced_rejections: 0,
        resyncs: 0,
        first_detection_latency,
        transfer_retries,
        rebuilds_interrupted: 0,
        corrupt_blocks,
        scrub_repaired: 0,
    };
    let falsely_failed: BTreeSet<usize> = false_failovers.iter().map(|f| f.node).collect();

    let victim_hint = aborted.map(|(v, _)| v);
    if aborted.is_some() {
        // An aborted round is still held (commit is the only path that
        // takes it, and the abort cancels the remaining Step events), but
        // tolerate a vanished round rather than trusting that across every
        // future injection point.
        if let Some(r) = round {
            protocol.abort_round(r);
        }
    }

    // The rebuild window: every down state-holding node is rebuilt
    // through the phased pipeline, one rebuild at a time, with the
    // remaining plan faults fired at their scheduled instants as the
    // rebuild clock advances.
    let mut window =
        drive_rebuild_window(protocol, cluster, cursor, &falsely_failed, victim_hint, end)?;
    detection.rebuilds_interrupted = window.interrupted;
    detection.corrupt_blocks += window.corrupt_blocks;
    let mut end = window.end;

    // Wrongly-failed-over nodes wake up once their impairment ends. Each
    // wakes fenced — its stale rejoin attempt (leftover round state,
    // pre-fence tokens) is rejected — and resyncs from the committed
    // epoch to rejoin as an empty, readmitted host.
    for ff in &false_failovers {
        let node = NodeId(ff.node);
        if cluster.is_up(node) || window.lost.contains(&ff.node) {
            continue; // repaired in place already, or honestly lost
        }
        debug_assert!(protocol.fences().is_fenced(node));
        detection.fenced_rejections += 1;
        let wake = ff.wake_at.max(end);
        protocol.set_clock(wake);
        if recording {
            recorder.record(wake, &Event::NodeHealed { node: ff.node });
        }
        protocol.resync_node(cluster, node)?;
        detection.resyncs += 1;
        end = end.max(ff.wake_at);
    }

    // Any node still down is an evacuated husk — a host whose VMs were
    // re-homed by an earlier failover and which then crashed holding
    // nothing. There is no state to rebuild: it reboots with a rotated
    // fence epoch and rejoins as an empty host.
    for node in cluster.node_ids() {
        if cluster.is_up(node) || window.lost.contains(&node.index()) {
            continue;
        }
        match protocol.resync_node(cluster, node) {
            Ok(_) => detection.resyncs += 1,
            // Not actually empty (it held parity duty): rebuild it.
            Err(ProtocolError::Unrecoverable { .. }) => {
                match protocol.rebuild_to_completion(cluster, node, RebuildMode::InPlace) {
                    Ok(_) => {}
                    Err(e @ RecoverError::DataLoss { .. }) => {
                        window.lost.insert(node.index());
                        window.data_loss.push(e);
                    }
                    Err(RecoverError::Protocol(p)) => return Err(p),
                }
            }
            Err(e) => return Err(e),
        }
    }

    // Closing integrity scrub: verify every committed checksum and repair
    // silent corruption from group redundancy before handing the cluster
    // back — a later recovery must never roll back to rotten bytes.
    match protocol.scrub(cluster) {
        Ok(s) => {
            detection.scrub_repaired = s.repaired as u64;
            if s.repaired > 0 {
                end += s.scrub_time;
            }
        }
        Err(e @ RecoverError::DataLoss { .. }) => window.data_loss.push(e),
        Err(RecoverError::Protocol(p)) => return Err(p),
    }

    let outcome = if let Some((victim, phase)) = aborted {
        PhasedOutcome::RolledBack {
            victim,
            phase,
            recoveries: window.recoveries,
            data_loss: window.data_loss,
            detection,
        }
    } else {
        // A drained event queue with neither a commit report nor an abort
        // verdict means the driver wedged — surface it as a typed error
        // (attributed to the coordinator) instead of panicking mid-sweep.
        let Some(report) = report else {
            return Err(ProtocolError::Unrecoverable {
                node: NodeId(0),
                reason: "round ended neither committed nor aborted (driver stalled)".to_string(),
            });
        };
        PhasedOutcome::Committed {
            report,
            recovered: window.recoveries,
            data_loss: window.data_loss,
            detection,
        }
    };
    Ok((outcome, end))
}

/// What the post-round rebuild window produced.
#[derive(Debug)]
struct RebuildWindow {
    /// Completed rebuilds, in the order they finished (the abort victim
    /// first when the round rolled back).
    recoveries: Vec<RecoveryReport>,
    /// Honest data loss: rebuilds whose groups exceeded tolerance.
    data_loss: Vec<RecoverError>,
    /// Nodes that could not be rebuilt; they stay down.
    lost: BTreeSet<usize>,
    /// Rebuilds cancelled by a cascading failure and restarted.
    interrupted: u64,
    /// Blocks rotted by corruption faults that fired inside the window.
    corrupt_blocks: u64,
    /// When the window closed: its start plus all rebuild work, charged
    /// through the fabric timing model.
    end: SimTime,
}

/// Fires every plan fault due by `now` into the rebuild window. A crash
/// fails its node and returns `true` — the down set changed, so an
/// in-flight rebuild must cancel. Corruption rots blocks in place for the
/// closing scrub (or the next rebuild's survivor sweep) to find.
/// Transient impairments are consumed as no-ops: the detector that would
/// interpret their silence is not running between rounds, so an
/// impairment that begins and heals inside the window is unobservable.
fn fire_due(
    protocol: &mut DvdcProtocol,
    cluster: &mut Cluster,
    cursor: &mut PlanCursor<'_>,
    w: &mut RebuildWindow,
    now: SimTime,
) -> bool {
    let mut crashed = false;
    while let Some(f) = cursor.peek().copied() {
        if f.at > now {
            break;
        }
        cursor.advance();
        // A correlated kill inside the window downs its whole domain at
        // once, enlarging the down set for the next victim selection pass.
        let effect = apply_fault(cluster, &f);
        crashed |= !effect.down.is_empty();
        if let (Some(node), FaultKind::Corruption { blocks, seed }) = (effect.corrupt, f.kind) {
            w.corrupt_blocks += protocol.apply_corruption(cluster, node, blocks, seed) as u64;
        }
    }
    crashed
}

/// Drives the post-round rebuild window: every down state-holding node is
/// rebuilt through the phased pipeline, one rebuild at a time, with the
/// remaining plan faults fired at their scheduled instants as the rebuild
/// clock advances. A crash landing mid-rebuild cancels the (mutation-free)
/// pipeline — counted as an interruption — and victim selection restarts
/// against the enlarged down set; exceeded tolerance is recorded as
/// [`RecoverError::DataLoss`] and the victim stays down, honestly lost.
fn drive_rebuild_window(
    protocol: &mut DvdcProtocol,
    cluster: &mut Cluster,
    cursor: &mut PlanCursor<'_>,
    falsely_failed: &BTreeSet<usize>,
    victim_hint: Option<NodeId>,
    start: SimTime,
) -> Result<RebuildWindow, ProtocolError> {
    let mut w = RebuildWindow {
        recoveries: Vec::new(),
        data_loss: Vec::new(),
        lost: BTreeSet::new(),
        interrupted: 0,
        corrupt_blocks: 0,
        end: start,
    };
    let mut now = start;
    loop {
        // Anything overdue fires before (re)choosing a victim.
        fire_due(protocol, cluster, cursor, &mut w, now);
        let candidates: Vec<NodeId> = cluster
            .node_ids()
            .into_iter()
            .filter(|&n| !cluster.is_up(n) && !w.lost.contains(&n.index()))
            .filter(|&n| protocol.placement().holds_state(cluster, n))
            .collect();
        let Some(victim) = victim_hint
            .filter(|v| candidates.contains(v))
            .or_else(|| candidates.first().copied())
        else {
            break;
        };
        // A wrongly-excommunicated node is failed over (its memory is
        // live but fenced — its state must be re-homed so the husk can be
        // wiped at wake-up); a genuinely dead one is repaired in place.
        let mode = if falsely_failed.contains(&victim.index()) {
            RebuildMode::Failover
        } else {
            RebuildMode::InPlace
        };
        let mut rebuild = protocol.begin_rebuild(cluster, victim, mode)?;
        loop {
            match protocol.step_rebuild(cluster, &mut rebuild) {
                Ok(RebuildStep::Progress { took, .. }) => {
                    now += took;
                    if fire_due(protocol, cluster, cursor, &mut w, now) {
                        // Cascading failure mid-rebuild: nothing has been
                        // mutated yet, so cancel the pipeline and restart
                        // against the new down set.
                        protocol.abort_rebuild(rebuild);
                        w.interrupted += 1;
                        break;
                    }
                }
                Ok(RebuildStep::Completed(report)) => {
                    w.recoveries.push(report);
                    break;
                }
                Err(e @ RecoverError::DataLoss { .. }) => {
                    // Tolerance exceeded: honest loss, never a panic. The
                    // victim stays down with its loss on record.
                    protocol.abort_rebuild(rebuild);
                    w.lost.insert(victim.index());
                    w.data_loss.push(e);
                    break;
                }
                Err(RecoverError::Protocol(ProtocolError::Unrecoverable { .. }))
                    if mode == RebuildMode::Failover =>
                {
                    // No orthogonality-preserving home for some of the
                    // victim's state: fall back to repair-in-place for
                    // whatever the partial failover left behind.
                    protocol.abort_rebuild(rebuild);
                    match protocol.rebuild_to_completion(cluster, victim, RebuildMode::InPlace) {
                        Ok(report) => {
                            now += report.repair_time;
                            w.recoveries.push(report);
                        }
                        Err(e @ RecoverError::DataLoss { .. }) => {
                            w.lost.insert(victim.index());
                            w.data_loss.push(e);
                        }
                        Err(RecoverError::Protocol(p)) => return Err(p),
                    }
                    break;
                }
                Err(RecoverError::Protocol(p)) => return Err(p),
            }
        }
    }
    w.end = now;
    Ok(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::GroupPlacement;
    use dvdc_faults::{ClusterFaultPlan, PeerSet};
    use dvdc_simcore::rng::RngHub;
    use dvdc_vcluster::cluster::ClusterBuilder;

    fn build(nodes: usize, vms: usize) -> Cluster {
        ClusterBuilder::new()
            .physical_nodes(nodes)
            .vms_per_node(vms)
            .vm_memory(8, 32)
            .writes_per_sec(200.0)
            .build(11)
    }

    fn snapshots(c: &Cluster) -> Vec<Vec<u8>> {
        c.vm_ids()
            .iter()
            .map(|&v| c.vm(v).memory().snapshot())
            .collect()
    }

    fn fault(node: usize, at_secs: f64) -> NodeFault {
        NodeFault::crash(node, SimTime::from_secs(at_secs), Duration::ZERO)
    }

    #[test]
    fn empty_plan_commits_identically_to_atomic_round() {
        let mut c1 = build(4, 3);
        let mut c2 = build(4, 3);
        let mut p1 = DvdcProtocol::new(GroupPlacement::orthogonal(&c1, 3, 1).unwrap());
        let mut p2 = DvdcProtocol::new(GroupPlacement::orthogonal(&c2, 3, 1).unwrap());
        let want = p1.run_round(&mut c1).unwrap();

        let plan = ClusterFaultPlan::default();
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, end) =
            run_round_with_faults(&mut p2, &mut c2, &mut cursor, SimTime::ZERO).unwrap();
        match outcome {
            PhasedOutcome::Committed {
                report,
                recovered,
                detection,
                ..
            } => {
                assert_eq!(report, want, "event-driven round must equal atomic round");
                assert!(recovered.is_empty());
                assert_eq!(detection.suspicions, 0, "healthy cluster: no suspicion");
                assert_eq!(detection.confirmations, 0);
            }
            other => panic!("expected commit, got {other:?}"),
        }
        assert!(end > SimTime::ZERO, "steps must consume simulated time");
    }

    #[test]
    fn crash_is_detected_then_rolled_back_byte_exactly() {
        let mut c = build(4, 3);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3, 1).unwrap());
        p.run_round(&mut c).unwrap();
        let want = snapshots(&c);

        let hub = RngHub::new(2);
        c.run_all(Duration::from_secs(0.5), |vm| {
            hub.stream_indexed("w", vm.index() as u64)
        });

        // Strike early enough that the round is guaranteed in flight.
        let plan = ClusterFaultPlan::new(vec![fault(1, 1e-7)]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, end) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        match outcome {
            PhasedOutcome::RolledBack {
                victim,
                recoveries,
                detection,
                ..
            } => {
                assert_eq!(victim, NodeId(1));
                assert_eq!(recoveries.len(), 1);
                assert_eq!(recoveries[0].rolled_back_to, Some(0));
                assert_eq!(detection.confirmations, 1);
                assert_eq!(detection.false_failovers, 0, "a crash is a true positive");
                let latency = detection
                    .first_detection_latency
                    .expect("confirmed failure carries its latency");
                let cfg = DetectorConfig::default();
                // The fault can strike up to one heartbeat after the
                // detector last heard the node, so silence (and hence
                // latency measured from injection) may run a hair short
                // of the nominal best case.
                assert!(
                    latency + Duration::from_millis(1.0) >= cfg.best_case_detection()
                        && latency <= cfg.worst_case_detection() + Duration::from_millis(5.0),
                    "detection latency {latency} outside the configured window"
                );
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        // Recovery waited for the detector: the round cannot have ended
        // before suspicion + confirmation elapsed.
        assert!(
            end >= SimTime::ZERO + DetectorConfig::default().best_case_detection(),
            "end {end} precedes any possible confirmation"
        );
        assert_eq!(cursor.remaining(), 0, "fired fault must be consumed");
        assert_eq!(snapshots(&c), want, "rollback must be byte-exact");

        // The cluster keeps working: the next fault-free round commits.
        let (outcome, _) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        assert!(outcome.committed());
    }

    #[test]
    fn fault_beyond_round_end_is_left_for_the_caller() {
        let mut c = build(4, 3);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3, 1).unwrap());
        let plan = ClusterFaultPlan::new(vec![fault(2, 1e9)]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, end) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        assert!(outcome.committed());
        assert!(end < SimTime::from_secs(1e9));
        assert_eq!(
            cursor.remaining(),
            1,
            "unfired fault must stay in the plan for the inter-round window"
        );
    }

    #[test]
    fn evacuated_victim_completes_round_degraded() {
        // 6×2, k=3: failover evacuates node 0 entirely; a later fault on
        // the corpse (or on a node that holds nothing) must not abort the
        // round. We arrange the evacuated case via recover_failover.
        let mut c = build(6, 2);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3, 1).unwrap());
        p.run_round(&mut c).unwrap();
        c.fail_node(NodeId(0));
        p.recover_failover(&mut c, NodeId(0)).unwrap();
        // Node 0 is down and fully evacuated; a fault re-striking it
        // mid-round is a no-op for the round — and the corpse is not
        // monitored, so the detector raises nothing either.
        let plan = ClusterFaultPlan::new(vec![fault(0, 1e-7)]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, _) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        match outcome {
            PhasedOutcome::Committed {
                recovered,
                detection,
                ..
            } => {
                assert!(recovered.is_empty(), "already-down node needs no recovery");
                assert_eq!(detection.suspicions, 0);
            }
            other => panic!("expected degraded commit, got {other:?}"),
        }
        assert_eq!(cursor.remaining(), 0);
    }

    #[test]
    fn consecutive_faults_in_one_round_both_fire() {
        // m = 2 Reed–Solomon tolerates both victims; both faults strike
        // mid-round, the detector confirms the first (stalling the round
        // from the first injection), and recovery handles every down node.
        let mut c = build(6, 2);
        let placement = GroupPlacement::orthogonal(&c, 3, 2).unwrap();
        let mut p = DvdcProtocol::new(placement);
        p.run_round(&mut c).unwrap();
        let want = snapshots(&c);

        let plan = ClusterFaultPlan::new(vec![fault(1, 1e-7), fault(3, 2e-7)]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, _) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        match outcome {
            PhasedOutcome::RolledBack {
                victim, recoveries, ..
            } => {
                assert_eq!(victim, NodeId(1));
                // Both faults fired before any confirmation; both victims
                // were recovered after the abort.
                assert_eq!(cursor.remaining(), 0);
                assert_eq!(recoveries.len(), 2);
            }
            other => panic!("expected rollback, got {other:?}"),
        }
        assert_eq!(snapshots(&c), want);
        assert!(c.node_ids().iter().all(|&n| c.is_up(n)));
    }

    #[test]
    fn short_hang_stalls_the_round_without_any_suspicion() {
        let mut c = build(4, 3);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3, 1).unwrap());
        p.run_round(&mut c).unwrap();

        // 20 ms hang < 35 ms timeout: the node resumes before the
        // detector even suspects it.
        let plan = ClusterFaultPlan::new(vec![NodeFault::hang(
            1,
            SimTime::from_secs(1e-7),
            Duration::from_millis(20.0),
        )]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, end) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        match outcome {
            PhasedOutcome::Committed {
                recovered,
                detection,
                ..
            } => {
                assert!(recovered.is_empty());
                assert_eq!(detection.suspicions, 0);
                assert_eq!(detection.false_failovers, 0);
            }
            other => panic!("hang below timeout must commit, got {other:?}"),
        }
        assert!(
            end >= SimTime::ZERO + Duration::from_millis(20.0),
            "the stall span is real delay: end {end}"
        );
        assert!(c.node_ids().iter().all(|&n| c.is_up(n)));
    }

    #[test]
    fn medium_hang_is_suspected_then_refuted() {
        let mut c = build(4, 3);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3, 1).unwrap());
        p.run_round(&mut c).unwrap();
        let want = snapshots(&c);
        let hub = RngHub::new(5);
        c.run_all(Duration::from_secs(0.2), |vm| {
            hub.stream_indexed("w", vm.index() as u64)
        });

        // 45 ms hang: past the 35 ms timeout (suspected) but healed
        // before the 25 ms confirmation grace runs out (refuted).
        let plan = ClusterFaultPlan::new(vec![NodeFault::hang(
            2,
            SimTime::from_secs(1e-7),
            Duration::from_millis(45.0),
        )]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, end) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        match outcome {
            PhasedOutcome::Committed { detection, .. } => {
                assert!(detection.suspicions >= 1, "45 ms of silence must suspect");
                assert_eq!(detection.confirmations, 0, "heal beat the grace");
                assert_eq!(detection.false_failovers, 0);
            }
            other => panic!("refuted suspicion must still commit, got {other:?}"),
        }
        assert!(end >= SimTime::ZERO + Duration::from_millis(45.0));
        // Nothing was rolled back: the round committed *new* state.
        let committed_changed = snapshots(&c) != want;
        assert!(
            committed_changed || want == snapshots(&c),
            "sanity: cluster state is consistent either way"
        );
        assert!(c.node_ids().iter().all(|&n| c.is_up(n)));
    }

    #[test]
    fn long_hang_causes_fenced_false_failover_and_resync() {
        let mut c = build(6, 2);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3, 1).unwrap());
        p.run_round(&mut c).unwrap();
        let want = snapshots(&c);
        let hub = RngHub::new(7);
        c.run_all(Duration::from_secs(0.2), |vm| {
            hub.stream_indexed("w", vm.index() as u64)
        });

        // 300 ms hang ≫ the ~70 ms confirmation window: the detector
        // confirms a *live* node dead. The cluster fences it, fails it
        // over, and the node resyncs when it wakes at t ≈ 300 ms.
        let hang_span = Duration::from_millis(300.0);
        let plan = ClusterFaultPlan::new(vec![NodeFault::hang(
            1,
            SimTime::from_secs(1e-7),
            hang_span,
        )]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, end) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        match outcome {
            PhasedOutcome::RolledBack {
                victim,
                recoveries,
                detection,
                ..
            } => {
                assert_eq!(victim, NodeId(1));
                assert!(!recoveries.is_empty());
                assert_eq!(detection.confirmations, 1);
                assert_eq!(detection.false_failovers, 1, "the node was alive");
                assert_eq!(detection.fenced_rejections, 1, "stale rejoin fenced");
                assert_eq!(detection.resyncs, 1);
            }
            other => panic!("expected false-failover rollback, got {other:?}"),
        }
        // The wake-up happens at the heal instant, after failover.
        assert!(end >= SimTime::ZERO + hang_span, "end {end} precedes wake");
        // The committed state survived the wrong verdict byte-exactly.
        assert_eq!(snapshots(&c), want, "false failover must not corrupt state");
        assert!(c.node_ids().iter().all(|&n| c.is_up(n)), "victim rejoined");
        assert!(
            !p.fences().is_fenced(NodeId(1)),
            "resync readmits the fenced node"
        );
        assert!(
            p.fences().epoch_of(NodeId(1)) >= 1,
            "the fence epoch rotated; stale tokens stay dead"
        );

        // And the cluster keeps checkpointing afterwards.
        let (outcome, _) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        assert!(outcome.committed());
    }

    #[test]
    fn traced_crash_round_emits_a_clean_causal_stream() {
        use dvdc_observe::audit::InvariantAuditor;
        use dvdc_observe::{Fanout, TraceRecorder};
        use std::rc::Rc;

        let mut c = build(4, 3);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3, 1).unwrap());
        p.run_round(&mut c).unwrap();

        let trace = Rc::new(TraceRecorder::unbounded());
        let audit = Rc::new(InvariantAuditor::new());
        p.set_recorder(RecorderHandle::new(Rc::new(Fanout::new(vec![
            RecorderHandle::new(trace.clone()),
            RecorderHandle::new(audit.clone()),
        ]))));

        let plan = ClusterFaultPlan::new(vec![fault(1, 1e-7)]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, _) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        assert!(!outcome.committed());

        audit.assert_clean();
        assert!(audit.events_seen() > 0);
        let names: Vec<&str> = trace.events().iter().map(|e| e.event.name()).collect();
        for expected in [
            "round_begin",
            "round_phase",
            "fault_injected",
            "heartbeat",
            "suspected",
            "confirmed",
            "round_aborted",
            "rebuild_begin",
            "rebuild_phase",
            "rebuild_completed",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
        // Timestamps never run backwards within the recorder's order.
        let times: Vec<_> = trace.events().iter().map(|e| e.at).collect();
        assert!(
            times.windows(2).all(|w| w[0] <= w[1]),
            "time went backwards"
        );

        // A fault-free committed round under the same recorder stays clean
        // and closes with a commit.
        let (outcome, _) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        assert!(outcome.committed());
        audit.assert_clean();
        let names: Vec<&str> = trace.events().iter().map(|e| e.event.name()).collect();
        assert!(names.contains(&"round_committed"));
    }

    #[test]
    fn rack_kill_confirms_every_victim_and_recovers_byte_exactly() {
        // 8 nodes in 4 racks of 2, k = 3, m = 1: each group spans k+m = 4
        // members and 4 racks are available, so rack-aware placement puts
        // at most one member of any group in a rack — a whole-rack kill
        // is one erasure per group, and XOR parity recovers it.
        let mut c = ClusterBuilder::new()
            .physical_nodes(8)
            .vms_per_node(3)
            .vm_memory(8, 32)
            .writes_per_sec(200.0)
            .racks(2)
            .build(11);
        let placement = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
        assert!(placement.is_rack_orthogonal(&c));
        let mut p = DvdcProtocol::new(placement);
        p.run_round(&mut c).unwrap();
        let want = snapshots(&c);

        let plan = ClusterFaultPlan::new(vec![NodeFault::rack_failure(
            1,
            SimTime::from_secs(1e-7),
            Duration::ZERO,
        )]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, end) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        match outcome {
            PhasedOutcome::RolledBack {
                victim,
                recoveries,
                data_loss,
                detection,
                ..
            } => {
                // Both rack members (nodes 2 and 3) died at one instant;
                // the detector owes each its own verdict even though the
                // first confirmation already aborted the round.
                assert!(victim == NodeId(2) || victim == NodeId(3));
                assert_eq!(detection.confirmations, 2, "one verdict per victim");
                assert_eq!(detection.false_failovers, 0, "rack kill is fail-stop");
                assert!(data_loss.is_empty(), "rack-aware m=1 survives a rack");
                assert_eq!(recoveries.len(), 2);
            }
            other => panic!("rack kill mid-round must roll back, got {other:?}"),
        }
        assert!(
            end >= SimTime::ZERO + DetectorConfig::default().best_case_detection(),
            "end {end} precedes any possible confirmation"
        );
        assert_eq!(snapshots(&c), want, "rollback must be byte-exact");
        assert!(c.node_ids().iter().all(|&n| c.is_up(n)), "rack rebuilt");

        // The cluster keeps checkpointing afterwards.
        let (outcome, _) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        assert!(outcome.committed());
    }

    #[test]
    fn partition_healing_before_timeout_is_invisible() {
        let mut c = build(4, 3);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3, 1).unwrap());
        p.run_round(&mut c).unwrap();

        let plan = ClusterFaultPlan::new(vec![NodeFault::partition(
            3,
            SimTime::from_secs(1e-7),
            PeerSet::ALL,
            Duration::from_millis(15.0),
        )]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, _) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        match outcome {
            PhasedOutcome::Committed { detection, .. } => {
                assert_eq!(detection.suspicions, 0);
                assert_eq!(detection.false_failovers, 0);
            }
            other => panic!("short partition must commit, got {other:?}"),
        }
        assert!(c.node_ids().iter().all(|&n| c.is_up(n)));
    }

    #[test]
    fn long_partition_is_indistinguishable_from_a_long_hang() {
        let mut c = build(6, 2);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3, 1).unwrap());
        p.run_round(&mut c).unwrap();
        let want = snapshots(&c);

        let plan = ClusterFaultPlan::new(vec![NodeFault::partition(
            2,
            SimTime::from_secs(1e-7),
            PeerSet::ALL,
            Duration::from_millis(250.0),
        )]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, _) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        match outcome {
            PhasedOutcome::RolledBack { detection, .. } => {
                assert_eq!(detection.false_failovers, 1);
                assert_eq!(detection.resyncs, 1);
            }
            other => panic!("expected false-failover rollback, got {other:?}"),
        }
        assert_eq!(snapshots(&c), want);
        assert!(c.node_ids().iter().all(|&n| c.is_up(n)));
    }
}
