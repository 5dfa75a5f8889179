//! In-band failure detection: heartbeats, timeout-based suspicion, and
//! the verdicts that drive recovery.
//!
//! The DVDC paper (like most checkpoint/recovery literature) assumes an
//! oracle announces failures; real virtualized clusters — the setting of
//! ReHype and of Kedia et al.'s resilient cloud on commodity hardware —
//! must *detect* them through silence, and must stay correct when the
//! detector is wrong (a hung or partitioned node looks exactly like a
//! crashed one). This module is the detector's pure state machine:
//!
//! * every monitored node is expected to heartbeat at a configured
//!   interval (the transport — who schedules sends, what latency they
//!   pay — belongs to the event-driven executor, not here);
//! * a node silent past `timeout` since its last heartbeat becomes
//!   [`Verdict::Suspected`];
//! * a suspected node that heartbeats again is [`Verdict::Refuted`]
//!   (a *false suspicion* — the node was alive all along);
//! * a suspicion that survives `confirm_grace` becomes
//!   [`Verdict::Confirmed`] — the one verdict that may trigger failover;
//! * a caller that *knows* the node's process is gone (its port refuses)
//!   raises the suspicion at once, and it stands one heartbeat interval.
//!
//! The two-stage deadline (suspect, then confirm) is the discrete,
//! deterministic cousin of φ-accrual detection: the suspicion threshold
//! is the low-φ alarm, the confirmation grace the high-φ action level.
//! The detector never learns ground truth; callers who *do* know it (the
//! simulation harness) classify confirmations of live nodes as false
//! failovers and must fence the node before it can rejoin.

use std::collections::BTreeMap;

use dvdc_simcore::time::{Duration, SimTime};

/// Tuning knobs of the deadline detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// How often each monitored node sends a heartbeat.
    pub heartbeat_interval: Duration,
    /// Silence span after the last heard heartbeat that triggers
    /// suspicion. Must exceed `heartbeat_interval` (plus expected network
    /// latency) or every node is suspected between its own heartbeats.
    pub timeout: Duration,
    /// Extra grace a suspicion must survive un-refuted before it is
    /// confirmed and recovery may begin.
    pub confirm_grace: Duration,
}

impl Default for DetectorConfig {
    /// 10 ms heartbeats, suspicion after 35 ms of silence, confirmation
    /// 25 ms later — a LAN-scale profile: fast enough that detection
    /// latency (≤ ~70 ms) stays small next to recovery work, slow enough
    /// that one delayed heartbeat does not trip it.
    fn default() -> Self {
        DetectorConfig {
            heartbeat_interval: Duration::from_millis(10.0),
            timeout: Duration::from_millis(35.0),
            confirm_grace: Duration::from_millis(25.0),
        }
    }
}

impl DetectorConfig {
    /// Builds a config from millisecond knobs — the form the real
    /// deployment (`dvdc-node` flags) speaks, where sim time is mapped
    /// onto the wall clock.
    pub fn from_millis(heartbeat_interval: f64, timeout: f64, confirm_grace: f64) -> Self {
        DetectorConfig {
            heartbeat_interval: Duration::from_millis(heartbeat_interval),
            timeout: Duration::from_millis(timeout),
            confirm_grace: Duration::from_millis(confirm_grace),
        }
    }

    /// Worst-case span from a node going silent to confirmation, assuming
    /// the last heartbeat landed just before the fault: one full interval
    /// of undetectable silence, then the timeout, then the grace.
    pub fn worst_case_detection(&self) -> Duration {
        self.heartbeat_interval + self.timeout + self.confirm_grace
    }

    /// Best-case time-to-confirmation by the timers alone (fault strikes as a
    /// heartbeat is heard); [`FailureDetector::suspect_now`] is not bound by it.
    pub fn best_case_detection(&self) -> Duration {
        self.timeout + self.confirm_grace
    }

    /// Asserts the configuration is self-consistent.
    ///
    /// # Panics
    /// Panics if the timeout does not exceed the heartbeat interval.
    pub fn validate(&self) {
        assert!(
            self.timeout > self.heartbeat_interval,
            "timeout {} must exceed heartbeat interval {} or healthy nodes self-suspect",
            self.timeout,
            self.heartbeat_interval
        );
    }
}

/// Detector verdict on one node, produced by [`FailureDetector::poll`] and
/// [`FailureDetector::heartbeat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The node has been silent past the timeout; recovery must NOT start
    /// yet (the suspicion may be refuted).
    Suspected,
    /// The suspicion survived the confirmation grace: the cluster commits
    /// to treating the node as failed (fence + fail over).
    Confirmed,
    /// A suspected node was heard from again — the suspicion was false.
    Refuted,
}

/// Detector-visible health of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Health {
    /// Heartbeats arriving on schedule.
    Alive,
    /// Silent past the timeout, or known gone on `evidence`, since `since`.
    Suspected {
        /// When the suspicion was raised.
        since: SimTime,
        /// Raised by [`FailureDetector::suspect_now`]: a shorter grace.
        evidence: bool,
    },
    /// Suspicion survived the grace; terminal until the node is fenced,
    /// resynced, and re-admitted to monitoring.
    Confirmed,
}

/// Running totals a detector accumulates (inputs to the false-positive /
/// false-negative rates EXPERIMENTS.md reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorStats {
    /// Heartbeats delivered to the detector.
    pub heartbeats: u64,
    /// Suspicions raised.
    pub suspicions: u64,
    /// Suspicions that survived the grace and were confirmed.
    pub confirmations: u64,
    /// Suspicions refuted by a late heartbeat (false suspicions).
    pub refutations: u64,
    /// Heartbeats that arrived from an already-confirmed node — the node
    /// was alive (wrong verdict) but the fence decision already stands.
    pub late_heartbeats_after_confirm: u64,
}

/// One entry in the detector's journal (see
/// [`FailureDetector::take_events`]): a heartbeat arrival or a verdict
/// transition, stamped with the simulated instant it happened at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorEvent {
    /// When the heartbeat arrived / the deadline fired.
    pub at: SimTime,
    /// The monitored node.
    pub node: usize,
    /// What happened.
    pub kind: DetectorEventKind,
}

/// What a [`DetectorEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorEventKind {
    /// A heartbeat arrived (including ones that refute a suspicion).
    Heartbeat,
    /// The node crossed the silence timeout.
    Suspected,
    /// A suspicion outlived the confirmation grace.
    Confirmed,
    /// A heartbeat cleared a standing suspicion.
    Refuted,
}

/// The deadline failure detector over a set of monitored nodes.
///
/// Drive it with [`FailureDetector::heartbeat`] whenever a heartbeat
/// *arrives* (charge network latency upstream) and [`FailureDetector::poll`]
/// whenever a deadline expires; [`FailureDetector::next_deadline`] says
/// when the next poll is due.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    config: DetectorConfig,
    /// Last heartbeat arrival and health per monitored node.
    nodes: BTreeMap<usize, (SimTime, Health)>,
    stats: DetectorStats,
    journal_enabled: bool,
    journal: Vec<DetectorEvent>,
}

impl FailureDetector {
    /// Creates a detector monitoring `nodes`, all treated as freshly
    /// heartbeated at `now` (so the first deadline is `now + timeout`).
    pub fn new<I: IntoIterator<Item = usize>>(
        config: DetectorConfig,
        nodes: I,
        now: SimTime,
    ) -> Self {
        config.validate();
        FailureDetector {
            config,
            nodes: nodes
                .into_iter()
                .map(|n| (n, (now, Health::Alive)))
                .collect(),
            stats: DetectorStats::default(),
            journal_enabled: false,
            journal: Vec::new(),
        }
    }

    /// Turns the event journal on. Off by default so untraced runs pay
    /// nothing; the tracing layer drains it via
    /// [`FailureDetector::take_events`].
    pub fn enable_journal(&mut self) {
        self.journal_enabled = true;
    }

    /// Drains the journal entries accumulated since the last call (empty
    /// unless [`FailureDetector::enable_journal`] was called).
    pub fn take_events(&mut self) -> Vec<DetectorEvent> {
        std::mem::take(&mut self.journal)
    }

    /// The configuration in force.
    pub fn config(&self) -> &DetectorConfig {
        &self.config
    }

    /// Accumulated counters.
    pub fn stats(&self) -> DetectorStats {
        self.stats
    }

    /// Nodes currently monitored.
    pub fn monitored(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes.keys().copied()
    }

    /// True if `node` is currently suspected (not yet confirmed).
    pub fn is_suspected(&self, node: usize) -> bool {
        matches!(self.nodes.get(&node), Some((_, Health::Suspected { .. })))
    }

    /// True if `node` has been confirmed failed.
    pub fn is_confirmed(&self, node: usize) -> bool {
        matches!(self.nodes.get(&node), Some((_, Health::Confirmed)))
    }

    /// Records a heartbeat from `node` arriving at `at`. Returns
    /// [`Verdict::Refuted`] if this clears a standing suspicion, `None`
    /// otherwise (including for unmonitored or already-confirmed nodes —
    /// a confirmed node's fate is sealed until it is resynced).
    pub fn heartbeat(&mut self, node: usize, at: SimTime) -> Option<Verdict> {
        let (last, health) = self.nodes.get_mut(&node)?;
        let was = *health;
        if was != Health::Confirmed {
            (*last, *health) = (at, Health::Alive);
        }
        self.stats.heartbeats += 1;
        self.record(at, node, DetectorEventKind::Heartbeat);
        match was {
            Health::Confirmed => {
                self.stats.late_heartbeats_after_confirm += 1;
                None
            }
            Health::Suspected { .. } => {
                self.stats.refutations += 1;
                self.record(at, node, DetectorEventKind::Refuted);
                Some(Verdict::Refuted)
            }
            Health::Alive => None,
        }
    }

    /// Appends to the journal, when it is on.
    fn record(&mut self, at: SimTime, node: usize, kind: DetectorEventKind) {
        if self.journal_enabled {
            self.journal.push(DetectorEvent { at, node, kind });
        }
    }

    /// Moves `node` one step towards failed at `now`, whatever its timers
    /// say: alive to suspected, suspected to confirmed.
    fn escalate(&mut self, node: usize, now: SimTime, evidence: bool) -> Option<Verdict> {
        let (_, health) = self.nodes.get_mut(&node)?;
        let (next, kind, verdict) = match *health {
            Health::Alive => (
                Health::Suspected {
                    since: now,
                    evidence,
                },
                DetectorEventKind::Suspected,
                Verdict::Suspected,
            ),
            Health::Suspected { .. } => (
                Health::Confirmed,
                DetectorEventKind::Confirmed,
                Verdict::Confirmed,
            ),
            Health::Confirmed => return None,
        };
        *health = next;
        match verdict {
            Verdict::Suspected => self.stats.suspicions += 1,
            _ => self.stats.confirmations += 1,
        }
        self.record(now, node, kind);
        Some(verdict)
    }

    /// Evaluates `node`'s deadline at `now`. Returns a verdict transition
    /// if one fires: `Suspected` when silence first crosses the timeout,
    /// `Confirmed` when a suspicion has outlived the grace. Stale polls
    /// (a newer heartbeat re-armed the deadline) return `None`.
    ///
    /// Deadline comparisons tolerate 1 ns of float jitter: an executor
    /// polling at exactly the [`FailureDetector::next_deadline`] instant
    /// must fire even when `(last + timeout) - last` rounds below
    /// `timeout` in f64.
    pub fn poll(&mut self, node: usize, now: SimTime) -> Option<Verdict> {
        let eps = Duration::from_secs(1e-9);
        let due = match *self.nodes.get(&node)? {
            (last, Health::Alive) => now.since(last) + eps >= self.config.timeout,
            (_, Health::Suspected { since, evidence }) => {
                now.since(since) + eps >= self.grace(evidence)
            }
            (_, Health::Confirmed) => false,
        };
        due.then(|| self.escalate(node, now, false)).flatten()
    }

    /// How long a suspicion stands before it is confirmed.
    fn grace(&self, evidence: bool) -> Duration {
        if evidence {
            self.config.heartbeat_interval
        } else {
            self.config.confirm_grace
        }
    }

    /// Suspects an alive `node` at `now`, on evidence that its process is
    /// gone, not after `timeout`; the suspicion stands one heartbeat interval,
    /// not `confirm_grace`: a live node says so with its next heartbeat.
    pub fn suspect_now(&mut self, node: usize, now: SimTime) -> Option<Verdict> {
        let alive = matches!(self.nodes.get(&node)?, (_, Health::Alive));
        alive.then(|| self.escalate(node, now, true)).flatten()
    }

    /// Confirms a suspected `node` at `now`, on evidence that leaves its
    /// heartbeat nothing to refute: another boot of it is speaking.
    pub fn confirm_now(&mut self, node: usize, now: SimTime) -> Option<Verdict> {
        let suspected = self.is_suspected(node);
        suspected.then(|| self.escalate(node, now, true)).flatten()
    }

    /// Holds `node` confirmed from `now` on another's verdict — the
    /// coordinator's fence — whatever this detector's own timers say.
    pub fn condemn(&mut self, node: usize, now: SimTime) {
        self.nodes.insert(node, (now, Health::Confirmed));
    }

    /// True while `node` stands suspected on evidence.
    pub fn has_evidence(&self, node: usize) -> bool {
        let health = self.nodes.get(&node).map(|(_, health)| health);
        matches!(health, Some(Health::Suspected { evidence: true, .. }))
    }

    /// When `node`'s current state next needs a [`FailureDetector::poll`]:
    /// the suspicion deadline while alive, the confirmation deadline while
    /// suspected, `None` once confirmed.
    pub fn next_deadline(&self, node: usize) -> Option<SimTime> {
        let (last, health) = self.nodes.get(&node)?;
        match *health {
            Health::Alive => Some(*last + self.config.timeout),
            Health::Suspected { since, evidence } => Some(since + self.grace(evidence)),
            Health::Confirmed => None,
        }
    }

    /// (Re-)admits `node` to monitoring as freshly alive at `now` — the
    /// last step of a fenced node's resync.
    pub fn admit(&mut self, node: usize, now: SimTime) {
        self.nodes.insert(node, (now, Health::Alive));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> DetectorConfig {
        DetectorConfig {
            heartbeat_interval: Duration::from_millis(10.0),
            timeout: Duration::from_millis(35.0),
            confirm_grace: Duration::from_millis(25.0),
        }
    }

    fn ms(v: f64) -> SimTime {
        SimTime::from_secs(v / 1000.0)
    }

    /// f64 time arithmetic leaves ~1 ulp of jitter on computed deadlines.
    fn close(a: SimTime, b: SimTime) -> bool {
        (a.as_secs() - b.as_secs()).abs() < 1e-9
    }

    #[test]
    fn healthy_node_is_never_suspected() {
        let mut d = FailureDetector::new(cfg(), [0, 1], SimTime::ZERO);
        for i in 1..20 {
            assert_eq!(d.heartbeat(0, ms(10.0 * i as f64)), None);
            assert_eq!(d.poll(0, ms(10.0 * i as f64 + 5.0)), None);
        }
        assert!(!d.is_suspected(0));
        assert_eq!(d.stats().suspicions, 0);
    }

    #[test]
    fn silence_escalates_suspected_then_confirmed() {
        let mut d = FailureDetector::new(cfg(), [3], SimTime::ZERO);
        d.heartbeat(3, ms(10.0));
        // Deadline re-armed to 45 ms; silence from 10 ms on.
        assert!(close(d.next_deadline(3).unwrap(), ms(45.0)));
        assert_eq!(d.poll(3, ms(44.0)), None, "before timeout: no verdict");
        assert_eq!(d.poll(3, ms(45.0)), Some(Verdict::Suspected));
        assert!(d.is_suspected(3));
        // Confirmation only after the grace.
        assert!(close(d.next_deadline(3).unwrap(), ms(70.0)));
        assert_eq!(d.poll(3, ms(69.0)), None);
        assert_eq!(d.poll(3, ms(70.0)), Some(Verdict::Confirmed));
        assert!(d.is_confirmed(3));
        assert_eq!(d.next_deadline(3), None, "confirmed is terminal");
        let s = d.stats();
        assert_eq!((s.suspicions, s.confirmations, s.refutations), (1, 1, 0));
    }

    #[test]
    fn late_heartbeat_refutes_a_suspicion() {
        let mut d = FailureDetector::new(cfg(), [1], SimTime::ZERO);
        assert_eq!(d.poll(1, ms(35.0)), Some(Verdict::Suspected));
        // Node was merely slow: heartbeat lands inside the grace.
        assert_eq!(d.heartbeat(1, ms(50.0)), Some(Verdict::Refuted));
        assert!(!d.is_suspected(1));
        // The stale confirmation poll is a no-op.
        assert_eq!(d.poll(1, ms(60.0)), None);
        assert_eq!(d.stats().refutations, 1);
        assert_eq!(d.stats().confirmations, 0);
    }

    #[test]
    fn heartbeat_after_confirmation_does_not_resurrect() {
        let mut d = FailureDetector::new(cfg(), [2], SimTime::ZERO);
        d.poll(2, ms(35.0));
        d.poll(2, ms(60.0));
        assert!(d.is_confirmed(2));
        // The node was hung, not dead — but the verdict stands; the
        // harness must fence and resync it instead.
        assert_eq!(d.heartbeat(2, ms(61.0)), None);
        assert!(d.is_confirmed(2));
        assert_eq!(d.stats().late_heartbeats_after_confirm, 1);
        // Resync re-admits it as alive.
        d.admit(2, ms(100.0));
        assert!(!d.is_confirmed(2));
        assert!(close(d.next_deadline(2).unwrap(), ms(135.0)));
    }

    #[test]
    fn stale_polls_are_ignored() {
        let mut d = FailureDetector::new(cfg(), [0], SimTime::ZERO);
        // Deadline scheduled off the t=0 seed heartbeat...
        let deadline = d.next_deadline(0).unwrap();
        // ...but a fresh heartbeat arrives first.
        d.heartbeat(0, ms(30.0));
        assert_eq!(d.poll(0, deadline), None, "re-armed deadline must not fire");
    }

    #[test]
    fn detection_latency_bounds() {
        let c = cfg();
        assert!((c.best_case_detection().as_secs() - 0.060).abs() < 1e-9);
        assert!((c.worst_case_detection().as_secs() - 0.070).abs() < 1e-9);
    }

    #[test]
    fn journal_records_heartbeats_and_verdict_transitions() {
        let mut d = FailureDetector::new(cfg(), [0], SimTime::ZERO);
        d.enable_journal();
        d.heartbeat(0, ms(10.0));
        d.poll(0, ms(50.0)); // 40 ms of silence > 35 ms timeout
        d.heartbeat(0, ms(55.0)); // refutes
        d.poll(0, ms(95.0)); // re-suspects
        d.poll(0, ms(125.0)); // confirms
        let kinds: Vec<DetectorEventKind> = d.take_events().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                DetectorEventKind::Heartbeat,
                DetectorEventKind::Suspected,
                DetectorEventKind::Heartbeat,
                DetectorEventKind::Refuted,
                DetectorEventKind::Suspected,
                DetectorEventKind::Confirmed,
            ]
        );
        assert!(d.take_events().is_empty(), "journal drains");

        let mut quiet = FailureDetector::new(cfg(), [0], SimTime::ZERO);
        quiet.heartbeat(0, ms(10.0));
        assert!(quiet.take_events().is_empty(), "journal off by default");
    }

    #[test]
    fn evidence_suspects_at_once_and_confirms_one_heartbeat_interval_later() {
        let mut d = FailureDetector::new(cfg(), [0, 1, 2], SimTime::ZERO);
        d.enable_journal();
        d.heartbeat(0, ms(10.0));
        // Alive: suspected at the instant of the evidence, confirmed by the
        // ordinary poll one heartbeat interval (10 ms) later, not a grace.
        assert_eq!(d.suspect_now(0, ms(12.0)), Some(Verdict::Suspected));
        assert!(d.has_evidence(0));
        assert_eq!(d.suspect_now(0, ms(13.0)), None, "already standing");
        assert!(close(d.next_deadline(0).unwrap(), ms(22.0)));
        assert_eq!(d.poll(0, ms(21.9)), None);
        assert_eq!(d.poll(0, ms(22.0)), Some(Verdict::Confirmed));
        let journal: Vec<_> = d.take_events().iter().map(|e| (e.at, e.kind)).collect();
        assert_eq!(
            journal,
            [
                (ms(10.0), DetectorEventKind::Heartbeat),
                (ms(12.0), DetectorEventKind::Suspected),
                (ms(22.0), DetectorEventKind::Confirmed),
            ]
        );
        assert!(d.is_confirmed(0) && !d.has_evidence(0));
        assert_eq!(d.next_deadline(0), None, "confirmed is terminal");
        // Suspected by its timer at 35: its grace runs to 60 whatever
        // evidence arrives; on an alive node a heartbeat refutes an
        // evidence suspicion like any other.
        assert_eq!(d.poll(1, ms(35.0)), Some(Verdict::Suspected));
        assert_eq!(d.suspect_now(1, ms(36.0)), None);
        assert!(close(d.next_deadline(1).unwrap(), ms(60.0)) && !d.has_evidence(1));
        assert_eq!(d.suspect_now(2, ms(36.0)), Some(Verdict::Suspected));
        assert_eq!(d.heartbeat(2, ms(40.0)), Some(Verdict::Refuted));
        assert_eq!(d.poll(2, ms(46.0)), None);
        // Confirmed or unmonitored: nothing to do, nothing journalled.
        assert_eq!(d.suspect_now(0, ms(40.0)), None);
        assert_eq!(d.suspect_now(7, ms(40.0)), None);
        let s = d.stats();
        assert_eq!((s.suspicions, s.confirmations, s.refutations), (3, 1, 1));
        // The verdict stands like any other until the node is re-admitted.
        assert_eq!(d.heartbeat(0, ms(41.0)), None);
        assert!(d.is_confirmed(0));
    }

    #[test]
    #[should_panic(expected = "must exceed heartbeat interval")]
    fn nonsense_config_rejected() {
        DetectorConfig {
            heartbeat_interval: Duration::from_millis(50.0),
            timeout: Duration::from_millis(10.0),
            confirm_grace: Duration::from_millis(5.0),
        }
        .validate();
    }
}
