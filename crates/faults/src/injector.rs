//! Cluster-level fault plans.
//!
//! The paper's key correlation observation (Section IV-A): *"VM's residing
//! on the same physical node would be subject to the same hardware faults,
//! and thus be perfectly correlated in these types of errors."* A plan
//! therefore schedules failures per **physical node**; whichever layer
//! consumes it is responsible for failing every VM hosted on the node at
//! that instant (see `dvdc::sim`). The generators that draw plans live in
//! [`crate::schedule`].

use dvdc_simcore::time::{Duration, SimTime};

/// A set of physical-node indices, packed as a bitmask so fault records
/// stay `Copy`. Sufficient for the simulated clusters in this repo
/// ([`PeerSet::from_nodes`] refuses an index ≥ 64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeerSet(pub u64);

impl PeerSet {
    /// The empty set.
    pub const EMPTY: PeerSet = PeerSet(0);
    /// Every representable node (used for "isolated from everyone").
    pub const ALL: PeerSet = PeerSet(u64::MAX);

    /// Builds a set from node indices.
    ///
    /// # Panics
    /// Panics if an index is ≥ 64 (the bitmask width).
    pub fn from_nodes<I: IntoIterator<Item = usize>>(nodes: I) -> Self {
        let mut mask = 0u64;
        for n in nodes {
            assert!(n < 64, "PeerSet holds node indices < 64, got {n}");
            mask |= 1 << n;
        }
        PeerSet(mask)
    }

    /// True if `node` is in the set (indices ≥ 64 are never members of a
    /// finite set but always members of [`PeerSet::ALL`]).
    pub fn contains(&self, node: usize) -> bool {
        if node >= 64 {
            return *self == PeerSet::ALL;
        }
        self.0 & (1 << node) != 0
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Number of members (saturated view of [`PeerSet::ALL`]).
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }
}

/// What kind of fault strikes the node — the taxonomy real clusters see.
///
/// Only [`FaultKind::Crash`] destroys state wholesale. A hang or
/// partition leaves the node's memory intact but makes it *look* dead to
/// a timeout-based failure detector: if the impairment outlasts the
/// detector's confirmation window, the cluster wrongly fails the node
/// over and the node must be fenced when it wakes up with stale round
/// state. A [`FaultKind::Corruption`] is the opposite failure mode: the
/// node stays up and keeps heartbeating, but some of its *stored*
/// checkpoint/parity bytes silently rot — only a checksum (scrub or a
/// recovery decode that verifies its sources) can notice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail-stop: the node's memory (checkpoints, parity) is lost.
    Crash,
    /// The node freezes for the given span, then resumes exactly where it
    /// was. No state is lost; no messages are sent while hung.
    TransientHang(Duration),
    /// The node is cut off from `peers` ([`PeerSet::ALL`] = isolated from
    /// the whole cluster) until the partition heals after `heal_after`.
    Partition {
        /// Nodes this node cannot exchange messages with.
        peers: PeerSet,
        /// Span until connectivity is restored.
        heal_after: Duration,
    },
    /// `blocks` stored blocks on the node silently flip bytes. The node
    /// stays live and detectable only by checksum verification; `seed`
    /// makes the victim-block choice deterministic per fault record (a
    /// bounded payload keeps the record `Copy`, unlike an explicit block
    /// list would).
    Corruption {
        /// How many stored blocks (checkpoint images or parity blocks)
        /// are hit.
        blocks: u8,
        /// Deterministic seed for picking which blocks and offsets.
        seed: u64,
    },
    /// A whole rack fails at once (top-of-rack switch, rack PDU): every
    /// node in the rack crashes simultaneously. The executor expands this
    /// to per-node crashes using the cluster's topology — this crate only
    /// names the domain. The carrying [`NodeFault::node`] field holds the
    /// *rack* index, not a node index.
    RackFailure {
        /// Index of the failing rack.
        rack: usize,
    },
    /// A whole data centre fails at once (power/cooling event): every
    /// node in every rack of the DC crashes simultaneously. Expanded by
    /// the executor; [`NodeFault::node`] holds the *DC* index.
    DcFailure {
        /// Index of the failing data centre.
        dc: usize,
    },
}

impl FaultKind {
    /// Stable kind label used in traces and metrics.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash => "Crash",
            FaultKind::TransientHang(_) => "TransientHang",
            FaultKind::Partition { .. } => "Partition",
            FaultKind::Corruption { .. } => "Corruption",
            FaultKind::RackFailure { .. } => "RackFailure",
            FaultKind::DcFailure { .. } => "DcFailure",
        }
    }

    /// How long a non-crash impairment lasts before the node is healthy
    /// again (`None` for crashes, which never self-heal, and for
    /// corruptions, which are instantaneous writes — the node was never
    /// impaired, only its data).
    pub fn heals_after(&self) -> Option<Duration> {
        match self {
            FaultKind::Crash
            | FaultKind::Corruption { .. }
            | FaultKind::RackFailure { .. }
            | FaultKind::DcFailure { .. } => None,
            FaultKind::TransientHang(d) => Some(*d),
            FaultKind::Partition { heal_after, .. } => Some(*heal_after),
        }
    }
}

/// One scheduled physical-node fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeFault {
    /// Index of the failing physical node.
    pub node: usize,
    /// Instant of the failure.
    pub at: SimTime,
    /// How long the node stays down before rejoining (repair time).
    pub repair: Duration,
    /// What kind of fault this is (crash, hang, partition).
    pub kind: FaultKind,
}

impl NodeFault {
    /// A fail-stop crash — the fault every plan contained before the
    /// non-crash taxonomy existed.
    pub fn crash(node: usize, at: SimTime, repair: Duration) -> Self {
        NodeFault {
            node,
            at,
            repair,
            kind: FaultKind::Crash,
        }
    }

    /// A transient hang of `span` starting at `at`.
    pub fn hang(node: usize, at: SimTime, span: Duration) -> Self {
        NodeFault {
            node,
            at,
            repair: Duration::ZERO,
            kind: FaultKind::TransientHang(span),
        }
    }

    /// A partition cutting `node` off from `peers`, healing after
    /// `heal_after`.
    pub fn partition(node: usize, at: SimTime, peers: PeerSet, heal_after: Duration) -> Self {
        NodeFault {
            node,
            at,
            repair: Duration::ZERO,
            kind: FaultKind::Partition { peers, heal_after },
        }
    }

    /// A silent corruption of `blocks` stored blocks on `node` at `at`,
    /// with `seed` fixing which blocks/offsets are hit.
    pub fn corruption(node: usize, at: SimTime, blocks: u8, seed: u64) -> Self {
        NodeFault {
            node,
            at,
            repair: Duration::ZERO,
            kind: FaultKind::Corruption { blocks, seed },
        }
    }

    /// A whole-rack failure at `at`. The record's `node` field carries
    /// the rack index (domain faults have no single node); the executor
    /// expands it to per-node crashes with the given `repair`.
    pub fn rack_failure(rack: usize, at: SimTime, repair: Duration) -> Self {
        NodeFault {
            node: rack,
            at,
            repair,
            kind: FaultKind::RackFailure { rack },
        }
    }

    /// A whole-DC failure at `at`. The record's `node` field carries the
    /// DC index; the executor expands it to per-node crashes.
    pub fn dc_failure(dc: usize, at: SimTime, repair: Duration) -> Self {
        NodeFault {
            node: dc,
            at,
            repair,
            kind: FaultKind::DcFailure { dc },
        }
    }
}

/// A complete, time-ordered failure schedule for a cluster over a horizon.
#[derive(Debug, Clone, Default)]
pub struct ClusterFaultPlan {
    faults: Vec<NodeFault>,
}

impl ClusterFaultPlan {
    /// Builds a plan from unordered faults, sorting by time (ties broken by
    /// node index so plans are deterministic).
    pub fn new(mut faults: Vec<NodeFault>) -> Self {
        faults.sort_by(|a, b| a.at.cmp(&b.at).then(a.node.cmp(&b.node)));
        ClusterFaultPlan { faults }
    }

    /// All faults in time order.
    pub fn faults(&self) -> &[NodeFault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// A consuming cursor over a [`ClusterFaultPlan`] — the bridge between a
/// precomputed failure schedule and an event-driven executor that injects
/// faults *mid-round*.
///
/// The executor peeks at the next unconsumed fault, schedules it as a
/// discrete event alongside the round's phase steps, and advances the
/// cursor when the fault actually fires. Each fault is delivered exactly
/// once, no matter how many rounds peek at it.
#[derive(Debug, Clone)]
pub struct PlanCursor<'a> {
    plan: &'a ClusterFaultPlan,
    next: usize,
}

impl<'a> PlanCursor<'a> {
    /// Creates a cursor at the start of the plan.
    pub fn new(plan: &'a ClusterFaultPlan) -> Self {
        PlanCursor { plan, next: 0 }
    }

    /// The next unconsumed fault, if any, without consuming it.
    pub fn peek(&self) -> Option<&'a NodeFault> {
        self.plan.faults().get(self.next)
    }

    /// Consumes and returns the next fault.
    pub fn advance(&mut self) -> Option<&'a NodeFault> {
        let f = self.plan.faults().get(self.next)?;
        self.next += 1;
        Some(f)
    }

    /// Faults not yet consumed.
    pub fn remaining(&self) -> usize {
        self.plan.len() - self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{DomainShape, FaultSchedule, NodeCrashes};
    use dvdc_simcore::rng::RngHub;

    /// `nodes` nodes crashing at `mtbf` seconds, repaired in `repair`.
    fn crash_plan(
        nodes: usize,
        mtbf: f64,
        repair: f64,
        horizon: f64,
        seed: u64,
    ) -> ClusterFaultPlan {
        NodeCrashes::exponential(Duration::from_secs(mtbf), Duration::from_secs(repair)).plan(
            DomainShape::flat(nodes),
            Duration::from_secs(horizon),
            &RngHub::new(seed),
        )
    }

    #[test]
    fn plan_is_time_ordered() {
        let plan = crash_plan(8, 100.0, 10.0, 2_000.0, 21);
        assert!(!plan.is_empty());
        for w in plan.faults().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn plan_is_reproducible() {
        let a = crash_plan(4, 50.0, 0.0, 500.0, 77);
        let b = crash_plan(4, 50.0, 0.0, 500.0, 77);
        assert_eq!(a.faults(), b.faults());
    }

    #[test]
    fn adding_nodes_preserves_existing_schedules() {
        let small = crash_plan(2, 100.0, 0.0, 1_000.0, 13);
        let large = crash_plan(4, 100.0, 0.0, 1_000.0, 13);
        for node in 0..2 {
            let of = |plan: &ClusterFaultPlan| -> Vec<NodeFault> {
                plan.faults()
                    .iter()
                    .filter(|f| f.node == node)
                    .copied()
                    .collect()
            };
            let (s, l) = (of(&small), of(&large));
            assert_eq!(s, l, "node {node} schedule changed when cluster grew");
        }
    }

    #[test]
    fn per_node_rates_are_uniform() {
        let plan = crash_plan(4, 100.0, 0.0, 100_000.0, 99);
        // E[count/node] = 1000; all four nodes should land within ±15 %.
        for node in 0..4 {
            let count = plan.faults().iter().filter(|f| f.node == node).count();
            assert!(
                (850..=1150).contains(&count),
                "node {node} had {count} faults"
            );
        }
    }

    #[test]
    fn peer_set_membership_and_limits() {
        let s = PeerSet::from_nodes([0, 3, 63]);
        assert!(s.contains(0) && s.contains(3) && s.contains(63));
        assert!(!s.contains(1) && !s.contains(64));
        assert_eq!(s.len(), 3);
        assert!(PeerSet::EMPTY.is_empty());
        assert!(PeerSet::ALL.contains(7) && PeerSet::ALL.contains(1000));
    }

    #[test]
    fn fault_kind_heal_spans() {
        assert_eq!(FaultKind::Crash.heals_after(), None);
        let hang = NodeFault::hang(1, SimTime::ZERO, Duration::from_secs(2.0));
        assert_eq!(hang.kind.heals_after(), Some(Duration::from_secs(2.0)));
        let part = NodeFault::partition(2, SimTime::ZERO, PeerSet::ALL, Duration::from_secs(5.0));
        assert_eq!(part.kind.heals_after(), Some(Duration::from_secs(5.0)));
        let rot = NodeFault::corruption(3, SimTime::ZERO, 2, 0xBEEF);
        assert_eq!(rot.kind.heals_after(), None);
    }

    #[test]
    fn domain_faults_are_fail_stop_and_carry_their_index() {
        let rack = NodeFault::rack_failure(3, SimTime::from_secs(1.0), Duration::from_secs(10.0));
        assert_eq!(rack.kind.heals_after(), None);
        assert_eq!(rack.node, 3);
        assert!(matches!(rack.kind, FaultKind::RackFailure { rack: 3 }));

        let dc = NodeFault::dc_failure(1, SimTime::from_secs(2.0), Duration::from_secs(60.0));
        assert!(matches!(dc.kind, FaultKind::DcFailure { dc: 1 }));
    }

    #[test]
    fn cursor_delivers_each_fault_exactly_once() {
        let mk = |node, at| NodeFault::crash(node, SimTime::from_secs(at), Duration::ZERO);
        let plan = ClusterFaultPlan::new(vec![mk(0, 1.0), mk(1, 5.0), mk(2, 9.0)]);
        let mut cur = PlanCursor::new(&plan);
        assert_eq!(cur.remaining(), 3);
        assert_eq!(cur.peek().unwrap().node, 0);
        // Peeking repeatedly never consumes.
        assert_eq!(cur.peek().unwrap().node, 0);
        assert_eq!(cur.advance().unwrap().node, 0);
        assert_eq!(cur.advance().unwrap().node, 1);
        assert_eq!(cur.advance().unwrap().node, 2);
        assert!(cur.advance().is_none());
        assert_eq!(cur.remaining(), 0);
    }
}
