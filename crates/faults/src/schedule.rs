//! Composable fault schedules: named generators of [`ClusterFaultPlan`]s
//! over a failure-domain hierarchy.
//!
//! A schedule is the fault-side half of the workload × fault matrix: it
//! knows only the *shape* of the hierarchy ([`DomainShape`] — node, rack,
//! and DC counts), draws its gaps from `dist`, and emits a plan that
//! any executor consumes unchanged. Expansion of domain faults
//! ([`crate::FaultKind::RackFailure`], [`crate::FaultKind::DcFailure`])
//! to per-node crashes happens in the executor, which owns the topology —
//! this crate never depends on the cluster model.

use rand::Rng;

use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::{Duration, SimTime};

use crate::dist::Exponential;
use crate::injector::{ClusterFaultPlan, NodeFault, PeerSet};
use crate::process::failures_within;

/// The failure-domain hierarchy a schedule targets, reduced to counts.
///
/// Schedules never see the actual topology (which lives in the cluster
/// model above this crate); they only need to know how many of each
/// domain exist to draw victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainShape {
    /// Number of physical nodes.
    pub nodes: usize,
    /// Number of racks.
    pub racks: usize,
    /// Number of data centres.
    pub dcs: usize,
}

impl DomainShape {
    /// The flat hierarchy: each node its own rack, one DC.
    pub fn flat(nodes: usize) -> Self {
        DomainShape {
            nodes,
            racks: nodes,
            dcs: 1,
        }
    }
}

/// A named generator of failure plans over a horizon — the fault-side
/// axis of the workload × fault simulation matrix.
pub trait FaultSchedule {
    /// Short stable name used in reports and repro strings.
    fn name(&self) -> &'static str;

    /// Generates the plan for `[0, horizon)` on the given shape. All
    /// randomness must come from `hub` streams so plans are reproducible
    /// and independent of call order.
    fn plan(&self, shape: DomainShape, horizon: Duration, hub: &RngHub) -> ClusterFaultPlan;
}

/// No faults at all — the control column of any matrix.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quiet;

impl FaultSchedule for Quiet {
    fn name(&self) -> &'static str {
        "quiet"
    }

    fn plan(&self, _shape: DomainShape, _horizon: Duration, _hub: &RngHub) -> ClusterFaultPlan {
        ClusterFaultPlan::default()
    }
}

/// Independent per-node crashes: each node runs its own Poisson process —
/// the uncorrelated regime the paper's Section V model assumes. The one
/// crash-plan generator: the CLI's `run`, the tests and the swarm all draw
/// their node crashes here.
#[derive(Debug, Clone, Copy)]
pub struct NodeCrashes {
    /// Inter-failure distribution per node.
    pub dist: Exponential,
    /// Repair span per crash.
    pub repair: Duration,
}

impl NodeCrashes {
    /// Exponential (Poisson-process) node crashes at the given MTBF.
    pub fn exponential(mtbf: Duration, repair: Duration) -> Self {
        NodeCrashes {
            dist: Exponential::from_mtbf(mtbf),
            repair,
        }
    }
}

impl FaultSchedule for NodeCrashes {
    fn name(&self) -> &'static str {
        "node-crashes"
    }

    /// Node `i` draws from the RNG stream `("node-faults", i)` of `hub`,
    /// so per-node schedules are independent and adding nodes never
    /// perturbs existing ones.
    fn plan(&self, shape: DomainShape, horizon: Duration, hub: &RngHub) -> ClusterFaultPlan {
        let mut faults = Vec::new();
        for node in 0..shape.nodes {
            let mut rng = hub.stream_indexed("node-faults", node as u64);
            for at in failures_within(self.dist, self.repair, horizon, &mut rng) {
                faults.push(NodeFault::crash(node, at, self.repair));
            }
        }
        ClusterFaultPlan::new(faults)
    }
}

/// Correlated whole-rack kills: each rack runs its own renewal process.
/// Rack MTBFs are long (switches fail less often than servers), but when
/// one fires, *every* node in the rack crashes at once — the correlation
/// flat placement cannot survive.
#[derive(Debug, Clone, Copy)]
pub struct RackKills {
    /// Mean time between failures of one rack.
    pub mtbf: Duration,
    /// Repair span for the rack's nodes.
    pub repair: Duration,
}

impl FaultSchedule for RackKills {
    fn name(&self) -> &'static str {
        "rack-kills"
    }

    fn plan(&self, shape: DomainShape, horizon: Duration, hub: &RngHub) -> ClusterFaultPlan {
        let dist = Exponential::from_mtbf(self.mtbf);
        let mut faults = Vec::new();
        for rack in 0..shape.racks {
            let mut rng = hub.stream_indexed("sched-rack", rack as u64);
            for at in failures_within(dist, self.repair, horizon, &mut rng) {
                faults.push(NodeFault::rack_failure(rack, at, self.repair));
            }
        }
        ClusterFaultPlan::new(faults)
    }
}

/// One whole-DC failure at a fixed fraction of the horizon, striking a
/// uniformly drawn data centre — the power/cooling event that dominates
/// real outage postmortems.
#[derive(Debug, Clone, Copy)]
pub struct DcKill {
    /// Where in `[0, 1)` of the horizon the event lands.
    pub at_fraction: f64,
    /// Repair span for the DC's nodes.
    pub repair: Duration,
}

impl FaultSchedule for DcKill {
    fn name(&self) -> &'static str {
        "dc-kill"
    }

    fn plan(&self, shape: DomainShape, horizon: Duration, hub: &RngHub) -> ClusterFaultPlan {
        let mut rng = hub.stream("sched-dc");
        let dc = rng.random_range(0..shape.dcs.max(1));
        let at = SimTime::ZERO + Duration::from_secs(horizon.as_secs() * self.at_fraction);
        ClusterFaultPlan::new(vec![NodeFault::dc_failure(dc, at, self.repair)])
    }
}

/// Impairment storms: bursts of transient hangs and full partitions
/// clustered in short windows — the grey-failure weather that stresses
/// the suspicion-grade detector (false failovers, fencing, resync)
/// without destroying any state.
#[derive(Debug, Clone, Copy)]
pub struct ImpairmentStorm {
    /// Number of storm windows over the horizon.
    pub storms: usize,
    /// Nodes impaired per storm.
    pub nodes_per_storm: usize,
    /// Impairment span (hang length / partition heal time).
    pub span: Duration,
}

impl Default for ImpairmentStorm {
    fn default() -> Self {
        ImpairmentStorm {
            storms: 2,
            nodes_per_storm: 2,
            span: Duration::from_millis(120.0),
        }
    }
}

impl FaultSchedule for ImpairmentStorm {
    fn name(&self) -> &'static str {
        "impairment-storm"
    }

    fn plan(&self, shape: DomainShape, horizon: Duration, hub: &RngHub) -> ClusterFaultPlan {
        let mut faults = Vec::new();
        for storm in 0..self.storms {
            let mut rng = hub.stream_indexed("sched-storm", storm as u64);
            // The storm window opens somewhere in the middle 80% of the
            // horizon and its victims are hit within a tight spread.
            let open = SimTime::ZERO
                + Duration::from_secs(horizon.as_secs() * (0.1 + 0.8 * rng.random::<f64>()));
            for i in 0..self.nodes_per_storm {
                let node = rng.random_range(0..shape.nodes);
                let at = open + Duration::from_millis(5.0 * i as f64);
                // Partitions ride on a 64-bit peer mask; fall back to
                // hangs for nodes the mask cannot name.
                if i % 2 == 0 || node >= 64 {
                    faults.push(NodeFault::hang(node, at, self.span));
                } else {
                    faults.push(NodeFault::partition(node, at, PeerSet::ALL, self.span));
                }
            }
        }
        ClusterFaultPlan::new(faults)
    }
}

/// The union of several schedules — e.g. background node crashes *plus*
/// a rack kill. Plans are merged and re-sorted.
pub struct MixedSchedule {
    /// Stable name for reports.
    pub label: &'static str,
    /// The component schedules.
    pub parts: Vec<Box<dyn FaultSchedule>>,
}

impl MixedSchedule {
    /// Builds a mixed schedule from parts.
    pub fn new(label: &'static str, parts: Vec<Box<dyn FaultSchedule>>) -> Self {
        MixedSchedule { label, parts }
    }
}

impl FaultSchedule for MixedSchedule {
    fn name(&self) -> &'static str {
        self.label
    }

    fn plan(&self, shape: DomainShape, horizon: Duration, hub: &RngHub) -> ClusterFaultPlan {
        let mut faults = Vec::new();
        for (i, part) in self.parts.iter().enumerate() {
            let sub = hub.subhub("sched-mixed", i as u64);
            faults.extend(part.plan(shape, horizon, &sub).faults().iter().copied());
        }
        ClusterFaultPlan::new(faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::injector::FaultKind;

    fn shape() -> DomainShape {
        DomainShape {
            nodes: 8,
            racks: 4,
            dcs: 2,
        }
    }

    #[test]
    fn quiet_is_empty() {
        let hub = RngHub::new(1);
        assert!(Quiet
            .plan(shape(), Duration::from_secs(100.0), &hub)
            .is_empty());
    }

    #[test]
    fn node_crashes_cover_nodes_and_reproduce() {
        let s = NodeCrashes::exponential(Duration::from_secs(50.0), Duration::from_secs(5.0));
        let hub = RngHub::new(2);
        let a = s.plan(shape(), Duration::from_secs(2_000.0), &hub);
        let b = s.plan(shape(), Duration::from_secs(2_000.0), &hub);
        assert_eq!(a.faults(), b.faults());
        assert!(!a.is_empty());
        assert!(a.faults().iter().all(|f| f.kind == FaultKind::Crash));
        assert!(a.faults().iter().any(|f| f.node > 0));
        assert!(a.faults().iter().all(|f| f.node < 8));
    }

    /// `NodeCrashes` has only ever drawn exponential gaps; this pins the
    /// draw sequence so a change to how the schedule samples shows here
    /// and not as a silently different fault history in every seeded run.
    #[test]
    fn node_crash_instants_are_pinned_for_a_fixed_seed() {
        let s = NodeCrashes::exponential(Duration::from_secs(50.0), Duration::from_secs(5.0));
        let plan = s.plan(shape(), Duration::from_secs(2_000.0), &RngHub::new(2));
        let first: Vec<(usize, f64)> = plan
            .faults()
            .iter()
            .take(6)
            .map(|f| (f.node, f.at.as_secs()))
            .collect();
        assert_eq!(
            first,
            [
                (3, 0.4171734785140571),
                (0, 0.5956726108918976),
                (6, 5.356015253952634),
                (4, 12.39890715012871),
                (4, 21.89443737845525),
                (0, 23.040751120548904),
            ]
        );
        assert_eq!(plan.len(), 302);
    }

    /// The head of the plan `dvdc-sim run --nodes 4 --mtbf-secs 400
    /// --seed 42` runs, bit for bit.
    #[test]
    fn node_crashes_plan_is_pinned() {
        let s = NodeCrashes::exponential(Duration::from_secs(400.0), Duration::from_secs(5.0));
        let plan = s.plan(
            DomainShape::flat(4),
            Duration::from_secs(3_600.0),
            &RngHub::new(42),
        );
        let first: Vec<(usize, u64)> = plan
            .faults()
            .iter()
            .take(16)
            .map(|f| (f.node, f.at.as_secs().to_bits()))
            .collect();
        assert_eq!(
            first,
            [
                (0, 0x40559c63cac20100),
                (3, 0x406821b7fc40f507),
                (0, 0x4071ebe30fb48634),
                (0, 0x407a498cf2475c11),
                (1, 0x407b7f70cc339706),
                (3, 0x407e24b61cbc6b98),
                (1, 0x408156355218395a),
                (0, 0x4081a7674f020254),
                (3, 0x408403e14516418a),
                (3, 0x4085979dc60df5aa),
                (3, 0x40861e8e45ae6d09),
                (1, 0x408c37cde62b0174),
                (3, 0x4090afd542c231f2),
                (1, 0x409188ca956e9b64),
                (0, 0x40921e7c747fc016),
                (1, 0x40924b952e717128),
            ]
        );
        assert_eq!(plan.len(), 37);
    }

    #[test]
    fn rack_kills_emit_rack_faults() {
        let s = RackKills {
            mtbf: Duration::from_secs(100.0),
            repair: Duration::from_secs(10.0),
        };
        let hub = RngHub::new(3);
        let plan = s.plan(shape(), Duration::from_secs(2_000.0), &hub);
        assert!(!plan.is_empty());
        for f in plan.faults() {
            match f.kind {
                FaultKind::RackFailure { rack } => {
                    assert!(rack < 4, "rack index in range");
                    assert_eq!(f.node, rack, "record carries the rack index");
                }
                other => panic!("unexpected kind {other:?}"),
            }
        }
    }

    #[test]
    fn dc_kill_is_one_shot_in_range() {
        let s = DcKill {
            at_fraction: 0.5,
            repair: Duration::from_secs(30.0),
        };
        let hub = RngHub::new(4);
        let plan = s.plan(shape(), Duration::from_secs(1_000.0), &hub);
        assert_eq!(plan.len(), 1);
        let f = plan.faults()[0];
        assert!(matches!(f.kind, FaultKind::DcFailure { dc } if dc < 2));
        assert_eq!(f.at, SimTime::from_secs(500.0));
    }

    #[test]
    fn storm_mixes_hangs_and_partitions() {
        let s = ImpairmentStorm {
            storms: 3,
            nodes_per_storm: 4,
            span: Duration::from_millis(100.0),
        };
        let hub = RngHub::new(5);
        let plan = s.plan(shape(), Duration::from_secs(100.0), &hub);
        assert_eq!(plan.len(), 12);
        let hangs = plan
            .faults()
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::TransientHang(_)))
            .count();
        let parts = plan
            .faults()
            .iter()
            .filter(|f| matches!(f.kind, FaultKind::Partition { .. }))
            .count();
        assert!(hangs > 0 && parts > 0, "hangs={hangs} partitions={parts}");
        assert!(plan.faults().iter().all(|f| f.kind.heals_after().is_some()));
    }

    #[test]
    fn mixed_schedule_unions_parts() {
        let s = MixedSchedule::new(
            "crashes+rack",
            vec![
                Box::new(NodeCrashes::exponential(
                    Duration::from_secs(200.0),
                    Duration::from_secs(5.0),
                )),
                Box::new(RackKills {
                    mtbf: Duration::from_secs(400.0),
                    repair: Duration::from_secs(20.0),
                }),
            ],
        );
        let hub = RngHub::new(6);
        let plan = s.plan(shape(), Duration::from_secs(5_000.0), &hub);
        assert!(plan
            .faults()
            .iter()
            .any(|f| matches!(f.kind, FaultKind::Crash)));
        assert!(plan
            .faults()
            .iter()
            .any(|f| matches!(f.kind, FaultKind::RackFailure { .. })));
        for w in plan.faults().windows(2) {
            assert!(w[0].at <= w[1].at, "merged plan stays sorted");
        }
    }
}
