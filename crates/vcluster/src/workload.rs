//! Synthetic page-write workloads.
//!
//! "The principle of locality dictates that certain regions of memory be
//! 'hot' or 'cold' during most types of computation" (Section II-B1) —
//! that skew is what makes incremental checkpointing and pre-copy live
//! migration converge. Every guest sends nine writes in ten to the first
//! tenth of its pages (a [`Workload`]); [`DirtyRateModel`] decides *how
//! many* writes happen per unit of simulated time.

use rand::Rng;

use crate::cluster::Cluster;
use crate::ids::{NodeId, VmId};
use crate::memory::MemoryImage;
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;

/// Fraction of a guest's pages that is "hot": the conventional 90/10
/// working-set skew every simulated guest runs.
const HOT_FRACTION: f64 = 0.1;

/// Probability that a guest write lands in the hot pages.
const HOT_PROBABILITY: f64 = 0.9;

/// Stateful per-VM workload: the 90/10 hot/cold page choice at a write
/// rate.
#[derive(Debug, Clone)]
pub struct Workload {
    rate: DirtyRateModel,
    /// Monotonically increasing value mixed into written pages so repeated
    /// writes change content.
    write_counter: u64,
}

impl Workload {
    /// Creates a workload writing `writes_per_sec` pages per second.
    pub fn new(writes_per_sec: f64) -> Self {
        Workload {
            rate: DirtyRateModel::new(writes_per_sec),
            write_counter: 0,
        }
    }

    /// The configured write rate (pages/second).
    pub fn writes_per_sec(&self) -> f64 {
        self.rate.writes_per_sec()
    }

    /// Advances the workload by `dt`, applying the generated writes to
    /// `mem`. Returns the number of writes performed.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        mem: &mut MemoryImage,
        dt: Duration,
        rng: &mut R,
    ) -> u64 {
        let writes = self.rate.writes_in(dt);
        for _ in 0..writes {
            let page = self.next_page(mem.page_count(), rng);
            self.write_counter += 1;
            mem.touch_page(page, self.write_counter);
        }
        writes
    }

    /// Picks the page for the next write: the first [`HOT_FRACTION`] of
    /// the image with probability [`HOT_PROBABILITY`], the rest otherwise.
    fn next_page<R: Rng + ?Sized>(&mut self, page_count: usize, rng: &mut R) -> usize {
        let hot_pages = ((page_count as f64 * HOT_FRACTION).ceil() as usize).clamp(1, page_count);
        if rng.random::<f64>() < HOT_PROBABILITY {
            rng.random_range(0..hot_pages)
        } else if hot_pages < page_count {
            rng.random_range(hot_pages..page_count)
        } else {
            rng.random_range(0..page_count)
        }
    }
}

/// A cluster-level operation a [`ClusterWorkload`] wants performed.
///
/// Workloads *declare* operations; they do not execute them. Migration
/// destinations, restart recovery, and scrub passes all involve the
/// checkpoint protocol (placement validation, rebuilds), which lives
/// above this crate — the scenario driver in `dvdc` resolves each op
/// against the protocol so any workload composes with any fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadOp {
    /// Live-migrate `vm` to some orthogonality-preserving destination
    /// (chosen by the driver).
    Migrate {
        /// The VM to move.
        vm: VmId,
    },
    /// Administratively restart `node`: fail it and rebuild it in place —
    /// the rolling-maintenance pattern.
    RestartNode {
        /// The node to bounce.
        node: NodeId,
    },
    /// Run a full checksum scrub pass over committed state.
    Scrub,
}

/// What one workload tick did and wants done.
#[derive(Debug, Clone, Default)]
pub struct WorkloadTick {
    /// Guest page writes performed this tick.
    pub writes: u64,
    /// Cluster-level operations for the driver to resolve, in order.
    pub ops: Vec<WorkloadOp>,
}

/// A composable cluster-level workload: advances guest activity each
/// round and declares cluster operations, independently of whatever
/// fault schedule is running. Crossing implementations of this trait
/// with fault schedules is the whole point of the simulation harness —
/// any workload × fault-domain combination drives the same protocol
/// path.
pub trait ClusterWorkload {
    /// Short stable name used in reports and repro strings.
    fn name(&self) -> &'static str;

    /// Advances the workload by one round interval `dt` ending at round
    /// number `round`. Guest writes go directly into VM memory; cluster
    /// operations are returned for the driver.
    fn tick(
        &mut self,
        cluster: &mut Cluster,
        dt: Duration,
        hub: &RngHub,
        round: u64,
    ) -> WorkloadTick;
}

fn run_guests(cluster: &mut Cluster, dt: Duration, hub: &RngHub, round: u64) -> u64 {
    let sub = hub.subhub("wl", round);
    cluster.run_all(dt, |vm| sub.stream_indexed("vm", vm.index() as u64))
}

/// Steady checkpoint traffic: every VM's own [`Workload`] runs at its
/// configured rate, nothing else happens. This is the baseline
/// implementation of the trait.
#[derive(Debug, Clone, Copy, Default)]
pub struct SteadyCheckpoint;

impl ClusterWorkload for SteadyCheckpoint {
    fn name(&self) -> &'static str {
        "steady"
    }

    fn tick(
        &mut self,
        cluster: &mut Cluster,
        dt: Duration,
        hub: &RngHub,
        round: u64,
    ) -> WorkloadTick {
        WorkloadTick {
            writes: run_guests(cluster, dt, hub, round),
            ops: Vec::new(),
        }
    }
}

/// Bursty dirty-page storms: quiet rounds at a fraction of the round
/// interval, then every `period`-th round a storm multiplies guest time
/// by `burst` — the adversarial case for incremental checkpointing
/// (working set blows up right before capture).
#[derive(Debug, Clone, Copy)]
pub struct BurstyDirtyStorm {
    /// A storm strikes every `period` rounds (≥ 1).
    pub period: u64,
    /// Guest-time multiplier during a storm.
    pub burst: f64,
}

impl Default for BurstyDirtyStorm {
    fn default() -> Self {
        BurstyDirtyStorm {
            period: 4,
            burst: 8.0,
        }
    }
}

impl BurstyDirtyStorm {
    /// True if `round` is a storm round.
    pub fn is_storm(&self, round: u64) -> bool {
        round.is_multiple_of(self.period.max(1))
    }
}

impl ClusterWorkload for BurstyDirtyStorm {
    fn name(&self) -> &'static str {
        "bursty-storm"
    }

    fn tick(
        &mut self,
        cluster: &mut Cluster,
        dt: Duration,
        hub: &RngHub,
        round: u64,
    ) -> WorkloadTick {
        let scale = if self.is_storm(round) {
            self.burst
        } else {
            0.25
        };
        WorkloadTick {
            writes: run_guests(
                cluster,
                Duration::from_secs(dt.as_secs() * scale),
                hub,
                round,
            ),
            ops: Vec::new(),
        }
    }
}

/// Migration churn: steady guest traffic plus `per_round` random VMs
/// asking to be live-migrated each round. The driver picks
/// orthogonality-preserving destinations.
#[derive(Debug, Clone, Copy)]
pub struct MigrationChurn {
    /// VMs to migrate per round.
    pub per_round: usize,
}

impl Default for MigrationChurn {
    fn default() -> Self {
        MigrationChurn { per_round: 1 }
    }
}

impl ClusterWorkload for MigrationChurn {
    fn name(&self) -> &'static str {
        "migration-churn"
    }

    fn tick(
        &mut self,
        cluster: &mut Cluster,
        dt: Duration,
        hub: &RngHub,
        round: u64,
    ) -> WorkloadTick {
        let writes = run_guests(cluster, dt, hub, round);
        let mut rng = hub.subhub("wl-churn", round).stream("pick");
        let vm_count = cluster.vm_count();
        let ops = (0..self.per_round)
            .map(|_| WorkloadOp::Migrate {
                vm: VmId(rng.random_range(0..vm_count)),
            })
            .collect();
        WorkloadTick { writes, ops }
    }
}

/// Rolling restarts: steady guest traffic while an operator bounces one
/// node every `every` rounds, walking the cluster in node order — the
/// kernel-upgrade maintenance wave.
#[derive(Debug, Clone, Copy)]
pub struct RollingRestarts {
    /// Rounds between restarts (≥ 1).
    pub every: u64,
    cursor: usize,
}

impl RollingRestarts {
    /// Restarts one node every `every` rounds.
    pub fn new(every: u64) -> Self {
        RollingRestarts {
            every: every.max(1),
            cursor: 0,
        }
    }
}

impl Default for RollingRestarts {
    fn default() -> Self {
        RollingRestarts::new(2)
    }
}

impl ClusterWorkload for RollingRestarts {
    fn name(&self) -> &'static str {
        "rolling-restarts"
    }

    fn tick(
        &mut self,
        cluster: &mut Cluster,
        dt: Duration,
        hub: &RngHub,
        round: u64,
    ) -> WorkloadTick {
        let writes = run_guests(cluster, dt, hub, round);
        let mut ops = Vec::new();
        if round.is_multiple_of(self.every) {
            let node = NodeId(self.cursor % cluster.node_count());
            self.cursor += 1;
            ops.push(WorkloadOp::RestartNode { node });
        }
        WorkloadTick { writes, ops }
    }
}

/// Scrub storms: light guest traffic with a full checksum scrub pass
/// demanded every round — the integrity-paranoid regime that stresses
/// the parity read path concurrently with everything else.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScrubStorm;

impl ClusterWorkload for ScrubStorm {
    fn name(&self) -> &'static str {
        "scrub-storm"
    }

    fn tick(
        &mut self,
        cluster: &mut Cluster,
        dt: Duration,
        hub: &RngHub,
        round: u64,
    ) -> WorkloadTick {
        WorkloadTick {
            writes: run_guests(cluster, Duration::from_secs(dt.as_secs() * 0.5), hub, round),
            ops: vec![WorkloadOp::Scrub],
        }
    }
}

/// Converts elapsed simulated time into an integer number of page writes,
/// carrying the fractional remainder so long-run rates are exact.
#[derive(Debug, Clone)]
pub struct DirtyRateModel {
    writes_per_sec: f64,
    carry: f64,
}

impl DirtyRateModel {
    /// Creates a model with the given rate.
    ///
    /// # Panics
    /// Panics if the rate is negative or non-finite.
    pub fn new(writes_per_sec: f64) -> Self {
        assert!(
            writes_per_sec.is_finite() && writes_per_sec >= 0.0,
            "rate must be non-negative, got {writes_per_sec}"
        );
        DirtyRateModel {
            writes_per_sec,
            carry: 0.0,
        }
    }

    /// The configured rate.
    pub fn writes_per_sec(&self) -> f64 {
        self.writes_per_sec
    }

    /// Number of writes in an interval of length `dt`.
    pub fn writes_in(&mut self, dt: Duration) -> u64 {
        let exact = self.writes_per_sec * dt.as_secs() + self.carry;
        let whole = exact.floor();
        self.carry = exact - whole;
        whole as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_simcore::rng::RngHub;

    #[test]
    fn dirty_rate_long_run_exact() {
        let mut m = DirtyRateModel::new(3.7);
        let mut total = 0u64;
        for _ in 0..1000 {
            total += m.writes_in(Duration::from_secs(0.1));
        }
        // 3.7 * 100s = 370 writes exactly (carry preserves the fraction).
        assert_eq!(total, 370);
    }

    #[test]
    fn zero_rate_never_writes() {
        let mut m = DirtyRateModel::new(0.0);
        assert_eq!(m.writes_in(Duration::from_hours(10.0)), 0);
    }

    #[test]
    fn hot_cold_concentrates_writes() {
        let hub = RngHub::new(8);
        let mut rng = hub.stream("hc");
        let mut w = Workload::new(1.0);
        let pages = 100;
        let mut hot_hits = 0;
        let n = 10_000;
        for _ in 0..n {
            if w.next_page(pages, &mut rng) < 10 {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.02, "hot fraction={frac}");
    }

    #[test]
    fn ninety_ten_draws_are_pinned() {
        let hub = RngHub::new(8);
        let mut rng = hub.stream("pin");
        let mut w = Workload::new(1.0);
        let pages: Vec<usize> = (0..16).map(|_| w.next_page(100, &mut rng)).collect();
        assert_eq!(pages, [5, 2, 4, 7, 2, 2, 1, 1, 4, 4, 2, 99, 6, 5, 5, 4]);
    }

    #[test]
    fn run_applies_writes_and_dirties() {
        let hub = RngHub::new(8);
        let mut rng = hub.stream("run");
        let mut mem = MemoryImage::zeroed(64, 16);
        let mut w = Workload::new(100.0);
        let writes = w.run(&mut mem, Duration::from_secs(1.0), &mut rng);
        assert_eq!(writes, 100);
        assert!(mem.dirty_count() > 0);
        assert!(mem.dirty_count() <= 64);
    }

    #[test]
    fn repeated_writes_to_same_page_change_content() {
        let hub = RngHub::new(8);
        let mut rng = hub.stream("rw");
        let mut mem = MemoryImage::zeroed(1, 16);
        let mut w = Workload::new(1.0);
        let p0 = mem.page(crate::ids::PageIndex(0)).to_vec();
        w.run(&mut mem, Duration::from_secs(1.0), &mut rng);
        let p1 = mem.page(crate::ids::PageIndex(0)).to_vec();
        mem.clear_dirty();
        w.run(&mut mem, Duration::from_secs(1.0), &mut rng);
        let p2 = mem.page(crate::ids::PageIndex(0)).to_vec();
        assert_ne!(p0, p1);
        assert_ne!(p1, p2);
    }

    #[test]
    fn cluster_workloads_tick_deterministically() {
        use crate::cluster::Cluster;
        let build = || {
            Cluster::builder()
                .physical_nodes(4)
                .vms_per_node(2)
                .vm_memory(8, 32)
                .writes_per_sec(100.0)
                .build(0)
        };
        let run = |w: &mut dyn ClusterWorkload| {
            let mut c = build();
            let hub = RngHub::new(9);
            let mut writes = 0;
            let mut ops = Vec::new();
            for round in 0..4 {
                let t = w.tick(&mut c, Duration::from_secs(0.5), &hub, round);
                writes += t.writes;
                ops.extend(t.ops);
            }
            (writes, ops, c.vm(crate::ids::VmId(0)).memory().snapshot())
        };
        // Steady: pure guest traffic, no ops.
        let (w1, ops1, snap1) = run(&mut SteadyCheckpoint);
        assert!(w1 > 0);
        assert!(ops1.is_empty());
        assert_eq!(run(&mut SteadyCheckpoint).2, snap1, "deterministic");

        // Bursty: storms write more than quiet rounds.
        let (w2, _, _) = run(&mut BurstyDirtyStorm::default());
        assert!(w2 > 0);

        // Churn: one migration request per round.
        let (_, ops3, _) = run(&mut MigrationChurn::default());
        assert_eq!(ops3.len(), 4);
        assert!(ops3.iter().all(|o| matches!(o, WorkloadOp::Migrate { .. })));

        // Rolling restarts walk the nodes in order.
        let (_, ops4, _) = run(&mut RollingRestarts::new(2));
        assert_eq!(
            ops4,
            vec![
                WorkloadOp::RestartNode {
                    node: crate::ids::NodeId(0)
                },
                WorkloadOp::RestartNode {
                    node: crate::ids::NodeId(1)
                },
            ]
        );

        // Scrub storm demands a scrub every round.
        let (_, ops5, _) = run(&mut ScrubStorm);
        assert_eq!(ops5, vec![WorkloadOp::Scrub; 4]);
    }

    #[test]
    fn bursty_storm_rounds_dirty_more_pages() {
        use crate::cluster::Cluster;
        let mut c = Cluster::builder()
            .physical_nodes(2)
            .vms_per_node(1)
            .vm_memory(64, 16)
            .writes_per_sec(50.0)
            .build(0);
        let hub = RngHub::new(3);
        let mut w = BurstyDirtyStorm {
            period: 4,
            burst: 8.0,
        };
        // Round 0 is a storm, round 1 is quiet.
        let storm = w.tick(&mut c, Duration::from_secs(1.0), &hub, 0).writes;
        let quiet = w.tick(&mut c, Duration::from_secs(1.0), &hub, 1).writes;
        assert!(
            storm > 4 * quiet.max(1),
            "storm={storm} must dwarf quiet={quiet}"
        );
    }
}
