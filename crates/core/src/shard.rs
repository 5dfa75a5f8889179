//! Sharded cluster model: thousands of nodes from independent sub-clusters.
//!
//! The orthogonal placement (Section IV-B) makes RAID groups independent
//! of one another by construction: a group's round — capture, transfer,
//! fold, commit — touches only its own members and parity holders. That
//! independence is what lets the scheme scale: a 5000-node cluster is not
//! one giant barrier-synchronised round but many small group bundles, each
//! running its own round clock. This module models exactly that. The
//! cluster is split into *shards* — disjoint sub-clusters of four
//! physical nodes, each with its own orthogonal [`GroupPlacement`] and
//! [`DvdcProtocol`] — and every shard drives its phased rounds on an
//! independent, staggered clock. All shards interleave
//! through one deterministic [`Simulation`] event queue, so the model
//! exercises the simcore engine at thousand-node scale (the benchmark's
//! `sim_*` workloads measure events/sec on precisely this loop).
//!
//! Failures stay shard-local: a node crash touches one shard's groups and
//! is recovered by that shard's protocol while every other shard's round
//! clock keeps ticking — the paper's locality argument, made executable.

use dvdc_simcore::engine::Simulation;
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::cluster::{Cluster, ClusterBuilder};
use dvdc_vcluster::ids::NodeId;

use crate::placement::GroupPlacement;
use crate::protocol::{DvdcProtocol, PhasedRound, RoundStep};

/// Physical nodes per shard: one Fig. 4 sub-cluster.
const NODES_PER_SHARD: usize = 4;
/// VMs hosted per node.
const VMS_PER_NODE: usize = 3;
/// Data members per RAID group.
const GROUP_K: usize = 3;
/// Parity blocks per group (= per-shard failure tolerance).
const PARITY_M: usize = 1;
/// Gap between a shard's commit and its next round, in seconds.
const ROUND_INTERVAL_SECS: f64 = 30.0;
/// Per-shard offset of the first round, in milliseconds — staggered
/// clocks, so shard rounds interleave instead of marching in lockstep.
const STAGGER_MS: f64 = 100.0;
/// Guest dirtying time simulated before each capture, in seconds.
const GUEST_DT_SECS: f64 = 1.0;
/// Guest page-write rate during that window.
const WRITES_PER_SEC: f64 = 20.0;

/// Size, length and seed of a sharded run. The geometry and schedule
/// are fixed: shards of four nodes hosting three VMs each in k = 3,
/// m = 1 groups, a round every 30 s after a 1 s dirtying window at 20
/// page writes/s, and shard clocks staggered by 100 ms.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Total physical nodes to model. Rounded down to a whole number of
    /// shards; [`ShardedCluster::node_count`] reports the modeled count.
    pub total_nodes: usize,
    /// Pages per VM image.
    pub pages: usize,
    /// Bytes per page.
    pub page_size: usize,
    /// Checkpoint rounds each shard commits.
    pub rounds: usize,
    /// Seed for all per-VM workload RNG streams.
    pub seed: u64,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            total_nodes: 100,
            pages: 8,
            page_size: 256,
            rounds: 2,
            seed: 0x51a2d,
        }
    }
}

/// One independent sub-cluster with its own protocol and round state.
#[derive(Debug)]
struct Shard {
    cluster: Cluster,
    protocol: DvdcProtocol,
    round: Option<PhasedRound>,
    rounds_committed: usize,
}

/// The event alphabet of the sharded round scheduler.
#[derive(Debug, Clone, Copy)]
enum ShardEvent {
    /// Dirty the shard's guests and open a phased round.
    BeginRound { shard: usize },
    /// Advance the shard's open round by one discrete step.
    StepRound { shard: usize },
}

/// Outcome of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardedRunReport {
    /// Number of shards (independent sub-clusters).
    pub shards: usize,
    /// Physical nodes actually modeled (four per shard).
    pub nodes: usize,
    /// Total VMs across all shards.
    pub vms: usize,
    /// Discrete events the engine processed.
    pub events_processed: u64,
    /// Rounds committed across all shards.
    pub rounds_committed: usize,
    /// Simulated instant the last event fired at.
    pub sim_time: SimTime,
}

/// A cluster of thousands of nodes, modeled as independently clocked
/// shards multiplexed over one deterministic event queue.
#[derive(Debug)]
pub struct ShardedCluster {
    config: ShardConfig,
    shards: Vec<Shard>,
}

impl ShardedCluster {
    /// Builds `total_nodes / 4` sub-clusters, each with its own
    /// orthogonal placement and [`DvdcProtocol`].
    ///
    /// # Panics
    /// Panics if the geometry yields no shards.
    pub fn build(config: ShardConfig) -> Self {
        let shard_count = config.total_nodes / NODES_PER_SHARD;
        assert!(
            shard_count >= 1,
            "total_nodes {} below one shard of {}",
            config.total_nodes,
            NODES_PER_SHARD
        );
        let shards = (0..shard_count)
            .map(|i| {
                let cluster = ClusterBuilder::new()
                    .physical_nodes(NODES_PER_SHARD)
                    .vms_per_node(VMS_PER_NODE)
                    .vm_memory(config.pages, config.page_size)
                    .writes_per_sec(WRITES_PER_SEC)
                    .build(config.seed.wrapping_add(i as u64));
                let placement = GroupPlacement::orthogonal(&cluster, GROUP_K, PARITY_M)
                    .expect("shard geometry admits an orthogonal placement");
                Shard {
                    cluster,
                    protocol: DvdcProtocol::new(placement),
                    round: None,
                    rounds_committed: 0,
                }
            })
            .collect();
        ShardedCluster { config, shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Physical nodes actually modeled.
    pub fn node_count(&self) -> usize {
        self.shards.len() * NODES_PER_SHARD
    }

    /// Total VMs across all shards.
    pub fn vm_count(&self) -> usize {
        self.shards.iter().map(|s| s.cluster.vm_count()).sum()
    }

    /// Read access to one shard's sub-cluster.
    pub fn cluster(&self, shard: usize) -> &Cluster {
        &self.shards[shard].cluster
    }

    /// Read access to one shard's protocol.
    pub fn protocol(&self, shard: usize) -> &DvdcProtocol {
        &self.shards[shard].protocol
    }

    /// Runs every shard's `rounds` checkpoint rounds to completion, all
    /// interleaved through one event queue on staggered per-shard clocks.
    ///
    /// Each shard's cycle: guests dirty pages for a second, a phased
    /// round opens, its discrete steps fire as events (each step's `took`
    /// schedules the next), the commit closes the round, and the next one
    /// is scheduled 30 s later. Deterministic for a fixed
    /// config: per-VM RNG streams are keyed by `(seed, global vm index)`.
    pub fn run(&mut self) -> ShardedRunReport {
        let hub = RngHub::new(self.config.seed);
        let rounds = self.config.rounds;
        let interval = Duration::from_secs(ROUND_INTERVAL_SECS);
        let guest_dt = Duration::from_secs(GUEST_DT_SECS);
        let vms_per_shard = NODES_PER_SHARD * VMS_PER_NODE;

        let mut sim: Simulation<Vec<Shard>, ShardEvent> =
            Simulation::new(std::mem::take(&mut self.shards));
        for i in 0..sim.world.len() {
            sim.schedule(
                SimTime::ZERO + Duration::from_millis(STAGGER_MS) * i as f64,
                ShardEvent::BeginRound { shard: i },
            );
        }
        let events_processed = sim.run_to_completion(|shards, sched, ev| match ev {
            ShardEvent::BeginRound { shard } => {
                let s = &mut shards[shard];
                let base = (shard * vms_per_shard) as u64;
                s.cluster.run_all(guest_dt, |vm| {
                    hub.stream_indexed("shard-vm", base + vm.index() as u64)
                });
                s.round = Some(
                    s.protocol
                        .begin_round(&s.cluster)
                        .expect("healthy shard opens a round"),
                );
                sched.after(Duration::ZERO, ShardEvent::StepRound { shard });
            }
            ShardEvent::StepRound { shard } => {
                let s = &mut shards[shard];
                let mut round = s.round.take().expect("step finds an open round");
                match s
                    .protocol
                    .step_round(&mut s.cluster, &mut round)
                    .expect("healthy shard round steps")
                {
                    RoundStep::Progress { took, .. } => {
                        s.round = Some(round);
                        sched.after(took, ShardEvent::StepRound { shard });
                    }
                    RoundStep::Committed(_) => {
                        s.rounds_committed += 1;
                        if s.rounds_committed < rounds {
                            sched.after(interval, ShardEvent::BeginRound { shard });
                        }
                    }
                }
            }
        });
        let sim_time = sim.now();
        self.shards = std::mem::take(&mut sim.world);
        ShardedRunReport {
            shards: self.shards.len(),
            nodes: self.node_count(),
            vms: self.vm_count(),
            events_processed,
            rounds_committed: self.shards.iter().map(|s| s.rounds_committed).sum(),
            sim_time,
        }
    }

    /// Crashes the first node of `shard`, recovers it through that
    /// shard's protocol, and asserts every VM image in the shard is
    /// byte-identical to its pre-crash state (no guest writes occur
    /// after the final commit, so memory equals the committed epoch).
    /// Returns the number of VMs rebuilt from parity.
    ///
    /// # Panics
    /// Panics if recovery fails or any VM image differs post-recovery.
    pub fn verify_shard_recovery(&mut self, shard: usize) -> usize {
        let s = &mut self.shards[shard];
        let before: Vec<Vec<u8>> = s
            .cluster
            .vm_ids()
            .into_iter()
            .map(|vm| s.cluster.vm(vm).memory().as_bytes().to_vec())
            .collect();
        let victim = NodeId(0);
        s.cluster.fail_node(victim);
        let rebuilt = s
            .protocol
            .recover_typed(&mut s.cluster, victim)
            .expect("one node failure within shard tolerance")
            .recovered_vms
            .len();
        for (vm, pre) in s.cluster.vm_ids().into_iter().zip(&before) {
            assert_eq!(
                s.cluster.vm(vm).memory().as_bytes(),
                &pre[..],
                "shard {shard} {vm:?} not byte-identical after recovery"
            );
        }
        rebuilt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ShardConfig {
        ShardConfig {
            total_nodes: 12,
            rounds: 2,
            ..ShardConfig::default()
        }
    }

    #[test]
    fn builds_whole_shards_only() {
        let sc = ShardedCluster::build(ShardConfig {
            total_nodes: 13,
            ..small_config()
        });
        assert_eq!(sc.shard_count(), 3);
        assert_eq!(sc.node_count(), 12);
        assert_eq!(sc.vm_count(), 36);
    }

    #[test]
    fn all_shards_commit_their_rounds() {
        let mut sc = ShardedCluster::build(small_config());
        let report = sc.run();
        assert_eq!(report.shards, 3);
        assert_eq!(report.rounds_committed, 3 * 2);
        for i in 0..sc.shard_count() {
            assert_eq!(sc.protocol(i).committed_epoch(), Some(1));
        }
        assert!(report.events_processed > 0);
        assert!(report.sim_time > SimTime::ZERO);
    }

    #[test]
    fn staggered_clocks_interleave_shards() {
        // Shard 1 opens its first round 100 ms after shard 0 and commits
        // its second 30 s after that: the two clocks run side by side
        // through one queue, not one shard after the other.
        let mut sc = ShardedCluster::build(ShardConfig {
            total_nodes: 8,
            ..ShardConfig::default()
        });
        let report = sc.run();
        assert_eq!(report.rounds_committed, 4);
        let end = report.sim_time.as_secs();
        assert!(end > 30.1 && end < 31.0, "last commit at {end} s");
    }

    #[test]
    fn recovery_in_one_shard_is_byte_exact() {
        // The middle shard of three, and of the 125 a 500-node cluster
        // splits into.
        for total_nodes in [12, 500] {
            let mut sc = ShardedCluster::build(ShardConfig {
                total_nodes,
                ..small_config()
            });
            let report = sc.run();
            assert_eq!(report.rounds_committed, sc.shard_count() * 2);
            let recovered = sc.verify_shard_recovery(sc.shard_count() / 2);
            assert_eq!(recovered, VMS_PER_NODE, "{total_nodes} nodes");
        }
    }

    #[test]
    fn bulk_shape_counts_are_pinned() {
        // A block digest is a witness and a fold is a kernel: neither
        // steers the sim, so whatever computes them leaves these counts
        // and the byte-exact recovery where they are.
        let mut sc = ShardedCluster::build(ShardConfig {
            total_nodes: 20,
            pages: 16,
            page_size: 4096,
            ..small_config()
        });
        let r = sc.run();
        assert_eq!(
            (
                r.events_processed,
                r.sim_time.as_secs().to_bits(),
                r.rounds_committed
            ),
            (460, 4629253252786074488, 10)
        );
        assert_eq!(sc.verify_shard_recovery(sc.shard_count() / 2), 3);
    }

    #[test]
    fn run_is_deterministic() {
        let run = || {
            let mut sc = ShardedCluster::build(small_config());
            let r = sc.run();
            (
                r.events_processed,
                r.sim_time,
                sc.cluster(2)
                    .vm(dvdc_vcluster::ids::VmId(0))
                    .memory()
                    .as_bytes()
                    .to_vec(),
            )
        };
        assert_eq!(run(), run());
    }
}
