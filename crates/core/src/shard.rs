//! Sharded cluster model: thousands of nodes from independent sub-clusters.
//!
//! The orthogonal placement (Section IV-B) makes RAID groups independent
//! of one another by construction: a group's round — capture, transfer,
//! fold, commit — touches only its own members and parity holders. That
//! independence is what lets the scheme scale: a 5000-node cluster is not
//! one giant barrier-synchronised round but many small group bundles, each
//! running its own round clock. This module models exactly that. The
//! cluster is split into *shards* — disjoint sub-clusters of
//! `nodes_per_shard` physical nodes, each with its own orthogonal
//! [`GroupPlacement`] and [`DvdcProtocol`] — and every shard drives its
//! phased rounds on an independent, staggered clock. All shards interleave
//! through one deterministic [`Simulation`] event queue, so the model
//! exercises the simcore engine at thousand-node scale (the
//! `cluster_scale` bench measures events/sec on precisely this loop).
//!
//! Failures stay shard-local: a node crash touches one shard's groups and
//! is recovered by that shard's protocol while every other shard's round
//! clock keeps ticking — the paper's locality argument, made executable.

use dvdc_simcore::engine::Simulation;
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::cluster::{Cluster, ClusterBuilder, TopologySpec};
use dvdc_vcluster::ids::NodeId;

use crate::placement::GroupPlacement;
use crate::protocol::{DvdcProtocol, PhasedRound, RoundStep};

/// Geometry and schedule of a sharded run.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Total physical nodes to model. Rounded down to a whole number of
    /// shards; [`ShardedCluster::node_count`] reports the modeled count.
    pub total_nodes: usize,
    /// Nodes per shard (each shard is an independent sub-cluster). Must be
    /// at least `group_k + parity_m` for the orthogonal placement.
    pub nodes_per_shard: usize,
    /// VMs hosted per node.
    pub vms_per_node: usize,
    /// Pages per VM image.
    pub pages: usize,
    /// Bytes per page.
    pub page_size: usize,
    /// Data members per RAID group.
    pub group_k: usize,
    /// Parity blocks per group (= per-shard failure tolerance).
    pub parity_m: usize,
    /// Checkpoint rounds each shard commits.
    pub rounds: usize,
    /// Gap between a shard's commit and its next round.
    pub round_interval: Duration,
    /// Per-shard offset of the first round — staggered clocks, so shard
    /// rounds interleave instead of marching in lockstep.
    pub stagger: Duration,
    /// Guest dirtying time simulated before each capture.
    pub guest_dt: Duration,
    /// Guest page-write rate during that window.
    pub writes_per_sec: f64,
    /// Seed for all per-VM workload RNG streams.
    pub seed: u64,
    /// Rack/DC hierarchy applied to *each* shard's sub-cluster. A shard
    /// is a failure-containment unit, so a rack must never straddle a
    /// shard boundary: with [`TopologySpec::UniformRacks`],
    /// `nodes_per_shard` must be a whole number of racks — [`build`]
    /// rejects anything else rather than silently splitting a rack.
    /// The default [`TopologySpec::Flat`] keeps the pre-hierarchy model
    /// (every node its own rack).
    ///
    /// [`build`]: ShardedCluster::build
    pub topology: TopologySpec,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            total_nodes: 100,
            nodes_per_shard: 4,
            vms_per_node: 3,
            pages: 8,
            page_size: 256,
            group_k: 3,
            parity_m: 1,
            rounds: 2,
            round_interval: Duration::from_secs(30.0),
            stagger: Duration::from_millis(100.0),
            guest_dt: Duration::from_secs(1.0),
            writes_per_sec: 20.0,
            seed: 0x51a2d,
            topology: TopologySpec::Flat,
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
    /// Physical nodes actually modeled (`shards * nodes_per_shard`).
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
    /// Builds `total_nodes / nodes_per_shard` sub-clusters, each with its
    /// own orthogonal placement and [`DvdcProtocol`].
    ///
    /// # Panics
    /// Panics if the geometry yields no shards, if a rack would straddle
    /// a shard boundary (`nodes_per_shard` not a whole number of racks),
    /// or the per-shard orthogonal placement is infeasible
    /// (`group_k + parity_m > nodes_per_shard`, VM count not a multiple
    /// of `group_k`, or too few racks for a rack-orthogonal layout).
    pub fn build(config: ShardConfig) -> Self {
        let shard_count = config.total_nodes / config.nodes_per_shard;
        assert!(
            shard_count >= 1,
            "total_nodes {} below one shard of {}",
            config.total_nodes,
            config.nodes_per_shard
        );
        // A shard is the failure-containment unit: every rack must lie
        // wholly inside one shard, never silently split across two.
        if let TopologySpec::UniformRacks { nodes_per_rack, .. } = config.topology {
            assert!(
                nodes_per_rack > 0 && config.nodes_per_shard.is_multiple_of(nodes_per_rack),
                "a rack of {} nodes would straddle a shard boundary of {} nodes",
                nodes_per_rack,
                config.nodes_per_shard
            );
        }
        let shards = (0..shard_count)
            .map(|i| {
                let cluster = ClusterBuilder::new()
                    .physical_nodes(config.nodes_per_shard)
                    .vms_per_node(config.vms_per_node)
                    .vm_memory(config.pages, config.page_size)
                    .writes_per_sec(config.writes_per_sec)
                    .topology(config.topology.clone())
                    .build(config.seed.wrapping_add(i as u64));
                let placement = GroupPlacement::orthogonal_with_parity(
                    &cluster,
                    config.group_k,
                    config.parity_m,
                )
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
        self.shards.len() * self.config.nodes_per_shard
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
    /// Each shard's cycle: guests dirty pages for `guest_dt`, a phased
    /// round opens, its discrete steps fire as events (each step's `took`
    /// schedules the next), the commit closes the round, and the next one
    /// is scheduled `round_interval` later. Deterministic for a fixed
    /// config: per-VM RNG streams are keyed by `(seed, global vm index)`.
    pub fn run(&mut self) -> ShardedRunReport {
        let hub = RngHub::new(self.config.seed);
        let rounds = self.config.rounds;
        let interval = self.config.round_interval;
        let guest_dt = self.config.guest_dt;
        let vms_per_shard = self.config.nodes_per_shard * self.config.vms_per_node;

        let mut sim: Simulation<Vec<Shard>, ShardEvent> =
            Simulation::new(std::mem::take(&mut self.shards));
        for i in 0..sim.world.len() {
            sim.schedule(
                SimTime::ZERO + self.config.stagger * i as f64,
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

    /// Crashes the whole rack containing the first node of `shard` (on
    /// the flat default topology that rack is exactly one node, the
    /// pre-hierarchy behavior), recovers every victim through that
    /// shard's protocol, and asserts every VM image in the shard is
    /// byte-identical to its pre-crash state (no guest writes occur
    /// after the final commit, so memory equals the committed epoch).
    /// Returns the number of VMs rebuilt from parity.
    ///
    /// # Panics
    /// Panics if recovery fails (a racked shard whose placement is not
    /// rack-orthogonal, or a rack wider than the parity tolerance) or
    /// any VM image differs post-recovery.
    pub fn verify_shard_recovery(&mut self, shard: usize) -> usize {
        let s = &mut self.shards[shard];
        let before: Vec<Vec<u8>> = s
            .cluster
            .vm_ids()
            .into_iter()
            .map(|vm| s.cluster.vm(vm).memory().as_bytes().to_vec())
            .collect();
        let rack = s.cluster.rack_of(NodeId(0));
        let victims = s.cluster.topology().nodes_in_rack(rack);
        s.cluster.fail_rack(rack);
        let mut rebuilt = 0;
        for &victim in &victims {
            let report = s
                .protocol
                .recover_typed(&mut s.cluster, victim)
                .expect("whole-rack failure within shard tolerance");
            rebuilt += report.recovered_vms.len();
        }
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
        // With a stagger smaller than a round's span, shard 1's round
        // must start before shard 0's finishes — the queue interleaves
        // them rather than serialising shard-by-shard.
        let mut sc = ShardedCluster::build(ShardConfig {
            total_nodes: 8,
            stagger: Duration::from_micros(1.0),
            rounds: 1,
            ..ShardConfig::default()
        });
        let report = sc.run();
        assert_eq!(report.rounds_committed, 2);
        // Both shards committed despite overlapping in time.
        assert_eq!(sc.protocol(0).committed_epoch(), Some(0));
        assert_eq!(sc.protocol(1).committed_epoch(), Some(0));
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
            assert_eq!(recovered, sc.config.vms_per_node, "{total_nodes} nodes");
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
    fn racked_shards_survive_whole_rack_failure() {
        // Each shard: 8 nodes in 4 racks of 2, k+m = 4 → rack-orthogonal
        // placement, so losing a whole rack (two nodes, six VMs) stays
        // within the m=1 tolerance per group.
        let mut sc = ShardedCluster::build(ShardConfig {
            total_nodes: 16,
            nodes_per_shard: 8,
            topology: TopologySpec::UniformRacks {
                nodes_per_rack: 2,
                racks_per_dc: 4,
            },
            rounds: 1,
            ..ShardConfig::default()
        });
        assert_eq!(sc.shard_count(), 2);
        let report = sc.run();
        assert_eq!(report.rounds_committed, 2);
        let recovered = sc.verify_shard_recovery(0);
        assert_eq!(recovered, 2 * sc.config.vms_per_node);
    }

    #[test]
    #[should_panic(expected = "straddle")]
    fn rack_straddling_shard_boundary_is_rejected() {
        ShardedCluster::build(ShardConfig {
            total_nodes: 12,
            nodes_per_shard: 4,
            topology: TopologySpec::UniformRacks {
                nodes_per_rack: 3,
                racks_per_dc: 2,
            },
            ..ShardConfig::default()
        });
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
