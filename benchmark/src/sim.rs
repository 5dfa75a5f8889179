//! Adapter for the simulation: every call into `dvdc::shard` for the `sim_*`
//! workloads is in this file.

use std::time::Instant;

use dvdc::shard::{ShardConfig, ShardedCluster};

use crate::procfs;

/// What one build-and-run of the sharded model produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOp {
    pub build_s: f64,
    pub run_s: f64,
    /// CPU time of `run` alone.
    pub run_cpu_ms: f64,
    pub nodes: usize,
    pub vms: usize,
    /// Rounds every shard was asked to commit, summed over shards.
    pub rounds_asked: usize,
    pub rounds_committed: usize,
    pub events: u64,
    pub sim_time_s: f64,
    /// VMs `verify_shard_recovery` rebuilt byte-exact on the middle shard.
    pub recovered_vms: usize,
}

impl SimOp {
    /// The counts that depend only on the seed: two runs of one seed that
    /// differ here are a benchmark failure.
    pub fn exact_counts(&self) -> (u64, u64, usize, usize) {
        (
            self.events,
            self.sim_time_s.to_bits(),
            self.recovered_vms,
            self.rounds_committed,
        )
    }
}

pub fn run_once(nodes: usize, rounds: usize, pages: usize, page_size: usize, seed: u64) -> SimOp {
    let config = ShardConfig {
        total_nodes: nodes,
        rounds,
        pages,
        page_size,
        seed,
        ..ShardConfig::default()
    };
    let start = Instant::now();
    let mut cluster = ShardedCluster::build(config);
    let build_s = start.elapsed().as_secs_f64();

    let cpu_before = procfs::own_cpu_ms();
    let start = Instant::now();
    let report = cluster.run();
    let run_s = start.elapsed().as_secs_f64();
    let run_cpu_ms = procfs::own_cpu_ms() - cpu_before;

    // Crashes a node of the middle shard, rebuilds it from parity and
    // panics unless every image is byte-identical.
    let recovered_vms = cluster.verify_shard_recovery(cluster.shard_count() / 2);
    SimOp {
        build_s,
        run_s,
        run_cpu_ms,
        nodes: report.nodes,
        vms: report.vms,
        rounds_asked: report.shards * rounds,
        rounds_committed: report.rounds_committed,
        events: report.events_processed,
        sim_time_s: report.sim_time.as_secs(),
        recovered_vms,
    }
}
