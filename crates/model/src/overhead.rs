//! Per-protocol checkpoint cost models (paper Section V-B).
//!
//! "In both cases, we can essentially look at the amount of data and speed
//! of data transmission for each operation to determine overhead times."
//! The paper identifies the two decisive asymmetries:
//!
//! 1. *Network step*: the disk-full baseline funnels every node's
//!    checkpoint into one NAS (bandwidth shared among writers), while
//!    DVDC's traffic is spread evenly over point-to-point links — "sped up
//!    by a factor roughly linear in the number of machines".
//! 2. *Final step*: the baseline pays a disk write; DVDC pays an in-memory
//!    XOR, "orders-of-magnitude faster".
//!
//! We model three protocols:
//! * [`ProtocolKind::DiskFull`] — synchronous baseline: capture → NAS
//!   ingest (shared) → disk write; execution is suspended throughout (the
//!   checkpoint is not safe until it is on disk).
//! * [`ProtocolKind::DisklessSync`] — DVDC with a synchronous round:
//!   capture → distributed transfer → XOR, all counted as overhead.
//! * [`ProtocolKind::Diskless`] — DVDC riding the Remus-style
//!   copy-on-write transport of Section IV-C: execution resumes after the
//!   fork (capture), and the transfer + parity XOR happen in the
//!   background — they show up as checkpoint *latency*, not overhead.
//!   This is the variant Figure 5 plots, and what makes the 1 % overhead
//!   ratio reachable.

use dvdc_simcore::time::Duration;

use crate::params::Fig5Params;

/// Which checkpointing system to cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Baseline: synchronous full checkpoints to the shared NAS.
    DiskFull,
    /// DVDC with the whole round counted as overhead.
    DisklessSync,
    /// DVDC with COW capture and asynchronous parity (the headline).
    Diskless,
}

impl ProtocolKind {
    /// Display name used in reports and figure legends.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::DiskFull => "disk-full",
            ProtocolKind::DisklessSync => "diskless-sync",
            ProtocolKind::Diskless => "diskless",
        }
    }
}

/// The cost of one checkpoint round under a protocol, plus the repair time
/// a failure costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Guest-visible suspension per round (enters `T_ov`).
    pub overhead: Duration,
    /// Time until the round's checkpoint is usable (≥ overhead).
    pub latency: Duration,
    /// Expected repair/rollback time after a failure (enters `T_r`).
    pub repair: Duration,
    /// Time to *notice* the failure before repair can start (the in-band
    /// detector's suspicion + confirmation window). Protocol-independent:
    /// every scheme needs the cluster to agree a node is dead.
    pub detection: Duration,
}

impl CostBreakdown {
    /// Latency slack (background portion of the round).
    pub fn slack(&self) -> Duration {
        self.latency - self.overhead
    }

    /// Full per-failure cost: detection window plus repair (`T_r` as a
    /// deployment actually pays it — the clock starts at the failure, not
    /// at the announcement).
    pub fn failure_cost(&self) -> Duration {
        self.detection + self.repair
    }
}

/// Computes the per-round cost of `kind` under `p`.
pub fn cost(kind: ProtocolKind, p: &Fig5Params) -> CostBreakdown {
    let net = &p.fabric.network;
    let disk = &p.fabric.disk;
    let mem = &p.fabric.memory;

    // Capture: every node snapshots its VMs' images at memcpy speed
    // (nodes work in parallel, so per-node time).
    let capture = mem.copy(p.bytes_per_node());

    match kind {
        ProtocolKind::DiskFull => {
            // All nodes push into the NAS concurrently, sharing its ingest
            // bandwidth; then the filer streams the aggregate to disk.
            let nas = net.nas_ingest(p.bytes_per_node(), p.nodes);
            let write = disk.write(p.total_bytes());
            let overhead = p.base_overhead + capture + nas + write;
            // Recovery: read every image back from the NAS and redistribute.
            let repair = disk.read(p.total_bytes()) + net.nas_ingest(p.bytes_per_node(), p.nodes);
            CostBreakdown {
                overhead,
                latency: overhead,
                repair,
                detection: p.detection_delay,
            }
        }
        ProtocolKind::DisklessSync | ProtocolKind::Diskless => {
            // Network step: each node ships its VMs' checkpoint data to the
            // parity holders of their groups. Traffic is all-to-all
            // balanced, so the per-node link is the constraint.
            let transfer = net.link_transfer(p.bytes_per_node());
            // Parity: per epoch each node holds parity for its share of the
            // groups; with parity rotated evenly, each node XORs
            // (group members) blocks for (groups/nodes) groups. Conservatively
            // cost one group of `group_width - 1` data blocks + accumulator
            // traffic per node.
            let groups = p
                .vm_count()
                .div_ceil(p.group_width.saturating_sub(1).max(1));
            let groups_per_node = groups.div_ceil(p.nodes).max(1);
            let xor = mem.xor(p.vm_image_bytes, groups_per_node * (p.group_width - 1));
            // Recovery: survivors of the failed node's groups re-send their
            // checkpoints to the reconstruction site, which XORs them; then
            // everyone rolls back (restore at memcpy speed).
            let repair = net.fan_in(p.vm_image_bytes, p.group_width - 1)
                + mem.xor(p.vm_image_bytes, p.group_width - 1)
                + mem.copy(p.bytes_per_node());
            match kind {
                ProtocolKind::DisklessSync => {
                    let overhead = p.base_overhead + capture + transfer + xor;
                    CostBreakdown {
                        overhead,
                        latency: overhead,
                        repair,
                        detection: p.detection_delay,
                    }
                }
                ProtocolKind::Diskless => {
                    // COW fork: guest pauses only for the base coordination
                    // + fork of its node's images; transfer and parity are
                    // background (Section IV-C).
                    let overhead = p.base_overhead + capture;
                    CostBreakdown {
                        overhead,
                        latency: overhead + transfer + xor,
                        repair,
                        detection: p.detection_delay,
                    }
                }
                ProtocolKind::DiskFull => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p() -> Fig5Params {
        Fig5Params::default()
    }

    #[test]
    fn disk_full_overhead_is_minutes() {
        let c = cost(ProtocolKind::DiskFull, &p());
        // 12 GiB through a 250 MB/s NAS + 100 MB/s disk ⇒ ~3 minutes.
        assert!(c.overhead.as_secs() > 100.0, "{}", c.overhead);
        assert!(c.overhead.as_secs() < 600.0, "{}", c.overhead);
        assert_eq!(c.overhead, c.latency);
    }

    #[test]
    fn diskless_async_overhead_is_sub_second() {
        let c = cost(ProtocolKind::Diskless, &p());
        // 40 ms base + 3 GiB fork at 8 GB/s ≈ 0.44 s.
        assert!(c.overhead.as_secs() < 1.0, "{}", c.overhead);
        assert!(c.overhead.as_millis() > 40.0);
        // But the checkpoint only becomes usable after the transfer.
        assert!(c.latency.as_secs() > 10.0, "{}", c.latency);
    }

    #[test]
    fn diskless_sync_sits_between() {
        let full = cost(ProtocolKind::DiskFull, &p()).overhead;
        let dsync = cost(ProtocolKind::DisklessSync, &p()).overhead;
        let dasync = cost(ProtocolKind::Diskless, &p()).overhead;
        assert!(dasync < dsync, "{dasync} !< {dsync}");
        assert!(dsync < full, "{dsync} !< {full}");
    }

    #[test]
    fn diskless_sync_latency_equals_overhead() {
        let c = cost(ProtocolKind::DisklessSync, &p());
        assert_eq!(c.overhead, c.latency);
        assert_eq!(c.slack(), Duration::ZERO);
    }

    #[test]
    fn async_slack_is_the_background_transfer() {
        let sync = cost(ProtocolKind::DisklessSync, &p());
        let asyn = cost(ProtocolKind::Diskless, &p());
        // Background work equals what sync pays up front (same round).
        assert!((asyn.slack().as_secs() - (sync.overhead - asyn.overhead).as_secs()).abs() < 1e-9);
    }

    #[test]
    fn diskless_recovery_is_faster_than_disk_full() {
        // Reconstructing one node's VMs from peers beats re-reading the
        // entire cluster image set from the NAS.
        let full = cost(ProtocolKind::DiskFull, &p()).repair;
        let dvdc = cost(ProtocolKind::Diskless, &p()).repair;
        assert!(dvdc < full, "{dvdc} !< {full}");
    }

    #[test]
    fn network_step_scales_with_node_count() {
        // The paper: distributed transfer is "sped up by a factor roughly
        // linear in the number of machines" relative to the NAS funnel.
        let mut small = p();
        small.nodes = 4;
        let mut large = p();
        large.nodes = 16;
        // Keep per-node payload fixed; the NAS step grows with node count,
        // the distributed step does not.
        let nas_small = cost(ProtocolKind::DiskFull, &small).overhead;
        let nas_large = cost(ProtocolKind::DiskFull, &large).overhead;
        let dvdc_small = cost(ProtocolKind::DisklessSync, &small).overhead;
        let dvdc_large = cost(ProtocolKind::DisklessSync, &large).overhead;
        assert!(nas_large.as_secs() > 2.0 * nas_small.as_secs());
        assert!(dvdc_large.as_secs() < 1.5 * dvdc_small.as_secs());
    }

    #[test]
    fn detection_window_is_protocol_independent() {
        let params = p();
        for kind in [
            ProtocolKind::DiskFull,
            ProtocolKind::DisklessSync,
            ProtocolKind::Diskless,
        ] {
            let c = cost(kind, &params);
            assert_eq!(c.detection, params.detection_delay, "{}", kind.label());
            assert_eq!(c.failure_cost(), c.detection + c.repair);
        }
    }

    #[test]
    fn detection_dominates_nothing_but_is_not_free() {
        // With DVDC's seconds-scale repair the default ~70 ms window is a
        // small tax; with an oracle (zero delay) failure_cost == repair.
        let mut params = p();
        let with = cost(ProtocolKind::Diskless, &params).failure_cost();
        params.detection_delay = Duration::ZERO;
        let oracle = cost(ProtocolKind::Diskless, &params);
        assert_eq!(oracle.failure_cost(), oracle.repair);
        assert!(with > oracle.failure_cost());
        assert!((with - oracle.failure_cost()).as_millis() < 1000.0);
    }

    #[test]
    fn disk_full_cost_is_what_the_nas_protocol_charged() {
        // The sim's disk-full protocol, before it became this cost row,
        // reported these on the Fig. 4 cluster of 1 MiB VMs.
        use dvdc_vcluster::cluster::ClusterBuilder;
        let cluster = ClusterBuilder::new()
            .physical_nodes(4)
            .vms_per_node(3)
            .vm_memory(256, 4096)
            .build(1);
        let params = Fig5Params {
            nodes: 4,
            vms_per_node: 3,
            vm_image_bytes: 256 * 4096,
            base_overhead: Duration::from_millis(40.0),
            fabric: *cluster.fabric(),
            ..Fig5Params::default()
        };
        let c = cost(ProtocolKind::DiskFull, &params);
        assert_eq!(c.overhead.as_secs(), 0.224653984);
        assert_eq!(c.latency, c.overhead);
        assert_eq!(c.repair.as_secs(), 0.163289248);
    }

    #[test]
    fn labels() {
        assert_eq!(ProtocolKind::DiskFull.label(), "disk-full");
        assert_eq!(ProtocolKind::Diskless.label(), "diskless");
        assert_eq!(ProtocolKind::DisklessSync.label(), "diskless-sync");
    }
}
