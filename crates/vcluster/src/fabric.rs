//! The cluster fabric timing model.
//!
//! Section V-B reduces the disk-full vs. diskless comparison to two
//! quantities: *"the network step in the baseline is bottlenecked by a
//! single NAS, whereas diskless checkpointing distributes the traffic
//! evenly among nodes"*, and *"an in-memory XOR operation is going to be
//! orders-of-magnitude faster than a disk write operation of the same
//! size"*. This module is the timing model that encodes exactly those two
//! asymmetries, with default constants typical of the 2012-era gigabit
//! clusters the paper assumes.

use dvdc_simcore::time::Duration;

/// Per-node network characteristics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Point-to-point bandwidth of one node's link, bytes/second.
    pub link_bandwidth: f64,
    /// Aggregate ingest bandwidth of the shared NAS, bytes/second. Every
    /// concurrent writer shares this.
    pub nas_bandwidth: f64,
    /// One-way message latency.
    pub latency: Duration,
}

impl Default for NetworkModel {
    /// Gigabit Ethernet links, a NAS that ingests at 2× a single link
    /// (dual-homed filer), 100 µs latency.
    fn default() -> Self {
        NetworkModel {
            link_bandwidth: 125e6, // 1 Gb/s
            nas_bandwidth: 250e6,  // 2 Gb/s aggregate filer ingest
            latency: Duration::from_micros(100.0),
        }
    }
}

impl NetworkModel {
    /// Time to push `bytes` over one point-to-point link.
    pub fn link_transfer(&self, bytes: usize) -> Duration {
        self.latency + Duration::from_secs(bytes as f64 / self.link_bandwidth)
    }

    /// Time for `writers` nodes to *each* push `bytes_per_writer` into the
    /// shared NAS concurrently. The filer's aggregate bandwidth is divided
    /// among writers, but no writer can exceed its own link.
    pub fn nas_ingest(&self, bytes_per_writer: usize, writers: usize) -> Duration {
        assert!(writers > 0, "need at least one writer");
        let per_writer_bw = (self.nas_bandwidth / writers as f64).min(self.link_bandwidth);
        self.latency + Duration::from_secs(bytes_per_writer as f64 / per_writer_bw)
    }

    /// Time for a node to *fan in* `senders` blocks of `bytes_per_sender`
    /// each: its single link is the bottleneck, so transfers serialise.
    pub fn fan_in(&self, bytes_per_sender: usize, senders: usize) -> Duration {
        assert!(senders > 0, "need at least one sender");
        self.latency
            + Duration::from_secs(senders as f64 * bytes_per_sender as f64 / self.link_bandwidth)
    }
}

/// Secondary-storage characteristics of the NAS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskModel {
    /// Sequential write bandwidth, bytes/second.
    pub write_bandwidth: f64,
    /// Sequential read bandwidth, bytes/second.
    pub read_bandwidth: f64,
    /// Per-operation positioning overhead.
    pub seek: Duration,
}

impl Default for DiskModel {
    /// A 2012-era disk array: ~100 MB/s write, ~120 MB/s read, 8 ms seek.
    fn default() -> Self {
        DiskModel {
            write_bandwidth: 100e6,
            read_bandwidth: 120e6,
            seek: Duration::from_millis(8.0),
        }
    }
}

impl DiskModel {
    /// Time to persist `bytes` (one sequential stream).
    pub fn write(&self, bytes: usize) -> Duration {
        self.seek + Duration::from_secs(bytes as f64 / self.write_bandwidth)
    }

    /// Time to read `bytes` back (restore path).
    pub fn read(&self, bytes: usize) -> Duration {
        self.seek + Duration::from_secs(bytes as f64 / self.read_bandwidth)
    }
}

/// In-memory processing characteristics of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// XOR throughput, bytes/second (per node). This is the "orders of
    /// magnitude faster than disk" constant.
    pub xor_bandwidth: f64,
    /// memcpy throughput, bytes/second, used for snapshot capture.
    pub copy_bandwidth: f64,
}

impl Default for MemoryModel {
    /// DDR3-era single-node streams: 5 GB/s XOR (read+read+write), 8 GB/s
    /// copy.
    fn default() -> Self {
        MemoryModel {
            xor_bandwidth: 5e9,
            copy_bandwidth: 8e9,
        }
    }
}

impl MemoryModel {
    /// Time to XOR `operands` blocks of `bytes` each into an accumulator.
    pub fn xor(&self, bytes: usize, operands: usize) -> Duration {
        Duration::from_secs(operands as f64 * bytes as f64 / self.xor_bandwidth)
    }

    /// Time to copy `bytes` (snapshot capture).
    pub fn copy(&self, bytes: usize) -> Duration {
        Duration::from_secs(bytes as f64 / self.copy_bandwidth)
    }
}

/// The paper's fixed coordination cost of every checkpoint round, paid
/// before a byte is captured: Section V-B's 40 ms "baseline overhead",
/// from the live-migration literature.
pub fn base_overhead() -> Duration {
    Duration::from_millis(40.0)
}

/// What one checkpoint round moved, in bytes — the "amount of data" by
/// which Section V-B prices each operation. Nodes work in parallel, so
/// each column is its busiest node's share, taken over nodes separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundLoad {
    /// Bytes one node snapshots at memcpy speed.
    pub capture: usize,
    /// Bytes one node's link sends or receives.
    pub wire: usize,
    /// Bytes one parity holder folds into its blocks.
    pub fold: usize,
}

impl RoundLoad {
    /// Prices the round on `fabric` after a fixed `base` coordination
    /// cost. Returns the guest pause (base + capture) and the latency
    /// until the checkpoint is usable (pause + (transfer + fold)). A round
    /// whose parity runs synchronously pauses the guest for the latency.
    pub fn price(&self, fabric: &FabricModel, base: Duration) -> (Duration, Duration) {
        let pause = base + fabric.memory.copy(self.capture);
        let background = fabric.network.link_transfer(self.wire) + fabric.memory.xor(self.fold, 1);
        (pause, pause + background)
    }
}

/// The complete fabric: network + disk + memory.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FabricModel {
    /// Network links and the shared NAS path.
    pub network: NetworkModel,
    /// The NAS's backing disks.
    pub disk: DiskModel,
    /// Per-node memory engine.
    pub memory: MemoryModel,
}

impl FabricModel {
    /// Sanity ratio: how much faster the in-memory XOR path is than the
    /// disk write path for the same payload. The paper's argument needs
    /// this to be ≫ 1.
    pub fn xor_vs_disk_speedup(&self, bytes: usize) -> f64 {
        self.disk.write(bytes).as_secs() / self.memory.xor(bytes, 1).as_secs().max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_transfer_scales_linearly() {
        let net = NetworkModel::default();
        let t1 = net.link_transfer(125_000_000); // 1 s of payload at 1 Gb/s
        assert!((t1.as_secs() - 1.0001).abs() < 1e-9, "{t1}");
        let t2 = net.link_transfer(250_000_000);
        assert!(t2 > t1);
    }

    #[test]
    fn nas_shared_among_writers() {
        let net = NetworkModel::default();
        let solo = net.nas_ingest(100_000_000, 1);
        let crowded = net.nas_ingest(100_000_000, 10);
        // Ten writers share 250 MB/s → 25 MB/s each: 4 s vs 0.8 s solo
        // (solo is capped by the 125 MB/s link, not the 250 MB/s filer).
        assert!((solo.as_secs() - 0.8001).abs() < 1e-6, "{solo}");
        assert!((crowded.as_secs() - 4.0001).abs() < 1e-6, "{crowded}");
    }

    #[test]
    fn nas_single_writer_capped_by_link() {
        let net = NetworkModel {
            link_bandwidth: 10.0,
            nas_bandwidth: 1000.0,
            latency: Duration::ZERO,
        };
        // One writer cannot exceed its own 10 B/s link.
        assert!((net.nas_ingest(100, 1).as_secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn fan_in_serialises_senders() {
        let net = NetworkModel::default();
        let one = net.fan_in(1_000_000, 1);
        let four = net.fan_in(1_000_000, 4);
        assert!(
            (four.as_secs() - net.latency.as_secs()) / (one.as_secs() - net.latency.as_secs())
                > 3.9
        );
    }

    #[test]
    fn disk_write_includes_seek() {
        let disk = DiskModel::default();
        let t = disk.write(100_000_000);
        assert!((t.as_secs() - 1.008).abs() < 1e-9, "{t}");
        assert!(disk.read(100_000_000) < t); // reads are faster here
    }

    #[test]
    fn memory_xor_counts_operands() {
        let mem = MemoryModel::default();
        let one = mem.xor(1_000_000, 1);
        let three = mem.xor(1_000_000, 3);
        assert!((three.as_secs() / one.as_secs() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn xor_is_orders_of_magnitude_faster_than_disk() {
        // The paper's central physical claim, checked against our default
        // constants: ≥ 10× for any non-trivial payload, and ~50× for
        // seek-amortised large payloads.
        let fabric = FabricModel::default();
        assert!(fabric.xor_vs_disk_speedup(1 << 30) > 40.0);
        assert!(fabric.xor_vs_disk_speedup(1 << 20) > 10.0);
    }

    #[test]
    fn a_round_pauses_for_capture_and_is_usable_after_its_parity() {
        let f = FabricModel::default();
        let load = RoundLoad {
            capture: 8_000_000,
            wire: 125_000,
            fold: 5_000_000,
        };
        let (pause, latency) = load.price(&f, base_overhead());
        // 40 ms + 1 ms copy; then 100 µs + 1 ms on the link, 1 ms of XOR.
        assert!((pause.as_millis() - 41.0).abs() < 1e-9, "{pause}");
        assert!((latency.as_millis() - 43.1).abs() < 1e-9, "{latency}");
        let (idle, _) = RoundLoad::default().price(&f, base_overhead());
        assert_eq!(idle, base_overhead());
    }

    #[test]
    fn defaults_are_2012_plausible() {
        let f = FabricModel::default();
        assert_eq!(f.network.link_bandwidth, 125e6);
        assert!(f.disk.write_bandwidth < f.memory.xor_bandwidth);
    }
}
