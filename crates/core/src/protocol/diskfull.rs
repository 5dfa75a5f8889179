//! The disk-full baseline: synchronous full checkpoints to a shared NAS.
//!
//! This is the "normal disk-full checkpointing" curve of Figure 5: every
//! round, every VM's full image funnels through the shared NAS link and
//! onto disk. Execution is suspended until the data is safe on disk, so
//! overhead == latency, and both are dominated by the NAS bottleneck +
//! disk write the paper calls out.

use dvdc_checkpoint::accounting::CheckpointCost;
use dvdc_checkpoint::store::MaterializedStore;
use dvdc_checkpoint::strategy::{Checkpointer, Mode};
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::Cluster;
use dvdc_vcluster::ids::NodeId;

use super::{rollback_vms, CheckpointProtocol, ProtocolError, RecoveryReport, RoundReport};

/// Synchronous full-image checkpointing to a shared NAS.
#[derive(Debug)]
pub struct DiskFullProtocol {
    /// Fixed coordination overhead per round.
    base_overhead: Duration,
    checkpointer: Checkpointer,
    /// The NAS contents: committed images per VM. The NAS survives node
    /// failures (that is the baseline's entire value proposition).
    nas: MaterializedStore,
    committed_epoch: Option<u64>,
    next_epoch: u64,
}

impl DiskFullProtocol {
    /// Creates the baseline with the paper's 40 ms base overhead.
    pub fn new() -> Self {
        DiskFullProtocol {
            base_overhead: Duration::from_millis(40.0),
            checkpointer: Checkpointer::new(Mode::Full),
            nas: MaterializedStore::new(),
            committed_epoch: None,
            next_epoch: 0,
        }
    }
}

impl Default for DiskFullProtocol {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointProtocol for DiskFullProtocol {
    fn name(&self) -> &'static str {
        "disk-full"
    }

    fn committed_epoch(&self) -> Option<u64> {
        self.committed_epoch
    }

    fn run_round(&mut self, cluster: &mut Cluster) -> Result<RoundReport, ProtocolError> {
        let epoch = self.next_epoch;
        let mut payload_bytes = 0usize;
        let mut per_node_bytes = vec![0usize; cluster.node_count()];

        for vm in cluster.vm_ids() {
            let node = cluster.node_of(vm);
            if !cluster.is_up(node) {
                continue;
            }
            let mut ckpt = {
                let mem = cluster.vm_mut(vm).memory_mut();
                self.checkpointer.capture(vm, epoch, mem)
            };
            if self.nas.apply(&ckpt).is_err() {
                // Stale incremental base (epoch gap): full recapture.
                self.checkpointer.reset_vm(vm);
                ckpt = {
                    let mem = cluster.vm_mut(vm).memory_mut();
                    self.checkpointer.capture(vm, epoch, mem)
                };
                self.nas.apply(&ckpt)?;
            }
            payload_bytes += ckpt.size_bytes();
            per_node_bytes[node.index()] += ckpt.size_bytes();
        }

        // Timing: pause → capture (parallel per node) → shared NAS ingest
        // → disk write, all synchronous.
        let fabric = cluster.fabric();
        let writers = cluster.up_nodes().len().max(1);
        let max_node_bytes = per_node_bytes.iter().copied().max().unwrap_or(0);
        let capture = fabric.memory.copy(max_node_bytes);
        let nas = fabric.network.nas_ingest(max_node_bytes, writers);
        let disk = fabric.disk.write(payload_bytes);
        let cost = CheckpointCost::synchronous(self.base_overhead + capture + nas + disk);

        self.committed_epoch = Some(epoch);
        self.next_epoch += 1;
        Ok(RoundReport {
            epoch,
            cost,
            payload_bytes,
            network_bytes: payload_bytes,
            redundancy_bytes: payload_bytes,
            parity_update_bytes: payload_bytes,
        })
    }

    fn recover(
        &mut self,
        cluster: &mut Cluster,
        failed: NodeId,
    ) -> Result<RecoveryReport, ProtocolError> {
        let epoch = self
            .committed_epoch
            .ok_or(ProtocolError::NoCommittedCheckpoint)?;

        // The NAS has everything; repair the node and roll the whole
        // cluster back to the committed images.
        cluster.repair_node(failed);
        let recovered = cluster.vms_on(failed).to_vec();
        let total: usize = cluster
            .vm_ids()
            .iter()
            .filter_map(|&vm| self.nas.image(vm).map(|i| i.len()))
            .sum();

        let nas_images: Vec<(dvdc_vcluster::ids::VmId, Vec<u8>)> = cluster
            .vm_ids()
            .into_iter()
            .filter_map(|vm| self.nas.image(vm).map(|i| (vm, i.to_vec())))
            .collect();
        rollback_vms(cluster, &nas_images);
        self.checkpointer.reset_all();

        // Timing: read everything back from disk, redistribute over the
        // shared NAS link.
        let fabric = cluster.fabric();
        let readers = cluster.up_nodes().len().max(1);
        let per_node = total / readers.max(1);
        let repair_time = fabric.disk.read(total) + fabric.network.nas_ingest(per_node, readers);

        Ok(RecoveryReport {
            failed_node: failed,
            recovered_vms: recovered,
            parity_rebuilt: Vec::new(),
            repair_time,
            rolled_back_to: Some(epoch),
        })
    }

    fn redundancy_bytes(&self) -> usize {
        self.nas.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_vcluster::cluster::ClusterBuilder;
    use dvdc_vcluster::ids::VmId;

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .physical_nodes(3)
            .vms_per_node(2)
            .vm_memory(8, 32)
            .build(0)
    }

    #[test]
    fn round_stores_all_images_on_nas() {
        let mut c = cluster();
        let mut p = DiskFullProtocol::new();
        let r = p.run_round(&mut c).unwrap();
        assert_eq!(r.epoch, 0);
        assert_eq!(r.payload_bytes, 6 * 8 * 32);
        assert_eq!(p.redundancy_bytes(), 6 * 8 * 32);
        assert_eq!(p.committed_epoch(), Some(0));
        // Synchronous: no latency slack.
        assert_eq!(r.cost.overhead, r.cost.latency);
    }

    #[test]
    fn recovery_restores_committed_images() {
        let mut c = cluster();
        let mut p = DiskFullProtocol::new();
        p.run_round(&mut c).unwrap();
        let want = c.vm(VmId(0)).memory().snapshot();

        // Progress past the checkpoint, then crash node 0.
        c.vm_mut(VmId(0)).memory_mut().write_page(1, &[0xAB; 32]);
        c.fail_node(NodeId(0));
        let rep = p.recover(&mut c, NodeId(0)).unwrap();
        assert_eq!(rep.recovered_vms, vec![VmId(0), VmId(1)]);
        assert_eq!(rep.rolled_back_to, Some(0));
        assert!(c.is_up(NodeId(0)));
        assert_eq!(c.vm(VmId(0)).memory().snapshot(), want);
    }

    #[test]
    fn rollback_affects_survivors_too() {
        // Coordinated rollback: even VMs on surviving nodes return to the
        // committed epoch.
        let mut c = cluster();
        let mut p = DiskFullProtocol::new();
        p.run_round(&mut c).unwrap();
        let want = c.vm(VmId(4)).memory().snapshot();
        c.vm_mut(VmId(4)).memory_mut().write_page(0, &[1; 32]);
        c.fail_node(NodeId(0));
        p.recover(&mut c, NodeId(0)).unwrap();
        assert_eq!(c.vm(VmId(4)).memory().snapshot(), want);
    }

    #[test]
    fn recover_without_checkpoint_fails() {
        let mut c = cluster();
        let mut p = DiskFullProtocol::new();
        c.fail_node(NodeId(1));
        assert_eq!(
            p.recover(&mut c, NodeId(1)),
            Err(ProtocolError::NoCommittedCheckpoint)
        );
    }

    #[test]
    fn epochs_advance() {
        let mut c = cluster();
        let mut p = DiskFullProtocol::new();
        for e in 0..3 {
            let r = p.run_round(&mut c).unwrap();
            assert_eq!(r.epoch, e);
        }
        assert_eq!(p.committed_epoch(), Some(2));
    }

    #[test]
    fn overhead_includes_disk_and_nas_terms() {
        let mut c = cluster();
        let mut p = DiskFullProtocol::new();
        let r = p.run_round(&mut c).unwrap();
        // Must exceed the base overhead alone.
        assert!(r.cost.overhead > Duration::from_millis(40.0));
    }
}
