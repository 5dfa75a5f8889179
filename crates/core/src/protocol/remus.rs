//! Remus-like active/standby replication (paper Section VI).
//!
//! The comparator: every VM has a full standby replica on a partner node,
//! refreshed by high-frequency asynchronous checkpoints ("as many as 40
//! times per second"). On failure, the replica takes over immediately —
//! no cluster-wide rollback, no parity math — at the price of a full
//! memory copy per VM (k× more redundant memory than DVDC's 1/k parity)
//! and double the network traffic of a parity delta (the whole dirty set
//! goes to the partner every round).
//!
//! The trade-off the paper draws: "Remus can resume execution upon
//! failure immediately while DVDC must roll back and do parity
//! calculations before resuming" — but Remus pairs tolerate only one
//! failure *per pair*, and the backup memory cost is full replication.

use dvdc_checkpoint::accounting::CheckpointCost;
use dvdc_checkpoint::store::MaterializedStore;
use dvdc_checkpoint::strategy::{Checkpointer, Mode};
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::Cluster;
use dvdc_vcluster::ids::{NodeId, VmId};

use super::{rollback_vms, CheckpointProtocol, ProtocolError, RecoveryReport, RoundReport};

/// Active/standby pair replication.
#[derive(Debug)]
pub struct RemusLikeProtocol {
    checkpointer: Checkpointer,
    /// Replica images, held on each VM's partner node. Indexed by partner
    /// node so a node failure destroys the replicas it hosted.
    replicas: Vec<MaterializedStore>,
    base_overhead: Duration,
    committed_epoch: Option<u64>,
    next_epoch: u64,
}

impl RemusLikeProtocol {
    /// Creates the protocol. Each node's VMs are backed up on the next
    /// node (mod N) — the natural pairing for a ring of hosts.
    pub fn new() -> Self {
        RemusLikeProtocol {
            checkpointer: Checkpointer::new(Mode::Incremental),
            replicas: Vec::new(),
            base_overhead: Duration::from_millis(1.0),
            committed_epoch: None,
            next_epoch: 0,
        }
    }

    /// The node holding `vm`'s standby replica.
    fn backup_node(cluster: &Cluster, vm: VmId) -> NodeId {
        let home = cluster.node_of(vm);
        NodeId((home.index() + 1) % cluster.node_count())
    }

    fn ensure_capacity(&mut self, nodes: usize) {
        while self.replicas.len() < nodes {
            self.replicas.push(MaterializedStore::new());
        }
    }
}

impl Default for RemusLikeProtocol {
    fn default() -> Self {
        Self::new()
    }
}

impl CheckpointProtocol for RemusLikeProtocol {
    fn name(&self) -> &'static str {
        "remus-like"
    }

    fn committed_epoch(&self) -> Option<u64> {
        self.committed_epoch
    }

    fn run_round(&mut self, cluster: &mut Cluster) -> Result<RoundReport, ProtocolError> {
        if let Some(&node) = cluster.node_ids().iter().find(|&&n| !cluster.is_up(n)) {
            return Err(ProtocolError::NodeDown { node });
        }
        self.ensure_capacity(cluster.node_count());
        let epoch = self.next_epoch;

        let mut payload_bytes = 0usize;
        let mut per_node_out = vec![0usize; cluster.node_count()];
        for vm in cluster.vm_ids() {
            let backup = Self::backup_node(cluster, vm);
            let mut ckpt = {
                let mem = cluster.vm_mut(vm).memory_mut();
                self.checkpointer.capture(vm, epoch, mem)
            };
            if self.replicas[backup.index()].apply(&ckpt).is_err() {
                // Replica lost (its holder died since): full re-replication.
                self.checkpointer.reset_vm(vm);
                ckpt = {
                    let mem = cluster.vm_mut(vm).memory_mut();
                    self.checkpointer.capture(vm, epoch, mem)
                };
                self.replicas[backup.index()].apply(&ckpt)?;
            }
            payload_bytes += ckpt.size_bytes();
            per_node_out[cluster.node_of(vm).index()] += ckpt.size_bytes();
        }

        self.committed_epoch = Some(epoch);
        self.next_epoch += 1;

        // Remus runs speculatively: the guest is barely paused (buffer
        // flip), and the dirty set drains to the partner asynchronously.
        let fabric = cluster.fabric();
        let max_out = per_node_out.iter().copied().max().unwrap_or(0);
        let transfer = fabric.network.link_transfer(max_out);
        let cost = CheckpointCost::new(self.base_overhead, self.base_overhead + transfer);

        let redundancy_bytes: usize = self.replicas.iter().map(|r| r.total_bytes()).sum();
        Ok(RoundReport {
            epoch,
            cost,
            payload_bytes,
            network_bytes: payload_bytes,
            redundancy_bytes,
            // Replicas fold in exactly the shipped dirty pages.
            parity_update_bytes: payload_bytes,
        })
    }

    fn recover(
        &mut self,
        cluster: &mut Cluster,
        failed: NodeId,
    ) -> Result<RecoveryReport, ProtocolError> {
        self.committed_epoch
            .ok_or(ProtocolError::NoCommittedCheckpoint)?;
        self.ensure_capacity(cluster.node_count());

        // Replicas hosted *on* the failed node are gone.
        self.replicas[failed.index()].clear();

        // The failed node's VMs resume from their replicas (held on the
        // partner, which must be alive).
        let lost = cluster.vms_on(failed).to_vec();
        let mut restore = Vec::new();
        for &vm in &lost {
            let backup = Self::backup_node(cluster, vm);
            if !cluster.is_up(backup) {
                return Err(ProtocolError::Unrecoverable {
                    node: failed,
                    reason: format!("backup {backup} for {vm} is down too"),
                });
            }
            let image = self.replicas[backup.index()]
                .image(vm)
                .ok_or(ProtocolError::NoCommittedCheckpoint)?
                .to_vec();
            restore.push((vm, image));
        }

        cluster.repair_node(failed);
        rollback_vms(cluster, &restore);
        // Only the failed VMs lose (speculated) work; survivors keep
        // running — rolled_back_to is None to signal no global rollback.
        self.checkpointer.reset_all();

        // The failed node's VMs must be re-replicated, and replicas that
        // lived on the failed node re-seeded; both are background copies.
        let fabric = cluster.fabric();
        let bytes: usize = restore.iter().map(|(_, i)| i.len()).sum();
        let repair_time = fabric.network.link_transfer(bytes) + fabric.memory.copy(bytes);

        Ok(RecoveryReport {
            failed_node: failed,
            recovered_vms: lost,
            parity_rebuilt: Vec::new(),
            repair_time,
            rolled_back_to: None,
        })
    }

    fn redundancy_bytes(&self) -> usize {
        self.replicas.iter().map(|r| r.total_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_vcluster::cluster::ClusterBuilder;

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .physical_nodes(4)
            .vms_per_node(2)
            .vm_memory(8, 32)
            .build(0)
    }

    #[test]
    fn backup_is_next_node_in_ring() {
        let c = cluster();
        assert_eq!(RemusLikeProtocol::backup_node(&c, VmId(0)), NodeId(1));
        assert_eq!(RemusLikeProtocol::backup_node(&c, VmId(7)), NodeId(0));
    }

    #[test]
    fn round_replicates_everything() {
        let mut c = cluster();
        let mut p = RemusLikeProtocol::new();
        let r = p.run_round(&mut c).unwrap();
        // Full replication: redundancy equals the whole VM footprint.
        assert_eq!(r.redundancy_bytes, 8 * 8 * 32);
        assert_eq!(p.redundancy_bytes(), c.total_vm_bytes());
        // Near-zero overhead, positive latency slack (asynchronous).
        assert!(r.cost.overhead < Duration::from_millis(5.0));
        assert!(r.cost.latency > r.cost.overhead);
    }

    #[test]
    fn failed_vms_resume_from_replicas_without_global_rollback() {
        let mut c = cluster();
        let mut p = RemusLikeProtocol::new();
        p.run_round(&mut c).unwrap();
        let want_failed = c.vm(VmId(0)).memory().snapshot();

        // Survivor makes progress that must NOT be rolled back.
        c.vm_mut(VmId(4)).memory_mut().write_page(0, &[7u8; 32]);
        let survivor_after = c.vm(VmId(4)).memory().snapshot();

        c.fail_node(NodeId(0));
        let rep = p.recover(&mut c, NodeId(0)).unwrap();
        assert_eq!(rep.rolled_back_to, None);
        assert_eq!(rep.recovered_vms, vec![VmId(0), VmId(1)]);
        assert_eq!(c.vm(VmId(0)).memory().snapshot(), want_failed);
        assert_eq!(c.vm(VmId(4)).memory().snapshot(), survivor_after);
    }

    #[test]
    fn pair_failure_is_unrecoverable() {
        let mut c = cluster();
        let mut p = RemusLikeProtocol::new();
        p.run_round(&mut c).unwrap();
        c.fail_node(NodeId(0));
        c.fail_node(NodeId(1)); // node 0's partner
        assert!(matches!(
            p.recover(&mut c, NodeId(0)),
            Err(ProtocolError::Unrecoverable { .. })
        ));
    }

    #[test]
    fn memory_cost_is_k_times_dvdc_parity() {
        // Remus: replica bytes == data bytes. DVDC with groups of k:
        // parity bytes == data/k. The paper's Section VI trade-off.
        let mut c = cluster();
        let mut p = RemusLikeProtocol::new();
        p.run_round(&mut c).unwrap();
        let replica = p.redundancy_bytes();
        assert_eq!(replica, c.total_vm_bytes());
    }

    #[test]
    fn incremental_rounds_ship_only_dirty_pages() {
        let mut c = cluster();
        let mut p = RemusLikeProtocol::new();
        let full = p.run_round(&mut c).unwrap();
        c.vm_mut(VmId(3)).memory_mut().write_page(1, &[1u8; 32]);
        let inc = p.run_round(&mut c).unwrap();
        assert_eq!(inc.payload_bytes, 32);
        assert!(inc.payload_bytes < full.payload_bytes);
    }
}
