//! The checkpoint/recovery protocol.
//!
//! One protocol, [`DvdcProtocol`], over two placements:
//!
//! | Placement | Paper reference | Redundancy | Tolerates |
//! |---|---|---|---|
//! | [`GroupPlacement::orthogonal`](crate::placement::GroupPlacement::orthogonal) | Fig. 4 (the contribution) | distributed per-group parity | 1 node (m=1), m nodes (RS) |
//! | [`GroupPlacement::dedicated`](crate::placement::GroupPlacement::dedicated) | Fig. 1/3 ("first-shot") | every group's parity on one checkpoint node | 1 node |
//!
//! so the Fig. 3-vs-Fig. 4 comparison varies exactly one thing — where
//! parity lives. The paper's comparators are not protocols here: it
//! evaluates the disk-full baseline only analytically (Fig. 5), which
//! `dvdc_model::overhead::cost(ProtocolKind::DiskFull, …)` computes, and
//! Remus only in prose (Section VI), which `remus_compare` reads as a
//! cost row over the cluster's fabric.
//!
//! [`DvdcProtocol::run_round`] performs a coordinated checkpoint of the
//! whole cluster and reports the bytes it moved as a
//! [`RoundLoad`], which
//! [`RoundLoad::price`](dvdc_vcluster::fabric::RoundLoad::price) turns into
//! the paper's overhead and latency; [`DvdcProtocol::recover`] is called after `Cluster::fail_node`,
//! rebuilds the lost state, repairs the node in place, rolls the cluster
//! back to the last committed epoch, and reports the repair time.

pub mod block;
mod dvdc_proto;
mod group_core;
pub mod harness;
pub mod node_core;
mod phased;
pub mod transport;

pub use block::{Block, Page};
pub use dvdc_proto::{
    DvdcProtocol, PhasedRebuild, PhasedRound, RebuildMode, RebuildPhase, RebuildStep, RoundPhase,
    RoundStep,
};
pub use harness::Harness;
pub use node_core::{
    block_digest, fnv64, initial_image, note_event, Action, BlockInfo, BlockKind, ClusterSpec,
    DigestSource, Msg, NodeCore, NodeMetrics, Note, StatusView, CTL, PART_LEN,
};
pub use phased::{run_round_with_faults, DetectionReport, PhasedOutcome};
pub use transport::{dispatch, Transport};

use std::fmt;

use dvdc_checkpoint::store::StoreError;
use dvdc_faults::{FaultKind, NodeFault};
use dvdc_parity::code::CodeError;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::Cluster;
use dvdc_vcluster::fabric::RoundLoad;
use dvdc_vcluster::ids::{NodeId, VmId};
use dvdc_vcluster::topology::{DcId, RackId};

use crate::placement::GroupId;

/// Outcome of one coordinated checkpoint round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// The epoch this round committed.
    pub epoch: u64,
    /// The busiest node's capture, wire and fold bytes: what the round
    /// costs on a fabric ([`RoundLoad::price`]).
    pub load: RoundLoad,
    /// Checkpoint payload captured across all VMs (post-compression view:
    /// incremental rounds ship only dirty pages).
    pub payload_bytes: usize,
    /// Bytes that crossed the network (to NAS, parity holders, or
    /// replicas).
    pub network_bytes: usize,
    /// Parity/replica bytes (re)computed this round.
    pub redundancy_bytes: usize,
    /// Bytes of redundant state (parity blocks, replicas, NAS images)
    /// actually *rewritten* this round. On DVDC's incremental transport
    /// this is the dirty-byte XOR charge — proportional to the pages
    /// dirtied, not to the image size — while a full re-encode charges
    /// whole blocks.
    pub parity_update_bytes: usize,
}

/// Outcome of recovering from one physical-node failure.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The node that failed.
    pub failed_node: NodeId,
    /// VMs whose state was rebuilt.
    pub recovered_vms: Vec<VmId>,
    /// Groups whose parity had to be recomputed (lived on the dead node).
    pub parity_rebuilt: Vec<GroupId>,
    /// Simulated wall-clock cost of the recovery.
    pub repair_time: Duration,
    /// The epoch every VM was rolled back to (`None` when nothing rolled
    /// back: a husk resync, or a scrub repairing blocks in place).
    pub rolled_back_to: Option<u64>,
}

/// Outcome of one integrity scrub pass over the committed stores.
///
/// A scrub walks every committed checkpoint image and parity block,
/// verifies its stored checksum, and repairs any rotten block from the
/// group's surviving redundancy via the same phased rebuild pipeline
/// recovery uses (the corrupt block is treated as an erasure, never as a
/// decode source).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubReport {
    /// Blocks whose checksum was verified (images + parity).
    pub blocks_verified: usize,
    /// Blocks whose checksum did not match the stored bytes.
    pub corrupt_found: usize,
    /// Corrupt blocks rebuilt from parity and rewritten in place.
    pub repaired: usize,
    /// Simulated time the verify + repair pass took.
    pub scrub_time: Duration,
}

/// Typed recovery failure: exceeded redundancy surfaces as a value, not
/// a panic or an opaque string.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoverError {
    /// A group lost more blocks (crashed holders plus checksum-rotten
    /// survivors) than its parity can absorb — the data is gone. Honest
    /// data loss, recorded rather than panicked.
    DataLoss {
        /// The node whose failure (or corruption) pushed the group past
        /// its tolerance.
        node: NodeId,
        /// The group that could not be decoded.
        group: GroupId,
        /// Human-readable cause from the erasure decoder.
        reason: String,
    },
    /// Any other protocol failure (no committed epoch, no failover home,
    /// store or code errors).
    Protocol(ProtocolError),
}

impl fmt::Display for RecoverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverError::DataLoss {
                node,
                group,
                reason,
            } => {
                write!(
                    f,
                    "data loss: failure of {node} exceeded the tolerance of {group}: {reason}"
                )
            }
            RecoverError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RecoverError {}

impl From<ProtocolError> for RecoverError {
    fn from(e: ProtocolError) -> Self {
        RecoverError::Protocol(e)
    }
}

impl From<RecoverError> for ProtocolError {
    fn from(e: RecoverError) -> Self {
        match e {
            RecoverError::DataLoss {
                node,
                group,
                reason,
            } => ProtocolError::Unrecoverable {
                node,
                reason: format!("{group}: {reason}"),
            },
            RecoverError::Protocol(p) => p,
        }
    }
}

/// Protocol failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolError {
    /// Recovery requested before any round committed.
    NoCommittedCheckpoint,
    /// A coordinated round was started while a node was down; recover
    /// first, then checkpoint.
    NodeDown {
        /// The down node.
        node: NodeId,
    },
    /// The failure pattern exceeds the protocol's tolerance.
    Unrecoverable {
        /// The node whose failure broke the protocol.
        node: NodeId,
        /// Human-readable cause.
        reason: String,
    },
    /// A checkpoint store rejected an update.
    Store(StoreError),
    /// An erasure-code operation failed.
    Code(CodeError),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::NoCommittedCheckpoint => {
                write!(f, "no committed checkpoint to recover from")
            }
            ProtocolError::NodeDown { node } => {
                write!(f, "cannot run a coordinated round while {node} is down")
            }
            ProtocolError::Unrecoverable { node, reason } => {
                write!(f, "failure of {node} is unrecoverable: {reason}")
            }
            ProtocolError::Store(e) => write!(f, "store error: {e}"),
            ProtocolError::Code(e) => write!(f, "erasure-code error: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<StoreError> for ProtocolError {
    fn from(e: StoreError) -> Self {
        ProtocolError::Store(e)
    }
}

impl From<CodeError> for ProtocolError {
    fn from(e: CodeError) -> Self {
        ProtocolError::Code(e)
    }
}

/// Rolls the listed VMs back to the given images, clearing dirty state.
/// VMs on down nodes are skipped (their memory does not exist to restore).
pub(crate) fn rollback_vms(cluster: &mut Cluster, images: &[(VmId, Vec<u8>)]) {
    for (vm, img) in images {
        let node = cluster.node_of(*vm);
        if cluster.is_up(node) {
            cluster.vm_mut(*vm).memory_mut().restore(img);
        }
    }
}

/// What one planned fault did to the cluster.
#[derive(Debug, Default)]
pub(crate) struct FaultEffect {
    /// Nodes the fault took down (a crash, or every up node of a failed
    /// rack or DC).
    pub down: Vec<NodeId>,
    /// The node a hang or partition left up but unreachable; the fault's
    /// [`FaultKind::heals_after`] says for how long.
    pub silent: Option<NodeId>,
    /// The up node whose stored blocks a corruption fault rots (blocks
    /// and seed are in the fault's kind). Nothing is mutated here: only
    /// a caller holding the protocol's stores can rot them.
    pub corrupt: Option<NodeId>,
}

/// Strikes the cluster with one planned fault — the cluster-mutating
/// part every driver shares; detector bookkeeping, stalls and trace
/// events stay with the caller. For a domain fault
/// [`NodeFault::node`] carries the rack/DC index and every node of the
/// domain that is still up fails at once; any other kind names one node
/// and does nothing if that node is already down.
pub(crate) fn apply_fault(cluster: &mut Cluster, fault: &NodeFault) -> FaultEffect {
    let mut effect = FaultEffect::default();
    let mut struck = match fault.kind {
        FaultKind::RackFailure { rack } => cluster.topology().nodes_in_rack(RackId(rack)),
        FaultKind::DcFailure { dc } => cluster.topology().nodes_in_dc(DcId(dc)),
        _ => vec![NodeId(fault.node)],
    };
    struck.retain(|&v| cluster.is_up(v));
    for v in struck {
        match fault.kind {
            FaultKind::Crash | FaultKind::RackFailure { .. } | FaultKind::DcFailure { .. } => {
                cluster.fail_node(v);
                effect.down.push(v);
            }
            FaultKind::TransientHang(_) | FaultKind::Partition { .. } => effect.silent = Some(v),
            FaultKind::Corruption { .. } => effect.corrupt = Some(v),
        }
    }
    effect
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = ProtocolError::NoCommittedCheckpoint;
        assert!(e.to_string().contains("no committed"));
        let e = ProtocolError::Unrecoverable {
            node: NodeId(2),
            reason: "double failure".into(),
        };
        assert!(e.to_string().contains("node2"));
        assert!(e.to_string().contains("double failure"));
    }

    #[test]
    fn error_conversions() {
        let se = StoreError::MissingBase { vm: VmId(1) };
        let pe: ProtocolError = se.clone().into();
        assert_eq!(pe, ProtocolError::Store(se));
        let ce = CodeError::ShardLengthMismatch;
        let pe: ProtocolError = ce.clone().into();
        assert_eq!(pe, ProtocolError::Code(ce));
    }

    #[test]
    fn recover_error_round_trips_through_protocol_error() {
        let loss = RecoverError::DataLoss {
            node: NodeId(3),
            group: GroupId(1),
            reason: "too many erasures".into(),
        };
        assert!(loss.to_string().contains("data loss"));
        assert!(loss.to_string().contains("node3"));
        let pe: ProtocolError = loss.into();
        match &pe {
            ProtocolError::Unrecoverable { node, reason } => {
                assert_eq!(*node, NodeId(3));
                assert!(reason.contains("too many erasures"));
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
        let back: RecoverError = pe.clone().into();
        assert_eq!(back, RecoverError::Protocol(pe));
    }
}

/// Fig. 1 / Fig. 3 drills: [`DvdcProtocol`] on
/// [`GroupPlacement::dedicated`](crate::placement::GroupPlacement::dedicated).
/// The module keeps the name these tests carried while first-shot was a
/// protocol of its own, so their ids survive its becoming a placement.
#[cfg(test)]
mod first_shot {
    mod tests {
        use dvdc_vcluster::cluster::{Cluster, ClusterBuilder};
        use dvdc_vcluster::fabric::base_overhead;
        use dvdc_vcluster::ids::{NodeId, VmId};

        use crate::placement::GroupPlacement;
        use crate::protocol::{DvdcProtocol, ProtocolError, RecoverError};

        /// `compute` nodes × `slots` VMs plus a VM-less checkpoint node.
        fn checkpoint_node_cluster(compute: usize, slots: usize) -> (Cluster, DvdcProtocol) {
            let c = ClusterBuilder::new()
                .physical_nodes(compute + 1)
                .spare_nodes(1)
                .vms_per_node(slots)
                .vm_memory(8, 32)
                .build(0);
            let placement = GroupPlacement::dedicated(&c, NodeId(compute)).unwrap();
            let p = DvdcProtocol::new(placement);
            (c, p)
        }

        /// Fig. 1: N+1 nodes, one VM per node, last node is the checkpointer.
        fn fig1() -> (Cluster, DvdcProtocol) {
            checkpoint_node_cluster(4, 1)
        }

        /// Fig. 3: 3 compute nodes × 3 VMs + a checkpoint node.
        fn fig3() -> (Cluster, DvdcProtocol) {
            checkpoint_node_cluster(3, 3)
        }

        fn snapshots(c: &Cluster) -> Vec<Vec<u8>> {
            c.vm_ids()
                .iter()
                .map(|&v| c.vm(v).memory().snapshot())
                .collect()
        }

        #[test]
        fn fig1_single_compute_failure_recovers() {
            let (mut c, mut p) = fig1();
            p.run_round(&mut c).unwrap();
            let want = c.vm(VmId(1)).memory().snapshot();
            c.vm_mut(VmId(1)).memory_mut().write_page(0, &[0xCC; 32]);

            c.fail_node(NodeId(1));
            let rep = p.recover(&mut c, NodeId(1)).unwrap();
            assert_eq!(rep.recovered_vms, vec![VmId(1)]);
            assert_eq!(c.vm(VmId(1)).memory().snapshot(), want);
        }

        #[test]
        fn fig3_groups_are_slot_aligned() {
            let (_, p) = fig3();
            // Slot 0 across compute nodes 0,1,2 = VMs 0,3,6 (the "ABC" of
            // Fig. 3 with our numbering), parity on the checkpoint node.
            let groups = p.placement().groups();
            assert_eq!(groups[0].data, vec![VmId(0), VmId(3), VmId(6)]);
            assert_eq!(groups[2].data, vec![VmId(2), VmId(5), VmId(8)]);
            assert!(groups.iter().all(|g| g.parity_nodes == [NodeId(3)]));
        }

        #[test]
        fn fig3_every_compute_failure_recovers_bytewise() {
            for victim in 0..3 {
                let (mut c, mut p) = fig3();
                p.run_round(&mut c).unwrap();
                let want = snapshots(&c);
                c.fail_node(NodeId(victim));
                let rep = p.recover(&mut c, NodeId(victim)).unwrap();
                assert_eq!(rep.recovered_vms.len(), 3);
                assert_eq!(snapshots(&c), want, "victim={victim}");
            }
        }

        #[test]
        fn parity_node_failure_loses_nothing() {
            let (mut c, mut p) = fig3();
            p.run_round(&mut c).unwrap();
            let want = snapshots(&c);
            c.fail_node(NodeId(3));
            let rep = p.recover(&mut c, NodeId(3)).unwrap();
            assert!(rep.recovered_vms.is_empty());
            assert_eq!(rep.parity_rebuilt.len(), 3);
            assert_eq!(snapshots(&c), want);
            // And a subsequent compute failure still recovers (parity intact).
            c.fail_node(NodeId(0));
            p.recover(&mut c, NodeId(0)).unwrap();
            assert_eq!(snapshots(&c), want);
        }

        #[test]
        fn double_failure_is_unrecoverable() {
            let (mut c, mut p) = fig3();
            p.run_round(&mut c).unwrap();
            c.fail_node(NodeId(0));
            c.fail_node(NodeId(1));
            // Typed: the loss names the victim and the slot group it broke.
            assert!(matches!(
                p.recover_typed(&mut c, NodeId(0)),
                Err(RecoverError::DataLoss { node, .. }) if node == NodeId(0)
            ));
            assert!(matches!(
                p.recover(&mut c, NodeId(0)),
                Err(ProtocolError::Unrecoverable { .. })
            ));
        }

        #[test]
        fn fan_in_cost_exceeds_dvdc_style_distribution() {
            // The structural claim of Section IV-B: every image funnels
            // into the checkpoint node's one link, so the synchronous
            // round costs more than each node shipping its share.
            let (mut c, mut p) = fig3();
            let r = p.run_round(&mut c).unwrap();
            assert_eq!(r.payload_bytes, 9 * 8 * 32); // 9 VMs on 3 nodes
            assert_eq!(r.redundancy_bytes, 3 * 8 * 32); // 3 slot parities
                                                        // The checkpoint node's one link takes all nine images.
            assert_eq!(r.load.wire, r.payload_bytes);
            let distributed = c.fabric().network.link_transfer(r.payload_bytes / 3);
            let (_, synchronous) = r.load.price(c.fabric(), base_overhead());
            assert!(synchronous > distributed);
        }

        #[test]
        fn epochs_and_committed_tracking() {
            let (mut c, mut p) = fig1();
            assert_eq!(p.committed_epoch(), None);
            p.run_round(&mut c).unwrap();
            p.run_round(&mut c).unwrap();
            assert_eq!(p.committed_epoch(), Some(1));
            assert!(p.redundancy_bytes() > 0);
        }
    }
}
