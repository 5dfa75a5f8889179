//! # dvdc — Distributed Virtual Diskless Checkpointing
//!
//! The paper's primary contribution (Eckart et al., IPPS 2012): checkpoint
//! a virtualized cluster *disklessly* by splitting VMs into orthogonal
//! RAID groups that span distinct physical nodes, computing XOR parity per
//! group, and distributing the parity role evenly across the cluster in a
//! RAID-5 fashion — so any single physical-node failure is recoverable
//! from surviving in-memory checkpoints plus parity, with no NAS or disk
//! in the critical path.
//!
//! * [`placement`] — orthogonal RAID-group construction and validation
//!   (Figs. 1–4): every group's data members live on distinct nodes, the
//!   parity block on yet another node, and parity responsibility is
//!   either balanced across nodes (Fig. 4) or parked on one VM-less
//!   checkpoint node ([`GroupPlacement::dedicated`], Fig. 1/3's
//!   "first-shot" design).
//! * [`protocol`] — the checkpoint/recovery protocol, [`DvdcProtocol`]:
//!   diskless checkpointing over whichever placement it is given (Fig. 4,
//!   the contribution, and Fig. 1/3), generalised to `m ≥ 2` parity via
//!   Reed–Solomon. The paper's
//!   comparators are cost rows, not protocols: the disk-full baseline is
//!   `dvdc_model::overhead::cost(ProtocolKind::DiskFull, …)`, the
//!   Section VI Remus row is `dvdc_bench::remus_row`.
//! * [`scenario`] — the workload × fault matrix driver: any
//!   `dvdc-vcluster` workload (steady traffic, dirty-page storms,
//!   migration churn, rolling restarts, scrub storms) crossed with any
//!   `dvdc-faults` schedule (node crashes, correlated rack/DC kills,
//!   impairment storms) through the unchanged detector-supervised round
//!   harness.
//! * [`shard`] — the thousand-node scaling model: the cluster split into
//!   independent sub-clusters (shards), each with its own orthogonal
//!   placement, protocol, and staggered round clock, all interleaved
//!   through one deterministic event queue.
//! * [`sim`] — the end-to-end job runner: a fault-free job of length `T`
//!   executes under a protocol while a `dvdc-faults` plan injects
//!   physical-node failures; the runner drives rounds, failures,
//!   recoveries, and rollbacks, and reports the realised completion time
//!   (used to validate the paper's analytical model at cluster level).
//!
//! ## Example: survive a node crash
//!
//! ```
//! use dvdc::placement::GroupPlacement;
//! use dvdc::protocol::DvdcProtocol;
//! use dvdc_vcluster::cluster::ClusterBuilder;
//! use dvdc_vcluster::ids::NodeId;
//!
//! let mut cluster = ClusterBuilder::new()
//!     .physical_nodes(4)
//!     .vms_per_node(3)
//!     .vm_memory(16, 64)
//!     .build(1);
//! let placement = GroupPlacement::orthogonal(&cluster, 3, 1).unwrap();
//! let mut proto = DvdcProtocol::new(placement);
//!
//! proto.run_round(&mut cluster).unwrap();           // coordinated checkpoint
//! let pre_crash = cluster.vm(dvdc_vcluster::ids::VmId(0)).memory().snapshot();
//!
//! cluster.fail_node(NodeId(0));                      // node 0 dies (3 VMs lost)
//! let report = proto.recover(&mut cluster, NodeId(0)).unwrap();
//! assert_eq!(report.recovered_vms.len(), 3);
//! // VM 0's memory was rebuilt from XOR parity, byte-identical:
//! assert_eq!(cluster.vm(dvdc_vcluster::ids::VmId(0)).memory().snapshot(), pre_crash);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod placement;
pub mod protocol;
pub mod scenario;
pub mod shard;
pub mod sim;

pub use placement::{GroupId, GroupPlacement, RaidGroup};
pub use protocol::{DvdcProtocol, ProtocolError, RecoveryReport, RoundReport};
pub use scenario::{run_scenario, ScenarioConfig, ScenarioReport};
pub use shard::{ShardConfig, ShardedCluster, ShardedRunReport};
pub use sim::{JobOutcome, JobRunner};
