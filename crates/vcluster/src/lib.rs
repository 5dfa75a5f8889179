//! # dvdc-vcluster
//!
//! Virtual-cluster substrate for the DVDC reproduction.
//!
//! The paper's protocols run on "clusters of virtual machines": physical
//! nodes host several VMs, the hypervisor can snapshot a VM's memory
//! image below the kernel, and failures strike *physical* nodes — taking
//! every hosted VM down together (the correlation that motivates
//! orthogonal RAID groups). This crate models exactly that surface:
//!
//! * [`ids`] — typed identifiers for nodes, VMs, and pages.
//! * [`memory`] — paged VM memory images with dirty-page tracking, the
//!   hypervisor-visible substrate for full and incremental checkpointing.
//! * [`workload`] — a synthetic 90/10 hot/cold page-write workload
//!   standing in for the HPC applications the paper targets; the
//!   working-set skew is what makes incremental checkpointing pay off
//!   (Section II-B1).
//! * [`fabric`] — the timing model: per-node network links, the shared
//!   NAS bottleneck of disk-full checkpointing, disk bandwidth, and the
//!   in-memory XOR bandwidth that makes diskless parity cheap
//!   (Section V-B's two decisive factors).
//! * [`topology`] — the DC → rack → node failure-domain hierarchy with
//!   flat, uniform-rack, and scale-free generators; the correlated units
//!   (whole rack, whole DC) that rack-aware placement must respect.
//! * [`cluster`] — the cluster itself: node/VM topology, placement,
//!   migration of VMs between nodes, and node up/down state.
//! * [`messaging`] — node-to-node transfer bookkeeping: fence epochs,
//!   the retry backoff, and the simulated protocol's transfer ledger.
//!
//! ## Example
//!
//! ```
//! use dvdc_vcluster::cluster::ClusterBuilder;
//!
//! let mut cluster = ClusterBuilder::new()
//!     .physical_nodes(4)
//!     .vms_per_node(3)
//!     .vm_memory(16, 64) // 16 pages of 64 bytes for the doc-test
//!     .build(7);
//! assert_eq!(cluster.vm_count(), 12);
//! let vm = cluster.vm_ids()[0];
//! cluster.vm_mut(vm).memory_mut().write_page(0, &[1u8; 64]);
//! assert_eq!(cluster.vm(vm).memory().dirty_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod fabric;
pub mod ids;
pub mod memory;
pub mod messaging;
pub mod topology;
pub mod workload;

pub use cluster::{Cluster, ClusterBuilder, TopologySpec};
pub use fabric::{DiskModel, FabricModel, MemoryModel, NetworkModel};
pub use ids::{NodeId, PageIndex, VmId};
pub use memory::MemoryImage;
pub use messaging::{
    FenceRegistry, FenceToken, LedgerError, NodeTransfer, RetryDecision, RetryPolicy,
    TransferLedger,
};
pub use topology::{DcId, RackId, Topology};
pub use workload::{
    BurstyDirtyStorm, ClusterWorkload, MigrationChurn, RollingRestarts, ScrubStorm,
    SteadyCheckpoint, WorkloadOp, WorkloadTick,
};
