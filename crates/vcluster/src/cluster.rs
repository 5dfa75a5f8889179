//! Cluster topology: physical nodes hosting VMs.
//!
//! The cluster tracks which node hosts which VM (the placement that the
//! DVDC RAID groups must be orthogonal to), node up/down state (failures
//! strike nodes, taking every hosted VM with them — Section IV-A's
//! correlation), and supports moving VMs between nodes (the live-migration
//! hook of Section IV-C).

use rand::Rng;

use crate::fabric::FabricModel;
use crate::ids::{NodeId, VmId};
use crate::memory::MemoryImage;
use crate::topology::{RackId, Topology};
use crate::workload::Workload;
use dvdc_simcore::time::Duration;

/// A virtual machine: identity, memory image, and its write workload.
#[derive(Debug, Clone)]
pub struct Vm {
    id: VmId,
    memory: MemoryImage,
    workload: Workload,
}

impl Vm {
    /// Creates a VM with a patterned memory image (seeded by the VM id so
    /// images are distinct) and the given workload.
    pub fn new(id: VmId, pages: usize, page_size: usize, workload: Workload) -> Self {
        Vm {
            id,
            memory: MemoryImage::patterned(pages, page_size, id.index() as u64 + 1),
            workload,
        }
    }

    /// The VM's identity.
    pub fn id(&self) -> VmId {
        self.id
    }

    /// Read access to the memory image.
    pub fn memory(&self) -> &MemoryImage {
        &self.memory
    }

    /// Write access to the memory image.
    pub fn memory_mut(&mut self) -> &mut MemoryImage {
        &mut self.memory
    }

    /// The VM's workload.
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Advances the guest by `dt`, dirtying pages per the workload.
    pub fn run<R: Rng + ?Sized>(&mut self, dt: Duration, rng: &mut R) -> u64 {
        self.workload.run(&mut self.memory, dt, rng)
    }
}

/// A physical node: up/down state and the set of hosted VMs.
#[derive(Debug, Clone)]
pub struct PhysicalNode {
    id: NodeId,
    vms: Vec<VmId>,
    up: bool,
}

impl PhysicalNode {
    /// The node's identity.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// VMs currently hosted here, in placement order.
    pub fn vms(&self) -> &[VmId] {
        &self.vms
    }

    /// True if the node is operational.
    pub fn is_up(&self) -> bool {
        self.up
    }
}

/// The virtualized cluster: nodes, VMs, placement, and the fabric timing
/// model.
#[derive(Debug, Clone)]
pub struct Cluster {
    nodes: Vec<PhysicalNode>,
    vms: Vec<Vm>,
    /// `placement[vm] = node` hosting it.
    placement: Vec<NodeId>,
    fabric: FabricModel,
    /// DC → rack → node hierarchy; [`Topology::flat`] unless overridden.
    topology: Topology,
}

/// How the builder derives the DC → rack → node hierarchy.
#[derive(Debug, Clone)]
pub enum TopologySpec {
    /// Each node its own rack, one DC — the backward-compatible default.
    Flat,
    /// Consecutive nodes grouped into equal racks, racks into DCs.
    UniformRacks {
        /// Nodes per rack.
        nodes_per_rack: usize,
        /// Racks per data centre.
        racks_per_dc: usize,
    },
    /// An explicit topology; its node count must match the builder's.
    Explicit(Topology),
}

/// Builder for [`Cluster`]. Defaults: 4 nodes × 3 VMs (the paper's Fig. 4
/// configuration), 256 pages of 4 KiB, a 90/10 hot/cold workload at 1000
/// page writes/second; every cluster runs on the default [`FabricModel`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    nodes: usize,
    spare_nodes: usize,
    vms_per_node: usize,
    pages: usize,
    page_size: usize,
    writes_per_sec: f64,
    topology: TopologySpec,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// Creates a builder with the Fig. 4 defaults.
    pub fn new() -> Self {
        ClusterBuilder {
            nodes: 4,
            spare_nodes: 0,
            vms_per_node: 3,
            pages: 256,
            page_size: 4096,
            writes_per_sec: 1000.0,
            topology: TopologySpec::Flat,
        }
    }

    /// Sets the number of physical nodes.
    pub fn physical_nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// The last `n` of the physical nodes host no VMs — Fig. 3's
    /// checkpoint node, which "can do no real work" (default 0: Fig. 4,
    /// every node computes). VM ids stay dense because the empty nodes
    /// come last.
    pub fn spare_nodes(mut self, n: usize) -> Self {
        self.spare_nodes = n;
        self
    }

    /// Sets the number of VMs hosted per (non-spare) node.
    pub fn vms_per_node(mut self, n: usize) -> Self {
        self.vms_per_node = n;
        self
    }

    /// Sets each VM's memory geometry.
    pub fn vm_memory(mut self, pages: usize, page_size: usize) -> Self {
        self.pages = pages;
        self.page_size = page_size;
        self
    }

    /// Sets the guest write rate (page writes per second).
    pub fn writes_per_sec(mut self, rate: f64) -> Self {
        self.writes_per_sec = rate;
        self
    }

    /// Sets the failure-domain hierarchy (default: [`TopologySpec::Flat`]).
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.topology = spec;
        self
    }

    /// Shorthand for [`TopologySpec::UniformRacks`] with all racks in one
    /// DC.
    pub fn racks(self, nodes_per_rack: usize) -> Self {
        self.topology(TopologySpec::UniformRacks {
            nodes_per_rack,
            racks_per_dc: usize::MAX,
        })
    }

    /// Builds the cluster. `seed` only labels the VM images (contents are
    /// a function of VM id); it does not consume RNG state.
    pub fn build(self, _seed: u64) -> Cluster {
        assert!(self.nodes > 0, "cluster needs at least one node");
        assert!(self.vms_per_node > 0, "nodes must host at least one VM");
        assert!(
            self.spare_nodes < self.nodes,
            "at least one node must host VMs"
        );
        let compute = self.nodes - self.spare_nodes;
        let topology = match self.topology {
            TopologySpec::Flat => Topology::flat(self.nodes),
            TopologySpec::UniformRacks {
                nodes_per_rack,
                racks_per_dc,
            } => Topology::uniform_racks(self.nodes, nodes_per_rack, racks_per_dc),
            TopologySpec::Explicit(t) => {
                assert_eq!(
                    t.node_count(),
                    self.nodes,
                    "explicit topology node count must match the builder's"
                );
                t
            }
        };
        let mut nodes = Vec::with_capacity(self.nodes);
        let mut vms = Vec::with_capacity(compute * self.vms_per_node);
        let mut placement = Vec::with_capacity(compute * self.vms_per_node);
        for n in 0..self.nodes {
            let node_id = NodeId(n);
            let slots = if n < compute { self.vms_per_node } else { 0 };
            let mut hosted = Vec::with_capacity(slots);
            for s in 0..slots {
                let vm_id = VmId(n * self.vms_per_node + s);
                hosted.push(vm_id);
                vms.push(Vm::new(
                    vm_id,
                    self.pages,
                    self.page_size,
                    Workload::new(self.writes_per_sec),
                ));
                placement.push(node_id);
            }
            nodes.push(PhysicalNode {
                id: node_id,
                vms: hosted,
                up: true,
            });
        }
        Cluster {
            nodes,
            vms,
            placement,
            fabric: FabricModel::default(),
            topology,
        }
    }
}

impl Cluster {
    /// Starts a builder.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// Number of physical nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// All VM ids in index order.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms.iter().map(|v| v.id()).collect()
    }

    /// All node ids in index order.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.iter().map(|n| n.id()).collect()
    }

    /// The fabric timing model.
    pub fn fabric(&self) -> &FabricModel {
        &self.fabric
    }

    /// Read access to a node.
    pub fn node(&self, id: NodeId) -> &PhysicalNode {
        &self.nodes[id.index()]
    }

    /// Read access to a VM.
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.index()]
    }

    /// Write access to a VM.
    pub fn vm_mut(&mut self, id: VmId) -> &mut Vm {
        &mut self.vms[id.index()]
    }

    /// The node hosting `vm`.
    pub fn node_of(&self, vm: VmId) -> NodeId {
        self.placement[vm.index()]
    }

    /// VMs hosted on `node`.
    pub fn vms_on(&self, node: NodeId) -> &[VmId] {
        &self.nodes[node.index()].vms
    }

    /// True if the node is up.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.nodes[node.index()].up
    }

    /// Ids of nodes currently up.
    pub fn up_nodes(&self) -> Vec<NodeId> {
        self.nodes.iter().filter(|n| n.up).map(|n| n.id()).collect()
    }

    /// Number of nodes currently up, without allocating the id list that
    /// [`Cluster::up_nodes`] builds.
    pub fn up_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.up).count()
    }

    /// The failure-domain hierarchy.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The rack hosting `node`.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.topology.rack_of(node)
    }

    /// Marks a node failed. Returns the VMs that went down with it — the
    /// perfectly correlated failure set of Section IV-A.
    pub fn fail_node(&mut self, node: NodeId) -> Vec<VmId> {
        let n = &mut self.nodes[node.index()];
        n.up = false;
        n.vms.clone()
    }

    /// Fails every node in `rack` (top-of-rack switch loss, rack power
    /// event). Returns all VMs taken down, in node order.
    pub fn fail_rack(&mut self, rack: RackId) -> Vec<VmId> {
        let victims = self.topology.nodes_in_rack(rack);
        let mut lost = Vec::new();
        for node in victims {
            lost.extend(self.fail_node(node));
        }
        lost
    }

    /// Brings a repaired node back (its VMs are still placed there; their
    /// memory must be restored by the recovery protocol before use).
    pub fn repair_node(&mut self, node: NodeId) {
        self.nodes[node.index()].up = true;
    }

    /// Moves `vm` to `to`: live migration's placement effect (its
    /// transfer time is not modelled).
    ///
    /// # Panics
    /// Panics if the destination node is down.
    pub fn migrate_vm(&mut self, vm: VmId, to: NodeId) {
        assert!(self.nodes[to.index()].up, "cannot migrate to a down node");
        let from = self.placement[vm.index()];
        if from == to {
            return;
        }
        let from_node = &mut self.nodes[from.index()];
        from_node.vms.retain(|&v| v != vm);
        self.nodes[to.index()].vms.push(vm);
        self.placement[vm.index()] = to;
    }

    /// Advances every VM on up nodes by `dt`. Each VM draws from its own
    /// RNG stream derived from `hub`, preserving reproducibility under
    /// any iteration order.
    pub fn run_all<R: Rng, F: FnMut(VmId) -> R>(&mut self, dt: Duration, mut stream_for: F) -> u64 {
        let mut writes = 0;
        // Split-borrow nodes (read) from vms (written): no id-list or
        // per-node VM-list allocations on this per-round hot path.
        let Cluster { nodes, vms, .. } = self;
        for node in nodes.iter().filter(|n| n.up) {
            for &vm in &node.vms {
                let mut rng = stream_for(vm);
                writes += vms[vm.index()].run(dt, &mut rng);
            }
        }
        writes
    }

    /// Total memory footprint of all VM images, in bytes.
    pub fn total_vm_bytes(&self) -> usize {
        self.vms.iter().map(|v| v.memory().size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_simcore::rng::RngHub;

    fn small() -> Cluster {
        Cluster::builder()
            .physical_nodes(3)
            .vms_per_node(2)
            .vm_memory(8, 32)
            .build(1)
    }

    #[test]
    fn builder_places_vms_round_robin_by_node() {
        let c = small();
        assert_eq!(c.node_count(), 3);
        assert_eq!(c.vm_count(), 6);
        assert_eq!(c.vms_on(NodeId(0)), &[VmId(0), VmId(1)]);
        assert_eq!(c.vms_on(NodeId(2)), &[VmId(4), VmId(5)]);
        assert_eq!(c.node_of(VmId(3)), NodeId(1));
    }

    #[test]
    fn spare_nodes_come_last_and_host_nothing() {
        let c = Cluster::builder()
            .physical_nodes(4)
            .spare_nodes(1)
            .vms_per_node(3)
            .vm_memory(8, 32)
            .build(1);
        assert_eq!(c.node_count(), 4);
        assert_eq!(c.vm_count(), 9);
        assert_eq!(c.vms_on(NodeId(2)), &[VmId(6), VmId(7), VmId(8)]);
        assert!(c.vms_on(NodeId(3)).is_empty());
        assert!(c.is_up(NodeId(3)));
    }

    #[test]
    #[should_panic(expected = "at least one node must host VMs")]
    fn all_spare_cluster_panics() {
        Cluster::builder().physical_nodes(2).spare_nodes(2).build(0);
    }

    #[test]
    fn vm_images_are_distinct() {
        let c = small();
        assert_ne!(
            c.vm(VmId(0)).memory().as_bytes(),
            c.vm(VmId(1)).memory().as_bytes()
        );
    }

    #[test]
    fn fail_node_reports_hosted_vms() {
        let mut c = small();
        let lost = c.fail_node(NodeId(1));
        assert_eq!(lost, vec![VmId(2), VmId(3)]);
        assert!(!c.is_up(NodeId(1)));
        assert_eq!(c.up_nodes(), vec![NodeId(0), NodeId(2)]);
        c.repair_node(NodeId(1));
        assert!(c.is_up(NodeId(1)));
    }

    #[test]
    fn migrate_moves_placement() {
        let mut c = small();
        c.migrate_vm(VmId(0), NodeId(2));
        assert_eq!(c.node_of(VmId(0)), NodeId(2));
        assert_eq!(c.vms_on(NodeId(0)), &[VmId(1)]);
        assert_eq!(c.vms_on(NodeId(2)), &[VmId(4), VmId(5), VmId(0)]);
        // Self-migration is a no-op.
        c.migrate_vm(VmId(1), NodeId(0));
        assert_eq!(c.vms_on(NodeId(0)), &[VmId(1)]);
    }

    #[test]
    #[should_panic(expected = "down node")]
    fn migrate_to_down_node_panics() {
        let mut c = small();
        c.fail_node(NodeId(2));
        c.migrate_vm(VmId(0), NodeId(2));
    }

    #[test]
    fn run_all_skips_down_nodes() {
        let mut c = Cluster::builder()
            .physical_nodes(2)
            .vms_per_node(1)
            .vm_memory(16, 16)
            .writes_per_sec(10.0)
            .build(0);
        c.fail_node(NodeId(1));
        let hub = RngHub::new(1);
        let writes = c.run_all(Duration::from_secs(1.0), |vm| {
            hub.stream_indexed("vm", vm.index() as u64)
        });
        assert_eq!(writes, 10); // only the surviving VM wrote
        assert!(c.vm(VmId(0)).memory().dirty_count() > 0);
        assert_eq!(c.vm(VmId(1)).memory().dirty_count(), 0);
    }

    #[test]
    fn run_all_is_reproducible() {
        let mk = || {
            let mut c = small();
            let hub = RngHub::new(42);
            c.run_all(Duration::from_secs(2.0), |vm| {
                hub.stream_indexed("vm", vm.index() as u64)
            });
            c.vm(VmId(3)).memory().as_bytes().to_vec()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn total_bytes_accounts_all_vms() {
        let c = small();
        assert_eq!(c.total_vm_bytes(), 6 * 8 * 32);
    }

    #[test]
    fn default_topology_is_flat() {
        let c = small();
        assert!(c.topology().is_flat());
        assert_eq!(c.topology().node_count(), 3);
        assert_eq!(c.rack_of(NodeId(2)), crate::topology::RackId(2));
    }

    #[test]
    fn racked_builder_and_rack_failure() {
        let mut c = Cluster::builder()
            .physical_nodes(6)
            .vms_per_node(2)
            .vm_memory(8, 32)
            .racks(2)
            .build(0);
        assert_eq!(c.topology().rack_count(), 3);
        assert_eq!(c.rack_of(NodeId(3)), crate::topology::RackId(1));
        // Killing rack 1 takes nodes 2 and 3 and their four VMs.
        let lost = c.fail_rack(crate::topology::RackId(1));
        assert_eq!(lost, vec![VmId(4), VmId(5), VmId(6), VmId(7)]);
        assert!(!c.is_up(NodeId(2)));
        assert!(!c.is_up(NodeId(3)));
        assert!(c.is_up(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn explicit_topology_must_match_node_count() {
        Cluster::builder()
            .physical_nodes(4)
            .topology(TopologySpec::Explicit(crate::topology::Topology::flat(3)))
            .build(0);
    }
}
