//! Orthogonal RAID-group placement (paper Section IV-B, Figs. 1–4).
//!
//! The correlation constraint: all VMs on one physical node fail together,
//! so a RAID group may touch each node **at most once** — "for every two
//! VMs, we must create a third parity VM and store the group of three on
//! different nodes". That is exactly gridding RAID groups across disk
//! controllers (Fig. 2), with physical nodes playing the controllers.
//!
//! The construction used here walks VMs in slot-major order so that `k`
//! consecutive VMs always sit on `k` distinct (cyclically consecutive)
//! nodes, and assigns each group's parity to the next node after its data
//! span. For the paper's Fig. 4 shape (4 nodes × 3 VMs, k = 3) this
//! reproduces the figure's layout exactly: group {A,D,G} → parity on the
//! fourth node, and every node ends up holding parity for exactly one
//! group — the RAID-5 balance that lets "all physical machines host
//! working VMs". The design the paper starts from and then replaces —
//! Fig. 1/3's checkpoint node — is the same orthogonal grouping with all
//! parity on one VM-less node: [`GroupPlacement::dedicated`].
//!
//! ## Rack awareness
//!
//! Node distinctness is only as good as node *independence*. When the
//! cluster has a real failure-domain hierarchy (racks, DCs — see
//! `dvdc_vcluster::topology`), a whole-rack failure takes several nodes
//! at once, and a group with two members in one rack exceeds its parity
//! tolerance in a single event. [`GroupPlacement::orthogonal`] is one
//! construction over the topology's rack map: it places each group's
//! members (data *and* parity) in pairwise-distinct racks whenever the
//! rack count permits (`rack_count ≥ k + m`), extending the orthogonality
//! rule one level up. A flat topology makes every node its own rack, so
//! the same walk yields the slot-major layout above. The rack-blind
//! ablation the availability analysis runs is that construction on a
//! flat twin of the racked cluster, run on the racked one.

use std::collections::{BTreeSet, VecDeque};
use std::fmt;

use dvdc_vcluster::cluster::Cluster;
use dvdc_vcluster::ids::{NodeId, VmId};
use dvdc_vcluster::topology::RackId;

/// Identifier of a RAID group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub usize);

impl GroupId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "group{}", self.0)
    }
}

/// One RAID group: `k` data VMs on distinct nodes plus `m ≥ 1` parity
/// blocks, each on yet another distinct node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaidGroup {
    /// The group's id.
    pub id: GroupId,
    /// Data members (VM ids), each hosted on a distinct node.
    pub data: Vec<VmId>,
    /// Nodes holding this group's parity blocks, disjoint from the data
    /// members' nodes. One entry for XOR, `m` entries for the
    /// Reed–Solomon extension.
    pub parity_nodes: Vec<NodeId>,
}

impl RaidGroup {
    /// Number of data members.
    pub fn width(&self) -> usize {
        self.data.len()
    }

    /// Number of parity blocks (failure tolerance of the group).
    pub fn parity_count(&self) -> usize {
        self.parity_nodes.len()
    }

    /// Every node the group occupies under the cluster's *current* VM
    /// placement: its data members' hosts, then its parity holders.
    /// Orthogonality is the statement that these are pairwise distinct.
    fn occupants<'a>(&'a self, cluster: &'a Cluster) -> impl Iterator<Item = NodeId> + 'a {
        self.data
            .iter()
            .map(|&vm| cluster.node_of(vm))
            .chain(self.parity_nodes.iter().copied())
    }

    /// [`RaidGroup::occupants`] without the node `member` itself sits on
    /// — the nodes a move of `member` must stay clear of.
    fn other_occupants<'a>(
        &'a self,
        cluster: &'a Cluster,
        member: Member,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let own = match member {
            Member::Vm(vm) => self.data.iter().position(|&d| d == vm),
            Member::Parity(_, slot) => Some(self.width() + slot),
        };
        self.occupants(cluster)
            .enumerate()
            .filter(move |&(i, _)| Some(i) != own)
            .map(|(_, node)| node)
    }
}

/// One member of a RAID group — the unit that occupies a node and can be
/// moved to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Member {
    /// A data member.
    Vm(VmId),
    /// Parity block `slot` of a group (an index into
    /// [`RaidGroup::parity_nodes`]).
    Parity(GroupId, usize),
}

/// Errors from placement construction/validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// `k + m` exceeds the node count — groups cannot span distinct nodes.
    GroupTooWide {
        /// Requested data members per group.
        k: usize,
        /// Requested parity blocks per group.
        m: usize,
        /// Nodes available.
        nodes: usize,
    },
    /// The VM count is not divisible by `k`, leaving a ragged group.
    RaggedGroups {
        /// Total VMs.
        vms: usize,
        /// Requested data members per group.
        k: usize,
    },
    /// A group touches some node more than once (orthogonality violated).
    NotOrthogonal {
        /// The offending group.
        group: GroupId,
        /// The node touched twice.
        node: NodeId,
    },
    /// The rack-aware constructor ran out of legal hosts for a group —
    /// the topology is too skewed for the requested shape.
    Unplaceable {
        /// The group that could not be completed.
        group: GroupId,
    },
    /// [`GroupPlacement::dedicated`] needs every compute node to host the
    /// same number of VMs, or some slot's group would come up short.
    RaggedSlots {
        /// The first node whose VM count differs.
        node: NodeId,
        /// VMs it hosts.
        slots: usize,
        /// VMs the compute nodes before it host.
        expected: usize,
    },
    /// [`GroupPlacement::dedicated`] was pointed at a node that hosts
    /// VMs: they would share a node with their own group's parity.
    CheckpointNodeHostsVms {
        /// The would-be checkpoint node.
        node: NodeId,
        /// VMs it hosts.
        vms: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::GroupTooWide { k, m, nodes } => write!(
                f,
                "group needs {k}+{m} distinct nodes but the cluster has {nodes}"
            ),
            PlacementError::RaggedGroups { vms, k } => {
                write!(f, "{vms} VMs do not divide into groups of {k}")
            }
            PlacementError::NotOrthogonal { group, node } => {
                write!(f, "{group} touches {node} more than once")
            }
            PlacementError::Unplaceable { group } => {
                write!(f, "no legal host remains for {group} on this topology")
            }
            PlacementError::RaggedSlots {
                node,
                slots,
                expected,
            } => write!(
                f,
                "{node} hosts {slots} VMs where the other compute nodes host {expected}"
            ),
            PlacementError::CheckpointNodeHostsVms { node, vms } => {
                write!(
                    f,
                    "checkpoint node {node} hosts {vms} VMs; it must host none"
                )
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// A complete, validated assignment of every VM to a RAID group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupPlacement {
    groups: Vec<RaidGroup>,
    /// `group_of[vm.index()]` = the group containing that VM.
    group_of: Vec<GroupId>,
}

impl GroupPlacement {
    /// The paper's Fig. 1 / Fig. 3 layout: one VM-less checkpoint node
    /// holds every group's parity, and group *s* is the *s*-th VM of every
    /// other node ("A XOR B XOR C for ABC"). One VM per compute node is
    /// Fig. 1's N+1 scheme. Same diskless protocol as the orthogonal
    /// layouts — only *where parity lives* differs, which is the variable
    /// Section IV-B argues about.
    pub fn dedicated(cluster: &Cluster, checkpoint_node: NodeId) -> Result<Self, PlacementError> {
        let hosted = cluster.vms_on(checkpoint_node).len();
        if hosted > 0 {
            return Err(PlacementError::CheckpointNodeHostsVms {
                node: checkpoint_node,
                vms: hosted,
            });
        }
        let compute: Vec<NodeId> = cluster
            .node_ids()
            .into_iter()
            .filter(|&n| n != checkpoint_node)
            .collect();
        let expected = compute.first().map_or(0, |&n| cluster.vms_on(n).len());
        for &node in &compute {
            let slots = cluster.vms_on(node).len();
            if slots != expected {
                return Err(PlacementError::RaggedSlots {
                    node,
                    slots,
                    expected,
                });
            }
        }
        // Equal slot counts and an empty checkpoint node: the slot-major
        // walk is slot 0 of every compute node, then slot 1, …
        let order = Self::slot_major_order(cluster);
        let mut group_of = vec![GroupId(0); order.len()];
        let mut groups = Vec::with_capacity(expected);
        for (slot, chunk) in order.chunks(compute.len()).enumerate() {
            let id = GroupId(slot);
            for &vm in chunk {
                group_of[vm.index()] = id;
            }
            groups.push(RaidGroup {
                id,
                data: chunk.to_vec(),
                parity_nodes: vec![checkpoint_node],
            });
        }
        let placement = GroupPlacement { groups, group_of };
        placement.validate(cluster)?;
        Ok(placement)
    }

    /// Every VM in slot-major order: VM (node n, slot s) sits at position
    /// s·N + n on a uniform cluster.
    fn slot_major_order(cluster: &Cluster) -> Vec<VmId> {
        let nodes = cluster.node_ids();
        let max_slots = nodes
            .iter()
            .map(|&nid| cluster.vms_on(nid).len())
            .max()
            .unwrap_or(0);
        let mut order = Vec::with_capacity(cluster.vm_count());
        for slot in 0..max_slots {
            for &nid in &nodes {
                if let Some(&vm) = cluster.vms_on(nid).get(slot) {
                    order.push(vm);
                }
            }
        }
        order
    }

    /// Builds the orthogonal placement with `k` data members and `m`
    /// parity blocks per group (`m = 1` is the paper's XOR configuration;
    /// `m ≥ 2` tolerates `m` failures with Reed–Solomon).
    ///
    /// Each group draws its `k` data members from `k` distinct racks —
    /// racks with the most unassigned VMs first (ties by rack index), FIFO
    /// in slot-major order within a rack — so on uniform topologies the
    /// groups coincide with the slot-major layout while never co-locating
    /// two members in a rack. Parity goes to ring-walk candidates from the
    /// node after the last data member, in racks the group has not
    /// touched, least parity-load first (ties by walk order, which keeps
    /// Fig. 4's layout when the choice is forced at `k + m = N`). Groups
    /// are pairwise rack-distinct whenever `rack_count ≥ k + m` (see
    /// [`GroupPlacement::is_rack_orthogonal`]); with fewer racks the rack
    /// constraint is relaxed to node distinctness exactly where the
    /// topology leaves no rack-fresh candidate.
    pub fn orthogonal(cluster: &Cluster, k: usize, m: usize) -> Result<Self, PlacementError> {
        assert!(k >= 1, "groups need at least one data member");
        assert!(m >= 1, "groups need at least one parity block");
        let n = cluster.node_count();
        if k + m > n {
            return Err(PlacementError::GroupTooWide { k, m, nodes: n });
        }
        let vms = cluster.vm_count();
        if !vms.is_multiple_of(k) {
            return Err(PlacementError::RaggedGroups { vms, k });
        }
        let topo = cluster.topology();
        let racks = topo.rack_count();

        // Per-rack FIFO queues of unassigned VMs, slot-major within rack.
        let mut queues: Vec<VecDeque<VmId>> = vec![VecDeque::new(); racks];
        for vm in Self::slot_major_order(cluster) {
            queues[topo.rack_of(cluster.node_of(vm)).index()].push_back(vm);
        }

        // First VM in `queue` hosted on a node outside `used`, removed.
        fn take_avoiding(
            queue: &mut VecDeque<VmId>,
            used: &[NodeId],
            cluster: &Cluster,
        ) -> Option<VmId> {
            let pos = queue
                .iter()
                .position(|&vm| !used.contains(&cluster.node_of(vm)))?;
            queue.remove(pos)
        }

        let mut groups = Vec::with_capacity(vms / k);
        let mut group_of = vec![GroupId(0); vms];
        let mut parity_load = vec![0usize; n];
        for gi in 0..vms / k {
            let id = GroupId(gi);
            let mut data: Vec<VmId> = Vec::with_capacity(k);
            let mut data_nodes: Vec<NodeId> = Vec::with_capacity(k);
            let mut used_racks: Vec<usize> = Vec::with_capacity(k + m);
            for _ in 0..k {
                let mut order: Vec<usize> = (0..racks).filter(|&r| !queues[r].is_empty()).collect();
                order.sort_by_key(|&r| (usize::MAX - queues[r].len(), r));
                let picked = order
                    .iter()
                    .copied()
                    .filter(|r| !used_racks.contains(r))
                    .find_map(|r| {
                        take_avoiding(&mut queues[r], &data_nodes, cluster).map(|vm| (r, vm))
                    })
                    .or_else(|| {
                        // No fresh rack can host: relax to node
                        // distinctness (skewed topology).
                        order.iter().copied().find_map(|r| {
                            take_avoiding(&mut queues[r], &data_nodes, cluster).map(|vm| (r, vm))
                        })
                    });
                let (rack, vm) = picked.ok_or(PlacementError::Unplaceable { group: id })?;
                used_racks.push(rack);
                data_nodes.push(cluster.node_of(vm));
                data.push(vm);
            }

            // Parity: walk the ring from the node after the last data
            // member, skipping group members; rack-fresh candidates take
            // precedence over rack-used ones.
            let start = data_nodes.last().expect("non-empty group").index();
            let ring: Vec<NodeId> = (1..=n)
                .map(|step| NodeId((start + step) % n))
                .filter(|cand| !data_nodes.contains(cand))
                .collect();
            let mut parity_nodes: Vec<NodeId> = Vec::with_capacity(m);
            for _ in 0..m {
                let free: Vec<NodeId> = ring
                    .iter()
                    .copied()
                    .filter(|c| !parity_nodes.contains(c))
                    .collect();
                let fresh: Vec<NodeId> = free
                    .iter()
                    .copied()
                    .filter(|c| !used_racks.contains(&topo.rack_of(*c).index()))
                    .collect();
                let mut pool = if fresh.is_empty() { free } else { fresh };
                debug_assert!(!pool.is_empty(), "k+m ≤ n guarantees a candidate");
                pool.sort_by_key(|c| parity_load[c.index()]);
                let p = pool[0];
                used_racks.push(topo.rack_of(p).index());
                parity_load[p.index()] += 1;
                parity_nodes.push(p);
            }

            for &vm in &data {
                group_of[vm.index()] = id;
            }
            groups.push(RaidGroup {
                id,
                data,
                parity_nodes,
            });
        }

        let placement = GroupPlacement { groups, group_of };
        placement.validate(cluster)?;
        Ok(placement)
    }

    /// All groups.
    pub fn groups(&self) -> &[RaidGroup] {
        &self.groups
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group containing `vm`.
    pub fn group_of(&self, vm: VmId) -> &RaidGroup {
        &self.groups[self.group_of[vm.index()].index()]
    }

    /// The parity blocks `node` holds, as `(group, slot)` with `slot` an
    /// index into that group's [`RaidGroup::parity_nodes`].
    pub fn parity_slots_on(&self, node: NodeId) -> impl Iterator<Item = (GroupId, usize)> + '_ {
        self.groups.iter().flat_map(move |g| {
            let slots = g.parity_nodes.iter().enumerate();
            slots.filter_map(move |(slot, &p)| (p == node).then_some((g.id, slot)))
        })
    }

    /// Whether `node` holds any group's state — it hosts VMs (their
    /// checkpoints live in its local store) or a parity block. A down
    /// node that holds state blocks a round and needs a rebuild; one that
    /// holds none is an evacuated husk.
    pub fn holds_state(&self, cluster: &Cluster, node: NodeId) -> bool {
        !cluster.vms_on(node).is_empty() || self.parity_slots_on(node).next().is_some()
    }

    /// Verifies orthogonality against the cluster's *current* placement:
    /// within each group, every data node and parity node is distinct.
    pub fn validate(&self, cluster: &Cluster) -> Result<(), PlacementError> {
        for g in &self.groups {
            let mut seen = BTreeSet::new();
            if let Some(node) = g.occupants(cluster).find(|&n| !seen.insert(n)) {
                return Err(PlacementError::NotOrthogonal { group: g.id, node });
            }
        }
        Ok(())
    }

    /// Orthogonality one level up: true if every group spans
    /// pairwise-distinct racks (and so distinct nodes) under the
    /// cluster's current placement. [`GroupPlacement::orthogonal`]
    /// establishes this whenever `rack_count ≥ k + m`; a whole-rack
    /// failure then costs each group at most one member.
    pub fn is_rack_orthogonal(&self, cluster: &Cluster) -> bool {
        self.groups.iter().all(|g| {
            let mut seen = BTreeSet::new();
            g.occupants(cluster)
                .all(|n| seen.insert(cluster.rack_of(n)))
        })
    }

    /// How many members (data or parity) of each group live on `node` —
    /// the failure-impact profile. Recoverability with `m` parity blocks
    /// requires every entry ≤ `m`; orthogonal placement guarantees ≤ 1.
    pub fn impact_of_node_failure(&self, cluster: &Cluster, node: NodeId) -> Vec<(GroupId, usize)> {
        self.groups
            .iter()
            .map(|g| (g.id, g.occupants(cluster).filter(|&n| n == node).count()))
            .collect()
    }

    /// Parity-block count per node — the load-balance profile the RAID-5
    /// distribution is meant to flatten.
    pub fn parity_load(&self, node_count: usize) -> Vec<usize> {
        let mut load = vec![0usize; node_count];
        for g in &self.groups {
            for p in &g.parity_nodes {
                load[p.index()] += 1;
            }
        }
        load
    }

    /// The group `member` belongs to.
    fn group_of_member(&self, member: Member) -> &RaidGroup {
        match member {
            Member::Vm(vm) => self.group_of(vm),
            Member::Parity(gid, _) => &self.groups[gid.index()],
        }
    }

    /// The orthogonality rule for one move: `member` may live on `to`
    /// only if no *other* member of its group already occupies it.
    pub fn check_move(
        &self,
        cluster: &Cluster,
        member: Member,
        to: NodeId,
    ) -> Result<(), PlacementError> {
        let group = self.group_of_member(member);
        if group.other_occupants(cluster, member).any(|n| n == to) {
            return Err(PlacementError::NotOrthogonal {
                group: group.id,
                node: to,
            });
        }
        Ok(())
    }

    /// Where `member` should live — the one statement of where a group
    /// member may move, shared by migration and failover. Candidates are
    /// the up nodes, minus `vacating` (the node a failover is emptying),
    /// minus every node another member of the group occupies. Among
    /// them, a node in a rack no other member touches wins: moves must
    /// not erode rack-orthogonality, or the first whole-rack failure
    /// afterwards takes two members of one group and defeats single
    /// parity. Only when no such rack remains does node distinctness
    /// alone decide (on a flat topology every node is its own rack, so
    /// the preference changes nothing). Within a tier the least-loaded
    /// node wins — by VM count for a VM, by parity-block count for a
    /// parity block — lowest node id among equals.
    ///
    /// A VM's current host is itself a candidate unless it is `vacating`:
    /// an answer equal to it means "stay". `None` means no legal host
    /// exists.
    pub fn host_for(
        &self,
        cluster: &Cluster,
        member: Member,
        vacating: Option<NodeId>,
    ) -> Option<NodeId> {
        let group = self.group_of_member(member);
        let taken: Vec<NodeId> = group.other_occupants(cluster, member).collect();
        let taken_racks: Vec<RackId> = taken.iter().map(|&n| cluster.rack_of(n)).collect();
        let load = |n: NodeId| match member {
            Member::Vm(_) => cluster.vms_on(n).len(),
            Member::Parity(..) => self.parity_slots_on(n).count(),
        };
        cluster
            .up_nodes()
            .into_iter()
            .filter(|&n| Some(n) != vacating && !taken.contains(&n))
            .min_by_key(|&n| (taken_racks.contains(&cluster.rack_of(n)), load(n)))
    }

    /// Moves one of a group's parity blocks from `from` to `to` — the
    /// placement side of failing over parity responsibility when its
    /// holder dies (the protocol re-encodes the block at the new home).
    ///
    /// Fails with [`PlacementError::NotOrthogonal`] if `to` already hosts
    /// one of the group's data members or another of its parity blocks.
    ///
    /// # Panics
    /// Panics if the group holds no parity on `from`.
    pub fn rehome_parity(
        &mut self,
        cluster: &Cluster,
        gid: GroupId,
        from: NodeId,
        to: NodeId,
    ) -> Result<(), PlacementError> {
        let slot = self.groups[gid.index()]
            .parity_nodes
            .iter()
            .position(|&p| p == from)
            .unwrap_or_else(|| panic!("{gid} holds no parity on {from}"));
        self.check_move(cluster, Member::Parity(gid, slot), to)?;
        self.groups[gid.index()].parity_nodes[slot] = to;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_vcluster::cluster::ClusterBuilder;

    fn cluster(nodes: usize, vms_per_node: usize) -> Cluster {
        ClusterBuilder::new()
            .physical_nodes(nodes)
            .vms_per_node(vms_per_node)
            .vm_memory(4, 16)
            .build(0)
    }

    #[test]
    fn fig4_layout_is_reproduced() {
        // 4 nodes × 3 VMs, groups of 3: the paper's Fig. 4 (A XOR D XOR G
        // on the node after G's).
        let c = cluster(4, 3);
        let p = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
        assert_eq!(p.group_count(), 4);
        // Slot 0: VMs on nodes 0,1,2 = VmIds 0,3,6 ("A,D,G"); parity node 3.
        let g0 = &p.groups()[0];
        assert_eq!(g0.data, vec![VmId(0), VmId(3), VmId(6)]);
        assert_eq!(g0.parity_nodes, vec![NodeId(3)]);
        // Every node holds parity for exactly one group.
        assert_eq!(p.parity_load(4), vec![1, 1, 1, 1]);
    }

    #[test]
    fn orthogonality_holds_for_many_shapes() {
        for (n, v, k) in [
            (3, 2, 2),
            (4, 3, 3),
            (5, 4, 2),
            (8, 2, 4),
            (6, 6, 3),
            (16, 4, 8),
        ] {
            let c = cluster(n, v);
            let p = GroupPlacement::orthogonal(&c, k, 1)
                .unwrap_or_else(|e| panic!("n={n} v={v} k={k}: {e}"));
            p.validate(&c).unwrap();
            // Any single node failure touches each group at most once.
            for node in c.node_ids() {
                for (gid, hits) in p.impact_of_node_failure(&c, node) {
                    assert!(hits <= 1, "n={n} v={v} k={k}: {gid} hit {hits}× by {node}");
                }
            }
        }
    }

    #[test]
    fn every_vm_is_in_exactly_one_group() {
        let c = cluster(4, 3);
        let p = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
        let mut counts = vec![0usize; c.vm_count()];
        for g in p.groups() {
            for vm in &g.data {
                counts[vm.index()] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 1));
        // And group_of agrees.
        for vm in c.vm_ids() {
            assert!(p.group_of(vm).data.contains(&vm));
        }
    }

    #[test]
    fn parity_load_is_balanced() {
        for (n, v, k) in [(4, 3, 3), (5, 4, 4), (8, 4, 2)] {
            let c = cluster(n, v);
            let p = GroupPlacement::orthogonal(&c, k, 1).unwrap();
            let load = p.parity_load(n);
            let (min, max) = (
                load.iter().min().copied().unwrap(),
                load.iter().max().copied().unwrap(),
            );
            assert!(
                max - min <= 1,
                "n={n} v={v} k={k}: unbalanced parity load {load:?}"
            );
        }
    }

    #[test]
    fn double_parity_uses_two_distinct_extra_nodes() {
        let c = cluster(6, 2);
        let p = GroupPlacement::orthogonal(&c, 3, 2).unwrap();
        for g in p.groups() {
            assert_eq!(g.parity_count(), 2);
            assert_ne!(g.parity_nodes[0], g.parity_nodes[1]);
        }
        p.validate(&c).unwrap();
        // Any TWO node failures hit each group at most twice.
        for a in c.node_ids() {
            for b in c.node_ids() {
                if a == b {
                    continue;
                }
                for g in p.groups() {
                    let hits: usize = p
                        .impact_of_node_failure(&c, a)
                        .iter()
                        .chain(p.impact_of_node_failure(&c, b).iter())
                        .filter(|(gid, _)| *gid == g.id)
                        .map(|(_, h)| h)
                        .sum();
                    assert!(hits <= 2);
                }
            }
        }
    }

    fn racked_cluster(nodes: usize, vms_per_node: usize, nodes_per_rack: usize) -> Cluster {
        ClusterBuilder::new()
            .physical_nodes(nodes)
            .vms_per_node(vms_per_node)
            .vm_memory(4, 16)
            .racks(nodes_per_rack)
            .build(0)
    }

    #[test]
    fn rack_aware_placement_never_colocates_group_members_in_a_rack() {
        // 8 nodes in 4 racks of 2, k=3 m=1: k+m = rack count, so full
        // rack orthogonality is feasible — and required.
        for m in [1usize, 2] {
            let c = racked_cluster(10, 3, 2); // 5 racks
            let p = GroupPlacement::orthogonal(&c, 3, m).unwrap_or_else(|e| panic!("m={m}: {e}"));
            assert!(p.is_rack_orthogonal(&c), "m={m}");
        }
    }

    #[test]
    fn flat_ablation_on_racked_cluster_exceeds_rack_tolerance() {
        // The rack-blind ablation: the construction run on a flat twin
        // (same builder calls, same node and VM ids) puts consecutive
        // nodes — rack mates — into one group, so on the racked cluster a
        // single rack failure costs some group two members.
        let racked = racked_cluster(8, 3, 2);
        let blind = GroupPlacement::orthogonal(&cluster(8, 3), 3, 1).unwrap();
        blind.validate(&racked).unwrap();
        assert!(!blind.is_rack_orthogonal(&racked));
        assert!(GroupPlacement::orthogonal(&racked, 3, 1)
            .unwrap()
            .is_rack_orthogonal(&racked));
    }

    #[test]
    fn rack_aware_on_flat_topology_is_the_slot_major_layout() {
        // Every node its own rack: k consecutive VMs of the slot-major
        // walk form a group, parity on the ring after its data span.
        let layout = |n, v, k, m| -> Vec<(Vec<usize>, Vec<usize>)> {
            let p = GroupPlacement::orthogonal(&cluster(n, v), k, m).unwrap();
            let groups = p.groups().iter();
            groups
                .map(|g| {
                    let data = g.data.iter().map(|vm| vm.index()).collect();
                    (data, g.parity_nodes.iter().map(|n| n.index()).collect())
                })
                .collect()
        };
        assert_eq!(
            layout(4, 3, 3, 1),
            [
                (vec![0, 3, 6], vec![3]),
                (vec![9, 1, 4], vec![2]),
                (vec![7, 10, 2], vec![1]),
                (vec![5, 8, 11], vec![0]),
            ]
        );
        assert_eq!(
            layout(6, 2, 3, 2),
            [
                (vec![0, 2, 4], vec![3, 4]),
                (vec![6, 8, 10], vec![0, 1]),
                (vec![1, 3, 5], vec![5, 3]),
                (vec![7, 9, 11], vec![2, 0]),
            ]
        );
    }

    #[test]
    fn rack_aware_parity_load_stays_balanced() {
        let c = racked_cluster(8, 3, 2);
        let p = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
        let load = p.parity_load(8);
        let (min, max) = (
            load.iter().min().copied().unwrap(),
            load.iter().max().copied().unwrap(),
        );
        assert!(max - min <= 1, "unbalanced parity load {load:?}");
    }

    #[test]
    fn rack_aware_with_few_racks_falls_back_to_node_distinctness() {
        // 2 racks cannot host k+m = 4 distinct-rack members; the
        // constructor must still produce a node-orthogonal placement.
        let c = racked_cluster(8, 3, 4); // 2 racks of 4
        let p = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
        p.validate(&c).unwrap();
        assert!(!p.is_rack_orthogonal(&c));
    }

    fn with_checkpoint_node(compute: usize, slots: usize) -> Cluster {
        ClusterBuilder::new()
            .physical_nodes(compute + 1)
            .spare_nodes(1)
            .vms_per_node(slots)
            .vm_memory(4, 16)
            .build(0)
    }

    #[test]
    fn dedicated_is_slot_aligned_with_all_parity_on_one_node() {
        // Fig. 3: 3 compute nodes × 3 VMs, node 3 the checkpointer.
        let c = with_checkpoint_node(3, 3);
        let p = GroupPlacement::dedicated(&c, NodeId(3)).unwrap();
        assert_eq!(p.group_count(), 3);
        for (slot, g) in p.groups().iter().enumerate() {
            let want: Vec<VmId> = (0..3).map(|n| VmId(n * 3 + slot)).collect();
            assert_eq!(g.data, want);
            assert_eq!(g.parity_nodes, vec![NodeId(3)]);
        }
        for vm in c.vm_ids() {
            assert!(p.group_of(vm).data.contains(&vm));
        }
        // The load orthogonal placement flattens, undistributed.
        assert_eq!(p.parity_load(4), vec![0, 0, 0, 3]);
        assert_eq!(p.parity_slots_on(NodeId(3)).count(), 3);
        // Still orthogonal: any node failure costs a group one member.
        p.validate(&c).unwrap();
        for node in c.node_ids() {
            for (gid, hits) in p.impact_of_node_failure(&c, node) {
                assert_eq!(hits, 1, "{gid} hit {hits}× by {node}");
            }
        }
    }

    #[test]
    fn dedicated_with_one_slot_is_fig1_n_plus_one() {
        let c = with_checkpoint_node(4, 1);
        let p = GroupPlacement::dedicated(&c, NodeId(4)).unwrap();
        assert_eq!(p.group_count(), 1);
        assert_eq!(p.groups()[0].data, c.vm_ids());
        assert_eq!(p.groups()[0].parity_nodes, vec![NodeId(4)]);
    }

    #[test]
    fn dedicated_rejects_a_checkpoint_node_that_hosts_vms() {
        let c = cluster(4, 3);
        let err = GroupPlacement::dedicated(&c, NodeId(3)).unwrap_err();
        assert_eq!(
            err,
            PlacementError::CheckpointNodeHostsVms {
                node: NodeId(3),
                vms: 3
            }
        );
        assert!(err.to_string().contains("must host none"));
    }

    #[test]
    fn dedicated_rejects_ragged_slots() {
        // A second VM-less node is a compute node with the wrong slot
        // count, and so is one a migration emptied by a VM.
        let two_spares = ClusterBuilder::new()
            .physical_nodes(4)
            .spare_nodes(2)
            .vms_per_node(2)
            .vm_memory(4, 16)
            .build(0);
        assert_eq!(
            GroupPlacement::dedicated(&two_spares, NodeId(3)),
            Err(PlacementError::RaggedSlots {
                node: NodeId(2),
                slots: 0,
                expected: 2
            })
        );
        let mut c = with_checkpoint_node(3, 2);
        c.migrate_vm(VmId(2), NodeId(0));
        let err = GroupPlacement::dedicated(&c, NodeId(3)).unwrap_err();
        assert!(matches!(err, PlacementError::RaggedSlots { node, .. } if node == NodeId(1)));
        assert!(err.to_string().contains("node1 hosts 1 VMs"));
    }

    #[test]
    fn dedicated_validation_catches_migration_onto_a_group_peer() {
        let mut c = with_checkpoint_node(3, 2);
        let p = GroupPlacement::dedicated(&c, NodeId(3)).unwrap();
        // VM 2 (node 1, slot 0) joins VM 0 (node 0, slot 0) on node 0.
        c.migrate_vm(VmId(2), NodeId(0));
        assert!(matches!(
            p.validate(&c),
            Err(PlacementError::NotOrthogonal { node, .. }) if node == NodeId(0)
        ));
    }

    #[test]
    fn too_wide_group_rejected() {
        let c = cluster(3, 2);
        assert_eq!(
            GroupPlacement::orthogonal(&c, 3, 1),
            Err(PlacementError::GroupTooWide {
                k: 3,
                m: 1,
                nodes: 3
            })
        );
    }

    #[test]
    fn ragged_vm_count_rejected() {
        let c = cluster(4, 1); // 4 VMs
        assert_eq!(
            GroupPlacement::orthogonal(&c, 3, 1),
            Err(PlacementError::RaggedGroups { vms: 4, k: 3 })
        );
    }

    #[test]
    fn validation_catches_migration_induced_violation() {
        let mut c = cluster(4, 3);
        let p = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
        // Migrate VM 3 (group 0, node 1) onto node 0, colliding with VM 0.
        c.migrate_vm(VmId(3), NodeId(0));
        let err = p.validate(&c).unwrap_err();
        assert!(matches!(err, PlacementError::NotOrthogonal { node, .. } if node == NodeId(0)));
    }

    #[test]
    fn error_messages_render() {
        let e = PlacementError::GroupTooWide {
            k: 3,
            m: 1,
            nodes: 3,
        };
        assert!(e.to_string().contains("3+1"));
        let e = PlacementError::RaggedGroups { vms: 7, k: 2 };
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn fig2_orthogonal_raid_analogy() {
        // 3 "controllers" × 2 "disks" each: exhaustively, no controller
        // failure destroys any group (Fig. 2's property).
        let c = cluster(3, 2);
        let p = GroupPlacement::orthogonal(&c, 2, 1).unwrap();
        for node in c.node_ids() {
            for (_, hits) in p.impact_of_node_failure(&c, node) {
                assert!(hits <= 1);
            }
        }
    }

    #[test]
    fn rehome_parity_moves_to_free_node() {
        let c = cluster(6, 2);
        let mut p = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
        let gid = p.groups()[0].id;
        let from = p.groups()[0].parity_nodes[0];
        // Find a node not involved with group 0 at all.
        let involved: Vec<NodeId> = p.groups()[0]
            .data
            .iter()
            .map(|&v| c.node_of(v))
            .chain([from])
            .collect();
        let to = c
            .node_ids()
            .into_iter()
            .find(|n| !involved.contains(n))
            .expect("free node exists");
        p.rehome_parity(&c, gid, from, to).unwrap();
        assert_eq!(p.groups()[0].parity_nodes[0], to);
        p.validate(&c).unwrap();
    }

    #[test]
    fn rehome_parity_onto_data_node_rejected() {
        let c = cluster(6, 2);
        let mut p = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
        let gid = p.groups()[0].id;
        let from = p.groups()[0].parity_nodes[0];
        let data_node = c.node_of(p.groups()[0].data[0]);
        assert!(matches!(
            p.rehome_parity(&c, gid, from, data_node),
            Err(PlacementError::NotOrthogonal { .. })
        ));
        // Unchanged on failure.
        assert_eq!(p.groups()[0].parity_nodes[0], from);
    }

    #[test]
    fn host_for_takes_a_free_rack_first_and_a_free_node_second() {
        // 4 racks of 2, k=2 m=1: a group touches 3 racks and leaves one.
        let mut c = racked_cluster(8, 1, 2);
        let p = GroupPlacement::orthogonal(&c, 2, 1).unwrap();
        let group = &p.groups()[0];
        let vm = Member::Vm(group.data[0]);
        let home = c.node_of(group.data[0]);
        let others: Vec<NodeId> = group.occupants(&c).filter(|&n| n != home).collect();
        let rack_free: Vec<NodeId> = c
            .node_ids()
            .into_iter()
            .filter(|&n| others.iter().all(|&o| c.rack_of(o) != c.rack_of(n)))
            .collect();
        // Staying is an answer unless the home is being vacated.
        assert_eq!(p.host_for(&c, vm, None), Some(home));
        let dest = p.host_for(&c, vm, Some(home)).unwrap();
        assert!(rack_free.contains(&dest) && dest != home);
        // No rack-free node left: node distinctness alone decides.
        for &n in &rack_free {
            c.fail_node(n);
        }
        let dest = p.host_for(&c, vm, Some(home)).unwrap();
        assert!(!rack_free.contains(&dest));
        p.check_move(&c, vm, dest).unwrap();
        assert!(p.check_move(&c, vm, others[0]).is_err());
        // Only the other members' own nodes are left up.
        for n in c.node_ids() {
            if !others.contains(&n) {
                c.fail_node(n);
            }
        }
        assert_eq!(p.host_for(&c, vm, Some(home)), None);
    }

    #[test]
    #[should_panic(expected = "holds no parity")]
    fn rehome_parity_from_wrong_node_panics() {
        let c = cluster(6, 2);
        let mut p = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
        let gid = p.groups()[0].id;
        let data_node = c.node_of(p.groups()[0].data[0]);
        let _ = p.rehome_parity(&c, gid, data_node, NodeId(5));
    }
}
