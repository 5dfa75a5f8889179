//! Hierarchical failure domains: DC → rack → node.
//!
//! The paper's availability argument rests on *orthogonal* placement of
//! VMs and parity across failure-independent hosts, but real virtualized
//! clusters fail in correlated units — a top-of-rack switch takes out the
//! whole rack, a power event takes out a data centre. This module gives
//! the flat node model those levels (the FoundationDB simulation
//! hierarchy: DataCenter → Machine → Process), so placement can be made
//! rack-aware and fault injection can kill whole domains.
//!
//! A [`Topology`] maps every node to a rack and every rack to a DC. The
//! degenerate [`Topology::flat`] — each node its own rack, one DC —
//! reproduces the old flat model exactly, so all existing call sites keep
//! their semantics.

use std::fmt;

use rand::Rng;

use crate::ids::NodeId;

/// Identifier of a rack (a correlated failure domain of nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RackId(pub usize);

/// Identifier of a data centre (a correlated failure domain of racks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DcId(pub usize);

impl RackId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl DcId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

impl fmt::Display for DcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dc{}", self.0)
    }
}

/// The DC → rack → node hierarchy of a cluster.
///
/// Immutable once built: failures and repairs change node *state* (in
/// [`crate::cluster::Cluster`]), never the physical hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// `rack_of[node] = rack` containing it.
    rack_of: Vec<RackId>,
    /// `dc_of_rack[rack] = dc` containing it.
    dc_of_rack: Vec<DcId>,
}

impl Topology {
    /// Builds a topology from explicit assignments.
    ///
    /// # Panics
    /// Panics if the assignments are empty, reference an out-of-range
    /// rack/DC, or leave a rack or DC index unused (indices must be dense:
    /// every rack in `0..rack_count` holds a node, every DC holds a rack).
    pub fn new(rack_of: Vec<RackId>, dc_of_rack: Vec<DcId>) -> Self {
        assert!(!rack_of.is_empty(), "topology needs at least one node");
        assert!(!dc_of_rack.is_empty(), "topology needs at least one rack");
        let racks = dc_of_rack.len();
        let dcs = dc_of_rack.iter().map(|d| d.index() + 1).max().unwrap();
        let mut rack_used = vec![false; racks];
        for r in &rack_of {
            assert!(r.index() < racks, "node assigned to out-of-range {r}");
            rack_used[r.index()] = true;
        }
        assert!(
            rack_used.iter().all(|&u| u),
            "every rack index must hold at least one node"
        );
        let mut dc_used = vec![false; dcs];
        for d in &dc_of_rack {
            dc_used[d.index()] = true;
        }
        assert!(
            dc_used.iter().all(|&u| u),
            "every dc index must hold at least one rack"
        );
        Topology {
            rack_of,
            dc_of_rack,
        }
    }

    /// The flat model: each node its own rack, all racks in one DC. This
    /// is the backward-compatible default — node failures are the only
    /// correlated unit, exactly as before racks existed.
    pub fn flat(nodes: usize) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        Topology {
            rack_of: (0..nodes).map(RackId).collect(),
            dc_of_rack: vec![DcId(0); nodes],
        }
    }

    /// Uniform racks: consecutive nodes are grouped `nodes_per_rack` to a
    /// rack and consecutive racks `racks_per_dc` to a DC. The last rack
    /// (and DC) may be short when the counts do not divide evenly.
    pub fn uniform_racks(nodes: usize, nodes_per_rack: usize, racks_per_dc: usize) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(nodes_per_rack > 0, "racks must hold at least one node");
        assert!(racks_per_dc > 0, "DCs must hold at least one rack");
        let rack_of: Vec<RackId> = (0..nodes).map(|n| RackId(n / nodes_per_rack)).collect();
        let racks = rack_of.last().unwrap().index() + 1;
        let dc_of_rack = (0..racks).map(|r| DcId(r / racks_per_dc)).collect();
        Topology {
            rack_of,
            dc_of_rack,
        }
    }

    /// Barabási–Albert-style scale-free rack sizes: nodes arrive one at a
    /// time and either open a new rack (probability `new_rack_prob`) or
    /// join an existing rack with probability proportional to its current
    /// size (preferential attachment — a uniformly random *node*'s rack).
    /// The result is a few huge racks and a long tail of small ones, the
    /// skew real commodity clusters grow into. Racks are then assigned
    /// round-robin to `dcs` data centres.
    pub fn scale_free<R: Rng + ?Sized>(
        nodes: usize,
        new_rack_prob: f64,
        dcs: usize,
        rng: &mut R,
    ) -> Self {
        assert!(nodes > 0, "topology needs at least one node");
        assert!(
            (0.0..=1.0).contains(&new_rack_prob),
            "new_rack_prob must be a probability, got {new_rack_prob}"
        );
        assert!(dcs > 0, "topology needs at least one DC");
        let mut rack_of: Vec<RackId> = vec![RackId(0)];
        let mut racks = 1usize;
        for n in 1..nodes {
            if rng.random::<f64>() < new_rack_prob {
                rack_of.push(RackId(racks));
                racks += 1;
            } else {
                // Preferential attachment: join the rack of a uniformly
                // random already-placed node.
                let peer = rng.random_range(0..n);
                rack_of.push(rack_of[peer]);
            }
        }
        let dcs = dcs.min(racks);
        let dc_of_rack = (0..racks).map(|r| DcId(r % dcs)).collect();
        Topology {
            rack_of,
            dc_of_rack,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.rack_of.len()
    }

    /// Number of racks.
    pub fn rack_count(&self) -> usize {
        self.dc_of_rack.len()
    }

    /// Number of data centres.
    pub fn dc_count(&self) -> usize {
        self.dc_of_rack
            .iter()
            .map(|d| d.index() + 1)
            .max()
            .unwrap_or(0)
    }

    /// The rack containing `node`.
    pub fn rack_of(&self, node: NodeId) -> RackId {
        self.rack_of[node.index()]
    }

    /// The DC containing `rack`.
    pub fn dc_of_rack(&self, rack: RackId) -> DcId {
        self.dc_of_rack[rack.index()]
    }

    /// Nodes in `rack`, in index order.
    pub fn nodes_in_rack(&self, rack: RackId) -> Vec<NodeId> {
        (0..self.node_count())
            .filter(|&n| self.rack_of[n] == rack)
            .map(NodeId)
            .collect()
    }

    /// Nodes in `dc`, in index order.
    pub fn nodes_in_dc(&self, dc: DcId) -> Vec<NodeId> {
        (0..self.node_count())
            .filter(|&n| self.dc_of_rack[self.rack_of[n].index()] == dc)
            .map(NodeId)
            .collect()
    }

    /// True if this is the flat degenerate topology (each node its own
    /// rack): rack failures are then exactly node failures.
    pub fn is_flat(&self) -> bool {
        self.rack_count() == self.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_simcore::rng::RngHub;

    #[test]
    fn display_formats() {
        assert_eq!(RackId(3).to_string(), "rack3");
        assert_eq!(DcId(0).to_string(), "dc0");
    }

    #[test]
    fn flat_is_one_rack_per_node() {
        let t = Topology::flat(4);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.rack_count(), 4);
        assert_eq!(t.dc_count(), 1);
        assert!(t.is_flat());
        assert_eq!(t.rack_of(NodeId(2)), RackId(2));
        assert_eq!(t.nodes_in_rack(RackId(2)), vec![NodeId(2)]);
    }

    #[test]
    fn uniform_racks_groups_consecutively() {
        let t = Topology::uniform_racks(8, 2, 2);
        assert_eq!(t.rack_count(), 4);
        assert_eq!(t.dc_count(), 2);
        assert!(!t.is_flat());
        assert_eq!(t.rack_of(NodeId(0)), RackId(0));
        assert_eq!(t.rack_of(NodeId(5)), RackId(2));
        assert_eq!(t.nodes_in_rack(RackId(1)), vec![NodeId(2), NodeId(3)]);
        assert_eq!(
            t.nodes_in_dc(DcId(1)),
            vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)]
        );
    }

    #[test]
    fn uniform_racks_ragged_tail() {
        let t = Topology::uniform_racks(5, 2, 2);
        assert_eq!(t.rack_count(), 3);
        assert_eq!(t.nodes_in_rack(RackId(2)), vec![NodeId(4)]);
    }

    #[test]
    fn scale_free_is_skewed_and_covers_all_nodes() {
        let hub = RngHub::new(42);
        let mut rng = hub.stream("topology");
        let t = Topology::scale_free(200, 0.2, 3, &mut rng);
        assert_eq!(t.node_count(), 200);
        assert!(t.rack_count() > 1, "must open more than one rack");
        assert!(t.rack_count() < 200, "must reuse racks");
        assert_eq!(t.dc_count(), 3);
        // Preferential attachment produces skew: the largest rack is well
        // above the uniform mean.
        let mean = 200.0 / t.rack_count() as f64;
        let largest = (0..t.rack_count()).map(|r| t.nodes_in_rack(RackId(r)).len());
        let largest = largest.max().unwrap();
        assert!(largest as f64 > 2.0 * mean, "largest={largest} mean={mean}");
        // Every node is in a valid rack, every rack in a valid DC.
        for n in 0..200 {
            let r = t.rack_of(NodeId(n));
            assert!(r.index() < t.rack_count());
            assert!(t.dc_of_rack(r).index() < t.dc_count());
        }
    }

    #[test]
    fn scale_free_is_reproducible() {
        let mk = || {
            let hub = RngHub::new(7);
            let mut rng = hub.stream("topology");
            Topology::scale_free(64, 0.3, 2, &mut rng)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn explicit_constructor_validates() {
        let t = Topology::new(
            vec![RackId(0), RackId(0), RackId(1)],
            vec![DcId(0), DcId(0)],
        );
        assert_eq!(t.rack_count(), 2);
        assert_eq!(t.nodes_in_rack(RackId(0)), vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn explicit_constructor_rejects_bad_rack() {
        Topology::new(vec![RackId(5)], vec![DcId(0)]);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn explicit_constructor_rejects_empty() {
        Topology::new(vec![], vec![DcId(0)]);
    }

    #[test]
    #[should_panic(expected = "hold at least one node")]
    fn explicit_constructor_rejects_empty_rack() {
        Topology::new(vec![RackId(0)], vec![DcId(0), DcId(0)]);
    }
}
