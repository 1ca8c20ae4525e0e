//! Hierarchical machine topology: cluster → node → socket → core.
//!
//! Marcel "was carefully designed to … efficiently exploit hierarchical
//! architectures" (§3.1). The scheduler and PIOMAN consult the topology to
//! place tasklets near the requesting thread (same socket first), and the
//! fabric uses it to decide between the shared-memory channel (same node)
//! and the NIC (different nodes).
//!
//! The paper's testbed is described by [`Topology::paper_testbed`]:
//! 2 nodes × 2 sockets × 4 cores (dual quad-core Xeon).

#![warn(missing_docs)]

use std::fmt;

/// Index of a node (machine) in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of a socket within its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId {
    /// Owning node.
    pub node: NodeId,
    /// Socket index within the node.
    pub socket: usize,
}

/// Global index of a core in the cluster.
///
/// Cores are numbered densely across the whole cluster so that they can be
/// used as array indices; [`Topology`] converts between global ids and
/// (node, socket, local core) coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Relative distance between two cores, ordered near → far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Distance {
    /// The same core.
    Same,
    /// Different cores sharing a socket (shared cache).
    SameSocket,
    /// Same node, different sockets (coherent memory, no shared cache).
    SameNode,
    /// Different nodes (only reachable through the network).
    Remote,
}

/// A regular cluster topology.
///
/// # Example
/// ```
/// use pm2_topo::{CoreId, Distance, Topology};
/// let t = Topology::paper_testbed(); // 2 nodes x 2 sockets x 4 cores
/// assert_eq!(t.total_cores(), 16);
/// assert_eq!(t.distance(CoreId(0), CoreId(1)), Distance::SameSocket);
/// assert_eq!(t.distance(CoreId(0), CoreId(9)), Distance::Remote);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    nodes: usize,
    sockets_per_node: usize,
    cores_per_socket: usize,
    /// Row `l` (of `cores_per_node - 1` entries): the other local indices
    /// of a node, nearest to local core `l` first. The same on every node.
    neighbours: Vec<usize>,
}

impl Topology {
    /// Builds a regular topology.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn new(nodes: usize, sockets_per_node: usize, cores_per_socket: usize) -> Self {
        assert!(
            nodes > 0 && sockets_per_node > 0 && cores_per_socket > 0,
            "topology dimensions must be positive"
        );
        let per_node = sockets_per_node * cores_per_socket;
        let socket = |l: usize| l / cores_per_socket;
        let mut neighbours = Vec::with_capacity(per_node * (per_node - 1));
        for origin in 0..per_node {
            let start = neighbours.len();
            neighbours.extend((0..per_node).filter(|&l| l != origin));
            // Same socket first, then by index: the `(distance, id)` order.
            neighbours[start..].sort_by_key(|&l| (socket(l) != socket(origin), l));
        }
        Topology {
            nodes,
            sockets_per_node,
            cores_per_socket,
            neighbours,
        }
    }

    /// The paper's testbed: two dual quad-core Xeon boxes.
    pub fn paper_testbed() -> Self {
        Topology::new(2, 2, 4)
    }

    /// A single-node machine with `cores` cores on one socket.
    pub fn single_node(cores: usize) -> Self {
        Topology::new(1, 1, cores)
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Sockets per node.
    pub fn sockets_per_node(&self) -> usize {
        self.sockets_per_node
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores_per_socket
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.sockets_per_node * self.cores_per_socket
    }

    /// Total cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node()
    }

    /// Node that owns `core`.
    ///
    /// # Panics
    /// Panics if `core` is out of range.
    pub fn node_of(&self, core: CoreId) -> NodeId {
        assert!(core.0 < self.total_cores(), "core {core} out of range");
        NodeId(core.0 / self.cores_per_node())
    }

    /// Socket that owns `core`.
    pub fn socket_of(&self, core: CoreId) -> SocketId {
        let node = self.node_of(core);
        let local = core.0 % self.cores_per_node();
        SocketId {
            node,
            socket: local / self.cores_per_socket,
        }
    }

    /// Core-local index within its node (0 .. cores_per_node).
    pub fn local_index(&self, core: CoreId) -> usize {
        assert!(core.0 < self.total_cores(), "core {core} out of range");
        core.0 % self.cores_per_node()
    }

    /// Global id of the `local`-th core of `node`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn core_on(&self, node: NodeId, local: usize) -> CoreId {
        assert!(node.0 < self.nodes, "node {node} out of range");
        assert!(
            local < self.cores_per_node(),
            "local core {local} out of range"
        );
        CoreId(node.0 * self.cores_per_node() + local)
    }

    /// Iterates over all cores of `node`.
    pub fn cores_of(&self, node: NodeId) -> impl Iterator<Item = CoreId> + '_ {
        let base = node.0 * self.cores_per_node();
        (base..base + self.cores_per_node()).map(CoreId)
    }

    /// Iterates over all cores in the cluster.
    pub fn all_cores(&self) -> impl Iterator<Item = CoreId> {
        (0..self.total_cores()).map(CoreId)
    }

    /// Distance classification between two cores.
    pub fn distance(&self, a: CoreId, b: CoreId) -> Distance {
        if a == b {
            Distance::Same
        } else if self.socket_of(a) == self.socket_of(b) {
            Distance::SameSocket
        } else if self.node_of(a) == self.node_of(b) {
            Distance::SameNode
        } else {
            Distance::Remote
        }
    }

    /// Cores of `origin`'s node ordered by distance from `origin` (nearest
    /// first, ties by id), excluding `origin` itself. Used to pick where a
    /// tasklet should run: prefer a core sharing the requester's cache.
    /// Reads an order computed once per topology; allocates nothing.
    pub fn neighbours_by_distance(&self, origin: CoreId) -> impl Iterator<Item = CoreId> + '_ {
        let per_node = self.cores_per_node();
        let base = self.node_of(origin).0 * per_node;
        let row = (origin.0 - base) * (per_node - 1);
        self.neighbours[row..row + per_node - 1]
            .iter()
            .map(move |&l| CoreId(base + l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_shape() {
        let t = Topology::paper_testbed();
        assert_eq!(t.nodes(), 2);
        assert_eq!(t.cores_per_node(), 8);
        assert_eq!(t.total_cores(), 16);
    }

    #[test]
    fn coordinates_roundtrip() {
        let t = Topology::paper_testbed();
        for core in t.all_cores() {
            let node = t.node_of(core);
            let local = t.local_index(core);
            assert_eq!(t.core_on(node, local), core);
        }
    }

    #[test]
    fn socket_layout() {
        let t = Topology::paper_testbed();
        // Node 0: cores 0-3 on socket 0, 4-7 on socket 1.
        assert_eq!(t.socket_of(CoreId(0)).socket, 0);
        assert_eq!(t.socket_of(CoreId(3)).socket, 0);
        assert_eq!(t.socket_of(CoreId(4)).socket, 1);
        // Node 1 starts at core 8.
        assert_eq!(t.node_of(CoreId(8)), NodeId(1));
        assert_eq!(t.socket_of(CoreId(8)).socket, 0);
    }

    #[test]
    fn distances_are_ordered() {
        let t = Topology::paper_testbed();
        assert_eq!(t.distance(CoreId(0), CoreId(0)), Distance::Same);
        assert_eq!(t.distance(CoreId(0), CoreId(1)), Distance::SameSocket);
        assert_eq!(t.distance(CoreId(0), CoreId(5)), Distance::SameNode);
        assert_eq!(t.distance(CoreId(0), CoreId(9)), Distance::Remote);
        assert!(Distance::Same < Distance::SameSocket);
        assert!(Distance::SameSocket < Distance::SameNode);
        assert!(Distance::SameNode < Distance::Remote);
    }

    #[test]
    fn neighbours_sorted_nearest_first() {
        let t = Topology::paper_testbed();
        let n: Vec<CoreId> = t.neighbours_by_distance(CoreId(1)).collect();
        assert_eq!(n.len(), 7); // other cores of node 0 only
                                // First neighbours share socket 0.
        assert_eq!(t.socket_of(n[0]).socket, 0);
        assert_eq!(t.socket_of(n[1]).socket, 0);
        assert_eq!(t.socket_of(n[2]).socket, 0);
        assert_eq!(t.socket_of(n[3]).socket, 1);
        assert!(n.iter().all(|&c| t.node_of(c) == NodeId(0)));
    }

    #[test]
    fn neighbour_order_is_distance_then_id_on_every_node() {
        for t in [
            Topology::paper_testbed(),
            Topology::new(3, 2, 3),
            Topology::new(4, 1, 2),
            Topology::new(2, 3, 1),
            Topology::single_node(1),
        ] {
            for origin in t.all_cores() {
                let node = t.node_of(origin);
                let mut want: Vec<CoreId> = t.cores_of(node).filter(|&c| c != origin).collect();
                want.sort_by_key(|&c| (t.distance(origin, c), c.0));
                let got: Vec<CoreId> = t.neighbours_by_distance(origin).collect();
                assert_eq!(got, want, "{t:?} from {origin}");
            }
        }
    }

    #[test]
    fn cores_of_node_are_contiguous() {
        let t = Topology::new(3, 1, 2);
        let cores: Vec<_> = t.cores_of(NodeId(1)).map(|c| c.0).collect();
        assert_eq!(cores, vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_panics() {
        Topology::single_node(2).node_of(CoreId(5));
    }
}
