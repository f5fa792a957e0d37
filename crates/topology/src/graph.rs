//! The cluster fabric graph `G = <V, E>`.
//!
//! Nodes are GPUs (with attached RDMA NICs, modelled as part of their access
//! links) and switches (access or core, optionally INA-capable). Links are
//! undirected and typed: NVLink within a server, Ethernet between servers
//! and switches, PCIe as the paper's future-work fallback. Bandwidth is in
//! bits per second; propagation latency in nanoseconds.

use std::fmt;

/// Index of a node in the graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of a link in the graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

/// Identifier of a physical server chassis (groups GPUs for NVLink reach).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}
impl fmt::Debug for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}
impl fmt::Debug for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "srv{}", self.0)
    }
}

impl NodeId {
    /// Usize index for dense arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl LinkId {
    /// Usize index for dense arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Hardware description of a GPU node (the parts the planner cares about).
/// Its roofline peaks are `hs_model::GpuModel`'s, which the compute model
/// reads.
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Human-readable model, e.g. "A100-40G".
    pub model: String,
    /// Total device memory in bytes.
    pub memory_bytes: u64,
}

impl GpuSpec {
    /// NVIDIA A100 40 GB (SXM).
    pub fn a100_40g() -> Self {
        GpuSpec {
            model: "A100-40G".into(),
            memory_bytes: 40 * (1 << 30),
        }
    }

    /// NVIDIA V100 32 GB.
    pub fn v100_32g() -> Self {
        GpuSpec {
            model: "V100-32G".into(),
            memory_bytes: 32 * (1 << 30),
        }
    }

    /// NVIDIA A100 80 GB (SXM), used for the large-scale OPT-175B
    /// simulations.
    pub fn a100_80g() -> Self {
        GpuSpec {
            model: "A100-80G".into(),
            memory_bytes: 80 * (1 << 30),
        }
    }
}

/// What a node is.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeKind {
    /// A GPU (with its RDMA NIC) inside `server`.
    Gpu {
        /// Chassis this GPU sits in; GPUs in the same server share NVLink.
        server: ServerId,
        /// Position within the server (0-based).
        index: u8,
        /// Hardware description.
        spec: GpuSpec,
    },
    /// A top-of-rack / access switch. `ina_capable` switches can host
    /// in-network aggregation (Tofino-class).
    AccessSwitch {
        /// Whether this switch has a programmable INA dataplane.
        ina_capable: bool,
    },
    /// A core/spine switch.
    CoreSwitch {
        /// Whether this switch has a programmable INA dataplane.
        ina_capable: bool,
    },
}

impl NodeKind {
    /// True for GPU nodes.
    pub fn is_gpu(&self) -> bool {
        matches!(self, NodeKind::Gpu { .. })
    }

    /// True for switch nodes (access or core).
    pub fn is_switch(&self) -> bool {
        matches!(
            self,
            NodeKind::AccessSwitch { .. } | NodeKind::CoreSwitch { .. }
        )
    }

    /// True for switches that can run in-network aggregation.
    pub fn is_ina_capable(&self) -> bool {
        matches!(
            self,
            NodeKind::AccessSwitch { ina_capable: true }
                | NodeKind::CoreSwitch { ina_capable: true }
        )
    }
}

/// Interconnect technology of a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Intra-server GPU-to-GPU link (NVLink/NVSwitch).
    NvLink,
    /// Inter-server Ethernet (RoCE) link.
    Ethernet,
    /// Intra-server PCIe (the paper's future-work fallback when NVLink is
    /// absent).
    Pcie,
}

/// An undirected link with capacity and propagation delay.
#[derive(Clone, Debug)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Technology class.
    pub kind: LinkKind,
    /// Maximum bandwidth `C(e)` in bits per second.
    pub capacity_bps: f64,
    /// Propagation + fixed per-hop processing latency, nanoseconds.
    pub latency_ns: u64,
}

impl Link {
    /// The endpoint opposite to `from`, or `None` if `from` is not an
    /// endpoint.
    #[inline]
    pub fn other(&self, from: NodeId) -> Option<NodeId> {
        if from == self.a {
            Some(self.b)
        } else if from == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A node with its kind.
#[derive(Clone, Debug)]
pub struct Node {
    /// What the node is.
    pub kind: NodeKind,
    /// Optional label for reports ("srv0/gpu1", "access0", ...).
    pub label: String,
}

/// The cluster fabric: nodes, links, adjacency.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// adjacency[node] = (neighbor, link) pairs, insertion-ordered.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node lookup.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// Link lookup.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.idx()]
    }

    /// All nodes with ids.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId(i as u32), n))
    }

    /// All links with ids.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links
            .iter()
            .enumerate()
            .map(|(i, l)| (LinkId(i as u32), l))
    }

    /// Neighbors of `n` as `(neighbor, link)` pairs.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> &[(NodeId, LinkId)] {
        &self.adjacency[n.idx()]
    }

    /// All GPU node ids, in id order.
    pub fn gpus(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind.is_gpu())
            .map(|(id, _)| id)
            .collect()
    }

    /// All switch node ids, in id order.
    pub fn switches(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind.is_switch())
            .map(|(id, _)| id)
            .collect()
    }

    /// All INA-capable switch node ids, in id order.
    pub fn ina_switches(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind.is_ina_capable())
            .map(|(id, _)| id)
            .collect()
    }

    /// Every GPU and INA-capable switch, in id order: the node set a
    /// planned deployment and its online scheduler route over.
    pub fn gpus_and_ina_switches(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|(_, n)| n.kind.is_gpu() || n.kind.is_ina_capable())
            .map(|(id, _)| id)
            .collect()
    }

    /// The server a GPU belongs to; `None` for switches.
    pub fn server_of(&self, n: NodeId) -> Option<ServerId> {
        match &self.node(n).kind {
            NodeKind::Gpu { server, .. } => Some(*server),
            _ => None,
        }
    }

    /// The GPU spec of a node; `None` for switches.
    pub fn gpu_spec(&self, n: NodeId) -> Option<&GpuSpec> {
        match &self.node(n).kind {
            NodeKind::Gpu { spec, .. } => Some(spec),
            _ => None,
        }
    }

    /// True when `a` and `b` are GPUs in the same server (NVLink reach).
    pub fn same_server(&self, a: NodeId, b: NodeId) -> bool {
        match (self.server_of(a), self.server_of(b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Link capacities `C = [C(e_1), ..., C(e_n)]` as a dense vector.
    pub fn capacities(&self) -> Vec<f64> {
        self.links.iter().map(|l| l.capacity_bps).collect()
    }

    /// Validate structural invariants; used by tests and builders.
    ///
    /// Checks: endpoints in range, no self-loops, positive capacities,
    /// adjacency is symmetric and consistent with the link list.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len() as u32;
        for (i, l) in self.links.iter().enumerate() {
            if l.a.0 >= n || l.b.0 >= n {
                return Err(format!("link e{i} has out-of-range endpoint"));
            }
            if l.a == l.b {
                return Err(format!("link e{i} is a self-loop"));
            }
            if l.capacity_bps.is_nan() || l.capacity_bps <= 0.0 {
                return Err(format!("link e{i} has non-positive capacity"));
            }
        }
        if self.adjacency.len() != self.nodes.len() {
            return Err("adjacency size mismatch".into());
        }
        let mut seen = vec![0usize; self.links.len()];
        for (ni, adj) in self.adjacency.iter().enumerate() {
            for &(nb, le) in adj {
                let l = &self.links[le.idx()];
                let from = NodeId(ni as u32);
                if l.other(from) != Some(nb) {
                    return Err(format!("adjacency of n{ni} disagrees with link {le:?}"));
                }
                seen[le.idx()] += 1;
            }
        }
        if seen.iter().any(|&c| c != 2) {
            return Err("every link must appear exactly twice in adjacency".into());
        }
        Ok(())
    }
}

/// Incremental graph construction with labelled nodes.
#[derive(Default)]
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, kind: NodeKind, label: impl Into<String>) -> NodeId {
        let id = NodeId(self.graph.nodes.len() as u32);
        self.graph.nodes.push(Node {
            kind,
            label: label.into(),
        });
        self.graph.adjacency.push(Vec::new());
        id
    }

    /// Add a GPU node.
    pub fn add_gpu(&mut self, server: ServerId, index: u8, spec: GpuSpec) -> NodeId {
        let label = format!("srv{}/gpu{}", server.0, index);
        self.add_node(
            NodeKind::Gpu {
                server,
                index,
                spec,
            },
            label,
        )
    }

    /// Add an access switch node.
    pub fn add_access_switch(&mut self, ina_capable: bool, label: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::AccessSwitch { ina_capable }, label)
    }

    /// Add a core switch node.
    pub fn add_core_switch(&mut self, ina_capable: bool, label: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::CoreSwitch { ina_capable }, label)
    }

    /// Add an undirected link, returning its id.
    ///
    /// # Panics
    /// Panics on self-loops or non-positive capacity (these are programming
    /// errors in topology builders, not runtime conditions).
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        kind: LinkKind,
        capacity_bps: f64,
        latency_ns: u64,
    ) -> LinkId {
        assert_ne!(a, b, "self-loop");
        assert!(capacity_bps > 0.0, "non-positive capacity");
        let id = LinkId(self.graph.links.len() as u32);
        self.graph.links.push(Link {
            a,
            b,
            kind,
            capacity_bps,
            latency_ns,
        });
        self.graph.adjacency[a.idx()].push((b, id));
        self.graph.adjacency[b.idx()].push((a, id));
        id
    }

    /// Finish, validating invariants.
    pub fn build(self) -> Graph {
        let g = self.graph;
        debug_assert!(g.validate().is_ok(), "builder produced invalid graph");
        g
    }
}

/// Common bandwidth constants (bits per second).
pub mod bandwidth {
    /// 100 Gbps Ethernet.
    pub const ETH_100G: f64 = 100e9;
    /// 400 Gbps Ethernet (core uplinks in large fabrics).
    pub const ETH_400G: f64 = 400e9;
    /// A100 NVLink3 aggregate: 600 GB/s = 4.8 Tbps.
    pub const NVLINK_A100: f64 = 600.0 * 8e9;
    /// V100 NVLink2 aggregate: 300 GB/s = 2.4 Tbps.
    pub const NVLINK_V100: f64 = 300.0 * 8e9;
    /// PCIe 4.0 x16: 32 GB/s = 256 Gbps.
    pub const PCIE4_X16: f64 = 32.0 * 8e9;
}

/// Common propagation latencies (nanoseconds).
pub mod latency {
    /// One Ethernet hop: propagation + switch forwarding, ~1 µs.
    pub const ETH_HOP_NS: u64 = 1_000;
    /// NVLink hop, ~0.3 µs.
    pub const NVLINK_HOP_NS: u64 = 300;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        let mut b = GraphBuilder::new();
        let g0 = b.add_gpu(ServerId(0), 0, GpuSpec::a100_40g());
        let g1 = b.add_gpu(ServerId(0), 1, GpuSpec::a100_40g());
        let s = b.add_access_switch(true, "sw0");
        b.add_link(g0, g1, LinkKind::NvLink, bandwidth::NVLINK_A100, 300);
        b.add_link(g0, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        b.add_link(g1, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        b.build()
    }

    #[test]
    fn builder_and_queries() {
        let g = tiny();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 3);
        assert_eq!(g.gpus(), vec![NodeId(0), NodeId(1)]);
        assert_eq!(g.switches(), vec![NodeId(2)]);
        assert_eq!(g.ina_switches(), vec![NodeId(2)]);
        assert!(g.same_server(NodeId(0), NodeId(1)));
        assert!(!g.same_server(NodeId(0), NodeId(2)));
        assert_eq!(g.neighbors(NodeId(0)).len(), 2);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn link_other_endpoint() {
        let g = tiny();
        let l = g.link(LinkId(0));
        assert_eq!(l.other(NodeId(0)), Some(NodeId(1)));
        assert_eq!(l.other(NodeId(1)), Some(NodeId(0)));
        assert_eq!(l.other(NodeId(2)), None);
    }

    #[test]
    fn gpu_spec_lookup() {
        let g = tiny();
        assert_eq!(g.gpu_spec(NodeId(0)).unwrap().model, "A100-40G");
        assert!(g.gpu_spec(NodeId(2)).is_none());
        assert_eq!(g.server_of(NodeId(1)), Some(ServerId(0)));
        assert_eq!(g.server_of(NodeId(2)), None);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let mut b = GraphBuilder::new();
        let n = b.add_access_switch(false, "s");
        b.add_link(n, n, LinkKind::Ethernet, 1.0, 0);
    }

    #[test]
    fn capacities_vector() {
        let g = tiny();
        let c = g.capacities();
        assert_eq!(c.len(), 3);
        assert_eq!(c[0], bandwidth::NVLINK_A100);
        assert_eq!(c[1], bandwidth::ETH_100G);
    }

    #[test]
    fn validate_catches_corruption() {
        let mut g = tiny();
        g.links[0].capacity_bps = 0.0;
        assert!(g.validate().is_err());
    }
}
