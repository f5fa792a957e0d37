//! # hs-topology — heterogeneous network model
//!
//! Models the cluster fabric of the HeroServe paper (§II-C, §III-B, Fig. 4,
//! Fig. 6): GPU nodes with RDMA NICs, access and core programmable switches,
//! and two *classes* of interconnect — intra-server **NVLink** (hundreds of
//! GB/s) and inter-server **Ethernet** (100 Gbps). The planner's whole value
//! proposition comes from this heterogeneity, so links carry both a
//! capacity and a technology tag.
//!
//! The crate provides:
//!
//! * [`graph`] — the undirected multigraph `G = <V, E>` of Table I, with
//!   typed nodes ([`NodeKind`]) and links ([`LinkKind`]), per-GPU memory
//!   capacity, and adjacency queries.
//! * [`routing`] — Dijkstra shortest paths under pluggable link weights,
//!   the all-pairs minimum-latency matrix `D(i,j)` and shortest-path store
//!   `P(k,a)` that Algorithm 2 precomputes offline, and Yen's k-shortest
//!   paths used to enumerate candidate policies for the online scheduler.
//! * [`builders`] — the paper's concrete topologies: the 6-server/2-switch
//!   testbed (Fig. 6) and parametric `xtracks` large-scale fabrics
//!   (2tracks / 8tracks, §V "Simulation Settings").

pub mod builders;
pub mod graph;
pub mod routing;

pub use graph::{
    GpuSpec, Graph, GraphBuilder, Link, LinkId, LinkKind, Node, NodeId, NodeKind, ServerId,
};
pub use routing::{AllPairs, DirLink, LinkWeight, Path, Route};
