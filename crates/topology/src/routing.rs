//! Shortest paths and the offline routing matrices of Algorithm 2.
//!
//! The offline planner precomputes (§III-C3, Alg. 2 lines 1–3):
//!
//! * `D(i,j)` — the pairwise minimum-latency matrix, and
//! * `P(k,a)` — the shortest connection path between nodes `k` and `a`,
//!
//! both via Dijkstra. The cost of an edge is pluggable ([`LinkWeight`]):
//! hop count, propagation latency, or the *transfer time* of a message of a
//! given size over the edge's (residual) bandwidth — the quantity the
//! paper's latency equations (Eqs. 9–11, 15) divide by `B(e_n)`.
//!
//! The online scheduler additionally needs *alternative* routes between the
//! same endpoints (each route backs one candidate policy in the policy cost
//! table, Fig. 5); [`k_shortest_paths`] provides them via Yen's algorithm.

use crate::graph::{Graph, LinkId, NodeId};
use rustc_hash::FxHashSet;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Edge-cost model for shortest-path computations.
#[derive(Clone, Copy, Debug)]
pub enum LinkWeight {
    /// Every link costs 1.
    Hops,
    /// Cost = propagation latency (ns).
    Latency,
    /// Cost = serialization time of `bytes` over the link's capacity plus
    /// propagation latency. This is the paper's `D / B(e)` term.
    TransferTime {
        /// Message size in bytes.
        bytes: u64,
    },
}

impl LinkWeight {
    /// Cost of traversing `link` in the given graph, optionally using a
    /// residual-bandwidth override `avail_bps` (the planner's `B(e)`),
    /// in abstract cost units (nanoseconds for the time-based weights).
    #[inline]
    pub fn cost(&self, g: &Graph, link: LinkId, avail_bps: Option<&[f64]>) -> f64 {
        let l = g.link(link);
        match *self {
            LinkWeight::Hops => 1.0,
            LinkWeight::Latency => l.latency_ns as f64,
            LinkWeight::TransferTime { bytes } => {
                let bw = avail_bps
                    .map(|b| b[link.idx()])
                    .unwrap_or(l.capacity_bps)
                    .max(1.0);
                (bytes as f64 * 8.0 / bw) * 1e9 + l.latency_ns as f64
            }
        }
    }
}

/// A route through the fabric: the link sequence from source to
/// destination, plus its total cost under the weight it was computed with.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Links in traversal order; empty iff `src == dst`.
    pub links: Vec<LinkId>,
    /// Total cost under the weight used to compute the path.
    pub cost: f64,
}

impl Path {
    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Node sequence `src, ..., dst` implied by the link sequence.
    pub fn nodes(&self, g: &Graph) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.links.len() + 1);
        let mut cur = self.src;
        out.push(cur);
        for &le in &self.links {
            cur = g
                .link(le)
                .other(cur)
                .expect("path link not incident to current node");
            out.push(cur);
        }
        out
    }

    /// The traversal as `(link, forward)` pairs, where `forward` means
    /// the hop goes from the link's `a` endpoint to `b`. Links are full
    /// duplex, so the two directions are independent capacity pools in
    /// the flow simulator.
    pub fn directed_links(&self, g: &Graph) -> Vec<(LinkId, bool)> {
        let mut out = Vec::with_capacity(self.links.len());
        let mut cur = self.src;
        for &le in &self.links {
            let link = g.link(le);
            let forward = link.a == cur;
            debug_assert!(forward || link.b == cur, "path link not incident");
            out.push((le, forward));
            cur = link.other(cur).expect("incident");
        }
        out
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by cost, ties broken by node id for determinism.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

/// Single-source Dijkstra. Returns `(dist, prev_link)` dense vectors;
/// unreachable nodes have `dist = f64::INFINITY` and `prev_link = None`.
///
/// `banned_nodes` / `banned_links` support Yen's spur computations; pass
/// empty sets for plain shortest paths. `avail_bps` optionally overrides
/// capacities with residual bandwidth.
pub fn dijkstra(
    g: &Graph,
    src: NodeId,
    weight: LinkWeight,
    avail_bps: Option<&[f64]>,
    banned_nodes: &FxHashSet<NodeId>,
    banned_links: &FxHashSet<LinkId>,
) -> (Vec<f64>, Vec<Option<LinkId>>) {
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<LinkId>> = vec![None; n];
    if banned_nodes.contains(&src) {
        return (dist, prev);
    }
    dist[src.idx()] = 0.0;
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry {
        cost: 0.0,
        node: src,
    });
    while let Some(HeapEntry { cost, node }) = heap.pop() {
        if cost > dist[node.idx()] {
            continue; // stale entry
        }
        for &(nb, le) in g.neighbors(node) {
            if banned_nodes.contains(&nb) || banned_links.contains(&le) {
                continue;
            }
            let c = cost + weight.cost(g, le, avail_bps);
            if c < dist[nb.idx()] {
                dist[nb.idx()] = c;
                prev[nb.idx()] = Some(le);
                heap.push(HeapEntry { cost: c, node: nb });
            }
        }
    }
    (dist, prev)
}

/// Reconstruct the path to `dst` from Dijkstra's `prev` vector.
fn reconstruct(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    dist: &[f64],
    prev: &[Option<LinkId>],
) -> Option<Path> {
    if !dist[dst.idx()].is_finite() {
        return None;
    }
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let le = prev[cur.idx()]?;
        links.push(le);
        cur = g.link(le).other(cur).expect("prev link inconsistent");
    }
    links.reverse();
    Some(Path {
        src,
        dst,
        links,
        cost: dist[dst.idx()],
    })
}

/// Shortest path between two nodes, or `None` if disconnected.
pub fn shortest_path(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    weight: LinkWeight,
    avail_bps: Option<&[f64]>,
) -> Option<Path> {
    shortest_path_avoiding(g, src, dst, weight, avail_bps, &FxHashSet::default())
}

/// Shortest path that never traverses a link in `avoid` (e.g. links taken
/// down by a fault), or `None` if no such path exists.
pub fn shortest_path_avoiding(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    weight: LinkWeight,
    avail_bps: Option<&[f64]>,
    avoid: &FxHashSet<LinkId>,
) -> Option<Path> {
    let empty_n = FxHashSet::default();
    let (dist, prev) = dijkstra(g, src, weight, avail_bps, &empty_n, avoid);
    reconstruct(g, src, dst, &dist, &prev)
}

/// The all-pairs structures of Algorithm 2: `D(i,j)` + `P(k,a)` for the
/// node set of interest (typically all GPUs + INA switches).
#[derive(Clone, Debug)]
pub struct AllPairs {
    /// Row-major distance matrix over `nodes`.
    dist: Vec<f64>,
    /// Node set the matrix covers (maps matrix index → graph node).
    nodes: Vec<NodeId>,
    /// Reverse map: graph node → matrix index (dense over all graph nodes,
    /// `u32::MAX` = not covered).
    index_of: Vec<u32>,
    /// Shortest paths, same layout as `dist` (self-paths are empty).
    paths: Vec<Path>,
}

impl AllPairs {
    /// Compute all-pairs shortest paths among `nodes` under `weight`.
    ///
    /// Runs one Dijkstra per member node over the full graph, so switches
    /// may appear as intermediate hops even if not in `nodes`.
    pub fn compute(
        g: &Graph,
        nodes: &[NodeId],
        weight: LinkWeight,
        avail_bps: Option<&[f64]>,
    ) -> Self {
        let m = nodes.len();
        let mut index_of = vec![u32::MAX; g.node_count()];
        for (i, &n) in nodes.iter().enumerate() {
            index_of[n.idx()] = i as u32;
        }
        let mut dist = vec![f64::INFINITY; m * m];
        let mut paths = Vec::with_capacity(m * m);
        let empty_n = FxHashSet::default();
        let empty_l = FxHashSet::default();
        for (i, &src) in nodes.iter().enumerate() {
            let (d, prev) = dijkstra(g, src, weight, avail_bps, &empty_n, &empty_l);
            for (j, &dst) in nodes.iter().enumerate() {
                dist[i * m + j] = d[dst.idx()];
                let p = reconstruct(g, src, dst, &d, &prev).unwrap_or(Path {
                    src,
                    dst,
                    links: vec![],
                    cost: f64::INFINITY,
                });
                paths.push(p);
            }
        }
        AllPairs {
            dist,
            nodes: nodes.to_vec(),
            index_of,
            paths,
        }
    }

    /// The covered node set.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Distance between two covered nodes.
    ///
    /// # Panics
    /// Panics if either node is not in the covered set.
    pub fn dist(&self, a: NodeId, b: NodeId) -> f64 {
        let i = self.index_of[a.idx()];
        let j = self.index_of[b.idx()];
        assert!(
            i != u32::MAX && j != u32::MAX,
            "node not covered by AllPairs"
        );
        self.dist[i as usize * self.nodes.len() + j as usize]
    }

    /// Shortest path between two covered nodes (empty links iff `a == b`
    /// or disconnected — check `cost.is_finite()` for the latter).
    pub fn path(&self, a: NodeId, b: NodeId) -> &Path {
        let i = self.index_of[a.idx()];
        let j = self.index_of[b.idx()];
        assert!(
            i != u32::MAX && j != u32::MAX,
            "node not covered by AllPairs"
        );
        &self.paths[i as usize * self.nodes.len() + j as usize]
    }

    /// Whether `n` is covered.
    pub fn covers(&self, n: NodeId) -> bool {
        self.index_of[n.idx()] != u32::MAX
    }
}

/// Precomputed path store `P(k,a)` — a thin named wrapper kept for symmetry
/// with the paper's output table (Table II).
pub type PathStore = AllPairs;

/// Yen's algorithm: up to `k` loopless shortest paths from `src` to `dst`,
/// sorted by cost. Used to enumerate the candidate routes behind online
/// policies.
pub fn k_shortest_paths(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    weight: LinkWeight,
    avail_bps: Option<&[f64]>,
) -> Vec<Path> {
    k_shortest_paths_avoiding(g, src, dst, k, weight, avail_bps, &FxHashSet::default())
}

/// Yen's algorithm restricted to paths that never traverse a link in
/// `avoid`. The online scheduler uses this to rebuild its route cache
/// after a fault takes links out of service.
pub fn k_shortest_paths_avoiding(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    weight: LinkWeight,
    avail_bps: Option<&[f64]>,
    avoid: &FxHashSet<LinkId>,
) -> Vec<Path> {
    let mut result: Vec<Path> = Vec::new();
    let Some(first) = shortest_path_avoiding(g, src, dst, weight, avail_bps, avoid) else {
        return result;
    };
    result.push(first);
    // Candidate pool; (cost, links) with dedup on link sequence.
    let mut candidates: Vec<Path> = Vec::new();
    let mut seen: FxHashSet<Vec<LinkId>> = FxHashSet::default();
    seen.insert(result[0].links.clone());

    while result.len() < k {
        let last = result.last().expect("nonempty").clone();
        let last_nodes = last.nodes(g);
        // Spur from each node of the previous path.
        for spur_idx in 0..last.links.len() {
            let spur_node = last_nodes[spur_idx];
            let root_links: Vec<LinkId> = last.links[..spur_idx].to_vec();

            let mut banned_links: FxHashSet<LinkId> = avoid.clone();
            for p in result.iter().chain(candidates.iter()) {
                if p.links.len() > spur_idx && p.links[..spur_idx] == root_links[..] {
                    banned_links.insert(p.links[spur_idx]);
                }
            }
            // Ban root-path nodes (except the spur node) to keep paths
            // loopless.
            let mut banned_nodes: FxHashSet<NodeId> = FxHashSet::default();
            for &n in &last_nodes[..spur_idx] {
                banned_nodes.insert(n);
            }

            let (d, prev) = dijkstra(
                g,
                spur_node,
                weight,
                avail_bps,
                &banned_nodes,
                &banned_links,
            );
            if let Some(spur) = reconstruct(g, spur_node, dst, &d, &prev) {
                let mut links = root_links.clone();
                links.extend_from_slice(&spur.links);
                if seen.insert(links.clone()) {
                    let cost = links
                        .iter()
                        .map(|&l| weight.cost(g, l, avail_bps))
                        .sum::<f64>();
                    candidates.push(Path {
                        src,
                        dst,
                        links,
                        cost,
                    });
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Take the cheapest candidate (stable tie-break on link ids).
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| {
                x.cost
                    .partial_cmp(&y.cost)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| x.links.cmp(&y.links))
            })
            .map(|(i, _)| i)
            .expect("nonempty candidates");
        result.push(candidates.swap_remove(best));
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId};

    /// Two servers x two GPUs, two access switches, one core switch —
    /// a miniature of Fig. 2's heterogeneous example.
    fn sample() -> (Graph, Vec<NodeId>, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let mut gpus = vec![];
        for s in 0..2u32 {
            for i in 0..2u8 {
                gpus.push(b.add_gpu(ServerId(s), i, GpuSpec::a100_40g()));
            }
        }
        let a0 = b.add_access_switch(true, "acc0");
        let a1 = b.add_access_switch(true, "acc1");
        let core = b.add_core_switch(true, "core");
        // NVLink within each server.
        b.add_link(
            gpus[0],
            gpus[1],
            LinkKind::NvLink,
            bandwidth::NVLINK_A100,
            300,
        );
        b.add_link(
            gpus[2],
            gpus[3],
            LinkKind::NvLink,
            bandwidth::NVLINK_A100,
            300,
        );
        // Ethernet: gpu -> its access switch.
        b.add_link(gpus[0], a0, LinkKind::Ethernet, bandwidth::ETH_100G, 1000);
        b.add_link(gpus[1], a0, LinkKind::Ethernet, bandwidth::ETH_100G, 1000);
        b.add_link(gpus[2], a1, LinkKind::Ethernet, bandwidth::ETH_100G, 1000);
        b.add_link(gpus[3], a1, LinkKind::Ethernet, bandwidth::ETH_100G, 1000);
        // Access -> core.
        b.add_link(a0, core, LinkKind::Ethernet, bandwidth::ETH_100G, 1000);
        b.add_link(a1, core, LinkKind::Ethernet, bandwidth::ETH_100G, 1000);
        (b.build(), gpus, vec![a0, a1, core])
    }

    #[test]
    fn hop_weights_find_short_route() {
        let (g, gpus, _) = sample();
        let p = shortest_path(&g, gpus[0], gpus[1], LinkWeight::Hops, None).unwrap();
        // NVLink direct beats 2-hop Ethernet detour.
        assert_eq!(p.hop_count(), 1);
        assert_eq!(g.link(p.links[0]).kind, LinkKind::NvLink);
    }

    #[test]
    fn cross_server_goes_via_switches() {
        let (g, gpus, sw) = sample();
        let p = shortest_path(&g, gpus[0], gpus[2], LinkWeight::Hops, None).unwrap();
        assert_eq!(p.hop_count(), 4); // gpu0-acc0-core-acc1-gpu2
        let nodes = p.nodes(&g);
        assert_eq!(nodes.first(), Some(&gpus[0]));
        assert_eq!(nodes.last(), Some(&gpus[2]));
        assert!(nodes.contains(&sw[2]));
    }

    #[test]
    fn transfer_time_prefers_fat_links() {
        let (g, gpus, _) = sample();
        // With a large message, NVLink (4.8 Tbps) dominates any Ethernet
        // alternative for the intra-server pair.
        let w = LinkWeight::TransferTime { bytes: 64 << 20 };
        let p = shortest_path(&g, gpus[0], gpus[1], w, None).unwrap();
        assert_eq!(g.link(p.links[0]).kind, LinkKind::NvLink);
        // Cost is transfer ns: 64MiB*8 / 4.8e12 * 1e9 + 300 ≈ 112k ns.
        assert!(p.cost > 1e5 && p.cost < 2e5, "cost = {}", p.cost);
    }

    #[test]
    fn residual_bandwidth_reroutes() {
        let (g, gpus, _) = sample();
        // Choke the NVLink to near zero; large transfers should now detour
        // over Ethernet via the access switch (2 hops).
        let mut avail = g.capacities();
        avail[0] = 1e3; // NVLink gpu0-gpu1 nearly dead
        let w = LinkWeight::TransferTime { bytes: 1 << 20 };
        let p = shortest_path(&g, gpus[0], gpus[1], w, Some(&avail)).unwrap();
        assert_eq!(p.hop_count(), 2);
        assert!(p
            .links
            .iter()
            .all(|&l| g.link(l).kind == LinkKind::Ethernet));
    }

    #[test]
    fn all_pairs_matches_single_source() {
        let (g, gpus, sw) = sample();
        let mut nodes = gpus.clone();
        nodes.extend(&sw);
        let ap = AllPairs::compute(&g, &nodes, LinkWeight::Latency, None);
        for &a in &nodes {
            for &b in &nodes {
                let expect = shortest_path(&g, a, b, LinkWeight::Latency, None)
                    .map(|p| p.cost)
                    .unwrap_or(f64::INFINITY);
                let got = ap.dist(a, b);
                assert!(
                    (got - expect).abs() < 1e-9 || (got.is_infinite() && expect.is_infinite()),
                    "dist({a:?},{b:?}) = {got}, expected {expect}"
                );
            }
        }
        // Self-distances are zero with empty paths.
        assert_eq!(ap.dist(gpus[0], gpus[0]), 0.0);
        assert!(ap.path(gpus[0], gpus[0]).links.is_empty());
    }

    #[test]
    fn all_pairs_paths_are_consistent() {
        let (g, gpus, sw) = sample();
        let mut nodes = gpus.clone();
        nodes.extend(&sw);
        let ap = AllPairs::compute(&g, &nodes, LinkWeight::Hops, None);
        let p = ap.path(gpus[0], gpus[3]);
        let node_seq = p.nodes(&g);
        assert_eq!(node_seq.first(), Some(&gpus[0]));
        assert_eq!(node_seq.last(), Some(&gpus[3]));
        assert_eq!(p.cost, p.hop_count() as f64);
    }

    #[test]
    fn yen_k_shortest_are_distinct_sorted_loopless() {
        let (g, gpus, _) = sample();
        let paths = k_shortest_paths(&g, gpus[0], gpus[2], 4, LinkWeight::Hops, None);
        assert!(
            paths.len() >= 2,
            "expected multiple routes, got {}",
            paths.len()
        );
        for w in paths.windows(2) {
            assert!(w[0].cost <= w[1].cost, "not sorted by cost");
            assert_ne!(w[0].links, w[1].links, "duplicate path");
        }
        for p in &paths {
            let nodes = p.nodes(&g);
            let set: FxHashSet<_> = nodes.iter().collect();
            assert_eq!(set.len(), nodes.len(), "loop in path {:?}", p.links);
        }
    }

    #[test]
    fn yen_handles_disconnection_and_k1() {
        let (g, gpus, _) = sample();
        let paths = k_shortest_paths(&g, gpus[0], gpus[1], 1, LinkWeight::Hops, None);
        assert_eq!(paths.len(), 1);
        // Isolated node: build a graph with a disconnected GPU.
        let mut b = GraphBuilder::new();
        let x = b.add_gpu(ServerId(0), 0, GpuSpec::a100_40g());
        let y = b.add_gpu(ServerId(1), 0, GpuSpec::a100_40g());
        let g2 = b.build();
        assert!(k_shortest_paths(&g2, x, y, 3, LinkWeight::Hops, None).is_empty());
    }

    #[test]
    fn avoiding_routes_around_banned_links() {
        let (g, gpus, _) = sample();
        // Ban the direct NVLink between gpu0 and gpu1; the detour goes
        // through their shared access switch.
        let direct = shortest_path(&g, gpus[0], gpus[1], LinkWeight::Hops, None).unwrap();
        let mut avoid = FxHashSet::default();
        avoid.insert(direct.links[0]);
        let detour =
            shortest_path_avoiding(&g, gpus[0], gpus[1], LinkWeight::Hops, None, &avoid).unwrap();
        assert_eq!(detour.hop_count(), 2);
        assert!(!detour.links.contains(&direct.links[0]));
        // Every Yen path honors the ban too.
        let paths =
            k_shortest_paths_avoiding(&g, gpus[0], gpus[1], 3, LinkWeight::Hops, None, &avoid);
        assert!(!paths.is_empty());
        for p in &paths {
            assert!(!p.links.contains(&direct.links[0]));
        }
        // Banning every incident link disconnects the pair.
        for &(_, le) in g.neighbors(gpus[0]) {
            avoid.insert(le);
        }
        assert!(
            shortest_path_avoiding(&g, gpus[0], gpus[1], LinkWeight::Hops, None, &avoid).is_none()
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::graph::{GpuSpec, GraphBuilder, LinkKind, ServerId};
    use proptest::prelude::*;

    /// Random connected-ish graphs: N nodes on a ring plus random chords.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (
            4usize..12,
            proptest::collection::vec((0usize..12, 0usize..12), 0..10),
        )
            .prop_map(|(n, chords)| {
                let mut b = GraphBuilder::new();
                let nodes: Vec<NodeId> = (0..n)
                    .map(|i| b.add_gpu(ServerId(i as u32), 0, GpuSpec::a100_40g()))
                    .collect();
                for i in 0..n {
                    b.add_link(
                        nodes[i],
                        nodes[(i + 1) % n],
                        LinkKind::Ethernet,
                        100e9,
                        1000,
                    );
                }
                for (a, bn) in chords {
                    let (a, bn) = (a % n, bn % n);
                    if a != bn {
                        b.add_link(nodes[a], nodes[bn], LinkKind::Ethernet, 100e9, 1000);
                    }
                }
                b.build()
            })
    }

    proptest! {
        /// Dijkstra distances satisfy the triangle inequality and symmetry
        /// on undirected graphs.
        #[test]
        fn dijkstra_metric_properties(g in arb_graph()) {
            let nodes = g.gpus();
            let ap = AllPairs::compute(&g, &nodes, LinkWeight::Latency, None);
            for &a in &nodes {
                prop_assert_eq!(ap.dist(a, a), 0.0);
                for &b in &nodes {
                    prop_assert!((ap.dist(a, b) - ap.dist(b, a)).abs() < 1e-9);
                    for &c in &nodes {
                        prop_assert!(ap.dist(a, c) <= ap.dist(a, b) + ap.dist(b, c) + 1e-9);
                    }
                }
            }
        }

        /// Every reconstructed path's summed weight equals its reported cost.
        #[test]
        fn path_cost_equals_link_sum(g in arb_graph()) {
            let nodes = g.gpus();
            let ap = AllPairs::compute(&g, &nodes, LinkWeight::Latency, None);
            for &a in &nodes {
                for &b in &nodes {
                    let p = ap.path(a, b);
                    if p.cost.is_finite() {
                        let sum: f64 = p
                            .links
                            .iter()
                            .map(|&l| LinkWeight::Latency.cost(&g, l, None))
                            .sum();
                        prop_assert!((sum - p.cost).abs() < 1e-9);
                    }
                }
            }
        }

        /// Yen's paths are unique, loopless and sorted for random graphs.
        #[test]
        fn yen_invariants(g in arb_graph(), k in 1usize..5) {
            let nodes = g.gpus();
            let (a, b) = (nodes[0], nodes[nodes.len() / 2]);
            let paths = k_shortest_paths(&g, a, b, k, LinkWeight::Hops, None);
            prop_assert!(paths.len() <= k);
            let mut seen = std::collections::HashSet::new();
            let mut last = 0.0f64;
            for p in &paths {
                prop_assert!(p.cost >= last - 1e-9);
                last = p.cost;
                prop_assert!(seen.insert(p.links.clone()), "duplicate path");
                let ns = p.nodes(&g);
                let uniq: std::collections::HashSet<_> = ns.iter().collect();
                prop_assert_eq!(uniq.len(), ns.len(), "loop");
            }
        }
    }
}
