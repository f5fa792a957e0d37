//! Shortest paths and the offline routing matrices of Algorithm 2.
//!
//! The offline planner precomputes (§III-C3, Alg. 2 lines 1–3):
//!
//! * `D(i,j)` — the pairwise minimum-latency matrix, and
//! * `P(k,a)` — the shortest connection path between nodes `k` and `a`,
//!
//! both via Dijkstra. The cost of an edge is pluggable ([`LinkWeight`]):
//! hop count or propagation latency. The paper's `D / B(e_n)` transfer
//! terms (Eqs. 9–11, 15) are priced along these routes by
//! `hs_collective::latency`, not folded into the route choice.
//!
//! The online scheduler additionally needs *alternative* routes between the
//! same endpoints (each route backs one candidate policy in the policy cost
//! table, Fig. 5); [`k_shortest_paths_avoiding`] provides them via Yen's
//! algorithm.
//!
//! A [`Path`]'s hops are a [`Route`]: directed (full-duplex links carry
//! each direction separately), built once here and shared, never copied,
//! by every later holder — collective plans, the scheduler's candidate
//! routes and the flows the simulator runs on them.

use crate::graph::{Graph, LinkId, NodeId};
use rustc_hash::FxHashSet;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Edge-cost model for shortest-path computations.
#[derive(Clone, Copy, Debug)]
pub enum LinkWeight {
    /// Every link costs 1.
    Hops,
    /// Cost = propagation latency (ns).
    Latency,
}

impl LinkWeight {
    /// Cost of traversing `link` in the given graph, in abstract cost
    /// units (nanoseconds for [`LinkWeight::Latency`]).
    #[inline]
    pub fn cost(&self, g: &Graph, link: LinkId) -> f64 {
        match *self {
            LinkWeight::Hops => 1.0,
            LinkWeight::Latency => g.link(link).latency_ns as f64,
        }
    }
}

/// One directed hop: the link and whether it is traversed `a -> b`
/// (links are full duplex; each direction is its own capacity pool).
pub type DirLink = (LinkId, bool);

/// A route's directed hops in traversal order, built once and shared by
/// every holder: the all-pairs store, the online scheduler's candidates,
/// collective plans and the flows the simulator runs on it.
pub type Route = Arc<[DirLink]>;

/// A route through the fabric: the directed hops from source to
/// destination, plus its total cost under the weight it was computed with.
#[derive(Clone, Debug, PartialEq)]
pub struct Path {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Directed hops in traversal order: each leaves the node the
    /// previous one entered. Empty iff `src == dst` or disconnected.
    pub route: Route,
    /// Total cost under the weight used to compute the path.
    pub cost: f64,
}

impl Path {
    /// Number of hops.
    pub fn hop_count(&self) -> usize {
        self.route.len()
    }

    /// The links in traversal order.
    pub fn links(&self) -> impl Iterator<Item = LinkId> + '_ {
        self.route.iter().map(|&(l, _)| l)
    }

    /// Node sequence `src, ..., dst` implied by the hops.
    pub fn nodes(&self, g: &Graph) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.route.len() + 1);
        out.push(self.src);
        out.extend(self.route.iter().map(|&(l, forward)| {
            let link = g.link(l);
            if forward {
                link.b
            } else {
                link.a
            }
        }));
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
/// empty sets for plain shortest paths.
pub fn dijkstra(
    g: &Graph,
    src: NodeId,
    weight: LinkWeight,
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
            let c = cost + weight.cost(g, le);
            if c < dist[nb.idx()] {
                dist[nb.idx()] = c;
                prev[nb.idx()] = Some(le);
                heap.push(HeapEntry { cost: c, node: nb });
            }
        }
    }
    (dist, prev)
}

/// Append the directed hops of Dijkstra's path from `src` to `dst`, read
/// from its `prev` vector, to `hops`. Returns `false`, appending nothing,
/// if `dst` is unreachable.
fn reconstruct(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    dist: &[f64],
    prev: &[Option<LinkId>],
    hops: &mut Vec<DirLink>,
) -> bool {
    if !dist[dst.idx()].is_finite() {
        return false;
    }
    let start = hops.len();
    let mut cur = dst;
    while cur != src {
        let le = prev[cur.idx()].expect("a reached node has a predecessor");
        let link = g.link(le);
        // The hop enters `cur`: forward (`a -> b`) iff `cur` is its `b`.
        hops.push((le, link.b == cur));
        cur = link.other(cur).expect("prev link inconsistent");
    }
    hops[start..].reverse();
    true
}

/// `hops` as a shared route: one allocation, none when empty.
fn shared(hops: &[DirLink]) -> Route {
    if hops.is_empty() {
        Route::default()
    } else {
        Route::from(hops)
    }
}

/// Shortest path between two nodes, or `None` if disconnected.
pub fn shortest_path(g: &Graph, src: NodeId, dst: NodeId, weight: LinkWeight) -> Option<Path> {
    shortest_path_avoiding(g, src, dst, weight, &FxHashSet::default())
}

/// Shortest path that never traverses a link in `avoid` (e.g. links taken
/// down by a fault), or `None` if no such path exists.
pub fn shortest_path_avoiding(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    weight: LinkWeight,
    avoid: &FxHashSet<LinkId>,
) -> Option<Path> {
    let empty_n = FxHashSet::default();
    let (dist, prev) = dijkstra(g, src, weight, &empty_n, avoid);
    let mut hops = Vec::new();
    reconstruct(g, src, dst, &dist, &prev, &mut hops).then(|| Path {
        src,
        dst,
        route: shared(&hops),
        cost: dist[dst.idx()],
    })
}

/// The all-pairs structures of Algorithm 2: `D(i,j)` + `P(k,a)` for the
/// node set of interest (typically all GPUs + INA switches).
///
/// One table per fabric, shared: a clone is a pointer copy, so the
/// planner, a deployment and every run it serves read the same routes.
#[derive(Clone, Debug)]
pub struct AllPairs(Arc<Table>);

#[derive(Debug)]
struct Table {
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
    /// may appear as intermediate hops even if not in `nodes`, and a
    /// pair's distance and route do not depend on which other nodes are
    /// covered. `_avail_bps` is ignored: no [`LinkWeight`] reads residual
    /// bandwidth.
    pub fn compute(
        g: &Graph,
        nodes: &[NodeId],
        weight: LinkWeight,
        _avail_bps: Option<&[f64]>,
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
        let mut hops = Vec::new();
        for (i, &src) in nodes.iter().enumerate() {
            let (d, prev) = dijkstra(g, src, weight, &empty_n, &empty_l);
            for (j, &dst) in nodes.iter().enumerate() {
                dist[i * m + j] = d[dst.idx()];
                hops.clear();
                reconstruct(g, src, dst, &d, &prev, &mut hops);
                paths.push(Path {
                    src,
                    dst,
                    route: shared(&hops),
                    cost: d[dst.idx()],
                });
            }
        }
        AllPairs(Arc::new(Table {
            dist,
            nodes: nodes.to_vec(),
            index_of,
            paths,
        }))
    }

    /// The covered node set.
    pub fn nodes(&self) -> &[NodeId] {
        &self.0.nodes
    }

    /// Matrix position of the pair `(a, b)`, or `None` if either node is
    /// not covered.
    #[inline]
    fn pair(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let t = &*self.0;
        let (i, j) = (*t.index_of.get(a.idx())?, *t.index_of.get(b.idx())?);
        (i != u32::MAX && j != u32::MAX).then(|| i as usize * t.nodes.len() + j as usize)
    }

    /// Distance between two covered nodes.
    ///
    /// # Panics
    /// Panics if either node is not in the covered set.
    pub fn dist(&self, a: NodeId, b: NodeId) -> f64 {
        self.0.dist[self.pair(a, b).expect("node not covered by AllPairs")]
    }

    /// Shortest path between two covered nodes (empty route iff `a == b`
    /// or disconnected — check `cost.is_finite()` for the latter).
    ///
    /// # Panics
    /// Panics if either node is not in the covered set.
    pub fn path(&self, a: NodeId, b: NodeId) -> &Path {
        &self.0.paths[self.pair(a, b).expect("node not covered by AllPairs")]
    }

    /// The shared route of the shortest path from `a` to `b`; `None` if
    /// either node is not covered.
    #[inline]
    pub fn route(&self, a: NodeId, b: NodeId) -> Option<&Route> {
        self.pair(a, b).map(|p| &self.0.paths[p].route)
    }

    /// Whether `n` is covered.
    pub fn covers(&self, n: NodeId) -> bool {
        self.0.index_of[n.idx()] != u32::MAX
    }
}

/// Yen's algorithm: up to `k` loopless shortest paths from `src` to `dst`
/// that never traverse a link in `avoid`, sorted by cost. They are the
/// candidate routes behind online policies; the scheduler rebuilds its
/// route cache with a non-empty `avoid` after a fault takes links out of
/// service.
pub fn k_shortest_paths_avoiding(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    k: usize,
    weight: LinkWeight,
    avoid: &FxHashSet<LinkId>,
) -> Vec<Path> {
    let mut result: Vec<Path> = Vec::new();
    let Some(first) = shortest_path_avoiding(g, src, dst, weight, avoid) else {
        return result;
    };
    result.push(first);
    // Candidate pool, deduplicated on the hop sequence.
    let mut candidates: Vec<Path> = Vec::new();
    let mut seen: FxHashSet<Route> = FxHashSet::default();
    seen.insert(result[0].route.clone());
    let mut hops = Vec::new();

    while result.len() < k {
        let last = result.last().expect("nonempty").clone();
        let last_nodes = last.nodes(g);
        // Spur from each node of the previous path.
        for spur_idx in 0..last.route.len() {
            let spur_node = last_nodes[spur_idx];
            let root = &last.route[..spur_idx];

            let mut banned_links: FxHashSet<LinkId> = avoid.clone();
            for p in result.iter().chain(candidates.iter()) {
                if p.route.len() > spur_idx && p.route[..spur_idx] == *root {
                    banned_links.insert(p.route[spur_idx].0);
                }
            }
            // Ban root-path nodes (except the spur node) to keep paths
            // loopless.
            let mut banned_nodes: FxHashSet<NodeId> = FxHashSet::default();
            for &n in &last_nodes[..spur_idx] {
                banned_nodes.insert(n);
            }

            let (d, prev) = dijkstra(g, spur_node, weight, &banned_nodes, &banned_links);
            // The spur leaves the node the root enters, so the joined hops
            // stay directed.
            hops.clear();
            hops.extend_from_slice(root);
            if reconstruct(g, spur_node, dst, &d, &prev, &mut hops) && !seen.contains(&hops[..]) {
                let route = shared(&hops);
                seen.insert(route.clone());
                let cost = route.iter().map(|&(l, _)| weight.cost(g, l)).sum::<f64>();
                candidates.push(Path {
                    src,
                    dst,
                    route,
                    cost,
                });
            }
        }
        if candidates.is_empty() {
            break;
        }
        // Take the cheapest candidate (stable tie-break on the hops, which
        // orders as the link ids do: see DESIGN.md §12).
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|(_, x), (_, y)| {
                x.cost
                    .partial_cmp(&y.cost)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| x.route.cmp(&y.route))
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
        let p = shortest_path(&g, gpus[0], gpus[1], LinkWeight::Hops).unwrap();
        // NVLink direct beats 2-hop Ethernet detour.
        assert_eq!(p.hop_count(), 1);
        assert_eq!(g.link(p.route[0].0).kind, LinkKind::NvLink);
    }

    #[test]
    fn cross_server_goes_via_switches() {
        let (g, gpus, sw) = sample();
        let p = shortest_path(&g, gpus[0], gpus[2], LinkWeight::Hops).unwrap();
        assert_eq!(p.hop_count(), 4); // gpu0-acc0-core-acc1-gpu2
        let nodes = p.nodes(&g);
        assert_eq!(nodes.first(), Some(&gpus[0]));
        assert_eq!(nodes.last(), Some(&gpus[2]));
        assert!(nodes.contains(&sw[2]));
    }

    #[test]
    fn all_pairs_matches_single_source() {
        let (g, gpus, sw) = sample();
        let mut nodes = gpus.clone();
        nodes.extend(&sw);
        let ap = AllPairs::compute(&g, &nodes, LinkWeight::Latency, None);
        for &a in &nodes {
            for &b in &nodes {
                let expect = shortest_path(&g, a, b, LinkWeight::Latency)
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
        assert!(ap.path(gpus[0], gpus[0]).route.is_empty());
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
        let paths = k_shortest_paths_avoiding(
            &g,
            gpus[0],
            gpus[2],
            4,
            LinkWeight::Hops,
            &FxHashSet::default(),
        );
        assert!(
            paths.len() >= 2,
            "expected multiple routes, got {}",
            paths.len()
        );
        for w in paths.windows(2) {
            assert!(w[0].cost <= w[1].cost, "not sorted by cost");
            assert_ne!(w[0].route, w[1].route, "duplicate path");
        }
        for p in &paths {
            let nodes = p.nodes(&g);
            let set: FxHashSet<_> = nodes.iter().collect();
            assert_eq!(set.len(), nodes.len(), "loop in path {:?}", p.route);
        }
    }

    #[test]
    fn yen_handles_disconnection_and_k1() {
        let (g, gpus, _) = sample();
        let paths = k_shortest_paths_avoiding(
            &g,
            gpus[0],
            gpus[1],
            1,
            LinkWeight::Hops,
            &FxHashSet::default(),
        );
        assert_eq!(paths.len(), 1);
        // Isolated node: build a graph with a disconnected GPU.
        let mut b = GraphBuilder::new();
        let x = b.add_gpu(ServerId(0), 0, GpuSpec::a100_40g());
        let y = b.add_gpu(ServerId(1), 0, GpuSpec::a100_40g());
        let g2 = b.build();
        assert!(
            k_shortest_paths_avoiding(&g2, x, y, 3, LinkWeight::Hops, &FxHashSet::default())
                .is_empty()
        );
    }

    #[test]
    fn avoiding_routes_around_banned_links() {
        let (g, gpus, _) = sample();
        // Ban the direct NVLink between gpu0 and gpu1; the detour goes
        // through their shared access switch.
        let direct = shortest_path(&g, gpus[0], gpus[1], LinkWeight::Hops).unwrap();
        let mut avoid = FxHashSet::default();
        avoid.insert(direct.route[0].0);
        let detour =
            shortest_path_avoiding(&g, gpus[0], gpus[1], LinkWeight::Hops, &avoid).unwrap();
        assert_eq!(detour.hop_count(), 2);
        assert!(!detour.links().any(|l| l == direct.route[0].0));
        // Every Yen path honors the ban too.
        let paths = k_shortest_paths_avoiding(&g, gpus[0], gpus[1], 3, LinkWeight::Hops, &avoid);
        assert!(!paths.is_empty());
        for p in &paths {
            assert!(!p.links().any(|l| l == direct.route[0].0));
        }
        // Banning every incident link disconnects the pair.
        for &(_, le) in g.neighbors(gpus[0]) {
            avoid.insert(le);
        }
        assert!(shortest_path_avoiding(&g, gpus[0], gpus[1], LinkWeight::Hops, &avoid).is_none());
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
                            .links()
                            .map(|l| LinkWeight::Latency.cost(&g, l))
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
            let paths = k_shortest_paths_avoiding(&g, a, b, k, LinkWeight::Hops, &FxHashSet::default());
            prop_assert!(paths.len() <= k);
            let mut seen = std::collections::HashSet::new();
            let mut last = 0.0f64;
            for p in &paths {
                prop_assert!(p.cost >= last - 1e-9);
                last = p.cost;
                prop_assert!(seen.insert(p.route.clone()), "duplicate path");
                let ns = p.nodes(&g);
                let uniq: std::collections::HashSet<_> = ns.iter().collect();
                prop_assert_eq!(uniq.len(), ns.len(), "loop");
            }
        }
    }
}

#[cfg(test)]
mod route_proptests {
    use super::*;
    use crate::builders::{fig2_micro, testbed, xtracks, XTracksConfig};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// A fabric with its minimum-latency routes among all of its nodes.
    struct Fabric {
        g: Graph,
        nodes: Vec<NodeId>,
        ap: AllPairs,
    }

    /// `testbed`, `fig2_micro` and two-track `xtracks`, built once.
    fn fabrics() -> &'static [Fabric] {
        static FABRICS: OnceLock<Vec<Fabric>> = OnceLock::new();
        FABRICS.get_or_init(|| {
            let graphs = [
                testbed().graph,
                fig2_micro().graph,
                xtracks(&XTracksConfig::two_tracks(2)).graph,
            ];
            graphs
                .into_iter()
                .map(|g| {
                    let nodes: Vec<NodeId> = g.nodes().map(|(n, _)| n).collect();
                    let ap = AllPairs::compute(&g, &nodes, LinkWeight::Latency, None);
                    Fabric { g, nodes, ap }
                })
                .collect()
        })
    }

    /// Whether `route` walks from `src` to `dst`, each hop leaving the
    /// node the previous hop entered.
    fn is_walk(g: &Graph, src: NodeId, dst: NodeId, route: &[DirLink]) -> bool {
        let mut cur = src;
        for &(l, forward) in route {
            let link = g.link(l);
            let (from, to) = if forward {
                (link.a, link.b)
            } else {
                (link.b, link.a)
            };
            if from != cur {
                return false;
            }
            cur = to;
        }
        cur == dst
    }

    /// The link ids of Dijkstra's path to `dst`, or `None`.
    fn ref_links(
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        dist: &[f64],
        prev: &[Option<LinkId>],
    ) -> Option<Vec<LinkId>> {
        if !dist[dst.idx()].is_finite() {
            return None;
        }
        let mut links = Vec::new();
        let mut cur = dst;
        while cur != src {
            let le = prev[cur.idx()]?;
            links.push(le);
            cur = g.link(le).other(cur)?;
        }
        links.reverse();
        Some(links)
    }

    /// Yen's algorithm over undirected link-id sequences: the reference
    /// the directed routes must match, path for path and in order.
    fn ref_yen(
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        k: usize,
        weight: LinkWeight,
        avoid: &FxHashSet<LinkId>,
    ) -> Vec<(Vec<LinkId>, f64)> {
        let cost = |links: &[LinkId]| links.iter().map(|&l| weight.cost(g, l)).sum();
        let nodes = |links: &[LinkId]| {
            let mut out = vec![src];
            for &l in links {
                out.push(g.link(l).other(*out.last().unwrap()).unwrap());
            }
            out
        };
        let none = FxHashSet::default();
        let (d, prev) = dijkstra(g, src, weight, &none, avoid);
        let Some(first) = ref_links(g, src, dst, &d, &prev) else {
            return Vec::new();
        };
        let mut result = vec![(first.clone(), d[dst.idx()])];
        let mut candidates: Vec<(Vec<LinkId>, f64)> = Vec::new();
        let mut seen = FxHashSet::default();
        seen.insert(first);
        while result.len() < k {
            let last = result.last().unwrap().0.clone();
            let last_nodes = nodes(&last);
            for i in 0..last.len() {
                let mut banned_links = avoid.clone();
                for (p, _) in result.iter().chain(&candidates) {
                    if p.len() > i && p[..i] == last[..i] {
                        banned_links.insert(p[i]);
                    }
                }
                let banned_nodes = last_nodes[..i].iter().copied().collect();
                let spur = last_nodes[i];
                let (d, prev) = dijkstra(g, spur, weight, &banned_nodes, &banned_links);
                if let Some(tail) = ref_links(g, spur, dst, &d, &prev) {
                    let links = [&last[..i], &tail[..]].concat();
                    if seen.insert(links.clone()) {
                        let c = cost(&links);
                        candidates.push((links, c));
                    }
                }
            }
            let Some(best) = (0..candidates.len()).min_by(|&x, &y| {
                let (x, y) = (&candidates[x], &candidates[y]);
                x.1.partial_cmp(&y.1)
                    .unwrap_or(Ordering::Equal)
                    .then_with(|| x.0.cmp(&y.0))
            }) else {
                break;
            };
            result.push(candidates.swap_remove(best));
        }
        result
    }

    /// Node subsets `S ⊆ T` of `nodes` drawn from `seed`: each node is in
    /// `T` with probability 3/4, and a member of `T` is in `S` with
    /// probability 1/2.
    fn nested_subsets(nodes: &[NodeId], seed: u64) -> (Vec<NodeId>, Vec<NodeId>) {
        let (mut s, mut t) = (Vec::new(), Vec::new());
        let mut x = seed;
        for &n in nodes {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            match z & 3 {
                0 => {}
                1 => t.push(n),
                _ => {
                    t.push(n);
                    s.push(n);
                }
            }
        }
        (s, t)
    }

    proptest! {
        /// A table over nodes `S` and one over a superset `T` agree on
        /// every pair of `S`, bit for bit: one table over a fabric's GPUs
        /// and INA switches can stand in for any table over fewer nodes.
        #[test]
        fn tables_over_nested_node_sets_agree(
            fabric in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let f = &fabrics()[fabric];
            let (s, t) = nested_subsets(&f.nodes, seed);
            let small = AllPairs::compute(&f.g, &s, LinkWeight::Latency, None);
            let big = AllPairs::compute(&f.g, &t, LinkWeight::Latency, None);
            for &a in &s {
                for &b in &s {
                    prop_assert_eq!(small.dist(a, b).to_bits(), big.dist(a, b).to_bits());
                    prop_assert_eq!(&small.path(a, b).route[..], &big.path(a, b).route[..]);
                    prop_assert_eq!(small.route(a, b), big.route(a, b));
                }
            }
        }

        /// Every `AllPairs` route from `src` and every Yen's route from
        /// `src` to `dst`, with random links avoided, is a directed walk
        /// between its endpoints, and carries the links and cost Dijkstra
        /// and link-id Yen's find, in their order.
        #[test]
        fn routes_are_directed_walks(
            fabric in 0usize..3,
            (a, b) in (0usize..1 << 16, 0usize..1 << 16),
            avoid in proptest::collection::vec(0usize..1 << 16, 0..6),
            k in 1usize..5,
            hops in 0u8..2,
        ) {
            let f = &fabrics()[fabric];
            let (src, dst) = (f.nodes[a % f.nodes.len()], f.nodes[b % f.nodes.len()]);
            let (no_nodes, no_links) = (FxHashSet::default(), FxHashSet::default());

            let (d, prev) = dijkstra(&f.g, src, LinkWeight::Latency, &no_nodes, &no_links);
            for &to in &f.nodes {
                let p = f.ap.path(src, to);
                let want = ref_links(&f.g, src, to, &d, &prev);
                prop_assert_eq!(p.cost.to_bits(), d[to.idx()].to_bits());
                prop_assert_eq!(Some(p.links().collect::<Vec<_>>()), want);
                prop_assert_eq!(f.ap.route(src, to), Some(&p.route));
                prop_assert!(is_walk(&f.g, src, to, &p.route), "{:?}", p.route);
            }

            let weight = [LinkWeight::Latency, LinkWeight::Hops][hops as usize];
            let avoid: FxHashSet<LinkId> = avoid
                .iter()
                .map(|&i| LinkId((i % f.g.link_count()) as u32))
                .collect();
            let got = k_shortest_paths_avoiding(&f.g, src, dst, k, weight, &avoid);
            let want = ref_yen(&f.g, src, dst, k, weight, &avoid);
            prop_assert_eq!(got.len(), want.len());
            for (p, (links, cost)) in got.iter().zip(&want) {
                prop_assert!(is_walk(&f.g, src, dst, &p.route), "{:?}", p.route);
                prop_assert_eq!(&p.links().collect::<Vec<_>>(), links);
                prop_assert_eq!(p.cost.to_bits(), cost.to_bits());
            }
        }
    }
}
