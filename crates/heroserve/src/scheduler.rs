//! The load-aware online scheduler (§III-D).
//!
//! Each tensor-parallel group keeps a **policy cost table** (Fig. 5) over
//! its candidate (scheme, route) policies. On every `ncclAllreduce`-
//! equivalent — i.e. every iteration's collective — the scheduler:
//!
//! 1. selects `c* = argmin_c J(c, D)` (Eq. 16) where `J(c, D) = b_c + δ`
//!    with `b_c` the policy's virtual bandwidth-utilization cost and `δ`
//!    the utilization the new transfer of `D` bytes would add over the
//!    estimation window `T_u` on the policy's bottleneck links;
//! 2. charges the chosen policy `b'_{c*} = b_{c*} + δ` and every other
//!    policy `b'_c = b_c + δ·f_{(c*,c)}` (Eq. 17), where the load-penalty
//!    `f` captures how much of `c`'s route the chosen policy loads;
//! 3. periodically refreshes `f` with the exponentially smoothed sharing
//!    ratio `W_{(c*,c)} = Σ_{e ∈ c*∩c} B(e) / Σ_{e ∈ c} B(e)` (Eq. 18)
//!    and relaxes every `b_c` toward the *measured* utilization of its
//!    links — the role of the central controller's synchronization, which
//!    in this single-process simulation is exact.

use crate::netest::available_bandwidth;
use crate::policy::{build_policies, netkv_score, Policy};
use hs_cluster::{BusyPolicy, CommCtx, CommStrategy, FabricHealth, KvCandidate, KvChoice, KvCtx};
use hs_collective::Scheme;
use hs_des::SimTime;
use hs_topology::routing::k_shortest_paths_avoiding;
use hs_topology::{AllPairs, Graph, LinkId, LinkWeight, NodeId, Route};
use hs_workload::FaultKind;
use rustc_hash::FxHashSet;
use std::collections::BTreeMap;

/// Estimation window `T_u`, seconds: how long a transfer's load is
/// assumed to occupy its links.
pub const T_U_S: f64 = 0.05;

/// Measurement-synchronization factor: how strongly monitored utilization
/// pulls `b_c` back to reality each control-plane poll.
pub const KAPPA: f64 = 0.5;

/// How many nearest INA switches get candidate policies.
pub const K_SWITCHES: usize = 2;

/// Tunables of the online scheduler that experiments vary.
#[derive(Clone, Copy, Debug)]
pub struct SchedulerParams {
    /// Penalty smoothing factor `γ` of Eq. 18.
    pub gamma: f64,
    /// How the decode instance for a prefill→decode KV shipment is chosen.
    pub kv_select: KvSelection,
}

/// Decode-instance selection policy for KV-cache shipments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvSelection {
    /// The engine's default: fewest active decode requests (ties to the
    /// lowest instance index). Network-oblivious.
    LeastLoaded,
    /// NetKV-style network-aware selection: score each admissible decode
    /// instance by estimated striped KV transfer time over residual link
    /// bandwidth, plus decode-load and KV-pressure penalties.
    NetKv,
}

impl Default for SchedulerParams {
    fn default() -> Self {
        SchedulerParams {
            gamma: 0.3,
            kv_select: KvSelection::NetKv,
        }
    }
}

/// The per-group policy cost table (Fig. 5).
struct PolicyTable {
    policies: Vec<Policy>,
    /// Virtual utilization cost `b_c` per policy.
    b: Vec<f64>,
    /// Load penalty `f_{(i,j)}`: impact of choosing `i` on `j`.
    f: Vec<Vec<f64>>,
    /// Eq. 18's `c* ∩ c` for every pair, at `i * n + j`: the ascending
    /// positions in `policies[j].links` of the links `policies[i]` also
    /// uses. Fixed at construction.
    overlap: Vec<Vec<usize>>,
    /// Eq. 18's link weights `B(e)` of each policy's links, in `links`
    /// order, as of the last [`Self::weigh`].
    weights: Vec<Vec<f64>>,
    /// Each policy's weight total, summed in `links` order.
    totals: Vec<f64>,
    /// Selections per policy (diagnostics/ablation).
    picks: Vec<u64>,
    /// When virtual costs were last decayed (see [`Self::decay_to`]).
    last_decay: SimTime,
}

/// One Eq. 16 `select()` outcome with its audit trail.
struct Selection {
    idx: usize,
    /// The winning objective `J(c*, D) = b_{c*} + δ`.
    j: f64,
    /// The δ term of the winner.
    delta: f64,
    /// Candidates skipped because they crossed a dead link.
    dead_skipped: usize,
}

impl PolicyTable {
    /// A table over `policies` whose load penalties start at the
    /// structural sharing ratio under the capacities `caps`.
    fn new(policies: Vec<Policy>, caps: &[f64]) -> Self {
        let n = policies.len();
        let mut overlap = Vec::with_capacity(n * n);
        for chosen in &policies {
            for other in &policies {
                let shared = other.links.iter().enumerate();
                let shared = shared.filter(|(_, l)| chosen.links.binary_search(l).is_ok());
                overlap.push(shared.map(|(k, _)| k).collect());
            }
        }
        let mut table = PolicyTable {
            b: vec![0.0; n],
            f: vec![vec![0.0; n]; n],
            overlap,
            weights: policies.iter().map(|p| vec![0.0; p.links.len()]).collect(),
            totals: vec![0.0; n],
            picks: vec![0; n],
            last_decay: SimTime::ZERO,
            policies,
        };
        // Initialize f with the *structural* sharing ratio (capacity
        // weighted); Eq. 18 refreshes it with live utilization later.
        table.weigh(caps, None);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    table.f[i][j] = table.sharing(i, j);
                }
            }
        }
        table
    }

    /// Weigh every policy's links by Eq. 18's `B(e)` under the
    /// capacities `caps` and `util` (see [`link_weight`]) and total them.
    fn weigh(&mut self, caps: &[f64], util: Option<&[f64]>) {
        for ((p, w), total) in self
            .policies
            .iter()
            .zip(&mut self.weights)
            .zip(&mut self.totals)
        {
            *total = 0.0;
            for (&l, w) in p.links.iter().zip(w.iter_mut()) {
                *w = link_weight(l, caps, util);
                *total += *w;
            }
        }
    }

    /// `W_{(i,j)}` under the last [`Self::weigh`]: the shared weight
    /// summed in `policies[j].links` order, over `j`'s total.
    fn sharing(&self, i: usize, j: usize) -> f64 {
        let total = self.totals[j];
        if total <= 0.0 {
            return 0.0;
        }
        let w = &self.weights[j];
        let overlap = &self.overlap[i * self.policies.len() + j];
        let shared = overlap.iter().fold(0.0, |acc, &k| acc + w[k]);
        shared / total
    }

    /// Expire virtual charges older than the estimation window. A charge
    /// models a transfer occupying its links for roughly `T_u` seconds
    /// (that is δ's denominator), so costs decay exponentially with time
    /// constant `T_u` between selections. Without this, a slow or absent
    /// control-plane `refresh()` lets `b` grow without bound and the
    /// `(j / QUANTUM)` bucket in `select()` saturates, degenerating the
    /// argmin into pure latency tie-breaking.
    fn decay_to(&mut self, now: SimTime) {
        let dt = now.saturating_since(self.last_decay).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        self.last_decay = now;
        let k = (-dt / T_U_S).exp();
        for b in &mut self.b {
            *b *= k;
        }
    }

    /// Eq. 16: pick the policy minimizing `J(c, D) = b_c + δ_c`;
    /// policies within one utilization quantum of each other are
    /// tie-broken by idle-fabric latency (the offline planner's scheme
    /// preference, so the hybrid choice degrades gracefully to "fastest
    /// scheme" when nothing is loaded).
    /// Policies crossing a dead link are infinite-cost — skipped outright
    /// so Eq. 16 routes around faults. `None` iff every candidate is dead.
    fn select(&self, bytes: u64, health: &FabricHealth) -> Option<Selection> {
        const QUANTUM: f64 = 0.10;
        let mut best: Option<Selection> = None;
        let mut best_key = (usize::MAX, f64::INFINITY);
        let mut dead_skipped = 0;
        for (i, p) in self.policies.iter().enumerate() {
            if health.any_dead() && p.links.iter().any(|&l| health.is_dead(l)) {
                dead_skipped += 1;
                continue;
            }
            let d = delta(p, bytes);
            let j = self.b[i] + d;
            let key = ((j / QUANTUM) as usize, p.base_latency_s);
            if best.is_none() || key.0 < best_key.0 || (key.0 == best_key.0 && key.1 < best_key.1) {
                best_key = key;
                best = Some(Selection {
                    idx: i,
                    j,
                    delta: d,
                    dead_skipped: 0,
                });
            }
        }
        best.map(|mut s| {
            s.dead_skipped = dead_skipped;
            s
        })
    }

    /// Eq. 17: charge the chosen policy and penalize the sharers.
    /// Returns the δ charged to the winner.
    fn charge(&mut self, chosen: usize, bytes: u64) -> f64 {
        let d = delta(&self.policies[chosen], bytes);
        for i in 0..self.b.len() {
            if i == chosen {
                self.b[i] += d;
            } else {
                self.b[i] += d * self.f[chosen][i];
            }
        }
        self.picks[chosen] += 1;
        d
    }

    /// Largest virtual cost in the table (trace diagnostics).
    fn max_b(&self) -> f64 {
        self.b.iter().copied().fold(0.0, f64::max)
    }

    /// Eq. 18 + measurement sync, with link weights under the
    /// capacities `caps`.
    fn refresh(&mut self, caps: &[f64], link_util: &[f64], gamma: f64) {
        let n = self.policies.len();
        self.weigh(caps, Some(link_util));
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    let w = self.sharing(i, j);
                    self.f[i][j] = (1.0 - gamma) * self.f[i][j] + gamma * w;
                }
            }
        }
        // Pull virtual costs toward the measured utilization of each
        // policy's links (the controller's ground truth).
        for (i, p) in self.policies.iter().enumerate() {
            let measured = p
                .links
                .iter()
                .map(|l| link_util.get(l.idx()).copied().unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            self.b[i] = (1.0 - KAPPA) * self.b[i] + KAPPA * measured;
        }
    }
}

/// Added *maximum* link-utilization ratio of transferring `bytes` over
/// the policy within the estimation window (Eq. 16's δ).
fn delta(p: &Policy, bytes: u64) -> f64 {
    bytes as f64 * p.max_link_secs_per_byte / T_U_S
}

/// Eq. 18's weight `B(e)` of link `l`. With `util`, links are weighted
/// by `capacity × utilization` as the paper monitors; without, by
/// capacity alone (structural prior). The capacity weights matter on
/// heterogeneous routes: a shared 600 Gb/s NVLink hop carries far more
/// of a route's traffic than a shared 100 Gb/s Ethernet hop, so it must
/// dominate the ratio.
fn link_weight(l: LinkId, caps: &[f64], util: Option<&[f64]>) -> f64 {
    // Unknown links (stale table vs. grown graph) weigh as 1.0 so the
    // ratio stays defined instead of silently vanishing.
    let cap = caps.get(l.idx()).copied().unwrap_or(1.0);
    match util {
        Some(u) => cap * u.get(l.idx()).copied().unwrap_or(0.0).max(0.05),
        None => cap,
    }
}

/// `W_{(c*,c)}`: how much of `c`'s route the chosen policy `c*` loads,
/// pair by pair — the reference [`PolicyTable::sharing`] must equal bit
/// for bit.
#[cfg(test)]
fn sharing_ratio(chosen: &Policy, other: &Policy, caps: &[f64], util: Option<&[f64]>) -> f64 {
    // `other.links` is sorted; binary search for intersection.
    let mut shared = 0.0;
    let mut total = 0.0;
    for &l in &other.links {
        let w = link_weight(l, caps, util);
        total += w;
        if chosen.links.binary_search(&l).is_ok() {
            shared += w;
        }
    }
    if total <= 0.0 {
        0.0
    } else {
        shared / total
    }
}

/// The HeroServe online scheduler, pluggable into the cluster simulator.
pub struct HeroScheduler {
    graph: Graph,
    ap: AllPairs,
    ina_switches: Vec<NodeId>,
    params: SchedulerParams,
    /// Per-link capacities (bits/s) from the fabric graph, indexed by
    /// dense `LinkId`: Eq. 18's `B(e)` weights for every policy table.
    link_caps: Vec<f64>,
    /// Keyed in group-id order: `on_monitor` walks every table and its
    /// visit order reaches the trace stream.
    tables: BTreeMap<u64, PolicyTable>,
    /// Residual bandwidth `B(e)` per link under the latest monitored
    /// utilization (the idle fabric before the first `on_monitor`),
    /// priced once per tick for every NetKV admission until the next.
    avail: Vec<f64>,
    /// Cached alternative routes per endpoint pair (Yen's k-shortest),
    /// for the point-to-point path policies of Fig. 5. Ordered so fault
    /// invalidation sweeps are deterministic.
    route_cache: BTreeMap<(NodeId, NodeId), Vec<Route>>,
    /// The fabric's fault state, fed by `on_fault`. Policies and routes
    /// crossing a dead link are treated as infinite-cost.
    health: FabricHealth,
    /// Decision-audit sink; no-op unless attached via `attach_tracer`.
    tracer: hs_obs::Tracer,
}

impl HeroScheduler {
    /// Build a scheduler over the fabric. `ap` must cover the GPUs and
    /// INA switches (reuse the planner's all-pairs structures).
    pub fn new(graph: &Graph, ap: AllPairs, params: SchedulerParams) -> Self {
        let ina_switches = graph.ina_switches();
        let mut avail = Vec::with_capacity(graph.link_count());
        available_bandwidth(graph, &[], &mut avail);
        HeroScheduler {
            graph: graph.clone(),
            ap,
            ina_switches,
            params,
            link_caps: graph.capacities(),
            tables: BTreeMap::new(),
            avail,
            route_cache: BTreeMap::new(),
            health: FabricHealth::new(graph),
            tracer: hs_obs::Tracer::noop(),
        }
    }

    /// The routes this scheduler was built with.
    pub fn all_pairs(&self) -> &AllPairs {
        &self.ap
    }

    /// How many times each policy of `group_id` has been selected, in
    /// policy order (a diagnostic for tests).
    pub fn pick_counts(&self, group_id: u64) -> Option<Vec<(Scheme, u64)>> {
        self.tables.get(&group_id).map(|t| {
            t.policies
                .iter()
                .zip(&t.picks)
                .map(|(p, &c)| (p.scheme, c))
                .collect()
        })
    }

    fn table_for(&mut self, group_id: u64, group: &[NodeId]) -> Option<&mut PolicyTable> {
        if !self.tables.contains_key(&group_id) {
            let pols = build_policies(&self.graph, &self.ap, group, &self.ina_switches, K_SWITCHES);
            if pols.is_empty() {
                return None;
            }
            self.tables
                .insert(group_id, PolicyTable::new(pols, &self.link_caps));
        }
        self.tables.get_mut(&group_id)
    }
}

impl CommStrategy for HeroScheduler {
    fn choose(&mut self, ctx: &CommCtx<'_>) -> Scheme {
        if self.table_for(ctx.group_id, ctx.group).is_none() {
            return Scheme::Ring; // degenerate group
        }
        // Re-lookup (rather than holding table_for's borrow) so the tracer
        // field stays usable below; degrade gracefully either way.
        let Some(table) = self.tables.get_mut(&ctx.group_id) else {
            return Scheme::Ring;
        };
        table.decay_to(ctx.now);
        let n_candidates = table.policies.len();
        let Some(sel) = table.select(ctx.bytes, &self.health) else {
            // Every candidate crosses a dead link: degrade to the plain
            // host-side ring and let retries ride out the fault.
            self.tracer.policy_selected(
                ctx.now,
                ctx.group_id,
                "Ring(degraded)",
                f64::INFINITY,
                0.0,
                n_candidates,
                n_candidates,
                ctx.bytes,
            );
            return Scheme::Ring;
        };
        let scheme = table.policies[sel.idx].scheme;
        self.tracer.policy_selected(
            ctx.now,
            ctx.group_id,
            scheme.label(),
            sel.j,
            sel.delta,
            n_candidates,
            sel.dead_skipped,
            ctx.bytes,
        );
        let d = table.charge(sel.idx, ctx.bytes);
        self.tracer
            .policy_charged(ctx.now, ctx.group_id, sel.idx, d, table.max_b());
        scheme
    }

    fn busy_policy(&self) -> BusyPolicy {
        BusyPolicy::FallbackHierRing
    }

    /// Route point-to-point transfers (KV cache, pipeline hops) over the
    /// least-loaded of the k shortest routes — the "next hop /
    /// transmission path" dimension of the policy table. On the paper's
    /// cross-connected testbed this spreads KV traffic over both Tofino
    /// switches instead of hammering one static path.
    fn choose_path(
        &mut self,
        src: NodeId,
        dst: NodeId,
        _bytes: u64,
        link_util: &[f64],
    ) -> Option<Vec<hs_simnet::DirLink>> {
        if src == dst {
            return None;
        }
        let graph = &self.graph;
        let health = &self.health;
        let routes = self.route_cache.entry((src, dst)).or_insert_with(|| {
            let dead: FxHashSet<LinkId> = graph
                .links()
                .map(|(l, _)| l)
                .filter(|&l| health.is_dead(l))
                .collect();
            k_shortest_paths_avoiding(graph, src, dst, 3, LinkWeight::Latency, &dead)
                .into_iter()
                // Alternatives more than ~2 hops longer than the best are
                // never worth the detour for bulk transfers.
                .scan(None::<usize>, |best, p| {
                    let hops = p.hop_count();
                    let b = *best.get_or_insert(hops);
                    Some((hops <= b + 2).then_some(p.route))
                })
                .flatten()
                .collect()
        });
        // `on_fault`, the only place `health` changes, prunes or clears
        // the cache, and a fresh entry avoids the dead links.
        debug_assert!(
            routes
                .iter()
                .all(|r| r.iter().all(|&(l, _)| !health.is_dead(l))),
            "a cached route crosses a dead link"
        );
        if routes.is_empty() {
            return None;
        }
        let score = |links: &[hs_simnet::DirLink]| -> (f64, usize) {
            let max_util = links
                .iter()
                .map(|(l, _)| link_util.get(l.idx()).copied().unwrap_or(0.0))
                .fold(0.0f64, f64::max);
            (max_util, links.len())
        };
        routes
            .iter()
            .min_by(|a, b| {
                let (ua, la) = score(a);
                let (ub, lb) = score(b);
                ua.partial_cmp(&ub)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| la.cmp(&lb))
            })
            .map(|r| r.to_vec())
    }

    fn network_aware_admission(&self) -> bool {
        self.params.kv_select == KvSelection::NetKv
    }

    /// NetKV-style decode selection: among the admissible candidates,
    /// minimize estimated striped transfer time over the residual
    /// bandwidth of the last `on_monitor` plus load/pressure penalties.
    /// Scoring allocates nothing. Ties (exactly equal scores) keep the
    /// lowest instance index — candidates arrive in ascending order, so
    /// strict `<` comparison is the deterministic tiebreak.
    fn choose_decode(
        &mut self,
        ctx: &KvCtx<'_>,
        candidates: &[KvCandidate<'_>],
    ) -> Option<KvChoice> {
        if self.params.kv_select != KvSelection::NetKv {
            return None;
        }
        let mut best: Option<(f64, KvChoice)> = None;
        for c in candidates {
            let est = ctx
                .routes
                .estimate(ctx.src_gpus, c.dst_gpus, ctx.bytes, Some(&self.avail));
            let reserved_frac = if c.capacity_tokens == 0 {
                1.0
            } else {
                1.0 - c.headroom_tokens as f64 / c.capacity_tokens as f64
            };
            let score = netkv_score(est, c.load, reserved_frac);
            let better = match &best {
                None => true,
                Some((b, _)) => score
                    .partial_cmp(b)
                    .is_some_and(|o| o == std::cmp::Ordering::Less),
            };
            if better {
                best = Some((
                    score,
                    KvChoice {
                        instance: c.instance,
                        est_transfer_s: est,
                    },
                ));
            }
        }
        best.map(|(_, c)| c)
    }

    fn on_monitor(&mut self, link_util: &[f64], now: SimTime) {
        available_bandwidth(&self.graph, link_util, &mut self.avail);
        for (&gid, table) in self.tables.iter_mut() {
            // Refresh syncs b to measured utilization, superseding any
            // pending select-time decay.
            table.last_decay = now;
            table.refresh(&self.link_caps, link_util, self.params.gamma);
            self.tracer.table_refreshed(now, gid, table.max_b());
        }
    }

    /// React to fabric faults: record them in the fabric state (Eq. 16
    /// treats policies crossing a dead link as infinite-cost) and drop the
    /// cached routes through links that died, so point-to-point traffic
    /// re-routes.
    fn on_fault(&mut self, kind: &FaultKind, _now: SimTime) {
        let rescaled = self.health.apply(&self.graph, *kind);
        if kind.is_recovery() && !rescaled.is_empty() {
            // A link or switch came back: restored capacity may beat the
            // detours chosen during the outage; recompute everything.
            self.route_cache.clear();
        } else if rescaled.iter().any(|&(_, s)| s <= 0.0) {
            // Entries left with no surviving alternative go entirely, so
            // the next lookup recomputes them avoiding the dead links.
            let health = &self.health;
            self.route_cache.retain(|_, routes| {
                routes.retain(|r| !r.iter().any(|&(l, _)| health.is_dead(l)));
                !routes.is_empty()
            });
        }
    }

    fn name(&self) -> &str {
        "HeroServe"
    }

    fn attach_tracer(&mut self, tracer: &hs_obs::Tracer) {
        self.tracer = tracer.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_cluster::KvRoutes;
    use hs_topology::builders::testbed;

    pub(super) fn scheduler() -> (
        HeroScheduler,
        Vec<NodeId>,
        hs_topology::builders::BuiltTopology,
    ) {
        let t = testbed();
        let ap = t.gpu_switch_pairs();
        let group: Vec<NodeId> = t.gpus_by_server.iter().map(|s| s[0]).collect();
        (
            HeroScheduler::new(&t.graph, ap, SchedulerParams::default()),
            group,
            t,
        )
    }

    pub(super) fn ctx(group: &[NodeId], bytes: u64) -> CommCtx<'_> {
        CommCtx {
            group_id: 1,
            group,
            bytes,
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn prefers_heterogeneous_ina_when_idle() {
        let (mut s, group, _) = scheduler();
        let scheme = s.choose(&ctx(&group, 1 << 20));
        assert!(
            matches!(scheme, Scheme::HierIna { .. }),
            "idle network should pick hierarchical INA, got {scheme:?}"
        );
    }

    #[test]
    fn repeated_load_spreads_across_policies() {
        let (mut s, group, _) = scheduler();
        // Hammer the same group with large transfers without any
        // measurement relaxation: virtual costs build up and the argmin
        // rotates across policies.
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            let scheme = s.choose(&ctx(&group, 64 << 20));
            seen.insert(format!("{scheme:?}"));
        }
        assert!(
            seen.len() >= 2,
            "cost accumulation should rotate policies, saw {seen:?}"
        );
        let picks = s.pick_counts(1).unwrap();
        let total: u64 = picks.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn monitor_feedback_steers_away_from_hot_links() {
        let (mut s, group, t) = scheduler();
        // First pick establishes the favorite (a hierarchical INA at some
        // switch). Then report its links as saturated.
        let first = s.choose(&ctx(&group, 1 << 20));
        let Scheme::HierIna { switch } = first else {
            panic!("expected HierIna first, got {first:?}")
        };
        // Saturate every Ethernet link into that switch.
        let mut util = vec![0.0; t.graph.link_count()];
        for (lid, link) in t.graph.links() {
            if link.a == switch || link.b == switch {
                util[lid.idx()] = 1.0;
            }
        }
        for _ in 0..3 {
            s.on_monitor(&util, SimTime::ZERO);
        }
        let next = s.choose(&ctx(&group, 1 << 20));
        assert_ne!(
            next, first,
            "scheduler kept using a saturated switch: {next:?}"
        );
    }

    #[test]
    fn busy_policy_is_hierarchical() {
        let (s, _, _) = scheduler();
        assert_eq!(s.busy_policy(), BusyPolicy::FallbackHierRing);
        assert_eq!(s.name(), "HeroServe");
    }

    #[test]
    fn degenerate_group_falls_back_to_ring() {
        let (mut s, _, t) = scheduler();
        let lone = vec![t.gpus_by_server[0][0]];
        assert_eq!(s.choose(&ctx(&lone, 1024)), Scheme::Ring);
    }

    #[test]
    fn switch_failure_steers_policies_and_routes() {
        let (mut s, group, t) = scheduler();
        let idle = vec![0.0; t.graph.link_count()];
        let first = s.choose(&ctx(&group, 1 << 20));
        let Scheme::HierIna { switch } = first else {
            panic!("expected HierIna first, got {first:?}")
        };

        // Warm the route cache across the fabric, then fail the favored
        // switch: every subsequent scheme and route must avoid it.
        let src = t.gpus_by_server[0][0];
        let dst = t.gpus_by_server[1][0];
        assert!(s.choose_path(src, dst, 1 << 20, &idle).is_some());

        s.on_fault(&FaultKind::SwitchFail { switch }, SimTime::ZERO);
        assert!(s.health.any_dead());

        for _ in 0..20 {
            let scheme = s.choose(&ctx(&group, 1 << 20));
            match scheme {
                Scheme::Ina { switch: sw } | Scheme::HierIna { switch: sw } => {
                    assert_ne!(sw, switch, "picked the failed switch: {scheme:?}");
                }
                _ => {}
            }
        }
        let route = s
            .choose_path(src, dst, 1 << 20, &idle)
            .expect("testbed is cross-connected; an alternative route exists");
        for (l, _) in &route {
            assert!(
                !s.health.is_dead(*l),
                "route crosses a dead link adjacent to the failed switch"
            );
        }

        // Recovery clears the dead set and the INA policies come back.
        s.on_fault(&FaultKind::SwitchRecover { switch }, SimTime::ZERO);
        assert!(!s.health.any_dead());
        let back = s.choose(&ctx(&group, 1 << 20));
        assert!(
            matches!(
                back,
                Scheme::Ina { .. } | Scheme::HierIna { .. } | Scheme::HierRing
            ),
            "post-recovery pick should leave plain ring behind, got {back:?}"
        );
    }

    #[test]
    fn link_up_on_a_failed_switch_port_keeps_it_dead() {
        let (mut s, group, t) = scheduler();
        let Scheme::HierIna { switch } = s.choose(&ctx(&group, 1 << 20)) else {
            panic!("expected HierIna first")
        };
        // A port flap that ends inside the switch's outage: the ports'
        // own state is back, but the switch still pins them to 0.
        s.on_fault(&FaultKind::SwitchFail { switch }, SimTime::ZERO);
        let ports: Vec<LinkId> = t.graph.neighbors(switch).iter().map(|&(_, l)| l).collect();
        for &link in &ports {
            s.on_fault(&FaultKind::LinkUp { link }, SimTime::ZERO);
            assert!(s.health.is_dead(link), "port of a failed switch came back");
        }
        let table = s.tables.get(&1).expect("table built by the first choose");
        let sel = table
            .select(1 << 20, &s.health)
            .expect("a policy avoids the switch");
        let links = &table.policies[sel.idx].links;
        assert!(
            links.iter().all(|l| !ports.contains(l)),
            "selected a policy through a port of the failed switch"
        );
        for _ in 0..20 {
            let scheme = s.choose(&ctx(&group, 1 << 20));
            if let Scheme::Ina { switch: sw } | Scheme::HierIna { switch: sw } = scheme {
                assert_ne!(sw, switch, "picked the failed switch: {scheme:?}");
            }
        }
    }

    /// A policy over the given links with neutral cost constants.
    pub(super) fn policy_over(links: Vec<LinkId>) -> Policy {
        Policy {
            scheme: Scheme::Ring,
            links,
            max_link_secs_per_byte: 1e-10,
            base_latency_s: 1e-3,
        }
    }

    #[test]
    fn shared_nvlink_dominates_shared_ethernet_in_sharing_ratio() {
        // `other` crosses one NVLink-class link (600 Gb/s) and one
        // Ethernet link (100 Gb/s). A chooser sharing only the NVLink hop
        // loads 6/7 of `other`'s capacity-weighted route; sharing only the
        // Ethernet hop loads 1/7. The pre-fix code weighted both 0.5.
        let nv = LinkId(0);
        let eth = LinkId(1);
        let caps = vec![600e9, 100e9];
        let other = policy_over(vec![nv, eth]);
        let share_nv = sharing_ratio(&policy_over(vec![nv]), &other, &caps, None);
        let share_eth = sharing_ratio(&policy_over(vec![eth]), &other, &caps, None);
        assert!(
            (share_nv - 6.0 / 7.0).abs() < 1e-12,
            "NVLink share should be 6/7, got {share_nv}"
        );
        assert!(
            (share_eth - 1.0 / 7.0).abs() < 1e-12,
            "Ethernet share should be 1/7, got {share_eth}"
        );
        assert!(share_nv > share_eth * 5.0);

        // With utilization the capacity weighting persists: equal util on
        // both links must not wash out the 6:1 capacity asymmetry.
        let util = vec![0.5, 0.5];
        let share_nv_u = sharing_ratio(&policy_over(vec![nv]), &other, &caps, Some(&util));
        let share_eth_u = sharing_ratio(&policy_over(vec![eth]), &other, &caps, Some(&util));
        assert!((share_nv_u - 6.0 / 7.0).abs() < 1e-12);
        assert!(share_nv_u > share_eth_u * 5.0);
    }

    #[test]
    fn tables_use_real_graph_capacities() {
        let (s, _, t) = scheduler();
        assert_eq!(s.link_caps, t.graph.capacities());
        assert!(
            s.link_caps.iter().any(|&c| c > 200e9) && s.link_caps.iter().any(|&c| c < 200e9),
            "testbed should mix NVLink and Ethernet capacities"
        );
    }

    #[test]
    fn virtual_costs_stay_bounded_over_refresh_free_run() {
        let (mut s, group, _) = scheduler();
        // Long run with *no* on_monitor refresh: selections every 10 ms,
        // estimation window 50 ms. Before the select-time decay, every
        // charge accumulated forever and b diverged linearly.
        let mut max_b = 0.0f64;
        for i in 0..10_000u64 {
            let now = SimTime::from_millis(10 * i);
            let c = CommCtx {
                group_id: 1,
                group: &group,
                bytes: 64 << 20,
                now,
            };
            s.choose(&c);
            let table = s.tables.get(&1).unwrap();
            for &b in &table.b {
                assert!(b.is_finite() && b >= 0.0, "b went bad: {b}");
                max_b = max_b.max(b);
            }
        }
        // Steady state: per-step charge is delta ≈ bytes·secs_per_byte/T_u,
        // decayed by exp(-dt/T_u) each step. The geometric sum converges to
        // delta/(1-exp(-0.2)) — a small constant, nowhere near the
        // thousands an undecayed table reaches over 100 s of selections.
        assert!(
            max_b < 50.0,
            "virtual costs should stay bounded without refresh, got {max_b}"
        );
    }

    #[test]
    fn decay_is_noop_at_same_timestamp() {
        let (mut s, group, _) = scheduler();
        s.choose(&ctx(&group, 64 << 20));
        let before = s.tables.get(&1).unwrap().b.clone();
        // Same now: decay_to must not touch b before select.
        let table = s.tables.get_mut(&1).unwrap();
        table.decay_to(SimTime::ZERO);
        assert_eq!(s.tables.get(&1).unwrap().b, before);
    }

    #[test]
    fn choose_emits_policy_audit_events() {
        let (mut s, group, t) = scheduler();
        let tracer = hs_obs::Tracer::recording();
        s.attach_tracer(&tracer);
        let util = vec![0.0; t.graph.link_count()];
        let scheme = s.choose(&ctx(&group, 1 << 20));
        s.on_monitor(&util, SimTime::from_millis(100));
        let recs = tracer.records();
        let select = recs
            .iter()
            .find(|r| r.name == "policy_select")
            .expect("select audit event");
        assert_eq!(
            select.arg("scheme").and_then(hs_obs::Val::as_str),
            Some(scheme.label())
        );
        let j = select
            .arg("j")
            .and_then(hs_obs::Val::as_f64)
            .expect("J value present");
        assert!(j.is_finite() && j >= 0.0);
        assert!(recs.iter().any(|r| r.name == "policy_charge"));
        assert!(recs.iter().any(|r| r.name == "table_refresh"));
    }

    fn kv_candidate(
        instance: usize,
        dst_gpus: &[NodeId],
        load: usize,
        headroom: u64,
    ) -> KvCandidate<'_> {
        KvCandidate {
            instance,
            load,
            headroom_tokens: headroom,
            capacity_tokens: 10_000,
            dst_gpus,
        }
    }

    fn kv_ctx<'a>(routes: &'a KvRoutes, src_gpus: &'a [NodeId], bytes: u64) -> KvCtx<'a> {
        KvCtx {
            req: 0,
            bytes,
            src_gpus,
            routes,
            now: SimTime::ZERO,
        }
    }

    #[test]
    fn netkv_prefers_nvlink_local_decode() {
        let (mut s, _, t) = scheduler();
        let routes = KvRoutes::new(&t.graph, &t.gpu_switch_pairs());
        assert!(s.network_aware_admission());
        let src = &t.gpus_by_server[0][..2];
        // Equal load and headroom: the NVLink-local candidate's transfer
        // estimate dominates and it wins despite the higher index.
        let c = s
            .choose_decode(
                &kv_ctx(&routes, src, 64 << 20),
                &[
                    kv_candidate(0, &t.gpus_by_server[1][..2], 1, 5_000),
                    kv_candidate(1, &t.gpus_by_server[0][2..], 1, 5_000),
                ],
            )
            .expect("a choice among nonempty candidates");
        assert_eq!(c.instance, 1, "NVLink-local decode should win");
        assert!(c.est_transfer_s > 0.0);
    }

    /// Before any monitor tick the scheduler prices the idle fabric, as
    /// the engine's zeroed utilization does: the estimate is the
    /// idle-capacity one, bit for bit.
    #[test]
    fn choose_decode_before_any_monitor_prices_the_idle_fabric() {
        let (mut s, _, t) = scheduler();
        let routes = KvRoutes::new(&t.graph, &t.gpu_switch_pairs());
        let src = &t.gpus_by_server[0];
        let dst = &t.gpus_by_server[1];
        let bytes = 256 << 20;
        let c = s
            .choose_decode(
                &kv_ctx(&routes, src, bytes),
                &[kv_candidate(0, dst, 1, 5_000)],
            )
            .expect("choice");
        let idle = routes.estimate(src, dst, bytes, None);
        assert_eq!(c.est_transfer_s.to_bits(), idle.to_bits());
    }

    #[test]
    fn netkv_routes_around_congested_uplinks() {
        let (mut s, _, t) = scheduler();
        let routes = KvRoutes::new(&t.graph, &t.gpu_switch_pairs());
        let src = &t.gpus_by_server[0];
        let candidates = [
            kv_candidate(0, &t.gpus_by_server[1], 1, 5_000),
            kv_candidate(1, &t.gpus_by_server[3], 1, 5_000),
        ];
        // Idle fabric: symmetric estimates, lowest index wins the tie.
        let ctx = kv_ctx(&routes, src, 256 << 20);
        let c = s.choose_decode(&ctx, &candidates).expect("choice");
        assert_eq!(c.instance, 0);
        // Saturate server 1's uplinks: the estimate through them inflates
        // and selection shifts to server 3 at equal load.
        let mut util = vec![0.0; t.graph.link_count()];
        for (lid, link) in t.graph.links() {
            if t.gpus_by_server[1].contains(&link.a) || t.gpus_by_server[1].contains(&link.b) {
                util[lid.idx()] = 0.95;
            }
        }
        s.on_monitor(&util, SimTime::ZERO);
        let hot = s.choose_decode(&ctx, &candidates).expect("choice");
        assert_eq!(hot.instance, 1, "selection must route around congestion");
        assert!(hot.est_transfer_s < c.est_transfer_s * 10.0);
    }

    #[test]
    fn netkv_penalizes_kv_pressure() {
        let (mut s, _, t) = scheduler();
        let routes = KvRoutes::new(&t.graph, &t.gpu_switch_pairs());
        let src = &t.gpus_by_server[0];
        // Symmetric network estimates; the nearly-full instance loses.
        let c = s
            .choose_decode(
                &kv_ctx(&routes, src, 64 << 20),
                &[
                    kv_candidate(0, &t.gpus_by_server[1], 1, 100),
                    kv_candidate(1, &t.gpus_by_server[3], 1, 9_000),
                ],
            )
            .expect("choice");
        assert_eq!(c.instance, 1, "KV pressure should repel admissions");
    }

    #[test]
    fn least_loaded_mode_disables_network_awareness() {
        let t = testbed();
        let ap = t.gpu_switch_pairs();
        let params = SchedulerParams {
            kv_select: KvSelection::LeastLoaded,
            ..SchedulerParams::default()
        };
        let routes = KvRoutes::new(&t.graph, &ap);
        let mut s = HeroScheduler::new(&t.graph, ap, params);
        assert!(!s.network_aware_admission());
        let ctx = kv_ctx(&routes, &t.gpus_by_server[0], 64 << 20);
        assert!(
            s.choose_decode(&ctx, &[kv_candidate(0, &t.gpus_by_server[1], 0, 9_000)])
                .is_none(),
            "least-loaded mode must defer to the engine"
        );
    }

    #[test]
    fn sharing_ratio_bounds() {
        let (mut s, group, _) = scheduler();
        s.choose(&ctx(&group, 1024));
        let table = s.tables.get(&1).unwrap();
        for row in &table.f {
            for &v in row {
                assert!((0.0..=1.0).contains(&v), "f out of range: {v}");
            }
        }
        // A policy fully contained in another has ratio 1 toward itself's
        // superset direction; self-entries are zero by construction.
        for i in 0..table.f.len() {
            assert_eq!(table.f[i][i], 0.0);
        }
        // The structural prior is the pairwise reference, which is a
        // ratio too.
        let pols = &table.policies;
        for (i, chosen) in pols.iter().enumerate() {
            for (j, other) in pols.iter().enumerate().filter(|&(j, _)| j != i) {
                let w = sharing_ratio(chosen, other, &s.link_caps, None);
                assert!((0.0..=1.0).contains(&w), "reference out of range: {w}");
                assert_eq!(table.f[i][j].to_bits(), w.to_bits(), "f[{i}][{j}]");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{ctx, policy_over, scheduler};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Eq. 18 from the precomputed overlaps is the pairwise
        /// `sharing_ratio` bit for bit: the structural prior and every
        /// smoothed refresh after it, for random sorted link sets (some
        /// past the end of the capacity and utilization vectors), random
        /// capacities and utilizations.
        #[test]
        fn overlap_refresh_is_the_pairwise_reference(
            sets in proptest::collection::vec(
                proptest::collection::hash_set(0u32..14, 0..8),
                1..7,
            ),
            caps in proptest::collection::vec(0.0f64..1e12, 12),
            utils in proptest::collection::vec(
                proptest::collection::vec(-0.5f64..1.5, 10..14),
                1..5,
            ),
            gamma in 0.0f64..1.0,
        ) {
            let policies: Vec<Policy> = sets
                .iter()
                .map(|set| {
                    let mut links: Vec<LinkId> = set.iter().map(|&l| LinkId(l)).collect();
                    links.sort_unstable();
                    policy_over(links)
                })
                .collect();
            let n = policies.len();
            let pairwise = |util: Option<&[f64]>| -> Vec<Vec<f64>> {
                let ratio = |i: usize, j: usize| {
                    if i == j {
                        0.0
                    } else {
                        sharing_ratio(&policies[i], &policies[j], &caps, util)
                    }
                };
                (0..n).map(|i| (0..n).map(|j| ratio(i, j)).collect()).collect()
            };
            let mut expect = pairwise(None);
            let mut table = PolicyTable::new(policies.clone(), &caps);
            let bits = |f: &[Vec<f64>]| -> Vec<Vec<u64>> {
                f.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect()
            };
            prop_assert_eq!(bits(&table.f), bits(&expect), "structural prior");
            for util in &utils {
                table.refresh(&caps, util, gamma);
                let w = pairwise(Some(util));
                for i in 0..n {
                    for j in (0..n).filter(|&j| j != i) {
                        expect[i][j] = (1.0 - gamma) * expect[i][j] + gamma * w[i][j];
                    }
                }
                prop_assert_eq!(bits(&table.f), bits(&expect), "after a refresh");
            }
        }

        /// `select()` never returns a policy crossing a dead link, for any
        /// dead-link subset and any transfer size.
        #[test]
        fn select_never_crosses_dead_links(
            mask in 0u64..(1 << 16),
            bytes in 0u64..(1 << 40),
        ) {
            let (mut s, group, t) = scheduler();
            s.choose(&ctx(&group, 1024)); // force table build
            let table = s.tables.get(&1).unwrap();
            let mut links: Vec<LinkId> = table
                .policies
                .iter()
                .flat_map(|p| p.links.iter().copied())
                .collect();
            links.sort_unstable();
            links.dedup();
            let mut health = FabricHealth::new(&t.graph);
            for (i, &link) in links.iter().enumerate() {
                if mask & (1u64 << (i % 64)) != 0 {
                    health.apply(&t.graph, FaultKind::LinkDown { link });
                }
            }
            if let Some(sel) = table.select(bytes, &health) {
                let p = &table.policies[sel.idx];
                prop_assert!(
                    p.links.iter().all(|&l| !health.is_dead(l)),
                    "selected policy crosses a dead link"
                );
                prop_assert!(sel.j.is_finite());
            }
        }

        /// `charge()` keeps every virtual cost finite and non-negative
        /// under arbitrary byte volumes (including huge ones).
        #[test]
        fn charge_keeps_costs_finite(
            byte_sizes in proptest::collection::vec(0u64..u64::MAX, 1..64),
        ) {
            let (mut s, group, t) = scheduler();
            s.choose(&ctx(&group, 1024));
            let table = s.tables.get_mut(&1).unwrap();
            let health = FabricHealth::new(&t.graph);
            for &bytes in &byte_sizes {
                if let Some(sel) = table.select(bytes, &health) {
                    table.charge(sel.idx, bytes);
                }
                for &b in &table.b {
                    prop_assert!(
                        b.is_finite() && b >= 0.0,
                        "b must stay finite and non-negative, got {}",
                        b
                    );
                }
            }
        }
    }
}
