//! Weighted max-min fair rate allocation (progressive filling).
//!
//! Given a set of flows, each crossing a set of links with fixed
//! capacities, the unique max-min fair allocation is computed by the
//! classic water-filling algorithm: repeatedly find the most-contended
//! link, give every unfrozen flow through it an equal (weight-proportional)
//! share of the link's remaining capacity, freeze those flows, and deduct
//! their rates from every link they cross.
//!
//! The allocation is *unique*, so the result is independent of iteration
//! order; ties in bottleneck selection are broken by link index purely for
//! determinism of intermediate state.
//!
//! [`SolverWorkspace::solve`] is the one solver: it borrows persistent
//! buffers (zero allocation at steady state) and visits only the links
//! the given flows actually cross, which makes it usable both for full
//! solves and for *restricted subsets* (a connected component of the
//! flow/link incidence graph). It is checked bit for bit against a
//! from-scratch reference solver that lives with the tests
//! (`tests/support/reference.rs`): same per-link accumulation order, same
//! bottleneck tie-break, same clamps.
//!
//! After flows leave, [`SolverWorkspace::resume`] re-solves the rest by
//! restarting the same water-filling loop at the earliest round a
//! departed flow froze in, from the link state recorded at that round's
//! start; a full solve is that loop started at round 0. A flow alone on
//! its links needs no loop: [`solo_rate`] is its single round in closed
//! form.

/// Rate of a flow with weight `weight` over the distinct `links` when no
/// other flow crosses any of them: [`SolverWorkspace::solve`]'s single
/// round in closed form, with its arithmetic. Each link's weight sum is
/// `0.0 + weight == weight`, the bottleneck is the first strict minimum
/// of `rem_cap.max(0.0) / weight` from +∞, and the rate is `weight ×
/// share`, so the result equals a one-flow solve bit for bit (finite
/// capacities; an empty path gets +∞, as it does there).
pub fn solo_rate(capacities: &[f64], links: impl IntoIterator<Item = usize>, weight: f64) -> f64 {
    let mut share = f64::INFINITY;
    for l in links {
        let s = capacities[l].max(0.0) / weight;
        if s < share {
            share = s;
        }
    }
    weight * share
}

/// One flow's slice of the flat slot arena passed to
/// [`SolverWorkspace::solve`], plus its fair-share weight.
///
/// The arena layout decouples the solver from how the caller stores paths:
/// the caller appends each flow's (deduplicated) link indices to one flat
/// `Vec<usize>` and records the span here, so rebuilding the demand set for
/// a solve is a buffer refill, never a per-flow allocation.
#[derive(Clone, Copy, Debug)]
pub struct FlowSpan {
    /// Offset of the first link index in the flat arena.
    pub start: u32,
    /// Number of link indices (0 for an empty, unconstrained path).
    pub len: u32,
    /// Relative weight; must be > 0.
    pub weight: f64,
}

/// Persistent working state for the water-filling solver.
///
/// Per-link arrays are sized to the largest capacity vector seen and
/// re-initialized *lazily* (a generation stamp per link), so a solve touches
/// only the links its flows cross — `O(Σ path_len + rounds × active_links)`
/// regardless of topology size — and performs no allocation once warm.
///
/// The workspace also keeps what the last solve did: the round each flow
/// froze in and every link's state at the start of every round. That is
/// what lets [`SolverWorkspace::resume`] redo only the rounds a departure
/// can change (DESIGN.md §9, "Resumable re-solves").
#[derive(Default)]
pub struct SolverWorkspace {
    /// Remaining capacity per link (valid where `stamp == generation`).
    rem_cap: Vec<f64>,
    /// Total unfrozen weight per link (valid where `stamp == generation`).
    link_weight: Vec<f64>,
    /// Flow indices (into the span list) crossing each link.
    link_flows: Vec<Vec<u32>>,
    /// Lazy-init generation stamp per link.
    stamp: Vec<u64>,
    /// Index of each link in `active` (valid where `stamp == generation`).
    pos: Vec<u32>,
    generation: u64,
    /// Links with at least one flow this solve, ascending (the bottleneck
    /// scan order, and therefore the tie-break).
    active: Vec<usize>,
    frozen: Vec<bool>,
    rates: Vec<f64>,
    /// Round each flow froze in (`u32::MAX` for empty paths).
    round: Vec<u32>,
    /// Flows that left since the last full solve.
    gone: Vec<bool>,
    /// Flows in freeze order; round `r` froze
    /// `order[round_start[r]..round_start[r + 1]]`.
    order: Vec<u32>,
    round_start: Vec<u32>,
    /// `rem_cap` and `link_weight` of every active link at the start of
    /// each round: round `r`, link `active[j]` is entry
    /// `r * active.len() + j`.
    snap_rem: Vec<f64>,
    snap_weight: Vec<f64>,
    /// Earliest round a departure since the last solve froze in
    /// (`u32::MAX`: none).
    resume_from: u32,
    /// Flows the last solve (re)rated, ascending.
    rerated: Vec<u32>,
}

impl SolverWorkspace {
    /// Empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SolverWorkspace::default()
    }

    /// Weighted max-min fair rates for the flows described by `spans` over
    /// `flat` (see [`FlowSpan`]), with link `capacities` in bits/s.
    ///
    /// Returns one rate per span, in span order; empty spans get
    /// `f64::INFINITY`. The result is bit-identical to the reference solver
    /// over the same flows — callers may pass *any subset* of the network's
    /// flows, and as long as that subset is closed under link sharing (a
    /// union of connected components of the flow/link graph), the rates
    /// equal those of a global solve restricted to the subset.
    pub fn solve(&mut self, capacities: &[f64], flat: &[usize], spans: &[FlowSpan]) -> &[f64] {
        let n_links = capacities.len();
        let n_flows = spans.len();
        if self.stamp.len() < n_links {
            self.rem_cap.resize(n_links, 0.0);
            self.link_weight.resize(n_links, 0.0);
            self.link_flows.resize_with(n_links, Vec::new);
            self.stamp.resize(n_links, 0);
            self.pos.resize(n_links, 0);
        }
        self.frozen.clear();
        self.frozen.resize(n_flows, false);
        self.rates.clear();
        self.rates.resize(n_flows, 0.0);
        self.round.clear();
        self.round.resize(n_flows, u32::MAX);
        self.gone.clear();
        self.gone.resize(n_flows, false);
        self.active.clear();
        self.generation += 1;
        let generation = self.generation;

        let mut n_unfrozen = 0usize;
        for (fi, s) in spans.iter().enumerate() {
            debug_assert!(s.weight > 0.0, "flow weight must be positive");
            let links = &flat[s.start as usize..(s.start + s.len) as usize];
            if links.is_empty() {
                self.rates[fi] = f64::INFINITY;
                self.frozen[fi] = true;
                continue;
            }
            n_unfrozen += 1;
            for &l in links {
                if self.stamp[l] != generation {
                    self.stamp[l] = generation;
                    self.rem_cap[l] = capacities[l];
                    self.link_weight[l] = 0.0;
                    self.link_flows[l].clear();
                    self.active.push(l);
                }
                self.link_weight[l] += s.weight;
                self.link_flows[l].push(fi as u32);
            }
        }
        // Bottleneck ties break by ascending link index.
        self.active.sort_unstable();
        for (j, &l) in self.active.iter().enumerate() {
            self.pos[l] = j as u32;
        }
        self.order.clear();
        self.round_start.clear();
        self.round_start.push(0);
        self.snap_rem.clear();
        self.snap_weight.clear();
        self.resume_from = u32::MAX;
        self.fill(0, n_unfrozen, flat, spans);
        self.rerated.clear();
        self.rerated.extend(0..n_flows as u32);
        &self.rates[..n_flows]
    }

    /// Record that flow `fi` of the last solve has left.
    ///
    /// The flow froze in round `r_f`, so no earlier round's bottleneck lies
    /// on its path, and dropping its weight only raises the shares of its
    /// own links. Rounds before `r_f` therefore freeze the same flows at
    /// the same rates, and their snapshots need only its weight taken off
    /// its links. Weights must be integers, so that subtraction is exact.
    pub fn depart(&mut self, flat: &[usize], spans: &[FlowSpan], fi: usize) {
        debug_assert!(!self.gone[fi], "flow {fi} already left");
        self.gone[fi] = true;
        let r = self.round[fi];
        if r == u32::MAX {
            return;
        }
        let s = &spans[fi];
        debug_assert_eq!(
            s.weight.fract(),
            0.0,
            "resumable solves need integer weights"
        );
        let n_active = self.active.len();
        for &l in &flat[s.start as usize..(s.start + s.len) as usize] {
            let j = self.pos[l] as usize;
            for rr in 0..=r as usize {
                self.snap_weight[rr * n_active + j] -= s.weight;
            }
        }
        self.resume_from = self.resume_from.min(r);
    }

    /// Whether a flow has left since the last solve.
    pub fn has_departures(&self) -> bool {
        self.resume_from != u32::MAX
    }

    /// Re-solve the last solve's flows, less those that left (see
    /// [`SolverWorkspace::depart`]), by redoing only the rounds from the
    /// earliest one a departed flow froze in. `flat` and `spans` must be
    /// those of the last full solve; capacities come from its snapshots.
    /// The new rates equal a full solve of the remaining flows bit for
    /// bit; [`SolverWorkspace::rerated`] lists the flows whose rates were
    /// recomputed.
    pub fn resume(&mut self, flat: &[usize], spans: &[FlowSpan]) {
        debug_assert!(self.has_departures(), "resume needs a departure");
        let r0 = self.resume_from as usize;
        self.resume_from = u32::MAX;
        let n_active = self.active.len();
        for (j, &l) in self.active.iter().enumerate() {
            self.rem_cap[l] = self.snap_rem[r0 * n_active + j];
            self.link_weight[l] = self.snap_weight[r0 * n_active + j];
        }
        self.snap_rem.truncate(r0 * n_active);
        self.snap_weight.truncate(r0 * n_active);
        let from = self.round_start[r0] as usize;
        self.round_start.truncate(r0 + 1);
        self.rerated.clear();
        let mut n_unfrozen = 0;
        for &fi in &self.order[from..] {
            let fi = fi as usize;
            self.frozen[fi] = self.gone[fi];
            self.rates[fi] = 0.0;
            if !self.gone[fi] {
                n_unfrozen += 1;
                self.rerated.push(fi as u32);
            }
        }
        self.order.truncate(from);
        self.rerated.sort_unstable();
        self.fill(r0, n_unfrozen, flat, spans);
    }

    /// Progressive filling from round `r`, with `n_unfrozen` flows left:
    /// the one water-filling loop, shared by full and resumed solves.
    fn fill(&mut self, mut r: usize, mut n_unfrozen: usize, flat: &[usize], spans: &[FlowSpan]) {
        while n_unfrozen > 0 {
            let mut best_link = usize::MAX;
            let mut best_share = f64::INFINITY;
            for &l in &self.active {
                if self.link_weight[l] > 0.0 {
                    let share = (self.rem_cap[l].max(0.0)) / self.link_weight[l];
                    if share < best_share {
                        best_share = share;
                        best_link = l;
                    }
                }
            }
            for &l in &self.active {
                self.snap_rem.push(self.rem_cap[l]);
                self.snap_weight.push(self.link_weight[l]);
            }
            if best_link == usize::MAX {
                // Shouldn't happen: unfrozen flows always have links with
                // positive weight. Guard against float pathology anyway:
                // the rest keep rate 0, as one last round.
                for fi in 0..spans.len() {
                    if !self.frozen[fi] {
                        self.frozen[fi] = true;
                        self.round[fi] = r as u32;
                        self.order.push(fi as u32);
                    }
                }
                self.round_start.push(self.order.len() as u32);
                break;
            }
            // Freeze every unfrozen flow crossing the bottleneck. The flow
            // list is iterated in place (no `mem::take`: the buffer must
            // survive for reuse); frozen and departed entries are skipped.
            for i in 0..self.link_flows[best_link].len() {
                let fi = self.link_flows[best_link][i] as usize;
                if self.frozen[fi] {
                    continue;
                }
                let s = &spans[fi];
                let rate = s.weight * best_share;
                self.rates[fi] = rate;
                self.frozen[fi] = true;
                self.round[fi] = r as u32;
                self.order.push(fi as u32);
                n_unfrozen -= 1;
                for &l in &flat[s.start as usize..(s.start + s.len) as usize] {
                    self.rem_cap[l] -= rate;
                    self.link_weight[l] -= s.weight;
                    if self.link_weight[l] < 1e-12 {
                        self.link_weight[l] = 0.0;
                    }
                }
            }
            self.link_weight[best_link] = 0.0;
            self.round_start.push(self.order.len() as u32);
            r += 1;
        }
    }

    /// Rates of the last solve, one per span (departed flows' are stale).
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// Flows whose rates the last solve or resume computed, ascending.
    pub fn rerated(&self) -> &[u32] {
        &self.rerated
    }

    /// Links the last full solve's flows cross, ascending.
    pub fn links(&self) -> &[usize] {
        &self.active
    }

    /// Whether link `l` is crossed by a flow of the last full solve.
    pub fn covers(&self, l: usize) -> bool {
        self.stamp.get(l) == Some(&self.generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{compute_rates, FlowDemand};

    /// Pack paths into the flat-arena shape the solver consumes.
    pub(super) fn pack(paths: &[Vec<usize>], weights: &[f64]) -> (Vec<usize>, Vec<FlowSpan>) {
        let mut flat = Vec::new();
        let mut spans = Vec::new();
        for (p, &w) in paths.iter().zip(weights) {
            spans.push(FlowSpan {
                start: flat.len() as u32,
                len: p.len() as u32,
                weight: w,
            });
            flat.extend_from_slice(p);
        }
        (flat, spans)
    }

    /// Exact weighted max-min rates through a fresh workspace.
    pub(super) fn solve(caps: &[f64], paths: &[Vec<usize>], weights: &[f64]) -> Vec<f64> {
        let (flat, spans) = pack(paths, weights);
        SolverWorkspace::new().solve(caps, &flat, &spans).to_vec()
    }

    fn solve_unit(caps: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
        solve(caps, paths, &vec![1.0; paths.len()])
    }

    #[test]
    fn single_flow_gets_full_link() {
        assert_eq!(solve_unit(&[100.0], &[vec![0]]), vec![100.0]);
    }

    #[test]
    fn equal_flows_split_evenly() {
        let paths = vec![vec![0], vec![0], vec![0], vec![0]];
        for &x in &solve_unit(&[100.0], &paths) {
            assert!((x - 25.0).abs() < 1e-9);
        }
    }

    #[test]
    fn classic_parking_lot() {
        // Links: 0 and 1, both capacity 1. Flow A crosses both, B crosses
        // 0 only, C crosses 1 only. Max-min fair: A=0.5, B=0.5, C=0.5.
        let paths = vec![vec![0, 1], vec![0], vec![1]];
        let r = solve_unit(&[1.0, 1.0], &paths);
        assert!((r[0] - 0.5).abs() < 1e-9);
        assert!((r[1] - 0.5).abs() < 1e-9);
        assert!((r[2] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unequal_capacities_release_bandwidth() {
        // Link 0 cap 1 shared by A,B; link 1 cap 10 carries B,C. B is
        // bottlenecked at 0.5 on link 0, so C gets 9.5 on link 1.
        let paths = vec![vec![0], vec![0, 1], vec![1]];
        let r = solve_unit(&[1.0, 10.0], &paths);
        assert!((r[0] - 0.5).abs() < 1e-9);
        assert!((r[1] - 0.5).abs() < 1e-9);
        assert!((r[2] - 9.5).abs() < 1e-9);
    }

    #[test]
    fn weights_bias_shares() {
        let r = solve(&[100.0], &[vec![0], vec![0]], &[3.0, 1.0]);
        assert!((r[0] - 75.0).abs() < 1e-9);
        assert!((r[1] - 25.0).abs() < 1e-9);
    }

    #[test]
    fn empty_path_is_unconstrained() {
        let r = solve_unit(&[100.0], &[vec![], vec![0]]);
        assert!(r[0].is_infinite());
        assert_eq!(r[1], 100.0);
    }

    #[test]
    fn no_flows() {
        assert!(solve_unit(&[100.0], &[]).is_empty());
    }

    #[test]
    fn workspace_matches_reference_bitwise() {
        let caps = vec![1.0, 10.0, 3.0];
        let paths = vec![vec![0], vec![0, 1], vec![1], vec![], vec![1, 2]];
        let weights = vec![1.0, 2.0, 1.0, 1.0, 0.5];
        let flows: Vec<FlowDemand<'_>> = paths
            .iter()
            .zip(&weights)
            .map(|(p, &w)| FlowDemand {
                links: p,
                weight: w,
            })
            .collect();
        let expect = compute_rates(&caps, &flows);
        let (flat, spans) = pack(&paths, &weights);
        let mut ws = SolverWorkspace::new();
        // Twice through the same workspace: reuse must not leak state.
        for _ in 0..2 {
            let got = ws.solve(&caps, &flat, &spans);
            let a: Vec<u64> = expect.iter().map(|r| r.to_bits()).collect();
            let b: Vec<u64> = got.iter().map(|r| r.to_bits()).collect();
            assert_eq!(a, b, "workspace diverged from reference");
        }
    }

    #[test]
    fn workspace_subset_solve_matches_component_rates() {
        // Two disjoint components: {0,1} on links {0,1}, {2} on link {2}.
        // Solving only the second component must reproduce its global rate.
        let caps = vec![1.0, 1.0, 4.0];
        let paths = [vec![0, 1], vec![0], vec![2]];
        let global = solve_unit(&caps, &paths);
        let got = solve_unit(&caps, &paths[2..]);
        assert_eq!(got[0].to_bits(), global[2].to_bits());
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::{pack, solve};
    use super::*;
    use crate::reference::{compute_rates, FlowDemand};
    use proptest::prelude::*;

    fn arb_instance() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
        (2usize..8).prop_flat_map(|n_links| {
            let caps = proptest::collection::vec(1.0f64..1000.0, n_links..=n_links);
            let paths = proptest::collection::vec(
                proptest::collection::hash_set(0..n_links, 1..=n_links.min(4)).prop_map(|s| {
                    let mut v: Vec<usize> = s.into_iter().collect();
                    v.sort_unstable();
                    v
                }),
                1..12,
            );
            (caps, paths)
        })
    }

    proptest! {
        /// No link is oversubscribed and every flow is bottlenecked
        /// somewhere (the defining property of max-min fairness: a flow's
        /// rate can't be raised without lowering an equal-or-smaller one).
        #[test]
        fn feasible_and_maxmin((caps, paths) in arb_instance()) {
            let rates = solve(&caps, &paths, &vec![1.0; paths.len()]);
            // Feasibility.
            for (l, &cap) in caps.iter().enumerate() {
                let used: f64 = paths
                    .iter()
                    .zip(&rates)
                    .filter(|(p, _)| p.contains(&l))
                    .map(|(_, &r)| r)
                    .sum();
                prop_assert!(used <= cap * (1.0 + 1e-9), "link {l} oversubscribed: {used} > {cap}");
            }
            // Bottleneck property: each flow crosses a saturated link on
            // which it has a maximal rate among that link's flows.
            for (fi, p) in paths.iter().enumerate() {
                let mut bottlenecked = false;
                for &l in p {
                    let used: f64 = paths
                        .iter()
                        .zip(&rates)
                        .filter(|(q, _)| q.contains(&l))
                        .map(|(_, &r)| r)
                        .sum();
                    let max_on_link = paths
                        .iter()
                        .zip(&rates)
                        .filter(|(q, _)| q.contains(&l))
                        .map(|(_, &r)| r)
                        .fold(0.0f64, f64::max);
                    if used >= caps[l] * (1.0 - 1e-6) && rates[fi] >= max_on_link - 1e-6 {
                        bottlenecked = true;
                        break;
                    }
                }
                prop_assert!(bottlenecked, "flow {fi} has no bottleneck link");
            }
        }

        /// The workspace kernel reproduces the reference solver bit for
        /// bit on arbitrary instances (the property the incremental
        /// engine's component-scoped solves lean on).
        #[test]
        fn workspace_bitwise_equals_reference((caps, paths) in arb_instance()) {
            let flows: Vec<FlowDemand<'_>> = paths
                .iter()
                .map(|p| FlowDemand { links: p, weight: 1.0 })
                .collect();
            let expect = compute_rates(&caps, &flows);
            let (flat, spans) = pack(&paths, &vec![1.0; paths.len()]);
            let mut ws = SolverWorkspace::new();
            let got = ws.solve(&caps, &flat, &spans);
            for (fi, (a, b)) in expect.iter().zip(got).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "flow {} diverged", fi);
            }
        }

        /// Resuming after departures, in two batches, gives the remaining
        /// flows the rates of a fresh solve over them, bit for bit
        /// (integer weights, as `SimNet` uses).
        #[test]
        fn resume_equals_fresh_solve(
            (caps, paths) in arb_instance(),
            first in 0u32..4096,
            second in 0u32..4096,
        ) {
            let weights: Vec<f64> = (0..paths.len()).map(|i| (1 + i % 4) as f64).collect();
            let (flat, spans) = pack(&paths, &weights);
            let mut ws = SolverWorkspace::new();
            ws.solve(&caps, &flat, &spans);
            let mut left = vec![false; paths.len()];
            for mask in [first, second] {
                for (fi, gone) in left.iter_mut().enumerate() {
                    if !*gone && mask & (1 << fi) != 0 {
                        *gone = true;
                        ws.depart(&flat, &spans, fi);
                    }
                }
                if !ws.has_departures() {
                    continue;
                }
                ws.resume(&flat, &spans);
                let keep: Vec<usize> = (0..paths.len()).filter(|&fi| !left[fi]).collect();
                let kept_paths: Vec<Vec<usize>> = keep.iter().map(|&fi| paths[fi].clone()).collect();
                let kept_weights: Vec<f64> = keep.iter().map(|&fi| weights[fi]).collect();
                let fresh = solve(&caps, &kept_paths, &kept_weights);
                for (k, &fi) in keep.iter().enumerate() {
                    prop_assert_eq!(ws.rates()[fi].to_bits(), fresh[k].to_bits(), "flow {} diverged", fi);
                }
                prop_assert!(ws.rerated().iter().all(|&fi| !left[fi as usize]));
            }
        }

        /// The closed form for a flow alone on its links equals a one-flow
        /// solve bit for bit: weights 1–4, healthy and browned-out links,
        /// dead ones (capacity 0, which a zero-byte flow may cross) and
        /// negative entries, which the solver's clamp reads as 0.
        #[test]
        fn solo_rate_equals_one_flow_solve(
            (caps, paths) in arb_instance(),
            kind in proptest::collection::vec(0u8..8, 8),
            scale in 0.01f64..1.0,
            w in 1u32..5,
        ) {
            let caps: Vec<f64> = caps
                .iter()
                .zip(&kind)
                .map(|(&c, &k)| match k {
                    0 => 0.0,
                    1 => -c,
                    2 | 3 => c * scale,
                    _ => c,
                })
                .collect();
            let weight = f64::from(w);
            let path = &paths[0];
            let want = solve(&caps, std::slice::from_ref(path), &[weight])[0];
            let got = solo_rate(&caps, path.iter().copied(), weight);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "path {:?} over {:?}", path, caps);
        }

        /// The allocation is invariant under flow permutation (uniqueness).
        #[test]
        fn order_independent((caps, paths) in arb_instance()) {
            let base = solve(&caps, &paths, &vec![1.0; paths.len()]);
            let mut rev = paths.clone();
            rev.reverse();
            let mut rates_rev = solve(&caps, &rev, &vec![1.0; rev.len()]);
            rates_rev.reverse();
            for (a, b) in base.iter().zip(&rates_rev) {
                prop_assert!((a - b).abs() < 1e-6, "order-dependent rates: {a} vs {b}");
            }
        }
    }
}
