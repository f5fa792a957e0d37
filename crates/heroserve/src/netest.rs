//! Algorithm 2 — network latency estimation.
//!
//! Steps, exactly as the paper lays them out:
//!
//! 1. **GPU grouping** — partition the candidate GPUs into groups of
//!    `P_tens` using a *constrained k-means* (k-medoids over the offline
//!    latency matrix `D(i,j)`, with exact group-size capacity).
//! 2. **Switch selection** — for each group, the INA-capable switch with
//!    the smallest worst-member delay.
//! 3. **Communication mode selection** — per group, the cheaper of INA
//!    (Eq. 8) and ring (Eq. 11); HeroServe's scheme space also includes
//!    the heterogeneous (NVLink-first) variants.
//! 4. **Perturbation** — random member swaps between groups, kept when
//!    they reduce total latency ("typically converges within five
//!    iterations").

use crate::spec::GroupScheme;
use hs_collective::latency::path_transfer_secs;
use hs_collective::Scheme;
use hs_topology::{AllPairs, Graph, NodeId};
use rand::rngs::SmallRng;
use rand::Rng;

/// Which communication schemes a planner may assign (per system).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchemeSpace {
    /// Flat ring only — the DistServe baseline.
    RingOnly,
    /// Flat INA at the best switch, always — DS-SwitchML / DS-ATP.
    InaOnly,
    /// HeroServe's hybrid: hierarchical INA vs hierarchical ring vs the
    /// flat variants, whichever is fastest per group (Eq. 7's α/β choice
    /// over the heterogeneous options).
    Hybrid,
}

/// Inputs to one network estimation.
pub struct NetestInput<'a> {
    /// The fabric.
    pub graph: &'a Graph,
    /// Offline all-pairs structures (`D(i,j)`, `P(k,a)`).
    pub ap: &'a AllPairs,
    /// Residual bandwidth `B(e)` per link.
    pub avail: &'a [f64],
    /// Candidate GPUs (already memory-filtered by Algorithm 1).
    pub gpus: &'a [NodeId],
    /// Total groups to form (`replicas × P_pipe`).
    pub n_groups: usize,
    /// GPUs per group (`P_tens`).
    pub group_size: usize,
    /// Pipeline depth (consecutive groups of one replica).
    pub p_pipe: usize,
    /// Per-stage tensor-parallel sync volume per iteration, bytes.
    pub sync_bytes: u64,
    /// Stage-boundary activation volume, bytes (Eq. 6's `K·h`).
    pub pipe_bytes: u64,
    /// Allowed schemes.
    pub scheme_space: SchemeSpace,
    /// INA-capable switches.
    pub ina_switches: &'a [NodeId],
    /// Perturbation budget (passes over all groups).
    pub max_perturb_iters: usize,
}

/// The estimate (Algorithm 2's outputs: `CM`, `K_g`, `T_n`).
#[derive(Clone, Debug)]
pub struct NetEstimate {
    /// Groups, replica-major (`groups[r*p_pipe + s]` = replica r stage s).
    pub groups: Vec<Vec<NodeId>>,
    /// Scheme + latency per group, same order.
    pub schemes: Vec<GroupScheme>,
    /// Inter-stage pipeline latency per replica (max across replicas).
    pub t_pp: f64,
    /// Total per-iteration network latency `T_n` (worst replica).
    pub t_n: f64,
    /// Perturbation passes actually used.
    pub perturb_iters: usize,
    /// Group-latency evaluations performed (the deterministic work
    /// counter behind the planner's search budget).
    pub lat_evals: usize,
}

/// Constrained k-means (k-medoids) over the latency matrix: `n_groups`
/// groups of exactly `group_size`, minimizing within-group pairwise
/// latency. Deterministic given the input order.
pub fn constrained_kmeans(
    ap: &AllPairs,
    nodes: &[NodeId],
    n_groups: usize,
    group_size: usize,
) -> Vec<Vec<NodeId>> {
    assert!(n_groups * group_size <= nodes.len(), "not enough GPUs");
    assert!(n_groups > 0 && group_size > 0);
    // Initial medoids: farthest-point traversal (deterministic).
    let mut medoids: Vec<NodeId> = vec![nodes[0]];
    while medoids.len() < n_groups {
        let far = nodes
            .iter()
            .filter(|n| !medoids.contains(n))
            .max_by(|&&a, &&b| {
                let da = medoids
                    .iter()
                    .map(|&m| ap.dist(a, m))
                    .fold(f64::INFINITY, f64::min);
                let db = medoids
                    .iter()
                    .map(|&m| ap.dist(b, m))
                    .fold(f64::INFINITY, f64::min);
                da.partial_cmp(&db)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| b.cmp(&a))
            })
            .copied()
            .expect("nodes remain");
        medoids.push(far);
    }

    let mut groups: Vec<Vec<NodeId>> = Vec::new();
    for _round in 0..4 {
        // Capacity-constrained assignment: all (distance, node, medoid)
        // triples ascending, greedy fill.
        let mut pairs: Vec<(f64, NodeId, usize)> = Vec::with_capacity(nodes.len() * n_groups);
        for &n in nodes {
            for (gi, &m) in medoids.iter().enumerate() {
                pairs.push((ap.dist(n, m), n, gi));
            }
        }
        pairs.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
                .then_with(|| a.2.cmp(&b.2))
        });
        let mut new_groups: Vec<Vec<NodeId>> = vec![Vec::new(); n_groups];
        let mut assigned: Vec<NodeId> = Vec::new();
        for (_, n, gi) in pairs {
            if assigned.len() == n_groups * group_size {
                break;
            }
            if new_groups[gi].len() < group_size && !assigned.contains(&n) {
                new_groups[gi].push(n);
                assigned.push(n);
            }
        }
        // Medoid update: member with least total latency to its group.
        let mut changed = false;
        for (gi, g) in new_groups.iter().enumerate() {
            let best = g
                .iter()
                .min_by(|&&a, &&b| {
                    let da: f64 = g.iter().map(|&x| ap.dist(a, x)).sum();
                    let db: f64 = g.iter().map(|&x| ap.dist(b, x)).sum();
                    da.partial_cmp(&db)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| a.cmp(&b))
                })
                .copied()
                .expect("nonempty group");
            if medoids[gi] != best {
                medoids[gi] = best;
                changed = true;
            }
        }
        groups = new_groups;
        if !changed {
            break;
        }
    }
    groups
}

/// Step 2: the INA switch with the smallest worst-member transfer time
/// for this group (`Find V_s with the smallest delay to the group`).
pub fn select_switch(
    graph: &Graph,
    ap: &AllPairs,
    avail: &[f64],
    group: &[NodeId],
    ina_switches: &[NodeId],
    bytes: u64,
) -> Option<NodeId> {
    ina_switches
        .iter()
        .min_by(|&&a, &&b| {
            let da = group
                .iter()
                .map(|&k| path_transfer_secs(graph, ap.path(k, a), bytes, Some(avail)))
                .fold(0.0f64, f64::max);
            let db = group
                .iter()
                .map(|&k| path_transfer_secs(graph, ap.path(k, b), bytes, Some(avail)))
                .fold(0.0f64, f64::max);
            da.partial_cmp(&db)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(&b))
        })
        .copied()
}

/// Step 3 (`getlatency`): the cheapest allowed scheme for `group`.
pub fn get_latency(
    graph: &Graph,
    ap: &AllPairs,
    avail: &[f64],
    group: &[NodeId],
    ina_switches: &[NodeId],
    bytes: u64,
    space: SchemeSpace,
) -> (Scheme, f64) {
    let switch = select_switch(graph, ap, avail, group, ina_switches, bytes);
    // Candidates in this order: `min_by` keeps the first of tied latencies.
    let candidates = match (space, switch) {
        (SchemeSpace::RingOnly, _) | (SchemeSpace::InaOnly, None) => vec![Scheme::Ring],
        // SwitchML/ATP replace the *Ethernet* collective; a group
        // confined to one server still all-reduces over NVLink (NCCL),
        // exactly as their DistServe integrations would.
        (SchemeSpace::InaOnly, Some(sw)) => {
            if group.windows(2).all(|w| graph.same_server(w[0], w[1])) {
                vec![Scheme::Ring]
            } else {
                vec![Scheme::Ina { switch: sw }]
            }
        }
        (SchemeSpace::Hybrid, None) => vec![Scheme::HierRing, Scheme::Ring],
        (SchemeSpace::Hybrid, Some(sw)) => vec![
            Scheme::HierRing,
            Scheme::Ring,
            Scheme::HierIna { switch: sw },
            Scheme::Ina { switch: sw },
        ],
    };
    candidates
        .into_iter()
        .map(|s| (s, s.latency(graph, group, ap, bytes, Some(avail))))
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .expect("at least one candidate scheme")
}

/// Inter-stage pipeline latency for one replica's consecutive groups
/// (Eq. 6: `min_a max_{k∈K(i+1)} T_{k,a}` per boundary).
fn pipeline_latency(
    graph: &Graph,
    ap: &AllPairs,
    avail: &[f64],
    stages: &[Vec<NodeId>],
    bytes: u64,
) -> f64 {
    stages
        .windows(2)
        .map(|w| {
            w[0].iter()
                .map(|&a| {
                    w[1].iter()
                        .map(|&k| path_transfer_secs(graph, ap.path(a, k), bytes, Some(avail)))
                        .fold(0.0f64, f64::max)
                })
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// Run Algorithm 2 end to end.
pub fn estimate_network_latency(input: &NetestInput<'_>, rng: &mut SmallRng) -> NetEstimate {
    let NetestInput {
        graph,
        ap,
        avail,
        gpus,
        n_groups,
        group_size,
        p_pipe,
        sync_bytes,
        pipe_bytes,
        scheme_space,
        ina_switches,
        max_perturb_iters,
    } = *input;

    // Step 1: grouping.
    let mut groups = constrained_kmeans(ap, gpus, n_groups, group_size);

    // Steps 2-3: per-group scheme + latency. Evaluations are counted so
    // the search budget is expressed in deterministic work units rather
    // than wall-clock time.
    let evals = std::cell::Cell::new(0usize);
    let latency_of = |group: &[NodeId]| -> (Scheme, f64) {
        evals.set(evals.get() + 1);
        get_latency(
            graph,
            ap,
            avail,
            group,
            ina_switches,
            sync_bytes,
            scheme_space,
        )
    };
    let mut lat: Vec<(Scheme, f64)> = groups.iter().map(|g| latency_of(g)).collect();

    // Step 4: perturbation. Random swaps between a group and another
    // randomly selected group; keep improvements.
    let mut iters = 0;
    if n_groups > 1 && group_size > 0 {
        let mut improvement = true;
        while improvement && iters < max_perturb_iters {
            improvement = false;
            iters += 1;
            for gi in 0..n_groups {
                let gj = rng.gen_range(0..n_groups);
                if gj == gi {
                    continue;
                }
                let mi = rng.gen_range(0..group_size);
                let mj = rng.gen_range(0..group_size);
                let before = lat[gi].1 + lat[gj].1;
                // Tentative swap.
                let (a, b) = (groups[gi][mi], groups[gj][mj]);
                groups[gi][mi] = b;
                groups[gj][mj] = a;
                let li = latency_of(&groups[gi]);
                let lj = latency_of(&groups[gj]);
                if li.1 + lj.1 + 1e-12 < before {
                    lat[gi] = li;
                    lat[gj] = lj;
                    improvement = true;
                } else {
                    // Revert.
                    groups[gi][mi] = a;
                    groups[gj][mj] = b;
                }
            }
        }
    }

    // T_n: per replica, sum of its stages' sync latencies plus its
    // pipeline transfers; report the worst replica (replicas run
    // concurrently).
    let replicas = n_groups / p_pipe.max(1);
    let mut t_n = 0.0f64;
    let mut t_pp_max = 0.0f64;
    for r in 0..replicas.max(1) {
        let lo = r * p_pipe;
        let hi = ((r + 1) * p_pipe).min(n_groups);
        if lo >= hi {
            continue;
        }
        let stage_sum: f64 = lat[lo..hi].iter().map(|(_, l)| l).sum();
        let t_pp = if hi - lo > 1 {
            pipeline_latency(graph, ap, avail, &groups[lo..hi], pipe_bytes)
        } else {
            0.0
        };
        t_pp_max = t_pp_max.max(t_pp);
        t_n = t_n.max(stage_sum + t_pp);
    }

    let schemes = groups
        .iter()
        .zip(&lat)
        .map(|(g, (s, l))| GroupScheme {
            group: g.clone(),
            scheme: *s,
            latency_s: *l,
        })
        .collect();

    NetEstimate {
        groups,
        schemes,
        t_pp: t_pp_max,
        t_n,
        perturb_iters: iters,
        lat_evals: evals.get(),
    }
}

/// Residual per-link bandwidth `B(e)` under a utilization snapshot,
/// written over `avail` (indexed by `LinkId`; a missing utilization reads
/// as 0): `capacity × (1 − util)`, floored at 1 % of capacity so a
/// saturated link yields a large-but-finite transfer estimate instead of
/// a division blow-up (the flow would still trickle through under
/// max-min sharing). Reuses `avail`'s allocation.
pub fn available_bandwidth(g: &Graph, link_util: &[f64], avail: &mut Vec<f64>) {
    avail.clear();
    avail.extend(g.links().map(|(l, link)| {
        let cap = link.capacity_bps;
        let u = link_util
            .get(l.idx())
            .copied()
            .unwrap_or(0.0)
            .clamp(0.0, 1.0);
        (cap * (1.0 - u)).max(cap * 0.01)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_des::SeedSplitter;
    use hs_topology::builders::testbed;

    fn setup() -> (hs_topology::builders::BuiltTopology, AllPairs) {
        let t = testbed();
        let ap = t.gpu_ina_pairs();
        (t, ap)
    }

    #[test]
    fn kmeans_prefers_colocated_groups() {
        let (t, ap) = setup();
        let gpus = t.all_gpus();
        // 4 groups of 4 from 16 GPUs: the latency-optimal grouping is one
        // group per server (NVLink distance ≪ Ethernet distance).
        let groups = constrained_kmeans(&ap, &gpus, 4, 4);
        assert_eq!(groups.len(), 4);
        for g in &groups {
            assert_eq!(g.len(), 4);
            let s0 = t.graph.server_of(g[0]);
            assert!(
                g.iter().all(|&n| t.graph.server_of(n) == s0),
                "group spans servers: {g:?}"
            );
        }
        // All GPUs used exactly once.
        let mut all: Vec<NodeId> = groups.iter().flatten().copied().collect();
        all.sort();
        let mut expect = gpus.clone();
        expect.sort();
        assert_eq!(all, expect);
    }

    #[test]
    fn kmeans_handles_partial_coverage() {
        let (t, ap) = setup();
        let gpus = t.all_gpus();
        // 2 groups of 4 from 16 candidates: still server-pure.
        let groups = constrained_kmeans(&ap, &gpus, 2, 4);
        assert_eq!(groups.iter().map(Vec::len).sum::<usize>(), 8);
    }

    #[test]
    fn switch_selection_picks_nearest() {
        let (t, ap) = setup();
        // A group homed on GPUs 0,1 of server 0 connects to tofino0.
        let group = vec![t.gpus_by_server[0][0], t.gpus_by_server[0][1]];
        let sw = select_switch(
            &t.graph,
            &ap,
            &t.graph.capacities(),
            &group,
            &t.access_switches,
            1 << 20,
        )
        .unwrap();
        assert_eq!(sw, t.access_switches[0]);
    }

    /// Unit-pinning regression for the bandwidth-estimate audit: every
    /// transfer estimate in this module flows through
    /// `path_transfer_secs`, whose contract is payload **bits** over a
    /// **bits-per-second** capacity plus per-hop latency converted from
    /// **nanoseconds**. If anyone ever feeds bytes to the rate (or ns to
    /// the sum) the hand-derived expectation here breaks loudly.
    #[test]
    fn transfer_estimate_units_are_bits_per_second_and_nanoseconds() {
        let (t, ap) = setup();
        let src = t.all_gpus()[0];
        let dst = t.access_switches[0];
        let path = ap.path(src, dst);
        assert!(!path.route.is_empty());
        let bytes: u64 = 3 << 20;
        let mut expect_s = 0.0;
        for l in path.links() {
            let link = t.graph.link(l);
            let payload_bits = bytes as f64 * 8.0;
            expect_s += payload_bits / link.capacity_bps + link.latency_ns as f64 * 1e-9;
        }
        let got_s = path_transfer_secs(&t.graph, path, bytes, None);
        assert!(
            (got_s - expect_s).abs() < 1e-15,
            "estimate {got_s} s != hand-derived {expect_s} s"
        );
        // Scale sanity: the serialization term must dominate pure
        // propagation for a MiB-scale payload, and a byte-as-bit slip
        // (×8 off) would leave this window.
        let prop_s: f64 = path
            .links()
            .map(|l| t.graph.link(l).latency_ns as f64 * 1e-9)
            .sum();
        assert!(got_s > prop_s && got_s < 1.0, "got {got_s} s");
    }

    #[test]
    fn hybrid_space_beats_ring_only() {
        let (t, ap) = setup();
        let avail = t.graph.capacities();
        // Cross-server group of 4 leaders: heterogeneity should win.
        let group: Vec<NodeId> = t.gpus_by_server.iter().map(|s| s[0]).collect();
        let (_, ring_l) = get_latency(
            &t.graph,
            &ap,
            &avail,
            &group,
            &t.access_switches,
            8 << 20,
            SchemeSpace::RingOnly,
        );
        let (scheme, hybrid_l) = get_latency(
            &t.graph,
            &ap,
            &avail,
            &group,
            &t.access_switches,
            8 << 20,
            SchemeSpace::Hybrid,
        );
        assert!(hybrid_l <= ring_l);
        assert!(
            matches!(scheme, Scheme::Ina { .. } | Scheme::HierIna { .. }),
            "expected an INA scheme for a cross-server group, got {scheme:?}"
        );
    }

    #[test]
    fn estimate_converges_within_budget() {
        let (t, ap) = setup();
        let avail = t.graph.capacities();
        let gpus = t.all_gpus();
        let input = NetestInput {
            graph: &t.graph,
            ap: &ap,
            avail: &avail,
            gpus: &gpus,
            n_groups: 4,
            group_size: 4,
            p_pipe: 2,
            sync_bytes: 4 << 20,
            pipe_bytes: 1 << 20,
            scheme_space: SchemeSpace::Hybrid,
            ina_switches: &t.access_switches,
            max_perturb_iters: 10,
        };
        let mut rng = SeedSplitter::new(5).stream("perturb");
        let est = estimate_network_latency(&input, &mut rng);
        assert_eq!(est.groups.len(), 4);
        assert_eq!(est.schemes.len(), 4);
        assert!(est.t_n > 0.0 && est.t_n.is_finite());
        // The paper reports convergence within ~5 iterations; allow a
        // margin but catch pathological oscillation.
        assert!(
            est.perturb_iters <= 8,
            "perturb iters = {}",
            est.perturb_iters
        );
        // t_n covers at least the slowest single group.
        let max_group = est
            .schemes
            .iter()
            .map(|s| s.latency_s)
            .fold(0.0f64, f64::max);
        assert!(est.t_n >= max_group);
    }

    #[test]
    fn available_bandwidth_floors_saturated_links() {
        let (t, _) = setup();
        let n = t.graph.link_count();
        let mut util = vec![0.0; n];
        util[0] = 1.0;
        util[1] = 0.5;
        let caps = t.graph.capacities();
        let mut avail = vec![7.0; 3];
        available_bandwidth(&t.graph, &util, &mut avail);
        assert_eq!(avail.len(), n);
        assert!(
            (avail[0] - caps[0] * 0.01).abs() < 1e-6,
            "saturated link floors at 1%"
        );
        assert!((avail[1] - caps[1] * 0.5).abs() < 1e-6);
        assert_eq!(avail[2], caps[2]);
    }

    #[test]
    fn perturbation_never_worsens_total() {
        let (t, ap) = setup();
        let avail = t.graph.capacities();
        let gpus = t.all_gpus();
        let mk = |perturb: usize, seed: u64| {
            let input = NetestInput {
                graph: &t.graph,
                ap: &ap,
                avail: &avail,
                gpus: &gpus,
                n_groups: 4,
                group_size: 4,
                p_pipe: 1,
                sync_bytes: 4 << 20,
                pipe_bytes: 0,
                scheme_space: SchemeSpace::Hybrid,
                ina_switches: &t.access_switches,
                max_perturb_iters: perturb,
            };
            let mut rng = SeedSplitter::new(seed).stream("perturb");
            let est = estimate_network_latency(&input, &mut rng);
            est.schemes.iter().map(|s| s.latency_s).sum::<f64>()
        };
        for seed in 0..5 {
            let no_perturb = mk(0, seed);
            let with_perturb = mk(10, seed);
            assert!(
                with_perturb <= no_perturb + 1e-12,
                "perturbation worsened: {with_perturb} > {no_perturb}"
            );
        }
    }
}
