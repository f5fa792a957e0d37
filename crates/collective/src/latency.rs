//! Closed-form collective latency models (Eqs. 8–11).
//!
//! These are the quantities Algorithm 2's `getlatency` compares when
//! choosing between INA (`α`) and ring (`β`) for each tensor-parallel
//! group. They take the precomputed shortest-path structures `D(i,j)` /
//! `P(k,a)` and an optional residual-bandwidth vector `B(e)` — exactly the
//! planner's Table I inputs.

use crate::plan::Scheme;
use hs_des::SimSpan;
use hs_topology::{AllPairs, Graph, NodeId, Path, ServerId};

/// Switch aggregation delay `T_agg` — "approximately 1 µs" on Tofino
/// (§III-C2, citing Tiara / Intel IFP).
pub const AGG_DELAY: SimSpan = SimSpan::from_micros(1);

/// Serialization + propagation time of `bytes` along `path`, seconds
/// (the paper's `Σ_{e_n ∈ P(k,a)} D / B(e_n)` with per-hop latency).
pub fn path_transfer_secs(g: &Graph, path: &Path, bytes: u64, avail: Option<&[f64]>) -> f64 {
    let mut t = 0.0;
    for l in path.links() {
        let link = g.link(l);
        let bw = avail
            .map(|b| b[l.idx()])
            .unwrap_or(link.capacity_bps)
            .max(1.0);
        t += bytes as f64 * 8.0 / bw + link.latency_ns as f64 * 1e-9;
    }
    t
}

/// Eq. 8–10: INA all-reduce latency for `group`, aggregating at `switch`.
///
/// `bytes` is the full synchronization volume `D_col` each worker
/// contributes (and receives back). Collection is limited by the slowest
/// worker's path; aggregation is [`AGG_DELAY`]; distribution mirrors
/// collection.
pub fn ina_latency(
    g: &Graph,
    group: &[NodeId],
    switch: NodeId,
    ap: &AllPairs,
    bytes: u64,
    avail: Option<&[f64]>,
) -> f64 {
    if group.len() < 2 {
        return 0.0;
    }
    let t_col = group
        .iter()
        .map(|&k| path_transfer_secs(g, ap.path(k, switch), bytes, avail))
        .fold(0.0f64, f64::max);
    let t_dis = group
        .iter()
        .map(|&k| path_transfer_secs(g, ap.path(switch, k), bytes, avail))
        .fold(0.0f64, f64::max);
    // Streaming aggregation on full-duplex links: distribution of chunk k
    // overlaps collection of chunk k+1, so the phases pipeline and the
    // wall time is the slower direction plus the switch delay.
    t_col.max(t_dis) + AGG_DELAY.as_secs_f64()
}

/// Eq. 11: ring all-reduce latency for `group` over `bytes` total volume.
///
/// `2(P−1)` steps each move `bytes/P` along every ring edge concurrently;
/// each step lasts as long as the slowest edge (the `min B(e)` in the
/// paper's formula). The ring order is the group order.
pub fn ring_latency(
    g: &Graph,
    group: &[NodeId],
    ap: &AllPairs,
    bytes: u64,
    avail: Option<&[f64]>,
) -> f64 {
    let p = group.len();
    if p < 2 {
        return 0.0;
    }
    let chunk = (bytes / p as u64).max(1);
    let step = (0..p)
        .map(|i| {
            let from = group[i];
            let to = group[(i + 1) % p];
            path_transfer_secs(g, ap.path(from, to), chunk, avail)
        })
        .fold(0.0f64, f64::max);
    2.0 * (p as f64 - 1.0) * step
}

impl Scheme {
    /// This scheme's closed-form all-reduce latency for `group` over
    /// `bytes`: Eq. 8–10 for the INA schemes, Eq. 11 for the rings, each
    /// flat or hierarchical as the variant says.
    pub fn latency(
        &self,
        g: &Graph,
        group: &[NodeId],
        ap: &AllPairs,
        bytes: u64,
        avail: Option<&[f64]>,
    ) -> f64 {
        match *self {
            Scheme::Ring => ring_latency(g, group, ap, bytes, avail),
            Scheme::HierRing => hierarchical_ring_latency(g, group, ap, bytes, avail),
            Scheme::Ina { switch } => ina_latency(g, group, switch, ap, bytes, avail),
            Scheme::HierIna { switch } => {
                hierarchical_ina_latency(g, group, switch, ap, bytes, avail)
            }
        }
    }
}

/// The `switches` that `ap` covers, nearest to `group` first: by the
/// distance from the group's farthest member, ties broken by node id.
pub fn nearest_switches(ap: &AllPairs, group: &[NodeId], switches: &[NodeId]) -> Vec<NodeId> {
    let reach = |s: NodeId| group.iter().map(|&k| ap.dist(k, s)).fold(0.0f64, f64::max);
    let mut ranked: Vec<NodeId> = switches
        .iter()
        .filter(|&&s| ap.covers(s))
        .copied()
        .collect();
    ranked.sort_by(|&a, &b| {
        reach(a)
            .partial_cmp(&reach(b))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(&b))
    });
    ranked
}

/// Partition `group` by server, preserving order; GPUs without a server
/// (never happens for GPU nodes) become singleton groups.
pub fn by_server(g: &Graph, group: &[NodeId]) -> Vec<(Option<ServerId>, Vec<NodeId>)> {
    let mut out: Vec<(Option<ServerId>, Vec<NodeId>)> = Vec::new();
    for &n in group {
        let s = g.server_of(n);
        if let Some(entry) = out.iter_mut().find(|(srv, _)| *srv == s && s.is_some()) {
            entry.1.push(n);
        } else {
            out.push((s, vec![n]));
        }
    }
    out
}

/// Per-server leaders (first member of each local group).
pub fn leaders(g: &Graph, group: &[NodeId]) -> Vec<NodeId> {
    by_server(g, group)
        .into_iter()
        .map(|(_, ms)| ms[0])
        .collect()
}

/// Latency of the intra-server phase: each server's members reduce to (or
/// broadcast from) their leader over NVLink, concurrently across servers.
fn local_phase_secs(
    g: &Graph,
    group: &[NodeId],
    ap: &AllPairs,
    bytes: u64,
    avail: Option<&[f64]>,
) -> f64 {
    by_server(g, group)
        .iter()
        .map(|(_, members)| {
            let leader = members[0];
            members[1..]
                .iter()
                .map(|&m| path_transfer_secs(g, ap.path(m, leader), bytes, avail))
                .fold(0.0f64, f64::max)
        })
        .fold(0.0f64, f64::max)
}

/// HeroServe's heterogeneous INA: NVLink-local reduce → leaders aggregate
/// at `switch` → NVLink-local broadcast (Fig. 2(b)).
pub fn hierarchical_ina_latency(
    g: &Graph,
    group: &[NodeId],
    switch: NodeId,
    ap: &AllPairs,
    bytes: u64,
    avail: Option<&[f64]>,
) -> f64 {
    if group.len() < 2 {
        return 0.0;
    }
    let lead = leaders(g, group);
    let t_local = local_phase_secs(g, group, ap, bytes, avail);
    let t_inter = if lead.len() >= 2 {
        ina_latency(g, &lead, switch, ap, bytes, avail)
    } else {
        0.0
    };
    // Broadcast mirrors the reduce.
    t_local + t_inter + t_local
}

/// Heterogeneous ring: NVLink-local reduce → ring among leaders →
/// NVLink-local broadcast.
pub fn hierarchical_ring_latency(
    g: &Graph,
    group: &[NodeId],
    ap: &AllPairs,
    bytes: u64,
    avail: Option<&[f64]>,
) -> f64 {
    if group.len() < 2 {
        return 0.0;
    }
    let lead = leaders(g, group);
    let t_local = local_phase_secs(g, group, ap, bytes, avail);
    let t_inter = if lead.len() >= 2 {
        ring_latency(g, &lead, ap, bytes, avail)
    } else {
        0.0
    };
    t_local + t_inter + t_local
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_topology::builders::fig2_micro;
    use hs_topology::LinkWeight;

    fn ap_for(m: &hs_topology::builders::Fig2Micro) -> AllPairs {
        let mut nodes = m.gpus.to_vec();
        nodes.push(m.access);
        nodes.push(m.core);
        AllPairs::compute(&m.graph, &nodes, LinkWeight::Latency, None)
    }

    /// The paper's Fig. 2 numbers: 1 MB homogeneous INA at the core
    /// switch ≈ 160 µs (two Ethernet hops each way for the worst worker);
    /// heterogeneous INA at the access switch ≈ 90 µs.
    #[test]
    fn fig2_homogeneous_vs_heterogeneous() {
        let m = fig2_micro();
        let ap = ap_for(&m);
        let bytes = 1_000_000;
        let homo_us = ina_latency(&m.graph, &m.gpus, m.core, &ap, bytes, None) * 1e6;
        let het_us = hierarchical_ina_latency(&m.graph, &m.gpus, m.access, &ap, bytes, None) * 1e6;
        // Homogeneous: the slowest worker crosses 2 Ethernet hops of
        // ~80 us serialization each (store-and-forward) -> ~160 us, the
        // paper's number; streaming overlaps the return direction.
        assert!((homo_us - 161.0).abs() < 8.0, "homogeneous = {homo_us} us");
        // Heterogeneous: NVLink local reduce + 1 Ethernet hop ≈ 84-90 us.
        assert!(
            het_us > 75.0 && het_us < 95.0,
            "heterogeneous = {het_us} us"
        );
        // The headline claim: ~43% reduction.
        let reduction = 1.0 - het_us / homo_us;
        assert!(
            reduction > 0.35 && reduction < 0.55,
            "reduction = {:.1}%",
            reduction * 100.0
        );
    }

    #[test]
    fn ring_matches_eq11_shape() {
        let m = fig2_micro();
        let ap = ap_for(&m);
        // Ring over the 3 GPUs; worst edge is the cross-server 2-hop path.
        let bytes = 3_000_000u64;
        let t = ring_latency(&m.graph, &m.gpus, &ap, bytes, None);
        // chunk = 1 MB; worst step: gn2 -> gn3 (2 Ethernet hops = 160 us);
        // 2(P-1) = 4 steps.
        assert!(
            (t * 1e6 - 4.0 * 162.0).abs() < 10.0,
            "ring = {} us",
            t * 1e6
        );
    }

    #[test]
    fn singleton_and_pair_edges() {
        let m = fig2_micro();
        let ap = ap_for(&m);
        assert_eq!(
            ring_latency(&m.graph, &m.gpus[..1], &ap, 1 << 20, None),
            0.0
        );
        assert_eq!(
            ina_latency(&m.graph, &m.gpus[..1], m.access, &ap, 1 << 20, None),
            0.0
        );
        // A same-server pair over hierarchical INA never touches Ethernet.
        let t = hierarchical_ina_latency(&m.graph, &m.gpus[..2], m.access, &ap, 1 << 20, None);
        assert!(t * 1e6 < 10.0, "NVLink-only pair = {} us", t * 1e6);
    }

    #[test]
    fn scheme_latency_is_its_closed_form() {
        let m = fig2_micro();
        let ap = ap_for(&m);
        let (g, group, bytes) = (&m.graph, &m.gpus[..], 1 << 20);
        let avail: Vec<f64> = g.capacities().iter().map(|c| c / 3.0).collect();
        for avail in [None, Some(&avail[..])] {
            for sw in [m.access, m.core] {
                let cases = [
                    (Scheme::Ring, ring_latency(g, group, &ap, bytes, avail)),
                    (
                        Scheme::HierRing,
                        hierarchical_ring_latency(g, group, &ap, bytes, avail),
                    ),
                    (
                        Scheme::Ina { switch: sw },
                        ina_latency(g, group, sw, &ap, bytes, avail),
                    ),
                    (
                        Scheme::HierIna { switch: sw },
                        hierarchical_ina_latency(g, group, sw, &ap, bytes, avail),
                    ),
                ];
                for (scheme, want) in cases {
                    let got = scheme.latency(g, group, &ap, bytes, avail);
                    assert_eq!(got.to_bits(), want.to_bits(), "{scheme:?}");
                }
            }
        }
    }

    #[test]
    fn nearest_switches_rank_by_farthest_member_then_id() {
        let t = hs_topology::builders::testbed();
        let ap = t.gpu_switch_pairs();
        let [sw0, sw1] = [t.access_switches[0], t.access_switches[1]];
        let gpu = |server: usize, i: usize| t.gpus_by_server[server][i];
        // GPUs 0-1 of each server hang off switch 0, GPUs 2-3 off switch 1.
        let on_sw1 = [gpu(0, 2), gpu(1, 3)];
        assert_eq!(nearest_switches(&ap, &on_sw1, &[sw0, sw1]), [sw1, sw0]);
        let on_sw0 = [gpu(2, 0), gpu(3, 1)];
        assert_eq!(nearest_switches(&ap, &on_sw0, &[sw1, sw0]), [sw0, sw1]);
        // One member on each: equally far, so the lower node id leads.
        assert!(sw0 < sw1);
        for split in [[gpu(0, 0), gpu(1, 2)], [gpu(1, 2), gpu(0, 0)]] {
            assert_eq!(nearest_switches(&ap, &split, &[sw1, sw0]), [sw0, sw1]);
        }
        // Switches the routes do not cover are never offered.
        let gpus_only = AllPairs::compute(&t.graph, &t.all_gpus(), LinkWeight::Latency, None);
        assert!(nearest_switches(&gpus_only, &on_sw0, &[sw0, sw1]).is_empty());
    }

    #[test]
    fn by_server_grouping() {
        let m = fig2_micro();
        let groups = by_server(&m.graph, &m.gpus);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].1.len(), 1);
        assert_eq!(leaders(&m.graph, &m.gpus), vec![m.gpus[0], m.gpus[2]]);
    }

    #[test]
    fn residual_bandwidth_raises_latency() {
        let m = fig2_micro();
        let ap = ap_for(&m);
        let full = ina_latency(&m.graph, &m.gpus, m.core, &ap, 1 << 20, None);
        // Halve every link's availability.
        let avail: Vec<f64> = m.graph.capacities().iter().map(|c| c / 2.0).collect();
        let choked = ina_latency(&m.graph, &m.gpus, m.core, &ap, 1 << 20, Some(&avail));
        assert!(choked > 1.9 * full, "choked {choked} vs full {full}");
    }

    #[test]
    fn hierarchical_beats_flat_ring_cross_server() {
        let m = fig2_micro();
        let ap = ap_for(&m);
        let bytes = 8 << 20;
        let flat = ring_latency(&m.graph, &m.gpus, &ap, bytes, None);
        let hier = hierarchical_ring_latency(&m.graph, &m.gpus, &ap, bytes, None);
        assert!(
            hier < flat,
            "hierarchical {hier} should beat flat {flat} when NVLink absorbs local steps"
        );
    }
}
