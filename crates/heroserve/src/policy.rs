//! Candidate policies for the online scheduler (Fig. 5's table rows).
//!
//! A *policy* is "a set of routing configurations, e.g., the transmission
//! scheme (INA or ring), the next hop, the transmission path and etc"
//! (§III-D). For each tensor-parallel group we enumerate the schemes the
//! hybrid space allows — hierarchical INA at each of the nearest
//! INA-capable switches, flat INA, hierarchical ring, flat ring — and
//! record the exact link set each would use, so costs can track shared
//! links precisely.

use hs_collective::{nearest_switches, PlanShape, Scheme};
use hs_topology::{AllPairs, Graph, LinkId, NodeId};

/// One candidate (scheme, route set) for a group.
#[derive(Clone, Debug)]
pub struct Policy {
    /// The scheme this policy executes.
    pub scheme: Scheme,
    /// Every link the scheme's plan touches (deduplicated, sorted).
    pub links: Vec<LinkId>,
    /// Seconds of busiest-link occupancy per payload byte: the maximum
    /// over the policy's links of `(bytes the plan puts on that link per
    /// payload byte) × 8 / capacity`. Multiplying by a transfer volume
    /// and dividing by the estimation window yields the paper's δ — the
    /// *maximum bandwidth utilization ratio* the transfer adds (§III-D's
    /// policy cost is explicitly the max across involved links).
    pub max_link_secs_per_byte: f64,
    /// Closed-form latency of the scheme on an idle fabric, seconds per
    /// probe volume — the tiebreak among equally-loaded policies (the
    /// planner's latency preference carried into the online table).
    pub base_latency_s: f64,
}

/// Links a plan shape touches.
fn plan_links(shape: &PlanShape) -> Vec<LinkId> {
    let mut links: Vec<LinkId> = shape
        .phases
        .iter()
        .flat_map(|p| p.paths.iter().flat_map(|ls| ls.iter().map(|&(l, _)| l)))
        .collect();
    links.sort_unstable();
    links.dedup();
    links
}

/// Build the candidate policy list for `group`.
///
/// `k_switches` bounds how many nearest INA switches get their own
/// hierarchical-INA policy (path diversity for load balancing).
pub fn build_policies(
    g: &Graph,
    ap: &AllPairs,
    group: &[NodeId],
    ina_switches: &[NodeId],
    k_switches: usize,
) -> Vec<Policy> {
    // Reference volume: per-byte structure is what matters; size the
    // plan at a fixed probe.
    const PROBE: u64 = 1 << 20;
    let mut policies = Vec::new();
    let mut push = |scheme: Scheme| {
        let base_latency_s = scheme.latency(g, group, ap, PROBE, None);
        let shape = PlanShape::compile(g, ap, group, scheme);
        if shape.phases.is_empty() {
            return;
        }
        let links = plan_links(&shape);
        if links.is_empty() {
            return;
        }
        // Bytes each *directed* link carries across the whole plan (full
        // duplex: the two directions are independent pools).
        let mut per_dir: std::collections::BTreeMap<(LinkId, bool), u64> =
            std::collections::BTreeMap::new();
        for phase in &shape.phases {
            for (ls, bytes) in phase.transfers(PROBE) {
                for &d in ls.iter() {
                    *per_dir.entry(d).or_insert(0) += bytes;
                }
            }
        }
        let max_link_secs_per_byte = per_dir
            .iter()
            .map(|(&(l, _), &bytes)| (bytes as f64 / PROBE as f64) * 8.0 / g.link(l).capacity_bps)
            .fold(0.0f64, f64::max);
        policies.push(Policy {
            scheme,
            links,
            max_link_secs_per_byte,
            base_latency_s,
        });
    };

    let switches = nearest_switches(ap, group, ina_switches);
    for &sw in switches.iter().take(k_switches.max(1)) {
        push(Scheme::HierIna { switch: sw });
    }
    if let Some(&sw) = switches.first() {
        push(Scheme::Ina { switch: sw });
    }
    push(Scheme::HierRing);
    push(Scheme::Ring);
    policies
}

/// NetKV score weight: seconds added per request already decoding on the
/// candidate (a coarse queueing-delay proxy).
pub const KV_LOAD_WEIGHT_S: f64 = 0.010;

/// NetKV score weight: seconds added at 100 % KV reservation pressure (an
/// almost-full instance is about to start deferring admissions).
pub const KV_PRESSURE_WEIGHT_S: f64 = 0.050;

/// The NetKV decode-selection score (lower is better): estimated striped
/// KV transfer time over residual bandwidth, plus load and KV-pressure
/// penalties in transfer-time units. The weights make the network term
/// dominate until a candidate is several requests deeper or nearly out
/// of KV headroom, i.e. the policy degrades to least-loaded on a
/// homogeneous idle fabric and to nearest-instance under congestion.
pub fn netkv_score(est_transfer_s: f64, load: usize, reserved_frac: f64) -> f64 {
    est_transfer_s
        + load as f64 * KV_LOAD_WEIGHT_S
        + reserved_frac.clamp(0.0, 1.0) * KV_PRESSURE_WEIGHT_S
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_topology::builders::testbed;

    fn setup() -> (hs_topology::builders::BuiltTopology, AllPairs) {
        let t = testbed();
        let ap = t.gpu_ina_pairs();
        (t, ap)
    }

    #[test]
    fn builds_diverse_policies_for_cross_server_group() {
        let (t, ap) = setup();
        let group: Vec<NodeId> = t.gpus_by_server.iter().map(|s| s[0]).collect();
        let pols = build_policies(&t.graph, &ap, &group, &t.access_switches, 2);
        // 2 hier-INA + flat INA + hier ring + flat ring.
        assert_eq!(pols.len(), 5);
        let schemes: Vec<_> = pols.iter().map(|p| p.scheme).collect();
        assert!(schemes.iter().any(|s| matches!(s, Scheme::HierIna { .. })));
        assert!(schemes.contains(&Scheme::Ring));
        for p in &pols {
            assert!(!p.links.is_empty());
            assert!(p.max_link_secs_per_byte > 0.0);
            // Links sorted + deduped.
            for w in p.links.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn distinct_switches_give_distinct_link_sets() {
        let (t, ap) = setup();
        let group: Vec<NodeId> = t.gpus_by_server.iter().map(|s| s[0]).collect();
        let pols = build_policies(&t.graph, &ap, &group, &t.access_switches, 2);
        let ina_pols: Vec<&Policy> = pols
            .iter()
            .filter(|p| matches!(p.scheme, Scheme::HierIna { .. }))
            .collect();
        assert_eq!(ina_pols.len(), 2);
        assert_ne!(ina_pols[0].links, ina_pols[1].links);
    }

    #[test]
    fn singleton_group_has_no_policies() {
        let (t, ap) = setup();
        let group = vec![t.gpus_by_server[0][0]];
        let pols = build_policies(&t.graph, &ap, &group, &t.access_switches, 2);
        assert!(pols.is_empty());
    }

    #[test]
    fn hierarchical_ring_amplifies_less_on_ethernet() {
        // For a same-server pair the hierarchical schemes stay on NVLink;
        // the policy structure reflects it via NVLink-only link sets.
        let (t, ap) = setup();
        let group = vec![t.gpus_by_server[0][0], t.gpus_by_server[0][1]];
        let pols = build_policies(&t.graph, &ap, &group, &t.access_switches, 1);
        let hier = pols
            .iter()
            .find(|p| p.scheme == Scheme::HierRing)
            .expect("hier ring policy");
        assert!(hier
            .links
            .iter()
            .all(|&l| t.graph.link(l).kind == hs_topology::LinkKind::NvLink));
    }
}
