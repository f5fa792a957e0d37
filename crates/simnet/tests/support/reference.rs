//! From-scratch weighted max-min fair solver: the reference oracle the
//! production `SolverWorkspace` is checked against, bit for bit.
//!
//! Test-only code. It is compiled into `hs-simnet`'s unit tests and into
//! `tests/equivalence.rs` (both include this file by path), never into
//! the library. It allocates its own working state per call and scans
//! every link each round — deliberately the plainest possible
//! progressive filling, so a bug in the workspace's lazy buffers cannot
//! hide behind a shared one.

/// A flow description for rate computation: the links it crosses (as dense
/// indices) and its weight (relative share; 1.0 for ordinary flows).
#[derive(Clone, Debug)]
pub struct FlowDemand<'a> {
    /// Dense link indices this flow traverses (deduplicated by caller if
    /// the path revisits a link; paths from `hs-topology` are loopless).
    pub links: &'a [usize],
    /// Relative weight; must be > 0.
    pub weight: f64,
}

/// Compute weighted max-min fair rates (bits/s) for `flows` over links with
/// the given `capacities` (bits/s).
///
/// Returns one rate per flow, in input order. Flows with empty paths get
/// `f64::INFINITY` (they are not constrained by the network — the caller
/// treats them as instantaneous local copies). Ties in bottleneck
/// selection break by ascending link index, the workspace's tie-break.
pub fn compute_rates(capacities: &[f64], flows: &[FlowDemand<'_>]) -> Vec<f64> {
    let n_links = capacities.len();
    let n_flows = flows.len();
    let mut rates = vec![0.0f64; n_flows];
    if n_flows == 0 {
        return rates;
    }

    // Per-link: remaining capacity and total unfrozen weight.
    let mut rem_cap = capacities.to_vec();
    let mut link_weight = vec![0.0f64; n_links];
    // Which flows cross each link (indices into `flows`).
    let mut link_flows: Vec<Vec<u32>> = vec![Vec::new(); n_links];
    let mut frozen = vec![false; n_flows];
    let mut n_unfrozen = 0usize;

    for (fi, f) in flows.iter().enumerate() {
        debug_assert!(f.weight > 0.0, "flow weight must be positive");
        if f.links.is_empty() {
            rates[fi] = f64::INFINITY;
            frozen[fi] = true;
            continue;
        }
        n_unfrozen += 1;
        for &l in f.links {
            link_weight[l] += f.weight;
            link_flows[l].push(fi as u32);
        }
    }

    while n_unfrozen > 0 {
        // Find the bottleneck link: minimum per-weight fair share among
        // links that still carry unfrozen flows.
        let mut best_link = usize::MAX;
        let mut best_share = f64::INFINITY;
        for l in 0..n_links {
            if link_weight[l] > 0.0 {
                let share = (rem_cap[l].max(0.0)) / link_weight[l];
                if share < best_share {
                    best_share = share;
                    best_link = l;
                }
            }
        }
        if best_link == usize::MAX {
            // Shouldn't happen: unfrozen flows always have links with
            // positive weight. Guard against float pathology anyway.
            break;
        }
        // Freeze every unfrozen flow crossing the bottleneck at
        // weight * share, and deduct from all links it crosses.
        // Drain this link's flow list; frozen entries elsewhere are skipped
        // lazily via the `frozen` bitmap.
        let flows_here = std::mem::take(&mut link_flows[best_link]);
        for fi in flows_here {
            let fi = fi as usize;
            if frozen[fi] {
                continue;
            }
            let f = &flows[fi];
            let r = f.weight * best_share;
            rates[fi] = r;
            frozen[fi] = true;
            n_unfrozen -= 1;
            for &l in f.links {
                rem_cap[l] -= r;
                link_weight[l] -= f.weight;
                if link_weight[l] < 1e-12 {
                    link_weight[l] = 0.0;
                }
            }
        }
        link_weight[best_link] = 0.0;
    }
    rates
}
