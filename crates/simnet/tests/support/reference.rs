//! From-scratch max-min fair solver: the reference oracle the production
//! `SolverWorkspace` is checked against, bit for bit.
//!
//! Test-only code. It is compiled into `hs-simnet`'s unit tests and into
//! `tests/equivalence.rs` (both include this file by path), never into
//! the library. It allocates its own working state per call and scans
//! every link each round — deliberately the plainest possible
//! progressive filling, so a bug in the workspace's lazy buffers cannot
//! hide behind a shared one.

/// Compute max-min fair rates (bits/s) for flows over links with the given
/// `capacities` (bits/s). Each flow is the dense link indices it crosses
/// (deduplicated by the caller if the path revisits a link; paths from
/// `hs-topology` are loopless), and every flow has the same share.
///
/// Returns one rate per flow, in input order. Flows with empty paths get
/// `f64::INFINITY` (they are not constrained by the network — the caller
/// treats them as instantaneous local copies). Ties in bottleneck
/// selection break by ascending link index, the workspace's tie-break.
pub fn compute_rates(capacities: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
    let n_links = capacities.len();
    let n_flows = paths.len();
    let mut rates = vec![0.0f64; n_flows];
    if n_flows == 0 {
        return rates;
    }

    // Per-link: remaining capacity and number of unfrozen flows.
    let mut rem_cap = capacities.to_vec();
    let mut link_count = vec![0u32; n_links];
    // Which flows cross each link (indices into `paths`).
    let mut link_flows: Vec<Vec<u32>> = vec![Vec::new(); n_links];
    let mut frozen = vec![false; n_flows];
    let mut n_unfrozen = 0usize;

    for (fi, p) in paths.iter().enumerate() {
        if p.is_empty() {
            rates[fi] = f64::INFINITY;
            frozen[fi] = true;
            continue;
        }
        n_unfrozen += 1;
        for &l in p {
            link_count[l] += 1;
            link_flows[l].push(fi as u32);
        }
    }

    while n_unfrozen > 0 {
        // Find the bottleneck link: minimum fair share among links that
        // still carry unfrozen flows.
        let mut best_link = usize::MAX;
        let mut best_share = f64::INFINITY;
        for l in 0..n_links {
            if link_count[l] > 0 {
                let share = rem_cap[l].max(0.0) / f64::from(link_count[l]);
                if share < best_share {
                    best_share = share;
                    best_link = l;
                }
            }
        }
        if best_link == usize::MAX {
            // Only when every share is +∞ (infinite capacities).
            break;
        }
        // Freeze every unfrozen flow crossing the bottleneck at the share,
        // and deduct it from all links the flow crosses. Drain this link's
        // flow list; frozen entries elsewhere are skipped lazily via the
        // `frozen` bitmap.
        let flows_here = std::mem::take(&mut link_flows[best_link]);
        for fi in flows_here {
            let fi = fi as usize;
            if frozen[fi] {
                continue;
            }
            rates[fi] = best_share;
            frozen[fi] = true;
            n_unfrozen -= 1;
            for &l in &paths[fi] {
                rem_cap[l] -= best_share;
                link_count[l] -= 1;
            }
        }
    }
    rates
}
