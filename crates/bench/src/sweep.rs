//! Rate sweeps: the paper's scalability metric.
//!
//! "We focus on the maximum per-GPU rate that the system can handle while
//! satisfying the latency requirements for over 90 % of requests" (§V-A).
//! [`max_rate_under_sla`] scans an increasing rate grid and returns the
//! largest offered rate whose SLA attainment stays ≥
//! [`SLA_ATTAINMENT_TARGET`], refined by one bisection pass between the
//! last good and first bad grid points.

use hs_baselines::Deployment;
use hs_cluster::{SimReport, SLA_ATTAINMENT_TARGET};
use hs_des::SimTime;

/// Result of one sweep.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// Largest sustainable offered rate, req/s.
    pub max_rate: f64,
    /// Report at that rate.
    pub report: SimReport,
    /// `(rate, attainment)` samples observed during the sweep.
    pub samples: Vec<(f64, f64)>,
}

/// Find the maximum rate with `attainment ≥ SLA_ATTAINMENT_TARGET` over
/// `grid` (ascending rates), refining with `refine` bisection steps.
pub fn max_rate_under_sla(
    deployment: &Deployment,
    grid: &[f64],
    seed: u64,
    duration: SimTime,
    refine: usize,
) -> SweepOutcome {
    assert!(!grid.is_empty());
    let passes = |r: &SimReport| r.sla_attainment >= SLA_ATTAINMENT_TARGET && r.completed > 0;
    let mut samples = Vec::new();
    let mut best: Option<(f64, SimReport)> = None;
    let mut first_bad: Option<(f64, SimReport)> = None;
    for &rate in grid {
        let report = deployment.serve_trace(seed, rate, duration);
        samples.push((rate, report.sla_attainment));
        if passes(&report) {
            best = Some((rate, report));
        } else {
            first_bad = Some((rate, report));
            break;
        }
    }
    // The grid may end before the knee (planner estimates are
    // conservative about runtime batching): extend geometrically until
    // attainment actually breaks.
    if first_bad.is_none() {
        let mut rate = grid.last().copied().expect("nonempty grid");
        for _ in 0..12 {
            rate *= 1.5;
            let report = deployment.serve_trace(seed, rate, duration);
            samples.push((rate, report.sla_attainment));
            if passes(&report) {
                best = Some((rate, report));
            } else {
                first_bad = Some((rate, report));
                break;
            }
        }
    }
    let Some((mut lo, mut lo_report)) = best else {
        // Even the lowest rate fails: report it, with zero capacity.
        let (_, report) = first_bad.expect("a grid rate that does not pass fails");
        return SweepOutcome {
            max_rate: 0.0,
            report,
            samples,
        };
    };
    if let Some((mut hi, _)) = first_bad {
        for _ in 0..refine {
            let mid = 0.5 * (lo + hi);
            let report = deployment.serve_trace(seed, mid, duration);
            samples.push((mid, report.sla_attainment));
            if passes(&report) {
                lo = mid;
                lo_report = report;
            } else {
                hi = mid;
            }
        }
    }
    SweepOutcome {
        max_rate: lo,
        report: lo_report,
        samples,
    }
}
