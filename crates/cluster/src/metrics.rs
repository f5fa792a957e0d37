//! Experiment metrics — everything §V measures.

use crate::request::{ReqPhase, ReqState};
use hs_des::SimTime;
use hs_workload::stats::{fraction_where, mean, percentile};

/// Final metrics for one request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReqMetrics {
    /// Request id.
    pub id: u64,
    /// TTFT in seconds (`None` when prefill never completed).
    pub ttft_s: Option<f64>,
    /// End-to-end TTFT: arrival → decode start, *including* admission wait
    /// and KV-cache transfer (`None` when decoding never started).
    pub ttft_e2e_s: Option<f64>,
    /// TPOT in seconds (`None` when decoding never finished).
    pub tpot_s: Option<f64>,
    /// Whether the request completed fully.
    pub completed: bool,
    /// Whether it met both SLAs (unfinished overdue requests fail).
    pub sla_ok: bool,
}

/// One sample of the Fig. 10 memory time series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemSample {
    /// Sample time.
    pub t: SimTime,
    /// Mean live KV utilization across decode instances, `[0, 1]`.
    pub mean_util: f64,
    /// Max live KV utilization across decode instances.
    pub max_util: f64,
}

/// The full report of one cluster simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SimReport {
    /// Strategy name.
    pub strategy: String,
    /// Offered request rate (from the trace), req/s.
    pub offered_rate: f64,
    /// Requests arrived within the horizon.
    pub arrived: usize,
    /// Requests fully completed.
    pub completed: usize,
    /// Per-request metrics (arrival order).
    pub per_request: Vec<ReqMetrics>,
    /// SLA attainment over *evaluable* requests (completed, or overdue).
    pub sla_attainment: f64,
    /// Mean TTFT over completed requests, seconds.
    pub mean_ttft_s: f64,
    /// p90 TTFT, seconds.
    pub p90_ttft_s: f64,
    /// Mean TPOT over completed requests, seconds.
    pub mean_tpot_s: f64,
    /// p90 TPOT, seconds.
    pub p90_tpot_s: f64,
    /// Memory utilization time series (Fig. 10).
    pub mem_series: Vec<MemSample>,
    /// Collectives that ran as INA.
    pub ina_ops: u64,
    /// Collectives that ran as ring (including fallbacks).
    pub ring_ops: u64,
    /// INA requests that fell back to ring because a switch was busy.
    pub ina_fallbacks: u64,
    /// Total bytes pushed over Ethernet links.
    pub eth_bytes: f64,
    /// Total bytes pushed over NVLink links.
    pub nvlink_bytes: f64,
    /// Throughput: completed requests per second of simulated time.
    pub goodput_rps: f64,
    /// Collectives redirected away from a *failed* INA switch (distinct
    /// from `ina_fallbacks`, which counts busy-switch degradations).
    pub ina_failovers: u64,
    /// INA slot releases that had no matching acquisition (always 0 in a
    /// correct run; a nonzero value flags a collective-lifecycle
    /// accounting bug such as a double end).
    pub ina_release_underflows: u64,
    /// Flows aborted mid-transfer because a fault killed a link under them.
    pub aborted_flows: u64,
    /// Collective/KV relaunches issued after fault-induced aborts.
    pub flow_retries: u64,
    /// Mean seconds from a fault-induced abort to a relaunch that avoids
    /// all dead links (time-to-reroute; 0 when no reroutes happened).
    pub mean_reroute_s: f64,
    /// SLA attainment over requests arriving inside the fault window
    /// (`None` when the run had no fault plan or no evaluable requests).
    pub fault_window_attainment: Option<f64>,
    /// KV shipments launched (one per admitted request).
    pub kv_transfers: u64,
    /// Simnet flows launched for KV stripes (Eq. 15 parallel TP pairs),
    /// including relaunches after fault aborts.
    pub kv_stripes: u64,
    /// KV shipments relaunched after a fault aborted one of their stripes.
    pub kv_retries: u64,
    /// Admissions deferred for lack of decode KV capacity (first refusal
    /// only; retry passes don't re-count).
    pub kv_deferrals: u64,
    /// Total KV-cache bytes shipped prefill→decode (Eq. 14 volume; counted
    /// once per shipment, not re-counted on retry).
    pub kv_bytes: f64,
    /// Mean realized KV transfer time over completed shipments, seconds.
    pub mean_kv_transfer_s: f64,
    /// p90 realized KV transfer time, seconds.
    pub p90_kv_transfer_s: f64,
    /// Mean absolute error of the admission-time transfer estimate vs the
    /// realized time, seconds (estimator audit).
    pub mean_kv_est_err_s: f64,
    /// Mean end-to-end TTFT (arrival → decode start) over completed
    /// requests — the metric KV congestion moves.
    pub mean_ttft_e2e_s: f64,
    /// p90 end-to-end TTFT, seconds.
    pub p90_ttft_e2e_s: f64,
    /// Autoscaler grow actions applied (one per instance activated).
    pub scale_ups: u64,
    /// Autoscaler shrink actions applied (one per instance drained).
    pub scale_downs: u64,
    /// Occupied GPU-seconds summed over all instances (`gpu_count ×
    /// non-parked wall time`). Without an autoscaler this is exactly
    /// `total_gpus × horizon` — the equal-GPU-hours axis of the
    /// elastic-vs-static comparison.
    pub gpu_seconds: f64,
    /// `gpu_seconds / horizon`: the time-averaged GPU footprint.
    pub mean_active_gpus: f64,
    /// Active prefill instances at the horizon.
    pub final_prefill_active: usize,
    /// Active decode instances at the horizon.
    pub final_decode_active: usize,
}

/// SLA verdict for one request at `horizon`: `Some(true)` pass,
/// `Some(false)` fail, `None` still pending with all deadlines ahead
/// (excluded from attainment — standard open-loop accounting).
fn sla_verdict(r: &ReqState, ttft_sla: f64, tpot_sla: f64, horizon: SimTime) -> Option<bool> {
    let ttft = r.ttft_secs();
    let tpot = r.tpot_secs();
    if r.phase == ReqPhase::Done {
        return Some(
            ttft.map(|t| t <= ttft_sla).unwrap_or(false)
                && tpot.map(|t| t <= tpot_sla).unwrap_or(false),
        );
    }
    // Unfinished: fail if the TTFT deadline has already passed without a
    // first token, or if decoding has been running long enough that TPOT
    // can no longer be met.
    let overdue_prefill = r.prefill_done.is_none()
        && horizon.saturating_since(r.req.arrival).as_secs_f64() > ttft_sla;
    let overdue_ttft = ttft.map(|t| t > ttft_sla).unwrap_or(false);
    // Best-case final TPOT: even if every remaining token materialized at
    // `horizon`, the mean inter-token time would already exceed the SLA.
    let overdue_tpot = r.req.output_tokens > 0
        && r.prefill_done.or(r.decode_start).is_some_and(|start| {
            horizon.saturating_since(start).as_secs_f64() / r.req.output_tokens as f64 > tpot_sla
        });
    if overdue_prefill || overdue_ttft || overdue_tpot {
        Some(false)
    } else {
        None
    }
}

impl SimReport {
    /// Build per-request metrics and summary statistics.
    ///
    /// SLA evaluation: a completed request passes iff `TTFT ≤ ttft_sla`
    /// and `TPOT ≤ tpot_sla`. An unfinished request whose TTFT deadline
    /// already passed at `horizon` fails; unfinished requests still
    /// within deadline are excluded from attainment (standard open-loop
    /// accounting).
    pub fn summarize(&mut self, reqs: &[ReqState], ttft_sla: f64, tpot_sla: f64, horizon: SimTime) {
        let mut evaluable = Vec::new();
        let mut ttfts = Vec::new();
        let mut ttfts_e2e = Vec::new();
        let mut tpots = Vec::new();
        self.per_request.clear();
        self.arrived = reqs.len();
        self.completed = 0;
        for r in reqs {
            let completed = r.phase == ReqPhase::Done;
            let ttft = r.ttft_secs();
            let ttft_e2e = r.ttft_e2e_secs();
            let tpot = r.tpot_secs();
            let verdict = sla_verdict(r, ttft_sla, tpot_sla, horizon);
            if let Some(ok) = verdict {
                evaluable.push(if ok { 1.0 } else { 0.0 });
            }
            let sla_ok = verdict.unwrap_or(false);
            if completed {
                self.completed += 1;
                if let Some(t) = ttft {
                    ttfts.push(t);
                }
                if let Some(t) = ttft_e2e {
                    ttfts_e2e.push(t);
                }
                if let Some(t) = tpot {
                    tpots.push(t);
                }
            }
            self.per_request.push(ReqMetrics {
                id: r.req.id.0,
                ttft_s: ttft,
                ttft_e2e_s: ttft_e2e,
                tpot_s: tpot,
                completed,
                sla_ok,
            });
        }
        self.sla_attainment = fraction_where(&evaluable, |x| x > 0.5);
        self.mean_ttft_s = mean(&ttfts);
        self.p90_ttft_s = percentile(&ttfts, 90.0);
        self.mean_ttft_e2e_s = mean(&ttfts_e2e);
        self.p90_ttft_e2e_s = percentile(&ttfts_e2e, 90.0);
        self.mean_tpot_s = mean(&tpots);
        self.p90_tpot_s = percentile(&tpots, 90.0);
        let secs = horizon.as_secs_f64();
        self.goodput_rps = if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        };
    }

    /// SLA attainment restricted to requests that *arrived* inside
    /// `window` (inclusive) — the fault drill's "attainment during the
    /// fault" figure of merit. `None` if no request in the window is
    /// evaluable yet.
    pub fn attainment_in_window(
        reqs: &[ReqState],
        ttft_sla: f64,
        tpot_sla: f64,
        horizon: SimTime,
        window: (SimTime, SimTime),
    ) -> Option<f64> {
        let mut evaluable = Vec::new();
        for r in reqs {
            if r.req.arrival < window.0 || r.req.arrival > window.1 {
                continue;
            }
            if let Some(ok) = sla_verdict(r, ttft_sla, tpot_sla, horizon) {
                evaluable.push(if ok { 1.0 } else { 0.0 });
            }
        }
        if evaluable.is_empty() {
            None
        } else {
            Some(fraction_where(&evaluable, |x| x > 0.5))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_workload::{Request, RequestId};

    fn finished(id: u64, arrival_s: u64, ttft_s: u64, tpot_ms: u64, out: u32) -> ReqState {
        let mut r = ReqState::new(Request {
            id: RequestId(id),
            arrival: SimTime::from_secs(arrival_s),
            input_tokens: 100,
            output_tokens: out,
        });
        r.phase = ReqPhase::Done;
        r.prefill_done = Some(SimTime::from_secs(arrival_s + ttft_s));
        r.decode_start = Some(SimTime::from_secs(arrival_s + ttft_s));
        r.finished = Some(
            SimTime::from_secs(arrival_s + ttft_s)
                + hs_des::SimSpan::from_millis(tpot_ms * out as u64),
        );
        r.tokens_generated = out;
        r
    }

    #[test]
    fn attainment_counts_both_slas() {
        let reqs = vec![
            finished(0, 0, 1, 100, 10), // ttft 1s ok, tpot 0.1 ok
            finished(1, 0, 5, 100, 10), // ttft 5s > 2.5 -> fail
            finished(2, 0, 1, 300, 10), // tpot 0.3 > 0.15 -> fail
            finished(3, 0, 2, 140, 10), // ok
        ];
        let mut rep = SimReport::default();
        rep.summarize(&reqs, 2.5, 0.15, SimTime::from_secs(100));
        assert_eq!(rep.completed, 4);
        assert!((rep.sla_attainment - 0.5).abs() < 1e-9);
        assert!(rep.mean_ttft_s > 0.0);
        // `finished()` starts decode right at prefill completion, so the
        // end-to-end TTFT collapses onto the prefill TTFT here.
        assert!((rep.mean_ttft_e2e_s - rep.mean_ttft_s).abs() < 1e-12);
        assert!((rep.p90_ttft_e2e_s - rep.p90_ttft_s).abs() < 1e-12);
        assert!(rep.goodput_rps > 0.0);
    }

    #[test]
    fn overdue_unfinished_fail_but_pending_excluded() {
        let mut overdue = ReqState::new(Request {
            id: RequestId(0),
            arrival: SimTime::from_secs(0),
            input_tokens: 10,
            output_tokens: 10,
        });
        overdue.phase = ReqPhase::Queued;
        let mut pending = ReqState::new(Request {
            id: RequestId(1),
            arrival: SimTime::from_secs(99),
            input_tokens: 10,
            output_tokens: 10,
        });
        pending.phase = ReqPhase::Queued;
        let ok = finished(2, 0, 1, 100, 10);
        let mut rep = SimReport::default();
        rep.summarize(&[overdue, pending, ok], 2.5, 0.15, SimTime::from_secs(100));
        // Evaluable: overdue (fail) + ok (pass); pending excluded.
        assert!((rep.sla_attainment - 0.5).abs() < 1e-9);
        assert_eq!(rep.completed, 1);
        assert!(!rep.per_request[0].sla_ok);
        assert!(!rep.per_request[1].sla_ok);
        assert!(rep.per_request[2].sla_ok);
    }

    /// Regression: an unfinished decode whose elapsed time already
    /// guarantees a blown TPOT must count as an SLA failure, not be
    /// silently excluded from attainment (which is what the old
    /// `summarize` did — it only checked the TTFT deadline).
    #[test]
    fn tpot_overdue_unfinished_decode_counts_as_fail() {
        let mut stuck = ReqState::new(Request {
            id: RequestId(0),
            arrival: SimTime::from_secs(0),
            input_tokens: 100,
            output_tokens: 10,
        });
        // Prefill met its deadline; decode then stalled (e.g. its KV
        // transfer is stuck on a dead link). By t=100 the best possible
        // final TPOT is 99/10 = 9.9 s/token >> 0.15.
        stuck.phase = ReqPhase::Decoding;
        stuck.prefill_done = Some(SimTime::from_secs(1));
        stuck.decode_start = Some(SimTime::from_secs(1));
        stuck.tokens_generated = 1;
        let ok = finished(1, 0, 1, 100, 10);
        let mut rep = SimReport::default();
        rep.summarize(&[stuck.clone(), ok], 2.5, 0.15, SimTime::from_secs(100));
        assert!(
            !rep.per_request[0].sla_ok,
            "TPOT-overdue decode must fail SLA"
        );
        assert!(
            (rep.sla_attainment - 0.5).abs() < 1e-9,
            "overdue decode must be evaluable (attainment = {})",
            rep.sla_attainment
        );
        // Same request early in its decode window is still pending, not
        // failed: at t=2 it could yet meet TPOT.
        let mut rep2 = SimReport::default();
        rep2.summarize(&[stuck], 2.5, 0.15, SimTime::from_secs(2));
        assert!((rep2.sla_attainment - 0.0).abs() < 1e-9);
        assert!(rep2.per_request.len() == 1 && !rep2.per_request[0].completed);
    }

    #[test]
    fn window_attainment_filters_by_arrival() {
        let reqs = vec![
            finished(0, 5, 1, 100, 10),  // in window, pass
            finished(1, 15, 5, 100, 10), // in window, fail (ttft)
            finished(2, 50, 5, 100, 10), // outside window, fail — ignored
        ];
        let horizon = SimTime::from_secs(100);
        let w = (SimTime::from_secs(0), SimTime::from_secs(20));
        let att = SimReport::attainment_in_window(&reqs, 2.5, 0.15, horizon, w).unwrap();
        assert!((att - 0.5).abs() < 1e-9);
        let empty_w = (SimTime::from_secs(90), SimTime::from_secs(95));
        assert_eq!(
            SimReport::attainment_in_window(&reqs, 2.5, 0.15, horizon, empty_w),
            None
        );
    }

    #[test]
    fn empty_report() {
        let mut rep = SimReport::default();
        rep.summarize(&[], 1.0, 1.0, SimTime::from_secs(10));
        assert_eq!(rep.sla_attainment, 0.0);
        assert_eq!(rep.completed, 0);
    }
}
