//! Experiment metrics — everything §V measures.

use crate::request::{ReqPhase, ReqState};
use hs_des::SimTime;
use hs_workload::stats::{mean, percentile_in_place};
use rustc_hash::FxHasher;
use std::hash::Hasher;

/// The SLA-attainment target: a system "meets the SLA" at a rate while at
/// least this fraction of requests meets both TTFT and TPOT SLAs (§V-A,
/// "over 90 % of requests"). Max-rate sweeps and the autoscaler's
/// backstop signal both read it.
pub const SLA_ATTAINMENT_TARGET: f64 = 0.9;

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
    /// Requests in the trace, including any due after the horizon.
    pub arrived: usize,
    /// Requests fully completed.
    pub completed: usize,
    /// Per-request metrics: one row per trace request, in trace order.
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

/// Whether a finished request with this TTFT and TPOT meets both SLAs.
/// A missing TTFT or TPOT fails.
pub(crate) fn meets_sla(
    ttft: Option<f64>,
    tpot: Option<f64>,
    ttft_sla: f64,
    tpot_sla: f64,
) -> bool {
    ttft.is_some_and(|t| t <= ttft_sla) && tpot.is_some_and(|t| t <= tpot_sla)
}

/// SLA verdict for one request at `horizon`: `Some(true)` pass,
/// `Some(false)` fail, `None` still pending with all deadlines ahead
/// (excluded from attainment — standard open-loop accounting).
fn sla_verdict(r: &ReqState, ttft_sla: f64, tpot_sla: f64, horizon: SimTime) -> Option<bool> {
    let ttft = r.ttft_secs();
    let tpot = r.tpot_secs();
    if r.phase == ReqPhase::Done {
        return Some(meets_sla(ttft, tpot, ttft_sla, tpot_sla));
    }
    // Unfinished: fail if the TTFT deadline has already passed without a
    // first token, or if decoding has been running long enough that TPOT
    // can no longer be met.
    let overdue_prefill = r.prefill_done().is_none()
        && horizon.saturating_since(r.req.arrival).as_secs_f64() > ttft_sla;
    let overdue_ttft = ttft.map(|t| t > ttft_sla).unwrap_or(false);
    // Best-case final TPOT: even if every remaining token materialized at
    // `horizon`, the mean inter-token time would already exceed the SLA.
    let overdue_tpot = r.req.output_tokens > 0
        && r.prefill_done().or(r.decode_start()).is_some_and(|start| {
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
    ///
    /// Memory: `per_request` is built in place over `reqs`' allocation
    /// (`ReqState` and `ReqMetrics` have the same size and alignment), so
    /// each request keeps one 64-byte slot from its arrival to the
    /// report. The TTFT, end-to-end TTFT and TPOT samples of completed
    /// requests are then gathered one metric at a time into one buffer,
    /// which the p90 sorts in place.
    pub fn summarize(
        &mut self,
        reqs: Vec<ReqState>,
        ttft_sla: f64,
        tpot_sla: f64,
        horizon: SimTime,
    ) {
        self.arrived = reqs.len();
        let mut completed = 0;
        let mut verdicts = Verdicts::default();
        self.per_request = reqs
            .into_iter()
            .map(|r| {
                let done = r.phase == ReqPhase::Done;
                let verdict = sla_verdict(&r, ttft_sla, tpot_sla, horizon);
                verdicts.count(verdict);
                completed += usize::from(done);
                ReqMetrics {
                    id: r.req.id.0,
                    ttft_s: r.ttft_secs(),
                    ttft_e2e_s: r.ttft_e2e_secs(),
                    tpot_s: r.tpot_secs(),
                    completed: done,
                    sla_ok: verdict.unwrap_or(false),
                }
            })
            .collect();
        self.completed = completed;
        self.sla_attainment = verdicts.attainment().unwrap_or(0.0);
        let mut samples = Vec::with_capacity(self.completed);
        let mut mean_p90 = |metric: fn(&ReqMetrics) -> Option<f64>| {
            samples.clear();
            let done = self.per_request.iter().filter(|m| m.completed);
            samples.extend(done.filter_map(metric));
            (mean(&samples), percentile_in_place(&mut samples, 90.0))
        };
        (self.mean_ttft_s, self.p90_ttft_s) = mean_p90(|m| m.ttft_s);
        (self.mean_ttft_e2e_s, self.p90_ttft_e2e_s) = mean_p90(|m| m.ttft_e2e_s);
        (self.mean_tpot_s, self.p90_tpot_s) = mean_p90(|m| m.tpot_s);
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
        let mut verdicts = Verdicts::default();
        for r in reqs {
            if r.req.arrival < window.0 || r.req.arrival > window.1 {
                continue;
            }
            verdicts.count(sla_verdict(r, ttft_sla, tpot_sla, horizon));
        }
        verdicts.attainment()
    }

    /// Exhaustive 64-bit fingerprint: the one fold that says which bits
    /// identify a run (equal fingerprints across runs or builds is the
    /// bit-identity claim). The report, its rows and its samples are
    /// destructured with no `..`, so a new field fails to compile until
    /// folded. Counts fold as `u64`, floats by bit pattern, an `Option` as
    /// a tag then its value, each list's length before its rows; order and
    /// encodings are the benchmark ledger's, so its fingerprints reproduce.
    pub fn fingerprint(&self) -> u64 {
        let SimReport {
            strategy,
            offered_rate,
            arrived,
            completed,
            per_request,
            sla_attainment,
            mean_ttft_s,
            p90_ttft_s,
            mean_tpot_s,
            p90_tpot_s,
            mem_series,
            ina_ops,
            ring_ops,
            ina_fallbacks,
            eth_bytes,
            nvlink_bytes,
            goodput_rps,
            ina_failovers,
            ina_release_underflows,
            aborted_flows,
            flow_retries,
            mean_reroute_s,
            fault_window_attainment,
            kv_transfers,
            kv_stripes,
            kv_retries,
            kv_deferrals,
            kv_bytes,
            mean_kv_transfer_s,
            p90_kv_transfer_s,
            mean_kv_est_err_s,
            mean_ttft_e2e_s,
            p90_ttft_e2e_s,
            scale_ups,
            scale_downs,
            gpu_seconds,
            mean_active_gpus,
            final_prefill_active,
            final_decode_active,
        } = self;
        let mut h = FxHasher::default();
        let opt = |h: &mut FxHasher, v: Option<f64>| match v {
            Some(x) => {
                h.write_u64(1);
                h.write_u64(x.to_bits());
            }
            None => h.write_u64(0),
        };
        h.write(strategy.as_bytes());
        h.write_u64(strategy.len() as u64);
        for &x in [
            arrived,
            completed,
            final_prefill_active,
            final_decode_active,
        ] {
            h.write_u64(x as u64);
        }
        for &x in [
            ina_ops,
            ring_ops,
            ina_fallbacks,
            ina_failovers,
            ina_release_underflows,
            aborted_flows,
            flow_retries,
            kv_transfers,
            kv_stripes,
            kv_retries,
            kv_deferrals,
            scale_ups,
            scale_downs,
        ] {
            h.write_u64(x);
        }
        for &x in [
            offered_rate,
            sla_attainment,
            mean_ttft_s,
            p90_ttft_s,
            mean_tpot_s,
            p90_tpot_s,
            eth_bytes,
            nvlink_bytes,
            goodput_rps,
            mean_reroute_s,
            kv_bytes,
            mean_kv_transfer_s,
            p90_kv_transfer_s,
            mean_kv_est_err_s,
            mean_ttft_e2e_s,
            p90_ttft_e2e_s,
            gpu_seconds,
            mean_active_gpus,
        ] {
            h.write_u64(x.to_bits());
        }
        opt(&mut h, *fault_window_attainment);
        h.write_u64(per_request.len() as u64);
        for m in per_request {
            let ReqMetrics {
                id,
                ttft_s,
                ttft_e2e_s,
                tpot_s,
                completed,
                sla_ok,
            } = *m;
            h.write_u64(id);
            opt(&mut h, ttft_s);
            opt(&mut h, ttft_e2e_s);
            opt(&mut h, tpot_s);
            h.write_u64(u64::from(completed) | u64::from(sla_ok) << 1);
        }
        h.write_u64(mem_series.len() as u64);
        for s in mem_series {
            let MemSample {
                t,
                mean_util,
                max_util,
            } = *s;
            h.write_u64(t.as_nanos());
            h.write_u64(mean_util.to_bits());
            h.write_u64(max_util.to_bits());
        }
        h.finish()
    }
}

/// Tally of SLA verdicts: evaluable requests and those that passed.
#[derive(Default)]
struct Verdicts {
    evaluable: usize,
    passed: usize,
}

impl Verdicts {
    fn count(&mut self, verdict: Option<bool>) {
        if let Some(ok) = verdict {
            self.evaluable += 1;
            self.passed += usize::from(ok);
        }
    }

    /// Passed over evaluable; `None` when nothing was evaluable.
    fn attainment(&self) -> Option<f64> {
        (self.evaluable > 0).then(|| self.passed as f64 / self.evaluable as f64)
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
        r.set_prefill_done(SimTime::from_secs(arrival_s + ttft_s), 0);
        r.set_decode_start(SimTime::from_secs(arrival_s + ttft_s));
        r.set_finished(
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
        rep.summarize(reqs, 2.5, 0.15, SimTime::from_secs(100));
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
        rep.summarize(
            vec![overdue, pending, ok],
            2.5,
            0.15,
            SimTime::from_secs(100),
        );
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
        stuck.set_prefill_done(SimTime::from_secs(1), 0);
        stuck.set_decode_start(SimTime::from_secs(1));
        stuck.tokens_generated = 1;
        let ok = finished(1, 0, 1, 100, 10);
        let mut rep = SimReport::default();
        rep.summarize(vec![stuck.clone(), ok], 2.5, 0.15, SimTime::from_secs(100));
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
        rep2.summarize(vec![stuck], 2.5, 0.15, SimTime::from_secs(2));
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
        rep.summarize(Vec::new(), 1.0, 1.0, SimTime::from_secs(10));
        assert_eq!(rep.sla_attainment, 0.0);
        assert_eq!(rep.completed, 0);
    }

    /// The rows take over the request states' allocation: no second
    /// 64-byte slot per request at the report.
    #[test]
    fn per_request_reuses_the_state_allocation() {
        let reqs: Vec<ReqState> = (0..100).map(|i| finished(i, 0, 1, 100, 10)).collect();
        let (ptr, cap) = (reqs.as_ptr() as usize, reqs.capacity());
        let mut rep = SimReport::default();
        rep.summarize(reqs, 2.5, 0.15, SimTime::from_secs(100));
        assert_eq!(rep.per_request.len(), 100);
        assert_eq!(rep.per_request.as_ptr() as usize, ptr);
        assert_eq!(rep.per_request.capacity(), cap);
    }

    /// One perturbation per field, in declaration order: each must move
    /// the fingerprint.
    #[test]
    fn fingerprint_moves_with_every_field() {
        let sample = || SimReport {
            strategy: "probe".into(),
            per_request: vec![ReqMetrics {
                id: 3,
                ttft_s: Some(0.5),
                ttft_e2e_s: Some(0.6),
                tpot_s: Some(0.05),
                completed: true,
                sla_ok: true,
            }],
            mem_series: vec![MemSample {
                t: SimTime::from_millis(50),
                mean_util: 0.25,
                max_util: 0.5,
            }],
            fault_window_attainment: Some(0.9),
            ..SimReport::default()
        };
        type Poke = fn(&mut SimReport);
        let pokes: [(&str, Poke); 48] = [
            ("strategy", |r| r.strategy.push('x')),
            ("offered_rate", |r| r.offered_rate += 1.0),
            ("arrived", |r| r.arrived += 1),
            ("completed", |r| r.completed += 1),
            ("per_request.len", |r| r.per_request.clear()),
            ("per_request.id", |r| r.per_request[0].id += 1),
            ("per_request.ttft", |r| r.per_request[0].ttft_s = None),
            ("per_request.ttft_e2e", |r| {
                r.per_request[0].ttft_e2e_s = Some(0.7)
            }),
            ("per_request.tpot", |r| r.per_request[0].tpot_s = Some(0.06)),
            ("per_request.completed", |r| {
                r.per_request[0].completed = false
            }),
            ("per_request.sla_ok", |r| r.per_request[0].sla_ok = false),
            ("sla_attainment", |r| r.sla_attainment += 1.0),
            ("mean_ttft_s", |r| r.mean_ttft_s += 1.0),
            ("p90_ttft_s", |r| r.p90_ttft_s += 1.0),
            ("mean_tpot_s", |r| r.mean_tpot_s += 1.0),
            ("p90_tpot_s", |r| r.p90_tpot_s += 1.0),
            ("mem_series.len", |r| r.mem_series.clear()),
            ("mem_series.t", |r| {
                r.mem_series[0].t = SimTime::from_millis(51)
            }),
            ("mem_series.mean", |r| r.mem_series[0].mean_util = 0.3),
            ("mem_series.max", |r| r.mem_series[0].max_util = 0.6),
            ("ina_ops", |r| r.ina_ops += 1),
            ("ring_ops", |r| r.ring_ops += 1),
            ("ina_fallbacks", |r| r.ina_fallbacks += 1),
            ("eth_bytes", |r| r.eth_bytes += 1.0),
            ("nvlink_bytes", |r| r.nvlink_bytes += 1.0),
            ("goodput_rps", |r| r.goodput_rps += 1.0),
            ("ina_failovers", |r| r.ina_failovers += 1),
            ("ina_release_underflows", |r| r.ina_release_underflows += 1),
            ("aborted_flows", |r| r.aborted_flows += 1),
            ("flow_retries", |r| r.flow_retries += 1),
            ("mean_reroute_s", |r| r.mean_reroute_s += 1.0),
            ("fault_window_attainment", |r| {
                r.fault_window_attainment = None
            }),
            ("kv_transfers", |r| r.kv_transfers += 1),
            ("kv_stripes", |r| r.kv_stripes += 1),
            ("kv_retries", |r| r.kv_retries += 1),
            ("kv_deferrals", |r| r.kv_deferrals += 1),
            ("kv_bytes", |r| r.kv_bytes += 1.0),
            ("mean_kv_transfer_s", |r| r.mean_kv_transfer_s += 1.0),
            ("p90_kv_transfer_s", |r| r.p90_kv_transfer_s += 1.0),
            ("mean_kv_est_err_s", |r| r.mean_kv_est_err_s += 1.0),
            ("mean_ttft_e2e_s", |r| r.mean_ttft_e2e_s += 1.0),
            ("p90_ttft_e2e_s", |r| r.p90_ttft_e2e_s += 1.0),
            ("scale_ups", |r| r.scale_ups += 1),
            ("scale_downs", |r| r.scale_downs += 1),
            ("gpu_seconds", |r| r.gpu_seconds += 1.0),
            ("mean_active_gpus", |r| r.mean_active_gpus += 1.0),
            ("final_prefill_active", |r| r.final_prefill_active += 1),
            ("final_decode_active", |r| r.final_decode_active += 1),
        ];
        let base = sample().fingerprint();
        assert_eq!(
            base,
            sample().fingerprint(),
            "fingerprint must be a pure function"
        );
        for (field, poke) in pokes {
            let mut r = sample();
            poke(&mut r);
            assert_ne!(
                r.fingerprint(),
                base,
                "perturbing {field} left the fingerprint unchanged"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hs_workload::{Request, RequestId};
    use proptest::prelude::*;

    /// The helper the old `summarize` computed attainment with.
    fn fraction_where(xs: &[f64], pred: impl Fn(f64) -> bool) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.iter().filter(|&&x| pred(x)).count() as f64 / xs.len() as f64
    }

    /// The `Vec`-based `summarize` this module used to run: one growing
    /// sample list per metric plus a list of `1.0`/`0.0` verdicts, with
    /// cloning percentiles. Kept as the oracle for the counting version.
    fn oracle(reqs: &[ReqState], ttft_sla: f64, tpot_sla: f64, horizon: SimTime) -> SimReport {
        let mut rep = SimReport::default();
        let mut evaluable = Vec::new();
        let mut ttfts = Vec::new();
        let mut ttfts_e2e = Vec::new();
        let mut tpots = Vec::new();
        rep.arrived = reqs.len();
        for r in reqs {
            let completed = r.phase == ReqPhase::Done;
            let ttft = r.ttft_secs();
            let ttft_e2e = r.ttft_e2e_secs();
            let tpot = r.tpot_secs();
            let verdict = sla_verdict(r, ttft_sla, tpot_sla, horizon);
            if let Some(ok) = verdict {
                evaluable.push(if ok { 1.0 } else { 0.0 });
            }
            if completed {
                rep.completed += 1;
                ttfts.extend(ttft);
                ttfts_e2e.extend(ttft_e2e);
                tpots.extend(tpot);
            }
            rep.per_request.push(ReqMetrics {
                id: r.req.id.0,
                ttft_s: ttft,
                ttft_e2e_s: ttft_e2e,
                tpot_s: tpot,
                completed,
                sla_ok: verdict.unwrap_or(false),
            });
        }
        rep.sla_attainment = fraction_where(&evaluable, |x| x > 0.5);
        rep.mean_ttft_s = mean(&ttfts);
        rep.p90_ttft_s = percentile_in_place(&mut ttfts.clone(), 90.0);
        rep.mean_ttft_e2e_s = mean(&ttfts_e2e);
        rep.p90_ttft_e2e_s = percentile_in_place(&mut ttfts_e2e.clone(), 90.0);
        rep.mean_tpot_s = mean(&tpots);
        rep.p90_tpot_s = percentile_in_place(&mut tpots.clone(), 90.0);
        let secs = horizon.as_secs_f64();
        rep.goodput_rps = if secs > 0.0 {
            rep.completed as f64 / secs
        } else {
            0.0
        };
        rep
    }

    /// The oracle's attainment over one arrival window.
    fn oracle_window(
        reqs: &[ReqState],
        ttft_sla: f64,
        tpot_sla: f64,
        horizon: SimTime,
        window: (SimTime, SimTime),
    ) -> Option<f64> {
        let evaluable: Vec<f64> = reqs
            .iter()
            .filter(|r| r.req.arrival >= window.0 && r.req.arrival <= window.1)
            .filter_map(|r| sla_verdict(r, ttft_sla, tpot_sla, horizon))
            .map(|ok| if ok { 1.0 } else { 0.0 })
            .collect();
        if evaluable.is_empty() {
            None
        } else {
            Some(fraction_where(&evaluable, |x| x > 0.5))
        }
    }

    /// One request: arrival and output length, then how far it got —
    /// queued, prefilled, decoding or done — with millisecond gaps that
    /// span the SLAs below, so on-time, overdue-TTFT and overdue-TPOT
    /// requests all occur, plus zero-output ones.
    fn req_state() -> impl Strategy<Value = ReqState> {
        (
            (0u64..60_000, 0u32..50),
            0u8..6,
            (0u64..8_000, 0u64..8_000, 0u64..20_000),
            0u32..40,
        )
            .prop_map(|((arrival_ms, out), stage, (p, d, f), tokens)| {
                // One request in five asks for no output tokens.
                let out = out.saturating_sub(10);
                let arrival = SimTime::from_millis(arrival_ms);
                let mut r = ReqState::new(Request {
                    id: RequestId(0),
                    arrival,
                    input_tokens: 64,
                    output_tokens: out,
                });
                let prefill = arrival + hs_des::SimSpan::from_millis(p);
                let decode = prefill + hs_des::SimSpan::from_millis(d);
                let finish = decode + hs_des::SimSpan::from_millis(f);
                match stage {
                    0 => {}
                    1 => {
                        r.phase = ReqPhase::AwaitingAdmission;
                        r.set_prefill_done(prefill, 0);
                    }
                    2 => {
                        r.phase = ReqPhase::Decoding;
                        r.set_prefill_done(prefill, 0);
                        r.set_decode_start(decode);
                        r.tokens_generated = tokens.min(out);
                    }
                    3 => {
                        // Decode start without a recorded prefill instant:
                        // TPOT falls back to the decode start.
                        r.phase = ReqPhase::Decoding;
                        r.set_decode_start(decode);
                    }
                    _ => {
                        r.phase = ReqPhase::Done;
                        r.set_prefill_done(prefill, 0);
                        r.set_decode_start(decode);
                        r.set_finished(finish);
                        r.tokens_generated = out;
                    }
                }
                r
            })
    }

    /// Request sets: empty one time in eight, all unfinished one time in
    /// eight, otherwise a mix.
    fn req_set() -> impl Strategy<Value = Vec<ReqState>> {
        (0u8..8, proptest::collection::vec(req_state(), 1..60)).prop_map(|(kind, mut v)| {
            match kind {
                0 => v.clear(),
                1 => v
                    .iter_mut()
                    .filter(|r| r.phase == ReqPhase::Done)
                    .for_each(|r| r.phase = ReqPhase::Decoding),
                _ => {}
            }
            for (i, r) in v.iter_mut().enumerate() {
                r.req.id = RequestId(i as u64);
            }
            v
        })
    }

    proptest! {
        /// Counting verdicts and reusing one sample buffer gives the
        /// oracle's report: every summary field bit for bit and every
        /// `per_request` row.
        #[test]
        fn summarize_matches_vec_oracle(
            reqs in req_set(),
            ttft_sla in 0.5f64..5.0,
            tpot_sla in 0.05f64..1.0,
            horizon_ms in 0u64..90_000,
            window_ms in (0u64..60_000, 0u64..60_000),
        ) {
            let horizon = SimTime::from_millis(horizon_ms);
            let want = oracle(&reqs, ttft_sla, tpot_sla, horizon);
            let mut got = SimReport::default();
            got.summarize(reqs.clone(), ttft_sla, tpot_sla, horizon);
            prop_assert_eq!(got.arrived, want.arrived);
            prop_assert_eq!(got.completed, want.completed);
            prop_assert_eq!(&got.per_request, &want.per_request);
            let bits = |r: &SimReport| {
                [
                    r.sla_attainment,
                    r.mean_ttft_s,
                    r.p90_ttft_s,
                    r.mean_ttft_e2e_s,
                    r.p90_ttft_e2e_s,
                    r.mean_tpot_s,
                    r.p90_tpot_s,
                    r.goodput_rps,
                ]
                .map(f64::to_bits)
            };
            prop_assert_eq!(bits(&got), bits(&want));
            let (a, b) = window_ms;
            let window = (SimTime::from_millis(a.min(b)), SimTime::from_millis(a.max(b)));
            let got = SimReport::attainment_in_window(&reqs, ttft_sla, tpot_sla, horizon, window);
            let want = oracle_window(&reqs, ttft_sla, tpot_sla, horizon, window);
            prop_assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits));
        }
    }
}
