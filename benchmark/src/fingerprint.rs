//! Exhaustive 64-bit fingerprint of a [`SimReport`].
//!
//! The report is destructured field by field with no `..`, so a field
//! added to `SimReport`, `ReqMetrics` or `MemSample` stops this file from
//! compiling until it is folded in. Floats fold by bit pattern; every
//! per-request metric and memory sample is included.

use std::hash::Hasher;

use hs_cluster::metrics::MemSample;
use hs_cluster::{ReqMetrics, SimReport};
use rustc_hash::FxHasher;

struct Fold(FxHasher);

impl Fold {
    fn u(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    fn f(&mut self, v: f64) {
        self.0.write_u64(v.to_bits());
    }

    fn opt(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.u(1);
                self.f(x);
            }
            None => self.u(0),
        }
    }
}

pub fn fingerprint(r: &SimReport) -> u64 {
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
    } = r;
    let mut h = Fold(FxHasher::default());
    h.0.write(strategy.as_bytes());
    h.u(strategy.len() as u64);
    for &x in [
        arrived,
        completed,
        final_prefill_active,
        final_decode_active,
    ] {
        h.u(x as u64);
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
        h.u(x);
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
        h.f(x);
    }
    h.opt(*fault_window_attainment);
    h.u(per_request.len() as u64);
    for m in per_request {
        let ReqMetrics {
            id,
            ttft_s,
            ttft_e2e_s,
            tpot_s,
            completed,
            sla_ok,
        } = *m;
        h.u(id);
        h.opt(ttft_s);
        h.opt(ttft_e2e_s);
        h.opt(tpot_s);
        h.u(u64::from(completed) | u64::from(sla_ok) << 1);
    }
    h.u(mem_series.len() as u64);
    for s in mem_series {
        let MemSample {
            t,
            mean_util,
            max_util,
        } = *s;
        h.u(t.as_nanos());
        h.f(mean_util);
        h.f(max_util);
    }
    h.0.finish()
}

/// Fold a sequence of fingerprints (one pass's sub-runs, in order).
pub fn combine(prints: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FxHasher::default();
    for p in prints {
        h.write_u64(p);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_des::SimTime;

    fn sample() -> SimReport {
        SimReport {
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
        }
    }

    /// One perturbation per field, in declaration order: each must move
    /// the fingerprint.
    #[test]
    fn every_field_moves_the_fingerprint() {
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
        let base = fingerprint(&sample());
        assert_eq!(
            base,
            fingerprint(&sample()),
            "fingerprint must be a pure function"
        );
        for (field, poke) in pokes {
            let mut r = sample();
            poke(&mut r);
            assert_ne!(
                fingerprint(&r),
                base,
                "perturbing {field} left the fingerprint unchanged"
            );
        }
    }
}
