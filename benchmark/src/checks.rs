//! Outside-in correctness checks on the reports and traces of a pass.
//!
//! Each check compares two things the benchmark can see without looking
//! inside the simulator: the trace it generated, the report it got back
//! and the records the tracer emitted. A failure is a message naming the
//! run; the benchmark exits non-zero if any check fails.

use crate::fold::Spans;
use crate::workloads::{Mode, Sub};

/// Report-level checks, valid for every pass mode.
fn check_report(sub: &Sub, out: &mut Vec<String>) {
    let r = &sub.report;
    if r.arrived != sub.trace_len || r.per_request.len() != sub.trace_len {
        out.push(format!(
            "trace has {} requests, report arrived {} with {} per-request rows",
            sub.trace_len,
            r.arrived,
            r.per_request.len()
        ));
    }
    if r.ina_release_underflows != 0 {
        out.push(format!(
            "{} INA releases without an acquire",
            r.ina_release_underflows
        ));
    }
    if !sub.elastic {
        let expected = sub.gpus as f64 * sub.horizon_s;
        if (r.gpu_seconds - expected).abs() > 1e-9 * expected {
            out.push(format!(
                "gpu_seconds {} != {} GPUs x {} s without an autoscaler",
                r.gpu_seconds, sub.gpus, sub.horizon_s
            ));
        }
    }
}

/// Trace-level checks: the records agree with the report and every
/// paired span kind balances.
fn check_trace(sub: &Sub, out: &mut Vec<String>) {
    let (r, f) = (&sub.report, &sub.fold);
    if f.arrivals != r.arrived as u64 {
        out.push(format!(
            "{} traced arrivals, report arrived {}",
            f.arrivals, r.arrived
        ));
    }
    if f.dones != r.completed as u64 {
        out.push(format!(
            "{} traced completions, report completed {}",
            f.dones, r.completed
        ));
    }
    balanced("kv_flow", &f.kv, out);
    balanced("collective", &f.colls, out);
    balanced("ina_session", &f.ina, out);
}

fn balanced<K: std::hash::Hash + Eq>(kind: &str, s: &Spans<K>, out: &mut Vec<String>) {
    if !s.balanced() {
        out.push(format!(
            "{kind} spans unbalanced: {} ends without a begin, {} begins reopening a span",
            s.orphan_ends, s.double_begins
        ));
    }
}

/// Every failure in one run of a pass.
pub fn check_sub(sub: &Sub, mode: Mode) -> Vec<String> {
    let mut out = Vec::new();
    check_report(sub, &mut out);
    if mode == Mode::Trace {
        check_trace(sub, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::TraceFold;
    use crate::probe::Probe;
    use hs_cluster::SimReport;
    use hs_des::SimTime;
    use hs_obs::event::{track, Ph, Record};

    fn sub(report: SimReport) -> Sub {
        Sub {
            rate: 1.0,
            gpus: 2,
            window_s: 8.0,
            horizon_s: 10.0,
            trace_len: report.arrived,
            elastic: false,
            fold: TraceFold::default(),
            probe: Probe::default(),
            report,
        }
    }

    #[test]
    fn corrupted_reports_trip_the_checks() {
        let good = SimReport {
            gpu_seconds: 20.0,
            ..SimReport::default()
        };
        assert!(check_sub(&sub(good.clone()), Mode::Trace).is_empty());

        let underflow = sub(SimReport {
            ina_release_underflows: 1,
            ..good.clone()
        });
        let short_billing = sub(SimReport {
            gpu_seconds: 19.0,
            ..good.clone()
        });
        let mut lost_requests = sub(good.clone());
        lost_requests.trace_len = 1;
        let untraced_completion = sub(SimReport {
            completed: 1,
            ..good.clone()
        });
        let mut orphan_end = sub(good);
        orphan_end.fold.push(vec![Record {
            t: SimTime::ZERO,
            ph: Ph::End,
            name: "kv_flow",
            cat: "kv",
            pid: track::KV,
            tid: 7,
            args: Vec::new(),
        }]);
        for (bad, found) in [
            (underflow, "INA releases"),
            (short_billing, "gpu_seconds"),
            (lost_requests, "trace has 1 requests"),
            (untraced_completion, "traced completions"),
            (orphan_end, "kv_flow spans unbalanced"),
        ] {
            let failures = check_sub(&bad, Mode::Trace);
            assert_eq!(failures.len(), 1, "{failures:?}");
            assert!(failures[0].contains(found), "{failures:?}");
        }
    }

    #[test]
    fn a_real_traced_pass_is_clean() {
        let pass = crate::workloads::testing::small_pass(Mode::Trace);
        let sub = &pass.subs[0];
        assert_eq!(check_sub(sub, Mode::Trace), Vec::<String>::new());
        let f = &sub.fold;
        assert!(f.kv.begins > 0 && f.allreduce > 0 && f.flows_started > 0);
    }
}
