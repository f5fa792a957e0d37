//! One workload's measurement: the passes, the checks and the metrics.
//!
//! Order of passes: a warm-up pass (untimed; its fingerprint is the
//! reference every later pass must reproduce), then timed passes with
//! tracing off for the end-to-end metrics, then probe passes and one
//! trace pass for the per-layer metrics. Host-time metrics are medians
//! over their passes. Simulated values are identical in every pass, which
//! the fingerprint check enforces, so they are read from one of them.
//!
//! On a shared host the machine's speed drifts by a quarter over minutes,
//! and run times drift with it. A fixed arithmetic loop that shares no
//! code with the simulator is timed between passes; each pass's host
//! times in the end-to-end metrics are scaled by the loop's reference
//! time over its measured time, averaged over the loops either side.

use std::time::Instant;

use serde_json::{json, Value};

use crate::checks::check_sub;
use crate::fold::TraceFold;
use crate::metrics::{mean, median, percentile, ratio, sorted, Metric, E2E, LAYERS};
use crate::probe::Probe;
use crate::workloads::{run_pass, Clock, Mode, Pass, Sub, Workload, KNEE_ATTAINMENT, KNEE_RATES};

/// Which metric sets to measure.
#[derive(Clone, Copy, Debug)]
pub struct Want {
    pub e2e: bool,
    pub layers: bool,
}

/// Iterations of the calibration loop, and its host seconds on the
/// machine the bounds were set on (a 2-vCPU VM at 2.0 GHz).
const CAL_ITERS: u64 = 10_000_000;
const CAL_REFERENCE_S: f64 = 0.088;

/// Machine speed relative to the reference machine, from the calibration
/// loops timed before and after a pass.
fn speed(before_s: f64, after_s: f64) -> f64 {
    2.0 * CAL_REFERENCE_S / (before_s + after_s)
}

/// Host seconds of the calibration loop.
fn calibration_s() -> f64 {
    let start = Instant::now();
    let (mut x, mut y) = (1.0f64, 7u64);
    for i in 0..CAL_ITERS {
        x = (x * 1.000_000_1 + (i as f64).sqrt()).fract() + 1.0;
        y = y.rotate_left(5) ^ y.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
    std::hint::black_box((x, y));
    start.elapsed().as_secs_f64()
}

/// What a pass leaves behind once its reports are dropped.
struct PassStat {
    clock: Clock,
    probe: Probe,
    /// Machine speed during the pass relative to the reference machine.
    speed: f64,
}

impl PassStat {
    fn of(pass: &Pass, speed: f64) -> PassStat {
        let mut probe = Probe::default();
        for sub in &pass.subs {
            probe.merge(&sub.probe);
        }
        PassStat {
            clock: pass.clock,
            probe,
            speed,
        }
    }

    /// `run_s` at the reference machine's speed.
    fn ref_run_s(&self) -> f64 {
        self.clock.run_s * self.speed
    }

    fn residual_s(&self) -> f64 {
        self.clock.run_s - self.probe.scheduler_secs() - self.probe.on_tick.secs
    }
}

/// Operation tally: requests simulated, and requests in runs whose checks
/// failed.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn pass(&mut self, pass: &Pass, reference: u64) {
        let diverged = pass.fingerprint != reference;
        if diverged {
            self.failures.push(format!(
                "{:?} pass fingerprint {:016x} differs from the warm-up's {reference:016x}",
                pass.mode, pass.fingerprint
            ));
        }
        for (i, sub) in pass.subs.iter().enumerate() {
            let requests = sub.trace_len as u64;
            let found = check_sub(sub, pass.mode);
            self.attempted += requests;
            if diverged || !found.is_empty() {
                self.failed += requests;
            }
            let tag = format!("{:?} pass, run {i}", pass.mode);
            self.failures
                .extend(found.into_iter().map(|m| format!("{tag}: {m}")));
        }
    }
}

fn requests(subs: &[Sub]) -> f64 {
    subs.iter().map(|s| s.trace_len as f64).sum()
}

/// Measure one workload; the result is the child's JSON record.
pub fn measure(w: Workload, seed: u64, seconds: f64, want: Want) -> Value {
    let mut tally = Tally::default();
    let warm = run_pass(w, seed, Mode::Plain);
    let reference = warm.fingerprint;
    tally.pass(&warm, reference);
    let n_requests = requests(&warm.subs);
    let (served, samples) = served(&warm.subs, &mut tally.failures);
    drop(warm);

    // Cycle through `modes` until `seconds` have passed and every mode
    // has run `min` times; one list of pass statistics per mode.
    let repeat = |modes: &[Mode], min: usize, tally: &mut Tally| {
        let start = Instant::now();
        let mut stats: Vec<Vec<PassStat>> = modes.iter().map(|_| Vec::new()).collect();
        let mut before = calibration_s();
        while stats[0].len() < min || start.elapsed().as_secs_f64() < seconds {
            for (&mode, out) in modes.iter().zip(&mut stats) {
                let pass = run_pass(w, seed, mode);
                let after = calibration_s();
                tally.pass(&pass, reference);
                out.push(PassStat::of(&pass, speed(before, after)));
                before = after;
            }
        }
        stats
    };

    let mut out = vec![("workload", json!(w.name())), ("seed", json!(seed))];
    let mut plain = Vec::new();
    if want.e2e {
        plain = repeat(&[Mode::Plain], 3, &mut tally).remove(0);
        let rss = peak_rss_mib();
        if rss.is_none() {
            tally
                .failures
                .push("VmHWM is not readable from /proc/self/status".into());
        }
        let host = [
            (
                "sim_req_per_s",
                median(
                    &plain
                        .iter()
                        .map(|p| n_requests / p.ref_run_s())
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "setup_s",
                median(
                    &plain
                        .iter()
                        .map(|p| p.clock.setup_s() * p.speed)
                        .collect::<Vec<_>>(),
                ),
            ),
            ("peak_rss_mib", rss.unwrap_or(0.0)),
        ];
        out.push(("e2e", ordered(E2E, host.iter().chain(&served))));
    }
    if want.layers {
        // Probe passes alternate with plain ones, which give the overhead
        // baseline, unless the timed passes already did.
        let probes = if plain.is_empty() {
            let mut both = repeat(&[Mode::Plain, Mode::Probe], 1, &mut tally);
            plain = both.remove(0);
            both.remove(0)
        } else {
            repeat(&[Mode::Probe], 1, &mut tally).remove(0)
        };
        let before = calibration_s();
        let traced = run_pass(w, seed, Mode::Trace);
        let traced_speed = speed(before, calibration_s());
        tally.pass(&traced, reference);
        let mut fold = TraceFold::default();
        for sub in &traced.subs {
            fold.merge(&sub.fold);
        }
        let (layers, top) = layers(w, (&traced, traced_speed), &fold, &plain, &probes);
        out.push(("layers", ordered(LAYERS, layers.iter())));
        out.push(("top_host_layers", top));
        out.push(("passes_probe", json!(probes.len())));
    }
    out.push(("passes_timed", json!(plain.len())));
    let per_pass = |f: fn(&PassStat) -> f64| json!(plain.iter().map(f).collect::<Vec<_>>());
    out.push(("timed_run_s", per_pass(|p| p.clock.run_s)));
    out.push(("timed_setup_s", per_pass(|p| p.clock.setup_s())));
    out.push(("timed_speed", per_pass(|p| p.speed)));
    out.push(("samples", samples));
    out.push(("fingerprint", json!(format!("{reference:016x}"))));
    out.push(("correct", json!(tally.failures.is_empty())));
    out.push(("attempted", json!(tally.attempted)));
    out.push(("failed", json!(tally.failed)));
    out.push(("failures", json!(tally.failures.clone())));
    Value::Object(out.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// `values` as a JSON object in registry order; every listed metric must
/// be present.
fn ordered<'a>(table: &[Metric], values: impl Iterator<Item = &'a (&'static str, f64)>) -> Value {
    let values: Vec<_> = values.collect();
    Value::Object(
        table
            .iter()
            .map(|m| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .unwrap_or_else(|| panic!("metric {} was not computed", m.name));
                (m.name.to_string(), json!(v.1))
            })
            .collect(),
    )
}

/// Peak resident set of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Served-system end-to-end metrics, in simulated units.
fn served(subs: &[Sub], failures: &mut Vec<String>) -> (Vec<(&'static str, f64)>, Value) {
    let per_request = || subs.iter().flat_map(|s| &s.report.per_request);
    let done = || per_request().filter(|m| m.completed);
    let sum = |f: &dyn Fn(&Sub) -> f64| subs.iter().map(f).sum::<f64>();
    let sent = per_request().count() as f64;
    let good = per_request().filter(|m| m.sla_ok).count() as f64;
    let ttft = sorted(done().filter_map(|m| m.ttft_s).collect());
    let tpot = sorted(done().filter_map(|m| m.tpot_s).collect());
    let ttft_e2e = sorted(done().filter_map(|m| m.ttft_e2e_s).collect());
    let mut pct = |name: &'static str, xs: &[f64], p: usize| {
        let v = percentile(xs, p);
        if v.is_none() {
            failures.push(format!(
                "{name}: {} samples leave fewer than 10 beyond the {p}th percentile",
                xs.len()
            ));
        }
        (name, v.unwrap_or(0.0))
    };
    let values = vec![
        ("sla_attainment", ratio(good, sent)),
        ("goodput_rps", good / sum(&|s| s.window_s)),
        pct("ttft_p50_s", &ttft, 50),
        pct("ttft_p90_s", &ttft, 90),
        pct("tpot_p50_s", &tpot, 50),
        pct("tpot_p99_s", &tpot, 99),
        pct("ttft_e2e_p99_s", &ttft_e2e, 99),
        (
            "eth_gb_per_1k_req",
            sum(&|s| s.report.eth_bytes) / 1e9 / (sent / 1000.0),
        ),
        (
            "gpu_s_per_good_req",
            ratio(sum(&|s| s.report.gpu_seconds), good),
        ),
        (
            "completed_frac",
            ratio(sum(&|s| s.report.completed as f64), sent),
        ),
    ];
    let samples = json!({
        "sent": sent,
        "ttft": ttft.len(),
        "tpot": tpot.len(),
        "ttft_e2e": ttft_e2e.len(),
    });
    (values, samples)
}

/// Highest ladder rate whose pooled attainment is still at the knee
/// threshold, interpolated linearly between rungs: 0 if the lowest rung
/// misses it, the top rung if none does.
fn knee_rate(subs: &[Sub]) -> f64 {
    let attainment = |rate: f64| {
        let reqs = subs
            .iter()
            .filter(|s| s.rate == rate)
            .flat_map(|s| &s.report.per_request);
        let (n, ok) = reqs.fold((0.0, 0.0), |(n, ok), m| {
            (n + 1.0, ok + f64::from(u8::from(m.sla_ok)))
        });
        ratio(ok, n)
    };
    let curve: Vec<(f64, f64)> = KNEE_RATES.iter().map(|&r| (r, attainment(r))).collect();
    if curve[0].1 < KNEE_ATTAINMENT {
        return 0.0;
    }
    for pair in curve.windows(2) {
        let ((r0, a0), (r1, a1)) = (pair[0], pair[1]);
        if a1 < KNEE_ATTAINMENT {
            return r0 + (r1 - r0) * (a0 - KNEE_ATTAINMENT) / (a0 - a1);
        }
    }
    curve[curve.len() - 1].0
}

/// Per-layer metrics and the three layers with the most host time.
fn layers(
    w: Workload,
    (traced, traced_speed): (&Pass, f64),
    fold: &TraceFold,
    plain: &[PassStat],
    probes: &[PassStat],
) -> (Vec<(&'static str, f64)>, Value) {
    let med = |f: &dyn Fn(&PassStat) -> f64| median(&probes.iter().map(f).collect::<Vec<_>>());
    let subs = &traced.subs;
    let reports = || subs.iter().map(|s| &s.report);
    let sum_u = |f: &dyn Fn(&hs_cluster::SimReport) -> u64| reports().map(f).sum::<u64>() as f64;
    let sum_f = |f: &dyn Fn(&hs_cluster::SimReport) -> f64| reports().map(f).sum::<f64>();
    let n_req = requests(subs);
    let probe = &probes[0].probe;
    let planner = traced.planner.unwrap_or_default();
    let p = |xs: &[f64], pct: usize| percentile(&sorted(xs.to_vec()), pct).unwrap_or(0.0);
    let plain_run = median(&plain.iter().map(PassStat::ref_run_s).collect::<Vec<_>>());
    let run_s = med(&|s| s.clock.run_s);
    let residual_s = med(&|s| s.residual_s());
    let elastic: Vec<&Sub> = subs.iter().filter(|s| s.elastic).collect();
    let eth = sum_f(&|r| r.eth_bytes);
    let nvlink = sum_f(&|r| r.nvlink_bytes);
    let mem: Vec<_> = reports().flat_map(|r| &r.mem_series).collect();
    let kv_transfers = sum_u(&|r| r.kv_transfers);
    let ttft: Vec<f64> = reports()
        .flat_map(|r| &r.per_request)
        .filter(|m| m.completed)
        .filter_map(|m| m.ttft_s)
        .collect();
    let mut values = vec![
        ("workload.trace_gen_s", med(&|s| s.clock.trace_gen_s)),
        ("workload.requests", n_req),
        ("topology.all_pairs_s", med(&|s| s.clock.all_pairs_s)),
        (
            "topology.all_pairs_builds",
            traced.clock.all_pairs_builds as f64,
        ),
        ("planner.plan_s", med(&|s| s.clock.plan_s)),
        ("planner.lat_evals", planner.lat_evals as f64),
        (
            "planner.candidates_examined",
            planner.candidates_examined as f64,
        ),
        ("scheduler.build_s", med(&|s| s.clock.strategy_s)),
        ("scheduler.choose_calls", probe.choose.n as f64),
        ("scheduler.choose_s", med(&|s| s.probe.choose.secs)),
        ("scheduler.choose_path_calls", probe.choose_path.n as f64),
        (
            "scheduler.choose_path_s",
            med(&|s| s.probe.choose_path.secs),
        ),
        (
            "scheduler.choose_decode_calls",
            probe.choose_decode.n as f64,
        ),
        (
            "scheduler.choose_decode_s",
            med(&|s| s.probe.choose_decode.secs),
        ),
        ("scheduler.on_monitor_calls", probe.on_monitor.n as f64),
        ("scheduler.on_monitor_s", med(&|s| s.probe.on_monitor.secs)),
        ("scheduler.on_fault_calls", probe.on_fault.n as f64),
        ("scheduler.on_fault_s", med(&|s| s.probe.on_fault.secs)),
        (
            "scheduler.host_share",
            med(&|s| s.probe.scheduler_secs() / s.clock.run_s),
        ),
        ("scheduler.policy_selects", fold.policy_selects as f64),
        ("scheduler.policy_charges", fold.policy_charges as f64),
        ("scheduler.table_refreshes", fold.table_refreshes as f64),
        ("scheduler.dead_skipped", fold.dead_skipped as f64),
        (
            "scheduler.kv_est_err_mean_s",
            ratio(fold.kv_est_err_sum_s, fold.kv_est_err_n as f64),
        ),
        ("autoscaler.ticks", probe.on_tick.n as f64),
        ("autoscaler.on_tick_s", med(&|s| s.probe.on_tick.secs)),
        ("autoscaler.decisions", probe.decisions as f64),
        ("autoscaler.scale_ups", sum_u(&|r| r.scale_ups)),
        ("autoscaler.scale_downs", sum_u(&|r| r.scale_downs)),
        ("autoscaler.parks", fold.parks as f64),
        (
            "autoscaler.mean_active_gpus",
            mean(
                &elastic
                    .iter()
                    .map(|s| s.report.mean_active_gpus)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("cluster.run_s", run_s),
        ("cluster.residual_s", residual_s),
        ("cluster.residual_ns_per_req", residual_s / n_req * 1e9),
        (
            "cluster.fault_window_host_s",
            med(&|s| s.probe.fault_window_host_s),
        ),
        (
            "cluster.max_rate_rps",
            if w == Workload::TestbedKnee {
                knee_rate(subs)
            } else {
                0.0
            },
        ),
        ("cluster.latency_samples", ttft.len() as f64),
        ("cluster.ttft_p99_s", p(&ttft, 99)),
        ("cluster.kv_transfers", kv_transfers),
        ("cluster.kv_deferrals", sum_u(&|r| r.kv_deferrals)),
        (
            "cluster.kv_deferral_ratio",
            ratio(sum_u(&|r| r.kv_deferrals), kv_transfers),
        ),
        ("cluster.kv_retries", sum_u(&|r| r.kv_retries)),
        ("cluster.flow_retries", sum_u(&|r| r.flow_retries)),
        ("cluster.aborted_flows", sum_u(&|r| r.aborted_flows)),
        (
            "cluster.mean_reroute_s",
            ratio(fold.reroute_sum_s, fold.reroutes as f64),
        ),
        (
            "cluster.mem_util_mean",
            mean(&mem.iter().map(|m| m.mean_util).collect::<Vec<_>>()),
        ),
        (
            "cluster.mem_util_max",
            mem.iter().map(|m| m.max_util).fold(0.0, f64::max),
        ),
        ("collective.allreduce", fold.allreduce as f64),
        ("collective.pipe_hops", fold.pipe_hops as f64),
        ("collective.ina", fold.scheme_ina as f64),
        ("collective.ring", fold.scheme_ring as f64),
        ("collective.hier", fold.scheme_hier as f64),
        ("collective.allreduce_p50_s", p(&fold.allreduce_secs, 50)),
        ("collective.allreduce_p99_s", p(&fold.allreduce_secs, 99)),
        ("collective.aborts", fold.coll_aborts as f64),
        ("switch.ina_sessions", fold.ina.begins as f64),
        ("switch.ina_fallbacks", fold.ina_fallbacks as f64),
        (
            "switch.fallback_ratio",
            ratio(
                fold.ina_fallbacks as f64,
                (fold.ina.begins + fold.ina_fallbacks) as f64,
            ),
        ),
        ("switch.ina_failovers", sum_u(&|r| r.ina_failovers)),
        ("switch.session_p99_s", p(&fold.ina_session_secs, 99)),
        (
            "switch.release_underflows",
            sum_u(&|r| r.ina_release_underflows),
        ),
        ("simnet.flows_started", fold.flows_started as f64),
        ("simnet.flows_per_req", fold.flows_started as f64 / n_req),
        ("simnet.flow_bytes", fold.flow_bytes as f64),
        ("simnet.flow_aborts", fold.flow_aborts as f64),
        ("simnet.link_scales", fold.link_scales as f64),
        ("simnet.rerated_flows", fold.rerated_flows as f64),
        ("simnet.eth_bytes", eth),
        ("simnet.nvlink_bytes", nvlink),
        ("simnet.nvlink_share", ratio(nvlink, eth + nvlink)),
        ("obs.records", fold.records as f64),
        ("obs.max_buffered_records", fold.max_batch as f64),
        ("obs.open_spans", fold.open_spans() as f64),
        (
            "obs.trace_overhead_frac",
            traced.clock.run_s * traced_speed / plain_run - 1.0,
        ),
        (
            "obs.probe_overhead_frac",
            med(&PassStat::ref_run_s) / plain_run - 1.0,
        ),
        ("obs.host_speed", med(&|s| s.speed)),
    ];
    for (xs, (mean_name, p99_name)) in fold.phase_secs.iter().zip(PHASE_METRICS) {
        values.push((mean_name, mean(xs)));
        values.push((p99_name, p(xs, 99)));
    }

    let mut host = [
        ("workload", med(&|s| s.clock.trace_gen_s)),
        (
            "topology",
            med(&|s| s.clock.topology_s + s.clock.all_pairs_s),
        ),
        ("planner", med(&|s| s.clock.plan_s)),
        (
            "scheduler",
            med(&|s| s.clock.strategy_s + s.probe.scheduler_secs()),
        ),
        ("autoscaler", med(&|s| s.probe.on_tick.secs)),
        ("cluster", med(&|s| s.clock.sim_new_s + s.residual_s())),
    ];
    let total: f64 = host.iter().map(|(_, v)| v).sum();
    host.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top = host
        .iter()
        .take(3)
        .map(|(name, s)| json!({"layer": *name, "host_s": *s, "share": *s / total}))
        .collect::<Vec<_>>();
    (values, Value::Array(top))
}

/// Mean and p99 metric names per request phase, in `fold::PHASES` order.
const PHASE_METRICS: [(&str, &str); 4] = [
    ("cluster.queued_mean_s", "cluster.queued_p99_s"),
    ("cluster.prefill_mean_s", "cluster.prefill_p99_s"),
    ("cluster.kv_transfer_mean_s", "cluster.kv_transfer_p99_s"),
    ("cluster.decode_mean_s", "cluster.decode_p99_s"),
];
