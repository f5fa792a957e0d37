//! The metric registry and the statistics every metric is computed with.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics with the
//! same units, directions and bounds; a test keeps the two in step.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Where a value comes from: host wall time varies run to run, simulated
/// values are a pure function of the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    Host,
    Sim,
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression. `None` for layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    source: Source,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, source: Source) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
        bound: None,
    }
}

use Better::{Higher, Lower};
use Source::{Host, Sim};

/// End-to-end metrics, measured with tracing off.
pub const E2E: &[Metric] = &[
    e2e("sim_req_per_s", "req/s", Higher, Host, 0.24),
    e2e("setup_s", "s", Lower, Host, 0.25),
    e2e("peak_rss_mib", "MiB", Lower, Host, 0.12),
    e2e("sla_attainment", "fraction", Higher, Sim, 0.05),
    e2e("goodput_rps", "req/s", Higher, Sim, 0.07),
    e2e("ttft_p50_s", "s", Lower, Sim, 0.20),
    e2e("ttft_p90_s", "s", Lower, Sim, 0.24),
    e2e("tpot_p50_s", "s", Lower, Sim, 0.10),
    e2e("tpot_p99_s", "s", Lower, Sim, 0.22),
    e2e("ttft_e2e_p99_s", "s", Lower, Sim, 0.24),
    e2e("eth_gb_per_1k_req", "GB", Lower, Sim, 0.05),
    e2e("gpu_s_per_good_req", "GPU-s", Lower, Sim, 0.07),
    e2e("completed_frac", "fraction", Higher, Sim, 0.02),
];

/// Per-layer metrics, from the probe and trace passes only.
pub const LAYERS: &[Metric] = &[
    layer("workload.trace_gen_s", "s", Lower, Host),
    layer("workload.requests", "count", Higher, Sim),
    layer("topology.all_pairs_s", "s", Lower, Host),
    layer("topology.all_pairs_builds", "count", Lower, Sim),
    layer("planner.plan_s", "s", Lower, Host),
    layer("planner.lat_evals", "count", Lower, Sim),
    layer("planner.candidates_examined", "count", Lower, Sim),
    layer("scheduler.build_s", "s", Lower, Host),
    layer("scheduler.choose_calls", "count", Lower, Sim),
    layer("scheduler.choose_s", "s", Lower, Host),
    layer("scheduler.choose_path_calls", "count", Lower, Sim),
    layer("scheduler.choose_path_s", "s", Lower, Host),
    layer("scheduler.choose_decode_calls", "count", Lower, Sim),
    layer("scheduler.choose_decode_s", "s", Lower, Host),
    layer("scheduler.on_monitor_calls", "count", Lower, Sim),
    layer("scheduler.on_monitor_s", "s", Lower, Host),
    layer("scheduler.on_fault_calls", "count", Lower, Sim),
    layer("scheduler.on_fault_s", "s", Lower, Host),
    layer("scheduler.host_share", "fraction", Lower, Host),
    layer("scheduler.policy_selects", "count", Lower, Sim),
    layer("scheduler.policy_charges", "count", Lower, Sim),
    layer("scheduler.table_refreshes", "count", Lower, Sim),
    layer("scheduler.dead_skipped", "count", Lower, Sim),
    layer("scheduler.kv_est_err_mean_s", "s", Lower, Sim),
    layer("autoscaler.ticks", "count", Lower, Sim),
    layer("autoscaler.on_tick_s", "s", Lower, Host),
    layer("autoscaler.decisions", "count", Lower, Sim),
    layer("autoscaler.scale_ups", "count", Lower, Sim),
    layer("autoscaler.scale_downs", "count", Lower, Sim),
    layer("autoscaler.parks", "count", Lower, Sim),
    layer("autoscaler.mean_active_gpus", "GPUs", Lower, Sim),
    layer("cluster.run_s", "s", Lower, Host),
    layer("cluster.residual_s", "s", Lower, Host),
    layer("cluster.residual_ns_per_req", "ns", Lower, Host),
    layer("cluster.fault_window_host_s", "s", Lower, Host),
    layer("cluster.max_rate_rps", "req/s", Higher, Sim),
    layer("cluster.latency_samples", "count", Higher, Sim),
    layer("cluster.ttft_p99_s", "s", Lower, Sim),
    layer("cluster.queued_mean_s", "s", Lower, Sim),
    layer("cluster.queued_p99_s", "s", Lower, Sim),
    layer("cluster.prefill_mean_s", "s", Lower, Sim),
    layer("cluster.prefill_p99_s", "s", Lower, Sim),
    layer("cluster.kv_transfer_mean_s", "s", Lower, Sim),
    layer("cluster.kv_transfer_p99_s", "s", Lower, Sim),
    layer("cluster.decode_mean_s", "s", Lower, Sim),
    layer("cluster.decode_p99_s", "s", Lower, Sim),
    layer("cluster.kv_transfers", "count", Higher, Sim),
    layer("cluster.kv_deferrals", "count", Lower, Sim),
    layer("cluster.kv_deferral_ratio", "fraction", Lower, Sim),
    layer("cluster.kv_retries", "count", Lower, Sim),
    layer("cluster.flow_retries", "count", Lower, Sim),
    layer("cluster.aborted_flows", "count", Lower, Sim),
    layer("cluster.mean_reroute_s", "s", Lower, Sim),
    layer("cluster.mem_util_mean", "fraction", Higher, Sim),
    layer("cluster.mem_util_max", "fraction", Lower, Sim),
    layer("collective.allreduce", "count", Lower, Sim),
    layer("collective.pipe_hops", "count", Lower, Sim),
    layer("collective.ina", "count", Higher, Sim),
    layer("collective.ring", "count", Lower, Sim),
    layer("collective.hier", "count", Higher, Sim),
    layer("collective.allreduce_p50_s", "s", Lower, Sim),
    layer("collective.allreduce_p99_s", "s", Lower, Sim),
    layer("collective.aborts", "count", Lower, Sim),
    layer("switch.ina_sessions", "count", Higher, Sim),
    layer("switch.ina_fallbacks", "count", Lower, Sim),
    layer("switch.fallback_ratio", "fraction", Lower, Sim),
    layer("switch.ina_failovers", "count", Lower, Sim),
    layer("switch.session_p99_s", "s", Lower, Sim),
    layer("switch.release_underflows", "count", Lower, Sim),
    layer("simnet.flows_started", "count", Lower, Sim),
    layer("simnet.flows_per_req", "count", Lower, Sim),
    layer("simnet.flow_bytes", "bytes", Lower, Sim),
    layer("simnet.flow_aborts", "count", Lower, Sim),
    layer("simnet.link_scales", "count", Lower, Sim),
    layer("simnet.rerated_flows", "count", Lower, Sim),
    layer("simnet.eth_bytes", "bytes", Lower, Sim),
    layer("simnet.nvlink_bytes", "bytes", Lower, Sim),
    layer("simnet.nvlink_share", "fraction", Higher, Sim),
    layer("obs.records", "count", Lower, Sim),
    layer("obs.max_buffered_records", "count", Lower, Sim),
    layer("obs.open_spans", "count", Lower, Sim),
    layer("obs.trace_overhead_frac", "fraction", Lower, Host),
    layer("obs.probe_overhead_frac", "fraction", Lower, Host),
    layer("obs.host_speed", "fraction", Higher, Host),
];

#[cfg(test)]
pub fn find(name: &str) -> Option<&'static Metric> {
    E2E.iter().chain(LAYERS).find(|m| m.name == name)
}

/// Samples that must rank above a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Nearest-rank `pct`-th percentile of ascending `sorted`, or `None`
/// unless at least [`MIN_TAIL`] samples rank above it.
pub fn percentile(sorted: &[f64], pct: usize) -> Option<f64> {
    let n = sorted.len();
    let rank = (pct * n).div_ceil(100).max(1);
    (n >= rank + MIN_TAIL).then(|| sorted[rank - 1])
}

pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
    xs.sort_by(f64::total_cmp);
    xs
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median, averaging the middle pair of an even count.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99), Some(990.0));
        assert_eq!(percentile(&xs, 50), Some(500.0));
        assert_eq!(percentile(&xs[..999], 99), None);
        assert_eq!(percentile(&xs[..20], 50), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50), None);
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    /// BENCHMARK.json must list exactly this registry.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, table) in [("end_to_end", E2E), ("per_layer", LAYERS)] {
            let listed = doc.get(key).and_then(|v| v.as_array()).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, m) in listed.iter().zip(table) {
                let field = |k: &str| entry.get(k).and_then(|v| v.as_str()).unwrap_or_default();
                assert_eq!(field("name"), m.name);
                assert_eq!(field("unit"), m.unit, "{}", m.name);
                assert_eq!(field("better"), m.better.as_str(), "{}", m.name);
                assert_eq!(
                    entry.get("bound").and_then(|v| v.as_f64()),
                    m.bound,
                    "{}",
                    m.name
                );
            }
        }
    }
}
