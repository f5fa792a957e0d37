//! Million-request end-to-end `ClusterSim` scale run (DESIGN.md §12).
//!
//! The ROADMAP north star: serve a 1M-request Poisson trace through the
//! full engine — planner deployment, batching, collectives, KV
//! transfers, monitor sampling — in minutes, with bit-identical output.
//! One trace is generated once and served twice; both runs' report
//! fingerprints (every scalar, every per-request metric, every memory
//! sample, folded bit-for-bit) must be identical. Each row also carries
//! the network engine's solver work counters over the run and the
//! process's peak resident set so far (VmHWM from `/proc/self/status`;
//! null where that file does not exist). Writes `results/scale_1m.json`.
//!
//! `SCALE_REQUESTS` overrides the request count (default 1 000 000) for
//! quick local runs.

use hs_baselines::{BaselineKind, Deployment};
use hs_bench::ExpTable;
use hs_cluster::{ClusterSim, SimReport};
use hs_des::{SeedSplitter, SimSpan, SimTime};
use hs_model::ModelConfig;
use hs_simnet::SolveStats;
use hs_topology::builders::{xtracks, XTracksConfig};
use hs_workload::{sharegpt_like, Poisson, Trace};
use rustc_hash::FxHasher;
use serde_json::json;
use std::hash::Hasher;

/// Fold every observable report field — floats by bit pattern — into one
/// 64-bit fingerprint. Equal fingerprints across runs is the
/// bit-identity claim at ClusterSim granularity.
fn fingerprint(r: &SimReport) -> u64 {
    let mut h = FxHasher::default();
    let f = |h: &mut FxHasher, x: f64| h.write_u64(x.to_bits());
    h.write(r.strategy.as_bytes());
    f(&mut h, r.offered_rate);
    h.write_usize(r.arrived);
    h.write_usize(r.completed);
    f(&mut h, r.sla_attainment);
    f(&mut h, r.mean_ttft_s);
    f(&mut h, r.mean_tpot_s);
    for m in &r.per_request {
        h.write_u64(m.id);
        f(&mut h, m.ttft_s.unwrap_or(f64::NAN));
        f(&mut h, m.ttft_e2e_s.unwrap_or(f64::NAN));
        f(&mut h, m.tpot_s.unwrap_or(f64::NAN));
        h.write_u8(u8::from(m.completed));
        h.write_u8(u8::from(m.sla_ok));
    }
    for s in &r.mem_series {
        h.write_u64(s.t.as_nanos());
        f(&mut h, s.mean_util);
        f(&mut h, s.max_util);
    }
    for v in [
        r.ina_ops,
        r.ring_ops,
        r.ina_fallbacks,
        r.ina_failovers,
        r.ina_release_underflows,
        r.aborted_flows,
        r.flow_retries,
        r.kv_transfers,
        r.kv_stripes,
        r.kv_retries,
        r.kv_deferrals,
    ] {
        h.write_u64(v);
    }
    for v in [
        r.eth_bytes,
        r.nvlink_bytes,
        r.goodput_rps,
        r.mean_reroute_s,
        r.kv_bytes,
        r.mean_kv_transfer_s,
        r.mean_kv_est_err_s,
    ] {
        f(&mut h, v);
    }
    h.finish()
}

/// Peak resident set of this process, MiB (Linux only).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn serve(d: &Deployment, trace: &Trace, horizon: SimTime) -> (SimReport, SolveStats) {
    let margin = SimSpan::from_secs_f64((horizon.as_secs_f64() * 0.25).min(60.0));
    let mut sim = ClusterSim::new(
        &d.topology.graph,
        d.all_pairs(),
        d.cluster_config(),
        trace,
        d.strategy(),
    );
    let report = sim.run(horizon + margin);
    (report, sim.net_solve_stats())
}

fn main() {
    let n_requests: u64 = std::env::var("SCALE_REQUESTS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000);

    let topo = xtracks(&XTracksConfig::two_tracks(2));
    let model = ModelConfig::opt_13b();
    let workload = sharegpt_like();
    let d = BaselineKind::HeroServe
        .deploy(&topo, &model, &workload, 2.0)
        .expect("feasible plan");
    // Offer 80% of planned capacity so the queue stays stable and the
    // trace actually drains end to end.
    let rate = 0.8 * d.output.est_h_rps;
    let horizon = SimTime::from_secs_f64(n_requests as f64 / rate);
    let mut rng = SeedSplitter::new(42).stream("trace");
    let mut arr = Poisson::new(rate);
    let trace = Trace::generate(&workload, &mut arr, &mut rng, horizon);

    let mut table = ExpTable::new(
        "scale_1m",
        &[
            "run",
            "requests",
            "completed",
            "wall_s",
            "req/sec (wall)",
            "scoped solves",
            "flows rated",
            "peak RSS MiB",
            "fingerprint",
        ],
    );
    let mut prints = Vec::new();
    for run in 1..=2 {
        let wall = std::time::Instant::now();
        let (rep, stats) = serve(&d, &trace, horizon);
        let wall_s = wall.elapsed().as_secs_f64();
        let fp = fingerprint(&rep);
        prints.push(fp);
        let rss = peak_rss_mib();
        table.push(
            vec![
                run.to_string(),
                rep.arrived.to_string(),
                rep.completed.to_string(),
                format!("{wall_s:.1}"),
                format!("{:.0}", rep.arrived as f64 / wall_s),
                stats.scoped_solves.to_string(),
                stats.flows_rated.to_string(),
                rss.map_or_else(|| "-".to_string(), |m| format!("{m:.1}")),
                format!("{fp:016x}"),
            ],
            json!({
                "run": run,
                "requests": rep.arrived,
                "completed": rep.completed,
                "wall_s": wall_s,
                "req_per_sec_wall": rep.arrived as f64 / wall_s,
                "scoped_solves": stats.scoped_solves,
                "flows_rated": stats.flows_rated,
                "peak_rss_mib": rss,
                "fingerprint": format!("{fp:016x}"),
            }),
        );
    }
    assert!(
        prints.windows(2).all(|w| w[0] == w[1]),
        "ClusterSim output diverged across repeated runs: {prints:x?}"
    );
    table.finish();
}
