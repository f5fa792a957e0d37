//! Fig. 9 — in-network aggregation throughput vs message size.
//!
//! Paper setup: message sizes 4–64 MB under the 2tracks fabric with
//! bursty cross traffic. Result: HeroServe achieves the highest
//! aggregation throughput — +71.7 % over DistServe, +26 % over DS-ATP,
//! +20.1 % over DS-SwitchML (2tracks).
//!
//! Measurement: several cross-server tensor groups run all-reduce back to
//! back for a fixed window under MMPP background congestion; throughput
//! is algorithm bandwidth (payload bytes reduced per second), summed over
//! groups.

use hs_baselines::BaselineKind;
use hs_bench::aggbench::{cross_server_groups, run_agg_bench, AggBenchConfig};
use hs_bench::ExpTable;
use hs_des::SimTime;
use hs_topology::builders::{xtracks, XTracksConfig};
use serde_json::json;

fn main() {
    let topo = xtracks(&XTracksConfig::two_tracks(2));
    let ap = topo.gpu_ina_pairs();
    // 6 groups of 8 GPUs, each spanning servers (paper: concurrent
    // tensor-parallel replicas sharing the fabric's two switch tracks).
    let groups = cross_server_groups(&topo.gpus_by_server, 4, 8, 99);

    let mut table = ExpTable::new(
        "fig9_ina_throughput",
        &[
            "msg size (MB)",
            "system",
            "agg throughput (Gbps)",
            "vs DistServe",
            "fallbacks",
            "paper",
        ],
    );

    for &mb in &[4u64, 16, 64] {
        let mut rows = Vec::new();
        for system in BaselineKind::all() {
            let cfg = AggBenchConfig {
                msg_bytes: mb << 20,
                groups: groups.clone(),
                system,
                ina_capacity_per_switch: 2,
                duration: SimTime::from_secs(5),
                background_rate: 20.0,
                background_bytes: 256 << 20,
            };
            let r = run_agg_bench(&topo.graph, &ap, &cfg, 4242);
            rows.push((system, r));
        }
        let dist = rows
            .iter()
            .find(|(s, _)| *s == BaselineKind::DistServe)
            .map(|(_, r)| r.goodput_bps)
            .unwrap_or(1.0);
        for (system, r) in &rows {
            let paper = if *system == BaselineKind::HeroServe {
                "+71.7%/+26%/+20.1% (2tracks)"
            } else {
                "-"
            };
            table.push(
                vec![
                    format!("{mb}"),
                    system.name().to_string(),
                    format!("{:.2}", r.goodput_bps / 1e9),
                    format!("{:+.1}%", (r.goodput_bps / dist - 1.0) * 100.0),
                    format!("{}", r.fallbacks),
                    paper.to_string(),
                ],
                json!({
                    "msg_mb": mb,
                    "system": system.name(),
                    "goodput_gbps": r.goodput_bps / 1e9,
                    "vs_distserve_pct": (r.goodput_bps / dist - 1.0) * 100.0,
                    "ops": r.ops,
                    "ina_ops": r.ina_ops,
                    "ring_ops": r.ring_ops,
                    "fallbacks": r.fallbacks,
                }),
            );
        }
    }
    table.finish();
    println!("shape check: HeroServe highest at every size; INA systems above ring.");
}
