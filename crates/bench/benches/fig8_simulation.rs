//! Fig. 8 — large-scale simulation: scalability and latency, OPT-175B.
//!
//! Paper setup: APEX simulation of A100 pods in two fabrics — **2tracks**
//! (6 servers/pod, 2 access switches) and **8tracks** (16 servers/pod,
//! 8 access switches) — serving OPT-175B with the relaxed simulation
//! SLAs (chatbot 4 s TTFT / 0.2 s TPOT).
//!
//! Paper shapes: scalability ×1.12–1.94 over the baselines in 2tracks and
//! ×1.09–1.83 in 8tracks (the tighter fabric amplifies the win because
//! Ethernet-only synchronization congests); TPOT reduced 28.4–42.1 %.
//!
//! The fabric is scaled down (DESIGN.md fidelity notes): 1–2 pods per
//! flavour, preserving the per-access-switch load contrast.

use hs_baselines::BaselineKind;
use hs_bench::scenario::planner_input;
use hs_bench::{max_rate_under_sla, ExpTable};
use hs_des::SimTime;
use hs_model::ModelConfig;
use hs_topology::builders::{xtracks, XTracksConfig};
use serde_json::json;

fn main() {
    let model = ModelConfig::opt_175b();
    let workload = hs_workload::sharegpt_like().with_slas(4.0, 0.2);
    let duration = SimTime::from_secs(12);

    let mut table = ExpTable::new(
        "fig8_simulation",
        &[
            "fabric",
            "system",
            "max rate (req/s)",
            "vs DistServe",
            "TPOT mean (s)",
            "paper",
        ],
    );

    for (fabric, cfg) in [
        ("2tracks", XTracksConfig::two_tracks(1)),
        ("8tracks", {
            let mut c = XTracksConfig::eight_tracks(1);
            c.servers_per_pod = 8; // scaled (DESIGN.md fidelity notes)
            c
        }),
    ] {
        let topo = xtracks(&cfg);
        let mut results = Vec::new();
        for kind in BaselineKind::all() {
            // OPT-175B across 8-GPU A100-80G servers with interleaved
            // halves: TP-8 tensor groups span two servers.
            let input = planner_input(&topo.graph, &model, &workload, 1.0, Some(8), Some(8));
            match kind.deploy_with_input(&topo, &input, &workload) {
                Ok(mut d) => {
                    d.ina_capacity_per_switch = 2;
                    d.background = Some((10.0, 256 << 20));
                    results.push((kind, d));
                }
                Err(e) => eprintln!("{fabric}: {} failed to plan: {e}", kind.name()),
            }
        }
        let h = results
            .iter()
            .map(|(_, d)| d.output.est_h_rps)
            .fold(0.05f64, f64::max);
        let grid: Vec<f64> = [0.4, 0.8, 1.2].iter().map(|f| f * h).collect();
        let swept: Vec<_> = results
            .iter()
            .map(|(kind, d)| (*kind, max_rate_under_sla(d, &grid, 0.9, 13, duration, 2)))
            .collect();
        let dist = swept
            .iter()
            .find(|(k, _)| *k == BaselineKind::DistServe)
            .map(|(_, s)| s.max_rate)
            .unwrap_or(0.0);
        for (kind, sweep) in &swept {
            let ratio = if dist > 0.0 {
                sweep.max_rate / dist
            } else {
                0.0
            };
            let paper = match (fabric, kind) {
                ("2tracks", BaselineKind::HeroServe) => "x1.12-1.94 over baselines",
                ("8tracks", BaselineKind::HeroServe) => "x1.09-1.83 over baselines",
                _ => "-",
            };
            table.push(
                vec![
                    fabric.to_string(),
                    kind.name().to_string(),
                    format!("{:.3}", sweep.max_rate),
                    format!("{ratio:.2}x"),
                    format!("{:.4}", sweep.report.mean_tpot_s),
                    paper.to_string(),
                ],
                json!({
                    "fabric": fabric,
                    "system": kind.name(),
                    "max_rate_rps": sweep.max_rate,
                    "vs_distserve": ratio,
                    "tpot_mean_s": sweep.report.mean_tpot_s,
                    "samples": sweep.samples.clone(),
                }),
            );
        }
    }
    table.finish();
}
