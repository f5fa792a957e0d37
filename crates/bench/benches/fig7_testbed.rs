//! Fig. 7 — testbed scalability and latency, OPT-66B.
//!
//! Paper setup: 4 GPU servers (2×A100-40G, 2×V100-32G, 4 GPUs each,
//! NVLink inside, 100 G ports cross-connected over two Tofino switches),
//! ShareGPT chatbot (SLA 2.5 s TTFT / 0.15 s TPOT) and LongBench
//! summarization (15 s / 0.15 s), OPT-66B, Poisson arrivals.
//!
//! Paper results to reproduce in *shape*:
//! * (a) chatbot scalability: HeroServe 1.53×/1.42×/1.33× over
//!   DistServe/DS-ATP/DS-SwitchML;
//! * (b) chatbot TPOT reduced 18.6 %–49.2 %;
//! * (c) summarization scalability: 1.68×/1.58×/1.35×;
//! * (d) summarization TTFT −15.2 %…−45.2 %, TPOT −11.2 %…−27.3 %.
//!
//! Scalability = max per-GPU request rate with ≥ 90 % SLA attainment.

use hs_baselines::BaselineKind;
use hs_bench::scenario::testbed_deployment;
use hs_bench::{max_rate_under_sla, ExpTable};
use hs_des::SimTime;
use hs_topology::builders::testbed;
use serde_json::json;

fn main() {
    let topo = testbed();
    let total_gpus = topo.all_gpus().len() as f64;
    let scenarios = [
        ("chatbot", hs_workload::sharegpt_like(), 40u64),
        ("summarization", hs_workload::longbench_like(), 80u64),
    ];

    let mut table = ExpTable::new(
        "fig7_testbed",
        &[
            "scenario",
            "system",
            "max rate (req/s/GPU)",
            "vs DistServe",
            "TTFT mean/p90 (s)",
            "TPOT mean/p90 (s)",
            "paper scalability",
        ],
    );

    for (scenario, workload, dur_s) in scenarios {
        let duration = SimTime::from_secs(dur_s);
        // Plan each system once; sweep rates against the deployment.
        let mut results = Vec::new();
        for kind in BaselineKind::all() {
            // One deployment for every system (DS-ATP/DS-SwitchML are
            // DistServe + INA on the *same* deployment, §V): only the
            // communication scheduling differs — the variable under test.
            results.push((kind, testbed_deployment(kind, &topo, &workload, 1.0)));
        }
        // One *common* rate grid for every system (anchored on the
        // largest planner estimate) so max-rate resolution is identical.
        let h = results
            .iter()
            .map(|(_, d)| d.output.est_h_rps)
            .fold(0.05f64, f64::max);
        let grid: Vec<f64> = [0.2, 0.35, 0.5, 0.65, 0.8, 1.0, 1.2, 1.5, 1.9]
            .iter()
            .map(|f| f * h)
            .collect();
        let mut results: Vec<_> = results
            .into_iter()
            .map(|(kind, mut d)| {
                // Two Tofino switches shared by every tensor group and
                // (in the paper's setting) other tenants: one concurrent
                // aggregation job per switch. SwitchML jobs wait for
                // slots; ATP jobs fall back to Ethernet rings; HeroServe
                // re-routes hierarchically over NVLink.
                d.ina_capacity_per_switch = 1;
                // Shared-cluster cross traffic (§I: bursty conditions):
                // MMPP bulk flows between random GPU pairs, ~40 Gbps mean
                // with 5x bursts.
                d.background = Some((20.0, 256 << 20));
                let sweep = max_rate_under_sla(&d, &grid, 7, duration, 5);
                (kind, d, sweep)
            })
            .collect();
        results.sort_by_key(|(k, _, _)| BaselineKind::all().iter().position(|x| x == k));
        // Latency comparison at a common, universally feasible rate.
        let common_rate = results
            .iter()
            .map(|(_, _, s)| s.max_rate)
            .fold(f64::INFINITY, f64::min)
            .max(0.02)
            * 0.7;
        let dist_rate = results
            .iter()
            .find(|(k, _, _)| *k == BaselineKind::DistServe)
            .map(|(_, _, s)| s.max_rate)
            .unwrap_or(0.0);
        let paper = |k: BaselineKind| match (scenario, k) {
            ("chatbot", BaselineKind::HeroServe) => "1.53x/1.42x/1.33x better",
            ("summarization", BaselineKind::HeroServe) => "1.68x/1.58x/1.35x better",
            _ => "-",
        };
        for (kind, d, sweep) in &results {
            let lat = d.serve_trace(11, common_rate, duration);
            let ratio = if dist_rate > 0.0 {
                sweep.max_rate / dist_rate
            } else {
                0.0
            };
            table.push(
                vec![
                    scenario.to_string(),
                    kind.name().to_string(),
                    format!("{:.4}", sweep.max_rate / total_gpus),
                    format!("{ratio:.2}x"),
                    format!("{:.3}/{:.3}", lat.mean_ttft_s, lat.p90_ttft_s),
                    format!("{:.4}/{:.4}", lat.mean_tpot_s, lat.p90_tpot_s),
                    paper(*kind).to_string(),
                ],
                json!({
                    "scenario": scenario,
                    "system": kind.name(),
                    "max_rate_rps": sweep.max_rate,
                    "max_rate_per_gpu": sweep.max_rate / total_gpus,
                    "vs_distserve": ratio,
                    "common_rate_rps": common_rate,
                    "ttft_mean_s": lat.mean_ttft_s,
                    "ttft_p90_s": lat.p90_ttft_s,
                    "tpot_mean_s": lat.mean_tpot_s,
                    "tpot_p90_s": lat.p90_tpot_s,
                    "sla_attainment_at_common": lat.sla_attainment,
                    "sweep_samples": sweep.samples.clone(),
                }),
            );
        }
    }
    table.finish();
    println!(
        "shape check: HeroServe should lead every scenario; DS-SwitchML > DS-ATP > DistServe."
    );
}
