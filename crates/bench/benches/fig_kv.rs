//! KV-traffic figure (extension) — decode selection under KV congestion.
//!
//! Not a paper figure: the paper's evaluation keeps KV shipment implicit,
//! but on a disaggregated deployment the prefill→decode KV transfer is a
//! first-class fabric tenant. This bench pins the A/B the new machinery
//! enables: the same trace served with the engine's **least-loaded**
//! decode selection vs the **NetKV**-style network-aware selection, on a
//! placement where the choice matters ([`hs_bench::scenario::kv_placement`])
//! — prefill on one GPU pair of server 0, one decode instance co-located on the same server (KV ships
//! over NVLink) and one remote on server 1 (KV crosses the Ethernet
//! uplinks).
//!
//! Scenarios:
//!
//! * **healthy** — idle fabric; both policies should be close, with
//!   NetKV skewing admissions toward the NVLink-local instance.
//! * **congested** — bursty background cross traffic plus a mid-run
//!   brownout of the remote instance's uplinks to 15 % capacity. A
//!   network-oblivious policy keeps alternating onto the crawling links;
//!   NetKV routes around them, which should show up as a lower p90
//!   end-to-end TTFT (arrival → first decode token, KV transfer
//!   included) at equal GPU count.

use heroserve::{HeroScheduler, KvSelection, SchedulerParams};
use hs_bench::scenario::{kv_placement, kv_remote_brownout, kv_workload};
use hs_bench::ExpTable;
use hs_cluster::ClusterSim;
use hs_des::{SeedSplitter, SimSpan, SimTime};
use hs_topology::builders::testbed;
use hs_workload::{FaultPlan, Poisson, Trace};
use serde_json::json;

fn main() {
    let topo = testbed();
    let horizon = SimTime::from_secs(30);
    let rate = 6.0;
    let ap = topo.gpu_ina_pairs();

    let mut rng = SeedSplitter::new(23).stream("trace");
    let mut arr = Poisson::new(rate);
    let trace = Trace::generate(&kv_workload(), &mut arr, &mut rng, horizon);

    // Brownout of the remote decode instance's uplinks for the middle
    // two thirds of the run.
    let congested_faults = kv_remote_brownout(&topo, SimTime::from_secs(5), SimTime::from_secs(25));

    type Scenario<'a> = (&'a str, Option<(f64, u64)>, FaultPlan);
    let scenarios: [Scenario; 2] = [
        ("healthy", None, FaultPlan::none()),
        ("congested", Some((150.0, 8 << 20)), congested_faults),
    ];
    let policies = [
        ("least-loaded", KvSelection::LeastLoaded),
        ("netkv", KvSelection::NetKv),
    ];

    let mut table = ExpTable::new(
        "fig_kv",
        &[
            "scenario",
            "policy",
            "p90 TTFT e2e (s)",
            "mean KV xfer (s)",
            "KV deferrals",
            "KV retries",
            "eth (GB)",
            "nvlink (GB)",
            "admissions local/remote",
        ],
    );

    let mut p90_e2e = std::collections::BTreeMap::new();
    for (scenario, background, faults) in &scenarios {
        for (policy, kv_select) in policies {
            let cfg = kv_placement(&topo, *background, faults.clone());
            let params = SchedulerParams {
                kv_select,
                ..SchedulerParams::default()
            };
            let sched = HeroScheduler::new(&topo.graph, ap.clone(), params);
            let mut sim = ClusterSim::new(&topo.graph, ap.clone(), cfg, &trace, Box::new(sched));
            let r = sim.run(horizon + SimSpan::from_secs(30));
            let (local_adm, _) = sim.kv_managers()[0].counters();
            let (remote_adm, _) = sim.kv_managers()[1].counters();
            p90_e2e.insert((*scenario, policy), r.p90_ttft_e2e_s);
            table.push(
                vec![
                    scenario.to_string(),
                    policy.to_string(),
                    format!("{:.3}", r.p90_ttft_e2e_s),
                    format!("{:.4}", r.mean_kv_transfer_s),
                    r.kv_deferrals.to_string(),
                    r.kv_retries.to_string(),
                    format!("{:.1}", r.eth_bytes / 1e9),
                    format!("{:.1}", r.nvlink_bytes / 1e9),
                    format!("{local_adm}/{remote_adm}"),
                ],
                json!({
                    "scenario": *scenario,
                    "policy": policy,
                    "p90_ttft_e2e_s": r.p90_ttft_e2e_s,
                    "mean_ttft_e2e_s": r.mean_ttft_e2e_s,
                    "p90_ttft_s": r.p90_ttft_s,
                    "mean_kv_transfer_s": r.mean_kv_transfer_s,
                    "p90_kv_transfer_s": r.p90_kv_transfer_s,
                    "mean_kv_est_err_s": r.mean_kv_est_err_s,
                    "kv_transfers": r.kv_transfers,
                    "kv_stripes": r.kv_stripes,
                    "kv_deferrals": r.kv_deferrals,
                    "kv_retries": r.kv_retries,
                    "kv_bytes": r.kv_bytes,
                    "eth_bytes": r.eth_bytes,
                    "nvlink_bytes": r.nvlink_bytes,
                    "admissions_local": local_adm,
                    "admissions_remote": remote_adm,
                    "arrived": r.arrived,
                    "completed": r.completed,
                    "sla_attainment": r.sla_attainment,
                }),
            );
        }
    }
    table.finish();

    let ll = p90_e2e[&("congested", "least-loaded")];
    let nk = p90_e2e[&("congested", "netkv")];
    println!(
        "shape check: congested p90 TTFT-e2e — least-loaded {ll:.3}s vs netkv {nk:.3}s ({})",
        if nk < ll {
            "netkv wins"
        } else {
            "UNEXPECTED: netkv did not win"
        }
    );
}
