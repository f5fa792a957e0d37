//! Quickstart: plan a HeroServe deployment and serve a trace.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds the paper's testbed fabric, plans OPT-13B for the chatbot
//! workload, serves a 20-second Poisson trace through the full simulated
//! stack, and prints the serving report.

use hs_baselines::BaselineKind;
use hs_des::SimTime;
use hs_model::ModelConfig;
use hs_topology::builders::testbed;

fn main() {
    // 1. The fabric: 4 GPU servers (A100 + V100), 2 Tofino switches,
    //    NVLink inside servers, cross-connected 100 G ports.
    let topo = testbed();
    println!(
        "fabric: {} GPUs, {} links, {} INA switches",
        topo.all_gpus().len(),
        topo.graph.link_count(),
        topo.graph.ina_switches().len()
    );

    // 2. Offline planning (Algorithm 1): parallelism, placement,
    //    per-group scheme (INA vs ring, heterogeneous variants).
    let workload = hs_workload::sharegpt_like();
    let system = BaselineKind::HeroServe
        .deploy(&topo, &ModelConfig::opt_13b(), &workload, 4.0)
        .expect("planner found a feasible deployment");
    let out = &system.output;
    println!(
        "plan: prefill TP{}xPP{} ({} replicas), decode TP{}xPP{} ({} replicas)",
        out.prefill.p_tens,
        out.prefill.p_pipe,
        out.prefill.instances.len(),
        out.decode.p_tens,
        out.decode.p_pipe,
        out.decode.instances.len()
    );
    println!(
        "estimates: TTFT {:.3}s, TPOT {:.4}s, capacity {:.2} req/s",
        out.est_ttft_s, out.est_tpot_s, out.est_h_rps
    );
    for (i, gs) in out.prefill.group_schemes.iter().enumerate() {
        println!(
            "  prefill group {i}: {:?} ({:.1} us)",
            gs.scheme,
            gs.latency_s * 1e6
        );
    }

    // 3. Serve a trace with the load-aware online scheduler driving
    //    every collective.
    let report = system.serve_trace(42, 4.0, SimTime::from_secs(20));
    println!(
        "served: {}/{} completed, SLA attainment {:.1}%",
        report.completed,
        report.arrived,
        report.sla_attainment * 100.0
    );
    println!(
        "latency: TTFT {:.3}s mean / {:.3}s p90; TPOT {:.4}s mean / {:.4}s p90",
        report.mean_ttft_s, report.p90_ttft_s, report.mean_tpot_s, report.p90_tpot_s
    );
    println!(
        "traffic: {:.1} GB over Ethernet, {:.1} GB over NVLink; {} INA ops, {} ring ops",
        report.eth_bytes / 1e9,
        report.nvlink_bytes / 1e9,
        report.ina_ops,
        report.ring_ops
    );
}
