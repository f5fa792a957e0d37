//! Summarization serving: long prompts stress prefill communication.
//!
//! ```sh
//! cargo run --release --example summarization_longbench
//! ```
//!
//! The Fig. 7(c)/(d) scenario: LongBench-like prompts (pressed against
//! OPT's 2 k context window) make the tensor-parallel all-reduce volume
//! per prefill batch an order of magnitude larger than the chatbot's —
//! communication scheduling decides TTFT.

use hs_baselines::BaselineKind;
use hs_bench::scenario::planner_input;
use hs_des::SimTime;
use hs_model::ModelConfig;
use hs_topology::builders::testbed;

fn main() {
    let topo = testbed();
    let model = ModelConfig::opt_66b();
    let workload = hs_workload::longbench_like();
    println!(
        "OPT-66B summarization (mean prompt ~1.6k tokens), SLA {}s TTFT / {}s TPOT\n",
        workload.ttft_sla_s, workload.tpot_sla_s
    );

    // Show how the sync volume scales: one prefill batch of 8 prompts.
    let batch_tokens = 8 * 1600u64;
    println!(
        "tensor-parallel sync volume per prefill pass: {:.1} GB ({} tokens x 2 sync points x {} layers)",
        model.sync_bytes_total(batch_tokens) as f64 / 1e9,
        batch_tokens,
        model.layers
    );

    for rate in [0.5f64, 1.5] {
        println!("\n--- offered rate {rate} req/s ---");
        for kind in BaselineKind::all() {
            let input = planner_input(&topo.graph, &model, &workload, rate, Some(4), Some(8));
            let mut d = kind
                .deploy_with_input(&topo, &input, &workload)
                .expect("feasible plan");
            d.ina_capacity_per_switch = 1;
            let r = d.serve_trace(13, rate, SimTime::from_secs(40));
            println!(
                "{:<12} attainment {:>5.1}%  TTFT {:.2}s (p90 {:.2}s)  TPOT {:.4}s",
                kind.name(),
                r.sla_attainment * 100.0,
                r.mean_ttft_s,
                r.p90_ttft_s,
                r.mean_tpot_s,
            );
        }
    }
}
