//! Planner walkthrough: watch Algorithm 1 + Algorithm 2 decide.
//!
//! ```sh
//! cargo run --release --example planner_walkthrough
//! ```
//!
//! Steps through the offline planner's machinery directly: all-pairs
//! matrices, constrained k-means grouping, switch selection, INA-vs-ring
//! pricing (Eq. 7's α/β selector), and the final joint decision.

use heroserve::netest::{constrained_kmeans, get_latency, select_switch, SchemeSpace};
use heroserve::planner::{plan, SchemeSpace as Space};
use heroserve::spec::PlannerInput;
use heroserve::system::{default_coefficients, expected_batch, PLANNER_BATCH_Q};
use hs_model::ModelConfig;
use hs_topology::builders::testbed;

fn main() {
    let topo = testbed();
    let model = ModelConfig::opt_66b();
    let workload = hs_workload::sharegpt_like();

    // --- Algorithm 2, step 0: the offline matrices D(i,j), P(k,a). ---
    let ap = topo.gpu_ina_pairs();
    let gpus = topo.all_gpus();
    println!("offline matrices: {} nodes covered", ap.nodes().len());
    println!(
        "  same-server GPU distance {:.1} us, cross-server {:.1} us",
        ap.dist(gpus[0], gpus[1]) / 1e3,
        ap.dist(gpus[0], gpus[4]) / 1e3
    );

    // --- Step 1: constrained k-means groups GPUs by latency. ---
    let groups = constrained_kmeans(&ap, &gpus, 4, 4);
    println!("\nk-means groups (4 x 4):");
    for (i, g) in groups.iter().enumerate() {
        let labels: Vec<&str> = g
            .iter()
            .map(|&n| topo.graph.node(n).label.as_str())
            .collect();
        println!("  group {i}: {labels:?}");
    }

    // --- Steps 2-3: switch selection + scheme pricing per group. ---
    let avail = topo.graph.capacities();
    let cross_group: Vec<_> = topo.gpus_by_server.iter().map(|s| s[0]).collect();
    let sw = select_switch(
        &topo.graph,
        &ap,
        &avail,
        &cross_group,
        &topo.access_switches,
        16 << 20,
    )
    .unwrap();
    println!(
        "\ncross-server group {:?} -> aggregation switch {}",
        cross_group,
        topo.graph.node(sw).label
    );
    for space in [
        SchemeSpace::RingOnly,
        SchemeSpace::InaOnly,
        SchemeSpace::Hybrid,
    ] {
        let (scheme, lat) = get_latency(
            &topo.graph,
            &ap,
            &avail,
            &cross_group,
            &topo.access_switches,
            16 << 20,
            space,
        );
        println!("  {space:?}: {scheme:?} at {:.1} us", lat * 1e6);
    }

    // --- Algorithm 1 end to end. ---
    let input = PlannerInput::interleaved(
        &topo.graph,
        model.clone(),
        default_coefficients(&model),
        expected_batch(&workload, PLANNER_BATCH_Q),
        1.0,
        workload.ttft_sla_s,
        workload.tpot_sla_s,
    );
    let out = plan(&input, Space::Hybrid).expect("feasible");
    println!(
        "\nAlgorithm 1 decision: prefill TP{}xPP{}, decode TP{}xPP{}, H = {:.2} req/s",
        out.prefill.p_tens, out.prefill.p_pipe, out.decode.p_tens, out.decode.p_pipe, out.est_h_rps
    );
    println!(
        "  examined {} candidates ({} SLA-feasible), perturbation <= {} iters, {} latency evals, solved in {:.0} ms",
        out.stats.candidates_examined,
        out.stats.sla_feasible,
        out.stats.max_perturb_iters,
        out.stats.lat_evals,
        out.stats.elapsed_s.unwrap_or(0.0) * 1e3
    );
}
