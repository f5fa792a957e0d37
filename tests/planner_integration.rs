//! Planner integration: Algorithm 1/2 against real topologies at scale.

use heroserve::planner::{plan, SchemeSpace};
use heroserve::spec::PlannerInput;
use heroserve::system::{default_coefficients, expected_batch, PLANNER_BATCH_Q};
use hs_bench::scenario::planner_input;
use hs_collective::Scheme;
use hs_model::ModelConfig;
use hs_topology::builders::{testbed, xtracks, XTracksConfig};
use hs_workload::sharegpt_like;

#[test]
fn plans_opt_175b_on_two_tracks_fabric() {
    let topo = xtracks(&XTracksConfig::two_tracks(2));
    let model = ModelConfig::opt_175b();
    let w = sharegpt_like().with_slas(4.0, 0.2);
    let input = PlannerInput::basic(
        &topo.graph,
        model.clone(),
        default_coefficients(&model),
        expected_batch(&w, PLANNER_BATCH_Q),
        1.0,
        w.ttft_sla_s,
        w.tpot_sla_s,
    );
    let out = plan(&input, SchemeSpace::Hybrid).expect("feasible at scale");
    // 175B needs >= 5 A100-80G worth of memory per replica.
    assert!(out.prefill.p_tens * out.prefill.p_pipe >= 5);
    assert!(out.est_h_rps > 0.0);
    // Every planned instance is valid and GPUs are never double-assigned
    // within a cluster.
    let mut seen = std::collections::HashSet::new();
    for inst in &out.prefill.instances {
        inst.validate().unwrap();
        for g in inst.all_gpus() {
            assert!(seen.insert(g), "GPU {g:?} double-assigned in prefill");
        }
    }
}

#[test]
fn interleaved_allocation_forces_cross_server_groups() {
    let topo = testbed();
    let model = ModelConfig::opt_66b();
    let w = sharegpt_like();
    let input = planner_input(&topo.graph, &model, &w, 1.0, Some(4), None);
    let out = plan(&input, SchemeSpace::Hybrid).expect("feasible");
    // Prefill groups must span servers (only 2 eligible GPUs per server).
    for inst in &out.prefill.instances {
        for stage in &inst.stages {
            let s0 = topo.graph.server_of(stage[0]);
            assert!(
                stage.iter().any(|&g| topo.graph.server_of(g) != s0),
                "tensor group unexpectedly single-server: {stage:?}"
            );
        }
    }
    // And the hybrid space assigns a heterogeneity-aware scheme to them.
    assert!(out
        .prefill
        .group_schemes
        .iter()
        .any(|gs| matches!(gs.scheme, Scheme::HierIna { .. } | Scheme::Ina { .. })));
}

#[test]
fn scheme_spaces_order_estimated_ttft() {
    // On cross-server groups: hybrid <= ina-only <= ring-only TTFT.
    let topo = testbed();
    let model = ModelConfig::opt_66b();
    let w = sharegpt_like();
    let input = planner_input(&topo.graph, &model, &w, 1.0, Some(4), Some(8));
    let ttft = |space| plan(&input, space).expect("feasible").est_ttft_s;
    let ring = ttft(SchemeSpace::RingOnly);
    let ina = ttft(SchemeSpace::InaOnly);
    let hybrid = ttft(SchemeSpace::Hybrid);
    assert!(hybrid <= ina + 1e-9, "hybrid {hybrid} > ina {ina}");
    assert!(ina <= ring + 1e-9, "ina {ina} > ring {ring}");
}

#[test]
fn planner_scales_to_hundreds_of_gpus_quickly() {
    let topo = xtracks(&XTracksConfig::two_tracks(6)); // 288 GPUs
    let model = ModelConfig::opt_175b();
    let w = sharegpt_like().with_slas(4.0, 0.2);
    let input = PlannerInput::basic(
        &topo.graph,
        model.clone(),
        default_coefficients(&model),
        expected_batch(&w, PLANNER_BATCH_Q),
        1.0,
        w.ttft_sla_s,
        w.tpot_sla_s,
    );
    let start = std::time::Instant::now();
    let out = plan(&input, SchemeSpace::Hybrid).expect("feasible");
    // The paper budgets 10 minutes; we demand far less even in debug.
    assert!(
        start.elapsed().as_secs() < 120,
        "planner took {:?}",
        start.elapsed()
    );
    assert!(out.prefill.instances.len() >= 2, "should find replicas");
}
