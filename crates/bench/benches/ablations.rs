//! Ablations of HeroServe's design choices (DESIGN.md experiment index).
//!
//! * scheme space: hybrid vs INA-only vs ring-only (Eq. 7's selector);
//! * online scheduler vs static planner assignment, bursty arrivals;
//! * `γ` smoothing sweep (Eq. 18);
//! * k-means-constrained grouping vs naive order grouping (Alg. 2 step 1);
//! * perturbation on/off (Alg. 2 step 3).

use heroserve::netest::{constrained_kmeans, estimate_network_latency, NetestInput, SchemeSpace};
use heroserve::scheduler::SchedulerParams;
use hs_baselines::BaselineKind;
use hs_bench::scenario::{planner_input, testbed_deployment};
use hs_bench::ExpTable;
use hs_des::{SeedSplitter, SimTime};
use hs_model::ModelConfig;
use hs_topology::builders::testbed;
use serde_json::json;

fn main() {
    let topo = testbed();
    let model = ModelConfig::opt_66b();
    let workload = hs_workload::sharegpt_like();
    let mut table = ExpTable::new("ablations", &["ablation", "variant", "metric", "value"]);

    // ---- 1. Scheme space (planner estimate + served attainment). ----
    for space in [
        SchemeSpace::RingOnly,
        SchemeSpace::InaOnly,
        SchemeSpace::Hybrid,
    ] {
        let input = planner_input(&topo.graph, &model, &workload, 1.0, Some(4), Some(8));
        let h = heroserve::planner::plan(&input, space)
            .map(|o| o.est_ttft_s)
            .unwrap_or(f64::NAN);
        table.push(
            vec![
                "scheme-space".into(),
                format!("{space:?}"),
                "est TTFT (s)".into(),
                format!("{h:.3}"),
            ],
            json!({"ablation": "scheme-space", "variant": format!("{space:?}"), "est_ttft_s": h}),
        );
    }

    // ---- 2. Online scheduler vs static assignment under burst. ----
    {
        let mk = |online: bool| {
            let kind = if online {
                BaselineKind::HeroServe
            } else {
                BaselineKind::DsSwitchml // static INA assignment
            };
            let mut d = testbed_deployment(kind, &topo, &workload, 1.0);
            d.ina_capacity_per_switch = 1;
            d.background = Some((40.0, 256 << 20)); // heavier bursts
            d.serve_trace(17, 1.5, SimTime::from_secs(30))
        };
        let on = mk(true);
        let off = mk(false);
        for (name, r) in [("online (HeroServe)", &on), ("static (planner only)", &off)] {
            table.push(
                vec![
                    "online-scheduler".into(),
                    name.into(),
                    "attainment / mean TTFT".into(),
                    format!("{:.3} / {:.3}s", r.sla_attainment, r.mean_ttft_s),
                ],
                json!({"ablation": "online-scheduler", "variant": name,
                       "attainment": r.sla_attainment, "ttft_mean_s": r.mean_ttft_s,
                       "eth_gb": r.eth_bytes / 1e9, "nvlink_gb": r.nvlink_bytes / 1e9}),
            );
        }
    }

    // ---- 3. Gamma sweep (Eq. 18 smoothing). ----
    for gamma in [0.0f64, 0.3, 0.9] {
        let mut hero = testbed_deployment(BaselineKind::HeroServe, &topo, &workload, 1.0)
            .with_scheduler_params(SchedulerParams {
                gamma,
                ..SchedulerParams::default()
            });
        hero.background = Some((30.0, 256 << 20));
        let r = hero.serve_trace(23, 1.5, SimTime::from_secs(25));
        table.push(
            vec![
                "gamma".into(),
                format!("{gamma}"),
                "attainment / mean TPOT".into(),
                format!("{:.3} / {:.4}s", r.sla_attainment, r.mean_tpot_s),
            ],
            json!({"ablation": "gamma", "variant": gamma,
                   "attainment": r.sla_attainment, "tpot_mean_s": r.mean_tpot_s}),
        );
    }

    // ---- 4 & 5. Grouping + perturbation (Alg. 2 internals). ----
    {
        let ap = topo.gpu_switch_pairs();
        let gpus = topo.all_gpus();
        let avail = topo.graph.capacities();
        let run = |groups_from_kmeans: bool, perturb: usize| -> f64 {
            let mut rng = SeedSplitter::new(3).stream("ablate");
            let input = NetestInput {
                graph: &topo.graph,
                ap: &ap,
                avail: &avail,
                gpus: &gpus,
                n_groups: 4,
                group_size: 4,
                p_pipe: 1,
                sync_bytes: 16 << 20,
                pipe_bytes: 0,
                scheme_space: SchemeSpace::Hybrid,
                ina_switches: &topo.access_switches,
                max_perturb_iters: perturb,
            };
            if groups_from_kmeans {
                let est = estimate_network_latency(&input, &mut rng);
                est.schemes.iter().map(|s| s.latency_s).sum::<f64>()
            } else {
                // Naive strided grouping: group i takes GPUs {i, i+4, ...}
                // — every group spans all four servers, the worst case a
                // latency-blind grouper produces (no k-means, no
                // perturbation).
                let naive: Vec<Vec<_>> = (0..4)
                    .map(|g| (0..4).map(|j| gpus[g + 4 * j]).collect())
                    .collect();
                naive
                    .iter()
                    .map(|g| {
                        heroserve::netest::get_latency(
                            &topo.graph,
                            &ap,
                            &avail,
                            g,
                            &topo.access_switches,
                            16 << 20,
                            SchemeSpace::Hybrid,
                        )
                        .1
                    })
                    .sum::<f64>()
            }
        };
        let kmeans = run(true, 10);
        let naive = run(false, 0);
        let no_perturb = run(true, 0);
        for (name, v) in [
            ("k-means + perturb", kmeans),
            ("k-means, no perturb", no_perturb),
            ("naive order grouping", naive),
        ] {
            table.push(
                vec![
                    "grouping".into(),
                    name.into(),
                    "sum group comm latency (s)".into(),
                    format!("{v:.5}"),
                ],
                json!({"ablation": "grouping", "variant": name, "sum_latency_s": v}),
            );
        }
        // Sanity for the table reader: k-means must not lose to naive.
        assert!(kmeans <= naive + 1e-9, "k-means worse than naive grouping");
        // constrained_kmeans exercised directly for coverage.
        let g = constrained_kmeans(&ap, &gpus, 4, 4);
        assert_eq!(g.len(), 4);
    }

    table.finish();
}
