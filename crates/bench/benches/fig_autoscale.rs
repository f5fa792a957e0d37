//! Autoscaling figure (extension) — elastic vs static capacity.
//!
//! Not a paper figure: the paper deploys fixed prefill/decode clusters;
//! this bench pins down what the elastic control loop (DESIGN.md §13)
//! buys on *time-varying* traffic. The testbed's 16 GPUs are carved into
//! 4 prefill + 4 decode TP=2 slots ([`hs_bench::scenario::elastic_slots`]);
//! the [`heroserve::Autoscaler`] ([`hs_bench::scenario::seeded_autoscaler`]) —
//! seeded from a real planner solve, re-solving online as the windowed
//! rate drifts — parks slots in troughs and re-activates them under
//! load. GPU-seconds are metered per instance (parked slots bill
//! nothing), so we can ask the only fair question: **at equal GPU-hours,
//! who attains more SLA?**
//!
//! Protocol, per (scenario, intensity):
//!
//! 1. run elastic twice; the runs must be bit-identical (equal
//!    [`SimReport::fingerprint`]s, which fold every field);
//! 2. convert elastic GPU-seconds into a mean-active-slot count;
//! 3. run every static (p, d) split whose total is the floor *or ceil*
//!    of that count (ceil gives static ≥ elastic GPU-hours — generous
//!    to the baseline) and take the best attainment among them;
//! 4. report elastic vs best-static, plus the all-on reference.
//!
//! Scenarios: **diurnal** (sinusoid-modulated Poisson, 3 periods),
//! **burst** (MMPP flash crowd, 6× spikes), **heavytail** (Poisson
//! arrivals, Pareto prompt lengths) — each swept over base-rate
//! intensities ×{0.6, 1.0, 1.4}.

use hs_bench::scenario::{elastic_slots, seeded_autoscaler};
use hs_bench::ExpTable;
use hs_cluster::{ClusterSim, ScaleController, SimReport, StaticController};
use hs_des::{SeedSplitter, SimTime};
use hs_topology::builders::{testbed, BuiltTopology};
use hs_topology::AllPairs;
use hs_workload::spec::fixed;
use hs_workload::{heavy_tail_like, Diurnal, Mmpp, Poisson, Trace, WorkloadSpec};
use serde_json::json;

const HORIZON_S: u64 = 60;
const DRAIN_S: u64 = 30;
const GPUS_PER_SLOT: usize = 2;

/// Generate the scenario trace at a base-rate intensity multiplier.
fn make_trace(scenario: &str, intensity: f64) -> (Trace, WorkloadSpec) {
    let horizon = SimTime::from_secs(HORIZON_S);
    let seed = SeedSplitter::new(4242);
    let mut rng = seed.stream(scenario);
    match scenario {
        "diurnal" => {
            // Decode-heavy lengths so the swing stresses both pools —
            // a static split cannot cheat by packing prefill slots.
            let spec = heavy_tail_like();
            let mut arr = Diurnal::new(75.0 * intensity, 0.9, 30.0);
            (Trace::generate(&spec, &mut arr, &mut rng, horizon), spec)
        }
        "burst" => {
            let spec = fixed(256, 16);
            let mut arr = Mmpp::flash_crowd(30.0 * intensity, 6.0);
            (Trace::generate(&spec, &mut arr, &mut rng, horizon), spec)
        }
        "heavytail" => {
            let spec = heavy_tail_like();
            let mut arr = Poisson::new(55.0 * intensity);
            (Trace::generate(&spec, &mut arr, &mut rng, horizon), spec)
        }
        other => panic!("unknown scenario {other}"),
    }
}

fn run_once(
    topo: &BuiltTopology,
    ap: &AllPairs,
    spec: &WorkloadSpec,
    trace: &Trace,
    controller: Option<Box<dyn ScaleController>>,
) -> SimReport {
    let cfg = elastic_slots(topo, spec);
    let strategy = hs_cluster::StaticStrategy::uniform(
        "ring",
        hs_collective::Scheme::Ring,
        hs_cluster::BusyPolicy::FallbackRing,
    );
    let mut sim = ClusterSim::new(&topo.graph, ap.clone(), cfg, trace, Box::new(strategy));
    if let Some(ctl) = controller {
        sim.set_autoscaler(ctl);
    }
    sim.run(SimTime::from_secs(HORIZON_S + DRAIN_S))
}

fn main() {
    let topo = testbed();
    let ap = topo.gpu_ina_pairs();
    // The elastic controller: planner-seeded unit rates, online re-solves.
    let elastic = |spec: &WorkloadSpec, base_rate: f64| -> Option<Box<dyn ScaleController>> {
        Some(Box::new(seeded_autoscaler(&topo, spec, base_rate).0))
    };

    let scenarios = ["diurnal", "burst", "heavytail"];
    let intensities = [0.6, 1.0, 1.4];

    let mut table = ExpTable::new(
        "fig_autoscale",
        &[
            "scenario",
            "intensity",
            "config",
            "attainment",
            "GPU-hours",
            "mean slots",
            "scale up/down",
            "completed",
        ],
    );

    let run_secs = (HORIZON_S + DRAIN_S) as f64;
    let mean_slots = |gpu_seconds: f64| gpu_seconds / (GPUS_PER_SLOT as f64 * run_secs);
    let mut wins: Vec<(String, bool, f64, f64)> = Vec::new();

    for scenario in scenarios {
        for intensity in intensities {
            let (trace, spec) = make_trace(scenario, intensity);
            let base_rate = trace.len() as f64 / HORIZON_S as f64;

            // Elastic, twice: must be bit-identical.
            let e1 = run_once(&topo, &ap, &spec, &trace, elastic(&spec, base_rate));
            let e2 = run_once(&topo, &ap, &spec, &trace, elastic(&spec, base_rate));
            assert_eq!(
                e1.fingerprint(),
                e2.fingerprint(),
                "elastic run not bit-identical ({scenario} x{intensity})"
            );

            // Static baselines at the floor/ceil of elastic mean slots
            // (ceil grants static >= elastic GPU-hours).
            let slots = mean_slots(e1.gpu_seconds);
            let floor = (slots.floor() as usize).max(2);
            let ceil = (slots.ceil() as usize).clamp(2, 8);
            let mut totals = vec![floor];
            if ceil != floor {
                totals.push(ceil);
            }
            let mut best_static: Option<(usize, usize, SimReport)> = None;
            for &total in &totals {
                for p in 1..=total.min(4) {
                    let d = total - p;
                    if !(1..=4).contains(&d) {
                        continue;
                    }
                    let r = run_once(
                        &topo,
                        &ap,
                        &spec,
                        &trace,
                        Some(Box::new(StaticController {
                            prefill: p,
                            decode: d,
                        })),
                    );
                    let better = match &best_static {
                        None => true,
                        Some((_, _, b)) => r.sla_attainment > b.sla_attainment,
                    };
                    if better {
                        best_static = Some((p, d, r));
                    }
                }
            }
            let (bp, bd, bs) = best_static.expect("at least one static split");
            // All-on reference (the unconstrained upper envelope).
            let full = run_once(&topo, &ap, &spec, &trace, None);

            let mut push = |config: &str, r: &SimReport| {
                table.push(
                    vec![
                        scenario.to_string(),
                        format!("{intensity:.1}"),
                        config.to_string(),
                        format!("{:.3}", r.sla_attainment),
                        format!("{:.3}", r.gpu_seconds / 3600.0),
                        format!("{:.2}", mean_slots(r.gpu_seconds)),
                        format!("{}/{}", r.scale_ups, r.scale_downs),
                        format!("{}/{}", r.completed, r.arrived),
                    ],
                    json!({
                        "scenario": scenario,
                        "intensity": intensity,
                        "config": config,
                        "base_rate_rps": base_rate,
                        "sla_attainment": r.sla_attainment,
                        "gpu_seconds": r.gpu_seconds,
                        "gpu_hours": r.gpu_seconds / 3600.0,
                        "mean_active_slots": mean_slots(r.gpu_seconds),
                        "scale_ups": r.scale_ups,
                        "scale_downs": r.scale_downs,
                        "completed": r.completed,
                        "arrived": r.arrived,
                        "mean_ttft_s": r.mean_ttft_s,
                    }),
                );
            };
            push("elastic", &e1);
            push(&format!("static-{bp}p{bd}d"), &bs);
            push("static-4p4d-full", &full);

            wins.push((
                format!("{scenario} x{intensity:.1}"),
                e1.sla_attainment >= bs.sla_attainment,
                e1.sla_attainment,
                bs.sla_attainment,
            ));
        }
    }
    table.finish();

    println!("\nshape check: elastic vs best equal-GPU-hours static");
    for (label, won, e, s) in &wins {
        println!(
            "  {label}: elastic {e:.3} vs static {s:.3} ({})",
            if *won {
                "elastic wins"
            } else {
                "UNEXPECTED: static wins"
            }
        );
    }
    let must_win = wins
        .iter()
        .filter(|(l, _, _, _)| l.starts_with("burst") || l.starts_with("diurnal"))
        .all(|(_, won, _, _)| *won);
    assert!(
        must_win,
        "acceptance: elastic must beat best static on burst and diurnal traces"
    );
}
