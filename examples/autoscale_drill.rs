//! Autoscale drill: a flash crowd hits an elastic P/D deployment.
//!
//! ```sh
//! cargo run --release --example autoscale_drill
//! ```
//!
//! The testbed's 16 GPUs are carved into 4 prefill + 4 decode TP=2
//! slots. Traffic is an MMPP flash crowd — calm at 42 req/s with 6×
//! spikes — and the [`heroserve::Autoscaler`] (planner-seeded unit
//! rates, sliding-window signals, asymmetric hysteresis; DESIGN.md §13)
//! parks slots in the calm stretches and re-activates them when a spike
//! lands. The same trace is then replayed against a static half-size
//! deployment and the always-on full deployment.
//!
//! Expected shape: elastic matches the full deployment's SLA attainment
//! at roughly half its GPU-hours; the equal-cost static split loses
//! attainment during spikes. The decision log printed below comes from
//! the `autoscale` trace track (`hs_obs::Tracer`).

use hs_bench::scenario::{elastic_slots, seeded_autoscaler};
use hs_cluster::{ClusterSim, ScaleController, StaticController};
use hs_des::{SeedSplitter, SimTime};
use hs_obs::{MetricsRegistry, Tracer};
use hs_topology::builders::{testbed, BuiltTopology};
use hs_topology::AllPairs;
use hs_workload::spec::fixed;
use hs_workload::{Mmpp, Trace, WorkloadSpec};

const HORIZON_S: u64 = 60;
const DRAIN_S: u64 = 30;

fn serve(
    topo: &BuiltTopology,
    ap: &AllPairs,
    spec: &WorkloadSpec,
    trace: &Trace,
    controller: Option<Box<dyn ScaleController>>,
    tracer: Option<&Tracer>,
) -> hs_cluster::SimReport {
    let strategy = hs_cluster::StaticStrategy::uniform(
        "ring",
        hs_collective::Scheme::Ring,
        hs_cluster::BusyPolicy::FallbackRing,
    );
    let mut sim = ClusterSim::new(
        &topo.graph,
        ap.clone(),
        elastic_slots(topo, spec),
        trace,
        Box::new(strategy),
    );
    if let Some(t) = tracer {
        sim.set_obs(t, &MetricsRegistry::disabled());
    }
    if let Some(ctl) = controller {
        sim.set_autoscaler(ctl);
    }
    sim.run(SimTime::from_secs(HORIZON_S + DRAIN_S))
}

fn main() {
    let topo = testbed();
    let ap = topo.gpu_switch_pairs();
    let spec = fixed(256, 16);

    // Flash-crowd arrivals: calm 42 req/s, 6x spikes.
    let mut rng = SeedSplitter::new(4242).stream("autoscale-drill");
    let mut arr = Mmpp::flash_crowd(42.0, 6.0);
    let trace = Trace::generate(&spec, &mut arr, &mut rng, SimTime::from_secs(HORIZON_S));
    println!(
        "flash crowd: {} requests over {HORIZON_S}s (mean {:.0} req/s, spikes to {:.0})\n",
        trace.len(),
        trace.len() as f64 / HORIZON_S as f64,
        42.0 * 6.0
    );

    // Elastic: planner-seeded controller, decisions traced.
    let (ctl, _) = seeded_autoscaler(&topo, &spec, 42.0);
    let tracer = Tracer::recording();
    let elastic = serve(
        &topo,
        &ap,
        &spec,
        &trace,
        Some(Box::new(ctl)),
        Some(&tracer),
    );

    println!("autoscaler decision log (first 12):");
    let decisions: Vec<_> = tracer
        .records()
        .iter()
        .filter(|r| {
            r.pid == hs_obs::track::AUTOSCALE
                && r.ph == hs_obs::Ph::Instant
                && (r.name == "scale_up" || r.name == "scale_down")
        })
        .cloned()
        .collect();
    for r in decisions.iter().take(12) {
        let arg = |k: &str| r.arg(k).cloned();
        println!(
            "  t={:>6.1}s {:<10} {:<7} {} -> {}",
            r.t.as_secs_f64(),
            r.name,
            arg("pool")
                .and_then(|v| v.as_str().map(String::from))
                .unwrap_or_default(),
            arg("from").and_then(|v| v.as_f64()).unwrap_or(0.0),
            arg("to").and_then(|v| v.as_f64()).unwrap_or(0.0),
        );
    }
    println!("  ({} decisions total)\n", decisions.len());

    // Baselines on the same trace.
    let half = serve(
        &topo,
        &ap,
        &spec,
        &trace,
        Some(Box::new(StaticController {
            prefill: 2,
            decode: 2,
        })),
        None,
    );
    let full = serve(&topo, &ap, &spec, &trace, None, None);

    println!(
        "{:<16} {:>10} {:>10} {:>12} {:>14}",
        "deployment", "attainment", "GPU-hours", "mean GPUs", "scale up/down"
    );
    for (name, r) in [
        ("elastic", &elastic),
        ("static-2p2d", &half),
        ("static-4p4d", &full),
    ] {
        println!(
            "{:<16} {:>9.1}% {:>10.3} {:>12.2} {:>11}/{}",
            name,
            r.sla_attainment * 100.0,
            r.gpu_seconds / 3600.0,
            r.mean_active_gpus,
            r.scale_ups,
            r.scale_downs
        );
    }
    println!("\nExpected shape: elastic rides the spikes (attainment ~ the full deployment)");
    println!("while billing GPU-hours closer to the half-size static split.");
}
