//! Fault drill — graceful degradation under fabric faults (extension).
//!
//! Not a paper figure: the paper's testbed never loses a switch, but a
//! serving system on a shared cluster will. This bench replays one
//! request trace against two fault schedules on the 16-GPU testbed:
//!
//! * **switch outage** — one of the two Tofino access switches dies for
//!   a third of the run, taking its ports and aggregation slots with it;
//! * **link brownout** — a server uplink degrades to 10 % capacity for
//!   the same window (flows survive but crawl).
//!
//! Reported per system: overall SLA attainment, attainment restricted to
//! requests arriving *inside* the fault window, and the recovery
//! counters (INA failovers, aborted flows, flow retries, mean time to a
//! rerouted relaunch). Expected shape: HeroServe's notified scheduler
//! holds the highest fault-window attainment; the static INA systems
//! burn failovers; DistServe stalls flows on dead links until recovery.

use hs_baselines::BaselineKind;
use hs_bench::scenario::planner_input;
use hs_bench::ExpTable;
use hs_des::{SeedSplitter, SimTime};
use hs_model::ModelConfig;
use hs_topology::builders::testbed;
use hs_workload::{FaultPlan, Poisson, Trace};
use serde_json::json;

fn main() {
    let topo = testbed();
    let model = ModelConfig::opt_66b();
    let workload = hs_workload::sharegpt_like();
    let rate = 2.0;
    let horizon = SimTime::from_secs(30);
    let (from, to) = (SimTime::from_secs(10), SimTime::from_secs(20));

    // A server-0 uplink for the brownout scenario: any Ethernet link
    // touching the first access switch and a GPU/NIC (not inter-switch).
    let sw = topo.access_switches[0];
    let uplink = topo
        .graph
        .links()
        .find(|(_, l)| {
            (l.a == sw || l.b == sw) && !topo.access_switches.contains(&l.other(sw).unwrap())
        })
        .map(|(id, _)| id)
        .expect("access switch has uplinks");

    let scenarios = [
        ("switch_outage", FaultPlan::switch_outage(sw, from, to)),
        (
            "link_brownout",
            FaultPlan::link_brownout(uplink, 0.1, from, to),
        ),
    ];

    let mut rng = SeedSplitter::new(7).stream("trace");
    let mut arr = Poisson::new(rate);
    let trace = Trace::generate(&workload, &mut arr, &mut rng, horizon);

    let mut table = ExpTable::new(
        "fig_faults",
        &[
            "scenario",
            "system",
            "attainment",
            "fault-window att.",
            "INA failovers",
            "aborted flows",
            "retries",
            "mean reroute (s)",
        ],
    );

    for (scenario, faults) in &scenarios {
        for kind in BaselineKind::all() {
            // The paper's testbed deployment: interleaved ports, TP
            // groups spanning servers, so collectives cross the switches.
            let input = planner_input(&topo.graph, &model, &workload, rate, Some(4), Some(8));
            let d = kind
                .deploy_with_input(&topo, &input, &workload)
                .unwrap_or_else(|e| panic!("{} failed to plan: {e}", kind.name()))
                .with_faults(faults.clone());
            let r = d.serve(&trace, horizon);
            let window = r.fault_window_attainment.unwrap_or(f64::NAN);
            table.push(
                vec![
                    scenario.to_string(),
                    kind.name().to_string(),
                    format!("{:.1}%", r.sla_attainment * 100.0),
                    format!("{:.1}%", window * 100.0),
                    r.ina_failovers.to_string(),
                    r.aborted_flows.to_string(),
                    r.flow_retries.to_string(),
                    format!("{:.4}", r.mean_reroute_s),
                ],
                json!({
                    "scenario": *scenario,
                    "system": kind.name(),
                    "sla_attainment": r.sla_attainment,
                    "fault_window_attainment": r.fault_window_attainment,
                    "ina_failovers": r.ina_failovers,
                    "aborted_flows": r.aborted_flows,
                    "flow_retries": r.flow_retries,
                    "mean_reroute_s": r.mean_reroute_s,
                    "arrived": r.arrived,
                    "completed": r.completed,
                }),
            );
        }
    }
    table.finish();
    println!("shape check: HeroServe should hold the best fault-window attainment.");
}
