//! Fault drill: the testbed loses one Tofino access switch mid-run.
//!
//! ```sh
//! cargo run --release --example fault_drill
//! ```
//!
//! At t = 10 s one of the two access switches fails (all of its ports go
//! dark, its aggregation slots drain); at t = 20 s it comes back. Every
//! system replays the *same* request trace against the same fault
//! schedule. The static systems stall flows on dead links and burn INA
//! failovers; HeroServe's online scheduler is notified, marks the dead
//! links infinite-cost, and steers collectives and KV transfers around
//! the hole — then returns to in-network aggregation after recovery.

use hs_baselines::BaselineKind;
use hs_bench::scenario::planner_input;
use hs_des::{SeedSplitter, SimTime};
use hs_model::ModelConfig;
use hs_topology::builders::testbed;
use hs_workload::{FaultPlan, Poisson, Trace};

fn main() {
    let topo = testbed();
    let model = ModelConfig::opt_66b();
    let workload = hs_workload::sharegpt_like();
    let rate = 2.0; // req/s offered
    let horizon = SimTime::from_secs(30);
    let faults = FaultPlan::switch_outage(
        topo.access_switches[0],
        SimTime::from_secs(10),
        SimTime::from_secs(20),
    );

    // One shared trace so every system faces identical arrivals.
    let mut rng = SeedSplitter::new(7).stream("trace");
    let mut arr = Poisson::new(rate);
    let trace = Trace::generate(&workload, &mut arr, &mut rng, horizon);

    println!(
        "OPT-66B chatbot at {rate} req/s; access switch {:?} down 10s-20s of a {}s run\n",
        topo.access_switches[0],
        horizon.as_secs_f64()
    );
    println!(
        "{:<12} {:>10} {:>12} {:>9} {:>8} {:>8} {:>10}",
        "system", "attainment", "fault-window", "failover", "aborted", "retries", "reroute(s)"
    );

    for kind in BaselineKind::all() {
        // The paper's testbed deployment: interleaved ports, TP groups
        // spanning servers, so collectives genuinely cross the switches.
        let input = planner_input(&topo.graph, &model, &workload, rate, Some(4), Some(8));
        let d = kind
            .deploy_with_input(&topo, &input, &workload)
            .unwrap_or_else(|e| panic!("{} failed to plan: {e}", kind.name()))
            .with_faults(faults.clone());
        let r = d.serve(&trace, horizon);
        println!(
            "{:<12} {:>9.1}% {:>11.1}% {:>9} {:>8} {:>8} {:>10.4}",
            kind.name(),
            r.sla_attainment * 100.0,
            r.fault_window_attainment.unwrap_or(0.0) * 100.0,
            r.ina_failovers,
            r.aborted_flows,
            r.flow_retries,
            r.mean_reroute_s,
        );
    }
    println!("\nExpected shape: HeroServe holds the highest attainment inside the fault");
    println!("window — it reroutes instead of stalling — and resumes INA after recovery.");
}
