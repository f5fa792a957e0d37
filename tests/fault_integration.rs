//! Fault injection end to end: lose one Tofino access switch mid-run,
//! keep serving, recover.
//!
//! The static INA baselines keep asking for the dead switch — the engine
//! counts an `ina_failover` each time and degrades that collective to a
//! ring. HeroServe's online scheduler is *notified* (`on_fault`), marks
//! the adjacent links infinite-cost, and simply stops picking the switch;
//! after recovery its policy table returns to in-network aggregation.

use hs_baselines::{BaselineKind, Deployment};
use hs_bench::scenario::testbed_deployment;
use hs_collective::Scheme;
use hs_des::{SeedSplitter, SimTime};
use hs_topology::builders::testbed;
use hs_topology::NodeId;
use hs_workload::{FaultPlan, Poisson, Trace};

const HORIZON: SimTime = SimTime::from_secs(14);
/// Serve horizon: headroom past the last arrival so requests delayed by
/// the outage can still drain before the report is cut.
const DRAIN: SimTime = SimTime::from_secs(20);

fn outage_plan(switch: NodeId) -> FaultPlan {
    FaultPlan::switch_outage(switch, SimTime::from_secs(4), SimTime::from_secs(9))
}

/// The paper's testbed deployment: TP groups span servers, so tensor
/// collectives cross the Tofino switches under test.
fn deploy(kind: BaselineKind, topo: &hs_topology::builders::BuiltTopology) -> Deployment {
    testbed_deployment(kind, topo, &hs_workload::sharegpt_like(), 2.0)
}

/// The INA switch the static plan actually aggregates on.
fn planned_switch(d: &Deployment) -> NodeId {
    d.output
        .prefill
        .group_schemes
        .iter()
        .chain(&d.output.decode.group_schemes)
        .find_map(|gs| match gs.scheme {
            Scheme::Ina { switch } | Scheme::HierIna { switch } => Some(switch),
            _ => None,
        })
        .expect("INA plan assigns a switch")
}

fn shared_trace() -> Trace {
    let mut rng = SeedSplitter::new(11).stream("trace");
    let mut arr = Poisson::new(2.0);
    Trace::generate(&hs_workload::sharegpt_like(), &mut arr, &mut rng, HORIZON)
}

#[test]
fn static_ina_baseline_fails_over_and_completes() {
    let topo = testbed();
    let trace = shared_trace();
    let healthy = deploy(BaselineKind::DsAtp, &topo).serve(&trace, DRAIN);
    let faulted = deploy(BaselineKind::DsAtp, &topo);
    let switch = planned_switch(&faulted);
    let r = faulted
        .with_faults(outage_plan(switch))
        .serve(&trace, DRAIN);
    assert!(r.arrived > 2, "trace too thin: {} arrivals", r.arrived);
    // The outage may slow requests but must not lose any the healthy run
    // finishes (a tail arrival can out-run the drain margin either way).
    assert!(
        r.completed >= healthy.completed.saturating_sub(1),
        "outage lost requests: {} completed vs {} healthy",
        r.completed,
        healthy.completed
    );
    assert!(
        r.ina_failovers > 0,
        "static INA kept its switch through the outage — failover path untested"
    );
    assert!(
        r.fault_window_attainment.is_some(),
        "fault-window attainment missing despite a scheduled outage"
    );
    assert_eq!(healthy.ina_failovers, 0);
    assert!(healthy.fault_window_attainment.is_none());
}

#[test]
fn heroserve_routes_around_outage_and_returns_to_ina() {
    let topo = testbed();
    let trace = shared_trace();
    let healthy = deploy(BaselineKind::HeroServe, &topo).serve(&trace, DRAIN);
    let r = deploy(BaselineKind::HeroServe, &topo)
        .with_faults(outage_plan(topo.access_switches[0]))
        .serve(&trace, DRAIN);
    assert!(r.arrived > 2);
    assert!(
        r.completed >= healthy.completed.saturating_sub(1),
        "outage lost requests: {} completed vs {} healthy",
        r.completed,
        healthy.completed
    );
    // The notified scheduler avoids the dead switch *before* launch, and
    // once the switch recovers the INA policies win again — so in-network
    // aggregation is used over the run as a whole.
    assert!(
        r.ina_ops > 0,
        "HeroServe never returned to INA after recovery"
    );
    assert!(r.fault_window_attainment.is_some());
}

#[test]
fn healthy_run_reports_no_fault_activity() {
    let topo = testbed();
    let r = deploy(BaselineKind::HeroServe, &topo).serve_trace(11, 2.0, SimTime::from_secs(8));
    assert_eq!(r.ina_failovers, 0);
    assert_eq!(r.aborted_flows, 0);
    assert_eq!(r.flow_retries, 0);
    assert!(r.fault_window_attainment.is_none());
}
