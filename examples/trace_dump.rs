//! Record a faulted HeroServe run and dump it as a loadable trace.
//!
//! ```sh
//! cargo run --release --example trace_dump
//! ```
//!
//! Serves a short chatbot trace on the testbed while one access switch
//! dies and recovers, with the full observability stack attached: the
//! engine, the network simulator, and the online scheduler all record
//! into one [`hs_obs::Tracer`]. The run writes
//!
//! * `results/trace_dump.json` — Chrome trace-event JSON; open it in
//!   `chrome://tracing` or <https://ui.perfetto.dev>,
//! * `results/trace_dump.jsonl` — one compact JSON object per event,
//!
//! then re-parses the Chrome trace and asserts the events the paper's
//! observability story needs are actually there: request-lifecycle
//! spans, the scheduler's Eq. 16 policy-selection audit, and a fault
//! reroute. It also checks that the trace agrees with the report on
//! arrivals, completions and KV transfers. CI runs this example as a
//! trace-format regression test.

use hs_baselines::BaselineKind;
use hs_bench::scenario::testbed_deployment;
use hs_des::{SeedSplitter, SimTime};
use hs_obs::{chrome_trace, jsonl, Tracer};
use hs_topology::builders::testbed;
use hs_workload::{FaultKind, FaultPlan, Poisson, Trace};

fn main() {
    let topo = testbed();
    let workload = hs_workload::sharegpt_like();
    let rate = 4.0;
    let horizon = SimTime::from_secs(30);
    // One access switch dies and recovers; on top of that, server 0's
    // uplinks flap briefly. KV transfers are short, so the flap is what
    // reliably tears out an in-flight flow and forces a reroute.
    let mut faults = FaultPlan::switch_outage(
        topo.access_switches[0],
        SimTime::from_secs(10),
        SimTime::from_secs(20),
    );
    for &gpu in &topo.gpus_by_server[0] {
        for &(nb, l) in topo.graph.neighbors(gpu) {
            if topo.access_switches.contains(&nb) {
                faults.push(SimTime::from_secs(13), FaultKind::LinkDown { link: l });
                faults.push(SimTime::from_secs(16), FaultKind::LinkUp { link: l });
            }
        }
    }

    let mut rng = SeedSplitter::new(7).stream("trace");
    let mut arr = Poisson::new(rate);
    let trace = Trace::generate(&workload, &mut arr, &mut rng, horizon);

    // TP groups span servers, so collectives cross the failing switches.
    let d = testbed_deployment(BaselineKind::HeroServe, &topo, &workload, rate).with_faults(faults);

    let tracer = Tracer::recording();
    let report = d.serve_observed(&trace, horizon, &tracer);

    let records = tracer.records();
    let chrome = chrome_trace(&records);
    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/trace_dump.json", &chrome).expect("write chrome trace");
    std::fs::write("results/trace_dump.jsonl", jsonl(&records)).expect("write jsonl");

    println!(
        "served {} requests ({} completed, attainment {:.1}%), {} trace events",
        report.arrived,
        report.completed,
        report.sla_attainment * 100.0,
        records.len()
    );

    // ------------------------------------------------------------------
    // Self-validation: the emitted file must round-trip through a JSON
    // parser and carry the events the trace exists for.
    // ------------------------------------------------------------------
    let doc = serde_json::from_str(&chrome).expect("Chrome trace JSON must parse");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "trace is empty");

    let field = |e: &serde_json::Value, k: &str| -> Option<String> {
        e.get(k).and_then(|v| v.as_str()).map(str::to_owned)
    };
    let count = |name: &str, ph: &str| {
        events
            .iter()
            .filter(|e| field(e, "name").as_deref() == Some(name))
            .filter(|e| field(e, "ph").as_deref() == Some(ph))
            .count()
    };

    // Request lifecycle: paired spans for every phase plus terminal
    // instants.
    for phase in ["queued", "prefill", "kv_transfer", "decode"] {
        assert!(count(phase, "B") > 0, "no {phase} span begins");
        assert!(count(phase, "E") > 0, "no {phase} span ends");
    }
    assert!(count("done", "i") > 0, "no completion instants");

    // The trace agrees with the report: one arrival instant per arrival,
    // one completion instant per completion, one KV span per shipment.
    assert_eq!(count("arrival", "i"), report.arrived, "arrival instants");
    assert_eq!(count("done", "i"), report.completed, "completion instants");
    assert_eq!(
        count("kv_transfer", "B") as u64,
        report.kv_transfers,
        "kv_transfer span begins"
    );

    // Policy-selection audit: at least one select with a finite Eq. 16
    // objective J.
    let selects_with_j = events
        .iter()
        .filter(|e| field(e, "name").as_deref() == Some("policy_select"))
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("j"))
                .and_then(|j| j.as_f64())
                .is_some_and(f64::is_finite)
        })
        .count();
    assert!(selects_with_j > 0, "no policy_select audit event with J");

    // Fault story: injection, recovery, and at least one reroute of
    // aborted work onto a live path.
    assert!(count("inject", "i") > 0, "no fault injection event");
    assert!(count("recover", "i") > 0, "no fault recovery event");
    assert!(count("reroute", "i") > 0, "no fault reroute event");

    println!(
        "trace validated: {} events, {} policy_select audits with J, {} reroutes",
        events.len(),
        selects_with_j,
        count("reroute", "i")
    );
    println!("wrote results/trace_dump.json — load it in chrome://tracing or ui.perfetto.dev");
}
