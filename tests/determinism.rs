//! Determinism race harness: the dynamic companion to `hs-simlint`.
//!
//! Every comparison in the paper's evaluation (§V) assumes that a given
//! `(seed, workload, topology)` produces a bit-identical `SimReport`.
//! These tests pin that property end to end:
//!
//! * the planner's output is bit-identical across repeated runs;
//! * per-candidate RNG streams are order-independent: each candidate
//!   draws from its own `indexed_stream`, so the order in which
//!   candidates are evaluated cannot change any candidate's result;
//! * the event queue breaks same-timestamp ties by insertion order, not
//!   heap or hash order, under permuted insertion;
//! * a full `ClusterSim` run — with background traffic and injected
//!   faults — yields a bit-identical report when repeated, and attaching
//!   observability does not perturb the simulation;
//! * one deployment, whose routes every run shares, serves the same
//!   report on two threads at once as it does alone;
//! * a proptest property: equal `SimReport`s across two runs for
//!   arbitrary seeds, rates, and horizons.
//!
//! Reports are compared with `SimReport`'s derived `PartialEq`, which
//! covers every field (per-request and memory series included) by
//! construction.

use std::sync::OnceLock;

use heroserve::netest::{estimate_network_latency, NetestInput};
use heroserve::planner::{plan, PlannerOutput, SchemeSpace};
use heroserve::spec::PlannerInput;
use heroserve::system::{default_coefficients, expected_batch, PLANNER_BATCH_Q};
use hs_baselines::{BaselineKind, Deployment};
use hs_bench::scenario;
use hs_des::{EventQueue, SeedSplitter, SimTime};
use hs_model::ModelConfig;
use hs_topology::builders::testbed;
use hs_workload::{
    heavy_tail_like, sharegpt_like, Diurnal, FaultPlan, Mmpp, ParetoSpec, Poisson, Trace,
};
use proptest::prelude::*;

fn planner_input() -> PlannerInput {
    let topo = testbed();
    let model = ModelConfig::opt_13b();
    let workload = sharegpt_like();
    PlannerInput::basic(
        &topo.graph,
        model.clone(),
        default_coefficients(&model),
        expected_batch(&workload, PLANNER_BATCH_Q),
        2.0,
        workload.ttft_sla_s,
        workload.tpot_sla_s,
    )
}

/// Debug-format a whole planner output: every field, solve statistics
/// included, must repeat between runs.
fn plan_fingerprint(out: PlannerOutput) -> String {
    format!("{out:?}")
}

fn hero_deploy(rate: f64) -> Deployment {
    scenario::testbed_deployment(BaselineKind::HeroServe, &testbed(), &sharegpt_like(), rate)
}

#[test]
fn planner_output_bit_identical_across_runs() {
    let inp = planner_input();
    let a = plan_fingerprint(plan(&inp, SchemeSpace::Hybrid).expect("feasible"));
    let b = plan_fingerprint(plan(&inp, SchemeSpace::Hybrid).expect("feasible"));
    assert_eq!(a, b, "same input + seed must reproduce the full plan");
}

/// Every candidate draws from its own `indexed_stream`, so its result is
/// a pure function of the candidate index — independent of the order in
/// which the planner evaluates candidates.
#[test]
fn candidate_rng_streams_are_order_independent() {
    let topo = testbed();
    let ap = topo.gpu_ina_pairs();
    let avail = topo.graph.capacities();
    let gpus = topo.all_gpus();
    let eval = |ci: u64| -> String {
        let input = NetestInput {
            graph: &topo.graph,
            ap: &ap,
            avail: &avail,
            gpus: &gpus,
            n_groups: 4,
            group_size: 2,
            p_pipe: 2,
            sync_bytes: 4 << 20,
            pipe_bytes: 1 << 20,
            scheme_space: SchemeSpace::Hybrid,
            ina_switches: &topo.access_switches,
            max_perturb_iters: 10,
        };
        let mut rng = SeedSplitter::new(42).indexed_stream("cand", ci);
        format!("{:?}", estimate_network_latency(&input, &mut rng))
    };
    let forward: Vec<String> = (0..6).map(eval).collect();
    let reverse: Vec<String> = (0..6).rev().map(eval).collect();
    for (i, fwd) in forward.iter().enumerate() {
        assert_eq!(
            fwd,
            &reverse[5 - i],
            "candidate {i} result depends on evaluation order"
        );
    }
}

/// Same-timestamp ties pop in insertion order — the explicit, documented
/// tie-break — never heap- or hash-dependent.
#[test]
fn event_queue_breaks_same_timestamp_ties_by_insertion_order() {
    let t = SimTime::from_nanos(100);
    let mut q: EventQueue<u32> = EventQueue::new();
    for id in 0..32 {
        q.push(t, id);
    }
    let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(
        popped,
        (0..32).collect::<Vec<_>>(),
        "simultaneous events must pop in insertion order"
    );
}

/// Interleaving insertions across timestamps must not disturb the
/// per-timestamp FIFO order: pops come out time-sorted, and within each
/// timestamp in exactly the order the events went in.
#[test]
fn event_queue_order_is_stable_under_interleaved_timestamps() {
    let times = [
        SimTime::from_nanos(30),
        SimTime::from_nanos(10),
        SimTime::from_nanos(20),
    ];
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..8 {
        for (k, &t) in times.iter().enumerate() {
            q.push(t, k as u32 * 100 + i);
        }
    }
    let mut popped = Vec::new();
    while let Some(item) = q.pop() {
        popped.push(item);
    }
    for w in popped.windows(2) {
        assert!(w[0].0 <= w[1].0, "pops must be time-sorted");
    }
    let ids: Vec<u32> = popped.iter().map(|&(_, e)| e).collect();
    let expect: Vec<u32> = (0..8)
        .map(|i| 100 + i) // t=10 class, insertion order
        .chain((0..8).map(|i| 200 + i)) // t=20 class
        .chain(0..8) // t=30 class
        .collect();
    assert_eq!(ids, expect, "within-timestamp order must follow insertion");
}

#[test]
fn cluster_sim_report_bit_identical_with_faults_and_background() {
    let mk = || {
        let topo = testbed();
        let sw = topo.access_switches[0];
        let mut d = hero_deploy(1.2);
        d.background = Some((20.0, 1 << 20));
        d.with_faults(FaultPlan::switch_outage(
            sw,
            SimTime::from_secs(3),
            SimTime::from_secs(7),
        ))
    };
    let a = mk().serve_trace(11, 1.2, SimTime::from_secs(10));
    let b = mk().serve_trace(11, 1.2, SimTime::from_secs(10));
    assert_eq!(
        a, b,
        "fault + background run must be bit-identical across repeats"
    );
    assert!(a.arrived > 0, "trace too thin to be meaningful");
    assert!(
        a.fault_window_attainment.is_some(),
        "fault machinery never engaged"
    );
}

#[test]
fn observability_does_not_perturb_the_simulation() {
    let d = hero_deploy(1.0);
    let horizon = SimTime::from_secs(8);
    let untraced = d.serve_trace(7, 1.0, horizon);
    let mut rng = SeedSplitter::new(7).stream("trace");
    let trace = Trace::generate(&d.workload, &mut Poisson::new(1.0), &mut rng, horizon);
    let tracer = hs_obs::Tracer::recording();
    let traced = d.serve_observed(&trace, horizon, &tracer);
    assert_eq!(
        untraced, traced,
        "attaching a tracer must not change simulation outcomes"
    );
    let recs = tracer.records();
    let count = |n: &str| recs.iter().filter(|r| r.name == n).count();
    assert_eq!(count("arrival"), traced.arrived);
    assert_eq!(count("done"), traced.completed);
}

/// The new KV machinery under its most state-heavy path: network-aware
/// (NetKV) decode selection, striped transfers, and fault-induced KV
/// retries must all replay bit-identically. Large shipments (32k tokens,
/// ~1 s striped) plus a 1 Hz pulse train of 50 ms uplink outages
/// guarantee in-flight stripes abort and relaunch.
#[test]
fn netkv_run_with_kv_retries_is_bit_identical() {
    use hs_cluster::batching::BatchPolicy;
    use hs_cluster::{ClusterConfig, ClusterSim, InstanceSpec};
    use hs_des::SimSpan;
    use hs_model::profile::fit;
    use hs_model::GpuModel;
    use hs_workload::{FaultKind, Request, RequestId, Trace};

    let run = || {
        let t = testbed();
        let mut faults = FaultPlan::none();
        for &gpu in &t.gpus_by_server[0] {
            for &(nb, l) in t.graph.neighbors(gpu) {
                if t.access_switches.contains(&nb) {
                    for k in 1..=10u64 {
                        faults.push(SimTime::from_secs(k), FaultKind::LinkDown { link: l });
                        faults.push(
                            SimTime::from_millis(k * 1000 + 50),
                            FaultKind::LinkUp { link: l },
                        );
                    }
                }
            }
        }
        let model = ModelConfig::opt_13b();
        let fitted = fit(&GpuModel::a100(), &model);
        let ap = t.gpu_ina_pairs();
        let cfg = ClusterConfig {
            model,
            coef: fitted.coefficients,
            ttft_sla_s: 30.0,
            tpot_sla_s: 0.15,
            prefill: vec![InstanceSpec::tensor_parallel(t.gpus_by_server[0].clone())],
            decode: vec![
                InstanceSpec::tensor_parallel(t.gpus_by_server[1].clone()),
                InstanceSpec::tensor_parallel(t.gpus_by_server[2].clone()),
            ],
            batch: BatchPolicy::default(),
            gpu_memory_bytes: 40 * (1 << 30),
            monitor_period: SimSpan::from_millis(100),
            ina_capacity_per_switch: 4,
            background: None,
            faults,
        };
        let trace = Trace {
            requests: (0..6)
                .map(|i| Request {
                    id: RequestId(i),
                    arrival: SimTime::from_millis(i * 500),
                    input_tokens: 32_768,
                    output_tokens: 4,
                })
                .collect(),
        };
        let params = heroserve::SchedulerParams {
            kv_select: heroserve::KvSelection::NetKv,
            ..heroserve::SchedulerParams::default()
        };
        let sched = heroserve::HeroScheduler::new(&t.graph, ap.clone(), params);
        let mut sim = ClusterSim::new(&t.graph, ap, cfg, &trace, Box::new(sched));
        sim.run(SimTime::from_secs(90))
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "NetKV + KV-retry run must replay bit-identically");
    assert!(a.kv_retries > 0, "no fault-induced KV retry was exercised");
    assert_eq!(a.completed, a.arrived, "requests stuck after recovery");
}

/// Bit-exact fingerprint of a trace: integer arrival nanos + lengths.
fn trace_fingerprint(t: &Trace) -> String {
    t.requests
        .iter()
        .map(|r| {
            format!(
                "{}:{}:{}",
                r.arrival.as_nanos(),
                r.input_tokens,
                r.output_tokens
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The traffic engine's determinism contract: every generator produces a
/// bit-identical trace across repeats.
#[test]
fn traffic_generators_bit_identical_across_repeats() {
    let horizon = SimTime::from_secs(20);
    let generate = |name: &str| -> String {
        let mut rng = SeedSplitter::new(99).stream(name);
        let trace = match name {
            "poisson" => {
                Trace::generate(&sharegpt_like(), &mut Poisson::new(8.0), &mut rng, horizon)
            }
            "flash-crowd" => Trace::generate(
                &sharegpt_like(),
                &mut Mmpp::flash_crowd(6.0, 5.0),
                &mut rng,
                horizon,
            ),
            "diurnal" => Trace::generate(
                &heavy_tail_like(),
                &mut Diurnal::new(8.0, 0.8, 5.0),
                &mut rng,
                horizon,
            ),
            other => panic!("unknown generator {other}"),
        };
        trace_fingerprint(&trace)
    };
    for name in ["poisson", "flash-crowd", "diurnal"] {
        let base = generate(name);
        assert!(!base.is_empty(), "{name} produced an empty trace");
        assert_eq!(base, generate(name), "{name} differs across repeats");
    }
}

/// Statistical sanity for the generators: empirical rates/means track
/// the analytic ones, and the MMPP is genuinely burstier than Poisson.
#[test]
fn traffic_generator_statistics_match_analytic_targets() {
    let horizon = SimTime::from_secs(400);
    let spec = hs_workload::spec::fixed(64, 8);

    // Diurnal mean rate integrates to the base rate over whole periods.
    let mut rng = SeedSplitter::new(5).stream("diurnal-stat");
    let t = Trace::generate(&spec, &mut Diurnal::new(10.0, 0.9, 20.0), &mut rng, horizon);
    let rate = t.len() as f64 / horizon.as_secs_f64();
    assert!((rate - 10.0).abs() < 0.5, "diurnal mean rate {rate}");

    // Flash crowd: mean rate = base * (0.8 + 0.2 * spike).
    let mut rng = SeedSplitter::new(5).stream("mmpp-stat");
    let t = Trace::generate(&spec, &mut Mmpp::flash_crowd(5.0, 6.0), &mut rng, horizon);
    let rate = t.len() as f64 / horizon.as_secs_f64();
    assert!((rate - 10.0).abs() < 1.0, "flash-crowd mean rate {rate}");

    // MMPP inter-arrival CV must exceed Poisson's (CV = 1).
    let cv = |t: &Trace| {
        let gaps: Vec<f64> = t
            .requests
            .windows(2)
            .map(|w| w[1].arrival.saturating_since(w[0].arrival).as_secs_f64())
            .collect();
        let m = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - m) * (g - m)).sum::<f64>() / gaps.len() as f64;
        var.sqrt() / m
    };
    assert!(
        cv(&t) > 1.2,
        "flash crowd not burstier than Poisson: CV {}",
        cv(&t)
    );

    // Pareto lengths: empirical mean near analytic (clamping shaves a
    // little off the tail, hence the loose band).
    let p = ParetoSpec::with_mean(160.0, 1.5, 4, 2048);
    let mut rng = SeedSplitter::new(5).stream("pareto-stat");
    let n = 100_000;
    let emp = (0..n).map(|_| p.sample(&mut rng) as f64).sum::<f64>() / n as f64;
    assert!(
        (emp - p.analytic_mean()).abs() / p.analytic_mean() < 0.15,
        "Pareto empirical mean {emp} vs analytic {}",
        p.analytic_mean()
    );
}

/// An elastic run — planner-seeded [`heroserve::Autoscaler`], parking /
/// unparking instances mid-run, online re-solves included — replays
/// bit-identically across repeats.
#[test]
fn elastic_autoscaler_run_is_bit_identical() {
    use hs_cluster::ClusterSim;
    use hs_workload::spec::fixed;

    let run = || {
        let t = testbed();
        let spec = fixed(256, 16);
        let ap = t.gpu_ina_pairs();
        let cfg = scenario::elastic_slots(&t, &spec);
        let mut rng = SeedSplitter::new(31).stream("elastic");
        let mut arr = Mmpp::flash_crowd(30.0, 6.0);
        let trace = Trace::generate(&spec, &mut arr, &mut rng, SimTime::from_secs(10));
        let (ctl, _) = scenario::seeded_autoscaler(&t, &spec, 30.0);
        let strategy = hs_cluster::StaticStrategy::uniform(
            "ring",
            hs_collective::Scheme::Ring,
            hs_cluster::BusyPolicy::FallbackRing,
        );
        let mut sim = ClusterSim::new(&t.graph, ap, cfg, &trace, Box::new(strategy));
        sim.set_autoscaler(Box::new(ctl));
        sim.run(SimTime::from_secs(40))
    };
    let a = run();
    assert!(
        a.scale_ups + a.scale_downs > 0,
        "autoscaler never acted — the test exercises nothing"
    );
    assert_eq!(a, run(), "elastic run differs across repeats");
}

/// One deployment's shared routes serve two runs at once: the same trace
/// served on two scoped threads from one HeroServe `Deployment` gives
/// each thread the report a sequential serve gives.
#[test]
fn one_deployment_serves_on_two_threads_bit_identically() {
    let d = hero_deploy(1.0);
    let window = SimTime::from_secs(6);
    let mut rng = SeedSplitter::new(9).stream("trace");
    let trace = Trace::generate(&d.workload, &mut Poisson::new(1.0), &mut rng, window);
    assert!(!trace.is_empty(), "trace too thin to be meaningful");
    let sequential = d.serve(&trace, window).fingerprint();
    // Both runs start together, so they read the shared routes at once.
    let start = std::sync::Barrier::new(2);
    let serve = || {
        start.wait();
        d.serve(&trace, window).fingerprint()
    };
    let (a, b) = std::thread::scope(|s| {
        let (a, b) = (s.spawn(serve), s.spawn(serve));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, sequential, "first thread's report differs");
    assert_eq!(b, sequential, "second thread's report differs");
}

static SHARED_DEPLOY: OnceLock<Deployment> = OnceLock::new();

fn shared_deploy() -> &'static Deployment {
    SHARED_DEPLOY.get_or_init(|| hero_deploy(1.0))
}

proptest! {
    /// The determinism property the whole evaluation rests on: any
    /// `(seed, rate, horizon)` produces an identical SimReport across
    /// two runs of the same deployment.
    #[test]
    fn same_seed_yields_identical_report_json(
        seed in 0u64..1_000,
        rate_x10 in 5u32..25,
        dur_s in 3u64..8,
    ) {
        let d = shared_deploy();
        let rate = rate_x10 as f64 / 10.0;
        let a = d.serve_trace(seed, rate, SimTime::from_secs(dur_s));
        let b = d.serve_trace(seed, rate, SimTime::from_secs(dur_s));
        prop_assert_eq!(a, b);
    }
}
