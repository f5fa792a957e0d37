//! The scenario catalogue: every serving setup that more than one bench,
//! test or example runs, built in one place.
//!
//! The setups are the paper's interleaved planner input (Fig. 4) with
//! pinned tensor parallelism, two hand placements on the testbed (the
//! NetKV placement of `fig_kv` and the elastic TP=2 slots of
//! `fig_autoscale`), the autoscaler seeded for those slots, and two
//! whole runs, [`kv_fabric_faults`] and [`xtracks_steady`], which the
//! benchmark ledger also serves. Each build step (topology, planner
//! input, all-pairs, trace, config, strategy, controller) is a function
//! of its own, so a harness that times setup per layer can stamp each
//! step; the whole-run builders only chain them. The only randomness is
//! the seed or RNG a builder takes.

use heroserve::system::{default_coefficients, expected_batch, PLANNER_BATCH_Q};
use heroserve::{
    plan, AutoscaleConfig, Autoscaler, HeroScheduler, KvSelection, PlannerInput, SchedulerParams,
    SchemeSpace, SolveStats,
};
use hs_baselines::{BaselineKind, Deployment};
use hs_cluster::batching::BatchPolicy;
use hs_cluster::{ClusterConfig, ClusterSim, CommStrategy, InstanceSpec, SimReport};
use hs_des::{SeedSplitter, SimSpan, SimTime};
use hs_model::ModelConfig;
use hs_topology::builders::{testbed, xtracks, BuiltTopology, XTracksConfig};
use hs_topology::{AllPairs, Graph};
use hs_workload::spec::fixed;
use hs_workload::{sharegpt_like, FaultPlan, Poisson, Trace, WorkloadSpec};
use rand::rngs::SmallRng;

pub use hs_baselines::horizon;

/// Planner input for `model` serving `workload` at `rate` req/s over the
/// paper's interleaved allocation (Fig. 4): the default coefficient fit,
/// the expected batch of [`PLANNER_BATCH_Q`] requests and the workload's
/// SLAs. `prefill_tp` and `decode_tp` pin each cluster's tensor-parallel
/// degree at pipeline depth 1; `None` leaves the degree to the planner.
pub fn planner_input(
    graph: &Graph,
    model: &ModelConfig,
    workload: &WorkloadSpec,
    rate: f64,
    prefill_tp: Option<u32>,
    decode_tp: Option<u32>,
) -> PlannerInput {
    let mut input = PlannerInput::interleaved(
        graph,
        model.clone(),
        default_coefficients(model),
        expected_batch(workload, PLANNER_BATCH_Q),
        rate,
        workload.ttft_sla_s,
        workload.tpot_sla_s,
    );
    input.force_prefill_parallelism = prefill_tp.map(|tp| (tp, 1));
    input.force_decode_parallelism = decode_tp.map(|tp| (tp, 1));
    input
}

/// The paper's testbed deployment (§V), the same for every system:
/// `kind` planned for OPT-66B serving `workload` at `rate` req/s over
/// `topo`'s interleaved ports with TP=4 prefill and TP=8 decode pinned,
/// so tensor groups span servers and every system pays for
/// cross-server synchronization.
///
/// # Panics
/// Panics if the planner finds no feasible configuration on `topo`.
pub fn testbed_deployment(
    kind: BaselineKind,
    topo: &BuiltTopology,
    workload: &WorkloadSpec,
    rate: f64,
) -> Deployment {
    let model = ModelConfig::opt_66b();
    let input = planner_input(&topo.graph, &model, workload, rate, Some(4), Some(8));
    kind.deploy_with_input(topo, &input, workload)
        .unwrap_or_else(|e| panic!("{} failed to plan: {e}", kind.name()))
}

/// Fig. 7's chatbot knee deployment, the one the benchmark ledger's
/// `testbed_knee` serves: HeroServe's [`testbed_deployment`] for
/// ShareGPT-like traffic, one INA slot per switch and 20 bulk 256 MiB
/// background flows/s.
pub fn knee_deployment(topo: &BuiltTopology) -> Deployment {
    let mut d = testbed_deployment(BaselineKind::HeroServe, topo, &sharegpt_like(), 1.0);
    d.ina_capacity_per_switch = 1;
    d.background = Some((20.0, 256 << 20));
    d
}

/// The KV-heavy workload of the NetKV placement: 1024-token prompts ship
/// about 840 MB of OPT-13B KV each, and 24-token decodes keep the runs
/// about the transfer rather than generation.
pub fn kv_workload() -> WorkloadSpec {
    fixed(1024, 24)
}

/// The NetKV placement on the testbed, OPT-13B: prefill on server 0's
/// first GPU pair, one decode instance beside it on server 0's second
/// pair (KV ships over NVLink) and one on server 1's first pair (KV
/// crosses the Ethernet uplinks). 50 ms monitor, 8 INA slots per switch,
/// [`kv_workload`]'s SLAs.
pub fn kv_placement(
    topo: &BuiltTopology,
    background: Option<(f64, u64)>,
    faults: FaultPlan,
) -> ClusterConfig {
    let model = ModelConfig::opt_13b();
    let spec = kv_workload();
    let servers = &topo.gpus_by_server;
    ClusterConfig {
        coef: default_coefficients(&model),
        model,
        ttft_sla_s: spec.ttft_sla_s,
        tpot_sla_s: spec.tpot_sla_s,
        prefill: vec![InstanceSpec::tensor_parallel(servers[0][..2].to_vec())],
        decode: vec![
            InstanceSpec::tensor_parallel(servers[0][2..].to_vec()),
            InstanceSpec::tensor_parallel(servers[1][..2].to_vec()),
        ],
        batch: BatchPolicy::default(),
        gpu_memory_bytes: 40 << 30,
        monitor_period: SimSpan::from_millis(50),
        ina_capacity_per_switch: 8,
        background,
        faults,
    }
}

/// The uplinks of [`kv_placement`]'s remote decode instance run at 15 %
/// of capacity from `from` to `to`.
pub fn kv_remote_brownout(topo: &BuiltTopology, from: SimTime, to: SimTime) -> FaultPlan {
    let mut faults = FaultPlan::none();
    for &gpu in &topo.gpus_by_server[1][..2] {
        for &(nb, link) in topo.graph.neighbors(gpu) {
            if topo.access_switches.contains(&nb) {
                faults = faults.merged(FaultPlan::link_brownout(link, 0.15, from, to));
            }
        }
    }
    faults
}

const KV_RATE: f64 = 6.0;
const KV_WINDOW_S: u64 = 3600;
const KV_OUTAGE_AT_S: u64 = 1800;

/// The faults of [`kv_fabric_faults`]: a [`kv_remote_brownout`] for
/// minutes 2–8 of every ten, and access switch 0 down from t = 1800 s
/// for `outage`, if any.
pub fn kv_faults(topo: &BuiltTopology, outage: Option<SimSpan>) -> FaultPlan {
    let mut faults = match outage {
        Some(len) => {
            let at = SimTime::from_secs(KV_OUTAGE_AT_S);
            FaultPlan::switch_outage(topo.access_switches[0], at, at + len)
        }
        None => FaultPlan::none(),
    };
    for cycle in 0..KV_WINDOW_S / 600 {
        let start = SimTime::from_secs(cycle * 600 + 120);
        let end = SimTime::from_secs(cycle * 600 + 480);
        faults = faults.merged(kv_remote_brownout(topo, start, end));
    }
    faults
}

/// The elastic placement on the testbed, OPT-13B: four prefill TP=2
/// slots on servers 0 and 2 and four decode slots on servers 1 and 3.
/// 100 ms monitor, 8 INA slots per switch, `workload`'s SLAs.
pub fn elastic_slots(topo: &BuiltTopology, workload: &WorkloadSpec) -> ClusterConfig {
    let model = ModelConfig::opt_13b();
    let slots = |servers: [usize; 2]| -> Vec<InstanceSpec> {
        servers
            .iter()
            .flat_map(|&s| {
                let g = &topo.gpus_by_server[s];
                [g[..2].to_vec(), g[2..].to_vec()]
            })
            .map(InstanceSpec::tensor_parallel)
            .collect()
    };
    ClusterConfig {
        coef: default_coefficients(&model),
        model,
        ttft_sla_s: workload.ttft_sla_s,
        tpot_sla_s: workload.tpot_sla_s,
        prefill: slots([0, 2]),
        decode: slots([1, 3]),
        batch: BatchPolicy::default(),
        gpu_memory_bytes: 40 << 30,
        monitor_period: SimSpan::from_millis(100),
        ina_capacity_per_switch: 8,
        background: None,
        faults: FaultPlan::none(),
    }
}

/// The controller for [`elastic_slots`]: an [`Autoscaler`] seeded from
/// the hybrid plan of OPT-13B serving `workload` at `rate` with TP pinned
/// to the slots' 2, so its online re-solves stay component-scoped, and
/// expecting `rate`. Also returns the seed plan's work counters.
pub fn seeded_autoscaler(
    topo: &BuiltTopology,
    workload: &WorkloadSpec,
    rate: f64,
) -> (Autoscaler, SolveStats) {
    let model = ModelConfig::opt_13b();
    let input = planner_input(&topo.graph, &model, workload, rate, Some(2), Some(2));
    let out = plan(&input, SchemeSpace::Hybrid).expect("the autoscaler seed plans");
    let scaler =
        Autoscaler::from_plan(AutoscaleConfig::default(), &input, &out).with_expected_rate(rate);
    (scaler, out.stats)
}

/// One run, built: what `ClusterSim::new` takes, plus when arrivals stop.
pub struct Scenario {
    /// The fabric.
    pub topo: BuiltTopology,
    /// Routes the run uses.
    pub ap: AllPairs,
    /// Placement, SLAs, background traffic and faults.
    pub cfg: ClusterConfig,
    /// The arrivals.
    pub trace: Trace,
    /// Offered rate of the trace's arrival process, req/s.
    pub rate: f64,
    /// When arrivals stop; the run drains to [`horizon`] of it.
    pub window: SimTime,
    /// The online communication strategy.
    pub strategy: Box<dyn CommStrategy>,
}

impl Scenario {
    /// Serve the trace to the end of its drain margin. Returns the report
    /// and the network engine's work counters.
    pub fn run(self) -> (SimReport, hs_simnet::SolveStats) {
        let mut sim = ClusterSim::new(
            &self.topo.graph,
            self.ap,
            self.cfg,
            &self.trace,
            self.strategy,
        );
        let report = sim.run(horizon(self.window));
        (report, sim.net_solve_stats())
    }
}

/// NetKV decode selection on [`kv_placement`] for an hour: Poisson
/// arrivals of [`kv_workload`] at 6 req/s drawn from
/// `SeedSplitter::new(seed).stream("kv_fabric_faults")`, background
/// traffic of 150 bulk 8 MiB flows/s and [`kv_faults`] with `outage`.
/// The benchmark ledger's workload of this name has a 30 s outage.
pub fn kv_fabric_faults(seed: u64, outage: Option<SimSpan>) -> Scenario {
    let topo = testbed();
    let window = SimTime::from_secs(KV_WINDOW_S);
    let mut rng = SeedSplitter::new(seed).stream("kv_fabric_faults");
    let trace = Trace::generate(&kv_workload(), &mut Poisson::new(KV_RATE), &mut rng, window);
    let ap = topo.gpu_switch_pairs();
    let cfg = kv_placement(&topo, Some((150.0, 8 << 20)), kv_faults(&topo, outage));
    let params = SchedulerParams {
        kv_select: KvSelection::NetKv,
        ..SchedulerParams::default()
    };
    let strategy = Box::new(HeroScheduler::new(&topo.graph, ap.clone(), params));
    Scenario {
        topo,
        ap,
        cfg,
        trace,
        rate: KV_RATE,
        window,
        strategy,
    }
}

/// The 96-GPU two-track fabric [`xtracks_steady`] serves on.
pub fn xtracks_topology() -> BuiltTopology {
    xtracks(&XTracksConfig::two_tracks(2))
}

/// HeroServe planned for OPT-13B and ShareGPT-like traffic on `topo`.
pub fn xtracks_deployment(topo: &BuiltTopology) -> Deployment {
    BaselineKind::HeroServe
        .deploy(topo, &ModelConfig::opt_13b(), &sharegpt_like(), 2.0)
        .expect("the xtracks deployment plans")
}

/// The rate [`xtracks_steady`] offers: 80 % of the planner's sustainable
/// rate, so the queue stays stable and the trace drains end to end.
pub fn steady_rate(d: &Deployment) -> f64 {
    0.8 * d.output.est_h_rps
}

/// [`xtracks_deployment`] on [`xtracks_topology`], serving `requests`
/// Poisson arrivals at [`steady_rate`] drawn from `trace_rng`.
pub fn xtracks_steady(trace_rng: &mut SmallRng, requests: u64) -> Scenario {
    let topo = xtracks_topology();
    let d = xtracks_deployment(&topo);
    let rate = steady_rate(&d);
    let window = SimTime::from_secs_f64(requests as f64 / rate);
    let trace = Trace::generate(&d.workload, &mut Poisson::new(rate), trace_rng, window);
    Scenario {
        ap: d.all_pairs(),
        cfg: d.cluster_config(),
        strategy: d.strategy(),
        topo,
        trace,
        rate,
        window,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_cluster::{BusyPolicy, StaticStrategy};
    use hs_collective::Scheme;
    use std::collections::BTreeSet;

    /// The testbed servers of each prefill and each decode instance, in
    /// order. Panics if an instance is not TP=2 or two instances share a
    /// GPU.
    fn servers(topo: &BuiltTopology, cfg: &ClusterConfig) -> [Vec<Vec<usize>>; 2] {
        let mut placed = BTreeSet::new();
        let mut of = |specs: &[InstanceSpec]| -> Vec<Vec<usize>> {
            specs
                .iter()
                .map(|spec| {
                    let gpus = spec.all_gpus();
                    assert_eq!(gpus.len(), 2, "not a TP=2 instance: {gpus:?}");
                    let mut on: Vec<usize> = gpus
                        .iter()
                        .map(|g| {
                            assert!(placed.insert(*g), "GPU {g:?} placed twice");
                            topo.gpus_by_server
                                .iter()
                                .position(|s| s.contains(g))
                                .expect("instances hold GPUs")
                        })
                        .collect();
                    on.dedup();
                    on
                })
                .collect()
        };
        [of(&cfg.prefill), of(&cfg.decode)]
    }

    fn sim_accepts(topo: &BuiltTopology, cfg: ClusterConfig) {
        let trace = Trace {
            requests: Vec::new(),
        };
        let strategy = StaticStrategy::uniform("ring", Scheme::Ring, BusyPolicy::FallbackRing);
        ClusterSim::new(
            &topo.graph,
            topo.gpu_switch_pairs(),
            cfg,
            &trace,
            Box::new(strategy),
        );
    }

    #[test]
    fn kv_placement_is_server_0_local_and_server_1_remote() {
        let topo = testbed();
        let cfg = kv_placement(&topo, None, FaultPlan::none());
        assert_eq!(
            servers(&topo, &cfg),
            [vec![vec![0]], vec![vec![0], vec![1]]]
        );
        sim_accepts(&topo, cfg);
    }

    #[test]
    fn elastic_slots_split_servers_between_pools() {
        let topo = testbed();
        let cfg = elastic_slots(&topo, &fixed(256, 16));
        assert_eq!(
            servers(&topo, &cfg),
            [
                vec![vec![0], vec![0], vec![2], vec![2]],
                vec![vec![1], vec![1], vec![3], vec![3]],
            ]
        );
        sim_accepts(&topo, cfg);
    }

    /// Collective launches reuse what earlier ones built: on the knee
    /// deployment each tensor group compiles at most one plan per
    /// candidate scheme, so a run four times as long, with four times the
    /// all-reduces, stays under the same bound; and flows on one path
    /// share one interned copy of it.
    #[test]
    fn knee_launches_reuse_plans_and_paths() {
        use heroserve::policy::build_policies;
        use heroserve::scheduler::K_SWITCHES;
        use hs_simnet::SimNet;
        use std::sync::Arc;

        let topo = testbed();
        let d = knee_deployment(&topo);
        let cfg = d.cluster_config();
        let ap = d.all_pairs();
        let ina = topo.graph.ina_switches();
        let specs = cfg.prefill.iter().chain(&cfg.decode);
        let groups: Vec<&Vec<_>> = specs.flat_map(|s| &s.stages).collect();
        let candidates: u64 = groups
            .iter()
            .map(|g| build_policies(&topo.graph, &ap, g, &ina, K_SWITCHES).len() as u64)
            .sum();
        assert!(
            groups.iter().all(|g| g.len() >= 2),
            "every group all-reduces"
        );
        let serve = |secs: u64| {
            let window = SimTime::from_secs(secs);
            let mut rng = SeedSplitter::new(5).stream("trace");
            let trace = Trace::generate(&d.workload, &mut Poisson::new(4.0), &mut rng, window);
            let mut sim = ClusterSim::new(
                &topo.graph,
                ap.clone(),
                d.cluster_config(),
                &trace,
                d.strategy(),
            );
            let report = sim.run(horizon(window));
            let allreduces = report.ina_ops + report.ring_ops;
            (allreduces, sim.plans_compiled())
        };
        let (short, short_plans) = serve(2);
        let (long, long_plans) = serve(8);
        assert!(long > 3 * short, "{long} vs {short} all-reduces");
        assert!(long > 20 * candidates, "{long} all-reduces");
        for plans in [short_plans, long_plans] {
            assert!(
                plans <= candidates,
                "{plans} plans for {candidates} candidates"
            );
        }

        let mut net = SimNet::new(&topo.graph);
        let route = &ap.path(groups[0][0], groups[0][1]).route;
        let a = net.start_flow(SimTime::ZERO, route, 1 << 20, 0);
        let b = net.start_flow(SimTime::ZERO, route, 1 << 20, 0);
        let (a, b) = (net.flow(a).expect("live"), net.flow(b).expect("live"));
        assert!(Arc::ptr_eq(&a.path, &b.path), "two copies of one path");
        assert!(Arc::ptr_eq(&a.path, route), "a copy of the route");
    }

    /// `SimReport::fingerprint` is the benchmark ledger's fold: the
    /// ledger's `kv_fabric_faults` run (seed 1, 30 s outage) folds to the
    /// same raw value, and folding that once more, as the ledger combines
    /// a one-run pass, gives the ledger's gated fingerprint.
    #[test]
    fn kv_fabric_faults_folds_to_the_ledger_fingerprint() {
        use rustc_hash::FxHasher;
        use std::hash::Hasher;

        let (report, _) = kv_fabric_faults(1, Some(SimSpan::from_secs(30))).run();
        let raw = report.fingerprint();
        assert_eq!(raw, 0x580d_ee32_3824_9be8, "raw fingerprint {raw:016x}");
        let mut combined = FxHasher::default();
        combined.write_u64(raw);
        let combined = combined.finish();
        assert_eq!(
            combined, 0xbcb7_fce1_2835_ce08,
            "combined fingerprint {combined:016x}"
        );
    }
}
