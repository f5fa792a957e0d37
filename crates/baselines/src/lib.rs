//! # hs-baselines — the paper's comparator systems
//!
//! §V evaluates HeroServe against three baselines, all running on the
//! *same* prefill/decode-disaggregated serving stack with continuous
//! batching — only placement planning and the communication path differ:
//!
//! * **DistServe** — plain ring all-reduce over Ethernet, no INA. Its
//!   planner is the same search restricted to [`SchemeSpace::RingOnly`].
//! * **DS-SwitchML** — DistServe + SwitchML synchronous INA: every
//!   tensor group aggregates at its planner-assigned switch; when switch
//!   aggregation capacity is exhausted the collective *waits* (lock-step
//!   semantics).
//! * **DS-ATP** — DistServe + ATP asynchronous best-effort INA: same
//!   switch assignment, but on exhaustion the collective *falls back* to
//!   end-host ring aggregation.
//!
//! [`BaselineKind::deploy`] builds a ready-to-run deployment (plan +
//! strategy) for any of the four systems, so experiment harnesses sweep
//! `[DistServe, DsAtp, DsSwitchml, HeroServe]` uniformly.

use heroserve::planner::{plan, PlannerError, PlannerOutput, SchemeSpace};
use heroserve::scheduler::{HeroScheduler, SchedulerParams};
use heroserve::spec::PlannerInput;
use heroserve::system::{default_coefficients, expected_batch, PLANNER_BATCH_Q};
use hs_cluster::batching::BatchPolicy;
use hs_cluster::{BusyPolicy, ClusterConfig, ClusterSim, CommStrategy, SimReport, StaticStrategy};
use hs_collective::Scheme;
use hs_des::{SeedSplitter, SimSpan, SimTime};
use hs_model::ModelConfig;
use hs_topology::builders::BuiltTopology;
use hs_topology::{AllPairs, NodeId};
use hs_workload::{FaultPlan, Poisson, Trace, WorkloadSpec};
use rustc_hash::FxHashMap;

/// The end of a run whose arrivals stop at `window`: a drain margin of a
/// quarter of the window, at most 60 s.
pub fn horizon(window: SimTime) -> SimTime {
    let margin = window.saturating_since(SimTime::ZERO).mul_f64(0.25);
    window + margin.min(SimSpan::from_secs(60))
}

/// Which system to deploy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineKind {
    /// DistServe: ring only.
    DistServe,
    /// DistServe + ATP asynchronous INA.
    DsAtp,
    /// DistServe + SwitchML synchronous INA.
    DsSwitchml,
    /// HeroServe (for uniform sweeps).
    HeroServe,
}

impl BaselineKind {
    /// All four systems in the paper's reporting order.
    pub fn all() -> [BaselineKind; 4] {
        [
            BaselineKind::DistServe,
            BaselineKind::DsAtp,
            BaselineKind::DsSwitchml,
            BaselineKind::HeroServe,
        ]
    }

    /// Display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            BaselineKind::DistServe => "DistServe",
            BaselineKind::DsAtp => "DS-ATP",
            BaselineKind::DsSwitchml => "DS-SwitchML",
            BaselineKind::HeroServe => "HeroServe",
        }
    }

    /// The planner scheme space each system searches.
    pub fn scheme_space(&self) -> SchemeSpace {
        match self {
            BaselineKind::DistServe => SchemeSpace::RingOnly,
            BaselineKind::DsAtp | BaselineKind::DsSwitchml => SchemeSpace::InaOnly,
            BaselineKind::HeroServe => SchemeSpace::Hybrid,
        }
    }

    /// What a static baseline's collective does when its INA switch is
    /// full: SwitchML's synchronous INA waits for a slot, ATP falls back
    /// to an end-host ring, and DistServe never holds a switch. HeroServe's
    /// online scheduler declares its own policy.
    pub fn static_busy_policy(&self) -> BusyPolicy {
        match self {
            BaselineKind::DsSwitchml => BusyPolicy::Wait,
            _ => BusyPolicy::FallbackRing,
        }
    }
}

/// A deployed system: plan + cluster config + strategy factory.
pub struct Deployment {
    /// Which system.
    pub kind: BaselineKind,
    /// The fabric.
    pub topology: BuiltTopology,
    /// Planner decision.
    pub output: PlannerOutput,
    /// Workload (SLAs).
    pub workload: WorkloadSpec,
    /// Model.
    pub model: ModelConfig,
    coef: hs_model::CostCoefficients,
    /// Per-switch concurrent INA-job capacity (switch SRAM pressure knob).
    pub ina_capacity_per_switch: usize,
    /// Bursty background cross traffic `(flows/s, bytes)`.
    pub background: Option<(f64, u64)>,
    /// Scheduled fabric faults injected during serving.
    pub faults: FaultPlan,
    /// Online-scheduler tunables (HeroServe only; the static baselines
    /// have no online scheduler).
    sched_params: SchedulerParams,
    /// The planner input's routes, shared by the strategy and the
    /// simulation of every run.
    ap: AllPairs,
}

impl BaselineKind {
    /// Plan a deployment of `model` on `topo` for `workload` at `rate`.
    pub fn deploy(
        self,
        topo: &BuiltTopology,
        model: &ModelConfig,
        workload: &WorkloadSpec,
        rate: f64,
    ) -> Result<Deployment, PlannerError> {
        let coef = default_coefficients(model);
        let input = PlannerInput::basic(
            &topo.graph,
            model.clone(),
            coef,
            expected_batch(workload, PLANNER_BATCH_Q),
            rate,
            workload.ttft_sla_s,
            workload.tpot_sla_s,
        );
        self.deploy_with_input(topo, &input, workload)
    }

    /// Plan with an explicit planner input, built over `topo.graph`.
    pub fn deploy_with_input(
        self,
        topo: &BuiltTopology,
        input: &PlannerInput,
        workload: &WorkloadSpec,
    ) -> Result<Deployment, PlannerError> {
        Ok(Deployment {
            kind: self,
            topology: topo.clone(),
            output: plan(input, self.scheme_space())?,
            workload: workload.clone(),
            model: input.model.clone(),
            coef: input.coef,
            ina_capacity_per_switch: 8,
            background: None,
            faults: FaultPlan::none(),
            sched_params: SchedulerParams::default(),
            ap: input.all_pairs().clone(),
        })
    }
}

impl Deployment {
    /// Inject a fault schedule into subsequent `serve` calls (builder
    /// style; the same trace can then be replayed against every system).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Override the online scheduler's tunables (e.g. the KV decode-
    /// selection policy for A/B sweeps). No-op for static baselines,
    /// which have no online scheduler.
    pub fn with_scheduler_params(mut self, params: SchedulerParams) -> Self {
        self.sched_params = params;
        self
    }

    /// All-pairs structures over GPUs + INA switches: the planner
    /// input's table, shared.
    pub fn all_pairs(&self) -> AllPairs {
        self.ap.clone()
    }

    /// The communication strategy this system runs online.
    pub fn strategy(&self) -> Box<dyn CommStrategy> {
        match self.kind {
            BaselineKind::HeroServe => Box::new(self.hero_scheduler()),
            BaselineKind::DistServe => Box::new(StaticStrategy::uniform(
                self.kind.name(),
                Scheme::Ring,
                self.kind.static_busy_policy(),
            )),
            BaselineKind::DsAtp | BaselineKind::DsSwitchml => {
                // Static per-group INA assignment from the planner (the
                // integration point of ATP/SwitchML into DistServe): map
                // each group's GPU set to its planned switch.
                let mut assignment: FxHashMap<Vec<NodeId>, Scheme> = FxHashMap::default();
                for gs in self
                    .output
                    .prefill
                    .group_schemes
                    .iter()
                    .chain(&self.output.decode.group_schemes)
                {
                    let mut key = gs.group.clone();
                    key.sort_unstable();
                    assignment.insert(key, gs.scheme);
                }
                Box::new(StaticStrategy::per_group(
                    self.kind.name(),
                    move |_, group| {
                        let mut key = group.to_vec();
                        key.sort_unstable();
                        assignment.get(&key).copied().unwrap_or(Scheme::Ring)
                    },
                    self.kind.static_busy_policy(),
                ))
            }
        }
    }

    /// HeroServe's online scheduler over the deployment's routes.
    fn hero_scheduler(&self) -> HeroScheduler {
        HeroScheduler::new(&self.topology.graph, self.all_pairs(), self.sched_params)
    }

    /// Cluster configuration induced by the plan.
    pub fn cluster_config(&self) -> ClusterConfig {
        let gpu_memory_bytes = self
            .topology
            .all_gpus()
            .iter()
            .filter_map(|&g| self.topology.graph.gpu_spec(g).map(|s| s.memory_bytes))
            .min()
            .unwrap_or(40 * (1 << 30));
        ClusterConfig {
            model: self.model.clone(),
            coef: self.coef,
            ttft_sla_s: self.workload.ttft_sla_s,
            tpot_sla_s: self.workload.tpot_sla_s,
            prefill: self.output.prefill.instances.clone(),
            decode: self.output.decode.instances.clone(),
            batch: BatchPolicy::default(),
            gpu_memory_bytes,
            monitor_period: SimSpan::from_millis(50),
            ina_capacity_per_switch: self.ina_capacity_per_switch,
            background: self.background,
            faults: self.faults.clone(),
        }
    }

    /// Serve a Poisson trace at `rate` for `duration` (+drain margin).
    pub fn serve_trace(&self, seed: u64, rate: f64, duration: SimTime) -> SimReport {
        let mut rng = SeedSplitter::new(seed).stream("trace");
        let mut arr = Poisson::new(rate);
        let trace = Trace::generate(&self.workload, &mut arr, &mut rng, duration);
        self.serve(&trace, duration)
    }

    /// Serve an explicit trace whose arrivals stop at `window`.
    pub fn serve(&self, trace: &Trace, window: SimTime) -> SimReport {
        self.serve_observed(trace, window, &hs_obs::Tracer::noop())
    }

    /// Serve an explicit trace with a tracer attached: it records the run
    /// (request lifecycle, collectives, faults, link utilization) without
    /// changing its outcome.
    pub fn serve_observed(
        &self,
        trace: &Trace,
        window: SimTime,
        tracer: &hs_obs::Tracer,
    ) -> SimReport {
        let mut sim = self.simulation(trace);
        sim.set_obs(tracer, &hs_obs::MetricsRegistry::disabled());
        sim.run(horizon(window))
    }

    /// A simulation of `trace` on this deployment, as every `serve*`
    /// call builds it.
    fn simulation(&self, trace: &Trace) -> ClusterSim {
        ClusterSim::new(
            &self.topology.graph,
            self.all_pairs(),
            self.cluster_config(),
            trace,
            self.strategy(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_topology::builders::testbed;

    #[test]
    fn all_four_systems_deploy_and_serve() {
        let topo = testbed();
        let workload = hs_workload::sharegpt_like();
        let model = ModelConfig::opt_66b();
        for kind in BaselineKind::all() {
            let d = kind
                .deploy(&topo, &model, &workload, 0.3)
                .unwrap_or_else(|e| panic!("{} failed to plan: {e}", kind.name()));
            let report = d.serve_trace(3, 0.3, SimTime::from_secs(8));
            assert!(report.arrived > 0, "{}: no arrivals", kind.name());
            assert!(report.completed > 0, "{}: nothing completed", kind.name());
            assert_eq!(report.strategy, kind.name());
        }
    }

    #[test]
    fn observed_serve_matches_plain_serve() {
        let topo = testbed();
        let workload = hs_workload::sharegpt_like();
        let d = BaselineKind::DistServe
            .deploy(&topo, &ModelConfig::opt_66b(), &workload, 0.3)
            .unwrap();
        let mut rng = SeedSplitter::new(5).stream("trace");
        let mut arr = Poisson::new(0.5);
        let trace = Trace::generate(&workload, &mut arr, &mut rng, SimTime::from_secs(6));
        let plain = d.serve(&trace, SimTime::from_secs(6));
        let tracer = hs_obs::Tracer::recording();
        let observed = d.serve_observed(&trace, SimTime::from_secs(6), &tracer);
        assert_eq!(plain, observed);
        let recs = tracer.records();
        let count = |n: &str| recs.iter().filter(|r| r.name == n).count();
        assert_eq!(count("arrival"), observed.arrived);
        assert_eq!(count("done"), observed.completed);
    }

    #[test]
    fn distserve_never_uses_ina() {
        let topo = testbed();
        let workload = hs_workload::sharegpt_like();
        let d = BaselineKind::DistServe
            .deploy(&topo, &ModelConfig::opt_66b(), &workload, 0.3)
            .unwrap();
        let report = d.serve_trace(4, 0.3, SimTime::from_secs(8));
        assert_eq!(report.ina_ops, 0);
        assert!(report.ring_ops > 0);
    }

    #[test]
    fn switchml_and_atp_use_ina() {
        let topo = testbed();
        let workload = hs_workload::sharegpt_like();
        let model = ModelConfig::opt_66b();
        for kind in [BaselineKind::DsSwitchml, BaselineKind::DsAtp] {
            // Interleaved allocation forces cross-server tensor groups,
            // the regime where INA is actually installed.
            let input = heroserve::spec::PlannerInput::interleaved(
                &topo.graph,
                model.clone(),
                heroserve::system::default_coefficients(&model),
                heroserve::system::expected_batch(&workload, PLANNER_BATCH_Q),
                0.3,
                workload.ttft_sla_s,
                workload.tpot_sla_s,
            );
            let d = kind.deploy_with_input(&topo, &input, &workload).unwrap();
            // Planner in InaOnly space must assign INA schemes to
            // multi-GPU groups.
            let has_ina = d
                .output
                .prefill
                .group_schemes
                .iter()
                .chain(&d.output.decode.group_schemes)
                .any(|g| matches!(g.scheme, Scheme::Ina { .. }));
            assert!(has_ina, "{} plan has no INA groups", kind.name());
            let report = d.serve_trace(4, 0.3, SimTime::from_secs(8));
            assert!(report.ina_ops > 0, "{}: no INA ops", kind.name());
        }
    }

    #[test]
    fn scheme_spaces_match_paper_roles() {
        assert_eq!(
            BaselineKind::DistServe.scheme_space(),
            SchemeSpace::RingOnly
        );
        assert_eq!(BaselineKind::DsAtp.scheme_space(), SchemeSpace::InaOnly);
        assert_eq!(
            BaselineKind::DsSwitchml.scheme_space(),
            SchemeSpace::InaOnly
        );
        assert_eq!(BaselineKind::HeroServe.scheme_space(), SchemeSpace::Hybrid);
    }

    /// Every holder of a HeroServe deployment's routes reads one table:
    /// `all_pairs()` twice, the online scheduler and a served run's
    /// simulation hold the same route allocations, and the table equals
    /// a fresh `gpu_ina_pairs()` sweep bit for bit.
    #[test]
    fn deployment_routes_are_one_shared_table() {
        let topo = testbed();
        let workload = hs_workload::sharegpt_like();
        let d = BaselineKind::HeroServe
            .deploy(&topo, &ModelConfig::opt_66b(), &workload, 0.3)
            .unwrap();
        // GPU 0 on server 0, and the last GPU on server 3.
        let (a, b) = (topo.gpus_by_server[0][0], *topo.all_gpus().last().unwrap());
        let first = d.all_pairs();
        let route = &first.path(a, b).route;
        assert!(!route.is_empty());
        let trace = Trace::generate(
            &workload,
            &mut Poisson::new(0.3),
            &mut SeedSplitter::new(1).stream("trace"),
            SimTime::from_secs(2),
        );
        let holders = [
            ("all_pairs", d.all_pairs()),
            ("scheduler", d.hero_scheduler().all_pairs().clone()),
            ("simulation", d.simulation(&trace).all_pairs().clone()),
        ];
        for (who, ap) in &holders {
            assert!(
                std::sync::Arc::ptr_eq(route, &ap.path(a, b).route),
                "{who} holds another copy of the routes"
            );
        }
        let fresh = topo.gpu_ina_pairs();
        assert_eq!(first.nodes(), fresh.nodes());
        for &x in fresh.nodes() {
            for &y in fresh.nodes() {
                assert_eq!(first.dist(x, y).to_bits(), fresh.dist(x, y).to_bits());
                assert_eq!(first.path(x, y), fresh.path(x, y));
            }
        }
    }

    /// A deployment crosses threads: each run builds its own simulation
    /// and tracer from a shared `Deployment`, so run-level sweeps under
    /// `std::thread::scope` stay possible. Checked at compile time.
    #[test]
    fn deployment_is_send_and_sync() {
        fn shareable<T: Send + Sync>() {}
        shareable::<Deployment>();
    }
}
