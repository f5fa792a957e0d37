//! The four seeded workloads and the pass that runs one of them.
//!
//! A pass does everything a user of the simulator does, from scratch:
//! build the fabric, plan, generate traces, build `ClusterSim`s and run
//! them. Every host-time step is stamped into a [`Clock`]. Arrivals are
//! open-loop in simulated time: the whole trace exists before `run`, so
//! the generator can never fall behind. Every seed a workload uses is
//! drawn from `SeedSplitter::new(seed).stream(<workload name>)`.

use std::time::Instant;

use heroserve::system::{default_coefficients, expected_batch};
use heroserve::{
    plan, AutoscaleConfig, Autoscaler, HeroScheduler, KvSelection, PlannerInput, SchedulerParams,
    SchemeSpace, SolveStats,
};
use hs_baselines::{BaselineKind, Deployment};
use hs_cluster::batching::BatchPolicy;
use hs_cluster::{
    ClusterConfig, ClusterSim, CommStrategy, InstanceSpec, ScaleController, SimReport,
};
use hs_des::{SeedSplitter, SimSpan, SimTime};
use hs_model::ModelConfig;
use hs_topology::builders::{testbed, xtracks, BuiltTopology, XTracksConfig};
use hs_topology::{AllPairs, Graph, LinkWeight};
use hs_workload::spec::fixed;
use hs_workload::{sharegpt_like, ArrivalProcess, FaultPlan, Mmpp, Poisson, Trace};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore};

use crate::fingerprint::{combine, fingerprint};
use crate::fold::TraceFold;
use crate::probe::{FoldHandle, Probe, ProbeHandle, ProbeScaler, ProbeStrategy};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    TestbedKnee,
    XtracksSteady,
    KvFabricFaults,
    FlashElastic,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::TestbedKnee,
        Workload::XtracksSteady,
        Workload::KvFabricFaults,
        Workload::FlashElastic,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TestbedKnee => "testbed_knee",
            Workload::XtracksSteady => "xtracks_steady",
            Workload::KvFabricFaults => "kv_fabric_faults",
            Workload::FlashElastic => "flash_elastic",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How a pass observes the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Bare strategy and controller, no tracer: the timed passes.
    Plain,
    /// Timing wrappers around the strategy and controller, no tracer.
    Probe,
    /// Wrappers plus a recording tracer, drained at every monitor tick.
    Trace,
}

/// Host seconds per step of a pass, summed over its sub-runs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Clock {
    pub topology_s: f64,
    pub plan_s: f64,
    pub trace_gen_s: f64,
    pub all_pairs_s: f64,
    pub all_pairs_builds: u64,
    /// Building the online strategy and the autoscaler.
    pub strategy_s: f64,
    pub sim_new_s: f64,
    pub run_s: f64,
}

impl Clock {
    /// Host time before `ClusterSim::run`.
    pub fn setup_s(&self) -> f64 {
        self.topology_s
            + self.plan_s
            + self.trace_gen_s
            + self.all_pairs_s
            + self.strategy_s
            + self.sim_new_s
    }
}

fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// One `ClusterSim` run of a pass.
pub struct Sub {
    pub report: SimReport,
    /// Offered rate of the trace's arrival process, req/s.
    pub rate: f64,
    pub gpus: usize,
    /// Simulated seconds of arrivals.
    pub window_s: f64,
    /// Simulated seconds the run covers, drain included.
    pub horizon_s: f64,
    pub trace_len: usize,
    pub elastic: bool,
    /// Empty unless the pass traced.
    pub fold: TraceFold,
    /// Zero unless the pass probed or traced.
    pub probe: Probe,
}

pub struct Pass {
    pub mode: Mode,
    pub clock: Clock,
    pub subs: Vec<Sub>,
    pub planner: Option<SolveStats>,
    pub fingerprint: u64,
}

pub fn run_pass(w: Workload, seed: u64, mode: Mode) -> Pass {
    let mut rng = SeedSplitter::new(seed).stream(w.name());
    let mut ctx = Ctx::new(mode);
    let planner = match w {
        Workload::TestbedKnee => testbed_knee(&mut ctx, &mut rng),
        Workload::XtracksSteady => xtracks_steady(&mut ctx, &mut rng),
        Workload::KvFabricFaults => kv_fabric_faults(&mut ctx, &mut rng),
        Workload::FlashElastic => flash_elastic(&mut ctx, &mut rng),
    };
    ctx.finish(planner)
}

/// The ladder rungs of `testbed_knee`, req/s.
pub const KNEE_RATES: [f64; 7] = [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0];
const KNEE_SEEDS: usize = 12;
const KNEE_WINDOW_S: u64 = 40;
/// Pooled attainment the knee is defined by.
pub const KNEE_ATTAINMENT: f64 = 0.9;

const XTRACKS_REQUESTS: f64 = 150_000.0;
const KV_WINDOW_S: u64 = 3600;
const FLASH_WINDOW_S: u64 = 1200;

struct Ctx {
    mode: Mode,
    clock: Clock,
    subs: Vec<Sub>,
}

/// Everything one `ClusterSim` run needs.
struct Job<'a> {
    graph: &'a Graph,
    ap: AllPairs,
    cfg: ClusterConfig,
    trace: &'a Trace,
    rate: f64,
    window: SimTime,
    strategy: Box<dyn CommStrategy>,
    scaler: Option<Box<dyn ScaleController>>,
}

impl Ctx {
    fn new(mode: Mode) -> Ctx {
        Ctx {
            mode,
            clock: Clock::default(),
            subs: Vec::new(),
        }
    }

    fn finish(self, planner: Option<SolveStats>) -> Pass {
        let fingerprint = combine(self.subs.iter().map(|s| fingerprint(&s.report)));
        Pass {
            mode: self.mode,
            clock: self.clock,
            subs: self.subs,
            planner,
            fingerprint,
        }
    }

    fn topology(&mut self, build: impl FnOnce() -> BuiltTopology) -> BuiltTopology {
        timed(&mut self.clock.topology_s, build)
    }

    fn trace(&mut self, gen: impl FnOnce() -> Trace) -> Trace {
        timed(&mut self.clock.trace_gen_s, gen)
    }

    fn all_pairs(&mut self, build: impl FnOnce() -> AllPairs) -> AllPairs {
        self.clock.all_pairs_builds += 1;
        timed(&mut self.clock.all_pairs_s, build)
    }

    /// Run one job to the end of its drain margin.
    fn serve(&mut self, job: Job<'_>) {
        let horizon = horizon(job.window);
        let probe = ProbeHandle::default();
        let fold = FoldHandle::default();
        let tracer = if self.mode == Mode::Trace {
            hs_obs::Tracer::recording()
        } else {
            hs_obs::Tracer::noop()
        };
        let elastic = job.scaler.is_some();
        let (strategy, scaler) = match self.mode {
            Mode::Plain => (job.strategy, job.scaler),
            Mode::Probe | Mode::Trace => (
                Box::new(ProbeStrategy::new(
                    job.strategy,
                    probe.clone(),
                    fold.clone(),
                )) as Box<dyn CommStrategy>,
                job.scaler.map(|s| {
                    Box::new(ProbeScaler::new(s, probe.clone())) as Box<dyn ScaleController>
                }),
            ),
        };
        let gpus = job.cfg.total_gpus();
        let mut sim = timed(&mut self.clock.sim_new_s, || {
            let mut sim = ClusterSim::new(job.graph, job.ap, job.cfg, job.trace, strategy);
            if self.mode == Mode::Trace {
                sim.set_obs(&tracer, &hs_obs::MetricsRegistry::disabled());
            }
            if let Some(s) = scaler {
                sim.set_autoscaler(s);
            }
            sim
        });
        let report = timed(&mut self.clock.run_s, || sim.run(horizon));
        drop(sim);
        // Records emitted after the last monitor tick.
        fold.borrow_mut().push(tracer.take());
        self.subs.push(Sub {
            report,
            rate: job.rate,
            gpus,
            window_s: job.window.as_secs_f64(),
            horizon_s: horizon.as_secs_f64(),
            trace_len: job.trace.len(),
            elastic,
            fold: fold.take(),
            probe: probe.take(),
        });
    }
}

/// The end of a run: the arrival window plus a drain margin of a quarter
/// of it, at most 60 s, as `Deployment::serve` drains.
fn horizon(window: SimTime) -> SimTime {
    let margin = window.saturating_since(SimTime::ZERO).mul_f64(0.25);
    window + margin.min(SimSpan::from_secs(60))
}

/// All-pairs over every GPU and access switch, as the figure benches
/// build it for hand-placed deployments.
fn gpu_switch_pairs(topo: &BuiltTopology) -> AllPairs {
    let mut nodes = topo.all_gpus();
    nodes.extend(&topo.access_switches);
    AllPairs::compute(&topo.graph, &nodes, LinkWeight::Latency, None)
}

/// Fig. 7 chatbot knee: OPT-66B on the 16-GPU testbed with cross-server
/// TP4 prefill / TP8 decode, one INA slot per switch and bursty
/// background traffic. Every rung serves traces of its own: near the
/// knee one trace's bad episode moves a rung's tail, so shared traces
/// would move every rung together.
fn testbed_knee(ctx: &mut Ctx, rng: &mut SmallRng) -> Option<SolveStats> {
    let topo = ctx.topology(testbed);
    let d = knee_deployment(ctx, &topo);
    let window = SimTime::from_secs(KNEE_WINDOW_S);
    for rate in KNEE_RATES {
        for _ in 0..KNEE_SEEDS {
            let mut rng = SeedSplitter::new(rng.next_u64()).stream("trace");
            let trace = ctx
                .trace(|| Trace::generate(&d.workload, &mut Poisson::new(rate), &mut rng, window));
            let ap = ctx.all_pairs(|| d.all_pairs());
            let strategy = timed(&mut ctx.clock.strategy_s, || d.strategy());
            ctx.serve(Job {
                graph: &d.topology.graph,
                ap,
                cfg: d.cluster_config(),
                trace: &trace,
                rate,
                window,
                strategy,
                scaler: None,
            });
        }
    }
    Some(d.output.stats)
}

fn knee_deployment(ctx: &mut Ctx, topo: &BuiltTopology) -> Deployment {
    let model = ModelConfig::opt_66b();
    let workload = sharegpt_like();
    let mut d = timed(&mut ctx.clock.plan_s, || {
        let mut input = PlannerInput::interleaved(
            &topo.graph,
            model.clone(),
            default_coefficients(&model),
            expected_batch(&workload, 8),
            1.0,
            workload.ttft_sla_s,
            workload.tpot_sla_s,
        );
        input.force_prefill_parallelism = Some((4, 1));
        input.force_decode_parallelism = Some((8, 1));
        BaselineKind::HeroServe
            .deploy_with_input(topo, &input, &workload)
            .expect("the Fig. 7 testbed deployment plans")
    });
    d.ina_capacity_per_switch = 1;
    d.background = Some((20.0, 256 << 20));
    d
}

/// 96-GPU two-track fabric, OPT-13B, 150k ShareGPT requests at 80 % of
/// the planner's sustainable rate.
fn xtracks_steady(ctx: &mut Ctx, rng: &mut SmallRng) -> Option<SolveStats> {
    let topo = ctx.topology(|| xtracks(&XTracksConfig::two_tracks(2)));
    let workload = sharegpt_like();
    let d = timed(&mut ctx.clock.plan_s, || {
        BaselineKind::HeroServe
            .deploy(&topo, &ModelConfig::opt_13b(), &workload, 2.0)
            .expect("the xtracks deployment plans")
    });
    let rate = 0.8 * d.output.est_h_rps;
    let window = SimTime::from_secs_f64(XTRACKS_REQUESTS / rate);
    let trace = ctx.trace(|| Trace::generate(&workload, &mut Poisson::new(rate), rng, window));
    let ap = ctx.all_pairs(|| d.all_pairs());
    let strategy = timed(&mut ctx.clock.strategy_s, || d.strategy());
    ctx.serve(Job {
        graph: &d.topology.graph,
        ap,
        cfg: d.cluster_config(),
        trace: &trace,
        rate,
        window,
        strategy,
        scaler: None,
    });
    Some(d.output.stats)
}

/// The fig_kv placement (prefill on server 0, one decode instance beside
/// it and one on server 1) with NetKV decode selection, under background
/// traffic, a recurring brownout of the remote decode instance's uplinks
/// and one access-switch outage.
fn kv_fabric_faults(ctx: &mut Ctx, rng: &mut SmallRng) -> Option<SolveStats> {
    const RATE: f64 = 6.0;
    let topo = ctx.topology(testbed);
    let model = ModelConfig::opt_13b();
    let window = SimTime::from_secs(KV_WINDOW_S);
    let spec = fixed(1024, 24);
    let trace = ctx.trace(|| Trace::generate(&spec, &mut Poisson::new(RATE), rng, window));
    let ap = ctx.all_pairs(|| gpu_switch_pairs(&topo));
    // Minutes 2-8 of every ten: the remote instance's uplinks keep 15 %.
    let mut faults = FaultPlan::switch_outage(
        topo.access_switches[0],
        SimTime::from_secs(1800),
        SimTime::from_secs(1830),
    );
    for cycle in 0..KV_WINDOW_S / 600 {
        for &gpu in &topo.gpus_by_server[1][..2] {
            for &(nb, link) in topo.graph.neighbors(gpu) {
                if topo.access_switches.contains(&nb) {
                    let start = SimTime::from_secs(cycle * 600 + 120);
                    let end = SimTime::from_secs(cycle * 600 + 480);
                    faults = faults.merged(FaultPlan::link_brownout(link, 0.15, start, end));
                }
            }
        }
    }
    let cfg = ClusterConfig {
        coef: default_coefficients(&model),
        model,
        ttft_sla_s: spec.ttft_sla_s,
        tpot_sla_s: spec.tpot_sla_s,
        prefill: vec![InstanceSpec::tensor_parallel(
            topo.gpus_by_server[0][..2].to_vec(),
        )],
        decode: vec![
            InstanceSpec::tensor_parallel(topo.gpus_by_server[0][2..].to_vec()),
            InstanceSpec::tensor_parallel(topo.gpus_by_server[1][..2].to_vec()),
        ],
        batch: BatchPolicy::default(),
        gpu_memory_bytes: 40 << 30,
        monitor_period: SimSpan::from_millis(50),
        ina_capacity_per_switch: 8,
        background: Some((150.0, 8 << 20)),
        faults,
    };
    let strategy = timed(&mut ctx.clock.strategy_s, || {
        let params = SchedulerParams {
            kv_select: KvSelection::NetKv,
            ..SchedulerParams::default()
        };
        Box::new(HeroScheduler::new(&topo.graph, ap.clone(), params)) as Box<dyn CommStrategy>
    });
    ctx.serve(Job {
        graph: &topo.graph,
        ap,
        cfg,
        trace: &trace,
        rate: RATE,
        window,
        strategy,
        scaler: None,
    });
    None
}

/// The fig_autoscale burst setup: 4 prefill + 4 decode TP=2 slots on the
/// testbed under an MMPP flash crowd, HeroScheduler for communication and
/// a planner-seeded autoscaler for the pools.
fn flash_elastic(ctx: &mut Ctx, rng: &mut SmallRng) -> Option<SolveStats> {
    let topo = ctx.topology(testbed);
    let model = ModelConfig::opt_13b();
    let coef = default_coefficients(&model);
    let window = SimTime::from_secs(FLASH_WINDOW_S);
    let spec = fixed(256, 16);
    let trace = ctx.trace(|| Trace::generate(&spec, &mut FlashCrowd::new(42.0, 6.0), rng, window));
    // The controller is planned for the trace's mean rate, spikes included.
    let rate = trace.len() as f64 / window.as_secs_f64();
    let ap = ctx.all_pairs(|| gpu_switch_pairs(&topo));
    let (input, out) = timed(&mut ctx.clock.plan_s, || {
        let mut input = PlannerInput::interleaved(
            &topo.graph,
            model.clone(),
            coef,
            expected_batch(&spec, 8),
            rate,
            spec.ttft_sla_s,
            spec.tpot_sla_s,
        );
        input.force_prefill_parallelism = Some((2, 1));
        input.force_decode_parallelism = Some((2, 1));
        let out = plan(&input, SchemeSpace::Hybrid).expect("the autoscaler seed plans");
        (input, out)
    });
    let (strategy, scaler) = timed(&mut ctx.clock.strategy_s, || {
        let scaler = Autoscaler::from_plan(AutoscaleConfig::default(), &input, &out)
            .with_expected_rate(rate);
        let strategy = HeroScheduler::new(&topo.graph, ap.clone(), SchedulerParams::default());
        (
            Box::new(strategy) as Box<dyn CommStrategy>,
            Box::new(scaler) as Box<dyn ScaleController>,
        )
    });
    let slots = |server: usize| {
        let g = &topo.gpus_by_server[server];
        [
            InstanceSpec::tensor_parallel(g[..2].to_vec()),
            InstanceSpec::tensor_parallel(g[2..].to_vec()),
        ]
    };
    let cfg = ClusterConfig {
        model,
        coef,
        ttft_sla_s: spec.ttft_sla_s,
        tpot_sla_s: spec.tpot_sla_s,
        prefill: [slots(0), slots(2)].concat(),
        decode: [slots(1), slots(3)].concat(),
        batch: BatchPolicy::default(),
        gpu_memory_bytes: 40 << 30,
        monitor_period: SimSpan::from_millis(100),
        ina_capacity_per_switch: 8,
        background: None,
        faults: FaultPlan::none(),
    };
    ctx.serve(Job {
        graph: &topo.graph,
        ap,
        cfg,
        trace: &trace,
        rate,
        window,
        strategy,
        scaler: Some(scaler),
    });
    Some(out.stats)
}

/// `Mmpp::flash_crowd` arrivals whose calm/spike schedule comes from a
/// fixed stream of its own, so the seed changes which requests arrive but
/// not when the spikes hit. Spike lengths are exponential: drawn from the
/// seed, the longest spike of a run sets its TTFT tail and swings it by a
/// quarter between seeds.
struct FlashCrowd {
    mmpp: Mmpp,
    schedule: SmallRng,
    in_spike: bool,
    left_s: f64,
}

impl FlashCrowd {
    fn new(base_rps: f64, spike_factor: f64) -> Self {
        FlashCrowd {
            mmpp: Mmpp::flash_crowd(base_rps, spike_factor),
            schedule: SeedSplitter::new(0).stream("flash_elastic/spikes"),
            in_spike: false,
            left_s: 0.0,
        }
    }
}

fn exponential(rng: &mut SmallRng, rate: f64) -> f64 {
    -(1.0 - rng.gen::<f64>()).ln() / rate
}

impl ArrivalProcess for FlashCrowd {
    fn next_gap(&mut self, rng: &mut SmallRng) -> SimSpan {
        let m = &self.mmpp;
        let mut gap = 0.0;
        loop {
            if self.left_s <= 0.0 {
                self.in_spike = !self.in_spike;
                let mean = if self.in_spike {
                    m.mean_burst_s
                } else {
                    m.mean_calm_s
                };
                self.left_s = exponential(&mut self.schedule, 1.0 / mean);
            }
            let rate = if self.in_spike {
                m.burst_rate
            } else {
                m.base_rate
            };
            let draw = exponential(rng, rate);
            if draw <= self.left_s {
                self.left_s -= draw;
                return SimSpan::from_secs_f64(gap + draw);
            }
            gap += self.left_s;
            self.left_s = 0.0;
        }
    }

    fn mean_rate(&self) -> f64 {
        self.mmpp.mean_rate()
    }
}

/// A short run of the `testbed_knee` deployment, for tests.
#[cfg(test)]
pub mod testing {
    use super::*;

    fn small_setup(ctx: &mut Ctx) -> (Deployment, Trace, SimTime) {
        let topo = testbed();
        let d = knee_deployment(ctx, &topo);
        let window = SimTime::from_secs(8);
        let mut rng = SeedSplitter::new(5).stream("trace");
        let trace = Trace::generate(&d.workload, &mut Poisson::new(4.0), &mut rng, window);
        (d, trace, window)
    }

    /// The short run as a pass in `mode`.
    pub fn small_pass(mode: Mode) -> Pass {
        let mut ctx = Ctx::new(mode);
        let (d, trace, window) = small_setup(&mut ctx);
        ctx.serve(Job {
            graph: &d.topology.graph,
            ap: d.all_pairs(),
            cfg: d.cluster_config(),
            trace: &trace,
            rate: 4.0,
            window,
            strategy: d.strategy(),
            scaler: None,
        });
        ctx.finish(None)
    }

    /// The short run's whole trace, recorded without wrappers or draining.
    pub fn small_trace() -> Vec<hs_obs::event::Record> {
        let (d, trace, window) = small_setup(&mut Ctx::new(Mode::Plain));
        let tracer = hs_obs::Tracer::recording();
        let mut sim = ClusterSim::new(
            &d.topology.graph,
            d.all_pairs(),
            d.cluster_config(),
            &trace,
            d.strategy(),
        );
        sim.set_obs(&tracer, &hs_obs::MetricsRegistry::disabled());
        sim.run(horizon(window));
        tracer.take()
    }
}
