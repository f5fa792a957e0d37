//! The cluster simulation engine.
//!
//! Owns the request population, the instances and the event loop, and
//! runs the prefill/decode iteration steps. Four subsystems own the rest
//! of the state, each with its counters and the `SimReport` fields it
//! writes: `KvShipper` (admission and KV transfers), `Collectives`
//! (all-reduces, pipeline hops and INA slots), `Pools` (elastic pool
//! states) and `FaultRecovery` (abort demux, reroutes); the fault state
//! itself is a `FabricHealth`. The loop interleaves four event sources
//! deterministically: arrivals, streamed from the sorted trace, the
//! discrete event queue of in-flight events (compute completions, timers,
//! monitor ticks), network flow completions, and the per-iteration
//! communication state machines of [`hs_collective`].

use crate::autoscale::{PoolState, PoolTargets, Pools, ScaleController};
use crate::batching::{form_prefill_batch, BatchPolicy};
use crate::collectives::{CollOrigin, Collectives, Job};
use crate::faults::{FabricHealth, FaultRecovery};
use crate::instance::{InstPhase, Instance, InstanceKind, InstanceSpec};
use crate::kvcache::KvManager;
use crate::kvflow::KvRoutes;
use crate::kvship::KvShipper;
use crate::metrics::{meets_sla, SimReport};
use crate::request::{ReqPhase, ReqState};
use crate::strategy::CommStrategy;
use hs_des::{EventQueue, SimSpan, SimTime};
use hs_model::{
    decode_latency_secs, prefill_latency_secs, BatchStats, CostCoefficients, MemoryModel,
    ModelConfig,
};
use hs_simnet::{FlowId, LinkMonitor, Route, SimNet, SolveStats};
use hs_topology::{AllPairs, Graph, LinkId, LinkKind, NodeId};
use hs_workload::{ArrivalProcess, FaultKind, FaultPlan, Mmpp, RequestId, Trace};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::collections::VecDeque;

/// The engine component a network flow belongs to, carried in the flow's
/// tag: the top four bits say which, the other 60 the owner's id.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FlowOwner {
    /// A flow of collective launch `id`.
    Coll(u64),
    /// A stripe of request `id`'s KV shipment.
    Kv(u64),
}

impl FlowOwner {
    const KIND_SHIFT: u32 = 60;
    /// The largest id a tag can carry.
    pub(crate) const MAX_ID: u64 = (1 << Self::KIND_SHIFT) - 1;
    /// The tag of a flow no component owns (background traffic).
    pub(crate) const NONE: u64 = 0;

    /// The tag of this owner's flows.
    pub(crate) fn tag(self) -> u64 {
        let (kind, id) = match self {
            FlowOwner::Coll(id) => (1, id),
            FlowOwner::Kv(id) => (2, id),
        };
        debug_assert!(id <= Self::MAX_ID, "flow owner id {id} overflows its tag");
        kind << Self::KIND_SHIFT | id
    }

    /// The owner a flow's tag names, or `None` for [`FlowOwner::NONE`].
    pub(crate) fn of(tag: u64) -> Option<Self> {
        let id = tag & Self::MAX_ID;
        match tag >> Self::KIND_SHIFT {
            1 => Some(FlowOwner::Coll(id)),
            2 => Some(FlowOwner::Kv(id)),
            _ => None,
        }
    }
}

/// The tensor group of instance `inst`'s pipeline stage `stage`: the id
/// its all-reduces launch under and the strategy keys its state by.
fn group_id(inst: usize, stage: usize) -> u64 {
    (inst as u64) << 8 | stage as u64
}

/// Static configuration of one cluster simulation.
pub struct ClusterConfig {
    /// The served model.
    pub model: ModelConfig,
    /// Fitted Eq. 12–13 coefficients.
    pub coef: CostCoefficients,
    /// TTFT SLA, seconds.
    pub ttft_sla_s: f64,
    /// TPOT SLA, seconds.
    pub tpot_sla_s: f64,
    /// Prefill instance placements.
    pub prefill: Vec<InstanceSpec>,
    /// Decode instance placements.
    pub decode: Vec<InstanceSpec>,
    /// Continuous-batching limits.
    pub batch: BatchPolicy,
    /// GPU memory per decode GPU, bytes (KV capacity derivation).
    pub gpu_memory_bytes: u64,
    /// Monitoring / control-plane polling period.
    pub monitor_period: SimSpan,
    /// Max concurrent INA jobs per switch (aggregator-slot budget divided
    /// by the per-job window; the contention knob of §II-C).
    pub ina_capacity_per_switch: usize,
    /// Optional bursty background traffic (the shared-cluster cross
    /// traffic of §I/§II-C): `(mean flows/s, bytes per flow)`, arrivals
    /// MMPP-modulated, endpoints random GPU pairs.
    pub background: Option<(f64, u64)>,
    /// Scheduled fabric faults replayed during the run (link/switch/GPU
    /// failures and recoveries). Empty for a healthy fabric.
    pub faults: FaultPlan,
}

impl ClusterConfig {
    /// Sum of GPUs across prefill and decode instances.
    pub fn total_gpus(&self) -> usize {
        self.prefill
            .iter()
            .chain(self.decode.iter())
            .map(|s| s.gpu_count())
            .sum()
    }
}

pub(crate) enum Ev {
    /// An instance's iteration finished computing.
    ComputeDone(usize),
    /// A collective's phase timer expired.
    CollTimer(u64),
    MonitorTick,
    Background,
    /// Scheduled fault (index into `cfg.faults.events()`).
    Fault(u32),
    /// Backed-off relaunch of an aborted collective (retry key).
    RetryColl(u64),
    /// Backed-off relaunch of an aborted KV transfer (request id).
    RetryKv(u64),
}

/// What every subsystem reaches: the fabric and its routes, the link
/// monitor, the clock, the event queue, the strategy and the tracer.
pub(crate) struct Shared {
    pub(crate) g: Graph,
    pub(crate) ap: AllPairs,
    pub(crate) net: SimNet,
    /// Link, switch and GPU fault state; `net`'s link scales follow it.
    pub(crate) health: FabricHealth,
    /// The one view of link utilization: what the strategy is shown at
    /// each monitor tick and every route choice until the next.
    pub(crate) monitor: LinkMonitor,
    pub(crate) strategy: Box<dyn CommStrategy>,
    pub(crate) events: EventQueue<Ev>,
    pub(crate) now: SimTime,
    pub(crate) tracer: hs_obs::Tracer,
}

impl Shared {
    /// Shared state over `graph` at `t = 0`: a fresh network, a healthy
    /// fabric, idle utilization and a no-op tracer.
    pub(crate) fn new(
        graph: &Graph,
        ap: AllPairs,
        strategy: Box<dyn CommStrategy>,
        events: EventQueue<Ev>,
    ) -> Self {
        Shared {
            g: graph.clone(),
            ap,
            net: SimNet::new(graph),
            health: FabricHealth::new(graph),
            monitor: LinkMonitor::new(graph.link_count()),
            strategy,
            events,
            now: SimTime::ZERO,
            tracer: hs_obs::Tracer::noop(),
        }
    }

    /// Poll the monitor and hand its utilization estimates to the
    /// strategy.
    pub(crate) fn observe(&mut self) {
        self.monitor.poll(&self.net, self.now);
        self.strategy.on_monitor(self.monitor.snapshot(), self.now);
    }

    /// Route a point-to-point transfer (KV stripe, pipeline hop): the
    /// strategy may steer around faults and hotspots; the fallback is the
    /// precomputed shortest path, shared with `ap`.
    pub(crate) fn route(&mut self, src: NodeId, dst: NodeId, bytes: u64) -> Route {
        match self
            .strategy
            .choose_path(src, dst, bytes, self.monitor.snapshot())
        {
            Some(hops) => hops.into(),
            None => Route::clone(&self.ap.path(src, dst).route),
        }
    }
}

/// The simulator.
pub struct ClusterSim {
    pub(crate) sh: Shared,
    cfg: ClusterConfig,
    reqs: Vec<ReqState>,
    /// Index into `reqs` of the next request to arrive.
    next_arrival: usize,
    /// The report has taken over `reqs`: the run is over.
    reported: bool,
    prefill_queue: VecDeque<RequestId>,
    instances: Vec<Instance>,
    /// Per-GPU memory view of the first decode spec (instances are
    /// homogeneous per experiment) for the Fig. 10 utilization series.
    mem: MemoryModel,
    pub(crate) kv: KvShipper,
    pub(crate) colls: Collectives,
    pools: Pools,
    faults: FaultRecovery,
    offered_rate: f64,
    bg: Option<Background>,
    /// Queued events and flow completions dispatched so far; arrivals
    /// are `next_arrival`.
    dispatched: EventCounts,
}

/// What a run has dispatched, by kind: deterministic work counters read
/// beside the report (`ClusterSim::event_counts`), never folded into it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Requests arrived from the trace.
    pub arrivals: u64,
    /// Network flow completions handed to their owners.
    pub flow_completions: u64,
    /// Iterations that finished computing.
    pub compute_done: u64,
    /// Collective phase timers that expired.
    pub coll_timer: u64,
    /// Link monitor ticks.
    pub monitor_tick: u64,
    /// Background flows fired.
    pub background: u64,
    /// Scheduled faults applied.
    pub fault: u64,
    /// Backed-off relaunches of aborted collectives.
    pub retry_coll: u64,
    /// Backed-off relaunches of aborted KV transfers.
    pub retry_kv: u64,
}

impl EventCounts {
    /// Count one dispatched queue event.
    fn count(&mut self, ev: &Ev) {
        let n = match ev {
            Ev::ComputeDone(_) => &mut self.compute_done,
            Ev::CollTimer(_) => &mut self.coll_timer,
            Ev::MonitorTick => &mut self.monitor_tick,
            Ev::Background => &mut self.background,
            Ev::Fault(_) => &mut self.fault,
            Ev::RetryColl(_) => &mut self.retry_coll,
            Ev::RetryKv(_) => &mut self.retry_kv,
        };
        *n += 1;
    }
}

/// Bursty cross traffic between random GPU pairs.
pub(crate) struct Background {
    mmpp: Mmpp,
    rng: SmallRng,
    /// The fabric's GPUs, in id order: the endpoints drawn from.
    gpus: Vec<NodeId>,
    /// Bytes per flow.
    bytes: u64,
}

impl Background {
    /// Traffic of `(mean flows/s, bytes per flow)` over `graph`'s GPUs;
    /// schedules its first flow on `events`.
    pub(crate) fn start(
        graph: &Graph,
        (rate, bytes): (f64, u64),
        events: &mut EventQueue<Ev>,
    ) -> Self {
        let mut rng = hs_des::SeedSplitter::new(0xB66).stream("background");
        let mut mmpp = Mmpp::bursty(rate, 5.0);
        let first = SimTime::ZERO + mmpp.next_gap(&mut rng);
        events.push(first, Ev::Background);
        Background {
            mmpp,
            rng,
            gpus: graph.gpus(),
            bytes,
        }
    }

    /// Start a flow between two random GPUs and schedule the next one.
    pub(crate) fn fire(&mut self, sh: &mut Shared) -> Option<()> {
        let Background {
            mmpp,
            rng,
            gpus,
            bytes,
        } = self;
        sh.events.push(sh.now + mmpp.next_gap(rng), Ev::Background);
        let a = *gpus.choose(rng)?;
        let mut b = *gpus.choose(rng)?;
        let mut guard = 0;
        while b == a && guard < 8 {
            b = *gpus.choose(rng)?;
            guard += 1;
        }
        if a == b || !sh.ap.covers(a) || !sh.ap.covers(b) {
            return None;
        }
        let route = &sh.ap.path(a, b).route;
        if !route.is_empty() {
            sh.net.start_flow(sh.now, route, *bytes, FlowOwner::NONE);
        }
        Some(())
    }
}

impl ClusterSim {
    /// Build a simulation over `graph` for `trace` with the given
    /// strategy.
    ///
    /// # Panics
    /// Panics on invalid instance specs, and on a trace whose ids are not
    /// positional or whose requests are not sorted by arrival.
    pub fn new(
        graph: &Graph,
        ap: AllPairs,
        cfg: ClusterConfig,
        trace: &Trace,
        strategy: Box<dyn CommStrategy>,
    ) -> Self {
        for s in cfg.prefill.iter().chain(cfg.decode.iter()) {
            s.validate().expect("invalid instance spec");
        }
        let prefill = cfg.prefill.iter().map(|s| (s, InstanceKind::Prefill));
        let decode = cfg.decode.iter().map(|s| (s, InstanceKind::Decode));
        let instances: Vec<Instance> = prefill
            .chain(decode)
            .map(|(s, kind)| Instance::new(s.clone(), kind))
            .collect();

        let mem_spec = cfg.decode.first().or(cfg.prefill.first());
        let mem_spec = mem_spec.expect("at least one instance");
        // Arrivals stream from the trace (`run`), so the queue holds only
        // the scheduled faults and the events in flight: about one per
        // instance, plus the monitor tick, the next background flow,
        // collective timers and retries. It grows if more are pending.
        let in_flight = instances.len() + 16;
        let events = EventQueue::with_capacity(cfg.faults.events().len() + in_flight);
        let mut sh = Shared::new(graph, ap, strategy, events);
        let mut reqs = Vec::with_capacity(trace.len());
        for (i, r) in trace.requests.iter().enumerate() {
            // Request state is indexed by RequestId throughout the engine,
            // so ids must be positional (as `Trace::generate` makes them).
            assert_eq!(r.id.0, i as u64, "trace RequestIds must be positional");
            reqs.push(ReqState::new(*r));
        }
        // Every `Trace` constructor sorts, but `requests` is a pub field.
        assert!(
            trace.requests.is_sorted_by_key(|r| r.arrival),
            "trace requests must be sorted by arrival"
        );
        sh.events
            .push(SimTime::ZERO + cfg.monitor_period, Ev::MonitorTick);
        for (i, f) in cfg.faults.events().iter().enumerate() {
            sh.events.push(f.at, Ev::Fault(i as u32));
        }
        let bg = cfg
            .background
            .map(|traffic| Background::start(graph, traffic, &mut sh.events));
        let kv = KvShipper::new(&cfg, trace.len(), KvRoutes::new(graph, &sh.ap));
        let mut colls = Collectives::new(cfg.ina_capacity_per_switch);
        for (inst, instance) in instances.iter().enumerate() {
            for (sidx, stage) in instance.spec.stages.iter().enumerate() {
                colls.add_group(group_id(inst, sidx), stage);
            }
        }
        ClusterSim {
            sh,
            reqs,
            next_arrival: 0,
            reported: false,
            prefill_queue: VecDeque::new(),
            instances,
            mem: MemoryModel::new(&cfg.model, mem_spec.p_tens(), mem_spec.p_pipe()),
            kv,
            colls,
            pools: Pools::new(cfg.prefill.len()),
            faults: FaultRecovery::default(),
            offered_rate: trace.empirical_rate(),
            bg,
            dispatched: EventCounts::default(),
            cfg,
        }
    }

    /// Attach a tracer (the default is a no-op). The same tracer is wired
    /// into the network simulator and the strategy so every layer records
    /// into one stream; tracing never changes simulation outcomes. The
    /// registry argument is an inert stub and is ignored.
    pub fn set_obs(&mut self, tracer: &hs_obs::Tracer, _: &hs_obs::MetricsRegistry) {
        self.sh.tracer = tracer.clone();
        self.sh.net.set_tracer(tracer);
        self.sh.strategy.attach_tracer(tracer);
    }

    /// Attach a pool controller (elastic autoscaling, DESIGN.md §13).
    /// The controller's initial targets apply immediately: instances
    /// beyond them park at `t = 0` and contribute zero GPU-seconds until
    /// unparked. Without a controller every instance stays Active for
    /// the whole run (the pre-elastic behavior, bit-for-bit).
    pub fn set_autoscaler(&mut self, ctl: Box<dyn ScaleController>) {
        let targets = self.pools.attach(ctl, self.instances.len());
        self.apply_targets(targets);
    }

    /// The network engine's solver work counters so far (DESIGN.md §12):
    /// scoped solves, resumed solves and flows rated over a run.
    pub fn net_solve_stats(&self) -> SolveStats {
        self.sh.net.solve_stats()
    }

    /// Events dispatched so far, by kind.
    pub fn event_counts(&self) -> EventCounts {
        EventCounts {
            arrivals: self.next_arrival as u64,
            ..self.dispatched
        }
    }

    /// Collective plan shapes compiled so far: one per tensor group and
    /// scheme it launched with, however many all-reduces ran.
    pub fn plans_compiled(&self) -> u64 {
        self.colls.plans_compiled
    }

    /// The routes this run was built with: collectives, background flows
    /// and KV pricing read this one table.
    pub fn all_pairs(&self) -> &AllPairs {
        &self.sh.ap
    }

    /// Run until `horizon` and produce the report.
    ///
    /// A simulation runs once: the report's `per_request` rows take over
    /// the request states' memory, so the simulation cannot continue
    /// after it.
    ///
    /// # Panics
    /// Panics when called a second time.
    pub fn run(&mut self, horizon: SimTime) -> SimReport {
        assert!(
            !self.reported,
            "ClusterSim::run called twice: the first run's report took over the request states"
        );
        self.run_until(horizon);
        self.build_report(horizon)
    }

    /// Dispatch every event due by `horizon` and leave the clock there.
    ///
    /// The interleave contract with `SimNet`'s incremental engine
    /// (DESIGN.md §9): `next_event_time` is `>= now` (clamped), may be
    /// `SimTime::MAX` while every flow is starved by a dead link, and
    /// `advance_to(t, ..)` delivers completions in `(finish, id)` order. A
    /// cancelled-but-drained flow is *not* returned by `cancel_flow`;
    /// its completion still arrives here and is demuxed to an already
    /// dissolved collective or shipment, which ignores it by design.
    ///
    /// Arrivals come from the sorted trace through a cursor, merged ahead
    /// of the queue: at an instant, network completions go first, then
    /// the arrivals due, in trace order, then the queued events, FIFO.
    pub(crate) fn run_until(&mut self, horizon: SimTime) {
        let mut done = Vec::new();
        loop {
            let ta = self.reqs.get(self.next_arrival).map(|r| r.req.arrival);
            let tq = self.sh.events.peek_time();
            let tn = self.sh.net.next_event_time();
            let Some(t) = [ta, tq, tn].into_iter().flatten().min() else {
                break;
            };
            if t > horizon {
                break;
            }
            self.sh.now = t;
            // Network completions first (deterministic: completion order).
            self.sh.net.advance_to(t, &mut done);
            self.dispatched.flow_completions += done.len() as u64;
            for (id, flow) in done.drain(..) {
                self.on_flow_done(id, flow.tag);
                self.close_collectives();
            }
            if ta == Some(t) {
                self.arrive(self.next_arrival);
                self.next_arrival += 1;
                self.close_collectives();
            } else if self.sh.events.peek_time() == Some(t) {
                // Re-peeked: a completion handler may have queued an event
                // for this instant.
                let (_, ev) = self.sh.events.pop().expect("peeked event");
                self.handle(ev);
                self.close_collectives();
            }
        }
        self.sh.now = horizon;
        self.sh.net.advance_to(horizon, &mut done);
    }

    /// Request `idx` of the trace arrives and queues for prefill.
    fn arrive(&mut self, idx: usize) {
        let now = self.sh.now;
        let req = self.reqs[idx].req;
        let tracer = &self.sh.tracer;
        tracer.request_arrived(now, req.id.0, req.input_tokens, req.output_tokens);
        tracer.request_phase_begin(now, req.id.0, "queued");
        self.prefill_queue.push_back(req.id);
        self.kick_prefill();
    }

    fn handle(&mut self, ev: Ev) {
        self.dispatched.count(&ev);
        match ev {
            Ev::ComputeDone(inst) => self.start_comm(inst),
            Ev::CollTimer(coll) => self.colls.step(&mut self.sh, coll, None),
            Ev::Background => {
                if let Some(bg) = &mut self.bg {
                    bg.fire(&mut self.sh);
                }
            }
            Ev::MonitorTick => self.monitor_tick(),
            Ev::Fault(idx) => self.apply_fault(self.cfg.faults.events()[idx as usize].kind),
            Ev::RetryColl(key) => self.colls.retry(&mut self.sh, &mut self.faults, key),
            Ev::RetryKv(req) => {
                if self.kv.relaunch(&mut self.sh, &mut self.faults, req) {
                    self.kv_done(RequestId(req));
                }
            }
        }
    }

    fn monitor_tick(&mut self) {
        let sh = &mut self.sh;
        sh.observe();
        self.kv
            .sample_memory(sh.now, &self.mem, self.cfg.gpu_memory_bytes);
        if sh.tracer.is_enabled() {
            // Counter tracks only for links carrying traffic — idle links
            // would bloat the trace with flat zeros.
            for (l, &u) in sh.monitor.snapshot().iter().enumerate() {
                if u > 0.0 {
                    sh.tracer.link_util(sh.now, l as u64, u);
                }
            }
        }
        // Elastic control loop: the controller sees this tick's snapshot
        // and may move the pool targets.
        let queued = self.prefill_queue.len();
        let arrived = self.next_arrival as u64;
        let tick = self
            .pools
            .tick(sh.now, arrived, &self.instances, &self.kv, queued);
        if let Some(decision) = tick {
            if let Some(targets) = decision {
                self.apply_targets(targets);
            }
            self.pools.publish(&self.sh, &self.instances);
        }
        let next = self.sh.now + self.cfg.monitor_period;
        self.sh.events.push(next, Ev::MonitorTick);
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        let sh = &mut self.sh;
        if sh.tracer.is_enabled() {
            sh.tracer
                .fault(sh.now, format!("{kind:?}"), kind.is_recovery());
        }
        for (link, factor) in sh.health.apply(&sh.g, kind) {
            self.set_link(link, factor);
        }
        if let FaultKind::SwitchFail { switch } = kind {
            // Collectives queued on the dead switch would never be
            // admitted; relaunch them so the failover branch can degrade
            // them to a surviving scheme.
            self.colls.requeue(&mut self.sh, switch);
        }
        self.sh.strategy.on_fault(&kind, self.sh.now);
    }

    /// Rescale one link, then hand the flows a dead link tore out to
    /// their owners: KV shipments resend, collectives abort wholesale and
    /// relaunch after a backoff, background flows drop. Owners are
    /// visited in id order because they push retry events.
    fn set_link(&mut self, l: LinkId, factor: f64) {
        let aborted = self.sh.net.set_link_scale(self.sh.now, l, factor);
        let (colls, kv) = self.faults.demux(aborted);
        for (req, gone) in kv {
            self.kv.abort(&mut self.sh, req, &gone);
        }
        for (coll, gone) in colls {
            self.colls.abort(&mut self.sh, coll, &gone);
        }
    }

    /// Move both pools toward `targets`; newly activated capacity picks
    /// up queued work immediately.
    fn apply_targets(&mut self, targets: PoolTargets) {
        self.pools
            .retarget(&self.sh, &mut self.instances, &self.kv, targets);
        self.kick_prefill();
        self.retry_admissions();
    }

    /// Start iterations on every Active, idle prefill instance with
    /// queued work. Draining/Parked instances take no new batches.
    fn kick_prefill(&mut self) {
        for i in 0..self.cfg.prefill.len() {
            if self.instances[i].state == PoolState::Active
                && self.instances[i].phase == InstPhase::Idle
                && !self.prefill_queue.is_empty()
            {
                self.start_prefill_iteration(i);
            }
        }
    }

    fn start_prefill_iteration(&mut self, inst: usize) {
        let reqs = &self.reqs;
        let batch = form_prefill_batch(&mut self.prefill_queue, &self.cfg.batch, |id| {
            reqs[id.0 as usize].req.input_tokens as u64
        });
        if batch.is_empty() {
            return;
        }
        let now = self.sh.now;
        let mut stats = BatchStats::default();
        for &id in &batch {
            let r = &mut self.reqs[id.0 as usize];
            r.phase = ReqPhase::Prefilling;
            stats.push(r.req.input_tokens as u64, r.req.output_tokens as u64);
            self.sh.tracer.request_phase_end(now, id.0, "queued");
            self.sh.tracer.request_phase_begin(now, id.0, "prefill");
        }
        let spec = &self.instances[inst].spec;
        let t_c = prefill_latency_secs(&self.cfg.coef, &self.cfg.model, &stats, spec.p_tens())
            * self.sh.health.slowdown(spec);
        self.instances[inst].batch = batch;
        self.instances[inst].phase = InstPhase::Computing;
        let done = now + SimSpan::from_secs_f64(t_c);
        self.sh.events.push(done, Ev::ComputeDone(inst));
    }

    /// Tokens flowing through the instance this iteration (drives sync
    /// volume): prompt tokens for prefill, one per live request for
    /// decode.
    fn iteration_tokens(&self, inst: usize) -> u64 {
        let instance = &self.instances[inst];
        match instance.kind {
            InstanceKind::Prefill => instance
                .batch
                .iter()
                .map(|id| self.reqs[id.0 as usize].req.input_tokens as u64)
                .sum(),
            InstanceKind::Decode => instance.active.len() as u64,
        }
    }

    /// Launch the iteration's collectives: one all-reduce per
    /// tensor-parallel stage, then the pipeline-stage hops.
    fn start_comm(&mut self, inst: usize) {
        let tokens = self.iteration_tokens(inst);
        let spec = &self.instances[inst].spec;
        let bytes = self.cfg.model.stage_sync_bytes(tokens, spec.p_pipe());
        // Pipeline-stage boundary transfers (Eq. 6): activations of
        // `tokens` tokens hop from each stage's leader to the next.
        let hop = self.cfg.model.activation_bytes(tokens);
        let hops = (spec.p_pipe() > 1 && tokens > 0).then(|| CollOrigin::PipeHops {
            hops: spec.stages.windows(2).map(|w| (w[0][0], w[1][0])).collect(),
            bytes: hop,
        });
        let groups = spec.stages.iter().enumerate();
        let groups = groups.filter(|(_, group)| group.len() >= 2 && bytes > 0);
        let groups = groups.map(|(sidx, _)| CollOrigin::Group {
            group_id: group_id(inst, sidx),
            bytes,
        });
        let mut outstanding = 0usize;
        for origin in groups.chain(hops) {
            let job = Job {
                inst,
                origin,
                attempt: 0,
            };
            let launched = self.colls.launch(&mut self.sh, &mut self.faults, job, None);
            outstanding += usize::from(launched);
        }
        if outstanding == 0 {
            self.iteration_done(inst);
        } else {
            self.instances[inst].phase = InstPhase::Communicating { outstanding };
        }
    }

    /// Close out the instances whose collectives just ended, in the order
    /// they ended; an instance's last one ends its iteration.
    fn close_collectives(&mut self) {
        while let Some(inst) = self.colls.finished.pop_front() {
            let InstPhase::Communicating { outstanding } = &mut self.instances[inst].phase else {
                unreachable!("collective finished while instance not communicating")
            };
            *outstanding -= 1;
            if *outstanding == 0 {
                self.iteration_done(inst);
            }
        }
    }

    fn iteration_done(&mut self, inst: usize) {
        let now = self.sh.now;
        self.instances[inst].phase = InstPhase::Idle;
        match self.instances[inst].kind {
            InstanceKind::Prefill => {
                let batch = std::mem::take(&mut self.instances[inst].batch);
                for id in batch {
                    let r = &mut self.reqs[id.0 as usize];
                    // The KV cache lives on this instance's GPUs from now
                    // on — every (re)transfer must ship from here.
                    r.set_prefill_done(now, inst);
                    r.phase = ReqPhase::AwaitingAdmission;
                    self.sh.tracer.request_phase_end(now, id.0, "prefill");
                    if !self.admit(id) {
                        self.kv.defer(id);
                    }
                }
                self.kick_prefill();
                self.pools
                    .park_if_drained(&self.sh, &mut self.instances, &self.kv, inst);
            }
            InstanceKind::Decode => {
                let (ttft_sla, tpot_sla) = (self.cfg.ttft_sla_s, self.cfg.tpot_sla_s);
                let (tracer, reqs, pools) = (&self.sh.tracer, &mut self.reqs, &mut self.pools);
                let kv = &mut self.kv.managers[inst - self.cfg.prefill.len()];
                let Instance {
                    active,
                    decode_stats,
                    ..
                } = &mut self.instances[inst];
                // Every live request grew by one token.
                decode_stats.grow_one_token();
                kv.materialize(active.len() as u64);
                // One pass in batch order: each request takes its token,
                // and those that just finished leave the batch and
                // release their KV.
                let mut finished = false;
                active.retain(|id| {
                    let r = &mut reqs[id.0 as usize];
                    r.tokens_generated += 1;
                    if r.tokens_generated < r.req.output_tokens {
                        return true;
                    }
                    r.phase = ReqPhase::Done;
                    r.set_finished(now);
                    let ttft = r.ttft_secs();
                    let latency = now.saturating_since(r.req.arrival).as_secs_f64();
                    pools.done += 1;
                    if meets_sla(ttft, r.tpot_secs(), ttft_sla, tpot_sla) {
                        pools.done_ok += 1;
                    }
                    tracer.request_phase_end(now, id.0, "decode");
                    tracer.request_done(now, id.0, ttft.unwrap_or(0.0), latency);
                    let live = r.req.input_tokens as u64 + r.tokens_generated as u64;
                    kv.release(r.reserved_kv_tokens(), live);
                    decode_stats.remove(live, r.req.output_tokens as u64);
                    finished = true;
                    false
                });
                if finished {
                    self.retry_admissions();
                }
                self.start_decode_iteration(inst);
                self.pools
                    .park_if_drained(&self.sh, &mut self.instances, &self.kv, inst);
            }
        }
    }

    /// Admit `id` to a decode instance and launch its KV shipment;
    /// `false` when no instance can take it right now.
    fn admit(&mut self, id: RequestId) -> bool {
        let (reqs, instances) = (&mut self.reqs, &self.instances);
        let Some(landed) = self.kv.admit(&mut self.sh, reqs, instances, id) else {
            return false;
        };
        if landed {
            // Zero-byte shipment or co-located prefill/decode: nothing
            // crossed the fabric.
            self.kv_done(id);
        }
        true
    }

    /// Offer freed decode capacity back to the deferred-admission queue
    /// with head-of-line semantics and a bounded reorder window: the head
    /// keeps first claim on released memory, but up to
    /// `ADMIT_REORDER_WINDOW` blocked requests may be stepped over so a
    /// single huge request cannot idle capacity that smaller ones behind
    /// it could use. Blocked heads return to the front in their original
    /// order, so a large request's queue position — and its claim on the
    /// next release — is preserved (no starvation).
    fn retry_admissions(&mut self) {
        /// Max blocked requests a retry pass may step over.
        const ADMIT_REORDER_WINDOW: usize = 4;
        let mut blocked: Vec<RequestId> = Vec::new();
        while blocked.len() < ADMIT_REORDER_WINDOW {
            let Some(id) = self.kv.pending.pop_front() else {
                break;
            };
            if !self.admit(id) {
                blocked.push(id);
            }
        }
        for id in blocked.into_iter().rev() {
            self.kv.pending.push_front(id);
        }
    }

    /// The request's KV cache has landed: it joins its decode instance at
    /// the next iteration boundary (now, if the instance is idle).
    fn kv_done(&mut self, id: RequestId) {
        self.kv.land(&self.sh, id);
        let now = self.sh.now;
        let r = &mut self.reqs[id.0 as usize];
        r.phase = ReqPhase::Decoding;
        r.set_decode_start(now);
        self.sh.tracer.request_phase_end(now, id.0, "kv_transfer");
        self.sh.tracer.request_phase_begin(now, id.0, "decode");
        let inst = r.decode_instance().expect("admitted request has instance");
        self.instances[inst].joining.push(id);
        if self.instances[inst].phase == InstPhase::Idle {
            self.start_decode_iteration(inst);
        }
    }

    fn start_decode_iteration(&mut self, inst: usize) {
        let reqs = &self.reqs;
        let Instance {
            active,
            joining,
            decode_stats,
            phase,
            ..
        } = &mut self.instances[inst];
        for id in joining.iter() {
            let r = &reqs[id.0 as usize];
            let l_in = r.req.input_tokens as u64 + r.tokens_generated as u64;
            decode_stats.push(l_in, r.req.output_tokens as u64);
        }
        active.append(joining);
        if active.is_empty() {
            *phase = InstPhase::Idle;
            return;
        }
        debug_assert_eq!(
            *decode_stats,
            active.iter().fold(BatchStats::default(), |mut s, id| {
                let r = &reqs[id.0 as usize];
                s.push(
                    r.req.input_tokens as u64 + r.tokens_generated as u64,
                    r.req.output_tokens as u64,
                );
                s
            }),
            "running decode stats drifted from the batch"
        );
        let stats = *decode_stats;
        let spec = &self.instances[inst].spec;
        let t_c = decode_latency_secs(
            &self.cfg.coef,
            &self.cfg.model,
            &stats,
            spec.p_tens(),
            spec.p_pipe(),
        ) * self.sh.health.slowdown(spec);
        self.instances[inst].phase = InstPhase::Computing;
        let done = self.sh.now + SimSpan::from_secs_f64(t_c);
        self.sh.events.push(done, Ev::ComputeDone(inst));
    }

    fn on_flow_done(&mut self, id: FlowId, tag: u64) {
        match FlowOwner::of(tag) {
            Some(FlowOwner::Coll(coll)) => self.colls.step(&mut self.sh, coll, Some(id)),
            Some(FlowOwner::Kv(req)) if self.kv.stripe_done(req, id) => {
                self.kv_done(RequestId(req))
            }
            _ => {} // background flows, stripes of unfinished shipments
        }
    }

    fn build_report(&mut self, horizon: SimTime) -> SimReport {
        let mut report = SimReport {
            strategy: self.sh.strategy.name().to_string(),
            offered_rate: self.offered_rate,
            ..SimReport::default()
        };
        self.pools.report(&mut report, &mut self.instances, horizon);
        self.kv.report(&mut report);
        self.colls.report(&mut report);
        self.faults.report(&mut report);
        for (lid, link) in self.sh.g.links() {
            let bytes = self.sh.net.cumulative_bytes(lid);
            match link.kind {
                LinkKind::Ethernet => report.eth_bytes += bytes,
                LinkKind::NvLink | LinkKind::Pcie => report.nvlink_bytes += bytes,
            }
        }
        let (ttft_sla, tpot_sla) = (self.cfg.ttft_sla_s, self.cfg.tpot_sla_s);
        report.fault_window_attainment = self.cfg.faults.window().and_then(|w| {
            SimReport::attainment_in_window(&self.reqs, ttft_sla, tpot_sla, horizon, w)
        });
        self.reported = true;
        report.summarize(std::mem::take(&mut self.reqs), ttft_sla, tpot_sla, horizon);
        report
    }

    /// The current KV managers (tests / Fig. 10 probes).
    pub fn kv_managers(&self) -> &[KvManager] {
        &self.kv.managers
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::autoscale::{PoolSnapshot, StaticController};
    use crate::strategy::{BusyPolicy, CommCtx, KvCandidate, KvChoice, KvCtx, StaticStrategy};
    use hs_collective::Scheme;
    use hs_des::SeedSplitter;
    use hs_model::profile::fit;
    use hs_model::GpuModel;
    use hs_topology::builders::{testbed, BuiltTopology};
    use hs_workload::spec::fixed;
    use hs_workload::{Poisson, Request};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A simulation on the paper's testbed: OPT-13B with fitted
    /// coefficients, routes over every GPU and access switch.
    pub(crate) fn testbed_sim(
        t: &BuiltTopology,
        prefill: Vec<InstanceSpec>,
        decode: Vec<InstanceSpec>,
        faults: FaultPlan,
        trace: &Trace,
        strategy: Box<dyn CommStrategy>,
    ) -> ClusterSim {
        let cfg = testbed_cfg(prefill, decode, faults);
        ClusterSim::new(&t.graph, t.gpu_switch_pairs(), cfg, trace, strategy)
    }

    /// [`testbed_sim`]'s configuration: OPT-13B with fitted coefficients,
    /// a 100 ms monitor and no background traffic.
    fn testbed_cfg(
        prefill: Vec<InstanceSpec>,
        decode: Vec<InstanceSpec>,
        faults: FaultPlan,
    ) -> ClusterConfig {
        let model = ModelConfig::opt_13b();
        let coef = fit(&GpuModel::a100(), &model).coefficients;
        ClusterConfig {
            model,
            coef,
            ttft_sla_s: 2.5,
            tpot_sla_s: 0.15,
            prefill,
            decode,
            batch: BatchPolicy::default(),
            gpu_memory_bytes: 40 * (1 << 30),
            monitor_period: SimSpan::from_millis(100),
            ina_capacity_per_switch: 4,
            background: None,
            faults,
        }
    }

    /// One TP=4 instance on each of `servers`.
    pub(crate) fn tp4(t: &BuiltTopology, servers: &[usize]) -> Vec<InstanceSpec> {
        let spec = |&s: &usize| InstanceSpec::tensor_parallel(t.gpus_by_server[s].clone());
        servers.iter().map(spec).collect()
    }

    /// A static strategy running `scheme` everywhere.
    pub(crate) fn fixed_scheme(scheme: Scheme) -> Box<dyn CommStrategy> {
        Box::new(StaticStrategy::uniform(
            "test",
            scheme,
            BusyPolicy::FallbackRing,
        ))
    }

    /// Poisson arrivals of 256/16-token requests over `horizon_s` seconds.
    pub(crate) fn poisson_trace(rate: f64, horizon_s: u64) -> Trace {
        let mut rng = SeedSplitter::new(11).stream("trace");
        let horizon = SimTime::from_secs(horizon_s);
        Trace::generate(&fixed(256, 16), &mut Poisson::new(rate), &mut rng, horizon)
    }

    /// Requests `(arrival ms, input tokens, output tokens)`, in order.
    fn trace_of(reqs: &[(u64, u32, u32)]) -> Trace {
        let requests = reqs.iter().enumerate();
        Trace {
            requests: requests
                .map(|(i, &(at, input_tokens, output_tokens))| Request {
                    id: RequestId(i as u64),
                    arrival: SimTime::from_millis(at),
                    input_tokens,
                    output_tokens,
                })
                .collect(),
        }
    }

    #[test]
    fn flow_owner_tags_round_trip() {
        for id in [0, FlowOwner::MAX_ID] {
            for owner in [FlowOwner::Coll(id), FlowOwner::Kv(id)] {
                assert_eq!(FlowOwner::of(owner.tag()), Some(owner));
            }
        }
        assert_ne!(FlowOwner::Coll(0).tag(), FlowOwner::Kv(0).tag());
        assert_eq!(FlowOwner::of(FlowOwner::NONE), None);
    }

    fn small_setup(rate: f64, horizon_s: u64, scheme: Scheme) -> (SimReport, usize) {
        small_setup_with_faults(rate, horizon_s, scheme, FaultPlan::none())
    }

    fn small_setup_with_faults(
        rate: f64,
        horizon_s: u64,
        scheme: Scheme,
        faults: FaultPlan,
    ) -> (SimReport, usize) {
        let (mut sim, n) = build_sim(rate, horizon_s, scheme, faults);
        // Give the tail room to drain.
        let report = sim.run(SimTime::from_secs(horizon_s + 30));
        (report, n)
    }

    /// Prefill on server 0's 4 GPUs (TP=4), decode on server 1's, under
    /// Poisson arrivals.
    pub(crate) fn build_sim(
        rate: f64,
        horizon_s: u64,
        scheme: Scheme,
        faults: FaultPlan,
    ) -> (ClusterSim, usize) {
        build_sim_with_strategy(rate, horizon_s, faults, fixed_scheme(scheme))
    }

    fn build_sim_with_strategy(
        rate: f64,
        horizon_s: u64,
        faults: FaultPlan,
        strategy: Box<dyn CommStrategy>,
    ) -> (ClusterSim, usize) {
        let t = testbed();
        let trace = poisson_trace(rate, horizon_s);
        let sim = testbed_sim(&t, tp4(&t, &[0]), tp4(&t, &[1]), faults, &trace, strategy);
        (sim, trace.len())
    }

    /// A background flow runs on its pair's `AllPairs` route itself, not
    /// on a copy of it.
    #[test]
    fn background_flows_share_their_route() {
        let t = testbed();
        let strategy = fixed_scheme(Scheme::Ring);
        let events = EventQueue::with_capacity(4);
        let mut sh = Shared::new(&t.graph, t.gpu_switch_pairs(), strategy, events);
        let mut bg = Background::start(&t.graph, (100.0, 1 << 20), &mut sh.events);
        for _ in 0..16 {
            if bg.fire(&mut sh).is_some() {
                break;
            }
        }
        let f = sh.net.flow(FlowId(0)).expect("a background flow started");
        let gpus = t.all_gpus();
        let mut pairs = gpus.iter().flat_map(|&a| gpus.iter().map(move |&b| (a, b)));
        assert!(
            pairs.any(|(a, b)| std::sync::Arc::ptr_eq(&f.path, &sh.ap.path(a, b).route)),
            "the flow holds a copy of its route"
        );
    }

    #[test]
    fn low_load_completes_everything_with_ring() {
        let (report, n) = small_setup(1.0, 20, Scheme::Ring);
        assert!(n > 5);
        assert_eq!(report.completed, report.arrived, "all requests complete");
        assert!(
            report.sla_attainment > 0.9,
            "attainment {}",
            report.sla_attainment
        );
        assert!(report.mean_ttft_s > 0.0 && report.mean_ttft_s < 2.5);
        assert!(report.mean_tpot_s > 0.0 && report.mean_tpot_s < 0.15);
        assert_eq!(report.ina_ops, 0);
        assert!(report.ring_ops > 0);
        assert!(report.eth_bytes > 0.0);
        // KV accounting: one shipment per request, striped across the 4
        // TP4→TP4 pairs (Eq. 15), no retries on a healthy fabric.
        assert_eq!(report.kv_transfers as usize, report.completed);
        assert_eq!(report.kv_stripes, 4 * report.kv_transfers);
        assert_eq!(report.kv_retries, 0);
        assert!(report.kv_bytes > 0.0);
        assert!(report.mean_kv_transfer_s > 0.0);
        assert!(report.p90_kv_transfer_s >= report.mean_kv_transfer_s * 0.5);
        // e2e TTFT = prefill TTFT + admission wait + KV transfer.
        assert!(report.mean_ttft_e2e_s >= report.mean_ttft_s);
        assert!(report.mean_ttft_e2e_s <= report.mean_ttft_s + 1.0);
    }

    #[test]
    fn ina_scheme_uses_switch_and_hier_moves_traffic_to_nvlink() {
        let t = testbed();
        let sw = t.access_switches[0];
        let (flat, _) = small_setup(1.0, 15, Scheme::Ina { switch: sw });
        let (hier, _) = small_setup(1.0, 15, Scheme::HierIna { switch: sw });
        assert!(flat.ina_ops > 0);
        // The test instances are single-server groups: hierarchical INA
        // degenerates to NVLink-local reduce/broadcast and correctly
        // consumes no switch aggregation capacity.
        assert_eq!(hier.ina_ops, 0);
        // Hierarchical pushes most of its bytes over NVLink.
        assert!(
            hier.nvlink_bytes > 0.5 * hier.eth_bytes,
            "nvlink {} vs eth {}",
            hier.nvlink_bytes,
            hier.eth_bytes
        );
        assert!(
            hier.eth_bytes < flat.eth_bytes,
            "hier {} vs flat {}",
            hier.eth_bytes,
            flat.eth_bytes
        );
    }

    #[test]
    fn overload_degrades_attainment() {
        let (low, _) = small_setup(0.5, 15, Scheme::Ring);
        let (high, _) = small_setup(400.0, 15, Scheme::Ring);
        assert!(
            low.sla_attainment > high.sla_attainment,
            "low {} vs high {}",
            low.sla_attainment,
            high.sla_attainment
        );
        assert!(
            high.sla_attainment < 0.9,
            "overload attainment {}",
            high.sla_attainment
        );
    }

    #[test]
    fn memory_series_tracks_load() {
        let (report, _) = small_setup(4.0, 15, Scheme::Ring);
        assert!(!report.mem_series.is_empty());
        let peak = report
            .mem_series
            .iter()
            .fold(0.0f64, |a, s| a.max(s.max_util));
        // Weights occupy a floor; KV adds on top.
        assert!(peak > 0.0, "peak mem util {peak}");
        assert!(peak <= 1.0);
    }

    #[test]
    fn switch_outage_fails_over_and_recovers() {
        let t = testbed();
        let sw = t.access_switches[0];
        // The switch dies mid-run and reboots 4 s later. INA collectives
        // must fail over to host-side schemes; KV transfers crossing the
        // dead links abort and retry.
        let faults = FaultPlan::switch_outage(sw, SimTime::from_secs(5), SimTime::from_secs(9));
        let (rep, _) = small_setup_with_faults(2.0, 20, Scheme::Ina { switch: sw }, faults);
        assert!(rep.ina_failovers > 0, "no INA failovers recorded");
        assert!(rep.ina_ops > 0, "INA should still run outside the outage");
        assert_eq!(
            rep.completed, rep.arrived,
            "all requests must complete despite the outage"
        );
        assert!(rep.fault_window_attainment.is_some());
        // The healthy-fabric run records no fault activity.
        let (healthy, _) = small_setup(2.0, 20, Scheme::Ina { switch: sw });
        assert_eq!(healthy.ina_failovers, 0);
        assert_eq!(healthy.aborted_flows, 0);
        assert_eq!(healthy.flow_retries, 0);
        assert_eq!(healthy.fault_window_attainment, None);
    }

    #[test]
    fn brownout_inside_a_switch_outage_composes() {
        let t = testbed();
        let sw = t.access_switches[0];
        let port = t.graph.neighbors(sw)[0].1;
        // The switch is down 1–3 s; its port browns out 2–5 s. The
        // brownout must not revive the dead port, and the switch's
        // recovery must not end the brownout.
        let faults =
            FaultPlan::switch_outage(sw, SimTime::from_secs(1), SimTime::from_secs(3)).merged(
                FaultPlan::link_brownout(port, 0.15, SimTime::from_secs(2), SimTime::from_secs(5)),
            );
        let (mut sim, _) = build_sim(1.0, 6, Scheme::Ring, faults);
        let mut scales = Vec::new();
        for ms in [1500, 2500, 4000, 6000] {
            sim.run_until(SimTime::from_millis(ms));
            scales.push(sim.sh.net.link_scale(port));
        }
        let want = [0.0, 0.0, 0.15, 1.0];
        let close = scales.iter().zip(want).all(|(s, w)| (s - w).abs() < 1e-12);
        assert!(close, "port scales {scales:?}, want {want:?}");
    }

    #[test]
    fn link_outage_aborts_and_retries_kv_transfers() {
        let t = testbed();
        // Pulse the prefill server's uplinks down for 50 ms once a second
        // between t=1 s and t=10 s. Each KV shipment below (32k tokens,
        // ~1 s even striped across both uplinks) is longer than the pulse
        // period, so any in-flight shipment provably spans a pulse instant
        // and its stripes abort; once the pulses stop, retries drain.
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
        let trace = trace_of(&[(0, 32_768, 4), (500, 32_768, 4), (1000, 32_768, 4)]);
        let (prefill, decode) = (tp4(&t, &[0]), tp4(&t, &[1]));
        let strategy = fixed_scheme(Scheme::Ring);
        let mut sim = testbed_sim(&t, prefill, decode, faults, &trace, strategy);
        let rep = sim.run(SimTime::from_secs(60));
        assert!(rep.aborted_flows > 0, "no flows aborted");
        assert!(rep.flow_retries > 0, "aborted work was not retried");
        assert!(rep.kv_retries > 0, "no KV shipment was relaunched");
        assert_eq!(rep.completed, rep.arrived, "requests stuck after recovery");
    }

    #[test]
    fn gpu_stall_inflates_latency() {
        let t = testbed();
        let mut faults = FaultPlan::none();
        for &gpu in &t.gpus_by_server[1] {
            faults.push(
                SimTime::from_secs(2),
                FaultKind::GpuStall {
                    gpu,
                    slowdown: 50.0,
                },
            );
        }
        let (stalled, _) = small_setup_with_faults(2.0, 15, Scheme::Ring, faults);
        let (healthy, _) = small_setup(2.0, 15, Scheme::Ring);
        assert!(
            stalled.mean_tpot_s > 2.0 * healthy.mean_tpot_s,
            "stall {} vs healthy {}",
            stalled.mean_tpot_s,
            healthy.mean_tpot_s
        );
    }

    /// The tracer is observation-only: attaching it must not change the
    /// report, and the recorded stream must carry the full request
    /// lifecycle plus fault activity, in agreement with the report.
    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        let t = testbed();
        let sw = t.access_switches[0];
        let faults = || FaultPlan::switch_outage(sw, SimTime::from_secs(5), SimTime::from_secs(9));
        let horizon = SimTime::from_secs(50);

        let (mut plain, _) = build_sim(2.0, 20, Scheme::Ina { switch: sw }, faults());
        let rep_plain = plain.run(horizon);

        let (mut traced, _) = build_sim(2.0, 20, Scheme::Ina { switch: sw }, faults());
        let tracer = hs_obs::Tracer::recording();
        traced.set_obs(&tracer, &hs_obs::MetricsRegistry::disabled());
        let rep_traced = traced.run(horizon);
        assert_eq!(rep_plain, rep_traced);

        let recs = tracer.records();
        let has = |n: &str| recs.iter().any(|r| r.name == n);
        for name in [
            "arrival",
            "queued",
            "prefill",
            "kv_transfer",
            "kv_flow",
            "decode",
            "done",
            "allreduce",
            "flow_start",
            "inject",
            "recover",
            "link_scale",
            "link_util",
        ] {
            assert!(has(name), "trace is missing {name:?} events");
        }
        let count = |n: &str| recs.iter().filter(|r| r.name == n).count();
        assert_eq!(count("arrival"), rep_traced.arrived);
        assert_eq!(count("done"), rep_traced.completed);
    }

    /// A run with zero arrivals must report zeros, not NaNs — the bench
    /// harness serializes every summary float straight into JSON.
    #[test]
    fn zero_arrival_run_reports_finite_zeros() {
        let t = testbed();
        let (prefill, decode, empty) = (tp4(&t, &[0]), tp4(&t, &[1]), trace_of(&[]));
        let idle = fixed_scheme(Scheme::Ring);
        let mut sim = testbed_sim(&t, prefill, decode, FaultPlan::none(), &empty, idle);
        let rep = sim.run(SimTime::from_secs(10));
        assert_eq!(rep.arrived, 0);
        assert_eq!(rep.completed, 0);
        assert!(rep.per_request.is_empty());
        assert_eq!(rep.fault_window_attainment, None);
        for (name, v) in [
            ("offered_rate", rep.offered_rate),
            ("sla_attainment", rep.sla_attainment),
            ("mean_ttft_s", rep.mean_ttft_s),
            ("p90_ttft_s", rep.p90_ttft_s),
            ("mean_tpot_s", rep.mean_tpot_s),
            ("p90_tpot_s", rep.p90_tpot_s),
            ("goodput_rps", rep.goodput_rps),
            ("mean_reroute_s", rep.mean_reroute_s),
            ("eth_bytes", rep.eth_bytes),
            ("nvlink_bytes", rep.nvlink_bytes),
            ("kv_bytes", rep.kv_bytes),
            ("mean_kv_transfer_s", rep.mean_kv_transfer_s),
            ("p90_kv_transfer_s", rep.p90_kv_transfer_s),
            ("mean_kv_est_err_s", rep.mean_kv_est_err_s),
            ("mean_ttft_e2e_s", rep.mean_ttft_e2e_s),
            ("p90_ttft_e2e_s", rep.p90_ttft_e2e_s),
        ] {
            assert!(v.is_finite(), "{name} is not finite: {v}");
            assert_eq!(v, 0.0, "{name} should be zero on an empty run");
        }
        assert_eq!(rep.kv_transfers, 0);
        assert_eq!(rep.kv_stripes, 0);
        assert_eq!(rep.kv_retries, 0);
        assert_eq!(rep.kv_deferrals, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let (a, _) = small_setup(2.0, 10, Scheme::Ring);
        let (b, _) = small_setup(2.0, 10, Scheme::Ring);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_ttft_s, b.mean_ttft_s);
        assert_eq!(a.eth_bytes, b.eth_bytes);
    }

    /// Event counts match what the scenario schedules: one monitor tick
    /// per period, the faults and arrivals due by the horizon, and the
    /// same counts on a second run.
    #[test]
    fn event_counts_match_the_schedule() {
        let t = testbed();
        let sw = t.access_switches[0];
        let mut faults = FaultPlan::switch_outage(sw, SimTime::from_secs(5), SimTime::from_secs(9));
        // Due after the horizon: never dispatched.
        faults.push(SimTime::from_secs(25), FaultKind::SwitchFail { switch: sw });
        let trace = poisson_trace(2.0, 30);
        let horizon = SimTime::from_millis(20_050);
        let run = || {
            let mut cfg = testbed_cfg(tp4(&t, &[0]), tp4(&t, &[1]), faults.clone());
            cfg.background = Some((20.0, 1 << 20));
            let strategy = fixed_scheme(Scheme::Ring);
            let mut sim = ClusterSim::new(&t.graph, t.gpu_switch_pairs(), cfg, &trace, strategy);
            sim.run(horizon);
            sim.event_counts()
        };
        let counts = run();
        let period = SimSpan::from_millis(100);
        let ticks = (horizon - SimTime::ZERO).as_nanos() / period.as_nanos();
        assert_eq!(counts.monitor_tick, ticks);
        let due = faults.events().iter().filter(|f| f.at <= horizon).count();
        assert_eq!((counts.fault, due), (2, 2), "{counts:?}");
        let arrived = trace.requests.partition_point(|r| r.arrival <= horizon);
        assert!(arrived < trace.len(), "no arrival after the horizon");
        assert_eq!(counts.arrivals, arrived as u64);
        assert!(counts.background > 0, "{counts:?}");
        assert!(counts.compute_done > 0, "{counts:?}");
        assert!(counts.flow_completions > 0, "{counts:?}");
        assert_eq!(run(), counts);
    }

    #[test]
    #[should_panic(expected = "ClusterSim::run called twice")]
    fn second_run_panics_with_its_reason() {
        let (mut sim, _) = build_sim(2.0, 5, Scheme::Ring, FaultPlan::none());
        sim.run(SimTime::from_secs(5));
        sim.run(SimTime::from_secs(10));
    }

    /// Arrivals stream from the trace but keep the order they had as the
    /// first events queued: at an instant they precede every queued event
    /// (monitor ticks, faults), and same-instant arrivals go in id order.
    #[test]
    fn arrivals_precede_queued_events_at_their_instant() {
        /// Marks each monitor tick in the trace.
        struct TickMarker(hs_obs::Tracer);
        impl CommStrategy for TickMarker {
            fn choose(&mut self, _ctx: &CommCtx<'_>) -> Scheme {
                Scheme::Ring
            }
            fn on_monitor(&mut self, _link_util: &[f64], now: SimTime) {
                self.0.warning(now, "tick".into());
            }
            fn attach_tracer(&mut self, tracer: &hs_obs::Tracer) {
                self.0 = tracer.clone();
            }
            fn name(&self) -> &str {
                "tick-marker"
            }
        }
        let t = testbed();
        // The monitor ticks every 100 ms; a GPU stall starts at 200 ms and
        // ends at 300 ms, where three requests arrive at once.
        let ms = [50, 100, 200, 300, 300, 300];
        let trace = trace_of(&ms.map(|at| (at, 256, 4)));
        let gpu = t.gpus_by_server[0][0];
        let mut faults = FaultPlan::none();
        let stall = FaultKind::GpuStall { gpu, slowdown: 2.0 };
        faults.push(SimTime::from_millis(200), stall);
        faults.push(SimTime::from_millis(300), FaultKind::GpuRecover { gpu });
        let strategy = Box::new(TickMarker(hs_obs::Tracer::noop()));
        let (prefill, decode) = (tp4(&t, &[0]), tp4(&t, &[1]));
        let mut sim = testbed_sim(&t, prefill, decode, faults, &trace, strategy);
        let tracer = hs_obs::Tracer::recording();
        sim.set_obs(&tracer, &hs_obs::MetricsRegistry::disabled());
        let rep = sim.run(SimTime::from_secs(30));
        assert_eq!(rep.completed, ms.len());
        let recs = tracer.records();
        for (at, ids) in [(100, vec![1]), (200, vec![2]), (300, vec![3, 4, 5])] {
            let at_t = SimTime::from_millis(at);
            let here: Vec<_> = recs.iter().filter(|r| r.t == at_t).collect();
            let arrivals: Vec<usize> = (0..here.len())
                .filter(|&i| here[i].name == "arrival")
                .collect();
            let queued: Vec<usize> = (0..here.len())
                .filter(|&i| matches!(here[i].name, "warning" | "inject" | "recover"))
                .collect();
            let arrived: Vec<u64> = arrivals.iter().map(|&i| here[i].tid).collect();
            assert_eq!(arrived, ids, "arrivals at {at} ms out of id order");
            assert_eq!(arrivals[0], 0, "a record preceded the arrivals at {at} ms");
            assert!(!queued.is_empty(), "no queued event at {at} ms");
            assert!(
                arrivals.last() < queued.first(),
                "a queued event preceded an arrival at {at} ms"
            );
        }
    }

    /// The arrival cursor relies on a trace sorted by arrival.
    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn unsorted_trace_is_rejected() {
        let t = testbed();
        let trace = trace_of(&[(200, 256, 4), (100, 256, 4)]);
        let (prefill, decode) = (tp4(&t, &[0]), tp4(&t, &[1]));
        let strategy = fixed_scheme(Scheme::Ring);
        testbed_sim(&t, prefill, decode, FaultPlan::none(), &trace, strategy);
    }

    /// Route choices see the monitor's estimates themselves: every
    /// `choose_path` call is passed, bit for bit, what the last
    /// `on_monitor` received, and all zeros before the first tick. KV
    /// stripes cross the Ethernet fabric beside background traffic, so
    /// the estimates move between ticks.
    #[test]
    fn route_choices_see_what_the_last_monitor_tick_saw() {
        /// The utilization a strategy was last shown at a tick, as bits,
        /// and what its route choices were shown.
        struct Views {
            ticked: Vec<u64>,
            before_first_tick: usize,
            ticks: usize,
            calls: usize,
            busy_calls: usize,
        }
        struct UtilRecorder(Rc<RefCell<Views>>);
        impl CommStrategy for UtilRecorder {
            fn choose(&mut self, _ctx: &CommCtx<'_>) -> Scheme {
                Scheme::Ring
            }
            fn choose_path(
                &mut self,
                _src: NodeId,
                _dst: NodeId,
                _bytes: u64,
                link_util: &[f64],
            ) -> Option<Vec<hs_simnet::DirLink>> {
                let mut v = self.0.borrow_mut();
                let bits: Vec<u64> = link_util.iter().map(|u| u.to_bits()).collect();
                assert_eq!(bits, v.ticked, "route choice {} saw another view", v.calls);
                v.calls += 1;
                v.before_first_tick += usize::from(v.ticks == 0);
                v.busy_calls += usize::from(link_util.iter().any(|&u| u > 0.0));
                None
            }
            fn on_monitor(&mut self, link_util: &[f64], _now: SimTime) {
                let mut v = self.0.borrow_mut();
                v.ticked = link_util.iter().map(|u| u.to_bits()).collect();
                v.ticks += 1;
            }
            fn name(&self) -> &str {
                "util-recorder"
            }
        }
        let t = testbed();
        let views = Rc::new(RefCell::new(Views {
            ticked: vec![0; t.graph.link_count()],
            before_first_tick: 0,
            ticks: 0,
            calls: 0,
            busy_calls: 0,
        }));
        let mut cfg = testbed_cfg(tp4(&t, &[0]), tp4(&t, &[1]), FaultPlan::none());
        cfg.background = Some((20.0, 64 << 20));
        // A request every 150 ms from t = 0, so the first ships its KV
        // cache before the first tick.
        let arrivals: Vec<_> = (0..60).map(|i| (150 * i, 256, 16)).collect();
        let trace = trace_of(&arrivals);
        let strategy = Box::new(UtilRecorder(Rc::clone(&views)));
        let mut sim = ClusterSim::new(&t.graph, t.gpu_switch_pairs(), cfg, &trace, strategy);
        let rep = sim.run(SimTime::from_secs(20));
        assert_eq!(rep.completed, trace.len());
        let v = views.borrow();
        assert!(
            v.before_first_tick > 0,
            "no route choice before the first tick"
        );
        assert!(v.busy_calls > 0, "no route choice saw a busy link");
    }

    /// Regression for the wrong-source retransfer bug: a request whose
    /// admission was deferred (decode memory full) must, once retried,
    /// ship its KV cache from the prefill instance that actually ran it —
    /// not "instance 0", which is what `retry_admissions` used to pass.
    ///
    /// Setup: two prefill instances on different servers (0 and 2), one
    /// decode instance on server 1 whose KV capacity fits exactly one
    /// request. Request 1 prefills on instance 1 (server 2) and is
    /// deferred until request 0 finishes decoding. On the old code path
    /// its retried KV transfer left server 0; server 2's Ethernet uplinks
    /// carried zero KV bytes and this test fails.
    #[test]
    fn deferred_admission_resends_kv_from_true_prefill_instance() {
        let t = testbed();
        let kv_bytes = 256 * ModelConfig::opt_13b().kv_bytes_per_token();
        // Two staggered arrivals: req 0 grabs prefill instance 0, req 1
        // lands on instance 1 while 0 is still computing.
        let trace = trace_of(&[(0, 256, 16), (5, 256, 16)]);
        let (prefill, decode) = (tp4(&t, &[0, 2]), tp4(&t, &[1]));
        let strategy = fixed_scheme(Scheme::Ring);
        let mut sim = testbed_sim(&t, prefill, decode, FaultPlan::none(), &trace, strategy);
        // Shrink the decode instance to one request's footprint (272
        // reserved tokens) so request 1's admission must defer.
        sim.kv.managers[0] = KvManager::new(300);
        let tracer = hs_obs::Tracer::recording();
        sim.set_obs(&tracer, &hs_obs::MetricsRegistry::disabled());
        let horizon = SimTime::from_secs(60);
        sim.run_until(horizon);
        assert_eq!(sim.reqs[0].prefill_instance(), Some(0));
        assert_eq!(sim.reqs[1].prefill_instance(), Some(1));
        let rep = sim.build_report(horizon);
        assert_eq!(rep.completed, 2, "both requests must finish");
        assert!(rep.kv_deferrals >= 1, "request 1 was never deferred");
        // The trace records the shipment source per request.
        let recs = tracer.records();
        let src_of = |req: u64| -> u64 {
            recs.iter()
                .find(|r| r.name == "kv_flow" && r.ph == hs_obs::Ph::Begin && r.tid == req)
                .and_then(|r| r.arg("src_instance"))
                .and_then(hs_obs::Val::as_f64)
                .expect("kv_flow begin recorded") as u64
        };
        assert_eq!(src_of(0), 0);
        assert_eq!(
            src_of(1),
            1,
            "deferred request retransferred from the wrong prefill instance"
        );
        // And the fabric agrees: server 2's Ethernet uplinks carried
        // request 1's full KV shipment (collectives of a single-server TP
        // group stay on NVLink, so KV is the only Ethernet user there).
        let mut server2_uplink_bytes = 0.0;
        for (lid, link) in sim.sh.g.links() {
            if link.kind != LinkKind::Ethernet {
                continue;
            }
            let touches_server2 =
                t.gpus_by_server[2].contains(&link.a) || t.gpus_by_server[2].contains(&link.b);
            if touches_server2 {
                server2_uplink_bytes += sim.sh.net.cumulative_bytes(lid);
            }
        }
        assert!(
            (server2_uplink_bytes - kv_bytes as f64).abs() < 1.0,
            "server 2 uplinks carried {server2_uplink_bytes} bytes, want {kv_bytes}"
        );
    }

    /// `retry_admissions` head-of-line semantics with a bounded reorder
    /// window: blocked heads are stepped over (so small requests behind a
    /// huge one aren't starved of released memory), but at most
    /// ADMIT_REORDER_WINDOW of them — and they keep their queue order.
    #[test]
    fn admission_retry_is_head_of_line_with_bounded_reorder() {
        let mk = |shape: &[(u32, u32)]| -> ClusterSim {
            let t = testbed();
            // Arrivals far beyond anything we step; the test drives
            // `retry_admissions` directly.
            let reqs: Vec<_> = shape.iter().map(|&(i, o)| (1_000_000, i, o)).collect();
            let (prefill, decode) = (tp4(&t, &[0]), tp4(&t, &[1]));
            let strategy = fixed_scheme(Scheme::Ring);
            let mut sim = testbed_sim(
                &t,
                prefill,
                decode,
                FaultPlan::none(),
                &trace_of(&reqs),
                strategy,
            );
            sim.kv.managers[0] = KvManager::new(140);
            for i in 0..shape.len() {
                sim.reqs[i].phase = ReqPhase::AwaitingAdmission;
                sim.reqs[i].set_prefill_done(SimTime::ZERO, 0);
                sim.kv.pending.push_back(RequestId(i as u64));
            }
            sim
        };

        // A huge head (200 tokens reserved > 140 capacity) must not block
        // the small requests behind it; blocked requests return to the
        // front in order.
        let big = (150, 50); // 200 reserved — never fits
        let small = (30, 10); // 40 reserved
        let mut sim = mk(&[big, small, small, small, small, small]);
        sim.retry_admissions();
        // Smalls 1..=3 fill the 140-token instance; 4 and 5 block.
        for i in 1..=3 {
            assert_eq!(sim.reqs[i].phase, ReqPhase::TransferringKv, "req {i}");
        }
        assert_eq!(sim.reqs[0].phase, ReqPhase::AwaitingAdmission);
        let order: Vec<u64> = sim.kv.pending.iter().map(|id| id.0).collect();
        assert_eq!(order, vec![0, 4, 5], "blocked heads keep queue order");

        // Window bound: after 4 blocked requests the pass stops — a
        // fitting request beyond the window stays queued until the next
        // release instead of jumping arbitrarily far forward.
        let mut sim = mk(&[big, big, big, big, big, small]);
        sim.retry_admissions();
        let order: Vec<u64> = sim.kv.pending.iter().map(|id| id.0).collect();
        assert_eq!(
            order,
            vec![0, 1, 2, 3, 4, 5],
            "pass must stop at the window"
        );
        assert_eq!(sim.reqs[5].phase, ReqPhase::AwaitingAdmission);
    }

    /// A network-aware strategy returning a bogus candidate (out of range,
    /// or an instance that cannot admit) must not panic or over-admit: the
    /// engine falls back to its least-loaded pick.
    #[test]
    fn bogus_decode_choice_falls_back_to_least_loaded() {
        struct Bogus;
        impl CommStrategy for Bogus {
            fn choose(&mut self, _ctx: &CommCtx<'_>) -> Scheme {
                Scheme::Ring
            }
            fn network_aware_admission(&self) -> bool {
                true
            }
            fn choose_decode(
                &mut self,
                _ctx: &KvCtx<'_>,
                _candidates: &[KvCandidate<'_>],
            ) -> Option<KvChoice> {
                Some(KvChoice {
                    instance: usize::MAX,
                    est_transfer_s: -1.0,
                })
            }
            fn name(&self) -> &str {
                "bogus"
            }
        }
        let (mut sim, n) = build_sim_with_strategy(1.0, 10, FaultPlan::none(), Box::new(Bogus));
        let rep = sim.run(SimTime::from_secs(40));
        assert!(n > 3);
        assert_eq!(
            rep.completed, rep.arrived,
            "bogus choice must not strand work"
        );
        assert_eq!(rep.kv_transfers as usize, rep.completed);
    }

    // ---- Elastic pools -------------------------------------------------

    /// Testbed sim with the pools split into 2 prefill + 2 decode TP=2
    /// slots so the autoscaler has something to park.
    fn build_elastic_sim(rate: f64, horizon_s: u64) -> (ClusterSim, usize) {
        let t = testbed();
        let split = |gpus: &[NodeId]| {
            vec![
                InstanceSpec::tensor_parallel(gpus[..2].to_vec()),
                InstanceSpec::tensor_parallel(gpus[2..].to_vec()),
            ]
        };
        let (prefill, decode) = (split(&t.gpus_by_server[0]), split(&t.gpus_by_server[1]));
        let trace = poisson_trace(rate, horizon_s);
        let strategy = fixed_scheme(Scheme::Ring);
        let sim = testbed_sim(&t, prefill, decode, FaultPlan::none(), &trace, strategy);
        (sim, trace.len())
    }

    /// Without an autoscaler every GPU is billed for the whole run: the
    /// equal-GPU-hours baseline the elastic comparison relies on.
    #[test]
    fn no_autoscaler_bills_every_gpu_for_the_whole_run() {
        let (report, _) = small_setup(1.0, 10, Scheme::Ring);
        let h = 40.0; // run horizon = horizon_s + 30
        assert!(
            (report.gpu_seconds - 8.0 * h).abs() < 1e-6,
            "{}",
            report.gpu_seconds
        );
        assert!((report.mean_active_gpus - 8.0).abs() < 1e-9);
        assert_eq!(report.scale_ups, 0);
        assert_eq!(report.scale_downs, 0);
        assert_eq!(report.final_prefill_active, 1);
        assert_eq!(report.final_decode_active, 1);
    }

    /// A static controller pinning 1/1 parks the spare slots at t=0; the
    /// parked GPUs bill nothing and the run still completes everything.
    #[test]
    fn static_controller_parks_spare_slots_from_t0() {
        let (mut sim, n) = build_elastic_sim(1.0, 10);
        sim.set_autoscaler(Box::new(StaticController {
            prefill: 1,
            decode: 1,
        }));
        let report = sim.run(SimTime::from_secs(40));
        assert!(n > 3);
        assert_eq!(report.completed, report.arrived);
        assert_eq!(report.final_prefill_active, 1);
        assert_eq!(report.final_decode_active, 1);
        // 1 prefill slot (2 GPUs) + 1 decode slot (2 GPUs) for 40 s.
        assert!(
            (report.gpu_seconds - 4.0 * 40.0).abs() < 1e-6,
            "{}",
            report.gpu_seconds
        );
    }

    /// Growing mid-run unparks slots warm, counts scale-ups, and bills
    /// the new slots only from the moment they rejoin.
    #[test]
    fn grow_mid_run_unparks_and_bills_partial_time() {
        struct GrowAt {
            at: SimTime,
            fired: bool,
        }
        impl ScaleController for GrowAt {
            fn initial_targets(&mut self, _p: usize, _d: usize) -> PoolTargets {
                PoolTargets {
                    prefill: 1,
                    decode: 1,
                }
            }
            fn on_tick(&mut self, snap: &PoolSnapshot) -> Option<PoolTargets> {
                if !self.fired && snap.now >= self.at {
                    self.fired = true;
                    return Some(PoolTargets {
                        prefill: 2,
                        decode: 2,
                    });
                }
                None
            }
            fn name(&self) -> &str {
                "grow-at"
            }
        }
        let (mut sim, _) = build_elastic_sim(2.0, 10);
        sim.set_autoscaler(Box::new(GrowAt {
            at: SimTime::from_secs(5),
            fired: false,
        }));
        let report = sim.run(SimTime::from_secs(40));
        assert_eq!(report.completed, report.arrived);
        assert_eq!(report.scale_ups, 2);
        assert_eq!(report.final_prefill_active, 2);
        assert_eq!(report.final_decode_active, 2);
        // 4 GPUs for 40 s plus 4 more from ~5 s on: strictly between the
        // pinned-small and always-on envelopes.
        assert!(report.gpu_seconds > 4.0 * 40.0 + 4.0 * 30.0);
        assert!(report.gpu_seconds < 8.0 * 40.0);
    }

    /// Shrinking drains: the victim finishes its in-flight work before
    /// parking, so nothing is stranded and KV accounting still balances.
    #[test]
    fn shrink_drains_in_flight_work_before_parking() {
        struct ShrinkAt {
            at: SimTime,
            fired: bool,
        }
        impl ScaleController for ShrinkAt {
            fn initial_targets(
                &mut self,
                prefill_slots: usize,
                decode_slots: usize,
            ) -> PoolTargets {
                PoolTargets {
                    prefill: prefill_slots,
                    decode: decode_slots,
                }
            }
            fn on_tick(&mut self, snap: &PoolSnapshot) -> Option<PoolTargets> {
                if !self.fired && snap.now >= self.at {
                    self.fired = true;
                    return Some(PoolTargets {
                        prefill: 1,
                        decode: 1,
                    });
                }
                None
            }
            fn name(&self) -> &str {
                "shrink-at"
            }
        }
        let (mut sim, n) = build_elastic_sim(6.0, 10);
        sim.set_autoscaler(Box::new(ShrinkAt {
            at: SimTime::from_secs(3),
            fired: false,
        }));
        let report = sim.run(SimTime::from_secs(60));
        assert!(n > 20);
        assert_eq!(report.completed, report.arrived, "drain stranded work");
        assert_eq!(report.scale_downs, 2);
        assert_eq!(report.final_prefill_active, 1);
        assert_eq!(report.final_decode_active, 1);
        for (i, m) in sim.kv_managers().iter().enumerate() {
            assert_eq!(m.reserved(), 0, "instance {i} leaked reservations");
            assert_eq!(m.live(), 0, "instance {i} leaked live tokens");
        }
    }

    /// A decode instance's running Eq. 13 stats equal a fresh fold of its
    /// batch at every step, through requests joining mid-iteration,
    /// completions of mixed lengths, and its pool slot parking and
    /// unparking; they return to zero when the batch empties.
    #[test]
    fn decode_stats_follow_joins_completions_and_a_park_cycle() {
        /// Both decode slots, one from 2 s, both again from 6 s.
        struct ParkThenUnpark {
            shrunk: bool,
            grown: bool,
        }
        impl ScaleController for ParkThenUnpark {
            fn initial_targets(&mut self, prefill: usize, decode: usize) -> PoolTargets {
                PoolTargets { prefill, decode }
            }
            fn on_tick(&mut self, snap: &PoolSnapshot) -> Option<PoolTargets> {
                let decode = if !self.shrunk && snap.now >= SimTime::from_secs(2) {
                    self.shrunk = true;
                    1
                } else if !self.grown && snap.now >= SimTime::from_secs(6) {
                    self.grown = true;
                    2
                } else {
                    return None;
                };
                Some(PoolTargets { prefill: 2, decode })
            }
            fn name(&self) -> &str {
                "park-then-unpark"
            }
        }
        let t = testbed();
        let split = |gpus: &[NodeId]| {
            vec![
                InstanceSpec::tensor_parallel(gpus[..2].to_vec()),
                InstanceSpec::tensor_parallel(gpus[2..].to_vec()),
            ]
        };
        let (prefill, decode) = (split(&t.gpus_by_server[0]), split(&t.gpus_by_server[1]));
        // One request every 50 ms for 10 s, with mixed prompt and output
        // lengths so completions land on different iterations.
        let reqs: Vec<(u64, u32, u32)> = (0..200u32)
            .map(|i| (50 * i as u64, 64 + i * 37 % 448, 1 + i * 13 % 40))
            .collect();
        let trace = trace_of(&reqs);
        let strategy = fixed_scheme(Scheme::Ring);
        let mut sim = testbed_sim(&t, prefill, decode, FaultPlan::none(), &trace, strategy);
        sim.set_autoscaler(Box::new(ParkThenUnpark {
            shrunk: false,
            grown: false,
        }));
        let fold = |sim: &ClusterSim, inst: &Instance| {
            let mut stats = BatchStats::default();
            for id in &inst.active {
                let r = &sim.reqs[id.0 as usize];
                stats.push(
                    r.req.input_tokens as u64 + r.tokens_generated as u64,
                    r.req.output_tokens as u64,
                );
            }
            stats
        };
        let last = sim.instances.len() - 1;
        let (mut joined_mid_iteration, mut parked) = (false, false);
        let (mut served_before_park, mut served_after_unpark) = (false, false);
        for ms in (5..=20_000).step_by(5) {
            sim.run_until(SimTime::from_millis(ms));
            for inst in &sim.instances[2..] {
                assert_eq!(inst.decode_stats, fold(&sim, inst), "at {ms} ms");
                joined_mid_iteration |= !inst.joining.is_empty();
            }
            let inst = &sim.instances[last];
            parked |= inst.state == PoolState::Parked;
            served_before_park |= !parked && !inst.active.is_empty();
            served_after_unpark |= parked && !inst.active.is_empty();
        }
        assert!(joined_mid_iteration, "no request joined a running batch");
        assert!(served_before_park && parked && served_after_unpark);
        let report = sim.run(SimTime::from_secs(30));
        assert_eq!(report.completed, report.arrived);
        assert_eq!((report.scale_downs, report.scale_ups), (1, 1));
        for inst in &sim.instances[2..] {
            assert_eq!(inst.decode_stats, BatchStats::default());
        }
    }

    /// A snapshot's arrival count is the trace's: at every tick, the
    /// requests whose arrival is at or before the tick.
    #[test]
    fn snapshots_count_the_arrivals_due_by_each_tick() {
        struct ArrivalRecorder(Rc<RefCell<Vec<(SimTime, u64)>>>);
        impl ScaleController for ArrivalRecorder {
            fn initial_targets(&mut self, prefill: usize, decode: usize) -> PoolTargets {
                PoolTargets { prefill, decode }
            }
            fn on_tick(&mut self, snap: &PoolSnapshot) -> Option<PoolTargets> {
                self.0.borrow_mut().push((snap.now, snap.arrived));
                None
            }
            fn name(&self) -> &str {
                "arrival-recorder"
            }
        }
        let (mut sim, n) = build_elastic_sim(4.0, 10);
        let trace = poisson_trace(4.0, 10);
        let seen = Rc::new(RefCell::new(Vec::new()));
        sim.set_autoscaler(Box::new(ArrivalRecorder(Rc::clone(&seen))));
        sim.run(SimTime::from_secs(20));
        let seen = seen.borrow();
        assert_eq!(seen.len(), 200, "one snapshot per 100 ms tick");
        for &(now, arrived) in seen.iter() {
            let due = trace.requests.iter().filter(|r| r.arrival <= now).count();
            assert_eq!(arrived, due as u64, "arrivals at {now:?}");
        }
        assert_eq!(seen.last().map(|&(_, a)| a), Some(n as u64));
    }

    /// Elastic runs are bit-identical across repeats, including the new
    /// accounting fields.
    #[test]
    fn elastic_run_is_deterministic() {
        let run = || {
            let (mut sim, _) = build_elastic_sim(4.0, 10);
            sim.set_autoscaler(Box::new(StaticController {
                prefill: 1,
                decode: 2,
            }));
            sim.run(SimTime::from_secs(45))
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.mean_ttft_s, b.mean_ttft_s);
        assert_eq!(a.gpu_seconds, b.gpu_seconds);
        assert_eq!(a.scale_ups, b.scale_ups);
        assert_eq!(a.scale_downs, b.scale_downs);
    }
}

#[cfg(test)]
mod admission_proptests {
    use super::tests::build_sim;
    use super::*;
    use hs_collective::Scheme;
    use hs_obs::Ph;
    use proptest::prelude::*;

    proptest! {
        /// After any admit/defer/retry/fault-abort interleaving the run
        /// drains to zero reserved and live KV tokens on every decode
        /// instance, and the tracer's kv_transfer begin/end spans (and
        /// kv_flow begin/end records) always pair.
        #[test]
        fn kv_accounting_balances_and_trace_spans_pair(
            rate_x10 in 5u32..25,
            horizon_s in 4u64..7,
            fault_sel in 0u32..2,
        ) {
            let with_fault = fault_sel == 1;
            let t = hs_topology::builders::testbed();
            let mut faults = FaultPlan::none();
            if with_fault {
                // Kill the prefill server's uplinks mid-run, then recover:
                // in-flight KV stripes abort and relaunch.
                for &gpu in &t.gpus_by_server[0] {
                    for &(nb, l) in t.graph.neighbors(gpu) {
                        if t.access_switches.contains(&nb) {
                            faults.push(SimTime::from_secs(2), FaultKind::LinkDown { link: l });
                            faults.push(SimTime::from_secs(4), FaultKind::LinkUp { link: l });
                        }
                    }
                }
            }
            let (mut sim, _) =
                build_sim(rate_x10 as f64 / 10.0, horizon_s, Scheme::Ring, faults);
            let tracer = hs_obs::Tracer::recording();
            sim.set_obs(&tracer, &hs_obs::MetricsRegistry::disabled());
            let rep = sim.run(SimTime::from_secs(horizon_s + 60));
            prop_assert_eq!(rep.completed, rep.arrived, "run failed to drain");
            for (i, m) in sim.kv_managers().iter().enumerate() {
                prop_assert_eq!(m.reserved(), 0, "instance {} leaked reservations", i);
                prop_assert_eq!(m.live(), 0, "instance {} leaked live tokens", i);
            }
            let recs = tracer.records();
            for id in rep.per_request.iter().map(|m| m.id) {
                let count = |name: &str, ph: Ph| {
                    recs.iter()
                        .filter(|rec| rec.name == name && rec.ph == ph && rec.tid == id)
                        .count()
                };
                let pb = count("kv_transfer", Ph::Begin);
                let pe = count("kv_transfer", Ph::End);
                prop_assert_eq!(pb, pe, "kv_transfer span unbalanced for {}", id);
                prop_assert!(pb <= 1, "kv_transfer began twice for {}", id);
                let fb = count("kv_flow", Ph::Begin);
                let fe = count("kv_flow", Ph::End);
                prop_assert_eq!(fb, fe, "kv_flow record unbalanced for {}", id);
            }
        }
    }
}
