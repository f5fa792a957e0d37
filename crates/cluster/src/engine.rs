//! The cluster simulation engine.
//!
//! Owns the request population, the instances and the event loop, and
//! runs the prefill/decode iteration steps. Four subsystems own the rest
//! of the state, each with its counters and the `SimReport` fields it
//! writes: `KvShipper` (admission and KV transfers), `Collectives`
//! (all-reduces, pipeline hops and INA slots), `Pools` (elastic pool
//! states) and `FaultRecovery` (fault state, abort demux, reroutes). The
//! loop interleaves four event sources deterministically: arrivals,
//! streamed from the sorted trace, the discrete event queue of in-flight
//! events (compute completions, timers, monitor ticks), network flow
//! completions, and the per-iteration communication state machines of
//! [`hs_collective`].

use crate::autoscale::{PoolState, PoolTargets, Pools, ScaleController};
use crate::batching::{form_prefill_batch, BatchPolicy};
use crate::collectives::{CollOrigin, Collectives, Job};
use crate::faults::FaultRecovery;
use crate::instance::{InstPhase, Instance, InstanceKind, InstanceSpec};
use crate::kvcache::KvManager;
use crate::kvship::KvShipper;
use crate::metrics::SimReport;
use crate::request::{ReqPhase, ReqState};
use crate::strategy::CommStrategy;
use hs_des::{EventQueue, SimSpan, SimTime};
use hs_model::{
    decode_latency_secs, prefill_latency_secs, BatchStats, CostCoefficients, MemoryModel,
    ModelConfig,
};
use hs_simnet::{DirLink, FlowId, LinkMonitor, SimNet, SolveStats};
use hs_topology::{AllPairs, Graph, LinkId, LinkKind, NodeId};
use hs_workload::{ArrivalProcess, FaultKind, FaultPlan, Mmpp, RequestId, Trace};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use std::collections::VecDeque;

/// Tag-space partition for flow demultiplexing.
pub(crate) const TAG_KIND_SHIFT: u64 = 60;
pub(crate) const TAG_COLL: u64 = 1 << TAG_KIND_SHIFT;
pub(crate) const TAG_KV: u64 = 2 << TAG_KIND_SHIFT;
pub(crate) const TAG_ID_MASK: u64 = (1 << TAG_KIND_SHIFT) - 1;

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

/// Metric ids registered against the attached registry. The ids handed
/// out by a disabled registry are inert, so the default is free.
pub(crate) struct ObsIds {
    arrived: hs_obs::CounterId,
    completed: hs_obs::CounterId,
    pub(crate) colls: hs_obs::CounterId,
    pub(crate) coll_aborts: hs_obs::CounterId,
    pub(crate) faults: hs_obs::CounterId,
    pub(crate) kv_transfers: hs_obs::CounterId,
    pub(crate) kv_retries: hs_obs::CounterId,
    pub(crate) kv_deferrals: hs_obs::CounterId,
    pub(crate) scale_ups: hs_obs::CounterId,
    pub(crate) scale_downs: hs_obs::CounterId,
    pub(crate) prefill_active: hs_obs::GaugeId,
    pub(crate) decode_active: hs_obs::GaugeId,
    ttft: hs_obs::HistogramId,
    tpot: hs_obs::HistogramId,
    pub(crate) kv_transfer_s: hs_obs::HistogramId,
}

impl ObsIds {
    fn register(m: &hs_obs::MetricsRegistry) -> Self {
        ObsIds {
            arrived: m.counter("requests_arrived"),
            completed: m.counter("requests_completed"),
            colls: m.counter("collectives_launched"),
            coll_aborts: m.counter("collectives_aborted"),
            faults: m.counter("fault_events"),
            kv_transfers: m.counter("kv_transfers_launched"),
            kv_retries: m.counter("kv_transfer_retries"),
            kv_deferrals: m.counter("kv_admission_deferrals"),
            scale_ups: m.counter("autoscale_ups"),
            scale_downs: m.counter("autoscale_downs"),
            prefill_active: m.gauge("prefill_active_instances"),
            decode_active: m.gauge("decode_active_instances"),
            ttft: m.histogram("ttft_s", &[0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0]),
            tpot: m.histogram("tpot_s", &[0.01, 0.025, 0.05, 0.1, 0.15, 0.3, 1.0]),
            kv_transfer_s: m.histogram(
                "kv_transfer_s",
                &[0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 1.0],
            ),
        }
    }
}

/// What every subsystem reaches: the fabric and its routes, the clock,
/// the event queue, the strategy and the observability handles.
pub(crate) struct Shared {
    pub(crate) g: Graph,
    pub(crate) ap: AllPairs,
    pub(crate) net: SimNet,
    pub(crate) strategy: Box<dyn CommStrategy>,
    pub(crate) events: EventQueue<Ev>,
    pub(crate) now: SimTime,
    /// Latest monitored per-link utilization, indexed by `LinkId`.
    pub(crate) util: Vec<f64>,
    pub(crate) tracer: hs_obs::Tracer,
    pub(crate) metrics: hs_obs::MetricsRegistry,
    pub(crate) obs: ObsIds,
}

impl Shared {
    /// Route a point-to-point transfer (KV stripe, pipeline hop): the
    /// strategy may steer around faults and hotspots; the fallback is the
    /// precomputed shortest path.
    pub(crate) fn route(&mut self, src: NodeId, dst: NodeId, bytes: u64) -> Vec<DirLink> {
        self.strategy
            .choose_path(src, dst, bytes, &self.util)
            .unwrap_or_else(|| self.ap.path(src, dst).directed_links(&self.g))
    }
}

/// The simulator.
pub struct ClusterSim {
    pub(crate) sh: Shared,
    monitor: LinkMonitor,
    cfg: ClusterConfig,
    reqs: Vec<ReqState>,
    /// Index into `reqs` of the next request to arrive.
    next_arrival: usize,
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
}

/// Bursty cross traffic between random GPU pairs.
struct Background {
    mmpp: Mmpp,
    rng: SmallRng,
    /// The fabric's GPUs, in id order: the endpoints drawn from.
    gpus: Vec<NodeId>,
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
        let mut events = EventQueue::with_capacity(cfg.faults.events().len() + in_flight);
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
        events.push(SimTime::ZERO + cfg.monitor_period, Ev::MonitorTick);
        for (i, f) in cfg.faults.events().iter().enumerate() {
            events.push(f.at, Ev::Fault(i as u32));
        }
        let bg = cfg.background.map(|(rate, _)| {
            let mut rng = hs_des::SeedSplitter::new(0xB66).stream("background");
            let mut mmpp = Mmpp::bursty(rate, 5.0);
            let first = SimTime::ZERO + mmpp.next_gap(&mut rng);
            events.push(first, Ev::Background);
            Background {
                mmpp,
                rng,
                gpus: graph.gpus(),
            }
        });
        let metrics = hs_obs::MetricsRegistry::disabled();
        ClusterSim {
            sh: Shared {
                g: graph.clone(),
                ap,
                net: SimNet::new(graph),
                strategy,
                events,
                now: SimTime::ZERO,
                util: vec![0.0; graph.link_count()],
                tracer: hs_obs::Tracer::noop(),
                obs: ObsIds::register(&metrics),
                metrics,
            },
            monitor: LinkMonitor::new(graph.link_count(), 0.5),
            reqs,
            next_arrival: 0,
            prefill_queue: VecDeque::new(),
            instances,
            mem: MemoryModel::new(&cfg.model, mem_spec.p_tens(), mem_spec.p_pipe()),
            kv: KvShipper::new(&cfg, trace.len()),
            colls: Collectives::new(cfg.ina_capacity_per_switch),
            pools: Pools::new(cfg.prefill.len()),
            faults: FaultRecovery::default(),
            offered_rate: trace.empirical_rate(),
            bg,
            cfg,
        }
    }

    /// Attach observability handles (the defaults are a no-op tracer and
    /// a disabled registry). The same tracer is wired into the network
    /// simulator and the strategy so every layer records into one
    /// stream; tracing never changes simulation outcomes.
    pub fn set_obs(&mut self, tracer: &hs_obs::Tracer, metrics: &hs_obs::MetricsRegistry) {
        self.sh.tracer = tracer.clone();
        self.sh.metrics = metrics.clone();
        self.sh.obs = ObsIds::register(metrics);
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

    /// Run until `horizon` and produce the report.
    ///
    /// The interleave contract with `SimNet`'s incremental engine
    /// (DESIGN.md §9): `next_event_time` is `>= now` (clamped), may be
    /// `SimTime::MAX` while every flow is starved by a dead link, and
    /// `advance_to(t)` delivers completions in `(finish, id)` order. A
    /// cancelled-but-drained flow is *not* returned by `cancel_flow`;
    /// its completion still arrives here and is demuxed to an already
    /// dissolved collective or shipment, which ignores it by design.
    ///
    /// Arrivals come from the sorted trace through a cursor, merged ahead
    /// of the queue: at an instant, network completions go first, then
    /// the arrivals due, in trace order, then the queued events, FIFO.
    pub fn run(&mut self, horizon: SimTime) -> SimReport {
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
            let done = self.sh.net.advance_to(t);
            for (id, flow) in done {
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
        self.sh.net.advance_to(horizon);
        self.build_report(horizon)
    }

    /// Request `idx` of the trace arrives and queues for prefill.
    fn arrive(&mut self, idx: usize) {
        let now = self.sh.now;
        let req = self.reqs[idx].req;
        let tracer = &self.sh.tracer;
        tracer.request_arrived(now, req.id.0, req.input_tokens, req.output_tokens);
        tracer.request_phase_begin(now, req.id.0, "queued");
        self.sh.metrics.inc(self.sh.obs.arrived, 1);
        self.pools.arrived += 1;
        self.prefill_queue.push_back(req.id);
        self.kick_prefill();
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::ComputeDone(inst) => self.start_comm(inst),
            Ev::CollTimer(coll) => self.colls.step(&mut self.sh, coll, None),
            Ev::Background => {
                self.background_flow();
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
        self.monitor.poll(&sh.net, sh.now);
        sh.util.copy_from_slice(self.monitor.snapshot());
        sh.strategy.on_monitor(&sh.util, sh.now);
        self.kv
            .sample_memory(sh.now, &self.mem, self.cfg.gpu_memory_bytes);
        sh.metrics.record_link_util(sh.now, &sh.util);
        sh.metrics.snapshot(sh.now);
        if sh.tracer.is_enabled() {
            // Counter tracks only for links carrying traffic — idle links
            // would bloat the trace with flat zeros.
            for (l, &u) in sh.util.iter().enumerate() {
                if u > 0.0 {
                    sh.tracer.link_util(sh.now, l as u64, u);
                }
            }
        }
        // Elastic control loop: the controller sees this tick's snapshot
        // and may move the pool targets.
        let queued = self.prefill_queue.len();
        if let Some(decision) = self.pools.tick(sh.now, &self.instances, &self.kv, queued) {
            if let Some(targets) = decision {
                self.apply_targets(targets);
            }
            self.pools.publish(&self.sh, &self.instances);
        }
        let next = self.sh.now + self.cfg.monitor_period;
        self.sh.events.push(next, Ev::MonitorTick);
    }

    fn apply_fault(&mut self, kind: FaultKind) {
        for (link, factor) in self.faults.apply(&self.sh, kind) {
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

    /// Start a background flow between two random GPUs and schedule the
    /// next one.
    fn background_flow(&mut self) -> Option<()> {
        let (_, bytes) = self.cfg.background?;
        let Background { mmpp, rng, gpus } = self.bg.as_mut()?;
        let sh = &mut self.sh;
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
        let links = sh.ap.path(a, b).directed_links(&sh.g);
        if !links.is_empty() {
            sh.net.start_flow(sh.now, &links, bytes, 0);
        }
        Some(())
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
            * self.faults.slowdown(spec);
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
        // Per-stage tensor-parallel sync volume: both all-reduce points of
        // each of the stage's L/pp layers.
        let bytes = self.cfg.model.sync_bytes_total(tokens) / spec.p_pipe().max(1) as u64;
        // Pipeline-stage boundary transfers (Eq. 6): activations of
        // `tokens` tokens hop from each stage's leader to the next.
        let hop = tokens * self.cfg.model.hidden as u64 * self.cfg.model.precision.bytes();
        let hops = (spec.p_pipe() > 1 && tokens > 0).then(|| CollOrigin::PipeHops {
            hops: spec
                .stages
                .windows(2)
                .map(|w| (w[0][0], w[1][0], hop))
                .collect(),
        });
        let groups = spec.stages.iter().enumerate();
        let groups = groups.filter(|(_, group)| group.len() >= 2 && bytes > 0);
        let groups = groups.map(|(sidx, group)| CollOrigin::Group {
            group_id: (inst as u64) << 8 | sidx as u64,
            group: group.clone(),
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
                        self.kv.defer(&self.sh, id);
                    }
                }
                self.kick_prefill();
                self.pools
                    .park_if_drained(&self.sh, &mut self.instances, &self.kv, inst);
            }
            InstanceKind::Decode => {
                let (ttft_sla, tpot_sla) = (self.cfg.ttft_sla_s, self.cfg.tpot_sla_s);
                let (tracer, metrics, obs) = (&self.sh.tracer, &self.sh.metrics, &self.sh.obs);
                let active = &self.instances[inst].active;
                for id in active {
                    let r = &mut self.reqs[id.0 as usize];
                    r.tokens_generated += 1;
                    if r.tokens_generated >= r.req.output_tokens {
                        r.phase = ReqPhase::Done;
                        r.set_finished(now);
                        let ttft = r.ttft_secs().unwrap_or(0.0);
                        let latency = now.saturating_since(r.req.arrival).as_secs_f64();
                        let tpot = r.tpot_secs();
                        self.pools.done += 1;
                        if ttft <= ttft_sla && tpot.map(|t| t <= tpot_sla).unwrap_or(false) {
                            self.pools.done_ok += 1;
                        }
                        tracer.request_phase_end(now, id.0, "decode");
                        tracer.request_done(now, id.0, ttft, latency);
                        metrics.inc(obs.completed, 1);
                        metrics.observe(obs.ttft, ttft);
                        if let Some(tp) = tpot {
                            metrics.observe(obs.tpot, tp);
                        }
                    }
                }
                let kv = &mut self.kv.managers[inst - self.cfg.prefill.len()];
                // Every live request grew by one token.
                kv.materialize(active.len() as u64);
                // The requests that just finished leave the batch and
                // release their KV, in batch order.
                let reqs = &self.reqs;
                let mut finished = false;
                self.instances[inst].active.retain(|id| {
                    let r = &reqs[id.0 as usize];
                    let done = r.phase == ReqPhase::Done;
                    if done {
                        let live = r.req.input_tokens as u64 + r.tokens_generated as u64;
                        kv.release(r.reserved_kv_tokens(), live);
                        finished = true;
                    }
                    !done
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
        let joining = std::mem::take(&mut self.instances[inst].joining);
        self.instances[inst].active.extend(joining);
        if self.instances[inst].active.is_empty() {
            self.instances[inst].phase = InstPhase::Idle;
            return;
        }
        let mut stats = BatchStats::default();
        for id in &self.instances[inst].active {
            let r = &self.reqs[id.0 as usize];
            stats.push(
                r.req.input_tokens as u64 + r.tokens_generated as u64,
                r.req.output_tokens as u64,
            );
        }
        let spec = &self.instances[inst].spec;
        let t_c = decode_latency_secs(
            &self.cfg.coef,
            &self.cfg.model,
            &stats,
            spec.p_tens(),
            spec.p_pipe(),
        ) * self.faults.slowdown(spec);
        self.instances[inst].phase = InstPhase::Computing;
        let done = self.sh.now + SimSpan::from_secs_f64(t_c);
        self.sh.events.push(done, Ev::ComputeDone(inst));
    }

    fn on_flow_done(&mut self, id: FlowId, tag: u64) {
        let owner = tag & TAG_ID_MASK;
        match tag >> TAG_KIND_SHIFT {
            1 => self.colls.step(&mut self.sh, owner, Some(id)),
            2 if self.kv.stripe_done(owner, id) => self.kv_done(RequestId(owner)),
            _ => {} // background / foreign flows, stripes of unfinished shipments
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
        report.summarize(&self.reqs, ttft_sla, tpot_sla, horizon);
        report.fault_window_attainment = self.cfg.faults.window().and_then(|w| {
            SimReport::attainment_in_window(&self.reqs, ttft_sla, tpot_sla, horizon, w)
        });
        report
    }

    /// Read-only view of the request states (tests).
    pub fn requests(&self) -> &[ReqState] {
        &self.reqs
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
    use hs_model::profile::{fit, ProfileGrid};
    use hs_model::GpuModel;
    use hs_topology::builders::{testbed, BuiltTopology};
    use hs_workload::spec::fixed;
    use hs_workload::{Poisson, Request};

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
        let model = ModelConfig::opt_13b();
        let coef = fit(&GpuModel::a100(), &model, &ProfileGrid::default()).coefficients;
        let ap = t.gpu_switch_pairs();
        let cfg = ClusterConfig {
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
        };
        ClusterSim::new(&t.graph, ap, cfg, trace, strategy)
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

    /// The tracer and registry are observation-only: attaching them must
    /// not change any report number, and the recorded stream must carry
    /// the full request lifecycle plus fault activity.
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
        let metrics = hs_obs::MetricsRegistry::recording();
        traced.set_obs(&tracer, &metrics);
        let rep_traced = traced.run(horizon);

        assert_eq!(rep_plain.completed, rep_traced.completed);
        assert_eq!(rep_plain.arrived, rep_traced.arrived);
        assert_eq!(rep_plain.mean_ttft_s, rep_traced.mean_ttft_s);
        assert_eq!(rep_plain.mean_tpot_s, rep_traced.mean_tpot_s);
        assert_eq!(rep_plain.eth_bytes, rep_traced.eth_bytes);
        assert_eq!(rep_plain.nvlink_bytes, rep_traced.nvlink_bytes);
        assert_eq!(rep_plain.aborted_flows, rep_traced.aborted_flows);
        assert_eq!(rep_plain.flow_retries, rep_traced.flow_retries);
        assert_eq!(rep_plain.ina_failovers, rep_traced.ina_failovers);

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
        ] {
            assert!(has(name), "trace is missing {name:?} events");
        }
        assert_eq!(
            metrics.counter_value("requests_arrived"),
            Some(rep_traced.arrived as u64)
        );
        assert_eq!(
            metrics.counter_value("requests_completed"),
            Some(rep_traced.completed as u64)
        );
        assert!(metrics.counter_value("fault_events").unwrap() > 0);
        assert!(!metrics.link_util_series().is_empty());
        let ttft = metrics.histogram_view("ttft_s").unwrap();
        assert_eq!(ttft.total, rep_traced.completed as u64);
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
        let metrics = hs_obs::MetricsRegistry::disabled();
        sim.set_obs(&tracer, &metrics);
        let rep = sim.run(SimTime::from_secs(60));
        assert_eq!(rep.completed, 2, "both requests must finish");
        assert!(rep.kv_deferrals >= 1, "request 1 was never deferred");
        assert_eq!(sim.requests()[0].prefill_instance(), Some(0));
        assert_eq!(sim.requests()[1].prefill_instance(), Some(1));
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
            let metrics = hs_obs::MetricsRegistry::disabled();
            sim.set_obs(&tracer, &metrics);
            let rep = sim.run(SimTime::from_secs(horizon_s + 60));
            prop_assert_eq!(rep.completed, rep.arrived, "run failed to drain");
            for (i, m) in sim.kv_managers().iter().enumerate() {
                prop_assert_eq!(m.reserved(), 0, "instance {} leaked reservations", i);
                prop_assert_eq!(m.live(), 0, "instance {} leaked live tokens", i);
            }
            let recs = tracer.records();
            for r in sim.requests() {
                let count = |name: &str, ph: Ph| {
                    recs.iter()
                        .filter(|rec| rec.name == name && rec.ph == ph && rec.tid == r.req.id.0)
                        .count()
                };
                let pb = count("kv_transfer", Ph::Begin);
                let pe = count("kv_transfer", Ph::End);
                prop_assert_eq!(pb, pe, "kv_transfer span unbalanced for {}", r.req.id.0);
                prop_assert!(pb <= 1, "kv_transfer began twice for {}", r.req.id.0);
                let fb = count("kv_flow", Ph::Begin);
                let fe = count("kv_flow", Ph::End);
                prop_assert_eq!(fb, fe, "kv_flow record unbalanced for {}", r.req.id.0);
            }
        }
    }
}
