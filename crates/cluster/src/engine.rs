//! The cluster simulation engine.
//!
//! Owns the fabric ([`SimNet`]), the instances, the request population and
//! the event loop; interleaves three event sources deterministically:
//! the discrete event queue (arrivals, compute completions, timers,
//! monitor ticks), network flow completions, and the per-iteration
//! communication state machines of [`hs_collective`].

use crate::autoscale::{PoolSnapshot, PoolState, PoolTargets, ScaleController};
use crate::batching::{form_prefill_batch, BatchPolicy};
use crate::instance::{InstPhase, Instance, InstanceKind, InstanceSpec};
use crate::kvcache::KvManager;
use crate::kvflow::{stripe_plan, KvStripe};
use crate::metrics::{MemSample, SimReport};
use crate::request::{ReqPhase, ReqState};
use crate::strategy::{BusyPolicy, CommCtx, CommStrategy, KvCandidate, KvCtx};
use hs_collective::latency::path_transfer_secs;
use hs_collective::{CollectiveExec, CollectivePlan, Phase, Progress, Scheme};
use hs_des::{EventQueue, SimSpan, SimTime};
use hs_model::{
    decode_latency_secs, prefill_latency_secs, BatchStats, CostCoefficients, MemoryModel,
    ModelConfig,
};
use hs_simnet::{Flow, FlowId, LinkMonitor, SimNet, SolveStats};
use hs_topology::{AllPairs, Graph, LinkId, LinkKind, NodeId};
use hs_workload::{ArrivalProcess, FaultKind, FaultPlan, Mmpp, RequestId, Trace};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::{BTreeMap, VecDeque};

/// Tag-space partition for flow demultiplexing.
const TAG_KIND_SHIFT: u64 = 60;
const TAG_COLL: u64 = 1 << TAG_KIND_SHIFT;
const TAG_KV: u64 = 2 << TAG_KIND_SHIFT;
const TAG_ID_MASK: u64 = (1 << TAG_KIND_SHIFT) - 1;

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

enum Ev {
    Arrival(u32),
    ComputeDone {
        inst: usize,
    },
    CollTimer {
        coll: u64,
    },
    MonitorTick,
    Background,
    /// Scheduled fault (index into `cfg.faults.events()`).
    Fault(u32),
    /// Backed-off relaunch of an aborted collective.
    RetryColl {
        key: u64,
    },
    /// Backed-off relaunch of an aborted KV transfer.
    RetryKv {
        req: u64,
    },
}

/// What a collective was compiled from — enough to recompile and relaunch
/// it if a fault aborts its flows mid-run.
#[derive(Clone)]
enum CollOrigin {
    /// A tensor-group all-reduce: the strategy re-chooses the scheme on
    /// retry (so it can route around a failed switch).
    Group {
        group_id: u64,
        group: Vec<NodeId>,
        bytes: u64,
    },
    /// Pipeline-stage boundary transfers: paths are re-chosen on retry.
    PipeHops { hops: Vec<(NodeId, NodeId, u64)> },
}

struct CollState {
    exec: CollectiveExec,
    inst: usize,
    /// The INA switch whose admission this collective holds, if any.
    ina_switch: Option<NodeId>,
    origin: CollOrigin,
    /// How many times this collective has been relaunched after aborts.
    attempt: u32,
}

struct WaitingColl {
    inst: usize,
    plan: CollectivePlan,
    switch: NodeId,
    origin: CollOrigin,
}

/// An aborted collective awaiting its backed-off relaunch.
struct PendingRetry {
    inst: usize,
    origin: CollOrigin,
    attempt: u32,
    aborted_at: SimTime,
}

/// One in-flight KV shipment: the Eq. 15 stripe plan (kept so a
/// fault-induced abort can relaunch from the *true* source GPUs), the
/// simnet flows currently carrying it, and retry bookkeeping. The whole
/// shipment is resent on abort — retransmission from zero is the
/// conservative model.
struct KvFlight {
    /// Eq. 15 stripe plan (src/dst GPU pairs and their byte shares),
    /// sourced from the *true* prefill instance's GPUs — the plan is
    /// immutable across retries, only the routes are re-chosen.
    stripes: Vec<KvStripe>,
    /// Flows currently in the air, one per launched stripe. The shipment
    /// completes when this empties.
    live: Vec<FlowId>,
    attempt: u32,
    /// When the selector launched the shipment (realized-time metric).
    started: SimTime,
    aborted_at: SimTime,
    /// A retry is scheduled: surviving stripes were cancelled and stale
    /// completions must be ignored until the relaunch.
    retry_pending: bool,
    /// Admission-time transfer estimate, seconds (estimator audit).
    est_s: f64,
}

/// Capped exponential backoff before relaunching aborted work.
fn retry_delay(attempt: u32) -> SimSpan {
    SimSpan::from_millis((10u64 << attempt.min(6)).min(500))
}

/// Trace-event name for a collective, derived from what it was compiled
/// from.
fn coll_kind(origin: &CollOrigin) -> &'static str {
    match origin {
        CollOrigin::Group { .. } => "allreduce",
        CollOrigin::PipeHops { .. } => "pipe_hops",
    }
}

/// Metric ids registered against the attached registry. The ids handed
/// out by a disabled registry are inert, so the default is free.
struct ObsIds {
    arrived: hs_obs::CounterId,
    completed: hs_obs::CounterId,
    colls: hs_obs::CounterId,
    coll_aborts: hs_obs::CounterId,
    faults: hs_obs::CounterId,
    kv_transfers: hs_obs::CounterId,
    kv_retries: hs_obs::CounterId,
    kv_deferrals: hs_obs::CounterId,
    scale_ups: hs_obs::CounterId,
    scale_downs: hs_obs::CounterId,
    prefill_active: hs_obs::GaugeId,
    decode_active: hs_obs::GaugeId,
    ttft: hs_obs::HistogramId,
    tpot: hs_obs::HistogramId,
    kv_transfer_s: hs_obs::HistogramId,
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

/// The simulator.
pub struct ClusterSim {
    g: Graph,
    ap: AllPairs,
    net: SimNet,
    monitor: LinkMonitor,
    cfg: ClusterConfig,
    strategy: Box<dyn CommStrategy>,
    events: EventQueue<Ev>,
    now: SimTime,
    reqs: Vec<ReqState>,
    prefill_queue: VecDeque<RequestId>,
    pending_admission: VecDeque<RequestId>,
    instances: Vec<Instance>,
    decode_offset: usize,
    kv: Vec<KvManager>,
    mem_model: MemoryModel,
    colls: FxHashMap<u64, CollState>,
    next_coll: u64,
    ina_active: FxHashMap<NodeId, usize>,
    ina_waiting: FxHashMap<NodeId, VecDeque<WaitingColl>>,
    util_snapshot: Vec<f64>,
    mem_series: Vec<MemSample>,
    ina_ops: u64,
    ring_ops: u64,
    ina_fallbacks: u64,
    offered_rate: f64,
    bg: Option<(Mmpp, SmallRng)>,
    // --- fault state -------------------------------------------------
    failed_switches: FxHashSet<NodeId>,
    gpu_slowdown: FxHashMap<NodeId, f64>,
    pending_coll_retry: FxHashMap<u64, PendingRetry>,
    kv_inflight: FxHashMap<u64, KvFlight>,
    ina_failovers: u64,
    aborted_flows: u64,
    flow_retries: u64,
    /// INA slot releases with no matching acquisition (a lifecycle
    /// accounting bug upstream — e.g. a collective ended twice). The
    /// release is dropped rather than conjuring capacity.
    ina_release_underflows: u64,
    /// Seconds from each fault-induced abort to a relaunch whose plan
    /// avoids every dead link (time-to-reroute samples).
    reroute_secs: Vec<f64>,
    // --- KV-transfer accounting ---------------------------------------
    kv_transfers: u64,
    kv_stripes_launched: u64,
    kv_retries: u64,
    kv_deferrals: u64,
    kv_bytes_total: u64,
    /// Realized transfer time per completed shipment, seconds.
    kv_transfer_secs: Vec<f64>,
    /// |estimate − realized| per completed shipment, seconds.
    kv_est_err_secs: Vec<f64>,
    // --- autoscaling ---------------------------------------------------
    /// Pool controller, if any (taken/put back around on_tick so the
    /// controller may inspect the engine through its snapshot only).
    autoscaler: Option<Box<dyn ScaleController>>,
    /// Cumulative arrivals (PoolSnapshot counter).
    arrived_count: u64,
    /// Cumulative completions (PoolSnapshot counter).
    done_total: u64,
    /// Cumulative completions meeting both SLAs (PoolSnapshot counter).
    done_ok: u64,
    scale_ups: u64,
    scale_downs: u64,
    // --- observability ------------------------------------------------
    tracer: hs_obs::Tracer,
    metrics: hs_obs::MetricsRegistry,
    obs: ObsIds,
}

impl ClusterSim {
    /// Build a simulation over `graph` for `trace` with the given
    /// strategy.
    ///
    /// # Panics
    /// Panics on invalid instance specs.
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
        let mut instances: Vec<Instance> = cfg
            .prefill
            .iter()
            .map(|s| Instance::new(s.clone(), InstanceKind::Prefill))
            .collect();
        let decode_offset = instances.len();
        instances.extend(
            cfg.decode
                .iter()
                .map(|s| Instance::new(s.clone(), InstanceKind::Decode)),
        );
        // Decode KV capacity: per-instance, derived from its sharding and
        // per-GPU memory.
        let kv: Vec<KvManager> = cfg
            .decode
            .iter()
            .map(|s| {
                let mm = MemoryModel::new(&cfg.model, s.p_tens(), s.p_pipe());
                KvManager::new(mm.kv_token_capacity(cfg.gpu_memory_bytes))
            })
            .collect();
        // Memory model for the utilization metric (per-GPU view of the
        // first decode spec; instances are homogeneous per experiment).
        let mem_spec = cfg
            .decode
            .first()
            .cloned()
            .unwrap_or_else(|| cfg.prefill.first().cloned().expect("at least one instance"));
        let mem_model = MemoryModel::new(&cfg.model, mem_spec.p_tens(), mem_spec.p_pipe());

        let mut events = EventQueue::with_capacity(trace.len() * 4 + 16);
        // Request state is indexed by RequestId throughout the engine, so
        // ids must be positional (as `Trace::generate` produces them).
        assert!(
            trace
                .requests
                .iter()
                .enumerate()
                .all(|(i, r)| r.id.0 == i as u64),
            "trace RequestIds must be positional (0..n in order)"
        );
        let reqs: Vec<ReqState> = trace.requests.iter().map(|r| ReqState::new(*r)).collect();
        for (i, r) in trace.requests.iter().enumerate() {
            events.push(r.arrival, Ev::Arrival(i as u32));
        }
        events.push(SimTime::ZERO + cfg.monitor_period, Ev::MonitorTick);
        for (i, f) in cfg.faults.events().iter().enumerate() {
            events.push(f.at, Ev::Fault(i as u32));
        }
        let bg = cfg.background.map(|(rate, _)| {
            let mut rng = hs_des::SeedSplitter::new(0xB66).stream("background");
            let mut mmpp = Mmpp::bursty(rate, 5.0);
            let first = SimTime::ZERO + mmpp.next_gap(&mut rng);
            events.push(first, Ev::Background);
            (mmpp, rng)
        });

        let net = SimNet::new(graph);
        let monitor = LinkMonitor::new(graph.link_count(), 0.5);
        let util_snapshot = vec![0.0; graph.link_count()];
        let offered_rate = trace.empirical_rate();
        ClusterSim {
            g: graph.clone(),
            ap,
            net,
            monitor,
            cfg,
            strategy,
            events,
            now: SimTime::ZERO,
            reqs,
            prefill_queue: VecDeque::new(),
            pending_admission: VecDeque::new(),
            instances,
            decode_offset,
            kv,
            mem_model,
            colls: FxHashMap::default(),
            next_coll: 0,
            ina_active: FxHashMap::default(),
            ina_waiting: FxHashMap::default(),
            util_snapshot,
            mem_series: Vec::new(),
            ina_ops: 0,
            ring_ops: 0,
            ina_fallbacks: 0,
            offered_rate,
            bg,
            failed_switches: FxHashSet::default(),
            gpu_slowdown: FxHashMap::default(),
            pending_coll_retry: FxHashMap::default(),
            kv_inflight: FxHashMap::default(),
            ina_failovers: 0,
            aborted_flows: 0,
            flow_retries: 0,
            ina_release_underflows: 0,
            reroute_secs: Vec::new(),
            kv_transfers: 0,
            kv_stripes_launched: 0,
            kv_retries: 0,
            kv_deferrals: 0,
            kv_bytes_total: 0,
            kv_transfer_secs: Vec::new(),
            kv_est_err_secs: Vec::new(),
            autoscaler: None,
            arrived_count: 0,
            done_total: 0,
            done_ok: 0,
            scale_ups: 0,
            scale_downs: 0,
            tracer: hs_obs::Tracer::noop(),
            metrics: hs_obs::MetricsRegistry::disabled(),
            obs: ObsIds::register(&hs_obs::MetricsRegistry::disabled()),
        }
    }

    /// Attach observability handles (the defaults are a no-op tracer and
    /// a disabled registry). The same tracer is wired into the network
    /// simulator and the strategy so every layer records into one
    /// stream; tracing never changes simulation outcomes.
    pub fn set_obs(&mut self, tracer: &hs_obs::Tracer, metrics: &hs_obs::MetricsRegistry) {
        self.tracer = tracer.clone();
        self.metrics = metrics.clone();
        self.obs = ObsIds::register(metrics);
        self.net.set_tracer(tracer);
        self.strategy.attach_tracer(tracer);
    }

    /// Attach a pool controller (elastic autoscaling, DESIGN.md §13).
    /// The controller's initial targets apply immediately: instances
    /// beyond them park at `t = 0` and contribute zero GPU-seconds until
    /// unparked. Without a controller every instance stays Active for
    /// the whole run (the pre-elastic behavior, bit-for-bit).
    pub fn set_autoscaler(&mut self, mut ctl: Box<dyn ScaleController>) {
        let prefill_slots = self.decode_offset;
        let decode_slots = self.instances.len() - self.decode_offset;
        let targets = ctl.initial_targets(prefill_slots, decode_slots);
        self.autoscaler = Some(ctl);
        self.apply_targets(targets);
    }

    /// The network engine's solver work counters so far (DESIGN.md §12),
    /// e.g. the aggregate tier's hit rate over a run.
    pub fn net_solve_stats(&self) -> SolveStats {
        self.net.solve_stats()
    }

    /// Run until `horizon` and produce the report.
    ///
    /// The interleave contract with `SimNet`'s incremental engine
    /// (DESIGN.md §9): `next_event_time` is `>= now` (clamped), may be
    /// `SimTime::MAX` while every flow is starved by a dead link, and
    /// `advance_to(t)` delivers completions in `(finish, id)` order. A
    /// cancelled-but-drained flow is *not* returned by `cancel_flow`;
    /// its completion still arrives here and is demuxed to an already
    /// dissolved collective, which `on_flow_done` ignores by design.
    pub fn run(&mut self, horizon: SimTime) -> SimReport {
        loop {
            let tq = self.events.peek_time();
            let tn = self.net.next_event_time();
            let t = match (tq, tn) {
                (Some(a), Some(b)) => a.min(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => break,
            };
            if t > horizon {
                break;
            }
            self.now = t;
            // Network completions first (deterministic: completion order,
            // then queue FIFO at equal times).
            let done = self.net.advance_to(t);
            for (id, flow) in done {
                self.on_flow_done(id, flow.tag);
            }
            if self.events.peek_time() == Some(t) {
                let (_, ev) = self.events.pop().expect("peeked event");
                self.handle(ev);
            }
        }
        self.now = horizon;
        self.net.advance_to(horizon);
        self.build_report(horizon)
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival(idx) => {
                let req = self.reqs[idx as usize].req;
                self.tracer.request_arrived(
                    self.now,
                    req.id.0,
                    req.input_tokens,
                    req.output_tokens,
                );
                self.tracer
                    .request_phase_begin(self.now, req.id.0, "queued");
                self.metrics.inc(self.obs.arrived, 1);
                self.arrived_count += 1;
                self.prefill_queue.push_back(req.id);
                self.kick_prefill();
            }
            Ev::ComputeDone { inst } => self.start_comm(inst),
            Ev::CollTimer { coll } => {
                let Some(state) = self.colls.get_mut(&coll) else {
                    return;
                };
                let progress = state.exec.on_timer(&mut self.net, self.now);
                self.advance_coll(coll, progress);
            }
            Ev::Background => {
                let Some((bytes, links)) = self.next_background_flow() else {
                    return;
                };
                if !links.is_empty() {
                    self.net.start_flow(self.now, &links, bytes, 0);
                }
            }
            Ev::MonitorTick => {
                self.monitor.poll(&self.net, self.now);
                self.util_snapshot.copy_from_slice(self.monitor.snapshot());
                self.strategy.on_monitor(&self.util_snapshot, self.now);
                self.sample_memory();
                self.metrics.record_link_util(self.now, &self.util_snapshot);
                self.metrics.snapshot(self.now);
                if self.tracer.is_enabled() {
                    // Counter tracks only for links carrying traffic —
                    // idle links would bloat the trace with flat zeros.
                    for (l, &u) in self.util_snapshot.iter().enumerate() {
                        if u > 0.0 {
                            self.tracer.link_util(self.now, l as u64, u);
                        }
                    }
                }
                // Elastic control loop: the controller sees this tick's
                // snapshot and may move the pool targets. Take/put-back
                // keeps the borrow checker out of the snapshot build.
                if let Some(mut ctl) = self.autoscaler.take() {
                    let snap = self.pool_snapshot();
                    let decision = ctl.on_tick(&snap);
                    self.autoscaler = Some(ctl);
                    if let Some(targets) = decision {
                        self.apply_targets(targets);
                    }
                    let (pa, _, _) = self.pool_counts(InstanceKind::Prefill);
                    let (da, _, _) = self.pool_counts(InstanceKind::Decode);
                    self.metrics.set_gauge(self.obs.prefill_active, pa as f64);
                    self.metrics.set_gauge(self.obs.decode_active, da as f64);
                    self.tracer.autoscale_pools(self.now, pa, da);
                }
                self.events
                    .push(self.now + self.cfg.monitor_period, Ev::MonitorTick);
            }
            Ev::Fault(idx) => {
                let kind = self.cfg.faults.events()[idx as usize].kind;
                self.apply_fault(kind);
            }
            Ev::RetryColl { key } => {
                let Some(p) = self.pending_coll_retry.remove(&key) else {
                    return;
                };
                self.flow_retries += 1;
                self.relaunch_collective(p);
            }
            Ev::RetryKv { req } => self.retry_kv(req),
        }
    }

    // ------------------------------------------------------------------
    // Fault handling
    // ------------------------------------------------------------------

    fn apply_fault(&mut self, kind: FaultKind) {
        if self.tracer.is_enabled() {
            let recovered = matches!(
                kind,
                FaultKind::LinkUp { .. }
                    | FaultKind::SwitchRecover { .. }
                    | FaultKind::GpuRecover { .. }
            );
            self.tracer.fault(self.now, format!("{kind:?}"), recovered);
        }
        self.metrics.inc(self.obs.faults, 1);
        match kind {
            FaultKind::LinkDown { link } => self.set_link(link, 0.0),
            FaultKind::LinkUp { link } => self.set_link(link, 1.0),
            FaultKind::LinkDegrade { link, factor } => self.set_link(link, factor),
            FaultKind::SwitchFail { switch } => {
                self.failed_switches.insert(switch);
                let adjacent: Vec<LinkId> =
                    self.g.neighbors(switch).iter().map(|&(_, l)| l).collect();
                for l in adjacent {
                    self.set_link(l, 0.0);
                }
                // Collectives queued on the dead switch would never be
                // admitted; relaunch them so the failover branch can
                // degrade them to a surviving scheme.
                if let Some(q) = self.ina_waiting.remove(&switch) {
                    for w in q {
                        self.schedule_coll_retry(w.inst, w.origin, 0);
                    }
                }
            }
            FaultKind::SwitchRecover { switch } => {
                self.failed_switches.remove(&switch);
                let adjacent: Vec<LinkId> =
                    self.g.neighbors(switch).iter().map(|&(_, l)| l).collect();
                for l in adjacent {
                    self.set_link(l, 1.0);
                }
            }
            FaultKind::GpuStall { gpu, slowdown } => {
                self.gpu_slowdown.insert(gpu, slowdown);
            }
            FaultKind::GpuRecover { gpu } => {
                self.gpu_slowdown.remove(&gpu);
            }
        }
        self.strategy.on_fault(&kind, self.now);
    }

    fn set_link(&mut self, l: LinkId, factor: f64) {
        let aborted = self.net.set_link_scale(self.now, l, factor);
        self.handle_aborted_flows(aborted);
    }

    /// Demux flows a dead link tore out of the network: collectives are
    /// aborted wholesale (their surviving flows cancelled) and relaunched
    /// after a backoff; KV transfers are resent; background flows drop.
    fn handle_aborted_flows(&mut self, aborted: Vec<(FlowId, Flow)>) {
        if aborted.is_empty() {
            return;
        }
        // Keyed in collective-/request-id order: the loops below push retry
        // events, so visit order feeds straight into the event queue.
        let mut dead_colls: BTreeMap<u64, Vec<FlowId>> = BTreeMap::new();
        let mut dead_kv: BTreeMap<u64, Vec<FlowId>> = BTreeMap::new();
        for (id, flow) in &aborted {
            self.aborted_flows += 1;
            match flow.tag >> TAG_KIND_SHIFT {
                1 => dead_colls
                    .entry(flow.tag & TAG_ID_MASK)
                    .or_default()
                    .push(*id),
                2 => dead_kv.entry(flow.tag & TAG_ID_MASK).or_default().push(*id),
                _ => {} // background cross traffic: no retry semantics
            }
        }
        for (rid, gone) in dead_kv {
            let Some(f) = self.kv_inflight.get_mut(&rid) else {
                continue;
            };
            f.live.retain(|fid| !gone.contains(fid));
            if f.retry_pending {
                // Another stripe of the same shipment already scheduled the
                // relaunch this instant; one backoff covers them all.
                continue;
            }
            f.retry_pending = true;
            f.aborted_at = self.now;
            let attempt = f.attempt;
            // Cancel the surviving stripes: a partial shipment is useless,
            // the relaunch resends everything from the true source.
            let survivors = std::mem::take(&mut f.live);
            for fid in survivors {
                // A drained-but-undelivered flow returns None here; its
                // completion still arrives and is ignored (retry_pending).
                self.net.cancel_flow(self.now, fid);
            }
            self.tracer.kv_retry(self.now, rid, attempt + 1, gone.len());
            self.events
                .push(self.now + retry_delay(attempt), Ev::RetryKv { req: rid });
        }
        for (coll, gone) in dead_colls {
            let Some(mut state) = self.colls.remove(&coll) else {
                continue;
            };
            self.tracer.collective_abort(self.now, coll, gone.len());
            self.tracer
                .collective_end(self.now, coll, coll_kind(&state.origin));
            self.metrics.inc(self.obs.coll_aborts, 1);
            state.exec.abort(&mut self.net, self.now, &gone);
            self.release_ina(state.ina_switch, coll);
            self.schedule_coll_retry(state.inst, state.origin, state.attempt);
        }
    }

    fn schedule_coll_retry(&mut self, inst: usize, origin: CollOrigin, attempt: u32) {
        let key = self.next_coll;
        self.next_coll += 1;
        self.pending_coll_retry.insert(
            key,
            PendingRetry {
                inst,
                origin,
                attempt,
                aborted_at: self.now,
            },
        );
        self.events
            .push(self.now + retry_delay(attempt), Ev::RetryColl { key });
    }

    fn relaunch_collective(&mut self, p: PendingRetry) {
        let retry = Some((p.attempt + 1, p.aborted_at));
        let counted = match &p.origin {
            CollOrigin::Group {
                group_id,
                group,
                bytes,
            } => {
                let (group_id, group, bytes) = (*group_id, group.clone(), *bytes);
                let ctx = CommCtx {
                    group_id,
                    group: &group,
                    bytes,
                    now: self.now,
                    link_util: &self.util_snapshot,
                };
                let scheme = self.strategy.choose(&ctx);
                self.launch_collective_inner(p.inst, group_id, &group, scheme, bytes, retry)
            }
            CollOrigin::PipeHops { hops } => {
                let hops = hops.clone();
                let plan = self.compile_pipe_plan(&hops);
                match plan {
                    Some(plan) => self.launch_plan(
                        p.inst,
                        plan,
                        None,
                        CollOrigin::PipeHops { hops },
                        retry,
                        None,
                    ),
                    None => false,
                }
            }
        };
        if !counted {
            // The relaunch completed instantly (degenerate plan): close
            // out the instance's outstanding slot the abort left open.
            self.coll_finished_for_instance(p.inst);
        }
    }

    /// Relaunch an aborted KV shipment: every stripe restarts from the
    /// request's *original* prefill GPUs (the stripe plan is immutable),
    /// with per-stripe routes re-chosen so the strategy can steer around
    /// the fault.
    fn retry_kv(&mut self, req: u64) {
        let Some(f) = self.kv_inflight.get_mut(&req) else {
            return;
        };
        if !f.retry_pending {
            // Stale retry event (e.g. the shipment already completed via a
            // later relaunch at the same timestamp).
            return;
        }
        f.attempt += 1;
        f.retry_pending = false;
        let (stripes, aborted_at) = (f.stripes.clone(), f.aborted_at);
        self.flow_retries += 1;
        self.kv_retries += 1;
        self.metrics.inc(self.obs.kv_retries, 1);
        let mut live = Vec::with_capacity(stripes.len());
        let mut all_alive = true;
        for st in &stripes {
            let links = self
                .strategy
                .choose_path(st.src, st.dst, st.bytes, &self.util_snapshot)
                .unwrap_or_else(|| self.ap.path(st.src, st.dst).directed_links(&self.g));
            if links.is_empty() {
                continue;
            }
            if links.iter().any(|&(l, _)| self.net.link_scale(l) <= 0.0) {
                all_alive = false;
            }
            live.push(
                self.net
                    .start_flow(self.now, &links, st.bytes, TAG_KV | req),
            );
        }
        self.kv_stripes_launched += live.len() as u64;
        if live.is_empty() {
            // Every stripe degenerated (e.g. all routes collapsed to
            // same-node): the shipment is over.
            self.kv_done(RequestId(req));
            return;
        }
        if all_alive {
            let delay = self.now.saturating_since(aborted_at).as_secs_f64();
            self.reroute_secs.push(delay);
            self.tracer.reroute(self.now, req, delay);
        }
        self.kv_inflight
            .get_mut(&req)
            .expect("flight still inflight after relaunch")
            .live = live;
    }

    /// Worst GPU-stall slowdown across an instance's GPUs (1.0 healthy).
    fn compute_slowdown(&self, inst: usize) -> f64 {
        if self.gpu_slowdown.is_empty() {
            return 1.0;
        }
        self.instances[inst]
            .spec
            .all_gpus()
            .iter()
            .map(|g| self.gpu_slowdown.get(g).copied().unwrap_or(1.0))
            .fold(1.0, f64::max)
    }

    /// Draw the next background flow and schedule the one after.
    fn next_background_flow(&mut self) -> Option<(u64, Vec<hs_simnet::DirLink>)> {
        let (_, bytes) = self.cfg.background?;
        let (mmpp, rng) = self.bg.as_mut()?;
        let next = self.now + mmpp.next_gap(rng);
        self.events.push(next, Ev::Background);
        let gpus = self.g.gpus();
        let a = *gpus.choose(rng)?;
        let mut b = *gpus.choose(rng)?;
        let mut guard = 0;
        while b == a && guard < 8 {
            b = *gpus.choose(rng)?;
            guard += 1;
        }
        if a == b || !self.ap.covers(a) || !self.ap.covers(b) {
            return None;
        }
        Some((bytes, self.ap.path(a, b).directed_links(&self.g)))
    }

    // ------------------------------------------------------------------
    // Elastic pools (autoscaling)
    // ------------------------------------------------------------------

    fn pool_range(&self, kind: InstanceKind) -> std::ops::Range<usize> {
        match kind {
            InstanceKind::Prefill => 0..self.decode_offset,
            InstanceKind::Decode => self.decode_offset..self.instances.len(),
        }
    }

    /// `(active, draining, parked)` counts for one pool.
    fn pool_counts(&self, kind: InstanceKind) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for i in self.pool_range(kind) {
            match self.instances[i].state {
                PoolState::Active => counts.0 += 1,
                PoolState::Draining => counts.1 += 1,
                PoolState::Parked => counts.2 += 1,
            }
        }
        counts
    }

    fn pool_snapshot(&self) -> PoolSnapshot {
        let (pa, pd, pp) = self.pool_counts(InstanceKind::Prefill);
        let (da, dd, dp) = self.pool_counts(InstanceKind::Decode);
        // Admission pressure over the instances that can take new work;
        // an empty Active set reads as full pressure.
        let mut pressure = 0.0;
        let mut n = 0usize;
        for d in 0..self.kv.len() {
            if self.instances[self.decode_offset + d].state == PoolState::Active {
                pressure += self.kv[d].reserved_utilization();
                n += 1;
            }
        }
        PoolSnapshot {
            now: self.now,
            arrived: self.arrived_count,
            done: self.done_total,
            done_sla_ok: self.done_ok,
            prefill_queue: self.prefill_queue.len(),
            pending_admission: self.pending_admission.len(),
            prefill_active: pa,
            prefill_draining: pd,
            prefill_parked: pp,
            decode_active: da,
            decode_draining: dd,
            decode_parked: dp,
            kv_pressure: if n == 0 { 1.0 } else { pressure / n as f64 },
        }
    }

    /// Move both pools toward `targets`. Targets are clamped to
    /// `[1, pool size]`; growth re-activates Draining instances first
    /// (they are warm), then unparks in ascending index order; shrink
    /// drains the highest-index Active instances (they park on their own
    /// once empty — see [`ClusterSim::maybe_park`]).
    fn apply_targets(&mut self, targets: PoolTargets) {
        let prefill_slots = self.decode_offset;
        let decode_slots = self.instances.len() - self.decode_offset;
        if prefill_slots > 0 {
            self.retarget_pool(
                InstanceKind::Prefill,
                targets.prefill.clamp(1, prefill_slots),
            );
        }
        if decode_slots > 0 {
            self.retarget_pool(InstanceKind::Decode, targets.decode.clamp(1, decode_slots));
        }
        // Newly activated capacity picks up queued work immediately.
        self.kick_prefill();
        self.retry_admissions();
    }

    fn retarget_pool(&mut self, kind: InstanceKind, want: usize) {
        let range = self.pool_range(kind);
        let (active, ..) = self.pool_counts(kind);
        let pool_name = match kind {
            InstanceKind::Prefill => "prefill",
            InstanceKind::Decode => "decode",
        };
        if want > active {
            let mut need = want - active;
            // Cancel drains first: their state is intact and the GPU-hours
            // clock never stopped, so reactivation is free.
            for i in range.clone() {
                if need == 0 {
                    break;
                }
                if self.instances[i].state == PoolState::Draining {
                    self.instances[i].state = PoolState::Active;
                    need -= 1;
                    self.scale_ups += 1;
                    self.metrics.inc(self.obs.scale_ups, 1);
                }
            }
            for i in range {
                if need == 0 {
                    break;
                }
                if self.instances[i].state == PoolState::Parked {
                    self.instances[i].state = PoolState::Active;
                    self.instances[i].occupied_since = Some(self.now);
                    need -= 1;
                    self.scale_ups += 1;
                    self.metrics.inc(self.obs.scale_ups, 1);
                }
            }
            self.tracer
                .autoscale_decision(self.now, pool_name, active, want, "grow");
        } else if want < active {
            let mut excess = active - want;
            for i in range.rev() {
                if excess == 0 {
                    break;
                }
                if self.instances[i].state == PoolState::Active {
                    self.instances[i].state = PoolState::Draining;
                    excess -= 1;
                    self.scale_downs += 1;
                    self.metrics.inc(self.obs.scale_downs, 1);
                    self.maybe_park(i);
                }
            }
            self.tracer
                .autoscale_decision(self.now, pool_name, active, want, "shrink");
        }
    }

    /// Park a Draining instance once it holds no work: a prefill instance
    /// must be idle with no batch; a decode instance must hold no live or
    /// joining requests *and* no KV reservation (a reservation covers
    /// admissions whose KV transfer is still in the air, so an instance
    /// can never park out from under an inbound shipment).
    fn maybe_park(&mut self, inst: usize) {
        if self.instances[inst].state != PoolState::Draining {
            return;
        }
        let empty = match self.instances[inst].kind {
            InstanceKind::Prefill => {
                self.instances[inst].phase == InstPhase::Idle
                    && self.instances[inst].batch.is_empty()
            }
            InstanceKind::Decode => {
                let kv_idx = inst - self.decode_offset;
                self.instances[inst].active.is_empty()
                    && self.instances[inst].joining.is_empty()
                    && self.kv[kv_idx].reserved() == 0
            }
        };
        if empty {
            self.instances[inst].flush_gpu_seconds(self.now);
            self.instances[inst].state = PoolState::Parked;
            let pool = match self.instances[inst].kind {
                InstanceKind::Prefill => "prefill",
                InstanceKind::Decode => "decode",
            };
            self.tracer.autoscale_parked(self.now, inst as u64, pool);
        }
    }

    // ------------------------------------------------------------------
    // Prefill path
    // ------------------------------------------------------------------

    /// Start iterations on every Active, idle prefill instance with
    /// queued work. Draining/Parked instances take no new batches.
    fn kick_prefill(&mut self) {
        for i in 0..self.decode_offset {
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
        let mut stats = BatchStats::default();
        for &id in &batch {
            let r = &mut self.reqs[id.0 as usize];
            r.phase = ReqPhase::Prefilling;
            stats.push(r.req.input_tokens as u64, r.req.output_tokens as u64);
            self.tracer.request_phase_end(self.now, id.0, "queued");
            self.tracer.request_phase_begin(self.now, id.0, "prefill");
        }
        let spec = &self.instances[inst].spec;
        let t_c = prefill_latency_secs(&self.cfg.coef, &self.cfg.model, &stats, spec.p_tens())
            * self.compute_slowdown(inst);
        self.instances[inst].batch = batch;
        self.instances[inst].phase = InstPhase::Computing;
        self.events.push(
            self.now + SimSpan::from_secs_f64(t_c),
            Ev::ComputeDone { inst },
        );
    }

    // ------------------------------------------------------------------
    // Communication phase (both kinds)
    // ------------------------------------------------------------------

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

    fn start_comm(&mut self, inst: usize) {
        let tokens = self.iteration_tokens(inst);
        let spec = self.instances[inst].spec.clone();
        let pp = spec.p_pipe().max(1) as u64;
        // Per-stage tensor-parallel sync volume: both all-reduce points of
        // each of the stage's L/pp layers.
        let stage_bytes = self.cfg.model.sync_bytes_total(tokens) / pp;
        let mut outstanding = 0usize;

        for (sidx, group) in spec.stages.iter().enumerate() {
            if group.len() < 2 || stage_bytes == 0 {
                continue;
            }
            let group_id = (inst as u64) << 8 | sidx as u64;
            let ctx = CommCtx {
                group_id,
                group,
                bytes: stage_bytes,
                now: self.now,
                link_util: &self.util_snapshot,
            };
            let scheme = self.strategy.choose(&ctx);
            if self.launch_collective_inner(inst, group_id, group, scheme, stage_bytes, None) {
                outstanding += 1;
            }
        }

        // Pipeline-stage boundary transfers (Eq. 6): activations of
        // `tokens` tokens hop from each stage's leader to the next.
        if spec.p_pipe() > 1 && tokens > 0 {
            let hop_bytes =
                tokens * self.cfg.model.hidden as u64 * self.cfg.model.precision.bytes();
            let hops: Vec<(NodeId, NodeId, u64)> = spec
                .stages
                .windows(2)
                .map(|w| (w[0][0], w[1][0], hop_bytes))
                .collect();
            if let Some(plan) = self.compile_pipe_plan(&hops) {
                if self.launch_plan(inst, plan, None, CollOrigin::PipeHops { hops }, None, None) {
                    outstanding += 1;
                }
            }
        }

        if outstanding == 0 {
            self.iteration_done(inst);
        } else {
            self.instances[inst].phase = InstPhase::Communicating { outstanding };
        }
    }

    /// Build the pipeline-hop plan, re-choosing each hop's route (the
    /// strategy may steer around faults/hotspots; the static fallback is
    /// the precomputed shortest path).
    fn compile_pipe_plan(&mut self, hops: &[(NodeId, NodeId, u64)]) -> Option<CollectivePlan> {
        let mut phases = Vec::new();
        for &(from, to, hop_bytes) in hops {
            let links = self
                .strategy
                .choose_path(from, to, hop_bytes, &self.util_snapshot)
                .unwrap_or_else(|| self.ap.path(from, to).directed_links(&self.g));
            if !links.is_empty() {
                phases.push(Phase {
                    transfers: vec![(links, hop_bytes)],
                    post_delay: SimSpan::ZERO,
                });
            }
        }
        if phases.is_empty() {
            None
        } else {
            Some(CollectivePlan { phases })
        }
    }

    /// Launch one tensor-group collective. Returns whether it counts as
    /// outstanding (false when it completed instantly). `retry` carries
    /// `(attempt, aborted_at)` when this is a post-fault relaunch.
    fn launch_collective_inner(
        &mut self,
        inst: usize,
        group_id: u64,
        group: &[NodeId],
        scheme: Scheme,
        bytes: u64,
        retry: Option<(u32, SimTime)>,
    ) -> bool {
        let origin = CollOrigin::Group {
            group_id,
            group: group.to_vec(),
            bytes,
        };
        // A hierarchical-INA scheme whose group fits in one server never
        // reaches the switch — it degenerates to NVLink reduce/broadcast
        // and must not consume switch aggregation capacity.
        let aggregates_in_network = match scheme {
            Scheme::Ina { .. } => group.len() >= 2,
            Scheme::HierIna { .. } => hs_collective::latency::leaders(&self.g, group).len() >= 2,
            _ => false,
        };
        let (scheme, ina_switch) = match scheme {
            // A *failed* switch cannot aggregate at all: degrade to a
            // host-side scheme and count the failover (graceful
            // degradation, distinct from busy-switch fallback).
            Scheme::Ina { switch } | Scheme::HierIna { switch }
                if aggregates_in_network && self.failed_switches.contains(&switch) =>
            {
                self.ina_failovers += 1;
                self.ring_ops += 1;
                self.tracer
                    .ina_fallback(self.now, switch.0 as u64, group_id);
                match self.strategy.busy_policy() {
                    BusyPolicy::FallbackHierRing => (Scheme::HierRing, None),
                    // Waiting on a dead switch would hang; degrade.
                    BusyPolicy::FallbackRing | BusyPolicy::Wait => (Scheme::Ring, None),
                }
            }
            Scheme::Ina { switch } | Scheme::HierIna { switch } if aggregates_in_network => {
                let active = self.ina_active.get(&switch).copied().unwrap_or(0);
                if active >= self.cfg.ina_capacity_per_switch {
                    match self.strategy.busy_policy() {
                        BusyPolicy::FallbackRing => {
                            self.ina_fallbacks += 1;
                            self.ring_ops += 1;
                            self.tracer
                                .ina_fallback(self.now, switch.0 as u64, group_id);
                            (Scheme::Ring, None)
                        }
                        BusyPolicy::FallbackHierRing => {
                            self.ina_fallbacks += 1;
                            self.ring_ops += 1;
                            self.tracer
                                .ina_fallback(self.now, switch.0 as u64, group_id);
                            (Scheme::HierRing, None)
                        }
                        BusyPolicy::Wait => {
                            // Queue the compiled plan until the switch
                            // frees capacity.
                            let plan =
                                CollectivePlan::compile(&self.g, &self.ap, group, scheme, bytes);
                            self.ina_ops += 1;
                            self.ina_waiting
                                .entry(switch)
                                .or_default()
                                .push_back(WaitingColl {
                                    inst,
                                    plan,
                                    switch,
                                    origin,
                                });
                            return true;
                        }
                    }
                } else {
                    *self.ina_active.entry(switch).or_insert(0) += 1;
                    self.ina_ops += 1;
                    (scheme, Some(switch))
                }
            }
            other => {
                self.ring_ops += 1;
                (other, None)
            }
        };
        let plan = CollectivePlan::compile(&self.g, &self.ap, group, scheme, bytes);
        self.launch_plan(inst, plan, ina_switch, origin, retry, Some(scheme.label()))
    }

    /// Launch an arbitrary compiled plan. Returns whether it is
    /// outstanding. When `retry` is set, this is a post-abort relaunch:
    /// a plan that avoids every dead link counts as a completed reroute.
    /// `scheme` is the chosen scheme's label, when known, for the trace.
    fn launch_plan(
        &mut self,
        inst: usize,
        plan: CollectivePlan,
        ina_switch: Option<NodeId>,
        origin: CollOrigin,
        retry: Option<(u32, SimTime)>,
        scheme: Option<&'static str>,
    ) -> bool {
        let attempt = retry.map(|(a, _)| a).unwrap_or(0);
        let coll = self.next_coll;
        self.next_coll += 1;
        if let Some((_, aborted_at)) = retry {
            let avoids_dead = plan.phases.iter().all(|ph| {
                ph.transfers
                    .iter()
                    .all(|(path, _)| path.iter().all(|&(l, _)| self.net.link_scale(l) > 0.0))
            });
            if avoids_dead {
                let delay = self.now.saturating_since(aborted_at).as_secs_f64();
                self.reroute_secs.push(delay);
                self.tracer.reroute(self.now, coll, delay);
            }
        }
        if self.tracer.is_enabled() {
            let (group, bytes) = match &origin {
                CollOrigin::Group {
                    group_id, bytes, ..
                } => (*group_id, *bytes),
                CollOrigin::PipeHops { hops } => {
                    (inst as u64, hops.iter().map(|&(_, _, b)| b).sum())
                }
            };
            self.tracer
                .collective_begin(self.now, coll, group, coll_kind(&origin), scheme, bytes);
            if let Some(sw) = ina_switch {
                let active = self.ina_active.get(&sw).copied().unwrap_or(0);
                self.tracer
                    .ina_session_begin(self.now, sw.0 as u64, coll, active as u32);
            }
        }
        self.metrics.inc(self.obs.colls, 1);
        let mut exec = CollectiveExec::new(plan, TAG_COLL | coll);
        let progress = exec.start(&mut self.net, self.now);
        match progress {
            Progress::Done => {
                self.tracer
                    .collective_end(self.now, coll, coll_kind(&origin));
                self.release_ina(ina_switch, coll);
                false
            }
            Progress::InFlight => {
                self.colls.insert(
                    coll,
                    CollState {
                        exec,
                        inst,
                        ina_switch,
                        origin,
                        attempt,
                    },
                );
                true
            }
            Progress::StartTimer(d) => {
                self.colls.insert(
                    coll,
                    CollState {
                        exec,
                        inst,
                        ina_switch,
                        origin,
                        attempt,
                    },
                );
                self.events.push(self.now + d, Ev::CollTimer { coll });
                true
            }
        }
    }

    fn advance_coll(&mut self, coll: u64, progress: Progress) {
        match progress {
            Progress::InFlight => {}
            Progress::StartTimer(d) => {
                self.events.push(self.now + d, Ev::CollTimer { coll });
            }
            Progress::Done => {
                // A fault between the completing network event and this
                // notification may already have torn the collective down
                // (abort path); finishing twice would double-release.
                let Some(state) = self.colls.remove(&coll) else {
                    return;
                };
                self.tracer
                    .collective_end(self.now, coll, coll_kind(&state.origin));
                self.release_ina(state.ina_switch, coll);
                self.coll_finished_for_instance(state.inst);
            }
        }
    }

    /// Release `job`'s aggregation slot on `sw` (if any) and admit one
    /// waiting collective.
    fn release_ina(&mut self, sw: Option<NodeId>, job: u64) {
        let Some(sw) = sw else { return };
        self.tracer.ina_session_end(self.now, sw.0 as u64, job);
        // Every release must pair with an acquisition. The old
        // `or_insert(1)` + `saturating_sub` would conjure a slot for an
        // unpaired release (e.g. a collective ended twice) and silently
        // widen the switch's session capacity; instead the release is
        // dropped, counted, and flagged in debug builds.
        match self.ina_active.get_mut(&sw) {
            Some(c) if *c > 0 => *c -= 1,
            _ => {
                debug_assert!(
                    false,
                    "INA release without matching acquire (switch {}, job {job})",
                    sw.0
                );
                self.ina_release_underflows += 1;
                // No slot actually freed, so nothing to hand to a waiter.
                return;
            }
        }
        // Admit one waiting collective, if any.
        if let Some(q) = self.ina_waiting.get_mut(&sw) {
            if let Some(w) = q.pop_front() {
                *self.ina_active.entry(sw).or_insert(0) += 1;
                let counted =
                    self.launch_plan(w.inst, w.plan, Some(w.switch), w.origin, None, None);
                if !counted {
                    // Instantly done (degenerate plan): close it out.
                    self.coll_finished_for_instance(w.inst);
                }
            }
        }
    }

    fn coll_finished_for_instance(&mut self, inst: usize) {
        let done = {
            let instance = &mut self.instances[inst];
            match &mut instance.phase {
                InstPhase::Communicating { outstanding } => {
                    *outstanding -= 1;
                    *outstanding == 0
                }
                _ => unreachable!("collective finished while instance not communicating"),
            }
        };
        if done {
            self.iteration_done(inst);
        }
    }

    // ------------------------------------------------------------------
    // Iteration boundaries
    // ------------------------------------------------------------------

    fn iteration_done(&mut self, inst: usize) {
        self.instances[inst].iterations += 1;
        self.instances[inst].phase = InstPhase::Idle;
        match self.instances[inst].kind {
            InstanceKind::Prefill => {
                let batch = std::mem::take(&mut self.instances[inst].batch);
                for id in batch {
                    let r = &mut self.reqs[id.0 as usize];
                    r.prefill_done = Some(self.now);
                    r.phase = ReqPhase::AwaitingAdmission;
                    // The KV cache lives on this instance's GPUs from now
                    // on — every (re)transfer must ship from here.
                    r.prefill_instance = Some(inst);
                    self.tracer.request_phase_end(self.now, id.0, "prefill");
                    self.try_admit(id);
                }
                self.kick_prefill();
                self.maybe_park(inst);
            }
            InstanceKind::Decode => {
                let kv_idx = inst - self.decode_offset;
                let active = self.instances[inst].active.clone();
                let mut finished_reqs = Vec::new();
                let mut live_growth = 0u64;
                let (ttft_sla, tpot_sla) = (self.cfg.ttft_sla_s, self.cfg.tpot_sla_s);
                for id in &active {
                    let r = &mut self.reqs[id.0 as usize];
                    r.tokens_generated += 1;
                    live_growth += 1;
                    if r.tokens_generated >= r.req.output_tokens {
                        r.phase = ReqPhase::Done;
                        r.finished = Some(self.now);
                        finished_reqs.push(*id);
                        let ttft = r.ttft_secs().unwrap_or(0.0);
                        let latency = self.now.saturating_since(r.req.arrival).as_secs_f64();
                        let tpot = r.tpot_secs();
                        self.done_total += 1;
                        if ttft <= ttft_sla && tpot.map(|t| t <= tpot_sla).unwrap_or(false) {
                            self.done_ok += 1;
                        }
                        self.tracer.request_phase_end(self.now, id.0, "decode");
                        self.tracer.request_done(self.now, id.0, ttft, latency);
                        self.metrics.inc(self.obs.completed, 1);
                        self.metrics.observe(self.obs.ttft, ttft);
                        if let Some(tp) = tpot {
                            self.metrics.observe(self.obs.tpot, tp);
                        }
                    }
                }
                self.kv[kv_idx].materialize(live_growth);
                if !finished_reqs.is_empty() {
                    for id in &finished_reqs {
                        let r = &self.reqs[id.0 as usize];
                        self.kv[kv_idx].release(
                            r.reserved_kv_tokens(),
                            r.req.input_tokens as u64 + r.tokens_generated as u64,
                        );
                    }
                    self.instances[inst]
                        .active
                        .retain(|id| !finished_reqs.contains(id));
                    self.retry_admissions();
                }
                self.start_decode_iteration(inst);
                self.maybe_park(inst);
            }
        }
    }

    // ------------------------------------------------------------------
    // Admission + KV transfer
    // ------------------------------------------------------------------

    /// Try to admit `id` to a decode instance; a refused request joins the
    /// pending-admission queue (and counts one deferral — retry passes
    /// re-use [`admit_request`] directly and don't re-count).
    fn try_admit(&mut self, id: RequestId) {
        if !self.admit_request(id) {
            self.kv_deferrals += 1;
            self.metrics.inc(self.obs.kv_deferrals, 1);
            self.pending_admission.push_back(id);
        }
    }

    /// Pick a decode instance and launch the striped KV transfer. Returns
    /// `false` when no instance can take the request right now.
    fn admit_request(&mut self, id: RequestId) -> bool {
        let need = self.reqs[id.0 as usize].reserved_kv_tokens();
        // Candidates in ascending decode-pool order (deterministic).
        // Draining/Parked instances are not admission targets.
        let eligible: Vec<usize> = (0..self.kv.len())
            .filter(|&d| {
                self.instances[self.decode_offset + d].state == PoolState::Active
                    && self.kv[d].can_admit(need)
            })
            .collect();
        if eligible.is_empty() {
            return false;
        }
        let prefill_inst = self.reqs[id.0 as usize]
            .prefill_instance
            .expect("admission before prefill completion");
        let input_tokens = self.reqs[id.0 as usize].req.input_tokens as u64;
        let bytes = input_tokens * self.cfg.model.kv_bytes_per_token();
        let src_gpus = self.instances[prefill_inst].spec.all_gpus();
        let least_loaded = |sim: &Self| -> usize {
            eligible
                .iter()
                .copied()
                .min_by_key(|&d| sim.instances[sim.decode_offset + d].decode_load())
                .expect("eligible is non-empty")
        };
        // Decode-instance selection: network-aware strategies score the
        // candidates (NetKV-style); everyone else takes least-loaded.
        let (d, est_s) = if self.strategy.network_aware_admission() {
            let candidates: Vec<KvCandidate> = eligible
                .iter()
                .map(|&d| KvCandidate {
                    instance: d,
                    load: self.instances[self.decode_offset + d].decode_load(),
                    headroom_tokens: self.kv[d].headroom(),
                    capacity_tokens: self.kv[d].capacity(),
                    dst_gpus: self.instances[self.decode_offset + d].spec.all_gpus(),
                })
                .collect();
            let ctx = KvCtx {
                req: id.0,
                bytes,
                src_gpus: &src_gpus,
                link_util: &self.util_snapshot,
                now: self.now,
            };
            match self.strategy.choose_decode(&ctx, &candidates) {
                // A choice outside the candidate set falls through to
                // least-loaded — the strategy can never over-admit.
                Some(c) if eligible.contains(&c.instance) => (c.instance, c.est_transfer_s),
                _ => {
                    let d = least_loaded(self);
                    let est = self.idle_kv_estimate(&src_gpus, d, bytes);
                    (d, est)
                }
            }
        } else {
            let d = least_loaded(self);
            let est = self.idle_kv_estimate(&src_gpus, d, bytes);
            (d, est)
        };
        // Selection and reservation are decoupled, so re-validate instead
        // of asserting: a refused reservation defers the request rather
        // than killing the run.
        if !self.kv[d].admit(need) {
            self.tracer.warning(
                self.now,
                format!("kv admit race: instance {d} refused request {}", id.0),
            );
            return false;
        }
        let r = &mut self.reqs[id.0 as usize];
        r.decode_instance = Some(self.decode_offset + d);
        r.phase = ReqPhase::TransferringKv;
        self.tracer
            .request_phase_begin(self.now, id.0, "kv_transfer");
        self.kv[d].materialize(input_tokens);
        // Stripe the shipment across the Eq. 15 parallel TP pairs: one
        // flow per src/dst GPU pair, done when the slowest stripe drains.
        let dst_gpus = self.instances[self.decode_offset + d].spec.all_gpus();
        let stripes = stripe_plan(&src_gpus, &dst_gpus, bytes);
        let mut live = Vec::with_capacity(stripes.len());
        for st in &stripes {
            // The strategy may route each stripe (HeroServe's path
            // policy); otherwise take the static shortest path.
            let links = self
                .strategy
                .choose_path(st.src, st.dst, st.bytes, &self.util_snapshot)
                .unwrap_or_else(|| self.ap.path(st.src, st.dst).directed_links(&self.g));
            if links.is_empty() {
                continue;
            }
            live.push(
                self.net
                    .start_flow(self.now, &links, st.bytes, TAG_KV | id.0),
            );
        }
        self.kv_transfers += 1;
        self.kv_stripes_launched += live.len() as u64;
        self.kv_bytes_total += bytes;
        self.metrics.inc(self.obs.kv_transfers, 1);
        self.tracer.kv_transfer_begin(
            self.now,
            id.0,
            prefill_inst as u64,
            (self.decode_offset + d) as u64,
            bytes,
            live.len(),
            est_s,
        );
        let instantly_done = live.is_empty();
        self.kv_inflight.insert(
            id.0,
            KvFlight {
                stripes,
                live,
                attempt: 0,
                started: self.now,
                aborted_at: SimTime::ZERO,
                retry_pending: false,
                est_s,
            },
        );
        if instantly_done {
            // Zero-byte shipment or co-located prefill/decode: nothing to
            // move over the fabric.
            self.kv_done(id);
        }
        true
    }

    /// Idle-fabric transfer-time estimate for the engine's own least-
    /// loaded pick: the slowest Eq. 15 stripe over uncontended links.
    /// Network-aware strategies supply their own utilization-adjusted
    /// estimate through [`KvChoice`](crate::strategy::KvChoice).
    fn idle_kv_estimate(&self, src_gpus: &[NodeId], d: usize, bytes: u64) -> f64 {
        let dst_gpus = self.instances[self.decode_offset + d].spec.all_gpus();
        stripe_plan(src_gpus, &dst_gpus, bytes)
            .iter()
            .filter(|st| self.ap.covers(st.src) && self.ap.covers(st.dst))
            .map(|st| path_transfer_secs(&self.g, self.ap.path(st.src, st.dst), st.bytes, None))
            .fold(0.0, f64::max)
    }

    /// Offer freed decode capacity back to the deferred-admission queue
    /// with head-of-line semantics and a bounded reorder window: the head
    /// keeps first claim on released memory, but up to
    /// [`ADMIT_REORDER_WINDOW`] blocked requests may be stepped over so a
    /// single huge request cannot idle capacity that smaller ones behind
    /// it could use. Blocked heads return to the front in their original
    /// order, so a large request's queue position — and its claim on the
    /// next release — is preserved (no starvation).
    fn retry_admissions(&mut self) {
        /// Max blocked requests a retry pass may step over.
        const ADMIT_REORDER_WINDOW: usize = 4;
        let mut blocked: Vec<RequestId> = Vec::new();
        while let Some(id) = self.pending_admission.pop_front() {
            if blocked.len() >= ADMIT_REORDER_WINDOW {
                self.pending_admission.push_front(id);
                break;
            }
            if !self.admit_request(id) {
                blocked.push(id);
            }
        }
        for id in blocked.into_iter().rev() {
            self.pending_admission.push_front(id);
        }
    }

    fn kv_done(&mut self, id: RequestId) {
        if let Some(f) = self.kv_inflight.remove(&id.0) {
            let actual = self.now.saturating_since(f.started).as_secs_f64();
            self.kv_transfer_secs.push(actual);
            self.kv_est_err_secs.push((f.est_s - actual).abs());
            self.metrics.observe(self.obs.kv_transfer_s, actual);
            self.tracer
                .kv_transfer_end(self.now, id.0, actual, f.est_s, f.attempt);
        }
        let r = &mut self.reqs[id.0 as usize];
        r.phase = ReqPhase::Decoding;
        r.decode_start = Some(self.now);
        self.tracer.request_phase_end(self.now, id.0, "kv_transfer");
        self.tracer.request_phase_begin(self.now, id.0, "decode");
        let inst = r.decode_instance.expect("admitted request has instance");
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
        ) * self.compute_slowdown(inst);
        self.instances[inst].phase = InstPhase::Computing;
        self.events.push(
            self.now + SimSpan::from_secs_f64(t_c),
            Ev::ComputeDone { inst },
        );
    }

    // ------------------------------------------------------------------
    // Flow demux
    // ------------------------------------------------------------------

    fn on_flow_done(&mut self, id: FlowId, tag: u64) {
        match tag >> TAG_KIND_SHIFT {
            1 => {
                let coll = tag & TAG_ID_MASK;
                let Some(state) = self.colls.get_mut(&coll) else {
                    return;
                };
                let progress = state.exec.on_flow_complete(&mut self.net, self.now, id);
                self.advance_coll(coll, progress);
            }
            2 => {
                let rid = tag & TAG_ID_MASK;
                let Some(f) = self.kv_inflight.get_mut(&rid) else {
                    // Already completed (e.g. a duplicate completion after
                    // a same-instant relaunch): nothing to do.
                    return;
                };
                if f.retry_pending {
                    // A cancelled-but-drained stripe's completion arriving
                    // after the abort; the pending relaunch supersedes it.
                    return;
                }
                let Some(pos) = f.live.iter().position(|&fid| fid == id) else {
                    // A stripe from a superseded launch generation.
                    return;
                };
                f.live.swap_remove(pos);
                if f.live.is_empty() {
                    self.kv_done(RequestId(rid));
                }
            }
            _ => {} // background / foreign flows
        }
    }

    // ------------------------------------------------------------------
    // Reporting
    // ------------------------------------------------------------------

    fn sample_memory(&mut self) {
        if self.kv.is_empty() {
            return;
        }
        let utils: Vec<f64> = self
            .kv
            .iter()
            .map(|m| {
                // Convert live tokens into whole-GPU memory utilization.
                self.mem_model
                    .utilization(self.cfg.gpu_memory_bytes, m.live())
            })
            .collect();
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        let max = utils.iter().fold(0.0f64, |a, &b| a.max(b));
        self.mem_series.push(MemSample {
            t: self.now,
            mean_util: mean,
            max_util: max,
        });
    }

    fn build_report(&mut self, horizon: SimTime) -> SimReport {
        // Close every open occupancy interval at the horizon: a run with
        // no autoscaler reports exactly `total_gpus × horizon` GPU-seconds.
        let mut gpu_seconds = 0.0;
        for inst in &mut self.instances {
            inst.flush_gpu_seconds(horizon);
            gpu_seconds += inst.gpu_seconds;
        }
        let (final_prefill_active, ..) = self.pool_counts(InstanceKind::Prefill);
        let (final_decode_active, ..) = self.pool_counts(InstanceKind::Decode);
        let horizon_s = horizon.as_secs_f64();
        let mut report = SimReport {
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            gpu_seconds,
            mean_active_gpus: if horizon_s > 0.0 {
                gpu_seconds / horizon_s
            } else {
                0.0
            },
            final_prefill_active,
            final_decode_active,
            strategy: self.strategy.name().to_string(),
            offered_rate: self.offered_rate,
            mem_series: std::mem::take(&mut self.mem_series),
            ina_ops: self.ina_ops,
            ring_ops: self.ring_ops,
            ina_fallbacks: self.ina_fallbacks,
            ina_failovers: self.ina_failovers,
            ina_release_underflows: self.ina_release_underflows,
            aborted_flows: self.aborted_flows,
            flow_retries: self.flow_retries,
            mean_reroute_s: hs_workload::mean(&self.reroute_secs),
            kv_transfers: self.kv_transfers,
            kv_stripes: self.kv_stripes_launched,
            kv_retries: self.kv_retries,
            kv_deferrals: self.kv_deferrals,
            kv_bytes: self.kv_bytes_total as f64,
            mean_kv_transfer_s: hs_workload::mean(&self.kv_transfer_secs),
            p90_kv_transfer_s: hs_workload::stats::percentile(&self.kv_transfer_secs, 90.0),
            mean_kv_est_err_s: hs_workload::mean(&self.kv_est_err_secs),
            ..SimReport::default()
        };
        for (lid, link) in self.g.links() {
            let bytes = self.net.cumulative_bytes(lid);
            match link.kind {
                LinkKind::Ethernet => report.eth_bytes += bytes,
                LinkKind::NvLink | LinkKind::Pcie => report.nvlink_bytes += bytes,
            }
        }
        report.summarize(
            &self.reqs,
            self.cfg.ttft_sla_s,
            self.cfg.tpot_sla_s,
            horizon,
        );
        report.fault_window_attainment = self.cfg.faults.window().and_then(|w| {
            SimReport::attainment_in_window(
                &self.reqs,
                self.cfg.ttft_sla_s,
                self.cfg.tpot_sla_s,
                horizon,
                w,
            )
        });
        report
    }

    /// Read-only view of the request states (tests).
    pub fn requests(&self) -> &[ReqState] {
        &self.reqs
    }

    /// Read-only view of the instances (tests).
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// The current KV managers (tests / Fig. 10 probes).
    pub fn kv_managers(&self) -> &[KvManager] {
        &self.kv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autoscale::StaticController;
    use crate::strategy::StaticStrategy;
    use hs_des::SeedSplitter;
    use hs_model::profile::{fit, ProfileGrid};
    use hs_model::GpuModel;
    use hs_topology::builders::testbed;
    use hs_topology::LinkWeight;
    use hs_workload::spec::fixed;
    use hs_workload::{Poisson, Trace};

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

    pub(super) fn build_sim(
        rate: f64,
        horizon_s: u64,
        scheme: Scheme,
        faults: FaultPlan,
    ) -> (ClusterSim, usize) {
        let strategy = StaticStrategy::uniform("test", scheme, BusyPolicy::FallbackRing);
        build_sim_with_strategy(rate, horizon_s, faults, Box::new(strategy))
    }

    fn build_sim_with_strategy(
        rate: f64,
        horizon_s: u64,
        faults: FaultPlan,
        strategy: Box<dyn CommStrategy>,
    ) -> (ClusterSim, usize) {
        let t = testbed();
        let model = ModelConfig::opt_13b();
        let fitted = fit(&GpuModel::a100(), &model, &ProfileGrid::default());
        let mut nodes = t.all_gpus();
        nodes.extend(&t.access_switches);
        let ap = AllPairs::compute(&t.graph, &nodes, LinkWeight::Latency, None);

        // Prefill: server 0's 4 GPUs (TP=4); decode: server 1's 4 GPUs.
        let cfg = ClusterConfig {
            model,
            coef: fitted.coefficients,
            ttft_sla_s: 2.5,
            tpot_sla_s: 0.15,
            prefill: vec![InstanceSpec::tensor_parallel(t.gpus_by_server[0].clone())],
            decode: vec![InstanceSpec::tensor_parallel(t.gpus_by_server[1].clone())],
            batch: BatchPolicy::default(),
            gpu_memory_bytes: 40 * (1 << 30),
            monitor_period: SimSpan::from_millis(100),
            ina_capacity_per_switch: 4,
            background: None,
            faults,
        };
        let mut rng = SeedSplitter::new(11).stream("trace");
        let mut arr = Poisson::new(rate);
        let trace = Trace::generate(
            &fixed(256, 16),
            &mut arr,
            &mut rng,
            SimTime::from_secs(horizon_s),
        );
        let n = trace.len();
        let sim = ClusterSim::new(&t.graph, ap, cfg, &trace, strategy);
        (sim, n)
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

    /// Ending a collective's INA session twice must not conjure switch
    /// capacity: the unpaired release is dropped, counted, and surfaced
    /// in the report (release builds; debug builds assert instead).
    #[test]
    #[cfg(not(debug_assertions))]
    fn unpaired_ina_release_is_counted_and_conjures_nothing() {
        let (mut sim, _) = build_sim(1.0, 5, Scheme::Ring, FaultPlan::none());
        let sw = testbed().access_switches[0];
        sim.ina_active.insert(sw, 1);
        sim.release_ina(Some(sw), 7);
        assert_eq!(sim.ina_active[&sw], 0);
        assert_eq!(sim.ina_release_underflows, 0);
        // Second end of the same job: the slot is already free.
        sim.release_ina(Some(sw), 7);
        assert_eq!(sim.ina_active[&sw], 0, "no slot conjured");
        assert_eq!(sim.ina_release_underflows, 1);
        let report = sim.build_report(SimTime::from_secs(5));
        assert_eq!(report.ina_release_underflows, 1);
    }

    /// In debug builds the unpaired release trips an assertion at the
    /// faulty call site instead of limping on.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "INA release without matching acquire")]
    fn unpaired_ina_release_asserts_in_debug() {
        let (mut sim, _) = build_sim(1.0, 5, Scheme::Ring, FaultPlan::none());
        let sw = testbed().access_switches[0];
        sim.ina_active.insert(sw, 1);
        sim.release_ina(Some(sw), 7);
        sim.release_ina(Some(sw), 7);
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
        let model = ModelConfig::opt_13b();
        let fitted = fit(&GpuModel::a100(), &model, &ProfileGrid::default());
        let mut nodes = t.all_gpus();
        nodes.extend(&t.access_switches);
        let ap = AllPairs::compute(&t.graph, &nodes, LinkWeight::Latency, None);
        let cfg = ClusterConfig {
            model,
            coef: fitted.coefficients,
            ttft_sla_s: 30.0,
            tpot_sla_s: 0.15,
            prefill: vec![InstanceSpec::tensor_parallel(t.gpus_by_server[0].clone())],
            decode: vec![InstanceSpec::tensor_parallel(t.gpus_by_server[1].clone())],
            batch: BatchPolicy::default(),
            gpu_memory_bytes: 40 * (1 << 30),
            monitor_period: SimSpan::from_millis(100),
            ina_capacity_per_switch: 4,
            background: None,
            faults,
        };
        let trace = Trace {
            requests: (0..3)
                .map(|i| hs_workload::Request {
                    id: RequestId(i),
                    arrival: SimTime::from_millis(i * 500),
                    input_tokens: 32_768,
                    output_tokens: 4,
                })
                .collect(),
        };
        let strategy = StaticStrategy::uniform("test", Scheme::Ring, BusyPolicy::FallbackRing);
        let mut sim = ClusterSim::new(&t.graph, ap, cfg, &trace, Box::new(strategy));
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
        let model = ModelConfig::opt_13b();
        let fitted = fit(&GpuModel::a100(), &model, &ProfileGrid::default());
        let mut nodes = t.all_gpus();
        nodes.extend(&t.access_switches);
        let ap = AllPairs::compute(&t.graph, &nodes, LinkWeight::Latency, None);
        let cfg = ClusterConfig {
            model,
            coef: fitted.coefficients,
            ttft_sla_s: 2.5,
            tpot_sla_s: 0.15,
            prefill: vec![InstanceSpec::tensor_parallel(t.gpus_by_server[0].clone())],
            decode: vec![InstanceSpec::tensor_parallel(t.gpus_by_server[1].clone())],
            batch: BatchPolicy::default(),
            gpu_memory_bytes: 40 * (1 << 30),
            monitor_period: SimSpan::from_millis(100),
            ina_capacity_per_switch: 4,
            background: None,
            faults: FaultPlan::none(),
        };
        let empty = Trace { requests: vec![] };
        let strategy = StaticStrategy::uniform("idle", Scheme::Ring, BusyPolicy::FallbackRing);
        let mut sim = ClusterSim::new(&t.graph, ap, cfg, &empty, Box::new(strategy));
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
        let model = ModelConfig::opt_13b();
        let kv_bytes = 256 * model.kv_bytes_per_token();
        let fitted = fit(&GpuModel::a100(), &model, &ProfileGrid::default());
        let mut nodes = t.all_gpus();
        nodes.extend(&t.access_switches);
        let ap = AllPairs::compute(&t.graph, &nodes, LinkWeight::Latency, None);
        let cfg = ClusterConfig {
            model,
            coef: fitted.coefficients,
            ttft_sla_s: 2.5,
            tpot_sla_s: 0.15,
            prefill: vec![
                InstanceSpec::tensor_parallel(t.gpus_by_server[0].clone()),
                InstanceSpec::tensor_parallel(t.gpus_by_server[2].clone()),
            ],
            decode: vec![InstanceSpec::tensor_parallel(t.gpus_by_server[1].clone())],
            batch: BatchPolicy::default(),
            gpu_memory_bytes: 40 * (1 << 30),
            monitor_period: SimSpan::from_millis(100),
            ina_capacity_per_switch: 4,
            background: None,
            faults: FaultPlan::none(),
        };
        // Two staggered arrivals: req 0 grabs prefill instance 0, req 1
        // lands on instance 1 while 0 is still computing.
        let trace = Trace {
            requests: vec![
                hs_workload::Request {
                    id: RequestId(0),
                    arrival: SimTime::ZERO,
                    input_tokens: 256,
                    output_tokens: 16,
                },
                hs_workload::Request {
                    id: RequestId(1),
                    arrival: SimTime::from_millis(5),
                    input_tokens: 256,
                    output_tokens: 16,
                },
            ],
        };
        let strategy = StaticStrategy::uniform("test", Scheme::Ring, BusyPolicy::FallbackRing);
        let mut sim = ClusterSim::new(&t.graph, ap, cfg, &trace, Box::new(strategy));
        // Shrink the decode instance to one request's footprint (272
        // reserved tokens) so request 1's admission must defer.
        sim.kv[0] = KvManager::new(300);
        let tracer = hs_obs::Tracer::recording();
        let metrics = hs_obs::MetricsRegistry::disabled();
        sim.set_obs(&tracer, &metrics);
        let rep = sim.run(SimTime::from_secs(60));
        assert_eq!(rep.completed, 2, "both requests must finish");
        assert!(rep.kv_deferrals >= 1, "request 1 was never deferred");
        assert_eq!(sim.requests()[0].prefill_instance, Some(0));
        assert_eq!(sim.requests()[1].prefill_instance, Some(1));
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
        for (lid, link) in sim.g.links() {
            if link.kind != LinkKind::Ethernet {
                continue;
            }
            let touches_server2 =
                t.gpus_by_server[2].contains(&link.a) || t.gpus_by_server[2].contains(&link.b);
            if touches_server2 {
                server2_uplink_bytes += sim.net.cumulative_bytes(lid);
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
            let model = ModelConfig::opt_13b();
            let fitted = fit(&GpuModel::a100(), &model, &ProfileGrid::default());
            let mut nodes = t.all_gpus();
            nodes.extend(&t.access_switches);
            let ap = AllPairs::compute(&t.graph, &nodes, LinkWeight::Latency, None);
            let cfg = ClusterConfig {
                model,
                coef: fitted.coefficients,
                ttft_sla_s: 2.5,
                tpot_sla_s: 0.15,
                prefill: vec![InstanceSpec::tensor_parallel(t.gpus_by_server[0].clone())],
                decode: vec![InstanceSpec::tensor_parallel(t.gpus_by_server[1].clone())],
                batch: BatchPolicy::default(),
                gpu_memory_bytes: 40 * (1 << 30),
                monitor_period: SimSpan::from_millis(100),
                ina_capacity_per_switch: 4,
                background: None,
                faults: FaultPlan::none(),
            };
            // Arrivals far beyond anything we step; the test drives
            // `retry_admissions` directly.
            let trace = Trace {
                requests: shape
                    .iter()
                    .enumerate()
                    .map(|(i, &(inp, out))| hs_workload::Request {
                        id: RequestId(i as u64),
                        arrival: SimTime::from_secs(1_000),
                        input_tokens: inp,
                        output_tokens: out,
                    })
                    .collect(),
            };
            let strategy = StaticStrategy::uniform("test", Scheme::Ring, BusyPolicy::FallbackRing);
            let mut sim = ClusterSim::new(&t.graph, ap, cfg, &trace, Box::new(strategy));
            sim.kv[0] = KvManager::new(140);
            for i in 0..shape.len() {
                sim.reqs[i].phase = ReqPhase::AwaitingAdmission;
                sim.reqs[i].prefill_done = Some(SimTime::ZERO);
                sim.reqs[i].prefill_instance = Some(0);
                sim.pending_admission.push_back(RequestId(i as u64));
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
        let order: Vec<u64> = sim.pending_admission.iter().map(|id| id.0).collect();
        assert_eq!(order, vec![0, 4, 5], "blocked heads keep queue order");

        // Window bound: after 4 blocked requests the pass stops — a
        // fitting request beyond the window stays queued until the next
        // release instead of jumping arbitrarily far forward.
        let mut sim = mk(&[big, big, big, big, big, small]);
        sim.retry_admissions();
        let order: Vec<u64> = sim.pending_admission.iter().map(|id| id.0).collect();
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
                _candidates: &[KvCandidate],
            ) -> Option<crate::strategy::KvChoice> {
                Some(crate::strategy::KvChoice {
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
        let model = ModelConfig::opt_13b();
        let fitted = fit(&GpuModel::a100(), &model, &ProfileGrid::default());
        let mut nodes = t.all_gpus();
        nodes.extend(&t.access_switches);
        let ap = AllPairs::compute(&t.graph, &nodes, LinkWeight::Latency, None);
        let split = |gpus: &[NodeId]| {
            vec![
                InstanceSpec::tensor_parallel(gpus[..2].to_vec()),
                InstanceSpec::tensor_parallel(gpus[2..].to_vec()),
            ]
        };
        let cfg = ClusterConfig {
            model,
            coef: fitted.coefficients,
            ttft_sla_s: 2.5,
            tpot_sla_s: 0.15,
            prefill: split(&t.gpus_by_server[0]),
            decode: split(&t.gpus_by_server[1]),
            batch: BatchPolicy::default(),
            gpu_memory_bytes: 40 * (1 << 30),
            monitor_period: SimSpan::from_millis(100),
            ina_capacity_per_switch: 4,
            background: None,
            faults: FaultPlan::none(),
        };
        let mut rng = SeedSplitter::new(11).stream("trace");
        let mut arr = Poisson::new(rate);
        let trace = Trace::generate(
            &fixed(256, 16),
            &mut arr,
            &mut rng,
            SimTime::from_secs(horizon_s),
        );
        let n = trace.len();
        let strategy = StaticStrategy::uniform("test", Scheme::Ring, BusyPolicy::FallbackRing);
        let sim = ClusterSim::new(&t.graph, ap, cfg, &trace, Box::new(strategy));
        (sim, n)
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
