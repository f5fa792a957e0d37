//! Collectives: the live tensor-group all-reduces and pipeline-stage
//! hops, the per-switch INA slot ledger with its wait queues, and the
//! backed-off relaunch of collectives a fault aborted; and
//! [`run_allreduces`], the back-to-back all-reduce load of Fig. 9 on the
//! same ledger. Each tensor group compiles the plan shape of a scheme
//! once, the first time it launches with it; every later launch runs the
//! cached shape at its own payload size.

use crate::engine::{Background, Ev, FlowOwner, Shared};
use crate::faults::FaultRecovery;
use crate::metrics::SimReport;
use crate::strategy::{BusyPolicy, CommCtx, CommStrategy};
use hs_collective::{CollectiveExec, PhaseShape, PlanShape, Progress, Scheme};
use hs_des::{EventQueue, SimSpan, SimTime};
use hs_simnet::FlowId;
use hs_topology::{AllPairs, Graph, NodeId};
use rustc_hash::FxHashMap;
use std::collections::VecDeque;
use std::sync::Arc;

/// What a collective was compiled from — enough to recompile and relaunch
/// it if a fault aborts its flows mid-run.
#[derive(Clone)]
pub(crate) enum CollOrigin {
    /// An all-reduce of a group registered with
    /// [`Collectives::add_group`]: the strategy re-chooses the scheme on
    /// retry (so it can route around a failed switch).
    Group { group_id: u64, bytes: u64 },
    /// Pipeline-stage boundary transfers of `bytes` each, `(from, to)`:
    /// paths are re-chosen on retry.
    PipeHops {
        hops: Vec<(NodeId, NodeId)>,
        bytes: u64,
    },
}

/// A tensor group's members and the plan shape of each scheme it has
/// launched with, compiled on first use.
struct GroupPlans {
    members: Box<[NodeId]>,
    shapes: Vec<(Scheme, Arc<PlanShape>)>,
}

impl GroupPlans {
    /// `scheme`'s shape for this group, compiled (and counted in
    /// `compiled`) the first time it is asked for.
    fn shape(
        &mut self,
        g: &Graph,
        ap: &AllPairs,
        scheme: Scheme,
        compiled: &mut u64,
    ) -> Arc<PlanShape> {
        if let Some((_, shape)) = self.shapes.iter().find(|(s, _)| *s == scheme) {
            return Arc::clone(shape);
        }
        *compiled += 1;
        let shape = Arc::new(PlanShape::compile(g, ap, &self.members, scheme));
        self.shapes.push((scheme, Arc::clone(&shape)));
        shape
    }
}

/// One collective of instance `inst`'s iteration.
pub(crate) struct Job {
    pub(crate) inst: usize,
    pub(crate) origin: CollOrigin,
    /// How many times this collective has been relaunched after aborts.
    pub(crate) attempt: u32,
}

struct CollState {
    exec: CollectiveExec,
    job: Job,
    /// The INA switch whose admission this collective holds, if any.
    ina_switch: Option<NodeId>,
}

/// An INA collective queued for a slot on a busy switch, with the shape
/// it will run.
struct WaitingColl {
    job: Job,
    shape: Arc<PlanShape>,
}

/// An aborted collective awaiting its backed-off relaunch.
struct PendingRetry {
    job: Job,
    aborted_at: SimTime,
}

/// Capped exponential backoff before relaunching aborted work.
pub(crate) fn retry_delay(attempt: u32) -> SimSpan {
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

/// Collective state and its `SimReport` fields: `ina_ops`, `ring_ops`,
/// `ina_fallbacks`, `ina_failovers` and `ina_release_underflows`.
#[derive(Default)]
pub(crate) struct Collectives {
    /// Registered tensor groups by group id, each with its cached plan
    /// shapes. Only looked up, never iterated.
    group_plans: FxHashMap<u64, GroupPlans>,
    /// Plan shapes compiled so far: at most one per group and scheme,
    /// however many all-reduces run.
    pub(crate) plans_compiled: u64,
    live: FxHashMap<u64, CollState>,
    /// Next collective id; retry keys share the id space.
    next_id: u64,
    /// INA sessions held per switch.
    ina_active: FxHashMap<NodeId, usize>,
    ina_waiting: FxHashMap<NodeId, VecDeque<WaitingColl>>,
    retries: FxHashMap<u64, PendingRetry>,
    /// Max concurrent INA jobs per switch.
    capacity: usize,
    /// Instances whose collective just ended, in order, for the engine to
    /// close out.
    pub(crate) finished: VecDeque<usize>,
    ina_ops: u64,
    ring_ops: u64,
    ina_fallbacks: u64,
    ina_failovers: u64,
    /// INA slot releases with no matching acquisition (a lifecycle
    /// accounting bug upstream — e.g. a collective ended twice). The
    /// release is dropped rather than conjuring capacity.
    ina_release_underflows: u64,
}

impl Collectives {
    pub(crate) fn new(capacity: usize) -> Self {
        Collectives {
            capacity,
            ..Collectives::default()
        }
    }

    /// Register tensor group `group_id`'s members; its all-reduces launch
    /// as [`CollOrigin::Group`] under that id.
    pub(crate) fn add_group(&mut self, group_id: u64, members: &[NodeId]) {
        let plans = GroupPlans {
            members: members.into(),
            shapes: Vec::new(),
        };
        self.group_plans.insert(group_id, plans);
    }

    /// Compile and launch `job`. Returns whether it is outstanding (false
    /// when it completed instantly or compiled to nothing). `aborted_at`
    /// marks a post-fault relaunch: a plan that avoids every dead link
    /// counts as a completed reroute.
    pub(crate) fn launch(
        &mut self,
        sh: &mut Shared,
        faults: &mut FaultRecovery,
        job: Job,
        aborted_at: Option<SimTime>,
    ) -> bool {
        let (shape, total, ina_switch, label) = match job.origin {
            CollOrigin::Group { group_id, bytes } => {
                let plans = self
                    .group_plans
                    .get_mut(&group_id)
                    .expect("registered group");
                let group = &plans.members[..];
                let ctx = CommCtx {
                    group_id,
                    group,
                    bytes,
                    now: sh.now,
                };
                let scheme = sh.strategy.choose(&ctx);
                let (scheme, ina_switch) = match scheme.aggregating_switch(&sh.g, group) {
                    Some(switch) => {
                        let failed = sh.health.switch_failed(switch);
                        let held = self.ina_active.get(&switch).copied().unwrap_or(0);
                        if !failed && held < self.capacity {
                            *self.ina_active.entry(switch).or_insert(0) += 1;
                            self.ina_ops += 1;
                            (scheme, Some(switch))
                        } else {
                            let policy = sh.strategy.busy_policy();
                            if !failed && policy == BusyPolicy::Wait {
                                // Queue the shape until the switch frees a
                                // slot; it then starts as a first attempt.
                                let compiled = &mut self.plans_compiled;
                                let shape = plans.shape(&sh.g, &sh.ap, scheme, compiled);
                                self.ina_ops += 1;
                                let job = Job { attempt: 0, ..job };
                                let waiting = WaitingColl { job, shape };
                                self.ina_waiting
                                    .entry(switch)
                                    .or_default()
                                    .push_back(waiting);
                                return true;
                            }
                            // Degrade to a host-side scheme: a failed switch
                            // cannot aggregate at all (a failover; waiting on
                            // it would hang), a busy one is a fallback.
                            if failed {
                                self.ina_failovers += 1;
                            } else {
                                self.ina_fallbacks += 1;
                            }
                            self.ring_ops += 1;
                            sh.tracer.ina_fallback(sh.now, switch.0 as u64, group_id);
                            (policy.fallback(), None)
                        }
                    }
                    None => {
                        self.ring_ops += 1;
                        (scheme, None)
                    }
                };
                let shape = plans.shape(&sh.g, &sh.ap, scheme, &mut self.plans_compiled);
                (shape, bytes, ina_switch, Some(scheme.label()))
            }
            CollOrigin::PipeHops { ref hops, bytes } => {
                // Each hop's route is re-chosen at every launch.
                let mut phases = Vec::new();
                for &(from, to) in hops {
                    let links = sh.route(from, to, bytes);
                    if !links.is_empty() {
                        phases.push(PhaseShape {
                            paths: vec![links],
                            ring: None,
                            post_delay: SimSpan::ZERO,
                        });
                    }
                }
                if phases.is_empty() {
                    return false;
                }
                (Arc::new(PlanShape { phases }), bytes, None, None)
            }
        };
        if let Some(aborted_at) = aborted_at {
            let mut paths = shape.phases_at(total).iter().flat_map(|ph| &ph.paths);
            if paths.all(|path| path.iter().all(|&(l, _)| !sh.health.is_dead(l))) {
                faults.record_reroute(sh, self.next_id, aborted_at);
            }
        }
        self.start(sh, job, shape, ina_switch, label)
    }

    /// Start `shape` at `job`'s payload under a fresh collective id.
    /// Returns whether it is outstanding. `scheme` is the chosen scheme's
    /// label, when known, for the trace.
    fn start(
        &mut self,
        sh: &mut Shared,
        job: Job,
        shape: Arc<PlanShape>,
        ina_switch: Option<NodeId>,
        scheme: Option<&'static str>,
    ) -> bool {
        let coll = self.next_id;
        self.next_id += 1;
        let total = match job.origin {
            CollOrigin::Group { bytes, .. } | CollOrigin::PipeHops { bytes, .. } => bytes,
        };
        if sh.tracer.is_enabled() {
            let (group, bytes) = match &job.origin {
                CollOrigin::Group { group_id, .. } => (*group_id, total),
                CollOrigin::PipeHops { hops, .. } => (job.inst as u64, hops.len() as u64 * total),
            };
            let kind = coll_kind(&job.origin);
            sh.tracer
                .collective_begin(sh.now, coll, group, kind, scheme, bytes);
            if let Some(sw) = ina_switch {
                let active = self.ina_active.get(&sw).copied().unwrap_or(0);
                sh.tracer
                    .ina_session_begin(sh.now, sw.0 as u64, coll, active as u32);
            }
        }
        let mut exec = CollectiveExec::new(shape, total, FlowOwner::Coll(coll).tag());
        let timer = match exec.start(&mut sh.net, sh.now) {
            Progress::Done => {
                sh.tracer
                    .collective_end(sh.now, coll, coll_kind(&job.origin));
                self.release_ina(sh, ina_switch, coll);
                return false;
            }
            Progress::InFlight => None,
            Progress::StartTimer(d) => Some(d),
        };
        let state = CollState {
            exec,
            job,
            ina_switch,
        };
        self.live.insert(coll, state);
        if let Some(d) = timer {
            sh.events.push(sh.now + d, Ev::CollTimer(coll));
        }
        true
    }

    /// Advance collective `coll` on a flow completion (`Some`) or on its
    /// timer (`None`).
    pub(crate) fn step(&mut self, sh: &mut Shared, coll: u64, flow: Option<FlowId>) {
        let Some(state) = self.live.get_mut(&coll) else {
            return;
        };
        let progress = match flow {
            Some(id) => state.exec.on_flow_complete(&mut sh.net, sh.now, id),
            None => state.exec.on_timer(&mut sh.net, sh.now),
        };
        match progress {
            Progress::InFlight => {}
            Progress::StartTimer(d) => sh.events.push(sh.now + d, Ev::CollTimer(coll)),
            Progress::Done => {
                // A fault between the completing network event and this
                // notification may already have torn the collective down
                // (abort path); finishing twice would double-release.
                let Some(state) = self.live.remove(&coll) else {
                    return;
                };
                sh.tracer
                    .collective_end(sh.now, coll, coll_kind(&state.job.origin));
                self.release_ina(sh, state.ina_switch, coll);
                self.finished.push_back(state.job.inst);
            }
        }
    }

    /// Tear down a collective that lost `gone` to a dead link: cancel its
    /// surviving flows, free its INA slot and schedule its relaunch.
    pub(crate) fn abort(&mut self, sh: &mut Shared, coll: u64, gone: &[FlowId]) {
        let Some(mut state) = self.live.remove(&coll) else {
            return;
        };
        sh.tracer.collective_abort(sh.now, coll, gone.len());
        sh.tracer
            .collective_end(sh.now, coll, coll_kind(&state.job.origin));
        state.exec.abort(&mut sh.net, sh.now, gone);
        self.release_ina(sh, state.ina_switch, coll);
        self.schedule_retry(sh, state.job);
    }

    /// Relaunch the collectives queued on a switch that just died, so the
    /// failover branch can degrade them.
    pub(crate) fn requeue(&mut self, sh: &mut Shared, switch: NodeId) {
        for w in self.ina_waiting.remove(&switch).unwrap_or_default() {
            self.schedule_retry(sh, w.job);
        }
    }

    fn schedule_retry(&mut self, sh: &mut Shared, job: Job) {
        let key = self.next_id;
        self.next_id += 1;
        let delay = retry_delay(job.attempt);
        let aborted_at = sh.now;
        self.retries.insert(key, PendingRetry { job, aborted_at });
        sh.events.push(aborted_at + delay, Ev::RetryColl(key));
    }

    /// The backoff of retry `key` expired: relaunch its collective.
    pub(crate) fn retry(&mut self, sh: &mut Shared, faults: &mut FaultRecovery, key: u64) {
        let Some(mut p) = self.retries.remove(&key) else {
            return;
        };
        faults.flow_retries += 1;
        p.job.attempt += 1;
        let inst = p.job.inst;
        if !self.launch(sh, faults, p.job, Some(p.aborted_at)) {
            // The relaunch completed instantly: close out the slot the
            // abort left open.
            self.finished.push_back(inst);
        }
    }

    /// Release `job`'s aggregation slot on `sw` (if any) and admit one
    /// waiting collective.
    pub(crate) fn release_ina(&mut self, sh: &mut Shared, sw: Option<NodeId>, job: u64) {
        let Some(sw) = sw else { return };
        sh.tracer.ina_session_end(sh.now, sw.0 as u64, job);
        // Every release must pair with an acquisition. An unpaired one
        // (e.g. a collective ended twice) must not conjure a slot and
        // silently widen the switch's session capacity: it is dropped,
        // counted, and flagged in debug builds.
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
        let Some(w) = self.ina_waiting.get_mut(&sw).and_then(VecDeque::pop_front) else {
            return;
        };
        *self.ina_active.entry(sw).or_insert(0) += 1;
        let inst = w.job.inst;
        if !self.start(sh, w.job, w.shape, Some(sw), None) {
            // Instantly done (degenerate plan): close it out.
            self.finished.push_back(inst);
        }
    }

    pub(crate) fn report(&self, r: &mut SimReport) {
        r.ina_ops = self.ina_ops;
        r.ring_ops = self.ring_ops;
        r.ina_fallbacks = self.ina_fallbacks;
        r.ina_failovers = self.ina_failovers;
        r.ina_release_underflows = self.ina_release_underflows;
    }
}

/// Tensor groups running all-reduces back to back: the offered load of
/// the aggregation-throughput measurement (Fig. 9).
pub struct AllReduceLoad {
    /// The groups; group `i` launches as group id `i`.
    pub groups: Vec<Vec<NodeId>>,
    /// Payload bytes per all-reduce.
    pub bytes: u64,
    /// Max concurrent INA jobs per switch.
    pub ina_capacity_per_switch: usize,
    /// Bursty background traffic, `(mean flows/s, bytes per flow)`, as
    /// [`ClusterConfig::background`](crate::ClusterConfig::background).
    pub background: (f64, u64),
}

/// What [`run_allreduces`] completed and how its launches ran.
#[derive(Debug)]
pub struct AllReduceCounts {
    /// Completed all-reduces per group, in group order.
    pub ops_per_group: Vec<u64>,
    /// Launches admitted to (or queued for) a switch's INA slot.
    pub ina_ops: u64,
    /// Launches that ran host-side, fallbacks included.
    pub ring_ops: u64,
    /// Launches a busy switch turned to the busy policy's fallback.
    pub ina_fallbacks: u64,
}

/// Period of [`run_allreduces`]' link monitor.
const ALLREDUCE_MONITOR_PERIOD: SimSpan = SimSpan::from_millis(10);

/// Run every group of `load` through the serving engine's collective
/// path until `horizon`: each group relaunches its all-reduce as soon as
/// the last one completes, `strategy` picks the scheme, and the INA slot
/// ledger applies its busy policy. A link monitor feeds the strategy.
///
/// # Panics
/// Panics if a group's all-reduce has no transfers (fewer than two
/// distinct members).
pub fn run_allreduces(
    graph: &Graph,
    ap: AllPairs,
    strategy: Box<dyn CommStrategy>,
    load: &AllReduceLoad,
    horizon: SimTime,
) -> AllReduceCounts {
    let mut sh = Shared::new(graph, ap, strategy, EventQueue::new());
    let mut colls = Collectives::new(load.ina_capacity_per_switch);
    let mut faults = FaultRecovery::default();
    sh.events
        .push(SimTime::ZERO + ALLREDUCE_MONITOR_PERIOD, Ev::MonitorTick);
    let mut bg = Background::start(graph, load.background, &mut sh.events);
    for (gi, group) in load.groups.iter().enumerate() {
        colls.add_group(gi as u64, group);
    }
    let mut launch = |sh: &mut Shared, colls: &mut Collectives, gi: usize| {
        let job = Job {
            inst: gi,
            origin: CollOrigin::Group {
                group_id: gi as u64,
                bytes: load.bytes,
            },
            attempt: 0,
        };
        let launched = colls.launch(sh, &mut faults, job, None);
        assert!(launched, "group {gi}'s all-reduce has no transfers");
    };
    for gi in 0..load.groups.len() {
        launch(&mut sh, &mut colls, gi);
    }
    let mut ops_per_group = vec![0u64; load.groups.len()];
    let mut done = Vec::new();
    loop {
        let tq = sh.events.peek_time();
        let tn = sh.net.next_event_time();
        let Some(t) = [tq, tn].into_iter().flatten().min() else {
            break;
        };
        if t > horizon {
            break;
        }
        sh.now = t;
        sh.net.advance_to(t, &mut done);
        for (id, flow) in done.drain(..) {
            if let Some(FlowOwner::Coll(coll)) = FlowOwner::of(flow.tag) {
                colls.step(&mut sh, coll, Some(id));
            }
        }
        if sh.events.peek_time() == Some(t) {
            match sh.events.pop().expect("peeked event").1 {
                Ev::CollTimer(coll) => colls.step(&mut sh, coll, None),
                Ev::MonitorTick => {
                    sh.observe();
                    let next = sh.now + ALLREDUCE_MONITOR_PERIOD;
                    sh.events.push(next, Ev::MonitorTick);
                }
                Ev::Background => {
                    bg.fire(&mut sh);
                }
                _ => unreachable!("no faults, retries or instances in an all-reduce loop"),
            }
        }
        while let Some(gi) = colls.finished.pop_front() {
            ops_per_group[gi] += 1;
            launch(&mut sh, &mut colls, gi);
        }
    }
    AllReduceCounts {
        ops_per_group,
        ina_ops: colls.ina_ops,
        ring_ops: colls.ring_ops,
        ina_fallbacks: colls.ina_fallbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::{run_allreduces, AllReduceLoad};
    use crate::engine::tests::{build_sim, fixed_scheme, poisson_trace, testbed_sim, tp4};
    use crate::instance::InstanceSpec;
    use crate::strategy::{BusyPolicy, StaticStrategy};
    use hs_collective::Scheme;
    use hs_des::SimTime;
    use hs_topology::builders::testbed;
    use hs_workload::{FaultKind, FaultPlan};

    /// Two groups aggregate at one switch with a single slot, under
    /// background traffic. Waiting
    /// hands the freed slot to the queued group, so neither starves;
    /// falling back runs the loser as a ring. Either way every launch is
    /// counted once: the launches not yet completed are at most one per
    /// group.
    #[test]
    fn allreduce_loop_shares_a_busy_switch() {
        let t = testbed();
        let sw = t.access_switches[0];
        let s = &t.gpus_by_server;
        let groups = vec![vec![s[0][0], s[1][0]], vec![s[2][0], s[3][0]]];
        let load = AllReduceLoad {
            groups,
            bytes: 4 << 20,
            ina_capacity_per_switch: 1,
            background: (20.0, 64 << 20),
        };
        let run = |policy| {
            let strategy = StaticStrategy::uniform("test", Scheme::Ina { switch: sw }, policy);
            let ap = t.gpu_ina_pairs();
            let r = run_allreduces(
                &t.graph,
                ap,
                Box::new(strategy),
                &load,
                SimTime::from_secs(1),
            );
            let ops: u64 = r.ops_per_group.iter().sum();
            let launches = r.ina_ops + r.ring_ops;
            let in_flight = launches
                .checked_sub(ops)
                .expect("more completions than launches");
            assert!(
                in_flight <= 2,
                "{in_flight} launches uncounted or counted twice"
            );
            r
        };
        let wait = run(BusyPolicy::Wait);
        let [a, b] = wait.ops_per_group[..] else {
            unreachable!("two groups")
        };
        assert!(a > 0 && b > 0, "a group starved: {a} vs {b}");
        assert!(a.abs_diff(b) <= 1, "uneven slot sharing: {a} vs {b}");
        assert_eq!(wait.ina_fallbacks, 0);
        assert_eq!(wait.ring_ops, 0);
        let fallback = run(BusyPolicy::FallbackRing);
        assert!(
            fallback.ina_fallbacks > 0,
            "the busy switch never fell back"
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
        sim.colls.ina_active.insert(sw, 1);
        sim.colls.release_ina(&mut sim.sh, Some(sw), 7);
        assert_eq!(sim.colls.ina_active[&sw], 0);
        assert_eq!(sim.colls.ina_release_underflows, 0);
        // Second end of the same job: the slot is already free.
        sim.colls.release_ina(&mut sim.sh, Some(sw), 7);
        assert_eq!(sim.colls.ina_active[&sw], 0, "no slot conjured");
        let mut report = crate::metrics::SimReport::default();
        sim.colls.report(&mut report);
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
        sim.colls.ina_active.insert(sw, 1);
        sim.colls.release_ina(&mut sim.sh, Some(sw), 7);
        sim.colls.release_ina(&mut sim.sh, Some(sw), 7);
    }

    /// A two-stage prefill instance spanning servers 0 and 2: its
    /// stage-boundary hop crosses the stage-1 leader's uplink. The uplink
    /// is throttled so hops stay in the air, then pulsed down; aborted
    /// hops relaunch through the pipeline-hop path and the run drains.
    #[test]
    fn pipeline_hop_survives_link_loss() {
        let run = || {
            let t = testbed();
            let (s0, s2) = (&t.gpus_by_server[0], &t.gpus_by_server[2]);
            let uplink = t
                .graph
                .neighbors(s2[0])
                .iter()
                .find(|(nb, _)| t.access_switches.contains(nb))
                .map(|&(_, l)| l)
                .expect("stage-1 leader has an uplink");
            let throttle = FaultKind::LinkDegrade {
                link: uplink,
                factor: 0.001,
            };
            let mut faults = FaultPlan::none();
            faults.push(SimTime::from_secs(1), throttle);
            for k in 2..=6u64 {
                faults.push(SimTime::from_secs(k), FaultKind::LinkDown { link: uplink });
                faults.push(SimTime::from_millis(k * 1000 + 50), throttle);
            }
            faults.push(SimTime::from_secs(7), FaultKind::LinkUp { link: uplink });
            let prefill = vec![InstanceSpec {
                stages: vec![s0[..2].to_vec(), s2[..2].to_vec()],
            }];
            let trace = poisson_trace(4.0, 8);
            let strategy = fixed_scheme(Scheme::Ring);
            let mut sim = testbed_sim(&t, prefill, tp4(&t, &[1]), faults, &trace, strategy);
            let rep = sim.run(SimTime::from_secs(60));
            for (i, m) in sim.kv_managers().iter().enumerate() {
                assert_eq!(m.reserved(), 0, "instance {i} leaked reservations");
                assert_eq!(m.live(), 0, "instance {i} leaked live tokens");
            }
            rep
        };
        let rep = run();
        assert!(rep.arrived > 10);
        assert_eq!(rep.completed, rep.arrived, "requests stuck after recovery");
        // The all-reduces stay on NVLink, so every relaunch beyond the KV
        // retries is a pipeline hop's.
        assert!(rep.flow_retries > 0, "no aborted work was relaunched");
        assert!(
            rep.flow_retries > rep.kv_retries,
            "no pipeline hop was relaunched ({} retries, {} of them KV)",
            rep.flow_retries,
            rep.kv_retries
        );
        assert_eq!(rep, run(), "runs differ");
    }
}
