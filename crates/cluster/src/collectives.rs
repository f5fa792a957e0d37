//! Collectives: the live tensor-group all-reduces and pipeline-stage
//! hops, the per-switch INA slot ledger with its wait queues, and the
//! backed-off relaunch of collectives a fault aborted.

use crate::engine::{Ev, Shared, TAG_COLL};
use crate::faults::FaultRecovery;
use crate::metrics::SimReport;
use crate::strategy::{BusyPolicy, CommCtx};
use hs_collective::{CollectiveExec, CollectivePlan, Phase, Progress, Scheme};
use hs_des::{SimSpan, SimTime};
use hs_simnet::FlowId;
use hs_topology::NodeId;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// What a collective was compiled from — enough to recompile and relaunch
/// it if a fault aborts its flows mid-run.
#[derive(Clone)]
pub(crate) enum CollOrigin {
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

/// A compiled INA collective queued for a slot on a busy switch.
struct WaitingColl {
    job: Job,
    plan: CollectivePlan,
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
        let (plan, ina_switch, label) = match job.origin {
            CollOrigin::Group {
                group_id,
                ref group,
                bytes,
            } => {
                let ctx = CommCtx {
                    group_id,
                    group,
                    bytes,
                    now: sh.now,
                    link_util: &sh.util,
                };
                let scheme = sh.strategy.choose(&ctx);
                // A hierarchical-INA scheme whose group fits in one server
                // never reaches the switch — it degenerates to NVLink
                // reduce/broadcast and must not consume switch capacity.
                let in_network = match scheme {
                    Scheme::Ina { .. } => group.len() >= 2,
                    Scheme::HierIna { .. } => {
                        hs_collective::latency::leaders(&sh.g, group).len() >= 2
                    }
                    _ => false,
                };
                let (scheme, ina_switch) = match scheme {
                    Scheme::Ina { switch } | Scheme::HierIna { switch } if in_network => {
                        let failed = faults.failed_switches.contains(&switch);
                        let held = self.ina_active.get(&switch).copied().unwrap_or(0);
                        if !failed && held < self.capacity {
                            *self.ina_active.entry(switch).or_insert(0) += 1;
                            self.ina_ops += 1;
                            (scheme, Some(switch))
                        } else {
                            let policy = sh.strategy.busy_policy();
                            if !failed && policy == BusyPolicy::Wait {
                                // Queue the compiled plan until the switch
                                // frees a slot; it then starts as a first
                                // attempt.
                                let plan =
                                    CollectivePlan::compile(&sh.g, &sh.ap, group, scheme, bytes);
                                self.ina_ops += 1;
                                let job = Job { attempt: 0, ..job };
                                let waiting = WaitingColl { job, plan };
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
                            match policy {
                                BusyPolicy::FallbackHierRing => (Scheme::HierRing, None),
                                BusyPolicy::FallbackRing | BusyPolicy::Wait => (Scheme::Ring, None),
                            }
                        }
                    }
                    other => {
                        self.ring_ops += 1;
                        (other, None)
                    }
                };
                let plan = CollectivePlan::compile(&sh.g, &sh.ap, group, scheme, bytes);
                (plan, ina_switch, Some(scheme.label()))
            }
            CollOrigin::PipeHops { ref hops } => {
                // Each hop's route is re-chosen at every launch.
                let mut phases = Vec::new();
                for &(from, to, hop_bytes) in hops {
                    let links = sh.route(from, to, hop_bytes);
                    if !links.is_empty() {
                        phases.push(Phase {
                            transfers: vec![(links, hop_bytes)],
                            post_delay: SimSpan::ZERO,
                        });
                    }
                }
                if phases.is_empty() {
                    return false;
                }
                (CollectivePlan { phases }, None, None)
            }
        };
        if let Some(aborted_at) = aborted_at {
            let alive =
                |path: &[hs_simnet::DirLink]| path.iter().all(|&(l, _)| sh.net.link_scale(l) > 0.0);
            if plan
                .phases
                .iter()
                .all(|ph| ph.transfers.iter().all(|(path, _)| alive(path)))
            {
                faults.record_reroute(sh, self.next_id, aborted_at);
            }
        }
        self.start(sh, job, plan, ina_switch, label)
    }

    /// Start a compiled plan under a fresh collective id. Returns whether
    /// it is outstanding. `scheme` is the chosen scheme's label, when
    /// known, for the trace.
    fn start(
        &mut self,
        sh: &mut Shared,
        job: Job,
        plan: CollectivePlan,
        ina_switch: Option<NodeId>,
        scheme: Option<&'static str>,
    ) -> bool {
        let coll = self.next_id;
        self.next_id += 1;
        if sh.tracer.is_enabled() {
            let (group, bytes) = match &job.origin {
                CollOrigin::Group {
                    group_id, bytes, ..
                } => (*group_id, *bytes),
                CollOrigin::PipeHops { hops } => {
                    (job.inst as u64, hops.iter().map(|&(_, _, b)| b).sum())
                }
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
        sh.metrics.inc(sh.obs.colls, 1);
        let mut exec = CollectiveExec::new(plan, TAG_COLL | coll);
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
        sh.metrics.inc(sh.obs.coll_aborts, 1);
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
        if !self.start(sh, w.job, w.plan, Some(sw), None) {
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

#[cfg(test)]
mod tests {
    use crate::engine::tests::{build_sim, fixed_scheme, poisson_trace, testbed_sim, tp4};
    use crate::instance::InstanceSpec;
    use hs_collective::Scheme;
    use hs_des::SimTime;
    use hs_topology::builders::testbed;
    use hs_workload::{FaultKind, FaultPlan};

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
