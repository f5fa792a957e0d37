//! Phase-structured collective execution over the flow simulator.
//!
//! The cluster simulator runs every all-reduce as real network flows so
//! that concurrent collectives, KV-cache transfers and background traffic
//! contend for bandwidth — the congestion that HeroServe's scheduler is
//! designed to dodge. A collective is compiled to a [`CollectivePlan`]
//! (a sequence of [`Phase`]s, each a set of concurrent transfers plus an
//! optional post-phase fixed delay such as the switch aggregation time)
//! and stepped by a [`CollectiveExec`] state machine.

use crate::latency::{by_server, AGG_DELAY};
use hs_des::{SimSpan, SimTime};
use hs_simnet::{DirLink, FlowId, SimNet};
use hs_topology::{AllPairs, Graph, NodeId};

/// Which all-reduce scheme to compile (the planner's `α`/`β` selection
/// plus HeroServe's heterogeneous variants).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Flat ring all-reduce over the group order.
    Ring,
    /// Flat INA: everyone collects to / distributes from `switch`.
    Ina {
        /// Aggregation switch.
        switch: NodeId,
    },
    /// NVLink-local reduce, ring among per-server leaders, local
    /// broadcast.
    HierRing,
    /// NVLink-local reduce, INA among per-server leaders at `switch`,
    /// local broadcast (HeroServe's heterogeneous INA).
    HierIna {
        /// Aggregation switch.
        switch: NodeId,
    },
}

impl Scheme {
    /// Static scheme name (switch-agnostic), for traces and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Ring => "Ring",
            Scheme::Ina { .. } => "Ina",
            Scheme::HierRing => "HierRing",
            Scheme::HierIna { .. } => "HierIna",
        }
    }
}

/// One phase: transfers that run concurrently, then an optional fixed
/// delay before the next phase (e.g. switch aggregation).
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// `(directed path, bytes)` transfers started together.
    pub transfers: Vec<(Vec<DirLink>, u64)>,
    /// Delay after the last transfer completes.
    pub post_delay: SimSpan,
}

/// A compiled collective: ordered phases.
#[derive(Clone, Debug, Default)]
pub struct CollectivePlan {
    /// Phases in execution order.
    pub phases: Vec<Phase>,
}

impl CollectivePlan {
    /// Compile `scheme` for `group` moving `total_bytes` of
    /// synchronization data (the full vector size `D`).
    ///
    /// Empty/singleton groups produce an empty plan (nothing to do);
    /// transfers whose path is empty (co-located endpoints) are elided.
    pub fn compile(
        g: &Graph,
        ap: &AllPairs,
        group: &[NodeId],
        scheme: Scheme,
        total_bytes: u64,
    ) -> Self {
        if group.len() < 2 || total_bytes == 0 {
            return CollectivePlan::default();
        }
        match scheme {
            Scheme::Ring => Self::ring(g, ap, group, total_bytes),
            Scheme::Ina { switch } => Self::ina(g, ap, group, switch, total_bytes),
            Scheme::HierRing => Self::hierarchical(g, ap, group, None, total_bytes),
            Scheme::HierIna { switch } => {
                Self::hierarchical(g, ap, group, Some(switch), total_bytes)
            }
        }
    }

    fn push_transfer(
        phase: &mut Phase,
        g: &Graph,
        ap: &AllPairs,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) {
        if from == to || bytes == 0 {
            return;
        }
        let path = ap.path(from, to);
        if path.links.is_empty() {
            return;
        }
        phase.transfers.push((path.directed_links(g), bytes));
    }

    fn ring(g: &Graph, ap: &AllPairs, group: &[NodeId], total_bytes: u64) -> Self {
        let p = group.len();
        let chunk = (total_bytes / p as u64).max(1);
        let steps = 2 * (p - 1);
        let mut phases = Vec::with_capacity(steps);
        for _ in 0..steps {
            let mut phase = Phase::default();
            for i in 0..p {
                Self::push_transfer(&mut phase, g, ap, group[i], group[(i + 1) % p], chunk);
            }
            phases.push(phase);
        }
        CollectivePlan { phases }
    }

    /// Streaming INA (SwitchML's pipelined aggregation): the switch
    /// multicasts aggregated chunks while later chunks are still being
    /// collected, so on full-duplex links the collection (up) and
    /// distribution (down) directions run *concurrently*. One phase with
    /// both directions' flows models this; the single aggregation delay
    /// covers the pipeline fill.
    fn ina(g: &Graph, ap: &AllPairs, group: &[NodeId], switch: NodeId, bytes: u64) -> Self {
        let mut phase = Phase {
            transfers: vec![],
            post_delay: AGG_DELAY,
        };
        for &k in group {
            Self::push_transfer(&mut phase, g, ap, k, switch, bytes);
            Self::push_transfer(&mut phase, g, ap, switch, k, bytes);
        }
        CollectivePlan {
            phases: vec![phase],
        }
    }

    /// NVLink-local reduce → inter-server step among leaders → local
    /// broadcast. `switch = None` uses a ring among leaders.
    fn hierarchical(
        g: &Graph,
        ap: &AllPairs,
        group: &[NodeId],
        switch: Option<NodeId>,
        bytes: u64,
    ) -> Self {
        let locals = by_server(g, group);
        let leaders: Vec<NodeId> = locals.iter().map(|(_, ms)| ms[0]).collect();
        let mut phases = Vec::new();

        // Phase 1: members stream to their leader (concurrent across
        // servers; NVLink paths).
        let mut reduce = Phase::default();
        for (_, members) in &locals {
            for &m in &members[1..] {
                Self::push_transfer(&mut reduce, g, ap, m, members[0], bytes);
            }
        }
        if !reduce.transfers.is_empty() {
            phases.push(reduce);
        }

        // Phase 2: inter-server among leaders.
        if leaders.len() >= 2 {
            let inter = match switch {
                Some(sw) => Self::ina(g, ap, &leaders, sw, bytes).phases,
                None => Self::ring(g, ap, &leaders, bytes).phases,
            };
            phases.extend(inter);
        }

        // Phase 3: leaders broadcast to members.
        let mut bcast = Phase::default();
        for (_, members) in &locals {
            for &m in &members[1..] {
                Self::push_transfer(&mut bcast, g, ap, members[0], m, bytes);
            }
        }
        if !bcast.transfers.is_empty() {
            phases.push(bcast);
        }
        CollectivePlan { phases }
    }
}

/// Execution progress of a collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Progress {
    /// Flows are in flight; wait for their completions.
    InFlight,
    /// All flows of the phase completed; the caller must schedule a timer
    /// for the given span and then call [`CollectiveExec::on_timer`].
    StartTimer(SimSpan),
    /// The collective is complete.
    Done,
}

/// State machine stepping a [`CollectivePlan`] on a [`SimNet`].
pub struct CollectiveExec {
    plan: CollectivePlan,
    phase: usize,
    /// In-flight flows of the current phase (at most two per group
    /// member), unordered.
    outstanding: Vec<FlowId>,
    tag: u64,
}

impl CollectiveExec {
    /// Wrap a compiled plan; `tag` is attached to every flow so the
    /// driving engine can route completions back here.
    pub fn new(plan: CollectivePlan, tag: u64) -> Self {
        CollectiveExec {
            plan,
            phase: 0,
            outstanding: Vec::new(),
            tag,
        }
    }

    /// The tag flows carry.
    pub fn tag(&self) -> u64 {
        self.tag
    }

    /// Begin execution at `now`. May return `Done` immediately for empty
    /// plans.
    pub fn start(&mut self, net: &mut SimNet, now: SimTime) -> Progress {
        self.enter_phase(net, now)
    }

    /// Notify that one of this collective's flows completed.
    ///
    /// # Panics
    /// Panics if `id` is not one of this collective's outstanding flows —
    /// the engine's demux must be exact.
    pub fn on_flow_complete(&mut self, net: &mut SimNet, now: SimTime, id: FlowId) -> Progress {
        let Some(i) = self.outstanding.iter().position(|&x| x == id) else {
            panic!("flow {id:?} does not belong to collective {}", self.tag);
        };
        self.outstanding.swap_remove(i);
        if !self.outstanding.is_empty() {
            return Progress::InFlight;
        }
        // Phase complete.
        let delay = self.plan.phases[self.phase].post_delay;
        if !delay.is_zero() {
            return Progress::StartTimer(delay);
        }
        self.phase += 1;
        self.enter_phase(net, now)
    }

    /// Abort the collective: cancel every still-outstanding flow (a fault
    /// already removed some from the network — those are passed in
    /// `already_gone`) and clear the in-flight set, so the engine can
    /// recompile and retry over surviving links. Returns how many flows
    /// were cancelled here.
    pub fn abort(&mut self, net: &mut SimNet, now: SimTime, already_gone: &[FlowId]) -> usize {
        // Cancel in ascending flow-id order: completions reorder the
        // in-flight list, and cancellation order reaches the tracer stream.
        let mut ids = std::mem::take(&mut self.outstanding);
        ids.sort_unstable();
        let mut cancelled = 0;
        for id in ids {
            if !already_gone.contains(&id) && net.cancel_flow(now, id).is_some() {
                cancelled += 1;
            }
        }
        cancelled
    }

    /// Notify that a previously requested post-phase timer elapsed.
    pub fn on_timer(&mut self, net: &mut SimNet, now: SimTime) -> Progress {
        debug_assert!(self.outstanding.is_empty());
        self.phase += 1;
        self.enter_phase(net, now)
    }

    fn enter_phase(&mut self, net: &mut SimNet, now: SimTime) -> Progress {
        loop {
            let Some(phase) = self.plan.phases.get(self.phase) else {
                return Progress::Done;
            };
            if phase.transfers.is_empty() {
                if !phase.post_delay.is_zero() {
                    return Progress::StartTimer(phase.post_delay);
                }
                self.phase += 1;
                continue;
            }
            for (path, bytes) in &phase.transfers {
                let id = net.start_flow(now, path, *bytes, self.tag);
                self.outstanding.push(id);
            }
            return Progress::InFlight;
        }
    }
}

/// Convenience driver: run a single collective to completion on an
/// otherwise idle network and return its duration. Used by tests and by
/// the aggregation-throughput experiment (Fig. 9's measurement loop).
pub fn run_isolated(
    g: &Graph,
    ap: &AllPairs,
    group: &[NodeId],
    scheme: Scheme,
    total_bytes: u64,
) -> SimSpan {
    let mut net = SimNet::new(g);
    run_on(&mut net, SimTime::ZERO, g, ap, group, scheme, total_bytes)
}

/// Run a single collective to completion on an existing network (which
/// may carry other traffic that keeps flowing meanwhile). Returns the
/// collective's duration from `start`.
pub fn run_on(
    net: &mut SimNet,
    start: SimTime,
    g: &Graph,
    ap: &AllPairs,
    group: &[NodeId],
    scheme: Scheme,
    total_bytes: u64,
) -> SimSpan {
    let plan = CollectivePlan::compile(g, ap, group, scheme, total_bytes);
    let mut exec = CollectiveExec::new(plan, u64::MAX);
    let mut now = start;
    let mut progress = exec.start(net, now);
    loop {
        match progress {
            Progress::Done => return now - start,
            Progress::StartTimer(d) => {
                now += d;
                // Other traffic keeps draining while the switch aggregates.
                for _ in net.advance_to(now) {}
                progress = exec.on_timer(net, now);
            }
            Progress::InFlight => {
                let t = net
                    .next_event_time()
                    .expect("in-flight collective implies pending flows");
                now = t;
                let done = net.advance_to(t);
                let mut next = Progress::InFlight;
                for (id, f) in done {
                    if f.tag == exec.tag() {
                        next = exec.on_flow_complete(net, now, id);
                    }
                }
                progress = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{hierarchical_ina_latency, ina_latency, ring_latency};
    use hs_topology::builders::fig2_micro;
    use hs_topology::LinkWeight;

    fn setup() -> (hs_topology::builders::Fig2Micro, AllPairs) {
        let m = fig2_micro();
        let mut nodes = m.gpus.to_vec();
        nodes.push(m.access);
        nodes.push(m.core);
        let ap = AllPairs::compute(&m.graph, &nodes, LinkWeight::Latency, None);
        (m, ap)
    }

    #[test]
    fn empty_and_singleton_plans_are_noops() {
        let (m, ap) = setup();
        let p = CollectivePlan::compile(&m.graph, &ap, &m.gpus[..1], Scheme::Ring, 1 << 20);
        assert!(p.phases.is_empty());
        let p = CollectivePlan::compile(&m.graph, &ap, &m.gpus, Scheme::Ring, 0);
        assert!(p.phases.is_empty());
        let d = run_isolated(&m.graph, &ap, &m.gpus[..1], Scheme::Ring, 1 << 20);
        assert!(d.is_zero());
    }

    #[test]
    fn ring_plan_shape() {
        let (m, ap) = setup();
        let p = CollectivePlan::compile(&m.graph, &ap, &m.gpus, Scheme::Ring, 3_000_000);
        assert_eq!(p.phases.len(), 4); // 2(P-1)
        for ph in &p.phases {
            assert_eq!(ph.transfers.len(), 3);
            assert!(ph.post_delay.is_zero());
            for (_, b) in &ph.transfers {
                assert_eq!(*b, 1_000_000);
            }
        }
    }

    #[test]
    fn ina_plan_shape() {
        let (m, ap) = setup();
        let p = CollectivePlan::compile(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::Ina { switch: m.core },
            1 << 20,
        );
        // Streaming INA: one overlapped phase with up + down flows.
        assert_eq!(p.phases.len(), 1);
        assert_eq!(p.phases[0].transfers.len(), 6);
        assert_eq!(p.phases[0].post_delay, AGG_DELAY);
    }

    #[test]
    fn hierarchical_moves_bytes_off_ethernet() {
        let (m, ap) = setup();
        let flat = CollectivePlan::compile(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::Ina { switch: m.core },
            1 << 20,
        );
        let hier = CollectivePlan::compile(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::HierIna { switch: m.access },
            1 << 20,
        );
        // Count Ethernet-link bytes only.
        let eth_bytes = |p: &CollectivePlan| -> u64 {
            p.phases
                .iter()
                .flat_map(|ph| ph.transfers.iter())
                .map(|(links, b)| {
                    links
                        .iter()
                        .filter(|&&(l, _)| m.graph.link(l).kind == hs_topology::LinkKind::Ethernet)
                        .count() as u64
                        * b
                })
                .sum()
        };
        assert!(
            eth_bytes(&hier) < eth_bytes(&flat) / 2,
            "hier {} vs flat {}",
            eth_bytes(&hier),
            eth_bytes(&flat)
        );
    }

    #[test]
    fn executed_ina_matches_closed_form() {
        let (m, ap) = setup();
        let bytes = 1 << 20;
        let measured = run_isolated(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::Ina { switch: m.core },
            bytes,
        )
        .as_secs_f64();
        let predicted = ina_latency(&m.graph, &m.gpus, m.core, &ap, bytes, None);
        // The closed form is store-and-forward per hop (the paper's
        // Eq. 8-10 arithmetic); the flow simulation is cut-through and
        // full duplex, so it may run faster on multi-hop paths and
        // slower under trunk sharing. Bound it both ways.
        assert!(measured >= predicted * 0.3, "{measured} << {predicted}");
        assert!(measured <= predicted * 2.2, "{measured} >> {predicted}");
    }

    #[test]
    fn executed_ring_matches_closed_form() {
        let (m, ap) = setup();
        let bytes = 3 << 20;
        let measured = run_isolated(&m.graph, &ap, &m.gpus, Scheme::Ring, bytes).as_secs_f64();
        let predicted = ring_latency(&m.graph, &m.gpus, &ap, bytes, None);
        // Same rationale as the INA check: cut-through vs
        // store-and-forward bounds.
        assert!(measured >= predicted * 0.3, "{measured} << {predicted}");
        assert!(measured <= predicted * 2.2, "{measured} vs {predicted}");
    }

    #[test]
    fn executed_hierarchical_beats_homogeneous() {
        let (m, ap) = setup();
        let bytes = 1 << 20;
        let homo = run_isolated(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::Ina { switch: m.core },
            bytes,
        );
        let hetero = run_isolated(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::HierIna { switch: m.access },
            bytes,
        );
        assert!(
            hetero.as_secs_f64() < 0.75 * homo.as_secs_f64(),
            "hetero {hetero} vs homo {homo}"
        );
        let predicted = hierarchical_ina_latency(&m.graph, &m.gpus, m.access, &ap, bytes, None);
        assert!(hetero.as_secs_f64() >= predicted * 0.99);
    }

    #[test]
    fn concurrent_collectives_contend() {
        let (m, ap) = setup();
        let bytes = 4 << 20;
        // Run one collective alone, then two of the same concurrently.
        let alone = run_isolated(
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::Ina { switch: m.core },
            bytes,
        );
        let mut net = SimNet::new(&m.graph);
        // Background: a bulk flow on the S2->S1 trunk, the bottleneck the
        // collection phase already shares between GN1 and GN2.
        let bg_path = ap.path(m.access, m.core).directed_links(&m.graph);
        net.start_flow(SimTime::ZERO, &bg_path, 1 << 30, 0);
        let contended = run_on(
            &mut net,
            SimTime::ZERO,
            &m.graph,
            &ap,
            &m.gpus,
            Scheme::Ina { switch: m.core },
            bytes,
        );
        assert!(
            contended.as_secs_f64() > 1.3 * alone.as_secs_f64(),
            "contended {contended} vs alone {alone}"
        );
    }

    /// A completion the collective does not own is a demux bug and
    /// panics; an abort cancels the rest in ascending id order.
    #[test]
    #[should_panic(expected = "does not belong to collective 9")]
    fn foreign_completion_panics() {
        let (m, ap) = setup();
        let mut net = SimNet::new(&m.graph);
        let plan = CollectivePlan::compile(&m.graph, &ap, &m.gpus, Scheme::Ring, 1 << 20);
        let mut exec = CollectiveExec::new(plan, 9);
        assert_eq!(exec.start(&mut net, SimTime::ZERO), Progress::InFlight);
        let first = exec.outstanding[0];
        let last = *exec.outstanding.last().unwrap();
        exec.on_flow_complete(&mut net, SimTime::ZERO, first);
        assert_eq!(exec.outstanding[0], last, "swap-removed");
        let n = exec.outstanding.len();
        assert_eq!(exec.abort(&mut net, SimTime::ZERO, &[]), n);
        assert_eq!(
            net.active_flow_count(),
            1,
            "only the flow reported done is left"
        );
        exec.on_flow_complete(&mut net, SimTime::ZERO, first);
    }
}
