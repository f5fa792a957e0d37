//! Phase-structured collective execution over the flow simulator.
//!
//! The cluster simulator runs every all-reduce as real network flows so
//! that concurrent collectives, KV-cache transfers and background traffic
//! contend for bandwidth — the congestion that HeroServe's scheduler is
//! designed to dodge. A collective is compiled once to a [`PlanShape`]
//! (a sequence of [`PhaseShape`]s, each the paths of concurrent
//! transfers, the ring divisor that sizes them and an optional
//! post-phase fixed delay such as the switch aggregation time) and
//! stepped at each launch's payload size by a [`CollectiveExec`] state
//! machine. A shape's paths are the [`AllPairs`] routes themselves,
//! shared with every flow a launch starts on them.

use crate::latency::{by_server, AGG_DELAY};
use hs_des::{SimSpan, SimTime};
use hs_simnet::{FlowId, SimNet};
use hs_topology::{AllPairs, Graph, NodeId, Route};
use std::sync::Arc;

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

    /// The switch this scheme aggregates `group` at, if any: `Ina` with at
    /// least two members, or `HierIna` with at least two per-server
    /// leaders. A hierarchical-INA group that fits in one server
    /// degenerates to NVLink reduce/broadcast and never reaches the switch.
    pub fn aggregating_switch(&self, g: &Graph, group: &[NodeId]) -> Option<NodeId> {
        match *self {
            Scheme::Ina { switch } if group.len() >= 2 => Some(switch),
            Scheme::HierIna { switch } if by_server(g, group).len() >= 2 => Some(switch),
            _ => None,
        }
    }
}

/// One phase of a [`PlanShape`]: the paths of the transfers started
/// together, how they split the payload, and the delay after them.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseShape {
    /// Routes of the transfers, in start order.
    pub paths: Vec<Route>,
    /// Ring length `p` when each transfer carries one `1/p` chunk of the
    /// payload; `None` when each carries the whole payload.
    pub ring: Option<u64>,
    /// Delay after the last transfer completes.
    pub post_delay: SimSpan,
}

impl PhaseShape {
    /// `(route, bytes)` of each transfer in a `total`-byte collective, in
    /// start order. A ring chunk is at least one byte.
    pub fn transfers(&self, total: u64) -> impl Iterator<Item = (&Route, u64)> {
        let bytes = match self.ring {
            Some(p) => (total / p).max(1),
            None => total,
        };
        self.paths.iter().map(move |p| (p, bytes))
    }
}

/// A collective compiled without its payload size: the phases, each
/// transfer's path and each phase's ring divisor. The cluster engine
/// compiles one per `(group, scheme)` and runs every launch of it, at
/// that launch's size, with a [`CollectiveExec`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanShape {
    /// Phases in execution order.
    pub phases: Vec<PhaseShape>,
}

impl PlanShape {
    /// Compile `scheme` for `group`.
    ///
    /// Empty/singleton groups produce an empty shape (nothing to do);
    /// transfers whose path is empty (co-located endpoints) are elided.
    pub fn compile(g: &Graph, ap: &AllPairs, group: &[NodeId], scheme: Scheme) -> Self {
        if group.len() < 2 {
            return PlanShape::default();
        }
        let phases = match scheme {
            Scheme::Ring => Self::ring(ap, group),
            Scheme::Ina { switch } => vec![Self::ina(ap, group, switch)],
            Scheme::HierRing => Self::hierarchical(g, ap, group, None),
            Scheme::HierIna { switch } => Self::hierarchical(g, ap, group, Some(switch)),
        };
        PlanShape { phases }
    }

    /// The phases a `total`-byte collective runs: none when there is
    /// nothing to move.
    pub fn phases_at(&self, total: u64) -> &[PhaseShape] {
        if total == 0 {
            &[]
        } else {
            &self.phases
        }
    }

    fn push_path(phase: &mut PhaseShape, ap: &AllPairs, from: NodeId, to: NodeId) {
        if from == to {
            return;
        }
        let route = &ap.path(from, to).route;
        if !route.is_empty() {
            phase.paths.push(Arc::clone(route));
        }
    }

    fn ring(ap: &AllPairs, group: &[NodeId]) -> Vec<PhaseShape> {
        let p = group.len();
        let mut phase = PhaseShape {
            ring: Some(p as u64),
            ..PhaseShape::default()
        };
        for i in 0..p {
            Self::push_path(&mut phase, ap, group[i], group[(i + 1) % p]);
        }
        vec![phase; 2 * (p - 1)]
    }

    /// Streaming INA (SwitchML's pipelined aggregation): the switch
    /// multicasts aggregated chunks while later chunks are still being
    /// collected, so on full-duplex links the collection (up) and
    /// distribution (down) directions run *concurrently*. One phase with
    /// both directions' flows models this; the single aggregation delay
    /// covers the pipeline fill.
    fn ina(ap: &AllPairs, group: &[NodeId], switch: NodeId) -> PhaseShape {
        let mut phase = PhaseShape {
            post_delay: AGG_DELAY,
            ..PhaseShape::default()
        };
        for &k in group {
            Self::push_path(&mut phase, ap, k, switch);
            Self::push_path(&mut phase, ap, switch, k);
        }
        phase
    }

    /// NVLink-local reduce → inter-server step among leaders → local
    /// broadcast. `switch = None` uses a ring among leaders.
    fn hierarchical(
        g: &Graph,
        ap: &AllPairs,
        group: &[NodeId],
        switch: Option<NodeId>,
    ) -> Vec<PhaseShape> {
        let locals = by_server(g, group);
        let leaders: Vec<NodeId> = locals.iter().map(|(_, ms)| ms[0]).collect();
        let mut phases = Vec::new();

        // Phase 1: members stream to their leader (concurrent across
        // servers; NVLink paths).
        let mut reduce = PhaseShape::default();
        for (_, members) in &locals {
            for &m in &members[1..] {
                Self::push_path(&mut reduce, ap, m, members[0]);
            }
        }
        if !reduce.paths.is_empty() {
            phases.push(reduce);
        }

        // Phase 2: inter-server among leaders.
        if leaders.len() >= 2 {
            match switch {
                Some(sw) => phases.push(Self::ina(ap, &leaders, sw)),
                None => phases.extend(Self::ring(ap, &leaders)),
            }
        }

        // Phase 3: leaders broadcast to members.
        let mut bcast = PhaseShape::default();
        for (_, members) in &locals {
            for &m in &members[1..] {
                Self::push_path(&mut bcast, ap, members[0], m);
            }
        }
        if !bcast.paths.is_empty() {
            phases.push(bcast);
        }
        phases
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

/// State machine stepping a [`PlanShape`] at one payload size on a
/// [`SimNet`].
pub struct CollectiveExec {
    shape: Arc<PlanShape>,
    total: u64,
    phase: usize,
    /// In-flight flows of the current phase (at most two per group
    /// member), unordered.
    outstanding: Vec<FlowId>,
    tag: u64,
}

impl CollectiveExec {
    /// Run `shape` moving `total` bytes; `tag` is attached to every flow
    /// so the driving engine can route completions back here.
    pub fn new(shape: Arc<PlanShape>, total: u64, tag: u64) -> Self {
        CollectiveExec {
            shape,
            total,
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
    /// shapes and empty payloads.
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
        let delay = self.shape.phases[self.phase].post_delay;
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
            let Some(phase) = self.shape.phases_at(self.total).get(self.phase) else {
                return Progress::Done;
            };
            if phase.paths.is_empty() {
                if !phase.post_delay.is_zero() {
                    return Progress::StartTimer(phase.post_delay);
                }
                self.phase += 1;
                continue;
            }
            for (path, bytes) in phase.transfers(self.total) {
                let id = net.start_flow(now, path, bytes, self.tag);
                self.outstanding.push(id);
            }
            return Progress::InFlight;
        }
    }
}

/// Convenience driver: run a single collective to completion on an
/// otherwise idle network and return its duration. Used by tests and by
/// Fig. 2's executed homogeneous-vs-heterogeneous aggregation delays.
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
    let shape = Arc::new(PlanShape::compile(g, ap, group, scheme));
    let mut exec = CollectiveExec::new(shape, total_bytes, u64::MAX);
    let mut now = start;
    let mut progress = exec.start(net, now);
    let mut done = Vec::new();
    loop {
        match progress {
            Progress::Done => return now - start,
            Progress::StartTimer(d) => {
                now += d;
                // Other traffic keeps draining while the switch aggregates.
                net.advance_to(now, &mut done);
                done.clear();
                progress = exec.on_timer(net, now);
            }
            Progress::InFlight => {
                let t = net
                    .next_event_time()
                    .expect("in-flight collective implies pending flows");
                now = t;
                net.advance_to(t, &mut done);
                let mut next = Progress::InFlight;
                for (id, f) in done.drain(..) {
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
        let p = PlanShape::compile(&m.graph, &ap, &m.gpus[..1], Scheme::Ring);
        assert!(p.phases_at(1 << 20).is_empty());
        let p = PlanShape::compile(&m.graph, &ap, &m.gpus, Scheme::Ring);
        assert!(p.phases_at(0).is_empty());
        let d = run_isolated(&m.graph, &ap, &m.gpus[..1], Scheme::Ring, 1 << 20);
        assert!(d.is_zero());
    }

    #[test]
    fn ring_plan_shape() {
        let (m, ap) = setup();
        let p = PlanShape::compile(&m.graph, &ap, &m.gpus, Scheme::Ring);
        let phases = p.phases_at(3_000_000);
        assert_eq!(phases.len(), 4); // 2(P-1)
        for ph in phases {
            assert_eq!(ph.transfers(3_000_000).count(), 3);
            assert!(ph.post_delay.is_zero());
            for (_, b) in ph.transfers(3_000_000) {
                assert_eq!(b, 1_000_000);
            }
        }
    }

    #[test]
    fn ina_plan_shape() {
        let (m, ap) = setup();
        let p = PlanShape::compile(&m.graph, &ap, &m.gpus, Scheme::Ina { switch: m.core });
        // Streaming INA: one overlapped phase with up + down flows.
        let phases = p.phases_at(1 << 20);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].transfers(1 << 20).count(), 6);
        assert_eq!(phases[0].post_delay, AGG_DELAY);
    }

    #[test]
    fn hierarchical_moves_bytes_off_ethernet() {
        let (m, ap) = setup();
        let flat = PlanShape::compile(&m.graph, &ap, &m.gpus, Scheme::Ina { switch: m.core });
        let hier = PlanShape::compile(&m.graph, &ap, &m.gpus, Scheme::HierIna { switch: m.access });
        // Count Ethernet-link bytes only.
        let eth_bytes = |p: &PlanShape| -> u64 {
            let total = 1 << 20;
            p.phases_at(total)
                .iter()
                .flat_map(|ph| ph.transfers(total))
                .map(|(route, b)| {
                    route
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
        net.start_flow(SimTime::ZERO, &ap.path(m.access, m.core).route, 1 << 30, 0);
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
        let shape = PlanShape::compile(&m.graph, &ap, &m.gpus, Scheme::Ring);
        let mut exec = CollectiveExec::new(Arc::new(shape), 1 << 20, 9);
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

#[cfg(test)]
mod proptests {
    use super::*;
    use hs_topology::builders::{fig2_micro, testbed, xtracks, XTracksConfig};
    use hs_topology::LinkWeight;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// A fabric with its routes, GPUs and aggregation switches.
    struct Fabric {
        g: Graph,
        ap: AllPairs,
        gpus: Vec<NodeId>,
        switches: Vec<NodeId>,
    }

    /// `testbed`, `fig2_micro` and two-track `xtracks`, built once.
    fn fabrics() -> &'static [Fabric] {
        static FABRICS: OnceLock<Vec<Fabric>> = OnceLock::new();
        FABRICS.get_or_init(|| {
            let built = |t: hs_topology::builders::BuiltTopology| Fabric {
                ap: t.gpu_ina_pairs(),
                gpus: t.all_gpus(),
                switches: t.access_switches.clone(),
                g: t.graph,
            };
            let m = fig2_micro();
            let mut nodes = m.gpus.to_vec();
            nodes.extend([m.access, m.core]);
            let micro = Fabric {
                ap: AllPairs::compute(&m.graph, &nodes, LinkWeight::Latency, None),
                gpus: m.gpus.to_vec(),
                switches: vec![m.access, m.core],
                g: m.graph,
            };
            vec![
                built(testbed()),
                micro,
                built(xtracks(&XTracksConfig::two_tracks(2))),
            ]
        })
    }

    proptest! {
        /// What a launch runs at `total`: no phase at all for an empty
        /// payload, and otherwise at least one byte on every transfer, a
        /// ring phase's transfers each carrying `(total / p).max(1)`.
        #[test]
        fn shape_at_total_moves_bytes_on_every_transfer(
            fabric in 0usize..3,
            picks in proptest::collection::vec(0usize..1 << 16, 1..=9),
            scheme in 0usize..4,
            switch in 0usize..1 << 16,
            (which, random) in (0usize..6, 0u64..1 << 40),
        ) {
            let f = &fabrics()[fabric];
            let mut group = Vec::new();
            for &i in &picks {
                let gpu = f.gpus[i % f.gpus.len()];
                if !group.contains(&gpu) {
                    group.push(gpu);
                }
            }
            let switch = f.switches[switch % f.switches.len()];
            let scheme = [
                Scheme::Ring,
                Scheme::Ina { switch },
                Scheme::HierRing,
                Scheme::HierIna { switch },
            ][scheme];
            let p = group.len() as u64;
            let total = [0, 1, p - 1, p, 1 << 20, random][which];
            let shape = PlanShape::compile(&f.g, &f.ap, &group, scheme);
            let phases = shape.phases_at(total);
            if total == 0 {
                prop_assert!(phases.is_empty(), "{scheme:?} on {group:?} runs at 0 B");
            }
            for ph in phases {
                for (route, bytes) in ph.transfers(total) {
                    prop_assert!(!route.is_empty());
                    prop_assert!(bytes >= 1, "{scheme:?} on {group:?} sends 0 B at {total} B");
                    let want = match ph.ring {
                        // A ring of `q` members: one transfer per member,
                        // each a `1/q` chunk.
                        Some(q) => {
                            prop_assert_eq!(q, ph.paths.len() as u64);
                            (total / q).max(1)
                        }
                        None => total,
                    };
                    prop_assert_eq!(bytes, want, "{scheme:?} on {group:?} at {total} B");
                }
            }
        }
    }
}
