//! The flow-level network simulator.
//!
//! [`SimNet`] tracks a set of active [`Flow`]s, allocates link bandwidth
//! among them max-min fairly, and advances flow progress in lock-step with
//! an external clock. It is an *event source*: a parent simulation asks
//! [`SimNet::next_event_time`] when the earliest flow will finish, advances
//! its own clock, then calls [`SimNet::advance_to`] to collect completions.
//!
//! A flow's completion time is `max(serialization finish, start +
//! path propagation delay)`; serialization progress accrues at the flow's
//! current fair-share rate, which changes whenever flows start or finish.
//!
//! # Incremental two-tier fair-share engine
//!
//! Rate maintenance is *incremental* (see DESIGN.md §9 and §12). The
//! simulator owns a persistent [`SolverWorkspace`] plus a link→flow
//! incidence table, so a flow add/remove triggers a **component-scoped**
//! re-solve: only the flows transitively sharing a link with the changed
//! flow are re-rated (max-min allocations decompose across connected
//! components of the flow/link graph, so untouched components keep their
//! exact rates). [`SimNet::set_link_scale`] is scoped the same way — a
//! capacity change can only move bottlenecks within the scaled link's
//! component. Each scoped solve first tries the **aggregate tier**
//! ([`OneRoundSolver`]): a component constrained by a single bottleneck
//! link is settled in one round, bitwise-identical to the exact solver,
//! and only a component where a second link saturates hands off to the
//! full water-filling loop.
//!
//! Flow progress is accrued **lazily at touch points**: a flow's
//! `remaining_bytes` is materialized only when its rate *value* changes
//! (or it is cancelled/aborted/completed) — points that are identical in
//! every [`SolveMode`], which is what keeps all modes bit-identical.
//! Byte-counter queries ([`SimNet::cumulative_bytes_dir`],
//! [`SimNet::flow_remaining`]) are pure: they add the pending in-flight
//! contribution without mutating state. Completion lookup uses a
//! lazily-invalidated min-heap of `(finish, flow, epoch)` entries, making
//! [`SimNet::next_event_time`] and [`SimNet::advance_to`] `O(log n)` per
//! event with *no* per-event scan over unrelated flows.
//! `tests/equivalence.rs` drives arbitrary event sequences through every
//! mode and an independent from-scratch reference and asserts identical
//! rates, completions, and cumulative link bytes.

use crate::fairshare::{FlowSpan, OneRoundSolver, SolverWorkspace};
use hs_des::{SimSpan, SimTime};
use hs_topology::{Graph, LinkId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One directed hop: the link and whether it is traversed `a -> b`
/// (links are full duplex; each direction is its own capacity pool).
pub type DirLink = (LinkId, bool);

/// Dense slot index of a directed link.
#[inline]
fn slot(d: DirLink) -> usize {
    d.0.idx() * 2 + d.1 as usize
}

/// Identifier of an active (or completed) flow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// An active transfer.
#[derive(Clone, Debug)]
pub struct Flow {
    /// Directed hops the flow traverses (loopless).
    pub path: Vec<DirLink>,
    /// Bytes still to serialize *as of the last materialization point*
    /// (rate change, cancel, or completion). For the live value at the
    /// current clock use [`SimNet::flow_remaining`]; flows returned by
    /// cancel/abort/complete are materialized before they are handed out.
    pub remaining_bytes: f64,
    /// Total size at start (for reporting).
    pub size_bytes: u64,
    /// Current allocated rate, bits/s (∞ for empty paths).
    pub rate_bps: f64,
    /// Relative fair-share weight.
    pub weight: f64,
    /// Start time.
    pub started: SimTime,
    /// Total propagation delay along the path.
    pub prop: SimSpan,
    /// Completion cannot occur before this; once the flow drains, holds
    /// drain time + propagation (the last bit's arrival).
    pub earliest_finish: SimTime,
    /// Caller-supplied tag for demultiplexing completions.
    pub tag: u64,
    /// Canonical completion estimate: fixed at each rate assignment (or
    /// drain), never recomputed in between, so heap keys stay exact.
    /// `SimTime::MAX` while starved (rate 0).
    finish_at: SimTime,
    /// Progress is accrued up to this instant; the window
    /// `(touched, clock]` is pending at `rate_bps` (lazy accrual).
    touched: SimTime,
    /// Validity epoch of this flow's newest heap entry; entries carrying
    /// an older epoch are stale and discarded when they surface.
    epoch: u64,
    /// Visit stamp for the component BFS (scoped re-solves).
    seen: u64,
}

impl Flow {
    /// The flow's current completion estimate (`SimTime::MAX` while it is
    /// starved by a dead link).
    pub fn finish_at(&self) -> SimTime {
        self.finish_at
    }
}

/// Min-heap entry: `(finish estimate, flow, epoch)`. The epoch tiebreak
/// keeps pop order fully deterministic even among stale duplicates.
type HeapEntry = Reverse<(SimTime, FlowId, u64)>;

/// Accrue `f`'s progress over `(f.touched, clock]` at its current rate.
///
/// This is THE materialization point of the lazy-accrual contract: it runs
/// only when the flow's rate value is about to change, or the flow is
/// cancelled/aborted/completed — events that occur at identical instants
/// in every [`SolveMode`] (rates are bitwise equal across modes), so every
/// mode performs the identical float operations.
fn materialize(
    f: &mut Flow,
    id: FlowId,
    clock: SimTime,
    cum: &mut [f64],
    heap: &mut BinaryHeap<HeapEntry>,
) {
    if clock <= f.touched {
        return;
    }
    let base = f.touched;
    f.touched = clock;
    if f.rate_bps > 0.0 && f.rate_bps.is_finite() && f.remaining_bytes > 0.0 {
        let dt = (clock - base).as_secs_f64();
        let bytes = f.rate_bps / 8.0 * dt;
        let consumed = bytes.min(f.remaining_bytes);
        // If the flow drains inside this window, record the last bit's
        // arrival time (drain instant + propagation).
        if consumed >= f.remaining_bytes {
            let drain_secs = f.remaining_bytes * 8.0 / f.rate_bps;
            let drained_at = base + SimSpan::from_secs_f64(drain_secs);
            f.earliest_finish = f.earliest_finish.max(drained_at + f.prop);
        }
        f.remaining_bytes -= consumed;
        if f.remaining_bytes < 1e-6 {
            f.remaining_bytes = 0.0;
        }
        for &d in &f.path {
            cum[slot(d)] += consumed;
        }
        if f.remaining_bytes <= 0.0 && f.finish_at != f.earliest_finish {
            // Drain transition: the estimate is final now.
            f.finish_at = f.earliest_finish;
            f.epoch += 1;
            heap.push(Reverse((f.finish_at, id, f.epoch)));
        }
    } else if f.rate_bps.is_infinite() {
        // Empty-path flow: delivered instantly, no link bytes.
        f.remaining_bytes = 0.0;
    }
}

/// Bytes `f` would consume if materialized at `clock` — the pure
/// (non-mutating) mirror of [`materialize`]'s consumption arithmetic,
/// used by the query accessors.
fn pending_consumed(f: &Flow, clock: SimTime) -> f64 {
    if clock > f.touched && f.rate_bps > 0.0 && f.rate_bps.is_finite() && f.remaining_bytes > 0.0 {
        let dt = (clock - f.touched).as_secs_f64();
        (f.rate_bps / 8.0 * dt).min(f.remaining_bytes)
    } else {
        0.0
    }
}

/// Completion estimate for a *serializing* flow at `clock` (callers
/// handle the drained and starved cases).
fn serial_estimate(clock: SimTime, f: &Flow) -> SimTime {
    if f.rate_bps.is_infinite() {
        return f.earliest_finish;
    }
    // simlint::allow(float-eq, 0.0 is an exact assigned sentinel for starved flows, never computed)
    if f.rate_bps == 0.0 {
        return SimTime::MAX;
    }
    let secs = f.remaining_bytes * 8.0 / f.rate_bps;
    let ser = clock + SimSpan::from_secs_f64(secs).saturating_add(SimSpan::from_nanos(1));
    (ser + f.prop).max(f.earliest_finish)
}

/// Install a freshly solved rate on `f`. The completion estimate (and
/// its heap entry) is refreshed only when the rate *value* changed:
/// under an unchanged rate the estimate is invariant (progress accrues
/// at exactly that rate), so keeping the stored one avoids rounding
/// drift — the property that makes incremental and from-scratch
/// solving bit-identical. Callers must [`materialize`] first when the
/// rate bits differ.
fn assign_rate(
    f: &mut Flow,
    id: FlowId,
    rate: f64,
    clock: SimTime,
    heap: &mut BinaryHeap<HeapEntry>,
) {
    if rate.to_bits() == f.rate_bps.to_bits() {
        return;
    }
    f.rate_bps = rate;
    if f.remaining_bytes <= 0.0 {
        // Drained: completion waits only on propagation; the rate no
        // longer matters for the estimate.
        return;
    }
    let finish = serial_estimate(clock, f);
    if finish != f.finish_at {
        f.finish_at = finish;
        f.epoch += 1;
        if finish < SimTime::MAX {
            heap.push(Reverse((finish, id, f.epoch)));
        }
    }
}

/// How [`SimNet`] re-solves rates after a change. Every mode yields
/// bit-identical rates, completions and byte counters (asserted by
/// `tests/equivalence.rs`); only the work per event differs. The default
/// is the production engine; the other two let tests and benches
/// bracket it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SolveMode {
    /// Component-scoped re-solves; a single-bottleneck component settles
    /// in the one-round aggregate tier, any other in the exact solver.
    #[default]
    TwoTier,
    /// Component-scoped re-solves, all through the exact solver.
    ExactOnly,
    /// One global exact re-solve per change (the pre-incremental
    /// behaviour).
    FullResolve,
}

/// Counters describing how much solving work the engine performed —
/// the observable for scoping/aggregate-tier regression tests and for
/// benchmark reporting. Monotone over the simulator's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Component-scoped re-solves (each may settle via the aggregate
    /// tier or hand off to the exact solver).
    pub scoped_solves: u64,
    /// Scoped solves settled entirely by the one-round aggregate tier;
    /// `aggregate_solves / scoped_solves` is the tier's hit rate.
    pub aggregate_solves: u64,
    /// Global re-solves (only in [`SolveMode::FullResolve`]).
    pub full_solves: u64,
    /// Total flows rated across all solves (the work metric: a scoped
    /// solve of a k-flow component adds k).
    pub flows_rated: u64,
}

/// Reusable buffers for building solver inputs and running the component
/// BFS — allocation-free at steady state.
#[derive(Default)]
struct SolveScratch {
    /// Flat directed-slot arena (all solved paths back to back).
    flat: Vec<usize>,
    /// One span per solved flow, in ascending [`FlowId`] order.
    spans: Vec<FlowSpan>,
    /// Flow ids to solve, ascending, parallel to `spans`.
    ids: Vec<FlowId>,
    /// Directed slots whose allocated rate the solve rebuilds (incl. seed
    /// slots whose last flow just left — their rate must drop to zero).
    comp_links: Vec<usize>,
    /// BFS work stack of directed slots.
    queue: Vec<usize>,
    /// Visit stamp per directed slot (lazy reset via generation counter).
    link_stamp: Vec<u64>,
}

/// Flow-level network state over a fixed topology.
pub struct SimNet {
    /// Per-link capacity (each *direction* gets the full capacity:
    /// full-duplex links). Current, i.e. after fault scaling.
    capacities: Vec<f64>,
    /// Nominal per-link capacity; `capacities[i] = base_capacities[i] *
    /// scale` where scale is set by [`SimNet::set_link_scale`].
    base_capacities: Vec<f64>,
    /// Directed-slot capacity vector fed to the solver (2 slots per link),
    /// kept in sync with `capacities`.
    dir_caps: Vec<f64>,
    link_latency_ns: Vec<u64>,
    /// Active flows, stored as a slab indexed by `FlowId` — ids are
    /// issued monotonically and never reused, so a flow's id *is* its
    /// slot. Per-event validity checks dominate the hot path and a direct
    /// index beats any hash; slab order is ascending-id order, which is
    /// exactly what every order-sensitive traversal needs. A completed
    /// flow leaves a `None` slot behind: retained memory is proportional
    /// to flows ever started (~a pointer-sized header plus the `Flow`
    /// footprint per slot), the price of hash-free lookups.
    flows: Vec<Option<Flow>>,
    /// Number of `Some` entries in `flows`.
    n_live: usize,
    next_id: u64,
    clock: SimTime,
    /// Cumulative bytes delivered per directed link as of each flow's last
    /// materialization (index = link*2 + direction). Queries add the
    /// pending in-flight window on top — see
    /// [`SimNet::cumulative_bytes_dir`].
    cum_bytes: Vec<f64>,
    /// Allocated rate per directed link (sum of flow rates), bits/s.
    link_rate: Vec<f64>,
    /// Which flows cross each directed slot, ascending by id (ids are
    /// monotone, so insertion is an append and order is free).
    incidence: Vec<Vec<FlowId>>,
    dirty: bool,
    /// Directed slots touched by flow adds/removes (or a capacity change)
    /// since the last solve.
    seed_slots: Vec<usize>,
    /// Lazy-invalidation completion heap.
    heap: BinaryHeap<HeapEntry>,
    /// Generation counter for BFS visit stamps.
    visit_gen: u64,
    ws: SolverWorkspace,
    /// Aggregate tier: one-round single-bottleneck kernel.
    agg: OneRoundSolver,
    scratch: SolveScratch,
    mode: SolveMode,
    stats: SolveStats,
    /// Flow/link event sink; no-op unless attached via
    /// [`SimNet::set_tracer`]. Never affects simulation state.
    tracer: hs_obs::Tracer,
}

impl SimNet {
    /// Create a simulator over the links of `graph`.
    pub fn new(graph: &Graph) -> Self {
        let capacities = graph.capacities();
        let link_latency_ns = graph.links().map(|(_, l)| l.latency_ns).collect();
        let n = capacities.len();
        let mut dir_caps = Vec::with_capacity(2 * n);
        for &c in &capacities {
            dir_caps.push(c);
            dir_caps.push(c);
        }
        SimNet {
            base_capacities: capacities.clone(),
            capacities,
            dir_caps,
            link_latency_ns,
            flows: Vec::new(),
            n_live: 0,
            next_id: 0,
            clock: SimTime::ZERO,
            cum_bytes: vec![0.0; 2 * n],
            link_rate: vec![0.0; 2 * n],
            incidence: vec![Vec::new(); 2 * n],
            dirty: false,
            seed_slots: Vec::new(),
            heap: BinaryHeap::new(),
            visit_gen: 0,
            ws: SolverWorkspace::new(),
            agg: OneRoundSolver::new(),
            scratch: SolveScratch {
                link_stamp: vec![0; 2 * n],
                ..SolveScratch::default()
            },
            mode: SolveMode::default(),
            stats: SolveStats::default(),
            tracer: hs_obs::Tracer::noop(),
        }
    }

    /// Attach a tracer for flow start/abort and link-scale events.
    pub fn set_tracer(&mut self, tracer: &hs_obs::Tracer) {
        self.tracer = tracer.clone();
    }

    /// Select the rate-maintenance path (see [`SolveMode`]). A
    /// validation/benchmark knob: output is bit-identical in every mode.
    pub fn set_solve_mode(&mut self, mode: SolveMode) {
        self.mode = mode;
    }

    /// Solver work counters (see [`SolveStats`]).
    pub fn solve_stats(&self) -> SolveStats {
        self.stats
    }

    /// Current internal clock (last `advance_to` or flow start).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Number of in-flight flows.
    pub fn active_flow_count(&self) -> usize {
        self.n_live
    }

    /// Start a unit-weight flow of `bytes` over the directed `path` at
    /// time `now`.
    pub fn start_flow(&mut self, now: SimTime, path: &[DirLink], bytes: u64, tag: u64) -> FlowId {
        self.start_weighted_flow(now, path, bytes, 1.0, tag)
    }

    /// Start a flow with an explicit fair-share weight (used to model a
    /// collective step that opens several parallel streams).
    pub fn start_weighted_flow(
        &mut self,
        now: SimTime,
        path: &[DirLink],
        bytes: u64,
        weight: f64,
        tag: u64,
    ) -> FlowId {
        assert!(weight > 0.0, "flow weight must be positive");
        self.progress_to(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let prop_ns: u64 = path
            .iter()
            .map(|&(l, _)| self.link_latency_ns[l.idx()])
            .sum();
        let prop = SimSpan::from_nanos(prop_ns);
        let mut f = Flow {
            path: path.to_vec(),
            remaining_bytes: bytes as f64,
            size_bytes: bytes,
            rate_bps: 0.0,
            weight,
            started: now,
            prop,
            earliest_finish: now + prop,
            tag,
            finish_at: SimTime::MAX,
            touched: self.clock,
            epoch: 0,
            seen: 0,
        };
        if path.is_empty() {
            // Local copy: unconstrained, delivered after propagation only.
            f.rate_bps = f64::INFINITY;
        }
        if path.is_empty() || f.remaining_bytes <= 0.0 {
            // Nothing to serialize (or nothing constraining it): the
            // completion estimate is final right now.
            f.finish_at = f.earliest_finish;
            f.epoch += 1;
            self.heap.push(Reverse((f.finish_at, id, f.epoch)));
        }
        if !path.is_empty() {
            for &d in path {
                self.incidence[slot(d)].push(id);
            }
            self.mark_dirty_path(path);
        }
        self.put_flow(id, f);
        self.tracer.flow_start(now, id.0, tag, bytes, path.len());
        id
    }

    /// Remove a flow before completion (e.g. a cancelled transfer).
    ///
    /// Returns the flow if it was active and still serializing. A flow
    /// that has already drained — every byte delivered, completion only
    /// awaiting the last bit's propagation — is *not* cancellable: the
    /// call returns `None` and the completion is still delivered by
    /// [`SimNet::advance_to`], so callers can distinguish a true
    /// mid-flight abort (`Some`, `remaining_bytes > 0`) from a transfer
    /// that actually finished.
    pub fn cancel_flow(&mut self, now: SimTime, id: FlowId) -> Option<Flow> {
        self.progress_to(now);
        let clock = self.clock;
        let drained = match self.flows.get_mut(id.0 as usize).and_then(Option::as_mut) {
            None => return None,
            Some(f) => {
                // A cancel is a touch point: accrue before deciding.
                materialize(f, id, clock, &mut self.cum_bytes, &mut self.heap);
                f.remaining_bytes <= 0.0 && !f.path.is_empty()
            }
        };
        if drained {
            return None;
        }
        let f = self.take_flow(id).expect("flow looked up just above");
        self.unlink(id, &f.path);
        self.mark_dirty_path(&f.path);
        self.tracer.flow_abort(now, id.0, "cancelled");
        Some(f)
    }

    /// Inspect an active flow. `remaining_bytes` on the result is as of
    /// the flow's last materialization — use [`SimNet::flow_remaining`]
    /// for the value at the current clock.
    pub fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.flows.get(id.0 as usize).and_then(Option::as_ref)
    }

    /// Bytes a live flow still has to serialize at the current clock
    /// (pure: stored progress plus the pending in-flight window).
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        let f = self.flow(id)?;
        if f.rate_bps.is_infinite() && self.clock > f.touched {
            return Some(0.0);
        }
        let mut rem = f.remaining_bytes - pending_consumed(f, self.clock);
        if rem < 1e-6 {
            rem = 0.0;
        }
        Some(rem)
    }

    /// The time of the earliest flow completion, or `None` when idle.
    ///
    /// `O(log n)` amortized: stale heap entries are popped as they
    /// surface; the first valid entry is the answer (every non-starved
    /// flow keeps exactly one valid entry).
    pub fn next_event_time(&mut self) -> Option<SimTime> {
        self.solve_if_dirty();
        while let Some(&Reverse((t, id, ep))) = self.heap.peek() {
            match self.flow(id) {
                Some(f) if f.epoch == ep => return Some(t.max(self.clock)),
                _ => {
                    self.heap.pop();
                }
            }
        }
        if self.n_live == 0 {
            None
        } else {
            // Every remaining flow is starved (rate 0 on a dead link).
            Some(SimTime::MAX)
        }
    }

    /// Advance the clock to `now` and return the flows that completed
    /// (in completion-then-id order).
    ///
    /// Pop the earliest valid heap entry, materialize and remove the
    /// flow, re-solve its component (completions change rates, which
    /// changes later completions within the same window), repeat.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<(FlowId, Flow)> {
        assert!(now >= self.clock, "SimNet clock must be monotone");
        let mut done = Vec::new();
        loop {
            self.solve_if_dirty();
            let Some((t, id)) = self.peek_valid() else {
                break;
            };
            if t > now {
                break;
            }
            self.heap.pop();
            // A cascade re-solve can finalize a drained flow at an
            // arrival instant slightly before the previous completion's
            // clock; the engine clock never moves backwards.
            self.clock = self.clock.max(t);
            let clock = self.clock;
            let mut f = self.take_flow(id).expect("front flow is live");
            materialize(&mut f, id, clock, &mut self.cum_bytes, &mut self.heap);
            self.unlink(id, &f.path);
            self.mark_dirty_path(&f.path);
            f.remaining_bytes = 0.0;
            done.push((id, f));
        }
        self.progress_to(now);
        done
    }

    /// Fair-share utilization of a link in `[0, 1]`: the busier
    /// direction's allocated rate over capacity. This is the
    /// instantaneous `B(e)`-complement the online scheduler's cost
    /// tables consume.
    pub fn link_utilization(&mut self, l: LinkId) -> f64 {
        self.solve_if_dirty();
        let fwd = self.link_rate[l.idx() * 2];
        let rev = self.link_rate[l.idx() * 2 + 1];
        Self::util(fwd.max(rev), self.capacities[l.idx()])
    }

    /// Snapshot of all link utilizations (busier direction per link).
    pub fn utilization_snapshot(&mut self) -> Vec<f64> {
        self.solve_if_dirty();
        (0..self.capacities.len())
            .map(|i| {
                Self::util(
                    self.link_rate[i * 2].max(self.link_rate[i * 2 + 1]),
                    self.capacities[i],
                )
            })
            .collect()
    }

    /// Rate-over-capacity in `[0, 1]`; a dead link reads as fully busy so
    /// utilization-driven schedulers steer away from it.
    #[inline]
    fn util(rate: f64, capacity: f64) -> f64 {
        if capacity <= 0.0 {
            1.0
        } else {
            (rate / capacity).clamp(0.0, 1.0)
        }
    }

    /// Residual bandwidth `B(e) = C(e) - allocated` per link, bits/s
    /// (busier direction) — the planner's Table I input.
    pub fn residual_bandwidth(&mut self) -> Vec<f64> {
        self.solve_if_dirty();
        (0..self.capacities.len())
            .map(|i| {
                (self.capacities[i] - self.link_rate[i * 2].max(self.link_rate[i * 2 + 1])).max(0.0)
            })
            .collect()
    }

    /// Cumulative bytes delivered over a link since simulation start,
    /// both directions (monotone; models a switch hardware counter).
    pub fn cumulative_bytes(&self, l: LinkId) -> f64 {
        self.cumulative_bytes_dir(l, false) + self.cumulative_bytes_dir(l, true)
    }

    /// Cumulative bytes for one direction of a link: the materialized
    /// counter plus each crossing flow's pending in-flight window,
    /// accumulated in ascending flow-id order (pure, deterministic).
    pub fn cumulative_bytes_dir(&self, l: LinkId, forward: bool) -> f64 {
        let s = l.idx() * 2 + forward as usize;
        let mut total = self.cum_bytes[s];
        for &fid in &self.incidence[s] {
            total += pending_consumed(self.flow_ref(fid), self.clock);
        }
        total
    }

    /// Link capacities (bits/s), after any fault scaling.
    pub fn capacities(&self) -> &[f64] {
        &self.capacities
    }

    /// Current capacity scale of a link: `1.0` healthy, `0.0` dead.
    pub fn link_scale(&self, l: LinkId) -> f64 {
        let base = self.base_capacities[l.idx()];
        if base <= 0.0 {
            return 1.0;
        }
        self.capacities[l.idx()] / base
    }

    /// Set a link's capacity to `factor` of nominal at time `now` (a
    /// fault when `factor < 1`, a recovery when it returns to `1.0`).
    ///
    /// Surviving flows are re-rated max-min fairly at the next query.
    /// The re-solve is **component-scoped**: a capacity change can only
    /// move bottlenecks among flows transitively sharing a link with the
    /// scaled one (the max-min allocation decomposes across connected
    /// components, DESIGN.md §9), so untouched components keep their
    /// rates, estimates, and epochs bit-for-bit.
    /// When `factor` is zero the link is dead: every flow crossing it
    /// (either direction) is aborted and returned, with its progress
    /// accrued up to `now`, so the caller can retry over another route.
    /// Flows *started* across a dead link later are not rejected — they
    /// simply stall at rate 0 until the link recovers, which is how a
    /// fault-oblivious baseline behaves.
    pub fn set_link_scale(&mut self, now: SimTime, l: LinkId, factor: f64) -> Vec<(FlowId, Flow)> {
        assert!(
            factor.is_finite() && (0.0..=1.0).contains(&factor),
            "link scale must be in [0, 1], got {factor}"
        );
        self.progress_to(now);
        let cap = self.base_capacities[l.idx()] * factor;
        self.capacities[l.idx()] = cap;
        self.dir_caps[l.idx() * 2] = cap;
        self.dir_caps[l.idx() * 2 + 1] = cap;
        // Seed both directions: the scoped BFS pulls in exactly the
        // component(s) whose allocation the new capacity can affect.
        self.dirty = true;
        self.seed_slots.push(l.idx() * 2);
        self.seed_slots.push(l.idx() * 2 + 1);
        let crossing = || {
            self.flows
                .iter()
                .flatten()
                .filter(|f| f.path.iter().any(|&(fl, _)| fl == l))
                .count()
        };
        if factor > 0.0 {
            if self.tracer.is_enabled() {
                self.tracer
                    .link_scale(now, l.idx() as u64, factor, crossing(), 0);
            }
            return Vec::new();
        }
        // Slab order is ascending-id order, which is what the abort list
        // and cum-byte accrual order (both observable) must follow.
        let doomed: Vec<FlowId> = self
            .flows
            .iter()
            .enumerate()
            .filter_map(|(i, f)| f.as_ref().map(|f| (i, f)))
            .filter(|(_, f)| f.path.iter().any(|&(fl, _)| fl == l))
            .map(|(i, _)| FlowId(i as u64))
            .collect();
        if self.tracer.is_enabled() {
            self.tracer
                .link_scale(now, l.idx() as u64, factor, 0, doomed.len());
            for id in &doomed {
                self.tracer.flow_abort(now, id.0, "link_dead");
            }
        }
        let clock = self.clock;
        doomed
            .into_iter()
            .map(|id| {
                let mut f = self.take_flow(id).expect("doomed flow present");
                // An abort is a touch point: hand back accrued progress.
                materialize(&mut f, id, clock, &mut self.cum_bytes, &mut self.heap);
                self.unlink(id, &f.path);
                self.mark_dirty_path(&f.path);
                (id, f)
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Incremental engine internals
    // ------------------------------------------------------------------

    /// Live flow by id; panics if it is gone (use where an invariant —
    /// e.g. membership in an incidence list — guarantees liveness).
    #[inline]
    fn flow_ref(&self, id: FlowId) -> &Flow {
        self.flows[id.0 as usize]
            .as_ref()
            .expect("id names a live flow")
    }

    /// Remove and return a live flow, freeing its slot.
    #[inline]
    fn take_flow(&mut self, id: FlowId) -> Option<Flow> {
        let f = self.flows.get_mut(id.0 as usize).and_then(Option::take);
        if f.is_some() {
            self.n_live -= 1;
        }
        f
    }

    /// (Re-)install a flow in its id slot.
    #[inline]
    fn put_flow(&mut self, id: FlowId, f: Flow) {
        let s = id.0 as usize;
        if s >= self.flows.len() {
            self.flows.resize_with(s + 1, || None);
        }
        debug_assert!(self.flows[s].is_none(), "flow slot double-filled");
        self.flows[s] = Some(f);
        self.n_live += 1;
    }

    /// Record that a flow over `path` was added or removed: its directed
    /// slots seed the next component-scoped re-solve.
    fn mark_dirty_path(&mut self, path: &[DirLink]) {
        if path.is_empty() {
            // Empty paths never contend for bandwidth.
            return;
        }
        self.dirty = true;
        for &d in path {
            self.seed_slots.push(slot(d));
        }
    }

    /// Remove `id` from the incidence lists of every hop of `path`.
    fn unlink(&mut self, id: FlowId, path: &[DirLink]) {
        for &d in path {
            let v = &mut self.incidence[slot(d)];
            if let Ok(i) = v.binary_search(&id) {
                v.remove(i);
            } else {
                debug_assert!(false, "flow missing from incidence list");
            }
        }
    }

    /// Earliest valid heap entry, discarding stale ones on the way.
    fn peek_valid(&mut self) -> Option<(SimTime, FlowId)> {
        while let Some(&Reverse((t, id, ep))) = self.heap.peek() {
            match self.flow(id) {
                Some(f) if f.epoch == ep => return Some((t, id)),
                _ => {
                    self.heap.pop();
                }
            }
        }
        None
    }

    /// Re-solve whatever subset of the rate state is out of date.
    ///
    /// Component-scoped modes BFS the flow/link incidence graph from each
    /// dirty seed slot and solve each reached component on its own. Flows
    /// on disjoint links keep their rates — sound because the weighted
    /// max-min allocation is unique and decomposes across connected
    /// components (DESIGN.md §9), which also makes per-component solves
    /// bitwise identical to solving their union. It keeps the exact
    /// solver's cost proportional to the largest touched component:
    /// water-filling freezes one bottleneck link per round, so a union of
    /// k disjoint components costs ~k× the rounds of its parts.
    fn solve_if_dirty(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        if self.mode == SolveMode::FullResolve {
            self.stats.full_solves += 1;
            let scratch = &mut self.scratch;
            scratch.ids.clear();
            scratch.ids.extend(
                (0..self.flows.len())
                    .filter(|&i| self.flows[i].is_some())
                    .map(|i| FlowId(i as u64)),
            );
            scratch.comp_links.clear();
            scratch.comp_links.extend(0..self.link_rate.len());
            self.solve_collected();
        } else {
            self.visit_gen += 1;
            for si in 0..self.seed_slots.len() {
                let seed = self.seed_slots[si];
                if self.scratch.link_stamp[seed] == self.visit_gen {
                    // Already covered by an earlier seed's component.
                    continue;
                }
                self.stats.scoped_solves += 1;
                self.collect_component(seed);
                self.solve_collected();
            }
        }
        self.seed_slots.clear();
    }

    /// BFS the connected component reachable from directed slot `seed`
    /// into `scratch.ids` (ascending) and `scratch.comp_links`.
    fn collect_component(&mut self, seed: usize) {
        let gen = self.visit_gen;
        let scratch = &mut self.scratch;
        scratch.queue.clear();
        scratch.comp_links.clear();
        scratch.ids.clear();
        scratch.link_stamp[seed] = gen;
        scratch.queue.push(seed);
        while let Some(s) = scratch.queue.pop() {
            scratch.comp_links.push(s);
            for &fid in &self.incidence[s] {
                let f = self.flows[fid.0 as usize]
                    .as_mut()
                    .expect("incidence names a live flow");
                if f.seen == gen {
                    continue;
                }
                f.seen = gen;
                scratch.ids.push(fid);
                for &d in &f.path {
                    let sl = slot(d);
                    if scratch.link_stamp[sl] != gen {
                        scratch.link_stamp[sl] = gen;
                        scratch.queue.push(sl);
                    }
                }
            }
        }
        // Ascending-id order so per-link weight sums accumulate in
        // exactly the order a full solve would use (float addition order
        // matters for bit-identity).
        scratch.ids.sort_unstable();
    }

    /// Solve the flows in `scratch.ids` (ascending, closed under link
    /// sharing), rebuild the allocated rate of every slot in
    /// `scratch.comp_links`, and install each flow's new rate. In
    /// [`SolveMode::TwoTier`] the aggregate tier answers first; a
    /// component where a second link saturates hands off to the exact
    /// water-filling solver.
    fn solve_collected(&mut self) {
        let scratch = &mut self.scratch;
        scratch.flat.clear();
        scratch.spans.clear();
        for &id in &scratch.ids {
            let f = self.flows[id.0 as usize]
                .as_ref()
                .expect("solved flow is live");
            scratch.spans.push(FlowSpan {
                start: scratch.flat.len() as u32,
                len: f.path.len() as u32,
                weight: f.weight,
            });
            scratch.flat.extend(f.path.iter().map(|&d| slot(d)));
        }
        self.stats.flows_rated += scratch.ids.len() as u64;
        let one_round = match self.mode {
            SolveMode::TwoTier => self
                .agg
                .try_solve(&self.dir_caps, &scratch.flat, &scratch.spans),
            SolveMode::ExactOnly | SolveMode::FullResolve => None,
        };
        let rates: &[f64] = match one_round {
            Some(r) => {
                self.stats.aggregate_solves += 1;
                r
            }
            None => self.ws.solve(&self.dir_caps, &scratch.flat, &scratch.spans),
        };
        for &s in &scratch.comp_links {
            self.link_rate[s] = 0.0;
        }
        let clock = self.clock;
        for (i, &id) in scratch.ids.iter().enumerate() {
            let f = self.flows[id.0 as usize]
                .as_mut()
                .expect("solved flow is still present");
            let rate = rates[i];
            if rate.is_finite() {
                for &d in &f.path {
                    self.link_rate[slot(d)] += rate;
                }
            }
            if rate.to_bits() != f.rate_bps.to_bits() {
                materialize(f, id, clock, &mut self.cum_bytes, &mut self.heap);
                assign_rate(f, id, rate, clock, &mut self.heap);
            }
        }
    }

    /// Advance the clock to `t`. Under lazy accrual no per-flow work is
    /// needed: pending windows are carried by each flow's `touched` stamp.
    fn progress_to(&mut self, t: SimTime) {
        if t <= self.clock {
            return;
        }
        // Rates for the window starting at the old clock must be solved
        // *at* the old clock before it moves.
        self.solve_if_dirty();
        self.clock = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_topology::{
        graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId},
        NodeId,
    };

    /// Direct all hops "forward" (capacity is symmetric in these tests).
    fn fwd(links: &[LinkId]) -> Vec<DirLink> {
        links.iter().map(|&l| (l, true)).collect()
    }

    /// Two GPUs joined by one 100 G Ethernet link via a switch.
    fn line() -> (Graph, Vec<NodeId>, Vec<LinkId>) {
        let mut b = GraphBuilder::new();
        let g0 = b.add_gpu(ServerId(0), 0, GpuSpec::a100_40g());
        let g1 = b.add_gpu(ServerId(1), 0, GpuSpec::a100_40g());
        let s = b.add_access_switch(true, "s");
        let l0 = b.add_link(g0, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        let l1 = b.add_link(g1, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        (b.build(), vec![g0, g1, s], vec![l0, l1])
    }

    /// `n` isolated two-link clusters (GPU→switch→GPU), one link pair per
    /// cluster — disjoint components by construction.
    fn clusters(n: usize) -> (Graph, Vec<[LinkId; 2]>) {
        let mut b = GraphBuilder::new();
        let mut links = Vec::with_capacity(n);
        for i in 0..n {
            let g0 = b.add_gpu(ServerId((2 * i) as u32), 0, GpuSpec::a100_40g());
            let g1 = b.add_gpu(ServerId((2 * i + 1) as u32), 0, GpuSpec::a100_40g());
            let s = b.add_access_switch(true, "s");
            let l0 = b.add_link(g0, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
            let l1 = b.add_link(g1, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
            links.push([l0, l1]);
        }
        (b.build(), links)
    }

    #[test]
    fn lone_flow_runs_at_line_rate() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        // 1 MB over 100 Gbps, 2 hops of 1 us propagation: 80 us + 2 us.
        let id = net.start_flow(SimTime::ZERO, &fwd(&links), 1_000_000, 7);
        let t = net.next_event_time().unwrap();
        let us = t.as_micros_f64();
        assert!((us - 82.0).abs() < 0.5, "finish at {us} us");
        let done = net.advance_to(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, id);
        assert_eq!(done[0].1.tag, 7);
        assert_eq!(net.active_flow_count(), 0);
    }

    #[test]
    fn two_flows_share_then_speed_up() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        // Both flows cross link l0 only (g0->switch), 1 MB each.
        let a = net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 1_000_000, 0);
        let _b = net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 2_000_000, 1);
        // Shared at 50 Gbps each. Flow a: 8e6 bits / 50e9 = 160 us.
        let t1 = net.next_event_time().unwrap();
        assert!((t1.as_micros_f64() - 161.0).abs() < 1.0, "{t1}");
        let done = net.advance_to(t1);
        assert_eq!(done[0].0, a);
        // Flow b then has 1 MB left at full 100 Gbps: 80 us more.
        let t2 = net.next_event_time().unwrap();
        assert!(
            (t2.as_micros_f64() - t1.as_micros_f64() - 80.0).abs() < 1.0,
            "t2={t2} t1={t1}"
        );
    }

    #[test]
    fn advance_past_multiple_completions() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 1_000_000, 0);
        net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 2_000_000, 1);
        net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 3_000_000, 2);
        let done = net.advance_to(SimTime::from_millis(10));
        assert_eq!(done.len(), 3);
        // Completion order follows size here.
        assert_eq!(
            done.iter().map(|(_, f)| f.tag).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        // Conservation: 6 MB crossed link 0.
        assert!((net.cumulative_bytes(links[0]) - 6_000_000.0).abs() < 1.0);
        assert_eq!(net.cumulative_bytes(links[1]), 0.0);
    }

    #[test]
    fn utilization_and_residual() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 100_000_000, 0);
        assert!((net.link_utilization(links[0]) - 1.0).abs() < 1e-9);
        assert_eq!(net.link_utilization(links[1]), 0.0);
        let res = net.residual_bandwidth();
        assert!(res[links[0].idx()] < 1.0);
        assert!((res[links[1].idx()] - bandwidth::ETH_100G).abs() < 1.0);
    }

    #[test]
    fn cancel_restores_bandwidth() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let a = net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 1_000_000, 0);
        let _b = net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 1_000_000, 1);
        let cancelled = net.cancel_flow(SimTime::from_micros(10), a).unwrap();
        // 10 us at 50 Gbps = 62.5 kB transferred before cancellation.
        assert!((cancelled.remaining_bytes - (1_000_000.0 - 62_500.0)).abs() < 100.0);
        // Remaining flow now gets full rate.
        assert!((net.link_utilization(links[0]) - 1.0).abs() < 1e-9);
        let t = net.next_event_time().unwrap();
        // b transferred 62.5 kB too; 937.5 kB left at 100 Gbps = 75 us.
        assert!((t.as_micros_f64() - 10.0 - 76.0).abs() < 1.0, "{t}");
    }

    /// Regression: a flow that has drained but whose last bit is still
    /// propagating is *finished* from the sender's perspective — cancel
    /// must refuse (`None`) and the completion must still be delivered,
    /// so callers never mistake delivered bytes for an aborted transfer.
    #[test]
    fn cancel_of_drained_flow_is_a_noop_and_still_completes() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        // 1 MB at 100 Gbps drains at 80 us; last bit arrives at 82 us.
        let id = net.start_flow(SimTime::ZERO, &fwd(&links), 1_000_000, 42);
        let finish = net.next_event_time().unwrap();
        // Move to a point strictly between drain and arrival.
        let between = SimTime::from_micros(81);
        assert!(net.advance_to(between).is_empty());
        assert_eq!(net.flow_remaining(id), Some(0.0));
        // The cancel is refused: all bytes were delivered.
        assert!(net.cancel_flow(between, id).is_none());
        // ... and the completion still arrives on time.
        let done = net.advance_to(finish);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, id);
        assert_eq!(done[0].1.tag, 42);
        assert_eq!(done[0].1.remaining_bytes, 0.0);
        // A second cancel of the now-gone flow is also None.
        assert!(net.cancel_flow(finish, id).is_none());
    }

    #[test]
    fn empty_path_completes_immediately() {
        let (g, _, _) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::from_secs(1), &[], 1 << 30, 5);
        let t = net.next_event_time().unwrap();
        assert_eq!(t, SimTime::from_secs(1));
        let done = net.advance_to(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.tag, 5);
    }

    #[test]
    fn zero_byte_flow_costs_only_propagation() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::ZERO, &fwd(&links), 0, 0);
        let t = net.next_event_time().unwrap();
        assert_eq!(t, SimTime::from_micros(2));
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn clock_must_be_monotone() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::from_secs(2), &fwd(&links), 10, 0);
        net.advance_to(SimTime::from_secs(1));
    }

    #[test]
    fn weighted_flow_gets_larger_share() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let heavy = net.start_weighted_flow(SimTime::ZERO, &fwd(&links[..1]), 1_000_000, 3.0, 0);
        let light = net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 1_000_000, 1);
        net.next_event_time();
        let rh = net.flow(heavy).unwrap().rate_bps;
        let rl = net.flow(light).unwrap().rate_bps;
        assert!((rh / rl - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degraded_link_rerates_inflight_flow() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        // 1 MB at 100 Gbps would finish at ~82 us.
        net.start_flow(SimTime::ZERO, &fwd(&links), 1_000_000, 0);
        // At 40 us (≈ 0.5 MB in), the first link browns out to 25%.
        let aborted = net.set_link_scale(SimTime::from_micros(40), links[0], 0.25);
        assert!(aborted.is_empty(), "degrade must not abort flows");
        assert!((net.link_utilization(links[0]) - 1.0).abs() < 1e-9);
        // Remaining ~0.5 MB at 25 Gbps = ~160 us more.
        let t = net.next_event_time().unwrap().as_micros_f64();
        assert!((t - 202.0).abs() < 2.0, "finish at {t} us");
        // Recovery at 100 us: 2.5e6 bits remain (60 us at 25 Gbps drained
        // 1.5e6), so line rate finishes them 25 us later.
        net.set_link_scale(SimTime::from_micros(100), links[0], 1.0);
        let t = net.next_event_time().unwrap().as_micros_f64();
        assert!((t - 127.0).abs() < 2.0, "finish at {t} us after recovery");
    }

    #[test]
    fn dead_link_aborts_crossing_flows_only() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let doomed = net.start_flow(SimTime::ZERO, &fwd(&links), 1_000_000, 7);
        let survivor = net.start_flow(SimTime::ZERO, &fwd(&links[1..]), 1_000_000, 8);
        let aborted = net.set_link_scale(SimTime::from_micros(10), links[0], 0.0);
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].0, doomed);
        assert_eq!(aborted[0].1.tag, 7);
        // Progress was accrued up to the fault before the abort.
        assert!(aborted[0].1.remaining_bytes < 1_000_000.0);
        assert!(net.flow(survivor).is_some());
        // Dead link reads as fully busy with zero residual.
        assert!((net.link_utilization(links[0]) - 1.0).abs() < 1e-9);
        assert_eq!(net.residual_bandwidth()[links[0].idx()], 0.0);
        assert!((net.link_scale(links[0]) - 0.0).abs() < 1e-12);
        // A flow started across the dead link stalls rather than finishing.
        net.start_flow(SimTime::from_micros(20), &fwd(&links[..1]), 1_000, 9);
        let next = net.next_event_time().unwrap();
        assert!(next < SimTime::MAX, "survivor still finishes");
        let done = net.advance_to(SimTime::from_millis(1));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.tag, 8);
        // Recovery lets the stalled flow drain.
        net.set_link_scale(SimTime::from_millis(2), links[0], 1.0);
        let done = net.advance_to(SimTime::from_millis(3));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].1.tag, 9);
    }

    #[test]
    fn byte_conservation_across_rate_changes() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 4_000_000, 0);
        // A second flow arrives mid-transfer and leaves via completion.
        net.start_flow(SimTime::from_micros(100), &fwd(&links[..1]), 1_000_000, 1);
        net.advance_to(SimTime::from_millis(5));
        assert_eq!(net.active_flow_count(), 0);
        assert!(
            (net.cumulative_bytes(links[0]) - 5_000_000.0).abs() < 10.0,
            "delivered {}",
            net.cumulative_bytes(links[0])
        );
    }

    /// Every solve mode must agree bit for bit on a scenario that
    /// exercises scoped solves, the aggregate tier, completions, cancels,
    /// and a fault (`tests/equivalence.rs` covers arbitrary sequences;
    /// this is the in-crate smoke version).
    #[test]
    fn incremental_matches_full_resolve_bitwise() {
        let run = |mode: SolveMode| {
            let (g, _, links) = line();
            let mut net = SimNet::new(&g);
            net.set_solve_mode(mode);
            let mut log: Vec<(u64, u64)> = Vec::new();
            net.start_flow(SimTime::ZERO, &fwd(&links), 2_000_000, 1);
            let b = net.start_flow(SimTime::from_micros(30), &fwd(&links[..1]), 1_000_000, 2);
            net.start_flow(SimTime::from_micros(40), &fwd(&links[1..]), 500_000, 3);
            net.set_link_scale(SimTime::from_micros(60), links[0], 0.5);
            for (id, f) in net.advance_to(SimTime::from_micros(120)) {
                log.push((id.0, f.tag));
            }
            net.cancel_flow(SimTime::from_micros(130), b);
            for (id, f) in net.advance_to(SimTime::from_millis(4)) {
                log.push((id.0, f.tag));
            }
            let bytes: Vec<u64> = (0..2)
                .map(|i| net.cumulative_bytes(links[i]).to_bits())
                .collect();
            (log, bytes, net.active_flow_count())
        };
        let two_tier = run(SolveMode::TwoTier);
        assert_eq!(two_tier, run(SolveMode::ExactOnly));
        assert_eq!(two_tier, run(SolveMode::FullResolve));
    }

    /// Satellite regression: `set_link_scale` must re-solve only the
    /// scaled link's component. The survivor cluster keeps its rate and
    /// epoch untouched, and the work counter proves no other flows were
    /// rated.
    #[test]
    fn link_scale_resolve_is_component_scoped() {
        let (g, links) = clusters(3);
        let mut net = SimNet::new(&g);
        // Two flows contending in cluster 0, one lone flow per other
        // cluster.
        net.start_flow(SimTime::ZERO, &fwd(&[links[0][0]]), 10_000_000, 0);
        net.start_flow(SimTime::ZERO, &fwd(&[links[0][0]]), 10_000_000, 1);
        let b = net.start_flow(SimTime::ZERO, &fwd(&[links[1][0]]), 10_000_000, 2);
        let c = net.start_flow(SimTime::ZERO, &fwd(&[links[2][1]]), 10_000_000, 3);
        net.next_event_time();
        let before_b = {
            let f = net.flow(b).unwrap();
            (f.rate_bps.to_bits(), f.epoch, f.finish_at)
        };
        let before_c = {
            let f = net.flow(c).unwrap();
            (f.rate_bps.to_bits(), f.epoch, f.finish_at)
        };
        let rated_before = net.solve_stats().flows_rated;
        // Degrade cluster 0's shared link; clusters 1 and 2 must not even
        // be visited by the re-solve.
        net.set_link_scale(SimTime::from_micros(10), links[0][0], 0.5);
        net.next_event_time();
        let after_b = {
            let f = net.flow(b).unwrap();
            (f.rate_bps.to_bits(), f.epoch, f.finish_at)
        };
        let after_c = {
            let f = net.flow(c).unwrap();
            (f.rate_bps.to_bits(), f.epoch, f.finish_at)
        };
        assert_eq!(before_b, after_b);
        assert_eq!(before_c, after_c);
        assert_eq!(
            net.solve_stats().flows_rated - rated_before,
            2,
            "only cluster 0's two flows may be re-rated"
        );
    }

    /// Single-bottleneck components settle in the aggregate tier; a
    /// component where a second link saturates hands off to the exact
    /// solver. Both paths agree with full-resolve bitwise (asserted by
    /// `incremental_matches_full_resolve_bitwise` and the equivalence
    /// suite); this pins that the fast path actually engages.
    #[test]
    fn aggregate_tier_engages_and_hands_off() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        // Two flows on one link: single bottleneck -> aggregate tier.
        net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 1_000_000, 0);
        net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 2_000_000, 1);
        net.next_event_time();
        let s = net.solve_stats();
        assert_eq!(
            s.scoped_solves, s.aggregate_solves,
            "uncongested: one round"
        );
        assert!(s.aggregate_solves > 0);
        // Degrade l1 and pile flows on it so the two-link path saturates
        // both links at different shares -> exact-solver handoff.
        net.set_link_scale(SimTime::from_micros(1), links[1], 0.3);
        net.start_flow(SimTime::from_micros(1), &fwd(&links), 4_000_000, 2);
        net.start_flow(SimTime::from_micros(1), &fwd(&links[1..]), 4_000_000, 3);
        net.next_event_time();
        let s = net.solve_stats();
        assert!(
            s.scoped_solves > s.aggregate_solves,
            "congested component must hand off to the exact solver: {s:?}"
        );
    }

    #[test]
    fn tracer_sees_flow_and_link_events() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let tracer = hs_obs::Tracer::recording();
        net.set_tracer(&tracer);
        net.start_flow(SimTime::ZERO, &fwd(&links), 1_000_000, 7);
        // Degrade, then kill the first link: one re-rate, one abort.
        net.set_link_scale(SimTime::from_micros(10), links[0], 0.5);
        let dead = net.set_link_scale(SimTime::from_micros(20), links[0], 0.0);
        assert_eq!(dead.len(), 1);

        let recs = tracer.records();
        let start = recs.iter().find(|r| r.name == "flow_start").unwrap();
        assert_eq!(start.arg("bytes").and_then(hs_obs::Val::as_f64), Some(1e6));
        let scales: Vec<_> = recs.iter().filter(|r| r.name == "link_scale").collect();
        assert_eq!(scales.len(), 2);
        assert_eq!(
            scales[0].arg("rerated").and_then(hs_obs::Val::as_f64),
            Some(1.0)
        );
        assert_eq!(
            scales[1].arg("aborted").and_then(hs_obs::Val::as_f64),
            Some(1.0)
        );
        assert!(recs.iter().any(|r| r.name == "flow_abort"));
    }

    #[test]
    fn tracer_never_perturbs_flow_outcomes() {
        let run = |traced: bool| {
            let (g, _, links) = line();
            let mut net = SimNet::new(&g);
            if traced {
                net.set_tracer(&hs_obs::Tracer::recording());
            }
            net.start_flow(SimTime::ZERO, &fwd(&links), 2_000_000, 1);
            net.start_flow(SimTime::from_micros(50), &fwd(&links[..1]), 500_000, 2);
            net.set_link_scale(SimTime::from_micros(80), links[0], 0.5);
            let done = net.advance_to(SimTime::from_millis(5));
            (
                done.iter().map(|(id, f)| (id.0, f.tag)).collect::<Vec<_>>(),
                net.cumulative_bytes(links[0]),
            )
        };
        assert_eq!(run(false), run(true));
    }
}
