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
//! # Incremental fair-share engine
//!
//! Rate maintenance is *incremental* (see DESIGN.md §9 and §12). The
//! simulator owns persistent [`SolverWorkspace`]s plus a link→flow
//! incidence table, so a flow add/remove triggers a **component-scoped**
//! re-solve: only the flows transitively sharing a link with the changed
//! flow are re-rated (max-min allocations decompose across connected
//! components of the flow/link graph, so untouched components keep their
//! exact rates). [`SimNet::set_link_scale`] is scoped the same way — a
//! capacity change can only move bottlenecks within the scaled link's
//! component.
//!
//! Flow progress is accrued **lazily at touch points**: a flow's
//! `remaining_bytes` is materialized only when its rate *value* changes
//! (or it is cancelled/aborted/completed) — points at which a
//! from-scratch global solve would touch it too, which is what keeps the
//! engine bit-identical to one. Byte-counter queries
//! ([`SimNet::cumulative_bytes_dir`], [`SimNet::flow_remaining`]) are
//! pure: they add the pending in-flight contribution without mutating
//! state. Completion lookup uses a lazily-invalidated min-heap of
//! `(finish, flow, epoch)` entries, making [`SimNet::next_event_time`]
//! and [`SimNet::advance_to`] `O(log n)` per event with *no* per-event
//! scan over unrelated flows. `tests/equivalence.rs` drives arbitrary
//! event sequences through the engine and an independent from-scratch
//! reference and asserts identical rates, completions, and cumulative
//! link bytes.
//!
//! After a departure (a completion or a cancel) the component's solve
//! is **resumed**, not redone: for the last fully solved component the
//! engine keeps each flow's freeze round and every link's state at
//! the start of every round, and redoes only the rounds from the one the
//! departed flow froze in, which gives the same bits.
//! Any other change (a start, an unpark, a capacity change) takes the
//! full scoped solve, except for a flow alone on its links: it is its
//! own component, so it is rated at its start in closed form
//! ([`solo_rate`], the water-filling's single round, same bits) with no
//! solve, and when it leaves alone (outside the cache) it seeds nothing,
//! since no other rate can change. A removed flow pushes no heap entry.
//! Per-link allocated rates are not stored: the rate
//! queries ([`SimNet::link_utilization`], [`SimNet::utilization_snapshot`],
//! [`SimNet::residual_bandwidth`]) sum them over the link's flows.
//!
//! Memory and solver work follow the *live* flows. Unparked flows sit in
//! a window that starts at the oldest of them. A flow started across a
//! dead link is **parked**: it stays out of the incidence table (so no
//! solve visits it) until [`SimNet::set_link_scale`] brings its whole
//! path back, and it lives in a side table until it ends; its empty
//! window slot does not pin the window. The completion heap drops its
//! stale entries once it holds more than twice as many entries as there
//! are live flows.

use crate::fairshare::{solo_rate, FlowSpan, SolverWorkspace};
use hs_des::{SimSpan, SimTime};
use hs_topology::{Graph, LinkId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::num::NonZeroU32;

/// The flow window drops its empty prefix once the prefix is at least
/// this many slots and at least half the window, so each drained slot is
/// moved at most once on average.
const WINDOW_DRAIN_MIN: usize = 1024;

/// The completion heap drops its stale entries once it holds more than
/// twice the live flows plus this many. A compaction leaves at most one
/// entry per live flow, so its cost is spread over the pushes before the
/// next one; the slack keeps small nets from compacting often.
const HEAP_COMPACT_SLACK: usize = 4096;

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
    pub weight: NonZeroU32,
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
    /// Started across a dead link: out of the incidence table, rate 0,
    /// `finish_at = MAX`, until its whole path is alive again. A flow
    /// started parked stays in the side table until it ends.
    parked: bool,
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
/// Returns whether the flow drained in that window, which fixes its
/// completion estimate (a new epoch) that a kept flow must push.
///
/// This is THE materialization point of the lazy-accrual contract: it runs
/// only when the flow's rate value is about to change, or the flow is
/// cancelled/aborted/completed — events that occur at identical instants
/// under a scoped and a global solve (their rates are bitwise equal), so
/// both perform the identical float operations. A flow being removed
/// needs only the accrual; a kept one goes through [`materialize`].
fn accrue(f: &mut Flow, clock: SimTime, cum: &mut [f64]) -> bool {
    if clock <= f.touched {
        return false;
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
            return true;
        }
    } else if f.rate_bps.is_infinite() {
        // Empty-path flow: delivered instantly, no link bytes.
        f.remaining_bytes = 0.0;
    }
    false
}

/// [`accrue`] a flow that stays live, pushing the heap entry of a drain
/// transition.
fn materialize(
    f: &mut Flow,
    id: FlowId,
    clock: SimTime,
    cum: &mut [f64],
    heap: &mut BinaryHeap<HeapEntry>,
) {
    if accrue(f, clock, cum) {
        heap.push(Reverse((f.finish_at, id, f.epoch)));
    }
}

/// Whether every link of `path` has capacity.
fn path_alive(capacities: &[f64], path: &[DirLink]) -> bool {
    path.iter().all(|&(l, _)| capacities[l.idx()] > 0.0)
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

/// Counters describing how much solving work the engine performed —
/// the observable for scoping regression tests and for benchmark
/// reporting. Monotone over the simulator's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Component-scoped re-solves, full or resumed.
    pub scoped_solves: u64,
    /// Of those, re-solves that resumed after departures and redid only
    /// the rounds the departures can change.
    pub resumed_solves: u64,
    /// Total flows rated across all solves (the work metric: a full
    /// solve of a k-flow component adds k, a resumed one the flows it
    /// re-rated).
    pub flows_rated: u64,
    /// Flows rated in closed form at their start because no other flow
    /// crossed any of their links (no solve; not in `flows_rated`).
    pub solo_rated: u64,
}

/// Reusable buffers for the component BFS — allocation-free at steady
/// state.
#[derive(Default)]
struct BfsScratch {
    /// BFS work stack of directed slots.
    queue: Vec<usize>,
    /// Visit stamp per directed slot (lazy reset via generation counter).
    link_stamp: Vec<u64>,
}

/// One solved flow set: the solver inputs and the workspace that solved
/// them (which keeps the rounds a resumed solve starts from).
#[derive(Default)]
struct Solved {
    /// Flat directed-slot arena (all solved paths back to back).
    flat: Vec<usize>,
    /// One span per solved flow, in ascending [`FlowId`] order.
    spans: Vec<FlowSpan>,
    /// Flow ids solved, ascending, parallel to `spans`.
    ids: Vec<FlowId>,
    ws: SolverWorkspace,
}

/// The live flows: a sliding window over ids for unparked ones, and a
/// side table for flows started parked.
///
/// Window slot `i` holds flow `base + i`. Ids are issued monotonically
/// and never reused, so a lookup is one subtraction and one index
/// (per-event validity checks dominate the hot path), and slot order is
/// ascending-id order, which is what every order-sensitive traversal
/// needs. A removed flow leaves a `None`; slots before `head` are all
/// `None` and are drained in bulk (see [`WINDOW_DRAIN_MIN`]), so memory
/// follows the span from the oldest live window flow to the newest.
///
/// A flow started across a dead link is kept in `side` until it ends,
/// even after it is unparked; its window slot is `None` from the start.
/// That empty slot never pins the window, so parked flows alone hold no
/// window memory, but while an older unparked flow pins the window each
/// one still takes a slot's space. `side` is empty in steady state.
#[derive(Default)]
struct FlowTable {
    window: Vec<Option<Flow>>,
    /// Id of `window[0]`.
    base: u64,
    /// Length of the all-`None` prefix of `window`.
    head: usize,
    /// Flows started parked, by id.
    side: BTreeMap<u64, Flow>,
    /// Number of live flows, window and side table together.
    n_live: usize,
}

impl FlowTable {
    /// Add flow `id`, the next id after every flow added so far.
    fn insert(&mut self, id: FlowId, f: Flow) {
        debug_assert_eq!(id.0, self.base + self.window.len() as u64);
        self.n_live += 1;
        if f.parked {
            self.window.push(None);
            self.side.insert(id.0, f);
            self.advance_head();
        } else {
            self.window.push(Some(f));
        }
    }

    /// Window slot of `id`, if the id falls inside the window.
    #[inline]
    fn index(&self, id: FlowId) -> Option<usize> {
        let i = id.0.checked_sub(self.base)? as usize;
        (i < self.window.len()).then_some(i)
    }

    #[inline]
    fn get(&self, id: FlowId) -> Option<&Flow> {
        match self.index(id).and_then(|i| self.window[i].as_ref()) {
            Some(f) => Some(f),
            None => self.side.get(&id.0),
        }
    }

    #[inline]
    fn get_mut(&mut self, id: FlowId) -> Option<&mut Flow> {
        match self.index(id) {
            Some(i) if self.window[i].is_some() => self.window[i].as_mut(),
            _ => self.side.get_mut(&id.0),
        }
    }

    /// Remove and return a live flow.
    fn take(&mut self, id: FlowId) -> Option<Flow> {
        let f = match self.index(id) {
            Some(i) if self.window[i].is_some() => {
                let f = self.window[i].take();
                if i == self.head {
                    self.advance_head();
                }
                f
            }
            _ => self.side.remove(&id.0),
        }?;
        self.n_live -= 1;
        Some(f)
    }

    /// Step `head` past leading empty slots; drain the empty prefix once
    /// it is long enough.
    fn advance_head(&mut self) {
        while self.head < self.window.len() && self.window[self.head].is_none() {
            self.head += 1;
        }
        if self.head >= WINDOW_DRAIN_MIN && 2 * self.head >= self.window.len() {
            self.window.drain(..self.head);
            self.base += self.head as u64;
            self.head = 0;
        }
    }

    /// Live flows in ascending id order: the window and the side table,
    /// merged.
    fn live(&self) -> impl Iterator<Item = (FlowId, &Flow)> {
        let first = self.base + self.head as u64;
        let mut window = self.window[self.head..]
            .iter()
            .enumerate()
            .filter_map(move |(i, f)| Some((FlowId(first + i as u64), f.as_ref()?)))
            .peekable();
        let mut side = self.side.iter().map(|(&id, f)| (FlowId(id), f)).peekable();
        std::iter::from_fn(move || match (window.peek(), side.peek()) {
            (Some(w), Some(s)) if s.0 < w.0 => side.next(),
            (Some(_), _) => window.next(),
            (None, _) => side.next(),
        })
    }
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
    flows: FlowTable,
    next_id: u64,
    clock: SimTime,
    /// Cumulative bytes delivered per directed link as of each flow's last
    /// materialization (index = link*2 + direction). Queries add the
    /// pending in-flight window on top — see
    /// [`SimNet::cumulative_bytes_dir`].
    cum_bytes: Vec<f64>,
    /// Which unparked flows cross each directed slot, ascending by id
    /// (ids are monotone, so a start is an append; an unparked flow is
    /// inserted in place).
    incidence: Vec<Vec<FlowId>>,
    dirty: bool,
    /// Directed slots touched by flow adds/removes (or a capacity change)
    /// since the last solve.
    seed_slots: Vec<usize>,
    /// Lazy-invalidation completion heap.
    heap: BinaryHeap<HeapEntry>,
    /// Generation counter for BFS visit stamps.
    visit_gen: u64,
    scratch: BfsScratch,
    /// The last fully solved component, kept so that departures from it
    /// resume its solve instead of redoing it (DESIGN.md §9).
    cache: Solved,
    /// `cache` holds the current rates of its flows, and the only changes
    /// to its links since its last solve are departures of its own flows
    /// (each recorded with [`SolverWorkspace::depart`]).
    cache_valid: bool,
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
            flows: FlowTable::default(),
            next_id: 0,
            clock: SimTime::ZERO,
            cum_bytes: vec![0.0; 2 * n],
            incidence: vec![Vec::new(); 2 * n],
            dirty: false,
            seed_slots: Vec::new(),
            heap: BinaryHeap::new(),
            visit_gen: 0,
            scratch: BfsScratch {
                link_stamp: vec![0; 2 * n],
                ..BfsScratch::default()
            },
            cache: Solved::default(),
            cache_valid: false,
            stats: SolveStats::default(),
            tracer: hs_obs::Tracer::noop(),
        }
    }

    /// Attach a tracer for flow start/abort and link-scale events.
    pub fn set_tracer(&mut self, tracer: &hs_obs::Tracer) {
        self.tracer = tracer.clone();
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
        self.flows.n_live
    }

    /// Start a unit-weight flow of `bytes` over the directed `path` at
    /// time `now`.
    pub fn start_flow(&mut self, now: SimTime, path: &[DirLink], bytes: u64, tag: u64) -> FlowId {
        self.start_weighted_flow(now, path, bytes, NonZeroU32::MIN, tag)
    }

    /// Start a flow with an explicit fair-share weight (used to model a
    /// collective step that opens several parallel streams).
    ///
    /// Weights are integers so that per-link weight sums are exact: a
    /// parked flow's weight, added and then removed by a solve that
    /// included it, would leave those sums bit-for-bit where they were,
    /// which is why leaving it out of the solve changes no rate.
    ///
    /// A flow with bytes to send whose path crosses a dead link is parked
    /// (see [`SimNet::set_link_scale`]). One whose links carry no other
    /// flow is rated here, in closed form, instead of by a solve.
    pub fn start_weighted_flow(
        &mut self,
        now: SimTime,
        path: &[DirLink],
        bytes: u64,
        weight: NonZeroU32,
        tag: u64,
    ) -> FlowId {
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
            parked: bytes > 0 && !path_alive(&self.capacities, path),
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
        if !f.parked {
            debug_assert!(
                path.iter()
                    .enumerate()
                    .all(|(i, &d)| !path[..i].contains(&d)),
                "a path crosses each directed link once"
            );
            let solo = !path.is_empty() && path.iter().all(|&d| self.incidence[slot(d)].is_empty());
            for &d in path {
                self.incidence[slot(d)].push(id);
            }
            if solo {
                // Its own max-min component: rate it now, no solve.
                let w = f64::from(weight.get());
                let rate = solo_rate(&self.dir_caps, path.iter().map(|&d| slot(d)), w);
                assign_rate(&mut f, id, rate, self.clock, &mut self.heap);
                self.stats.solo_rated += 1;
                self.invalidate_cache(path);
            } else {
                self.mark_changed(path);
            }
        }
        self.flows.insert(id, f);
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
        let drained = match self.flows.get_mut(id) {
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
        self.tracer.flow_abort(now, id.0, "cancelled");
        Some(f)
    }

    /// Inspect an active flow. `remaining_bytes` on the result is as of
    /// the flow's last materialization — use [`SimNet::flow_remaining`]
    /// for the value at the current clock.
    pub fn flow(&self, id: FlowId) -> Option<&Flow> {
        self.flows.get(id)
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
        if self.flows.n_live == 0 {
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
            accrue(&mut f, clock, &mut self.cum_bytes);
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
        Self::util(self.busier_rate(l.idx()), self.capacities[l.idx()])
    }

    /// Snapshot of all link utilizations (busier direction per link).
    pub fn utilization_snapshot(&mut self) -> Vec<f64> {
        self.solve_if_dirty();
        (0..self.capacities.len())
            .map(|i| Self::util(self.busier_rate(i), self.capacities[i]))
            .collect()
    }

    /// Allocated rate of link `i`'s busier direction, bits/s: each
    /// direction sums its flows' rates in ascending id order. Computed on
    /// query; nothing in the serving path reads it (the monitor reads byte
    /// counters).
    fn busier_rate(&self, i: usize) -> f64 {
        let dir = |s: usize| -> f64 {
            self.incidence[s]
                .iter()
                .map(|&id| self.flow_ref(id).rate_bps)
                .fold(0.0, |acc, r| acc + r)
        };
        dir(2 * i).max(dir(2 * i + 1))
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
            .map(|i| (self.capacities[i] - self.busier_rate(i)).max(0.0))
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
    ///
    /// When `factor` is zero the link is dead: every flow crossing it
    /// (either direction, parked or not) is aborted and returned in id
    /// order, with its progress accrued up to `now`, so the caller can
    /// retry over another route.
    ///
    /// Flows *started* across a dead link later are not rejected: they
    /// stall at rate 0 until the link recovers, which is how a
    /// fault-oblivious baseline behaves. One with bytes to send is
    /// *parked* — kept out of the incidence table, so no solve visits it.
    /// A solve that included it would freeze it at share 0 in its first
    /// round and leave every other rate bit-for-bit unchanged (DESIGN.md
    /// §9). When this call raises a link from zero, each parked flow whose
    /// whole path is now alive joins the incidence table, in id order,
    /// and is rated at the next query. Parked flows still count in
    /// [`SimNet::active_flow_count`] and can be cancelled.
    pub fn set_link_scale(&mut self, now: SimTime, l: LinkId, factor: f64) -> Vec<(FlowId, Flow)> {
        assert!(
            factor.is_finite() && (0.0..=1.0).contains(&factor),
            "link scale must be in [0, 1], got {factor}"
        );
        self.progress_to(now);
        let was_dead = self.capacities[l.idx()] <= 0.0;
        let cap = self.base_capacities[l.idx()] * factor;
        self.capacities[l.idx()] = cap;
        self.dir_caps[l.idx() * 2] = cap;
        self.dir_caps[l.idx() * 2 + 1] = cap;
        // Seed both directions: the scoped BFS pulls in exactly the
        // component(s) whose allocation the new capacity can affect.
        self.mark_changed(&[(l, false), (l, true)]);
        let crossing = |f: &Flow| f.path.iter().any(|&(fl, _)| fl == l);
        if factor > 0.0 {
            if was_dead && cap > 0.0 {
                self.unpark();
            }
            if self.tracer.is_enabled() {
                let rerated = self.flows.live().filter(|(_, f)| crossing(f)).count();
                self.tracer
                    .link_scale(now, l.idx() as u64, factor, rerated, 0);
            }
            return Vec::new();
        }
        // Window order is ascending-id order, which is what the abort
        // list and cum-byte accrual order (both observable) must follow.
        let doomed: Vec<FlowId> = self
            .flows
            .live()
            .filter(|(_, f)| crossing(f))
            .map(|(id, _)| id)
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
                accrue(&mut f, clock, &mut self.cum_bytes);
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
        self.flows.get(id).expect("id names a live flow")
    }

    /// Remove and return a live flow and, unless it is parked, drop it
    /// from the incidence table and seed its slots. A flow that shared no
    /// link and is not in the cache seeds nothing: its leaving changes no
    /// other rate.
    fn take_flow(&mut self, id: FlowId) -> Option<Flow> {
        let f = self.flows.take(id)?;
        if !f.parked {
            self.unlink(id, &f.path);
            let mut cached = false;
            if self.cache_valid {
                match self.cache.ids.binary_search(&id) {
                    Ok(fi) => {
                        let c = &mut self.cache;
                        c.ws.depart(&c.flat, &c.spans, fi);
                        cached = true;
                    }
                    // Only the cache's own flows cross its links: any
                    // other flow there invalidated it when it started or
                    // was unparked.
                    Err(_) => debug_assert!(!f.path.iter().any(|&d| self.cache.ws.covers(slot(d)))),
                }
            }
            // A cached departure seeds even when alone, so the resume it
            // recorded runs at this instant.
            if cached || f.path.iter().any(|&d| !self.incidence[slot(d)].is_empty()) {
                self.seed_path(&f.path);
            }
        }
        Some(f)
    }

    /// Move each parked flow whose whole path is alive into the incidence
    /// table, in id order, and seed its slots. Only the side table can
    /// hold parked flows.
    fn unpark(&mut self) {
        let mut woken = Vec::new();
        for (&id, f) in self.flows.side.iter_mut() {
            if !f.parked || !path_alive(&self.capacities, &f.path) {
                continue;
            }
            f.parked = false;
            for &d in &f.path {
                let v = &mut self.incidence[slot(d)];
                let at = v.partition_point(|&x| x.0 < id);
                v.insert(at, FlowId(id));
                woken.push(d);
            }
        }
        self.mark_changed(&woken);
    }

    /// Record a change on `path` other than a departure of a cached flow:
    /// its directed slots seed the next component-scoped re-solve, and a
    /// cache covering any of them can no longer be resumed.
    fn mark_changed(&mut self, path: &[DirLink]) {
        self.seed_path(path);
        self.invalidate_cache(path);
    }

    /// Drop the cache if it covers any of `path`'s slots: a flow other
    /// than its own now crosses its links (or their capacity moved).
    fn invalidate_cache(&mut self, path: &[DirLink]) {
        if self.cache_valid && path.iter().any(|&d| self.cache.ws.covers(slot(d))) {
            self.cache_valid = false;
        }
    }

    /// Seed the next component-scoped re-solve with `path`'s slots.
    fn seed_path(&mut self, path: &[DirLink]) {
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
            match self.flows.get(id) {
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
    /// If the last solved component has only lost flows since its solve,
    /// resume that solve from the earliest round a departed flow froze in
    /// (DESIGN.md §9). Then BFS the flow/link incidence graph from each
    /// remaining dirty seed and solve each reached component on its own.
    /// Flows on disjoint links keep their rates — sound because the
    /// weighted max-min allocation is unique and decomposes across
    /// connected components (DESIGN.md §9), which also makes
    /// per-component solves bitwise identical to solving their union. It
    /// keeps the solver's cost proportional to the largest touched
    /// component: water-filling freezes one bottleneck link per round, so
    /// a union of k disjoint components costs ~k× the rounds of its parts.
    fn solve_if_dirty(&mut self) {
        if self.heap.len() > 2 * self.flows.n_live + HEAP_COMPACT_SLACK {
            // Stale entries are skipped when they surface anyway, and the
            // valid ones keep their keys, so pop order is unchanged. Checked
            // at every query, not only after a solve: a cancelled lone flow
            // leaves a stale entry and seeds nothing.
            let flows = &self.flows;
            self.heap
                .retain(|&Reverse((_, id, ep))| flows.get(id).is_some_and(|f| f.epoch == ep));
        }
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.visit_gen += 1;
        if self.cache_valid && self.cache.ws.has_departures() {
            // The departures seeded the cache's links; the resume covers
            // them.
            for &s in self.cache.ws.links() {
                self.scratch.link_stamp[s] = self.visit_gen;
            }
            self.stats.scoped_solves += 1;
            self.stats.resumed_solves += 1;
            let c = &mut self.cache;
            c.ws.resume(&c.flat, &c.spans);
            self.install_solved();
        }
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
        self.seed_slots.clear();
    }

    /// BFS the connected component reachable from directed slot `seed`
    /// into `cache.ids` (ascending).
    fn collect_component(&mut self, seed: usize) {
        let gen = self.visit_gen;
        let scratch = &mut self.scratch;
        let ids = &mut self.cache.ids;
        scratch.queue.clear();
        ids.clear();
        scratch.link_stamp[seed] = gen;
        scratch.queue.push(seed);
        while let Some(s) = scratch.queue.pop() {
            for &fid in &self.incidence[s] {
                let f = self
                    .flows
                    .get_mut(fid)
                    .expect("incidence names a live flow");
                if f.seen == gen {
                    continue;
                }
                f.seen = gen;
                ids.push(fid);
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
        ids.sort_unstable();
    }

    /// Solve the flows in `cache.ids` (ascending, closed under link
    /// sharing), install each flow's new rate and keep the solve for
    /// resuming.
    fn solve_collected(&mut self) {
        let c = &mut self.cache;
        c.flat.clear();
        c.spans.clear();
        for &id in &c.ids {
            let f = self.flows.get(id).expect("solved flow is live");
            c.spans.push(FlowSpan {
                start: c.flat.len() as u32,
                len: f.path.len() as u32,
                weight: f64::from(f.weight.get()),
            });
            c.flat.extend(f.path.iter().map(|&d| slot(d)));
        }
        c.ws.solve(&self.dir_caps, &c.flat, &c.spans);
        self.cache_valid = true;
        self.install_solved();
    }

    /// Install the rates the cache's last solve or resume computed, in
    /// ascending id order (the order a full solve materializes in). Only
    /// a changed rate is a touch point.
    fn install_solved(&mut self) {
        let c = &self.cache;
        let rates = c.ws.rates();
        for &fi in c.ws.rerated() {
            let id = c.ids[fi as usize];
            let f = self.flows.get_mut(id).expect("solved flow is live");
            let rate = rates[fi as usize];
            if rate.to_bits() != f.rate_bps.to_bits() {
                materialize(f, id, self.clock, &mut self.cum_bytes, &mut self.heap);
                assign_rate(f, id, rate, self.clock, &mut self.heap);
            }
        }
        self.stats.flows_rated += c.ws.rerated().len() as u64;
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
        let three = NonZeroU32::new(3).unwrap();
        let heavy = net.start_weighted_flow(SimTime::ZERO, &fwd(&links[..1]), 1_000_000, three, 0);
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

    /// Start a flow and run the net until it completes; returns its id.
    fn run_one(net: &mut SimNet, path: &[DirLink], bytes: u64) -> FlowId {
        let id = net.start_flow(net.now(), path, bytes, 0);
        let t = net.next_event_time().unwrap();
        let done = net.advance_to(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, id);
        id
    }

    /// The flow window follows live flows: a long run of short flows keeps
    /// it small, a long-lived flow pins it, and that flow's completion
    /// releases it. Ids keep counting up throughout.
    #[test]
    fn flow_window_follows_live_flows() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let short = fwd(&links[..1]);
        for i in 0..100_000u64 {
            assert_eq!(run_one(&mut net, &short, 1_000), FlowId(i));
            assert!(
                net.flows.window.len() <= 2 * WINDOW_DRAIN_MIN,
                "window {}",
                net.flows.window.len()
            );
        }
        // A long flow on the other link pins the window while 5000 short
        // flows come and go beside it.
        let long = net.start_flow(net.now(), &fwd(&links[1..]), 1 << 40, 0);
        assert_eq!(long, FlowId(100_000));
        for _ in 0..5_000 {
            run_one(&mut net, &short, 1_000);
        }
        assert!(net.flows.window.len() > 5_000, "pinned by the long flow");
        assert_eq!(net.active_flow_count(), 1);
        assert_eq!(net.flow(long).unwrap().size_bytes, 1 << 40);
        let f = net.cancel_flow(net.now(), long).unwrap();
        assert_eq!(f.size_bytes, 1 << 40);
        assert!(
            net.flows.window.is_empty(),
            "window {}",
            net.flows.window.len()
        );
        assert!(net.flow(long).is_none());
        assert_eq!(run_one(&mut net, &short, 1_000), FlowId(105_001));
    }

    /// A departure resumes the last solve at the round the departed flow
    /// froze in: leaving from the last round re-rates only that round's
    /// other flows, leaving from the first re-rates every flow left.
    #[test]
    fn departure_resumes_from_its_freeze_round() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let t0 = SimTime::ZERO;
        let big = 1 << 30;
        let a = net.start_flow(t0, &fwd(&links[..1]), big, 0);
        let b = net.start_flow(t0, &fwd(&links[..1]), big, 1);
        net.start_flow(t0, &fwd(&links), big, 2);
        let d = net.start_flow(t0, &fwd(&links[1..]), big, 3);
        net.start_flow(t0, &fwd(&links[1..]), big, 4);
        net.start_flow(t0, &fwd(&links[1..]), big, 5);
        net.next_event_time();
        // Round 0 freezes the four flows on links[1] at 25 G; round 1 the
        // two on links[0] alone at 37.5 G.
        assert_eq!(net.flow(b).unwrap().rate_bps, 37.5e9);
        let s0 = net.solve_stats();
        net.cancel_flow(SimTime::from_micros(1), a);
        net.next_event_time();
        let s1 = net.solve_stats();
        assert_eq!(s1.scoped_solves - s0.scoped_solves, 1);
        assert_eq!(s1.resumed_solves - s0.resumed_solves, 1);
        assert_eq!(s1.flows_rated - s0.flows_rated, 1, "only b is re-rated");
        assert_eq!(net.flow(b).unwrap().rate_bps, 75e9);
        net.cancel_flow(SimTime::from_micros(2), d);
        net.next_event_time();
        let s2 = net.solve_stats();
        assert_eq!(s2.resumed_solves - s1.resumed_solves, 1);
        assert_eq!(
            s2.flows_rated - s1.flows_rated,
            4,
            "round 0 left: all four re-rated"
        );
        assert_eq!(net.flow(b).unwrap().rate_bps, 100e9 - 100e9 / 3.0);
    }

    /// Parked flows never pin the window: 3,000 of them wait out an
    /// outage beside 3,000 short flows, and the window stays as small as
    /// the short flows keep it. After recovery they drain from the side
    /// table.
    #[test]
    fn parked_flows_stay_out_of_the_window() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.set_link_scale(SimTime::ZERO, links[0], 0.0);
        for _ in 0..3_000 {
            net.start_flow(net.now(), &fwd(&links), 1_000, 0);
            run_one(&mut net, &fwd(&links[1..]), 1_000);
            assert!(net.flows.window.len() <= 2 * WINDOW_DRAIN_MIN);
        }
        assert_eq!(net.flows.side.len(), 3_000);
        assert_eq!(net.active_flow_count(), 3_000);
        net.set_link_scale(net.now(), links[0], 1.0);
        let done = net.advance_to(net.now() + SimSpan::from_secs(1));
        assert_eq!(done.len(), 3_000);
        assert!(net.flows.side.is_empty());
        assert_eq!(net.active_flow_count(), 0);
    }

    /// Rate churn pushes a heap entry per change of a long flow's rate,
    /// and a cancelled lone flow leaves its entry behind without a solve;
    /// compaction keeps the heap within twice the live flows plus
    /// [`HEAP_COMPACT_SLACK`] either way.
    #[test]
    fn completion_heap_stays_bounded_under_rate_churn() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let short = fwd(&links[1..]);
        let long = net.start_flow(SimTime::ZERO, &short, 1 << 40, 0);
        for _ in 0..10_000 {
            let id = net.start_flow(net.now(), &short, 1_000, 0);
            let t = net.next_event_time().unwrap();
            let done = net.advance_to(t);
            assert_eq!(done[0].0, id);
            assert!(net.heap.len() <= 2 * net.active_flow_count() + HEAP_COMPACT_SLACK);
        }
        net.cancel_flow(net.now(), long);
        // A lone flow on links[1] finishes first; larger lone flows on
        // links[0] come and go behind it, their entries never surfacing.
        net.start_flow(net.now(), &short, 1 << 30, 0);
        for _ in 0..10_000 {
            let id = net.start_flow(net.now(), &fwd(&links[..1]), 1 << 40, 0);
            net.next_event_time();
            assert!(net.heap.len() <= 2 * net.active_flow_count() + HEAP_COMPACT_SLACK);
            assert!(net.cancel_flow(net.now(), id).is_some());
        }
    }

    /// Flows started across a dead link are parked: neither their start
    /// nor churn on their other links rates them.
    #[test]
    fn parked_flows_cost_no_solver_work() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.set_link_scale(SimTime::ZERO, links[0], 0.0);
        net.next_event_time();
        let rated = net.solve_stats().flows_rated;
        for _ in 0..50 {
            net.start_flow(SimTime::ZERO, &fwd(&links), 1_000_000, 0);
        }
        assert_eq!(net.next_event_time(), Some(SimTime::MAX));
        assert_eq!(net.solve_stats().flows_rated, rated);
        // Ten short flows on links[1] alone: each is rated in closed form
        // at its start, and its completion seeds nothing.
        let solo = net.solve_stats().solo_rated;
        for _ in 0..10 {
            run_one(&mut net, &fwd(&links[1..]), 1_000);
        }
        assert_eq!(net.solve_stats().flows_rated, rated);
        assert_eq!(net.solve_stats().solo_rated, solo + 10);
        assert_eq!(net.active_flow_count(), 50);
        assert!(net.incidence.iter().all(Vec::is_empty));
    }

    /// Zero-byte flows are never parked: across a dead link one still
    /// completes after propagation alone.
    #[test]
    fn zero_byte_flow_across_dead_link_completes() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.set_link_scale(SimTime::ZERO, links[0], 0.0);
        let start = SimTime::from_micros(5);
        let id = net.start_flow(start, &fwd(&links), 0, 3);
        assert_eq!(net.next_event_time(), Some(start + SimSpan::from_micros(2)));
        let done = net.advance_to(SimTime::from_micros(10));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, id);
    }

    /// A parked flow is aborted with live flows, in id order, when another
    /// link on its path dies; a cancelled parked flow hands back all of
    /// its bytes.
    #[test]
    fn parked_flows_abort_and_cancel_like_live_ones() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let a = net.start_flow(SimTime::ZERO, &fwd(&links[1..]), 1_000_000, 0);
        net.set_link_scale(SimTime::from_micros(1), links[0], 0.0);
        let parked = net.start_flow(SimTime::from_micros(2), &fwd(&links), 1_000_000, 1);
        let cancelled = net.start_flow(SimTime::from_micros(2), &fwd(&links), 700_000, 2);
        let b = net.start_flow(SimTime::from_micros(3), &fwd(&links[1..]), 1_000_000, 3);
        assert!(net.flow(parked).unwrap().parked);
        let f = net.cancel_flow(SimTime::from_micros(4), cancelled).unwrap();
        assert_eq!(f.remaining_bytes, 700_000.0);
        assert_eq!(net.active_flow_count(), 3);
        let dead = net.set_link_scale(SimTime::from_micros(5), links[1], 0.0);
        let ids: Vec<FlowId> = dead.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![a, parked, b]);
        assert_eq!(dead[1].1.remaining_bytes, 1_000_000.0);
        assert_eq!(net.active_flow_count(), 0);
        assert_eq!(net.next_event_time(), None);
    }

    /// A parked flow stays parked while any link on its path is dead and
    /// joins the solve once the last one recovers.
    #[test]
    fn parked_flow_resumes_when_its_whole_path_recovers() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.set_link_scale(SimTime::ZERO, links[0], 0.0);
        net.set_link_scale(SimTime::ZERO, links[1], 0.0);
        let id = net.start_flow(SimTime::ZERO, &fwd(&links), 1_000_000, 0);
        net.set_link_scale(SimTime::from_micros(10), links[0], 1.0);
        assert_eq!(net.next_event_time(), Some(SimTime::MAX));
        assert!(net.flow(id).unwrap().parked);
        net.set_link_scale(SimTime::from_micros(20), links[1], 1.0);
        assert!(!net.flow(id).unwrap().parked);
        // 80 us of serialization plus 2 us of propagation from 20 us.
        let t = net.next_event_time().unwrap().as_micros_f64();
        assert!((t - 102.0).abs() < 0.5, "finish at {t} us");
    }

    /// A flow whose links carry no other flow is rated at its start in
    /// closed form, bit for bit the one-flow solve; a second flow on one
    /// of its links goes through the solver.
    #[test]
    fn solo_flow_skips_the_solver() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        net.set_link_scale(SimTime::ZERO, links[1], 0.25);
        net.next_event_time();
        let s0 = net.solve_stats();
        let three = NonZeroU32::new(3).unwrap();
        let path = fwd(&links);
        let a = net.start_weighted_flow(SimTime::ZERO, &path, 1_000_000, three, 0);
        assert!(!net.dirty && net.seed_slots.is_empty(), "no seeds");
        let s1 = net.solve_stats();
        assert_eq!(s1.solo_rated - s0.solo_rated, 1);
        assert_eq!(
            (s1.scoped_solves, s1.flows_rated),
            (s0.scoped_solves, s0.flows_rated)
        );
        let flat: Vec<usize> = path.iter().map(|&d| slot(d)).collect();
        let spans = [FlowSpan {
            start: 0,
            len: 2,
            weight: 3.0,
        }];
        let want = SolverWorkspace::new().solve(&net.dir_caps, &flat, &spans)[0];
        assert_eq!(net.flow(a).unwrap().rate_bps.to_bits(), want.to_bits());
        assert_eq!(want, 25e9);
        // 8e6 bits at 25 Gbps plus 2 us of propagation.
        let t = net.next_event_time().unwrap().as_micros_f64();
        assert!((t - 322.0).abs() < 0.5, "finish at {t} us");
        net.start_flow(SimTime::ZERO, &fwd(&links[..1]), 1_000_000, 1);
        net.next_event_time();
        let s2 = net.solve_stats();
        assert_eq!(s2.solo_rated, s1.solo_rated);
        assert_eq!(s2.scoped_solves - s1.scoped_solves, 1);
        assert_eq!(s2.flows_rated - s1.flows_rated, 2);
    }

    /// A lone flow that completes or is cancelled seeds nothing, and a
    /// completion leaves no heap entry behind.
    #[test]
    fn lone_departure_seeds_nothing() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let s0 = net.solve_stats();
        run_one(&mut net, &fwd(&links), 1_000_000);
        assert!(!net.dirty && net.seed_slots.is_empty());
        assert!(net.heap.is_empty(), "{} stale entries", net.heap.len());
        let id = net.start_flow(net.now(), &fwd(&links[..1]), 1_000_000, 0);
        assert!(net
            .cancel_flow(net.now() + SimSpan::from_micros(10), id)
            .is_some());
        assert!(!net.dirty && net.seed_slots.is_empty());
        assert_eq!(net.next_event_time(), None);
        let s1 = net.solve_stats();
        assert_eq!(s1.solo_rated - s0.solo_rated, 2);
        assert_eq!(
            (s1.scoped_solves, s1.flows_rated),
            (s0.scoped_solves, s0.flows_rated)
        );
    }

    /// The last flow of the cached component leaving alone still seeds,
    /// so its resume runs at that instant; a solo start on the cache's
    /// links then drops the cache.
    #[test]
    fn lone_departure_from_the_cache_still_resumes() {
        let (g, _, links) = line();
        let mut net = SimNet::new(&g);
        let a = net.start_flow(SimTime::ZERO, &fwd(&links), 1 << 30, 0);
        let b = net.start_flow(SimTime::ZERO, &fwd(&links[1..]), 1 << 30, 1);
        net.next_event_time();
        assert_eq!(net.cache.ids, vec![a, b]);
        net.cancel_flow(SimTime::from_micros(1), b);
        net.next_event_time();
        assert_eq!(net.flow(a).unwrap().rate_bps, 100e9);
        let s0 = net.solve_stats();
        net.cancel_flow(SimTime::from_micros(2), a);
        assert!(net.dirty, "a cached departure seeds even when alone");
        net.next_event_time();
        let s1 = net.solve_stats();
        assert_eq!(s1.resumed_solves - s0.resumed_solves, 1);
        assert!(net.cache_valid);
        net.start_flow(SimTime::from_micros(2), &fwd(&links[..1]), 1_000, 2);
        assert!(
            !net.cache_valid,
            "a solo start on a cached link drops the cache"
        );
    }
}
