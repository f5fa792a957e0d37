//! Incremental-engine equivalence suite.
//!
//! `SimNet` maintains fair-share rates incrementally: component-scoped
//! re-solves through a persistent workspace, a one-round aggregate tier
//! for single-bottleneck components, and a lazily-invalidated completion
//! heap (DESIGN.md §9/§12). The claim that buys is strong —
//! **bit-identical** behaviour to a from-scratch global solve at every
//! externally observable point. This suite enforces the claim three
//! ways:
//!
//! 1. `RefNet`, an independent reference simulator (global
//!    `compute_rates` solve per change, linear scans for completions,
//!    no incidence/heap/workspace state), is driven through arbitrary
//!    event sequences next to `SimNet`, asserting identical clocks,
//!    rates (bitwise), remaining bytes (bitwise), completion estimates,
//!    completion order, and cumulative per-direction link bytes after
//!    every operation.
//! 2. The same harness drives one production `SimNet` per
//!    [`SolveMode`]: the two-tier default, exact-only scoped solves, and
//!    global re-solves, pinning that every solve path of the production
//!    engine agrees with the others.
//! 3. A long fixed-seed pseudo-random run (2000 ops) covers depths the
//!    proptest case budget does not reach, and a dedicated congestion
//!    -onset proptest pins the aggregate-tier → exact-solver handoff.
//!
//! All simulators share one canonical contract: the completion estimate
//! is fixed when a flow's rate changes (or it drains) and never
//! recomputed in between, and progress accrues **lazily** — a flow's
//! stored bytes are materialized only at rate-change / cancel / abort /
//! completion touch points, with queries adding the pending in-flight
//! window purely. Touch points land at identical instants in every mode
//! (rates are bitwise equal), so the float operation sequences are
//! identical — which is exactly what the bitwise assertions verify.

#[path = "support/reference.rs"]
mod reference;

use hs_des::{SimSpan, SimTime};
use hs_simnet::{DirLink, SimNet, SolveMode};
use hs_topology::graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId};
use hs_topology::{Graph, LinkId};
use proptest::prelude::*;
use reference::{compute_rates, FlowDemand};
use std::collections::BTreeMap;

const N_LINKS: usize = 8;

/// Star topology: 8 GPUs on one switch, alternating 100 G / 40 G links
/// with varied latencies. Paths used in the tests are arbitrary directed
/// link subsets — the rate solver doesn't require contiguity, and subsets
/// exercise shared/disjoint component structure thoroughly.
fn star() -> (Graph, Vec<LinkId>) {
    let mut b = GraphBuilder::new();
    let sw = b.add_access_switch(true, "s");
    let links = (0..N_LINKS)
        .map(|i| {
            let g = b.add_gpu(ServerId(i as u32), 0, GpuSpec::a100_40g());
            let cap = if i % 2 == 0 {
                bandwidth::ETH_100G
            } else {
                bandwidth::ETH_100G * 0.4
            };
            b.add_link(g, sw, LinkKind::Ethernet, cap, 500 + 250 * i as u64)
        })
        .collect();
    (b.build(), links)
}

// ---------------------------------------------------------------------
// RefNet: the from-scratch reference simulator
// ---------------------------------------------------------------------

struct RFlow {
    path: Vec<DirLink>,
    /// Bytes left as of `touched` (lazy accrual, same contract as the
    /// production engine — see module docs).
    remaining: f64,
    rate: f64,
    weight: f64,
    prop: SimSpan,
    earliest_finish: SimTime,
    finish_at: SimTime,
    touched: SimTime,
    tag: u64,
}

struct RefNet {
    base: Vec<f64>,
    caps: Vec<f64>,
    latency_ns: Vec<u64>,
    flows: BTreeMap<u64, RFlow>,
    next_id: u64,
    clock: SimTime,
    cum: Vec<f64>,
    dirty: bool,
}

fn rslot(d: DirLink) -> usize {
    d.0.idx() * 2 + d.1 as usize
}

/// Pending in-flight bytes of `f` over `(touched, clock]` — the pure
/// mirror of `materialize`'s consumption arithmetic.
fn pending(f: &RFlow, clock: SimTime) -> f64 {
    if clock > f.touched && f.rate > 0.0 && f.rate.is_finite() && f.remaining > 0.0 {
        let dt = (clock - f.touched).as_secs_f64();
        (f.rate / 8.0 * dt).min(f.remaining)
    } else {
        0.0
    }
}

/// Accrue `f`'s progress up to `clock` (rate-change / cancel / abort /
/// completion touch points only).
fn materialize(f: &mut RFlow, clock: SimTime, cum: &mut [f64]) {
    if clock <= f.touched {
        return;
    }
    let base = f.touched;
    f.touched = clock;
    if f.rate > 0.0 && f.rate.is_finite() && f.remaining > 0.0 {
        let dt = (clock - base).as_secs_f64();
        let bytes = f.rate / 8.0 * dt;
        let consumed = bytes.min(f.remaining);
        if consumed >= f.remaining {
            let drain_secs = f.remaining * 8.0 / f.rate;
            let drained_at = base + SimSpan::from_secs_f64(drain_secs);
            f.earliest_finish = f.earliest_finish.max(drained_at + f.prop);
        }
        f.remaining -= consumed;
        if f.remaining < 1e-6 {
            f.remaining = 0.0;
        }
        for &d in &f.path {
            cum[rslot(d)] += consumed;
        }
        if f.remaining <= 0.0 {
            f.finish_at = f.earliest_finish;
        }
    } else if f.rate.is_infinite() {
        f.remaining = 0.0;
    }
}

impl RefNet {
    fn new(g: &Graph) -> Self {
        let caps = g.capacities();
        let latency_ns = g.links().map(|(_, l)| l.latency_ns).collect();
        let n = caps.len();
        RefNet {
            base: caps.clone(),
            caps,
            latency_ns,
            flows: BTreeMap::new(),
            next_id: 0,
            clock: SimTime::ZERO,
            cum: vec![0.0; 2 * n],
            dirty: false,
        }
    }

    fn serial_estimate(clock: SimTime, f: &RFlow) -> SimTime {
        if f.rate.is_infinite() {
            return f.earliest_finish;
        }
        if f.rate == 0.0 {
            return SimTime::MAX;
        }
        let secs = f.remaining * 8.0 / f.rate;
        let ser = clock + SimSpan::from_secs_f64(secs).saturating_add(SimSpan::from_nanos(1));
        (ser + f.prop).max(f.earliest_finish)
    }

    /// Global from-scratch solve with the canonical estimate rule: a
    /// flow is materialized and its estimate refreshed only when its
    /// rate *value* changes.
    fn solve(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let mut dir_caps = Vec::with_capacity(2 * self.caps.len());
        for &c in &self.caps {
            dir_caps.push(c);
            dir_caps.push(c);
        }
        let paths: Vec<Vec<usize>> = self
            .flows
            .values()
            .map(|f| f.path.iter().map(|&d| rslot(d)).collect())
            .collect();
        let demands: Vec<FlowDemand> = paths
            .iter()
            .zip(self.flows.values())
            .map(|(p, f)| FlowDemand {
                links: p,
                weight: f.weight,
            })
            .collect();
        let rates = compute_rates(&dir_caps, &demands);
        let clock = self.clock;
        for (f, &rate) in self.flows.values_mut().zip(rates.iter()) {
            if rate.to_bits() == f.rate.to_bits() {
                continue;
            }
            materialize(f, clock, &mut self.cum);
            f.rate = rate;
            if f.remaining > 0.0 {
                f.finish_at = Self::serial_estimate(clock, f);
            }
        }
    }

    /// Move the clock: under lazy accrual there is no per-flow work, but
    /// rates for the elapsed window must be solved at its start.
    fn progress_to(&mut self, t: SimTime) {
        if t <= self.clock {
            return;
        }
        self.solve();
        self.clock = t;
    }

    fn start_weighted_flow(
        &mut self,
        now: SimTime,
        path: &[DirLink],
        bytes: u64,
        weight: f64,
        tag: u64,
    ) -> u64 {
        self.progress_to(now);
        let id = self.next_id;
        self.next_id += 1;
        let prop_ns: u64 = path.iter().map(|&(l, _)| self.latency_ns[l.idx()]).sum();
        let prop = SimSpan::from_nanos(prop_ns);
        let mut f = RFlow {
            path: path.to_vec(),
            remaining: bytes as f64,
            rate: 0.0,
            weight,
            prop,
            earliest_finish: now + prop,
            finish_at: SimTime::MAX,
            touched: self.clock,
            tag,
        };
        if path.is_empty() {
            f.rate = f64::INFINITY;
        }
        if path.is_empty() || f.remaining <= 0.0 {
            f.finish_at = f.earliest_finish;
        }
        if !path.is_empty() {
            self.dirty = true;
        }
        self.flows.insert(id, f);
        id
    }

    fn cancel_flow(&mut self, now: SimTime, id: u64) -> bool {
        self.progress_to(now);
        let clock = self.clock;
        let drained = match self.flows.get_mut(&id) {
            None => return false,
            Some(f) => {
                materialize(f, clock, &mut self.cum);
                f.remaining <= 0.0 && !f.path.is_empty()
            }
        };
        if drained {
            return false;
        }
        self.flows.remove(&id);
        self.dirty = true;
        true
    }

    fn set_link_scale(&mut self, now: SimTime, l: LinkId, factor: f64) -> Vec<u64> {
        self.progress_to(now);
        self.caps[l.idx()] = self.base[l.idx()] * factor;
        self.dirty = true;
        if factor > 0.0 {
            return Vec::new();
        }
        let doomed: Vec<u64> = self
            .flows
            .iter()
            .filter(|(_, f)| f.path.iter().any(|&(fl, _)| fl == l))
            .map(|(&id, _)| id)
            .collect();
        let clock = self.clock;
        for id in &doomed {
            let mut f = self.flows.remove(id).expect("doomed flow present");
            materialize(&mut f, clock, &mut self.cum);
        }
        doomed
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.solve();
        self.flows
            .values()
            .map(|f| f.finish_at)
            .min()
            .map(|t| t.max(self.clock))
    }

    fn advance_to(&mut self, now: SimTime) -> Vec<(u64, u64)> {
        assert!(now >= self.clock);
        let mut done = Vec::new();
        loop {
            self.solve();
            let front = self.flows.iter().map(|(&id, f)| (f.finish_at, id)).min();
            let Some((t, id)) = front else { break };
            if t > now {
                break;
            }
            // A cascade solve can finalize a drained flow retroactively;
            // the clock never moves backwards.
            self.clock = self.clock.max(t);
            let clock = self.clock;
            let mut f = self.flows.remove(&id).expect("front flow is live");
            materialize(&mut f, clock, &mut self.cum);
            done.push((id, f.tag));
            self.dirty = true;
        }
        self.progress_to(now);
        done
    }

    /// Pure remaining-bytes view at the current clock (mirror of
    /// [`SimNet::flow_remaining`]).
    fn flow_remaining(&self, id: u64) -> Option<f64> {
        let f = self.flows.get(&id)?;
        if f.rate.is_infinite() && self.clock > f.touched {
            return Some(0.0);
        }
        let mut rem = f.remaining - pending(f, self.clock);
        if rem < 1e-6 {
            rem = 0.0;
        }
        Some(rem)
    }

    /// Pure cumulative-bytes view: materialized counter plus every
    /// crossing flow's pending window in ascending flow-id order (the
    /// same summation order the production engine's incidence lists
    /// give).
    fn cumulative_bytes_dir(&self, l: LinkId, fwd: bool) -> f64 {
        let s = l.idx() * 2 + fwd as usize;
        let mut total = self.cum[s];
        for f in self.flows.values() {
            if f.path.iter().any(|&d| rslot(d) == s) {
                total += pending(f, self.clock);
            }
        }
        total
    }
}

// ---------------------------------------------------------------------
// Harness driving RefNet + one SimNet per SolveMode in lock-step
// ---------------------------------------------------------------------

/// One step of a scenario, decoded from an integer tuple (the vendored
/// proptest has no `prop_oneof`, so op choice is data).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Start a flow over the directed-link subset given by the two masks.
    Start {
        link_mask: u8,
        dir_mask: u8,
        bytes: u64,
        weight_q: u8,
    },
    /// Advance all nets by `dt_us`.
    Advance { dt_us: u64 },
    /// Cancel the `k % issued`-th flow ever started.
    Cancel { k: usize },
    /// Scale link `l % N_LINKS` to `[0.0, 0.25, 0.5, 1.0][q % 4]`.
    Scale { l: usize, q: usize },
    /// Advance exactly to the next completion (if any, capped at 10 ms).
    AdvanceToNext,
}

fn decode(raw: (u8, u64, u64, u64)) -> Op {
    let (kind, a, b, c) = raw;
    match kind % 5 {
        0 => Op::Start {
            link_mask: (a & 0xff) as u8,
            dir_mask: (b & 0xff) as u8,
            bytes: c % 5_000_000,
            weight_q: (b >> 8) as u8,
        },
        1 => Op::Advance { dt_us: b % 300 },
        2 => Op::Cancel { k: a as usize },
        3 => Op::Scale {
            l: a as usize,
            q: b as usize,
        },
        _ => Op::AdvanceToNext,
    }
}

struct Harness {
    links: Vec<LinkId>,
    refnet: RefNet,
    inc: SimNet,
    full: SimNet,
    /// Scoped solves with the aggregate tier off: every component goes
    /// through the exact solver.
    exact: SimNet,
    issued: Vec<u64>,
    now: SimTime,
    /// Completion log (id, tag) per net, appended in delivery order.
    done_ref: Vec<(u64, u64)>,
    done_inc: Vec<(u64, u64)>,
    done_full: Vec<(u64, u64)>,
    done_exact: Vec<(u64, u64)>,
}

impl Harness {
    fn new() -> Self {
        let (g, links) = star();
        let refnet = RefNet::new(&g);
        let inc = SimNet::new(&g);
        let mut full = SimNet::new(&g);
        full.set_solve_mode(SolveMode::FullResolve);
        let mut exact = SimNet::new(&g);
        exact.set_solve_mode(SolveMode::ExactOnly);
        Harness {
            links,
            refnet,
            inc,
            full,
            exact,
            issued: Vec::new(),
            now: SimTime::ZERO,
            done_ref: Vec::new(),
            done_inc: Vec::new(),
            done_full: Vec::new(),
            done_exact: Vec::new(),
        }
    }

    fn path(&self, link_mask: u8, dir_mask: u8) -> Vec<DirLink> {
        (0..N_LINKS)
            .filter(|i| link_mask & (1 << i) != 0)
            .map(|i| (self.links[i], dir_mask & (1 << i) != 0))
            .collect()
    }

    fn apply(&mut self, op: Op) {
        match op {
            Op::Start {
                link_mask,
                dir_mask,
                bytes,
                weight_q,
            } => {
                let path = self.path(link_mask, dir_mask);
                let w = 1.0 + (weight_q % 4) as f64;
                let rid = self
                    .refnet
                    .start_weighted_flow(self.now, &path, bytes, w, bytes);
                for net in [&mut self.inc, &mut self.full, &mut self.exact] {
                    let id = net.start_weighted_flow(self.now, &path, bytes, w, bytes);
                    assert_eq!(rid, id.0);
                }
                self.issued.push(rid);
            }
            Op::Advance { dt_us } => {
                self.now += SimSpan::from_micros(dt_us);
                self.advance_all(self.now);
            }
            Op::Cancel { k } => {
                if self.issued.is_empty() {
                    return;
                }
                let id = self.issued[k % self.issued.len()];
                let r = self.refnet.cancel_flow(self.now, id);
                for (label, net) in [
                    ("incremental", &mut self.inc),
                    ("full", &mut self.full),
                    ("exact", &mut self.exact),
                ] {
                    let got = net.cancel_flow(self.now, hs_simnet::FlowId(id)).is_some();
                    assert_eq!(r, got, "cancel({id}) outcome diverged ({label})");
                }
            }
            Op::Scale { l, q } => {
                let link = self.links[l % N_LINKS];
                let factor = [0.0, 0.25, 0.5, 1.0][q % 4];
                let mut r = self.refnet.set_link_scale(self.now, link, factor);
                r.sort_unstable();
                for (label, net) in [
                    ("incremental", &mut self.inc),
                    ("full", &mut self.full),
                    ("exact", &mut self.exact),
                ] {
                    let mut got: Vec<u64> = net
                        .set_link_scale(self.now, link, factor)
                        .into_iter()
                        .map(|(id, _)| id.0)
                        .collect();
                    got.sort_unstable();
                    assert_eq!(r, got, "aborted set diverged ({label})");
                }
            }
            Op::AdvanceToNext => {
                let next = self.refnet.next_event_time();
                let cap = self.now + SimSpan::from_millis(10);
                let target = match next {
                    Some(t) if t < SimTime::MAX => t.min(cap),
                    _ => return,
                };
                self.now = target.max(self.now);
                self.advance_all(self.now);
            }
        }
        self.check();
    }

    fn advance_all(&mut self, t: SimTime) {
        self.done_ref.extend(self.refnet.advance_to(t));
        self.done_inc.extend(
            self.inc
                .advance_to(t)
                .into_iter()
                .map(|(id, f)| (id.0, f.tag)),
        );
        self.done_full.extend(
            self.full
                .advance_to(t)
                .into_iter()
                .map(|(id, f)| (id.0, f.tag)),
        );
        self.done_exact.extend(
            self.exact
                .advance_to(t)
                .into_iter()
                .map(|(id, f)| (id.0, f.tag)),
        );
    }

    /// Full bitwise state comparison across the four simulators.
    fn check(&mut self) {
        assert_eq!(self.done_ref, self.done_inc, "completion log (incremental)");
        assert_eq!(self.done_ref, self.done_full, "completion log (full)");
        assert_eq!(self.done_ref, self.done_exact, "completion log (exact)");
        let nref = self.refnet.next_event_time();
        assert_eq!(nref, self.inc.next_event_time(), "next_event (incremental)");
        assert_eq!(nref, self.full.next_event_time(), "next_event (full)");
        assert_eq!(nref, self.exact.next_event_time(), "next_event (exact)");
        for (label, net) in [
            ("incremental", &self.inc),
            ("full", &self.full),
            ("exact", &self.exact),
        ] {
            assert_eq!(
                self.refnet.flows.len(),
                net.active_flow_count(),
                "flow count ({label})"
            );
            for &id in &self.issued {
                let r = self.refnet.flows.get(&id);
                let s = net.flow(hs_simnet::FlowId(id));
                assert_eq!(r.is_some(), s.is_some(), "liveness of flow {id} ({label})");
                let (Some(r), Some(s)) = (r, s) else { continue };
                assert_eq!(
                    r.rate.to_bits(),
                    s.rate_bps.to_bits(),
                    "rate of flow {id} ({label})"
                );
                let r_rem = self.refnet.flow_remaining(id).expect("live");
                let s_rem = net.flow_remaining(hs_simnet::FlowId(id)).expect("live");
                assert_eq!(
                    r_rem.to_bits(),
                    s_rem.to_bits(),
                    "remaining of flow {id} ({label})"
                );
                assert_eq!(r.finish_at, s.finish_at(), "finish of flow {id} ({label})");
            }
            for (li, &l) in self.links.iter().enumerate() {
                for fwd in [false, true] {
                    let r = self.refnet.cumulative_bytes_dir(l, fwd);
                    assert_eq!(
                        r.to_bits(),
                        net.cumulative_bytes_dir(l, fwd).to_bits(),
                        "cum bytes link {li} fwd={fwd} ({label})"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

/// Deterministic scenario hitting every op kind, including a fault and a
/// recovery, with completions interleaved.
#[test]
fn fixed_scenario_equivalence() {
    let mut h = Harness::new();
    let ops = [
        (0u8, 0b0000_0011u64, 0b0000_0001u64, 2_000_000u64),
        (0, 0b0000_0110, 0x0207, 1_000_000),
        (0, 0b1100_0000, 0, 500_000),
        (1, 0, 120, 0),
        (0, 0, 0, 64),               // empty path
        (0, 0b0000_0001, 0x0100, 0), // zero bytes
        (4, 0, 0, 0),
        (3, 1, 1, 0), // link 1 -> 25 %
        (1, 0, 200, 0),
        (2, 1, 0, 0),
        (3, 1, 0, 0), // link 1 dead
        (1, 0, 150, 0),
        (3, 1, 3, 0), // link 1 recovered
        (4, 0, 0, 0),
        (1, 0, 280, 0),
        (4, 0, 0, 0),
        (4, 0, 0, 0),
    ];
    for raw in ops {
        h.apply(decode(raw));
    }
    // Drain everything still running.
    h.apply(decode((1, 0, 299, 0)));
    h.apply(decode((1, 0, 299, 0)));
}

/// Fixed aggregate→exact handoff scenario: a single-bottleneck phase
/// (settled by the one-round aggregate tier), then a congestion onset
/// where a degraded second link saturates (exact-solver handoff), then
/// recovery back to the fast path — equal to the reference throughout.
#[test]
fn aggregate_handoff_fixed_scenario() {
    let mut h = Harness::new();
    // Phase 1: three flows share link 0 only — one bottleneck.
    for bytes in [2_000_000u64, 3_000_000, 4_000_000] {
        h.apply(Op::Start {
            link_mask: 0b0000_0001,
            dir_mask: 0xff,
            bytes,
            weight_q: 0,
        });
    }
    h.apply(Op::Advance { dt_us: 50 });
    let before = h.inc.solve_stats();
    assert!(before.aggregate_solves > 0, "fast path engaged: {before:?}");
    // Phase 2: degrade link 1 to 25% and route flows across links 0+1 —
    // both links saturate at different shares, forcing handoff.
    h.apply(Op::Scale { l: 1, q: 1 });
    h.apply(Op::Start {
        link_mask: 0b0000_0011,
        dir_mask: 0xff,
        bytes: 4_000_000,
        weight_q: 1,
    });
    h.apply(Op::Start {
        link_mask: 0b0000_0010,
        dir_mask: 0xff,
        bytes: 4_000_000,
        weight_q: 0,
    });
    h.apply(Op::Advance { dt_us: 80 });
    let mid = h.inc.solve_stats();
    assert!(
        mid.scoped_solves - mid.aggregate_solves > before.scoped_solves - before.aggregate_solves,
        "congestion onset must hand off to the exact solver: {mid:?}"
    );
    // Phase 3: recovery and drain — equivalence holds at every step (the
    // harness checks after each op).
    h.apply(Op::Scale { l: 1, q: 3 });
    for _ in 0..6 {
        h.apply(Op::AdvanceToNext);
    }
    h.apply(Op::Advance { dt_us: 299 });
}

/// Long fixed-seed pseudo-random run (xorshift, no OS entropy): depth the
/// proptest case budget cannot reach, still fully deterministic.
#[test]
fn long_random_run_equivalence() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut h = Harness::new();
    for _ in 0..2000 {
        let raw = (
            (next() & 0xff) as u8,
            next() & 0xffff,
            next() & 0xffff,
            next() % 5_000_000,
        );
        h.apply(decode(raw));
    }
}

proptest! {
    /// ISSUE 5 acceptance property: arbitrary add/cancel/advance/scale
    /// sequences produce identical rates, completion order, and
    /// cumulative link bytes through the incremental engine, the
    /// forced-full-resolve engine, the exact-only engine, and the
    /// from-scratch reference.
    #[test]
    fn arbitrary_sequences_are_bit_identical(
        raw_ops in proptest::collection::vec(
            (0u8..16, 0u64..65_536, 0u64..65_536, 0u64..6_000_000),
            1..60,
        )
    ) {
        let mut h = Harness::new();
        for raw in raw_ops {
            h.apply(decode(raw));
        }
        // Settle: everything still live must complete identically too.
        for _ in 0..4 {
            h.apply(Op::AdvanceToNext);
            h.apply(Op::Advance { dt_us: 299 });
        }
    }

    /// ISSUE 7 acceptance property: the aggregate-tier → exact-solver
    /// handoff is bit-transparent at *random congestion onsets*. An
    /// uncongested single-bottleneck phase runs on the fast path, then a
    /// randomly timed and sized degradation of a second shared link
    /// forces (for low factors) the exact solver — state must match the
    /// reference before, across, and after the onset.
    #[test]
    fn aggregate_handoff_at_random_congestion_onset(
        onset_us in 1u64..200,
        factor_q in 0usize..3,
        n_flows in 2usize..6,
        bytes in 200_000u64..4_000_000,
        extra_us in 1u64..250,
    ) {
        let mut h = Harness::new();
        // Uncongested: n flows share link 0 only (single bottleneck,
        // aggregate tier) plus one crossing links 0+1 (link 1 at full
        // capacity stays unsaturated: 40G vs the 100G bottleneck share).
        for k in 0..n_flows {
            h.apply(Op::Start {
                link_mask: 0b0000_0001,
                dir_mask: 0xff,
                bytes: bytes + 10_000 * k as u64,
                weight_q: (k % 3) as u8,
            });
        }
        h.apply(Op::Start {
            link_mask: 0b0000_0011,
            dir_mask: 0xff,
            bytes,
            weight_q: 0,
        });
        h.apply(Op::Advance { dt_us: onset_us });
        prop_assert!(h.inc.solve_stats().aggregate_solves > 0);
        // Congestion onset: link 1 drops to 0/25/50 % — for any factor
        // low enough the two-link flow's share pins link 1 as a second
        // bottleneck and the scoped solve hands off to the exact path.
        h.apply(Op::Scale { l: 1, q: factor_q });
        h.apply(Op::Advance { dt_us: extra_us });
        // Recovery and drain.
        h.apply(Op::Scale { l: 1, q: 3 });
        for _ in 0..4 {
            h.apply(Op::AdvanceToNext);
            h.apply(Op::Advance { dt_us: 299 });
        }
    }
}
