//! Incremental-engine equivalence suite.
//!
//! `SimNet` maintains fair-share rates incrementally: component-scoped
//! re-solves through a persistent workspace, parked flows and an
//! indexed completion heap (DESIGN.md §9/§12). The claim that
//! buys is strong — **bit-identical** behaviour to a from-scratch global
//! solve at every externally observable point. This suite enforces the
//! claim three ways:
//!
//! 1. `RefNet`, an independent reference simulator (global
//!    `compute_rates` solve per change, linear scans for completions,
//!    no incidence/heap/workspace state), is driven through arbitrary
//!    event sequences next to `SimNet`, asserting identical clocks,
//!    rates (bitwise), remaining bytes (bitwise), completion estimates,
//!    completion order, and cumulative per-direction link bytes after
//!    every operation. Batched variants of the random tests skip the comparison
//!    after a random subset of ops, so those ops' changes reach one
//!    solve together with the next op's.
//! 2. After every operation the rates `SimNet` installed are feasible:
//!    no directed link carries more than its current capacity, and every
//!    flow crossing a dead link has rate 0.
//! 3. A long fixed-seed pseudo-random run (2000 ops) covers depths the
//!    proptest case budget does not reach, congestion-onset scenarios
//!    (fixed and proptest) move a component from one bottleneck to two
//!    and back, and outage scenarios park flows behind a dead link and
//!    drain them after recovery, which exercises resumed re-solves.
//!    Lone-flow mixes start and end flows alone on their links (rated in
//!    closed form, with no solve) beside a cached contended component.
//!
//! Both simulators share one canonical contract: the completion estimate
//! is fixed when a flow's rate changes (or it drains) and never
//! recomputed in between, and progress accrues **lazily** — a flow's
//! stored bytes are materialized only at rate-change / cancel / abort /
//! completion touch points, with queries adding the pending in-flight
//! window purely. Touch points land at identical instants in both (rates
//! are bitwise equal), so the float operation sequences are identical —
//! which is exactly what the bitwise assertions verify.

#[path = "support/reference.rs"]
mod reference;

use hs_des::{SimSpan, SimTime};
use hs_simnet::{DirLink, FlowId, Route, SimNet};
use hs_topology::graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId};
use hs_topology::{Graph, LinkId};
use proptest::prelude::*;
use reference::compute_rates;
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
        let rates = compute_rates(&dir_caps, &paths);
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

    fn start_flow(&mut self, now: SimTime, path: &[DirLink], bytes: u64, tag: u64) -> u64 {
        self.progress_to(now);
        let id = self.next_id;
        self.next_id += 1;
        let prop_ns: u64 = path.iter().map(|&(l, _)| self.latency_ns[l.idx()]).sum();
        let prop = SimSpan::from_nanos(prop_ns);
        let mut f = RFlow {
            path: path.to_vec(),
            remaining: bytes as f64,
            rate: 0.0,
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
// Harness driving RefNet and SimNet in lock-step
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
    net: SimNet,
    issued: Vec<u64>,
    now: SimTime,
    /// Completion log (id, tag) per simulator, appended in delivery order.
    done_ref: Vec<(u64, u64)>,
    done_net: Vec<(u64, u64)>,
}

impl Harness {
    fn new() -> Self {
        let (g, links) = star();
        Harness {
            links,
            refnet: RefNet::new(&g),
            net: SimNet::new(&g),
            issued: Vec::new(),
            now: SimTime::ZERO,
            done_ref: Vec::new(),
            done_net: Vec::new(),
        }
    }

    fn path(&self, link_mask: u8, dir_mask: u8) -> Route {
        (0..N_LINKS)
            .filter(|i| link_mask & (1 << i) != 0)
            .map(|i| (self.links[i], dir_mask & (1 << i) != 0))
            .collect()
    }

    /// Apply `op` to both simulators, then compare them.
    fn apply(&mut self, op: Op) {
        self.step(op);
        self.check();
    }

    /// Apply `op` to both simulators without querying them, so the next
    /// query solves its changes together with the ones that follow.
    fn step(&mut self, op: Op) {
        match op {
            Op::Start {
                link_mask,
                dir_mask,
                bytes,
            } => {
                let path = self.path(link_mask, dir_mask);
                let rid = self.refnet.start_flow(self.now, &path, bytes, bytes);
                let id = self.net.start_flow(self.now, &path, bytes, bytes);
                assert_eq!(rid, id.0);
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
                let got = self.net.cancel_flow(self.now, FlowId(id)).is_some();
                assert_eq!(r, got, "cancel({id}) outcome diverged");
            }
            Op::Scale { l, q } => {
                let link = self.links[l % N_LINKS];
                let factor = [0.0, 0.25, 0.5, 1.0][q % 4];
                let mut r = self.refnet.set_link_scale(self.now, link, factor);
                r.sort_unstable();
                let mut got: Vec<u64> = self
                    .net
                    .set_link_scale(self.now, link, factor)
                    .into_iter()
                    .map(|(id, _)| id.0)
                    .collect();
                got.sort_unstable();
                assert_eq!(r, got, "aborted set diverged");
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
    }

    fn advance_all(&mut self, t: SimTime) {
        self.done_ref.extend(self.refnet.advance_to(t));
        let mut done = Vec::new();
        self.net.advance_to(t, &mut done);
        self.done_net
            .extend(done.into_iter().map(|(id, f)| (id.0, f.tag)));
    }

    /// Full bitwise state comparison against the reference, plus
    /// feasibility of the installed rates.
    fn check(&mut self) {
        assert_eq!(self.done_ref, self.done_net, "completion log");
        let nref = self.refnet.next_event_time();
        assert_eq!(nref, self.net.next_event_time(), "next_event");
        let net = &self.net;
        assert_eq!(
            self.refnet.flows.len(),
            net.active_flow_count(),
            "flow count"
        );
        // Allocated rate per directed slot, summed over live flows.
        let mut load = vec![0.0f64; 2 * self.refnet.caps.len()];
        for &id in &self.issued {
            let r = self.refnet.flows.get(&id);
            let s = net.flow(FlowId(id));
            assert_eq!(r.is_some(), s.is_some(), "liveness of flow {id}");
            let (Some(r), Some(s)) = (r, s) else { continue };
            assert_eq!(r.rate.to_bits(), s.rate_bps.to_bits(), "rate of flow {id}");
            let r_rem = self.refnet.flow_remaining(id).expect("live");
            let s_rem = net.flow_remaining(FlowId(id)).expect("live");
            assert_eq!(r_rem.to_bits(), s_rem.to_bits(), "remaining of flow {id}");
            assert_eq!(r.finish_at, s.finish_at(), "finish of flow {id}");
            for &d in s.path.iter() {
                load[rslot(d)] += s.rate_bps;
                if net.capacity(d.0) <= 0.0 {
                    assert_eq!(s.rate_bps, 0.0, "flow {id} moves across dead link {d:?}");
                }
            }
        }
        for (s, &used) in load.iter().enumerate() {
            let cap = net.capacity(LinkId((s / 2) as u32));
            assert!(
                used <= cap * (1.0 + 1e-9),
                "slot {s} oversubscribed: {used} > {cap}"
            );
        }
        for (li, &l) in self.links.iter().enumerate() {
            for fwd in [false, true] {
                let r = self.refnet.cumulative_bytes_dir(l, fwd);
                assert_eq!(
                    r.to_bits(),
                    net.cumulative_bytes_dir(l, fwd).to_bits(),
                    "cum bytes link {li} fwd={fwd}"
                );
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

/// Fixed congestion-onset scenario: a single-bottleneck phase, then a
/// degraded second link saturates, then recovery back to one bottleneck
/// — equal to the reference throughout.
#[test]
fn congestion_onset_fixed_scenario() {
    let mut h = Harness::new();
    // Phase 1: three flows share link 0 only — one bottleneck.
    for bytes in [2_000_000u64, 3_000_000, 4_000_000] {
        h.apply(Op::Start {
            link_mask: 0b0000_0001,
            dir_mask: 0xff,
            bytes,
        });
    }
    h.apply(Op::Advance { dt_us: 50 });
    // Phase 2: degrade link 1 to 25% and route flows across links 0+1 —
    // both links saturate at different shares.
    h.apply(Op::Scale { l: 1, q: 1 });
    h.apply(Op::Start {
        link_mask: 0b0000_0011,
        dir_mask: 0xff,
        bytes: 4_000_000,
    });
    h.apply(Op::Start {
        link_mask: 0b0000_0010,
        dir_mask: 0xff,
        bytes: 4_000_000,
    });
    h.apply(Op::Advance { dt_us: 80 });
    // Phase 3: recovery and drain — equivalence holds at every step (the
    // harness checks after each op).
    h.apply(Op::Scale { l: 1, q: 3 });
    for _ in 0..6 {
        h.apply(Op::AdvanceToNext);
    }
    h.apply(Op::Advance { dt_us: 299 });
}

/// Fixed outage scenario: a shared link dies, 240 flows start across it
/// (parked in the production engine) while live flows churn on their
/// other links and a brownout moves those links' rates, some parked flows
/// are cancelled, a few zero-byte ones complete and a second link dies
/// and recovers; then the shared link recovers and everything drains —
/// equal to the reference throughout.
#[test]
fn outage_fixed_scenario() {
    let mut h = Harness::new();
    // Live flows on the shared link 0 when it dies are aborted.
    for i in 0..4u8 {
        h.apply(Op::Start {
            link_mask: 0b0000_0001 | (2 << i),
            dir_mask: 0xff,
            bytes: 3_000_000,
        });
    }
    h.apply(Op::Advance { dt_us: 20 });
    h.apply(Op::Scale { l: 0, q: 0 });
    for i in 0..240u64 {
        let other = 1 + (i % 7) as u8;
        if i % 10 == 3 {
            // Cancel a parked flow started a few iterations ago.
            h.apply(Op::Cancel {
                k: h.issued.len() - 2,
            });
        }
        h.apply(Op::Start {
            link_mask: 0b0000_0001 | (1 << other) | if i % 4 == 0 { 1 << (8 - other) } else { 0 },
            dir_mask: (i * 37) as u8,
            bytes: if i % 25 == 0 { 0 } else { 20_000 + 7_919 * i },
        });
        if i % 3 == 0 {
            // Live churn on the parked flows' other links.
            h.apply(Op::Start {
                link_mask: 1 << other,
                dir_mask: 0xff,
                bytes: 50_000 + 1_000 * i,
            });
        }
        match i % 5 {
            0 => h.apply(Op::AdvanceToNext),
            2 => h.apply(Op::Advance { dt_us: 5 + i % 40 }),
            _ => {}
        }
        match i {
            120 => h.apply(Op::Scale { l: 3, q: 1 }),
            // A second link dies and recovers mid-outage: it aborts the
            // parked flows crossing it, and flows started meanwhile wait
            // on both links.
            180 => h.apply(Op::Scale { l: 5, q: 0 }),
            200 => h.apply(Op::Scale { l: 5, q: 3 }),
            _ => {}
        }
    }
    assert!(h.refnet.flows.len() > 150, "flows wait out the outage");
    h.apply(Op::Scale { l: 3, q: 3 });
    h.apply(Op::Scale { l: 0, q: 3 });
    for _ in 0..1_000 {
        if h.refnet.flows.is_empty() {
            break;
        }
        h.apply(Op::AdvanceToNext);
    }
    assert!(h.refnet.flows.is_empty(), "outage scenario drains");
}

/// Long-outage scenario: 1,200 flows park behind dead link 0, each over
/// link 0 and one to three of the other seven links, so the component
/// that returns at recovery freezes in several rounds: 927 of the drain's
/// 1,201 resumed re-solves start after round 0, the deepest at round 4.
/// It drains one completion at a time — a resumed re-solve after each
/// departure. Mid-drain come a start, a cancel, a cancel and a start
/// between two queries, and a brownout; all but the lone cancel force a
/// full solve. Equal to the reference throughout.
#[test]
fn long_outage_drain_scenario() {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut h = Harness::new();
    h.apply(Op::Scale { l: 0, q: 0 });
    for i in 0..1_200u64 {
        let r = next();
        let mut mask = 1u8;
        for k in 0..1 + r % 3 {
            mask |= 2 << ((r >> (8 + 3 * k)) % 7);
        }
        h.apply(Op::Start {
            link_mask: mask,
            dir_mask: (r >> 20) as u8,
            bytes: 20_000 + (r >> 32) % 400_000,
        });
        if i % 200 == 0 {
            h.apply(Op::Advance { dt_us: 7 });
        }
    }
    assert_eq!(
        h.refnet.flows.len(),
        1_200,
        "every flow waits out the outage"
    );
    h.apply(Op::Scale { l: 0, q: 3 });
    for step in 0..5_000 {
        if h.refnet.flows.is_empty() {
            break;
        }
        let start = Op::Start {
            link_mask: 0b0001_0101,
            dir_mask: 0b0000_0100,
            bytes: 300_000,
        };
        match step {
            100 => h.apply(start),
            200 | 250 => {
                let k = h
                    .issued
                    .iter()
                    .rposition(|id| h.refnet.flows.contains_key(id))
                    .expect("flows still draining");
                h.step(Op::Cancel { k });
                if step == 250 {
                    // A departure and a start between two queries.
                    h.step(start);
                }
                h.check();
            }
            300 => h.apply(Op::Scale { l: 3, q: 1 }),
            _ => {}
        }
        h.apply(Op::AdvanceToNext);
    }
    assert!(h.refnet.flows.is_empty(), "long outage drains");
    let stats = h.net.solve_stats();
    assert!(stats.resumed_solves > 1_000, "departures resume: {stats:?}");
}

/// 2000 fixed-seed pseudo-random ops (xorshift, no OS entropy): depth
/// the proptest case budget cannot reach, still fully deterministic. With
/// `batched`, a separate draw, independent of the op's kind, makes about a
/// quarter of the ops skip the comparison, so their changes reach one
/// solve together with the next op's (e.g. a departure and a start
/// between two queries, which must not resume a stale solve). With
/// `lone`, the ops mix contended flows on links 0–2 with flows alone on
/// one of links 3–7, cancels of recent flows, completions, brownouts and
/// outages, so lone starts and departures meet a cached component.
fn long_random_run(seed: u64, batched: bool, lone: bool) {
    let mut state = seed;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut h = Harness::new();
    for _ in 0..2000 {
        let op = if lone {
            lone_mix_op(next(), h.issued.len())
        } else {
            decode((
                (next() & 0xff) as u8,
                next() & 0xffff,
                next() & 0xffff,
                next() % 5_000_000,
            ))
        };
        if batched && next() % 4 == 0 {
            h.step(op);
        } else {
            h.apply(op);
        }
    }
    h.check();
    if lone {
        assert!(h.net.solve_stats().solo_rated > 100);
    }
}

/// One op of the lone-flow mix (see [`long_random_run`]) from one draw.
fn lone_mix_op(r: u64, issued: usize) -> Op {
    let bytes = if (r >> 40).is_multiple_of(10) {
        0
    } else {
        (r >> 16) % 2_000_000
    };
    match r % 10 {
        0..=2 => Op::Start {
            link_mask: 0b1 | ((r >> 8) & 0b110) as u8,
            dir_mask: (r >> 24) as u8,
            bytes,
        },
        3..=5 => Op::Start {
            link_mask: 1 << (3 + (r >> 8) % 5),
            dir_mask: (r >> 24) as u8,
            bytes,
        },
        6 => Op::Cancel {
            k: issued.saturating_sub(1 + ((r >> 8) % 8) as usize),
        },
        7 => Op::AdvanceToNext,
        8 => Op::Advance {
            dt_us: (r >> 8) % 60,
        },
        _ => Op::Scale {
            l: (r >> 8) as usize,
            q: (r >> 12) as usize,
        },
    }
}

#[test]
fn long_random_run_equivalence() {
    long_random_run(0x9e37_79b9_7f4a_7c15, false, false);
}

#[test]
fn long_random_run_batched_equivalence() {
    long_random_run(0x6a09_e667_f3bc_c909, true, false);
}

#[test]
fn lone_mix_random_run_equivalence() {
    long_random_run(0x510b_ad5e_ed00_0001, false, true);
}

#[test]
fn lone_mix_random_run_batched_equivalence() {
    long_random_run(0xbb67_ae85_84ca_a73b, true, true);
}

/// Lone flows (alone on their links, rated in closed form) start and end
/// on links 4–7 beside a contended component on links 0–3 that the
/// engine keeps cached. Then one of the component's flows leaves link 3,
/// where it was alone, and at the same instant a lone flow starts there,
/// once with a query between the two and once without. Equal to the
/// reference throughout.
#[test]
fn lone_flows_beside_a_cached_component() {
    let mut h = Harness::new();
    // Flow k crosses link 0 and link 1 or 2; flow 3 also crosses link 3,
    // alone there.
    let component = |h: &mut Harness| {
        for k in 0..4u8 {
            h.apply(Op::Start {
                link_mask: 0b1 | (2 << (k % 2)) | if k == 3 { 0b1000 } else { 0 },
                dir_mask: 0xff,
                bytes: 20_000_000 + 500_000 * u64::from(k),
            });
        }
    };
    component(&mut h);
    for i in 0..60u64 {
        h.apply(Op::Start {
            link_mask: 1 << (4 + i % 4),
            dir_mask: (i * 13) as u8,
            bytes: if i % 9 == 0 { 0 } else { 100_000 + 37_000 * i },
        });
        match i % 5 {
            0 | 3 => h.apply(Op::AdvanceToNext),
            1 => h.apply(Op::Cancel {
                k: h.issued.len() - 1,
            }),
            2 => h.apply(Op::Advance { dt_us: 3 + i % 11 }),
            _ => {}
        }
        match i {
            // A component flow leaves: its solve resumes.
            10 => h.apply(Op::Cancel { k: 1 }),
            20 => h.apply(Op::Scale { l: 5, q: 1 }),
            30 => h.apply(Op::Scale { l: 6, q: 0 }),
            40 => h.apply(Op::Scale { l: 6, q: 3 }),
            _ => {}
        }
    }
    for batched in [false, true] {
        // A fresh component alone in the net, solved last, so it is the
        // cached one.
        for k in 0..h.issued.len() {
            if h.refnet.flows.contains_key(&h.issued[k]) {
                h.apply(Op::Cancel { k });
            }
        }
        component(&mut h);
        let k = h.issued.len() - 1;
        h.step(Op::Cancel { k });
        let lone = Op::Start {
            link_mask: 0b1000,
            dir_mask: 0xff,
            bytes: 400_000,
        };
        if batched {
            h.step(lone);
            h.check();
        } else {
            h.check();
            h.apply(lone);
        }
        h.apply(Op::Cancel { k: k - 2 });
        h.apply(Op::AdvanceToNext);
    }
    for _ in 0..1_000 {
        if h.refnet.flows.is_empty() {
            break;
        }
        h.apply(Op::AdvanceToNext);
    }
    assert!(h.refnet.flows.is_empty(), "lone-flow scenario drains");
    let stats = h.net.solve_stats();
    assert!(
        stats.solo_rated > 20,
        "lone flows skip the solver: {stats:?}"
    );
}

proptest! {
    /// Arbitrary add/cancel/advance/scale sequences produce identical
    /// rates, completion order, and cumulative link bytes through the
    /// incremental engine and the from-scratch reference.
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

    /// As above, but an op whose `batch` draw is 0 (a quarter of them,
    /// whatever their kind) skips the comparison, so its changes are
    /// solved together with the next op's.
    #[test]
    fn batched_sequences_are_bit_identical(
        raw_ops in proptest::collection::vec(
            ((0u8..16, 0u64..65_536, 0u64..65_536, 0u64..6_000_000), 0u8..4),
            1..60,
        )
    ) {
        let mut h = Harness::new();
        for (raw, batch) in raw_ops {
            if batch == 0 {
                h.step(decode(raw));
            } else {
                h.apply(decode(raw));
            }
        }
        h.check();
        for _ in 0..4 {
            h.apply(Op::AdvanceToNext);
            h.apply(Op::Advance { dt_us: 299 });
        }
    }

    /// Random congestion onsets: an uncongested single-bottleneck phase,
    /// then a randomly timed and sized degradation of a second shared
    /// link that (for low factors) saturates it too — state must match
    /// the reference before, across, and after the onset.
    #[test]
    fn congestion_onset_at_random_time(
        onset_us in 1u64..200,
        factor_q in 0usize..3,
        n_flows in 2usize..6,
        bytes in 200_000u64..4_000_000,
        extra_us in 1u64..250,
    ) {
        let mut h = Harness::new();
        // Uncongested: n flows share link 0 only (single bottleneck)
        // plus one crossing links 0+1 (link 1 at full capacity stays
        // unsaturated: 40G vs the 100G bottleneck share).
        for k in 0..n_flows {
            h.apply(Op::Start {
                link_mask: 0b0000_0001,
                dir_mask: 0xff,
                bytes: bytes + 10_000 * k as u64,
            });
        }
        h.apply(Op::Start {
            link_mask: 0b0000_0011,
            dir_mask: 0xff,
            bytes,
        });
        h.apply(Op::Advance { dt_us: onset_us });
        // Congestion onset: link 1 drops to 0/25/50 % — for any factor
        // low enough the two-link flow's share pins link 1 as a second
        // bottleneck.
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
