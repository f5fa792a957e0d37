//! Elastic P/D pool sizing: the control-loop half of autoscaling.
//!
//! The engine half lives in [`hs_cluster::autoscale`]: a `ClusterSim`
//! owns a fixed fleet (the GPU *budget*) and exposes a
//! [`ScaleController`] hook at every monitor tick. This module supplies
//! the real controller — an [`Autoscaler`] that
//!
//! 1. keeps a **sliding window** of [`PoolSnapshot`]s and differences
//!    the cumulative counters to get windowed arrival / completion /
//!    SLA-attainment rates (the engine never guesses the window length);
//! 2. converts the windowed arrival rate into desired pool sizes with
//!    per-pool **unit rates** — the sustainable request throughput of
//!    one prefill / decode replica, derived from the planner's Eq. 12/13
//!    iteration-latency estimates;
//! 3. applies **asymmetric hysteresis**: growing jumps straight to the
//!    rate-sized target (and bypasses cooldown — under-capacity burns
//!    SLA, over-capacity only burns GPU-hours), while shrinking moves
//!    one instance per decision, only when every pressure signal is
//!    below its low-water mark, and only after a per-pool cooldown;
//! 4. optionally triggers **component-scoped planner re-solves** when
//!    the windowed rate drifts: the stored [`PlannerInput`] is re-run
//!    with the parallelism degrees pinned to the incumbent plan
//!    (`force_*_parallelism`), so only the communication schemes and
//!    unit rates are refreshed — the cheap slice of Algorithm 2, bounded
//!    by the same [`PERTURB_BUDGET`](crate::spec::PERTURB_BUDGET) as the
//!    offline solve.
//!
//! Determinism: the controller is a pure function of the snapshot
//! sequence — no wall clock, no unseeded randomness — so elastic
//! simulations replay bit-for-bit (see `tests/determinism.rs`).
//!
//! See DESIGN.md §13 for the control-loop derivation and the drain
//! semantics on the engine side.

use std::collections::VecDeque;

use hs_cluster::{PoolSnapshot, PoolTargets, ScaleController, SLA_ATTAINMENT_TARGET};

use crate::netest::SchemeSpace;
use crate::planner::{plan, PlannerOutput};
use crate::spec::PlannerInput;

// The control loop's tuning. Thresholds come in high/low pairs
// (hysteresis bands): growth triggers above the high mark, shrink is
// *permitted* only below the low mark. Windowed SLA attainment below
// `SLA_ATTAINMENT_TARGET` makes both pools hot (attainment lags, so it
// is the backstop signal).

/// Sliding-window length in monitor ticks; rates are measured over the
/// whole window.
pub const WINDOW_TICKS: usize = 20;
/// Ticks a pool must wait after a *shrink* before shrinking again.
/// Growth ignores cooldown (see module docs).
pub const COOLDOWN_TICKS: usize = 50;
/// Queued prompts per Active prefill instance above which the prefill
/// pool is hot.
pub const QUEUE_HIGH: f64 = 4.0;
/// Queue depth per Active prefill instance below which prefill may
/// shrink.
pub const QUEUE_LOW: f64 = 1.0;
/// Mean KV reservation utilization above which the decode pool is hot.
pub const KV_HIGH: f64 = 0.85;
/// KV reservation utilization below which decode may shrink.
pub const KV_LOW: f64 = 0.5;
/// Capacity margin: pools are sized for `rate * HEADROOM` rather than
/// the bare windowed rate.
pub const HEADROOM: f64 = 1.25;
/// Floor on Active instances in each pool.
pub const MIN_ACTIVE: usize = 1;
/// Fractional windowed-rate drift (vs. the rate at the last solve) that
/// triggers a planner re-solve, when a planner is attached.
pub const RESOLVE_RATE_DELTA: f64 = 0.25;

/// An empty placeholder, kept only so that callers of
/// [`Autoscaler::from_plan`] compile; the control loop's tuning is this
/// module's constants.
#[derive(Clone, Copy, Debug, Default)]
pub struct AutoscaleConfig {}

/// The windowed-signal, rate-sizing [`ScaleController`] (module docs).
///
/// # Example
///
/// A traffic step from idle to 12 req/s makes the controller grow the
/// prefill pool to the rate-sized target in one decision:
///
/// ```
/// use heroserve::autoscaler::Autoscaler;
/// use hs_cluster::{PoolSnapshot, ScaleController};
/// use hs_des::SimTime;
///
/// // One prefill replica sustains 2 req/s, one decode replica 4 req/s.
/// let mut ctl = Autoscaler::new(2.0, 4.0);
/// let snap = |s: u64, arrived: u64| PoolSnapshot {
///     now: SimTime::from_secs(s),
///     arrived,
///     done: arrived.saturating_sub(1),
///     done_sla_ok: arrived.saturating_sub(1),
///     prefill_queue: 0,
///     pending_admission: 0,
///     prefill_active: 1,
///     prefill_draining: 0,
///     prefill_parked: 7,
///     decode_active: 1,
///     decode_draining: 0,
///     decode_parked: 7,
///     kv_pressure: 0.2,
/// };
/// assert_eq!(ctl.on_tick(&snap(1, 0)), None); // window warm-up
/// let t = ctl.on_tick(&snap(2, 12)).expect("must scale");
/// // 12 req/s * 1.25 headroom => ceil(15/2) = 8 prefill, ceil(15/4) = 4 decode.
/// assert_eq!((t.prefill, t.decode), (8, 4));
/// ```
pub struct Autoscaler {
    window: VecDeque<PoolSnapshot>,
    prefill_cooldown: usize,
    decode_cooldown: usize,
    prefill_unit_rps: f64,
    decode_unit_rps: f64,
    expected_rate: f64,
    /// The input of the last solve, parallelism pinned: its
    /// `arrival_rate` is the rate that solve was for, and its routes are
    /// computed once and reused by every re-solve.
    planner: Option<PlannerInput>,
    resolves: usize,
    lat_evals: usize,
}

impl Autoscaler {
    /// Controller with explicit per-replica unit rates (requests/s one
    /// Active prefill / decode instance can sustain). Use
    /// [`Autoscaler::from_plan`] to derive the rates from a planner
    /// solve instead of supplying them by hand.
    pub fn new(prefill_unit_rps: f64, decode_unit_rps: f64) -> Self {
        assert!(
            prefill_unit_rps > 0.0 && decode_unit_rps > 0.0,
            "unit rates must be positive"
        );
        Autoscaler {
            window: VecDeque::new(),
            prefill_cooldown: 0,
            decode_cooldown: 0,
            prefill_unit_rps,
            decode_unit_rps,
            expected_rate: 0.0,
            planner: None,
            resolves: 0,
            lat_evals: 0,
        }
    }

    /// Controller seeded from an offline planner solve: unit rates come
    /// from the plan's per-iteration latency estimates, and `input` is
    /// retained (with the parallelism degrees pinned to the plan's
    /// choice) for component-scoped online re-solves. The
    /// [`AutoscaleConfig`] is ignored.
    pub fn from_plan(_: AutoscaleConfig, input: &PlannerInput, output: &PlannerOutput) -> Self {
        let mut me = Self::new(
            prefill_unit_rps(input, output),
            decode_unit_rps(input, output),
        );
        let mut pinned = input.clone();
        pinned.force_prefill_parallelism = Some((output.prefill.p_tens, output.prefill.p_pipe));
        pinned.force_decode_parallelism = Some((output.decode.p_tens, output.decode.p_pipe));
        me.expected_rate = input.arrival_rate;
        me.planner = Some(pinned);
        me
    }

    /// Expected steady-state arrival rate, used only to size the pools
    /// *before* the first window fills (initial targets).
    pub fn with_expected_rate(mut self, rate: f64) -> Self {
        self.expected_rate = rate.max(0.0);
        self
    }

    /// Online planner re-solves triggered so far.
    pub fn resolves(&self) -> usize {
        self.resolves
    }

    /// Group-latency evaluations spent across all online re-solves (the
    /// planner's deterministic work measure).
    pub fn lat_evals(&self) -> usize {
        self.lat_evals
    }

    /// Rate-based pool sizing: instances needed to sustain `rate` with
    /// [`HEADROOM`], before clamping to the budget.
    fn size_for(&self, rate: f64) -> (usize, usize) {
        let need = |unit: f64| ((rate * HEADROOM / unit).ceil()).max(0.0) as usize;
        (need(self.prefill_unit_rps), need(self.decode_unit_rps))
    }

    /// Re-run the planner in place at the new rate with parallelism
    /// pinned, refreshing the unit rates. Infeasible re-solves (rate
    /// beyond the pinned deployment's ceiling) keep the incumbent rates:
    /// the rate-sizing will already be asking for the whole budget.
    fn resolve(&mut self, rate: f64) {
        let Some(input) = self.planner.as_mut() else {
            return;
        };
        input.arrival_rate = rate;
        self.resolves += 1;
        if let Ok(out) = plan(input, SchemeSpace::Hybrid) {
            self.lat_evals += out.stats.lat_evals;
            self.prefill_unit_rps = prefill_unit_rps(input, &out);
            self.decode_unit_rps = decode_unit_rps(input, &out);
        }
    }
}

/// Sustainable req/s of one prefill replica: a batch of `Q` prompts
/// completes per iteration, so `Q / (T_n + T_c)` (Eq. 3's denominator).
fn prefill_unit_rps(input: &PlannerInput, output: &PlannerOutput) -> f64 {
    let t_iter = output.prefill.est_network_s + output.prefill.est_compute_s;
    (input.batch.q as f64 / t_iter.max(1e-9)).max(1e-9)
}

/// Sustainable req/s of one decode replica: each request occupies a
/// batch slot for `K_out/Q` iterations, so `Q / (k_out_mean * (T_n + T_c))`.
fn decode_unit_rps(input: &PlannerInput, output: &PlannerOutput) -> f64 {
    let t_iter = output.decode.est_network_s + output.decode.est_compute_s;
    let k_out_mean = (input.batch.k_out as f64 / input.batch.q.max(1) as f64).max(1.0);
    (input.batch.q as f64 / (k_out_mean * t_iter.max(1e-9))).max(1e-9)
}

impl ScaleController for Autoscaler {
    fn initial_targets(&mut self, prefill_slots: usize, decode_slots: usize) -> PoolTargets {
        let (p, d) = self.size_for(self.expected_rate);
        PoolTargets {
            prefill: p.clamp(MIN_ACTIVE, prefill_slots),
            decode: d.clamp(MIN_ACTIVE, decode_slots),
        }
    }

    fn on_tick(&mut self, snap: &PoolSnapshot) -> Option<PoolTargets> {
        self.window.push_back(snap.clone());
        while self.window.len() > WINDOW_TICKS {
            self.window.pop_front();
        }
        self.prefill_cooldown = self.prefill_cooldown.saturating_sub(1);
        self.decode_cooldown = self.decode_cooldown.saturating_sub(1);
        let first = self.window.front().expect("window never empty here");
        let dt = snap.now.saturating_since(first.now).as_secs_f64();
        if self.window.len() < 2 || dt <= 0.0 {
            return None;
        }

        // Windowed signals.
        let rate = (snap.arrived - first.arrived) as f64 / dt;
        let done = snap.done - first.done;
        let ok = snap.done_sla_ok - first.done_sla_ok;
        let attainment = if done == 0 {
            1.0
        } else {
            ok as f64 / done as f64
        };
        let queue_per_prefill = snap.prefill_queue as f64 / snap.prefill_active.max(1) as f64;

        // Refresh unit rates when the traffic level has genuinely moved.
        if let Some(r0) = self.planner.as_ref().map(|p| p.arrival_rate) {
            if (rate - r0).abs() > RESOLVE_RATE_DELTA * r0.max(1e-9) {
                self.resolve(rate);
            }
        }

        // Rate-based sizing, bumped one step when pressure says the
        // sizing is behind reality.
        let (mut want_p, mut want_d) = self.size_for(rate);
        let prefill_hot = queue_per_prefill > QUEUE_HIGH || attainment < SLA_ATTAINMENT_TARGET;
        let decode_hot = snap.kv_pressure > KV_HIGH
            || snap.pending_admission > 0
            || attainment < SLA_ATTAINMENT_TARGET;
        if prefill_hot {
            want_p = want_p.max(snap.prefill_active + 1);
        }
        if decode_hot {
            want_d = want_d.max(snap.decode_active + 1);
        }
        want_p = want_p.clamp(MIN_ACTIVE, snap.prefill_total());
        want_d = want_d.clamp(MIN_ACTIVE, snap.decode_total());

        // Asymmetric hysteresis: grow to target immediately; shrink one
        // step, only when calm, only out of cooldown.
        let prefill_calm = queue_per_prefill < QUEUE_LOW && attainment >= SLA_ATTAINMENT_TARGET;
        let decode_calm = snap.kv_pressure < KV_LOW
            && snap.pending_admission == 0
            && attainment >= SLA_ATTAINMENT_TARGET;
        let tgt_p = resolve_pool(
            snap.prefill_active,
            want_p,
            prefill_calm,
            &mut self.prefill_cooldown,
        );
        let tgt_d = resolve_pool(
            snap.decode_active,
            want_d,
            decode_calm,
            &mut self.decode_cooldown,
        );
        if tgt_p == snap.prefill_active && tgt_d == snap.decode_active {
            return None;
        }
        Some(PoolTargets {
            prefill: tgt_p,
            decode: tgt_d,
        })
    }

    fn name(&self) -> &str {
        "heroserve-autoscaler"
    }
}

/// One pool's hysteresis step (see [`Autoscaler`] docs). Mutates the
/// pool's cooldown when a shrink is issued.
fn resolve_pool(active: usize, want: usize, calm: bool, cooldown: &mut usize) -> usize {
    if want > active {
        // Growth is urgent and cheap to undo; never throttle it.
        want
    } else if want < active && calm && *cooldown == 0 {
        // +1 because the caller decrements at the top of every tick:
        // the next `COOLDOWN_TICKS` ticks hold, and the one after may
        // shrink again.
        *cooldown = COOLDOWN_TICKS + 1;
        active - 1
    } else {
        active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_des::SimTime;

    fn snap(s: u64, arrived: u64, active: (usize, usize)) -> PoolSnapshot {
        PoolSnapshot {
            now: SimTime::from_secs(s),
            arrived,
            done: arrived,
            done_sla_ok: arrived,
            prefill_queue: 0,
            pending_admission: 0,
            prefill_active: active.0,
            prefill_draining: 0,
            prefill_parked: 4 - active.0,
            decode_active: active.1,
            decode_draining: 0,
            decode_parked: 4 - active.1,
            kv_pressure: 0.1,
        }
    }

    #[test]
    fn initial_targets_respect_floors_and_budget() {
        let mut c = Autoscaler::new(2.0, 4.0);
        let t = c.initial_targets(4, 4);
        assert_eq!(
            (t.prefill, t.decode),
            (1, 1),
            "idle start sits at the floor"
        );
        let mut c = Autoscaler::new(2.0, 4.0).with_expected_rate(100.0);
        let t = c.initial_targets(4, 4);
        assert_eq!((t.prefill, t.decode), (4, 4), "huge rate clamps to budget");
    }

    #[test]
    fn grows_straight_to_rate_sized_target() {
        let mut c = Autoscaler::new(2.0, 4.0);
        assert_eq!(c.on_tick(&snap(1, 0, (1, 1))), None);
        let t = c.on_tick(&snap(2, 12, (1, 1))).expect("grow");
        // 12 req/s * 1.25 => ceil(15/2)=8 clamp 4; ceil(15/4)=4.
        assert_eq!((t.prefill, t.decode), (4, 4));
    }

    #[test]
    fn shrinks_one_step_only_when_calm_and_cooled() {
        let mut c = Autoscaler::new(2.0, 4.0);
        c.on_tick(&snap(1, 0, (4, 4)));
        // Idle traffic, calm signals: shrink both pools by exactly one.
        let t = c.on_tick(&snap(2, 0, (4, 4))).expect("shrink");
        assert_eq!((t.prefill, t.decode), (3, 3));
        // Cooldown holds the next shrink for COOLDOWN_TICKS ticks…
        let hold_end = 2 + COOLDOWN_TICKS as u64;
        for s in 3..=hold_end {
            assert_eq!(c.on_tick(&snap(s, 0, (3, 3))), None, "tick {s}");
        }
        // …then it proceeds.
        let t = c
            .on_tick(&snap(hold_end + 1, 0, (3, 3)))
            .expect("shrink again");
        assert_eq!((t.prefill, t.decode), (2, 2));
    }

    #[test]
    fn hot_signals_bump_beyond_rate_sizing() {
        let mut c = Autoscaler::new(10.0, 10.0);
        c.on_tick(&snap(1, 0, (1, 1)));
        // Rate says 1 instance is plenty, but the queue is deep and KV
        // pressure is high: both pools get a one-step bump.
        let mut s = snap(2, 2, (1, 1));
        s.prefill_queue = 30;
        s.kv_pressure = 0.95;
        let t = c.on_tick(&s).expect("pressure grow");
        assert_eq!((t.prefill, t.decode), (2, 2));
    }

    #[test]
    fn pending_admissions_block_decode_shrink() {
        let mut c = Autoscaler::new(2.0, 4.0);
        c.on_tick(&snap(1, 0, (1, 4)));
        let mut s = snap(2, 0, (1, 4));
        s.pending_admission = 1;
        // decode_hot bumps want_d to active+1 = 5, clamped to 4: no move.
        assert_eq!(c.on_tick(&s), None);
    }

    /// An input like the elastic benches': OPT-13B interleaved on the
    /// testbed, parallelism pinned to TP 2 on both sides, at `rate`.
    fn pinned_input(rate: f64) -> PlannerInput {
        use crate::system::{default_coefficients, expected_batch};
        let t = hs_topology::builders::testbed();
        let model = hs_model::ModelConfig::opt_13b();
        let spec = hs_workload::spec::fixed(256, 16);
        let mut input = PlannerInput::interleaved(
            &t.graph,
            model.clone(),
            default_coefficients(&model),
            expected_batch(&spec, 8),
            rate,
            spec.ttft_sla_s,
            spec.tpot_sla_s,
        );
        input.force_prefill_parallelism = Some((2, 1));
        input.force_decode_parallelism = Some((2, 1));
        input
    }

    /// Re-solves plan the stored input in place: each one's unit rates
    /// are, bit for bit, those of a solve over a freshly built input at
    /// the same rate, and the stored routes stay one table throughout.
    #[test]
    fn resolves_match_fresh_solves_and_keep_one_route_table() {
        let seed = pinned_input(2.0);
        let out = plan(&seed, SchemeSpace::Hybrid).expect("the seed input plans");
        let mut c = Autoscaler::from_plan(AutoscaleConfig::default(), &seed, &out);
        let routes = |c: &Autoscaler| {
            let ap = c.planner.as_ref().expect("planner attached").all_pairs();
            let (a, b) = (ap.nodes()[0], *ap.nodes().last().unwrap());
            std::sync::Arc::clone(&ap.path(a, b).route)
        };
        let first = routes(&c);
        assert!(!first.is_empty(), "a cross-fabric pair has hops");
        // Arrivals at 2 req/s, then 4, then 1.5, then 3, a phase of 30 s
        // each, so the windowed rate drifts past the re-solve threshold
        // in every phase.
        let (mut arrived, mut checked) = (0u64, 0usize);
        for (phase, per_s) in [2u64, 4, 1, 3].into_iter().enumerate() {
            for s in 0..30u64 {
                let now = phase as u64 * 30 + s + 1;
                arrived += if phase == 2 { per_s + s % 2 } else { per_s };
                let before = c.resolves();
                c.on_tick(&snap(now, arrived, (2, 2)));
                if c.resolves() == before {
                    continue;
                }
                let rate = c.planner.as_ref().unwrap().arrival_rate;
                let fresh_input = pinned_input(rate);
                let fresh = plan(&fresh_input, SchemeSpace::Hybrid)
                    .unwrap_or_else(|e| panic!("a fresh solve at {rate} req/s fails: {e}"));
                assert_eq!(
                    c.prefill_unit_rps.to_bits(),
                    prefill_unit_rps(&fresh_input, &fresh).to_bits(),
                    "prefill unit rate after the re-solve at {rate} req/s"
                );
                assert_eq!(
                    c.decode_unit_rps.to_bits(),
                    decode_unit_rps(&fresh_input, &fresh).to_bits(),
                    "decode unit rate after the re-solve at {rate} req/s"
                );
                assert!(
                    std::sync::Arc::ptr_eq(&first, &routes(&c)),
                    "the re-solve at {rate} req/s rebuilt the routes"
                );
                checked += 1;
            }
        }
        assert!(checked >= 3, "only {checked} re-solves");
        assert_eq!(checked, c.resolves());
    }

    #[test]
    fn attainment_collapse_is_a_grow_signal_for_both_pools() {
        let mut c = Autoscaler::new(10.0, 10.0);
        c.on_tick(&snap(1, 0, (1, 1)));
        let mut s = snap(2, 4, (1, 1));
        s.done = 10;
        s.done_sla_ok = 2; // 20% attainment in the window
        let t = c.on_tick(&s).expect("attainment grow");
        assert_eq!((t.prefill, t.decode), (2, 2));
    }
}
