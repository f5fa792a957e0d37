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
//!    by the same `perturb_budget` as the offline solve.
//!
//! Determinism: the controller is a pure function of the snapshot
//! sequence and its config — no wall clock, no unseeded randomness —
//! so elastic simulations replay bit-for-bit (see `tests/determinism.rs`).
//!
//! See DESIGN.md §13 for the control-loop derivation and the drain
//! semantics on the engine side.

use std::collections::VecDeque;

use hs_cluster::{PoolSnapshot, PoolTargets, ScaleController};

use crate::netest::SchemeSpace;
use crate::planner::{plan, PlannerOutput};
use crate::spec::PlannerInput;

/// Tuning knobs for the [`Autoscaler`] control loop.
///
/// Thresholds come in high/low pairs (hysteresis bands): growth triggers
/// above the high mark, shrink is *permitted* only below the low mark.
/// Widening a band trades reaction speed for fewer oscillations.
#[derive(Clone, Copy, Debug)]
pub struct AutoscaleConfig {
    /// Sliding-window length in monitor ticks; rates are measured over
    /// the whole window.
    pub window_ticks: usize,
    /// Ticks a pool must wait after a *shrink* before shrinking again.
    /// Growth ignores cooldown (see module docs).
    pub cooldown_ticks: usize,
    /// Queued prompts per Active prefill instance above which the
    /// prefill pool is considered hot.
    pub queue_high: f64,
    /// Queue depth per Active prefill instance below which prefill may
    /// shrink.
    pub queue_low: f64,
    /// Mean KV reservation utilization above which the decode pool is
    /// considered hot.
    pub kv_high: f64,
    /// KV reservation utilization below which decode may shrink.
    pub kv_low: f64,
    /// Windowed SLA attainment below which *both* pools are considered
    /// hot (attainment lags, so this is the backstop signal).
    pub attainment_low: f64,
    /// Capacity margin: pools are sized for `rate * headroom` rather
    /// than the bare windowed rate.
    pub headroom: f64,
    /// Floor on Active prefill instances.
    pub min_prefill: usize,
    /// Floor on Active decode instances.
    pub min_decode: usize,
    /// Fractional windowed-rate drift (vs. the rate at the last solve)
    /// that triggers a planner re-solve, when a planner is attached.
    pub resolve_rate_delta: f64,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            window_ticks: 20,
            cooldown_ticks: 50,
            queue_high: 4.0,
            queue_low: 1.0,
            kv_high: 0.85,
            kv_low: 0.5,
            attainment_low: 0.9,
            headroom: 1.25,
            min_prefill: 1,
            min_decode: 1,
            resolve_rate_delta: 0.25,
        }
    }
}

/// The windowed-signal, rate-sizing [`ScaleController`] (module docs).
///
/// # Example
///
/// A traffic step from idle to 12 req/s makes the controller grow the
/// prefill pool to the rate-sized target in one decision:
///
/// ```
/// use heroserve::autoscaler::{AutoscaleConfig, Autoscaler};
/// use hs_cluster::{PoolSnapshot, ScaleController};
/// use hs_des::SimTime;
///
/// // One prefill replica sustains 2 req/s, one decode replica 4 req/s.
/// let mut ctl = Autoscaler::new(AutoscaleConfig::default(), 2.0, 4.0);
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
    cfg: AutoscaleConfig,
    window: VecDeque<PoolSnapshot>,
    prefill_cooldown: usize,
    decode_cooldown: usize,
    prefill_unit_rps: f64,
    decode_unit_rps: f64,
    expected_rate: f64,
    planner: Option<PlannerInput>,
    last_solve_rate: Option<f64>,
    resolves: usize,
    lat_evals: usize,
}

impl Autoscaler {
    /// Controller with explicit per-replica unit rates (requests/s one
    /// Active prefill / decode instance can sustain). Use
    /// [`Autoscaler::from_plan`] to derive the rates from a planner
    /// solve instead of supplying them by hand.
    pub fn new(cfg: AutoscaleConfig, prefill_unit_rps: f64, decode_unit_rps: f64) -> Self {
        assert!(
            prefill_unit_rps > 0.0 && decode_unit_rps > 0.0,
            "unit rates must be positive"
        );
        Autoscaler {
            cfg,
            window: VecDeque::new(),
            prefill_cooldown: 0,
            decode_cooldown: 0,
            prefill_unit_rps,
            decode_unit_rps,
            expected_rate: 0.0,
            planner: None,
            last_solve_rate: None,
            resolves: 0,
            lat_evals: 0,
        }
    }

    /// Controller seeded from an offline planner solve: unit rates come
    /// from the plan's per-iteration latency estimates, and `input` is
    /// retained (with the parallelism degrees pinned to the plan's
    /// choice) for component-scoped online re-solves.
    pub fn from_plan(cfg: AutoscaleConfig, input: &PlannerInput, output: &PlannerOutput) -> Self {
        let mut me = Self::new(
            cfg,
            prefill_unit_rps(input, output),
            decode_unit_rps(input, output),
        );
        let mut pinned = input.clone();
        pinned.force_prefill_parallelism = Some((output.prefill.p_tens, output.prefill.p_pipe));
        pinned.force_decode_parallelism = Some((output.decode.p_tens, output.decode.p_pipe));
        me.expected_rate = input.arrival_rate;
        me.last_solve_rate = Some(input.arrival_rate);
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
    /// the configured headroom, before clamping to the budget.
    fn size_for(&self, rate: f64) -> (usize, usize) {
        let need = |unit: f64| ((rate * self.cfg.headroom / unit).ceil()).max(0.0) as usize;
        (need(self.prefill_unit_rps), need(self.decode_unit_rps))
    }

    /// Re-run the planner at the new rate with parallelism pinned,
    /// refreshing the unit rates. Infeasible re-solves (rate beyond the
    /// pinned deployment's ceiling) keep the incumbent rates: the
    /// rate-sizing will already be asking for the whole budget.
    fn resolve(&mut self, rate: f64) {
        let Some(input) = self.planner.as_ref() else {
            return;
        };
        let mut input = input.clone();
        input.arrival_rate = rate;
        self.last_solve_rate = Some(rate);
        self.resolves += 1;
        if let Ok(out) = plan(&input, SchemeSpace::Hybrid) {
            self.lat_evals += out.stats.lat_evals;
            self.prefill_unit_rps = prefill_unit_rps(&input, &out);
            self.decode_unit_rps = decode_unit_rps(&input, &out);
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
            prefill: p.clamp(self.cfg.min_prefill, prefill_slots),
            decode: d.clamp(self.cfg.min_decode, decode_slots),
        }
    }

    fn on_tick(&mut self, snap: &PoolSnapshot) -> Option<PoolTargets> {
        self.window.push_back(snap.clone());
        while self.window.len() > self.cfg.window_ticks.max(2) {
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
        if self.planner.is_some() {
            let drifted = match self.last_solve_rate {
                None => true,
                Some(r0) => (rate - r0).abs() > self.cfg.resolve_rate_delta * r0.max(1e-9),
            };
            if drifted {
                self.resolve(rate);
            }
        }

        // Rate-based sizing, bumped one step when pressure says the
        // sizing is behind reality.
        let (mut want_p, mut want_d) = self.size_for(rate);
        let prefill_hot =
            queue_per_prefill > self.cfg.queue_high || attainment < self.cfg.attainment_low;
        let decode_hot = snap.kv_pressure > self.cfg.kv_high
            || snap.pending_admission > 0
            || attainment < self.cfg.attainment_low;
        if prefill_hot {
            want_p = want_p.max(snap.prefill_active + 1);
        }
        if decode_hot {
            want_d = want_d.max(snap.decode_active + 1);
        }
        want_p = want_p.clamp(self.cfg.min_prefill, snap.prefill_total());
        want_d = want_d.clamp(self.cfg.min_decode, snap.decode_total());

        // Asymmetric hysteresis: grow to target immediately; shrink one
        // step, only when calm, only out of cooldown.
        let prefill_calm =
            queue_per_prefill < self.cfg.queue_low && attainment >= self.cfg.attainment_low;
        let decode_calm = snap.kv_pressure < self.cfg.kv_low
            && snap.pending_admission == 0
            && attainment >= self.cfg.attainment_low;
        let tgt_p = resolve_pool(
            snap.prefill_active,
            want_p,
            prefill_calm,
            &mut self.prefill_cooldown,
            self.cfg.cooldown_ticks,
        );
        let tgt_d = resolve_pool(
            snap.decode_active,
            want_d,
            decode_calm,
            &mut self.decode_cooldown,
            self.cfg.cooldown_ticks,
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
fn resolve_pool(
    active: usize,
    want: usize,
    calm: bool,
    cooldown: &mut usize,
    cooldown_ticks: usize,
) -> usize {
    if want > active {
        // Growth is urgent and cheap to undo; never throttle it.
        want
    } else if want < active && calm && *cooldown == 0 {
        // +1 because the caller decrements at the top of every tick,
        // including the one that issued this shrink: the next shrink is
        // possible exactly `cooldown_ticks` ticks from now.
        *cooldown = cooldown_ticks + 1;
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
        let mut c = Autoscaler::new(AutoscaleConfig::default(), 2.0, 4.0);
        let t = c.initial_targets(4, 4);
        assert_eq!(
            (t.prefill, t.decode),
            (1, 1),
            "idle start sits at the floor"
        );
        let mut c = Autoscaler::new(AutoscaleConfig::default(), 2.0, 4.0).with_expected_rate(100.0);
        let t = c.initial_targets(4, 4);
        assert_eq!((t.prefill, t.decode), (4, 4), "huge rate clamps to budget");
    }

    #[test]
    fn grows_straight_to_rate_sized_target() {
        let mut c = Autoscaler::new(AutoscaleConfig::default(), 2.0, 4.0);
        assert_eq!(c.on_tick(&snap(1, 0, (1, 1))), None);
        let t = c.on_tick(&snap(2, 12, (1, 1))).expect("grow");
        // 12 req/s * 1.25 => ceil(15/2)=8 clamp 4; ceil(15/4)=4.
        assert_eq!((t.prefill, t.decode), (4, 4));
    }

    #[test]
    fn shrinks_one_step_only_when_calm_and_cooled() {
        let cfg = AutoscaleConfig {
            cooldown_ticks: 2,
            ..AutoscaleConfig::default()
        };
        let mut c = Autoscaler::new(cfg, 2.0, 4.0);
        c.on_tick(&snap(1, 0, (4, 4)));
        // Idle traffic, calm signals: shrink both pools by exactly one.
        let t = c.on_tick(&snap(2, 0, (4, 4))).expect("shrink");
        assert_eq!((t.prefill, t.decode), (3, 3));
        // Cooldown holds the next shrink…
        assert_eq!(c.on_tick(&snap(3, 0, (3, 3))), None);
        assert_eq!(c.on_tick(&snap(4, 0, (3, 3))), None);
        // …then it proceeds.
        let t = c.on_tick(&snap(5, 0, (3, 3))).expect("shrink again");
        assert_eq!((t.prefill, t.decode), (2, 2));
    }

    #[test]
    fn hot_signals_bump_beyond_rate_sizing() {
        let mut c = Autoscaler::new(AutoscaleConfig::default(), 10.0, 10.0);
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
        let mut c = Autoscaler::new(AutoscaleConfig::default(), 2.0, 4.0);
        c.on_tick(&snap(1, 0, (1, 4)));
        let mut s = snap(2, 0, (1, 4));
        s.pending_admission = 1;
        // decode_hot bumps want_d to active+1 = 5, clamped to 4: no move.
        assert_eq!(c.on_tick(&s), None);
    }

    #[test]
    fn attainment_collapse_is_a_grow_signal_for_both_pools() {
        let mut c = Autoscaler::new(AutoscaleConfig::default(), 10.0, 10.0);
        c.on_tick(&snap(1, 0, (1, 1)));
        let mut s = snap(2, 4, (1, 1));
        s.done = 10;
        s.done_sla_ok = 2; // 20% attainment in the window
        let t = c.on_tick(&s).expect("attainment grow");
        assert_eq!((t.prefill, t.decode), (2, 2));
    }
}
