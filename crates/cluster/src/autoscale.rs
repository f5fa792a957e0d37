//! Elastic pool control: the engine-side half of autoscaling.
//!
//! The engine owns a fixed fleet of instances (the GPU *budget*); an
//! attached [`ScaleController`] decides, at every monitor tick, how many
//! of each pool should be **Active**. The engine applies targets by
//! flipping per-instance [`PoolState`] flags rather than mutating the
//! instance/KV vectors — index invariants (prefill `0..decode_offset`,
//! `kv[i]` ↔ decode instance `decode_offset + i`) never change, so every
//! other subsystem is oblivious to elasticity.
//!
//! Shrinking is graceful (DESIGN.md §13): a *Draining* instance accepts
//! no new work but finishes what it holds — a prefill instance completes
//! its in-flight batch, a decode instance keeps generating for its live
//! requests (and for admissions whose KV is still in the air) until its
//! KV reservation drops to zero. Only then does it *Park*, stopping its
//! GPU-seconds clock. Growing re-activates instances in the reverse
//! order (cancel drains first — they are instantly useful — then unpark).
//!
//! The controller itself (signal windows, hysteresis, planner re-solves)
//! lives in `heroserve`; this module defines only the engine contract.

use crate::engine::Shared;
use crate::instance::{InstPhase, Instance, InstanceKind};
use crate::kvship::KvShipper;
use crate::metrics::SimReport;
use hs_des::SimTime;
use std::ops::Range;

/// Elasticity state of one instance. Orthogonal to
/// [`InstPhase`], which tracks the compute /
/// communicate cycle within an iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolState {
    /// In the pool: receives new batches / admissions.
    Active,
    /// Winding down: no new work, finishes in-flight work, then parks.
    Draining,
    /// Out of the pool: holds no state, burns no GPU-hours.
    Parked,
}

/// Desired Active-instance counts per pool. The engine clamps each to
/// `[1, pool size]` — a pool can never scale to zero (a serving system
/// with no prefill or no decode capacity deadlocks every request).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolTargets {
    /// Desired Active prefill instances.
    pub prefill: usize,
    /// Desired Active decode instances.
    pub decode: usize,
}

/// What the engine shows the controller at each monitor tick.
///
/// Counters are cumulative since `t = 0` — the controller differences
/// consecutive snapshots to get windowed rates, so the engine never has
/// to guess the controller's window length.
#[derive(Clone, Debug)]
pub struct PoolSnapshot {
    /// Snapshot time.
    pub now: SimTime,
    /// Requests arrived so far (cumulative).
    pub arrived: u64,
    /// Requests fully completed so far (cumulative).
    pub done: u64,
    /// Completed requests that met both SLAs (cumulative).
    pub done_sla_ok: u64,
    /// Requests waiting for a prefill slot right now.
    pub prefill_queue: usize,
    /// Requests waiting for decode KV capacity right now.
    pub pending_admission: usize,
    /// Active prefill instances.
    pub prefill_active: usize,
    /// Draining prefill instances.
    pub prefill_draining: usize,
    /// Parked prefill instances.
    pub prefill_parked: usize,
    /// Active decode instances.
    pub decode_active: usize,
    /// Draining decode instances.
    pub decode_draining: usize,
    /// Parked decode instances.
    pub decode_parked: usize,
    /// Mean KV *reservation* utilization over Active decode instances,
    /// `[0, 1]` — admission pressure, the signal that leads memory
    /// exhaustion rather than lagging it.
    pub kv_pressure: f64,
}

impl PoolSnapshot {
    /// Total prefill instances in the budget.
    pub fn prefill_total(&self) -> usize {
        self.prefill_active + self.prefill_draining + self.prefill_parked
    }

    /// Total decode instances in the budget.
    pub fn decode_total(&self) -> usize {
        self.decode_active + self.decode_draining + self.decode_parked
    }
}

/// A pool-sizing policy driven by the engine's monitor ticks.
///
/// Implementations must be deterministic functions of the snapshot
/// sequence (no wall clock, no unseeded randomness) — the determinism
/// harness runs elastic simulations bit-for-bit across repeats.
pub trait ScaleController {
    /// Called once before the run starts, with the full per-pool budget.
    /// The returned targets set the initial Active counts (instances
    /// beyond them start Parked and contribute zero GPU-seconds).
    fn initial_targets(&mut self, prefill_slots: usize, decode_slots: usize) -> PoolTargets;

    /// Called at every monitor tick. Return `Some` to request new
    /// targets, `None` to leave the pools alone.
    fn on_tick(&mut self, snapshot: &PoolSnapshot) -> Option<PoolTargets>;

    /// Controller name for reports and traces.
    fn name(&self) -> &str;
}

/// A controller that pins both pools at fixed sizes — the *static
/// capacity* baseline every elastic sweep compares against.
#[derive(Clone, Copy, Debug)]
pub struct StaticController {
    /// Active prefill instances for the whole run.
    pub prefill: usize,
    /// Active decode instances for the whole run.
    pub decode: usize,
}

impl ScaleController for StaticController {
    fn initial_targets(&mut self, _prefill_slots: usize, _decode_slots: usize) -> PoolTargets {
        PoolTargets {
            prefill: self.prefill,
            decode: self.decode,
        }
    }

    fn on_tick(&mut self, _snapshot: &PoolSnapshot) -> Option<PoolTargets> {
        None
    }

    fn name(&self) -> &str {
        "static"
    }
}

fn pool_name(kind: InstanceKind) -> &'static str {
    match kind {
        InstanceKind::Prefill => "prefill",
        InstanceKind::Decode => "decode",
    }
}

/// The engine's pool bookkeeping: the controller, the snapshot counters
/// and retargeting. Its `SimReport` fields: `scale_ups`, `scale_downs`,
/// `gpu_seconds`, `mean_active_gpus`, `final_prefill_active` and
/// `final_decode_active`.
#[derive(Default)]
pub(crate) struct Pools {
    /// Prefill instances are `0..decode_offset`, decode instances the rest.
    decode_offset: usize,
    ctl: Option<Box<dyn ScaleController>>,
    /// Cumulative completions and completions meeting both SLAs
    /// (snapshot counters).
    pub(crate) done: u64,
    pub(crate) done_ok: u64,
    scale_ups: u64,
    scale_downs: u64,
}

impl Pools {
    pub(crate) fn new(decode_offset: usize) -> Self {
        Pools {
            decode_offset,
            ..Pools::default()
        }
    }

    fn range(&self, kind: InstanceKind, instances: usize) -> Range<usize> {
        match kind {
            InstanceKind::Prefill => 0..self.decode_offset,
            InstanceKind::Decode => self.decode_offset..instances,
        }
    }

    /// `(active, draining, parked)` counts for one pool.
    fn counts(&self, instances: &[Instance], kind: InstanceKind) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for inst in &instances[self.range(kind, instances.len())] {
            match inst.state {
                PoolState::Active => counts.0 += 1,
                PoolState::Draining => counts.1 += 1,
                PoolState::Parked => counts.2 += 1,
            }
        }
        counts
    }

    /// Attach `ctl` to a fleet of `n` instances; returns its initial targets.
    pub(crate) fn attach(&mut self, mut ctl: Box<dyn ScaleController>, n: usize) -> PoolTargets {
        let targets = ctl.initial_targets(self.decode_offset, n - self.decode_offset);
        self.ctl = Some(ctl);
        targets
    }

    /// Show the controller this tick's snapshot, with `arrived` requests
    /// arrived so far. `None` without a controller, else its decision.
    pub(crate) fn tick(
        &mut self,
        now: SimTime,
        arrived: u64,
        instances: &[Instance],
        kv: &KvShipper,
        prefill_queue: usize,
    ) -> Option<Option<PoolTargets>> {
        self.ctl.as_ref()?;
        let (pa, pd, pp) = self.counts(instances, InstanceKind::Prefill);
        let (da, dd, dp) = self.counts(instances, InstanceKind::Decode);
        // Admission pressure over the instances that can take new work;
        // an empty Active set reads as full pressure.
        let mut pressure = 0.0;
        let mut n = 0usize;
        for (m, inst) in kv.managers.iter().zip(&instances[self.decode_offset..]) {
            if inst.state == PoolState::Active {
                pressure += m.reserved_utilization();
                n += 1;
            }
        }
        let snap = PoolSnapshot {
            now,
            arrived,
            done: self.done,
            done_sla_ok: self.done_ok,
            prefill_queue,
            pending_admission: kv.pending.len(),
            prefill_active: pa,
            prefill_draining: pd,
            prefill_parked: pp,
            decode_active: da,
            decode_draining: dd,
            decode_parked: dp,
            kv_pressure: if n == 0 { 1.0 } else { pressure / n as f64 },
        };
        self.ctl.as_mut().map(|c| c.on_tick(&snap))
    }

    /// Publish the Active counts to the trace.
    pub(crate) fn publish(&self, sh: &Shared, instances: &[Instance]) {
        let (pa, ..) = self.counts(instances, InstanceKind::Prefill);
        let (da, ..) = self.counts(instances, InstanceKind::Decode);
        sh.tracer.autoscale_pools(sh.now, pa, da);
    }

    /// Move both pools toward `targets`, clamped to `[1, pool size]`:
    /// growth cancels drains, then unparks in ascending index order;
    /// shrink drains the highest-index Active instances.
    pub(crate) fn retarget(
        &mut self,
        sh: &Shared,
        instances: &mut [Instance],
        kv: &KvShipper,
        targets: PoolTargets,
    ) {
        for (kind, want) in [
            (InstanceKind::Prefill, targets.prefill),
            (InstanceKind::Decode, targets.decode),
        ] {
            let range = self.range(kind, instances.len());
            if range.is_empty() {
                continue;
            }
            let want = want.clamp(1, range.len());
            let (active, ..) = self.counts(instances, kind);
            if want > active {
                let mut need = want - active;
                // Cancel drains first: their state is intact and the
                // GPU-hours clock never stopped, so reactivation is free.
                for from in [PoolState::Draining, PoolState::Parked] {
                    for inst in &mut instances[range.clone()] {
                        if need > 0 && inst.state == from {
                            inst.state = PoolState::Active;
                            if from == PoolState::Parked {
                                inst.occupied_since = Some(sh.now);
                            }
                            need -= 1;
                            self.scale_ups += 1;
                        }
                    }
                }
                let pool = pool_name(kind);
                sh.tracer
                    .autoscale_decision(sh.now, pool, active, want, "grow");
            } else if want < active {
                let mut excess = active - want;
                for i in range.rev() {
                    if excess > 0 && instances[i].state == PoolState::Active {
                        instances[i].state = PoolState::Draining;
                        excess -= 1;
                        self.scale_downs += 1;
                        self.park_if_drained(sh, instances, kv, i);
                    }
                }
                let pool = pool_name(kind);
                sh.tracer
                    .autoscale_decision(sh.now, pool, active, want, "shrink");
            }
        }
    }

    /// Park a Draining instance once it holds no work: a prefill instance
    /// must be idle with no batch; a decode instance must hold no live or
    /// joining requests *and* no KV reservation (a reservation covers
    /// admissions whose KV transfer is still in the air, so an instance
    /// can never park out from under an inbound shipment).
    pub(crate) fn park_if_drained(
        &self,
        sh: &Shared,
        instances: &mut [Instance],
        kv: &KvShipper,
        i: usize,
    ) {
        let inst = &mut instances[i];
        if inst.state != PoolState::Draining {
            return;
        }
        let empty = match inst.kind {
            InstanceKind::Prefill => inst.phase == InstPhase::Idle && inst.batch.is_empty(),
            InstanceKind::Decode => {
                inst.active.is_empty()
                    && inst.joining.is_empty()
                    && kv.managers[i - self.decode_offset].reserved() == 0
            }
        };
        if empty {
            inst.flush_gpu_seconds(sh.now);
            inst.state = PoolState::Parked;
            sh.tracer
                .autoscale_parked(sh.now, i as u64, pool_name(inst.kind));
        }
    }

    /// Close every open occupancy interval at the horizon: a run with no
    /// controller reports exactly `total_gpus × horizon` GPU-seconds.
    pub(crate) fn report(&self, r: &mut SimReport, instances: &mut [Instance], horizon: SimTime) {
        let mut gpu_seconds = 0.0;
        for inst in instances.iter_mut() {
            inst.flush_gpu_seconds(horizon);
            gpu_seconds += inst.gpu_seconds;
        }
        let horizon_s = horizon.as_secs_f64();
        r.scale_ups = self.scale_ups;
        r.scale_downs = self.scale_downs;
        r.gpu_seconds = gpu_seconds;
        r.mean_active_gpus = if horizon_s > 0.0 {
            gpu_seconds / horizon_s
        } else {
            0.0
        };
        r.final_prefill_active = self.counts(instances, InstanceKind::Prefill).0;
        r.final_decode_active = self.counts(instances, InstanceKind::Decode).0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_controller_never_moves() {
        let mut c = StaticController {
            prefill: 2,
            decode: 3,
        };
        assert_eq!(
            c.initial_targets(4, 4),
            PoolTargets {
                prefill: 2,
                decode: 3
            }
        );
        let snap = PoolSnapshot {
            now: SimTime::from_secs(1),
            arrived: 100,
            done: 50,
            done_sla_ok: 40,
            prefill_queue: 30,
            pending_admission: 5,
            prefill_active: 2,
            prefill_draining: 0,
            prefill_parked: 2,
            decode_active: 3,
            decode_draining: 0,
            decode_parked: 1,
            kv_pressure: 0.9,
        };
        assert_eq!(c.on_tick(&snap), None);
        assert_eq!(snap.prefill_total(), 4);
        assert_eq!(snap.decode_total(), 4);
    }
}
