//! Fault injection plans — timed fabric events replayed into a run.
//!
//! §V of the paper evaluates HeroServe on a testbed whose Tofino switches
//! and 100 GbE links are shared with other tenants; the serving system
//! must keep meeting SLAs when a link browns out or a programmable switch
//! reboots. A [`FaultPlan`] is the workload-side description of such an
//! episode: a time-sorted list of [`FaultEvent`]s that the cluster engine
//! applies to the flow-level network while a trace replays.
//!
//! The plan is pure data — it knows nothing about how the engine reacts.
//! Reaction (re-rating in-flight flows, aborting flows across dead links,
//! rerouting, INA failover) lives in `hs-simnet` / `hs-cluster` /
//! `heroserve`.

use hs_des::SimTime;
use hs_topology::{LinkId, NodeId};

/// One kind of fabric/host fault (or the matching recovery).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The link loses all capacity in both directions.
    LinkDown {
        /// The affected link.
        link: LinkId,
    },
    /// The link returns to its nominal capacity (it still carries
    /// nothing while an endpoint switch is failed).
    LinkUp {
        /// The recovered link.
        link: LinkId,
    },
    /// The link keeps only `factor` of its nominal capacity
    /// (`0.0 < factor < 1.0`; `0.0` is equivalent to [`FaultKind::LinkDown`]).
    LinkDegrade {
        /// The affected link.
        link: LinkId,
        /// Fraction of nominal capacity retained, in `[0, 1)`.
        factor: f64,
    },
    /// The switch fails: every link adjacent to it carries nothing while
    /// the failure lasts, and its in-network aggregation engine (if any)
    /// becomes unusable. The ports keep their own link state underneath.
    SwitchFail {
        /// The failed switch node.
        switch: NodeId,
    },
    /// The switch comes back; each adjacent link returns to its own state
    /// (the last `LinkDown`/`LinkDegrade`/`LinkUp` on it, else nominal
    /// capacity), unless its other endpoint is a failed switch.
    SwitchRecover {
        /// The recovered switch node.
        switch: NodeId,
    },
    /// Compute on the GPU runs `slowdown`× slower (thermal throttle,
    /// noisy neighbor). `slowdown >= 1.0`.
    GpuStall {
        /// The affected GPU node.
        gpu: NodeId,
        /// Compute-time multiplier, `>= 1.0`.
        slowdown: f64,
    },
    /// The GPU returns to nominal speed.
    GpuRecover {
        /// The recovered GPU node.
        gpu: NodeId,
    },
}

impl FaultKind {
    /// Whether the event ends a fault (`LinkUp`, `SwitchRecover`,
    /// `GpuRecover`) rather than starting one.
    pub fn is_recovery(&self) -> bool {
        matches!(
            self,
            FaultKind::LinkUp { .. }
                | FaultKind::SwitchRecover { .. }
                | FaultKind::GpuRecover { .. }
        )
    }
}

/// A [`FaultKind`] pinned to a simulation time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// A time-sorted schedule of fault events for one run.
///
/// Construct with the scenario helpers ([`FaultPlan::switch_outage`],
/// [`FaultPlan::link_outage`], [`FaultPlan::link_brownout`]) or build an
/// arbitrary schedule with [`FaultPlan::push`] / [`FaultPlan::merged`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan with no events (the common, healthy-fabric case).
    pub fn none() -> Self {
        Self::default()
    }

    /// Build from an arbitrary event list; events are sorted by time.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        for e in &events {
            validate(&e.kind);
        }
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// A switch dies at `fail` and reboots at `recover`.
    pub fn switch_outage(switch: NodeId, fail: SimTime, recover: SimTime) -> Self {
        assert!(fail < recover, "switch outage must end after it starts");
        Self::new(vec![
            FaultEvent {
                at: fail,
                kind: FaultKind::SwitchFail { switch },
            },
            FaultEvent {
                at: recover,
                kind: FaultKind::SwitchRecover { switch },
            },
        ])
    }

    /// A link goes dark at `down` and comes back at `up`.
    pub fn link_outage(link: LinkId, down: SimTime, up: SimTime) -> Self {
        assert!(down < up, "link outage must end after it starts");
        Self::new(vec![
            FaultEvent {
                at: down,
                kind: FaultKind::LinkDown { link },
            },
            FaultEvent {
                at: up,
                kind: FaultKind::LinkUp { link },
            },
        ])
    }

    /// A link runs at `factor` of nominal capacity between `from` and `to`.
    pub fn link_brownout(link: LinkId, factor: f64, from: SimTime, to: SimTime) -> Self {
        assert!(from < to, "brownout must end after it starts");
        Self::new(vec![
            FaultEvent {
                at: from,
                kind: FaultKind::LinkDegrade { link, factor },
            },
            FaultEvent {
                at: to,
                kind: FaultKind::LinkUp { link },
            },
        ])
    }

    /// Append one event, keeping the schedule sorted.
    pub fn push(&mut self, at: SimTime, kind: FaultKind) {
        validate(&kind);
        let pos = self.events.partition_point(|e| e.at <= at);
        self.events.insert(pos, FaultEvent { at, kind });
    }

    /// Merge two plans into one sorted schedule.
    pub fn merged(mut self, other: FaultPlan) -> Self {
        self.events.extend(other.events);
        self.events.sort_by_key(|e| e.at);
        self
    }

    /// The scheduled events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// `[first event, last event]` — the window during which the fabric
    /// is (potentially) degraded. `None` for an empty plan.
    pub fn window(&self) -> Option<(SimTime, SimTime)> {
        match (self.events.first(), self.events.last()) {
            (Some(a), Some(b)) => Some((a.at, b.at)),
            _ => None,
        }
    }
}

fn validate(kind: &FaultKind) {
    match *kind {
        FaultKind::LinkDegrade { factor, .. } => {
            assert!(
                factor.is_finite() && (0.0..1.0).contains(&factor),
                "degrade factor must be in [0, 1), got {factor}"
            );
        }
        FaultKind::GpuStall { slowdown, .. } => {
            assert!(
                slowdown.is_finite() && slowdown >= 1.0,
                "GPU stall slowdown must be >= 1, got {slowdown}"
            );
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_sorted_and_window_spans_plan() {
        let mut plan =
            FaultPlan::switch_outage(NodeId(3), SimTime::from_secs(10), SimTime::from_secs(20));
        plan.push(
            SimTime::from_secs(5),
            FaultKind::LinkDegrade {
                link: LinkId(0),
                factor: 0.25,
            },
        );
        let times: Vec<u64> = plan
            .events()
            .iter()
            .map(|e| e.at.as_secs_f64() as u64)
            .collect();
        assert_eq!(times, vec![5, 10, 20]);
        assert_eq!(
            plan.window(),
            Some((SimTime::from_secs(5), SimTime::from_secs(20)))
        );
    }

    #[test]
    fn merged_interleaves_two_plans() {
        let a = FaultPlan::link_outage(LinkId(1), SimTime::from_secs(1), SimTime::from_secs(9));
        let b =
            FaultPlan::link_brownout(LinkId(2), 0.5, SimTime::from_secs(4), SimTime::from_secs(6));
        let m = a.merged(b);
        assert_eq!(m.events().len(), 4);
        assert!(m.events().windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn empty_plan_has_no_window() {
        assert!(FaultPlan::none().is_empty());
        assert_eq!(FaultPlan::none().window(), None);
    }

    #[test]
    #[should_panic(expected = "degrade factor")]
    fn rejects_out_of_range_degrade() {
        FaultPlan::new(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::LinkDegrade {
                link: LinkId(0),
                factor: 1.5,
            },
        }]);
    }
}
