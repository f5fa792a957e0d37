//! The pluggable communication strategy — where HeroServe and the
//! baselines differ.
//!
//! Every iteration, each tensor-parallel group runs one aggregated
//! all-reduce. The engine asks the strategy which [`Scheme`] to use, given
//! the group and the synchronization volume. The strategy also declares
//! what happens when its chosen INA switch has no free aggregation
//! capacity: SwitchML-style jobs *wait*; ATP-style jobs *fall back* to
//! ring (§IV / §V baseline semantics).
//!
//! Link utilization, the online scheduler's observation channel, reaches
//! a strategy in two places only: [`CommStrategy::on_monitor`] at each
//! monitor tick, and [`CommStrategy::choose_path`], which is passed the
//! same estimates until the next tick. Both read the engine's one link
//! monitor.

use crate::kvflow::KvRoutes;
use hs_collective::Scheme;
use hs_des::SimTime;
use hs_simnet::DirLink;
use hs_topology::NodeId;
use hs_workload::FaultKind;

/// Behaviour when the chosen INA switch is at its concurrent-job limit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusyPolicy {
    /// Queue the collective until a slot frees (synchronous INA).
    Wait,
    /// Degrade this iteration's collective to a flat ring (best-effort
    /// INA — ATP semantics: end hosts aggregate over Ethernet).
    FallbackRing,
    /// Degrade to the NVLink-first hierarchical ring (HeroServe keeps the
    /// heterogeneity win even when a switch is saturated).
    FallbackHierRing,
}

impl BusyPolicy {
    /// The host-side scheme a collective degrades to when it does not
    /// aggregate at its switch.
    pub fn fallback(self) -> Scheme {
        match self {
            BusyPolicy::FallbackHierRing => Scheme::HierRing,
            BusyPolicy::FallbackRing | BusyPolicy::Wait => Scheme::Ring,
        }
    }
}

/// Per-collective decision context handed to the strategy. It carries no
/// link utilization: a strategy that prices the fabric keeps what it
/// needs from [`CommStrategy::on_monitor`].
#[derive(Clone, Copy, Debug)]
pub struct CommCtx<'a> {
    /// Stable identifier of the tensor-parallel group.
    pub group_id: u64,
    /// The group's GPUs.
    pub group: &'a [NodeId],
    /// Full synchronization volume for this iteration, bytes.
    pub bytes: u64,
    /// Simulation time.
    pub now: SimTime,
}

/// One candidate decode instance offered to [`CommStrategy::choose_decode`].
/// Candidates are presented in ascending decode-pool index order (a
/// deterministic order — never hash order) and are pre-filtered to
/// instances whose KV manager can admit the request.
#[derive(Clone, Debug)]
pub struct KvCandidate<'a> {
    /// Index into the decode pool (engine-local, dense from 0).
    pub instance: usize,
    /// Current decode load: active + joining requests.
    pub load: usize,
    /// Unreserved KV tokens remaining on this instance.
    pub headroom_tokens: u64,
    /// Total KV token capacity of this instance.
    pub capacity_tokens: u64,
    /// The instance's GPUs — the stripe destinations if chosen.
    pub dst_gpus: &'a [NodeId],
}

/// Decision context for one decode-instance selection. It carries no
/// link utilization: a strategy that prices the fabric keeps what it
/// needs from [`CommStrategy::on_monitor`], the only place the engine
/// changes the utilization it monitors.
#[derive(Clone, Copy, Debug)]
pub struct KvCtx<'a> {
    /// Request id being admitted.
    pub req: u64,
    /// Full KV-cache shipment size, bytes (Eq. 14).
    pub bytes: u64,
    /// The originating prefill instance's GPUs — the stripe sources.
    pub src_gpus: &'a [NodeId],
    /// The engine's shortest routes, flattened once from its
    /// `AllPairs`: what prices a candidate's shipment.
    pub routes: &'a KvRoutes,
    /// Simulation time.
    pub now: SimTime,
}

/// A strategy's decode-instance pick.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KvChoice {
    /// Decode-pool index of the chosen instance (must name a candidate).
    pub instance: usize,
    /// The strategy's own estimate of the KV transfer time, seconds.
    /// Recorded against the realized transfer time for estimator audit.
    pub est_transfer_s: f64,
}

/// A communication scheduling policy.
pub trait CommStrategy {
    /// Choose the scheme for one collective.
    fn choose(&mut self, ctx: &CommCtx<'_>) -> Scheme;

    /// What to do when the chosen INA switch is busy.
    fn busy_policy(&self) -> BusyPolicy {
        BusyPolicy::FallbackRing
    }

    /// Choose a route for a point-to-point transfer (KV-cache transfer,
    /// pipeline-stage hop). `None` keeps the engine's static shortest
    /// path — what DistServe/DS-ATP/DS-SwitchML do. HeroServe's policy
    /// table also covers "the next hop, the transmission path" (§III-D,
    /// Fig. 5), so its implementation load-balances across the
    /// cross-connected fabric's alternative routes. The utilization
    /// passed in is what the last [`on_monitor`](Self::on_monitor)
    /// received, bit for bit: all zeros before the first tick.
    fn choose_path(
        &mut self,
        _src: NodeId,
        _dst: NodeId,
        _bytes: u64,
        _link_util: &[f64],
    ) -> Option<Vec<DirLink>> {
        None
    }

    /// Whether the engine should build a [`KvCandidate`] list and consult
    /// [`choose_decode`](Self::choose_decode) at admission time. Network-
    /// oblivious strategies return `false` (the default) and skip the
    /// candidate-construction cost entirely, keeping the least-loaded pick.
    fn network_aware_admission(&self) -> bool {
        false
    }

    /// Choose the decode instance for an admitted request — the NetKV-style
    /// hook: score candidates by estimated KV transfer time, KV headroom,
    /// and decode load. Link utilization comes through
    /// [`on_monitor`](Self::on_monitor): the engine changes the
    /// utilization it monitors only at a monitor tick and passes it on
    /// right then, so a strategy that prices links there, starting from
    /// an idle fabric, sees at every admission what the engine sees.
    /// Returning `None`, or an instance that is not among the candidates,
    /// falls back to the engine's least-loaded pick; the engine
    /// re-validates capacity either way, so a stale choice can never
    /// over-admit.
    fn choose_decode(
        &mut self,
        _ctx: &KvCtx<'_>,
        _candidates: &[KvCandidate<'_>],
    ) -> Option<KvChoice> {
        None
    }

    /// Periodic monitoring callback (the paper's control-plane poll loop):
    /// the latest monitored per-link utilization (EWMA, `[0,1]`), indexed
    /// by dense `LinkId`. Before the first call every link is idle.
    fn on_monitor(&mut self, _link_util: &[f64], _now: SimTime) {}

    /// Fabric-health change notification, delivered when a scheduled
    /// fault ([`hs_workload::FaultPlan`]) fires. Fault-oblivious
    /// strategies (the static baselines) ignore it; HeroServe's online
    /// scheduler invalidates cached routes and cost-table entries that
    /// cross dead links.
    fn on_fault(&mut self, _kind: &FaultKind, _now: SimTime) {}

    /// Attach a tracer for decision-audit events (policy selections,
    /// charges, refreshes). Strategies with nothing to audit ignore it.
    fn attach_tracer(&mut self, _tracer: &hs_obs::Tracer) {}

    /// Name for reports.
    fn name(&self) -> &str;
}

/// Resolver from `(group_id, group)` to a scheme.
type SchemeFn = Box<dyn Fn(u64, &[NodeId]) -> Scheme>;

/// A fixed strategy: always the same scheme (optionally resolved per
/// group). Used for the DistServe baseline (always `Ring`) and for
/// ablations (INA-only / hierarchical-only).
pub struct StaticStrategy {
    name: String,
    scheme_of: SchemeFn,
    busy: BusyPolicy,
}

impl StaticStrategy {
    /// Always `scheme`, for every group.
    pub fn uniform(name: impl Into<String>, scheme: Scheme, busy: BusyPolicy) -> Self {
        StaticStrategy {
            name: name.into(),
            scheme_of: Box::new(move |_, _| scheme),
            busy,
        }
    }

    /// Scheme chosen per group by a closure (e.g. "the group's planner
    /// assignment").
    pub fn per_group(
        name: impl Into<String>,
        f: impl Fn(u64, &[NodeId]) -> Scheme + 'static,
        busy: BusyPolicy,
    ) -> Self {
        StaticStrategy {
            name: name.into(),
            scheme_of: Box::new(f),
            busy,
        }
    }
}

impl CommStrategy for StaticStrategy {
    fn choose(&mut self, ctx: &CommCtx<'_>) -> Scheme {
        (self.scheme_of)(ctx.group_id, ctx.group)
    }

    fn busy_policy(&self) -> BusyPolicy {
        self.busy
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_strategy_is_constant() {
        let mut s = StaticStrategy::uniform("ring", Scheme::Ring, BusyPolicy::FallbackRing);
        let ctx = CommCtx {
            group_id: 0,
            group: &[NodeId(0), NodeId(1)],
            bytes: 1024,
            now: SimTime::ZERO,
        };
        assert_eq!(s.choose(&ctx), Scheme::Ring);
        assert_eq!(s.busy_policy(), BusyPolicy::FallbackRing);
        assert_eq!(s.name(), "ring");
    }

    #[test]
    fn per_group_strategy_dispatches() {
        let mut s = StaticStrategy::per_group(
            "alt",
            |gid, _| {
                if gid % 2 == 0 {
                    Scheme::Ring
                } else {
                    Scheme::Ina { switch: NodeId(9) }
                }
            },
            BusyPolicy::Wait,
        );
        let mk = |gid| CommCtx {
            group_id: gid,
            group: &[],
            bytes: 0,
            now: SimTime::ZERO,
        };
        assert_eq!(s.choose(&mk(0)), Scheme::Ring);
        assert_eq!(s.choose(&mk(1)), Scheme::Ina { switch: NodeId(9) });
        assert_eq!(s.busy_policy(), BusyPolicy::Wait);
    }
}
