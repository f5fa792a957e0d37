//! Pass-through wrappers around the two pluggable engine hooks.
//!
//! [`ProbeStrategy`] wraps a [`CommStrategy`] and [`ProbeScaler`] wraps a
//! [`ScaleController`]. Both forward every trait method, defaults
//! included, so the wrapped run makes exactly the decisions the bare run
//! makes. Around each call they take wall-clock stamps; the counts and
//! times land in a [`Probe`] the benchmark keeps a handle to, since the
//! engine owns the boxed wrapper. When the engine attaches a recording
//! tracer, the strategy wrapper also drains it at every monitor tick and
//! folds the records, so the trace never sits in memory whole.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::{Duration, Instant};

use hs_cluster::{
    BusyPolicy, CommCtx, CommStrategy, KvCandidate, KvChoice, KvCtx, PoolSnapshot, PoolTargets,
    ScaleController,
};
use hs_collective::Scheme;
use hs_des::SimTime;
use hs_simnet::DirLink;
use hs_topology::{LinkId, NodeId};
use hs_workload::FaultKind;

use crate::fold::TraceFold;

/// Calls made to one hook method and the host time spent inside them.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Calls {
    pub n: u64,
    pub secs: f64,
}

impl Calls {
    fn add(&mut self, d: Duration) {
        self.n += 1;
        self.secs += d.as_secs_f64();
    }

    pub fn merge(&mut self, o: &Calls) {
        self.n += o.n;
        self.secs += o.secs;
    }
}

/// Everything the wrappers measured over one simulation.
#[derive(Clone, Debug, Default)]
pub struct Probe {
    pub choose: Calls,
    pub choose_path: Calls,
    pub choose_decode: Calls,
    pub on_monitor: Calls,
    pub on_fault: Calls,
    pub on_tick: Calls,
    /// `on_tick` calls that returned new pool targets.
    pub decisions: u64,
    /// Host seconds spent while the simulated fabric had a dead link or a
    /// failed switch, stamped at every monitor tick and fault.
    pub fault_window_host_s: f64,
    outage: Outage,
}

impl Probe {
    pub fn scheduler_secs(&self) -> f64 {
        [
            self.choose,
            self.choose_path,
            self.choose_decode,
            self.on_monitor,
            self.on_fault,
        ]
        .iter()
        .map(|c| c.secs)
        .sum()
    }

    pub fn merge(&mut self, o: &Probe) {
        for (a, b) in [
            (&mut self.choose, &o.choose),
            (&mut self.choose_path, &o.choose_path),
            (&mut self.choose_decode, &o.choose_decode),
            (&mut self.on_monitor, &o.on_monitor),
            (&mut self.on_fault, &o.on_fault),
            (&mut self.on_tick, &o.on_tick),
        ] {
            a.merge(b);
        }
        self.decisions += o.decisions;
        self.fault_window_host_s += o.fault_window_host_s;
    }

    /// Close the current interval of the outage clock.
    fn stamp(&mut self) {
        let now = Instant::now();
        if let Some(last) = self.outage.last_stamp {
            if self.outage.is_down() {
                self.fault_window_host_s += (now - last).as_secs_f64();
            }
        }
        self.outage.last_stamp = Some(now);
    }
}

/// Which parts of the fabric are dead right now, as the fault
/// notifications tell it. Brownouts are not outages.
#[derive(Clone, Debug, Default)]
struct Outage {
    dead_links: BTreeSet<LinkId>,
    failed_switches: BTreeSet<NodeId>,
    last_stamp: Option<Instant>,
}

impl Outage {
    fn is_down(&self) -> bool {
        !self.dead_links.is_empty() || !self.failed_switches.is_empty()
    }

    fn apply(&mut self, kind: &FaultKind) {
        match *kind {
            FaultKind::LinkDown { link } => {
                self.dead_links.insert(link);
            }
            FaultKind::LinkDegrade { link, factor } if factor <= 0.0 => {
                self.dead_links.insert(link);
            }
            FaultKind::LinkUp { link } => {
                self.dead_links.remove(&link);
            }
            FaultKind::SwitchFail { switch } => {
                self.failed_switches.insert(switch);
            }
            FaultKind::SwitchRecover { switch } => {
                self.failed_switches.remove(&switch);
            }
            FaultKind::LinkDegrade { .. }
            | FaultKind::GpuStall { .. }
            | FaultKind::GpuRecover { .. } => {}
        }
    }
}

/// Shared handles: the engine owns the wrapper, the benchmark reads these.
pub type ProbeHandle = Rc<RefCell<Probe>>;
pub type FoldHandle = Rc<RefCell<TraceFold>>;

fn timed<T>(calls: &mut Calls, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    calls.add(t.elapsed());
    out
}

/// A [`CommStrategy`] that times every call into the wrapped strategy.
pub struct ProbeStrategy {
    inner: Box<dyn CommStrategy>,
    probe: ProbeHandle,
    fold: FoldHandle,
    tracer: Option<hs_obs::Tracer>,
}

impl ProbeStrategy {
    pub fn new(inner: Box<dyn CommStrategy>, probe: ProbeHandle, fold: FoldHandle) -> Self {
        ProbeStrategy {
            inner,
            probe,
            fold,
            tracer: None,
        }
    }
}

impl CommStrategy for ProbeStrategy {
    fn choose(&mut self, ctx: &CommCtx<'_>) -> Scheme {
        let inner = &mut self.inner;
        timed(&mut self.probe.borrow_mut().choose, || inner.choose(ctx))
    }

    fn busy_policy(&self) -> BusyPolicy {
        self.inner.busy_policy()
    }

    fn choose_path(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        link_util: &[f64],
    ) -> Option<Vec<DirLink>> {
        let inner = &mut self.inner;
        timed(&mut self.probe.borrow_mut().choose_path, || {
            inner.choose_path(src, dst, bytes, link_util)
        })
    }

    fn network_aware_admission(&self) -> bool {
        self.inner.network_aware_admission()
    }

    fn choose_decode(&mut self, ctx: &KvCtx<'_>, candidates: &[KvCandidate]) -> Option<KvChoice> {
        let inner = &mut self.inner;
        timed(&mut self.probe.borrow_mut().choose_decode, || {
            inner.choose_decode(ctx, candidates)
        })
    }

    fn on_monitor(&mut self, link_util: &[f64], now: SimTime) {
        let mut probe = self.probe.borrow_mut();
        probe.stamp();
        let inner = &mut self.inner;
        timed(&mut probe.on_monitor, || inner.on_monitor(link_util, now));
        if let Some(tracer) = &self.tracer {
            self.fold.borrow_mut().push(tracer.take());
        }
    }

    fn on_fault(&mut self, kind: &FaultKind, now: SimTime) {
        let mut probe = self.probe.borrow_mut();
        probe.stamp();
        probe.outage.apply(kind);
        let inner = &mut self.inner;
        timed(&mut probe.on_fault, || inner.on_fault(kind, now));
    }

    fn attach_tracer(&mut self, tracer: &hs_obs::Tracer) {
        self.tracer = tracer.is_enabled().then(|| tracer.clone());
        self.inner.attach_tracer(tracer);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// A [`ScaleController`] that times and counts every tick of the wrapped
/// controller.
pub struct ProbeScaler {
    inner: Box<dyn ScaleController>,
    probe: ProbeHandle,
}

impl ProbeScaler {
    pub fn new(inner: Box<dyn ScaleController>, probe: ProbeHandle) -> Self {
        ProbeScaler { inner, probe }
    }
}

impl ScaleController for ProbeScaler {
    fn initial_targets(&mut self, prefill_slots: usize, decode_slots: usize) -> PoolTargets {
        self.inner.initial_targets(prefill_slots, decode_slots)
    }

    fn on_tick(&mut self, snapshot: &PoolSnapshot) -> Option<PoolTargets> {
        let mut probe = self.probe.borrow_mut();
        let inner = &mut self.inner;
        let out = timed(&mut probe.on_tick, || inner.on_tick(snapshot));
        probe.decisions += u64::from(out.is_some());
        out
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
