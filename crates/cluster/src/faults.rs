//! Fault recovery: which switches are dead and which GPUs stall, the
//! demux of flows a dead link tore out, and time-to-reroute samples.

use crate::engine::{Shared, TAG_ID_MASK, TAG_KIND_SHIFT};
use crate::instance::InstanceSpec;
use crate::metrics::SimReport;
use hs_des::SimTime;
use hs_simnet::{Flow, FlowId};
use hs_topology::{LinkId, NodeId};
use hs_workload::FaultKind;
use rustc_hash::{FxHashMap, FxHashSet};
use std::collections::BTreeMap;

/// Aborted flows grouped by owner (collective or request id), in id order.
pub(crate) type ByOwner = BTreeMap<u64, Vec<FlowId>>;

/// Fault state and its `SimReport` fields: `aborted_flows`,
/// `flow_retries` and `mean_reroute_s`.
#[derive(Default)]
pub(crate) struct FaultRecovery {
    /// Switches that cannot aggregate until they recover.
    pub(crate) failed_switches: FxHashSet<NodeId>,
    gpu_slowdown: FxHashMap<NodeId, f64>,
    aborted_flows: u64,
    /// Collective and KV relaunches after fault-induced aborts.
    pub(crate) flow_retries: u64,
    /// Seconds from each fault-induced abort to a relaunch whose plan
    /// avoids every dead link.
    reroute_secs: Vec<f64>,
}

impl FaultRecovery {
    /// Record `kind` and return the link rescales it implies, in order.
    pub(crate) fn apply(&mut self, sh: &Shared, kind: FaultKind) -> Vec<(LinkId, f64)> {
        if sh.tracer.is_enabled() {
            let recovered = matches!(
                kind,
                FaultKind::LinkUp { .. }
                    | FaultKind::SwitchRecover { .. }
                    | FaultKind::GpuRecover { .. }
            );
            sh.tracer.fault(sh.now, format!("{kind:?}"), recovered);
        }
        sh.metrics.inc(sh.obs.faults, 1);
        let ports = |switch, factor| {
            sh.g.neighbors(switch)
                .iter()
                .map(move |&(_, l)| (l, factor))
        };
        match kind {
            FaultKind::LinkDown { link } => vec![(link, 0.0)],
            FaultKind::LinkUp { link } => vec![(link, 1.0)],
            FaultKind::LinkDegrade { link, factor } => vec![(link, factor)],
            FaultKind::SwitchFail { switch } => {
                self.failed_switches.insert(switch);
                ports(switch, 0.0).collect()
            }
            FaultKind::SwitchRecover { switch } => {
                self.failed_switches.remove(&switch);
                ports(switch, 1.0).collect()
            }
            FaultKind::GpuStall { gpu, slowdown } => {
                self.gpu_slowdown.insert(gpu, slowdown);
                Vec::new()
            }
            FaultKind::GpuRecover { gpu } => {
                self.gpu_slowdown.remove(&gpu);
                Vec::new()
            }
        }
    }

    /// Worst GPU-stall slowdown across an instance's GPUs (1.0 healthy).
    pub(crate) fn slowdown(&self, spec: &InstanceSpec) -> f64 {
        if self.gpu_slowdown.is_empty() {
            return 1.0;
        }
        spec.all_gpus()
            .iter()
            .map(|g| self.gpu_slowdown.get(g).copied().unwrap_or(1.0))
            .fold(1.0, f64::max)
    }

    /// Count the aborted flows and split them into `(collectives, KV
    /// shipments)`; background flows have no retry semantics and drop.
    pub(crate) fn demux(&mut self, aborted: Vec<(FlowId, Flow)>) -> (ByOwner, ByOwner) {
        let (mut colls, mut kv) = (ByOwner::new(), ByOwner::new());
        for (id, flow) in aborted {
            self.aborted_flows += 1;
            let owner = flow.tag & TAG_ID_MASK;
            match flow.tag >> TAG_KIND_SHIFT {
                1 => colls.entry(owner).or_default().push(id),
                2 => kv.entry(owner).or_default().push(id),
                _ => {}
            }
        }
        (colls, kv)
    }

    /// A relaunch of `id`'s work aborted at `aborted_at` avoids every
    /// dead link: record the time-to-reroute.
    pub(crate) fn record_reroute(&mut self, sh: &Shared, id: u64, aborted_at: SimTime) {
        let delay = sh.now.saturating_since(aborted_at).as_secs_f64();
        self.reroute_secs.push(delay);
        sh.tracer.reroute(sh.now, id, delay);
    }

    pub(crate) fn report(&self, r: &mut SimReport) {
        r.aborted_flows = self.aborted_flows;
        r.flow_retries = self.flow_retries;
        r.mean_reroute_s = hs_workload::mean(&self.reroute_secs);
    }
}
