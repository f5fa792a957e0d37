//! Fault state ([`FabricHealth`], the one decoder of fault events) and
//! fault recovery: the demux of flows a dead link tore out, and
//! time-to-reroute samples.

use crate::engine::{FlowOwner, Shared};
use crate::instance::InstanceSpec;
use crate::metrics::SimReport;
use hs_des::SimTime;
use hs_simnet::{Flow, FlowId};
use hs_topology::{Graph, LinkId, NodeId};
use hs_workload::FaultKind;
use std::collections::BTreeMap;

/// The fabric's fault state. A link's own events (`LinkDown`,
/// `LinkDegrade`, `LinkUp`) set its own scale, and the last one wins. A
/// failed switch pins its ports to 0 but leaves their own scales as they
/// are. So a link's effective scale is 0 while it or either endpoint
/// switch is down, and its own scale otherwise.
#[derive(Debug)]
pub struct FabricHealth {
    /// Each link's own scale (1.0 nominal).
    own: Vec<f64>,
    /// How many of each link's endpoints are failed switches.
    failed_ends: Vec<u8>,
    /// Failed switches, by node.
    failed: Vec<bool>,
    /// Compute-time multiplier per node (1.0 healthy).
    slowdown: Vec<f64>,
    /// Links whose effective scale is 0.
    dead: usize,
}

impl FabricHealth {
    /// A healthy fabric over `g`.
    pub fn new(g: &Graph) -> Self {
        FabricHealth {
            own: vec![1.0; g.link_count()],
            failed_ends: vec![0; g.link_count()],
            failed: vec![false; g.node_count()],
            slowdown: vec![1.0; g.node_count()],
            dead: 0,
        }
    }

    /// Record `kind` and return `(link, effective scale)` for every link
    /// it names, in order: the link itself, or a switch's ports in
    /// adjacency order. GPU events name no link.
    pub fn apply(&mut self, g: &Graph, kind: FaultKind) -> Vec<(LinkId, f64)> {
        let links: Vec<LinkId> = match kind {
            FaultKind::LinkDown { link }
            | FaultKind::LinkUp { link }
            | FaultKind::LinkDegrade { link, .. } => vec![link],
            FaultKind::SwitchFail { switch } | FaultKind::SwitchRecover { switch } => {
                g.neighbors(switch).iter().map(|&(_, l)| l).collect()
            }
            FaultKind::GpuStall { .. } | FaultKind::GpuRecover { .. } => Vec::new(),
        };
        let dead = |h: &Self| links.iter().filter(|&&l| h.is_dead(l)).count();
        self.dead -= dead(self);
        match kind {
            FaultKind::LinkDown { link } => self.own[link.idx()] = 0.0,
            FaultKind::LinkUp { link } => self.own[link.idx()] = 1.0,
            FaultKind::LinkDegrade { link, factor } => self.own[link.idx()] = factor,
            FaultKind::SwitchFail { switch } | FaultKind::SwitchRecover { switch } => {
                let failed = matches!(kind, FaultKind::SwitchFail { .. });
                if std::mem::replace(&mut self.failed[switch.idx()], failed) != failed {
                    for l in &links {
                        let ends = &mut self.failed_ends[l.idx()];
                        *ends = if failed { *ends + 1 } else { *ends - 1 };
                    }
                }
            }
            FaultKind::GpuStall { gpu, slowdown } => self.slowdown[gpu.idx()] = slowdown,
            FaultKind::GpuRecover { gpu } => self.slowdown[gpu.idx()] = 1.0,
        }
        self.dead += dead(self);
        links.into_iter().map(|l| (l, self.scale(l))).collect()
    }

    /// `l`'s effective capacity scale: 0 while it or an endpoint switch is
    /// down, its own scale otherwise.
    pub fn scale(&self, l: LinkId) -> f64 {
        if self.failed_ends[l.idx()] > 0 {
            0.0
        } else {
            self.own[l.idx()]
        }
    }

    /// Whether `l` carries nothing.
    pub fn is_dead(&self, l: LinkId) -> bool {
        self.scale(l) <= 0.0
    }

    /// Whether any link carries nothing.
    pub fn any_dead(&self) -> bool {
        self.dead > 0
    }

    /// Whether `switch` is failed (and so cannot aggregate).
    pub fn switch_failed(&self, switch: NodeId) -> bool {
        self.failed[switch.idx()]
    }

    /// Worst GPU-stall slowdown across an instance's GPUs (1.0 healthy).
    pub fn slowdown(&self, spec: &InstanceSpec) -> f64 {
        spec.stages
            .iter()
            .flatten()
            .map(|g| self.slowdown[g.idx()])
            .fold(1.0, f64::max)
    }
}

/// Aborted flows grouped by owner (collective or request id), in id order.
pub(crate) type ByOwner = BTreeMap<u64, Vec<FlowId>>;

/// Fault recovery and its `SimReport` fields: `aborted_flows`,
/// `flow_retries` and `mean_reroute_s`.
#[derive(Default)]
pub(crate) struct FaultRecovery {
    aborted_flows: u64,
    /// Collective and KV relaunches after fault-induced aborts.
    pub(crate) flow_retries: u64,
    /// Seconds from each fault-induced abort to a relaunch whose plan
    /// avoids every dead link.
    reroute_secs: Vec<f64>,
}

impl FaultRecovery {
    /// Count the aborted flows and split them into `(collectives, KV
    /// shipments)`; background flows have no retry semantics and drop.
    pub(crate) fn demux(&mut self, aborted: Vec<(FlowId, Flow)>) -> (ByOwner, ByOwner) {
        let (mut colls, mut kv) = (ByOwner::new(), ByOwner::new());
        for (id, flow) in aborted {
            self.aborted_flows += 1;
            match FlowOwner::of(flow.tag) {
                Some(FlowOwner::Coll(coll)) => colls.entry(coll).or_default().push(id),
                Some(FlowOwner::Kv(req)) => kv.entry(req).or_default().push(id),
                None => {}
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

#[cfg(test)]
mod tests {
    use super::*;
    use hs_topology::builders::{testbed, BuiltTopology};

    /// The testbed, a fresh health view of it, switch 0 and its first port.
    fn setup() -> (BuiltTopology, FabricHealth, NodeId, LinkId) {
        let t = testbed();
        let h = FabricHealth::new(&t.graph);
        let sw = t.access_switches[0];
        let port = t.graph.neighbors(sw)[0].1;
        (t, h, sw, port)
    }

    #[test]
    fn brownout_on_a_dead_switch_port_waits_for_recovery() {
        let (t, mut h, switch, link) = setup();
        h.apply(&t.graph, FaultKind::SwitchFail { switch });
        let degrade = FaultKind::LinkDegrade { link, factor: 0.15 };
        assert_eq!(h.apply(&t.graph, degrade), vec![(link, 0.0)]);
        let back = h.apply(&t.graph, FaultKind::SwitchRecover { switch });
        assert!(back.contains(&(link, 0.15)), "{back:?}");
        assert_eq!(
            h.apply(&t.graph, FaultKind::LinkUp { link }),
            vec![(link, 1.0)]
        );
    }

    #[test]
    fn link_down_outlives_switch_recover() {
        let (t, mut h, switch, link) = setup();
        h.apply(&t.graph, FaultKind::LinkDown { link });
        h.apply(&t.graph, FaultKind::SwitchFail { switch });
        h.apply(&t.graph, FaultKind::SwitchRecover { switch });
        assert!(h.is_dead(link));
        let others = t
            .graph
            .neighbors(switch)
            .iter()
            .filter(|&&(_, l)| l != link);
        assert!(others.clone().count() > 0);
        for &(_, l) in others {
            assert_eq!(h.scale(l), 1.0, "port {l:?} of the recovered switch");
        }
    }

    #[test]
    fn link_up_clears_own_state_but_not_a_switch_failure() {
        let (t, mut h, switch, link) = setup();
        h.apply(&t.graph, FaultKind::SwitchFail { switch });
        h.apply(&t.graph, FaultKind::LinkDown { link });
        assert_eq!(
            h.apply(&t.graph, FaultKind::LinkUp { link }),
            vec![(link, 0.0)]
        );
        assert!(h.is_dead(link) && h.switch_failed(switch));
        h.apply(&t.graph, FaultKind::SwitchRecover { switch });
        assert_eq!(h.scale(link), 1.0);
        assert!(!h.any_dead());
    }

    #[test]
    fn trunk_between_failed_switches_needs_both_back() {
        let t = testbed();
        let mut h = FabricHealth::new(&t.graph);
        let [a, b] = [t.access_switches[0], t.access_switches[1]];
        let trunk = t
            .graph
            .neighbors(a)
            .iter()
            .find(|&&(n, _)| n == b)
            .expect("trunk")
            .1;
        h.apply(&t.graph, FaultKind::SwitchFail { switch: a });
        h.apply(&t.graph, FaultKind::SwitchFail { switch: b });
        h.apply(&t.graph, FaultKind::SwitchRecover { switch: a });
        assert!(h.is_dead(trunk));
        assert!(!h.switch_failed(a) && h.switch_failed(b));
        h.apply(&t.graph, FaultKind::SwitchRecover { switch: b });
        assert_eq!(h.scale(trunk), 1.0);
        assert!(!h.any_dead());
    }

    #[test]
    fn zero_degrade_counts_as_dead() {
        let (t, mut h, _, link) = setup();
        h.apply(&t.graph, FaultKind::LinkDegrade { link, factor: 0.0 });
        assert!(h.is_dead(link) && h.any_dead());
        h.apply(&t.graph, FaultKind::LinkUp { link });
        assert!(!h.any_dead());
    }

    #[test]
    fn gpu_stall_and_recovery() {
        let (t, mut h, _, _) = setup();
        let [gpu, other] = [t.gpus_by_server[0][0], t.gpus_by_server[0][1]];
        let spec = InstanceSpec::tensor_parallel(t.gpus_by_server[0].clone());
        let elsewhere = InstanceSpec::tensor_parallel(t.gpus_by_server[1].clone());
        let stall = FaultKind::GpuStall { gpu, slowdown: 2.0 };
        assert!(h.apply(&t.graph, stall).is_empty());
        let worse = FaultKind::GpuStall {
            gpu: other,
            slowdown: 3.0,
        };
        h.apply(&t.graph, worse);
        assert_eq!(h.slowdown(&spec), 3.0);
        assert_eq!(h.slowdown(&elsewhere), 1.0);
        h.apply(&t.graph, FaultKind::GpuRecover { gpu: other });
        assert_eq!(h.slowdown(&spec), 2.0);
        assert!(h.apply(&t.graph, FaultKind::GpuRecover { gpu }).is_empty());
        assert_eq!(h.slowdown(&spec), 1.0);
        assert!(!h.any_dead());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hs_topology::builders::testbed;
    use proptest::prelude::*;

    /// A fault on the testbed: `(kind 0..7, target index, degrade factor)`.
    fn event(t: &hs_topology::builders::BuiltTopology, e: (u8, usize, f64)) -> FaultKind {
        let (kind, i, factor) = e;
        let link = LinkId((i % t.graph.link_count()) as u32);
        let switch = t.access_switches[i % t.access_switches.len()];
        let gpu = t.gpus_by_server[0][i % 4];
        match kind {
            0 => FaultKind::LinkDown { link },
            1 => FaultKind::LinkUp { link },
            2 => FaultKind::LinkDegrade { link, factor },
            3 => FaultKind::SwitchFail { switch },
            4 => FaultKind::SwitchRecover { switch },
            5 => FaultKind::GpuStall {
                gpu,
                slowdown: 1.0 + factor,
            },
            _ => FaultKind::GpuRecover { gpu },
        }
    }

    /// `l`'s scale after `events`, from first principles: 0 if the last
    /// event of either endpoint switch is a failure, else the last own
    /// event's scale (1.0 if none).
    fn replay(g: &Graph, events: &[FaultKind], l: LinkId) -> f64 {
        let link = g.link(l);
        let mut own = 1.0;
        let (mut a_failed, mut b_failed) = (false, false);
        for &e in events {
            match e {
                FaultKind::LinkDown { link } if link == l => own = 0.0,
                FaultKind::LinkUp { link } if link == l => own = 1.0,
                FaultKind::LinkDegrade { link, factor } if link == l => own = factor,
                FaultKind::SwitchFail { switch } | FaultKind::SwitchRecover { switch } => {
                    let failed = matches!(e, FaultKind::SwitchFail { .. });
                    if switch == link.a {
                        a_failed = failed;
                    }
                    if switch == link.b {
                        b_failed = failed;
                    }
                }
                _ => {}
            }
        }
        if a_failed || b_failed {
            0.0
        } else {
            own
        }
    }

    proptest! {
        /// After every prefix of a random fault sequence, each link's
        /// scale equals a from-scratch replay of that prefix, `apply`
        /// returns the scales it leaves, and `any_dead` agrees.
        #[test]
        fn incremental_state_matches_a_replay(
            raw in proptest::collection::vec((0u8..7, 0usize..64, 0.0f64..1.0), 1..40),
        ) {
            let t = testbed();
            let g = &t.graph;
            let events: Vec<FaultKind> = raw.into_iter().map(|e| event(&t, e)).collect();
            let mut h = FabricHealth::new(g);
            for (n, &e) in events.iter().enumerate() {
                for (l, s) in h.apply(g, e) {
                    prop_assert_eq!(s.to_bits(), h.scale(l).to_bits());
                }
                let mut dead = 0;
                for (l, _) in g.links() {
                    let want = replay(g, &events[..=n], l);
                    prop_assert_eq!(h.scale(l).to_bits(), want.to_bits(), "link {:?}", l);
                    dead += usize::from(want <= 0.0);
                }
                prop_assert_eq!(h.any_dead(), dead > 0);
            }
        }
    }
}
