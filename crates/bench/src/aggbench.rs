//! The Fig. 9 measurement loop: in-network aggregation throughput under
//! bursty background traffic.
//!
//! Several tensor groups run all-reduce back to back for a fixed window
//! while bursty background flows (MMPP-timed bulk transfers between
//! random GPU pairs) congest the fabric. Aggregation throughput is the
//! classic *algorithm bandwidth*: payload bytes all-reduced per second
//! per group. Switch aggregation capacity is limited, and each system's
//! strategy declares what a busy switch means: SwitchML waits, ATP falls
//! back to Ethernet ring, HeroServe's online scheduler re-routes (other
//! switch / NVLink-first ring).

use heroserve::scheduler::{HeroScheduler, SchedulerParams};
use hs_baselines::BaselineKind;
use hs_cluster::{BusyPolicy, CommCtx, CommStrategy, StaticStrategy};
use hs_collective::{CollectiveExec, CollectivePlan, Progress, Scheme};
use hs_des::{EventQueue, SeedSplitter, SimTime};
use hs_simnet::{FlowId, LinkMonitor, SimNet};
use hs_topology::{AllPairs, Graph, NodeId};
use hs_workload::{ArrivalProcess, Mmpp};
use rand::seq::SliceRandom;
use rand::Rng;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// Configuration of one aggregation-throughput run.
pub struct AggBenchConfig {
    /// Payload bytes per all-reduce.
    pub msg_bytes: u64,
    /// The collective groups (typically one per model replica).
    pub groups: Vec<Vec<NodeId>>,
    /// System under test.
    pub system: BaselineKind,
    /// Concurrent INA jobs a switch can aggregate.
    pub ina_capacity_per_switch: usize,
    /// Measurement window.
    pub duration: SimTime,
    /// Background bulk-flow arrival rate (flows/s) — MMPP bursty.
    pub background_rate: f64,
    /// Background flow size, bytes.
    pub background_bytes: u64,
}

/// Result: aggregate algorithm bandwidth and diagnostics.
#[derive(Clone, Debug)]
pub struct AggResult {
    /// Completed all-reduces across all groups.
    pub ops: u64,
    /// Sum over groups of payload bytes reduced per second (bps of
    /// *algorithm* bandwidth).
    pub goodput_bps: f64,
    /// Ops that ran as INA.
    pub ina_ops: u64,
    /// Ops that ran as ring (incl. fallbacks).
    pub ring_ops: u64,
    /// Busy-switch fallbacks.
    pub fallbacks: u64,
}

enum Ev {
    LaunchBackground(usize),
    CollTimer(u64),
    Monitor,
}

struct GroupState {
    members: Vec<NodeId>,
    waiting: bool,
}

/// One run's mutable state: the network, the strategy, the groups, the
/// in-flight collectives and the INA slot ledger.
struct Run<'a> {
    cfg: &'a AggBenchConfig,
    graph: &'a Graph,
    ap: &'a AllPairs,
    net: SimNet,
    events: EventQueue<Ev>,
    strategy: Box<dyn CommStrategy>,
    util: Vec<f64>,
    groups: Vec<GroupState>,
    /// In-flight collectives: executor, group index, held INA switch.
    colls: FxHashMap<u64, (CollectiveExec, usize, Option<NodeId>)>,
    next_coll: u64,
    ina_active: FxHashMap<NodeId, usize>,
    ina_waiting: FxHashMap<NodeId, VecDeque<usize>>,
    result: AggResult,
}

impl Run<'_> {
    /// Launch group `gi`'s next all-reduce: the strategy's scheme if its
    /// switch has a free slot, else wait or fall back per the busy policy.
    fn start_group(&mut self, gi: usize, now: SimTime) {
        let members = &self.groups[gi].members;
        let scheme = self.strategy.choose(&CommCtx {
            group_id: gi as u64,
            group: members,
            bytes: self.cfg.msg_bytes,
            now,
            link_util: &self.util,
        });
        let (scheme, held) = match scheme.aggregating_switch(self.graph, members) {
            Some(switch) => {
                let active = self.ina_active.get(&switch).copied().unwrap_or(0);
                if active >= self.cfg.ina_capacity_per_switch {
                    let policy = self.strategy.busy_policy();
                    if policy == BusyPolicy::Wait {
                        self.groups[gi].waiting = true;
                        self.ina_waiting.entry(switch).or_default().push_back(gi);
                        return;
                    }
                    self.result.fallbacks += 1;
                    self.result.ring_ops += 1;
                    (policy.fallback(), None)
                } else {
                    *self.ina_active.entry(switch).or_insert(0) += 1;
                    self.result.ina_ops += 1;
                    (scheme, Some(switch))
                }
            }
            None => {
                self.result.ring_ops += 1;
                (scheme, None)
            }
        };
        let bytes = self.cfg.msg_bytes;
        let plan = CollectivePlan::compile(self.graph, self.ap, members, scheme, bytes);
        let id = self.next_coll;
        self.next_coll += 1;
        let mut exec = CollectiveExec::new(plan, id);
        match exec.start(&mut self.net, now) {
            Progress::Done => {
                // Degenerate (single-server NVLink-only with zero-hop
                // members) — count it and immediately relaunch via timer
                // to avoid infinite recursion at one instant.
                self.result.ops += 1;
                self.events.push(
                    now + hs_des::SimSpan::from_micros(1),
                    Ev::CollTimer(u64::MAX - gi as u64),
                );
            }
            Progress::InFlight => {
                self.colls.insert(id, (exec, gi, held));
            }
            Progress::StartTimer(d) => {
                self.colls.insert(id, (exec, gi, held));
                self.events.push(now + d, Ev::CollTimer(id));
            }
        }
    }

    /// Advance collective `id` on a flow completion (`Some`) or on its
    /// timer (`None`). A finished op frees its INA slot, wakes one waiter
    /// and queues its group for relaunch in `finished`.
    fn step(&mut self, now: SimTime, id: u64, flow: Option<FlowId>, finished: &mut Vec<usize>) {
        let Some((exec, gi, _)) = self.colls.get_mut(&id) else {
            return; // a background flow, or no longer in flight
        };
        let gi = *gi;
        let progress = match flow {
            Some(fid) => exec.on_flow_complete(&mut self.net, now, fid),
            None => exec.on_timer(&mut self.net, now),
        };
        match progress {
            Progress::InFlight => {}
            Progress::StartTimer(d) => self.events.push(now + d, Ev::CollTimer(id)),
            Progress::Done => {
                let (_, _, held) = self.colls.remove(&id).expect("coll");
                if let Some(sw) = held {
                    let c = self.ina_active.entry(sw).or_insert(1);
                    *c = c.saturating_sub(1);
                    if let Some(q) = self.ina_waiting.get_mut(&sw) {
                        if let Some(wgi) = q.pop_front() {
                            self.groups[wgi].waiting = false;
                            finished.push(wgi);
                        }
                    }
                }
                self.result.ops += 1;
                finished.push(gi);
            }
        }
    }
}

/// Run one configuration; deterministic in `seed`.
pub fn run_agg_bench(graph: &Graph, ap: &AllPairs, cfg: &AggBenchConfig, seed: u64) -> AggResult {
    let seeds = SeedSplitter::new(seed);
    let mut monitor = LinkMonitor::new(graph.link_count(), 0.5);
    let mut events: EventQueue<Ev> = EventQueue::new();
    let gpus = graph.gpus();

    // Background traffic schedule.
    let mut bg_rng = seeds.stream("background");
    let mut bursty = Mmpp::bursty(cfg.background_rate, 5.0);
    let bg_times = bursty.arrivals_until(&mut bg_rng, cfg.duration);
    let mut pair_rng = seeds.stream("pairs");
    let bg_pairs: Vec<(NodeId, NodeId)> = (0..bg_times.len())
        .map(|_| {
            let a = *gpus.choose(&mut pair_rng).expect("gpus");
            let mut b = *gpus.choose(&mut pair_rng).expect("gpus");
            while b == a {
                b = *gpus.choose(&mut pair_rng).expect("gpus");
            }
            (a, b)
        })
        .collect();
    for (i, &t) in bg_times.iter().enumerate() {
        events.push(t, Ev::LaunchBackground(i));
    }
    events.push(SimTime::from_millis(10), Ev::Monitor);

    let mut run = Run {
        cfg,
        graph,
        ap,
        net: SimNet::new(graph),
        events,
        strategy: system_strategy(cfg.system, graph, ap, &cfg.groups),
        util: vec![0.0f64; graph.link_count()],
        groups: cfg
            .groups
            .iter()
            .map(|g| GroupState {
                members: g.clone(),
                waiting: false,
            })
            .collect(),
        colls: FxHashMap::default(),
        next_coll: 0,
        ina_active: FxHashMap::default(),
        ina_waiting: FxHashMap::default(),
        result: AggResult {
            ops: 0,
            goodput_bps: 0.0,
            ina_ops: 0,
            ring_ops: 0,
            fallbacks: 0,
        },
    };

    // Kick every group at t = 0.
    for gi in 0..run.groups.len() {
        run.start_group(gi, SimTime::ZERO);
    }

    // Event loop.
    loop {
        let tq = run.events.peek_time();
        let tn = run.net.next_event_time();
        let t = match (tq, tn) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        if t > cfg.duration {
            break;
        }
        let now = t;
        let done = run.net.advance_to(t);
        let mut finished_groups: Vec<usize> = Vec::new();
        for (fid, flow) in done {
            run.step(now, flow.tag, Some(fid), &mut finished_groups);
        }
        if run.events.peek_time() == Some(t) {
            let (_, ev) = run.events.pop().expect("peeked");
            match ev {
                Ev::LaunchBackground(i) => {
                    let (a, b) = bg_pairs[i];
                    let path = ap.path(a, b);
                    if !path.links.is_empty() {
                        let links = path.directed_links(graph);
                        run.net
                            .start_flow(now, &links, cfg.background_bytes, u64::MAX);
                    }
                }
                Ev::CollTimer(id) => {
                    if id > u64::MAX - 1024 {
                        // Degenerate-plan relaunch marker.
                        let gi = (u64::MAX - id) as usize;
                        finished_groups.push(gi);
                    } else {
                        run.step(now, id, None, &mut finished_groups);
                    }
                }
                Ev::Monitor => {
                    monitor.poll(&run.net, now);
                    run.util.copy_from_slice(monitor.snapshot());
                    run.strategy.on_monitor(&run.util, now);
                    run.events
                        .push(now + hs_des::SimSpan::from_millis(10), Ev::Monitor);
                }
            }
        }
        // Relaunch groups that finished an op (back-to-back offered load).
        finished_groups.sort_unstable();
        finished_groups.dedup();
        for gi in finished_groups {
            if !run.groups[gi].waiting {
                run.start_group(gi, now);
            }
        }
    }

    let mut result = run.result;
    result.goodput_bps =
        result.ops as f64 * cfg.msg_bytes as f64 * 8.0 / cfg.duration.as_secs_f64();
    result
}

/// The communication strategy `system` runs over `groups` (group id =
/// index): DistServe's ring, DS-ATP's and DS-SwitchML's INA at each
/// group's nearest switch (by worst-member distance on `ap`), or
/// HeroServe's online scheduler.
fn system_strategy(
    system: BaselineKind,
    graph: &Graph,
    ap: &AllPairs,
    groups: &[Vec<NodeId>],
) -> Box<dyn CommStrategy> {
    match system {
        BaselineKind::HeroServe => Box::new(HeroScheduler::new(
            graph,
            ap.clone(),
            SchedulerParams::default(),
        )),
        BaselineKind::DistServe => Box::new(StaticStrategy::uniform(
            system.name(),
            Scheme::Ring,
            system.static_busy_policy(),
        )),
        BaselineKind::DsAtp | BaselineKind::DsSwitchml => {
            let ina_switches = graph.ina_switches();
            let nearest: Vec<Scheme> = groups
                .iter()
                .map(|g| {
                    ina_switches
                        .iter()
                        .filter(|&&s| ap.covers(s))
                        .min_by(|&&a, &&b| {
                            let da = g.iter().map(|&k| ap.dist(k, a)).fold(0.0f64, f64::max);
                            let db = g.iter().map(|&k| ap.dist(k, b)).fold(0.0f64, f64::max);
                            da.partial_cmp(&db)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then_with(|| a.cmp(&b))
                        })
                        .map_or(Scheme::Ring, |&switch| Scheme::Ina { switch })
                })
                .collect();
            Box::new(StaticStrategy::per_group(
                system.name(),
                move |gi, _| nearest[gi as usize],
                system.static_busy_policy(),
            ))
        }
    }
}

/// Pick `n` cross-server groups of `size` GPUs each from a topology's
/// servers round-robin (so every group spans servers and must touch the
/// fabric). Deterministic in `seed`.
pub fn cross_server_groups(
    gpus_by_server: &[Vec<NodeId>],
    n: usize,
    size: usize,
    seed: u64,
) -> Vec<Vec<NodeId>> {
    let mut rng = SeedSplitter::new(seed).stream("groups");
    let servers = gpus_by_server.len();
    assert!(
        servers >= 2,
        "need multiple servers for cross-server groups"
    );
    let mut used: FxHashMap<NodeId, ()> = FxHashMap::default();
    let mut groups = Vec::new();
    for g in 0..n {
        let mut group = Vec::new();
        let mut s = rng.gen_range(0..servers);
        let mut guard = 0;
        while group.len() < size && guard < size * servers * 4 {
            guard += 1;
            let server = &gpus_by_server[s % servers];
            if let Some(&gpu) = server.iter().find(|g| !used.contains_key(g)) {
                used.insert(gpu, ());
                group.push(gpu);
            }
            s += 1;
        }
        assert_eq!(group.len(), size, "not enough free GPUs for group {g}");
        groups.push(group);
    }
    groups
}
