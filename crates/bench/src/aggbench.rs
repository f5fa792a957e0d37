//! The Fig. 9 measurement loop: in-network aggregation throughput under
//! bursty background traffic.
//!
//! Several tensor groups run all-reduce back to back for a fixed window
//! while bursty background flows (MMPP-timed bulk transfers between
//! random GPU pairs) congest the fabric. Aggregation throughput is the
//! classic *algorithm bandwidth*: payload bytes all-reduced per second
//! per group. Switch aggregation capacity is limited, with per-system
//! busy semantics: SwitchML waits, ATP falls back to Ethernet ring,
//! HeroServe's online scheduler re-routes (other switch / NVLink-first
//! ring).

use heroserve::scheduler::{HeroScheduler, SchedulerParams};
use hs_cluster::{CommCtx, CommStrategy};
use hs_collective::{CollectiveExec, CollectivePlan, Progress, Scheme};
use hs_des::{EventQueue, SeedSplitter, SimTime};
use hs_simnet::{FlowId, LinkMonitor, SimNet};
use hs_topology::{AllPairs, Graph, NodeId};
use hs_workload::{ArrivalProcess, Mmpp};
use rand::seq::SliceRandom;
use rand::Rng;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// Which system's aggregation discipline to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggSystem {
    /// DistServe: Ethernet ring.
    Ring,
    /// DS-SwitchML: INA at the nearest switch, wait when busy.
    InaWait,
    /// DS-ATP: INA at the nearest switch, fall back to ring when busy.
    InaFallback,
    /// HeroServe: online scheduler over the hybrid policy space.
    Hero,
}

impl AggSystem {
    /// Paper display name.
    pub fn name(&self) -> &'static str {
        match self {
            AggSystem::Ring => "DistServe",
            AggSystem::InaWait => "DS-SwitchML",
            AggSystem::InaFallback => "DS-ATP",
            AggSystem::Hero => "HeroServe",
        }
    }
}

/// Configuration of one aggregation-throughput run.
pub struct AggBenchConfig {
    /// Payload bytes per all-reduce.
    pub msg_bytes: u64,
    /// The collective groups (typically one per model replica).
    pub groups: Vec<Vec<NodeId>>,
    /// System under test.
    pub system: AggSystem,
    /// Concurrent INA jobs a switch can aggregate.
    pub ina_capacity_per_switch: usize,
    /// Measurement window.
    pub duration: SimTime,
    /// Background bulk-flow arrival rate (flows/s) — MMPP bursty.
    pub background_rate: f64,
    /// Background flow size, bytes.
    pub background_bytes: u64,
    /// When set, record the run (flow events, link scaling, HeroServe's
    /// policy-selection audit) and write Chrome trace-event JSON here.
    pub trace_path: Option<std::path::PathBuf>,
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

/// Run one configuration; deterministic in `seed`.
pub fn run_agg_bench(graph: &Graph, ap: &AllPairs, cfg: &AggBenchConfig, seed: u64) -> AggResult {
    let seeds = SeedSplitter::new(seed);
    let tracer = if cfg.trace_path.is_some() {
        hs_obs::Tracer::recording()
    } else {
        hs_obs::Tracer::noop()
    };
    let mut net = SimNet::new(graph);
    net.set_tracer(&tracer);
    let mut monitor = LinkMonitor::new(graph.link_count(), 0.5);
    let mut events: EventQueue<Ev> = EventQueue::new();
    let ina_switches = graph.ina_switches();
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

    // Scheduler for the Hero system.
    let mut hero = HeroScheduler::new(graph, ap.clone(), SchedulerParams::default());
    hero.attach_tracer(&tracer);
    let mut util = vec![0.0f64; graph.link_count()];

    // Group + collective state.
    let mut groups: Vec<GroupState> = cfg
        .groups
        .iter()
        .map(|g| GroupState {
            members: g.clone(),
            waiting: false,
        })
        .collect();
    let mut colls: FxHashMap<u64, (CollectiveExec, usize, Option<NodeId>)> = FxHashMap::default();
    let mut next_coll: u64 = 0;
    let mut ina_active: FxHashMap<NodeId, usize> = FxHashMap::default();
    let mut ina_waiting: FxHashMap<NodeId, VecDeque<usize>> = FxHashMap::default();
    let mut result = AggResult {
        ops: 0,
        goodput_bps: 0.0,
        ina_ops: 0,
        ring_ops: 0,
        fallbacks: 0,
    };

    // Nearest switch per group (by hop distance on the matrix).
    let nearest_switch: Vec<Option<NodeId>> = cfg
        .groups
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
                .copied()
        })
        .collect();

    // Launch helper: returns the collective id if it went in flight.
    #[allow(clippy::too_many_arguments)]
    fn start_group(
        gi: usize,
        now: SimTime,
        cfg: &AggBenchConfig,
        graph: &Graph,
        ap: &AllPairs,
        net: &mut SimNet,
        events: &mut EventQueue<Ev>,
        groups: &mut [GroupState],
        colls: &mut FxHashMap<u64, (CollectiveExec, usize, Option<NodeId>)>,
        next_coll: &mut u64,
        ina_active: &mut FxHashMap<NodeId, usize>,
        ina_waiting: &mut FxHashMap<NodeId, VecDeque<usize>>,
        hero: &mut HeroScheduler,
        util: &[f64],
        nearest: Option<NodeId>,
        result: &mut AggResult,
    ) {
        let scheme = match cfg.system {
            AggSystem::Ring => Scheme::Ring,
            AggSystem::InaWait | AggSystem::InaFallback => match nearest {
                Some(sw) => Scheme::Ina { switch: sw },
                None => Scheme::Ring,
            },
            AggSystem::Hero => hero.choose(&CommCtx {
                group_id: gi as u64,
                group: &groups[gi].members,
                bytes: cfg.msg_bytes,
                now,
                link_util: util,
            }),
        };
        // Switch admission.
        let aggregates = match scheme {
            Scheme::Ina { .. } => groups[gi].members.len() >= 2,
            Scheme::HierIna { .. } => {
                hs_collective::latency::leaders(graph, &groups[gi].members).len() >= 2
            }
            _ => false,
        };
        let (scheme, held) = match scheme {
            Scheme::Ina { switch } | Scheme::HierIna { switch } if aggregates => {
                let active = ina_active.get(&switch).copied().unwrap_or(0);
                if active >= cfg.ina_capacity_per_switch {
                    match cfg.system {
                        AggSystem::InaWait => {
                            groups[gi].waiting = true;
                            ina_waiting.entry(switch).or_default().push_back(gi);
                            return;
                        }
                        AggSystem::InaFallback => {
                            result.fallbacks += 1;
                            result.ring_ops += 1;
                            (Scheme::Ring, None)
                        }
                        AggSystem::Hero => {
                            result.fallbacks += 1;
                            result.ring_ops += 1;
                            (Scheme::HierRing, None)
                        }
                        AggSystem::Ring => unreachable!(),
                    }
                } else {
                    *ina_active.entry(switch).or_insert(0) += 1;
                    result.ina_ops += 1;
                    (scheme, Some(switch))
                }
            }
            s => {
                result.ring_ops += 1;
                (s, None)
            }
        };
        let plan = CollectivePlan::compile(graph, ap, &groups[gi].members, scheme, cfg.msg_bytes);
        let id = *next_coll;
        *next_coll += 1;
        let mut exec = CollectiveExec::new(plan, id);
        match exec.start(net, now) {
            Progress::Done => {
                // Degenerate (single-server NVLink-only with zero-hop
                // members) — count it and immediately relaunch via timer
                // to avoid infinite recursion at one instant.
                result.ops += 1;
                events.push(
                    now + hs_des::SimSpan::from_micros(1),
                    Ev::CollTimer(u64::MAX - gi as u64),
                );
            }
            Progress::InFlight => {
                colls.insert(id, (exec, gi, held));
            }
            Progress::StartTimer(d) => {
                colls.insert(id, (exec, gi, held));
                events.push(now + d, Ev::CollTimer(id));
            }
        }
    }

    // Kick every group at t = 0.
    let mut now = SimTime::ZERO;
    #[allow(clippy::needless_range_loop)] // gi indexes several parallel tables
    for gi in 0..groups.len() {
        let nearest = nearest_switch[gi];
        start_group(
            gi,
            now,
            cfg,
            graph,
            ap,
            &mut net,
            &mut events,
            &mut groups,
            &mut colls,
            &mut next_coll,
            &mut ina_active,
            &mut ina_waiting,
            &mut hero,
            &util,
            nearest,
            &mut result,
        );
    }

    // Event loop.
    loop {
        let tq = events.peek_time();
        let tn = net.next_event_time();
        let t = match (tq, tn) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => break,
        };
        if t > cfg.duration {
            break;
        }
        now = t;
        let done = net.advance_to(t);
        let mut finished_groups: Vec<usize> = Vec::new();
        // Advance collective `id` on a flow completion (`Some`) or on its
        // timer (`None`). A finished op frees its INA slot, wakes one
        // waiter and queues its group for relaunch.
        let mut step =
            |net: &mut SimNet, events: &mut EventQueue<Ev>, id: u64, flow: Option<FlowId>| {
                let Some((exec, gi, _)) = colls.get_mut(&id) else {
                    return; // a background flow, or no longer in flight
                };
                let gi = *gi;
                let progress = match flow {
                    Some(fid) => exec.on_flow_complete(net, now, fid),
                    None => exec.on_timer(net, now),
                };
                match progress {
                    Progress::InFlight => {}
                    Progress::StartTimer(d) => events.push(now + d, Ev::CollTimer(id)),
                    Progress::Done => {
                        let (_, _, held) = colls.remove(&id).expect("coll");
                        if let Some(sw) = held {
                            let c = ina_active.entry(sw).or_insert(1);
                            *c = c.saturating_sub(1);
                            if let Some(q) = ina_waiting.get_mut(&sw) {
                                if let Some(wgi) = q.pop_front() {
                                    groups[wgi].waiting = false;
                                    finished_groups.push(wgi);
                                }
                            }
                        }
                        result.ops += 1;
                        finished_groups.push(gi);
                    }
                }
            };
        for (fid, flow) in done {
            step(&mut net, &mut events, flow.tag, Some(fid));
        }
        if events.peek_time() == Some(t) {
            let (_, ev) = events.pop().expect("peeked");
            match ev {
                Ev::LaunchBackground(i) => {
                    let (a, b) = bg_pairs[i];
                    let path = ap.path(a, b);
                    if !path.links.is_empty() {
                        let links = path.directed_links(graph);
                        net.start_flow(now, &links, cfg.background_bytes, u64::MAX);
                    }
                }
                Ev::CollTimer(id) => {
                    if id > u64::MAX - 1024 {
                        // Degenerate-plan relaunch marker.
                        let gi = (u64::MAX - id) as usize;
                        finished_groups.push(gi);
                    } else {
                        step(&mut net, &mut events, id, None);
                    }
                }
                Ev::Monitor => {
                    monitor.poll(&net, now);
                    util.copy_from_slice(monitor.snapshot());
                    hero.on_monitor(&util, now);
                    events.push(now + hs_des::SimSpan::from_millis(10), Ev::Monitor);
                }
            }
        }
        // Relaunch groups that finished an op (back-to-back offered load).
        finished_groups.sort_unstable();
        finished_groups.dedup();
        for gi in finished_groups {
            if !groups[gi].waiting {
                let nearest = nearest_switch[gi];
                start_group(
                    gi,
                    now,
                    cfg,
                    graph,
                    ap,
                    &mut net,
                    &mut events,
                    &mut groups,
                    &mut colls,
                    &mut next_coll,
                    &mut ina_active,
                    &mut ina_waiting,
                    &mut hero,
                    &util,
                    nearest,
                    &mut result,
                );
            }
        }
    }

    result.goodput_bps =
        result.ops as f64 * cfg.msg_bytes as f64 * 8.0 / cfg.duration.as_secs_f64();
    if let Some(path) = &cfg.trace_path {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                let _ = std::fs::create_dir_all(dir);
            }
        }
        if let Err(e) = std::fs::write(path, hs_obs::chrome_trace(&tracer.records())) {
            eprintln!("aggbench: failed to write trace to {}: {e}", path.display());
        }
    }
    result
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
