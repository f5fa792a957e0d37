//! Fig. 9 — in-network aggregation throughput vs message size.
//!
//! Paper setup: message sizes 4–64 MB under the 2tracks fabric with
//! bursty cross traffic. Result: HeroServe achieves the highest
//! aggregation throughput — +71.7 % over DistServe, +26 % over DS-ATP,
//! +20.1 % over DS-SwitchML (2tracks).
//!
//! Measurement: several cross-server tensor groups run all-reduce back to
//! back for a fixed window under MMPP background congestion, through the
//! serving engine's collective path (`hs_cluster::run_allreduces`).
//! Switch aggregation capacity is limited, and each system's strategy
//! declares what a busy switch means: SwitchML waits, ATP falls back to
//! an Ethernet ring, HeroServe's online scheduler re-routes. Throughput
//! is algorithm bandwidth (payload bytes reduced per second), summed over
//! groups; each row also records every group's completed all-reduces, so
//! a starved group shows.

use heroserve::scheduler::{HeroScheduler, SchedulerParams};
use hs_baselines::BaselineKind;
use hs_bench::ExpTable;
use hs_cluster::{run_allreduces, AllReduceLoad, CommStrategy, StaticStrategy};
use hs_collective::{nearest_switches, Scheme};
use hs_des::{SeedSplitter, SimTime};
use hs_topology::builders::{xtracks, XTracksConfig};
use hs_topology::{AllPairs, Graph, NodeId};
use rand::Rng;
use rustc_hash::FxHashMap;
use serde_json::json;

fn main() {
    let topo = xtracks(&XTracksConfig::two_tracks(2));
    let ap = topo.gpu_ina_pairs();
    // 4 groups of 8 GPUs, each spanning servers (paper: concurrent
    // tensor-parallel replicas sharing the fabric's two switch tracks).
    let groups = cross_server_groups(&topo.gpus_by_server, 4, 8, 99);
    let duration = SimTime::from_secs(5);

    let mut table = ExpTable::new(
        "fig9_ina_throughput",
        &[
            "msg size (MB)",
            "system",
            "agg throughput (Gbps)",
            "vs DistServe",
            "fallbacks",
            "ops per group",
            "paper",
        ],
    );

    let mut hero_highest = true;
    for &mb in &[4u64, 16, 64] {
        let load = AllReduceLoad {
            groups: groups.clone(),
            bytes: mb << 20,
            ina_capacity_per_switch: 2,
            background: (20.0, 256 << 20),
        };
        let rows: Vec<_> = BaselineKind::all()
            .into_iter()
            .map(|system| {
                let strategy = system_strategy(system, &topo.graph, &ap, &groups);
                let r = run_allreduces(&topo.graph, ap.clone(), strategy, &load, duration);
                let ops: u64 = r.ops_per_group.iter().sum();
                let goodput_bps = ops as f64 * load.bytes as f64 * 8.0 / duration.as_secs_f64();
                (system, r, ops, goodput_bps)
            })
            .collect();
        let gbps = |want: BaselineKind| {
            rows.iter()
                .find(|(s, ..)| *s == want)
                .map(|&(.., g)| g)
                .expect("every system ran")
        };
        let dist = gbps(BaselineKind::DistServe);
        let hero = gbps(BaselineKind::HeroServe);
        hero_highest &= rows
            .iter()
            .all(|&(s, .., g)| s == BaselineKind::HeroServe || g < hero);
        for (system, r, ops, goodput_bps) in rows {
            let paper = if system == BaselineKind::HeroServe {
                "+71.7%/+26%/+20.1% (2tracks)"
            } else {
                "-"
            };
            table.push(
                vec![
                    format!("{mb}"),
                    system.name().to_string(),
                    format!("{:.2}", goodput_bps / 1e9),
                    format!("{:+.1}%", (goodput_bps / dist - 1.0) * 100.0),
                    format!("{}", r.ina_fallbacks),
                    format!("{:?}", r.ops_per_group),
                    paper.to_string(),
                ],
                json!({
                    "msg_mb": mb,
                    "system": system.name(),
                    "goodput_gbps": goodput_bps / 1e9,
                    "vs_distserve_pct": (goodput_bps / dist - 1.0) * 100.0,
                    "ops": ops,
                    "ops_per_group": r.ops_per_group,
                    "ina_ops": r.ina_ops,
                    "ring_ops": r.ring_ops,
                    "fallbacks": r.ina_fallbacks,
                }),
            );
        }
    }
    table.finish();
    println!(
        "shape check: HeroServe highest at every size: {}",
        if hero_highest { "yes" } else { "NO" }
    );
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
                    nearest_switches(ap, g, &ina_switches)
                        .first()
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
fn cross_server_groups(
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
