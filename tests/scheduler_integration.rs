//! Online-scheduler integration: policy adaptation inside a live serve.

use heroserve::scheduler::{HeroScheduler, SchedulerParams};
use hs_cluster::{CommCtx, CommStrategy};
use hs_des::SimTime;
use hs_topology::builders::testbed;
use hs_topology::NodeId;

fn scheduler_with(
    params: SchedulerParams,
) -> (
    HeroScheduler,
    Vec<NodeId>,
    hs_topology::builders::BuiltTopology,
) {
    let topo = testbed();
    let ap = topo.gpu_ina_pairs();
    let group: Vec<NodeId> = topo.gpus_by_server.iter().map(|s| s[0]).collect();
    (HeroScheduler::new(&topo.graph, ap, params), group, topo)
}

#[test]
fn selection_migrates_between_switches_under_load() {
    let (mut s, group, topo) = scheduler_with(SchedulerParams::default());
    let n = topo.graph.link_count();
    let mut util = vec![0.0f64; n];
    let first = s.choose(&CommCtx {
        group_id: 1,
        group: &group,
        bytes: 16 << 20,
        now: SimTime::ZERO,
    });
    let hs_collective::Scheme::HierIna { switch } = first else {
        panic!("expected HierIna on idle fabric, got {first:?}");
    };
    // Saturate that switch; the next choices must avoid it.
    for (lid, link) in topo.graph.links() {
        if link.a == switch || link.b == switch {
            util[lid.idx()] = 0.97;
        }
    }
    for _ in 0..4 {
        s.on_monitor(&util, SimTime::ZERO);
    }
    let mut avoided = 0;
    for i in 0..10 {
        let c = s.choose(&CommCtx {
            group_id: 1,
            group: &group,
            bytes: 16 << 20,
            now: SimTime::from_millis(i),
        });
        let uses_hot = matches!(c,
            hs_collective::Scheme::HierIna { switch: sw } | hs_collective::Scheme::Ina { switch: sw }
                if sw == switch);
        if !uses_hot {
            avoided += 1;
        }
    }
    assert!(
        avoided >= 8,
        "only {avoided}/10 choices avoided the hot switch"
    );
}

#[test]
fn kv_path_balancing_uses_alternate_routes() {
    let (mut s, _, topo) = scheduler_with(SchedulerParams::default());
    // Cross-connected testbed: GPU0 (homed on sw0) to a server-2 GPU
    // (homed on sw1) has distinct routes via either switch.
    let src = topo.gpus_by_server[0][0];
    let dst = topo.gpus_by_server[2][2]; // homed on the other switch
    let idle = vec![0.0f64; topo.graph.link_count()];
    let p1 = s
        .choose_path(src, dst, 1 << 30, &idle)
        .expect("route exists");
    // Saturate the route's middle links (switch fabric); the endpoints'
    // single access ports are unavoidably shared by every route.
    let mut util = vec![0.0f64; topo.graph.link_count()];
    for &(l, _) in &p1 {
        let link = topo.graph.link(l);
        if link.other(src).is_none() && link.other(dst).is_none() {
            util[l.idx()] = 0.99;
        }
    }
    let p2 = s
        .choose_path(src, dst, 1 << 30, &util)
        .expect("alternate route exists");
    assert_ne!(p1, p2, "scheduler kept the saturated route");
}

#[test]
fn gamma_zero_freezes_penalties_but_scheduling_still_works() {
    let (mut s, group, _) = scheduler_with(SchedulerParams {
        gamma: 0.0,
        ..SchedulerParams::default()
    });
    for i in 0..50 {
        let _ = s.choose(&CommCtx {
            group_id: 1,
            group: &group,
            bytes: 32 << 20,
            now: SimTime::from_millis(i),
        });
    }
    let picks = s.pick_counts(1).expect("table built");
    let total: u64 = picks.iter().map(|(_, c)| c).sum();
    assert_eq!(total, 50);
    // Cost accumulation alone must still rotate policies.
    assert!(picks.iter().filter(|(_, c)| *c > 0).count() >= 2);
}
