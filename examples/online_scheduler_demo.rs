//! Online scheduler demo: the policy cost table reacting to load.
//!
//! ```sh
//! cargo run --release --example online_scheduler_demo
//! ```
//!
//! Drives the load-aware online scheduler (§III-D) directly: a
//! cross-server tensor group's collectives are scheduled while we
//! saturate first one switch, then the other, and watch the policy
//! selection migrate (Eq. 16 selection, Eq. 17 charging, Eq. 18 penalty
//! refresh).

use heroserve::scheduler::{HeroScheduler, SchedulerParams};
use hs_cluster::{CommCtx, CommStrategy, KvCandidate, KvCtx, KvRoutes};
use hs_des::SimTime;
use hs_topology::builders::testbed;
use hs_topology::NodeId;

fn main() {
    let topo = testbed();
    let ap = topo.gpu_ina_pairs();
    let routes = KvRoutes::new(&topo.graph, &ap);
    let mut sched = HeroScheduler::new(&topo.graph, ap, SchedulerParams::default());

    // One GPU from each server: a 4-wide cross-server tensor group.
    let group: Vec<NodeId> = topo.gpus_by_server.iter().map(|s| s[0]).collect();
    let mut util = vec![0.0f64; topo.graph.link_count()];
    let saturate_switch = |util: &mut [f64], sw: NodeId, level: f64| {
        for (lid, link) in topo.graph.links() {
            if link.a == sw || link.b == sw {
                util[lid.idx()] = level;
            }
        }
    };

    let phases = [
        ("idle network", None),
        ("tofino0 saturated", Some(0)),
        ("tofino1 saturated", Some(1)),
    ];
    for (name, hot) in phases {
        util.iter_mut().for_each(|u| *u = 0.0);
        if let Some(i) = hot {
            saturate_switch(&mut util, topo.access_switches[i], 0.95);
        }
        for _ in 0..4 {
            sched.on_monitor(&util, SimTime::ZERO);
        }
        println!("--- {name} ---");
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..20 {
            let scheme = sched.choose(&CommCtx {
                group_id: 1,
                group: &group,
                bytes: 16 << 20,
                now: SimTime::from_millis(i),
            });
            *counts.entry(format!("{scheme:?}")).or_insert(0u32) += 1;
        }
        for (scheme, n) in counts {
            println!("  {n:>2} x {scheme}");
        }
    }
    println!("\nExpected shape: hierarchical INA at the nearest switch when idle; the");
    println!("selection migrates to the other switch (or NVLink-first ring) when its");
    println!("links saturate — Fig. 5's next-hop adaptation.");

    // The same scheduler also drives the NetKV-style decode selection for
    // prefill→decode KV shipments: score = estimated striped transfer
    // time over residual bandwidth + load/pressure penalties.
    println!("\n--- NetKV decode selection (KV shipment from server 0) ---");
    let src = &topo.gpus_by_server[0][..2];
    let candidates = [
        KvCandidate {
            instance: 0,
            load: 2,
            headroom_tokens: 40_000,
            capacity_tokens: 60_000,
            dst_gpus: &topo.gpus_by_server[0][2..], // NVLink-local
        },
        KvCandidate {
            instance: 1,
            load: 0,
            headroom_tokens: 60_000,
            capacity_tokens: 60_000,
            dst_gpus: &topo.gpus_by_server[1][..2], // across Ethernet
        },
    ];
    for (name, hot) in [("idle fabric", false), ("server-1 uplinks at 95 %", true)] {
        util.iter_mut().for_each(|u| *u = 0.0);
        if hot {
            for (lid, link) in topo.graph.links() {
                if topo.gpus_by_server[1].contains(&link.a)
                    || topo.gpus_by_server[1].contains(&link.b)
                {
                    util[lid.idx()] = 0.95;
                }
            }
        }
        // Utilization reaches decode selection through the monitor loop,
        // as in the engine.
        sched.on_monitor(&util, SimTime::ZERO);
        let choice = sched.choose_decode(
            &KvCtx {
                req: 0,
                bytes: 512 << 20,
                src_gpus: src,
                routes: &routes,
                now: SimTime::ZERO,
            },
            &candidates,
        );
        match choice {
            Some(c) => println!(
                "  {name}: instance {} (est transfer {:.1} ms)",
                c.instance,
                c.est_transfer_s * 1e3
            ),
            None => println!("  {name}: engine falls back to least-loaded"),
        }
    }
    println!("\nExpected shape: the NVLink-local instance wins despite carrying more");
    println!("load; it keeps winning when the remote uplinks congest.");
}
