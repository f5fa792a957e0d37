//! Collective integration: flow-level execution vs closed forms vs the
//! packet-level switch dataplane, across topologies and schemes.

use hs_collective::plan::{run_isolated, run_on};
use hs_collective::verify::{
    ina_allreduce_data, reference_sum, ring_allreduce_data, test_dataplane,
};
use hs_collective::{hierarchical_ina_latency, ring_latency, Scheme};
use hs_des::SimTime;
use hs_simnet::SimNet;
use hs_topology::builders::{testbed, xtracks, XTracksConfig};
use hs_topology::NodeId;

#[test]
fn all_schemes_complete_on_testbed_cross_group() {
    let topo = testbed();
    let ap = topo.gpu_ina_pairs();
    let group: Vec<NodeId> = topo.gpus_by_server.iter().map(|s| s[0]).collect();
    let sw = topo.access_switches[0];
    let bytes = 16 << 20;
    let mut durations = Vec::new();
    for scheme in [
        Scheme::Ring,
        Scheme::Ina { switch: sw },
        Scheme::HierRing,
        Scheme::HierIna { switch: sw },
    ] {
        let d = run_isolated(&topo.graph, &ap, &group, scheme, bytes);
        assert!(!d.is_zero(), "{scheme:?} did nothing");
        assert!(d.as_secs_f64() < 1.0, "{scheme:?} took {d}");
        durations.push((scheme, d));
    }
    // Streaming INA beats the flat ring on this cross-server group.
    let ring = durations[0].1;
    let ina = durations[1].1;
    assert!(
        ina.as_secs_f64() < ring.as_secs_f64(),
        "INA {ina} !< ring {ring}"
    );
}

#[test]
fn hierarchical_wins_grow_with_group_width_on_big_fabric() {
    let topo = xtracks(&XTracksConfig::two_tracks(2));
    let ap = topo.gpu_ina_pairs();
    // 16-GPU group: 2 whole servers.
    let mut group = topo.gpus_by_server[0].clone();
    group.extend(topo.gpus_by_server[1].iter());
    let sw = topo.access_switches[0];
    let bytes = 32 << 20;
    let flat = run_isolated(&topo.graph, &ap, &group, Scheme::Ina { switch: sw }, bytes);
    let hier = run_isolated(
        &topo.graph,
        &ap,
        &group,
        Scheme::HierIna { switch: sw },
        bytes,
    );
    // 16 flat INA streams vs 2 leader streams: hierarchy must win big.
    assert!(
        hier.as_secs_f64() < 0.6 * flat.as_secs_f64(),
        "hier {hier} vs flat {flat}"
    );
}

#[test]
fn closed_forms_rank_like_executions() {
    // The planner chooses by closed form; verify the ranking agrees with
    // flow-level execution for a cross-server group.
    let topo = testbed();
    let ap = topo.gpu_ina_pairs();
    let group: Vec<NodeId> = topo.gpus_by_server.iter().map(|s| s[0]).collect();
    let sw = topo.access_switches[0];
    let bytes = 32 << 20;
    let cf_ring = ring_latency(&topo.graph, &group, &ap, bytes, None);
    let cf_hier = hierarchical_ina_latency(&topo.graph, &group, sw, &ap, bytes, None);
    let ex_ring = run_isolated(&topo.graph, &ap, &group, Scheme::Ring, bytes).as_secs_f64();
    let ex_hier = run_isolated(
        &topo.graph,
        &ap,
        &group,
        Scheme::HierIna { switch: sw },
        bytes,
    )
    .as_secs_f64();
    assert_eq!(
        cf_hier < cf_ring,
        ex_hier < ex_ring,
        "closed-form ranking ({cf_hier} vs {cf_ring}) disagrees with execution ({ex_hier} vs {ex_ring})"
    );
}

#[test]
fn congestion_slows_collectives_and_drains_afterwards() {
    let topo = testbed();
    let ap = topo.gpu_ina_pairs();
    let group: Vec<NodeId> = topo.gpus_by_server.iter().map(|s| s[0]).collect();
    let sw = topo.access_switches[0];
    let bytes = 16 << 20;
    let alone = run_isolated(&topo.graph, &ap, &group, Scheme::Ina { switch: sw }, bytes);
    let mut net = SimNet::new(&topo.graph);
    // Saturate the first GPU's uplink.
    net.start_flow(SimTime::ZERO, &ap.path(group[0], sw).route, 1 << 30, 0);
    let contended = run_on(
        &mut net,
        SimTime::ZERO,
        &topo.graph,
        &ap,
        &group,
        Scheme::Ina { switch: sw },
        bytes,
    );
    assert!(
        contended.as_secs_f64() > 1.5 * alone.as_secs_f64(),
        "contended {contended} vs alone {alone}"
    );
    // The background flow still completes after the collective.
    let t = net.next_event_time().expect("hog still active");
    let mut done = Vec::new();
    net.advance_to(t, &mut done);
    assert_eq!(done.len(), 1);
}

#[test]
fn data_level_schemes_agree_at_scale() {
    // 8 workers, 1000-element vectors: ring vs switch-dataplane INA.
    let p = 8usize;
    let n = 1000usize;
    let data: Vec<Vec<f32>> = (0..p)
        .map(|w| {
            (0..n)
                .map(|i| ((w * 37 + i * 11) % 200) as f32 / 20.0 - 5.0)
                .collect()
        })
        .collect();
    let expect = reference_sum(&data);
    let mut ring = data.clone();
    ring_allreduce_data(&mut ring);
    let (mut dp, job) = test_dataplane(p as u32, 64, 32);
    let ina = ina_allreduce_data(&mut dp, job, &data);
    let quantum = hs_switch::FixPoint::default().quantum();
    for i in 0..n {
        assert!((ring[0][i] - expect[i]).abs() < 1e-3);
        assert!(
            (ina[i] - expect[i]).abs() <= p as f32 * quantum + 1e-3,
            "lane {i}: {} vs {}",
            ina[i],
            expect[i]
        );
    }
    // The dataplane actually aggregated in-network.
    assert!(dp.counters().aggregations as usize >= n / 64);
    assert_eq!(dp.counters().fallbacks, 0);
}
