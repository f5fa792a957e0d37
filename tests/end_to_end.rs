//! End-to-end integration: plan → serve → report, across systems.

use hs_baselines::BaselineKind;
use hs_bench::scenario::planner_input;
use hs_des::SimTime;
use hs_model::ModelConfig;
use hs_topology::builders::testbed;
use hs_workload::sharegpt_like;

fn testbed_deploy(kind: BaselineKind, rate: f64) -> hs_baselines::Deployment {
    let topo = testbed();
    let model = ModelConfig::opt_66b();
    let workload = sharegpt_like();
    let input = planner_input(&topo.graph, &model, &workload, rate, Some(4), Some(8));
    kind.deploy_with_input(&topo, &input, &workload)
        .expect("feasible plan")
}

#[test]
fn full_stack_serves_and_reports() {
    let d = testbed_deploy(BaselineKind::HeroServe, 1.0);
    let r = d.serve_trace(5, 1.0, SimTime::from_secs(15));
    assert!(r.arrived >= 8, "arrived {}", r.arrived);
    assert!(r.completed > 0);
    assert!(r.sla_attainment > 0.5, "attainment {}", r.sla_attainment);
    assert!(r.mean_ttft_s > 0.0 && r.mean_ttft_s.is_finite());
    assert!(r.mean_tpot_s > 0.0 && r.mean_tpot_s.is_finite());
    // Both network classes carried traffic (heterogeneity exercised).
    assert!(r.eth_bytes > 0.0);
    assert!(r.nvlink_bytes > 0.0);
    assert!(!r.mem_series.is_empty());
}

#[test]
fn ina_systems_beat_ring_on_cross_server_groups() {
    // The paper's headline ordering at a latency-sensitive operating
    // point: the INA family's TTFT undercuts DistServe's Ethernet rings.
    let rate = 1.5;
    let dur = SimTime::from_secs(20);
    let dist = testbed_deploy(BaselineKind::DistServe, rate).serve_trace(5, rate, dur);
    let sw = testbed_deploy(BaselineKind::DsSwitchml, rate).serve_trace(5, rate, dur);
    let hero = testbed_deploy(BaselineKind::HeroServe, rate).serve_trace(5, rate, dur);
    assert!(
        sw.mean_ttft_s < dist.mean_ttft_s,
        "DS-SwitchML TTFT {} !< DistServe {}",
        sw.mean_ttft_s,
        dist.mean_ttft_s
    );
    assert!(
        hero.mean_ttft_s < dist.mean_ttft_s,
        "HeroServe TTFT {} !< DistServe {}",
        hero.mean_ttft_s,
        dist.mean_ttft_s
    );
    // HeroServe offloads a large share of synchronization onto NVLink.
    assert!(
        hero.nvlink_bytes > 2.0 * sw.nvlink_bytes,
        "HeroServe NVLink {} vs SwitchML {}",
        hero.nvlink_bytes,
        sw.nvlink_bytes
    );
    assert!(hero.eth_bytes < sw.eth_bytes);
}

#[test]
fn reports_are_deterministic() {
    let a = testbed_deploy(BaselineKind::HeroServe, 1.0).serve_trace(9, 1.0, SimTime::from_secs(8));
    let b = testbed_deploy(BaselineKind::HeroServe, 1.0).serve_trace(9, 1.0, SimTime::from_secs(8));
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.mean_ttft_s, b.mean_ttft_s);
    assert_eq!(a.mean_tpot_s, b.mean_tpot_s);
    assert_eq!(a.eth_bytes, b.eth_bytes);
    assert_eq!(a.ina_ops, b.ina_ops);
}

#[test]
fn overload_degrades_every_system() {
    for kind in [BaselineKind::DistServe, BaselineKind::HeroServe] {
        let d = testbed_deploy(kind, 1.0);
        let low = d.serve_trace(3, 0.5, SimTime::from_secs(12));
        let high = d.serve_trace(3, 60.0, SimTime::from_secs(12));
        assert!(
            high.sla_attainment < low.sla_attainment,
            "{}: {} !< {}",
            kind.name(),
            high.sla_attainment,
            low.sla_attainment
        );
    }
}
