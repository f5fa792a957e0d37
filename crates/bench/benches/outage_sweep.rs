//! Switch-outage length sweep over the `kv_fabric_faults` configuration
//! (DESIGN.md §12).
//!
//! The configuration is the benchmark ledger's `kv_fabric_faults`
//! workload at seed 1, rebuilt here: OPT-13B on the 16-GPU testbed, one
//! prefill and two decode instances with NetKV decode selection, 6 req/s
//! of 1024/24-token requests for an hour, background traffic, and the
//! remote decode instance's uplinks browned out to 15 % for minutes 2–8
//! of every ten. Access switch 0 fails at t = 1800 s; each row varies how
//! long it stays down: no outage, 30 s (the ledger's workload), 60 s,
//! 120 s and 300 s. Every flow started across the dead switch parks until
//! it recovers, so the outage length sets how many flows come back at
//! once.
//!
//! Each row holds the run's host time (`wall_s`, trace generation to
//! report), the peak resident set over the row (`peak_rss_mib`: VmHWM is
//! reset by writing `5` to `/proc/self/clear_refs` before the row; null
//! where that fails), the network engine's exact work counters and the
//! report fingerprint ([`hs_bench::fingerprint`]). The counters and the
//! fingerprint are deterministic and CI compares them with the committed
//! rows; wall time and RSS are trended only. Writes
//! `results/outage_sweep.json`.

use heroserve::system::default_coefficients;
use heroserve::{HeroScheduler, KvSelection, SchedulerParams};
use hs_bench::{fingerprint, peak_rss_mib, ExpTable};
use hs_cluster::batching::BatchPolicy;
use hs_cluster::{ClusterConfig, ClusterSim, CommStrategy, InstanceSpec};
use hs_des::{SeedSplitter, SimSpan, SimTime};
use hs_model::ModelConfig;
use hs_topology::builders::testbed;
use hs_topology::{AllPairs, LinkWeight};
use hs_workload::spec::fixed;
use hs_workload::{FaultPlan, Poisson, Trace};
use serde_json::json;

/// Outage lengths, seconds (`None`: the switch never fails).
const OUTAGES: [Option<u64>; 5] = [None, Some(30), Some(60), Some(120), Some(300)];
const SEED: u64 = 1;
const RATE: f64 = 6.0;
const WINDOW_S: u64 = 3600;
const OUTAGE_AT_S: u64 = 1800;

/// Reset this process's VmHWM to its current RSS.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn main() {
    let mut table = ExpTable::new(
        "outage_sweep",
        &[
            "outage_s",
            "completed",
            "wall_s",
            "peak RSS MiB",
            "scoped solves",
            "resumed solves",
            "flows rated",
            "solo rated",
            "fingerprint",
        ],
    );
    for outage in OUTAGES {
        let rss_reset = reset_peak_rss();
        let wall = std::time::Instant::now();
        let topo = testbed();
        let model = ModelConfig::opt_13b();
        let window = SimTime::from_secs(WINDOW_S);
        let spec = fixed(1024, 24);
        let mut rng = SeedSplitter::new(SEED).stream("kv_fabric_faults");
        let trace = Trace::generate(&spec, &mut Poisson::new(RATE), &mut rng, window);
        let mut nodes = topo.all_gpus();
        nodes.extend(&topo.access_switches);
        let ap = AllPairs::compute(&topo.graph, &nodes, LinkWeight::Latency, None);
        let mut faults = match outage {
            Some(len) => FaultPlan::switch_outage(
                topo.access_switches[0],
                SimTime::from_secs(OUTAGE_AT_S),
                SimTime::from_secs(OUTAGE_AT_S + len),
            ),
            None => FaultPlan::none(),
        };
        for cycle in 0..WINDOW_S / 600 {
            for &gpu in &topo.gpus_by_server[1][..2] {
                for &(nb, link) in topo.graph.neighbors(gpu) {
                    if topo.access_switches.contains(&nb) {
                        let start = SimTime::from_secs(cycle * 600 + 120);
                        let end = SimTime::from_secs(cycle * 600 + 480);
                        faults = faults.merged(FaultPlan::link_brownout(link, 0.15, start, end));
                    }
                }
            }
        }
        let cfg = ClusterConfig {
            coef: default_coefficients(&model),
            model,
            ttft_sla_s: spec.ttft_sla_s,
            tpot_sla_s: spec.tpot_sla_s,
            prefill: vec![InstanceSpec::tensor_parallel(
                topo.gpus_by_server[0][..2].to_vec(),
            )],
            decode: vec![
                InstanceSpec::tensor_parallel(topo.gpus_by_server[0][2..].to_vec()),
                InstanceSpec::tensor_parallel(topo.gpus_by_server[1][..2].to_vec()),
            ],
            batch: BatchPolicy::default(),
            gpu_memory_bytes: 40 << 30,
            monitor_period: SimSpan::from_millis(50),
            ina_capacity_per_switch: 8,
            background: Some((150.0, 8 << 20)),
            faults,
        };
        let params = SchedulerParams {
            kv_select: KvSelection::NetKv,
            ..SchedulerParams::default()
        };
        let strategy =
            Box::new(HeroScheduler::new(&topo.graph, ap.clone(), params)) as Box<dyn CommStrategy>;
        let mut sim = ClusterSim::new(&topo.graph, ap, cfg, &trace, strategy);
        // The ledger's drain margin: a quarter of the window, at most 60 s.
        let margin = SimSpan::from_secs(WINDOW_S / 4).min(SimSpan::from_secs(60));
        let report = sim.run(window + margin);
        let stats = sim.net_solve_stats();
        drop(sim);
        let wall_s = wall.elapsed().as_secs_f64();
        let rss = peak_rss_mib().filter(|_| rss_reset);
        let fp = format!("{:016x}", fingerprint(&report));
        table.push(
            vec![
                outage.map_or_else(|| "none".to_string(), |s| s.to_string()),
                report.completed.to_string(),
                format!("{wall_s:.2}"),
                rss.map_or_else(|| "-".to_string(), |m| format!("{m:.1}")),
                stats.scoped_solves.to_string(),
                stats.resumed_solves.to_string(),
                stats.flows_rated.to_string(),
                stats.solo_rated.to_string(),
                fp.clone(),
            ],
            json!({
                "outage_s": outage,
                "requests": report.arrived,
                "completed": report.completed,
                "wall_s": wall_s,
                "peak_rss_mib": rss,
                "scoped_solves": stats.scoped_solves,
                "resumed_solves": stats.resumed_solves,
                "flows_rated": stats.flows_rated,
                "solo_rated": stats.solo_rated,
                "fingerprint": fp,
            }),
        );
    }
    table.finish();
}
