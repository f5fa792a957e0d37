//! Million-request end-to-end `ClusterSim` scale run (DESIGN.md §12).
//!
//! The ROADMAP north star: serve a 1M-request Poisson trace through the
//! full engine — planner deployment, batching, collectives, KV
//! transfers, monitor sampling — in minutes, with bit-identical output.
//! [`hs_bench::scenario::xtracks_steady`] is built twice from the same
//! trace stream and served; both runs' report fingerprints
//! ([`hs_cluster::SimReport::fingerprint`]: every field, every
//! per-request metric and memory sample among them, folded bit-for-bit)
//! must be identical. Each row also carries the network engine's solver work
//! counters over the run and the process's peak resident set so far
//! (VmHWM from `/proc/self/status`; null where that file does not
//! exist). Writes `results/scale_1m.json`.

use hs_bench::scenario::xtracks_steady;
use hs_bench::{peak_rss_mib, ExpTable};
use hs_des::SeedSplitter;
use serde_json::json;

const REQUESTS: u64 = 1_000_000;

fn main() {
    let mut table = ExpTable::new(
        "scale_1m",
        &[
            "run",
            "requests",
            "completed",
            "wall_s",
            "req/sec (wall)",
            "scoped solves",
            "resumed solves",
            "flows rated",
            "solo rated",
            "peak RSS MiB",
            "fingerprint",
        ],
    );
    let mut prints = Vec::new();
    for run in 1..=2 {
        let scenario = xtracks_steady(&mut SeedSplitter::new(42).stream("trace"), REQUESTS);
        let wall = std::time::Instant::now();
        let (rep, stats) = scenario.run();
        let wall_s = wall.elapsed().as_secs_f64();
        let fp = rep.fingerprint();
        prints.push(fp);
        let rss = peak_rss_mib();
        table.push(
            vec![
                run.to_string(),
                rep.arrived.to_string(),
                rep.completed.to_string(),
                format!("{wall_s:.1}"),
                format!("{:.0}", rep.arrived as f64 / wall_s),
                stats.scoped_solves.to_string(),
                stats.resumed_solves.to_string(),
                stats.flows_rated.to_string(),
                stats.solo_rated.to_string(),
                rss.map_or_else(|| "-".to_string(), |m| format!("{m:.1}")),
                format!("{fp:016x}"),
            ],
            json!({
                "run": run,
                "requests": rep.arrived,
                "completed": rep.completed,
                "wall_s": wall_s,
                "req_per_sec_wall": rep.arrived as f64 / wall_s,
                "scoped_solves": stats.scoped_solves,
                "resumed_solves": stats.resumed_solves,
                "flows_rated": stats.flows_rated,
                "solo_rated": stats.solo_rated,
                "peak_rss_mib": rss,
                "fingerprint": format!("{fp:016x}"),
            }),
        );
    }
    assert!(
        prints.windows(2).all(|w| w[0] == w[1]),
        "ClusterSim output diverged across repeated runs: {prints:x?}"
    );
    table.finish();
}
