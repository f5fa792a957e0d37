//! Switch-outage length sweep over the `kv_fabric_faults` scenario
//! (DESIGN.md §12).
//!
//! Each row serves [`hs_bench::scenario::kv_fabric_faults`] at seed 1:
//! OPT-13B on the 16-GPU testbed, one prefill and two decode instances
//! with NetKV decode selection, 6 req/s of 1024/24-token requests for an
//! hour, background traffic, and the remote decode instance's uplinks
//! browned out to 15 % for minutes 2–8 of every ten. Access switch 0
//! fails at t = 1800 s; each row varies how long it stays down: no
//! outage, 30 s (the benchmark ledger's workload), 60 s, 120 s and
//! 300 s. Every flow started across the dead switch parks until it
//! recovers, so the outage length sets how many flows come back at once.
//!
//! Each row holds the run's host time (`wall_s`, trace generation to
//! report), the peak resident set over the row (`peak_rss_mib`: VmHWM is
//! reset by writing `5` to `/proc/self/clear_refs` before the row; null
//! where that fails), the network engine's exact work counters and the
//! report fingerprint ([`hs_cluster::SimReport::fingerprint`]). The
//! counters and the fingerprint are deterministic and CI compares them
//! with the committed rows; wall time and RSS are trended only. Writes
//! `results/outage_sweep.json`.

use hs_bench::scenario::kv_fabric_faults;
use hs_bench::{peak_rss_mib, ExpTable};
use hs_des::SimSpan;
use serde_json::json;

/// Outage lengths, seconds (`None`: the switch never fails).
const OUTAGES: [Option<u64>; 5] = [None, Some(30), Some(60), Some(120), Some(300)];
const SEED: u64 = 1;

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
        let (report, stats) = kv_fabric_faults(SEED, outage.map(SimSpan::from_secs)).run();
        let wall_s = wall.elapsed().as_secs_f64();
        let rss = peak_rss_mib().filter(|_| rss_reset);
        let fp = format!("{:016x}", report.fingerprint());
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
