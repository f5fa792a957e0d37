//! Simulator-throughput snapshot: events/sec of the incremental
//! fair-share engine at 100 / 1k / 10k / 100k / 1M concurrent flows (see
//! DESIGN.md §9 and §12).
//!
//! Workload: isolated 2-link clusters with four staggered flows each.
//! Two drive patterns:
//!
//! * `incremental` — the full `start → next_event_time → advance_to`
//!   lifecycle, one completion at a time (the latency-path measurement).
//! * `bulk` — start everything, then drain the field with one far-future
//!   `advance_to` (10k flows and up).
//!
//! Each row is the median of several runs by event rate, next to the
//! engine's deterministic work counters (`scoped_solves`,
//! `flows_rated`), which are identical in every run.
//!
//! Writes `results/bench_simnet.json`.

use hs_bench::simbench::{
    bulk_advance_throughput, clusters_topo, pull_loop_throughput, ThroughputRun,
};
use hs_bench::ExpTable;
use serde_json::json;

fn push_row(table: &mut ExpTable, n_flows: usize, mode: &str, runs: usize, run: &ThroughputRun) {
    table.push(
        vec![
            n_flows.to_string(),
            mode.to_string(),
            run.events.to_string(),
            format!("{:.2}", run.wall_s * 1e3),
            format!("{:.0}", run.events_per_sec),
            run.stats.scoped_solves.to_string(),
            run.stats.flows_rated.to_string(),
        ],
        json!({
            "flows": n_flows,
            "mode": mode,
            "runs": runs,
            "events": run.events,
            "wall_s": run.wall_s,
            "events_per_sec": run.events_per_sec,
            "scoped_solves": run.stats.scoped_solves,
            "flows_rated": run.stats.flows_rated,
        }),
    );
}

/// The median of `runs` runs by event rate.
fn median(runs: usize, mut run: impl FnMut() -> ThroughputRun) -> ThroughputRun {
    let mut all: Vec<ThroughputRun> = (0..runs).map(|_| run()).collect();
    all.sort_by(|a, b| a.events_per_sec.total_cmp(&b.events_per_sec));
    all.swap_remove(runs / 2)
}

fn main() {
    let mut table = ExpTable::new(
        "bench_simnet",
        &[
            "flows",
            "mode",
            "events",
            "wall_ms",
            "events/sec",
            "scoped solves",
            "flows rated",
        ],
    );
    for &n_flows in &[100usize, 1_000, 10_000, 100_000, 1_000_000] {
        let (g, paths) = clusters_topo(n_flows / 4);
        let runs = if n_flows >= 1_000_000 { 3 } else { 9 };
        let run = median(runs, || pull_loop_throughput(&g, &paths, 4, 1_000_000));
        push_row(&mut table, n_flows, "incremental", runs, &run);
        if n_flows >= 10_000 {
            let run = median(runs, || bulk_advance_throughput(&g, &paths, 4, 1_000_000));
            push_row(&mut table, n_flows, "bulk", runs, &run);
        }
    }
    table.finish();
}
