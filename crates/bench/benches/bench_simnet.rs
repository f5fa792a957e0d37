//! Simulator-throughput snapshot: events/sec of the incremental
//! fair-share engine vs an exact-only and a forced full re-solve per
//! event, at 100 / 1k / 10k / 100k / 1M concurrent flows (see DESIGN.md
//! §9 and §12).
//!
//! Workload: isolated 2-link clusters with four staggered flows each.
//! Two drive patterns:
//!
//! * `incremental` / `exact_only` / `full_solve` — the full `start →
//!   next_event_time → advance_to` lifecycle, one completion at a time
//!   (the latency-path measurement), in each `SolveMode`. `exact_only`
//!   is the incremental engine with its aggregate tier off, so the gap
//!   between the two rows is what that tier buys. One back-to-back run
//!   of each favoured whichever went second, so these two modes run as
//!   alternating pairs and each row reports the median run, plus how
//!   many pairs `incremental` won. Full-resolve runs are capped at an
//!   event budget — at 10k flows the full re-solve per completion is
//!   exactly the quadratic behaviour this engine removes, and an
//!   uncapped run would take minutes for a number that is stable after
//!   a few hundred events.
//! * `bulk` — start everything, then drain the field with one far-future
//!   `advance_to`.
//!
//! Every row carries the aggregate tier's hit rate
//! (`aggregate_solves / scoped_solves`). Truncated (capped) runs are
//! flagged and report a `null` headline `events_per_sec`; the raw rate of
//! a truncated prefix is kept under `raw_events_per_sec` for diagnostics
//! only.
//!
//! Writes `results/bench_simnet.json`.

use hs_bench::simbench::{
    aggregate_hit_rate, bulk_advance_throughput, clusters_topo, pull_loop_throughput, ThroughputRun,
};
use hs_bench::ExpTable;
use hs_simnet::SolveMode;
use serde_json::json;

/// `paired` is `(pairs run, pairs incremental won)` for the two
/// alternating modes.
fn push_row(
    table: &mut ExpTable,
    n_flows: usize,
    mode: &str,
    run: &ThroughputRun,
    paired: Option<(usize, usize)>,
) {
    let headline = run
        .events_per_sec
        .map(|e| format!("{e:.0}"))
        .unwrap_or_else(|| "truncated".to_string());
    let hit_rate = aggregate_hit_rate(&run.stats);
    table.push(
        vec![
            n_flows.to_string(),
            mode.to_string(),
            run.events.to_string(),
            format!("{:.2}", run.wall_s * 1e3),
            headline,
            hit_rate.map_or_else(|| "-".to_string(), |h| format!("{h:.3}")),
            run.ran_to_completion.to_string(),
        ],
        json!({
            "flows": n_flows,
            "mode": mode,
            "events": run.events,
            "wall_s": run.wall_s,
            "events_per_sec": run.events_per_sec,
            "raw_events_per_sec": run.raw_events_per_sec,
            "aggregate_hit_rate": hit_rate,
            "pairs": paired.map(|p| p.0),
            "incremental_won": paired.map(|p| p.1),
            "ran_to_completion": run.ran_to_completion,
            "truncated": !run.ran_to_completion,
        }),
    );
}

/// The median run by event rate.
fn median(mut runs: Vec<ThroughputRun>) -> ThroughputRun {
    runs.sort_by(|a, b| a.raw_events_per_sec.total_cmp(&b.raw_events_per_sec));
    runs.swap_remove(runs.len() / 2)
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
            "agg hit",
            "complete",
        ],
    );
    for &n_flows in &[100usize, 1_000, 10_000, 100_000, 1_000_000] {
        let (g, paths) = clusters_topo(n_flows / 4);
        let pairs = if n_flows >= 1_000_000 { 3 } else { 9 };
        let (mut two_tier, mut exact) = (Vec::new(), Vec::new());
        let mut won = 0;
        for i in 0..pairs {
            let run = |mode| pull_loop_throughput(&g, &paths, 4, 1_000_000, mode, u64::MAX);
            let (t, e) = if i % 2 == 0 {
                let t = run(SolveMode::TwoTier);
                (t, run(SolveMode::ExactOnly))
            } else {
                let e = run(SolveMode::ExactOnly);
                (run(SolveMode::TwoTier), e)
            };
            won += usize::from(t.raw_events_per_sec > e.raw_events_per_sec);
            two_tier.push(t);
            exact.push(e);
        }
        let paired = Some((pairs, won));
        push_row(
            &mut table,
            n_flows,
            "incremental",
            &median(two_tier),
            paired,
        );
        push_row(&mut table, n_flows, "exact_only", &median(exact), paired);
        if n_flows <= 10_000 {
            // Cap keeps the quadratic full-solve mode finite at 10k; the
            // capped row is flagged truncated and excluded from the
            // headline metric.
            let cap = (n_flows as u64) + 1_500;
            let run = pull_loop_throughput(&g, &paths, 4, 1_000_000, SolveMode::FullResolve, cap);
            push_row(&mut table, n_flows, "full_solve", &run, None);
        }
        if n_flows >= 10_000 {
            let run = bulk_advance_throughput(&g, &paths, 4, 1_000_000);
            push_row(&mut table, n_flows, "bulk", &run, None);
        }
    }
    table.finish();
}
