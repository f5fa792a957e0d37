//! Shared scaffolding for simulator-throughput benchmarks.
//!
//! The workload is a field of isolated 2-link clusters (GPU → switch →
//! GPU), four flows each. Isolation is the point: it is the topology
//! where component-scoped re-solves (DESIGN.md §9) differ most from
//! global ones, so the field measures the per-event cost of the
//! incremental engine at a given number of concurrent flows. Used by the
//! `micro` criterion bench and the `bench_simnet` snapshot harness
//! (`results/bench_simnet.json`).

use hs_des::SimTime;
use hs_simnet::{Route, SimNet, SolveStats};
use hs_topology::graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId};
use hs_topology::Graph;

/// Build `n_clusters` isolated GPU–switch–GPU clusters; returns the
/// graph and one 2-hop directed path per cluster.
pub fn clusters_topo(n_clusters: usize) -> (Graph, Vec<Route>) {
    let mut b = GraphBuilder::new();
    let mut paths = Vec::with_capacity(n_clusters);
    for k in 0..n_clusters {
        let g0 = b.add_gpu(ServerId((2 * k) as u32), 0, GpuSpec::a100_40g());
        let g1 = b.add_gpu(ServerId((2 * k + 1) as u32), 0, GpuSpec::a100_40g());
        let s = b.add_access_switch(false, "s");
        let l0 = b.add_link(g0, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        let l1 = b.add_link(s, g1, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        paths.push(Route::from([(l0, true), (l1, true)]));
    }
    (b.build(), paths)
}

/// Start `per_cluster` flows over every cluster path, sizes staggered so
/// completions spread over time instead of piling on one timestamp.
pub fn fill(net: &mut SimNet, paths: &[Route], per_cluster: usize, bytes: u64) {
    for (k, p) in paths.iter().enumerate() {
        for j in 0..per_cluster {
            let sz = bytes + (j as u64) * (bytes / 7 + 1);
            net.start_flow(SimTime::ZERO, p, sz, (k * per_cluster + j) as u64);
        }
    }
}

/// Outcome of one timed run that drove every flow to completion.
pub struct ThroughputRun {
    /// Flow events processed (starts + completions).
    pub events: u64,
    /// Wall-clock seconds spent.
    pub wall_s: f64,
    /// `events / wall_s`.
    pub events_per_sec: f64,
    /// The engine's solver work counters at the end of the run.
    pub stats: SolveStats,
}

impl ThroughputRun {
    fn finish(net: &SimNet, events: u64, wall_s: f64) -> ThroughputRun {
        assert_eq!(net.active_flow_count(), 0, "every flow must complete");
        ThroughputRun {
            events,
            wall_s,
            events_per_sec: events as f64 / wall_s.max(1e-12),
            stats: net.solve_stats(),
        }
    }
}

/// Time the full `start → next_event_time → advance_to` lifecycle of
/// `paths.len() × per_cluster` flows, one completion instant at a time.
pub fn pull_loop_throughput(
    g: &Graph,
    paths: &[Route],
    per_cluster: usize,
    bytes: u64,
) -> ThroughputRun {
    let start = std::time::Instant::now();
    let mut net = SimNet::new(g);
    fill(&mut net, paths, per_cluster, bytes);
    let mut events = (paths.len() * per_cluster) as u64;
    let mut done = Vec::new();
    while let Some(t) = net.next_event_time() {
        net.advance_to(t, &mut done);
        events += done.len() as u64;
        done.clear();
    }
    ThroughputRun::finish(&net, events, start.elapsed().as_secs_f64())
}

/// Time a **bulk** advance: start every flow, then drain the whole field
/// with a single far-future `advance_to` — the same pop loop as the pull
/// loop, without the per-event `next_event_time` round trips.
pub fn bulk_advance_throughput(
    g: &Graph,
    paths: &[Route],
    per_cluster: usize,
    bytes: u64,
) -> ThroughputRun {
    let start = std::time::Instant::now();
    let mut net = SimNet::new(g);
    fill(&mut net, paths, per_cluster, bytes);
    let mut events = (paths.len() * per_cluster) as u64;
    let mut done = Vec::new();
    net.advance_to(SimTime::from_secs(86_400), &mut done);
    events += done.len() as u64;
    ThroughputRun::finish(&net, events, start.elapsed().as_secs_f64())
}
