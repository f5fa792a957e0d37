//! Criterion micro-benchmarks of the hot kernels: routing, fair-share
//! rate computation, switch aggregation, policy-table updates, grouping.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hs_bench::simbench::{clusters_topo, fill};
use hs_model::fit::least_squares;
use hs_simnet::{FlowSpan, SimNet, SolveMode, SolverWorkspace};
use hs_switch::{AggMode, FixPoint, InaDataplane, InaPacket, JobConfig, JobId, WorkerId};
use hs_topology::builders::{testbed, xtracks, XTracksConfig};
use hs_topology::routing::{k_shortest_paths, shortest_path};
use hs_topology::{AllPairs, LinkWeight};

fn bench_routing(c: &mut Criterion) {
    let topo = xtracks(&XTracksConfig::two_tracks(2));
    let gpus = topo.all_gpus();
    c.bench_function("dijkstra_single_96gpu", |b| {
        b.iter(|| {
            shortest_path(
                &topo.graph,
                gpus[0],
                gpus[gpus.len() - 1],
                LinkWeight::Latency,
                None,
            )
        })
    });
    c.bench_function("all_pairs_16gpu_testbed", |b| {
        let t = testbed();
        let nodes = t.all_gpus();
        b.iter(|| AllPairs::compute(&t.graph, &nodes, LinkWeight::Latency, None))
    });
    c.bench_function("yen_k3_96gpu", |b| {
        b.iter(|| k_shortest_paths(&topo.graph, gpus[0], gpus[40], 3, LinkWeight::Latency, None))
    });
}

fn bench_fairshare(c: &mut Criterion) {
    // 200 links, 100 flows of 3 hops, through the persistent workspace:
    // zero steady-state allocation, flat span arena.
    let caps = vec![100e9; 200];
    let paths: Vec<Vec<usize>> = (0..100)
        .map(|i| vec![i % 200, (i * 7 + 3) % 200, (i * 13 + 11) % 200])
        .collect();
    let mut flat = Vec::new();
    let mut spans = Vec::new();
    for p in &paths {
        spans.push(FlowSpan {
            start: flat.len() as u32,
            len: p.len() as u32,
            weight: 1.0,
        });
        flat.extend(p.iter().copied());
    }
    c.bench_function("fairshare_workspace_100flows_200links", |b| {
        let mut ws = SolverWorkspace::new();
        b.iter(|| ws.solve(&caps, &flat, &spans)[0])
    });
}

fn bench_simnet(c: &mut Criterion) {
    // Steady-state churn at 1k live flows: per iteration, start one flow,
    // query the next event, cancel it, query again — the per-collective
    // pattern the cluster engine drives. Background flows are large
    // enough never to complete inside the bench. The incremental engine
    // re-solves one 5-flow component; the full-solve variant re-rates all
    // 1001 flows every time (ISSUE 5 target: ≥ 5× apart).
    let big = 1_000_000_000_000; // 1 TB: ~minutes of simulated drain time
    for (label, mode) in [
        ("fairshare_incremental_churn", SolveMode::TwoTier),
        ("fairshare_fullsolve_churn", SolveMode::FullResolve),
    ] {
        let (g, paths) = clusters_topo(250);
        c.bench_function(label, |b| {
            let mut net = SimNet::new(&g);
            net.set_solve_mode(mode);
            fill(&mut net, &paths, 4, big);
            net.next_event_time(); // warm: initial global solve
            b.iter(|| {
                let now = net.now();
                let id = net.start_flow(now, &paths[0], 1_000_000, 0);
                net.next_event_time();
                net.cancel_flow(now, id);
                net.next_event_time()
            })
        });
    }
    // Full lifecycle: drive n flows from start to completion through the
    // next_event_time / advance_to pull loop. The 8-flow case guards the
    // small-simulation regime against regression from the heap machinery.
    for (label, n_flows) in [
        ("simnet_advance_8_flows", 8usize),
        ("simnet_advance_1k_flows", 1000),
    ] {
        let (g, paths) = clusters_topo((n_flows / 4).max(1));
        c.bench_function(label, |b| {
            b.iter_batched(
                || {
                    let mut net = SimNet::new(&g);
                    fill(&mut net, &paths, 4, 1_000_000);
                    net
                },
                |mut net| {
                    let mut done = 0usize;
                    while let Some(t) = net.next_event_time() {
                        done += net.advance_to(t).len();
                    }
                    done
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_switch(c: &mut Criterion) {
    c.bench_function("switch_aggregate_64lane_packet", |b| {
        b.iter_batched(
            || {
                let mut dp = InaDataplane::new(64, 64);
                dp.admit_job(
                    JobId(0),
                    JobConfig {
                        fanin: 8,
                        window: 16,
                        fixpoint: FixPoint::default(),
                        mode: AggMode::SwitchMlSync,
                    },
                )
                .unwrap();
                dp
            },
            |mut dp| {
                for seq in 0..16u32 {
                    for w in 0..8u32 {
                        dp.process(&InaPacket {
                            job: JobId(0),
                            worker: WorkerId(w),
                            seq,
                            values: vec![1.0; 64],
                        });
                    }
                }
                dp
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_fit(c: &mut Criterion) {
    let rows: Vec<Vec<f64>> = (0..400)
        .map(|i| vec![i as f64, (i * i % 97) as f64, 1.0])
        .collect();
    let y: Vec<f64> = rows.iter().map(|r| 2.0 * r[0] + 0.5 * r[1] + 3.0).collect();
    c.bench_function("least_squares_400x3", |b| {
        b.iter(|| least_squares(&rows, &y))
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default().sample_size(20);
    targets = bench_routing, bench_fairshare, bench_simnet, bench_switch, bench_fit
}
criterion_main!(micro);
