//! Scaling stress test for the incremental fair-share engine.
//!
//! 10 000 flows over the paper's 2-track xtracks fabric (2 pods, 96 GPUs)
//! with staggered arrivals, driven through the full start → share →
//! complete lifecycle. Asserts the physics that must survive any amount
//! of engine optimisation:
//!
//! * **byte conservation** — every directed link's cumulative counter
//!   equals the sum of bytes of the completed flows that crossed it;
//! * **per-link feasibility** — at every completion batch the allocated
//!   rate on each directed link never exceeds its capacity;
//! * **liveness** — every flow completes;
//! * a generous wall bound in release mode, so a quadratic regression in
//!   the hot path fails loudly rather than silently eating CI time.
//!
//! Ignored under debug assertions (the point is release-mode throughput;
//! CI runs it via `cargo test --release -p hs-simnet`).

use hs_des::{SimSpan, SimTime};
use hs_simnet::SimNet;
use hs_topology::builders::{xtracks, XTracksConfig};
use hs_topology::routing::shortest_path;
use hs_topology::LinkWeight;

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only throughput stress")]
fn ten_thousand_flows_on_xtracks() {
    let wall = std::time::Instant::now();
    let topo = xtracks(&XTracksConfig::two_tracks(2));
    let g = &topo.graph;
    let gpus = topo.all_gpus();
    let n_links = g.capacities().len();
    let mut net = SimNet::new(g);

    const N_FLOWS: u64 = 10_000;
    // Deterministic src/dst index arithmetic: co-prime strides walk every
    // GPU pair class, mixing intra-server, intra-pod, and cross-pod paths.
    let mut delivered_per_slot = vec![0.0f64; 2 * n_links];
    let mut launched = 0u64;
    let mut completed = 0u64;
    let mut paths: Vec<Vec<(hs_topology::LinkId, bool)>> = Vec::new();
    for i in 0..N_FLOWS {
        let src = gpus[(i as usize * 7) % gpus.len()];
        let dst = gpus[(i as usize * 13 + 1) % gpus.len()];
        if src == dst {
            paths.push(Vec::new());
            continue;
        }
        let p = shortest_path(g, src, dst, LinkWeight::Latency, None)
            .expect("xtracks is connected")
            .directed_links(g);
        paths.push(p);
    }

    // Staggered arrivals: one flow every 2 us, sizes cycling 64 kB–1 MB.
    let mut next_arrival = SimTime::ZERO;
    let mut arrival_iter = 0u64;
    let mut now = SimTime::ZERO;
    while completed < N_FLOWS {
        // Launch everything due before the next completion.
        let next_done = net.next_event_time();
        let horizon = match next_done {
            Some(t) if t < SimTime::MAX => t,
            _ => next_arrival,
        };
        while launched < N_FLOWS && next_arrival <= horizon {
            let bytes = 64_000 + (arrival_iter % 16) * 60_000;
            net.start_flow(next_arrival, &paths[launched as usize], bytes, launched);
            launched += 1;
            arrival_iter += 1;
            next_arrival += SimSpan::from_micros(2);
        }
        // Feasibility at this instant: allocated ≤ capacity on each link.
        let caps = g.capacities();
        for (i, u) in net.utilization_snapshot().iter().enumerate() {
            assert!(
                *u <= 1.0 + 1e-9,
                "link {i} oversubscribed: utilization {u}, cap {}",
                caps[i]
            );
        }
        let target = match net.next_event_time() {
            Some(t) if t < SimTime::MAX => t,
            _ if launched < N_FLOWS => next_arrival,
            _ => panic!("flows outstanding but no next event"),
        };
        now = now.max(target);
        for (id, f) in net.advance_to(now) {
            completed += 1;
            assert_eq!(f.remaining_bytes, 0.0, "flow {id:?} returned undrained");
            for &(l, fwd) in &f.path {
                delivered_per_slot[l.idx() * 2 + fwd as usize] += f.size_bytes as f64;
            }
        }
    }
    assert_eq!(completed, N_FLOWS, "every flow must complete");
    assert_eq!(net.active_flow_count(), 0);

    // Byte conservation per directed link: the simulator's cumulative
    // counters must match the ledger of completed flow sizes. Accrual is
    // piecewise float summation, so allow a ppm-scale relative slack.
    for li in 0..n_links {
        for fwd in [false, true] {
            let slot = li * 2 + fwd as usize;
            let counted = net.cumulative_bytes_dir(hs_topology::LinkId(li as u32), fwd);
            let ledger = delivered_per_slot[slot];
            let tol = 1e-6 * ledger.max(1.0);
            assert!(
                (counted - ledger).abs() <= tol,
                "link {li} fwd={fwd}: counter {counted} vs ledger {ledger}"
            );
        }
    }

    let elapsed = wall.elapsed();
    assert!(
        elapsed.as_secs_f64() < 60.0,
        "10k-flow run took {elapsed:?}; incremental engine has regressed"
    );
}
