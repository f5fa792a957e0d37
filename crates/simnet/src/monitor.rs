//! Link utilization monitoring — the "hardware counters" of §IV.
//!
//! The paper's switch control plane "periodically polls hardware counters
//! from the data plane to obtain link utilization metrics", and GPU agents
//! read NVLink utilization via DCGM. [`LinkMonitor`] reproduces that
//! observation channel: it samples [`SimNet`]'s cumulative
//! byte counters on a polling cadence and maintains an exponentially
//! weighted moving average of per-link utilization over the polling window.
//!
//! The *online scheduler* consumes these estimates (not the simulator's
//! ground-truth instantaneous rates), so measurement lag and smoothing are
//! part of the reproduced system, exactly as on real hardware.

use crate::net::SimNet;
use hs_des::SimTime;
use hs_topology::LinkId;

/// EWMA smoothing factor: the weight of each new window's sample.
const ALPHA: f64 = 0.5;

/// Windowed, smoothed per-link utilization estimation.
#[derive(Clone, Debug)]
pub struct LinkMonitor {
    last_poll: SimTime,
    /// Per-direction byte counters (index = link*2 + direction).
    last_bytes: Vec<f64>,
    /// EWMA of utilization in `[0, 1]` per link (busier direction).
    ewma: Vec<f64>,
}

impl LinkMonitor {
    /// Create a monitor for `n_links` links.
    pub fn new(n_links: usize) -> Self {
        LinkMonitor {
            last_poll: SimTime::ZERO,
            last_bytes: vec![0.0; 2 * n_links],
            ewma: vec![0.0; n_links],
        }
    }

    /// Poll the network's counters at time `now` and fold the window's
    /// average utilization into the EWMA.
    ///
    /// A link whose estimate is exactly 0.0, that no unparked flow
    /// crosses, and whose counters have not moved since the last poll is
    /// skipped: its sample is 0 (a dead link's `0 / 0` is a NaN that the
    /// `max` drops), so the fold would write back the same 0.0 and the
    /// same counters. Every other link runs the full fold, so the
    /// estimates are bit-identical to polling every link.
    ///
    /// Polling with a zero-length window leaves the estimate unchanged.
    pub fn poll(&mut self, net: &SimNet, now: SimTime) {
        let dt = now.saturating_since(self.last_poll).as_secs_f64();
        if dt <= 0.0 {
            return;
        }
        for (i, ewma) in self.ewma.iter_mut().enumerate() {
            let l = LinkId(i as u32);
            let last = &mut self.last_bytes[2 * i..2 * i + 2];
            if ewma.to_bits() == 0 {
                if let Some(idle) = net.idle_link_bytes(l) {
                    if idle[0].to_bits() == last[0].to_bits()
                        && idle[1].to_bits() == last[1].to_bits()
                    {
                        continue;
                    }
                }
            }
            let mut util = 0.0f64;
            for dir in [false, true] {
                let bytes = net.cumulative_bytes_dir(l, dir);
                let delta = (bytes - last[dir as usize]).max(0.0);
                util = util.max(((delta * 8.0 / dt) / net.capacity(l)).clamp(0.0, 1.0));
                last[dir as usize] = bytes;
            }
            *ewma = (1.0 - ALPHA) * *ewma + ALPHA * util;
        }
        self.last_poll = now;
    }

    /// Smoothed utilization estimate for one link.
    pub fn utilization(&self, l: LinkId) -> f64 {
        self.ewma[l.idx()]
    }

    /// All smoothed utilization estimates.
    pub fn snapshot(&self) -> &[f64] {
        &self.ewma
    }

    /// Time of the last poll.
    pub fn last_poll(&self) -> SimTime {
        self.last_poll
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_topology::graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId};
    use hs_topology::Route;

    fn one_link() -> (hs_topology::Graph, LinkId) {
        let mut b = GraphBuilder::new();
        let g0 = b.add_gpu(ServerId(0), 0, GpuSpec::a100_40g());
        let s = b.add_access_switch(true, "s");
        let l = b.add_link(g0, s, LinkKind::Ethernet, bandwidth::ETH_100G, 1_000);
        (b.build(), l)
    }

    #[test]
    fn measures_busy_link() {
        let (g, l) = one_link();
        let mut net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count());
        // Saturate the link for 1 ms: 100 Gbps = 12.5 MB per ms.
        net.start_flow(SimTime::ZERO, &Route::from([(l, true)]), 12_500_000, 0);
        net.advance_to(SimTime::from_millis(1), &mut Vec::new());
        mon.poll(&net, SimTime::from_millis(1));
        // The first EWMA step from 0 toward the window's full sample.
        let u = mon.utilization(l);
        assert!((u - ALPHA).abs() < 0.01, "estimate {u}");
    }

    #[test]
    fn idle_link_reads_zero() {
        let (g, l) = one_link();
        let net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count());
        mon.poll(&net, SimTime::from_millis(1));
        assert_eq!(mon.utilization(l), 0.0);
    }

    #[test]
    fn ewma_smooths() {
        let (g, l) = one_link();
        let mut net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count());
        // Busy first window.
        net.start_flow(SimTime::ZERO, &Route::from([(l, true)]), 12_500_000, 0);
        net.advance_to(SimTime::from_millis(1), &mut Vec::new());
        mon.poll(&net, SimTime::from_millis(1));
        assert!((mon.utilization(l) - 0.5).abs() < 0.01);
        // Idle second window decays toward zero.
        net.advance_to(SimTime::from_millis(2), &mut Vec::new());
        mon.poll(&net, SimTime::from_millis(2));
        assert!((mon.utilization(l) - 0.25).abs() < 0.01);
    }

    #[test]
    fn zero_window_is_noop() {
        let (g, l) = one_link();
        let net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count());
        mon.poll(&net, SimTime::ZERO);
        assert_eq!(mon.utilization(l), 0.0);
        assert_eq!(mon.last_poll(), SimTime::ZERO);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::net::{FlowId, Route};
    use hs_des::SimSpan;
    use hs_topology::graph::{bandwidth, GpuSpec, GraphBuilder, LinkKind, ServerId};
    use proptest::prelude::*;

    const N_LINKS: usize = 6;

    /// The poll as defined: fold every link's window into its EWMA, idle
    /// or not. [`LinkMonitor::poll`] must match it bit for bit.
    struct DensePoll {
        last_poll: SimTime,
        last_bytes: Vec<f64>,
        ewma: Vec<f64>,
    }

    impl DensePoll {
        fn new(n_links: usize) -> Self {
            DensePoll {
                last_poll: SimTime::ZERO,
                last_bytes: vec![0.0; 2 * n_links],
                ewma: vec![0.0; n_links],
            }
        }

        fn poll(&mut self, net: &SimNet, now: SimTime) {
            let dt = now.saturating_since(self.last_poll).as_secs_f64();
            if dt <= 0.0 {
                return;
            }
            for (i, ewma) in self.ewma.iter_mut().enumerate() {
                let l = LinkId(i as u32);
                let mut util = 0.0f64;
                for dir in [false, true] {
                    let bytes = net.cumulative_bytes_dir(l, dir);
                    let idx = i * 2 + dir as usize;
                    let delta = (bytes - self.last_bytes[idx]).max(0.0);
                    util = util.max(((delta * 8.0 / dt) / net.capacity(l)).clamp(0.0, 1.0));
                    self.last_bytes[idx] = bytes;
                }
                *ewma = (1.0 - ALPHA) * *ewma + ALPHA * util;
            }
            self.last_poll = now;
        }
    }

    /// Star of `N_LINKS` GPU links with mixed capacities; test paths are
    /// arbitrary directed subsets of them.
    fn star() -> (hs_topology::Graph, Vec<LinkId>) {
        let mut b = GraphBuilder::new();
        let sw = b.add_access_switch(true, "s");
        let links = (0..N_LINKS)
            .map(|i| {
                let g = b.add_gpu(ServerId(i as u32), 0, GpuSpec::a100_40g());
                let cap = bandwidth::ETH_100G * if i % 2 == 0 { 1.0 } else { 0.4 };
                b.add_link(g, sw, LinkKind::Ethernet, cap, 500 + 250 * i as u64)
            })
            .collect();
        (b.build(), links)
    }

    struct Harness {
        links: Vec<LinkId>,
        net: SimNet,
        mon: LinkMonitor,
        dense: DensePoll,
        live: Vec<FlowId>,
        now: SimTime,
        /// Link polls the production monitor could skip (estimate 0.0,
        /// no unparked flow, counters unchanged).
        idle_polls: usize,
    }

    impl Harness {
        fn new() -> Self {
            let (g, links) = star();
            Harness {
                links,
                net: SimNet::new(&g),
                mon: LinkMonitor::new(g.link_count()),
                dense: DensePoll::new(g.link_count()),
                live: Vec::new(),
                now: SimTime::ZERO,
                idle_polls: 0,
            }
        }

        fn advance(&mut self, dt: SimSpan) {
            self.now += dt;
            let mut done = Vec::new();
            self.net.advance_to(self.now, &mut done);
            self.live.retain(|id| !done.iter().any(|(d, _)| d == id));
        }

        fn poll(&mut self) {
            for (i, &e) in self.mon.snapshot().iter().enumerate() {
                let l = LinkId(i as u32);
                let last = &self.dense.last_bytes[2 * i..2 * i + 2];
                let same = |b: [f64; 2]| b[0] == last[0] && b[1] == last[1];
                if e == 0.0 && self.net.idle_link_bytes(l).is_some_and(same) {
                    self.idle_polls += 1;
                }
            }
            self.mon.poll(&self.net, self.now);
            self.dense.poll(&self.net, self.now);
            let got: Vec<u64> = self.mon.snapshot().iter().map(|u| u.to_bits()).collect();
            let want: Vec<u64> = self.dense.ewma.iter().map(|u| u.to_bits()).collect();
            prop_assert_eq!(got, want, "at {}", self.now);
            prop_assert_eq!(self.mon.last_poll(), self.dense.last_poll);
        }

        fn apply(&mut self, (kind, a, b, c): (u8, u64, u64, u64)) {
            match kind {
                // Start a flow over a random directed subset of links;
                // small payloads join and finish between two polls.
                0..=3 => {
                    let path: Route = (0..N_LINKS)
                        .filter(|i| a >> i & 1 == 1)
                        .map(|i| (self.links[i], b >> i & 1 == 1))
                        .collect();
                    let bytes = if c % 3 == 0 {
                        c % 20_000
                    } else {
                        c % 4_000_000
                    };
                    let id = self.net.start_flow(self.now, &path, bytes, 0);
                    self.live.push(id);
                }
                4 if !self.live.is_empty() => {
                    let id = self.live.remove(a as usize % self.live.len());
                    self.net.cancel_flow(self.now, id);
                }
                5 | 6 => self.advance(SimSpan::from_micros(b % 400)),
                7 => {
                    if let Some(t) = self.net.next_event_time().filter(|&t| t < SimTime::MAX) {
                        self.advance(t.saturating_since(self.now));
                    }
                }
                // Kill, degrade or restore a link: kills abort its flows,
                // later starts across it park until it comes back.
                8 => {
                    let l = self.links[a as usize % N_LINKS];
                    let factor = [0.0, 0.4, 1.0][b as usize % 3];
                    let gone = self.net.set_link_scale(self.now, l, factor);
                    self.live.retain(|id| !gone.iter().any(|(g, _)| g == id));
                }
                9 | 10 => self.poll(),
                // A run of short windows: idle links decay all the way
                // to 0.0 (at most ~1,075 halvings at alpha 0.5).
                11 => {
                    for _ in 0..1_100 {
                        self.advance(SimSpan::from_micros(1));
                        self.poll();
                    }
                }
                _ => {}
            }
        }
    }

    proptest! {
        /// After every poll, skipping idle links leaves every estimate
        /// and the poll clock bitwise equal to the dense fold, through
        /// starts, cancels, completions, dead and parked flows, and
        /// decays to zero.
        #[test]
        fn skipping_idle_links_matches_the_dense_poll(
            ops in proptest::collection::vec((0u8..12, 0u64..64, 0u64..64, 0u64..1 << 24), 1..48),
        ) {
            let mut h = Harness::new();
            for op in ops {
                h.apply(op);
                h.poll();
            }
        }
    }

    /// The skip actually happens: links left idle at zero are polled on
    /// the skip path, and busy ones are not.
    #[test]
    fn idle_links_take_the_skip_path() {
        let mut h = Harness::new();
        h.apply((0, 0b11, 0, 12_500_000));
        h.advance(SimSpan::from_micros(10));
        h.poll();
        assert_eq!(h.idle_polls, N_LINKS - 2, "two busy links, the rest idle");
        h.apply((11, 0, 0, 0));
        assert!(h.idle_polls > 1_000 * (N_LINKS - 2));
    }
}
