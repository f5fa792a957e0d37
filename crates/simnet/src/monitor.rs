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

/// Windowed, smoothed per-link utilization estimation.
#[derive(Clone, Debug)]
pub struct LinkMonitor {
    last_poll: SimTime,
    /// Per-direction byte counters (index = link*2 + direction).
    last_bytes: Vec<f64>,
    /// EWMA of utilization in `[0, 1]` per link (busier direction).
    ewma: Vec<f64>,
    /// Smoothing factor for new samples, `(0, 1]`; 1.0 = no smoothing.
    alpha: f64,
}

impl LinkMonitor {
    /// Create a monitor for `n_links` links with EWMA factor `alpha`.
    pub fn new(n_links: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        LinkMonitor {
            last_poll: SimTime::ZERO,
            last_bytes: vec![0.0; 2 * n_links],
            ewma: vec![0.0; n_links],
            alpha,
        }
    }

    /// Poll the network's counters at time `now` and fold the window's
    /// average utilization into the EWMA.
    ///
    /// Polling with a zero-length window leaves the estimate unchanged.
    pub fn poll(&mut self, net: &SimNet, now: SimTime) {
        let dt = now.saturating_since(self.last_poll).as_secs_f64();
        let caps = net.capacities();
        if dt <= 0.0 {
            return;
        }
        for (i, ewma) in self.ewma.iter_mut().enumerate() {
            let mut util = 0.0f64;
            for dir in [false, true] {
                let bytes = net.cumulative_bytes_dir(LinkId(i as u32), dir);
                let idx = i * 2 + dir as usize;
                let delta = (bytes - self.last_bytes[idx]).max(0.0);
                util = util.max(((delta * 8.0 / dt) / caps[i]).clamp(0.0, 1.0));
                self.last_bytes[idx] = bytes;
            }
            *ewma = (1.0 - self.alpha) * *ewma + self.alpha * util;
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

    /// Estimated residual bandwidth per link given capacities, bits/s.
    pub fn residual(&self, capacities: &[f64]) -> Vec<f64> {
        self.ewma
            .iter()
            .zip(capacities)
            .map(|(u, c)| ((1.0 - u) * c).max(0.0))
            .collect()
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
        let mut mon = LinkMonitor::new(g.link_count(), 1.0);
        // Saturate the link for 1 ms: 100 Gbps = 12.5 MB per ms.
        net.start_flow(SimTime::ZERO, &[(l, true)], 12_500_000, 0);
        net.advance_to(SimTime::from_millis(1));
        mon.poll(&net, SimTime::from_millis(1));
        // alpha = 1.0: the estimate is the window's raw sample.
        let u = mon.utilization(l);
        assert!((u - 1.0).abs() < 0.01, "sample {u}");
    }

    #[test]
    fn idle_link_reads_zero() {
        let (g, l) = one_link();
        let net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count(), 1.0);
        mon.poll(&net, SimTime::from_millis(1));
        assert_eq!(mon.utilization(l), 0.0);
    }

    #[test]
    fn ewma_smooths() {
        let (g, l) = one_link();
        let mut net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count(), 0.5);
        // Busy first window.
        net.start_flow(SimTime::ZERO, &[(l, true)], 12_500_000, 0);
        net.advance_to(SimTime::from_millis(1));
        mon.poll(&net, SimTime::from_millis(1));
        assert!((mon.utilization(l) - 0.5).abs() < 0.01);
        // Idle second window decays toward zero.
        net.advance_to(SimTime::from_millis(2));
        mon.poll(&net, SimTime::from_millis(2));
        assert!((mon.utilization(l) - 0.25).abs() < 0.01);
    }

    #[test]
    fn zero_window_is_noop() {
        let (g, l) = one_link();
        let net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count(), 1.0);
        mon.poll(&net, SimTime::ZERO);
        assert_eq!(mon.utilization(l), 0.0);
        assert_eq!(mon.last_poll(), SimTime::ZERO);
    }

    #[test]
    fn residual_inverts_utilization() {
        let (g, l) = one_link();
        let mut net = SimNet::new(&g);
        let mut mon = LinkMonitor::new(g.link_count(), 1.0);
        net.start_flow(SimTime::ZERO, &[(l, true)], 6_250_000, 0); // half a window
        net.advance_to(SimTime::from_millis(1));
        mon.poll(&net, SimTime::from_millis(1));
        let res = mon.residual(net.capacities());
        assert!((res[l.idx()] - 0.5 * bandwidth::ETH_100G).abs() < 1e9);
    }
}
