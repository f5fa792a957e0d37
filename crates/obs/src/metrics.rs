//! Metrics registry: counters, gauges, fixed-bucket histograms, periodic
//! snapshots, and the per-link utilization time series.
//!
//! Like [`crate::Tracer`], the registry is a cloneable handle over an
//! optional shared store: a disabled registry costs one branch per update
//! and records nothing. Metric ids are plain indices handed out at
//! registration; re-registering a name returns the existing id, so layers
//! can register independently without coordinating.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use hs_des::SimTime;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramId(usize);

struct Histogram {
    name: String,
    /// Upper bounds of the first `bounds.len()` buckets; one overflow
    /// bucket follows.
    bounds: Vec<f64>,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
}

/// Read-only view of one histogram's state.
#[derive(Clone, Debug, PartialEq)]
pub struct HistogramView {
    pub name: String,
    pub bounds: Vec<f64>,
    /// `bounds.len() + 1` entries; the last is the overflow bucket.
    pub counts: Vec<u64>,
    pub total: u64,
    pub sum: f64,
}

/// Point-in-time copy of every counter and gauge.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    pub t: SimTime,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
}

/// One sample of per-link EWMA utilization from the network monitor.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkUtilSample {
    pub t: SimTime,
    pub util: Vec<f64>,
}

#[derive(Default)]
struct Store {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<Histogram>,
    snapshots: Vec<Snapshot>,
    link_util: Vec<LinkUtilSample>,
}

/// Cloneable metrics handle. Clones share one store.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    store: Option<Arc<Mutex<Store>>>,
}

impl MetricsRegistry {
    /// A registry that drops every update.
    pub fn disabled() -> Self {
        MetricsRegistry { store: None }
    }

    /// A registry that records into a shared store.
    pub fn recording() -> Self {
        MetricsRegistry {
            store: Some(Arc::new(Mutex::new(Store::default()))),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.store.is_some()
    }

    /// Register (or look up) a counter. Disabled registries hand out a
    /// dummy id whose updates are dropped.
    pub fn counter(&self, name: &str) -> CounterId {
        let Some(store) = &self.store else {
            return CounterId(usize::MAX);
        };
        let mut s = crate::lock(store);
        if let Some(i) = s.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        s.counters.push((name.to_owned(), 0));
        CounterId(s.counters.len() - 1)
    }

    pub fn gauge(&self, name: &str) -> GaugeId {
        let Some(store) = &self.store else {
            return GaugeId(usize::MAX);
        };
        let mut s = crate::lock(store);
        if let Some(i) = s.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        s.gauges.push((name.to_owned(), 0.0));
        GaugeId(s.gauges.len() - 1)
    }

    /// Register a histogram with the given finite bucket upper bounds
    /// (ascending); an overflow bucket is added implicitly.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> HistogramId {
        let Some(store) = &self.store else {
            return HistogramId(usize::MAX);
        };
        let mut s = crate::lock(store);
        if let Some(i) = s.histograms.iter().position(|h| h.name == name) {
            return HistogramId(i);
        }
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        s.histograms.push(Histogram {
            name: name.to_owned(),
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            total: 0,
            sum: 0.0,
        });
        HistogramId(s.histograms.len() - 1)
    }

    pub fn inc(&self, id: CounterId, by: u64) {
        if let Some(store) = &self.store {
            let mut s = crate::lock(store);
            if let Some((_, v)) = s.counters.get_mut(id.0) {
                *v = v.saturating_add(by);
            }
        }
    }

    pub fn set_gauge(&self, id: GaugeId, value: f64) {
        if let Some(store) = &self.store {
            let mut s = crate::lock(store);
            if let Some((_, v)) = s.gauges.get_mut(id.0) {
                *v = value;
            }
        }
    }

    pub fn observe(&self, id: HistogramId, value: f64) {
        if let Some(store) = &self.store {
            let mut s = crate::lock(store);
            if let Some(h) = s.histograms.get_mut(id.0) {
                let bucket = h
                    .bounds
                    .iter()
                    .position(|&b| value <= b)
                    .unwrap_or(h.bounds.len());
                h.counts[bucket] += 1;
                h.total += 1;
                if value.is_finite() {
                    h.sum += value;
                }
            }
        }
    }

    /// Record a point-in-time copy of all counters and gauges.
    pub fn snapshot(&self, t: SimTime) {
        if let Some(store) = &self.store {
            let mut s = crate::lock(store);
            let snap = Snapshot {
                t,
                counters: s.counters.clone(),
                gauges: s.gauges.clone(),
            };
            s.snapshots.push(snap);
        }
    }

    /// Append one per-link utilization sample (from `hs-simnet`'s monitor).
    pub fn record_link_util(&self, t: SimTime, util: &[f64]) {
        if let Some(store) = &self.store {
            crate::lock(store).link_util.push(LinkUtilSample {
                t,
                util: util.to_vec(),
            });
        }
    }

    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let store = self.store.as_ref()?;
        let s = crate::lock(store);
        s.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn histogram_view(&self, name: &str) -> Option<HistogramView> {
        let store = self.store.as_ref()?;
        let s = crate::lock(store);
        s.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| HistogramView {
                name: h.name.clone(),
                bounds: h.bounds.clone(),
                counts: h.counts.clone(),
                total: h.total,
                sum: h.sum,
            })
    }

    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.store
            .as_ref()
            .map_or_else(Vec::new, |s| crate::lock(s).snapshots.clone())
    }

    pub fn link_util_series(&self) -> Vec<LinkUtilSample> {
        self.store
            .as_ref()
            .map_or_else(Vec::new, |s| crate::lock(s).link_util.clone())
    }

    /// Dump the registry (current values, snapshots, link-util series) as a
    /// JSON document, for writing next to a trace file.
    pub fn to_json(&self) -> String {
        let Some(store) = &self.store else {
            return "{}".to_owned();
        };
        let s = crate::lock(store);
        let mut out = String::from("{\"counters\":{");
        for (i, (n, v)) in s.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{n}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (n, v)) in s.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let v = if v.is_finite() { *v } else { 0.0 };
            let _ = write!(out, "\"{n}\":{v}");
        }
        out.push_str("},\"histograms\":[");
        for (i, h) in s.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"name\":\"{}\",\"bounds\":[", h.name);
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            let _ = write!(out, "],\"total\":{},\"sum\":{}}}", h.total, h.sum);
        }
        out.push_str("],\"link_util\":[");
        for (i, sample) in s.link_util.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"t_s\":{},\"util\":[", sample.t.as_secs_f64());
            for (j, u) in sample.util.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let u = if u.is_finite() { *u } else { 0.0 };
                let _ = write!(out, "{u}");
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_drops_everything() {
        let m = MetricsRegistry::disabled();
        let c = m.counter("requests");
        m.inc(c, 5);
        m.snapshot(SimTime::ZERO);
        m.record_link_util(SimTime::ZERO, &[0.5]);
        assert!(!m.is_enabled());
        assert_eq!(m.counter_value("requests"), None);
        assert!(m.snapshots().is_empty());
        assert!(m.link_util_series().is_empty());
        assert_eq!(m.to_json(), "{}");
    }

    #[test]
    fn registry_survives_a_poisoned_lock() {
        // A panic while holding the store lock (e.g. a simulation panic
        // unwinding through an instrumented call) must not cascade into
        // poisoned-lock panics from every later metrics call — that
        // would mask the original failure.
        let m = MetricsRegistry::recording();
        let c = m.counter("events");
        m.inc(c, 2);
        let store = m.store.clone().expect("recording registry has a store");
        std::thread::spawn(move || {
            let _guard = store.lock().expect("first holder acquires cleanly");
            panic!("poison the store lock");
        })
        .join()
        .expect_err("the poisoning thread panics");
        // Reads and writes keep working on the intact data.
        assert_eq!(m.counter_value("events"), Some(2));
        m.inc(c, 3);
        assert_eq!(m.counter_value("events"), Some(5));
    }

    #[test]
    fn counters_and_gauges_register_once() {
        let m = MetricsRegistry::recording();
        let a = m.counter("arrivals");
        let a2 = m.counter("arrivals");
        assert_eq!(a, a2);
        m.inc(a, 2);
        m.inc(a2, 3);
        assert_eq!(m.counter_value("arrivals"), Some(5));
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let m = MetricsRegistry::recording();
        let h = m.histogram("ttft_s", &[0.1, 0.5, 1.0]);
        for v in [0.05, 0.1, 0.3, 2.0, 9.0] {
            m.observe(h, v);
        }
        let view = m.histogram_view("ttft_s").unwrap();
        assert_eq!(view.counts, vec![2, 1, 0, 2]);
        assert_eq!(view.total, 5);
        assert!((view.sum - 11.45).abs() < 1e-9);
    }

    #[test]
    fn snapshots_capture_series() {
        let m = MetricsRegistry::recording();
        let c = m.counter("done");
        m.snapshot(SimTime::from_secs(1));
        m.inc(c, 4);
        m.snapshot(SimTime::from_secs(2));
        let snaps = m.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].counters[0].1, 0);
        assert_eq!(snaps[1].counters[0].1, 4);
        assert!(snaps[0].t < snaps[1].t);
    }

    #[test]
    fn link_util_series_preserved_in_order() {
        let m = MetricsRegistry::recording();
        m.record_link_util(SimTime::from_secs(1), &[0.1, 0.2]);
        m.record_link_util(SimTime::from_secs(2), &[0.3, 0.4]);
        let series = m.link_util_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[1].util, vec![0.3, 0.4]);
    }

    #[test]
    fn json_dump_parses() {
        let m = MetricsRegistry::recording();
        let c = m.counter("x");
        m.inc(c, 1);
        let h = m.histogram("lat", &[1.0]);
        m.observe(h, 0.5);
        m.record_link_util(SimTime::from_secs(1), &[0.25, f64::NAN]);
        let doc = m.to_json();
        let v = serde_json::from_str(&doc).expect("metrics JSON parses");
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("x"))
                .and_then(|x| x.as_u64()),
            Some(1)
        );
    }
}
