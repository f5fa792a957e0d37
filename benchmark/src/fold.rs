//! Streaming fold of a simulation trace into counts and simulated-span
//! samples.
//!
//! Records arrive in batches (one per monitor tick) and are dropped once
//! folded, so memory grows with the number of spans still open and the
//! number of samples kept, never with the number of records. Folding in
//! batches gives the same result as folding the whole trace at once.

use std::hash::Hash;

use hs_des::SimTime;
use hs_obs::event::{track, Ph, Record, Val};
use rustc_hash::FxHashMap;

/// Begin/end pairing for one span kind.
#[derive(Clone, Debug, PartialEq)]
pub struct Spans<K: Hash + Eq> {
    open: FxHashMap<K, SimTime>,
    pub begins: u64,
    /// Ends that closed an open begin.
    pub ends: u64,
    /// Ends with no open begin under their key.
    pub orphan_ends: u64,
    /// Begins under a key that was already open.
    pub double_begins: u64,
}

impl<K: Hash + Eq> Default for Spans<K> {
    fn default() -> Self {
        Spans {
            open: FxHashMap::default(),
            begins: 0,
            ends: 0,
            orphan_ends: 0,
            double_begins: 0,
        }
    }
}

impl<K: Hash + Eq> Spans<K> {
    fn begin(&mut self, key: K, t: SimTime) {
        self.begins += 1;
        if self.open.insert(key, t).is_some() {
            self.double_begins += 1;
        }
    }

    /// Close `key`'s span; its simulated duration in seconds.
    fn end(&mut self, key: &K, t: SimTime) -> Option<f64> {
        match self.open.remove(key) {
            Some(start) => {
                self.ends += 1;
                Some(t.saturating_since(start).as_secs_f64())
            }
            None => {
                self.orphan_ends += 1;
                None
            }
        }
    }

    /// Spans begun and not yet ended: work in flight at the horizon.
    pub fn in_flight(&self) -> u64 {
        self.begins - self.ends
    }

    /// Every end matched a begin and no key began twice.
    pub fn balanced(&self) -> bool {
        self.orphan_ends == 0 && self.double_begins == 0
    }

    fn merge(&mut self, o: &Self) {
        self.begins += o.begins;
        self.ends += o.ends;
        self.orphan_ends += o.orphan_ends;
        self.double_begins += o.double_begins;
    }
}

/// Request lifecycle phases in the order a request passes them.
pub const PHASES: [&str; 4] = ["queued", "prefill", "kv_transfer", "decode"];

/// Everything the benchmark reads out of a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceFold {
    pub records: u64,
    /// Largest batch handed to [`TraceFold::push`].
    pub max_batch: u64,
    pub arrivals: u64,
    pub dones: u64,
    phases: Spans<(u64, &'static str)>,
    /// Simulated seconds per lifecycle phase, indexed like [`PHASES`].
    pub phase_secs: [Vec<f64>; 4],
    pub colls: Spans<u64>,
    pub allreduce: u64,
    pub pipe_hops: u64,
    pub scheme_ina: u64,
    pub scheme_ring: u64,
    pub scheme_hier: u64,
    pub allreduce_secs: Vec<f64>,
    pub coll_aborts: u64,
    pub kv: Spans<u64>,
    pub kv_est_err_sum_s: f64,
    pub kv_est_err_n: u64,
    pub ina: Spans<(u64, u64)>,
    pub ina_session_secs: Vec<f64>,
    pub ina_fallbacks: u64,
    pub flows_started: u64,
    pub flow_bytes: u64,
    pub flow_aborts: u64,
    pub link_scales: u64,
    pub rerated_flows: u64,
    pub policy_selects: u64,
    pub policy_charges: u64,
    pub table_refreshes: u64,
    pub dead_skipped: u64,
    pub parks: u64,
    pub reroutes: u64,
    pub reroute_sum_s: f64,
}

fn arg_u64(r: &Record, key: &str) -> u64 {
    match r.arg(key) {
        Some(Val::U64(v)) => *v,
        _ => 0,
    }
}

fn arg_f64(r: &Record, key: &str) -> f64 {
    r.arg(key).and_then(Val::as_f64).unwrap_or(0.0)
}

impl TraceFold {
    /// Fold one batch of records, in emission order.
    pub fn push(&mut self, batch: Vec<Record>) {
        self.max_batch = self.max_batch.max(batch.len() as u64);
        for r in &batch {
            self.fold(r);
        }
    }

    fn fold(&mut self, r: &Record) {
        self.records += 1;
        match (r.pid, r.ph, r.name) {
            (track::REQUESTS, Ph::Instant, "arrival") => self.arrivals += 1,
            (track::REQUESTS, Ph::Instant, "done") => self.dones += 1,
            (track::REQUESTS, Ph::Begin, phase) => self.phases.begin((r.tid, phase), r.t),
            (track::REQUESTS, Ph::End, phase) => {
                let slot = PHASES.iter().position(|&p| p == phase);
                if let (Some(d), Some(i)) = (self.phases.end(&(r.tid, phase), r.t), slot) {
                    self.phase_secs[i].push(d);
                }
            }
            (track::COLLECTIVES, Ph::Begin, kind) => {
                self.colls.begin(r.tid, r.t);
                match kind {
                    "allreduce" => self.allreduce += 1,
                    _ => self.pipe_hops += 1,
                }
                match r.arg("scheme").and_then(Val::as_str) {
                    Some("Ina") => self.scheme_ina += 1,
                    Some("Ring") => self.scheme_ring += 1,
                    Some("HierRing" | "HierIna") => self.scheme_hier += 1,
                    _ => {}
                }
            }
            (track::COLLECTIVES, Ph::End, kind) => {
                if let Some(d) = self.colls.end(&r.tid, r.t) {
                    if kind == "allreduce" {
                        self.allreduce_secs.push(d);
                    }
                }
            }
            (track::COLLECTIVES, Ph::Instant, "abort") => self.coll_aborts += 1,
            (track::NETWORK, Ph::Instant, "flow_start") => {
                self.flows_started += 1;
                self.flow_bytes += arg_u64(r, "bytes");
            }
            (track::NETWORK, Ph::Instant, "flow_abort") => self.flow_aborts += 1,
            (track::NETWORK, Ph::Instant, "link_scale") => {
                self.link_scales += 1;
                self.rerated_flows += arg_u64(r, "rerated");
            }
            (track::SCHEDULER, Ph::Instant, "policy_select") => {
                self.policy_selects += 1;
                self.dead_skipped += arg_u64(r, "dead_skipped");
            }
            (track::SCHEDULER, Ph::Instant, "policy_charge") => self.policy_charges += 1,
            (track::SCHEDULER, Ph::Instant, "table_refresh") => self.table_refreshes += 1,
            (track::SWITCH, Ph::Begin, "ina_session") => {
                self.ina.begin((r.tid, arg_u64(r, "job")), r.t);
            }
            (track::SWITCH, Ph::End, "ina_session") => {
                if let Some(d) = self.ina.end(&(r.tid, arg_u64(r, "job")), r.t) {
                    self.ina_session_secs.push(d);
                }
            }
            (track::SWITCH, Ph::Instant, "ina_fallback") => self.ina_fallbacks += 1,
            (track::KV, Ph::Begin, "kv_flow") => self.kv.begin(r.tid, r.t),
            (track::KV, Ph::End, "kv_flow") => {
                let closed = self.kv.end(&r.tid, r.t).is_some();
                if closed {
                    self.kv_est_err_sum_s += (arg_f64(r, "actual_s") - arg_f64(r, "est_s")).abs();
                    self.kv_est_err_n += 1;
                }
            }
            (track::AUTOSCALE, Ph::Instant, "parked") => self.parks += 1,
            (track::FAULTS, Ph::Instant, "reroute") => {
                self.reroutes += 1;
                self.reroute_sum_s += arg_f64(r, "delay_s");
            }
            _ => {}
        }
    }

    /// Add another (finished) fold's counts and samples to this one.
    pub fn merge(&mut self, o: &TraceFold) {
        self.records += o.records;
        self.max_batch = self.max_batch.max(o.max_batch);
        self.phases.merge(&o.phases);
        self.colls.merge(&o.colls);
        self.kv.merge(&o.kv);
        self.ina.merge(&o.ina);
        for (a, b) in self.phase_secs.iter_mut().zip(&o.phase_secs) {
            a.extend_from_slice(b);
        }
        self.allreduce_secs.extend_from_slice(&o.allreduce_secs);
        self.ina_session_secs.extend_from_slice(&o.ina_session_secs);
        self.kv_est_err_sum_s += o.kv_est_err_sum_s;
        self.reroute_sum_s += o.reroute_sum_s;
        for (a, b) in [
            (&mut self.arrivals, o.arrivals),
            (&mut self.dones, o.dones),
            (&mut self.allreduce, o.allreduce),
            (&mut self.pipe_hops, o.pipe_hops),
            (&mut self.scheme_ina, o.scheme_ina),
            (&mut self.scheme_ring, o.scheme_ring),
            (&mut self.scheme_hier, o.scheme_hier),
            (&mut self.coll_aborts, o.coll_aborts),
            (&mut self.kv_est_err_n, o.kv_est_err_n),
            (&mut self.ina_fallbacks, o.ina_fallbacks),
            (&mut self.flows_started, o.flows_started),
            (&mut self.flow_bytes, o.flow_bytes),
            (&mut self.flow_aborts, o.flow_aborts),
            (&mut self.link_scales, o.link_scales),
            (&mut self.rerated_flows, o.rerated_flows),
            (&mut self.policy_selects, o.policy_selects),
            (&mut self.policy_charges, o.policy_charges),
            (&mut self.table_refreshes, o.table_refreshes),
            (&mut self.dead_skipped, o.dead_skipped),
            (&mut self.parks, o.parks),
            (&mut self.reroutes, o.reroutes),
        ] {
            *a += b;
        }
    }

    /// Spans begun and not ended at the horizon, over every paired kind.
    pub fn open_spans(&self) -> u64 {
        self.colls.in_flight() + self.kv.in_flight() + self.ina.in_flight()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::testing::{small_pass, small_trace};
    use crate::workloads::Mode;

    /// The wrapper folds one batch per monitor tick; folding the same
    /// run's trace in one go, or in arbitrary chunks, must agree with it.
    #[test]
    fn chunked_fold_equals_one_shot_fold() {
        let records = small_trace();
        let mut whole = TraceFold::default();
        whole.push(records.clone());
        let mut chunked = TraceFold::default();
        for chunk in records.chunks(7) {
            chunked.push(chunk.to_vec());
        }
        let mut streamed = small_pass(Mode::Trace).subs.remove(0).fold;
        assert!(streamed.max_batch < whole.max_batch);
        chunked.max_batch = whole.max_batch;
        streamed.max_batch = whole.max_batch;
        assert_eq!(chunked, whole);
        assert_eq!(streamed, whole);
        assert!(whole.records > 1000 && whole.allreduce > 0 && whole.policy_selects > 0);
    }
}
