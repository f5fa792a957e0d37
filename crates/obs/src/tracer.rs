//! The `Tracer` handle threaded through every simulator layer.
//!
//! A tracer is either a no-op sink (the default: every emit is a single
//! branch on a `None` discriminant) or a shared in-memory buffer behind an
//! `Rc<RefCell<..>>` so that the engine, the network simulator and the
//! communication strategy, each holding a clone, record into the same
//! stream. A simulation runs on one thread, so the handle takes no lock
//! and is neither `Send` nor `Sync`: a run and its tracer stay on the
//! thread that built them.

use std::cell::RefCell;
use std::rc::Rc;

use hs_des::SimTime;

use crate::event::{track, Ph, Record, Val};

/// Cloneable tracing handle. Clones share one buffer.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<Vec<Record>>>>,
}

impl Tracer {
    /// A tracer that drops every event. This is the default everywhere a
    /// tracer is not explicitly attached.
    pub fn noop() -> Self {
        Tracer { sink: None }
    }

    /// A tracer that records events into a shared in-memory buffer.
    pub fn recording() -> Self {
        Tracer {
            sink: Some(Rc::new(RefCell::new(Vec::new()))),
        }
    }

    /// Whether events are being recorded. Call sites that need to build
    /// argument lists (allocation) should guard on this first.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Append a raw record. No-op when disabled.
    #[inline]
    pub fn emit(&self, rec: Record) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().push(rec);
        }
    }

    /// Number of records collected so far.
    pub fn len(&self) -> usize {
        self.sink.as_ref().map_or(0, |s| s.borrow().len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all records collected so far.
    pub fn records(&self) -> Vec<Record> {
        self.sink
            .as_ref()
            .map_or_else(Vec::new, |s| s.borrow().clone())
    }

    /// Drain collected records, leaving the buffer empty.
    pub fn take(&self) -> Vec<Record> {
        self.sink.as_ref().map_or_else(Vec::new, |s| s.take())
    }

    // ------------------------------------------------------------------
    // Generic span / instant / counter primitives.
    // ------------------------------------------------------------------

    pub fn begin(&self, t: SimTime, pid: u32, tid: u64, name: &'static str, cat: &'static str) {
        self.emit(Record {
            t,
            ph: Ph::Begin,
            name,
            cat,
            pid,
            tid,
            args: Vec::new(),
        });
    }

    pub fn end(&self, t: SimTime, pid: u32, tid: u64, name: &'static str, cat: &'static str) {
        self.emit(Record {
            t,
            ph: Ph::End,
            name,
            cat,
            pid,
            tid,
            args: Vec::new(),
        });
    }

    pub fn instant(
        &self,
        t: SimTime,
        pid: u32,
        tid: u64,
        name: &'static str,
        cat: &'static str,
        args: Vec<(&'static str, Val)>,
    ) {
        self.emit(Record {
            t,
            ph: Ph::Instant,
            name,
            cat,
            pid,
            tid,
            args,
        });
    }

    pub fn counter(&self, t: SimTime, pid: u32, tid: u64, name: &'static str, value: f64) {
        self.emit(Record {
            t,
            ph: Ph::Counter,
            name,
            cat: "counter",
            pid,
            tid,
            args: vec![("value", Val::F64(value))],
        });
    }

    // ------------------------------------------------------------------
    // Request lifecycle: arrival → queued → prefill → kv_transfer → decode.
    // ------------------------------------------------------------------

    pub fn request_arrived(&self, t: SimTime, req: u64, input_tokens: u32, output_tokens: u32) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::REQUESTS,
            req,
            "arrival",
            "req",
            vec![
                ("input_tokens", Val::U64(input_tokens as u64)),
                ("output_tokens", Val::U64(output_tokens as u64)),
            ],
        );
    }

    /// Begin a lifecycle phase span; `phase` is one of `"queued"`,
    /// `"prefill"`, `"kv_transfer"`, `"decode"`.
    pub fn request_phase_begin(&self, t: SimTime, req: u64, phase: &'static str) {
        self.begin(t, track::REQUESTS, req, phase, "req");
    }

    pub fn request_phase_end(&self, t: SimTime, req: u64, phase: &'static str) {
        self.end(t, track::REQUESTS, req, phase, "req");
    }

    pub fn request_done(&self, t: SimTime, req: u64, ttft_s: f64, latency_s: f64) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::REQUESTS,
            req,
            "done",
            "req",
            vec![
                ("ttft_s", Val::F64(ttft_s)),
                ("latency_s", Val::F64(latency_s)),
            ],
        );
    }

    // ------------------------------------------------------------------
    // Collectives.
    // ------------------------------------------------------------------

    pub fn collective_begin(
        &self,
        t: SimTime,
        coll: u64,
        group: u64,
        kind: &'static str,
        scheme: Option<&'static str>,
        bytes: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        let mut args = vec![("group", Val::U64(group)), ("bytes", Val::U64(bytes))];
        if let Some(s) = scheme {
            args.push(("scheme", Val::Str(s.to_owned())));
        }
        self.emit(Record {
            t,
            ph: Ph::Begin,
            name: kind,
            cat: "coll",
            pid: track::COLLECTIVES,
            tid: coll,
            args,
        });
    }

    pub fn collective_end(&self, t: SimTime, coll: u64, kind: &'static str) {
        self.end(t, track::COLLECTIVES, coll, kind, "coll");
    }

    /// A collective lost flows to a fault and will be relaunched.
    pub fn collective_abort(&self, t: SimTime, coll: u64, lost_flows: usize) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::COLLECTIVES,
            coll,
            "abort",
            "coll",
            vec![("lost_flows", Val::U64(lost_flows as u64))],
        );
    }

    // ------------------------------------------------------------------
    // Online-scheduler policy audit (Eqs. 16-18).
    // ------------------------------------------------------------------

    /// One `select()` decision: the chosen scheme, its Eq. 16 objective
    /// `J = b_c + δ`, how many candidates were scored, and how many were
    /// skipped because they crossed a dead link.
    #[allow(clippy::too_many_arguments)]
    pub fn policy_selected(
        &self,
        t: SimTime,
        group: u64,
        scheme: &'static str,
        j: f64,
        delta: f64,
        candidates: usize,
        dead_skipped: usize,
        bytes: u64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::SCHEDULER,
            group,
            "policy_select",
            "policy",
            vec![
                ("scheme", Val::Str(scheme.to_owned())),
                ("j", Val::F64(j)),
                ("delta", Val::F64(delta)),
                ("candidates", Val::U64(candidates as u64)),
                ("dead_skipped", Val::U64(dead_skipped as u64)),
                ("bytes", Val::U64(bytes)),
            ],
        );
    }

    /// A `charge()` application (Eq. 17): virtual cost added to the chosen
    /// policy and the resulting maximum `b` in the table.
    pub fn policy_charged(&self, t: SimTime, group: u64, chosen: usize, delta: f64, max_b: f64) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::SCHEDULER,
            group,
            "policy_charge",
            "policy",
            vec![
                ("chosen", Val::U64(chosen as u64)),
                ("delta", Val::F64(delta)),
                ("max_b", Val::F64(max_b)),
            ],
        );
    }

    /// A control-plane `refresh()` poll (Eq. 18 smoothing) over one table.
    pub fn table_refreshed(&self, t: SimTime, group: u64, max_b: f64) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::SCHEDULER,
            group,
            "table_refresh",
            "policy",
            vec![("max_b", Val::F64(max_b))],
        );
    }

    // ------------------------------------------------------------------
    // Faults.
    // ------------------------------------------------------------------

    /// A fault-plan event fired; `recovered = false` for injection,
    /// `true` for recovery.
    pub fn fault(&self, t: SimTime, desc: String, recovered: bool) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::FAULTS,
            0,
            if recovered { "recover" } else { "inject" },
            "fault",
            vec![("what", Val::Str(desc))],
        );
    }

    /// A retried transfer or collective found a path avoiding dead links.
    pub fn reroute(&self, t: SimTime, tid: u64, delay_s: f64) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::FAULTS,
            tid,
            "reroute",
            "fault",
            vec![("delay_s", Val::F64(delay_s))],
        );
    }

    // ------------------------------------------------------------------
    // KV-cache transfers (prefill→decode shipment, Eq. 14-15).
    // ------------------------------------------------------------------

    /// A KV shipment launched: full byte volume, stripe count (Eq. 15
    /// parallel TP pairs), source/chosen instances, and the selector's
    /// transfer-time estimate (audited against the realized time at
    /// [`kv_transfer_end`](Self::kv_transfer_end)).
    #[allow(clippy::too_many_arguments)]
    pub fn kv_transfer_begin(
        &self,
        t: SimTime,
        req: u64,
        src_instance: u64,
        dst_instance: u64,
        bytes: u64,
        stripes: usize,
        est_s: f64,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.emit(Record {
            t,
            ph: Ph::Begin,
            name: "kv_flow",
            cat: "kv",
            pid: track::KV,
            tid: req,
            args: vec![
                ("src_instance", Val::U64(src_instance)),
                ("dst_instance", Val::U64(dst_instance)),
                ("bytes", Val::U64(bytes)),
                ("stripes", Val::U64(stripes as u64)),
                ("est_s", Val::F64(est_s)),
            ],
        });
    }

    /// All stripes of a KV shipment drained: realized transfer time, the
    /// admission-time estimate, and how many fault-induced retries it took.
    pub fn kv_transfer_end(&self, t: SimTime, req: u64, actual_s: f64, est_s: f64, retries: u32) {
        if !self.is_enabled() {
            return;
        }
        self.emit(Record {
            t,
            ph: Ph::End,
            name: "kv_flow",
            cat: "kv",
            pid: track::KV,
            tid: req,
            args: vec![
                ("actual_s", Val::F64(actual_s)),
                ("est_s", Val::F64(est_s)),
                ("retries", Val::U64(retries as u64)),
            ],
        });
    }

    /// A fault aborted KV stripes; the whole shipment relaunches after the
    /// backoff from its true source.
    pub fn kv_retry(&self, t: SimTime, req: u64, attempt: u32, lost_stripes: usize) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::KV,
            req,
            "kv_retry",
            "kv",
            vec![
                ("attempt", Val::U64(attempt as u64)),
                ("lost_stripes", Val::U64(lost_stripes as u64)),
            ],
        );
    }

    // ------------------------------------------------------------------
    // Autoscaling (elastic P/D pools, DESIGN.md §13).
    // ------------------------------------------------------------------

    /// The controller changed a pool target: which pool, the old and new
    /// Active counts, and the signal that triggered it.
    pub fn autoscale_decision(
        &self,
        t: SimTime,
        pool: &'static str,
        from: usize,
        to: usize,
        reason: &'static str,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::AUTOSCALE,
            0,
            if to > from { "scale_up" } else { "scale_down" },
            "autoscale",
            vec![
                ("pool", Val::Str(pool.to_owned())),
                ("from", Val::U64(from as u64)),
                ("to", Val::U64(to as u64)),
                ("reason", Val::Str(reason.to_owned())),
            ],
        );
    }

    /// A draining instance finished its in-flight work and parked.
    pub fn autoscale_parked(&self, t: SimTime, instance: u64, pool: &'static str) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::AUTOSCALE,
            0,
            "parked",
            "autoscale",
            vec![
                ("instance", Val::U64(instance)),
                ("pool", Val::Str(pool.to_owned())),
            ],
        );
    }

    /// Sampled Active-instance counts (Chrome counter tracks: tid 1 =
    /// prefill, tid 2 = decode).
    pub fn autoscale_pools(&self, t: SimTime, prefill_active: usize, decode_active: usize) {
        if !self.is_enabled() {
            return;
        }
        self.counter(
            t,
            track::AUTOSCALE,
            1,
            "prefill_active",
            prefill_active as f64,
        );
        self.counter(
            t,
            track::AUTOSCALE,
            2,
            "decode_active",
            decode_active as f64,
        );
    }

    // ------------------------------------------------------------------
    // Network (hs-simnet).
    // ------------------------------------------------------------------

    pub fn flow_start(&self, t: SimTime, flow: u64, tag: u64, bytes: u64, hops: usize) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::NETWORK,
            flow,
            "flow_start",
            "net",
            vec![
                ("tag", Val::U64(tag)),
                ("bytes", Val::U64(bytes)),
                ("hops", Val::U64(hops as u64)),
            ],
        );
    }

    pub fn flow_abort(&self, t: SimTime, flow: u64, reason: &'static str) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::NETWORK,
            flow,
            "flow_abort",
            "net",
            vec![("reason", Val::Str(reason.to_owned()))],
        );
    }

    /// A link capacity rescale (fault inject/recover); flows crossing the
    /// link were re-rated, `aborted` of them fatally.
    pub fn link_scale(&self, t: SimTime, link: u64, factor: f64, rerated: usize, aborted: usize) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::NETWORK,
            link,
            "link_scale",
            "net",
            vec![
                ("factor", Val::F64(factor)),
                ("rerated", Val::U64(rerated as u64)),
                ("aborted", Val::U64(aborted as u64)),
            ],
        );
    }

    /// Sampled EWMA utilization for one link (Chrome counter track).
    pub fn link_util(&self, t: SimTime, link: u64, util: f64) {
        self.counter(t, track::NETWORK, link, "link_util", util);
    }

    // ------------------------------------------------------------------
    // INA switch sessions (hs-switch).
    // ------------------------------------------------------------------

    pub fn ina_session_begin(&self, t: SimTime, switch: u64, job: u64, slots: u32) {
        if !self.is_enabled() {
            return;
        }
        self.emit(Record {
            t,
            ph: Ph::Begin,
            name: "ina_session",
            cat: "ina",
            pid: track::SWITCH,
            tid: switch,
            args: vec![("job", Val::U64(job)), ("slots", Val::U64(slots as u64))],
        });
    }

    pub fn ina_session_end(&self, t: SimTime, switch: u64, job: u64) {
        if !self.is_enabled() {
            return;
        }
        self.emit(Record {
            t,
            ph: Ph::End,
            name: "ina_session",
            cat: "ina",
            pid: track::SWITCH,
            tid: switch,
            args: vec![("job", Val::U64(job))],
        });
    }

    /// The dataplane punted a packet to the host fallback path.
    pub fn ina_fallback(&self, t: SimTime, switch: u64, job: u64) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::SWITCH,
            switch,
            "ina_fallback",
            "ina",
            vec![("job", Val::U64(job))],
        );
    }

    /// Free-form warning (clock clamps, degraded modes, ...).
    pub fn warning(&self, t: SimTime, msg: String) {
        if !self.is_enabled() {
            return;
        }
        self.instant(
            t,
            track::FAULTS,
            0,
            "warning",
            "warn",
            vec![("msg", Val::Str(msg))],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_tracer_records_nothing() {
        let tr = Tracer::noop();
        tr.request_arrived(SimTime::from_secs(1), 7, 128, 64);
        tr.policy_selected(SimTime::from_secs(1), 0, "HierIna", 0.5, 0.1, 4, 1, 1 << 20);
        assert!(!tr.is_enabled());
        assert!(tr.records().is_empty());
        assert_eq!(tr.len(), 0);
    }

    #[test]
    fn clones_share_one_buffer() {
        let tr = Tracer::recording();
        let other = tr.clone();
        tr.request_arrived(SimTime::ZERO, 1, 10, 10);
        other.request_done(SimTime::from_secs(2), 1, 0.5, 2.0);
        assert_eq!(tr.len(), 2);
        let recs = tr.records();
        assert_eq!(recs[0].name, "arrival");
        assert_eq!(recs[1].name, "done");
        assert_eq!(recs[1].arg("ttft_s").and_then(Val::as_f64), Some(0.5));
    }

    #[test]
    fn spans_pair_begin_end_on_same_track() {
        let tr = Tracer::recording();
        tr.request_phase_begin(SimTime::from_millis(5), 3, "prefill");
        tr.request_phase_end(SimTime::from_millis(9), 3, "prefill");
        let recs = tr.records();
        assert_eq!(recs[0].ph, Ph::Begin);
        assert_eq!(recs[1].ph, Ph::End);
        assert_eq!((recs[0].pid, recs[0].tid), (recs[1].pid, recs[1].tid));
    }

    #[test]
    fn take_drains_buffer() {
        let tr = Tracer::recording();
        tr.warning(SimTime::ZERO, "x".into());
        assert_eq!(tr.take().len(), 1);
        assert!(tr.is_empty());
    }
}
