//! KV shipment: the decode instances' KV managers, the pending-admission
//! queue, and the Eq. 15 striped prefill→decode transfers in flight,
//! with decode selection, abort and relaunch.

use crate::autoscale::PoolState;
use crate::collectives::retry_delay;
use crate::engine::{ClusterConfig, Ev, Shared, TAG_KV};
use crate::faults::FaultRecovery;
use crate::instance::Instance;
use crate::kvcache::KvManager;
use crate::kvflow::{kv_transfer_estimate, stripe_plan, KvStripe};
use crate::metrics::{MemSample, SimReport};
use crate::request::{ReqPhase, ReqState};
use crate::strategy::{KvCandidate, KvCtx};
use hs_des::SimTime;
use hs_model::MemoryModel;
use hs_simnet::FlowId;
use hs_workload::RequestId;
use rustc_hash::FxHashMap;
use std::collections::VecDeque;

/// One in-flight KV shipment. A fault-induced abort resends all of it
/// (retransmission from zero is the conservative model) from the *true*
/// prefill GPUs: the Eq. 15 stripe plan is immutable across retries,
/// only the routes are re-chosen.
struct KvFlight {
    stripes: Vec<KvStripe>,
    /// Flows currently in the air, one per launched stripe. The shipment
    /// completes when this empties.
    live: Vec<FlowId>,
    attempt: u32,
    /// When the selector launched the shipment (realized-time metric).
    started: SimTime,
    aborted_at: SimTime,
    /// A retry is scheduled: surviving stripes were cancelled and stale
    /// completions must be ignored until the relaunch.
    retry_pending: bool,
    /// Admission-time transfer estimate, seconds (estimator audit).
    est_s: f64,
}

/// KV state and its `SimReport` fields: `kv_transfers`, `kv_stripes`,
/// `kv_retries`, `kv_deferrals`, `kv_bytes`, `mean_kv_transfer_s`,
/// `p90_kv_transfer_s`, `mean_kv_est_err_s` and `mem_series`.
#[derive(Default)]
pub(crate) struct KvShipper {
    /// One manager per decode instance, in decode-pool order.
    pub(crate) managers: Vec<KvManager>,
    /// Requests refused admission, oldest first.
    pub(crate) pending: VecDeque<RequestId>,
    flights: FxHashMap<u64, KvFlight>,
    /// Decode-pool index `d` is engine instance `decode_offset + d`.
    decode_offset: usize,
    bytes_per_token: u64,
    mem_series: Vec<MemSample>,
    transfers: u64,
    stripes: u64,
    retries: u64,
    deferrals: u64,
    bytes: u64,
    /// Realized transfer time per completed shipment, seconds.
    transfer_secs: Vec<f64>,
    /// |estimate − realized| per completed shipment, seconds.
    est_err_secs: Vec<f64>,
}

impl KvShipper {
    pub(crate) fn new(cfg: &ClusterConfig) -> Self {
        // Decode KV capacity: per-instance, derived from its sharding and
        // per-GPU memory.
        let managers = cfg
            .decode
            .iter()
            .map(|s| {
                let mm = MemoryModel::new(&cfg.model, s.p_tens(), s.p_pipe());
                KvManager::new(mm.kv_token_capacity(cfg.gpu_memory_bytes))
            })
            .collect();
        KvShipper {
            managers,
            decode_offset: cfg.prefill.len(),
            bytes_per_token: cfg.model.kv_bytes_per_token(),
            ..KvShipper::default()
        }
    }

    /// Pick a decode instance for `id`, reserve its KV and launch the
    /// striped shipment. `None` when no instance can take the request
    /// right now; `Some(true)` when nothing had to cross the fabric and
    /// the KV has already landed.
    pub(crate) fn admit(
        &mut self,
        sh: &mut Shared,
        reqs: &mut [ReqState],
        instances: &[Instance],
        id: RequestId,
    ) -> Option<bool> {
        let need = reqs[id.0 as usize].reserved_kv_tokens();
        let decode = &instances[self.decode_offset..];
        // Candidates in ascending decode-pool order (deterministic).
        // Draining/Parked instances are not admission targets.
        let eligible: Vec<usize> = (0..self.managers.len())
            .filter(|&d| decode[d].state == PoolState::Active && self.managers[d].can_admit(need))
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let prefill_inst = reqs[id.0 as usize]
            .prefill_instance
            .expect("admission before prefill completion");
        let input_tokens = reqs[id.0 as usize].req.input_tokens as u64;
        let bytes = input_tokens * self.bytes_per_token;
        let src_gpus = instances[prefill_inst].spec.all_gpus();
        // Network-aware strategies score the candidates (NetKV-style); a
        // choice outside the candidate set falls through to least-loaded,
        // so the strategy can never over-admit.
        let mut choice = None;
        if sh.strategy.network_aware_admission() {
            let candidates: Vec<KvCandidate> = eligible
                .iter()
                .map(|&d| KvCandidate {
                    instance: d,
                    load: decode[d].decode_load(),
                    headroom_tokens: self.managers[d].headroom(),
                    capacity_tokens: self.managers[d].capacity(),
                    dst_gpus: decode[d].spec.all_gpus(),
                })
                .collect();
            let ctx = KvCtx {
                req: id.0,
                bytes,
                src_gpus: &src_gpus,
                link_util: &sh.util,
                now: sh.now,
            };
            choice = sh
                .strategy
                .choose_decode(&ctx, &candidates)
                .filter(|c| eligible.contains(&c.instance))
                .map(|c| (c.instance, c.est_transfer_s));
        }
        let (d, est_s) = choice.unwrap_or_else(|| {
            let d = eligible
                .iter()
                .copied()
                .min_by_key(|&d| decode[d].decode_load())
                .expect("eligible is non-empty");
            // Priced over the idle fabric: only network-aware strategies
            // see link utilization.
            let dst_gpus = decode[d].spec.all_gpus();
            let est = kv_transfer_estimate(&sh.g, &sh.ap, &src_gpus, &dst_gpus, bytes, None);
            (d, est)
        });
        // Selection and reservation are decoupled, so re-validate instead
        // of asserting: a refused reservation defers the request rather
        // than killing the run.
        if !self.managers[d].admit(need) {
            let msg = format!("kv admit race: instance {d} refused request {}", id.0);
            sh.tracer.warning(sh.now, msg);
            return None;
        }
        let r = &mut reqs[id.0 as usize];
        r.decode_instance = Some(self.decode_offset + d);
        r.phase = ReqPhase::TransferringKv;
        sh.tracer.request_phase_begin(sh.now, id.0, "kv_transfer");
        self.managers[d].materialize(input_tokens);
        // Stripe the shipment across the Eq. 15 parallel TP pairs: one
        // flow per src/dst GPU pair, done when the slowest stripe drains.
        let stripes = stripe_plan(&src_gpus, &decode[d].spec.all_gpus(), bytes);
        let (live, _) = self.launch(sh, &stripes, id.0);
        self.transfers += 1;
        self.bytes += bytes;
        sh.metrics.inc(sh.obs.kv_transfers, 1);
        let dst = (self.decode_offset + d) as u64;
        let n = live.len();
        sh.tracer
            .kv_transfer_begin(sh.now, id.0, prefill_inst as u64, dst, bytes, n, est_s);
        let flight = KvFlight {
            stripes,
            live,
            attempt: 0,
            started: sh.now,
            aborted_at: SimTime::ZERO,
            retry_pending: false,
            est_s,
        };
        self.flights.insert(id.0, flight);
        Some(n == 0)
    }

    /// Start one flow per stripe on the route of the moment. Returns the
    /// flows and whether every route avoids dead links.
    fn launch(&mut self, sh: &mut Shared, stripes: &[KvStripe], req: u64) -> (Vec<FlowId>, bool) {
        let mut live = Vec::with_capacity(stripes.len());
        let mut all_alive = true;
        for st in stripes {
            let links = sh.route(st.src, st.dst, st.bytes);
            if links.is_empty() {
                continue;
            }
            all_alive &= links.iter().all(|&(l, _)| sh.net.link_scale(l) > 0.0);
            live.push(sh.net.start_flow(sh.now, &links, st.bytes, TAG_KV | req));
        }
        self.stripes += live.len() as u64;
        (live, all_alive)
    }

    /// Queue a request refused at its first admission attempt and count
    /// the deferral; later refusals keep their queue slot uncounted.
    pub(crate) fn defer(&mut self, sh: &Shared, id: RequestId) {
        self.deferrals += 1;
        sh.metrics.inc(sh.obs.kv_deferrals, 1);
        self.pending.push_back(id);
    }

    /// A stripe's flow completed; returns whether the shipment landed.
    pub(crate) fn stripe_done(&mut self, req: u64, id: FlowId) -> bool {
        // Already landed (e.g. a duplicate completion after a same-instant
        // relaunch), superseded by a pending relaunch (a cancelled but
        // drained stripe), or from an older launch generation: ignore.
        let Some(f) = self.flights.get_mut(&req).filter(|f| !f.retry_pending) else {
            return false;
        };
        let Some(pos) = f.live.iter().position(|&fid| fid == id) else {
            return false;
        };
        f.live.swap_remove(pos);
        f.live.is_empty()
    }

    /// Close the books of a landed shipment.
    pub(crate) fn land(&mut self, sh: &Shared, id: RequestId) {
        let Some(f) = self.flights.remove(&id.0) else {
            return;
        };
        let actual = sh.now.saturating_since(f.started).as_secs_f64();
        self.transfer_secs.push(actual);
        self.est_err_secs.push((f.est_s - actual).abs());
        sh.metrics.observe(sh.obs.kv_transfer_s, actual);
        sh.tracer
            .kv_transfer_end(sh.now, id.0, actual, f.est_s, f.attempt);
    }

    /// Stripes `gone` of `req`'s shipment died with a link: cancel the
    /// survivors (a partial shipment is useless) and schedule a resend.
    pub(crate) fn abort(&mut self, sh: &mut Shared, req: u64, gone: &[FlowId]) {
        let Some(f) = self.flights.get_mut(&req) else {
            return;
        };
        f.live.retain(|fid| !gone.contains(fid));
        if f.retry_pending {
            // Another stripe of the same shipment already scheduled the
            // relaunch this instant; one backoff covers them all.
            return;
        }
        f.retry_pending = true;
        f.aborted_at = sh.now;
        for fid in std::mem::take(&mut f.live) {
            // A drained-but-undelivered flow returns None here; its
            // completion still arrives and is ignored (retry_pending).
            sh.net.cancel_flow(sh.now, fid);
        }
        sh.tracer.kv_retry(sh.now, req, f.attempt + 1, gone.len());
        let at = sh.now + retry_delay(f.attempt);
        sh.events.push(at, Ev::RetryKv(req));
    }

    /// Relaunch an aborted shipment: every stripe restarts from the
    /// request's *original* prefill GPUs (the stripe plan is immutable),
    /// with routes re-chosen so the strategy can steer around the fault.
    /// Returns whether the shipment landed (every stripe degenerated).
    pub(crate) fn relaunch(
        &mut self,
        sh: &mut Shared,
        faults: &mut FaultRecovery,
        req: u64,
    ) -> bool {
        let Some(f) = self.flights.get_mut(&req) else {
            return false;
        };
        if !f.retry_pending {
            // Stale retry event (e.g. the shipment already completed via a
            // later relaunch at the same timestamp).
            return false;
        }
        f.attempt += 1;
        f.retry_pending = false;
        let (stripes, aborted_at) = (f.stripes.clone(), f.aborted_at);
        faults.flow_retries += 1;
        self.retries += 1;
        sh.metrics.inc(sh.obs.kv_retries, 1);
        let (live, all_alive) = self.launch(sh, &stripes, req);
        if live.is_empty() {
            return true;
        }
        if all_alive {
            faults.record_reroute(sh, req, aborted_at);
        }
        self.flights
            .get_mut(&req)
            .expect("flight still inflight after relaunch")
            .live = live;
        false
    }

    /// Sample live KV memory utilization across decode instances, with
    /// `mem` the per-GPU memory view and `gpu_bytes` the GPU memory.
    pub(crate) fn sample_memory(&mut self, now: SimTime, mem: &MemoryModel, gpu_bytes: u64) {
        if self.managers.is_empty() {
            return;
        }
        let utils: Vec<f64> = self
            .managers
            .iter()
            .map(|m| mem.utilization(gpu_bytes, m.live()))
            .collect();
        let mean = utils.iter().sum::<f64>() / utils.len() as f64;
        let max = utils.iter().fold(0.0f64, |a, &b| a.max(b));
        self.mem_series.push(MemSample {
            t: now,
            mean_util: mean,
            max_util: max,
        });
    }

    pub(crate) fn report(&mut self, r: &mut SimReport) {
        r.kv_transfers = self.transfers;
        r.kv_stripes = self.stripes;
        r.kv_retries = self.retries;
        r.kv_deferrals = self.deferrals;
        r.kv_bytes = self.bytes as f64;
        r.mean_kv_transfer_s = hs_workload::mean(&self.transfer_secs);
        r.p90_kv_transfer_s = hs_workload::stats::percentile(&self.transfer_secs, 90.0);
        r.mean_kv_est_err_s = hs_workload::mean(&self.est_err_secs);
        r.mem_series = std::mem::take(&mut self.mem_series);
    }
}
