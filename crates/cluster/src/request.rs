//! Request lifecycle state.

use crate::metrics::ReqMetrics;
use hs_des::SimTime;
use hs_workload::Request;

/// Where a request is in the prefill→transfer→decode pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqPhase {
    /// Waiting in the global prefill queue.
    Queued,
    /// Inside a prefill batch.
    Prefilling,
    /// Prefill finished; waiting for decode memory.
    AwaitingAdmission,
    /// KV cache streaming to the decode instance.
    TransferringKv,
    /// Generating tokens on a decode instance.
    Decoding,
    /// All output tokens produced.
    Done,
}

/// An instant that may not have come yet, in 8 bytes: `SimTime::MAX`
/// stands for "not yet". No simulated instant reaches `SimTime::MAX`
/// (about 584 years), and [`Moment::at`] checks that in debug builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Moment(SimTime);

impl Moment {
    const NOT_YET: Moment = Moment(SimTime::MAX);

    fn at(t: SimTime) -> Self {
        debug_assert!(
            t != SimTime::MAX,
            "instant collides with the not-yet sentinel"
        );
        Moment(t)
    }

    fn get(self) -> Option<SimTime> {
        (self != Self::NOT_YET).then_some(self.0)
    }
}

/// An instance index that may be unset, in 4 bytes: `u32::MAX` stands
/// for "none".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Slot(u32);

impl Slot {
    const NONE: Slot = Slot(u32::MAX);

    fn of(inst: usize) -> Self {
        let i = u32::try_from(inst).ok().filter(|&i| i != u32::MAX);
        Slot(i.expect("instance index fits below u32::MAX"))
    }

    fn get(self) -> Option<usize> {
        (self != Self::NONE).then_some(self.0 as usize)
    }
}

/// Mutable per-request simulation state: one per trace request, so it is
/// kept to 64 bytes. The lifecycle instants and instance indices are
/// read through accessors that return `Option`s.
#[derive(Clone, Debug)]
pub struct ReqState {
    /// The immutable request record.
    pub req: Request,
    /// Current phase.
    pub phase: ReqPhase,
    /// Output tokens produced so far.
    pub tokens_generated: u32,
    prefill_done: Moment,
    decode_start: Moment,
    finished: Moment,
    decode_instance: Slot,
    prefill_instance: Slot,
}

const _: () = assert!(std::mem::size_of::<ReqState>() <= 64);
// `SimReport::summarize` builds its `ReqMetrics` rows in place over the
// states' allocation, which needs equal size and alignment.
const _: () = assert!(
    std::mem::size_of::<ReqState>() == std::mem::size_of::<ReqMetrics>()
        && std::mem::align_of::<ReqState>() == std::mem::align_of::<ReqMetrics>()
);

impl ReqState {
    /// Fresh state for an arriving request.
    pub fn new(req: Request) -> Self {
        ReqState {
            req,
            phase: ReqPhase::Queued,
            tokens_generated: 0,
            prefill_done: Moment::NOT_YET,
            decode_start: Moment::NOT_YET,
            finished: Moment::NOT_YET,
            decode_instance: Slot::NONE,
            prefill_instance: Slot::NONE,
        }
    }

    /// When prefill completed (TTFT reference point).
    pub fn prefill_done(&self) -> Option<SimTime> {
        self.prefill_done.get()
    }

    /// When decoding began (after KV transfer).
    pub fn decode_start(&self) -> Option<SimTime> {
        self.decode_start.get()
    }

    /// When the last output token was produced.
    pub fn finished(&self) -> Option<SimTime> {
        self.finished.get()
    }

    /// Decode instance index, once admitted.
    pub fn decode_instance(&self) -> Option<usize> {
        self.decode_instance.get()
    }

    /// Instance that ran (or is running) this request's prefill. Recorded
    /// when the prefill batch completes so a deferred admission retried
    /// later still ships its KV cache from the GPUs that actually hold it.
    pub fn prefill_instance(&self) -> Option<usize> {
        self.prefill_instance.get()
    }

    /// Prefill ended at `at` on instance `inst`.
    pub(crate) fn set_prefill_done(&mut self, at: SimTime, inst: usize) {
        self.prefill_done = Moment::at(at);
        self.prefill_instance = Slot::of(inst);
    }

    /// Admitted to decode instance `inst`.
    pub(crate) fn set_decode_instance(&mut self, inst: usize) {
        self.decode_instance = Slot::of(inst);
    }

    /// Decoding began at `at`.
    pub(crate) fn set_decode_start(&mut self, at: SimTime) {
        self.decode_start = Moment::at(at);
    }

    /// The last output token was produced at `at`.
    pub(crate) fn set_finished(&mut self, at: SimTime) {
        self.finished = Moment::at(at);
    }

    /// End-to-end time-to-first-token: arrival → decode start. Unlike
    /// [`ttft_secs`](Self::ttft_secs) this *includes* the admission wait
    /// and the KV-cache transfer, so it is the metric that moves when KV
    /// traffic congests the prefill→decode fabric.
    pub fn ttft_e2e_secs(&self) -> Option<f64> {
        self.decode_start()
            .map(|t| t.saturating_since(self.req.arrival).as_secs_f64())
    }

    /// Time-to-first-token: arrival → prefill completion (the
    /// disaggregated-architecture convention the paper uses).
    pub fn ttft_secs(&self) -> Option<f64> {
        self.prefill_done()
            .map(|t| t.saturating_since(self.req.arrival).as_secs_f64())
    }

    /// Time-per-output-token: the span from prefill completion (first
    /// token) to the last token, over produced tokens. This *includes*
    /// the amortized KV-cache transfer delay, matching Eq. 4's
    /// `T_dec = T_n + T_c + T_f` accounting (T_f amortized per token).
    pub fn tpot_secs(&self) -> Option<f64> {
        let start = self.prefill_done().or(self.decode_start())?;
        match self.finished() {
            Some(f) if self.tokens_generated > 0 => {
                Some(f.saturating_since(start).as_secs_f64() / self.tokens_generated as f64)
            }
            _ => None,
        }
    }

    /// Tokens the request reserves at admission (worst case footprint).
    pub fn reserved_kv_tokens(&self) -> u64 {
        self.req.input_tokens as u64 + self.req.output_tokens as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_workload::RequestId;

    fn req() -> Request {
        Request {
            id: RequestId(0),
            arrival: SimTime::from_secs(10),
            input_tokens: 100,
            output_tokens: 20,
        }
    }

    #[test]
    fn lifecycle_metrics() {
        let mut s = ReqState::new(req());
        assert_eq!(s.phase, ReqPhase::Queued);
        assert_eq!(s.ttft_secs(), None);
        s.set_prefill_done(SimTime::from_secs(12), 3);
        assert_eq!(s.ttft_secs(), Some(2.0));
        assert_eq!(s.prefill_instance(), Some(3));
        assert_eq!(s.ttft_e2e_secs(), None);
        s.set_decode_start(SimTime::from_secs(13));
        // e2e TTFT folds in the admission wait + KV transfer second.
        assert_eq!(s.ttft_e2e_secs(), Some(3.0));
        s.set_finished(SimTime::from_secs(15));
        s.tokens_generated = 20;
        // TPOT counts from prefill completion (12 s): 3 s / 20 tokens,
        // folding the 1 s of KV transfer into the per-token figure.
        assert!((s.tpot_secs().unwrap() - 0.15).abs() < 1e-12);
        // The admission reservation is the worst case: input plus output.
        assert_eq!(s.reserved_kv_tokens(), 120);
    }

    #[test]
    fn tpot_requires_tokens() {
        let mut s = ReqState::new(req());
        s.set_decode_start(SimTime::from_secs(1));
        s.set_finished(SimTime::from_secs(2));
        s.tokens_generated = 0;
        assert_eq!(s.tpot_secs(), None);
    }

    #[test]
    fn optional_fields_round_trip() {
        let mut s = ReqState::new(req());
        assert_eq!(
            (s.prefill_done(), s.decode_start(), s.finished()),
            (None, None, None)
        );
        assert_eq!((s.prefill_instance(), s.decode_instance()), (None, None));
        for t in [
            SimTime::ZERO,
            SimTime::from_secs(7),
            SimTime::from_nanos(u64::MAX - 1),
        ] {
            s.set_prefill_done(t, 0);
            s.set_decode_start(t);
            s.set_finished(t);
            assert_eq!(
                (s.prefill_done(), s.decode_start(), s.finished()),
                (Some(t), Some(t), Some(t))
            );
        }
        for inst in [0, 1, u32::MAX as usize - 1] {
            s.set_prefill_done(SimTime::ZERO, inst);
            s.set_decode_instance(inst);
            assert_eq!(
                (s.prefill_instance(), s.decode_instance()),
                (Some(inst), Some(inst))
            );
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not-yet sentinel")]
    fn sentinel_instant_is_rejected() {
        ReqState::new(req()).set_decode_start(SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "below u32::MAX")]
    fn sentinel_instance_is_rejected() {
        ReqState::new(req()).set_decode_instance(u32::MAX as usize);
    }
}
