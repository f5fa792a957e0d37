//! Materialized request traces: the time-ordered requests a seeded
//! arrival process and a [`WorkloadSpec`] generate, with ids `0..n` in
//! arrival order because the cluster engine indexes requests
//! positionally.

use crate::arrival::ArrivalProcess;
use crate::spec::WorkloadSpec;
use hs_des::SimTime;
use rand::rngs::SmallRng;

/// Request identifier, unique within one trace.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RequestId(pub u64);

/// One inference request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Identifier.
    pub id: RequestId,
    /// Arrival instant.
    pub arrival: SimTime,
    /// Prompt length, tokens.
    pub input_tokens: u32,
    /// Generation length, tokens.
    pub output_tokens: u32,
}

/// A time-ordered request trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Requests, sorted by arrival.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Generate a trace: arrivals from `arrivals` until `horizon`,
    /// lengths from `spec`.
    pub fn generate<A: ArrivalProcess>(
        spec: &WorkloadSpec,
        arrivals: &mut A,
        rng: &mut SmallRng,
        horizon: SimTime,
    ) -> Self {
        let times = arrivals.arrivals_until(rng, horizon);
        let requests = times
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let (input_tokens, output_tokens) = spec.sample(rng);
                Request {
                    id: RequestId(i as u64),
                    arrival: t,
                    input_tokens,
                    output_tokens,
                }
            })
            .collect();
        Trace { requests }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The empirical arrival rate over the trace span, req/s.
    pub fn empirical_rate(&self) -> f64 {
        match (self.requests.first(), self.requests.last()) {
            (Some(a), Some(b)) if b.arrival > a.arrival => {
                (self.len() as f64 - 1.0) / (b.arrival - a.arrival).as_secs_f64()
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrival::Poisson;
    use crate::spec::{fixed, sharegpt_like};
    use hs_des::SeedSplitter;

    #[test]
    fn generate_is_sorted_and_rated() {
        let mut rng = SeedSplitter::new(9).stream("trace");
        let mut arr = Poisson::new(20.0);
        let t = Trace::generate(
            &sharegpt_like(),
            &mut arr,
            &mut rng,
            SimTime::from_secs(100),
        );
        assert!(t.len() > 1500 && t.len() < 2500, "len = {}", t.len());
        for w in t.requests.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
            assert!(w[0].id < w[1].id);
        }
        assert!((t.empirical_rate() / 20.0 - 1.0).abs() < 0.1);
    }

    #[test]
    fn fixed_spec_trace_lengths() {
        let mut rng = SeedSplitter::new(9).stream("trace");
        let mut arr = Poisson::new(5.0);
        let t = Trace::generate(&fixed(128, 32), &mut arr, &mut rng, SimTime::from_secs(10));
        for r in &t.requests {
            assert_eq!(r.input_tokens, 128);
            assert_eq!(r.output_tokens, 32);
        }
    }

    /// `fixed(256, 16)` yields the requests of a spec that takes the
    /// general log-normal path to the same lengths, and leaves the
    /// stream at the same position.
    #[test]
    fn fixed_lengths_keep_the_general_paths_stream() {
        use crate::spec::{LengthSpec, WorkloadSpec};
        use rand::RngCore;
        let around = |len: u32| LengthSpec {
            mu: (len as f64).ln(),
            sigma: 0.0,
            min: len - 1,
            max: len + 1,
        };
        let general = WorkloadSpec {
            input: around(256).into(),
            output: around(16).into(),
            ..fixed(256, 16)
        };
        let run = |spec: &WorkloadSpec| {
            let mut rng = SeedSplitter::new(9).stream("trace");
            let mut arr = Poisson::new(50.0);
            let t = Trace::generate(spec, &mut arr, &mut rng, SimTime::from_secs(10));
            (t.requests, rng.next_u64())
        };
        let (fast, general) = (run(&fixed(256, 16)), run(&general));
        let (requests, _) = &fast;
        assert!(requests.len() > 400, "{} requests", requests.len());
        for r in requests {
            assert_eq!((r.input_tokens, r.output_tokens), (256, 16));
        }
        assert_eq!(fast, general);
    }

    #[test]
    fn same_seed_same_trace() {
        let make = || {
            let mut rng = SeedSplitter::new(7).stream("trace");
            let mut arr = Poisson::new(5.0);
            Trace::generate(&sharegpt_like(), &mut arr, &mut rng, SimTime::from_secs(20))
        };
        let a = make();
        let b = make();
        assert_eq!(a.requests, b.requests);
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.empirical_rate(), 0.0);
    }
}
