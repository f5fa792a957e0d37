//! Materialized request traces, with CSV/JSONL export and replay.
//!
//! Production traces arrive as flat files; [`Trace::from_csv`] and
//! [`Trace::from_jsonl`] turn them into the same [`Trace`] the
//! synthetic generators produce, so recorded traffic replays through
//! the identical engine path. Timestamps round-trip losslessly: the
//! writers emit integer nanoseconds (`arrival_ns`), and the parsers
//! also accept fractional seconds (`arrival_s`) for hand-written or
//! foreign traces. Parsed requests are sorted by arrival and renumbered
//! `0..n` because the cluster engine indexes requests positionally.

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

    /// Serialize to CSV with header `arrival_ns,input_tokens,output_tokens`.
    ///
    /// Arrival instants are written as integer nanoseconds so
    /// [`Trace::from_csv`] reproduces the trace bit-for-bit.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 * self.len() + 40);
        out.push_str("arrival_ns,input_tokens,output_tokens\n");
        for r in &self.requests {
            out.push_str(&format!(
                "{},{},{}\n",
                r.arrival.as_nanos(),
                r.input_tokens,
                r.output_tokens
            ));
        }
        out
    }

    /// Parse a CSV trace. The header row names the columns; `arrival_ns`
    /// (integer nanoseconds) or `arrival_s` (fractional seconds) plus
    /// `input_tokens` and `output_tokens` are required, any other
    /// columns are ignored. Rows are sorted by arrival and renumbered
    /// positionally (the engine indexes requests by id).
    pub fn from_csv(text: &str) -> Result<Trace, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next().ok_or("empty CSV trace")?;
        let cols: Vec<&str> = header.split(',').map(str::trim).collect();
        let find = |name: &str| cols.iter().position(|c| *c == name);
        let arrival_ns = find("arrival_ns");
        let arrival_s = find("arrival_s");
        if arrival_ns.is_none() && arrival_s.is_none() {
            return Err("CSV trace needs an arrival_ns or arrival_s column".into());
        }
        let in_col = find("input_tokens").ok_or("CSV trace needs input_tokens")?;
        let out_col = find("output_tokens").ok_or("CSV trace needs output_tokens")?;
        let mut requests = Vec::new();
        for (lineno, line) in lines.enumerate() {
            let fields: Vec<&str> = line.split(',').map(str::trim).collect();
            let get = |col: usize| -> Result<&str, String> {
                fields
                    .get(col)
                    .copied()
                    .ok_or_else(|| format!("row {}: missing column {col}", lineno + 2))
            };
            let arrival = if let Some(c) = arrival_ns {
                let ns: u64 = get(c)?
                    .parse()
                    .map_err(|e| format!("row {}: bad arrival_ns: {e}", lineno + 2))?;
                SimTime::from_nanos(ns)
            } else {
                let s: f64 = get(arrival_s.expect("checked above"))?
                    .parse()
                    .map_err(|e| format!("row {}: bad arrival_s: {e}", lineno + 2))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "row {}: arrival_s must be finite and >= 0",
                        lineno + 2
                    ));
                }
                SimTime::from_secs_f64(s)
            };
            let input_tokens: u32 = get(in_col)?
                .parse()
                .map_err(|e| format!("row {}: bad input_tokens: {e}", lineno + 2))?;
            let output_tokens: u32 = get(out_col)?
                .parse()
                .map_err(|e| format!("row {}: bad output_tokens: {e}", lineno + 2))?;
            requests.push(Request {
                id: RequestId(0), // renumbered below
                arrival,
                input_tokens,
                output_tokens,
            });
        }
        Ok(Trace::from_unsorted(requests))
    }

    /// Serialize to JSONL: one object per line with keys `arrival_ns`,
    /// `input_tokens`, `output_tokens`. Round-trips bit-for-bit through
    /// [`Trace::from_jsonl`].
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 * self.len());
        for r in &self.requests {
            out.push_str(&format!(
                "{{\"arrival_ns\":{},\"input_tokens\":{},\"output_tokens\":{}}}\n",
                r.arrival.as_nanos(),
                r.input_tokens,
                r.output_tokens
            ));
        }
        out
    }

    /// Parse a JSONL trace: one object per non-empty line, with
    /// `arrival_ns` (integer) or `arrival_s` (number) plus
    /// `input_tokens`/`output_tokens`. Extra keys are ignored; rows are
    /// sorted by arrival and renumbered positionally.
    pub fn from_jsonl(text: &str) -> Result<Trace, String> {
        let mut requests = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = serde_json::from_str(line)
                .map_err(|e| format!("line {}: bad JSON: {e}", lineno + 1))?;
            let arrival = if let Some(ns) = v.get("arrival_ns").and_then(|x| x.as_u64()) {
                SimTime::from_nanos(ns)
            } else if let Some(s) = v.get("arrival_s").and_then(|x| x.as_f64()) {
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!(
                        "line {}: arrival_s must be finite and >= 0",
                        lineno + 1
                    ));
                }
                SimTime::from_secs_f64(s)
            } else {
                return Err(format!(
                    "line {}: needs arrival_ns or arrival_s",
                    lineno + 1
                ));
            };
            let input_tokens = v
                .get("input_tokens")
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("line {}: needs integer input_tokens", lineno + 1))?;
            let output_tokens = v
                .get("output_tokens")
                .and_then(|x| x.as_u64())
                .ok_or_else(|| format!("line {}: needs integer output_tokens", lineno + 1))?;
            requests.push(Request {
                id: RequestId(0), // renumbered below
                arrival,
                input_tokens: u32::try_from(input_tokens)
                    .map_err(|_| format!("line {}: input_tokens too large", lineno + 1))?,
                output_tokens: u32::try_from(output_tokens)
                    .map_err(|_| format!("line {}: output_tokens too large", lineno + 1))?,
            });
        }
        Ok(Trace::from_unsorted(requests))
    }

    /// Build a trace from possibly-unsorted requests: sorts by arrival
    /// (stable, so equal-time rows keep file order) and renumbers ids
    /// positionally `0..n` — the engine requires positional ids.
    pub fn from_unsorted(mut requests: Vec<Request>) -> Trace {
        requests.sort_by_key(|r| r.arrival);
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = RequestId(i as u64);
        }
        Trace { requests }
    }

    /// Scale every arrival time by `factor` (rate ×1/factor) — used for
    /// rate sweeps over a fixed length sample, as the paper's per-GPU
    /// rate sweeps do.
    pub fn with_time_scale(&self, factor: f64) -> Trace {
        assert!(factor > 0.0);
        Trace {
            requests: self
                .requests
                .iter()
                .map(|r| Request {
                    arrival: r.arrival.mul_f64(factor),
                    ..*r
                })
                .collect(),
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

    #[test]
    fn time_scale_changes_rate() {
        let mut rng = SeedSplitter::new(9).stream("trace");
        let mut arr = Poisson::new(10.0);
        let t = Trace::generate(&fixed(8, 8), &mut arr, &mut rng, SimTime::from_secs(50));
        let slow = t.with_time_scale(2.0);
        assert!((slow.empirical_rate() - t.empirical_rate() / 2.0).abs() < 0.2);
        assert_eq!(slow.len(), t.len());
    }

    #[test]
    fn time_scale_is_exact_in_the_nanos_domain() {
        // Scaling stays in integer nanoseconds: an odd arrival doubled
        // is exactly doubled, and a representable ×1.5 rounds exactly
        // once. The old f64-seconds round-trip drifted by 1 ns on
        // arrivals like these, which breaks bit-identical replays of
        // rate-swept traces.
        let t = Trace {
            requests: vec![Request {
                id: RequestId(0),
                arrival: SimTime::from_nanos(1_000_000_013),
                input_tokens: 8,
                output_tokens: 8,
            }],
        };
        assert_eq!(
            t.with_time_scale(2.0).requests[0].arrival.as_nanos(),
            2_000_000_026
        );
        assert_eq!(
            t.with_time_scale(1.5).requests[0].arrival.as_nanos(),
            1_500_000_020
        );
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

    fn sample_trace() -> Trace {
        let mut rng = SeedSplitter::new(31).stream("trace");
        let mut arr = Poisson::new(40.0);
        Trace::generate(&sharegpt_like(), &mut arr, &mut rng, SimTime::from_secs(5))
    }

    #[test]
    fn csv_roundtrip_is_bit_exact() {
        let t = sample_trace();
        let back = Trace::from_csv(&t.to_csv()).expect("parse own CSV");
        assert_eq!(t.requests, back.requests);
    }

    #[test]
    fn jsonl_roundtrip_is_bit_exact() {
        let t = sample_trace();
        let back = Trace::from_jsonl(&t.to_jsonl()).expect("parse own JSONL");
        assert_eq!(t.requests, back.requests);
    }

    #[test]
    fn csv_accepts_arrival_seconds_and_extra_columns() {
        let csv = "user,arrival_s,input_tokens,output_tokens\n\
                   a,1.5,100,10\n\
                   b,0.25,200,20\n";
        let t = Trace::from_csv(csv).expect("parse");
        // Sorted by arrival and renumbered positionally.
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests[0].id, RequestId(0));
        assert_eq!(t.requests[0].arrival, SimTime::from_millis(250));
        assert_eq!(t.requests[0].input_tokens, 200);
        assert_eq!(t.requests[1].arrival, SimTime::from_millis(1500));
        assert_eq!(t.requests[1].id, RequestId(1));
    }

    #[test]
    fn jsonl_accepts_arrival_seconds() {
        let jl =
            "{\"arrival_s\": 2.0, \"input_tokens\": 64, \"output_tokens\": 8, \"extra\": true}\n\
                  \n\
                  {\"arrival_ns\": 500000000, \"input_tokens\": 32, \"output_tokens\": 4}\n";
        let t = Trace::from_jsonl(jl).expect("parse");
        assert_eq!(t.len(), 2);
        assert_eq!(t.requests[0].arrival, SimTime::from_millis(500));
        assert_eq!(t.requests[0].input_tokens, 32);
        assert_eq!(t.requests[1].arrival, SimTime::from_secs(2));
    }

    #[test]
    fn malformed_traces_are_rejected_with_row_numbers() {
        assert!(Trace::from_csv("").is_err());
        assert!(Trace::from_csv("input_tokens,output_tokens\n1,2\n").is_err());
        let err =
            Trace::from_csv("arrival_ns,input_tokens,output_tokens\n5,x,2\n").expect_err("bad int");
        assert!(err.contains("row 2"), "err = {err}");
        let err = Trace::from_jsonl("{\"arrival_ns\": 1}\n").expect_err("missing tokens");
        assert!(err.contains("line 1"), "err = {err}");
        assert!(Trace::from_jsonl("not json\n").is_err());
    }

    #[test]
    fn from_unsorted_is_stable_for_ties() {
        let reqs = vec![
            Request {
                id: RequestId(99),
                arrival: SimTime::from_secs(1),
                input_tokens: 1,
                output_tokens: 1,
            },
            Request {
                id: RequestId(98),
                arrival: SimTime::from_secs(1),
                input_tokens: 2,
                output_tokens: 2,
            },
        ];
        let t = Trace::from_unsorted(reqs);
        // Equal arrivals keep input order; ids are positional.
        assert_eq!(t.requests[0].input_tokens, 1);
        assert_eq!(t.requests[0].id, RequestId(0));
        assert_eq!(t.requests[1].id, RequestId(1));
    }
}
