//! # hs-workload — request traces and arrival processes
//!
//! The paper drives its testbed with replayed **ShareGPT** (chatbot) and
//! **LongBench** (summarization) traces, generating arrival times from a
//! Poisson process because the datasets carry no timestamps (§V "Model
//! and workloads setup"). Neither dataset is available here, so this crate
//! generates synthetic traces matching the published length statistics
//! (DESIGN.md "Substitutions"):
//!
//! * [`sharegpt_like`] — short-to-medium prompts, medium generations
//!   (log-normal lengths; mean ≈ 160 input / 210 output tokens, the
//!   moments reported by the DistServe/vLLM line of work);
//! * [`longbench_like`] — long prompts (4–12 k tokens), short
//!   generations — the summarization regime whose huge `K_in` stresses
//!   prefill communication;
//! * [`heavy_tail_like`] — Pareto prompt lengths ([`ParetoSpec`]), the
//!   power-law population where rare giants dominate the token budget;
//! * [`arrival`] — Poisson arrivals, a two-state MMPP for the *bursty*
//!   conditions under which homogeneous INA collapses (§I, §II-C), a
//!   [`Mmpp::flash_crowd`] viral-spike profile, and a [`Diurnal`]
//!   day/night cycle (non-homogeneous Poisson via thinning);
//! * [`trace`] — materialized, arrival-ordered request records;
//! * [`stats`] — means/percentiles used by every experiment report;
//! * [`fault`] — timed fabric-fault schedules ([`FaultPlan`]) replayed
//!   alongside a trace to exercise graceful degradation.
//!
//! Every generator draws exclusively from a caller-supplied seeded
//! `SmallRng` stream, so traces are bit-identical across repeats
//! (`tests/determinism.rs` pins this).
#![warn(missing_docs)]

pub mod arrival;
pub mod fault;
pub mod spec;
pub mod stats;
pub mod trace;

pub use arrival::{ArrivalProcess, Diurnal, Mmpp, Poisson};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use spec::{
    heavy_tail_like, longbench_like, sharegpt_like, LengthModel, LengthSpec, ParetoSpec,
    WorkloadSpec,
};
pub use stats::mean;
pub use trace::{Request, RequestId, Trace};
