//! # hs-cluster — the serving-cluster simulator
//!
//! A discrete-event simulation of a prefill/decode **disaggregated** LLM
//! serving cluster (the architecture of Fig. 4, shared by DistServe,
//! SplitWise and HeroServe):
//!
//! * requests arrive from an [`hs_workload`] trace into a global queue;
//! * **prefill instances** run continuous batching (Orca-style iteration
//!   scheduling): each iteration computes for the fitted Eq. 12 time and
//!   then all-reduces every tensor-parallel stage's activations over the
//!   simulated fabric with the scheme the pluggable [`CommStrategy`]
//!   selects (ring / INA / hierarchical — HeroServe's choice point);
//! * finished prompts are admitted to a **decode instance** (KV-block
//!   accounting per instance), their KV caches stream across the fabric
//!   as real flows (Eq. 14–15's transfer), and decoding proceeds one
//!   token per iteration (Eq. 13 compute + Eq. 7 communication);
//! * per-link monitors feed utilization back to the strategy, switch-slot
//!   admission limits concurrent INA jobs per switch (SwitchML waits,
//!   ATP falls back — §V's baseline semantics), and a metrics collector
//!   produces TTFT/TPOT distributions, SLA attainment and the Fig. 10
//!   memory-utilization time series.
//!
//! [`run_allreduces`] drives tensor-group all-reduces back to back through
//! the same collective path and INA slot ledger, with no requests: the
//! aggregation-throughput load of Fig. 9.
//!
//! Everything the paper's evaluation measures comes out of
//! [`engine::ClusterSim::run`]'s [`metrics::SimReport`].

pub mod autoscale;
pub mod batching;
mod collectives;
pub mod engine;
mod faults;
pub mod instance;
pub mod kvcache;
pub mod kvflow;
mod kvship;
pub mod metrics;
pub mod request;
pub mod strategy;

pub use autoscale::{PoolSnapshot, PoolState, PoolTargets, ScaleController, StaticController};
pub use collectives::{run_allreduces, AllReduceCounts, AllReduceLoad};
pub use engine::{ClusterConfig, ClusterSim, EventCounts};
pub use faults::FabricHealth;
pub use instance::{InstanceKind, InstanceSpec};
pub use kvcache::KvManager;
pub use kvflow::{stripe_plan, KvRoutes, KvStripe};
pub use metrics::{ReqMetrics, SimReport, SLA_ATTAINMENT_TARGET};
pub use request::{ReqPhase, ReqState};
pub use strategy::{
    BusyPolicy, CommCtx, CommStrategy, KvCandidate, KvChoice, KvCtx, StaticStrategy,
};
