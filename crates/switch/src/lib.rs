//! # hs-switch — programmable-switch in-network aggregation model
//!
//! A software model of the Tofino INA dataplane the paper implements in
//! ~400 lines of P4 (§IV "Agent on Programmable Switches"), plus its
//! control plane:
//!
//! * [`fixpoint`] — switch ALUs have no floating point; gradients and
//!   activations are scaled into fixed-point `i32` before aggregation and
//!   rescaled on egress, with saturation (exactly what SwitchML does).
//! * [`aggregator`] — the aggregation memory: a pool of fixed-size
//!   aggregator slots spread across pipelines, each holding a partially
//!   aggregated vector and a contribution counter/bitmap.
//! * [`table`] — the exact-match `aggregation_table` mapping incoming INA
//!   packets (job, sequence window) to slots.
//! * [`dataplane`] — packet processing for the two INA disciplines the
//!   paper compares: **SwitchML-style synchronous** streaming (static slot
//!   window per job, lock-step rounds) and **ATP-style asynchronous**
//!   best-effort (dynamic slot allocation, fallback to end-host
//!   aggregation when the pool is exhausted).
//!
//! The aggregation arithmetic is executed for real: `hs-collective`'s
//! `verify` module all-reduces actual vectors through the model and
//! checks the sums. The flow-level cluster simulation does not use this
//! crate; `hs-cluster` keeps its own per-switch ledger of concurrent INA
//! sessions and makes a collective wait or fall back when it is full.

pub mod aggregator;
pub mod dataplane;
pub mod fixpoint;
pub mod table;

pub use aggregator::{SlotPool, SlotPoolStats};
pub use dataplane::{
    AggMode, DataplaneAction, InaDataplane, InaPacket, JobConfig, JobId, WorkerId,
};
pub use fixpoint::FixPoint;
pub use table::AggregationTable;
