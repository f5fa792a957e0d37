//! # hs-collective — all-reduce over heterogeneous fabrics
//!
//! Tensor-parallel LLM inference all-reduces the attention and FFN outputs
//! of every layer (§II-B). This crate implements the communication schemes
//! the paper schedules between (§III-C2, Eqs. 7–11):
//!
//! * **Ring all-reduce** (Eq. 11) — `2(P−1)` steps of `D/P` bytes each,
//!   bottlenecked by the slowest link of the ring.
//! * **In-network aggregation** (Eqs. 8–10) — collect to an INA switch,
//!   aggregate (~1 µs on Tofino, §III-C2), distribute back.
//! * **Hierarchical (heterogeneous) variants** — HeroServe's key move:
//!   reduce within each server over NVLink first, run the inter-server
//!   step only among per-server leaders, then broadcast locally. This is
//!   the Fig. 2(b) path that cuts the 1 MB aggregation from ≈160 µs to
//!   ≈90 µs.
//!
//! Three layers of fidelity, all provided here:
//!
//! * [`latency`] — closed-form estimates the *offline planner* optimizes;
//! * [`plan`] — phase-structured flow plans executed on
//!   [`hs_simnet::SimNet`] by the cluster simulator (so congestion between
//!   concurrent collectives and KV transfers emerges naturally);
//! * [`verify`] — data-level execution (actual `f32` vectors through the
//!   actual switch dataplane) proving all schemes compute the same sum.

pub mod latency;
pub mod plan;
pub mod verify;

pub use latency::{
    hierarchical_ina_latency, hierarchical_ring_latency, ina_latency, nearest_switches,
    ring_latency, AGG_DELAY,
};
pub use plan::{CollectiveExec, PhaseShape, PlanShape, Progress, Scheme};
