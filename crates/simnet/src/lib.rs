//! # hs-simnet — flow-level network simulation
//!
//! The paper's phenomena of interest — congestion collapse of in-network
//! aggregation under bursty traffic (§I, §II-C), NVLink offloading, and
//! load balancing across heterogeneous links — are all *flow-level*
//! effects: they depend on how concurrent transfers share link bandwidth,
//! not on per-packet behaviour. This crate therefore simulates the fabric
//! at flow granularity:
//!
//! * every transfer is a [`Flow`] over a fixed link path;
//! * link bandwidth is shared **max-min fairly** among the flows crossing
//!   it (the standard fluid approximation of per-flow fair queueing /
//!   DCTCP-like congestion control), recomputed whenever the flow set
//!   changes ([`fairshare`]);
//! * the simulator exposes a *pull* interface — [`SimNet::next_event_time`]
//!   / [`SimNet::advance_to`] — so the cluster simulator can interleave it
//!   with compute events;
//! * per-link byte counters and utilization estimates ([`monitor`]) play
//!   the role of the switch hardware counters and DCGM NVLink counters the
//!   paper's agents poll (§IV).
//!
//! Rate maintenance is incremental: [`SimNet`] re-solves only the
//! connected component of links/flows a change touches, through one
//! persistent water-filling [`SolverWorkspace`], rates a flow alone on its
//! links in closed form without a solve, resumes the last component solve
//! after a departure instead of redoing it, and finds completions
//! through an indexed min-heap with one entry per queued flow — see
//! `net.rs` and DESIGN.md §9/§12. A from-scratch reference solver, kept
//! with the tests, is the oracle for the equivalence suite.

pub mod fairshare;
pub mod monitor;
pub mod net;
#[cfg(test)]
#[path = "../tests/support/reference.rs"]
mod reference;

pub use fairshare::{FlowSpan, SolverWorkspace};
pub use monitor::LinkMonitor;
pub use net::{DirLink, Flow, FlowId, Route, SimNet, SolveStats};
