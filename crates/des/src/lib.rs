//! # hs-des — deterministic discrete-event simulation engine
//!
//! The HeroServe reproduction runs every experiment on a software simulation
//! of the paper's testbed (GPU servers, NVLink, Ethernet, programmable
//! switches). All simulators in the workspace — the flow-level network
//! simulator (`hs-simnet`), the in-network-aggregation switch model
//! (`hs-switch`) and the serving-cluster simulator (`hs-cluster`) — are
//! driven by the primitives in this crate:
//!
//! * [`SimTime`] / [`SimSpan`] — integer-nanosecond instants and durations.
//!   Integer time makes every run bit-for-bit reproducible; there is no
//!   floating-point drift in event ordering.
//! * [`EventQueue`] — a stable priority queue of `(time, event)` pairs.
//!   Events scheduled for the same instant pop in FIFO order, which removes
//!   the usual source of nondeterminism in heap-based simulators.
//! * [`rng`] — seed-splittable small RNGs so that independent model
//!   components draw from independent, reproducible streams.
//!
//! The engine is deliberately "pull"-friendly: components such as the
//! network simulator expose `next_event_time()` / `advance_to(t)` so a
//! parent simulation can interleave several event sources without shared
//! closures or trait objects crossing crate boundaries.

pub mod queue;
pub mod rng;
pub mod time;

pub use queue::EventQueue;
pub use rng::SeedSplitter;
pub use time::{SimSpan, SimTime};
