//! # hs-bench — the experiment harness
//!
//! One bench target per table/figure of the paper's evaluation (see
//! DESIGN.md's experiment index). Each target:
//!
//! * runs the experiment deterministically (fixed seeds),
//! * prints the same rows/series the paper reports, side by side with the
//!   paper's numbers where the paper states them,
//! * writes machine-readable JSON to `results/<name>.json` at the
//!   workspace root (consumed by EXPERIMENTS.md).
//!
//! Absolute numbers are not expected to match the paper (our substrate is
//! a simulator, DESIGN.md "Fidelity notes"); the *shapes* — who wins, by
//! roughly what factor — are the reproduction target.

pub mod gates;
pub mod report;
pub mod scenario;
pub mod simbench;
pub mod sweep;

pub use report::{emit, peak_rss_mib, print_table, ExpTable};
pub use sweep::{max_rate_under_sla, SweepOutcome};
