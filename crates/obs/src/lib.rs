//! Structured tracing for the DES clock domain.
//!
//! Every simulator layer (network flows, cluster engine, online scheduler,
//! INA switches) emits typed events through a shared [`Tracer`] handle. The
//! tracer is a thin enum over a no-op sink and a shared in-memory buffer, so
//! it is cheap enough to thread everywhere by default: a disabled tracer is
//! one `Option` discriminant check per call site and allocates nothing.
//!
//! Collected records export two ways:
//! - [`export::chrome_trace`]: Chrome-trace JSON loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>.
//! - [`export::jsonl`]: one compact JSON object per line for ad-hoc grep /
//!   pandas analysis.
//!
//! The stream and the cluster's `SimReport` are the only observability
//! channels; [`MetricsRegistry`] is an inert stub kept for `set_obs`'s
//! signature.

pub mod event;
pub mod export;
pub mod metrics;
pub mod tracer;

pub use event::{track, Ph, Record, Val};
pub use export::{chrome_trace, jsonl};
pub use metrics::MetricsRegistry;
pub use tracer::Tracer;
