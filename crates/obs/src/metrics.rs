//! An inert `MetricsRegistry`, kept only so that callers of
//! `ClusterSim::set_obs` compile. Counts, latencies and link utilization
//! are read from the [`crate::Tracer`] stream or the cluster's
//! `SimReport`.

/// A registry that records nothing.
pub struct MetricsRegistry;

impl MetricsRegistry {
    /// The only registry there is: it drops everything.
    pub fn disabled() -> Self {
        MetricsRegistry
    }
}
