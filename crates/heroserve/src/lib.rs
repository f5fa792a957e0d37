//! # HeroServe — hybrid communication scheduling for LLM serving
//!
//! A from-scratch Rust reproduction of *"Scalable and Fast Inference
//! Serving via Hybrid Communication Scheduling on Heterogeneous Networks"*
//! (Chen et al., IEEE CLUSTER 2025). HeroServe accelerates prefill/decode
//! disaggregated LLM serving by exploiting **heterogeneous** networks —
//! intra-server NVLink plus inter-server Ethernet with programmable
//! switches — instead of pushing every all-reduce over homogeneous
//! Ethernet.
//!
//! The two contributions, both implemented here:
//!
//! * [`planner`] — the **scalability-oriented offline planner**
//!   (Algorithm 1): jointly picks tensor/pipeline parallelism, GPU
//!   placement, per-group aggregation switch, and per-group communication
//!   scheme (INA `α` vs ring `β`, Eq. 7), maximizing served requests per
//!   second under TTFT/TPOT SLAs. Its network-estimation core
//!   ([`netest`], Algorithm 2) precomputes all-pairs shortest paths,
//!   groups GPUs with constrained k-means, and refines with random-swap
//!   perturbation.
//! * [`scheduler`] — the **load-aware online scheduler** (§III-D):
//!   per-group policy cost tables over candidate (scheme, path) policies,
//!   selection by `c* = argmin J(c, D)` (Eq. 16), virtual-utilization
//!   updates with the shared-link load-penalty function (Eqs. 17–18), and
//!   periodic synchronization against monitored link utilization (the
//!   central controller's role).
//!
//! [`system`] holds the planning inputs every deployment shares; plans
//! are served through `hs_baselines::BaselineKind::HeroServe.deploy`,
//! which runs the online scheduler in the [`hs_cluster`] simulator. The
//! [`queueing`] module supplies the Pollaczek–Khinchine waiting-time
//! estimate of §III-C1.
//!
//! ## Quickstart
//!
//! ```
//! use heroserve::prelude::*;
//! use heroserve::system::{default_coefficients, expected_batch};
//!
//! // The paper's testbed: 4 GPU servers, 2 Tofino switches.
//! let topo = hs_topology::builders::testbed();
//! let workload = hs_workload::sharegpt_like();
//! let model = hs_model::ModelConfig::opt_13b();
//! let input = PlannerInput::basic(
//!     &topo.graph,
//!     model.clone(),
//!     default_coefficients(&model),
//!     expected_batch(&workload, 8),
//!     4.0,
//!     workload.ttft_sla_s,
//!     workload.tpot_sla_s,
//! );
//! let out = plan(&input, SchemeSpace::Hybrid).expect("feasible deployment");
//! assert!(out.est_h_rps > 0.0);
//! // To serve traces with this plan, deploy it with
//! // `hs_baselines::BaselineKind::HeroServe.deploy(&topo, &model, &workload, 4.0)`.
//! ```

pub mod autoscaler;
pub mod netest;
pub mod planner;
pub mod policy;
pub mod queueing;
pub mod scheduler;
pub mod spec;
pub mod system;

pub use autoscaler::{AutoscaleConfig, Autoscaler};
pub use planner::{plan, PlannerError, PlannerOutput, SchemeSpace, SolveStats};
pub use policy::KvSelectParams;
pub use scheduler::{HeroScheduler, KvSelection, SchedulerParams};
pub use spec::{ClusterPlan, GroupScheme, PlannerInput};

/// Convenient glob imports for examples and benches.
pub mod prelude {
    pub use crate::planner::{plan, PlannerOutput, SchemeSpace};
    pub use crate::scheduler::{HeroScheduler, KvSelection, SchedulerParams};
    pub use crate::spec::PlannerInput;
}
