//! Planning inputs shared by every deployment: the fitted compute
//! coefficients and the expected batch the planner sizes against.
//!
//! Serving goes through one path for all four systems:
//! `hs_baselines::BaselineKind::HeroServe.deploy` plans with [`plan`]
//! over the hybrid scheme space and serves traces with the online
//! [`HeroScheduler`] driving every collective in `hs-cluster`.
//!
//! [`plan`]: crate::planner::plan
//! [`HeroScheduler`]: crate::scheduler::HeroScheduler

use hs_model::profile::fit;
use hs_model::{BatchStats, CostCoefficients, GpuModel, ModelConfig};
use hs_workload::WorkloadSpec;

/// Default profiling-based coefficient fit for a topology's dominant GPU.
pub fn default_coefficients(model: &ModelConfig) -> CostCoefficients {
    fit(&GpuModel::a100(), model).coefficients
}

/// The batch size `q` the planner sizes every deployment against
/// ([`expected_batch`]). The engine's `BatchPolicy` admits up to 64
/// requests per iteration; ROADMAP's "Check the planner's estimate
/// against the simulator" asks whether 8 explains the gap between the
/// planner's rate estimate and the simulated knee.
pub const PLANNER_BATCH_Q: u32 = 8;

/// Estimated batch statistics from a workload's analytic means (the
/// moving-average state the online side would maintain, §III-B).
pub fn expected_batch(workload: &WorkloadSpec, q: u32) -> BatchStats {
    let l_in = workload.input.analytic_mean().round().max(1.0) as u64;
    let l_out = workload.output.analytic_mean().round().max(1.0) as u64;
    BatchStats::uniform(q, l_in, l_out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_baselines::BaselineKind;
    use hs_des::SimTime;
    use hs_topology::builders::testbed;

    #[test]
    fn opt_66b_coefficients_are_pinned() {
        // The fitted C1…C6 feed every plan and simulation; a change to
        // the profiling grid or the fit moves these bits.
        let c = default_coefficients(&ModelConfig::opt_66b());
        let bits = [c.c1, c.c2, c.c3, c.c4, c.c5, c.c6].map(f64::to_bits);
        let pinned = [
            0x3d0a_9a30_2bc1_97b8,
            0x3d71_b779_e54d_4505,
            0x3f74_bf26_05b7_fd6b,
            0x3d7d_4d30_f00a_c389,
            0x3d72_db02_5e01_7811,
            0x3f57_8dcc_997e_7142,
        ];
        assert_eq!(bits, pinned, "{bits:#018x?}");
    }

    #[test]
    fn plan_and_serve_chatbot() {
        let topo = testbed();
        let workload = hs_workload::sharegpt_like();
        // OPT-66B genuinely needs multi-GPU tensor groups on 32-40 GB
        // GPUs, so the communication path is exercised for real.
        let hs = BaselineKind::HeroServe
            .deploy(&topo, &ModelConfig::opt_66b(), &workload, 0.5)
            .expect("feasible plan");
        assert!(hs.output.est_h_rps > 0.0);
        assert!(hs.output.prefill.p_tens * hs.output.prefill.p_pipe >= 4);
        let report = hs.serve_trace(7, 0.5, SimTime::from_secs(10));
        assert!(report.arrived > 2);
        assert!(report.completed > 0);
        assert_eq!(report.strategy, "HeroServe");
        // Tensor-parallel collectives actually ran.
        assert!(
            report.ina_ops + report.ring_ops > 0,
            "no collectives recorded"
        );
        assert!(report.nvlink_bytes > 0.0, "heterogeneous path unused");
    }

    #[test]
    fn cluster_config_reflects_plan() {
        let topo = testbed();
        let workload = hs_workload::sharegpt_like();
        let hs = BaselineKind::HeroServe
            .deploy(&topo, &ModelConfig::opt_13b(), &workload, 1.0)
            .unwrap();
        let cfg = hs.cluster_config();
        assert_eq!(cfg.prefill.len(), hs.output.prefill.instances.len());
        assert_eq!(cfg.decode.len(), hs.output.decode.instances.len());
        assert_eq!(cfg.ttft_sla_s, 2.5);
        // Testbed min memory = V100 32 GB.
        assert_eq!(cfg.gpu_memory_bytes, 32 * (1 << 30));
    }

    #[test]
    fn expected_batch_uses_workload_means() {
        let b = expected_batch(&hs_workload::sharegpt_like(), PLANNER_BATCH_Q);
        assert_eq!(b.q, 8);
        assert_eq!(b.k_in, 8 * 160);
    }
}
