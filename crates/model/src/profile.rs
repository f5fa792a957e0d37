//! Profiling + interpolation: fitting `C1…C6` (§III-C2).
//!
//! "Similar to the existing works, we use a profiling and interpolation
//! approach to figure out the values of C1 to C6." The profile source here
//! is the roofline [`GpuModel`]; the fit is ordinary least squares over a
//! grid of batch shapes and parallelism degrees. The returned
//! [`FittedModel`] reports R² so experiments can assert the linear forms
//! actually explain the profiled latencies.

use crate::compute::{decode_features, prefill_features, CostCoefficients};
use crate::config::{BatchStats, ModelConfig};
use crate::fit::{least_squares, r_squared};
use crate::gpu::GpuModel;

/// A fitted cost model with goodness-of-fit diagnostics.
#[derive(Clone, Debug)]
pub struct FittedModel {
    /// The fitted coefficients (Eqs. 12–13).
    pub coefficients: CostCoefficients,
    /// R² of the prefill fit.
    pub prefill_r2: f64,
    /// R² of the decode fit.
    pub decode_r2: f64,
    /// Number of profile points used per phase.
    pub samples: usize,
}

/// Profiled batch sizes `Q`.
pub const PROFILE_BATCH_SIZES: [u32; 5] = [1, 2, 4, 8, 16];
/// Profiled input lengths `K_in`, tokens.
pub const PROFILE_INPUT_LENS: [u64; 6] = [64, 128, 256, 512, 1024, 2048];
/// Profiled tensor-parallel degrees.
pub const PROFILE_TP: [u32; 4] = [1, 2, 4, 8];
/// Profiled pipeline-parallel degrees (decode only).
pub const PROFILE_PP: [u32; 3] = [1, 2, 4];

/// Fit `C1, C2, C3` against roofline prefill profiles.
pub fn fit_prefill_coefficients(
    gpu: &GpuModel,
    model: &ModelConfig,
    block: f64,
) -> (f64, f64, f64, f64) {
    let mut rows = Vec::new();
    let mut ys = Vec::new();
    for q in PROFILE_BATCH_SIZES {
        for l in PROFILE_INPUT_LENS {
            for tp in PROFILE_TP {
                let batch = BatchStats::uniform(q, l, 64);
                let [gemm, attn] = prefill_features(model, &batch, tp, block);
                rows.push(vec![gemm, attn, 1.0]);
                ys.push(gpu.prefill_compute(model, &batch, tp));
            }
        }
    }
    let beta = least_squares(&rows, &ys).expect("prefill fit is well-posed");
    let preds: Vec<f64> = rows
        .iter()
        .map(|r| beta[0] * r[0] + beta[1] * r[1] + beta[2])
        .collect();
    (beta[0], beta[1], beta[2].max(0.0), r_squared(&preds, &ys))
}

/// Fit `C4, C5, C6` against roofline decode profiles.
pub fn fit_decode_coefficients(gpu: &GpuModel, model: &ModelConfig) -> (f64, f64, f64, f64) {
    let mut rows = Vec::new();
    let mut ys = Vec::new();
    for q in PROFILE_BATCH_SIZES {
        for l in PROFILE_INPUT_LENS {
            for tp in PROFILE_TP {
                for pp in PROFILE_PP {
                    let batch = BatchStats::uniform(q, l, 64);
                    let [gemm, kv] = decode_features(model, &batch, tp, pp);
                    rows.push(vec![gemm, kv, 1.0]);
                    ys.push(gpu.decode_compute(model, &batch, tp, pp));
                }
            }
        }
    }
    let beta = least_squares(&rows, &ys).expect("decode fit is well-posed");
    let preds: Vec<f64> = rows
        .iter()
        .map(|r| beta[0] * r[0] + beta[1] * r[1] + beta[2])
        .collect();
    (beta[0], beta[1], beta[2].max(0.0), r_squared(&preds, &ys))
}

/// Run the full profiling pipeline for `(gpu, model)` over the
/// `PROFILE_*` grid.
pub fn fit(gpu: &GpuModel, model: &ModelConfig) -> FittedModel {
    let block = 128.0;
    let (c1, c2, c3, pre_r2) = fit_prefill_coefficients(gpu, model, block);
    let (c4, c5, c6, dec_r2) = fit_decode_coefficients(gpu, model);
    let samples = PROFILE_BATCH_SIZES.len() * PROFILE_INPUT_LENS.len() * PROFILE_TP.len();
    FittedModel {
        coefficients: CostCoefficients {
            c1,
            c2,
            c3,
            c4,
            c5,
            c6,
            block,
        },
        prefill_r2: pre_r2,
        decode_r2: dec_r2,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute::{decode_latency_secs, prefill_latency_secs};

    #[test]
    fn prefill_fit_explains_roofline() {
        let gpu = GpuModel::a100();
        let model = ModelConfig::opt_66b();
        let fitted = fit(&gpu, &model);
        assert!(
            fitted.prefill_r2 > 0.98,
            "prefill R² = {}",
            fitted.prefill_r2
        );
        assert!(fitted.decode_r2 > 0.90, "decode R² = {}", fitted.decode_r2);
        // Positive dominant terms.
        assert!(fitted.coefficients.c1 > 0.0);
        assert!(fitted.coefficients.c4 > 0.0);
    }

    #[test]
    fn fitted_model_interpolates_unseen_points() {
        let gpu = GpuModel::a100();
        let model = ModelConfig::opt_66b();
        let fitted = fit(&gpu, &model);
        // A point not on the grid: q=6, len=768, tp=4.
        let batch = BatchStats::uniform(6, 768, 64);
        let pred = prefill_latency_secs(&fitted.coefficients, &model, &batch, 4);
        let truth = gpu.prefill_compute(&model, &batch, 4);
        assert!(
            (pred - truth).abs() / truth < 0.15,
            "pred {pred} vs truth {truth}"
        );
        let pred_d = decode_latency_secs(&fitted.coefficients, &model, &batch, 4, 2);
        let truth_d = gpu.decode_compute(&model, &batch, 4, 2);
        assert!(
            (pred_d - truth_d).abs() / truth_d < 0.35,
            "decode pred {pred_d} vs truth {truth_d}"
        );
    }

    #[test]
    fn fits_differ_across_gpus() {
        let model = ModelConfig::opt_66b();
        let a = fit(&GpuModel::a100(), &model);
        let v = fit(&GpuModel::v100(), &model);
        // V100 is slower: larger linear coefficient.
        assert!(v.coefficients.c1 > a.coefficients.c1);
    }
}
