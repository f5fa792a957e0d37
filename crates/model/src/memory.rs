//! GPU memory feasibility (drives Algorithm 1's memory filter).
//!
//! Algorithm 1 prunes GPUs whose free memory is below
//! `m_req = R / (P_tens · P_pipe · R_frac)` — the per-GPU weight shard
//! inflated by the reserved-memory ratio. The remaining memory holds the
//! KV cache, which bounds how many concurrent requests a decode instance
//! can hold (Fig. 10's metric).

use crate::config::ModelConfig;

/// Memory accounting for one parallel configuration of a model.
#[derive(Clone, Debug)]
pub struct MemoryModel {
    /// Per-GPU weight shard, bytes.
    pub weight_shard_bytes: u64,
    /// KV-cache bytes per token *per GPU* under this sharding.
    pub kv_bytes_per_token: u64,
    /// Activation scratch reserve per GPU, bytes.
    pub activation_reserve_bytes: u64,
}

impl MemoryModel {
    /// Build for `model` sharded over `p_tens × p_pipe` GPUs.
    ///
    /// Tensor parallelism splits each layer's weights and KV heads;
    /// pipeline parallelism splits layers. Both therefore divide the
    /// per-GPU weight shard and KV footprint.
    pub fn new(model: &ModelConfig, p_tens: u32, p_pipe: u32) -> Self {
        let ways = (p_tens.max(1) as u64) * (p_pipe.max(1) as u64);
        let weight_shard_bytes = model.param_bytes() / ways;
        let kv_bytes_per_token = (model.kv_bytes_per_token() / ways).max(1);
        // Activation scratch: a few token-buffers of h elements; modelled
        // as 512 tokens x h x precision, tensor-sharded.
        let activation_reserve_bytes = model.activation_bytes(512) / p_tens.max(1) as u64;
        MemoryModel {
            weight_shard_bytes,
            kv_bytes_per_token,
            activation_reserve_bytes,
        }
    }

    /// The paper's `m_req = R / (P_tens · P_pipe · R_frac)`: the free
    /// memory a GPU must have to host a shard, with `r_frac ∈ (0, 1]` the
    /// fraction of GPU memory the operator allows the model to use.
    pub fn required_bytes(model: &ModelConfig, p_tens: u32, p_pipe: u32, r_frac: f64) -> u64 {
        assert!(r_frac > 0.0 && r_frac <= 1.0, "R_frac out of range");
        let ways = (p_tens.max(1) as u64) * (p_pipe.max(1) as u64);
        ((model.param_bytes() as f64) / (ways as f64 * r_frac)).ceil() as u64
    }

    /// KV-cache capacity in tokens given `free_bytes` of GPU memory after
    /// weights and activation reserve.
    pub fn kv_token_capacity(&self, gpu_memory_bytes: u64) -> u64 {
        let used = self.weight_shard_bytes + self.activation_reserve_bytes;
        gpu_memory_bytes.saturating_sub(used) / self.kv_bytes_per_token
    }

    /// Fraction of GPU memory consumed when `tokens` of KV cache are live.
    pub fn utilization(&self, gpu_memory_bytes: u64, tokens: u64) -> f64 {
        let used = self.weight_shard_bytes
            + self.activation_reserve_bytes
            + tokens * self.kv_bytes_per_token;
        (used as f64 / gpu_memory_bytes as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_divides_footprint() {
        let m = ModelConfig::opt_66b();
        let whole = MemoryModel::new(&m, 1, 1);
        let sharded = MemoryModel::new(&m, 4, 2);
        assert_eq!(whole.weight_shard_bytes / 8, sharded.weight_shard_bytes);
        assert_eq!(whole.kv_bytes_per_token / 8, sharded.kv_bytes_per_token);
    }

    #[test]
    fn opt_66b_needs_multiple_40g_gpus() {
        let m = ModelConfig::opt_66b();
        // ~132 GB of weights: doesn't fit on one 40 GB A100 even with
        // R_frac=1, fits on 8 with headroom.
        let one = MemoryModel::required_bytes(&m, 1, 1, 1.0);
        assert!(one > 40 * (1 << 30));
        let eight = MemoryModel::required_bytes(&m, 4, 2, 0.9);
        assert!(eight < 40 * (1 << 30));
    }

    #[test]
    fn r_frac_inflates_requirement() {
        let m = ModelConfig::opt_66b();
        let tight = MemoryModel::required_bytes(&m, 4, 2, 1.0);
        let loose = MemoryModel::required_bytes(&m, 4, 2, 0.5);
        assert_eq!(loose, 2 * tight);
    }

    #[test]
    fn kv_capacity_and_utilization() {
        let m = ModelConfig::opt_66b();
        let mm = MemoryModel::new(&m, 8, 1);
        let gpu = 40u64 * (1 << 30);
        let cap = mm.kv_token_capacity(gpu);
        assert!(cap > 10_000, "cap = {cap}");
        // Utilization at zero tokens is just weights+reserve; at capacity
        // it approaches 1.
        let base = mm.utilization(gpu, 0);
        assert!(base > 0.3 && base < 0.6, "base = {base}");
        let full = mm.utilization(gpu, cap);
        assert!(full > 0.95 && full <= 1.0, "full = {full}");
        // Monotone in tokens.
        assert!(mm.utilization(gpu, cap / 2) > base);
    }

    #[test]
    #[should_panic(expected = "R_frac")]
    fn bad_r_frac_panics() {
        let m = ModelConfig::tiny_test();
        MemoryModel::required_bytes(&m, 1, 1, 0.0);
    }
}
