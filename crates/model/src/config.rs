//! Transformer model shapes and batch statistics (Table I inputs).

/// Numeric precision of weights/activations on the wire and in memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// 16-bit floats (the paper's setting for all experiments).
    Fp16,
    /// 32-bit floats (used by some baselines' communication path).
    Fp32,
}

impl Precision {
    /// Bytes per element.
    pub fn bytes(self) -> u64 {
        match self {
            Precision::Fp16 => 2,
            Precision::Fp32 => 4,
        }
    }
}

/// A decoder-only transformer's shape parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct ModelConfig {
    /// Human-readable name.
    pub name: String,
    /// Number of transformer layers `L`.
    pub layers: u32,
    /// Hidden dimension `h`.
    pub hidden: u32,
    /// Attention heads `A`.
    pub heads: u32,
    /// FFN intermediate size `m`.
    pub ffn: u32,
    /// Vocabulary size (embeddings).
    pub vocab: u32,
    /// Weight precision.
    pub precision: Precision,
}

impl ModelConfig {
    /// OPT-13B: 40 layers, h=5120, 40 heads.
    pub fn opt_13b() -> Self {
        ModelConfig {
            name: "OPT-13B".into(),
            layers: 40,
            hidden: 5120,
            heads: 40,
            ffn: 4 * 5120,
            vocab: 50272,
            precision: Precision::Fp16,
        }
    }

    /// OPT-66B: 64 layers, h=9216, 72 heads (the testbed model).
    pub fn opt_66b() -> Self {
        ModelConfig {
            name: "OPT-66B".into(),
            layers: 64,
            hidden: 9216,
            heads: 72,
            ffn: 4 * 9216,
            vocab: 50272,
            precision: Precision::Fp16,
        }
    }

    /// OPT-175B: 96 layers, h=12288, 96 heads (the simulation model).
    pub fn opt_175b() -> Self {
        ModelConfig {
            name: "OPT-175B".into(),
            layers: 96,
            hidden: 12288,
            heads: 96,
            ffn: 4 * 12288,
            vocab: 50272,
            precision: Precision::Fp16,
        }
    }

    /// LLaMA-3-70B-like shape (Fig. 1's breakdown measurement):
    /// 80 layers, h=8192, m=28672 (SwiGLU), 64 heads.
    pub fn llama3_70b() -> Self {
        ModelConfig {
            name: "LLaMA-3-70B".into(),
            layers: 80,
            hidden: 8192,
            heads: 64,
            ffn: 28672,
            vocab: 128256,
            precision: Precision::Fp16,
        }
    }

    /// A small model for fast tests.
    pub fn tiny_test() -> Self {
        ModelConfig {
            name: "tiny".into(),
            layers: 4,
            hidden: 256,
            heads: 8,
            ffn: 1024,
            vocab: 1000,
            precision: Precision::Fp16,
        }
    }

    /// Total parameter count: per-layer attention (`4h²`) + FFN (`2hm`)
    /// blocks plus input/output embeddings.
    pub fn param_count(&self) -> u64 {
        let h = self.hidden as u64;
        let m = self.ffn as u64;
        let l = self.layers as u64;
        l * (4 * h * h + 2 * h * m) + 2 * (self.vocab as u64) * h
    }

    /// Model parameter size `R` in bytes at the configured precision.
    pub fn param_bytes(&self) -> u64 {
        self.param_count() * self.precision.bytes()
    }

    /// KV-cache bytes per token across all layers (2 tensors × h × L).
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.hidden as u64 * self.layers as u64 * self.precision.bytes()
    }

    /// FLOPs to prefill `k_in` total tokens with per-request squared sum
    /// `k_in2` (the attention-score term): `2 · params · K_in` matmul
    /// work plus `2 · 2 · h · L · K_in2` attention work.
    pub fn prefill_flops(&self, k_in: u64, k_in2: u64) -> f64 {
        let linear = 2.0 * self.param_count() as f64 * k_in as f64;
        let attn = 4.0 * self.hidden as f64 * self.layers as f64 * k_in2 as f64;
        linear + attn
    }

    /// FLOPs to decode one token for one sequence of current length
    /// `ctx`: `2 · params` plus attention over the cached context.
    pub fn decode_flops(&self, ctx: u64) -> f64 {
        2.0 * self.param_count() as f64 + 4.0 * self.hidden as f64 * self.layers as f64 * ctx as f64
    }

    /// Bytes of tensor-parallel synchronization per layer per token for
    /// the two all-reduce points (attention output and FFN output):
    /// `D_col(a) = D_col(f) = K_in · h` elements each (§III-C2).
    pub fn sync_bytes_per_layer(&self, tokens: u64) -> u64 {
        2 * tokens * self.hidden as u64 * self.precision.bytes()
    }

    /// Total tensor-parallel all-reduce bytes for a full forward pass over
    /// `tokens` tokens (both sync points, all layers).
    pub fn sync_bytes_total(&self, tokens: u64) -> u64 {
        self.sync_bytes_per_layer(tokens) * self.layers as u64
    }
}

/// Aggregate statistics of a batch of requests (Table I: `Q`, `K_in`,
/// `K_out`, `K_in2`), maintained by the online scheduler via moving
/// averages (§III-B).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchStats {
    /// Batch size `Q`.
    pub q: u32,
    /// Total input tokens `K_in = Σ l_i`.
    pub k_in: u64,
    /// Total output tokens `K_out = Σ o_i`.
    pub k_out: u64,
    /// Squared sum of input lengths `K_in2 = Σ l_i²`.
    pub k_in2: u64,
}

impl BatchStats {
    /// A uniform batch: `q` requests of `l_in` input / `l_out` output
    /// tokens each.
    pub fn uniform(q: u32, l_in: u64, l_out: u64) -> Self {
        BatchStats {
            q,
            k_in: q as u64 * l_in,
            k_out: q as u64 * l_out,
            k_in2: q as u64 * l_in * l_in,
        }
    }

    /// Fold another request into the stats.
    pub fn push(&mut self, l_in: u64, l_out: u64) {
        self.q += 1;
        self.k_in += l_in;
        self.k_out += l_out;
        self.k_in2 += l_in * l_in;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_param_counts_are_plausible() {
        // Published sizes: 13B, 66B, 175B within ~10%.
        let b13 = ModelConfig::opt_13b().param_count() as f64;
        let b66 = ModelConfig::opt_66b().param_count() as f64;
        let b175 = ModelConfig::opt_175b().param_count() as f64;
        assert!((b13 / 13e9 - 1.0).abs() < 0.10, "13B -> {b13:.3e}");
        assert!((b66 / 66e9 - 1.0).abs() < 0.10, "66B -> {b66:.3e}");
        assert!((b175 / 175e9 - 1.0).abs() < 0.10, "175B -> {b175:.3e}");
    }

    #[test]
    fn param_bytes_respects_precision() {
        let mut m = ModelConfig::tiny_test();
        let fp16 = m.param_bytes();
        m.precision = Precision::Fp32;
        assert_eq!(m.param_bytes(), 2 * fp16);
    }

    #[test]
    fn kv_bytes_per_token() {
        let m = ModelConfig::opt_66b();
        // 2 * 9216 * 64 * 2 bytes = 2.25 MiB per token.
        assert_eq!(m.kv_bytes_per_token(), 2 * 9216 * 64 * 2);
    }

    #[test]
    fn sync_bytes_match_paper_form() {
        let m = ModelConfig::opt_66b();
        // Per layer: 2 sync points x K_in x h elements x 2 bytes.
        assert_eq!(m.sync_bytes_per_layer(100), 2 * 100 * 9216 * 2);
        assert_eq!(m.sync_bytes_total(100), m.sync_bytes_per_layer(100) * 64);
    }

    #[test]
    fn batch_stats_from_lengths() {
        let mut s = BatchStats::default();
        s.push(10, 5);
        s.push(20, 7);
        assert_eq!(s.q, 2);
        assert_eq!(s.k_in, 30);
        assert_eq!(s.k_out, 12);
        assert_eq!(s.k_in2, 100 + 400);
        let mut u = BatchStats::uniform(1, 10, 5);
        u.push(20, 7);
        assert_eq!(u, s);
    }

    #[test]
    fn flops_scale_with_tokens() {
        let m = ModelConfig::tiny_test();
        let f1 = m.prefill_flops(100, 100 * 100);
        let f2 = m.prefill_flops(200, 200 * 200);
        assert!(f2 > 2.0 * f1 * 0.99); // superlinear due to attention
        assert!(m.decode_flops(1000) > m.decode_flops(10));
    }
}
