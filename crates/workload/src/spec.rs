//! Workload length distributions.
//!
//! Token lengths are drawn from a [`LengthModel`]: either a clamped
//! log-normal ([`LengthSpec`], the paper's chatbot/summarization fits)
//! or a clamped Pareto ([`ParetoSpec`]) for heavy-tailed prompt
//! populations where a small fraction of requests dominates the token
//! budget. Both expose `sample` and `analytic_mean`, so load estimation
//! works identically for either shape.

use rand::rngs::SmallRng;
use rand::Rng;
use rand_distr::{Distribution, LogNormal};

/// A clamped log-normal token-length distribution.
#[derive(Clone, Copy, Debug)]
pub struct LengthSpec {
    /// Mean of the underlying normal (log-token space).
    pub mu: f64,
    /// Std-dev of the underlying normal.
    pub sigma: f64,
    /// Minimum length (inclusive).
    pub min: u32,
    /// Maximum length (inclusive).
    pub max: u32,
}

impl LengthSpec {
    /// A spec whose log-normal has approximately the given mean, with
    /// shape `sigma`, clamped to `[min, max]`.
    pub fn with_mean(mean: f64, sigma: f64, min: u32, max: u32) -> Self {
        assert!(mean > 0.0 && min >= 1 && max >= min);
        // E[lognormal] = exp(mu + sigma^2/2)  =>  mu = ln(mean) - sigma^2/2.
        LengthSpec {
            mu: mean.ln() - sigma * sigma / 2.0,
            sigma,
            min,
            max,
        }
    }

    /// Draw one length.
    pub fn sample(&self, rng: &mut SmallRng) -> u32 {
        let d = LogNormal::new(self.mu, self.sigma).expect("valid lognormal");
        let x = d.sample(rng);
        (x.round() as i64).clamp(self.min as i64, self.max as i64) as u32
    }

    /// The analytic (unclamped) mean.
    pub fn analytic_mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// A clamped Pareto token-length distribution for heavy-tailed
/// populations: most requests are short, but the tail decays as a power
/// law `P(X > x) = (scale/x)^shape`, so a handful of giants carry a
/// disproportionate share of the token budget.
///
/// Sampling uses the inverse CDF, `x = scale · (1 − u)^(−1/shape)`,
/// with the vendored `SmallRng` — no extra distribution crate needed.
/// The analytic (unclamped) mean is `shape · scale / (shape − 1)`,
/// finite only for `shape > 1`; the constructor requires that so load
/// estimation stays meaningful.
///
/// ```
/// use hs_des::SeedSplitter;
/// use hs_workload::ParetoSpec;
///
/// let mut rng = SeedSplitter::new(7).stream("lengths");
/// let p = ParetoSpec::with_mean(160.0, 1.5, 4, 2048);
/// let lens: Vec<u32> = (0..4).map(|_| p.sample(&mut rng)).collect();
/// assert_eq!(lens, [62, 81, 76, 66]);
/// assert!((p.analytic_mean() - 160.0).abs() < 1e-9);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ParetoSpec {
    /// Scale `x_m` (minimum of the unclamped support), tokens.
    pub scale: f64,
    /// Tail index `α`; smaller is heavier. Must be `> 1` for a finite
    /// mean.
    pub shape: f64,
    /// Minimum length (inclusive), applied after sampling.
    pub min: u32,
    /// Maximum length (inclusive), applied after sampling.
    pub max: u32,
}

impl ParetoSpec {
    /// A Pareto spec with the given `scale`/`shape`, clamped to
    /// `[min, max]`. Panics unless `scale > 0`, `shape > 1`, and
    /// `1 ≤ min ≤ max`.
    pub fn new(scale: f64, shape: f64, min: u32, max: u32) -> Self {
        assert!(scale > 0.0, "Pareto scale must be positive");
        assert!(shape > 1.0, "Pareto shape must exceed 1 for a finite mean");
        assert!(min >= 1 && max >= min);
        ParetoSpec {
            scale,
            shape,
            min,
            max,
        }
    }

    /// A spec whose *unclamped* mean is `mean`, with tail index
    /// `shape`: solves `scale = mean · (shape − 1) / shape`.
    pub fn with_mean(mean: f64, shape: f64, min: u32, max: u32) -> Self {
        assert!(mean > 0.0);
        ParetoSpec::new(mean * (shape - 1.0) / shape, shape, min, max)
    }

    /// Draw one length.
    pub fn sample(&self, rng: &mut SmallRng) -> u32 {
        // Inverse-CDF: u ~ U[0,1), x = scale · (1−u)^(−1/shape).
        let u: f64 = rng.gen();
        let x = self.scale * (1.0 - u).powf(-1.0 / self.shape);
        (x.round() as i64).clamp(self.min as i64, self.max as i64) as u32
    }

    /// The analytic (unclamped) mean, `shape · scale / (shape − 1)`.
    pub fn analytic_mean(&self) -> f64 {
        self.shape * self.scale / (self.shape - 1.0)
    }
}

/// A token-length distribution: log-normal body or Pareto tail.
///
/// [`WorkloadSpec`] stores one per direction so heavy-tailed prompt
/// populations plug into the same trace generation, load estimation,
/// and planner paths as the paper's log-normal fits.
#[derive(Clone, Copy, Debug)]
pub enum LengthModel {
    /// Clamped log-normal (see [`LengthSpec`]).
    LogNormal(LengthSpec),
    /// Clamped Pareto (see [`ParetoSpec`]).
    Pareto(ParetoSpec),
}

impl LengthModel {
    /// Draw one length.
    pub fn sample(&self, rng: &mut SmallRng) -> u32 {
        match self {
            LengthModel::LogNormal(s) => s.sample(rng),
            LengthModel::Pareto(s) => s.sample(rng),
        }
    }

    /// The analytic (unclamped) mean of the underlying distribution.
    pub fn analytic_mean(&self) -> f64 {
        match self {
            LengthModel::LogNormal(s) => s.analytic_mean(),
            LengthModel::Pareto(s) => s.analytic_mean(),
        }
    }
}

impl From<LengthSpec> for LengthModel {
    fn from(s: LengthSpec) -> Self {
        LengthModel::LogNormal(s)
    }
}

impl From<ParetoSpec> for LengthModel {
    fn from(s: ParetoSpec) -> Self {
        LengthModel::Pareto(s)
    }
}

/// A full workload: input and output length distributions plus SLAs.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Name for reports ("chatbot", "summarization").
    pub name: String,
    /// Input (prompt) length distribution.
    pub input: LengthModel,
    /// Output (generation) length distribution.
    pub output: LengthModel,
    /// TTFT SLA, seconds (Table I `T_sla^pre`).
    pub ttft_sla_s: f64,
    /// TPOT SLA, seconds (Table I `T_sla^dec`).
    pub tpot_sla_s: f64,
}

impl WorkloadSpec {
    /// Draw one `(input_len, output_len)` pair.
    pub fn sample(&self, rng: &mut SmallRng) -> (u32, u32) {
        (self.input.sample(rng), self.output.sample(rng))
    }

    /// Override the SLAs (the paper uses looser SLAs in simulation than
    /// on the testbed).
    pub fn with_slas(mut self, ttft_s: f64, tpot_s: f64) -> Self {
        self.ttft_sla_s = ttft_s;
        self.tpot_sla_s = tpot_s;
        self
    }
}

/// The chatbot workload: ShareGPT-like lengths with the paper's testbed
/// SLAs (2.5 s TTFT / 0.15 s TPOT).
pub fn sharegpt_like() -> WorkloadSpec {
    WorkloadSpec {
        name: "chatbot".into(),
        input: LengthSpec::with_mean(160.0, 1.0, 4, 2048).into(),
        output: LengthSpec::with_mean(210.0, 0.8, 16, 1024).into(),
        ttft_sla_s: 2.5,
        tpot_sla_s: 0.15,
    }
}

/// The summarization workload: LongBench-like lengths with the paper's
/// testbed SLAs (15 s TTFT / 0.15 s TPOT).
///
/// LongBench documents are far longer than 2 k tokens, but the paper
/// serves them on OPT models whose context window is 2048 — prompts are
/// necessarily truncated to fit, so the effective distribution is long
/// prompts pressed against the 2 k ceiling (≈ 10× the chatbot mean).
pub fn longbench_like() -> WorkloadSpec {
    WorkloadSpec {
        name: "summarization".into(),
        input: LengthSpec::with_mean(1600.0, 0.35, 512, 1948).into(),
        output: LengthSpec::with_mean(100.0, 0.6, 32, 512).into(),
        ttft_sla_s: 15.0,
        tpot_sla_s: 0.15,
    }
}

/// A deterministic "uniform" workload for tests: every request is
/// exactly `(input, output)` tokens.
pub fn fixed(input: u32, output: u32) -> WorkloadSpec {
    WorkloadSpec {
        name: format!("fixed-{input}x{output}"),
        input: LengthSpec {
            mu: (input as f64).ln(),
            sigma: 0.0,
            min: input,
            max: input,
        }
        .into(),
        output: LengthSpec {
            mu: (output as f64).ln(),
            sigma: 0.0,
            min: output,
            max: output,
        }
        .into(),
        ttft_sla_s: 2.5,
        tpot_sla_s: 0.15,
    }
}

/// A heavy-tailed workload: Pareto prompt lengths (tail index 1.5 —
/// most prompts short, rare context-window-filling giants) with
/// log-normal outputs and chatbot SLAs. This is the length regime a
/// static P/D split sized for the *mean* prompt handles worst.
pub fn heavy_tail_like() -> WorkloadSpec {
    WorkloadSpec {
        name: "heavy-tail".into(),
        input: ParetoSpec::with_mean(160.0, 1.5, 4, 2048).into(),
        output: LengthSpec::with_mean(210.0, 0.8, 16, 1024).into(),
        ttft_sla_s: 2.5,
        tpot_sla_s: 0.15,
    }
}

/// Bernoulli mixture of two workloads (models a shared cluster serving
/// both applications).
pub fn mixture(a: WorkloadSpec, b: WorkloadSpec, frac_a: f64) -> MixedWorkload {
    assert!((0.0..=1.0).contains(&frac_a));
    MixedWorkload { a, b, frac_a }
}

/// See [`mixture`].
#[derive(Clone, Debug)]
pub struct MixedWorkload {
    /// First component.
    pub a: WorkloadSpec,
    /// Second component.
    pub b: WorkloadSpec,
    /// Probability of drawing from `a`.
    pub frac_a: f64,
}

impl MixedWorkload {
    /// Draw one `(input, output, from_a)` triple.
    pub fn sample(&self, rng: &mut SmallRng) -> (u32, u32, bool) {
        if rng.gen_bool(self.frac_a) {
            let (i, o) = self.a.sample(rng);
            (i, o, true)
        } else {
            let (i, o) = self.b.sample(rng);
            (i, o, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_des::SeedSplitter;

    fn rng() -> SmallRng {
        SeedSplitter::new(42).stream("lengths")
    }

    #[test]
    fn sharegpt_moments() {
        let spec = sharegpt_like();
        let mut r = rng();
        let n = 20_000;
        let xs: Vec<u32> = (0..n).map(|_| spec.input.sample(&mut r)).collect();
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n as f64;
        // Clamping pulls the mean down slightly; stay within 20%.
        assert!((mean / 160.0 - 1.0).abs() < 0.2, "mean input = {mean}");
        assert!(xs.iter().all(|&x| (4..=2048).contains(&x)));
    }

    #[test]
    fn longbench_is_long_but_fits_opt_context() {
        let spec = longbench_like();
        let mut r = rng();
        let samples: Vec<u32> = (0..5000).map(|_| spec.input.sample(&mut r)).collect();
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / 5000.0;
        assert!(mean > 1200.0 && mean < 1900.0, "mean = {mean}");
        // Summarization inputs dwarf chatbot inputs but never exceed the
        // OPT context window (2048 incl. generation headroom).
        assert!(mean > 8.0 * 160.0);
        assert!(samples.iter().all(|&x| x < 2048));
    }

    #[test]
    fn fixed_is_deterministic() {
        let spec = fixed(100, 10);
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(spec.sample(&mut r), (100, 10));
        }
    }

    #[test]
    fn with_mean_hits_target() {
        let s = LengthSpec::with_mean(500.0, 0.7, 1, 1_000_000);
        assert!((s.analytic_mean() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn slas_match_paper() {
        assert_eq!(sharegpt_like().ttft_sla_s, 2.5);
        assert_eq!(sharegpt_like().tpot_sla_s, 0.15);
        assert_eq!(longbench_like().ttft_sla_s, 15.0);
        let sim = sharegpt_like().with_slas(4.0, 0.2);
        assert_eq!(sim.ttft_sla_s, 4.0);
        assert_eq!(sim.tpot_sla_s, 0.2);
    }

    #[test]
    fn pareto_with_mean_hits_target() {
        let p = ParetoSpec::with_mean(300.0, 2.0, 1, u32::MAX);
        assert!((p.analytic_mean() - 300.0).abs() < 1e-9);
        // scale = mean·(α−1)/α = 150 for α = 2.
        assert!((p.scale - 150.0).abs() < 1e-9);
    }

    #[test]
    fn pareto_empirical_mean_converges() {
        // Wide clamp + α = 2.5 (finite variance) so the sample mean
        // converges at a testable n.
        let p = ParetoSpec::with_mean(200.0, 2.5, 1, 10_000_000);
        let mut r = rng();
        let n = 200_000;
        let mean = (0..n).map(|_| p.sample(&mut r) as f64).sum::<f64>() / n as f64;
        assert!((mean / 200.0 - 1.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn pareto_is_heavier_tailed_than_lognormal() {
        // Equal analytic means; compare the 99.9th percentile mass.
        let pareto = ParetoSpec::with_mean(160.0, 1.5, 1, u32::MAX);
        let lognorm = LengthSpec::with_mean(160.0, 1.0, 1, u32::MAX);
        let mut r = rng();
        let n = 50_000;
        let big = 4000u32;
        let p_hits = (0..n).filter(|_| pareto.sample(&mut r) > big).count();
        let l_hits = (0..n).filter(|_| lognorm.sample(&mut r) > big).count();
        assert!(
            p_hits > 4 * (l_hits + 1),
            "pareto {p_hits} vs lognormal {l_hits} beyond {big} tokens"
        );
    }

    #[test]
    fn heavy_tail_like_respects_context_window() {
        let spec = heavy_tail_like();
        let mut r = rng();
        let samples: Vec<u32> = (0..20_000).map(|_| spec.input.sample(&mut r)).collect();
        assert!(samples.iter().all(|&x| (4..=2048).contains(&x)));
        // The clamp truncates the tail, so the empirical mean sits
        // below the unclamped analytic mean but well above the mode.
        let mean = samples.iter().map(|&x| x as f64).sum::<f64>() / 20_000.0;
        assert!(mean > 60.0 && mean < 200.0, "mean = {mean}");
    }

    #[test]
    #[should_panic(expected = "shape must exceed 1")]
    fn pareto_infinite_mean_rejected() {
        ParetoSpec::new(100.0, 1.0, 1, 1000);
    }

    #[test]
    fn length_model_dispatch_matches_inner() {
        let ls = LengthSpec::with_mean(100.0, 0.5, 1, 1000);
        let ps = ParetoSpec::with_mean(100.0, 2.0, 1, 1000);
        let ml: LengthModel = ls.into();
        let mp: LengthModel = ps.into();
        assert!((ml.analytic_mean() - ls.analytic_mean()).abs() < 1e-12);
        assert!((mp.analytic_mean() - ps.analytic_mean()).abs() < 1e-12);
        let mut r1 = rng();
        let mut r2 = rng();
        assert_eq!(ml.sample(&mut r1), ls.sample(&mut r2));
        assert_eq!(mp.sample(&mut r1), ps.sample(&mut r2));
    }

    #[test]
    fn mixture_draws_both() {
        let m = mixture(sharegpt_like(), longbench_like(), 0.5);
        let mut r = rng();
        let mut a_count = 0;
        for _ in 0..1000 {
            let (_, _, from_a) = m.sample(&mut r);
            if from_a {
                a_count += 1;
            }
        }
        assert!(a_count > 350 && a_count < 650, "a_count = {a_count}");
    }
}
