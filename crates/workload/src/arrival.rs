//! Arrival processes: Poisson, bursty MMPP, and diurnal cycles.
//!
//! The paper assumes Poisson arrivals (justifying the Pollaczek–Khinchine
//! queueing estimate, §III-C1) and generates request times "using a
//! Poisson distribution with different request rates". The bursty
//! conditions that degrade homogeneous INA (§I: throughput drops of ~78 %)
//! are reproduced with a two-state Markov-modulated Poisson process, and
//! production traffic shapes the planner never sees — daily load cycles
//! and flash crowds — are modelled by [`Diurnal`] (a sinusoidally
//! modulated non-homogeneous Poisson process sampled by Lewis–Shedler
//! thinning) and [`Mmpp::flash_crowd`] (rare, severe rate spikes).
//!
//! Every generator draws only from the caller-supplied seeded stream, so
//! arrival sequences are bit-identical across repeats (DESIGN.md §8/§13).

use hs_des::{SimSpan, SimTime};
use rand::rngs::SmallRng;
use rand::Rng;
use rand_distr::{Distribution, Exp};

/// A source of inter-arrival gaps.
pub trait ArrivalProcess {
    /// Draw the next inter-arrival gap.
    fn next_gap(&mut self, rng: &mut SmallRng) -> SimSpan;

    /// The long-run average rate (requests/second).
    fn mean_rate(&self) -> f64;

    /// Materialize arrival instants until `horizon`.
    fn arrivals_until(&mut self, rng: &mut SmallRng, horizon: SimTime) -> Vec<SimTime>
    where
        Self: Sized,
    {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            t += self.next_gap(rng);
            if t > horizon {
                break;
            }
            out.push(t);
        }
        out
    }
}

/// Homogeneous Poisson arrivals at `rate` requests/second.
///
/// Gaps are exponential with mean `1/rate`, drawn only from the seeded
/// stream — the same seed always yields the same arrival sequence:
///
/// ```
/// use hs_des::SeedSplitter;
/// use hs_workload::{ArrivalProcess, Poisson};
///
/// let mut rng = SeedSplitter::new(7).stream("arrivals");
/// let mut p = Poisson::new(10.0);
/// let gaps: Vec<u64> = (0..3).map(|_| p.next_gap(&mut rng).as_nanos()).collect();
/// assert_eq!(gaps, [261_618_517, 77_594_982, 6_931_700]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Poisson {
    /// Arrival rate λ, requests per second.
    pub rate: f64,
}

impl Poisson {
    /// A Poisson process at `rate` req/s.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0, "rate must be positive");
        Poisson { rate }
    }
}

impl ArrivalProcess for Poisson {
    fn next_gap(&mut self, rng: &mut SmallRng) -> SimSpan {
        let exp = Exp::new(self.rate).expect("positive rate");
        SimSpan::from_secs_f64(exp.sample(rng))
    }

    fn mean_rate(&self) -> f64 {
        self.rate
    }
}

/// Two-state Markov-modulated Poisson process: a *calm* state at
/// `base_rate` and a *burst* state at `burst_rate`, with exponential
/// sojourn times. Burstiness is what overloads a single aggregation
/// point.
#[derive(Clone, Copy, Debug)]
pub struct Mmpp {
    /// Rate in the calm state, req/s.
    pub base_rate: f64,
    /// Rate in the burst state, req/s.
    pub burst_rate: f64,
    /// Mean sojourn in the calm state, seconds.
    pub mean_calm_s: f64,
    /// Mean sojourn in the burst state, seconds.
    pub mean_burst_s: f64,
    in_burst: bool,
    state_left: f64,
}

impl Mmpp {
    /// Construct with both sojourn means.
    pub fn new(base_rate: f64, burst_rate: f64, mean_calm_s: f64, mean_burst_s: f64) -> Self {
        assert!(base_rate > 0.0 && burst_rate > 0.0);
        assert!(mean_calm_s > 0.0 && mean_burst_s > 0.0);
        Mmpp {
            base_rate,
            burst_rate,
            mean_calm_s,
            mean_burst_s,
            in_burst: false,
            state_left: 0.0,
        }
    }

    /// A convenient bursty profile: bursts at `burst_factor ×` the base
    /// rate, 20 % of the time, with 2 s bursts.
    ///
    /// ```
    /// use hs_des::SeedSplitter;
    /// use hs_workload::{ArrivalProcess, Mmpp};
    ///
    /// let mut rng = SeedSplitter::new(7).stream("arrivals");
    /// let mut m = Mmpp::bursty(10.0, 5.0);
    /// let gaps: Vec<u64> = (0..3).map(|_| m.next_gap(&mut rng).as_nanos()).collect();
    /// assert_eq!(gaps, [15_518_996, 1_386_340, 3_041_786]);
    /// ```
    pub fn bursty(base_rate: f64, burst_factor: f64) -> Self {
        Mmpp::new(base_rate, base_rate * burst_factor, 8.0, 2.0)
    }

    /// A *flash-crowd* profile: long calm stretches (mean 12 s) broken by
    /// short, severe spikes (mean 3 s) at `spike_factor ×` the base rate —
    /// the viral-moment traffic a static deployment sized for the mean
    /// cannot absorb. Long-run mean rate is
    /// `base · (0.8 + 0.2 · spike_factor)`.
    ///
    /// ```
    /// use hs_des::SeedSplitter;
    /// use hs_workload::{ArrivalProcess, Mmpp};
    ///
    /// let mut rng = SeedSplitter::new(7).stream("arrivals");
    /// let mut f = Mmpp::flash_crowd(4.0, 6.0);
    /// assert_eq!(f.mean_rate(), 8.0); // 4·0.8 + 24·0.2
    /// let gaps: Vec<u64> = (0..3).map(|_| f.next_gap(&mut rng).as_nanos()).collect();
    /// assert_eq!(gaps, [32_331_242, 2_888_208, 6_337_054]);
    /// ```
    pub fn flash_crowd(base_rate: f64, spike_factor: f64) -> Self {
        Mmpp::new(base_rate, base_rate * spike_factor, 12.0, 3.0)
    }
}

impl ArrivalProcess for Mmpp {
    fn next_gap(&mut self, rng: &mut SmallRng) -> SimSpan {
        let mut gap = 0.0f64;
        loop {
            if self.state_left <= 0.0 {
                // Enter the next state with an exponential sojourn.
                self.in_burst = !self.in_burst;
                let mean = if self.in_burst {
                    self.mean_burst_s
                } else {
                    self.mean_calm_s
                };
                self.state_left = Exp::new(1.0 / mean).expect("positive mean").sample(rng);
            }
            let rate = if self.in_burst {
                self.burst_rate
            } else {
                self.base_rate
            };
            let draw = Exp::new(rate).expect("positive rate").sample(rng);
            if draw <= self.state_left {
                self.state_left -= draw;
                gap += draw;
                return SimSpan::from_secs_f64(gap);
            }
            // No arrival before the state expires; spend the remainder
            // and re-draw in the next state.
            gap += self.state_left;
            self.state_left = 0.0;
        }
    }

    fn mean_rate(&self) -> f64 {
        let p_burst = self.mean_burst_s / (self.mean_burst_s + self.mean_calm_s);
        self.base_rate * (1.0 - p_burst) + self.burst_rate * p_burst
    }
}

/// Diurnal (daily-cycle) arrivals: a non-homogeneous Poisson process with
/// sinusoidal rate modulation
///
/// ```text
/// λ(t) = base_rate · (1 + amplitude · sin(2π · (t + phase_s) / period_s))
/// ```
///
/// sampled exactly by **Lewis–Shedler thinning**: candidate gaps are drawn
/// from a homogeneous process at `λ_max = base_rate · (1 + amplitude)` and
/// each candidate is accepted with probability `λ(t)/λ_max`. The long-run
/// mean rate over whole periods is `base_rate` (the sine integrates to
/// zero), so a diurnal trace is GPU-hour-comparable with a Poisson trace
/// at the same base rate.
///
/// ```
/// use hs_des::SeedSplitter;
/// use hs_workload::{ArrivalProcess, Diurnal};
///
/// let mut rng = SeedSplitter::new(7).stream("arrivals");
/// let mut d = Diurnal::new(8.0, 0.8, 60.0);
/// let gaps: Vec<u64> = (0..3).map(|_| d.next_gap(&mut rng).as_nanos()).collect();
/// assert_eq!(gaps, [181_679_526, 4_813_681, 46_049_744]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Diurnal {
    /// Mean rate over a full period, req/s.
    pub base_rate: f64,
    /// Relative swing in `[0, 1)`: peak = `base·(1+a)`, trough = `base·(1−a)`.
    pub amplitude: f64,
    /// Cycle length, seconds (a simulated "day").
    pub period_s: f64,
    /// Phase offset, seconds: where in the cycle `t = 0` falls.
    pub phase_s: f64,
    /// Internal clock: seconds since the stream started.
    t: f64,
}

impl Diurnal {
    /// A diurnal process with `base_rate` mean req/s, relative swing
    /// `amplitude`, and cycle length `period_s` seconds starting at the
    /// cycle's mean-rate upswing.
    pub fn new(base_rate: f64, amplitude: f64, period_s: f64) -> Self {
        assert!(base_rate > 0.0, "rate must be positive");
        assert!(
            (0.0..1.0).contains(&amplitude),
            "amplitude must be in [0, 1)"
        );
        assert!(period_s > 0.0, "period must be positive");
        Diurnal {
            base_rate,
            amplitude,
            period_s,
            phase_s: 0.0,
            t: 0.0,
        }
    }

    /// Shift the cycle so `t = 0` falls `phase_s` seconds into it (e.g.
    /// `period/4` starts the trace at peak load).
    pub fn with_phase(mut self, phase_s: f64) -> Self {
        self.phase_s = phase_s;
        self
    }

    /// The instantaneous rate `λ(t)`, req/s.
    pub fn rate_at(&self, t_s: f64) -> f64 {
        let angle = std::f64::consts::TAU * (t_s + self.phase_s) / self.period_s;
        self.base_rate * (1.0 + self.amplitude * angle.sin())
    }
}

impl ArrivalProcess for Diurnal {
    fn next_gap(&mut self, rng: &mut SmallRng) -> SimSpan {
        let lambda_max = self.base_rate * (1.0 + self.amplitude);
        let exp = Exp::new(lambda_max).expect("positive rate");
        let start = self.t;
        loop {
            self.t += exp.sample(rng);
            // Thinning: accept with probability λ(t)/λ_max.
            let u: f64 = rng.gen();
            if u * lambda_max <= self.rate_at(self.t) {
                return SimSpan::from_secs_f64(self.t - start);
            }
        }
    }

    fn mean_rate(&self) -> f64 {
        self.base_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_des::SeedSplitter;

    #[test]
    fn poisson_rate_converges() {
        let mut p = Poisson::new(10.0);
        let mut rng = SeedSplitter::new(1).stream("arrivals");
        let arrivals = p.arrivals_until(&mut rng, SimTime::from_secs(1000));
        let rate = arrivals.len() as f64 / 1000.0;
        assert!((rate / 10.0 - 1.0).abs() < 0.05, "rate = {rate}");
        // Strictly increasing timestamps.
        for w in arrivals.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn poisson_gap_cv_is_one() {
        let mut p = Poisson::new(5.0);
        let mut rng = SeedSplitter::new(2).stream("arrivals");
        let gaps: Vec<f64> = (0..20_000)
            .map(|_| p.next_gap(&mut rng).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((cv - 1.0).abs() < 0.05, "cv = {cv}");
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        let mut m = Mmpp::bursty(5.0, 10.0);
        let mut rng = SeedSplitter::new(3).stream("arrivals");
        let gaps: Vec<f64> = (0..20_000)
            .map(|_| m.next_gap(&mut rng).as_secs_f64())
            .collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.05, "MMPP cv = {cv} should exceed Poisson's 1.0");
    }

    #[test]
    fn mmpp_mean_rate_formula() {
        let m = Mmpp::new(4.0, 20.0, 8.0, 2.0);
        // p_burst = 0.2 -> mean = 4*0.8 + 20*0.2 = 7.2.
        assert!((m.mean_rate() - 7.2).abs() < 1e-9);
        // Empirical check.
        let mut m2 = m;
        let mut rng = SeedSplitter::new(4).stream("arrivals");
        let arrivals = m2.arrivals_until(&mut rng, SimTime::from_secs(2000));
        let rate = arrivals.len() as f64 / 2000.0;
        assert!((rate / 7.2 - 1.0).abs() < 0.1, "rate = {rate}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        Poisson::new(0.0);
    }

    #[test]
    fn diurnal_mean_rate_converges_over_whole_periods() {
        let mut d = Diurnal::new(8.0, 0.8, 50.0);
        let mut rng = SeedSplitter::new(5).stream("arrivals");
        // 40 whole periods: the sine's contribution integrates away.
        let arrivals = d.arrivals_until(&mut rng, SimTime::from_secs(2000));
        let rate = arrivals.len() as f64 / 2000.0;
        assert!((rate / 8.0 - 1.0).abs() < 0.05, "rate = {rate}");
    }

    #[test]
    fn diurnal_peak_beats_trough() {
        // Phase period/4 puts t=0 at peak; 3·period/4 puts it at trough.
        let mut peak = Diurnal::new(6.0, 0.9, 400.0).with_phase(100.0);
        let mut trough = Diurnal::new(6.0, 0.9, 400.0).with_phase(300.0);
        let mut rng_a = SeedSplitter::new(6).stream("arrivals");
        let mut rng_b = SeedSplitter::new(6).stream("arrivals");
        // 20 s windows around the extremes of a 400 s cycle: rates differ
        // by ~(1+0.9)/(1-0.9) ≈ 19×.
        let hi = peak
            .arrivals_until(&mut rng_a, SimTime::from_secs(20))
            .len();
        let lo = trough
            .arrivals_until(&mut rng_b, SimTime::from_secs(20))
            .len();
        assert!(hi > 4 * lo.max(1), "peak {hi} vs trough {lo}");
    }

    #[test]
    fn diurnal_rate_at_matches_formula() {
        let d = Diurnal::new(10.0, 0.5, 100.0);
        assert!((d.rate_at(0.0) - 10.0).abs() < 1e-9);
        assert!((d.rate_at(25.0) - 15.0).abs() < 1e-9);
        assert!((d.rate_at(75.0) - 5.0).abs() < 1e-9);
        let shifted = d.with_phase(25.0);
        assert!((shifted.rate_at(0.0) - 15.0).abs() < 1e-9);
    }

    #[test]
    fn flash_crowd_mean_rate() {
        let m = Mmpp::flash_crowd(4.0, 6.0);
        // p_spike = 3/15 = 0.2 -> mean = 4·0.8 + 24·0.2 = 8.0.
        assert!((m.mean_rate() - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn diurnal_full_swing_rejected() {
        Diurnal::new(1.0, 1.0, 10.0);
    }
}
