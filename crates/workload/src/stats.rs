//! Small statistics helpers for experiment reports.

/// Arithmetic mean; 0.0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `p`-th percentile (0–100) by linear interpolation between order
/// statistics; 0.0 for empty input.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if v.len() == 1 {
        return v[0];
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    v[lo] * (1.0 - frac) + v[hi] * frac
}

/// Fraction of samples satisfying `pred` (e.g. SLA attainment).
pub fn fraction_where(xs: &[f64], pred: impl Fn(f64) -> bool) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().filter(|&&x| pred(x)).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
        // Unsorted input.
        let ys = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&ys, 50.0), 2.5);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn attainment() {
        let xs = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(fraction_where(&xs, |x| x <= 0.25), 0.5);
        assert_eq!(fraction_where(&[], |_| true), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Percentiles are monotone in `p` and bounded by min/max.
        #[test]
        fn percentile_monotone(mut xs in proptest::collection::vec(-1e6f64..1e6, 1..100)) {
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut last = f64::NEG_INFINITY;
            for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
                let v = percentile(&xs, p);
                prop_assert!(v >= last - 1e-9);
                prop_assert!(v >= xs[0] - 1e-9 && v <= xs[xs.len() - 1] + 1e-9);
                last = v;
            }
        }
    }
}
