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
/// statistics; 0.0 for empty input. Sorts `xs` in place, then reads the
/// order statistics.
pub fn percentile_in_place(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if xs.len() == 1 {
        return xs[0];
    }
    let rank = p / 100.0 * (xs.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    xs[lo] * (1.0 - frac) + xs[hi] * frac
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
        let percentile = |xs: &[f64], p| percentile_in_place(&mut xs.to_vec(), p);
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
                let v = percentile_in_place(&mut xs, p);
                prop_assert!(v >= last - 1e-9);
                prop_assert!(v >= xs[0] - 1e-9 && v <= xs[xs.len() - 1] + 1e-9);
                last = v;
            }
        }

        /// Sorting in place reads the same bits as reading a sorted copy,
        /// and leaves the input sorted.
        #[test]
        fn in_place_matches_copy(
            xs in proptest::collection::vec(-1e6f64..1e6, 0..100),
            p in 0.0f64..100.0,
        ) {
            let mut sorted = xs.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for p in [p, 90.0, 100.0] {
                let want = percentile_in_place(&mut sorted, p);
                let mut v = xs.clone();
                prop_assert_eq!(percentile_in_place(&mut v, p).to_bits(), want.to_bits());
                prop_assert!(v.is_sorted());
            }
        }
    }
}
