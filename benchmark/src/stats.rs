//! Order statistics shared by the runner and `compare`.

/// Nearest-rank percentile `num/den` of an ascending slice: the value at
/// 1-based rank `ceil(n * num / den)`, clamped to `1..=n`. Integer
/// arithmetic, so p99.9 of 10,000 samples is exactly rank 9,990.
///
/// # Panics
///
/// Panics if `sorted` is empty or `den` is zero.
pub fn nearest_rank(sorted: &[u64], num: u64, den: u64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len() as u64;
    let rank = (n * num).div_ceil(den).clamp(1, n);
    sorted[(rank - 1) as usize]
}

/// Mean of integer samples (0 for none).
pub fn mean(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
    sum as f64 / values.len() as f64
}

/// Median of real samples (the mean of the middle two for an even
/// count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        f64::midpoint(v[n / 2 - 1], v[n / 2])
    }
}

/// Median of the fastest quarter (at least one) of batch rates. Other
/// tenants of a shared host only ever slow a batch down, so the fastest
/// batches carry the code's own speed; the median of them, not the
/// single fastest, keeps one lucky batch from setting the figure.
///
/// # Panics
///
/// Panics if `rates` is empty.
pub fn top_quarter_median(rates: &[f64]) -> f64 {
    let mut v = rates.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    median(&v[..v.len().div_ceil(4)])
}

/// First and third quartiles by the method of Python's
/// `statistics.quantiles(values, n=4)` (the default, "exclusive"), so
/// spreads read the same here and in a notebook.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative when the clamp moved `j` up: extrapolates, as Python does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Geometric mean of positive ratios (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // the expected values are exact
mod tests {
    use super::*;
    use supermem::sim::SplitMix64;

    /// Brute force: the smallest sample with at least `p` percent of
    /// all samples at or below it.
    fn brute(values: &[u64], num: u64, den: u64) -> u64 {
        let mut v = values.to_vec();
        v.sort_unstable();
        let n = v.len() as u64;
        *v.iter()
            .find(|&&x| {
                let at_or_below = v.iter().filter(|&&y| y <= x).count() as u64;
                at_or_below * den >= num * n
            })
            .expect("the maximum always qualifies")
    }

    #[test]
    fn nearest_rank_matches_brute_force() {
        let mut rng = SplitMix64::new(7);
        for trial in 0..200 {
            let n = 1 + rng.next_below(300) as usize;
            let values: Vec<u64> = (0..n).map(|_| rng.next_below(50)).collect();
            let mut sorted = values.clone();
            sorted.sort_unstable();
            for (num, den) in [(1, 2), (99, 100), (999, 1000), (1, 1), (1, 1000)] {
                assert_eq!(
                    nearest_rank(&sorted, num, den),
                    brute(&values, num, den),
                    "trial {trial}, n {n}, p {num}/{den}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_edges() {
        let sorted: Vec<u64> = (1..=10_000).collect();
        assert_eq!(nearest_rank(&sorted, 999, 1000), 9_990);
        assert_eq!(nearest_rank(&sorted, 1, 2), 5_000);
        assert_eq!(nearest_rank(&[42], 999, 1000), 42);
        assert_eq!(nearest_rank(&sorted, 0, 1), 1, "rank clamps to 1");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn top_quarter_median_ignores_slowed_batches() {
        // Eight batches at full speed, then a neighbour halves the rest.
        let mut rates = vec![100.0, 101.0, 99.0, 100.0, 102.0, 98.0, 100.0, 100.0];
        rates.extend([50.0; 12]);
        assert_eq!(top_quarter_median(&rates), 100.0);
        assert_eq!(median(&rates), 50.0);
        assert_eq!(top_quarter_median(&[7.0]), 7.0);
        assert_eq!(top_quarter_median(&[1.0, 2.0, 3.0, 4.0, 5.0]), 4.5);
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1, 2, 3, 4]), 2.5);
        assert_eq!(mean(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
