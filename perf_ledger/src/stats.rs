//! The arithmetic behind every reported number: medians, per-round medians,
//! the supported tail percentile, and quartile spread.

/// Median of `v` (mean of the middle two for an even count). Sorts in place.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median of every round that saw a sample, in round order.
pub fn round_medians(rounds: &mut [Vec<f64>]) -> Vec<f64> {
    rounds.iter_mut().filter(|r| !r.is_empty()).map(|r| median(r)).collect()
}

/// Distance between the first and third quartile, 0 for a single value.
pub fn iqr(v: &mut [f64]) -> f64 {
    if v.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(v);
    q3 - q1
}

/// The three quartile cut points, as Python's
/// `statistics.quantiles(v, n=4)` (exclusive method) gives them — the
/// driver's definition of spread.
pub fn quartiles(v: &mut [f64]) -> [f64; 3] {
    assert!(v.len() >= 2, "quartiles need two values");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    [1, 2, 3].map(|i| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    })
}

/// Candidate tails as "one sample in k": p90, p99, ... p99.999.
const TAIL_ONE_IN: [usize; 5] = [10, 100, 1_000, 10_000, 100_000];

/// The highest percentile with at least ten samples beyond it, as
/// `(k, value, n)`: the value one sample in `k` exceeds (k = 100 is p99) and
/// the sample count. `None` under 100 samples, where even p90 has fewer than
/// ten beyond it. Sorts in place.
pub fn tail(samples: &mut [f64]) -> Option<(usize, f64, usize)> {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let k = *TAIL_ONE_IN.iter().rev().find(|&&k| n / k >= 10)?;
    Some((k, samples[n - 1 - n / k], n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn round_medians_skip_empty_rounds_and_resist_outliers_within_a_round() {
        let mut rounds = vec![vec![1.0, 1.0, 50.0], vec![], vec![3.0, 0.0, 9.0], vec![100.0]];
        assert_eq!(round_medians(&mut rounds), vec![1.0, 3.0, 100.0]);
        assert_eq!(iqr(&mut [5.0]), 0.0);
        // statistics.quantiles([1, 3, 100], n=4) == [1, 3, 100]
        assert_eq!(iqr(&mut [100.0, 1.0, 3.0]), 99.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&mut [1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_samples_beyond() {
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        assert_eq!(tail(&mut v), Some((100, 989.0, 1000)));
        let mut v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&mut v), Some((10, 89.0, 100)));
        let mut v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(tail(&mut v), None);
        let mut v: Vec<f64> = (0..20_000).map(f64::from).collect();
        assert_eq!(tail(&mut v).map(|t| t.0), Some(1000));
    }
}
