//! Order statistics for timing samples.
//!
//! Every timing the benchmark reports is a median (or a nearest-rank
//! percentile) of repeated samples, never a single reading: one run on a
//! shared two-core sandbox is not a measurement.

/// Sorts a copy of `xs` ascending with a total order (NaN last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The least of `xs` — the steady figure of a timing that interference only
/// ever inflates; `+inf` for an empty sample.
pub fn least(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The median (mean of the two middle values for an even count); `None` for
/// an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the "exclusive" method — the same cut points
/// Python's `statistics.quantiles(xs, n=4)` returns, so a spread computed
/// here agrees with the one the acceptance driver computes. `None` below
/// two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the sample, exactly as CPython does.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median — the steadiness figure the
/// acceptance driver bounds. `None` below two samples or for a zero median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs)?;
    (m.abs() > 0.0).then(|| (q3 - q1) / m.abs())
}

/// Nearest-rank percentile: the smallest sample with at least `p` percent of
/// the sample at or below it (`p` in `(0, 100]`). `None` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let v = sorted(xs);
    if v.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * v.len() as f64).ceil().max(1.0) as usize;
    Some(v[rank.min(v.len()) - 1])
}

/// The highest percentile, among the conventional reporting levels, that
/// still has at least ten samples beyond it — the tail a sample of `n` can
/// support. Falls back to the median below twenty samples.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // (percentile, samples beyond it per thousand): integer arithmetic, so
    // that exactly ten samples beyond counts as ten.
    const LEVELS: [(f64, usize); 5] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250)];
    LEVELS.into_iter().find(|&(_, tail)| n * tail >= 10 * 1000).map_or(50.0, |(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert!(close(least(&[3.0, 1.0, 2.0]), 1.0) && least(&[]).is_infinite());
        assert_eq!(median(&[]), None);
        assert!(close(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0));
        assert!(close(median(&[4.0, 1.0, 2.0, 3.0]).unwrap(), 2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs).unwrap();
        assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        let (q1, q3) = quartiles(&[2.0, 1.0]).unwrap();
        assert!(close(q1, 0.75) && close(q3, 2.25), "{q1} {q3}");
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[10.0, 20.0, 40.0]).unwrap();
        assert!(close(q1, 10.0) && close(q3, 40.0), "{q1} {q3}");
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(spread(&xs).unwrap(), (8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=13).map(f64::from).collect();
        assert!(close(percentile(&xs, 50.0).unwrap(), 7.0));
        assert!(close(percentile(&xs, 90.0).unwrap(), 12.0));
        assert!(close(percentile(&xs, 100.0).unwrap(), 13.0));
        assert!(close(percentile(&[5.0], 90.0).unwrap(), 5.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert!(close(highest_supported_percentile(10), 50.0));
        assert!(close(highest_supported_percentile(39), 50.0));
        assert!(close(highest_supported_percentile(40), 75.0));
        assert!(close(highest_supported_percentile(100), 90.0));
        assert!(close(highest_supported_percentile(144), 90.0));
        assert!(close(highest_supported_percentile(200), 95.0));
        assert!(close(highest_supported_percentile(1000), 99.0));
        assert!(close(highest_supported_percentile(10_000), 99.9));
    }
}
