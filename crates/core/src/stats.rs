//! Summary statistics for experiment reporting (the paper presents Fig. 6 as
//! box-whisker plots).

/// A five-number summary with 1.5·IQR outlier detection, matching the
/// paper's box-whisker convention.
#[derive(Clone, Debug, PartialEq)]
pub struct FiveNumber {
    /// Smallest non-outlier.
    pub min: f64,
    /// 25th percentile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub q3: f64,
    /// Largest non-outlier.
    pub max: f64,
    /// Points outside `[q1 − 1.5·IQR, q3 + 1.5·IQR]`.
    pub outliers: Vec<f64>,
    /// NaN samples excluded from the summary (shown as `nan=` in
    /// [`FiveNumber::row`]).
    pub nan_samples: usize,
}

/// Linear-interpolation percentile over a sorted slice (`p ∈ [0, 1]`).
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (idx - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

impl FiveNumber {
    /// Computes the summary of `values`.
    ///
    /// NaN samples are excluded and counted in
    /// [`FiveNumber::nan_samples`] rather than panicking — one degenerate
    /// cell must not take down an entire parallel sweep. If *every* sample
    /// is NaN, all five numbers are NaN and `nan_samples == values.len()`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "five-number summary of an empty set");
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        let nan_samples = values.len() - sorted.len();
        if sorted.is_empty() {
            return FiveNumber {
                min: f64::NAN,
                q1: f64::NAN,
                median: f64::NAN,
                q3: f64::NAN,
                max: f64::NAN,
                outliers: Vec::new(),
                nan_samples,
            };
        }
        sorted.sort_by(f64::total_cmp);
        let q1 = percentile_sorted(&sorted, 0.25);
        let median = percentile_sorted(&sorted, 0.50);
        let q3 = percentile_sorted(&sorted, 0.75);
        let iqr = q3 - q1;
        let lo_fence = q1 - 1.5 * iqr;
        let hi_fence = q3 + 1.5 * iqr;
        let outliers: Vec<f64> =
            sorted.iter().copied().filter(|v| *v < lo_fence || *v > hi_fence).collect();
        let inliers: Vec<f64> =
            sorted.iter().copied().filter(|v| *v >= lo_fence && *v <= hi_fence).collect();
        let (min, max) = if inliers.is_empty() {
            (sorted[0], sorted[sorted.len() - 1])
        } else {
            (inliers[0], inliers[inliers.len() - 1])
        };
        // Degenerate-whisker convention: when an entire quartile consists of
        // outliers the whisker collapses onto the box edge rather than
        // crossing it.
        let min = min.min(q1);
        let max = max.max(q3);
        FiveNumber { min, q1, median, q3, max, outliers, nan_samples }
    }

    /// Formats the summary as a compact table cell. NaN exclusions are
    /// appended only when present, keeping clean tables unchanged.
    pub fn row(&self) -> String {
        let mut row = format!(
            "min={:.2} q1={:.2} med={:.2} q3={:.2} max={:.2} outliers={}",
            self.min,
            self.q1,
            self.median,
            self.q3,
            self.max,
            self.outliers.len()
        );
        if self.nan_samples > 0 {
            row.push_str(&format!(" nan={}", self.nan_samples));
        }
        row
    }
}

/// Arithmetic mean.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample standard deviation (n−1).
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64).sqrt()
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests assert values produced by exact f64 arithmetic on small literals (window steps, order statistics of integer samples), so strict float comparison is the intended precision"
)]
mod tests {
    use super::*;

    #[test]
    fn five_number_of_known_set() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        let f = FiveNumber::of(&v);
        assert_eq!(f.median, 3.0);
        assert_eq!(f.q1, 2.0);
        assert_eq!(f.q3, 4.0);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.max, 5.0);
        assert!(f.outliers.is_empty());
    }

    #[test]
    fn outlier_detection_uses_iqr_fences() {
        let mut v = vec![10.0; 20];
        for (i, x) in v.iter_mut().enumerate() {
            *x += i as f64 * 0.1;
        }
        v.push(100.0); // far outlier
        let f = FiveNumber::of(&v);
        assert_eq!(f.outliers, vec![100.0]);
        assert!(f.max < 100.0);
    }

    #[test]
    fn single_value_summary() {
        let f = FiveNumber::of(&[7.0]);
        assert_eq!(f.min, 7.0);
        assert_eq!(f.median, 7.0);
        assert_eq!(f.max, 7.0);
    }

    #[test]
    fn mean_and_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.138).abs() < 1e-3);
    }

    #[test]
    fn row_is_nonempty() {
        assert!(!FiveNumber::of(&[1.0, 2.0]).row().is_empty());
    }

    #[test]
    #[should_panic]
    fn empty_panics() {
        let _ = FiveNumber::of(&[]);
    }

    #[test]
    fn nan_samples_are_excluded_and_counted_not_fatal() {
        let v = [1.0, f64::NAN, 2.0, 3.0, f64::NAN, 4.0, 5.0];
        let f = FiveNumber::of(&v);
        assert_eq!(f.nan_samples, 2);
        assert_eq!(f.median, 3.0);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.max, 5.0);
        assert!(f.row().contains("nan=2"), "{}", f.row());
        // A clean set reports no exclusions and an unchanged row format.
        let clean = FiveNumber::of(&[1.0, 2.0]);
        assert_eq!(clean.nan_samples, 0);
        assert!(!clean.row().contains("nan="));
    }

    #[test]
    fn all_nan_set_yields_nan_summary_without_panicking() {
        let f = FiveNumber::of(&[f64::NAN, f64::NAN]);
        assert_eq!(f.nan_samples, 2);
        assert!(f.median.is_nan() && f.min.is_nan() && f.max.is_nan());
        assert!(f.outliers.is_empty());
    }

    #[test]
    fn infinities_sort_fine_with_total_cmp() {
        let f = FiveNumber::of(&[f64::NEG_INFINITY, 1.0, 2.0, f64::INFINITY]);
        assert_eq!(f.nan_samples, 0);
        assert_eq!(f.median, 1.5);
    }
}
