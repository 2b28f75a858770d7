//! Sample summaries: mean, deviation, extrema.

/// Mean / standard deviation / extrema of a sample — the "average ± std"
/// bars of Figure 11.
///
/// # Example
///
/// ```
/// use flare_metrics::Summary;
///
/// let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert_eq!(s.mean, 5.0);
/// assert_eq!(s.std_dev, 2.0);
/// assert_eq!(s.min, 2.0);
/// assert_eq!(s.max, 9.0);
/// assert_eq!(s.count, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub count: usize,
}

impl Summary {
    /// Summarizes `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains non-finite entries.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary needs at least one value");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "summary values must be finite"
        );
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            mean,
            std_dev: var.sqrt(),
            min,
            max,
            count: values.len(),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2} ± {:.2} (n={})",
            self.mean, self.std_dev, self.count
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_value() {
        let s = Summary::of(&[3.5]);
        assert_eq!(s.mean, 3.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.min, 3.5);
        assert_eq!(s.max, 3.5);
        assert_eq!(s.count, 1);
    }

    #[test]
    fn display_format() {
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!(s.to_string(), "2.00 ± 1.00 (n=2)");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_panics() {
        let _ = Summary::of(&[]);
    }

    proptest! {
        #[test]
        fn invariants(values in prop::collection::vec(-1e6f64..1e6, 1..100)) {
            let s = Summary::of(&values);
            prop_assert!(s.min <= s.mean + 1e-9);
            prop_assert!(s.mean <= s.max + 1e-9);
            prop_assert!(s.std_dev >= 0.0);
            prop_assert!(s.std_dev <= (s.max - s.min) + 1e-9);
            prop_assert_eq!(s.count, values.len());
        }
    }
}
