//! Empirical cumulative distribution functions.

/// An empirical CDF over a finite sample.
///
/// Used for every "CDF over 160 clients" plot in the paper's Section IV-B.
///
/// # Example
///
/// ```
/// use flare_metrics::Cdf;
///
/// let cdf = Cdf::from_samples(vec![3.0, 1.0, 2.0, 4.0]);
/// assert_eq!(cdf.fraction_at_most(2.0), 0.5);
/// assert_eq!(cdf.percentile(50.0), 2.0);
/// assert_eq!(cdf.min(), 1.0);
/// assert_eq!(cdf.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (any order).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or contains non-finite values.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "CDF needs at least one sample");
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "CDF samples must be finite"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF is empty (never true for a constructed CDF).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The empirical `P(X ≤ x)`.
    pub fn fraction_at_most(&self, x: f64) -> f64 {
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `p`-th percentile (nearest-rank), `p ∈ [0, 100]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
        if p == 0.0 {
            return self.sorted[0];
        }
        let rank = ((p / 100.0) * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// The median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty")
    }

    /// Mean of the sample.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fraction_at_most_brackets() {
        let cdf = Cdf::from_samples(vec![1.0, 2.0, 2.0, 5.0]);
        assert_eq!(cdf.fraction_at_most(0.5), 0.0);
        assert_eq!(cdf.fraction_at_most(1.0), 0.25);
        assert_eq!(cdf.fraction_at_most(2.0), 0.75);
        assert_eq!(cdf.fraction_at_most(10.0), 1.0);
    }

    #[test]
    fn percentiles() {
        let cdf = Cdf::from_samples((1..=100).map(f64::from).collect());
        assert_eq!(cdf.percentile(0.0), 1.0);
        assert_eq!(cdf.percentile(1.0), 1.0);
        assert_eq!(cdf.percentile(50.0), 50.0);
        assert_eq!(cdf.percentile(100.0), 100.0);
        assert_eq!(cdf.median(), 50.0);
    }

    #[test]
    fn summary_stats() {
        let cdf = Cdf::from_samples(vec![4.0, 1.0, 7.0]);
        assert_eq!(cdf.min(), 1.0);
        assert_eq!(cdf.max(), 7.0);
        assert_eq!(cdf.mean(), 4.0);
        assert_eq!(cdf.len(), 3);
        assert!(!cdf.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_sample_panics() {
        let _ = Cdf::from_samples(vec![]);
    }

    #[test]
    fn single_sample_is_every_statistic() {
        let cdf = Cdf::from_samples(vec![42.0]);
        assert_eq!(cdf.len(), 1);
        assert_eq!(cdf.min(), 42.0);
        assert_eq!(cdf.max(), 42.0);
        assert_eq!(cdf.mean(), 42.0);
        assert_eq!(cdf.median(), 42.0);
        assert_eq!(cdf.percentile(0.0), 42.0);
        assert_eq!(cdf.percentile(100.0), 42.0);
        assert_eq!(cdf.fraction_at_most(41.9), 0.0);
        assert_eq!(cdf.fraction_at_most(42.0), 1.0);
    }

    #[test]
    fn duplicate_heavy_samples_keep_percentiles_on_samples() {
        let cdf = Cdf::from_samples(vec![5.0, 5.0, 5.0, 5.0, 9.0]);
        assert_eq!(cdf.median(), 5.0);
        assert_eq!(cdf.percentile(80.0), 5.0);
        assert_eq!(cdf.percentile(81.0), 9.0);
        assert_eq!(cdf.fraction_at_most(5.0), 0.8);
        assert_eq!(cdf.fraction_at_most(8.999), 0.8);
        assert_eq!(cdf.fraction_at_most(9.0), 1.0);
    }

    #[test]
    fn tiny_percentiles_round_up_to_the_first_sample() {
        // Nearest-rank: any p > 0 maps to rank ceil(p/100 * n) >= 1.
        let cdf = Cdf::from_samples((1..=10).map(f64::from).collect());
        assert_eq!(cdf.percentile(0.001), 1.0);
        assert_eq!(cdf.percentile(10.0), 1.0);
        assert_eq!(cdf.percentile(10.1), 2.0);
        assert_eq!(cdf.percentile(99.999), 10.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_sample_panics() {
        let _ = Cdf::from_samples(vec![1.0, f64::NAN]);
    }

    proptest! {
        #[test]
        fn cdf_is_monotone_everywhere(samples in prop::collection::vec(-1e3f64..1e3, 1..40)) {
            let cdf = Cdf::from_samples(samples);
            let mut prev = 0.0;
            let mut x = cdf.min() - 1.0;
            while x <= cdf.max() + 1.0 {
                let f = cdf.fraction_at_most(x);
                prop_assert!(f >= prev);
                prev = f;
                x += 0.37;
            }
            prop_assert_eq!(cdf.fraction_at_most(cdf.max()), 1.0);
        }

        #[test]
        fn percentile_is_a_sample(samples in prop::collection::vec(-1e3f64..1e3, 1..40), p in 0.0f64..100.0) {
            let cdf = Cdf::from_samples(samples.clone());
            let v = cdf.percentile(p);
            prop_assert!(samples.contains(&v));
        }
    }
}
