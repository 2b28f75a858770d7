//! `(time, value)` traces for the Figure 4/5-style time-series plots.

/// A time series with monotone timestamps (seconds).
///
/// # Example
///
/// ```
/// use flare_metrics::TimeSeries;
///
/// let mut ts = TimeSeries::default();
/// ts.push(0.0, 200.0);
/// ts.push(10.0, 450.0);
/// ts.push(20.0, 790.0);
/// assert_eq!(ts.mean(), 480.0);
/// assert_eq!(ts.value_at(12.0), Some(450.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Reserves capacity for at least `additional` further samples, so
    /// callers with a known sample budget can keep `push` reallocation-free.
    pub fn reserve(&mut self, additional: usize) {
        self.points.reserve(additional);
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous sample or either value is not
    /// finite.
    pub fn push(&mut self, t: f64, value: f64) {
        assert!(t.is_finite() && value.is_finite(), "samples must be finite");
        if let Some(&(last_t, _)) = self.points.last() {
            assert!(t >= last_t, "timestamps must be non-decreasing");
        }
        self.points.push((t, value));
    }

    /// The raw points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the values (unweighted).
    ///
    /// # Panics
    ///
    /// Panics if the series is empty.
    pub fn mean(&self) -> f64 {
        assert!(!self.points.is_empty(), "mean of an empty series");
        self.points.iter().map(|(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// The last value at or before time `t` (step interpolation), `None`
    /// before the first sample.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        let idx = self.points.partition_point(|&(pt, _)| pt <= t);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[(f64, f64)]) -> TimeSeries {
        let mut ts = TimeSeries::default();
        for &(t, v) in vals {
            ts.push(t, v);
        }
        ts
    }

    #[test]
    fn push_and_accessors() {
        let ts = series(&[(0.0, 1.0), (1.0, 2.0)]);
        assert_eq!(ts.len(), 2);
        assert!(!ts.is_empty());
        assert_eq!(ts.points(), &[(0.0, 1.0), (1.0, 2.0)]);
    }

    #[test]
    fn step_interpolation() {
        let ts = series(&[(10.0, 1.0), (20.0, 2.0)]);
        assert_eq!(ts.value_at(5.0), None);
        assert_eq!(ts.value_at(10.0), Some(1.0));
        assert_eq!(ts.value_at(19.9), Some(1.0));
        assert_eq!(ts.value_at(20.0), Some(2.0));
        assert_eq!(ts.value_at(100.0), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::default();
        ts.push(5.0, 1.0);
        ts.push(4.0, 1.0);
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let ts = series(&[(1.0, 1.0), (1.0, 2.0)]);
        assert_eq!(ts.value_at(1.0), Some(2.0));
    }
}
