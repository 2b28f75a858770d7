//! `(time, value)` traces for the Figure 4/5-style time-series plots.

/// A time series with monotone timestamps (seconds).
///
/// # Example
///
/// ```
/// use flare_metrics::TimeSeries;
///
/// let mut ts = TimeSeries::new("video rate (kbps)");
/// ts.push(0.0, 200.0);
/// ts.push(10.0, 450.0);
/// ts.push(20.0, 790.0);
/// assert_eq!(ts.mean(), 480.0);
/// assert_eq!(ts.value_at(12.0), Some(450.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    label: String,
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a label for table/plot output.
    pub fn new(label: impl Into<String>) -> Self {
        TimeSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// The series label.
    pub fn label(&self) -> &str {
        &self.label
    }

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

    /// Resamples onto a fixed `step` grid from the first to the last
    /// timestamp (step interpolation) — handy for aligning series before
    /// printing them side by side.
    ///
    /// # Panics
    ///
    /// Panics if the series is empty or `step` is not positive.
    pub fn resample(&self, step: f64) -> TimeSeries {
        assert!(!self.points.is_empty(), "cannot resample an empty series");
        assert!(step > 0.0, "step must be positive");
        let mut out = TimeSeries::new(self.label.clone());
        let start = self.points[0].0;
        let end = self.points.last().expect("non-empty").0;
        let mut t = start;
        while t <= end + 1e-9 {
            out.push(t, self.value_at(t).expect("t >= start"));
            t += step;
        }
        out
    }

    /// Counts transitions to a different value — the "number of bitrate
    /// changes" metric when the series carries per-segment rates.
    pub fn change_count(&self) -> usize {
        self.points.windows(2).filter(|w| w[0].1 != w[1].1).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(vals: &[(f64, f64)]) -> TimeSeries {
        let mut ts = TimeSeries::new("test");
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
        assert_eq!(ts.label(), "test");
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
    fn resample_grid() {
        let ts = series(&[(0.0, 1.0), (10.0, 2.0), (30.0, 3.0)]);
        let r = ts.resample(10.0);
        assert_eq!(
            r.points(),
            &[(0.0, 1.0), (10.0, 2.0), (20.0, 2.0), (30.0, 3.0)]
        );
    }

    #[test]
    fn change_counting() {
        let ts = series(&[(0.0, 1.0), (1.0, 1.0), (2.0, 2.0), (3.0, 1.0), (4.0, 1.0)]);
        assert_eq!(ts.change_count(), 2);
        assert_eq!(series(&[(0.0, 5.0)]).change_count(), 0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new("x");
        ts.push(5.0, 1.0);
        ts.push(4.0, 1.0);
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let ts = series(&[(1.0, 1.0), (1.0, 2.0)]);
        assert_eq!(ts.value_at(1.0), Some(2.0));
    }

    #[test]
    fn resample_single_point_yields_that_point() {
        let ts = series(&[(7.0, 3.0)]);
        let r = ts.resample(10.0);
        assert_eq!(r.points(), &[(7.0, 3.0)]);
        assert_eq!(r.label(), "test");
    }

    #[test]
    fn resample_includes_an_endpoint_reached_exactly() {
        // Span 20 s with a 5 s step: the grid's last point lands exactly on
        // the final sample despite accumulated floating-point addition.
        let ts = series(&[(0.0, 1.0), (20.0, 2.0)]);
        let r = ts.resample(5.0);
        assert_eq!(
            r.points(),
            &[
                (0.0, 1.0),
                (5.0, 1.0),
                (10.0, 1.0),
                (15.0, 1.0),
                (20.0, 2.0)
            ]
        );
    }

    #[test]
    fn resample_stops_short_of_an_unreached_endpoint() {
        // Span 9 s with a 4 s step: 0, 4, 8 — the grid never overshoots the
        // last timestamp.
        let ts = series(&[(0.0, 1.0), (9.0, 2.0)]);
        let r = ts.resample(4.0);
        assert_eq!(r.points(), &[(0.0, 1.0), (4.0, 1.0), (8.0, 1.0)]);
    }

    #[test]
    fn resample_grid_starts_at_the_first_timestamp() {
        // A series that starts late resamples from its own start, not 0.
        let ts = series(&[(3.0, 1.0), (13.0, 2.0)]);
        let r = ts.resample(5.0);
        assert_eq!(r.points(), &[(3.0, 1.0), (8.0, 1.0), (13.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "cannot resample an empty series")]
    fn resample_empty_panics() {
        let _ = TimeSeries::new("x").resample(1.0);
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn resample_zero_step_panics() {
        let _ = series(&[(0.0, 1.0)]).resample(0.0);
    }
}
