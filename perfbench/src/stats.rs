//! Order statistics, the result line, and process-level measurements.

use std::fmt::Write as _;
use std::time::Duration;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, linearly interpolated
/// between the two nearest order statistics. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Durations as seconds.
pub fn secs(times: &[Duration]) -> Vec<f64> {
    times.iter().map(Duration::as_secs_f64).collect()
}

/// One named, unit-tagged value of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// What one workload run reports: operations attempted and failed, and its
/// metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The operations check out: at least one ran and none failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`. Values are printed with every digit Rust's
    /// shortest round-trip formatting gives; a non-finite value (a metric
    /// that could not be measured) is printed as `null`.
    pub fn to_json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_owned()
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Peak resident memory of this process in MB, from the kernel's `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: derives the `index`-th input seed of a run from its
/// command-line seed, so neighbouring command-line seeds share no inputs.
pub fn input_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut o = Outcome::default();
        o.record(true);
        o.metrics.push(Metric::new("setup_s", "s", 0.25));
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.record(false);
        assert!(!o.correct());
    }

    #[test]
    fn input_seeds_differ() {
        assert_ne!(input_seed(1, 0), input_seed(1, 1));
        assert_ne!(input_seed(1, 1), input_seed(2, 0));
        assert_eq!(input_seed(7, 3), input_seed(7, 3));
    }
}
