//! A composite quality-of-experience score.
//!
//! The paper evaluates with three separate quantities (average bitrate,
//! change count, underflow time) because HAS-over-TCP makes PSNR
//! meaningless. For ranking schemes it is often convenient to combine them
//! into the linear QoE model of the MPC line of work (Yin et al., SIGCOMM
//! 2015), which the paper cites:
//!
//! ```text
//! QoE = avg_bitrate − λ · avg_switch_magnitude − μ · rebuffer_ratio
//! ```
//!
//! with all rate terms in the same unit (kbps here) and the rebuffer term
//! scaled by a rate-denominated penalty.

/// Weights of the linear QoE model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeWeights {
    /// Weight on the average magnitude of bitrate switches (dimensionless;
    /// 1.0 in the MPC paper's "balanced" instantiation).
    pub lambda: f64,
    /// Penalty per unit of rebuffer ratio, in kbps (the MPC paper uses the
    /// ladder's top rate, making one fully stalled session worth the best
    /// encoding).
    pub mu_kbps: f64,
}

impl Default for QoeWeights {
    fn default() -> Self {
        QoeWeights {
            lambda: 1.0,
            mu_kbps: 3000.0,
        }
    }
}

/// Inputs of the QoE model for one client session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QoeInputs {
    /// Mean nominal bitrate over downloaded segments, kbps.
    pub average_rate_kbps: f64,
    /// Mean |rate(i+1) − rate(i)| over consecutive segments, kbps.
    pub average_switch_kbps: f64,
    /// Stalled time divided by session wall-clock time, in `[0, 1]`.
    pub rebuffer_ratio: f64,
}

impl QoeInputs {
    /// Builds the inputs from a per-segment nominal-rate sequence and the
    /// session's stall accounting.
    ///
    /// # Panics
    ///
    /// Panics if `session_secs` is not positive or `rates_kbps` is empty.
    pub fn from_session(rates_kbps: &[f64], stalled_secs: f64, session_secs: f64) -> Self {
        assert!(session_secs > 0.0, "session must have positive length");
        assert!(!rates_kbps.is_empty(), "session must have segments");
        let average_rate_kbps = rates_kbps.iter().sum::<f64>() / rates_kbps.len() as f64;
        let average_switch_kbps = if rates_kbps.len() < 2 {
            0.0
        } else {
            rates_kbps
                .windows(2)
                .map(|w| (w[1] - w[0]).abs())
                .sum::<f64>()
                / (rates_kbps.len() - 1) as f64
        };
        QoeInputs {
            average_rate_kbps,
            average_switch_kbps,
            rebuffer_ratio: (stalled_secs / session_secs).clamp(0.0, 1.0),
        }
    }
}

/// Evaluates the linear QoE score (kbps-denominated; higher is better).
///
/// # Example
///
/// ```
/// use flare_metrics::{qoe_score, QoeInputs, QoeWeights};
///
/// let smooth = QoeInputs { average_rate_kbps: 800.0, average_switch_kbps: 0.0, rebuffer_ratio: 0.0 };
/// let janky = QoeInputs { average_rate_kbps: 900.0, average_switch_kbps: 400.0, rebuffer_ratio: 0.05 };
/// assert!(qoe_score(smooth, QoeWeights::default()) > qoe_score(janky, QoeWeights::default()));
/// ```
pub fn qoe_score(inputs: QoeInputs, weights: QoeWeights) -> f64 {
    inputs.average_rate_kbps
        - weights.lambda * inputs.average_switch_kbps
        - weights.mu_kbps * inputs.rebuffer_ratio
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfect_session_scores_its_bitrate() {
        let inputs = QoeInputs::from_session(&[790.0; 60], 0.0, 600.0);
        assert_eq!(qoe_score(inputs, QoeWeights::default()), 790.0);
    }

    #[test]
    fn switches_and_stalls_cost() {
        let stable = QoeInputs::from_session(&[500.0; 10], 0.0, 100.0);
        let flappy = QoeInputs::from_session(
            &[
                250.0, 1000.0, 250.0, 1000.0, 250.0, 1000.0, 250.0, 1000.0, 250.0, 1000.0,
            ],
            0.0,
            100.0,
        );
        let stalled = QoeInputs::from_session(&[625.0; 10], 20.0, 100.0);
        let w = QoeWeights::default();
        // All three average 500–625 kbps, but only the stable one keeps it.
        assert!(qoe_score(stable, w) > qoe_score(flappy, w));
        assert!(qoe_score(stable, w) > qoe_score(stalled, w));
    }

    #[test]
    fn single_segment_has_no_switch_term() {
        let inputs = QoeInputs::from_session(&[300.0], 0.0, 10.0);
        assert_eq!(inputs.average_switch_kbps, 0.0);
    }

    #[test]
    fn rebuffer_ratio_clamps() {
        let inputs = QoeInputs::from_session(&[100.0], 999.0, 10.0);
        assert_eq!(inputs.rebuffer_ratio, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn zero_session_panics() {
        let _ = QoeInputs::from_session(&[100.0], 0.0, 0.0);
    }

    proptest! {
        #[test]
        fn score_is_monotone_in_each_input(
            rate in 100.0f64..3000.0,
            switch in 0.0f64..1000.0,
            ratio in 0.0f64..1.0,
        ) {
            let w = QoeWeights::default();
            let base = qoe_score(QoeInputs { average_rate_kbps: rate, average_switch_kbps: switch, rebuffer_ratio: ratio }, w);
            let better_rate = qoe_score(QoeInputs { average_rate_kbps: rate + 10.0, average_switch_kbps: switch, rebuffer_ratio: ratio }, w);
            let worse_switch = qoe_score(QoeInputs { average_rate_kbps: rate, average_switch_kbps: switch + 10.0, rebuffer_ratio: ratio }, w);
            prop_assert!(better_rate > base);
            prop_assert!(worse_switch < base);
            if ratio < 0.99 {
                let worse_stall = qoe_score(QoeInputs { average_rate_kbps: rate, average_switch_kbps: switch, rebuffer_ratio: ratio + 0.01 }, w);
                prop_assert!(worse_stall < base);
            }
        }

        #[test]
        fn switch_magnitude_is_translation_invariant(
            rates in prop::collection::vec(100.0f64..3000.0, 2..30),
            shift in 0.0f64..500.0,
        ) {
            let a = QoeInputs::from_session(&rates, 0.0, 100.0);
            let shifted: Vec<f64> = rates.iter().map(|r| r + shift).collect();
            let b = QoeInputs::from_session(&shifted, 0.0, 100.0);
            prop_assert!((a.average_switch_kbps - b.average_switch_kbps).abs() < 1e-9);
        }
    }
}
