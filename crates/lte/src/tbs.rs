//! Transport block sizes: the iTbs → bits-per-resource-block mapping.
//!
//! The paper's femtocell exposes an "iTbs Override Module" that emulates
//! time-varying link bandwidth by forcing the transport block size index
//! (iTbs) of a UE; each index corresponds to a modulation and coding scheme
//! per 3GPP TS 36.213. We embed the 1-PRB column of TS 36.213 Table
//! 7.1.7.2.1-1 and scale linearly in the number of allocated PRBs.
//!
//! *Substitution note (see DESIGN.md):* the real TBS table is mildly
//! super-linear in `n_prb`; the linear approximation errs by < 10% and keeps
//! the per-TTI scheduler exact-integer and fast. A fixed spatial-multiplexing
//! gain of 2 models 2×2 MIMO so that cell capacities land in the range the
//! paper's experiments exhibit.

use std::fmt;

use flare_sim::units::Rate;
use flare_sim::TTI;

/// The largest valid iTbs index (3GPP TS 36.213 Rel-8 defines 0..=26).
pub const ITBS_MAX: u8 = 26;

/// Transport block size in bits for one PRB over one TTI, per iTbs index.
/// Source: 3GPP TS 36.213 Table 7.1.7.2.1-1, column N_PRB = 1.
pub(crate) const TBS_1PRB_BITS: [u32; 27] = [
    16, 24, 32, 40, 56, 72, 88, 104, 120, 136, 144, 176, 208, 224, 256, 280, 328, 336, 376, 408,
    440, 488, 520, 552, 584, 616, 712,
];

/// A transport block size index (modulation-and-coding operating point).
///
/// # Example
///
/// ```
/// use flare_lte::Itbs;
///
/// let good = Itbs::new(12);
/// let bad = Itbs::new(2);
/// assert!(good > bad);
/// assert_eq!(good.index(), 12);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Itbs(u8);

impl Itbs {
    /// Creates an iTbs index.
    ///
    /// # Panics
    ///
    /// Panics if `index > ITBS_MAX`.
    pub fn new(index: u8) -> Self {
        assert!(
            index <= ITBS_MAX,
            "iTbs index {index} out of range 0..={ITBS_MAX}"
        );
        Itbs(index)
    }

    /// Creates an iTbs index, clamping out-of-range values to `ITBS_MAX`.
    pub fn saturating_new(index: u8) -> Self {
        Itbs(index.min(ITBS_MAX))
    }

    /// Returns the raw index.
    pub fn index(self) -> u8 {
        self.0
    }
}

impl fmt::Debug for Itbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "iTbs{}", self.0)
    }
}

impl fmt::Display for Itbs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Multiplier on the single-layer TBS, modelling spatial multiplexing: 2×2
/// MIMO, the JL-620's configuration (see DESIGN.md's testbed calibration).
const SPATIAL_MULTIPLEXING: f64 = 2.0;

/// Maps an iTbs operating point to deliverable bits per resource block
/// under 2×2 MIMO.
///
/// # Example
///
/// ```
/// use flare_lte::{Itbs, LinkAdaptation};
/// use flare_sim::units::Rate;
///
/// let la = LinkAdaptation::default();
/// // Cell capacity at iTbs 12 with 50 RBs/TTI and 2x MIMO:
/// let cap = la.cell_capacity(Itbs::new(12), 50);
/// assert!((cap.as_mbps() - 20.8).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkAdaptation {
    /// `TBS_1PRB_BITS[i] * SPATIAL_MULTIPLEXING`, precomputed once at
    /// construction so the per-TTI path is a plain indexed load.
    scaled_bits: [f64; TBS_1PRB_BITS.len()],
}

impl LinkAdaptation {
    /// Deliverable bits for one PRB over one TTI at the given operating point.
    pub fn bits_per_rb(&self, itbs: Itbs) -> f64 {
        self.scaled_bits[usize::from(itbs.0)]
    }

    /// The downlink rate sustained if a UE at `itbs` received all `n_rb` RBs
    /// every TTI.
    pub fn cell_capacity(&self, itbs: Itbs, n_rb: u32) -> Rate {
        let bits_per_tti = self.bits_per_rb(itbs) * f64::from(n_rb);
        Rate::from_bps(bits_per_tti / TTI.as_secs_f64())
    }
}

impl Default for LinkAdaptation {
    fn default() -> Self {
        let mut scaled_bits = [0.0; TBS_1PRB_BITS.len()];
        for (scaled, &bits) in scaled_bits.iter_mut().zip(TBS_1PRB_BITS.iter()) {
            *scaled = f64::from(bits) * SPATIAL_MULTIPLEXING;
        }
        LinkAdaptation { scaled_bits }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_is_monotone_in_itbs() {
        for i in 1..=ITBS_MAX {
            assert!(
                TBS_1PRB_BITS[usize::from(i)] >= TBS_1PRB_BITS[usize::from(i - 1)],
                "TBS must be non-decreasing in iTbs"
            );
        }
    }

    #[test]
    fn itbs_constructors() {
        assert_eq!(Itbs::new(0).index(), 0);
        assert_eq!(Itbs::new(26).index(), 26);
        assert_eq!(Itbs::saturating_new(200), Itbs::new(ITBS_MAX));
        assert_eq!(Itbs::saturating_new(5), Itbs::new(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn itbs_out_of_range_panics() {
        let _ = Itbs::new(27);
    }

    #[test]
    fn bits_per_rb_matches_table() {
        // Twice the single-layer TBS column: 2×2 MIMO.
        let la = LinkAdaptation::default();
        assert_eq!(la.bits_per_rb(Itbs::new(0)), 32.0);
        assert_eq!(la.bits_per_rb(Itbs::new(2)), 64.0);
        assert_eq!(la.bits_per_rb(Itbs::new(26)), 1424.0);
    }

    #[test]
    fn cell_capacity_at_paper_operating_points() {
        let la = LinkAdaptation::default();
        // Static testbed scenario: iTbs 2, 50 RBs -> 3.2 Mbps.
        let static_cap = la.cell_capacity(Itbs::new(2), 50);
        assert!((static_cap.as_mbps() - 3.2).abs() < 1e-9);
        // Peak of the dynamic cycle: iTbs 12 -> 20.8 Mbps.
        let peak = la.cell_capacity(Itbs::new(12), 50);
        assert!((peak.as_mbps() - 20.8).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn capacity_monotone_in_itbs_and_rbs(i in 0u8..26, n in 1u32..100) {
            let la = LinkAdaptation::default();
            let lo = la.cell_capacity(Itbs::new(i), n);
            let hi = la.cell_capacity(Itbs::new(i + 1), n);
            prop_assert!(hi >= lo);
            let wider = la.cell_capacity(Itbs::new(i), n + 1);
            prop_assert!(wider >= lo);
        }
    }
}
