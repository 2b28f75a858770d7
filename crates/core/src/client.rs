//! Client-side information a FLARE plugin shares with the OneAPI server.

use flare_has::{BitrateLadder, Level};
use flare_lte::FlowId;
use flare_sim::units::Rate;

/// Optional client preferences/constraints (Section II-B, "Incorporating
/// client information").
///
/// Every field is optional: privacy-wise, a client shares only what it
/// chooses to. The server folds whatever is present into the optimization
/// as additional constraints.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClientPrefs {
    /// Upper bound on the assigned bitrate — e.g. the client wants to limit
    /// mobile data cost, or its buffer is low and it wants to fill quickly.
    pub max_rate: Option<Rate>,
    /// Lower bound on the assigned level — e.g. a large screen refusing
    /// postage-stamp quality.
    pub min_level: Option<Level>,
    /// The client disclosed that the user is skimming (frequent seeks): the
    /// server assigns the minimum bitrate to avoid wasting radio resources.
    pub skimming: bool,
    /// Client-specific importance weight `β_u`, if disclosed (otherwise
    /// [`crate::FlareConfig::BETA`]).
    pub beta: Option<f64>,
    /// Client-specific screen parameter `θ_u`, if disclosed (otherwise
    /// [`crate::FlareConfig::THETA`]).
    pub theta: Option<Rate>,
}

/// Everything the server knows about one video client: what the plugin
/// sends when a video starts.
///
/// FLARE's privacy argument rests on what this carries: the flow (whose
/// identity comes from the bearer), the anonymized bitrate list of the
/// MPD, and whatever [`ClientPrefs`] the client opts to disclose. It has
/// no field for the video's title or URL.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientInfo {
    flow: FlowId,
    ladder: BitrateLadder,
    prefs: ClientPrefs,
}

impl ClientInfo {
    /// Registers a client by its flow and (anonymized) bitrate ladder.
    pub fn new(flow: FlowId, ladder: BitrateLadder) -> Self {
        ClientInfo {
            flow,
            ladder,
            prefs: ClientPrefs::default(),
        }
    }

    /// Attaches preferences.
    pub fn with_prefs(mut self, prefs: ClientPrefs) -> Self {
        self.prefs = prefs;
        self
    }

    /// The client's downlink flow.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The available encodings.
    pub fn ladder(&self) -> &BitrateLadder {
        &self.ladder
    }

    /// The disclosed preferences.
    pub fn prefs(&self) -> &ClientPrefs {
        &self.prefs
    }

    /// The highest ladder level this client may be assigned, combining the
    /// ladder with any disclosed rate cap or skimming signal.
    pub fn max_allowed_level(&self) -> Level {
        if self.prefs.skimming {
            return self.ladder.lowest();
        }
        match self.prefs.max_rate {
            Some(cap) => self.ladder.highest_at_most_or_lowest(cap),
            None => self.ladder.highest(),
        }
    }

    /// The lowest ladder level this client accepts (clamped to the maximum
    /// allowed, so constraints can never cross).
    pub fn min_allowed_level(&self) -> Level {
        let lo = self.prefs.min_level.unwrap_or_else(|| self.ladder.lowest());
        lo.min(self.max_allowed_level())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flare_lte::channel::StaticChannel;
    use flare_lte::scheduler::ProportionalFair;
    use flare_lte::{CellConfig, ENodeB, FlowClass, Itbs};

    fn flow() -> FlowId {
        let mut enb = ENodeB::new(CellConfig::default(), Box::new(ProportionalFair::default()));
        enb.add_flow(FlowClass::Video, Box::new(StaticChannel::new(Itbs::new(5))))
    }

    #[test]
    fn default_bounds_span_the_ladder() {
        let info = ClientInfo::new(flow(), BitrateLadder::testbed());
        assert_eq!(info.min_allowed_level(), Level::new(0));
        assert_eq!(info.max_allowed_level(), Level::new(7));
    }

    #[test]
    fn rate_cap_limits_max_level() {
        let prefs = ClientPrefs {
            max_rate: Some(Rate::from_kbps(800.0)),
            ..ClientPrefs::default()
        };
        let info = ClientInfo::new(flow(), BitrateLadder::testbed()).with_prefs(prefs);
        // Highest testbed rate <= 800 kbps is 790 kbps (level 3).
        assert_eq!(info.max_allowed_level(), Level::new(3));
    }

    #[test]
    fn skimming_pins_to_lowest() {
        let prefs = ClientPrefs {
            skimming: true,
            min_level: Some(Level::new(4)),
            ..ClientPrefs::default()
        };
        let info = ClientInfo::new(flow(), BitrateLadder::testbed()).with_prefs(prefs);
        assert_eq!(info.max_allowed_level(), Level::new(0));
        // min is clamped down so constraints never cross.
        assert_eq!(info.min_allowed_level(), Level::new(0));
    }

    #[test]
    fn min_level_floor_holds() {
        let prefs = ClientPrefs {
            min_level: Some(Level::new(2)),
            ..ClientPrefs::default()
        };
        let info = ClientInfo::new(flow(), BitrateLadder::testbed()).with_prefs(prefs);
        assert_eq!(info.min_allowed_level(), Level::new(2));
    }

    #[test]
    fn client_info_carries_no_identifying_information() {
        let info = ClientInfo::new(flow(), BitrateLadder::testbed());
        let dump = format!("{info:?}");
        // Bitrates and disclosed preferences only: no title/url fields
        // exist in the schema at all.
        assert!(!dump.contains("title"));
        assert!(!dump.contains("url"));
    }
}
