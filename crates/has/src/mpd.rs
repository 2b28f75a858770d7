//! The Media Presentation Description (MPD).
//!
//! FLARE's streaming flow starts when the client fetches the MPD, parses the
//! available encodings, and — crucially for privacy — sends the OneAPI
//! server *only* the bitrate list, "after removing any information that can
//! be used to identify the video" (Section III-A). [`Mpd`] models the
//! parsed manifest as the player uses it: encodings and segment timing,
//! nothing that names the video. What the plugin discloses is
//! `flare_core::ClientInfo`.

use flare_sim::TimeDelta;

use crate::ladder::BitrateLadder;

/// A parsed media presentation: the encodings and segment timing of one
/// video.
///
/// # Example
///
/// ```
/// use flare_has::{BitrateLadder, Mpd};
/// use flare_sim::TimeDelta;
///
/// let mpd = Mpd::new(
///     BitrateLadder::testbed(),
///     TimeDelta::from_secs(10),
///     TimeDelta::from_secs(600),
/// );
/// assert_eq!(mpd.segment_count(), 60);
/// assert_eq!(mpd.ladder().len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mpd {
    ladder: BitrateLadder,
    segment_duration: TimeDelta,
    media_duration: TimeDelta,
}

impl Mpd {
    /// Creates a manifest.
    ///
    /// # Panics
    ///
    /// Panics if the segment duration is zero or longer than the media, or
    /// if the media duration is zero.
    pub fn new(
        ladder: BitrateLadder,
        segment_duration: TimeDelta,
        media_duration: TimeDelta,
    ) -> Self {
        assert!(
            !segment_duration.is_zero(),
            "segment duration must be non-zero"
        );
        assert!(!media_duration.is_zero(), "media duration must be non-zero");
        assert!(
            segment_duration <= media_duration,
            "segments cannot outlast the media"
        );
        Mpd {
            ladder,
            segment_duration,
            media_duration,
        }
    }

    /// The available encodings.
    pub fn ladder(&self) -> &BitrateLadder {
        &self.ladder
    }

    /// Length of one segment (the paper simulates 10-second segments).
    pub fn segment_duration(&self) -> TimeDelta {
        self.segment_duration
    }

    /// Number of segments, rounding the final partial segment up.
    pub fn segment_count(&self) -> u64 {
        let whole = self.media_duration / self.segment_duration;
        let exact = whole * self.segment_duration.as_millis() == self.media_duration.as_millis();
        if exact {
            whole
        } else {
            whole + 1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mpd(seg_s: u64, media_s: u64) -> Mpd {
        Mpd::new(
            BitrateLadder::simulation(),
            TimeDelta::from_secs(seg_s),
            TimeDelta::from_secs(media_s),
        )
    }

    #[test]
    fn segment_count_rounds_up() {
        assert_eq!(mpd(10, 600).segment_count(), 60);
        assert_eq!(mpd(10, 605).segment_count(), 61);
        assert_eq!(mpd(10, 10).segment_count(), 1);
    }

    #[test]
    fn accessors() {
        let m = mpd(10, 600);
        assert_eq!(m.segment_duration(), TimeDelta::from_secs(10));
        assert_eq!(m.ladder().len(), 6);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_segment_duration_panics() {
        let _ = mpd(0, 600);
    }

    #[test]
    #[should_panic(expected = "outlast")]
    fn segment_longer_than_media_panics() {
        let _ = mpd(20, 10);
    }
}
