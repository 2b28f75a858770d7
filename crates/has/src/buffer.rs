//! The playback buffer: seconds of downloaded-but-unplayed media.

use flare_sim::TimeDelta;

/// Tracks buffered media.
///
/// Media is appended in whole segments and drained in real time while
/// playing. The paper's "average time that the buffer is underflowed"
/// metric is the player's ([`crate::PlayerStats::underflow_time`]), which
/// also counts the stalled ticks spent waiting to resume.
///
/// # Example
///
/// ```
/// use flare_has::PlaybackBuffer;
/// use flare_sim::TimeDelta;
///
/// let mut b = PlaybackBuffer::new();
/// b.push(TimeDelta::from_secs(10));
/// let starved = b.drain(TimeDelta::from_secs(4));
/// assert_eq!(b.level(), TimeDelta::from_secs(6));
/// assert_eq!(starved, TimeDelta::ZERO);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlaybackBuffer {
    level: TimeDelta,
}

impl PlaybackBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        PlaybackBuffer::default()
    }

    /// Seconds of media currently buffered.
    pub fn level(&self) -> TimeDelta {
        self.level
    }

    /// Appends `media` (one downloaded segment).
    pub fn push(&mut self, media: TimeDelta) {
        self.level += media;
    }

    /// Plays back `wall` time of media, returning how much of that time was
    /// spent starved (buffer empty).
    pub fn drain(&mut self, wall: TimeDelta) -> TimeDelta {
        let played = self.level.min(wall);
        self.level -= played;
        wall - played
    }

    /// Whether the buffer is completely empty.
    pub fn is_empty(&self) -> bool {
        self.level.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_and_drain() {
        let mut b = PlaybackBuffer::new();
        b.push(TimeDelta::from_secs(10));
        b.push(TimeDelta::from_secs(10));
        assert_eq!(b.level(), TimeDelta::from_secs(20));
        assert_eq!(b.drain(TimeDelta::from_secs(5)), TimeDelta::ZERO);
        assert_eq!(b.level(), TimeDelta::from_secs(15));
    }

    #[test]
    fn starvation_is_accounted() {
        let mut b = PlaybackBuffer::new();
        b.push(TimeDelta::from_secs(2));
        let starved = b.drain(TimeDelta::from_secs(5));
        assert_eq!(starved, TimeDelta::from_secs(3));
        assert!(b.is_empty());
        // A drain while empty is starved throughout.
        assert_eq!(b.drain(TimeDelta::from_secs(1)), TimeDelta::from_secs(1));
    }

    #[test]
    fn empty_buffer_reports_empty() {
        let b = PlaybackBuffer::new();
        assert!(b.is_empty());
        assert_eq!(b.level(), TimeDelta::ZERO);
    }

    proptest! {
        #[test]
        fn conservation_of_media(
            pushes in prop::collection::vec(1u64..30, 0..20),
            drains in prop::collection::vec(1u64..30, 0..20),
        ) {
            let mut b = PlaybackBuffer::new();
            let mut pushed = 0;
            let mut drained_wall = 0;
            let mut starved = 0;
            for p in &pushes { b.push(TimeDelta::from_secs(*p)); pushed += p; }
            for d in &drains {
                starved += b.drain(TimeDelta::from_secs(*d)).as_millis() / 1000;
                drained_wall += d;
            }
            // level = pushed - (wall - starved); everything in whole seconds.
            let played = drained_wall - starved;
            prop_assert_eq!(b.level().as_millis() / 1000, pushed - played);
        }
    }
}
