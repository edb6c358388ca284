//! Wall time that cannot step.
//!
//! Cold-start deadlines are compared against the wall clock
//! ([`crate::model::ClusterModel`] settles a replica once its deadline
//! has passed), so a host clock that steps backwards would stall every
//! pending start until it caught up, and one that steps forwards would
//! skip them. A [`WallAnchor`] reads the host's epoch offset once and
//! adds monotonic elapsed time from then on: the value is still
//! "milliseconds since the Unix epoch" for tagging, and it never
//! decreases.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// The host clock, anchored at one instant.
#[derive(Debug)]
pub(crate) struct WallAnchor {
    epoch_ms: u64,
    at: Instant,
}

impl WallAnchor {
    /// Anchors to the host clock as it reads now.
    pub(crate) fn new() -> Self {
        let epoch_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Self {
            epoch_ms,
            at: Instant::now(),
        }
    }

    /// Milliseconds since the Unix epoch: the anchor plus the time
    /// elapsed on the monotonic clock.
    pub(crate) fn now_ms(&self) -> u64 {
        self.epoch_ms
            .saturating_add(self.at.elapsed().as_millis() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_never_decrease_and_track_elapsed_time() {
        let wall = WallAnchor::new();
        let first = wall.now_ms();
        assert!(first > 1_600_000_000_000, "ms since the epoch");
        let mut last = first;
        for _ in 0..10_000 {
            let now = wall.now_ms();
            assert!(now >= last, "{now} after {last}");
            last = now;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(wall.now_ms() >= first + 5, "a cold start does come due");
    }
}
