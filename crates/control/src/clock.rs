//! The pacing abstraction that decouples the reconciler from time.

use faro_core::units::SimTimeMs;
use faro_telemetry::TelemetrySink;

/// Paces reconcile rounds.
///
/// The reconciler never sleeps or pumps events itself; it asks the
/// clock to advance to the next round. A simulated clock drains its
/// discrete-event queue until the next policy tick pops; a wall-clock
/// backend sleeps until the next interval boundary.
///
/// [`Clock::now`] is the run's *logical* timeline — round-aligned
/// [`SimTimeMs`] instants that stamp snapshots and telemetry
/// identically whether the backend is simulated or live. The host's
/// physical clock is deliberately not on this trait: a live backend
/// reads it as a [`WallTimeMs`](faro_core::units::WallTimeMs), which
/// has no conversion to [`SimTimeMs`], so a wall-clock read can never
/// be mistaken for a logical instant.
pub trait Clock {
    /// Current time on the run's logical timeline.
    fn now(&self) -> SimTimeMs;

    /// Advances to the next reconcile round, returning its time, or
    /// `None` once the run horizon is reached (the reconciler then
    /// stops).
    fn advance(&mut self) -> Option<SimTimeMs>;

    /// Like [`Clock::advance`], additionally streaming whatever
    /// happens between rounds (drops, replica lifecycle, fault
    /// windows) into `sink`. The default ignores the sink; backends
    /// with between-round activity override it. Implementations must
    /// keep the state transition identical to `advance` — telemetry
    /// observes a run, it never steers one.
    fn advance_with(&mut self, sink: &mut dyn TelemetrySink) -> Option<SimTimeMs> {
        let _ = sink;
        self.advance()
    }
}
