//! The pacing abstraction that decouples the reconciler from time.

use faro_core::units::{SimTimeMs, WallTimeMs};
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
/// physical clock is deliberately not on this trait: backends that
/// have one implement [`WallClock`] separately, so a wall-clock read
/// can never be mistaken for a logical instant.
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

/// Access to the host's physical clock, split off from [`Clock`].
///
/// `Clock::now` used to be the only time accessor, which conflated
/// two timelines: the deterministic round-aligned one policies reason
/// about, and the host's wall clock a live deployment pacing sleeps
/// and latency gates against. Backends with a real clock implement
/// this trait *in addition to* [`Clock`]; purely simulated backends
/// do not implement it at all, so simulated code cannot even ask for
/// wall time. The return type is [`WallTimeMs`], which has no
/// conversion to [`SimTimeMs`] — the compiler stops a wall-clock
/// milli from ever entering sim-time arithmetic.
pub trait WallClock {
    /// The host's physical clock, as milliseconds since the Unix
    /// epoch. The trait does not promise monotonicity — an
    /// implementor that reads the host clock on every call steps when
    /// the host clock does — so use it for tagging and gating, never
    /// for ordering rounds. `faro-cluster`'s `HttpBackend` (and the
    /// clock its `ClusterServer` runs cold starts on) reads the epoch
    /// offset once and adds monotonic elapsed time, so those two never
    /// decrease.
    fn wall_now(&self) -> WallTimeMs;
}
