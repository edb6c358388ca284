//! The discrete-event queue.
//!
//! Events are ordered by microsecond timestamp with a monotone sequence
//! number as the tiebreaker, making the simulation fully deterministic.

use faro_core::types::JobId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in microseconds.
pub type Micros = u64;

/// Converts seconds to [`Micros`] (saturating).
pub fn micros(seconds: f64) -> Micros {
    if seconds.is_nan() || seconds <= 0.0 {
        return 0;
    }
    nearest(seconds * 1e6)
}

/// `x.round()` as a `u64` for positive `x`, saturating. Baseline x86-64
/// has no `roundsd`, so `f64::round` is a libm call, and this runs once
/// per scheduled completion and cold start.
fn nearest(x: f64) -> u64 {
    /// From here up every `f64` is whole.
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let whole = x as u64; // Truncates; saturates from 2^64 up.
    if x < TWO_52 {
        // `whole as f64` and the difference are both exact here.
        whole + u64::from(x - whole as f64 >= 0.5)
    } else {
        whole
    }
}

/// Converts [`Micros`] to seconds.
pub fn seconds(t: Micros) -> f64 {
    t as f64 / 1e6
}

/// A simulation event.
///
/// Request arrivals are not heap events: the simulator keeps each
/// job's current-minute arrivals in a sorted per-job calendar and
/// merges the earliest calendar entry with [`EventQueue::peek_time`]
/// at the top of its loop, so the heap only ever holds completions
/// and control events.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A replica finishes its current request.
    Completion {
        /// Owning job.
        job: JobId,
        /// Replica identifier within the job.
        replica: u64,
        /// Service time (seconds) sampled at dispatch. Carried in the
        /// event so the request's measured processing time is the time
        /// it actually took, without a second distribution draw at
        /// completion.
        service: f64,
    },
    /// A cold-starting replica becomes ready.
    ReplicaReady {
        /// Owning job.
        job: JobId,
        /// Replica identifier within the job.
        replica: u64,
    },
    /// Periodic policy invocation.
    PolicyTick,
    /// Minute boundary: flush per-minute metrics and schedule the next
    /// minute's arrivals.
    MinuteBoundary {
        /// Index of the minute that begins at this event.
        minute: usize,
    },
    /// Fault injection: a replica fails (see [`crate::faults`]). The
    /// event is a no-op when the replica no longer exists.
    ReplicaCrash {
        /// Owning job.
        job: JobId,
        /// Replica identifier within the job.
        replica: u64,
    },
    /// Fault injection: a correlated node outage begins, shrinking the
    /// effective quota and evicting replicas.
    NodeOutageStart,
    /// Fault injection: the node outage ends and the quota is restored.
    NodeOutageEnd,
}

/// `Event` is `Eq` despite the `f64` payload: `Completion::service` is
/// always a finite lognormal sample (never NaN), and the queue's
/// ordering ignores event contents entirely.
impl Eq for Event {}

/// Deterministic time-ordered event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(Micros, u64, EventBox)>>,
    seq: u64,
}

/// Wrapper giving events a total order (by insertion sequence only —
/// the tuple puts time and sequence first, so event content never
/// participates in comparisons that matter).
#[derive(Debug, Clone, PartialEq, Eq)]
struct EventBox(Event);

impl PartialOrd for EventBox {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EventBox {
    fn cmp(&self, _other: &Self) -> std::cmp::Ordering {
        // Ties on (time, seq) are impossible: seq is unique.
        std::cmp::Ordering::Equal
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: Micros, event: Event) {
        self.seq += 1;
        self.heap.push(Reverse((at, self.seq, EventBox(event))));
    }

    /// Pops the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(Micros, Event)> {
        self.heap.pop().map(|Reverse((t, _, e))| (t, e.0))
    }

    /// Timestamp of the earliest pending event without popping it.
    /// Lets the simulator merge the heap with its per-job arrival
    /// calendars: arrivals never enter the heap at all.
    #[inline]
    pub fn peek_time(&self) -> Option<Micros> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_roundtrip() {
        assert_eq!(micros(1.5), 1_500_000);
        assert_eq!(seconds(2_000_000), 2.0);
        assert_eq!(micros(-1.0), 0);
        assert_eq!(micros(0.0), 0);
    }

    /// What `nearest` replaced.
    fn by_round(x: f64) -> u64 {
        x.round().min(u64::MAX as f64) as u64
    }

    /// `micros` as it was written before `nearest`.
    fn micros_by_libm_round(seconds: f64) -> Micros {
        if seconds.is_nan() || seconds <= 0.0 {
            return 0;
        }
        by_round(seconds * 1e6)
    }

    #[test]
    fn nearest_is_round_on_every_positive_input() {
        let two_52 = 4_503_599_627_370_496.0f64;
        let mut xs = vec![
            0.49999999999999994,
            0.5,
            f64::MIN_POSITIVE,
            5e-324,
            1.0 - f64::EPSILON / 2.0,
            two_52 - 1.0,
            two_52 - 0.5,
            two_52,
            two_52 + 1.0,
            2.0 * two_52,
            1.8e19,
            u64::MAX as f64,
            3e19,
            f64::MAX,
            f64::INFINITY,
        ];
        for k in [
            0u64,
            1,
            2,
            3,
            1_000_000,
            86_400_000_000,
            (1 << 51) + 1,
            (1 << 52) - 1,
        ] {
            let k = k as f64;
            xs.extend([k + 0.5, k + 0.49999999999999994, k + 0.25, k + 0.75, k]);
            xs.extend([k + 0.5, k + 1.0].map(|x| f64::from_bits(x.to_bits() - 1)));
        }
        for x in xs {
            assert_eq!(nearest(x), by_round(x), "x = {x:e}");
        }
    }

    #[test]
    fn micros_is_what_libm_round_gave() {
        for s in [0.0, -0.0, -1.0, -1e-320, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(micros(s), 0, "{s}");
        }
        for s in [
            5e-324,
            1e-7,
            4.999_999_999e-7,
            5e-7,
            1.5,
            86_400.0,
            1.8e13,
            1e300,
            f64::INFINITY,
        ] {
            assert_eq!(micros(s), micros_by_libm_round(s), "{s:e}");
        }
        // Seeded values across the simulator's range (microseconds to
        // days) and across every exponent.
        let mut rng = faro_core::rng::SplitMix64::new(23);
        for case in 0..1_000_000u32 {
            let bits = rng.next_u64();
            let s = match case % 3 {
                0 => (bits >> 11) as f64 / (1u64 << 53) as f64 * 172_800.0,
                1 => (bits >> 40) as f64 / 1e6 + 0.5e-6,
                _ => f64::from_bits(bits),
            };
            assert_eq!(micros(s), micros_by_libm_round(s), "{s:e}");
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(300, Event::PolicyTick);
        q.push(
            100,
            Event::ReplicaReady {
                job: JobId::new(0),
                replica: 0,
            },
        );
        q.push(
            200,
            Event::ReplicaReady {
                job: JobId::new(1),
                replica: 0,
            },
        );
        let order: Vec<Micros> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![100, 200, 300]);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(
            50,
            Event::ReplicaReady {
                job: JobId::new(0),
                replica: 0,
            },
        );
        q.push(
            50,
            Event::ReplicaReady {
                job: JobId::new(1),
                replica: 0,
            },
        );
        q.push(
            50,
            Event::ReplicaReady {
                job: JobId::new(2),
                replica: 0,
            },
        );
        assert_eq!(q.peek_time(), Some(50));
        let jobs: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::ReplicaReady { job, .. } => job.index(),
                _ => usize::MAX,
            })
        })
        .collect();
        assert_eq!(jobs, vec![0, 1, 2]);
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, Event::PolicyTick);
        assert_eq!(q.len(), 1);
        let _ = q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }
}
