//! [`TraceSink`]: a bounded ring buffer of telemetry events with JSONL
//! export.

use crate::event::{Counter, TelemetryEvent};
use crate::TelemetrySink;
use faro_core::units::SimTimeMs;
use serde::Serialize;
use std::collections::{BTreeMap, VecDeque};

/// One recorded event with its simulation timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Simulation time of the event (serialized as `f64` seconds).
    pub at: SimTimeMs,
    /// The event.
    pub event: TelemetryEvent,
}

impl Serialize for TraceEntry {
    fn serialize_json(&self, out: &mut String) {
        serde::object!(out; at: self.at, event: self.event);
    }
}

/// A bounded ring buffer of [`TelemetryEvent`]s plus aggregated
/// counter totals.
///
/// Events beyond the capacity evict the oldest entries (the count of
/// evictions is kept, so truncation is visible rather than silent).
/// Counters are aggregated into totals rather than buffered — drops
/// arrive per-request and would instantly flood any ring. Samples and
/// spans are ignored; pair with an
/// [`AggregateSink`](crate::AggregateSink) via [`Tee`](crate::Tee)
/// when distributions matter.
///
/// Export is JSONL: one `{"at":<secs>,"event":{...}}` object per line,
/// byte-identical across seeded replays of the same run.
#[derive(Debug, Clone)]
pub struct TraceSink {
    capacity: usize,
    entries: VecDeque<TraceEntry>,
    evicted: u64,
    counters: BTreeMap<Counter, u64>,
}

/// Default ring capacity: a fig15-style 90-minute run emits one
/// decision record per 10 s tick (540) plus bounded lifecycle events.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl Default for TraceSink {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceSink {
    /// A sink with the default ring capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sink holding at most `capacity` events (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            entries: VecDeque::new(),
            evicted: 0,
            counters: BTreeMap::new(),
        }
    }

    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no event has been recorded (or all were evicted).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Events evicted from the ring because it was full.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The buffered entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Total for one counter (0 when never incremented).
    pub fn counter_total(&self, counter: Counter) -> u64 {
        self.counters.get(&counter).copied().unwrap_or(0)
    }

    /// All non-zero counter totals in stable order.
    pub fn counters(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        self.counters.iter().map(|(&c, &v)| (c, v))
    }

    /// Serializes the buffered events as JSONL, one entry per line
    /// (trailing newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            entry.serialize_json(&mut out);
            out.push('\n');
        }
        out
    }
}

impl TelemetrySink for TraceSink {
    fn event(&mut self, at: SimTimeMs, event: &TelemetryEvent) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back(TraceEntry {
            at,
            event: event.clone(),
        });
    }

    fn counter(&mut self, _at: SimTimeMs, counter: Counter, delta: u64) {
        *self.counters.entry(counter).or_insert(0) += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_counts_evictions() {
        let mut sink = TraceSink::with_capacity(2);
        for i in 0..5u64 {
            sink.event(
                SimTimeMs::from_secs(i as f64),
                &TelemetryEvent::ReplicaReady { job: 0, replica: i },
            );
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.evicted(), 3);
        let kept: Vec<u64> = sink
            .entries()
            .map(|e| match e.event {
                TelemetryEvent::ReplicaReady { replica, .. } => replica,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4]);
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut sink = TraceSink::default();
        sink.event(
            SimTimeMs::from_secs(10.0),
            &TelemetryEvent::NodeOutageBegan { quota: 4 },
        );
        sink.event(
            SimTimeMs::from_secs(20.0),
            &TelemetryEvent::NodeOutageEnded { quota: 8 },
        );
        let jsonl = sink.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"at":10,"event":{"NodeOutageBegan":{"quota":4}}}"#
        );
        assert!(jsonl.ends_with('\n'));
    }

    #[test]
    fn counters_aggregate_without_flooding_the_ring() {
        let mut sink = TraceSink::with_capacity(4);
        for _ in 0..1000 {
            sink.counter(SimTimeMs::ZERO, Counter::TailDrops, 1);
        }
        assert_eq!(sink.counter_total(Counter::TailDrops), 1000);
        assert_eq!(sink.counter_total(Counter::ExplicitDrops), 0);
        assert!(sink.is_empty(), "counters never occupy ring slots");
    }
}
