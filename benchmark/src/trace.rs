//! The traced run's in-memory span recorder.
//!
//! Spans are recorded by the benchmark's own wrappers ([`crate::timed`])
//! at each layer's public boundary: name, start, end, the span that was
//! open when this one began (its parent), and the control round it
//! belongs to. Nothing is written until the run ends; [`Trace::to_json`]
//! renders the whole run at exit.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name (`round`, `advance`, `observe`, ...).
    pub name: &'static str,
    /// Start, ns since the tracer epoch.
    pub start_ns: u64,
    /// End, ns since the tracer epoch.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Control round the span belongs to (0 = outside any round).
    pub round: u32,
}

impl Span {
    /// Wall time the span covers, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u32,
    counts: Vec<Count>,
}

/// One increment of a named count, stamped with the round it fell in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Count {
    /// What was counted.
    pub name: &'static str,
    /// Control round it was counted in (0 = outside any round).
    pub round: u32,
    /// By how much.
    pub delta: f64,
}

/// Shared handle the wrappers record into. The control loop is one
/// thread, so the mutex is never contended; it exists because policies,
/// predictors and admission strategies must be `Send`.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    /// A fresh recorder whose epoch is now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a wrapper panicked while recording a span")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the round id stamped on spans begun from here on.
    pub fn set_round(&self, round: u32) {
        self.state().round = round;
    }

    /// Opens a span and returns its index. The clock is read after the
    /// bookkeeping so the recorder's own cost stays outside the span.
    pub fn begin(&self, name: &'static str) -> u32 {
        let mut st = self.state();
        let id = st.spans.len() as u32;
        let parent = st.open.last().copied();
        let round = st.round;
        st.open.push(id);
        st.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            round,
        });
        let start = self.now_ns();
        st.spans[id as usize].start_ns = start;
        id
    }

    /// Closes span `id` (the clock is read before the bookkeeping).
    pub fn end(&self, id: u32) {
        let end = self.now_ns();
        let mut st = self.state();
        st.spans[id as usize].end_ns = end;
        let top = st.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Renames a closed span once its kind is known (a decide round is
    /// only known to be predictive after it has run).
    pub fn rename(&self, id: u32, name: &'static str) {
        self.state().spans[id as usize].name = name;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds `delta` to a named count taken at the same boundary.
    pub fn count(&self, name: &'static str, delta: f64) {
        let mut st = self.state();
        let round = st.round;
        st.counts.push(Count { name, round, delta });
    }

    /// Takes everything recorded so far, leaving the recorder empty.
    pub fn take(&self) -> Trace {
        let mut st = self.state();
        Trace {
            spans: std::mem::take(&mut st.spans),
            counts: std::mem::take(&mut st.counts),
        }
    }
}

/// A finished recording.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Every span, in begin order.
    pub spans: Vec<Span>,
    /// Counts taken at the span boundaries, in order.
    pub counts: Vec<Count>,
}

impl Trace {
    /// Self time per span, ns: the span's duration minus the part its
    /// direct children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                let p = p as usize;
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// A named count over the rounds after `round` (0 when never
    /// incremented there).
    pub fn counter_after(&self, name: &str, round: u32) -> f64 {
        self.counts
            .iter()
            .filter(|c| c.name == name && c.round > round)
            .map(|c| c.delta)
            .sum()
    }

    /// Largest relative gap, over all rounds, between the summed self
    /// times of a round's spans and the wall time its root spans cover.
    /// Zero when every span nests inside its parent, which is what the
    /// self-time accounting relies on.
    pub fn worst_round_gap(&self) -> f64 {
        let own = self.self_ns();
        let mut per_round: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            let entry = per_round.entry(span.round).or_insert((0, 0));
            entry.0 += own;
            if span.parent.is_none() {
                entry.1 += span.duration_ns();
            }
        }
        per_round
            .values()
            .filter(|(_, wall)| *wall > 0)
            .map(|&(own, wall)| (own as f64 - wall as f64).abs() / wall as f64)
            .fold(0.0, f64::max)
    }

    /// The recording as one JSON document.
    pub fn to_json(&self, workload: &str) -> String {
        use std::fmt::Write as _;
        let own = self.self_ns();
        let mut out = String::with_capacity(96 * self.spans.len() + 256);
        let mut totals: BTreeMap<&str, f64> = BTreeMap::new();
        for c in &self.counts {
            *totals.entry(c.name).or_insert(0.0) += c.delta;
        }
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"counters\":{{"
        );
        for (i, (name, value)) in totals.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{value}");
        }
        out.push_str("},\"spans\":[");
        for (i, (span, own)) in self.spans.iter().zip(own).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"round\":{},\"parent\":{parent},\"start\":{},\"end\":{},\"self\":{own}}}",
                span.name, span.round, span.start_ns, span.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children_and_rounds_balance() {
        let tracer = Tracer::new();
        tracer.set_round(1);
        tracer.span("round", || {
            tracer.span("observe", || std::hint::black_box(3));
            let id = tracer.begin("decide");
            tracer.span("predict", || std::hint::black_box(4));
            tracer.end(id);
            tracer.rename(id, "decide.predictive");
        });
        tracer.count("clamped", 2.0);
        tracer.set_round(0);
        let trace = tracer.take();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.spans[3].parent, Some(2));
        assert_eq!(trace.spans[2].name, "decide.predictive");
        let own = trace.self_ns();
        let children: u64 = trace.spans[1].duration_ns() + trace.spans[2].duration_ns();
        assert_eq!(own[0], trace.spans[0].duration_ns() - children);
        assert!(trace.worst_round_gap() < 1e-12);
        assert_eq!(trace.counter_after("clamped", 0), 2.0);
        assert_eq!(trace.counter_after("clamped", 1), 0.0);
        let json = trace.to_json("unit");
        let parsed = serde_json::from_str(&json).expect("trace.json parses");
        assert_eq!(
            parsed
                .get("spans")
                .and_then(|s| s.as_array())
                .map(<[_]>::len),
            Some(4)
        );
    }
}
