//! Drained trace snapshots and their canonical JSONL serialization.
//!
//! The wire format is one self-describing JSON object per line, integer
//! values only, rendered here with plain decimal formatting — no floats, no
//! locale, no map iteration — so a logical-clock trace serializes to
//! byte-identical output across runs:
//!
//! ```text
//! {"type":"meta","schema":"coflow-trace/v1","clock":"logical","spans":3,"dropped":0,"truncated":0}
//! {"type":"span","seq":0,"name":"phase1","depth":1,"start":2,"dur":1,"self":1}
//! {"type":"accum","name":"pricing","value":42}
//! {"type":"counter","name":"pivots","value":17}
//! {"type":"hist","name":"resolve","total":5,"buckets":[[3,2],[4,3]]}
//! ```
//!
//! `coflow_workloads::io` writes these lines to disk next to the JSON bench
//! snapshots and parses them back one JSON value per line; the `trace_view`
//! bin turns them into self/total time trees and diffs.

use crate::hist::Histogram;
use crate::rec::SpanRec;
use crate::{Accum, ClockMode, Counter, CounterSet, HistId, SpanName};
use std::fmt::Write as _;

/// A drained snapshot of a [`Recorder`](crate::Recorder): completed spans
/// oldest-first plus cumulative accumulators, counters, and histograms.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Clock mode the trace was recorded under (defines the unit of every
    /// time value: ns for wall, ticks for logical).
    pub mode: ClockMode,
    /// Spans evicted from the ring before this drain.
    pub dropped: u64,
    /// Span-stack overflows / mismatched exits tolerated while recording.
    pub truncated: u64,
    /// Completed spans in completion (post-) order.
    pub spans: Vec<SpanRec>,
    /// Cumulative accumulator values, indexed by [`Accum`].
    pub accums: [u64; Accum::COUNT],
    /// Cumulative counters.
    pub counters: CounterSet,
    /// Registered histograms, indexed by [`HistId`].
    pub hists: [Histogram; HistId::COUNT],
}

impl Trace {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Sum of total durations of spans with this name, in milliseconds
    /// (ticks under the logical clock).
    pub fn span_total_ms(&self, name: SpanName) -> f64 {
        let raw: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur)
            .sum();
        self.mode.to_ms(raw)
    }

    /// Sum of self times of spans with this name, in milliseconds.
    pub fn span_self_ms(&self, name: SpanName) -> f64 {
        let raw: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.self_t)
            .sum();
        self.mode.to_ms(raw)
    }

    /// Number of retained spans with this name.
    pub fn span_count(&self, name: SpanName) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// An accumulator value in milliseconds.
    pub fn accum_ms(&self, a: Accum) -> f64 {
        self.mode.to_ms(self.accums[a as usize])
    }

    /// A counter value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c)
    }

    /// Renders the canonical JSONL serialization (trailing newline
    /// included). Byte-stable: integers only, fixed key and line order.
    pub fn render_jsonl(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"type\":\"meta\",\"schema\":\"coflow-trace/v1\",\"clock\":\"{}\",\"spans\":{},\"dropped\":{},\"truncated\":{}}}",
            self.mode.as_str(),
            self.spans.len(),
            self.dropped,
            self.truncated,
        );
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"seq\":{},\"name\":\"{}\",\"depth\":{},\"start\":{},\"dur\":{},\"self\":{}}}",
                s.seq,
                s.name.as_str(),
                s.depth,
                s.start,
                s.dur,
                s.self_t,
            );
        }
        for a in Accum::ALL {
            let _ = writeln!(
                out,
                "{{\"type\":\"accum\",\"name\":\"{}\",\"value\":{}}}",
                a.as_str(),
                self.accums[a as usize],
            );
        }
        for c in Counter::ALL {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{}}}",
                c.as_str(),
                self.counters.get(c),
            );
        }
        for h in HistId::ALL {
            let hist = &self.hists[h as usize];
            let mut buckets = String::new();
            for (i, (b, c)) in hist.nonzero_buckets().enumerate() {
                if i > 0 {
                    buckets.push(',');
                }
                let _ = write!(buckets, "[{b},{c}]");
            }
            let _ = writeln!(
                out,
                "{{\"type\":\"hist\",\"name\":\"{}\",\"total\":{},\"buckets\":[{}]}}",
                h.as_str(),
                hist.total(),
                buckets,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn jsonl_is_deterministic_for_logical_clock() {
        let run = || {
            let mut r = Recorder::with_capacity(16, ClockMode::Logical);
            r.enter(SpanName::Solve);
            r.enter(SpanName::Phase2);
            r.exit();
            r.exit();
            r.bump(Counter::Pivots, 3);
            let t0 = r.stamp();
            r.lap(Accum::Pricing, t0);
            r.record_hist(HistId::Resolve, 5);
            r.drain().render_jsonl()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"type\":\"meta\""));
        assert!(a.contains("\"name\":\"phase2\""));
        assert!(a.contains("\"name\":\"pivots\",\"value\":3"));
        assert!(a.contains("\"buckets\":[[3,1]]"));
        assert!(a.ends_with('\n'));
    }

    #[test]
    fn span_sums() {
        let mut r = Recorder::with_capacity(16, ClockMode::Logical);
        for _ in 0..3 {
            r.enter(SpanName::Master);
            r.exit();
        }
        let t = r.drain();
        assert_eq!(t.span_count(SpanName::Master), 3);
        assert!((t.span_total_ms(SpanName::Master) - 3.0).abs() < 1e-12);
        assert_eq!(t.span_count(SpanName::Oracle), 0);
    }
}
