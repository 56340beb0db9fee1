//! The [`Recorder`]: fixed-capacity span ring, span stack, accumulators,
//! counters, and histograms behind one plain owned struct.
//!
//! A recorder is embedded where the work happens (the LP `Scratch`, the
//! engine event loop) and threaded by `&mut` — no globals, no locks.
//! Under the logical clock every stamp advances the tick counter by
//! exactly one, so as long as the *sequence* of recording calls is
//! deterministic (the solver's pivot order already is), the produced trace
//! is byte-identical.
//!
//! Recording never allocates and never panics: the ring was sized at
//! construction and evicts oldest-first when full (counted in `dropped`),
//! the span stack tolerates overflow and mismatched exits by returning a
//! default record (counted in `truncated`).

use crate::hist::Histogram;
use crate::trace::Trace;
use crate::{Accum, ClockMode, Counter, CounterSet, HistId, Origin, SpanName};

/// Maximum span nesting depth tracked by the recorder; deeper `enter`s are
/// counted as truncated and produce no span records.
pub const MAX_DEPTH: usize = 32;

/// Default span-ring capacity (completed spans retained before
/// oldest-first eviction).
const DEFAULT_RING_CAP: usize = 4096;

/// A completed span: name, nesting depth, completion sequence number, and
/// start/duration/self-time in raw clock units (ns under wall, ticks under
/// logical).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanRec {
    /// Interned name.
    pub name: SpanName,
    /// Nesting depth at entry (0 = root).
    pub depth: u16,
    /// Completion order (post-order: children complete before parents).
    pub seq: u64,
    /// Clock value at entry.
    pub start: u64,
    /// Total duration (exit − entry).
    pub dur: u64,
    /// Duration minus time spent in completed child spans.
    pub self_t: u64,
}

/// An open span on the stack.
#[derive(Debug, Clone, Copy, Default)]
struct Open {
    name: SpanName,
    start: u64,
    child: u64,
}

/// The recording core; see the module docs.
#[derive(Debug, Clone)]
pub struct Recorder {
    mode: ClockMode,
    origin: Origin,
    ticks: u64,
    ring: Vec<SpanRec>,
    cap: usize,
    head: usize,
    dropped: u64,
    stack: [Open; MAX_DEPTH],
    depth: usize,
    truncated: u64,
    seq: u64,
    acc: [u64; Accum::COUNT],
    counters: CounterSet,
    hists: [Histogram; HistId::COUNT],
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with the default ring capacity and the clock mode
    /// selected by `COFLOW_OBS_CLOCK`.
    pub fn new() -> Recorder {
        Recorder::with_capacity(DEFAULT_RING_CAP, ClockMode::from_env())
    }

    /// A recorder with an explicit ring capacity (clamped to at least 1)
    /// and clock mode. The ring is allocated here, once; recording never
    /// allocates.
    pub fn with_capacity(cap: usize, mode: ClockMode) -> Recorder {
        let cap = cap.max(1);
        Recorder {
            mode,
            origin: Origin::now(),
            ticks: 0,
            ring: Vec::with_capacity(cap),
            cap,
            head: 0,
            dropped: 0,
            stack: [Open::default(); MAX_DEPTH],
            depth: 0,
            truncated: 0,
            seq: 0,
            acc: [0; Accum::COUNT],
            counters: CounterSet::new(),
            hists: [Histogram::new(), Histogram::new()],
        }
    }

    /// The active clock mode.
    pub fn mode(&self) -> ClockMode {
        self.mode
    }

    /// Switches clock mode and rewinds the clock origin, tick counter, and
    /// completion sequence. Intended for callers (tests, benches) that must
    /// force the logical clock regardless of the environment; call it
    /// before any recording, not mid-trace.
    pub fn set_mode(&mut self, mode: ClockMode) {
        self.mode = mode;
        self.origin = Origin::now();
        self.ticks = 0;
    }

    /// One clock stamp: wall nanoseconds since the origin, or the next
    /// logical tick. Every call advances the logical clock by exactly one.
    fn now(&mut self) -> u64 {
        match self.mode {
            ClockMode::Wall => self.origin.elapsed_ns(),
            ClockMode::Logical => {
                self.ticks += 1;
                self.ticks
            }
        }
    }

    /// Takes a stamp for a later [`Recorder::lap`].
    pub fn stamp(&mut self) -> u64 {
        self.now()
    }

    /// Adds `now − t0` to an accumulator and returns the new stamp (so
    /// back-to-back regions pay one stamp per boundary, exactly like the
    /// stopwatch code this replaces).
    pub fn lap(&mut self, a: Accum, t0: u64) -> u64 {
        let t = self.now();
        self.acc[a as usize] = self.acc[a as usize].saturating_add(t.saturating_sub(t0));
        t
    }

    /// Reads an accumulator (raw clock units, cumulative over the
    /// recorder's lifetime — take deltas for per-solve views).
    pub fn acc(&self, a: Accum) -> u64 {
        self.acc[a as usize]
    }

    /// Opens a span. Depth beyond [`MAX_DEPTH`] is tolerated (counted as
    /// truncated, no record produced).
    pub fn enter(&mut self, name: SpanName) {
        if self.depth < MAX_DEPTH {
            let start = self.now();
            self.stack[self.depth] = Open {
                name,
                start,
                child: 0,
            };
        } else {
            self.truncated += 1;
        }
        self.depth += 1;
    }

    /// Closes the innermost open span, pushes its record into the ring
    /// (evicting oldest-first when full), and returns it. An `exit`
    /// without a matching `enter` is tolerated and returns a default
    /// record.
    pub fn exit(&mut self) -> SpanRec {
        if self.depth == 0 {
            self.truncated += 1;
            return SpanRec::default();
        }
        self.depth -= 1;
        if self.depth >= MAX_DEPTH {
            // This level was never pushed; nothing to record.
            return SpanRec::default();
        }
        let open = self.stack[self.depth];
        let end = self.now();
        let dur = end.saturating_sub(open.start);
        let rec = SpanRec {
            name: open.name,
            depth: self.depth as u16,
            seq: self.seq,
            start: open.start,
            dur,
            self_t: dur.saturating_sub(open.child),
        };
        self.seq += 1;
        if self.depth > 0 {
            let parent = &mut self.stack[self.depth - 1];
            parent.child = parent.child.saturating_add(dur);
        }
        if self.ring.len() < self.cap {
            // Within the capacity reserved at construction: no allocation.
            self.ring.push(rec);
        } else {
            self.ring[self.head] = rec;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
        rec
    }

    /// Current open-span depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Completed spans recorded so far (including any later evicted).
    pub fn spans_completed(&self) -> u64 {
        self.seq
    }

    /// Spans evicted from the ring (oldest-first) because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Adds `by` to a counter.
    pub fn bump(&mut self, c: Counter, by: u64) {
        self.counters.bump(c, by);
    }

    /// Reads a counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.get(c)
    }

    /// Merges a counter set tallied apart (the pricing oracle's).
    pub fn merge_counters(&mut self, other: &CounterSet) {
        self.counters.merge(other);
    }

    /// Records a sample into a registered histogram.
    pub fn record_hist(&mut self, h: HistId, v: u64) {
        self.hists[h as usize].record(v);
    }

    /// Reads a registered histogram.
    pub fn hist(&self, h: HistId) -> &Histogram {
        &self.hists[h as usize]
    }

    /// Snapshots everything into a [`Trace`] and resets the span ring (the
    /// accumulators, counters, and histograms are cumulative and stay put —
    /// they back the `SolveStats`/`EngineMetrics` views).
    pub fn drain(&mut self) -> Trace {
        let mut spans = Vec::with_capacity(self.ring.len());
        spans.extend_from_slice(&self.ring[self.head..]);
        spans.extend_from_slice(&self.ring[..self.head]);
        self.ring.clear();
        self.head = 0;
        Trace {
            mode: self.mode,
            dropped: self.dropped,
            truncated: self.truncated,
            spans,
            accums: self.acc,
            counters: self.counters,
            hists: self.hists.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Recorder {
        Recorder::with_capacity(8, ClockMode::Logical)
    }

    #[test]
    fn nesting_self_and_total_time() {
        let mut r = rec();
        r.enter(SpanName::Solve); // t=1
        r.enter(SpanName::Phase1); // t=2
        r.exit(); // t=3, phase1 dur=1
        r.enter(SpanName::Phase2); // t=4
        r.exit(); // t=5, phase2 dur=1
        let solve = r.exit(); // t=6, solve dur=5, children=2
        assert_eq!(solve.name, SpanName::Solve);
        assert_eq!(solve.dur, 5);
        assert_eq!(solve.self_t, 3);
        assert_eq!(solve.depth, 0);
        assert_eq!(r.spans_completed(), 3);
        let t = r.drain();
        assert_eq!(t.spans.len(), 3);
        // Post-order: phase1, phase2, solve.
        assert_eq!(t.spans[0].name, SpanName::Phase1);
        assert_eq!(t.spans[2].name, SpanName::Solve);
    }

    #[test]
    fn mismatched_exits_are_tolerated() {
        let mut r = rec();
        assert_eq!(r.exit(), SpanRec::default());
        for _ in 0..MAX_DEPTH + 4 {
            r.enter(SpanName::Bench);
        }
        for _ in 0..MAX_DEPTH + 4 {
            r.exit();
        }
        assert_eq!(r.depth(), 0);
        assert_eq!(r.spans_completed(), MAX_DEPTH as u64);
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let mut r = rec(); // cap 8
        for _ in 0..12 {
            r.enter(SpanName::Bench);
            r.exit();
        }
        assert_eq!(r.dropped(), 4);
        let t = r.drain();
        assert_eq!(t.spans.len(), 8);
        let seqs: Vec<u64> = t.spans.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, (4..12).collect::<Vec<u64>>());
    }

    #[test]
    fn lap_accumulates() {
        let mut r = rec();
        let t0 = r.stamp(); // 1
        let t1 = r.lap(Accum::Pricing, t0); // 2, +1
        r.lap(Accum::FtranBtran, t1); // 3, +1
        assert_eq!(r.acc(Accum::Pricing), 1);
        assert_eq!(r.acc(Accum::FtranBtran), 1);
    }
}
