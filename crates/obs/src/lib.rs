//! `coflow-obs` — deterministic, allocation-aware tracing and metrics.
//!
//! The paper's algorithms live or die by where solve time goes — pricing vs
//! FTRAN/BTRAN vs factorization, colgen rounds vs master re-solves, epoch
//! re-plans vs executor events. This crate provides the one instrumentation
//! substrate every layer reports through:
//!
//! * **Spans** ([`Recorder::enter`] / [`Recorder::exit`]): hierarchical
//!   timed regions with pre-registered interned names ([`SpanName`]) stored
//!   in a fixed-capacity ring buffer, so hot-path recording never allocates
//!   and the steady-state `allocs == 0` contract survives.
//! * **Accumulators** ([`Accum`]): flat time sums (pricing, FTRAN/BTRAN,
//!   factorization) replacing the ad-hoc `Instant` stopwatch code that used
//!   to live in `simplex.rs`/`colgen.rs`; `SolveStats` time fields are now a
//!   view over these.
//! * **Counters and histograms** ([`Counter`], [`Histogram`]): pivots,
//!   scratch reuses, columns priced, epoch latencies → p50/p90/p99 with
//!   deterministic fixed power-of-two bucket boundaries (integer counts, so
//!   merges are order-invariant).
//! * **Two clock modes** ([`ClockMode`]): wall-clock nanoseconds for
//!   profiling, or a logical clock (event-count ticks) selected with
//!   `COFLOW_OBS_CLOCK=logical` under which traces are byte-identical
//!   across runs — the determinism lane extended to the telemetry itself.
//! * **A JSONL trace format** ([`Trace::render_jsonl`]): one self-describing
//!   JSON object per line, integers only, rendered here so serialization is
//!   byte-stable; `coflow_workloads::io` hosts the file sink and the parse
//!   side, and the `trace_view` bin renders self/total time trees and diffs.
//!
//! Everything is plain owned state — no globals, no locks, no thread-locals.
//! Work that keeps its own tallies (the colgen pricing oracle's scratch)
//! accumulates them in a [`CounterSet`] and merges it into the recorder.

mod hist;
mod rec;
mod trace;

pub use hist::Histogram;
pub use rec::{Recorder, SpanRec, MAX_DEPTH};
pub use trace::Trace;

/// How a [`Recorder`] stamps time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockMode {
    /// Nanoseconds since the recorder's origin. Meaningful durations,
    /// non-reproducible bytes.
    #[default]
    Wall,
    /// An event-count tick: every stamp advances the clock by exactly one.
    /// Durations become deterministic event counts, so traces are
    /// byte-identical across runs.
    Logical,
}

impl ClockMode {
    /// Reads `COFLOW_OBS_CLOCK` (`logical` selects the logical clock;
    /// anything else, including unset, selects wall-clock).
    pub fn from_env() -> ClockMode {
        match std::env::var("COFLOW_OBS_CLOCK") {
            Ok(v) if v.eq_ignore_ascii_case("logical") => ClockMode::Logical,
            _ => ClockMode::Wall,
        }
    }

    /// The name used in trace meta lines.
    pub fn as_str(self) -> &'static str {
        match self {
            ClockMode::Wall => "wall",
            ClockMode::Logical => "logical",
        }
    }

    /// Converts a raw clock value (ns or ticks) to milliseconds. Under the
    /// logical clock a "millisecond" is one tick — documented, not hidden:
    /// downstream `*_ms` stats fields hold tick counts in that mode.
    pub fn to_ms(self, raw: u64) -> f64 {
        match self {
            ClockMode::Wall => raw as f64 / 1e6,
            ClockMode::Logical => raw as f64,
        }
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "the recorder's wall clock is the workspace's sanctioned clock read"
)]
type WallClock = std::time::Instant;

/// A wall-clock origin; stamps are nanoseconds since construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Origin(WallClock);

impl Origin {
    pub(crate) fn now() -> Origin {
        Origin(WallClock::now())
    }
    pub(crate) fn elapsed_ns(&self) -> u64 {
        let ns = self.0.elapsed().as_nanos();
        if ns > u64::MAX as u128 {
            u64::MAX
        } else {
            ns as u64
        }
    }
}

/// Pre-registered span names. Interning at compile time keeps recording
/// allocation-free and the wire format stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(usize)]
pub enum SpanName {
    /// One `WarmChain::solve` call (simplex, both phases).
    #[default]
    Solve,
    /// Phase-1 feasibility iterations inside a solve.
    Phase1,
    /// Phase-2 optimality iterations inside a solve.
    Phase2,
    /// One column-generation round (master re-solve + oracle pricing).
    ColgenRound,
    /// The restricted-master solve inside a colgen round.
    Master,
    /// The pricing-oracle call inside a colgen round.
    Oracle,
    /// One engine epoch (event arrival through rate allocation).
    Epoch,
    /// The policy re-plan inside an epoch.
    Plan,
    /// A bench-harness measurement region.
    Bench,
    /// A degradation-ladder rung inside an epoch: a plan retry, a stale
    /// schedule reuse, or a fallback-policy re-plan after the primary
    /// policy failed.
    Fallback,
}

impl SpanName {
    /// Number of registered names.
    pub const COUNT: usize = 10;

    /// Every registered name, in wire order.
    pub const ALL: [SpanName; SpanName::COUNT] = [
        SpanName::Solve,
        SpanName::Phase1,
        SpanName::Phase2,
        SpanName::ColgenRound,
        SpanName::Master,
        SpanName::Oracle,
        SpanName::Epoch,
        SpanName::Plan,
        SpanName::Bench,
        SpanName::Fallback,
    ];

    /// The interned wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Solve => "solve",
            SpanName::Phase1 => "phase1",
            SpanName::Phase2 => "phase2",
            SpanName::ColgenRound => "colgen_round",
            SpanName::Master => "master",
            SpanName::Oracle => "oracle",
            SpanName::Epoch => "epoch",
            SpanName::Plan => "plan",
            SpanName::Bench => "bench",
            SpanName::Fallback => "fallback",
        }
    }
}

/// Flat time accumulators: the per-iteration stopwatch sums that used to be
/// hand-maintained `*_ms` fields in `SolveStats`. Values are raw clock units
/// (ns under [`ClockMode::Wall`], ticks under [`ClockMode::Logical`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Accum {
    /// Devex pricing scans + candidate-list maintenance.
    Pricing,
    /// Forward/backward transformations (entering column, devex row with
    /// the dual update, recomputed duals and basic values).
    FtranBtran,
    /// Basis (re)factorizations.
    Factor,
}

impl Accum {
    /// Number of accumulators.
    pub const COUNT: usize = 3;

    /// Every accumulator, in wire order.
    pub const ALL: [Accum; Accum::COUNT] = [Accum::Pricing, Accum::FtranBtran, Accum::Factor];

    /// The interned wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Accum::Pricing => "pricing",
            Accum::FtranBtran => "ftran_btran",
            Accum::Factor => "factor",
        }
    }
}

/// Monotone event counters. Totals are plain integer sums, so a
/// [`CounterSet`] tallied apart merges into a recorder in any order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Simplex basis changes across all phases.
    Pivots,
    /// Basis refactorizations.
    Refactorizations,
    /// Scratch buffers reacquired without allocating.
    ScratchReuses,
    /// Columns scored by pricing scans (list rescans, refill windows, Bland passes).
    ColumnsPriced,
    /// Pricing-oracle invocations (one per commodity per colgen round).
    OracleCalls,
    /// Edge relaxations performed inside oracle shortest-path runs.
    OracleRelaxations,
    /// Engine epochs executed.
    Epochs,
    /// Solver recovery-ladder rungs taken after a numerical failure
    /// (refactorize retries, basis repairs, cold restarts).
    Recoveries,
    /// Faults injected by an installed fault hook (test/chaos runs only;
    /// always zero in production).
    FaultsInjected,
    /// Engine epochs that did not get a fresh primary-policy plan (stale
    /// schedule reused or fallback policy engaged).
    DegradedEpochs,
    /// Epochs planned by the fallback policy after the primary policy
    /// failed past all retries.
    PolicyFallbacks,
    /// Simplex basis changes whose pivotal row `ρ_r A` updated the cached
    /// reduced costs row-wise (zero on a solve where the maintenance never
    /// engaged and pricing computed every `c_j − yᵀa_j`).
    RowWiseUpdates,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 12;

    /// Every counter, in wire order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Pivots,
        Counter::Refactorizations,
        Counter::ScratchReuses,
        Counter::ColumnsPriced,
        Counter::OracleCalls,
        Counter::OracleRelaxations,
        Counter::Epochs,
        Counter::Recoveries,
        Counter::FaultsInjected,
        Counter::DegradedEpochs,
        Counter::PolicyFallbacks,
        Counter::RowWiseUpdates,
    ];

    /// The interned wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Counter::Pivots => "pivots",
            Counter::Refactorizations => "refactorizations",
            Counter::ScratchReuses => "scratch_reuses",
            Counter::ColumnsPriced => "columns_priced",
            Counter::OracleCalls => "oracle_calls",
            Counter::OracleRelaxations => "oracle_relaxations",
            Counter::Epochs => "epochs",
            Counter::Recoveries => "recoveries",
            Counter::FaultsInjected => "faults_injected",
            Counter::DegradedEpochs => "degraded_epochs",
            Counter::PolicyFallbacks => "policy_fallbacks",
            Counter::RowWiseUpdates => "rowwise_updates",
        }
    }
}

/// Pre-registered histograms a [`Recorder`] maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Per-epoch policy re-plan latency (raw clock units).
    Resolve,
    /// Per-round restricted-master solve latency (raw clock units).
    MasterSolve,
}

impl HistId {
    /// Number of registered histograms.
    pub const COUNT: usize = 2;

    /// Every histogram id, in wire order.
    pub const ALL: [HistId; HistId::COUNT] = [HistId::Resolve, HistId::MasterSolve];

    /// The interned wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            HistId::Resolve => "resolve",
            HistId::MasterSolve => "master_solve",
        }
    }
}

/// A fixed array of [`Counter`] tallies. Cheap to embed in a scratch that
/// tallies apart from a recorder; merging is an integer sum per slot, so
/// the merged totals are independent of partition and merge order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSet {
    vals: [u64; Counter::COUNT],
}

impl CounterSet {
    /// An all-zero set.
    pub const fn new() -> CounterSet {
        CounterSet {
            vals: [0; Counter::COUNT],
        }
    }

    /// Adds `by` to one counter.
    pub fn bump(&mut self, c: Counter, by: u64) {
        self.vals[c as usize] = self.vals[c as usize].saturating_add(by);
    }

    /// Reads one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    /// Adds every slot of `other` into `self` (commutative, associative).
    pub fn merge(&mut self, other: &CounterSet) {
        for (a, b) in self.vals.iter_mut().zip(other.vals.iter()) {
            *a = a.saturating_add(*b);
        }
    }

    /// Resets every slot to zero (for reusable scratch).
    pub fn clear(&mut self) {
        self.vals = [0; Counter::COUNT];
    }
}
