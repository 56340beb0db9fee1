//! Warm-started LP sequences ([`WarmChain`]), the basis snapshots a chain
//! carries from one solve to the next, and per-solve statistics.
//!
//! The coflow algorithms solve *sequences* of structurally related LPs: the
//! interval-indexed LPs of §2.1/§2.2 re-solved on a grown interval grid or,
//! online, on each epoch's residual instance (flows admitted and retired
//! between solves), and the time-expanded LP of §3.2 re-solved on a longer
//! horizon. Whatever is inserted, dropped or reordered in between, a
//! variable or row that survives keeps its meaning and its *name*.
//!
//! A chain's snapshot (the crate-private `Basis`) therefore records the
//! final simplex state by **key** — the 64-bit hash of the name, computed
//! once when the column or row was added to its [`Model`](crate::Model) —
//! never by index. It is two key-sorted arrays:
//!
//! * columns with an *exceptional* status (basic, or nonbasic at upper
//!   bound); an absent column is nonbasic at its lower bound, which is also
//!   what a variable the snapshot has never seen gets;
//! * **every** row of the snapshot's working problem, with whether its slack
//!   was basic. A related model's row that is *absent* — presolved away back
//!   then (empty, singleton or redundant, e.g. a column-generation capacity
//!   row its columns could not yet overload) or genuinely new (e.g. the
//!   capacity row a generated column created on first loading it) — was
//!   satisfied strictly at the old optimum, so its slack is implicitly
//!   basic: the mapping seeds those slacks to keep the implied point exactly
//!   at the old optimum instead of letting the basis completion cover such
//!   rows with structural columns and scramble it.
//!
//! Mapping a snapshot onto a model is a binary search per column and per
//! row; no name is read, cloned or compared. Rows the mapping leaves
//! uncovered are completed by a rank-revealing elimination (see
//! `sparse_lu::complete_basis_into`) and a bounded feasibility repair. Two
//! names hashing to one key can at worst give one column or row another's
//! status; so can a snapshot of an unrelated model, and the warm start
//! validates every mapping the same way: if the mapped basis is singular or
//! the repaired point is primally infeasible, the solver silently falls back
//! to its cold crash basis (recorded in [`SolveStats::warm_used`]).

/// Exceptional status of a column in a basis snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SnapStat {
    /// In the basis.
    Basic,
    /// Nonbasic at its (finite) upper bound.
    AtUpper,
}

/// A reusable snapshot of an optimal simplex basis, keyed by the integer
/// identity of each column's and row's name: what a [`WarmChain`] keeps
/// between solves and maps onto the next, structurally related model
/// (grown, shrunk or reordered). A key collision can only mis-map one
/// status, which the warm start's validation absorbs like any other bad
/// mapping.
#[derive(Clone, Debug)]
pub(crate) struct Basis {
    /// `(column key, status)` of every column with an exceptional status,
    /// sorted by key (absent = at lower bound).
    pub(crate) cols: Vec<(u64, SnapStat)>,
    /// `(row key, slack was basic)` of every row of the snapshot's working
    /// problem, sorted by key (an `Eq` row has no slack: `false`).
    pub(crate) rows: Vec<(u64, bool)>,
}

impl Basis {
    /// A snapshot over the given entries, in any order.
    pub(crate) fn new(mut cols: Vec<(u64, SnapStat)>, mut rows: Vec<(u64, bool)>) -> Self {
        cols.sort_unstable_by_key(|c| c.0);
        rows.sort_unstable_by_key(|r| r.0);
        Self { cols, rows }
    }

    /// True when the snapshot carries no information (cold start).
    pub(crate) fn is_empty(&self) -> bool {
        self.cols.is_empty() && !self.rows.iter().any(|r| r.1)
    }

    /// Status recorded for the column with `key`, if exceptional.
    pub(crate) fn col(&self, key: u64) -> Option<SnapStat> {
        let at = self.cols.binary_search_by_key(&key, |c| c.0).ok()?;
        Some(self.cols[at].1)
    }

    /// Whether the slack of the row with `key` was basic; `None` for a row
    /// the snapshot's working problem did not have.
    pub(crate) fn row(&self, key: u64) -> Option<bool> {
        let at = self.rows.binary_search_by_key(&key, |r| r.0).ok()?;
        Some(self.rows[at].1)
    }
}

/// Per-solve statistics of the revised simplex.
///
/// Returned on every [`crate::Solution`] (as `stats`); `benchmark/` sums
/// these into its `lp.*` per-layer metrics so factorization and warm-start
/// behavior is measured, not asserted.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SolveStats {
    /// Total simplex pivots across both phases.
    pub iterations: usize,
    /// Pivots spent minimizing infeasibility (phase 1).
    pub phase1_iterations: usize,
    /// Basis (re)factorizations performed, including the initial one.
    pub refactorizations: usize,
    /// Working rows after presolve.
    pub rows: usize,
    /// Working columns (structurals + slacks) after presolve.
    pub cols: usize,
    /// A warm-start basis was supplied.
    pub warm_attempted: bool,
    /// The warm basis was accepted (primal-feasible after mapping); when
    /// false despite `warm_attempted`, the solver cold-started.
    pub warm_used: bool,
    /// Milliseconds spent scanning reduced costs / maintaining devex
    /// weights (the pricing side of each pivot), including the row-wise
    /// pivotal-row update of the maintained reduced costs (timed under
    /// `Accum::Pricing`).
    pub pricing_ms: f64,
    /// Milliseconds spent in FTRAN/BTRAN solves against the factorization
    /// (entering-column images, devex reference rows with the dual update,
    /// recomputed duals and basic values).
    pub ftran_btran_ms: f64,
    /// Milliseconds spent (re)factorizing the basis.
    pub factor_ms: f64,
    /// Workspace acquisitions that had to allocate (grow a scratch
    /// buffer). Zero means the whole solve ran inside capacity retained
    /// by earlier solves on the same [`Scratch`](crate::Scratch) — the
    /// steady-state goal of warm-chained epoch re-solves. See the
    /// counting contract on [`crate::scratch`].
    pub allocs: usize,
    /// Workspace acquisitions served from retained scratch capacity.
    pub scratch_reuse: usize,
    /// Pivots served from the candidate list without a refill scan.
    pub pricing_list_hits: usize,
    /// The solve returned a budget-truncated (feasible, possibly
    /// suboptimal) point — see [`crate::Budget`].
    pub truncated: bool,
    /// Times the anti-cycling monitor saw a repeated basis signature on a
    /// degenerate pivot and locked pricing to Bland's rule for the rest of
    /// the phase.
    pub cycles_detected: usize,
    /// Recovery-ladder rung 1: refactorize-in-place retries after a
    /// numerical failure mid-phase.
    pub recovery_refactorizations: usize,
    /// Recovery-ladder rung 2: basis repairs (rebuild the crash basis and
    /// restore feasibility from the current point).
    pub recovery_basis_repairs: usize,
    /// Recovery-ladder rung 3: cold restarts from the all-artificial
    /// identity basis (the factorization that cannot fail).
    pub recovery_cold_restarts: usize,
}

/// Chains solves of structurally related (typically growing) models,
/// warm-starting each solve from the previous one's optimal basis: the one
/// warm-start interface of the crate.
///
/// The coflow call sites thread one `WarmChain` through a sequence of LPs
/// built on a growing interval grid or time horizon, a run of online
/// epochs, or a column-generation master loop; a fresh chain degrades to
/// plain cold solves, so wrappers for one-shot solves can share the same
/// code path. Cloning a chain keeps its snapshot but not its workspace, so
/// a clone warm-starts one model from a given basis without disturbing the
/// original chain.
///
/// Warm starting never changes the optimum: if the mapped basis is
/// singular or cannot be repaired to feasibility the solver silently
/// cold-starts (check [`SolveStats::warm_used`] on the returned solution's
/// `stats`). On a degenerate LP an accepted snapshot may end on a different
/// optimal *vertex* than a cold solve.
#[derive(Clone, Debug, Default)]
pub struct WarmChain {
    basis: Option<Basis>,
    stats: ChainStats,
    /// Reusable solver workspace: buffers and factors retained between
    /// the chain's solves (cloning a chain resets it — capacity is a
    /// cache, not state).
    scratch: crate::scratch::Scratch,
}

/// Aggregate statistics over a [`WarmChain`]'s solves.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainStats {
    /// Solves performed through the chain.
    pub solves: usize,
    /// Solves that had a basis snapshot to attempt.
    pub warm_attempted: usize,
    /// Solves where the warm basis was accepted.
    pub warm_used: usize,
    /// Total simplex iterations across all solves.
    pub total_iterations: usize,
    /// Total phase-1 (feasibility) iterations across all solves.
    pub total_phase1: usize,
    /// Total basis refactorizations across all solves.
    pub total_refactorizations: usize,
}

impl WarmChain {
    /// A chain with no snapshot yet (first solve is cold).
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves `model`, warm-starting from the previous solve's basis when
    /// one exists, and keeps the new optimal basis for the next call.
    pub fn solve(
        &mut self,
        model: &crate::Model,
        opts: &crate::SolverOptions,
    ) -> Result<crate::Solution, crate::LpError> {
        let warm = self.basis.take();
        let (sol, next) = model.solve_in(opts, warm.as_ref(), &mut self.scratch)?;
        self.basis = Some(next);
        self.stats.solves += 1;
        self.stats.warm_attempted += sol.stats.warm_attempted as usize;
        self.stats.warm_used += sol.stats.warm_used as usize;
        self.stats.total_iterations += sol.stats.iterations;
        self.stats.total_phase1 += sol.stats.phase1_iterations;
        self.stats.total_refactorizations += sol.stats.refactorizations;
        Ok(sol)
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> ChainStats {
        self.stats
    }

    /// The chain's trace recorder (lives in the scratch workspace, so it
    /// spans every solve of the chain). Callers use it to nest their own
    /// spans around solves, merge counter sets tallied apart, or force the
    /// logical clock in tests.
    pub fn obs(&mut self) -> &mut coflow_obs::Recorder {
        self.scratch.obs()
    }

    /// Drains the recorder into a [`Trace`](coflow_obs::Trace) snapshot
    /// (spans recorded so far, cumulative accumulators and counters).
    pub fn take_trace(&mut self) -> coflow_obs::Trace {
        self.scratch.obs().drain()
    }

    /// Installs a fault-injection hook consulted by this chain's solves
    /// (see [`FaultHook`](crate::FaultHook)); `None` removes it. Hooks are
    /// a test/chaos facility: production chains never set one.
    pub fn set_fault_hook(&mut self, hook: Option<Box<dyn crate::FaultHook>>) {
        self.scratch.state.hook = hook;
    }

    /// The installed fault hook, if any (consulted by `solve_colgen` for
    /// round-level faults).
    pub fn fault_hook_mut(&mut self) -> Option<&mut Box<dyn crate::FaultHook>> {
        self.scratch.state.hook.as_mut()
    }
}
