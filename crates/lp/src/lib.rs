//! # coflow-lp
//!
//! A from-scratch linear-programming solver used in place of the paper's
//! IBM CPLEX 12.6.3 (§4.2). The interval-indexed LPs of the coflow
//! scheduling algorithms (§2.1 LP (4)–(10), §2.2 LP (15)–(23), §3.2 LP
//! (25)–(32)) are sparse, highly degenerate, and have simple bounds
//! (`0 <= x <= 1` or `x >= 0`), which drives the design:
//!
//! * [`Model`] — a builder for `min cᵀx  s.t.  Ax {<=,=,>=} b, l <= x <= u`
//!   with sparse rows (duplicate terms merged at build time);
//! * [`simplex`] — a **bounded-variable revised primal simplex** with
//!   candidate-list devex pricing, a Harris ratio test, a Bland's-rule
//!   anti-cycling fallback, a two-phase start, and key-mapped **warm
//!   starts** for sequences of related LPs — one path for every model,
//!   including one whose rows all presolve away; its private submodules are
//!   `assemble` (the working problem), `warm` (snapshot mapping and
//!   repair) and `recover` (crash basis and recovery ladder);
//! * [`sparse_lu`] — sparse LU with Markowitz pivoting and eta-file
//!   (product-form) updates: the basis representation;
//! * [`dense`] — an independent, deliberately simple full-tableau simplex
//!   used as a cross-checking oracle in tests ([`dense::solve`]);
//! * [`presolve`] — fixed-variable elimination, empty-row checks, and
//!   singleton-row bound tightening;
//! * [`colgen`] — delayed column generation: the [`solve_colgen`]
//!   restricted-master loop (warm-started through a [`WarmChain`]) and the
//!   persistent [`ColumnPool`] that keeps generated columns reusable across
//!   related solves (growing sequences, online epochs).
//!
//! The solver has three entry points: [`Model::solve`], [`Model::solve_with`]
//! and [`WarmChain::solve`]. It returns primal values, dual row prices, the
//! objective, and per-solve [`SolveStats`]; in debug builds every solve is
//! re-checked for primal feasibility and objective consistency
//! ([`SolverOptions::verify`]). For LP *sequences* (a grid or horizon that
//! grows between solves, online epochs, column-generation masters), thread
//! one [`WarmChain`] through the solves: it warm-starts each from the
//! previous optimal basis instead of cold-starting.
//!
//! Numerical policy: tolerance-based comparisons go through [`LP_TOL`];
//! *exact* zero tests — sparse kernels skipping structurally absent
//! entries — go through [`nonzero`], the one
//! sanctioned raw float comparison in this crate (see the workspace's
//! `coflow-lint` rule L2).
//!
//! ```
//! use coflow_lp::{Model, Cmp};
//! // min -x - 2y  s.t.  x + y <= 4, y <= 2, 0 <= x,y
//! let mut m = Model::new();
//! let x = m.add_var(-1.0, 0.0, f64::INFINITY, "x");
//! let y = m.add_var(-2.0, 0.0, f64::INFINITY, "y");
//! m.add_row(Cmp::Le, 4.0, &[(x, 1.0), (y, 1.0)]);
//! m.add_row(Cmp::Le, 2.0, &[(y, 1.0)]);
//! let sol = m.solve().unwrap();
//! assert!((sol.objective - (-6.0)).abs() < 1e-7);
//! assert!((sol.value(x) - 2.0).abs() < 1e-7);
//! assert!((sol.value(y) - 2.0).abs() < 1e-7);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod basis;
pub mod colgen;
pub mod dense;
pub(crate) mod factor;
pub mod fault;
pub mod model;
pub mod presolve;
pub mod scratch;
pub mod simplex;
pub(crate) mod sparse_lu;

pub use basis::{ChainStats, SolveStats, WarmChain};
pub use colgen::{solve_colgen, ColGenStats, ColumnPool};
pub use fault::{ColgenFault, FaultHook};
pub use model::{Budget, Cmp, LpError, Model, RowId, Solution, SolverOptions, Status, VarId};
pub use scratch::Scratch;

/// Feasibility / optimality tolerance of every solve.
pub const LP_TOL: f64 = 1e-7;

/// Exact structural-nonzero test for sparse kernels.
///
/// Sparse factorization, pricing, and residual updates skip entries that
/// are *exactly* zero — a stored zero contributes nothing regardless of
/// tolerance, and treating near-zeros as absent would silently drop real
/// coefficients. This is deliberately an exact IEEE comparison, not a
/// tolerance: it is the single place the crate is allowed to compare
/// floats raw (everything tolerance-like goes through [`LP_TOL`]).
#[inline]
#[allow(clippy::float_cmp)]
pub(crate) fn nonzero(x: f64) -> bool {
    // lint: allow(float_cmp) — the one sanctioned exact comparison in this crate
    x != 0.0
}
