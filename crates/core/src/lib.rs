//! # coflow-core
//!
//! The primary contribution of Jahanjou, Kantor & Rajaraman,
//! *Asymptotically Optimal Approximation Algorithms for Coflow Scheduling*
//! (SPAA 2017), implemented in full:
//!
//! | paper | module | what it does |
//! |-------|--------|--------------|
//! | §1.1  | [`model`], [`objective`] | coflow instances; `Σ ω_k max_f c_f` |
//! | §2.1  | [`circuit::lp_given`], [`circuit::round_given`] | interval-indexed LP (4)–(10) + α-point rounding, O(1)-approx for circuit coflows with given paths |
//! | §2.2  | [`circuit::lp_free`], [`circuit::round_free`] | LP (15)–(23) in path form (column generation over every simple path solves it exactly), Raghavan–Thompson randomized path selection — Algorithm 1 |
//! | §3.1  | [`packet::jobshop`] | packet coflows with given paths as unit job-shop |
//! | §3.2  | [`packet::free`], [`packet::timexp_lp`] | time-expanded-graph LP + per-interval routing & scheduling |
//! | §4    | [`baselines`], [`order`] | Baseline / Schedule-only / Route-only heuristics and LP-completion-time orderings |
//! | §1.3  | [`switch`] | the non-blocking-switch (task-based / concurrent-open-shop) special case |
//! | Lem. 4/5/7 | [`bounds`] | LP-derived lower bounds for empirical approximation ratios |
//! | online | [`residual`] | residual instances (remaining sizes, frozen completed flows) updated in place for the online engine's epoch re-solves |
//! | —     | [`flat`] | structure-of-arrays [`FlatInstance`] view for allocation-free hot loops |
//!
//! Schedules are explicit, checkable artifacts: [`schedule::CircuitSchedule`]
//! (piecewise-constant bandwidths, Lemma 1) and
//! [`schedule::PacketSchedule`] (store-and-forward moves), each with a
//! feasibility checker enforcing the §1.1/§3 constraints.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod baselines;
pub mod bounds;
pub mod circuit;
pub mod flat;
pub mod intervals;
pub mod model;
pub mod objective;
pub mod order;
pub mod packet;
pub mod residual;
pub mod schedule;
pub mod switch;
pub mod tol;

pub use flat::FlatInstance;
pub use intervals::IntervalGrid;
pub use model::{Coflow, FlowId, FlowSpec, Instance};
pub use objective::{metrics, Metrics};
pub use order::Priority;
pub use schedule::{CircuitSchedule, PacketSchedule};

/// The paper's optimized rounding parameters for §2.1 (below Eq. 14):
/// `α = 0.5`, `D = 3`, `ε ≈ 0.5436` give the 17.54 approximation factor.
pub const PAPER_ALPHA: f64 = 0.5;
/// See [`PAPER_ALPHA`].
pub const PAPER_DISPLACEMENT: usize = 3;
/// See [`PAPER_ALPHA`].
pub const PAPER_EPS: f64 = 0.5436;
/// §2.2 fixes `ε = 1` for the paths-not-given LP.
pub const FREE_PATHS_EPS: f64 = 1.0;
