//! Reusable solver workspace threaded through every LP solve.
//!
//! The coflow call sites solve *sequences* of structurally related LPs
//! (growing interval grids, online epoch re-solves, column-generation
//! master loops). Before this module, every solve re-allocated its entire
//! working set — CSC assembly arrays, simplex state vectors, devex
//! weights, factorization temporaries — even though consecutive solves
//! are near-identical in shape. [`Scratch`] owns all of those buffers
//! across solves: a solve *acquires* each buffer (clear + resize, never
//! shrink), and on the steady-state path of a [`WarmChain`](crate::WarmChain)
//! every acquisition is served from capacity retained by earlier solves.
//!
//! **Counting contract** (surfaced as
//! [`SolveStats::allocs`](crate::SolveStats::allocs) /
//! [`SolveStats::scratch_reuse`](crate::SolveStats::scratch_reuse)):
//! every buffer acquisition goes through `prep`/`reserve`, which
//! counts an *alloc* when the buffer's retained capacity was too small
//! (capacity is then grown to the next power of two, so repeated small
//! growth converges in O(log n) allocs) and a *reuse* otherwise. The
//! counters cover the length-known workspace buffers listed on
//! [`Scratch`]; they deliberately do **not** count (a) output vectors
//! that escape into the returned [`Solution`](crate::Solution) or the
//! chain's basis snapshot (the caller owns those), (b) presolve, which
//! builds a fresh [`Presolved`](crate::presolve::Presolved) per solve,
//! and (c) push-grown pools (sparse fill-in rows, eta entries), whose
//! capacity also persists across solves but whose final length is
//! data-dependent. `allocs == 0` therefore certifies that the solve ran
//! entirely inside retained workspace capacity.

use crate::simplex::State;
use crate::sparse_lu::{ElimWs, Elimination, SparseCol};

/// Per-solve acquisition counters (reset at the start of every solve).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Counters {
    /// Acquisitions that had to grow the buffer.
    pub(crate) allocs: usize,
    /// Acquisitions served from retained capacity.
    pub(crate) reuses: usize,
}

/// Clears `v` and guarantees capacity for `cap` elements, counting the
/// acquisition. Growth reserves the next power of two so a slowly growing
/// sequence of solves performs O(log n) allocations total.
pub(crate) fn reserve<T>(cnt: &mut Counters, v: &mut Vec<T>, cap: usize) {
    v.clear();
    if v.capacity() < cap {
        cnt.allocs += 1;
        v.reserve_exact(cap.next_power_of_two());
    } else {
        cnt.reuses += 1;
    }
}

/// Acquires `v` as a length-`len` buffer filled with `fill` (exactly the
/// contents of a fresh `vec![fill; len]`, so buffer reuse can never change
/// numerics), counting the acquisition.
pub(crate) fn prep<T: Clone>(cnt: &mut Counters, v: &mut Vec<T>, len: usize, fill: T) {
    reserve(cnt, v, len);
    v.resize(len, fill);
}

/// Acquires an outer pool of at least `len` reusable inner vectors (inner
/// vectors keep their capacity across acquisitions; callers clear the slots
/// they use).
pub(crate) fn reserve_pool<T>(cnt: &mut Counters, pool: &mut Vec<Vec<T>>, len: usize) {
    if pool.len() < len {
        cnt.allocs += 1;
        pool.resize_with(len.next_power_of_two(), Vec::new);
    } else {
        cnt.reuses += 1;
    }
}

/// Per-phase pivot-loop vectors (duals, entering-column image, devex).
#[derive(Clone, Debug, Default)]
pub(crate) struct PhaseBufs {
    /// Row duals `y = B⁻ᵀ c_B`, updated at each basis change from `rho`.
    pub(crate) y: Vec<f64>,
    /// FTRAN image of the entering column.
    pub(crate) w: Vec<f64>,
    /// Nonzero positions of `w`, ascending; `w` is zero elsewhere.
    pub(crate) w_idx: Vec<u32>,
    /// Row `r` of `B⁻¹` for the devex and dual updates.
    pub(crate) rho: Vec<f64>,
    /// Nonzero rows of `rho`, ascending; `rho` is zero elsewhere.
    pub(crate) rho_idx: Vec<u32>,
    /// Devex reference weights.
    pub(crate) gamma: Vec<f64>,
    /// Per-column pricing sign: `-1` at lower bound, `+1` at upper, `0`
    /// for basic or fixed (`lb == ub`) columns. Maintained incrementally
    /// across pivots so the scan kernels replace a status match plus two
    /// bound loads with one byte load.
    pub(crate) sgn: Vec<i8>,
    /// Candidate list for candidate pricing: column indices retained by
    /// the last refill scan (eligible columns first, then the best
    /// near-misses), rescanned on every pivot until it runs dry.
    pub(crate) cand: Vec<u32>,
    /// The refill scan's bounded top list of one window: `(score, column,
    /// eligible)` entries in a binary heap with the worst kept entry at
    /// the root, sorted into the candidate list's new generation when the
    /// window holds an eligible column.
    pub(crate) top: Vec<(f64, u32, bool)>,
    /// Maintained reduced costs (sized once the row-wise update engages).
    pub(crate) dj: RedCosts,
}

/// Reduced costs `d_j` kept across pivots and the pivotal row `α_r = ρ_r A`
/// that updates them (see `simplex::rowwise`). Acquired when a solve first
/// engages the row-wise update, so solves that never do pay nothing.
#[derive(Clone, Debug, Default)]
pub(crate) struct RedCosts {
    /// Cached `d_j = c_j − yᵀa_j`, current where `stamp[j] == epoch`.
    pub(crate) d: Vec<f64>,
    /// Epoch at which each `d[j]` was last made current (`0`: never).
    pub(crate) stamp: Vec<u32>,
    /// Current epoch (`>= 1`); bumping it marks every `d[j]` stale.
    pub(crate) epoch: u32,
    /// The pivotal row `α_r` over all columns, nonzero only at `alpha_idx`.
    pub(crate) alpha: Vec<f64>,
    /// Columns touched by `alpha` (distinct unless an entry cancelled to
    /// exactly zero and was touched again).
    pub(crate) alpha_idx: Vec<u32>,
}

impl RedCosts {
    /// Marks every cached `d_j` stale in O(1).
    pub(crate) fn invalidate(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }
}

/// Refactorization temporaries: the basis-column gather pool and the
/// right-hand-side work vector for recomputing basic values.
#[derive(Clone, Debug, Default)]
pub(crate) struct FactorBufs {
    /// Reusable per-position sparse basis columns.
    pub(crate) cols: Vec<SparseCol>,
    /// RHS residual for `x_B = B⁻¹ (b − N x_N)`.
    pub(crate) r: Vec<f64>,
}

/// Working-problem assembly buffers (row map, CSC fill, cost vectors).
#[derive(Clone, Debug, Default)]
pub(crate) struct AsmBufs {
    /// Original row index → working row index.
    pub(crate) row_map: Vec<Option<u32>>,
    /// Nonzeros per working structural column.
    pub(crate) col_counts: Vec<usize>,
    /// CSC fill cursor (a working copy of `col_ptr`).
    pub(crate) fill_ptr: Vec<usize>,
    /// Phase-1 costs (jittered artificials).
    pub(crate) costs1: Vec<f64>,
    /// Phase-2 costs (true objective, optionally perturbed).
    pub(crate) costs2: Vec<f64>,
}

/// Warm-start and crash-basis temporaries.
#[derive(Clone, Debug, Default)]
pub(crate) struct WarmBufs {
    /// Mapped basic candidates (working variable indices).
    pub(crate) cand: Vec<usize>,
    /// Mapped nonbasic-at-upper variables.
    pub(crate) uppers: Vec<usize>,
    /// Bound-shifted variables: `(var, original lb, original ub)`.
    pub(crate) shifted: Vec<(usize, f64, f64)>,
    /// Phase-0 repair costs.
    pub(crate) costs0: Vec<f64>,
    /// Implied-basic-value work vector.
    pub(crate) r: Vec<f64>,
    /// Crash-basis row residuals.
    pub(crate) resid: Vec<f64>,
}

/// Rank-revealing completion workspace for warm starts.
#[derive(Clone, Debug, Default)]
pub(crate) struct CompleteBufs {
    /// Elimination output (pivoted columns/rows are read back directly).
    pub(crate) elim: Elimination,
    /// Elimination working arrays.
    pub(crate) ws: ElimWs,
}

/// Reusable workspace for repeated LP solves.
///
/// One `Scratch` is owned by each [`WarmChain`](crate::WarmChain) and
/// threaded into the simplex. It retains, across solves: the entire
/// simplex `State` (CSC matrix, bounds, point, statuses, basis, the
/// basis-column gather pool, the sparse LU factors themselves —
/// elimination storage, fill-in rows, eta file — and the trace
/// recorder), the per-phase pivot-loop vectors, assembly and warm-start
/// temporaries, and the rank-revealing completion workspace. One-shot
/// [`Model::solve_with`](crate::Model::solve_with) calls create a
/// transient `Scratch` internally, so the workspace only
/// pays off — but never costs anything — on solve sequences.
///
/// Cloning a `Scratch` yields a fresh empty workspace: retained capacity
/// is a cache, not state, and must not be shared between chains.
#[derive(Default)]
pub struct Scratch {
    /// The simplex state (persisted so its vectors keep capacity).
    pub(crate) state: State,
    /// Pivot-loop vectors.
    pub(crate) ph: PhaseBufs,
    /// Assembly buffers.
    pub(crate) asm: AsmBufs,
    /// Warm-start/crash temporaries.
    pub(crate) warm: WarmBufs,
    /// Warm-start basis-completion workspace.
    pub(crate) complete: CompleteBufs,
}

impl Scratch {
    /// A fresh, empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The embedded trace recorder (spans, accumulators, counters).
    pub fn obs(&mut self) -> &mut coflow_obs::Recorder {
        self.state.obs()
    }
}

impl Clone for Scratch {
    /// Clones as a *fresh* workspace: capacity is a per-chain cache and
    /// deliberately not copied (cloned chains re-grow on first solve).
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cnt = self.state.counters();
        f.debug_struct("Scratch")
            .field("allocs", &cnt.allocs)
            .field("reuses", &cnt.reuses)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prep_counts_growth_then_reuse() {
        let mut cnt = Counters::default();
        let mut v: Vec<f64> = Vec::new();
        prep(&mut cnt, &mut v, 100, 0.0);
        assert_eq!((cnt.allocs, cnt.reuses), (1, 0));
        assert_eq!(v.len(), 100);
        assert!(v.capacity() >= 128, "power-of-two headroom");
        prep(&mut cnt, &mut v, 120, 1.0);
        assert_eq!((cnt.allocs, cnt.reuses), (1, 1), "within headroom");
        assert!(v.iter().all(|&x| (x - 1.0).abs() < 1e-15));
        prep(&mut cnt, &mut v, 300, 0.0);
        assert_eq!((cnt.allocs, cnt.reuses), (2, 1));
    }

    #[test]
    fn clone_is_fresh() {
        let mut s = Scratch::new();
        let mut m = crate::Model::new();
        let (x, y) = (m.add_nonneg(1.0, "x"), m.add_nonneg(2.0, "y"));
        m.ge(&[(x, 1.0), (y, 1.0)], 1.0);
        m.solve_in(&crate::SolverOptions::default(), None, &mut s)
            .unwrap();
        assert!(s.ph.y.capacity() > 0 && s.state.counters().allocs > 0);
        let c = s.clone();
        assert_eq!(c.ph.y.capacity(), 0);
        assert_eq!(c.state.counters().allocs, 0);
    }
}
