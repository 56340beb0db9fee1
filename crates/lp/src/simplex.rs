//! Bounded-variable revised primal simplex over the sparse LU basis
//! factorization.
//!
//! Design notes (why this shape):
//!
//! * The coflow LPs have `m` in the hundreds-to-low-thousands and `n` up to
//!   tens of thousands, with very sparse columns (a flow-interval variable
//!   touches one convexity row, one completion row, and the capacity rows of
//!   its path). The pivot loop talks to the basis through four operations
//!   (`ftran`/`btran`/`update`/`refactor`) of
//!   [`SparseLuFactor`]: a sparse Markowitz LU with eta-file updates
//!   ([`crate::sparse_lu`]).
//! * Bounds `l <= x <= u` are handled natively (nonbasic-at-lower /
//!   nonbasic-at-upper, bound flips) — crucial because the LPs are dominated
//!   by `[0,1]` variables and adding bound rows would double `m`.
//! * Pricing is **candidate-list devex**: most pivots rescan a short list of
//!   the best-scoring columns; when the list runs dry a refill scan over
//!   rotating windows of `~4m` columns restocks it. Every choice is broken
//!   by a total order on the candidate values, so pivot sequences are
//!   byte-identical from run to run.
//! * Degeneracy is endemic to interval-indexed LPs; the Harris-style ratio
//!   test breaks ties on `|w_r|`, and pricing falls back to Bland's rule
//!   after a run of degenerate pivots (or a detected cycle) to guarantee
//!   termination.
//! * Phase 1 minimizes the sum of per-row artificials; phase 2 locks the
//!   artificials to zero by setting their bounds to `[0,0]`.
//! * **Warm starts**: a [`Basis`] snapshot from a related model is mapped
//!   onto this one by the integer key of each column's and row's name, so
//!   rows and columns may have been inserted, dropped or reordered in
//!   between; the mapped basic set is completed to a full nonsingular basis
//!   by a rank-revealing elimination
//!   ([`crate::sparse_lu::complete_basis_into`]), preferring each uncovered
//!   row's slack over its artificial. Basic variables the mapping forces
//!   outside their bounds are repaired by a bound-shifting "phase 0"
//!   rather than rejected wholesale; if the repair fails the solver falls
//!   back to its cold crash basis — warm starting is an optimization,
//!   never a correctness risk.

use crate::basis::{Basis, SnapStat, SolveStats};
use crate::factor::SparseLuFactor;
use crate::model::{Cmp, LpError, Model, Solution, SolverOptions, Status};
use crate::presolve::Presolved;
use crate::scratch::{
    prep, reserve, reserve_pool, AsmBufs, CompleteBufs, Counters, FactorBufs, PhaseBufs, Scratch,
    WarmBufs,
};
use crate::sparse_lu::complete_basis_into;
use crate::{nonzero, LP_TOL};
use coflow_obs::{Accum, Counter as ObsCounter, Recorder, SpanName};

/// Variable status in the simplex dictionary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum VStat {
    Basic,
    AtLower,
    AtUpper,
}

/// Sparse matrix in compressed-sparse-column form over the *working*
/// variables (reduced structurals followed by slacks). Artificial columns
/// are unit vectors and handled implicitly.
#[derive(Default)]
struct Csc {
    col_ptr: Vec<usize>,
    row_idx: Vec<u32>,
    values: Vec<f64>,
}

impl Csc {
    #[inline]
    fn col(&self, j: usize) -> (&[u32], &[f64]) {
        let (a, b) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[a..b], &self.values[a..b])
    }
}

/// The simplex working state. Persisted inside [`Scratch`] between solves
/// so every vector keeps its capacity; [`solve_presolved`] re-lengths and
/// re-fills each field per solve.
#[derive(Default)]
pub(crate) struct State {
    /// Rows of the working problem.
    m: usize,
    /// Number of explicit (structural + slack) columns.
    n_expl: usize,
    csc: Csc,
    /// Sign of the artificial column for each row (+1/-1).
    art_sign: Vec<f64>,
    /// Adjusted right-hand side of the working rows.
    b: Vec<f64>,
    /// Bounds over ALL variables (explicit + artificial).
    lb: Vec<f64>,
    ub: Vec<f64>,
    /// Current point over all variables.
    x: Vec<f64>,
    vstat: Vec<VStat>,
    /// Basic variable at each basis position.
    basis: Vec<usize>,
    /// Pivots since the last refactorization.
    since_refactor: usize,
    /// Total pivots.
    iterations: usize,
    /// Per-solve statistics under construction.
    stats: SolveStats,
    /// Optional fault-injection hook (chaos testing only), consulted once
    /// per factorization attempt. Installed through
    /// [`crate::WarmChain::set_fault_hook`]; `None` in production.
    pub(crate) hook: Option<Box<dyn crate::FaultHook>>,
}

impl State {
    #[inline]
    fn nvars(&self) -> usize {
        self.n_expl + self.m
    }

    /// Iterate the nonzero entries of column `j` (explicit or artificial).
    fn for_col<G: FnMut(usize, f64)>(&self, j: usize, mut f: G) {
        if j < self.n_expl {
            let (rows, vals) = self.csc.col(j);
            for (r, v) in rows.iter().zip(vals) {
                f(*r as usize, *v);
            }
        } else {
            let r = j - self.n_expl;
            f(r, self.art_sign[r]);
        }
    }

    /// Gathers the basis columns into the reusable pool `fx.cols[..m]`
    /// (for factorization input) and records the basis nnz.
    fn gather_basis_cols(&mut self, cnt: &mut Counters, fx: &mut FactorBufs) {
        reserve_pool(cnt, &mut fx.cols, self.m);
        let mut nnz = 0usize;
        for (k, &j) in self.basis.iter().enumerate() {
            let col = &mut fx.cols[k];
            col.clear();
            self.for_col(j, |r, v| col.push((r as u32, v)));
            nnz += col.len();
        }
        self.stats.basis_nnz = nnz;
    }

    /// FTRAN of column `j`: `w = B⁻¹ a_j` (dense output).
    fn ftran_col(&self, f: &mut SparseLuFactor, j: usize, w: &mut [f64]) {
        w.fill(0.0);
        // Scatter the column (structural values, or art_sign for
        // artificials), then solve.
        self.for_col(j, |r, v| w[r] += v);
        f.ftran(w);
    }

    /// Duals `y = B⁻ᵀ c_B` via BTRAN.
    fn duals(&self, f: &mut SparseLuFactor, costs: &[f64], y: &mut [f64]) {
        for (k, &bj) in self.basis.iter().enumerate() {
            y[k] = costs[bj];
        }
        f.btran(y);
    }

    /// Reduced cost of nonbasic `j` given duals `y`.
    fn reduced_cost(&self, j: usize, costs: &[f64], y: &[f64]) -> f64 {
        let mut d = costs[j];
        self.for_col(j, |r, v| d -= y[r] * v);
        d
    }

    /// Rebuilds the factorization from the current basis and recomputes the
    /// basic values (clamping arithmetic noise, failing on violations far
    /// beyond tolerance).
    // lint: hot
    fn refactorize(
        &mut self,
        f: &mut SparseLuFactor,
        tol: f64,
        cnt: &mut Counters,
        fx: &mut FactorBufs,
        rec: &mut Recorder,
    ) -> Result<(), LpError> {
        if self.m == 0 {
            return Ok(());
        }
        if let Some(h) = self.hook.as_mut() {
            if h.on_factorization() {
                rec.bump(ObsCounter::FaultsInjected, 1);
                return Err(LpError::Numerical("injected singular factorization".into()));
            }
        }
        let t0 = rec.stamp();
        self.gather_basis_cols(cnt, fx);
        f.refactor(self.m, &fx.cols[..self.m], cnt)?;
        self.stats.refactorizations += 1;
        rec.bump(ObsCounter::Refactorizations, 1);
        self.stats.factor_nnz = f.factor_nnz();
        let t1 = rec.lap(Accum::Factor, t0);
        self.recompute_basic_values(f, tol, cnt, &mut fx.r)?;
        rec.lap(Accum::FtranBtran, t1);
        self.since_refactor = 0;
        Ok(())
    }

    /// Recomputes `x_B = B⁻¹ (b − N x_N)` from the nonbasic point into the
    /// reusable work vector `r`.
    // lint: hot
    fn recompute_basic_values(
        &mut self,
        f: &mut SparseLuFactor,
        tol: f64,
        cnt: &mut Counters,
        r: &mut Vec<f64>,
    ) -> Result<(), LpError> {
        reserve(cnt, r, self.m);
        r.extend_from_slice(&self.b);
        for j in 0..self.nvars() {
            // Snap nonbasic to its bound.
            let xb = match self.vstat[j] {
                VStat::Basic => continue,
                VStat::AtLower => self.lb[j],
                VStat::AtUpper => self.ub[j],
            };
            self.x[j] = xb;
            if nonzero(xb) {
                self.for_col(j, |row, v| r[row] -= v * xb);
            }
        }
        f.ftran(r);
        // Clamp tiny bound violations introduced by arithmetic noise.
        let big = tol.max(1e-9) * 1e4;
        for (pos, val) in r.iter().enumerate() {
            let j = self.basis[pos];
            let mut v = *val;
            if v < self.lb[j] {
                if self.lb[j] - v > big {
                    return Err(LpError::Numerical(format!(
                        "basic var below bound by {:.3e} after refactor",
                        self.lb[j] - v
                    )));
                }
                v = self.lb[j];
            }
            if v > self.ub[j] {
                if v - self.ub[j] > big {
                    return Err(LpError::Numerical(format!(
                        "basic var above bound by {:.3e} after refactor",
                        v - self.ub[j]
                    )));
                }
                v = self.ub[j];
            }
            self.x[j] = v;
        }
        Ok(())
    }

    /// Moves every basic variable along the entering column's FTRAN image
    /// `w`: `x_B ← x_B − step·w` (`step` carries the entering direction's
    /// sign).
    fn move_basics(&mut self, w: &[f64], step: f64) {
        for (r, &wr) in w.iter().enumerate() {
            if nonzero(wr) {
                let bj = self.basis[r];
                self.x[bj] -= step * wr;
            }
        }
    }
}

/// Result of one phase.
enum PhaseEnd {
    Optimal,
    Unbounded,
    /// A [`crate::Budget`] limit tripped (pivot cap or clock deadline).
    /// The state holds the last point reached — primal feasible whenever
    /// the phase was entered feasible — and the caller decides whether
    /// that is returnable ([`Status::Truncated`]) or not (phase 1:
    /// [`LpError::BudgetExhausted`]).
    Truncated,
}

/// SplitMix64: the statistics-grade integer hash behind the basis
/// signatures of the anti-cycling monitor, the name keys of
/// [`crate::model::key_of`] (and, through [`splitmix_unit`], the
/// deterministic cost jitters).
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Salt distinguishing a bound *flip* of column `j` from a basis entry of
/// `j` in the cycle signature (both are XOR-toggles, so revisiting a state
/// restores the signature exactly).
const FLIP_SALT: u64 = 0xF11B_0000_0000_0001;

/// Anti-cycling monitor: a 64-bit XOR-of-hashes signature of the current
/// dictionary (basis members, plus a toggle per at-upper flip) updated
/// incrementally at each pivot. During a degenerate stall the recent
/// signatures are ring-buffered; seeing one again means the pivot sequence
/// has returned to a dictionary it already visited with no objective
/// progress in between — a cycle devex can repeat forever — so the caller
/// locks pricing to Bland's rule for the rest of the phase (the
/// termination argument needs the lock to be permanent). Any nondegenerate
/// step clears the ring: the objective strictly improved, so no earlier
/// dictionary can recur and stale signatures would only risk a (harmless
/// but pivot-wasting) false positive.
struct CycleMon {
    sig: u64,
    ring: [u64; 32],
    len: usize,
    pos: usize,
    locked: bool,
}

impl CycleMon {
    fn new(basis: &[usize]) -> Self {
        let mut sig = 0u64;
        for &j in basis {
            sig ^= splitmix64(j as u64);
        }
        Self {
            sig,
            ring: [0; 32],
            len: 0,
            pos: 0,
            locked: false,
        }
    }

    /// Records the post-pivot signature. Returns `true` exactly once, on
    /// the pivot where a repeat is first detected.
    fn observe(&mut self, degenerate: bool) -> bool {
        if !degenerate {
            self.len = 0;
            self.pos = 0;
            return false;
        }
        if self.locked {
            return false;
        }
        if self.ring[..self.len].contains(&self.sig) {
            self.locked = true;
            return true;
        }
        self.ring[self.pos] = self.sig;
        self.pos = (self.pos + 1) % self.ring.len();
        self.len = (self.len + 1).min(self.ring.len());
        false
    }
}

/// Consecutive degenerate pivots before pricing switches to Bland's rule.
const BLAND_AFTER: usize = 60;

/// Relative magnitude of the deterministic jitter on phase-1 artificial
/// costs. Exact unit costs make transportation-like LPs massively
/// dual-degenerate in phase 1 (every tied reduced cost spawns a run of
/// degenerate pivots); the jitter breaks the ties while preserving the
/// phase-1 optimum's defining property (zero infeasibility ⇔ all
/// artificials at zero).
const PHASE1_JITTER: f64 = 1e-7;

/// Candidate-list capacity: how many of the best-scoring columns a refill
/// scan retains for the following pivots to rescan (two generations live
/// in the list at once, so rescans read up to twice this). Deep enough to
/// survive a run of pivots (eligibility churns fast on degenerate LPs),
/// shallow enough that a rescan costs well under a window scan — the
/// rescan is a scattered gather, and its cache misses dominate pricing
/// long before the list stops fitting.
const CAND_LIST_CAP: usize = 64;

/// Total order on pricing candidates `(devex score, column)`: higher
/// score first, ties to the lower column index. The order is a pure
/// function of the candidate values, so the entering column does not
/// depend on the order in which the list is rescanned.
#[inline]
fn cand_order(a: &(f64, u32), b: &(f64, u32)) -> std::cmp::Ordering {
    b.0.total_cmp(&a.0).then(a.1.cmp(&b.1))
}

/// A refill-scan entry: `(devex score, column, eligible)`.
type RefillEntry = (f64, u32, bool);

/// Retention order for refill-scan entries: eligible columns before
/// near-misses, then higher score, ties to the lower column index.
/// Eligible-first retention guarantees that whenever a window contains an
/// eligible column, the sorted top list's head is one — near-misses can
/// never evict every eligible entry — so termination still only happens
/// after a genuinely fruitless full cycle. Like [`cand_order`], this is a
/// pure function of the entry values (column indices are distinct), so
/// the sorted list does not depend on the order entries were retained in.
#[inline]
fn refill_order(a: &RefillEntry, b: &RefillEntry) -> std::cmp::Ordering {
    b.2.cmp(&a.2).then(b.0.total_cmp(&a.0)).then(a.1.cmp(&b.1))
}

/// Offers `c` to the refill scan's bounded top list `out` (at most
/// [`CAND_LIST_CAP`] entries under [`refill_order`]); `worst` tracks the
/// index of the worst kept entry once the list is full.
// lint: hot
#[inline]
fn retain_top(out: &mut Vec<RefillEntry>, worst: &mut usize, c: RefillEntry) {
    if out.len() < CAND_LIST_CAP {
        out.push(c);
        if out.len() < CAND_LIST_CAP {
            return;
        }
    } else if refill_order(&c, &out[*worst]).is_lt() {
        out[*worst] = c;
    } else {
        return;
    }
    *worst = 0;
    for i in 1..out.len() {
        if refill_order(&out[i], &out[*worst]).is_gt() {
            *worst = i;
        }
    }
}

/// Per-phase cursor of the candidate-list pricing rule (the list itself
/// lives in [`PhaseBufs`] so its capacity persists across solves).
struct Pricer {
    /// Width of one refill window: `~4m` columns. Global-best pricing
    /// stalls badly on degenerate interval/transport LPs — rotating
    /// through windows is what diversifies the entering columns.
    window: usize,
    /// Column the next refill scan starts at. Sticks to the window that
    /// produced the last entering column (attractive columns cluster).
    scan_start: usize,
    /// Boundary between the two candidate-list generations:
    /// `cand[..gen_split]` is the previous refill, `cand[gen_split..]` the
    /// most recent one.
    gen_split: usize,
}

/// Pivot step 1: chooses the entering column under the duals `ph.y`
/// (devex: maximize `d²/γ`, ties by [`cand_order`]); `None` means the
/// point is optimal for `costs`.
///
/// * Under `bland`: the lowest eligible index over ALL columns (the
///   anti-cycling argument needs a consistent total order).
/// * Otherwise rescan the candidate list under the current duals. Entries
///   are kept even while ineligible — degenerate pivots flip reduced-cost
///   signs back and forth, and a rescan is `O(nnz(list))` either way — so
///   the list only turns over at a refill.
/// * When the list is dry, a refill scan over rotating windows. The first
///   window with an ELIGIBLE column refills the list with its top
///   [`CAND_LIST_CAP`] entries by [`refill_order`] — eligible columns
///   first, then the best near-misses (`viol > 0` but under tolerance). On
///   degenerate LPs reduced costs hover around the tolerance and flip sign
///   every few pivots, so the near-misses are precisely the columns the
///   next rescans will find eligible; retaining them is what keeps the
///   list hit rate high. Optimality is only declared after a full
///   fruitless cycle.
// lint: hot
fn choose_entering(
    st: &mut State,
    ph: &mut PhaseBufs,
    px: &mut Pricer,
    costs: &[f64],
    tol: f64,
    bland: bool,
    rec: &mut Recorder,
) -> Option<usize> {
    let nv = st.nvars();
    let PhaseBufs {
        y,
        gamma,
        sgn,
        cand,
        top,
        ..
    } = ph;
    // Want d < -tol at lower bound, d > tol at upper bound; basic and
    // fixed (lb == ub) columns carry sign 0.
    let violation = |st: &State, j: usize| {
        let sg = sgn[j];
        if sg == 0 {
            return 0.0;
        }
        f64::from(sg) * st.reduced_cost(j, costs, y)
    };
    if bland {
        st.stats.pricing_full_scans += 1;
        px.scan_start = 0;
        rec.bump(ObsCounter::ColumnsPriced, nv as u64);
        return (0..nv).find(|&j| violation(st, j) > tol);
    }

    let mut best: Option<(f64, u32)> = None;
    for &jc in cand.iter() {
        let viol = violation(st, jc as usize);
        if viol > tol {
            let c = (viol * viol / gamma[jc as usize], jc);
            if best.is_none_or(|b| cand_order(&c, &b).is_lt()) {
                best = Some(c);
            }
        }
    }
    rec.bump(ObsCounter::ColumnsPriced, cand.len() as u64);
    if let Some((_, j)) = best {
        st.stats.pricing_list_hits += 1;
        return Some(j as usize);
    }

    let mut enter = None;
    let mut scanned = 0usize;
    while scanned < nv {
        let take = px.window.min(nv - scanned);
        let base_idx = (px.scan_start + scanned) % nv;
        top.clear();
        let mut worst = 0usize;
        for t in 0..take {
            // `base_idx < nv` and `t < nv`, so one conditional subtract
            // wraps.
            let mut j = base_idx + t;
            if j >= nv {
                j -= nv;
            }
            let viol = violation(st, j);
            if viol > 0.0 {
                let c = (viol * viol / gamma[j], j as u32, viol > tol);
                retain_top(top, &mut worst, c);
            }
        }
        scanned += take;
        // A window of pure near-misses keeps scanning (and keeps its
        // entries out of the list — only the producing window refills);
        // `refill_order` then sorts eligible entries to the front, so the
        // head is the best eligible column.
        if top.iter().any(|&(_, _, eligible)| eligible) {
            top.sort_unstable_by(refill_order);
            enter = top.first().map(|&(_, j, _)| j as usize);
            // Keep the previous refill's generation alongside the new one:
            // degenerate LPs see-saw between two disjoint eligible sets
            // (one pivot flips the whole current set ineligible and the
            // other set eligible), so the union of the last two refills is
            // what the next few rescans will actually hit.
            cand.drain(..px.gen_split);
            px.gen_split = cand.len();
            cand.extend(top.iter().map(|&(_, j, _)| j));
            // Rescans take an order-independent argmax, so the new
            // generation can be stored in column order — its entries all
            // come from one scan window, and the ascending rescan walks
            // that window's CSC range nearly sequentially instead of
            // thrashing.
            cand[px.gen_split..].sort_unstable();
            break;
        }
    }
    if scanned >= nv {
        st.stats.pricing_full_scans += 1;
    }
    rec.bump(ObsCounter::ColumnsPriced, scanned as u64);
    if scanned > px.window {
        // The candidate came from a later window: rotate the scan start
        // there so the next refill finds it first.
        px.scan_start = (px.scan_start + scanned - px.window) % nv;
    }
    enter
}

/// Pivot step 2: the two-pass Harris ratio test (bounded variables) for an
/// entering column with FTRAN image `w` moving in direction `s`.
///
/// Basic `r` changes by `-s·t·w_r`. Pass 1 computes the relaxed step bound
/// `t_max` (each row's limit padded by a feasibility tolerance scaled by
/// `1/|w_r|`, so the eventual bound violation of any row is at most `tol`
/// in *variable space*, not `tol·|w_r|`). Pass 2 picks the stabilizing
/// pivot (largest `|w_r|`; under `bland` the lowest basic index) among
/// rows whose exact limit fits under `t_max`.
///
/// Returns the leaving `(row, exact step limit)` — `None` when no row
/// blocks before the entering column's own bound flip at `t_flip` — or
/// `Err(())` when the step is unbounded.
// lint: hot
fn ratio_test(
    st: &State,
    w: &[f64],
    s: f64,
    t_flip: f64,
    tol: f64,
    bland: bool,
) -> Result<Option<(usize, f64)>, ()> {
    let wmax = w.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
    let zero_tol = 1e-11_f64.max(1e-10 * wmax);
    // `(|s·w_r|, room)` of a blocking row: how far its basic variable can
    // move toward the bound the step pushes it at.
    let room = |r: usize, wr: f64| {
        let swr = s * wr;
        if swr.abs() <= zero_tol {
            return None;
        }
        let bj = st.basis[r];
        let slack = if swr > 0.0 {
            st.x[bj] - st.lb[bj]
        } else {
            let u = st.ub[bj];
            if u.is_infinite() {
                return None;
            }
            u - st.x[bj]
        };
        Some((swr.abs(), slack.max(0.0)))
    };

    let mut t_max = t_flip; // may be +inf
    for (r, &wr) in w.iter().enumerate() {
        if let Some((a, slack)) = room(r, wr) {
            let lim = (slack + tol) / a;
            if lim < t_max {
                t_max = lim;
            }
        }
    }
    if t_max.is_infinite() {
        return Err(());
    }

    let mut leave: Option<(usize, f64)> = None;
    for (r, &wr) in w.iter().enumerate() {
        let Some((a, slack)) = room(r, wr) else {
            continue;
        };
        let exact = slack / a;
        if exact <= t_max {
            let better = leave.is_none_or(|(cur_r, _)| {
                if bland {
                    st.basis[r] < st.basis[cur_r]
                } else {
                    wr.abs() > w[cur_r].abs()
                }
            });
            if better {
                leave = Some((r, exact));
            }
        }
    }
    Ok(leave)
}

/// Pivot step 3a: a bound flip — `j_in` moves to its opposite bound, the
/// basis is unchanged.
fn apply_flip(st: &mut State, sgn: &mut [i8], w: &[f64], j_in: usize, s: f64) {
    st.move_basics(w, s * (st.ub[j_in] - st.lb[j_in]));
    if s > 0.0 {
        st.vstat[j_in] = VStat::AtUpper;
        sgn[j_in] = 1;
        st.x[j_in] = st.ub[j_in];
    } else {
        st.vstat[j_in] = VStat::AtLower;
        sgn[j_in] = -1;
        st.x[j_in] = st.lb[j_in];
    }
}

/// Pivot step 3b: a basis change — `j_in` enters at basis position `r_lv`
/// after a step of length `t`; returns the leaving variable. Updates the
/// devex weights first (they need the pre-pivot basis), then moves the
/// point and swaps the statuses. The factorization update is the caller's.
// lint: hot
#[allow(clippy::too_many_arguments)]
fn apply_pivot(
    st: &mut State,
    f: &mut SparseLuFactor,
    ph: &mut PhaseBufs,
    j_in: usize,
    s: f64,
    r_lv: usize,
    t: f64,
    rec: &mut Recorder,
) -> usize {
    let PhaseBufs {
        w,
        rho,
        gamma,
        sgn,
        cand,
        ..
    } = ph;
    let j_out = st.basis[r_lv];

    // --- Devex weight update, restricted to the candidate list: it is all
    // the next rescans read until a refill (which rescores everything it
    // returns anyway), so the update is `O(nnz(list))` instead of
    // `O(nnz(A))`. Untouched columns keep slightly stale weights until a
    // refill scan reaches them — devex is approximate by design.
    let t_devex = rec.stamp();
    let alpha_q = w[r_lv];
    if alpha_q.abs() > 1e-12 {
        f.binv_row(r_lv, rho);
        let gq = gamma[j_in].max(1.0);
        let ratio2 = gq / (alpha_q * alpha_q);
        let mut overflow = false;
        for &jc in cand.iter() {
            let j = jc as usize;
            if st.vstat[j] == VStat::Basic || j == j_in {
                continue;
            }
            let mut aj = 0.0;
            st.for_col(j, |r, v| aj += rho[r] * v);
            if nonzero(aj) {
                let g = aj * aj * ratio2;
                if g > gamma[j] {
                    gamma[j] = g;
                    overflow |= g > 1e12;
                }
            }
        }
        gamma[j_out] = ratio2.max(1.0);
        if overflow {
            gamma.fill(1.0);
        }
    }
    rec.lap(Accum::Pricing, t_devex);

    st.move_basics(w, s * t);
    // `s` encodes the entering bound: +1 from lower, -1 from upper.
    st.x[j_in] = if s > 0.0 {
        st.lb[j_in] + t
    } else {
        st.ub[j_in] - t
    };
    // Snap the leaving variable to the bound it hit.
    let to_lower = s * w[r_lv] > 0.0;
    st.vstat[j_out] = if to_lower {
        VStat::AtLower
    } else {
        VStat::AtUpper
    };
    st.x[j_out] = if to_lower { st.lb[j_out] } else { st.ub[j_out] };
    sgn[j_out] = if st.ub[j_out] - st.lb[j_out] <= 0.0 {
        0
    } else if to_lower {
        -1
    } else {
        1
    };
    st.vstat[j_in] = VStat::Basic;
    sgn[j_in] = 0;
    st.basis[r_lv] = j_in;
    j_out
}

/// Runs simplex iterations until optimality for the given cost vector.
/// Each iteration is three steps over the [`State`]: [`choose_entering`],
/// [`ratio_test`], then [`apply_flip`] or [`apply_pivot`] plus the
/// factorization update.
// lint: hot
#[allow(clippy::too_many_arguments)]
fn run_phase(
    st: &mut State,
    f: &mut SparseLuFactor,
    costs: &[f64],
    opts: &SolverOptions,
    iter_cap: usize,
    cnt: &mut Counters,
    ph: &mut PhaseBufs,
    fx: &mut FactorBufs,
    rec: &mut Recorder,
) -> Result<PhaseEnd, LpError> {
    let m = st.m;
    let tol = LP_TOL;
    let nv = st.nvars();
    prep(cnt, &mut ph.y, m, 0.0);
    prep(cnt, &mut ph.w, m, 0.0);
    prep(cnt, &mut ph.rho, m, 0.0);
    // Devex reference weights (reset per phase).
    prep(cnt, &mut ph.gamma, nv, 1.0);
    // Pricing signs, rebuilt per phase (bounds change between phases) and
    // maintained incrementally at each pivot.
    prep(cnt, &mut ph.sgn, nv, 0i8);
    for (j, s) in ph.sgn.iter_mut().enumerate() {
        *s = match st.vstat[j] {
            VStat::Basic => 0,
            _ if st.ub[j] - st.lb[j] <= 0.0 => 0,
            VStat::AtLower => -1,
            VStat::AtUpper => 1,
        };
    }
    // Candidate-list pricing state (reset per phase; capacity retained).
    // Two refill generations live in the list at once.
    reserve(cnt, &mut ph.cand, 2 * CAND_LIST_CAP);
    reserve(cnt, &mut ph.top, CAND_LIST_CAP);
    let mut px = Pricer {
        window: (4 * m).max(256).min(nv.max(1)),
        scan_start: 0,
        gen_split: 0,
    };
    let mut stall = 0usize;
    let mut bland = false;
    let mut cyc = CycleMon::new(&st.basis);
    let mut local_iters = 0usize;

    loop {
        if local_iters >= iter_cap {
            return Err(LpError::IterationLimit);
        }
        local_iters += 1;
        // Budget pivot cap: unlike the hard iteration limit above, this
        // truncates gracefully (counts pivots across both phases).
        if let Some(cap) = opts.budget.max_pivots {
            if st.iterations >= cap {
                return Ok(PhaseEnd::Truncated);
            }
        }

        let t_dual = rec.stamp();
        // Budget deadline, checked against the stamp the loop already
        // takes — budgets never add clock reads, so enabling one cannot
        // perturb the logical-clock trace of the pivots that do run.
        if let Some(deadline) = opts.budget.deadline {
            if t_dual >= deadline {
                return Ok(PhaseEnd::Truncated);
            }
        }
        st.duals(f, costs, &mut ph.y);
        let t_scan = rec.lap(Accum::FtranBtran, t_dual);

        let enter = choose_entering(st, ph, &mut px, costs, tol, bland, rec);
        rec.lap(Accum::Pricing, t_scan);
        let Some(j_in) = enter else {
            return Ok(PhaseEnd::Optimal);
        };

        // Direction: +1 when increasing from lower bound, -1 when
        // decreasing from upper bound.
        let s: f64 = if st.vstat[j_in] == VStat::AtLower {
            1.0
        } else {
            -1.0
        };
        let t_ftran = rec.stamp();
        st.ftran_col(f, j_in, &mut ph.w);
        rec.lap(Accum::FtranBtran, t_ftran);

        let t_flip = st.ub[j_in] - st.lb[j_in]; // may be +inf
        let Ok(leave) = ratio_test(st, &ph.w, s, t_flip, tol, bland) else {
            return Ok(PhaseEnd::Unbounded);
        };

        // Choose between a basis pivot and a bound flip.
        let step = leave.map_or(t_flip, |(_, exact)| exact.min(t_flip));
        let use_flip = t_flip.is_finite() && leave.is_none_or(|(_, exact)| t_flip <= exact);

        // Degeneracy bookkeeping. A cycle-monitor lock survives
        // nondegenerate steps; the stall-counter trigger does not.
        let degenerate = step <= tol;
        if degenerate {
            stall += 1;
            if stall > BLAND_AFTER {
                bland = true;
            }
        } else {
            stall = 0;
            bland = cyc.locked;
        }

        let pivot_row = if use_flip {
            apply_flip(st, &mut ph.sgn, &ph.w, j_in, s);
            cyc.sig ^= splitmix64(j_in as u64 ^ FLIP_SALT);
            None
        } else {
            let (r_lv, exact) = leave.ok_or_else(|| {
                LpError::Numerical("bounded ratio test selected no leaving row".into())
            })?;
            let j_out = apply_pivot(st, f, ph, j_in, s, r_lv, exact.max(0.0), rec);
            cyc.sig ^= splitmix64(j_out as u64) ^ splitmix64(j_in as u64);
            Some(r_lv)
        };
        st.iterations += 1;
        rec.bump(ObsCounter::Pivots, 1);
        if cyc.observe(degenerate) {
            bland = true;
            st.stats.cycles_detected += 1;
        }
        let Some(r_lv) = pivot_row else {
            continue;
        };
        match f.update(r_lv, &ph.w) {
            Ok(()) => {
                st.since_refactor += 1;
                if f.wants_refactor(st.since_refactor) {
                    st.refactorize(f, tol, cnt, fx, rec)?;
                }
            }
            Err(_) if st.since_refactor > 0 => {
                // Stale factors produced an untrustworthy pivot: rebuild
                // from scratch (the basis change is already recorded).
                st.refactorize(f, tol, cnt, fx, rec)?;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Runs phase 1 (when the current point carries artificial infeasibility),
/// locks the artificials, then runs phase 2 including the final
/// refactorize-and-re-optimize pass. Returns the pivot count after phase 1
/// and whether a [`crate::Budget`] truncated phase 2.
///
/// Called through the recovery ladder in [`solve_presolved_inner`], so it
/// must tolerate re-entry: the phase-1 check is value-based (artificials
/// already locked at zero skip straight to phase 2), and `st.iterations`
/// accumulates across attempts so budgets stay per-solve.
#[allow(clippy::too_many_arguments)]
fn run_phases(
    st: &mut State,
    f: &mut SparseLuFactor,
    opts: &SolverOptions,
    costs1: &[f64],
    costs2: &[f64],
    cnt: &mut Counters,
    ph: &mut PhaseBufs,
    fx: &mut FactorBufs,
    rec: &mut Recorder,
) -> Result<(usize, bool), LpError> {
    let n_expl = st.n_expl;
    let nvars = st.nvars();
    // ---- Phase 1: minimize sum of artificials. ----
    let phase1_needed = st.x[n_expl..].iter().any(|&v| v > LP_TOL);
    if phase1_needed {
        rec.enter(SpanName::Phase1);
        let end = run_phase(st, f, costs1, opts, opts.max_iters, cnt, ph, fx, rec);
        rec.exit();
        match end? {
            PhaseEnd::Optimal => {}
            // A budget expiring before feasibility leaves nothing usable.
            PhaseEnd::Truncated => return Err(LpError::BudgetExhausted),
            PhaseEnd::Unbounded => {
                return Err(LpError::Numerical("phase 1 reported unbounded".into()))
            }
        }
        let infeas: f64 = st.x[n_expl..].iter().sum();
        let scale = 1.0 + st.b.iter().map(|v| v.abs()).fold(0.0, f64::max);
        if infeas > LP_TOL * scale * 10.0 {
            return Err(LpError::Infeasible);
        }
    }
    let phase1_iterations = st.iterations;
    // Lock artificials at zero for phase 2.
    for j in n_expl..nvars {
        st.ub[j] = 0.0;
        if st.vstat[j] != VStat::Basic {
            st.vstat[j] = VStat::AtLower;
            st.x[j] = 0.0;
        } else {
            // Not `clamp`: min/max map a NaN to LP_TOL instead of keeping it.
            #[allow(clippy::manual_clamp)]
            {
                st.x[j] = st.x[j].min(LP_TOL).max(0.0);
            }
        }
    }

    // ---- Phase 2: the real objective. ----
    let remaining = opts.max_iters.saturating_sub(st.iterations).max(1);
    rec.enter(SpanName::Phase2);
    let end = run_phase(st, f, costs2, opts, remaining, cnt, ph, fx, rec);
    rec.exit();
    let mut truncated = match end? {
        PhaseEnd::Optimal => false,
        PhaseEnd::Truncated => true,
        PhaseEnd::Unbounded => return Err(LpError::Unbounded),
    };

    // One final refactorization pass for clean values.
    st.refactorize(f, LP_TOL, cnt, fx, rec)?;
    if !truncated {
        // Re-check optimality after the refresh: if the cleaned point lost
        // optimality (rare), resume pivoting once. Truncated solves skip
        // the re-check — the budget is already spent.
        let remaining = opts.max_iters.saturating_sub(st.iterations).max(1);
        rec.enter(SpanName::Phase2);
        let end = run_phase(st, f, costs2, opts, remaining, cnt, ph, fx, rec);
        rec.exit();
        truncated = match end? {
            PhaseEnd::Optimal => false,
            PhaseEnd::Truncated => true,
            PhaseEnd::Unbounded => return Err(LpError::Unbounded),
        };
    }
    Ok((phase1_iterations, truncated))
}

/// `Σ costs·x` over the working variables: the working-space objective of
/// the current point, used to translate a working-space dual bound into
/// reported-objective space.
fn working_objective(st: &State, costs: &[f64]) -> f64 {
    (0..st.nvars()).map(|j| costs[j] * st.x[j]).sum()
}

/// Lagrangian dual value `yᵀb + Σ_j min_{x ∈ [l_j, u_j]} d_j·x` of the
/// working problem at duals `y` (`d` = reduced costs under `costs`): a
/// valid lower bound on the working optimum for *any* `y`. Reduced costs
/// at noise level are clamped to zero so basic columns with infinite upper
/// bound do not collapse the bound spuriously — the result is therefore
/// valid up to `tol·‖x*‖₁`. Returns `-inf` when a genuinely adverse
/// infinite-bound column makes the duals certify nothing yet.
fn lagrangian_dual(st: &State, costs: &[f64], y: &[f64], tol: f64) -> f64 {
    let mut v = 0.0;
    for (r, &br) in st.b.iter().enumerate() {
        v += y[r] * br;
    }
    for (j, &cj) in costs.iter().enumerate().take(st.nvars()) {
        let mut d = cj;
        st.for_col(j, |r, a| d -= y[r] * a);
        if d.abs() <= tol {
            continue;
        }
        if d > 0.0 {
            v += d * st.lb[j];
        } else if st.ub[j].is_finite() {
            v += d * st.ub[j];
        } else {
            return f64::NEG_INFINITY;
        }
    }
    v
}

/// Entry point behind [`Model::solve_with`]: solve the presolved LP,
/// optionally warm-starting from `warm` and optionally extracting the
/// final [`Basis`].
///
/// All working storage comes from `scratch`; the per-solve acquisition
/// counters are reset here and copied into the returned
/// [`SolveStats::allocs`]/[`SolveStats::scratch_reuse`] fields.
pub(crate) fn solve_presolved(
    model: &Model,
    pre: &Presolved,
    opts: &SolverOptions,
    warm: Option<&Basis>,
    want_basis: bool,
    scratch: &mut Scratch,
) -> Result<(Solution, Option<Basis>), LpError> {
    scratch.cnt = Counters::default();
    // Accumulator baselines: the recorder is cumulative over the chain, so
    // the per-solve `*_ms` stats fields are deltas over this solve (the
    // stats become a view over the trace rather than parallel bookkeeping).
    let base_pricing = scratch.rec.acc(Accum::Pricing);
    let base_xfer = scratch.rec.acc(Accum::FtranBtran);
    let base_factor = scratch.rec.acc(Accum::Factor);
    scratch.rec.enter(SpanName::Solve);
    let res = solve_presolved_inner(model, pre, opts, warm, want_basis, scratch);
    scratch.rec.exit();
    scratch
        .rec
        .bump(ObsCounter::ScratchReuses, scratch.cnt.reuses as u64);
    let mode = scratch.rec.mode();
    res.map(|(mut sol, basis)| {
        sol.stats.allocs = scratch.cnt.allocs;
        sol.stats.scratch_reuse = scratch.cnt.reuses;
        sol.stats.pricing_ms = mode.to_ms(scratch.rec.acc(Accum::Pricing) - base_pricing);
        sol.stats.ftran_btran_ms = mode.to_ms(scratch.rec.acc(Accum::FtranBtran) - base_xfer);
        sol.stats.factor_ms = mode.to_ms(scratch.rec.acc(Accum::Factor) - base_factor);
        (sol, basis)
    })
}

/// The body of [`solve_presolved`], inside the `Solve` span.
fn solve_presolved_inner(
    model: &Model,
    pre: &Presolved,
    opts: &SolverOptions,
    warm: Option<&Basis>,
    want_basis: bool,
    scratch: &mut Scratch,
) -> Result<(Solution, Option<Basis>), LpError> {
    let Scratch {
        cnt,
        state: st,
        ph,
        fx,
        asm,
        warm: wb,
        complete,
        lu: f,
        rec,
    } = scratch;
    let AsmBufs {
        kept_rows,
        row_map,
        col_counts,
        slack_of_row,
        fill_ptr,
        costs1,
        costs2,
        y: ydual,
    } = asm;
    // ---- Assemble the working problem. ----
    reserve(cnt, kept_rows, model.num_rows());
    for r in 0..model.num_rows() as u32 {
        if pre.keep_row[r as usize] {
            kept_rows.push(r);
        }
    }
    prep(cnt, row_map, model.num_rows(), None);
    for (new, &old) in kept_rows.iter().enumerate() {
        row_map[old as usize] = Some(new as u32);
    }
    let m = kept_rows.len();
    let n_struct = pre.kept_vars.len();

    // Trivial case: no rows — every variable sits at its cheapest bound.
    if m == 0 {
        let mut values = pre.fixed_values.clone();
        let mut objective = pre.obj_offset;
        let mut at_upper = Vec::new();
        for &oj in pre.kept_vars.iter() {
            let oj = oj as usize;
            let (cost, lo, hi) = (model.cols[oj].cost, pre.lb[oj], pre.ub[oj]);
            let v = if cost >= 0.0 {
                lo
            } else if hi.is_finite() {
                at_upper.push((model.cols[oj].key, SnapStat::AtUpper));
                hi
            } else {
                return Err(LpError::Unbounded);
            };
            values[oj] = v;
            objective += cost * v;
        }
        let stats = SolveStats {
            warm_attempted: warm.is_some(),
            ..Default::default()
        };
        let mut duals = vec![0.0; model.num_rows()];
        crate::presolve::postsolve_singleton_duals(model, pre, LP_TOL, &mut duals);
        return Ok((
            Solution {
                objective,
                bound: objective,
                values,
                duals,
                iterations: 0,
                phase1_iterations: 0,
                status: Status::Optimal,
                stats,
            },
            want_basis.then(|| Basis::new(at_upper, Vec::new())),
        ));
    }

    // Column-sorted triplets over kept rows/vars.
    prep(cnt, col_counts, n_struct, 0usize);
    for &(r, c, _) in &model.triplets {
        if row_map[r as usize].is_some() {
            if let Some(rc) = pre.var_map[c as usize] {
                col_counts[rc as usize] += 1;
            }
        }
    }
    // Slack bookkeeping: one slack for each Le/Ge row.
    prep(cnt, slack_of_row, m, None);
    let mut n_slack = 0usize;
    for (new_r, &old_r) in kept_rows.iter().enumerate() {
        match model.rows[old_r as usize].cmp {
            Cmp::Le | Cmp::Ge => {
                slack_of_row[new_r] = Some(n_slack);
                n_slack += 1;
            }
            Cmp::Eq => {}
        }
    }
    let n_expl = n_struct + n_slack;

    {
        let csc = &mut st.csc;
        prep(cnt, &mut csc.col_ptr, n_expl + 1, 0usize);
        for (j, &count) in col_counts.iter().enumerate().take(n_struct) {
            csc.col_ptr[j + 1] = csc.col_ptr[j] + count;
        }
        for j in n_struct..n_expl {
            csc.col_ptr[j + 1] = csc.col_ptr[j] + 1;
        }
        let nnz = csc.col_ptr[n_expl];
        prep(cnt, &mut csc.row_idx, nnz, 0u32);
        prep(cnt, &mut csc.values, nnz, 0.0f64);
        reserve(cnt, fill_ptr, n_expl + 1);
        fill_ptr.extend_from_slice(&csc.col_ptr);
        for &(r, c, a) in &model.triplets {
            let (Some(nr), Some(nc)) = (row_map[r as usize], pre.var_map[c as usize]) else {
                continue;
            };
            let p = fill_ptr[nc as usize];
            csc.row_idx[p] = nr;
            csc.values[p] = a;
            fill_ptr[nc as usize] += 1;
        }
        // Slack columns.
        for (new_r, slack) in slack_of_row.iter().enumerate() {
            if let Some(si) = slack {
                let j = n_struct + si;
                let p = fill_ptr[j];
                csc.row_idx[p] = new_r as u32;
                csc.values[p] = match model.rows[kept_rows[new_r] as usize].cmp {
                    Cmp::Le => 1.0,
                    Cmp::Ge => -1.0,
                    // lint: allow(no_panic) — slack_of_row assigns no slack to Eq rows
                    Cmp::Eq => unreachable!("Eq rows carry no slack column"),
                };
                fill_ptr[j] += 1;
            }
        }
    }
    // The model builder merges duplicate terms at `add_row` time, so each
    // CSC column already has unique row indices.

    // Bounds and working arrays.
    let nvars = n_expl + m;
    prep(cnt, &mut st.lb, nvars, 0.0);
    prep(cnt, &mut st.ub, nvars, f64::INFINITY);
    for (rj, &oj) in pre.kept_vars.iter().enumerate() {
        st.lb[rj] = pre.lb[oj as usize];
        st.ub[rj] = pre.ub[oj as usize];
    }
    // Slacks: [0, inf). Artificials: [0, inf) during phase 1.

    reserve(cnt, &mut st.b, m);
    for &r in kept_rows.iter() {
        st.b.push(pre.rhs_adjust[r as usize]);
    }

    st.m = m;
    st.n_expl = n_expl;
    prep(cnt, &mut st.art_sign, m, 1.0);
    prep(cnt, &mut st.x, nvars, 0.0);
    prep(cnt, &mut st.vstat, nvars, VStat::AtLower);
    reserve(cnt, &mut st.basis, m);
    st.basis.extend(n_expl..n_expl + m);
    st.since_refactor = 0;
    st.iterations = 0;
    st.stats = SolveStats {
        rows: m,
        cols: n_expl,
        warm_attempted: warm.is_some(),
        ..Default::default()
    };

    // ---- Warm start: map the snapshot onto this model's variables. ----
    let mut warm_ready = false;
    if let Some(snap) = warm {
        warm_ready = try_warm_start(
            model,
            pre,
            st,
            f,
            opts,
            snap,
            kept_rows,
            slack_of_row,
            cnt,
            ph,
            fx,
            wb,
            complete,
            rec,
        );
        st.stats.warm_used = warm_ready;
    }

    if !warm_ready {
        let first = crash_basis(
            model,
            kept_rows,
            slack_of_row,
            n_struct,
            st,
            f,
            cnt,
            fx,
            &mut wb.resid,
            rec,
            true,
        );
        if let Err(e) = first {
            let LpError::Numerical(_) = e else {
                return Err(e);
            };
            // The very first factorization failed (in practice only an
            // injected fault: the crash basis is diagonal). Rungs 1/2 of
            // the recovery ladder would redo exactly what just failed, so
            // escalate straight to rung 3: the all-artificial identity
            // cold start.
            st.stats.recovery_cold_restarts += 1;
            rec.bump(ObsCounter::Recoveries, 1);
            crash_basis(
                model,
                kept_rows,
                slack_of_row,
                n_struct,
                st,
                f,
                cnt,
                fx,
                &mut wb.resid,
                rec,
                false,
            )?;
        }
    }

    // ---- Cost vectors for both phases (prepared once: the recovery
    // ladder below may run the phases more than once). ----
    prep(cnt, costs1, nvars, 0.0);
    for (r, c) in costs1.iter_mut().skip(n_expl).enumerate() {
        *c = 1.0 + PHASE1_JITTER * splitmix_unit(r as u64 + 0x5EED);
    }
    prep(cnt, costs2, nvars, 0.0);
    for (rj, &oj) in pre.kept_vars.iter().enumerate() {
        costs2[rj] = model.cols[oj as usize].cost;
    }
    if opts.perturb > 0.0 {
        // Deterministic anti-degeneracy perturbation on structural costs.
        let scale = costs2[..n_struct]
            .iter()
            .map(|c| c.abs())
            .fold(1.0_f64, f64::max);
        for (j, c) in costs2.iter_mut().enumerate().take(n_struct) {
            *c += opts.perturb * scale * splitmix_unit(j as u64 + 1);
        }
    }

    // ---- Phase 1 + phase 2, wrapped in the singular-factorization
    // recovery ladder: a numerical failure escalates through
    // (1) refactorize the current basis in place, (2) rebuild the crash
    // basis and restore feasibility from scratch, (3) cold-restart from
    // the all-artificial identity basis — before giving up. Each rung is
    // attempted at most once per solve; a rung that itself fails (the
    // basis is singular beyond repair, or the fault hook keeps firing)
    // escalates immediately.
    let mut rung = 0usize;
    let (phase1_iterations, truncated) = loop {
        match run_phases(st, f, opts, costs1, costs2, cnt, ph, fx, rec) {
            Ok(out) => break out,
            Err(LpError::Numerical(msg)) if rung < 3 => {
                let mut recovered = false;
                while !recovered && rung < 3 {
                    rung += 1;
                    rec.bump(ObsCounter::Recoveries, 1);
                    recovered = match rung {
                        1 => {
                            st.stats.recovery_refactorizations += 1;
                            st.refactorize(f, LP_TOL, cnt, fx, rec).is_ok()
                        }
                        2 => {
                            st.stats.recovery_basis_repairs += 1;
                            crash_basis(
                                model,
                                kept_rows,
                                slack_of_row,
                                n_struct,
                                st,
                                f,
                                cnt,
                                fx,
                                &mut wb.resid,
                                rec,
                                true,
                            )
                            .is_ok()
                        }
                        _ => {
                            st.stats.recovery_cold_restarts += 1;
                            crash_basis(
                                model,
                                kept_rows,
                                slack_of_row,
                                n_struct,
                                st,
                                f,
                                cnt,
                                fx,
                                &mut wb.resid,
                                rec,
                                false,
                            )
                            .is_ok()
                        }
                    };
                }
                if !recovered {
                    return Err(LpError::Numerical(msg));
                }
            }
            Err(e) => return Err(e),
        }
    };

    // ---- Scatter back to the original variable space. ----
    let mut values = pre.fixed_values.clone();
    for (rj, &oj) in pre.kept_vars.iter().enumerate() {
        values[oj as usize] = st.x[rj];
    }
    prep(cnt, ydual, m, 0.0);
    st.duals(f, costs2, ydual);
    let mut duals = vec![0.0; model.num_rows()];
    for (new_r, &old_r) in kept_rows.iter().enumerate() {
        duals[old_r as usize] = ydual[new_r];
    }
    crate::presolve::postsolve_singleton_duals(model, pre, LP_TOL, &mut duals);
    let objective = model.objective_of(&values);
    // For optimal solves the bound IS the objective. For budget-truncated
    // solves it is the Lagrangian dual value at the current working duals,
    // translated into reported-objective space (exact for `perturb == 0`,
    // within the perturbation scale otherwise).
    let bound = if truncated {
        objective - working_objective(st, costs2) + lagrangian_dual(st, costs2, ydual, LP_TOL)
    } else {
        objective
    };

    // ---- Snapshot the final basis (by key) if requested. ----
    let basis_out = want_basis.then(|| {
        let mut cols = Vec::with_capacity(m);
        for (rj, &oj) in pre.kept_vars.iter().enumerate() {
            let stat = match st.vstat[rj] {
                VStat::Basic => SnapStat::Basic,
                VStat::AtUpper => SnapStat::AtUpper,
                VStat::AtLower => continue,
            };
            cols.push((model.cols[oj as usize].key, stat));
        }
        let rows = kept_rows
            .iter()
            .zip(slack_of_row.iter())
            .map(|(&r, slack)| {
                let basic = slack.is_some_and(|si| st.vstat[n_struct + si] == VStat::Basic);
                (model.rows[r as usize].key, basic)
            });
        Basis::new(cols, rows.collect())
    });

    st.stats.iterations = st.iterations;
    st.stats.phase1_iterations = phase1_iterations;
    st.stats.truncated = truncated;
    Ok((
        Solution {
            objective,
            bound,
            values,
            duals,
            iterations: st.iterations,
            phase1_iterations,
            status: if truncated {
                Status::Truncated
            } else {
                Status::Optimal
            },
            stats: st.stats,
        },
        basis_out,
    ))
}

/// Builds the cold crash basis: prefer each row's own slack when it can sit
/// at a feasible (nonnegative) value, otherwise fall back to an artificial.
/// This leaves artificials only on equality rows and on inequality rows
/// violated at the all-lower-bound point, which slashes phase-1 work.
///
/// With `prefer_slacks = false` every row is covered by its artificial
/// instead — the recovery ladder's last rung: the basis matrix is then a
/// signed identity, the one factorization that cannot fail numerically.
// lint: hot
#[allow(clippy::too_many_arguments)]
fn crash_basis(
    model: &Model,
    kept_rows: &[u32],
    slack_of_row: &[Option<usize>],
    n_struct: usize,
    st: &mut State,
    f: &mut SparseLuFactor,
    cnt: &mut Counters,
    fx: &mut FactorBufs,
    resid: &mut Vec<f64>,
    rec: &mut Recorder,
    prefer_slacks: bool,
) -> Result<(), LpError> {
    let m = st.m;
    let n_expl = st.n_expl;
    // Reset statuses.
    for j in 0..st.nvars() {
        st.vstat[j] = VStat::AtLower;
    }
    st.basis.clear();
    st.basis.extend(n_expl..n_expl + m);
    st.art_sign.iter_mut().for_each(|s| *s = 1.0);
    for j in n_expl..st.nvars() {
        st.lb[j] = 0.0;
        st.ub[j] = f64::INFINITY;
    }

    // Initial nonbasic point: everything at lower bound.
    for j in 0..n_expl {
        st.x[j] = st.lb[j];
    }
    reserve(cnt, resid, m);
    resid.extend_from_slice(&st.b);
    for j in 0..n_expl {
        let xj = st.x[j];
        if nonzero(xj) {
            st.for_col(j, |r, v| resid[r] -= v * xj);
        }
    }
    for (r, &res) in resid.iter().enumerate() {
        let aj = n_expl + r;
        let slack_ok = match slack_of_row[r].filter(|_| prefer_slacks) {
            Some(si) => {
                let sj = n_struct + si;
                // Slack coefficient: +1 for Le, -1 for Ge.
                let coef = match model.rows[kept_rows[r] as usize].cmp {
                    Cmp::Le => 1.0,
                    Cmp::Ge => -1.0,
                    // lint: allow(no_panic) — slack_of_row assigns no slack to Eq rows
                    Cmp::Eq => unreachable!("Eq rows carry no slack column"),
                };
                let val = res / coef;
                if val >= 0.0 {
                    st.basis[r] = sj;
                    st.vstat[sj] = VStat::Basic;
                    st.x[sj] = val;
                    true
                } else {
                    false
                }
            }
            None => false,
        };
        if slack_ok {
            // Artificial stays nonbasic at 0 and is never allowed to move.
            st.art_sign[r] = 1.0;
            st.ub[aj] = 0.0;
            st.vstat[aj] = VStat::AtLower;
            st.x[aj] = 0.0;
        } else if res >= 0.0 {
            st.art_sign[r] = 1.0;
            st.x[aj] = res;
            st.vstat[aj] = VStat::Basic;
        } else {
            st.art_sign[r] = -1.0;
            st.x[aj] = -res;
            st.vstat[aj] = VStat::Basic;
        }
    }
    st.refactorize(f, LP_TOL, cnt, fx, rec)
}

/// Phase-0 rounds [`try_warm_start`]'s repair may take before it gives the
/// basis up (on `online_eager_k8` 80 % of the repairs take one round, 19 %
/// two; three is the most seen on any benchmark workload).
const REPAIR_ROUNDS: usize = 4;

/// Attempts a warm start from `snap`. Returns `true` when a mapped basis
/// factorized and produced a (near-)feasible point; on `false` the state
/// may be arbitrary and the caller must run the cold crash.
///
/// The mapping is repaired, not all-or-nothing: negative artificials get
/// their sign flipped, basic variables forced outside their range are
/// driven back by rounds of a bound-shifting "phase 0" (see inline
/// comments), and a small residual on artificials is tolerated — phase 1
/// clears it in far fewer pivots than a cold start would need.
// lint: hot
#[allow(clippy::too_many_arguments)]
fn try_warm_start(
    model: &Model,
    pre: &Presolved,
    st: &mut State,
    f: &mut SparseLuFactor,
    opts: &SolverOptions,
    snap: &Basis,
    kept_rows: &[u32],
    slack_of_row: &[Option<usize>],
    cnt: &mut Counters,
    ph: &mut PhaseBufs,
    fx: &mut FactorBufs,
    wb: &mut WarmBufs,
    complete: &mut CompleteBufs,
    rec: &mut Recorder,
) -> bool {
    if snap.is_empty() {
        return false;
    }
    let m = st.m;
    let n_struct = pre.kept_vars.len();
    let n_expl = st.n_expl;
    let WarmBufs {
        cand,
        uppers,
        shifted,
        costs0,
        r,
        ..
    } = wb;

    // Map snapshot statuses onto reduced indices by key.
    reserve(cnt, cand, n_struct + m);
    reserve(cnt, uppers, n_struct);
    for (rj, &oj) in pre.kept_vars.iter().enumerate() {
        match snap.col(model.cols[oj as usize].key) {
            Some(SnapStat::Basic) => cand.push(rj),
            Some(SnapStat::AtUpper) => uppers.push(rj),
            None => {}
        }
    }
    // Slacks: basic when the snapshot remembers the row's slack as basic,
    // and also when the row is absent from the snapshot's working problem —
    // presolved away back then (a colgen capacity row no column touched
    // yet) or genuinely new — because such a row was satisfied strictly at
    // the old optimum. Seeding its slack keeps the mapped basis's implied
    // point exactly at the old optimum; without it the completion may cover
    // the row with a structural column and scramble every basic value.
    for (new_r, slack) in slack_of_row.iter().enumerate() {
        if let Some(si) = slack {
            let key = model.rows[kept_rows[new_r] as usize].key;
            if snap.row(key).unwrap_or(true) {
                cand.push(n_struct + si);
            }
        }
    }

    if cand.is_empty() {
        return false;
    }

    // Bound-violation threshold for treating a mapped basic value as off.
    let vtol = LP_TOL.max(1e-9) * 10.0;
    st.art_sign.iter_mut().for_each(|s| *s = 1.0);

    // Complete the candidate set to a full basis: rank-revealing
    // elimination over the candidate columns, then slack (preferred) or
    // artificial unit columns for uncovered rows.
    reserve_pool(cnt, &mut fx.cols, cand.len());
    for (k, &j) in cand.iter().enumerate() {
        let col = &mut fx.cols[k];
        col.clear();
        st.for_col(j, |row, v| col.push((row as u32, v)));
    }
    complete_basis_into(
        &mut complete.elim,
        &mut complete.ws,
        m,
        &fx.cols[..cand.len()],
        cnt,
    );
    let picked = &complete.elim.pivoted_col;
    let covered = &complete.elim.pivoted_row;
    st.basis.clear();
    for (&j, &p) in cand.iter().zip(picked) {
        if p {
            st.basis.push(j);
        }
    }
    for (r, &cov) in covered.iter().enumerate() {
        if !cov {
            match slack_of_row[r] {
                Some(si) => st.basis.push(n_struct + si),
                None => st.basis.push(n_expl + r),
            }
        }
    }
    if st.basis.len() != m {
        return false;
    }

    // Statuses: basis members basic; snapshot uppers at their (finite)
    // upper bound; everything else at lower. Artificials not in the basis
    // are pinned to zero.
    for j in 0..st.nvars() {
        st.vstat[j] = VStat::AtLower;
    }
    for j in n_expl..st.nvars() {
        st.lb[j] = 0.0;
        st.ub[j] = 0.0;
    }
    for k in 0..m {
        let j = st.basis[k];
        st.vstat[j] = VStat::Basic;
        if j >= n_expl {
            st.ub[j] = f64::INFINITY; // artificial may carry residual
        }
    }
    for &j in uppers.iter() {
        if st.vstat[j] != VStat::Basic && st.ub[j].is_finite() {
            st.vstat[j] = VStat::AtUpper;
        }
    }

    // Factorize and compute the implied basic values, unclamped. A second
    // pass re-factorizes after flipping the sign of any artificial whose
    // implied value came out negative.
    prep(cnt, r, m, 0.0);
    for _pass in 0..2 {
        let t0 = rec.stamp();
        st.gather_basis_cols(cnt, fx);
        if f.refactor(m, &fx.cols[..m], cnt).is_err() {
            return false;
        }
        st.stats.refactorizations += 1;
        rec.bump(ObsCounter::Refactorizations, 1);
        st.stats.factor_nnz = f.factor_nnz();
        rec.lap(Accum::Factor, t0);
        r.copy_from_slice(&st.b);
        for j in 0..st.nvars() {
            let xb = match st.vstat[j] {
                VStat::Basic => continue,
                VStat::AtLower => st.lb[j],
                VStat::AtUpper => st.ub[j],
            };
            st.x[j] = xb;
            if nonzero(xb) {
                st.for_col(j, |row, v| r[row] -= v * xb);
            }
        }
        f.ftran(r);
        let mut flipped = false;
        for (pos, &val) in r.iter().enumerate() {
            let j = st.basis[pos];
            if j >= n_expl && val < -vtol {
                let row = j - n_expl;
                st.art_sign[row] = -st.art_sign[row];
                flipped = true;
            }
        }
        if !flipped {
            break;
        }
    }
    st.since_refactor = 0;

    // Adopt the implied point, collecting every basic variable it forces
    // outside its range.
    shifted.clear();
    for (pos, &val) in r.iter().enumerate() {
        let j = st.basis[pos];
        st.x[j] = if j >= n_expl {
            val.max(0.0)
        } else if val < st.lb[j] - vtol || val > st.ub[j] + vtol {
            shifted.push((j, st.lb[j], st.ub[j]));
            val
        } else {
            val.clamp(st.lb[j], st.ub[j])
        };
    }

    // Early junk-basis rejection, before spending repair pivots: when the
    // mapped point violates bounds on a large fraction of the basis, the
    // snapshot came from a structurally unrelated model (e.g. a different
    // random instance whose variables merely share names) and the
    // bound-shifting repair would burn its whole pivot cap only to fail —
    // cold-starting immediately is cheaper. The ¼ threshold mirrors the
    // artificial-residual acceptance test below; genuinely related models
    // (grown grids, online residuals) shift only a handful of variables.
    if shifted.len() * 4 > m {
        return false;
    }

    // Bound-shifting repair ("phase 0"): a below-lower variable works on
    // the temporary range `[value, lb]` with cost −1, an above-upper one on
    // `[ub, value]` with cost +1, so the phase-0 objective falls exactly as
    // the shifted variables close in on their ranges. A temporary range
    // ends *at* the violated bound, so one round can bring a variable to
    // its bound but not inside its range — and feasibility may need just
    // that of some of them before the rest can return. Hence rounds: after
    // each phase-0 optimum every shifted variable gets its own bounds back,
    // the returned ones stay free over their whole range at cost 0, and
    // only those still outside are shifted again from where they now
    // stand. This is what makes warm starting a *changed* LP robust: the
    // embedded old optimum is usually a handful of pivots from feasibility,
    // while a cold start would redo the whole phase 1.
    prep(cnt, costs0, st.nvars(), 0.0);
    let cap = 200 + 4 * m;
    let mut rounds = 0;
    while !shifted.is_empty() {
        for &(j, lb0, ub0) in shifted.iter() {
            if st.x[j] < lb0 {
                costs0[j] = -1.0;
                st.lb[j] = st.x[j];
                st.ub[j] = lb0;
            } else {
                costs0[j] = 1.0;
                st.lb[j] = ub0;
                st.ub[j] = st.x[j];
            }
        }
        let before = st.iterations;
        let end = run_phase(st, f, costs0, opts, cap, cnt, ph, fx, rec);
        // Restore the original bounds (the cold crash reuses them should
        // the repair fail), re-align the nonbasic statuses of the returned
        // variables with them, and keep the ones still outside.
        shifted.retain(|&(j, lb0, ub0)| {
            st.lb[j] = lb0;
            st.ub[j] = ub0;
            costs0[j] = 0.0;
            if st.x[j] < lb0 - vtol || st.x[j] > ub0 + vtol {
                return true;
            }
            if st.vstat[j] == VStat::Basic {
                st.x[j] = st.x[j].clamp(lb0, ub0);
            } else if (st.x[j] - ub0).abs() <= (st.x[j] - lb0).abs() && ub0.is_finite() {
                st.vstat[j] = VStat::AtUpper;
                st.x[j] = ub0;
            } else {
                st.vstat[j] = VStat::AtLower;
                st.x[j] = lb0;
            }
            false
        });
        rounds += 1;
        let stuck = st.iterations == before || rounds == REPAIR_ROUNDS;
        if !matches!(end, Ok(PhaseEnd::Optimal)) || (stuck && !shifted.is_empty()) {
            return false;
        }
    }

    // Accept unless the mapping left so much residual on artificials that
    // phase 1 would redo everything anyway.
    let art_rows = st.x[n_expl..].iter().filter(|&&v| v > LP_TOL).count();
    art_rows * 4 <= m
}

/// Deterministic hash → uniform float in `(0, 1]` (splitmix64 finalizer).
fn splitmix_unit(mut x: u64) -> f64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64 + f64::EPSILON
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::{splitmix64, CycleMon};
    use crate::{LpError, Model, SolverOptions};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_2var() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => (2, 6), 36.
        let mut m = Model::new();
        let x = m.add_nonneg(-3.0, "x");
        let y = m.add_nonneg(-5.0, "y");
        m.le(&[(x, 1.0)], 4.0);
        m.le(&[(y, 2.0)], 12.0);
        m.le(&[(x, 3.0), (y, 2.0)], 18.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, -36.0);
        assert_close(s.value(x), 2.0);
        assert_close(s.value(y), 6.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 2, x - y = 0 => (1,1), obj 2.
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        let y = m.add_nonneg(1.0, "y");
        m.eq(&[(x, 1.0), (y, 1.0)], 2.0);
        m.eq(&[(x, 1.0), (y, -1.0)], 0.0);
        let s = m.solve().unwrap();
        assert_close(s.value(x), 1.0);
        assert_close(s.value(y), 1.0);
    }

    #[test]
    fn ge_rows_need_phase1() {
        // min 2x + 3y s.t. x + y >= 4, x >= 1  => (4, 0), obj 8.
        let mut m = Model::new();
        let x = m.add_nonneg(2.0, "x");
        let y = m.add_nonneg(3.0, "y");
        m.ge(&[(x, 1.0), (y, 1.0)], 4.0);
        m.ge(&[(x, 1.0)], 1.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 8.0);
        assert_close(s.value(x), 4.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_unit(1.0, "x");
        m.ge(&[(x, 1.0)], 2.0); // x >= 2 but x <= 1
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_nonneg(-1.0, "x"); // min -x, x unbounded above
        let y = m.add_nonneg(0.0, "y");
        m.ge(&[(x, 1.0), (y, 1.0)], 1.0);
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn bound_flip_path() {
        // min -x - y with x,y in [0,1] and a loose row: optimum (1,1).
        let mut m = Model::new();
        let x = m.add_unit(-1.0, "x");
        let y = m.add_unit(-1.0, "y");
        m.le(&[(x, 1.0), (y, 1.0)], 10.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, -2.0);
        assert_close(s.value(x), 1.0);
        assert_close(s.value(y), 1.0);
    }

    #[test]
    fn upper_bounds_bind() {
        // min -3x - 2y, x <= 1.5, y <= 2, x + y <= 3 => x=1.5, y=1.5.
        let mut m = Model::new();
        let x = m.add_var(-3.0, 0.0, 1.5, "x");
        let y = m.add_var(-2.0, 0.0, 2.0, "y");
        m.le(&[(x, 1.0), (y, 1.0)], 3.0);
        let s = m.solve().unwrap();
        assert_close(s.value(x), 1.5);
        assert_close(s.value(y), 1.5);
        assert_close(s.objective, -7.5);
    }

    #[test]
    fn nonzero_lower_bounds() {
        // min x + y, x >= 2, y >= 3, x + y >= 6 => obj 6.
        let mut m = Model::new();
        let x = m.add_var(1.0, 2.0, f64::INFINITY, "x");
        let y = m.add_var(1.0, 3.0, f64::INFINITY, "y");
        m.ge(&[(x, 1.0), (y, 1.0)], 6.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 6.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate LP (Beale-like): many ties in the ratio test.
        let mut m = Model::new();
        let x1 = m.add_nonneg(-0.75, "x1");
        let x2 = m.add_nonneg(150.0, "x2");
        let x3 = m.add_nonneg(-0.02, "x3");
        let x4 = m.add_nonneg(6.0, "x4");
        m.le(&[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], 0.0);
        m.le(&[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], 0.0);
        m.le(&[(x3, 1.0)], 1.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn transportation_problem() {
        // 2 supplies (10, 20), 2 demands (15, 15); costs [[1,2],[3,1]].
        // Optimal: s0->d0:10, s1->d0:5, s1->d1:15 => 10 + 15 + 15 = 40.
        let mut m = Model::new();
        let x00 = m.add_nonneg(1.0, "x00");
        let x01 = m.add_nonneg(2.0, "x01");
        let x10 = m.add_nonneg(3.0, "x10");
        let x11 = m.add_nonneg(1.0, "x11");
        m.eq(&[(x00, 1.0), (x01, 1.0)], 10.0);
        m.eq(&[(x10, 1.0), (x11, 1.0)], 20.0);
        m.eq(&[(x00, 1.0), (x10, 1.0)], 15.0);
        m.eq(&[(x01, 1.0), (x11, 1.0)], 15.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 40.0);
    }

    #[test]
    fn free_row_zero_rhs() {
        // min x s.t. x - y = 0, y in [0,5], x >= 1 => x = y = 1.
        let mut m = Model::new();
        let x = m.add_var(1.0, 1.0, f64::INFINITY, "x");
        let y = m.add_var(0.0, 0.0, 5.0, "y");
        m.eq(&[(x, 1.0), (y, -1.0)], 0.0);
        let s = m.solve().unwrap();
        assert_close(s.objective, 1.0);
        assert_close(s.value(y), 1.0);
    }

    #[test]
    fn negative_rhs_rows() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        m.le(&[(x, -1.0)], -3.0);
        let s = m.solve().unwrap();
        assert_close(s.value(x), 3.0);
    }

    #[test]
    fn no_rows_bounds_only() {
        let mut m = Model::new();
        let x = m.add_var(-2.0, 0.0, 4.0, "x");
        let y = m.add_var(3.0, 1.0, 9.0, "y");
        let s = m.solve().unwrap();
        assert_close(s.value(x), 4.0);
        assert_close(s.value(y), 1.0);
        assert_close(s.objective, -5.0);
    }

    #[test]
    fn no_rows_unbounded() {
        let mut m = Model::new();
        m.add_nonneg(-1.0, "x");
        assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn iteration_limit_respected() {
        let mut m = Model::new();
        let x = m.add_nonneg(-1.0, "x");
        let y = m.add_nonneg(-1.0, "y");
        m.le(&[(x, 1.0), (y, 1.0)], 1.0);
        let opts = SolverOptions {
            max_iters: 0,
            ..Default::default()
        };
        assert_eq!(m.solve_with(&opts).unwrap_err(), LpError::IterationLimit);
    }

    #[test]
    fn duals_on_tight_rows() {
        // min -x, x <= 4 via a 2-var row (a singleton row would be
        // presolved into a bound), x >= 0. Dual of the row is -1.
        let mut m = Model::new();
        let x = m.add_nonneg(-1.0, "x");
        let y = m.add_nonneg(10.0, "y");
        let r = m.le(&[(x, 1.0), (y, 1.0)], 4.0);
        let s = m.solve().unwrap();
        assert_close(s.value(x), 4.0);
        assert_close(s.dual(r), -1.0);
    }

    #[test]
    fn interval_lp_shape_smoke() {
        // Miniature of the paper's LP (4)-(10): 2 flows, 3 intervals,
        // one shared capacity row per interval.
        let mut m = Model::new();
        let tau = [1.0, 2.0, 4.0, 8.0];
        let mut c_vars = Vec::new();
        let mut x_vars = vec![Vec::new(); 2];
        for (f, xv) in x_vars.iter_mut().enumerate() {
            let c = m.add_nonneg(1.0, format!("c{f}"));
            c_vars.push(c);
            for l in 0..3 {
                xv.push(m.add_unit(0.0, format!("x{f}{l}")));
            }
        }
        for f in 0..2 {
            let terms: Vec<_> = (0..3).map(|l| (x_vars[f][l], 1.0)).collect();
            m.eq(&terms, 1.0);
            let mut terms: Vec<_> = (0..3).map(|l| (x_vars[f][l], tau[l])).collect();
            terms.push((c_vars[f], -1.0));
            m.le(&terms, 0.0);
        }
        for l in 0..3 {
            let terms: Vec<_> = (0..2).map(|f| (x_vars[f][l], 1.0 / tau[l])).collect();
            m.le(&terms, 1.0);
        }
        let s = m.solve().unwrap();
        assert!(s.objective >= 1.0 - 1e-6 && s.objective <= 6.0 + 1e-6);
        assert!(m.max_violation(&s.values) < 1e-6);
    }

    #[test]
    fn agrees_with_dense_reference_on_small_lp() {
        let mut m = Model::new();
        let x = m.add_nonneg(-3.0, "x");
        let y = m.add_unit(-5.0, "y");
        let z = m.add_var(2.0, 0.5, 4.0, "z");
        m.le(&[(x, 1.0), (y, 2.0)], 4.0);
        m.ge(&[(x, 1.0), (z, 1.0)], 2.0);
        m.eq(&[(y, 1.0), (z, 1.0)], 1.5);
        let sparse = m.solve().unwrap();
        let reference = m.solve_dense_reference().unwrap();
        assert_close(sparse.objective, reference.objective);
    }

    #[test]
    fn stats_populated() {
        let mut m = Model::new();
        let x = m.add_nonneg(2.0, "x");
        let y = m.add_nonneg(3.0, "y");
        m.ge(&[(x, 1.0), (y, 1.0)], 4.0);
        m.ge(&[(x, 1.0), (y, -1.0)], 1.0);
        let s = m.solve().unwrap();
        assert!(s.stats.iterations > 0);
        assert_eq!(s.stats.iterations, s.iterations);
        assert!(s.stats.refactorizations >= 1);
        assert!(s.stats.factor_nnz > 0);
        assert_eq!(s.stats.rows, 2);
        assert!(!s.stats.warm_attempted);
    }

    #[test]
    fn warm_start_same_model_skips_pivots() {
        // Solve once, snapshot, re-solve warm: the warm solve must accept
        // the basis and spend (near) zero pivots.
        let mut m = Model::new();
        let x = m.add_nonneg(2.0, "x");
        let y = m.add_nonneg(3.0, "y");
        let z = m.add_unit(-1.0, "z");
        m.ge(&[(x, 1.0), (y, 1.0)], 4.0);
        m.le(&[(x, 1.0), (z, 2.0)], 9.0);
        m.eq(&[(y, 1.0), (z, 1.0)], 2.0);
        let opts = SolverOptions::default();
        let (cold, basis) = m.solve_with_basis(&opts).unwrap();
        let (warm, _) = m.solve_warm(&basis, &opts).unwrap();
        assert_close(cold.objective, warm.objective);
        assert!(warm.stats.warm_attempted);
        assert!(warm.stats.warm_used, "same-model warm start must be taken");
        assert_eq!(warm.stats.phase1_iterations, 0);
        assert!(
            warm.stats.iterations <= cold.stats.iterations,
            "warm {} vs cold {}",
            warm.stats.iterations,
            cold.stats.iterations
        );
    }

    #[test]
    fn warm_start_on_grown_model() {
        // A model that literally grows: extra variables and rows appended.
        // Names are stable, so the snapshot maps onto the prefix.
        let build = |stages: usize| {
            let mut m = Model::new();
            let mut xs = Vec::new();
            for k in 0..stages {
                xs.push(m.add_unit(-((k + 1) as f64), format!("x{k}")));
            }
            // Shared budget plus per-pair couplings.
            let terms: Vec<_> = xs.iter().map(|&v| (v, 1.0)).collect();
            m.le(&terms, stages as f64 * 0.6);
            for w in xs.windows(2) {
                m.le(&[(w[0], 1.0), (w[1], 1.0)], 1.2);
            }
            m
        };
        let opts = SolverOptions::default();
        let small = build(6);
        let (_, basis) = small.solve_with_basis(&opts).unwrap();
        let big = build(10);
        let (warm, _) = big.solve_warm(&basis, &opts).unwrap();
        let cold = big.solve_with(&opts).unwrap();
        assert_close(warm.objective, cold.objective);
        assert!(warm.stats.warm_used);
    }

    #[test]
    fn warm_start_from_unrelated_model_falls_back() {
        let mut a = Model::new();
        let p = a.add_nonneg(1.0, "p");
        let q = a.add_nonneg(1.0, "q");
        a.ge(&[(p, 1.0), (q, 1.0)], 2.0);
        let (_, basis) = a.solve_with_basis(&SolverOptions::default()).unwrap();

        let mut b = Model::new();
        let x = b.add_nonneg(-1.0, "x"); // entirely different names
        let y = b.add_nonneg(-1.0, "y");
        b.le(&[(x, 1.0), (y, 1.0)], 3.0);
        let (warm, _) = b.solve_warm(&basis, &SolverOptions::default()).unwrap();
        let cold = b.solve().unwrap();
        assert_close(warm.objective, cold.objective);
        assert!(warm.stats.warm_attempted);
        assert!(!warm.stats.warm_used, "no shared names: must cold start");
    }

    /// A zero-pivot budget on an LP whose crash basis is already feasible
    /// (all `Le` rows) returns the crash point as a `Truncated` solution
    /// with a valid lower bound, instead of an error.
    #[test]
    fn pivot_budget_truncates_phase2() {
        let mut m = Model::new();
        let x = m.add_nonneg(-3.0, "x");
        let y = m.add_nonneg(-5.0, "y");
        m.le(&[(x, 1.0)], 4.0);
        m.le(&[(y, 2.0)], 12.0);
        m.le(&[(x, 3.0), (y, 2.0)], 18.0);
        let opts = SolverOptions {
            budget: crate::Budget {
                max_pivots: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        let s = m.solve_with(&opts).unwrap();
        assert_eq!(s.status, crate::Status::Truncated);
        assert!(s.stats.truncated);
        assert_eq!(s.iterations, 0);
        // The crash point is the origin: objective 0, true optimum -36.
        assert_close(s.objective, 0.0);
        assert!(
            s.bound <= -36.0 + 1e-6,
            "bound {} must under-estimate",
            s.bound
        );
        // An ample budget leaves the solve untouched.
        let opts = SolverOptions {
            budget: crate::Budget {
                max_pivots: Some(10_000),
                ..Default::default()
            },
            ..Default::default()
        };
        let s = m.solve_with(&opts).unwrap();
        assert_eq!(s.status, crate::Status::Optimal);
        assert_close(s.objective, -36.0);
        assert_close(s.bound, -36.0);
    }

    /// A budget that expires during phase 1 means there is no feasible
    /// point to degrade to: the solve fails with `BudgetExhausted`.
    #[test]
    fn pivot_budget_in_phase1_is_exhaustion() {
        let mut m = Model::new();
        let x = m.add_nonneg(2.0, "x");
        let y = m.add_nonneg(3.0, "y");
        m.ge(&[(x, 1.0), (y, 1.0)], 4.0);
        m.ge(&[(x, 1.0)], 1.0);
        let opts = SolverOptions {
            budget: crate::Budget {
                max_pivots: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        assert_eq!(m.solve_with(&opts).unwrap_err(), LpError::BudgetExhausted);
    }

    /// A deadline already in the past truncates immediately (the deadline
    /// is checked against the same stamps the trace already takes, so an
    /// unset deadline perturbs nothing).
    #[test]
    fn past_deadline_truncates() {
        let mut m = Model::new();
        let x = m.add_nonneg(-3.0, "x");
        let y = m.add_nonneg(-5.0, "y");
        m.le(&[(x, 1.0), (y, 1.0)], 4.0);
        m.le(&[(x, 3.0), (y, 2.0)], 18.0);
        let opts = SolverOptions {
            budget: crate::Budget {
                deadline: Some(0),
                ..Default::default()
            },
            ..Default::default()
        };
        let s = m.solve_with(&opts).unwrap();
        assert_eq!(s.status, crate::Status::Truncated);
    }

    /// A hook that fails the first factorization forces the rung-3 cold
    /// restart; one that fails a later factorization exercises rung 1.
    /// Either way the solve still reaches the true optimum.
    #[test]
    fn fault_hook_drives_recovery_ladder() {
        struct FailCalls {
            calls: usize,
            fail_from: usize,
            fail_to: usize,
        }
        impl crate::FaultHook for FailCalls {
            fn on_factorization(&mut self) -> bool {
                self.calls += 1;
                self.calls >= self.fail_from && self.calls < self.fail_to
            }
        }
        let mut m = Model::new();
        let x = m.add_nonneg(-3.0, "x");
        let y = m.add_nonneg(-5.0, "y");
        m.le(&[(x, 1.0)], 4.0);
        m.le(&[(y, 2.0)], 12.0);
        m.le(&[(x, 3.0), (y, 2.0)], 18.0);

        // Fault on the very first factorization only.
        let mut chain = crate::WarmChain::new();
        chain.set_fault_hook(Some(Box::new(FailCalls {
            calls: 0,
            fail_from: 1,
            fail_to: 2,
        })));
        let s = chain.solve(&m, &SolverOptions::default()).unwrap();
        assert_close(s.objective, -36.0);
        assert_eq!(
            s.stats.recovery_cold_restarts, 1,
            "first-factorization fault"
        );

        // Fault on the second factorization (the end-of-phase refactorize):
        // rung 1 (plain refactorize retry) recovers.
        let mut chain = crate::WarmChain::new();
        chain.set_fault_hook(Some(Box::new(FailCalls {
            calls: 0,
            fail_from: 2,
            fail_to: 3,
        })));
        let s = chain.solve(&m, &SolverOptions::default()).unwrap();
        assert_close(s.objective, -36.0);
        assert_eq!(s.stats.recovery_refactorizations, 1, "mid-solve fault");
        assert_eq!(s.stats.recovery_cold_restarts, 0);

        // A hook that never stops failing exhausts the ladder.
        struct AlwaysFail;
        impl crate::FaultHook for AlwaysFail {
            fn on_factorization(&mut self) -> bool {
                true
            }
        }
        let mut chain = crate::WarmChain::new();
        chain.set_fault_hook(Some(Box::new(AlwaysFail)));
        assert!(matches!(
            chain.solve(&m, &SolverOptions::default()),
            Err(LpError::Numerical(_))
        ));
    }

    /// The anti-cycling monitor: signatures are XOR toggles, so revisiting
    /// a basis state during a degenerate stall is detected exactly once,
    /// and any nondegenerate step clears the history.
    #[test]
    fn cycle_monitor_detects_revisit() {
        let basis = vec![3usize, 7, 11];
        let mut cyc = CycleMon::new(&basis);
        // A 2-cycle: swap 3↔5, swap back, swap again. Signatures are only
        // recorded *after* each pivot, so detection fires on the pivot
        // that re-produces an already-buffered signature.
        cyc.sig ^= splitmix64(3) ^ splitmix64(5);
        assert!(!cyc.observe(true), "fresh signature");
        cyc.sig ^= splitmix64(5) ^ splitmix64(3);
        assert!(!cyc.observe(true), "start signature was never buffered");
        cyc.sig ^= splitmix64(3) ^ splitmix64(5);
        assert!(cyc.observe(true), "revisit must be flagged");
        assert!(cyc.locked, "detection locks Bland's rule");
        // Already locked: further revisits are not re-reported.
        cyc.sig ^= splitmix64(5) ^ splitmix64(3);
        assert!(!cyc.observe(true), "reported once per phase");

        // A nondegenerate step clears the ring: the old signature no
        // longer counts as a revisit.
        let mut cyc = CycleMon::new(&basis);
        cyc.sig ^= splitmix64(3) ^ splitmix64(5);
        assert!(!cyc.observe(true));
        cyc.sig ^= splitmix64(5) ^ splitmix64(3);
        assert!(!cyc.observe(false), "objective moved: not a cycle");
        cyc.sig ^= splitmix64(3) ^ splitmix64(5);
        assert!(!cyc.observe(true), "history was cleared");
    }
}
