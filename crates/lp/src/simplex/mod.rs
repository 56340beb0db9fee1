//! Bounded-variable revised primal simplex over the sparse LU basis
//! factorization: the phases, and the `State` that `assemble`, `warm`
//! and `recover` prepare for them.
//!
//! Design notes on the pivot loop (why this shape):
//!
//! * The coflow LPs have `m` in the hundreds-to-low-thousands and `n` up to
//!   tens of thousands, with very sparse columns (a flow-interval variable
//!   touches one convexity row, one completion row, and the capacity rows of
//!   its path). The pivot loop talks to the basis through four operations
//!   (`ftran`/`btran`/`update`/`refactor`) of
//!   `SparseLuFactor`: a sparse Markowitz LU with eta-file updates
//!   (`crate::sparse_lu`).
//! * A pivot is one FTRAN (the entering column's image), one BTRAN (`ρ_r`,
//!   row `r` of `B⁻¹`) and the dual update `y ← y + (d_q/α_q)·ρ_r`; the
//!   duals are solved for only at phase start and after a refactorization.
//!   Both images are hypersparse (a few dozen nonzeros out of `m`), so each
//!   pivot carries their nonzero lists: the solves walk only the reach of
//!   their right-hand side (while their running output density stays low,
//!   see `SparseLuFactor::solve`), and the ratio test, the basic-value
//!   move and the eta and dual updates walk only the images' nonzeros. A
//!   bound flip keeps the duals: neither the basis nor the costs changed.
//! * Bounds `l <= x <= u` are handled natively (nonbasic-at-lower /
//!   nonbasic-at-upper, bound flips) — crucial because the LPs are dominated
//!   by `[0,1]` variables and adding bound rows would double `m`.
//! * Pricing is **candidate-list devex**: most pivots rescan a short list of
//!   the best-scoring columns; when the list runs dry a refill scan over
//!   rotating windows of `~4m` columns restocks it. Every choice is broken
//!   by a total order on the candidate values, so pivot sequences are
//!   byte-identical from run to run.
//! * Pricing reads **maintained reduced costs** where they pay
//!   (`rowwise`): once a solve's dot products have cost more than a
//!   row-wise copy of the matrix, each basis change computes the pivotal
//!   row `α_r = ρ_r A` row-wise from the devex row `ρ_r` and updates the
//!   cached `d_j ← d_j − θ·α_rj`; the devex loop reads `α_rj` from the same
//!   row. Duals solved afresh inside a phase update the cache by their
//!   change the same way. A phase start, and an update whose rows hold
//!   more nonzeros than one refill window, mark every cached value stale;
//!   pricing then recomputes `c_j − yᵀa_j` by a dot product when it next
//!   reads one.
//! * Degeneracy is endemic to interval-indexed LPs; the Harris-style ratio
//!   test breaks ties on `|w_r|`, and pricing falls back to Bland's rule
//!   after a run of degenerate pivots (or a detected cycle) to guarantee
//!   termination.
//! * Phase 1 minimizes the sum of per-row artificials; phase 2 locks the
//!   artificials to zero by setting their bounds to `[0,0]`.

mod assemble;
#[cfg(test)]
mod dual_audit;
mod recover;
mod rowwise;
mod warm;

use crate::basis::{Basis, SolveStats};
use crate::factor::{Solve, SparseLuFactor};
use crate::model::{LpError, Model, Solution, SolverOptions, Status};
use crate::presolve::Presolved;
use crate::scratch::{
    prep, reserve, reserve_pool, AsmBufs, Counters, FactorBufs, PhaseBufs, Scratch,
};
use crate::sparse_lu::SparseCol;
use crate::{nonzero, LP_TOL};
use coflow_obs::{Accum, Counter as ObsCounter, Recorder, SpanName};
use rowwise::{cached_reduced_cost, update_reduced_costs};

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

/// The simplex working state: the working problem, the point and basis,
/// the factorization, the per-solve acquisition counters and the trace
/// recorder — what every stage of a solve reads. Persisted inside
/// [`Scratch`] between solves so every vector keeps its capacity;
/// [`solve_presolved`] re-lengths and re-fills each field per solve.
#[derive(Default)]
pub(crate) struct State {
    /// Rows of the working problem.
    m: usize,
    /// Number of explicit (structural + slack) columns.
    n_expl: usize,
    csc: Csc,
    /// Original indices of the rows surviving presolve, in working order.
    kept_rows: Vec<u32>,
    /// Row-wise copy of `csc` for the reduced-cost update.
    rows: rowwise::RowCopy,
    /// Working row → its slack column (`Le`/`Ge` rows only).
    slack_of_row: Vec<Option<usize>>,
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
    /// The basis factorization (elimination storage, workspace, eta file).
    lu: SparseLuFactor,
    /// Factorization temporaries.
    fx: FactorBufs,
    /// Per-solve buffer-acquisition counters.
    cnt: Counters,
    /// Trace recorder. Its ring is allocated at construction, so the
    /// `allocs == 0` contract holds with tracing attached.
    rec: Recorder,
    /// Optional fault-injection hook (chaos testing only), consulted once
    /// per factorization attempt. Installed through
    /// [`crate::WarmChain::set_fault_hook`]; `None` in production.
    pub(crate) hook: Option<Box<dyn crate::FaultHook>>,
    #[cfg(test)]
    audit: dual_audit::DualAudit,
}

impl State {
    /// This solve's buffer-acquisition counters.
    pub(crate) fn counters(&self) -> Counters {
        self.cnt
    }

    /// The trace recorder.
    pub(crate) fn obs(&mut self) -> &mut Recorder {
        &mut self.rec
    }

    #[inline]
    fn nvars(&self) -> usize {
        self.n_expl + self.m
    }

    /// Records `n` columns scored by pricing, for the trace and for the
    /// row-wise copy's fill rule.
    fn priced(&mut self, n: usize) {
        self.rec.bump(ObsCounter::ColumnsPriced, n as u64);
        self.rows.priced += n;
    }

    /// Width of one refill window (see [`Pricer::window`]).
    fn window(&self) -> usize {
        (4 * self.m).max(256).min(self.nvars().max(1))
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

    /// Copies columns `js` into the first `js.len()` slots of the gather
    /// pool `cols` (factorization or basis-completion input).
    fn gather(&self, js: &[usize], cols: &mut [SparseCol]) {
        for (col, &j) in cols.iter_mut().zip(js) {
            col.clear();
            self.for_col(j, |r, v| col.push((r as u32, v)));
        }
    }

    /// FTRAN of column `j`: `w = B⁻¹ a_j`. `w` is zero outside `idx` on
    /// entry; on return `idx` lists the nonzeros of `w`, ascending.
    fn ftran_col(&mut self, j: usize, w: &mut [f64], idx: &mut Vec<u32>) {
        for &i in idx.iter() {
            w[i as usize] = 0.0;
        }
        idx.clear();
        // Scatter the column (structural values, or art_sign for
        // artificials; rows are distinct), then solve.
        self.for_col(j, |r, v| {
            w[r] += v;
            idx.push(r as u32);
        });
        self.lu.solve(Solve::Entering, w, idx);
    }

    /// Duals `y = B⁻ᵀ c_B` via BTRAN, by the dense loops.
    fn duals(&mut self, costs: &[f64], y: &mut [f64]) {
        let t = self.rec.stamp();
        for (k, &bj) in self.basis.iter().enumerate() {
            y[k] = costs[bj];
        }
        self.lu.btran(y);
        self.rec.lap(Accum::FtranBtran, t);
    }

    /// Reduced cost of nonbasic `j` given duals `y`.
    fn reduced_cost(&self, j: usize, costs: &[f64], y: &[f64]) -> f64 {
        let mut d = costs[j];
        self.for_col(j, |r, v| d -= y[r] * v);
        d
    }

    /// Factorizes the current basis and records it (without consulting
    /// the fault hook). Returns the clock stamp that closes the `Factor`
    /// lap.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn factor(&mut self) -> Result<u64, LpError> {
        let t0 = self.rec.stamp();
        let mut cols = std::mem::take(&mut self.fx.cols);
        reserve_pool(&mut self.cnt, &mut cols, self.m);
        self.gather(&self.basis, &mut cols);
        let res = self.lu.refactor(self.m, &cols[..self.m], &mut self.cnt);
        self.fx.cols = cols;
        res?;
        self.stats.refactorizations += 1;
        self.rec.bump(ObsCounter::Refactorizations, 1);
        Ok(self.rec.lap(Accum::Factor, t0))
    }

    /// `r ← B⁻¹ (b − N x_N)`: the basic values the snapped nonbasic point
    /// implies, unclamped (`r` has length `m`).
    fn implied_basic_values(&mut self, r: &mut [f64]) {
        self.nonbasic_residual(r);
        self.lu.ftran(r);
    }

    /// `r ← b − N x_N`: snaps every nonbasic variable to its bound and
    /// leaves the right-hand side the basic ones must cover.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn nonbasic_residual(&mut self, r: &mut [f64]) {
        r.copy_from_slice(&self.b);
        for j in 0..self.nvars() {
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
    }

    /// Rebuilds the factorization from the current basis and recomputes the
    /// basic values (clamping arithmetic noise, failing on violations far
    /// beyond tolerance).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn refactorize(&mut self) -> Result<(), LpError> {
        if let Some(h) = self.hook.as_mut() {
            if h.on_factorization() {
                self.rec.bump(ObsCounter::FaultsInjected, 1);
                return Err(LpError::Numerical("injected singular factorization".into()));
            }
        }
        let t1 = self.factor()?;
        let mut r = std::mem::take(&mut self.fx.r);
        prep(&mut self.cnt, &mut r, self.m, 0.0);
        self.implied_basic_values(&mut r);
        let adopted = self.adopt_basic_values(&r);
        self.fx.r = r;
        adopted?;
        self.rec.lap(Accum::FtranBtran, t1);
        self.since_refactor = 0;
        Ok(())
    }

    /// Sets the basic variables to the values `r`, clamping tiny bound
    /// violations introduced by arithmetic noise.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn adopt_basic_values(&mut self, r: &[f64]) -> Result<(), LpError> {
        let big = LP_TOL * 1e4;
        let off = |side: &str, by: f64| {
            LpError::Numerical(format!("basic var {side} bound by {by:.3e} after refactor"))
        };
        for (pos, val) in r.iter().enumerate() {
            let j = self.basis[pos];
            let mut v = *val;
            if v < self.lb[j] {
                if self.lb[j] - v > big {
                    return Err(off("below", self.lb[j] - v));
                }
                v = self.lb[j];
            }
            if v > self.ub[j] {
                if v - self.ub[j] > big {
                    return Err(off("above", v - self.ub[j]));
                }
                v = self.ub[j];
            }
            self.x[j] = v;
        }
        Ok(())
    }

    /// Moves every basic variable along the entering column's FTRAN image
    /// `w` (nonzero only at `idx`): `x_B ← x_B − step·w` (`step` carries
    /// the entering direction's sign).
    fn move_basics(&mut self, w: &[f64], idx: &[u32], step: f64) {
        for &r in idx {
            let wr = w[r as usize];
            if nonzero(wr) {
                let bj = self.basis[r as usize];
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
/// [`crate::model::key_of`] (and, through `assemble`'s `splitmix_unit`,
/// the deterministic cost jitters).
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

/// Candidate-list capacity: how many of the best-scoring columns a refill
/// scan retains for the following pivots to rescan (two generations live
/// in the list at once, so rescans read up to twice this). Deep enough to
/// survive a run of pivots (eligibility churns fast on degenerate LPs),
/// shallow enough that a rescan costs well under a window scan — the
/// rescan gathers a scattered `d_j` per entry (a cached value, or a dot
/// product over the column when the cache is stale or not in use).
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

/// Offers `c` to the refill scan's bounded top list `out`: the best
/// [`CAND_LIST_CAP`] entries under [`refill_order`], kept as a binary heap
/// whose root is the worst of them. [`refill_order`] is total, so the
/// kept set, and the list sorted from it, do not depend on the heap's
/// layout.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
#[inline]
fn retain_top(out: &mut Vec<RefillEntry>, c: RefillEntry) {
    let worse = |out: &[RefillEntry], i: usize, j: usize| refill_order(&out[i], &out[j]).is_gt();
    if out.len() < CAND_LIST_CAP {
        out.push(c);
        let mut i = out.len() - 1;
        while i > 0 && worse(out, i, (i - 1) / 2) {
            out.swap(i, (i - 1) / 2);
            i = (i - 1) / 2;
        }
    } else if refill_order(&c, &out[0]).is_lt() {
        out[0] = c;
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= out.len() {
                break;
            }
            let child = if l + 1 < out.len() && worse(out, l + 1, l) {
                l + 1
            } else {
                l
            };
            if !worse(out, child, i) {
                break;
            }
            out.swap(i, child);
            i = child;
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
///
/// `CACHED` says the solve maintains reduced costs (see [`rowwise`]): they
/// are read from the cache, and cached when computed. Otherwise every one
/// is a dot product, in loops compiled without the cache checks.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
fn choose_entering<const CACHED: bool>(
    st: &mut State,
    ph: &mut PhaseBufs,
    px: &mut Pricer,
    costs: &[f64],
    bland: bool,
) -> Option<usize> {
    let nv = st.nvars();
    let PhaseBufs {
        y,
        gamma,
        sgn,
        cand,
        top,
        dj,
        ..
    } = ph;
    // Want d < -LP_TOL at lower bound, d > LP_TOL at upper bound; basic and
    // fixed (lb == ub) columns carry sign 0.
    let mut violation = |st: &State, j: usize| {
        let sg = sgn[j];
        if sg == 0 {
            return 0.0;
        }
        let d = if CACHED {
            cached_reduced_cost(st, dj, j, costs, y)
        } else {
            st.reduced_cost(j, costs, y)
        };
        f64::from(sg) * d
    };
    if bland {
        px.scan_start = 0;
        st.priced(nv);
        return (0..nv).find(|&j| violation(st, j) > LP_TOL);
    }

    let mut best: Option<(f64, u32)> = None;
    for &jc in cand.iter() {
        let viol = violation(st, jc as usize);
        if viol > LP_TOL {
            let c = (viol * viol / gamma[jc as usize], jc);
            if best.is_none_or(|b| cand_order(&c, &b).is_lt()) {
                best = Some(c);
            }
        }
    }
    st.priced(cand.len());
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
        for t in 0..take {
            // `base_idx < nv` and `t < nv`, so one conditional subtract
            // wraps.
            let mut j = base_idx + t;
            if j >= nv {
                j -= nv;
            }
            let viol = violation(st, j);
            if viol > 0.0 {
                let c = (viol * viol / gamma[j], j as u32, viol > LP_TOL);
                retain_top(top, c);
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
    st.priced(scanned);
    if scanned > px.window {
        // The candidate came from a later window: rotate the scan start
        // there so the next refill finds it first.
        px.scan_start = (px.scan_start + scanned - px.window) % nv;
    }
    enter
}

/// Pivot step 2: the two-pass Harris ratio test (bounded variables) for an
/// entering column with FTRAN image `w` moving in direction `s`. Both
/// passes walk only `w`'s nonzero rows `idx`, in ascending order (the
/// order that breaks pass 2's ties).
///
/// Basic `r` changes by `-s·t·w_r`. Pass 1 computes the relaxed step bound
/// `t_max` (each row's limit padded by a feasibility tolerance scaled by
/// `1/|w_r|`, so the eventual bound violation of any row is at most
/// `LP_TOL` in *variable space*, not `LP_TOL·|w_r|`). Pass 2 picks the
/// stabilizing pivot (largest `|w_r|`; under `bland` the lowest basic
/// index) among rows whose exact limit fits under `t_max`.
///
/// Returns the leaving `(row, exact step limit)` — `None` when no row
/// blocks before the entering column's own bound flip at `t_flip` — or
/// `Err(())` when the step is unbounded.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
fn ratio_test(
    st: &State,
    w: &[f64],
    idx: &[u32],
    s: f64,
    t_flip: f64,
    bland: bool,
) -> Result<Option<(usize, f64)>, ()> {
    let wmax = idx.iter().fold(0.0f64, |a, &r| a.max(w[r as usize].abs()));
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
    for &r in idx {
        let r = r as usize;
        if let Some((a, slack)) = room(r, w[r]) {
            let lim = (slack + LP_TOL) / a;
            if lim < t_max {
                t_max = lim;
            }
        }
    }
    if t_max.is_infinite() {
        return Err(());
    }

    let mut leave: Option<(usize, f64)> = None;
    for &r in idx {
        let (r, wr) = (r as usize, w[r as usize]);
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
fn apply_flip(st: &mut State, sgn: &mut [i8], w: &[f64], idx: &[u32], j_in: usize, s: f64) {
    st.move_basics(w, idx, s * (st.ub[j_in] - st.lb[j_in]));
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

/// Pivot step 3b: a basis change — `j_in`, of reduced cost `d_q`, enters
/// at basis position `r_lv` after a step of length `t`. Updates the duals,
/// the cached reduced costs and the devex weights first (they need the
/// pre-pivot basis), then moves the point and swaps the statuses. Returns
/// the leaving variable and whether the duals were updated. The
/// factorization update is the caller's.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
fn apply_pivot(
    st: &mut State,
    ph: &mut PhaseBufs,
    j_in: usize,
    d_q: f64,
    s: f64,
    r_lv: usize,
    t: f64,
) -> (usize, bool) {
    let PhaseBufs {
        y,
        w,
        w_idx,
        rho,
        rho_idx,
        gamma,
        sgn,
        cand,
        dj,
        ..
    } = ph;
    let j_out = st.basis[r_lv];

    // --- Devex weight update, restricted to the candidate list: it is all
    // the next rescans read until a refill (which rescores everything it
    // returns anyway), so the update is `O(nnz(list))` instead of
    // `O(nnz(A))`. Untouched columns keep slightly stale weights until a
    // refill scan reaches them — devex is approximate by design. The
    // reference row's BTRAN is timed as one.
    let alpha_q = w[r_lv];
    let update = alpha_q.abs() > 1e-12;
    if update {
        let t_rho = st.rec.stamp();
        st.lu.binv_row(r_lv, rho, rho_idx);
        // The dual update, timed with the BTRAN: `ρ·a_j` is 0 for the basic
        // columns that stay and `α_q` for `j_in`, so `yᵀa_j = c_j` holds.
        let theta = d_q / alpha_q;
        for &i in rho_idx.iter() {
            y[i as usize] += theta * rho[i as usize];
        }
        let t_devex = st.rec.lap(Accum::FtranBtran, t_rho);
        // The pivotal row `α_rj = ρ·a_j`, row-wise when this basis change
        // updates the cached reduced costs, else per candidate below.
        let rowwise = st.pivotal_row(rho, rho_idx, dj);
        let gq = gamma[j_in].max(1.0);
        let ratio2 = gq / (alpha_q * alpha_q);
        let mut overflow = false;
        let mut priced = 0usize;
        for &jc in cand.iter() {
            let j = jc as usize;
            if st.vstat[j] == VStat::Basic || j == j_in {
                continue;
            }
            let aj = if rowwise {
                dj.alpha[j]
            } else {
                priced += 1;
                let mut aj = 0.0;
                st.for_col(j, |r, v| aj += rho[r] * v);
                aj
            };
            if nonzero(aj) {
                let g = aj * aj * ratio2;
                if g > gamma[j] {
                    gamma[j] = g;
                    overflow |= g > 1e12;
                }
            }
        }
        st.rows.priced += priced;
        gamma[j_out] = ratio2.max(1.0);
        if overflow {
            gamma.fill(1.0);
        }
        if rowwise {
            update_reduced_costs(dj, sgn, theta);
        }
        st.rec.lap(Accum::Pricing, t_devex);
    }

    st.move_basics(w, w_idx, s * t);
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
    // The leaving column's cached reduced cost was not maintained while it
    // was basic.
    if st.rows.filled {
        dj.stamp[j_out] = 0;
    }
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
    (j_out, update)
}

/// Runs simplex iterations until optimality for the given cost vector.
/// Each iteration is three steps over the [`State`]: [`choose_entering`],
/// [`ratio_test`], then [`apply_flip`] or [`apply_pivot`] plus the
/// factorization update.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
fn run_phase(
    st: &mut State,
    costs: &[f64],
    opts: &SolverOptions,
    iter_cap: usize,
    ph: &mut PhaseBufs,
) -> Result<PhaseEnd, LpError> {
    let m = st.m;
    let nv = st.nvars();
    let cnt = &mut st.cnt;
    prep(cnt, &mut ph.y, m, 0.0);
    prep(cnt, &mut ph.w, m, 0.0);
    prep(cnt, &mut ph.rho, m, 0.0);
    reserve(cnt, &mut ph.w_idx, m);
    reserve(cnt, &mut ph.rho_idx, m);
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
        window: st.window(),
        scan_start: 0,
        gen_split: 0,
    };
    let mut stall = 0usize;
    let mut bland = false;
    let mut cyc = CycleMon::new(&st.basis);
    let mut local_iters = 0usize;
    // `ph.y` holds the current basis's duals throughout: solved for here
    // and after each refactorization (which bounds the update's drift),
    // updated by each pivot and kept by each bound flip.
    fresh_duals(st, ph, costs);

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

        let t_scan = st.rec.stamp();
        // Budget deadline, checked against the stamp the loop already
        // takes — budgets never add clock reads, so enabling one cannot
        // perturb the logical-clock trace of the pivots that do run.
        if let Some(deadline) = opts.budget.deadline {
            if t_scan >= deadline {
                return Ok(PhaseEnd::Truncated);
            }
        }
        #[cfg(test)]
        {
            st.audit_duals(costs, &ph.y);
            st.audit_reduced_costs(costs, &ph.y, &ph.dj, &ph.sgn);
        }

        let enter = if st.rows.filled {
            choose_entering::<true>(st, ph, &mut px, costs, bland)
        } else {
            choose_entering::<false>(st, ph, &mut px, costs, bland)
        };
        st.rec.lap(Accum::Pricing, t_scan);
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
        let t_ftran = st.rec.stamp();
        st.ftran_col(j_in, &mut ph.w, &mut ph.w_idx);
        st.rec.lap(Accum::FtranBtran, t_ftran);

        let t_flip = st.ub[j_in] - st.lb[j_in]; // may be +inf
        let Ok(leave) = ratio_test(st, &ph.w, &ph.w_idx, s, t_flip, bland) else {
            return Ok(PhaseEnd::Unbounded);
        };

        // Choose between a basis pivot and a bound flip.
        let step = leave.map_or(t_flip, |(_, exact)| exact.min(t_flip));
        let use_flip = t_flip.is_finite() && leave.is_none_or(|(_, exact)| t_flip <= exact);

        // Degeneracy bookkeeping. A cycle-monitor lock survives
        // nondegenerate steps; the stall-counter trigger does not.
        let degenerate = step <= LP_TOL;
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
            apply_flip(st, &mut ph.sgn, &ph.w, &ph.w_idx, j_in, s);
            cyc.sig ^= splitmix64(j_in as u64 ^ FLIP_SALT);
            None
        } else {
            let (r_lv, exact) = leave.ok_or_else(|| {
                LpError::Numerical("bounded ratio test selected no leaving row".into())
            })?;
            let d_q = st.reduced_cost(j_in, costs, &ph.y);
            let (j_out, updated) = apply_pivot(st, ph, j_in, d_q, s, r_lv, exact.max(0.0));
            cyc.sig ^= splitmix64(j_out as u64) ^ splitmix64(j_in as u64);
            Some((r_lv, updated))
        };
        st.iterations += 1;
        st.rec.bump(ObsCounter::Pivots, 1);
        if cyc.observe(degenerate) {
            bland = true;
            st.stats.cycles_detected += 1;
        }
        let Some((r_lv, updated)) = pivot_row else {
            continue;
        };
        let refactor = match st.lu.update(r_lv, &ph.w, &ph.w_idx) {
            Ok(()) => {
                st.since_refactor += 1;
                st.lu.wants_refactor(st.since_refactor)
            }
            // Stale factors produced an untrustworthy pivot: rebuild from
            // scratch (the basis change is already recorded).
            Err(_) if st.since_refactor > 0 => true,
            Err(e) => return Err(e),
        };
        if refactor {
            st.refactorize()?;
        }
        // Fresh factors or a skipped update: the duals are solved for anew.
        if refactor || !updated {
            refresh_duals(st, ph, costs);
        }
    }
}

/// Solves for the duals at phase start. The cached reduced costs were
/// maintained for other costs, so they all go stale.
fn fresh_duals(st: &mut State, ph: &mut PhaseBufs, costs: &[f64]) {
    st.duals(costs, &mut ph.y);
    ph.dj.invalidate();
}

/// Solves for the duals afresh inside a phase. The cached reduced costs
/// follow the duals' change `δ`, `d_j ← d_j − δᵀa_j`, computed row-wise like
/// a pivotal row: after a refactorization `δ` is the update's rounding
/// drift, zero in all but a few rows.
fn refresh_duals(st: &mut State, ph: &mut PhaseBufs, costs: &[f64]) {
    if !st.rows.filled {
        st.duals(costs, &mut ph.y);
        return;
    }
    let PhaseBufs {
        y,
        rho,
        rho_idx,
        sgn,
        dj,
        ..
    } = ph;
    // `ρ` is free between pivots: it keeps the old duals, then `δ`.
    rho.copy_from_slice(y);
    st.duals(costs, y);
    let t = st.rec.stamp();
    rho_idx.clear();
    for (i, (r, &yi)) in rho.iter_mut().zip(y.iter()).enumerate() {
        *r = yi - *r;
        if nonzero(*r) {
            rho_idx.push(i as u32);
        }
    }
    if st.row_image(rho, rho_idx, dj) {
        update_reduced_costs(dj, sgn, 1.0);
    }
    st.rec.lap(Accum::Pricing, t);
}

/// Runs phase 1 (when the current point carries artificial infeasibility),
/// locks the artificials, then runs phase 2 including the final
/// refactorize-and-re-optimize pass. Returns the pivot count after phase 1
/// and whether a [`crate::Budget`] truncated phase 2.
///
/// Called through the recovery ladder ([`State::run_recovering`]), so it
/// must tolerate re-entry: the phase-1 check is value-based (artificials
/// already locked at zero skip straight to phase 2), and `st.iterations`
/// accumulates across attempts so budgets stay per-solve.
fn run_phases(
    st: &mut State,
    opts: &SolverOptions,
    costs1: &[f64],
    costs2: &[f64],
    ph: &mut PhaseBufs,
) -> Result<(usize, bool), LpError> {
    let (n_expl, nvars) = (st.n_expl, st.nvars());
    // ---- Phase 1: minimize sum of artificials. ----
    let phase1_needed = st.x[n_expl..].iter().any(|&v| v > LP_TOL);
    if phase1_needed {
        st.rec.enter(SpanName::Phase1);
        let end = run_phase(st, costs1, opts, opts.max_iters, ph);
        st.rec.exit();
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
            #[allow(
                clippy::manual_clamp,
                reason = "not `clamp`: min/max map a NaN to LP_TOL instead of keeping it"
            )]
            {
                st.x[j] = st.x[j].min(LP_TOL).max(0.0);
            }
        }
    }

    // ---- Phase 2: the real objective, then one final refactorization
    // pass for clean values. ----
    let mut truncated = run_phase2(st, opts, costs2, ph)?;
    st.refactorize()?;
    if !truncated {
        // Re-check optimality after the refresh: if the cleaned point lost
        // optimality (rare), resume pivoting once. Truncated solves skip
        // the re-check — the budget is already spent.
        truncated = run_phase2(st, opts, costs2, ph)?;
    }
    Ok((phase1_iterations, truncated))
}

/// One phase-2 pass within the pivots the solve has left; `true` when a
/// [`crate::Budget`] truncated it.
fn run_phase2(
    st: &mut State,
    opts: &SolverOptions,
    costs2: &[f64],
    ph: &mut PhaseBufs,
) -> Result<bool, LpError> {
    let remaining = opts.max_iters.saturating_sub(st.iterations).max(1);
    st.rec.enter(SpanName::Phase2);
    let end = run_phase(st, costs2, opts, remaining, ph);
    st.rec.exit();
    match end? {
        PhaseEnd::Optimal => Ok(false),
        PhaseEnd::Truncated => Ok(true),
        PhaseEnd::Unbounded => Err(LpError::Unbounded),
    }
}

/// Lagrangian dual value `yᵀb + Σ_j min_{x ∈ [l_j, u_j]} d_j·x` of the
/// working problem at duals `y` (`d` = reduced costs under `costs`): a
/// valid lower bound on the working optimum for *any* `y`. Reduced costs
/// at noise level are clamped to zero so basic columns with infinite upper
/// bound do not collapse the bound spuriously — the result is therefore
/// valid up to `LP_TOL·‖x*‖₁`. Returns `-inf` when a genuinely adverse
/// infinite-bound column makes the duals certify nothing yet.
fn lagrangian_dual(st: &State, costs: &[f64], y: &[f64]) -> f64 {
    let mut v = 0.0;
    for (r, &br) in st.b.iter().enumerate() {
        v += y[r] * br;
    }
    for (j, &cj) in costs.iter().enumerate().take(st.nvars()) {
        let mut d = cj;
        st.for_col(j, |r, a| d -= y[r] * a);
        if d.abs() <= LP_TOL {
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

/// Entry point behind every solve: solve the presolved LP, warm-starting
/// from `warm` when given, and snapshot the final [`Basis`].
///
/// All working storage comes from `scratch`; the per-solve acquisition
/// counters are reset here and copied into the returned
/// [`SolveStats::allocs`]/[`SolveStats::scratch_reuse`] fields.
pub(crate) fn solve_presolved(
    model: &Model,
    pre: &Presolved,
    opts: &SolverOptions,
    warm: Option<&Basis>,
    scratch: &mut Scratch,
) -> Result<(Solution, Basis), LpError> {
    scratch.state.cnt = Counters::default();
    // Accumulator baselines: the recorder is cumulative over the chain, so
    // the per-solve `*_ms` stats fields are deltas over this solve (the
    // stats become a view over the trace rather than parallel bookkeeping).
    let rec = &mut scratch.state.rec;
    let base_pricing = rec.acc(Accum::Pricing);
    let base_xfer = rec.acc(Accum::FtranBtran);
    let base_factor = rec.acc(Accum::Factor);
    rec.enter(SpanName::Solve);
    let res = solve_presolved_inner(model, pre, opts, warm, scratch);
    let State { cnt, rec, .. } = &mut scratch.state;
    rec.exit();
    rec.bump(ObsCounter::ScratchReuses, cnt.reuses as u64);
    let mode = rec.mode();
    res.map(|(mut sol, basis)| {
        sol.stats.allocs = cnt.allocs;
        sol.stats.scratch_reuse = cnt.reuses;
        sol.stats.pricing_ms = mode.to_ms(rec.acc(Accum::Pricing) - base_pricing);
        sol.stats.ftran_btran_ms = mode.to_ms(rec.acc(Accum::FtranBtran) - base_xfer);
        sol.stats.factor_ms = mode.to_ms(rec.acc(Accum::Factor) - base_factor);
        (sol, basis)
    })
}

/// The body of [`solve_presolved`], inside the `Solve` span.
fn solve_presolved_inner(
    model: &Model,
    pre: &Presolved,
    opts: &SolverOptions,
    warm: Option<&Basis>,
    scratch: &mut Scratch,
) -> Result<(Solution, Basis), LpError> {
    let Scratch {
        state: st,
        ph,
        asm,
        warm: wb,
        complete,
    } = scratch;
    st.assemble(model, pre, asm, warm.is_some());

    // ---- Warm start when a snapshot maps and repairs, else the crash. ----
    if let Some(snap) = warm {
        st.stats.warm_used =
            st.map_snapshot(model, pre, snap, wb) && st.repair_basis(opts, wb, complete, ph);
    }
    if !st.stats.warm_used {
        st.cold_start(&mut wb.resid)?;
    }

    // ---- Both phases, inside the recovery ladder. ----
    let AsmBufs { costs1, costs2, .. } = asm;
    st.phase_costs(model, pre, opts.perturb, costs1, costs2);
    let (phase1_iterations, truncated) =
        st.run_recovering(opts, costs1, costs2, ph, &mut wb.resid)?;

    // ---- Scatter back to the original variable space. ----
    let mut values = pre.fixed_values.clone();
    for (rj, &oj) in pre.kept_vars.iter().enumerate() {
        values[oj as usize] = st.x[rj];
    }
    // Fresh duals, into the pivot loop's vector (the phases sized it).
    let ydual = &mut ph.y;
    st.duals(costs2, ydual);
    let mut duals = vec![0.0; model.num_rows()];
    for (new_r, &old_r) in st.kept_rows.iter().enumerate() {
        duals[old_r as usize] = ydual[new_r];
    }
    crate::presolve::postsolve_singleton_duals(model, pre, &mut duals);
    let objective = model.objective_of(&values);
    // For optimal solves the bound IS the objective. For budget-truncated
    // solves it is the Lagrangian dual value at the current working duals,
    // translated into reported-objective space through the working-space
    // objective `Σ costs·x` (exact for `perturb == 0`, within the
    // perturbation scale otherwise).
    let bound = if truncated {
        let working: f64 = (0..st.nvars()).map(|j| costs2[j] * st.x[j]).sum();
        objective - working + lagrangian_dual(st, costs2, ydual)
    } else {
        objective
    };
    let basis_out = st.snapshot(model, pre);

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

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::{
        ratio_test, refill_order, retain_top, splitmix64, CycleMon, RefillEntry, State,
        CAND_LIST_CAP,
    };
    use crate::{nonzero, LpError, Model, SolverOptions, WarmChain};

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

    /// A model whose rows all presolve away runs the ordinary path inside a
    /// chain: between two solves of a multi-row LP it gets a real, empty
    /// factorization and returns what the former row-free shortcut did, and
    /// the next multi-row solve factorizes its own basis (debug builds'
    /// dimension asserts and Miri would catch stale factors) and warm-starts
    /// from the row-free snapshot.
    #[test]
    fn row_free_model_in_a_chain() {
        let rows = {
            let mut m = Model::new();
            let x = m.add_nonneg(2.0, "x");
            let y = m.add_nonneg(3.0, "y");
            let z = m.add_unit(-1.0, "z");
            m.ge(&[(x, 1.0), (y, 1.0)], 4.0);
            m.le(&[(x, 1.0), (z, 2.0)], 9.0);
            m.eq(&[(y, 1.0), (z, 1.0)], 2.0);
            m
        };
        let row_free = {
            let mut m = Model::new();
            let x = m.add_var(-2.0, 0.0, 4.0, "x");
            m.add_var(3.0, 1.0, 9.0, "y");
            let z = m.add_var(-1.0, 0.0, 5.0, "z");
            let w = m.add_var(5.0, 1.0, 1.0, "w");
            m.le(&[(z, 2.0)], 3.0); // a bound on z, binding
            m.le(&[], 1.0);
            m.ge(&[(x, 1.0), (w, 1.0)], 0.5); // x's bound is looser
            m
        };
        let opts = SolverOptions::default();
        let mut chain = WarmChain::new();
        let first = chain.solve(&rows, &opts).unwrap();
        assert!(first.stats.rows > 0);

        let s = chain.solve(&row_free, &opts).unwrap();
        // The former shortcut's answer: each column at its cheaper bound,
        // the binding singleton row priced at its bound's multiplier.
        assert_eq!(s.values, [4.0, 1.0, 1.5, 1.0]);
        assert_eq!(s.objective, -1.5);
        assert_eq!(s.bound, -1.5);
        assert_eq!(s.duals, [-0.5, 0.0, 0.0]);
        assert_eq!(s.status, crate::Status::Optimal);
        assert_eq!(s.stats.rows, 0);
        assert!(s.stats.warm_attempted);
        assert!(s.stats.refactorizations > 0, "an empty basis factorizes");

        let again = chain.solve(&rows, &opts).unwrap();
        assert!(again.stats.warm_attempted);
        assert_close(again.objective, first.objective);
        for (a, b) in again.values.iter().zip(&first.values) {
            assert_close(*a, *b);
        }

        let mut unbounded = Model::new();
        let x = unbounded.add_nonneg(-1.0, "x");
        unbounded.ge(&[(x, 1.0)], 1.0); // presolves into a lower bound
        assert_eq!(
            chain.solve(&unbounded, &opts).unwrap_err(),
            LpError::Unbounded
        );
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
        let reference = crate::dense::solve(&m).unwrap();
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
        let mut chain = WarmChain::new();
        let cold = chain.solve(&m, &opts).unwrap();
        let warm = chain.solve(&m, &opts).unwrap();
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
        let mut chain = WarmChain::new();
        chain.solve(&build(6), &opts).unwrap();
        let big = build(10);
        let warm = chain.solve(&big, &opts).unwrap();
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
        let mut chain = WarmChain::new();
        chain.solve(&a, &SolverOptions::default()).unwrap();

        let mut b = Model::new();
        let x = b.add_nonneg(-1.0, "x"); // entirely different names
        let y = b.add_nonneg(-1.0, "y");
        b.le(&[(x, 1.0), (y, 1.0)], 3.0);
        let warm = chain.solve(&b, &SolverOptions::default()).unwrap();
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

    /// The recovery ladder, rung by rung: a hook fails the listed
    /// factorization calls (1-based; `None` fails every call). Each row
    /// pins `(recovery_refactorizations, basis_repairs, cold_restarts)`, or
    /// the error once the ladder is exhausted; every recovered solve still
    /// reaches the true optimum. A first-factorization fault goes straight
    /// to rung 3 outside the rung budget, so `{1, 3, 4, 5}` runs rung 3
    /// twice.
    #[test]
    fn fault_hook_drives_recovery_ladder() {
        struct FailCalls {
            calls: usize,
            fail: Option<&'static [usize]>,
        }
        impl crate::FaultHook for FailCalls {
            fn on_factorization(&mut self) -> bool {
                self.calls += 1;
                self.fail.is_none_or(|f| f.contains(&self.calls))
            }
        }
        let mut m = Model::new();
        let x = m.add_nonneg(-3.0, "x");
        let y = m.add_nonneg(-5.0, "y");
        m.le(&[(x, 1.0)], 4.0);
        m.le(&[(y, 2.0)], 12.0);
        m.le(&[(x, 3.0), (y, 2.0)], 18.0);

        type Row = (Option<&'static [usize]>, Option<(usize, usize, usize)>);
        let table: [Row; 7] = [
            (Some(&[1]), Some((0, 0, 1))),
            (Some(&[2]), Some((1, 0, 0))),
            (Some(&[2, 3]), Some((1, 1, 0))),
            (Some(&[2, 3, 4]), Some((1, 1, 1))),
            (Some(&[2, 3, 4, 5]), None),
            (Some(&[1, 3, 4, 5]), Some((1, 1, 2))),
            (None, None),
        ];
        for (fail, want) in table {
            let mut chain = crate::WarmChain::new();
            chain.set_fault_hook(Some(Box::new(FailCalls { calls: 0, fail })));
            let got = chain.solve(&m, &SolverOptions::default());
            match (got, want) {
                (Ok(s), Some(rungs)) => {
                    assert_close(s.objective, -36.0);
                    let st = s.stats;
                    let seen = (
                        st.recovery_refactorizations,
                        st.recovery_basis_repairs,
                        st.recovery_cold_restarts,
                    );
                    assert_eq!(seen, rungs, "failing calls {fail:?}");
                }
                (Err(LpError::Numerical(_)), None) => {}
                (got, want) => panic!("failing calls {fail:?}: {got:?}, want {want:?}"),
            }
        }
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

    /// Randomized cases per differential test (fewer under Miri).
    const CASES: u64 = if cfg!(miri) { 5 } else { 300 };

    /// A seeded stream: splitmix64 over a counter.
    struct Stream(u64);

    impl Stream {
        fn below(&mut self, k: usize) -> usize {
            self.0 = self.0.wrapping_add(1);
            (splitmix64(self.0) % k as u64) as usize
        }

        /// `0..n` in a random order.
        fn shuffled(&mut self, n: usize) -> Vec<usize> {
            let mut v: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                v.swap(i, self.below(i + 1));
            }
            v
        }
    }

    /// `retain_top` as it was before the heap: a flat list whose worst
    /// entry is found by a rescan after every replacement. Kept verbatim
    /// as the reference the heap must reproduce.
    fn retain_top_linear(out: &mut Vec<RefillEntry>, worst: &mut usize, c: RefillEntry) {
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

    #[test]
    fn heap_top_list_matches_linear_scan() {
        let mut rng = Stream(0x243F_6A88_85A3_08D3);
        for case in 0..CASES {
            // Windows shorter than, as long as, and longer than the list.
            let sizes = [9, CAND_LIST_CAP - 1, CAND_LIST_CAP, CAND_LIST_CAP + 1, 700];
            let len = sizes[case as usize % sizes.len()];
            // Few distinct scores, so equal scores are common and the
            // column index decides; every third window is all near-misses.
            let scores = 1 + rng.below(6);
            let eligible_in_4 = if case % 3 == 0 { 0 } else { 1 + rng.below(4) };
            let (mut heap, mut linear, mut worst) = (Vec::new(), Vec::new(), 0);
            for j in rng.shuffled(len) {
                let score = (1 + rng.below(scores)) as f64 * 0.25;
                let c = (score, j as u32, rng.below(4) < eligible_in_4);
                retain_top(&mut heap, c);
                retain_top_linear(&mut linear, &mut worst, c);
            }
            assert_eq!(heap.len(), len.min(CAND_LIST_CAP), "case {case}");
            heap.sort_unstable_by(refill_order);
            linear.sort_unstable_by(refill_order);
            let bits = |v: &[RefillEntry]| {
                v.iter()
                    .map(|&(s, j, e)| (s.to_bits(), j, e))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&heap), bits(&linear), "case {case} (window {len})");
        }
    }

    /// `ratio_test` as it was before nonzero lists: both passes walk all
    /// of `w`. Kept verbatim as the reference.
    fn ratio_test_dense(
        st: &State,
        w: &[f64],
        s: f64,
        t_flip: f64,
        bland: bool,
    ) -> Result<Option<(usize, f64)>, ()> {
        let wmax = w.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        let zero_tol = 1e-11_f64.max(1e-10 * wmax);
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
                let lim = (slack + crate::LP_TOL) / a;
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

    #[test]
    fn nonzero_list_ratio_test_matches_dense_scan() {
        let mut rng = Stream(0x1319_8A2E_0370_7344);
        let mut outcomes = [0usize; 3];
        for case in 0..CASES {
            let m = 1 + rng.below(40);
            let nv = 2 * m;
            // Basic variables in a random order, so Bland's lowest basic
            // index is not the lowest row.
            let mut st = State {
                m,
                basis: rng.shuffled(nv)[..m].to_vec(),
                lb: vec![0.0; nv],
                ..State::default()
            };
            st.ub = (0..nv)
                .map(|_| [1.0, 2.0, f64::INFINITY][rng.below(3)])
                .collect();
            // Many basics sit on a bound, so many rows tie at step zero.
            st.x = (0..nv)
                .map(|j| match rng.below(3) {
                    0 => 0.0,
                    1 if st.ub[j].is_finite() => st.ub[j],
                    _ => 0.25 * rng.below(4) as f64,
                })
                .collect();
            // Few distinct magnitudes, so rows tie on |w_r|; some entries
            // sit under the zero tolerance.
            let w: Vec<f64> = (0..m)
                .map(|_| [0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 2.0, 1e-13][rng.below(8)])
                .collect();
            let idx: Vec<u32> = (0..m as u32).filter(|&r| nonzero(w[r as usize])).collect();
            let s = if rng.below(2) == 0 { 1.0 } else { -1.0 };
            let t_flip = [0.5, 3.0, f64::INFINITY][rng.below(3)];
            let bland = case % 2 == 1;
            let got = ratio_test(&st, &w, &idx, s, t_flip, bland);
            let want = ratio_test_dense(&st, &w, s, t_flip, bland);
            let bits =
                |r: Result<Option<(usize, f64)>, ()>| r.map(|o| o.map(|(r, t)| (r, t.to_bits())));
            assert_eq!(bits(got), bits(want), "case {case}");
            outcomes[match want {
                Err(()) => 0,
                Ok(None) => 1,
                Ok(Some(_)) => 2,
            }] += 1;
        }
        assert!(
            cfg!(miri) || outcomes.iter().all(|&n| n > 0),
            "{outcomes:?}"
        );
    }
}
