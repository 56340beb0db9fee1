//! Sparse LU basis factorization with Markowitz pivot selection and
//! product-form (eta-file) updates.
//!
//! The interval-indexed and time-expanded coflow LPs have basis matrices
//! that are extremely sparse (a handful of nonzeros per column) and stay
//! sparse under elimination when pivots are chosen to limit fill-in. This
//! module implements:
//!
//! * [`LuFactors`] — a right-looking sparse Gaussian elimination with
//!   Markowitz pivoting (cost `(r_i − 1)(c_j − 1)` under a relative
//!   stability threshold), producing permuted triangular factors stored as
//!   **flat CSR-style arrays** (`lcol_ptr`/`lcol_rows`/`lcol_vals`,
//!   `urow_ptr`/`urow_cols`/`urow_vals`) rather than per-step vectors, so a
//!   refactorization reuses one contiguous allocation per component;
//! * an **eta file**: after each simplex pivot the factorization is updated
//!   in product form (`B⁻¹ ← E⁻¹ B⁻¹`), stored flat the same way, so a
//!   refactorization is only needed every few dozen pivots or when the eta
//!   file outgrows the factors;
//! * [`complete_basis_into`] — a rank-revealing elimination used by warm
//!   starts: given candidate basic columns mapped from a previous solve, it
//!   reports which candidates are independent and which rows remain
//!   uncovered (to be filled by slack or artificial unit columns);
//! * [`ElimWs`] — the elimination's working arrays (row-major working
//!   matrix, column membership lists, count buckets, epoch-stamped dense
//!   scratch), owned by the caller and reused across factorizations. On
//!   the steady-state path of a solve sequence
//!   ([`Scratch`](crate::Scratch)-threaded), a refactorization performs
//!   zero allocations once capacities have grown to the working size;
//!   every length-known acquisition is counted via
//!   [`Counters`](crate::scratch::Counters).
//!
//! What each part costs: a factorization acquires and fills its working
//! arrays in `O(m + n + nnz)`. Each elimination step finds its Markowitz
//! candidates in [`CountBuckets`] by walking count buckets from 1 upward,
//! which costs the buckets and bitset words it passes, not a scan of all
//! `n` columns; the step itself costs the rows it updates. A basis that is
//! mostly slack singletons therefore factors in `O(nnz)` rather than
//! `O(m²)`. Each factorization also builds, in `O(m + nnz)`, the
//! transposes a solve's reach needs: row → step, U by column and L by row.
//!
//! Solves come in two paths with bit-identical results. The dense
//! [`ftran`](LuFactors::ftran)/[`btran`](LuFactors::btran) loop over all
//! `m` steps: `O(m + nnz(L, U, eta))`. The hypersparse
//! [`ftran_sparse`](LuFactors::ftran_sparse)/[`btran_sparse`](LuFactors::btran_sparse)
//! (Gilbert–Peierls reach, as Hall & McKinnon apply it to the revised
//! simplex) first collect the steps reachable from the right-hand side's
//! nonzeros, sort them, and visit only those in the dense loops' order,
//! so each entry runs the same floating-point fold: they cost the reached
//! steps' entries plus a sort of the reach, and the eta file. Which path a
//! pivot-loop solve takes is decided by its running output density
//! ([`SparseLuFactor::solve`](crate::factor::SparseLuFactor::solve)).

use crate::nonzero;
use crate::scratch::{prep, reserve, reserve_pool, Counters};

/// A sparse column: `(row, value)` pairs (unordered, no duplicates).
pub(crate) type SparseCol = Vec<(u32, f64)>;

/// Relative pivot-stability threshold (classic Markowitz `u`).
const PIV_REL: f64 = 0.1;
/// A column whose largest entry is below this is numerically empty.
const PIV_ABS: f64 = 1e-11;
/// Entries below `DROP_REL · (1 + rowmax)` are dropped during elimination.
const DROP_REL: f64 = 1e-13;
/// How many smallest-count columns to examine per pivot step.
const PIV_CANDIDATES: usize = 4;

/// Result of [`eliminate_into`]: triangular factors plus pivot bookkeeping,
/// stored flat (per-step extents via the `*_ptr` offset arrays) so the
/// storage is reusable across factorizations.
#[derive(Clone, Debug, Default)]
pub(crate) struct Elimination {
    /// Pivot row (original row index) per step.
    rp: Vec<u32>,
    /// Pivoted column (input column index) per step.
    cpos: Vec<u32>,
    /// Pivot values per step.
    diag: Vec<f64>,
    /// Step `k`'s L multipliers live at `lcol_ptr[k]..lcol_ptr[k+1]`.
    lcol_ptr: Vec<usize>,
    /// L multiplier target rows: row `r` had `f ×` pivot row subtracted.
    lcol_rows: Vec<u32>,
    /// L multiplier factors `f`, parallel to `lcol_rows`.
    lcol_vals: Vec<f64>,
    /// Step `k`'s U row lives at `urow_ptr[k]..urow_ptr[k+1]`.
    urow_ptr: Vec<usize>,
    /// U row column indices per step (diagonal excluded).
    urow_cols: Vec<u32>,
    /// U row values, parallel to `urow_cols`.
    urow_vals: Vec<f64>,
    /// column index -> step that pivoted it (`u32::MAX` if unpivoted).
    step_of_col: Vec<u32>,
    /// Which input columns were pivoted (independent).
    pub pivoted_col: Vec<bool>,
    /// Which rows received a pivot.
    pub pivoted_row: Vec<bool>,
    /// Nonzeros in L + U (including diagonals).
    pub nnz: usize,
}

/// Reusable working arrays for [`eliminate_into`]. All vectors keep their
/// capacity between factorizations; the epoch counter is monotone across
/// calls so stale stamps from earlier (possibly larger) problems can never
/// collide with a freshly bumped epoch.
#[derive(Clone, Debug, Default)]
pub(crate) struct ElimWs {
    /// Row-major working matrix (compacted on update).
    rows: Vec<Vec<(u32, f64)>>,
    /// Column -> candidate rows (may contain stale entries; filtered on use).
    col_rows: Vec<Vec<u32>>,
    /// Live nonzero count per column, bucketed for pivot selection.
    counts: CountBuckets,
    /// Rows not yet pivoted.
    row_active: Vec<bool>,
    /// Columns not yet pivoted.
    col_active: Vec<bool>,
    /// Dense merge scratch (valid where `stamp` matches the epoch).
    val: Vec<f64>,
    /// Epoch stamps for `val` and the membership diffs.
    stamp: Vec<u64>,
    /// Monotone epoch counter (never reset).
    epoch: u64,
    /// Columns touched by the current row merge.
    touched: Vec<u32>,
    /// Live entries of the pivot-candidate column under inspection.
    entries: Vec<(u32, f64)>,
    /// Target rows of the current elimination step.
    targets: Vec<u32>,
    /// Replacement row being assembled (swapped into `rows`).
    fresh: Vec<(u32, f64)>,
}

/// Live nonzero count per column, with the columns bucketed by count so
/// that pivot selection reads the smallest-count columns directly instead
/// of scanning all of them. Bucket `k ≥ 1` is a bitset over column indices
/// holding exactly the columns whose count is `k`; a column with count 0
/// (empty, or pivoted) is in no bucket. Every count write goes through
/// [`set`](CountBuckets::set), which keeps the buckets exact.
#[derive(Clone, Debug, Default)]
struct CountBuckets {
    /// Live nonzero count per column (0 once pivoted).
    count: Vec<usize>,
    /// `u64` words per bucket (`⌈n / 64⌉`).
    words: usize,
    /// Bucket `k`'s bitset is `bits[(k − 1)·words..k·words]`.
    bits: Vec<u64>,
    /// Bucket `k`'s population and word hint are `heads[k − 1]`.
    heads: Vec<BucketHead>,
    /// Columns across all buckets.
    total: usize,
}

/// Per-bucket bookkeeping of [`CountBuckets`].
#[derive(Clone, Copy, Debug)]
struct BucketHead {
    /// Columns in the bucket.
    pop: usize,
    /// A word index at or below the bucket's lowest nonzero word.
    low: usize,
}

impl CountBuckets {
    /// Acquires the storage for `col_rows.len()` columns, with capacity for
    /// every count fill-in can reach (`m`), and buckets them by count.
    fn start(&mut self, cnt: &mut Counters, m: usize, col_rows: &[Vec<u32>]) {
        let n = col_rows.len();
        let kmax = col_rows.iter().map(Vec::len).max().unwrap_or(0);
        let levels = m.max(kmax).next_power_of_two();
        self.words = n.div_ceil(64);
        self.total = 0;
        prep(cnt, &mut self.count, n, 0);
        reserve(cnt, &mut self.bits, levels * self.words);
        self.bits.resize(kmax * self.words, 0);
        let empty = BucketHead {
            pop: 0,
            low: self.words,
        };
        reserve(cnt, &mut self.heads, levels);
        self.heads.resize(kmax, empty);
        for (c, rows) in col_rows.iter().enumerate() {
            self.set(cnt, c, rows.len());
        }
    }

    /// Moves column `c` to count `k` (into bucket `k`, or out of every
    /// bucket for `k == 0`).
    fn set(&mut self, cnt: &mut Counters, c: usize, k: usize) {
        let old = self.count[c];
        if old == k {
            return;
        }
        let (w, bit) = (c / 64, 1u64 << (c % 64));
        if old > 0 {
            self.bits[(old - 1) * self.words + w] &= !bit;
            self.heads[old - 1].pop -= 1;
            self.total -= 1;
        }
        if k > 0 {
            if k > self.heads.len() {
                self.grow(cnt, k);
            }
            self.bits[(k - 1) * self.words + w] |= bit;
            let head = &mut self.heads[k - 1];
            head.pop += 1;
            head.low = head.low.min(w);
            self.total += 1;
        }
        self.count[c] = k;
    }

    /// Adds empty buckets up to a power of two at least `k` (fill-in raised
    /// a count past every bucket), counting the acquisition.
    fn grow(&mut self, cnt: &mut Counters, k: usize) {
        let k = k.next_power_of_two();
        if self.bits.capacity() >= k * self.words && self.heads.capacity() >= k {
            cnt.reuses += 1;
        } else {
            cnt.allocs += 1;
        }
        self.bits.resize(k * self.words, 0);
        let empty = BucketHead {
            pop: 0,
            low: self.words,
        };
        self.heads.resize(k, empty);
    }

    /// Lowers column `c`'s count by one. Counts are exact, so a column
    /// losing an entry always has one to lose.
    fn dec(&mut self, cnt: &mut Counters, c: usize) {
        let k = self.count[c];
        debug_assert!(k > 0, "column {c}: count decremented below zero");
        self.set(cnt, c, k.saturating_sub(1));
    }

    /// Writes the first columns in `(count, index)` order into `out`, as
    /// many as fit or exist, and returns how many it wrote.
    fn first_k(&mut self, out: &mut [usize]) -> usize {
        let want = out.len().min(self.total);
        let mut got = 0;
        for (b, head) in self.heads.iter_mut().enumerate() {
            if got == want {
                break;
            }
            let mut left = head.pop;
            if left == 0 {
                continue;
            }
            let base = b * self.words;
            let mut w = head.low;
            while self.bits[base + w] == 0 {
                w += 1;
            }
            head.low = w;
            while got < want && left > 0 {
                let mut word = self.bits[base + w];
                while word != 0 && got < want {
                    out[got] = w * 64 + word.trailing_zeros() as usize;
                    got += 1;
                    left -= 1;
                    word &= word - 1;
                }
                w += 1;
            }
        }
        got
    }

    /// Whether the buckets hold exactly the active columns with a nonzero
    /// count, each once, and no pivoted column has a count.
    fn consistent(&self, col_active: &[bool]) -> bool {
        let counted = self.count.iter().filter(|&&k| k > 0).count();
        let pop: usize = self.heads.iter().map(|h| h.pop).sum();
        let pivoted_empty = (self.count.iter().zip(col_active)).all(|(&k, &a)| a || k == 0);
        pop == self.total && self.total == counted && pivoted_empty
    }
}

/// Runs sparse Markowitz elimination on `cols` (an `m × cols.len()`
/// matrix) into `e`, reusing `ws` for all working storage. Stops when no
/// numerically acceptable pivot remains; with `cols.len() == m` and a
/// nonsingular matrix it runs to completion.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
pub(crate) fn eliminate_into(
    e: &mut Elimination,
    ws: &mut ElimWs,
    m: usize,
    cols: &[SparseCol],
    cnt: &mut Counters,
) {
    let n = cols.len();
    // Reset the output factors (capacity retained across calls).
    e.rp.clear();
    e.cpos.clear();
    e.diag.clear();
    e.lcol_ptr.clear();
    e.lcol_ptr.push(0);
    e.lcol_rows.clear();
    e.lcol_vals.clear();
    e.urow_ptr.clear();
    e.urow_ptr.push(0);
    e.urow_cols.clear();
    e.urow_vals.clear();
    prep(cnt, &mut e.step_of_col, n, u32::MAX);
    prep(cnt, &mut e.pivoted_col, n, false);
    prep(cnt, &mut e.pivoted_row, m, false);
    e.nnz = 0;

    // Acquire the working arrays.
    reserve_pool(cnt, &mut ws.rows, m);
    for row in &mut ws.rows[..m] {
        row.clear();
    }
    reserve_pool(cnt, &mut ws.col_rows, n);
    for cr in &mut ws.col_rows[..n] {
        cr.clear();
    }
    prep(cnt, &mut ws.row_active, m, true);
    prep(cnt, &mut ws.col_active, n, true);
    prep(cnt, &mut ws.val, n, 0.0);
    prep(cnt, &mut ws.stamp, n, 0);

    // Field-disjoint borrows: the pivot loop reads/writes several working
    // arrays and factor sections at once.
    let Elimination {
        rp,
        cpos,
        diag,
        lcol_ptr,
        lcol_rows,
        lcol_vals,
        urow_ptr,
        urow_cols,
        urow_vals,
        step_of_col,
        pivoted_col,
        pivoted_row,
        nnz,
    } = e;
    let ElimWs {
        rows,
        col_rows,
        counts,
        row_active,
        col_active,
        val,
        stamp,
        epoch,
        touched,
        entries,
        targets,
        fresh,
    } = ws;

    // Row-major working matrix + column membership lists.
    for (c, col) in cols.iter().enumerate() {
        for &(r, v) in col {
            if nonzero(v) {
                rows[r as usize].push((c as u32, v));
            }
        }
    }
    for (r, row) in rows[..m].iter().enumerate() {
        for &(c, _) in row {
            col_rows[c as usize].push(r as u32);
        }
    }
    counts.start(cnt, m, &col_rows[..n]);

    let steps = n.min(m);
    for _ in 0..steps {
        // --- Pivot selection: examine a few smallest-count active columns. ---
        let mut cand = [0usize; PIV_CANDIDATES];
        let ncand = counts.first_k(&mut cand);
        // (best Markowitz cost, -|a|) -> (row, col, value)
        let mut best: Option<(usize, f64, usize, usize, f64)> = None;
        for &c in &cand[..ncand] {
            // Compact this column's row list while scanning.
            let mut colmax = 0.0f64;
            entries.clear();
            col_rows[c].retain(|&r| {
                if !row_active[r as usize] {
                    return false;
                }
                match rows[r as usize].iter().find(|&&(cc, _)| cc == c as u32) {
                    Some(&(_, v)) if nonzero(v) => {
                        colmax = colmax.max(v.abs());
                        entries.push((r, v));
                        true
                    }
                    _ => false,
                }
            });
            counts.set(cnt, c, entries.len());
            if colmax < PIV_ABS {
                continue;
            }
            for &(r, v) in entries.iter() {
                if v.abs() < PIV_REL * colmax {
                    continue;
                }
                let cost = (rows[r as usize].len() - 1) * (counts.count[c] - 1);
                let better = match best {
                    None => true,
                    Some((bc, ba, ..)) => cost < bc || (cost == bc && v.abs() > ba),
                };
                if better {
                    best = Some((cost, v.abs(), r as usize, c, v));
                }
            }
            if matches!(best, Some((0, ..))) {
                break; // a singleton pivot cannot be beaten
            }
        }
        let Some((_, _, pr, pc, piv)) = best else {
            break; // no acceptable pivot: matrix (numerically) rank-deficient
        };

        // --- Record the pivot. ---
        let k = rp.len();
        rp.push(pr as u32);
        cpos.push(pc as u32);
        diag.push(piv);
        step_of_col[pc] = k as u32;
        pivoted_col[pc] = true;
        pivoted_row[pr] = true;
        row_active[pr] = false;
        col_active[pc] = false;
        counts.set(cnt, pc, 0);
        let ustart = urow_cols.len();
        for &(c, v) in &rows[pr] {
            if c != pc as u32 && col_active[c as usize] {
                urow_cols.push(c);
                urow_vals.push(v);
            }
        }
        let uend = urow_cols.len();
        for &c in &urow_cols[ustart..uend] {
            counts.dec(cnt, c as usize);
        }
        *nnz += uend - ustart + 1;

        // --- Eliminate the pivot column from the remaining rows. ---
        let lstart = lcol_rows.len();
        // Collect target rows first (col_rows[pc] was compacted above).
        targets.clear();
        targets.extend(
            col_rows[pc]
                .iter()
                .copied()
                .filter(|&r| row_active[r as usize]),
        );
        for &rt in targets.iter() {
            let r = rt as usize;
            let arc = rows[r]
                .iter()
                .find(|&&(cc, _)| cc == pc as u32)
                .map(|&(_, v)| v)
                .unwrap_or(0.0);
            if !nonzero(arc) {
                continue;
            }
            let f = arc / piv;
            lcol_rows.push(r as u32);
            lcol_vals.push(f);
            // rows[r] ← rows[r] − f · urow  (pivot column dropped).
            *epoch += 1;
            touched.clear();
            let mut rowmax = 0.0f64;
            for &(c, v) in &rows[r] {
                if c == pc as u32 || !col_active[c as usize] {
                    continue;
                }
                val[c as usize] = v;
                stamp[c as usize] = *epoch;
                touched.push(c);
                rowmax = rowmax.max(v.abs());
            }
            for (&c, &v) in urow_cols[ustart..uend].iter().zip(&urow_vals[ustart..uend]) {
                let cu = c as usize;
                let dv = f * v;
                if stamp[cu] == *epoch {
                    val[cu] -= dv;
                } else {
                    val[cu] = -dv;
                    stamp[cu] = *epoch;
                    touched.push(c);
                }
                rowmax = rowmax.max(dv.abs());
            }
            let drop = DROP_REL * (1.0 + rowmax);
            fresh.clear();
            for &c in touched.iter() {
                let v = val[c as usize];
                if v.abs() > drop {
                    fresh.push((c, v));
                }
            }
            // Maintain column bookkeeping: count diffs + new memberships.
            // Old membership: anything in rows[r] (pre-update); cheap diff
            // via the scratch stamps (reuse `val` sign is unsafe; do sets).
            *epoch += 1;
            for &(c, _) in &rows[r] {
                stamp[c as usize] = *epoch; // mark "was present"
            }
            for &(c, _) in fresh.iter() {
                if stamp[c as usize] != *epoch {
                    col_rows[c as usize].push(r as u32);
                    counts.set(cnt, c as usize, counts.count[c as usize] + 1);
                }
                // Mark "still present" with a different trick: bump below.
            }
            // Entries that vanished: decrement counts.
            *epoch += 1;
            for &(c, _) in fresh.iter() {
                stamp[c as usize] = *epoch;
            }
            for &(c, _) in &rows[r] {
                if stamp[c as usize] != *epoch && col_active[c as usize] && c != pc as u32 {
                    counts.dec(cnt, c as usize);
                }
            }
            // The freshly built row replaces the old one; the displaced
            // storage becomes the next `fresh` (cleared before use).
            std::mem::swap(&mut rows[r], fresh);
        }
        *nnz += lcol_rows.len() - lstart;
        lcol_ptr.push(lcol_rows.len());
        urow_ptr.push(urow_cols.len());
    }
    debug_assert!(counts.consistent(col_active), "count buckets out of step");
}

/// Completed LU factors of a (square, nonsingular) basis, plus the eta file
/// accumulated by product-form updates. Owns its [`ElimWs`] so repeated
/// [`refactor_in_place`](LuFactors::refactor_in_place) calls reuse all
/// elimination storage.
#[derive(Debug, Default)]
pub(crate) struct LuFactors {
    m: usize,
    elim: Elimination,
    ws: ElimWs,
    /// Row -> the step that pivoted it (the inverse of `elim.rp`).
    step_of_row: Vec<u32>,
    /// U by column: the steps whose U row holds the column pivoted at step
    /// `j` live at `ucol_steps[ucol_ptr[j]..ucol_ptr[j+1]]`.
    ucol_ptr: Vec<usize>,
    /// Step lists of `ucol_ptr`.
    ucol_steps: Vec<u32>,
    /// L by row: the steps whose L column targets row `r` live at
    /// `lrow_steps[lrow_ptr[r]..lrow_ptr[r+1]]`.
    lrow_ptr: Vec<usize>,
    /// Step lists of `lrow_ptr`.
    lrow_steps: Vec<u32>,
    /// Eta pivot positions, in application order.
    eta_pos: Vec<u32>,
    /// Eta diagonal multipliers `1/pivot`, parallel to `eta_pos`.
    eta_diag: Vec<f64>,
    /// Eta `t`'s off-pivot entries live at `eta_ptr[t]..eta_ptr[t+1]`.
    eta_ptr: Vec<usize>,
    /// Eta off-pivot target rows.
    eta_rows: Vec<u32>,
    /// Eta off-pivot values `−w_i/pivot`, parallel to `eta_rows`.
    eta_vals: Vec<f64>,
    /// Nonzeros across the eta file.
    pub eta_nnz: usize,
    /// Step-indexed scratch for solves; all zero between solves.
    scratch: Vec<f64>,
    /// Reach marks of the sparse solves; all false between solves.
    mark: Vec<bool>,
    /// Steps a sparse solve reaches (capacity `m`, so pushes never grow it).
    reach: Vec<u32>,
}

/// Adds step (or row, or position) `k` to `reach` unless it is marked.
#[inline]
fn visit(mark: &mut [bool], reach: &mut Vec<u32>, k: u32) {
    if !mark[k as usize] {
        mark[k as usize] = true;
        reach.push(k);
    }
}

/// Builds the transpose of the CSR-style lists `src_ptr`/`src_idx` (list
/// `k` holds entries `e`): list `key(e)` of `ptr`/`out` holds every `k`
/// whose list holds `e`, in ascending `k`. `key` maps into `0..n`.
fn transpose_into(
    cnt: &mut Counters,
    n: usize,
    (src_ptr, src_idx): (&[usize], &[u32]),
    key: impl Fn(u32) -> usize,
    ptr: &mut Vec<usize>,
    out: &mut Vec<u32>,
) {
    // Count list `i` into `ptr[i + 2]`, take prefix sums so `ptr[i + 1]`
    // is list `i`'s start, then fill through `ptr[i + 1]` as a cursor,
    // which leaves it at list `i`'s end: list `i` is `ptr[i]..ptr[i + 1]`.
    prep(cnt, ptr, n + 2, 0);
    for &e in src_idx {
        ptr[key(e) + 2] += 1;
    }
    for i in 2..n + 2 {
        ptr[i] += ptr[i - 1];
    }
    prep(cnt, out, src_idx.len(), 0);
    for k in 0..src_ptr.len() - 1 {
        for &e in &src_idx[src_ptr[k]..src_ptr[k + 1]] {
            let slot = &mut ptr[key(e) + 1];
            out[*slot] = k as u32;
            *slot += 1;
        }
    }
    ptr.truncate(n + 1);
}

impl LuFactors {
    /// Factorizes the square basis given by `cols` into this value's
    /// retained storage, resetting the eta file; `Err` if singular.
    pub fn refactor_in_place(
        &mut self,
        m: usize,
        cols: &[SparseCol],
        cnt: &mut Counters,
    ) -> Result<(), String> {
        assert_eq!(cols.len(), m, "basis must be square");
        self.m = m;
        eliminate_into(&mut self.elim, &mut self.ws, m, cols, cnt);
        if self.elim.rp.len() < m {
            return Err(format!(
                "singular basis: rank {} < {m} (first uncovered row {:?})",
                self.elim.rp.len(),
                self.elim.pivoted_row.iter().position(|&p| !p)
            ));
        }
        self.eta_pos.clear();
        self.eta_diag.clear();
        self.eta_ptr.clear();
        self.eta_ptr.push(0);
        self.eta_rows.clear();
        self.eta_vals.clear();
        self.eta_nnz = 0;
        // The transposes the sparse solves' reach needs.
        let e = &self.elim;
        prep(cnt, &mut self.step_of_row, m, 0);
        for (k, &r) in e.rp.iter().enumerate() {
            self.step_of_row[r as usize] = k as u32;
        }
        let col_step = |c: u32| e.step_of_col[c as usize] as usize;
        let urows = (&e.urow_ptr[..], &e.urow_cols[..]);
        transpose_into(
            cnt,
            m,
            urows,
            col_step,
            &mut self.ucol_ptr,
            &mut self.ucol_steps,
        );
        let lcols = (&e.lcol_ptr[..], &e.lcol_rows[..]);
        transpose_into(
            cnt,
            m,
            lcols,
            |r| r as usize,
            &mut self.lrow_ptr,
            &mut self.lrow_steps,
        );
        prep(cnt, &mut self.scratch, m, 0.0);
        prep(cnt, &mut self.mark, m, false);
        reserve(cnt, &mut self.reach, m);
        Ok(())
    }

    /// One-shot constructor: factorize `cols` into fresh storage.
    #[cfg(test)]
    fn factorize(m: usize, cols: &[SparseCol]) -> Result<LuFactors, String> {
        let mut lu = LuFactors::default();
        lu.refactor_in_place(m, cols, &mut Counters::default())?;
        Ok(lu)
    }

    /// Nonzeros in L + U (diagonals included), eta file excluded.
    pub fn lu_nnz(&self) -> usize {
        self.elim.nnz
    }

    /// FTRAN: solves `B x = b`. Input `x` is `b` indexed by row; output is
    /// indexed by basis position. The dense loop over all `m` steps: the
    /// reference [`ftran_sparse`](LuFactors::ftran_sparse) reproduces.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn ftran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        let e = &self.elim;
        // Forward: L (in row space).
        for k in 0..self.m {
            let yk = x[e.rp[k] as usize];
            if nonzero(yk) {
                let (s, t) = (e.lcol_ptr[k], e.lcol_ptr[k + 1]);
                for (&r, &f) in e.lcol_rows[s..t].iter().zip(&e.lcol_vals[s..t]) {
                    x[r as usize] -= f * yk;
                }
            }
        }
        // Backward: U (row space -> position space), via scratch.
        let out = &mut self.scratch;
        for k in (0..self.m).rev() {
            let mut sum = x[e.rp[k] as usize];
            let (s, t) = (e.urow_ptr[k], e.urow_ptr[k + 1]);
            for (&c, &v) in e.urow_cols[s..t].iter().zip(&e.urow_vals[s..t]) {
                let contrib = out[e.step_of_col[c as usize] as usize];
                if nonzero(contrib) {
                    sum -= v * contrib;
                }
            }
            out[k] = sum / e.diag[k];
        }
        // Scatter steps -> positions (leaving the scratch zero), then apply
        // the eta file in order.
        for k in 0..self.m {
            x[e.cpos[k] as usize] = std::mem::take(&mut out[k]);
        }
        self.apply_etas(x, None);
    }

    /// FTRAN restricted to the reach of the right-hand side. On entry `x`
    /// is `b` by row and zero outside the rows listed in `idx`; on return
    /// it is `B⁻¹ b` by basis position and `idx` lists its nonzero
    /// positions in ascending order.
    ///
    /// The L pass visits only the steps reachable from `idx` through L's
    /// columns, in ascending order, and the U pass only those reachable
    /// from there through U's columns, in descending order: the orders of
    /// [`ftran`](LuFactors::ftran)'s loops. So every reached entry runs the
    /// same floating-point fold as there, unreached entries stay zero, and
    /// the result equals `ftran`'s entry by entry, at the cost of the
    /// reach rather than of `m`.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn ftran_sparse(&mut self, x: &mut [f64], idx: &mut Vec<u32>) {
        debug_assert_eq!(x.len(), self.m);
        let LuFactors {
            elim: e,
            step_of_row,
            ucol_ptr,
            ucol_steps,
            scratch: out,
            mark,
            reach,
            ..
        } = self;
        // L reach: the right-hand side's rows, closed under L's columns.
        reach.clear();
        for &r in idx.iter() {
            visit(mark, reach, step_of_row[r as usize]);
        }
        let mut i = 0;
        while i < reach.len() {
            let k = reach[i] as usize;
            for &r in &e.lcol_rows[e.lcol_ptr[k]..e.lcol_ptr[k + 1]] {
                visit(mark, reach, step_of_row[r as usize]);
            }
            i += 1;
        }
        reach.sort_unstable();
        for &k in reach.iter() {
            let k = k as usize;
            let yk = x[e.rp[k] as usize];
            if nonzero(yk) {
                let (s, t) = (e.lcol_ptr[k], e.lcol_ptr[k + 1]);
                for (&r, &f) in e.lcol_rows[s..t].iter().zip(&e.lcol_vals[s..t]) {
                    x[r as usize] -= f * yk;
                }
            }
        }
        // U reach: the L reach, closed under U's columns (the steps whose U
        // row reads a reached step's value).
        let mut i = 0;
        while i < reach.len() {
            let j = reach[i] as usize;
            for &k in &ucol_steps[ucol_ptr[j]..ucol_ptr[j + 1]] {
                visit(mark, reach, k);
            }
            i += 1;
        }
        reach.sort_unstable();
        for &k in reach.iter().rev() {
            let k = k as usize;
            let mut sum = x[e.rp[k] as usize];
            let (s, t) = (e.urow_ptr[k], e.urow_ptr[k + 1]);
            for (&c, &v) in e.urow_cols[s..t].iter().zip(&e.urow_vals[s..t]) {
                let contrib = out[e.step_of_col[c as usize] as usize];
                if nonzero(contrib) {
                    sum -= v * contrib;
                }
            }
            out[k] = sum / e.diag[k];
        }
        // Scatter: clear the reached rows (every row the L pass wrote),
        // then write the reached positions.
        for &k in reach.iter() {
            x[e.rp[k as usize] as usize] = 0.0;
        }
        idx.clear();
        for &k in reach.iter() {
            let k = k as usize;
            x[e.cpos[k] as usize] = std::mem::take(&mut out[k]);
            mark[k] = false;
            idx.push(e.cpos[k]);
        }
        self.apply_etas(x, Some(idx));
        idx.retain(|&p| nonzero(x[p as usize]));
        idx.sort_unstable();
    }

    /// Applies the eta file in order to the position-indexed `x`. With
    /// `idx` (the positions `x` may be nonzero at), adds the positions the
    /// etas write.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn apply_etas(&mut self, x: &mut [f64], mut idx: Option<&mut Vec<u32>>) {
        if let Some(idx) = idx.as_deref() {
            for &p in idx {
                self.mark[p as usize] = true;
            }
        }
        for t in 0..self.eta_pos.len() {
            let pos = self.eta_pos[t] as usize;
            let xr = x[pos];
            if nonzero(xr) {
                x[pos] = self.eta_diag[t] * xr;
                let (s, en) = (self.eta_ptr[t], self.eta_ptr[t + 1]);
                for (&i, &h) in self.eta_rows[s..en].iter().zip(&self.eta_vals[s..en]) {
                    x[i as usize] += h * xr;
                    if let Some(idx) = idx.as_deref_mut() {
                        visit(&mut self.mark, idx, i);
                    }
                }
            }
        }
        if let Some(idx) = idx {
            for &p in idx.iter() {
                self.mark[p as usize] = false;
            }
        }
    }

    /// BTRAN: solves `Bᵀ y = c`. Input `x` is `c` indexed by basis
    /// position; output is indexed by row. The dense loop over all `m`
    /// steps: the reference [`btran_sparse`](LuFactors::btran_sparse)
    /// reproduces.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn btran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        self.apply_eta_transposes(x, None);
        let e = &self.elim;
        // U^T (position space -> step space) forward.
        let w = &mut self.scratch;
        for k in 0..self.m {
            w[k] = x[e.cpos[k] as usize];
        }
        for k in 0..self.m {
            w[k] /= e.diag[k];
            let wk = w[k];
            if nonzero(wk) {
                let (s, t) = (e.urow_ptr[k], e.urow_ptr[k + 1]);
                for (&c, &v) in e.urow_cols[s..t].iter().zip(&e.urow_vals[s..t]) {
                    w[e.step_of_col[c as usize] as usize] -= v * wk;
                }
            }
        }
        // L^T backward (step space -> row space), leaving the scratch zero.
        for k in 0..self.m {
            x[e.rp[k] as usize] = std::mem::take(&mut w[k]);
        }
        for k in (0..self.m).rev() {
            let mut acc = x[e.rp[k] as usize];
            let (s, t) = (e.lcol_ptr[k], e.lcol_ptr[k + 1]);
            for (&r, &f) in e.lcol_rows[s..t].iter().zip(&e.lcol_vals[s..t]) {
                acc -= f * x[r as usize];
            }
            x[e.rp[k] as usize] = acc;
        }
    }

    /// BTRAN restricted to the reach of the right-hand side. On entry `x`
    /// is `c` by basis position and zero outside the positions listed in
    /// `idx`; on return it is `B⁻ᵀ c` by row and `idx` lists its nonzero
    /// rows in ascending order.
    ///
    /// The Uᵀ pass visits only the steps reachable from `idx` through U's
    /// rows, in ascending order, and the Lᵀ pass only those reachable from
    /// there through L's rows, in descending order: the orders of
    /// [`btran`](LuFactors::btran)'s loops, so the result equals `btran`'s
    /// entry by entry.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn btran_sparse(&mut self, x: &mut [f64], idx: &mut Vec<u32>) {
        debug_assert_eq!(x.len(), self.m);
        self.apply_eta_transposes(x, Some(idx));
        let LuFactors {
            elim: e,
            lrow_ptr,
            lrow_steps,
            scratch: w,
            mark,
            reach,
            ..
        } = self;
        // U^T reach: the steps that pivoted the nonzero positions, closed
        // under U's rows.
        reach.clear();
        for &p in idx.iter() {
            visit(mark, reach, e.step_of_col[p as usize]);
        }
        let mut i = 0;
        while i < reach.len() {
            let k = reach[i] as usize;
            for &c in &e.urow_cols[e.urow_ptr[k]..e.urow_ptr[k + 1]] {
                visit(mark, reach, e.step_of_col[c as usize]);
            }
            i += 1;
        }
        reach.sort_unstable();
        for &k in reach.iter() {
            w[k as usize] = x[e.cpos[k as usize] as usize];
        }
        for &p in idx.iter() {
            x[p as usize] = 0.0;
        }
        for &k in reach.iter() {
            let k = k as usize;
            w[k] /= e.diag[k];
            let wk = w[k];
            if nonzero(wk) {
                let (s, t) = (e.urow_ptr[k], e.urow_ptr[k + 1]);
                for (&c, &v) in e.urow_cols[s..t].iter().zip(&e.urow_vals[s..t]) {
                    w[e.step_of_col[c as usize] as usize] -= v * wk;
                }
            }
        }
        // L^T reach: the U^T reach, closed under L's rows (the steps whose
        // L column reads a reached step's row).
        let mut i = 0;
        while i < reach.len() {
            let r = e.rp[reach[i] as usize] as usize;
            for &k in &lrow_steps[lrow_ptr[r]..lrow_ptr[r + 1]] {
                visit(mark, reach, k);
            }
            i += 1;
        }
        reach.sort_unstable();
        for &k in reach.iter() {
            x[e.rp[k as usize] as usize] = std::mem::take(&mut w[k as usize]);
        }
        for &k in reach.iter().rev() {
            let k = k as usize;
            let mut acc = x[e.rp[k] as usize];
            let (s, t) = (e.lcol_ptr[k], e.lcol_ptr[k + 1]);
            for (&r, &f) in e.lcol_rows[s..t].iter().zip(&e.lcol_vals[s..t]) {
                acc -= f * x[r as usize];
            }
            x[e.rp[k] as usize] = acc;
        }
        idx.clear();
        for &k in reach.iter() {
            mark[k as usize] = false;
            let r = e.rp[k as usize];
            if nonzero(x[r as usize]) {
                idx.push(r);
            }
        }
        idx.sort_unstable();
    }

    /// Applies the eta file's transposes in reverse order to the
    /// position-indexed `x`. With `idx` (the positions `x` may be nonzero
    /// at), adds the positions that become nonzero.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn apply_eta_transposes(&mut self, x: &mut [f64], mut idx: Option<&mut Vec<u32>>) {
        if let Some(idx) = idx.as_deref() {
            for &p in idx {
                self.mark[p as usize] = true;
            }
        }
        for t in (0..self.eta_pos.len()).rev() {
            let pos = self.eta_pos[t] as usize;
            let mut acc = self.eta_diag[t] * x[pos];
            let (s, en) = (self.eta_ptr[t], self.eta_ptr[t + 1]);
            for (&i, &h) in self.eta_rows[s..en].iter().zip(&self.eta_vals[s..en]) {
                acc += h * x[i as usize];
            }
            x[pos] = acc;
            if let Some(idx) = idx.as_deref_mut() {
                if nonzero(acc) {
                    visit(&mut self.mark, idx, pos as u32);
                }
            }
        }
        if let Some(idx) = idx {
            for &p in idx.iter() {
                self.mark[p as usize] = false;
            }
        }
    }

    /// Product-form update after a pivot: basis position `r_leave` is
    /// replaced by a column whose FTRAN image is `w`, nonzero only at the
    /// ascending positions `idx`. `Err` when the pivot element is too small
    /// to absorb safely (caller must refactorize).
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub fn update(&mut self, r_leave: usize, w: &[f64], idx: &[u32]) -> Result<(), String> {
        let piv = w[r_leave];
        let wmax = idx.iter().fold(0.0f64, |a, &i| a.max(w[i as usize].abs()));
        if piv.abs() < 1e-9 * wmax.max(1.0) {
            return Err(format!("eta pivot too small: {piv:.3e}"));
        }
        let d = 1.0 / piv;
        let start = self.eta_rows.len();
        for &i in idx {
            let wi = w[i as usize];
            if i as usize != r_leave && nonzero(wi) {
                let h = -wi * d;
                if h.abs() > 1e-14 {
                    self.eta_rows.push(i);
                    self.eta_vals.push(h);
                }
            }
        }
        self.eta_nnz += self.eta_rows.len() - start + 1;
        self.eta_pos.push(r_leave as u32);
        self.eta_diag.push(d);
        self.eta_ptr.push(self.eta_rows.len());
        Ok(())
    }
}

/// Rank-revealing basis completion for warm starts.
///
/// `candidates` are the columns a previous basis suggests as basic. After
/// the call, `e.pivoted_col` flags, per candidate, whether it is part of a
/// maximal independent (numerically acceptable) subset, and `e.pivoted_row`
/// which of the `m` rows were covered — the caller fills the rest with
/// slack or artificial unit columns, which are trivially independent of
/// everything already chosen.
pub(crate) fn complete_basis_into(
    e: &mut Elimination,
    ws: &mut ElimWs,
    m: usize,
    candidates: &[SparseCol],
    cnt: &mut Counters,
) {
    eliminate_into(e, ws, m, candidates, cnt);
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;

    fn dense_mul(m: usize, cols: &[SparseCol], x: &[f64]) -> Vec<f64> {
        // b = B x (x by position).
        let mut b = vec![0.0; m];
        for (j, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                b[r as usize] += v * x[j];
            }
        }
        b
    }

    #[test]
    fn ftran_btran_roundtrip_identity_like() {
        // B = [[2,0,0],[1,1,0],[0,3,5]] as columns.
        let cols: Vec<SparseCol> = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(1, 1.0), (2, 3.0)],
            vec![(2, 5.0)],
        ];
        let mut lu = LuFactors::factorize(3, &cols).unwrap();
        let x_true = [1.0, -2.0, 0.5];
        let mut b = dense_mul(3, &cols, &x_true);
        lu.ftran(&mut b);
        for (a, t) in b.iter().zip(x_true) {
            assert!((a - t).abs() < 1e-12, "{a} vs {t}");
        }
        // BTRAN: y with B^T y = c.
        let c = [3.0, 1.0, -1.0];
        let mut y = c;
        lu.btran(&mut y);
        // Check B^T y = c: (B^T y)_j = col_j · y.
        for (j, col) in cols.iter().enumerate() {
            let acc: f64 = col.iter().map(|&(r, v)| v * y[r as usize]).sum();
            assert!((acc - c[j]).abs() < 1e-12);
        }
    }

    #[test]
    fn random_sparse_roundtrip() {
        // Deterministic pseudo-random sparse nonsingular matrix:
        // diagonal + a few off-diagonals.
        let m = 60;
        let mut cols: Vec<SparseCol> = Vec::new();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for j in 0..m {
            let mut col: SparseCol = vec![(j as u32, 1.0 + rng.unit())];
            for _ in 0..3 {
                let r = rng.below(m);
                if r != j {
                    col.push((r as u32, rng.unit() - 0.5));
                }
            }
            // Merge duplicate rows.
            col.sort_by_key(|&(r, _)| r);
            col.dedup_by(|a, b| {
                if a.0 == b.0 {
                    b.1 += a.1;
                    true
                } else {
                    false
                }
            });
            cols.push(col);
        }
        let mut lu = LuFactors::factorize(m, &cols).unwrap();
        let x_true: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut b = dense_mul(m, &cols, &x_true);
        lu.ftran(&mut b);
        for (a, t) in b.iter().zip(&x_true) {
            assert!((a - t).abs() < 1e-8, "{a} vs {t}");
        }
    }

    #[test]
    fn eta_update_matches_refactor() {
        let cols: Vec<SparseCol> = vec![
            vec![(0, 1.0), (2, 1.0)],
            vec![(1, 2.0)],
            vec![(0, 1.0), (2, -1.0)],
        ];
        let mut lu = LuFactors::factorize(3, &cols).unwrap();
        // Replace position 1 with a new column a = (1, 1, 1).
        let a: SparseCol = vec![(0, 1.0), (1, 1.0), (2, 1.0)];
        let mut w = vec![0.0; 3];
        for &(r, v) in &a {
            w[r as usize] += v;
        }
        lu.ftran(&mut w); // w = B^-1 a
        lu.update(1, &w.clone(), &[0, 1, 2]).unwrap();
        // New basis: cols with position 1 replaced by a.
        let mut cols2 = cols.clone();
        cols2[1] = a;
        let mut fresh = LuFactors::factorize(3, &cols2).unwrap();
        let b = [0.3, -1.0, 2.0];
        let (mut x1, mut x2) = (b, b);
        lu.ftran(&mut x1);
        fresh.ftran(&mut x2);
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
        let c = [1.0, 2.0, 3.0];
        let (mut y1, mut y2) = (c, c);
        lu.btran(&mut y1);
        fresh.btran(&mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-10, "{u} vs {v}");
        }
    }

    #[test]
    fn singular_basis_rejected() {
        let cols: Vec<SparseCol> = vec![
            vec![(0, 1.0), (1, 1.0)],
            vec![(0, 2.0), (1, 2.0)], // dependent
        ];
        assert!(LuFactors::factorize(2, &cols).is_err());
    }

    #[test]
    fn refactor_in_place_reuses_capacity() {
        // Second factorization of a same-shape basis must be allocation-free
        // (every length-known acquisition served from retained capacity).
        // The wide basis spans two bitset words and has columns of counts
        // 1 to 4 that wrap around the diagonal, so elimination fills in.
        let small: Vec<SparseCol> = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(1, 1.0), (2, 3.0)],
            vec![(2, 5.0), (0, -1.0)],
        ];
        let m = 100;
        let wide: Vec<SparseCol> = (0..m)
            .map(|j| {
                let mut col: SparseCol = vec![(j as u32, 4.0)];
                for t in 1..=j % 4 {
                    col.push((((j + 7 * t) % m) as u32, 1.0 / t as f64));
                }
                col
            })
            .collect();
        for cols in [&small, &wide] {
            let m = cols.len();
            let mut lu = LuFactors::default();
            let mut cnt = Counters::default();
            lu.refactor_in_place(m, cols, &mut cnt).unwrap();
            assert!(cnt.allocs > 0, "first factorization grows buffers");
            let mut cnt2 = Counters::default();
            lu.refactor_in_place(m, cols, &mut cnt2).unwrap();
            assert_eq!(cnt2.allocs, 0, "steady-state refactor allocates nothing");
            assert!(cnt2.reuses > 0);
            // The reach transposes were rebuilt in place too.
            assert_transposes_match(&lu, &format!("refactor m={m}"));
            assert!(!lu.ucol_steps.is_empty(), "U has off-diagonal entries");
            // And it still solves correctly, on both paths.
            let x_true: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
            let mut b = dense_mul(m, cols, &x_true);
            let mut idx = nonzeros(&b);
            let mut bs = b.clone();
            lu.ftran(&mut b);
            lu.ftran_sparse(&mut bs, &mut idx);
            for ((a, s), t) in b.iter().zip(&bs).zip(&x_true) {
                assert!((a - t).abs() < 1e-12, "{a} vs {t}");
                assert!(a == s, "sparse {s} vs dense {a}");
            }
        }
    }

    /// Fill-in can raise a column's count past every count the workspace
    /// has seen: a second factorization that fills in where the first did
    /// not still runs inside retained capacity.
    #[test]
    fn more_fill_in_than_the_first_factorization_allocates_nothing() {
        // A band of half-width 3 eliminates without fill-in: counts stay at
        // most 7. The random basis starts at most 5 per column and fills in
        // past 8, while its factors stay smaller than the band's.
        let m: usize = 64;
        let band: Vec<SparseCol> = (0..m)
            .map(|j| {
                let rows = j.saturating_sub(3)..(j + 4).min(m);
                rows.map(|r| (r as u32, if r == j { 8.0 } else { 0.5 }))
                    .collect()
            })
            .collect();
        let fills = random_cols(&mut Rng(2), m, m, (1, 4), true);
        let mut lu = LuFactors::default();
        lu.refactor_in_place(m, &band, &mut Counters::default())
            .unwrap();
        let buckets = lu.ws.counts.heads.len();
        let mut cnt = Counters::default();
        lu.refactor_in_place(m, &fills, &mut cnt).unwrap();
        assert!(
            lu.ws.counts.heads.len() > buckets.next_power_of_two(),
            "fill-in must raise a count past the first factorization's"
        );
        assert_eq!(cnt.allocs, 0, "growth is served from capacity");
        let x_true: Vec<f64> = (0..m).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut b = dense_mul(m, &fills, &x_true);
        lu.ftran(&mut b);
        for (a, t) in b.iter().zip(&x_true) {
            assert!((a - t).abs() < 1e-10, "{a} vs {t}");
        }
    }

    #[test]
    fn completion_reports_independent_subset() {
        let cands: Vec<SparseCol> = vec![
            vec![(0, 1.0)],
            vec![(0, 3.0)],           // dependent on the first
            vec![(2, 1.0), (3, 1.0)], // covers row 2 or 3
        ];
        let mut e = Elimination::default();
        let mut ws = ElimWs::default();
        complete_basis_into(&mut e, &mut ws, 4, &cands, &mut Counters::default());
        let (picked, rows) = (&e.pivoted_col, &e.pivoted_row);
        assert!(picked[0] ^ picked[1], "exactly one of the dependent pair");
        assert!(picked[2]);
        // Rows 0 and (2 or 3) covered; row 1 and the other of {2,3} not.
        assert!(!rows[1]);
        assert_eq!(rows.iter().filter(|&&p| p).count(), 2);
    }

    /// The elimination as it was before [`CountBuckets`]: every step scans
    /// all `n` columns for the `PIV_CANDIDATES` smallest counts. The body
    /// is kept verbatim (fresh buffers stand in for the workspace) as the
    /// reference the bucketed selection must reproduce bit for bit.
    fn eliminate_full_scan(m: usize, cols: &[SparseCol]) -> Elimination {
        let n = cols.len();
        let mut e = Elimination {
            lcol_ptr: vec![0],
            urow_ptr: vec![0],
            step_of_col: vec![u32::MAX; n],
            pivoted_col: vec![false; n],
            pivoted_row: vec![false; m],
            ..Elimination::default()
        };
        let Elimination {
            rp,
            cpos,
            diag,
            lcol_ptr,
            lcol_rows,
            lcol_vals,
            urow_ptr,
            urow_cols,
            urow_vals,
            step_of_col,
            pivoted_col,
            pivoted_row,
            nnz,
        } = &mut e;
        let rows: &mut Vec<Vec<(u32, f64)>> = &mut vec![Vec::new(); m];
        let col_rows: &mut Vec<Vec<u32>> = &mut vec![Vec::new(); n];
        let ccount = &mut vec![0usize; n];
        let row_active = &mut vec![true; m];
        let col_active = &mut vec![true; n];
        let val = &mut vec![0.0f64; n];
        let stamp = &mut vec![0u64; n];
        let epoch = &mut 0u64;
        let touched: &mut Vec<u32> = &mut Vec::new();
        let entries: &mut Vec<(u32, f64)> = &mut Vec::new();
        let targets: &mut Vec<u32> = &mut Vec::new();
        let fresh: &mut Vec<(u32, f64)> = &mut Vec::new();

        // Row-major working matrix + column membership lists.
        for (c, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                if nonzero(v) {
                    rows[r as usize].push((c as u32, v));
                }
            }
        }
        for (r, row) in rows[..m].iter().enumerate() {
            for &(c, _) in row {
                col_rows[c as usize].push(r as u32);
                ccount[c as usize] += 1;
            }
        }

        let steps = n.min(m);
        for _ in 0..steps {
            // --- Pivot selection: examine a few smallest-count active columns. ---
            let mut cand: [usize; PIV_CANDIDATES] = [usize::MAX; PIV_CANDIDATES];
            let mut cand_cnt: [usize; PIV_CANDIDATES] = [usize::MAX; PIV_CANDIDATES];
            for c in 0..n {
                if !col_active[c] || ccount[c] == 0 {
                    continue;
                }
                let cnt = ccount[c];
                // Insertion into the top-K (smallest counts) list.
                let mut j = PIV_CANDIDATES;
                while j > 0 && cnt < cand_cnt[j - 1] {
                    j -= 1;
                }
                if j < PIV_CANDIDATES {
                    for k in (j + 1..PIV_CANDIDATES).rev() {
                        cand[k] = cand[k - 1];
                        cand_cnt[k] = cand_cnt[k - 1];
                    }
                    cand[j] = c;
                    cand_cnt[j] = cnt;
                }
            }
            // (best Markowitz cost, -|a|) -> (row, col, value)
            let mut best: Option<(usize, f64, usize, usize, f64)> = None;
            for &c in cand.iter().take_while(|&&c| c != usize::MAX) {
                // Compact this column's row list while scanning.
                let mut colmax = 0.0f64;
                entries.clear();
                col_rows[c].retain(|&r| {
                    if !row_active[r as usize] {
                        return false;
                    }
                    match rows[r as usize].iter().find(|&&(cc, _)| cc == c as u32) {
                        Some(&(_, v)) if nonzero(v) => {
                            colmax = colmax.max(v.abs());
                            entries.push((r, v));
                            true
                        }
                        _ => false,
                    }
                });
                ccount[c] = entries.len();
                if colmax < PIV_ABS {
                    continue;
                }
                for &(r, v) in entries.iter() {
                    if v.abs() < PIV_REL * colmax {
                        continue;
                    }
                    let cost = (rows[r as usize].len() - 1) * (ccount[c] - 1);
                    let better = match best {
                        None => true,
                        Some((bc, ba, ..)) => cost < bc || (cost == bc && v.abs() > ba),
                    };
                    if better {
                        best = Some((cost, v.abs(), r as usize, c, v));
                    }
                }
                if matches!(best, Some((0, ..))) {
                    break; // a singleton pivot cannot be beaten
                }
            }
            let Some((_, _, pr, pc, piv)) = best else {
                break; // no acceptable pivot: matrix (numerically) rank-deficient
            };

            // --- Record the pivot. ---
            let k = rp.len();
            rp.push(pr as u32);
            cpos.push(pc as u32);
            diag.push(piv);
            step_of_col[pc] = k as u32;
            pivoted_col[pc] = true;
            pivoted_row[pr] = true;
            row_active[pr] = false;
            col_active[pc] = false;
            let ustart = urow_cols.len();
            for &(c, v) in &rows[pr] {
                if c != pc as u32 && col_active[c as usize] {
                    urow_cols.push(c);
                    urow_vals.push(v);
                }
            }
            let uend = urow_cols.len();
            for &c in &urow_cols[ustart..uend] {
                ccount[c as usize] = ccount[c as usize].saturating_sub(1);
            }
            *nnz += uend - ustart + 1;

            // --- Eliminate the pivot column from the remaining rows. ---
            let lstart = lcol_rows.len();
            // Collect target rows first (col_rows[pc] was compacted above).
            targets.clear();
            targets.extend(
                col_rows[pc]
                    .iter()
                    .copied()
                    .filter(|&r| row_active[r as usize]),
            );
            for &rt in targets.iter() {
                let r = rt as usize;
                let arc = rows[r]
                    .iter()
                    .find(|&&(cc, _)| cc == pc as u32)
                    .map(|&(_, v)| v)
                    .unwrap_or(0.0);
                if !nonzero(arc) {
                    continue;
                }
                let f = arc / piv;
                lcol_rows.push(r as u32);
                lcol_vals.push(f);
                // rows[r] ← rows[r] − f · urow  (pivot column dropped).
                *epoch += 1;
                touched.clear();
                let mut rowmax = 0.0f64;
                for &(c, v) in &rows[r] {
                    if c == pc as u32 || !col_active[c as usize] {
                        continue;
                    }
                    val[c as usize] = v;
                    stamp[c as usize] = *epoch;
                    touched.push(c);
                    rowmax = rowmax.max(v.abs());
                }
                for (&c, &v) in urow_cols[ustart..uend].iter().zip(&urow_vals[ustart..uend]) {
                    let cu = c as usize;
                    let dv = f * v;
                    if stamp[cu] == *epoch {
                        val[cu] -= dv;
                    } else {
                        val[cu] = -dv;
                        stamp[cu] = *epoch;
                        touched.push(c);
                    }
                    rowmax = rowmax.max(dv.abs());
                }
                let drop = DROP_REL * (1.0 + rowmax);
                fresh.clear();
                for &c in touched.iter() {
                    let v = val[c as usize];
                    if v.abs() > drop {
                        fresh.push((c, v));
                    }
                }
                // Maintain column bookkeeping: count diffs + new memberships.
                // Old membership: anything in rows[r] (pre-update); cheap diff
                // via the scratch stamps (reuse `val` sign is unsafe; do sets).
                *epoch += 1;
                for &(c, _) in &rows[r] {
                    stamp[c as usize] = *epoch; // mark "was present"
                }
                for &(c, _) in fresh.iter() {
                    if stamp[c as usize] != *epoch {
                        col_rows[c as usize].push(r as u32);
                        ccount[c as usize] += 1;
                    }
                    // Mark "still present" with a different trick: bump below.
                }
                // Entries that vanished: decrement counts.
                *epoch += 1;
                for &(c, _) in fresh.iter() {
                    stamp[c as usize] = *epoch;
                }
                for &(c, _) in &rows[r] {
                    if stamp[c as usize] != *epoch && col_active[c as usize] && c != pc as u32 {
                        ccount[c as usize] = ccount[c as usize].saturating_sub(1);
                    }
                }
                // The freshly built row replaces the old one; the displaced
                // storage becomes the next `fresh` (cleared before use).
                std::mem::swap(&mut rows[r], fresh);
            }
            *nnz += lcol_rows.len() - lstart;
            lcol_ptr.push(lcol_rows.len());
            urow_ptr.push(urow_cols.len());
        }
        e
    }

    /// Seeds per differential case (fewer under Miri, which runs the
    /// `--lib` suite of this crate).
    const SEEDS: u64 = if cfg!(miri) { 1 } else { 6 };
    /// The widest inputs: several hundred columns natively, just past two
    /// bitset words under Miri.
    const WIDE: usize = if cfg!(miri) { 130 } else { 400 };

    /// Seeded xorshift stream.
    struct Rng(u64);

    impl Rng {
        fn unit(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }

        fn below(&mut self, k: usize) -> usize {
            (self.unit() * k as f64) as usize % k
        }
    }

    /// A random sparse `m × n` matrix. Column `j` gets between `lo` and
    /// `hi` entries at distinct random rows, plus a dominant entry at row
    /// `j` when `diag` is set (so square inputs are nonsingular).
    fn random_cols(
        rng: &mut Rng,
        m: usize,
        n: usize,
        (lo, hi): (usize, usize),
        diag: bool,
    ) -> Vec<SparseCol> {
        (0..n)
            .map(|j| {
                let mut col: SparseCol = Vec::new();
                if diag && j < m {
                    col.push((j as u32, 4.0 + rng.unit()));
                }
                for _ in 0..lo + rng.below(hi - lo + 1) {
                    let r = rng.below(m) as u32;
                    if col.iter().all(|&(rr, _)| rr != r) {
                        col.push((r, rng.unit() - 0.5));
                    }
                }
                col
            })
            .collect()
    }

    /// Runs the bucketed elimination on a fresh workspace.
    fn eliminate_fresh(m: usize, cols: &[SparseCol]) -> Elimination {
        let mut e = Elimination::default();
        let mut ws = ElimWs::default();
        eliminate_into(&mut e, &mut ws, m, cols, &mut Counters::default());
        e
    }

    /// Asserts that two eliminations agree exactly: same pivots, same
    /// factor structure and bit-equal values.
    fn assert_bit_equal(a: &Elimination, b: &Elimination, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.rp, b.rp, "{what}: rp");
        assert_eq!(a.cpos, b.cpos, "{what}: cpos");
        assert_eq!(bits(&a.diag), bits(&b.diag), "{what}: diag");
        assert_eq!(a.lcol_ptr, b.lcol_ptr, "{what}: lcol_ptr");
        assert_eq!(a.lcol_rows, b.lcol_rows, "{what}: lcol_rows");
        assert_eq!(bits(&a.lcol_vals), bits(&b.lcol_vals), "{what}: lcol_vals");
        assert_eq!(a.urow_ptr, b.urow_ptr, "{what}: urow_ptr");
        assert_eq!(a.urow_cols, b.urow_cols, "{what}: urow_cols");
        assert_eq!(bits(&a.urow_vals), bits(&b.urow_vals), "{what}: urow_vals");
        assert_eq!(a.step_of_col, b.step_of_col, "{what}: step_of_col");
        assert_eq!(a.pivoted_col, b.pivoted_col, "{what}: pivoted_col");
        assert_eq!(a.pivoted_row, b.pivoted_row, "{what}: pivoted_row");
        assert_eq!(a.nnz, b.nnz, "{what}: nnz");
    }

    /// Bucketed and full-scan elimination agree on `cols`.
    fn assert_matches_full_scan(m: usize, cols: &[SparseCol], what: &str) {
        let old = eliminate_full_scan(m, cols);
        let new = eliminate_fresh(m, cols);
        assert_bit_equal(&new, &old, what);
    }

    #[test]
    fn buckets_match_full_scan_on_square_nonsingular_inputs() {
        for seed in 1..=SEEDS {
            let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ seed);
            for m in [5, 63, 64, 65, WIDE] {
                // Up to six off-diagonal entries per column: real fill-in,
                // so counts climb past the initial largest bucket.
                let cols = random_cols(&mut rng, m, m, (0, 6), true);
                assert_matches_full_scan(m, &cols, &format!("square m={m} seed={seed}"));
                assert!(eliminate_fresh(m, &cols).rp.len() == m, "nonsingular");
            }
        }
    }

    #[test]
    fn buckets_match_full_scan_on_rank_deficient_inputs() {
        for seed in 1..=SEEDS {
            let mut rng = Rng(0xD1B5_4A32_D192_ED03 ^ seed);
            for m in [6, 63, 64, 65, WIDE] {
                let mut cols = random_cols(&mut rng, m, m, (1, 3), false);
                // Scaled duplicates, empty columns and numerically empty
                // columns; the random pattern also leaves rows uncovered.
                for j in (0..m).step_by(5) {
                    cols[j] = cols[(j + 1) % m]
                        .iter()
                        .map(|&(r, v)| (r, 2.0 * v))
                        .collect();
                }
                for j in (2..m).step_by(11) {
                    cols[j].clear();
                }
                for j in (3..m).step_by(13) {
                    cols[j] = vec![(rng.below(m) as u32, 1e-13)];
                }
                let what = format!("rank-deficient m={m} seed={seed}");
                assert_matches_full_scan(m, &cols, &what);
                assert!(eliminate_fresh(m, &cols).rp.len() < m, "{what}: singular");
            }
        }
    }

    #[test]
    fn buckets_match_full_scan_on_warm_start_completions() {
        for seed in 1..=SEEDS {
            let mut rng = Rng(0x94D0_49BB_1331_11EB ^ seed);
            for (m, n) in [(4, 9), (40, 63), (40, 64), (40, 65), (WIDE / 2, WIDE)] {
                // More candidates than rows, some of them unit columns the
                // way mapped slacks are.
                let mut cols = random_cols(&mut rng, m, n, (1, 4), false);
                for j in (0..n).step_by(3) {
                    cols[j] = vec![(rng.below(m) as u32, 1.0)];
                }
                assert_matches_full_scan(m, &cols, &format!("completion {m}x{n} seed={seed}"));
            }
        }
    }

    #[test]
    fn buckets_match_full_scan_when_counts_tie() {
        for seed in 1..=SEEDS {
            let mut rng = Rng(0xBF58_476D_1CE4_E5B9 ^ seed);
            for n in [63, 64, 65, WIDE] {
                // Every column has exactly two ±1 entries, so every count
                // ties and the candidates are decided by column index.
                let m = n;
                let cols: Vec<SparseCol> = (0..n)
                    .map(|_| {
                        let r = rng.below(m);
                        let s = (r + 1 + rng.below(m - 1)) % m;
                        let sign = if rng.unit() < 0.5 { -1.0 } else { 1.0 };
                        vec![(r as u32, 1.0), (s as u32, sign)]
                    })
                    .collect();
                assert_matches_full_scan(m, &cols, &format!("ties n={n} seed={seed}"));
            }
        }
    }

    #[test]
    fn workspace_reuse_across_shapes_matches_fresh() {
        // Large, then small, then large again through one `LuFactors` and
        // one `ElimWs`: buckets a larger earlier problem left populated
        // (unpivoted completion candidates, counts raised by fill-in) must
        // not leak into the next factorization.
        let mut rng = Rng(0x2545_F491_4F6C_DD1D);
        let (big, small) = (WIDE / 2, 20);
        let big_basis = random_cols(&mut rng, big, big, (0, 6), true);
        let small_basis = random_cols(&mut rng, small, small, (0, 3), true);
        let mut lu = LuFactors::default();
        let mut cnt = Counters::default();
        for (m, cols) in [(big, &big_basis), (small, &small_basis), (big, &big_basis)] {
            lu.refactor_in_place(m, cols, &mut cnt).unwrap();
            let fresh = LuFactors::factorize(m, cols).unwrap();
            assert_bit_equal(&lu.elim, &fresh.elim, &format!("refactor m={m}"));
            // The reach transposes a larger earlier basis left behind must
            // not leak into this one's either.
            assert_eq!(lu.step_of_row, fresh.step_of_row, "step_of_row m={m}");
            assert_eq!(lu.ucol_ptr, fresh.ucol_ptr, "ucol_ptr m={m}");
            assert_eq!(lu.ucol_steps, fresh.ucol_steps, "ucol_steps m={m}");
            assert_eq!(lu.lrow_ptr, fresh.lrow_ptr, "lrow_ptr m={m}");
            assert_eq!(lu.lrow_steps, fresh.lrow_steps, "lrow_steps m={m}");
            assert_transposes_match(&lu, &format!("refactor m={m}"));
            assert_solves_match(&mut lu, &mut rng, &format!("refactor m={m}"));
        }
        // Every third large candidate is numerically empty: once the few
        // smallest-count candidates are all such columns, elimination
        // stops with most columns still in their buckets.
        let mut big_cands = random_cols(&mut rng, big, 2 * big, (1, 5), false);
        for col in big_cands.iter_mut().step_by(3) {
            col.iter_mut().for_each(|(_, v)| *v *= 1e-13);
        }
        // Few singletons among the small candidates, so which columns the
        // buckets offer decides the pivots.
        let small_cands = random_cols(&mut rng, small, 3 * small, (2, 3), false);
        let mut e = Elimination::default();
        let mut ws = ElimWs::default();
        for (m, cols) in [(big, &big_cands), (small, &small_cands), (big, &big_cands)] {
            complete_basis_into(&mut e, &mut ws, m, cols, &mut cnt);
            assert_bit_equal(&e, &eliminate_fresh(m, cols), &format!("completion m={m}"));
            if m == big {
                assert!(
                    ws.counts.total > m / 4,
                    "large completion leaves buckets populated"
                );
            }
        }
    }

    /// The exact nonzero indices of `x`, ascending.
    fn nonzeros(x: &[f64]) -> Vec<u32> {
        (0..x.len() as u32)
            .filter(|&i| nonzero(x[i as usize]))
            .collect()
    }

    /// The reach transposes hold exactly the transposed L and U patterns.
    fn assert_transposes_match(lu: &LuFactors, what: &str) {
        let e = &lu.elim;
        for (k, &r) in e.rp.iter().enumerate() {
            assert_eq!(
                lu.step_of_row[r as usize] as usize, k,
                "{what}: step_of_row"
            );
        }
        let (mut ucol, mut lrow) = (Vec::new(), Vec::new());
        for k in 0..lu.m {
            for &c in &e.urow_cols[e.urow_ptr[k]..e.urow_ptr[k + 1]] {
                ucol.push((e.step_of_col[c as usize], k as u32));
            }
            for &r in &e.lcol_rows[e.lcol_ptr[k]..e.lcol_ptr[k + 1]] {
                lrow.push((r, k as u32));
            }
        }
        let flat = |ptr: &[usize], steps: &[u32]| {
            (0..lu.m)
                .flat_map(|j| {
                    steps[ptr[j]..ptr[j + 1]]
                        .iter()
                        .map(move |&k| (j as u32, k))
                })
                .collect::<Vec<_>>()
        };
        ucol.sort_unstable();
        lrow.sort_unstable();
        assert_eq!(
            flat(&lu.ucol_ptr, &lu.ucol_steps),
            ucol,
            "{what}: U by column"
        );
        assert_eq!(flat(&lu.lrow_ptr, &lu.lrow_steps), lrow, "{what}: L by row");
    }

    /// With unit, sparse and dense right-hand sides, `ftran_sparse` and
    /// `btran_sparse` equal the dense loops entry by entry (`==`), list
    /// exactly the nonzeros, and leave the solve scratch clean.
    fn assert_solves_match(lu: &mut LuFactors, rng: &mut Rng, what: &str) {
        let m = lu.m;
        let unit = {
            let mut x = vec![0.0; m];
            x[rng.below(m)] = 1.0;
            x
        };
        let mut sparse = vec![0.0; m];
        for _ in 0..3 {
            sparse[rng.below(m)] = rng.unit() - 0.5;
        }
        let dense: Vec<f64> = (0..m)
            .map(|_| {
                if rng.unit() < 0.2 {
                    0.0
                } else {
                    rng.unit() - 0.5
                }
            })
            .collect();
        let rhs = [(unit, "unit"), (sparse, "sparse"), (dense, "dense")];
        // All dense solves of a kind run before the sparse ones, so each
        // sparse solve follows a dense one of another right-hand side.
        let solve_all = |lu: &mut LuFactors, solve: fn(&mut LuFactors, &mut [f64])| {
            rhs.iter()
                .map(|(b, _)| {
                    let mut x = b.clone();
                    solve(lu, &mut x);
                    x
                })
                .collect::<Vec<_>>()
        };
        let want_f = solve_all(lu, LuFactors::ftran);
        for ((b, kind), want) in rhs.iter().zip(&want_f) {
            let (mut got, mut idx) = (b.clone(), nonzeros(b));
            lu.ftran_sparse(&mut got, &mut idx);
            assert!(got == *want, "{what}: ftran, {kind} rhs");
            assert_eq!(idx, nonzeros(want), "{what}: ftran pattern, {kind} rhs");
        }
        let want_b = solve_all(lu, LuFactors::btran);
        for ((b, kind), want) in rhs.iter().zip(&want_b) {
            let (mut got, mut idx) = (b.clone(), nonzeros(b));
            lu.btran_sparse(&mut got, &mut idx);
            assert!(got == *want, "{what}: btran, {kind} rhs");
            assert_eq!(idx, nonzeros(want), "{what}: btran pattern, {kind} rhs");
        }
        assert!(
            lu.scratch.iter().all(|&v| v == 0.0),
            "{what}: scratch left dirty"
        );
        assert!(lu.mark.iter().all(|&b| !b), "{what}: marks left set");
    }

    #[test]
    fn sparse_solves_match_dense_loops_across_eta_updates() {
        for seed in 1..=SEEDS {
            let mut rng = Rng(0x6A09_E667_F3BC_C909 ^ seed);
            for m in [1, 5, 64, WIDE] {
                let basis = random_cols(&mut rng, m, m, (0, 4), true);
                let mut lu = LuFactors::factorize(m, &basis).unwrap();
                assert_transposes_match(&lu, &format!("m={m} seed={seed}"));
                let updates = 1 + rng.below(30);
                for u in 0..=updates {
                    let what = format!("m={m} seed={seed} after {u} updates");
                    assert_solves_match(&mut lu, &mut rng, &what);
                    // Replace the basis position where a random column's
                    // image is largest, so the update is always accepted.
                    let mut w = vec![0.0; m];
                    for &(r, v) in &random_cols(&mut rng, m, 1, (1, 4), false)[0] {
                        w[r as usize] = v;
                    }
                    lu.ftran(&mut w);
                    let r_leave = (0..m)
                        .max_by(|&a, &b| w[a].abs().total_cmp(&w[b].abs()))
                        .unwrap();
                    lu.update(r_leave, &w, &nonzeros(&w)).unwrap();
                }
            }
        }
    }
}
