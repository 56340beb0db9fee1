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
//!   matrix, column membership lists, epoch-stamped dense scratch), owned
//!   by the caller and reused across factorizations. On the steady-state
//!   path of a solve sequence ([`Scratch`](crate::Scratch)-threaded), a
//!   refactorization performs zero allocations once capacities have grown
//!   to the working size; every length-known acquisition is counted via
//!   [`Counters`](crate::scratch::Counters).
//!
//! Everything here is allocation-conscious but deliberately simple: dense
//! scratch vectors with epoch stamps instead of hyper-sparse kernels. The
//! LPs this solver targets have `m` in the hundreds-to-low-thousands, where
//! an `O(m)` pass per solve is noise next to the avoided `O(m²)` dense
//! work.

use crate::nonzero;
use crate::scratch::{prep, reserve_pool, Counters};

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
    /// Live nonzero count per column.
    ccount: Vec<usize>,
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

/// Runs sparse Markowitz elimination on `cols` (an `m × cols.len()`
/// matrix) into `e`, reusing `ws` for all working storage. Stops when no
/// numerically acceptable pivot remains; with `cols.len() == m` and a
/// nonsingular matrix it runs to completion.
// lint: hot
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
    prep(cnt, &mut ws.ccount, n, 0);
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
        ccount,
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
    /// Scratch (step-indexed / row-indexed) for solves.
    scratch: Vec<f64>,
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
        prep(cnt, &mut self.scratch, m, 0.0);
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
    /// indexed by basis position.
    // lint: hot
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
        // Scatter steps -> positions.
        for k in 0..self.m {
            x[e.cpos[k] as usize] = out[k];
        }
        // But `out` is indexed by step and positions coincide with cpos;
        // copy is done above — now apply the eta file in order.
        for t in 0..self.eta_pos.len() {
            let pos = self.eta_pos[t] as usize;
            let xr = x[pos];
            if nonzero(xr) {
                x[pos] = self.eta_diag[t] * xr;
                let (s, en) = (self.eta_ptr[t], self.eta_ptr[t + 1]);
                for (&i, &h) in self.eta_rows[s..en].iter().zip(&self.eta_vals[s..en]) {
                    x[i as usize] += h * xr;
                }
            }
        }
    }

    /// BTRAN: solves `Bᵀ y = c`. Input `x` is `c` indexed by basis
    /// position; output is indexed by row.
    // lint: hot
    pub fn btran(&mut self, x: &mut [f64]) {
        debug_assert_eq!(x.len(), self.m);
        // Eta transposes in reverse order.
        for t in (0..self.eta_pos.len()).rev() {
            let pos = self.eta_pos[t] as usize;
            let mut acc = self.eta_diag[t] * x[pos];
            let (s, en) = (self.eta_ptr[t], self.eta_ptr[t + 1]);
            for (&i, &h) in self.eta_rows[s..en].iter().zip(&self.eta_vals[s..en]) {
                acc += h * x[i as usize];
            }
            x[pos] = acc;
        }
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
        // L^T backward (step space -> row space).
        for k in 0..self.m {
            x[e.rp[k] as usize] = w[k];
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

    /// Product-form update after a pivot: basis position `r_leave` is
    /// replaced by a column whose FTRAN image is `w`. `Err` when the pivot
    /// element is too small to absorb safely (caller must refactorize).
    // lint: hot
    pub fn update(&mut self, r_leave: usize, w: &[f64]) -> Result<(), String> {
        let piv = w[r_leave];
        let wmax = w.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        if piv.abs() < 1e-9 * wmax.max(1.0) {
            return Err(format!("eta pivot too small: {piv:.3e}"));
        }
        let d = 1.0 / piv;
        let start = self.eta_rows.len();
        for (i, &wi) in w.iter().enumerate() {
            if i != r_leave && nonzero(wi) {
                let h = -wi * d;
                if h.abs() > 1e-14 {
                    self.eta_rows.push(i as u32);
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
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
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
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for j in 0..m {
            let mut col: SparseCol = vec![(j as u32, 1.0 + rnd())];
            for _ in 0..3 {
                let r = (rnd() * m as f64) as usize % m;
                if r != j {
                    col.push((r as u32, rnd() - 0.5));
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
        lu.update(1, &w.clone()).unwrap();
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
        let cols: Vec<SparseCol> = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(1, 1.0), (2, 3.0)],
            vec![(2, 5.0), (0, -1.0)],
        ];
        let mut lu = LuFactors::default();
        let mut cnt = Counters::default();
        lu.refactor_in_place(3, &cols, &mut cnt).unwrap();
        assert!(cnt.allocs > 0, "first factorization grows buffers");
        let mut cnt2 = Counters::default();
        lu.refactor_in_place(3, &cols, &mut cnt2).unwrap();
        assert_eq!(cnt2.allocs, 0, "steady-state refactor allocates nothing");
        assert!(cnt2.reuses > 0);
        // And it still solves correctly.
        let x_true = [0.5, 2.0, -1.0];
        let mut b = dense_mul(3, &cols, &x_true);
        lu.ftran(&mut b);
        for (a, t) in b.iter().zip(x_true) {
            assert!((a - t).abs() < 1e-12, "{a} vs {t}");
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
}
