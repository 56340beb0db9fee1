//! Maintained reduced costs. Pricing scores columns by `d_j = c_j − yᵀa_j`;
//! instead of a dot product per read, a basis change with dual step
//! `θ = d_q/α_q` updates the cached values, `d_j ← d_j − θ·α_rj`, from the
//! pivotal row `α_r = ρ_r A`. The row is computed row-wise: each nonzero
//! of `ρ_r` (the devex reference row the pivot solves for anyway) picks one
//! row of a row-wise copy of the working matrix, and the implicit
//! artificial of row `i` adds `ρ_i·art_sign[i]`. When the duals are solved
//! afresh inside a phase (after a refactorization or a skipped dual
//! update), their change `δ` updates the cached values the same way,
//! `d_j ← d_j − δᵀa_j`: `δ` is zero in all but a few rows.
//!
//! The update pays when `ρ_r` is sparse and its rows are short — a property
//! of the LP that every pivot shows, so the rule reads only sizes:
//!
//! * A solve fills the copy once its pricing (the columns it scored, at
//!   the average column length) has read more nonzeros than filling the
//!   copy and the cache costs plus what row-wise updates of its basis
//!   changes so far would have read (buy once the rent paid covers the
//!   price). A solve that prices less, and an LP whose pivotal rows are
//!   denser than its pricing, never fills it.
//! * Once filled, an update (`ρ_r` or `δ`) whose rows hold more nonzeros
//!   than one refill window is skipped and marks every cached value stale.
//! * A phase start (new costs) marks every cached value stale too. Stale
//!   values are recomputed by a dot product when pricing next reads them,
//!   and cached from then on.

use super::State;
use crate::nonzero;
use crate::scratch::{prep, reserve, RedCosts};
use coflow_obs::Counter as ObsCounter;

/// Row-wise (CSR) copy of the explicit working columns, and the
/// bookkeeping that decides when a solve fills it.
#[derive(Default)]
pub(super) struct RowCopy {
    /// Row starts, built by `assemble` for every solve: the row lengths
    /// price a row-wise update before the entries exist.
    pub(super) row_ptr: Vec<usize>,
    /// Column of each entry, ascending within a row.
    col_idx: Vec<u32>,
    /// Value of each entry.
    values: Vec<f64>,
    /// The entries are filled and [`RedCosts`] is sized: pricing caches
    /// the reduced costs it computes and basis changes update them.
    pub(super) filled: bool,
    /// Columns scored by pricing this solve (the trace's
    /// `columns_priced`, plus the devex loop's dot products).
    pub(super) priced: usize,
    /// Nonzeros the row-wise updates of this solve's basis changes would
    /// have read.
    rowwise: usize,
}

impl RowCopy {
    /// Resets the per-solve bookkeeping (the row starts are rebuilt by the
    /// caller).
    pub(super) fn reset(&mut self) {
        self.filled = false;
        self.priced = 0;
        self.rowwise = 0;
    }
}

impl State {
    /// Nonzeros of every working column, artificials included.
    fn nnz_all(&self) -> usize {
        self.csc.col_ptr[self.n_expl] + self.m
    }

    /// Nonzeros of one refill window (at the average column length): the
    /// most one row-wise update may read.
    fn window_nnz(&self) -> usize {
        self.window() * self.nnz_all() / self.nvars().max(1)
    }

    /// The pivotal row of a basis change whose devex reference row is
    /// `ρ_r` (nonzero at `rho_idx`): computes `α_r` into `dj` and returns
    /// `true` when the change updates the cached reduced costs, `false`
    /// when pricing keeps (or falls back to) dot products.
    pub(super) fn pivotal_row(&mut self, rho: &[f64], rho_idx: &[u32], dj: &mut RedCosts) -> bool {
        if !self.rows.filled {
            let cost = self.rowwise_cost(rho_idx);
            self.rows.rowwise += cost;
            if cost > self.window_nnz() || !self.fill_pays_off() {
                return false;
            }
            self.fill_rows(dj);
        }
        let engaged = self.row_image(rho, rho_idx, dj);
        if engaged {
            self.rec.bump(ObsCounter::RowWiseUpdates, 1);
        }
        engaged
    }

    /// Nonzeros a row-wise image over the rows `idx` reads, artificials
    /// included.
    fn rowwise_cost(&self, idx: &[u32]) -> usize {
        let ptr = &self.rows.row_ptr;
        idx.iter()
            .map(|&i| ptr[i as usize + 1] - ptr[i as usize] + 1)
            .sum()
    }

    /// `α = vᵀA` over every column into `dj` (the copy must be filled), for
    /// `v` nonzero at `v_idx`, when its rows hold at most one refill
    /// window's nonzeros; otherwise marks every cached value stale and
    /// returns `false`.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(super) fn row_image(&self, v: &[f64], v_idx: &[u32], dj: &mut RedCosts) -> bool {
        if self.rowwise_cost(v_idx) > self.window_nnz() {
            dj.invalidate();
            return false;
        }
        let RedCosts {
            alpha, alpha_idx, ..
        } = dj;
        let RowCopy {
            row_ptr,
            col_idx,
            values,
            ..
        } = &self.rows;
        for &i in v_idx {
            let (i, vi) = (i as usize, v[i as usize]);
            for p in row_ptr[i]..row_ptr[i + 1] {
                let j = col_idx[p] as usize;
                if !nonzero(alpha[j]) {
                    alpha_idx.push(j as u32);
                }
                alpha[j] += vi * values[p];
            }
            // The artificial of row `i` is the only column of that index.
            let j = self.n_expl + i;
            alpha_idx.push(j as u32);
            alpha[j] = vi * self.art_sign[i];
        }
        true
    }

    /// The buy-or-rent rule: pricing so far (the columns it scored, at the
    /// average column length: before the fill each nonbasic one is a dot
    /// product) has read at least as many nonzeros as filling the copy,
    /// acquiring the cache and the row-wise updates of the basis changes so
    /// far would have.
    fn fill_pays_off(&self) -> bool {
        let nnz = self.nnz_all() as f64;
        let nv = self.nvars() as f64;
        self.rows.priced as f64 * nnz / nv >= nnz + nv + self.rows.rowwise as f64
    }

    /// Fills the row-wise copy from the CSC columns (ascending, so each
    /// row's columns come out ascending) and acquires the cache, every
    /// value stale.
    fn fill_rows(&mut self, dj: &mut RedCosts) {
        let (m, n_expl, nv) = (self.m, self.n_expl, self.nvars());
        let window_nnz = self.window_nnz();
        let cnt = &mut self.cnt;
        let RowCopy {
            row_ptr,
            col_idx,
            values,
            filled,
            ..
        } = &mut self.rows;
        let nnz = row_ptr[m];
        prep(cnt, col_idx, nnz, 0u32);
        prep(cnt, values, nnz, 0.0f64);
        // `row_ptr[i]` serves as row `i`'s fill cursor, which leaves it at
        // the row's end; shifting the starts back restores it.
        for j in 0..n_expl {
            let (rows, vals) = self.csc.col(j);
            for (&r, &v) in rows.iter().zip(vals) {
                let p = &mut row_ptr[r as usize];
                col_idx[*p] = j as u32;
                values[*p] = v;
                *p += 1;
            }
        }
        row_ptr.copy_within(0..m, 1);
        row_ptr[0] = 0;
        *filled = true;
        prep(cnt, &mut dj.d, nv, 0.0f64);
        prep(cnt, &mut dj.stamp, nv, 0u32);
        dj.epoch = 1;
        prep(cnt, &mut dj.alpha, nv, 0.0f64);
        // An update reads at most `window_nnz` entries, one push each.
        reserve(cnt, &mut dj.alpha_idx, window_nnz);
    }
}

/// Reduced cost of column `j` for pricing once the copy is filled: the
/// cached value when it is current, else `c_j − yᵀa_j` by a dot product,
/// cached from then on.
#[inline]
pub(super) fn cached_reduced_cost(
    st: &State,
    dj: &mut RedCosts,
    j: usize,
    costs: &[f64],
    y: &[f64],
) -> f64 {
    if dj.stamp[j] == dj.epoch {
        return dj.d[j];
    }
    let d = st.reduced_cost(j, costs, y);
    dj.d[j] = d;
    dj.stamp[j] = dj.epoch;
    d
}

/// `d_j ← d_j − θ·α_rj` for the current cached values of the columns
/// pricing can pick (`sgn[j] != 0`) that `α_r` touches; clears `α_r`.
#[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
pub(super) fn update_reduced_costs(dj: &mut RedCosts, sgn: &[i8], theta: f64) {
    let RedCosts {
        d,
        stamp,
        epoch,
        alpha,
        alpha_idx,
    } = dj;
    for &j in alpha_idx.iter() {
        let j = j as usize;
        let a = std::mem::take(&mut alpha[j]);
        if sgn[j] != 0 && stamp[j] == *epoch {
            d[j] -= theta * a;
        }
    }
    alpha_idx.clear();
}
