//! The basis factorization behind the revised simplex.
//!
//! The pivot loop in [`crate::simplex`] only ever needs four linear-algebra
//! operations on the basis matrix `B`:
//!
//! * `ftran` — `x ← B⁻¹ b` (entering column image, basic values);
//! * `btran` — `y ← B⁻ᵀ c` (devex reference row; the duals at phase
//!   start and after each refactorization);
//! * `update` — rank-one replacement of one basis column after a pivot;
//! * `refactor` — rebuild from the current basis columns.
//!
//! [`SparseLuFactor`] provides them over the sparse Markowitz LU + eta
//! file of [`crate::sparse_lu`], maps its failures to [`LpError`], and
//! owns the refactorization policy and the density rule: each of the
//! pivot loop's two solves ([`Solve`]) keeps a running output density
//! and takes the reach-limited path while it is below 10 %, the dense
//! loops otherwise. Both paths give the same bits, so the rule decides
//! speed only. The unit tests cross-check all four operations against an
//! explicit dense inverse.

use crate::model::LpError;
use crate::nonzero;
use crate::scratch::Counters;
use crate::sparse_lu::{LuFactors, SparseCol};

/// Pivots between forced refactorizations (the eta file may ask for one
/// sooner, see [`SparseLuFactor::wants_refactor`]).
const REFACTOR_EVERY: usize = 120;

/// The two solves of a pivot, each with its own running output density.
/// The duals need no third: the pivot updates them from the devex row.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Solve {
    /// FTRAN of the entering column.
    Entering,
    /// BTRAN of a unit vector (the devex reference row).
    DevexRow,
}

/// A solve kind takes the reach-limited path while its running output
/// density (nonzeros / `m`) is below this, and the dense loops otherwise.
const SPARSE_BELOW: f64 = 0.10;

/// Weight of the newest output in a running density.
const DENSITY_WEIGHT: f64 = 0.1;

/// Sparse Markowitz LU with product-form updates ([`crate::sparse_lu`]).
/// Lives in the [`Scratch`](crate::Scratch) so the elimination storage and
/// eta file keep their capacity across solves.
#[derive(Default)]
pub(crate) struct SparseLuFactor {
    lu: LuFactors,
    /// Running output density per [`Solve`] kind. Kept across LP solves:
    /// it describes the LP family a scratch serves, not one solve.
    density: [f64; 2],
}

impl SparseLuFactor {
    /// Rebuilds the factors from the basis columns (`cols.len() == m`),
    /// counting workspace acquisitions in `cnt`.
    pub(crate) fn refactor(
        &mut self,
        m: usize,
        cols: &[SparseCol],
        cnt: &mut Counters,
    ) -> Result<(), LpError> {
        self.lu
            .refactor_in_place(m, cols, cnt)
            .map_err(LpError::Numerical)
    }

    /// In place: `x ← B⁻¹ x` (input indexed by row, output by basis
    /// position), by the dense loops.
    pub(crate) fn ftran(&mut self, x: &mut [f64]) {
        self.lu.ftran(x);
    }

    /// In place: `x ← B⁻ᵀ x` (input indexed by basis position, output by
    /// row), by the dense loops.
    pub(crate) fn btran(&mut self, x: &mut [f64]) {
        self.lu.btran(x);
    }

    /// One of the pivot's solves, `x ← B⁻¹ x` for [`Solve::Entering`] and
    /// `x ← B⁻ᵀ x` for [`Solve::DevexRow`]. On entry `x` is zero outside
    /// the indices in `idx`; on return `idx` lists the nonzeros of the
    /// result in ascending order. Takes the reach-limited path while the
    /// kind's running density is low: both paths give the same values, so
    /// the choice only affects speed.
    pub(crate) fn solve(&mut self, kind: Solve, x: &mut [f64], idx: &mut Vec<u32>) {
        let density = &mut self.density[kind as usize];
        let sparse = *density < SPARSE_BELOW;
        match (kind, sparse) {
            (Solve::Entering, true) => self.lu.ftran_sparse(x, idx),
            (Solve::DevexRow, true) => self.lu.btran_sparse(x, idx),
            (Solve::Entering, false) => self.lu.ftran(x),
            (Solve::DevexRow, false) => self.lu.btran(x),
        }
        if !sparse {
            idx.clear();
            idx.extend((0..x.len() as u32).filter(|&i| nonzero(x[i as usize])));
        }
        let observed = idx.len() as f64 / x.len().max(1) as f64;
        *density += DENSITY_WEIGHT * (observed - *density);
    }

    /// Writes row `r` of `B⁻¹` into `out` (length `m`), which is zero
    /// outside the indices in `idx` on entry; `idx` then lists its
    /// nonzeros.
    pub(crate) fn binv_row(&mut self, r: usize, out: &mut [f64], idx: &mut Vec<u32>) {
        for &i in idx.iter() {
            out[i as usize] = 0.0;
        }
        out[r] = 1.0;
        idx.clear();
        idx.push(r as u32);
        self.solve(Solve::DevexRow, out, idx);
    }

    /// Replaces basis position `r_leave`; `w` is the FTRAN image of the
    /// entering column, nonzero only at the ascending positions `idx`.
    /// `Err` means "refactorize now".
    pub(crate) fn update(&mut self, r_leave: usize, w: &[f64], idx: &[u32]) -> Result<(), LpError> {
        self.lu.update(r_leave, w, idx).map_err(LpError::Numerical)
    }

    /// Whether to refactorize after `since` pivots on the current factors:
    /// when the eta file stops paying for itself. A solve costs the
    /// factor and eta entries its right-hand side reaches (all of
    /// `lu_nnz + eta_nnz` on the dense path), refactorization is cheap for
    /// sparse bases, and long eta chains also degrade numerically.
    pub(crate) fn wants_refactor(&self, since: usize) -> bool {
        since >= REFACTOR_EVERY || self.lu.eta_nnz > 2 * self.lu.lu_nnz().max(500)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Explicit dense inverse of the basis `cols` by Gauss–Jordan with
    /// partial pivoting: `inv[r][c] = B⁻¹[r][c]`, rows indexed by basis
    /// position and columns by constraint row.
    fn dense_inverse(cols: &[SparseCol]) -> Vec<Vec<f64>> {
        let m = cols.len();
        // Augmented [B | I], row-major.
        let mut a = vec![vec![0.0; 2 * m]; m];
        for (k, col) in cols.iter().enumerate() {
            for &(r, v) in col {
                a[r as usize][k] = v;
            }
        }
        for (r, row) in a.iter_mut().enumerate() {
            row[m + r] = 1.0;
        }
        for k in 0..m {
            let p = (k..m)
                .max_by(|&i, &j| a[i][k].abs().total_cmp(&a[j][k].abs()))
                .unwrap();
            assert!(a[p][k].abs() > 1e-12, "test basis must be nonsingular");
            a.swap(k, p);
            let piv = a[k][k];
            a[k].iter_mut().for_each(|v| *v /= piv);
            let pivot_row = a[k].clone();
            for (r, row) in a.iter_mut().enumerate() {
                let f = row[k];
                if r != k {
                    row.iter_mut()
                        .zip(&pivot_row)
                        .for_each(|(v, p)| *v -= f * p);
                }
            }
        }
        a.into_iter().map(|row| row[m..].to_vec()).collect()
    }

    /// `ftran`, `btran` and `binv_row` of `s` against the explicit inverse
    /// of `cols`.
    fn assert_matches_inverse(s: &mut SparseLuFactor, cols: &[SparseCol], tol: f64) {
        let close = |got: &[f64], want: Vec<f64>, what: &str| {
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!((g - w).abs() < tol, "{what}[{i}]: {g} vs {w}");
            }
        };
        let inv = dense_inverse(cols);
        let b = [1.0, -2.0, 0.5];
        let mut x = b;
        s.ftran(&mut x);
        let dot = |u: &[f64], v: &[f64]| u.iter().zip(v).map(|(a, b)| a * b).sum::<f64>();
        close(&x, inv.iter().map(|row| dot(row, &b)).collect(), "ftran");
        let c = [0.5, 0.0, -1.5];
        let mut y = c;
        s.btran(&mut y);
        let col = |r: usize| inv.iter().map(|row| row[r]).collect::<Vec<_>>();
        close(&y, (0..3).map(|r| dot(&col(r), &c)).collect(), "btran");
        for (k, inv_row) in inv.iter().enumerate() {
            let mut row = [0.0; 3];
            s.binv_row(k, &mut row, &mut Vec::new());
            close(&row, inv_row.clone(), "binv_row");
        }
    }

    /// The sparse factors must agree with an explicit dense inverse on
    /// ftran/btran/binv_row, before and after a product-form update.
    #[test]
    fn dense_and_sparse_agree() {
        let mut cols: Vec<SparseCol> = vec![
            vec![(0, 2.0), (1, 1.0)],
            vec![(1, 1.0), (2, 3.0)],
            vec![(0, 1.0), (2, 5.0)],
        ];
        let mut s = SparseLuFactor::default();
        s.refactor(3, &cols, &mut Counters::default()).unwrap();
        assert_matches_inverse(&mut s, &cols, 1e-10);

        // Replace basis position 0 with a new column: the updated factors
        // must match the inverse of the basis rebuilt from scratch.
        let mut w = [1.0, 1.0, 0.0];
        s.ftran(&mut w);
        s.update(0, &w, &[0, 1, 2]).unwrap();
        cols[0] = vec![(0, 1.0), (1, 1.0)];
        assert_matches_inverse(&mut s, &cols, 1e-9);
    }
}
