//! Slow, simple, *independent* dense-tableau simplex used as a testing
//! oracle for the revised solver.
//!
//! Strategy: shift every variable by its (finite) lower bound so `z >= 0`,
//! turn finite upper bounds into explicit `z_j <= u_j - l_j` rows, normalize
//! right-hand sides to be nonnegative, add slacks/artificials, and run the
//! classic two-phase full-tableau simplex with Bland's rule throughout
//! (guaranteed terminating, no numerical shortcuts). Intended for problems
//! with at most a few hundred rows/columns — tests only.

use crate::model::{Cmp, LpError, Model, Solution, Status};
use crate::nonzero;

const TOL: f64 = 1e-9;

/// Solves `model` with the reference tableau simplex.
pub fn solve(model: &Model) -> Result<Solution, LpError> {
    let n = model.num_vars();

    // Shifted problem: z = x - lb.
    let lbs: Vec<f64> = model.cols.iter().map(|c| c.lb).collect();

    // Row list: (coefs over z, cmp, rhs).
    #[derive(Clone)]
    struct DRow {
        coef: Vec<f64>,
        cmp: Cmp,
        rhs: f64,
    }
    let mut rows: Vec<DRow> = Vec::new();
    let mut dense_rows = vec![vec![0.0; n]; model.num_rows()];
    for &(r, c, a) in &model.triplets {
        dense_rows[r as usize][c as usize] += a;
    }
    for (i, row) in model.rows.iter().enumerate() {
        let shift: f64 = dense_rows[i].iter().zip(&lbs).map(|(a, l)| a * l).sum();
        rows.push(DRow {
            coef: dense_rows[i].clone(),
            cmp: row.cmp,
            rhs: row.rhs - shift,
        });
    }
    // Upper-bound rows.
    for (j, col) in model.cols.iter().enumerate() {
        if col.ub.is_finite() {
            let mut coef = vec![0.0; n];
            coef[j] = 1.0;
            rows.push(DRow {
                coef,
                cmp: Cmp::Le,
                rhs: col.ub - col.lb,
            });
        }
    }
    // Normalize rhs >= 0.
    for r in rows.iter_mut() {
        if r.rhs < 0.0 {
            for c in r.coef.iter_mut() {
                *c = -*c;
            }
            r.rhs = -r.rhs;
            r.cmp = match r.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
        }
    }

    let m = rows.len();
    // Column layout: structurals | slacks/surpluses | artificials.
    let mut ncols = n;
    let mut slack_col = vec![None; m];
    for (i, r) in rows.iter().enumerate() {
        if matches!(r.cmp, Cmp::Le | Cmp::Ge) {
            slack_col[i] = Some(ncols);
            ncols += 1;
        }
    }
    let mut art_col = vec![None; m];
    for (i, r) in rows.iter().enumerate() {
        let needs_art = match r.cmp {
            Cmp::Le => false, // slack is a valid basic var (rhs >= 0)
            Cmp::Ge | Cmp::Eq => true,
        };
        if needs_art {
            art_col[i] = Some(ncols);
            ncols += 1;
        }
    }
    let first_art = art_col.iter().flatten().copied().min().unwrap_or(ncols);

    // Tableau: m rows x (ncols + 1), last column rhs.
    let w = ncols + 1;
    let mut t = vec![0.0; m * w];
    let mut basis = vec![usize::MAX; m];
    for (i, r) in rows.iter().enumerate() {
        for (j, &a) in r.coef.iter().enumerate() {
            t[i * w + j] = a;
        }
        if let Some(s) = slack_col[i] {
            t[i * w + s] = if r.cmp == Cmp::Le { 1.0 } else { -1.0 };
            if r.cmp == Cmp::Le {
                basis[i] = s;
            }
        }
        if let Some(a) = art_col[i] {
            t[i * w + a] = 1.0;
            basis[i] = a;
        }
        t[i * w + ncols] = r.rhs;
    }
    debug_assert!(basis.iter().all(|&b| b != usize::MAX));

    // Objective row, kept separately: length ncols + 1.
    let mut obj = vec![0.0; w];

    let pivot =
        |t: &mut Vec<f64>, obj: &mut Vec<f64>, basis: &mut Vec<usize>, pr: usize, pc: usize| {
            let piv = t[pr * w + pc];
            for j in 0..w {
                t[pr * w + j] /= piv;
            }
            for i in 0..m {
                if i != pr {
                    let f = t[i * w + pc];
                    if nonzero(f) {
                        for j in 0..w {
                            t[i * w + j] -= f * t[pr * w + j];
                        }
                    }
                }
            }
            let f = obj[pc];
            if nonzero(f) {
                for j in 0..w {
                    obj[j] -= f * t[pr * w + j];
                }
            }
            basis[pr] = pc;
        };

    // Runs Bland's-rule simplex on the current objective row.
    // `allowed` filters candidate entering columns.
    let run = |t: &mut Vec<f64>,
               obj: &mut Vec<f64>,
               basis: &mut Vec<usize>,
               max_col: usize|
     -> Result<(), LpError> {
        for _ in 0..200_000 {
            // Bland: first column with negative reduced cost.
            let mut enter = None;
            for (j, &oj) in obj.iter().enumerate().take(max_col) {
                if oj < -TOL {
                    enter = Some(j);
                    break;
                }
            }
            let Some(pc) = enter else { return Ok(()) };
            // Ratio test, Bland tie-break on smallest basis index.
            let mut best: Option<(f64, usize)> = None;
            for i in 0..m {
                let a = t[i * w + pc];
                if a > TOL {
                    let ratio = t[i * w + ncols] / a;
                    match best {
                        None => best = Some((ratio, i)),
                        Some((br, bi)) => {
                            if ratio < br - TOL || (ratio < br + TOL && basis[i] < basis[bi]) {
                                best = Some((ratio.min(br), i));
                            }
                        }
                    }
                }
            }
            let Some((_, pr)) = best else {
                return Err(LpError::Unbounded);
            };
            pivot(t, obj, basis, pr, pc);
        }
        Err(LpError::IterationLimit)
    };

    // ---- Phase 1 ----
    if first_art < ncols {
        // w-objective: minimize sum of artificials; expressed over nonbasics
        // by subtracting artificial rows.
        for i in 0..m {
            if art_col[i].is_some() {
                for j in 0..w {
                    obj[j] -= t[i * w + j];
                }
            }
        }
        // Artificial columns have cost 1.
        for a in art_col.iter().flatten() {
            obj[*a] += 1.0;
        }
        run(&mut t, &mut obj, &mut basis, ncols)?;
        let w_opt = -obj[ncols];
        if w_opt > 1e-6 {
            return Err(LpError::Infeasible);
        }
        // Drive leftover degenerate basic artificials out of the basis:
        // rank-deficient (redundant) rows end phase 1 with an artificial
        // basic at value 0, and a later phase-2 pivot touching such a row
        // would silently push the artificial positive — returning an
        // infeasible point. Pivot each one onto any nonzero non-artificial
        // column of its row (a degenerate pivot: rhs is 0, feasibility is
        // unchanged); a row with no such column is entirely redundant and
        // inert under further pivots.
        for i in 0..m {
            if basis[i] >= first_art {
                if let Some(pc) = (0..first_art).find(|&j| t[i * w + j].abs() > 1e-7) {
                    pivot(&mut t, &mut obj, &mut basis, i, pc);
                }
            }
        }
    }

    // ---- Phase 2 ----
    obj.fill(0.0);
    for (j, col) in model.cols.iter().enumerate() {
        obj[j] = col.cost;
    }
    // Express over nonbasics.
    for i in 0..m {
        let b = basis[i];
        let f = obj[b];
        if nonzero(f) {
            for j in 0..w {
                obj[j] -= f * t[i * w + j];
            }
        }
    }
    // Artificials may not re-enter: restrict entering to pre-artificial cols.
    run(&mut t, &mut obj, &mut basis, first_art)?;

    // Extract.
    let mut z = vec![0.0; ncols];
    for i in 0..m {
        z[basis[i]] = t[i * w + ncols];
    }
    let mut values = vec![0.0; n];
    for j in 0..n {
        values[j] = z[j] + lbs[j];
    }
    let objective = model.objective_of(&values);
    Ok(Solution {
        objective,
        bound: objective,
        values,
        duals: vec![0.0; model.num_rows()],
        iterations: 0,
        status: Status::Optimal,
        stats: crate::basis::SolveStats::default(),
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::solve;
    use crate::{LpError, Model};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn reference_matches_known_optimum() {
        let mut m = Model::new();
        let x = m.add_nonneg(-3.0, "x");
        let y = m.add_nonneg(-5.0, "y");
        m.le(&[(x, 1.0)], 4.0);
        m.le(&[(y, 2.0)], 12.0);
        m.le(&[(x, 3.0), (y, 2.0)], 18.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, -36.0);
    }

    #[test]
    fn reference_handles_bounds() {
        let mut m = Model::new();
        let x = m.add_var(-1.0, 0.5, 2.0, "x");
        let s = solve(&m).unwrap();
        assert_close(s.value(x), 2.0);
        let mut m = Model::new();
        let x = m.add_var(1.0, 0.5, 2.0, "x");
        let s = solve(&m).unwrap();
        assert_close(s.value(x), 0.5);
    }

    #[test]
    fn reference_infeasible() {
        let mut m = Model::new();
        let x = m.add_unit(1.0, "x");
        m.ge(&[(x, 1.0)], 2.0);
        assert_eq!(solve(&m).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn reference_unbounded() {
        let mut m = Model::new();
        let x = m.add_nonneg(-1.0, "x");
        m.ge(&[(x, 1.0)], 1.0);
        assert_eq!(solve(&m).unwrap_err(), LpError::Unbounded);
    }

    #[test]
    fn reference_equalities() {
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        let y = m.add_nonneg(2.0, "y");
        m.eq(&[(x, 1.0), (y, 1.0)], 3.0);
        let s = solve(&m).unwrap();
        assert_close(s.objective, 3.0);
        assert_close(s.value(x), 3.0);
    }
}
