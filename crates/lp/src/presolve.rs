//! Presolve: fixed-variable elimination, empty-row consistency, and
//! singleton-row bound tightening.
//!
//! The coflow LP generators fix many variables (e.g. completion fractions
//! `x_{jℓ} = 0` for intervals before a flow's release time, constraint (9)/
//! (22) of the paper, when expressed as fixed variables), and they emit many
//! rows that constrain a *single* variable (precedence rows `c_f <= C_i`
//! after one side is fixed, pruned capacity rows with one surviving term,
//! release lower bounds). Eliminating both before the simplex shrinks the
//! working basis substantially:
//!
//! * a variable with `lb == ub` is **fixed**: its columns move to the
//!   right-hand side and its cost to a constant offset;
//! * a row whose support has exactly one free variable is a **bound in
//!   disguise** (`a·x {cmp} b'` after substituting fixed variables): the
//!   bound is tightened and the row dropped, never entering the basis;
//! * both rules feed each other (a singleton equality fixes its variable,
//!   which may create new singletons), so they run to a fixpoint: one pass
//!   over the rows in index order, then a queue of re-examinations.
//!
//! Presolve runs before every solve — every round of a column generation,
//! every epoch of the online engine — so its working set is a handful of
//! flat arrays sized by the model: the row and column adjacencies are
//! compressed (CSR/CSC, counting-sorted so each list keeps triplet order),
//! not a heap vector per row and per column, and nothing is queued until a
//! fixed variable sends a row back for another look.
//!
//! The tightened working bounds are reported in [`Presolved::lb`]/
//! [`Presolved::ub`]; the simplex operates on those, not the model's
//! original bounds. Duals of dropped rows are reported as zero (the
//! [`crate::Solution`] documents duals as diagnostics only).

use crate::model::{Cmp, LpError, Model};

/// A dropped singleton row, recorded for **dual postsolve**: if the bound
/// it implied is active at the optimum, the row's dual is the variable's
/// (otherwise unattributed) reduced cost divided by the row coefficient —
/// without this, binding singleton rows would report dual 0 and consumers
/// that price against the duals (delayed column generation) would never
/// see the constraint bind.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SingletonBound {
    /// Original row index.
    pub row: u32,
    /// The row's single free variable (original index).
    pub var: u32,
    /// The row coefficient on that variable.
    pub coef: f64,
    /// The row implied a lower bound on the variable.
    pub lower: bool,
    /// The row implied an upper bound on the variable.
    pub upper: bool,
    /// The implied bound value (`rhs' / coef`).
    pub value: f64,
}

/// Outcome of presolve: a mapping onto a reduced variable set plus adjusted
/// right-hand sides and tightened bounds.
#[derive(Clone, Debug)]
pub struct Presolved {
    /// original var index -> reduced index (None if the var was fixed).
    pub var_map: Vec<Option<u32>>,
    /// reduced index -> original var index.
    pub kept_vars: Vec<u32>,
    /// Per original variable: its fixed value if fixed, else 0.0 (unused).
    pub fixed_values: Vec<f64>,
    /// Per original row: rhs minus contributions of fixed variables.
    pub rhs_adjust: Vec<f64>,
    /// Rows that still constrain two or more free variables.
    pub keep_row: Vec<bool>,
    /// Objective contribution of the fixed variables.
    pub obj_offset: f64,
    /// Tightened working lower bounds, per original variable.
    pub lb: Vec<f64>,
    /// Tightened working upper bounds, per original variable.
    pub ub: Vec<f64>,
    /// Number of singleton rows converted into bound updates (diagnostics).
    pub singleton_rows: usize,
    /// Number of multi-variable rows dropped as redundant — their extreme
    /// activity over the tightened variable boxes cannot violate the bound
    /// (diagnostics).
    pub redundant_rows: usize,
    /// Dropped singleton rows, in drop order, for dual postsolve.
    pub(crate) singleton_bounds: Vec<SingletonBound>,
}

/// Tolerance for declaring an empty row inconsistent or bounds crossed.
const ROW_TOL: f64 = 1e-7;

/// Compressed adjacency by counting sort: `items[ptr[k]..ptr[k + 1]]` are
/// the `(other index, coefficient)` pairs of key `k`, in the order
/// `entries` yields its `(key, other, coefficient)` triples.
fn group_by_key(
    keys: usize,
    entries: impl Iterator<Item = (u32, u32, f64)> + Clone,
) -> (Vec<usize>, Vec<(u32, f64)>) {
    let mut ptr = vec![0usize; keys + 1];
    for (k, _, _) in entries.clone() {
        ptr[k as usize + 1] += 1;
    }
    for k in 0..keys {
        ptr[k + 1] += ptr[k];
    }
    let mut items = vec![(0u32, 0.0f64); ptr[keys]];
    let mut fill = ptr.clone();
    for (k, other, a) in entries {
        items[fill[k as usize]] = (other, a);
        fill[k as usize] += 1;
    }
    (ptr, items)
}

/// Runs presolve; fails fast with [`LpError::Infeasible`] when a row reduces
/// to an unsatisfiable constant relation or crosses a variable's bounds.
pub fn presolve(m: &Model) -> Result<Presolved, LpError> {
    let n = m.num_vars();
    let nr = m.num_rows();

    let mut lb: Vec<f64> = m.cols.iter().map(|c| c.lb).collect();
    let mut ub: Vec<f64> = m.cols.iter().map(|c| c.ub).collect();
    let mut fixed = vec![false; n];
    let mut fixed_values = vec![0.0; n];
    let mut obj_offset = 0.0;

    // Row supports and the transposed adjacency (var -> rows).
    let (row_ptr, row_items) = group_by_key(nr, m.triplets.iter().copied());
    let (col_ptr, col_items) = group_by_key(n, m.triplets.iter().map(|&(r, c, a)| (c, r, a)));
    let row_terms = |r: usize| &row_items[row_ptr[r]..row_ptr[r + 1]];
    let var_rows = |j: usize| &col_items[col_ptr[j]..col_ptr[j + 1]];

    // Initially fixed variables (builder guarantees lb <= ub).
    for j in 0..n {
        if ub[j] - lb[j] <= 0.0 {
            fixed[j] = true;
            fixed_values[j] = lb[j];
            obj_offset += m.cols[j].cost * lb[j];
        }
    }

    let mut rhs_adjust: Vec<f64> = m.rows.iter().map(|r| r.rhs).collect();
    let mut free_count = vec![0usize; nr];
    for r in 0..nr {
        for &(c, a) in row_terms(r) {
            if fixed[c as usize] {
                rhs_adjust[r] -= a * fixed_values[c as usize];
            } else {
                free_count[r] += 1;
            }
        }
    }

    let mut live = vec![true; nr];
    let mut singleton_rows = 0usize;
    let mut singleton_bounds: Vec<SingletonBound> = Vec::new();

    // Every row is examined once, in index order, and again whenever one
    // of its variables becomes fixed: `queue` holds those re-examinations
    // and drains after the index pass, which `next` walks. A row the index
    // pass has yet to reach counts as queued.
    let mut next = 0usize;
    let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
    let mut queued = vec![true; nr];

    // Fixes variable j at v, propagating into its rows and queueing those
    // that need re-examination.
    macro_rules! fix_var {
        ($j:expr, $v:expr) => {{
            let j = $j;
            let v: f64 = $v;
            fixed[j] = true;
            fixed_values[j] = v;
            lb[j] = v;
            ub[j] = v;
            obj_offset += m.cols[j].cost * v;
            for &(r, a) in var_rows(j) {
                let r = r as usize;
                if live[r] {
                    rhs_adjust[r] -= a * v;
                    free_count[r] -= 1;
                    if !queued[r] {
                        queued[r] = true;
                        queue.push_back(r as u32);
                    }
                }
            }
        }};
    }

    loop {
        let r = if next < nr {
            next += 1;
            next - 1
        } else if let Some(r) = queue.pop_front() {
            r as usize
        } else {
            break;
        };
        queued[r] = false;
        if !live[r] {
            continue;
        }
        match free_count[r] {
            0 => {
                // Constant row: `0 {cmp} rhs'` must hold.
                let rv = rhs_adjust[r];
                let tol = ROW_TOL * (1.0 + m.rows[r].rhs.abs());
                let ok = match m.rows[r].cmp {
                    Cmp::Le => rv >= -tol,
                    Cmp::Ge => rv <= tol,
                    Cmp::Eq => rv.abs() <= tol,
                };
                if !ok {
                    return Err(LpError::Infeasible);
                }
                live[r] = false;
            }
            1 => {
                // Singleton row: a bound on its one free variable.
                let &(c, a) = row_terms(r)
                    .iter()
                    .find(|&&(c, _)| !fixed[c as usize])
                    .ok_or_else(|| {
                        LpError::Numerical("singleton row lost its free variable".into())
                    })?;
                let j = c as usize;
                let bound = rhs_adjust[r] / a;
                let (mut new_lb, mut new_ub) = (f64::NEG_INFINITY, f64::INFINITY);
                match (m.rows[r].cmp, a > 0.0) {
                    (Cmp::Le, true) | (Cmp::Ge, false) => new_ub = bound,
                    (Cmp::Ge, true) | (Cmp::Le, false) => new_lb = bound,
                    (Cmp::Eq, _) => {
                        new_lb = bound;
                        new_ub = bound;
                    }
                }
                let tol = ROW_TOL * (1.0 + bound.abs());
                if new_lb > ub[j] + tol || new_ub < lb[j] - tol {
                    return Err(LpError::Infeasible);
                }
                // lint: allow(float_cmp) — infinity is an exact overflow sentinel here
                if new_lb == f64::INFINITY || new_ub == f64::NEG_INFINITY {
                    // Overflowed division: unsatisfiable direction.
                    return Err(LpError::Infeasible);
                }
                if new_lb.is_finite() && new_lb > lb[j] {
                    lb[j] = new_lb.min(ub[j]);
                }
                if new_ub.is_finite() && new_ub < ub[j] {
                    ub[j] = new_ub.max(lb[j]);
                }
                singleton_bounds.push(SingletonBound {
                    row: r as u32,
                    var: c,
                    coef: a,
                    lower: new_lb.is_finite(),
                    upper: new_ub.is_finite(),
                    value: bound,
                });
                live[r] = false;
                singleton_rows += 1;
                if ub[j] - lb[j] <= 0.0 {
                    fix_var!(j, lb[j]);
                }
            }
            _ => {}
        }
    }

    // Redundant-row elimination: an inequality whose extreme activity over
    // the (tightened) free-variable boxes cannot violate its bound never
    // binds — its dual is 0 and its slack would sit basic forever — so it
    // is dropped before it inflates the working basis. This is the
    // presolve-level form of the redundant-capacity-row pruning the eager
    // LP builders do at build time, and it is what keeps delayed-column-
    // generation masters small: their capacity rows are created up front,
    // for every interval of every edge a column may ever load, but only
    // the bindable ones survive. One pass after
    // the fixpoint suffices (bounds only tighten there, and tightening
    // can only make more rows redundant, never fewer — rows examined here
    // use the final bounds).
    let mut redundant_rows = 0usize;
    for r in 0..nr {
        if !live[r] || free_count[r] < 2 {
            continue;
        }
        let (mut lo, mut hi) = (0.0_f64, 0.0_f64);
        for &(c, a) in row_terms(r) {
            let j = c as usize;
            if fixed[j] {
                continue;
            }
            // Coefficients are nonzero by the builder's contract, so
            // `a * ±inf` cannot produce NaN.
            let (alo, ahi) = if a > 0.0 {
                (a * lb[j], a * ub[j])
            } else {
                (a * ub[j], a * lb[j])
            };
            lo += alo;
            hi += ahi;
        }
        let tol = ROW_TOL * (1.0 + rhs_adjust[r].abs());
        let drop = match m.rows[r].cmp {
            Cmp::Le => hi <= rhs_adjust[r] + tol,
            Cmp::Ge => lo >= rhs_adjust[r] - tol,
            Cmp::Eq => false,
        };
        if drop {
            live[r] = false;
            redundant_rows += 1;
        }
    }

    // Final variable mapping.
    let mut var_map = vec![None; n];
    let mut kept_vars = Vec::with_capacity(n);
    for j in 0..n {
        if !fixed[j] {
            var_map[j] = Some(kept_vars.len() as u32);
            kept_vars.push(j as u32);
        }
    }

    Ok(Presolved {
        var_map,
        kept_vars,
        fixed_values,
        rhs_adjust,
        keep_row: live,
        obj_offset,
        lb,
        ub,
        singleton_rows,
        redundant_rows,
        singleton_bounds,
    })
}

/// **Dual postsolve** for dropped singleton rows: rewrites `duals` in
/// place so a singleton row whose implied bound is *active* at the optimum
/// reports the bound's multiplier (the variable's reduced cost divided by
/// the row coefficient) instead of 0. Rows whose bound is inactive keep a
/// 0 dual (complementary slackness). When several dropped rows imply the
/// same active bound, the first one recorded receives the full multiplier
/// — a valid KKT decomposition.
///
/// This is what makes the reported duals usable for *pricing*: delayed
/// column generation must see a capacity row bind even when only one
/// current column crosses it (the singleton case presolve rewrites away).
pub(crate) fn postsolve_singleton_duals(m: &Model, pre: &Presolved, tol: f64, duals: &mut [f64]) {
    if pre.singleton_bounds.is_empty() {
        return;
    }
    // Unattributed reduced cost per original variable under the kept-row
    // duals: `c_j − Σ_{kept r} y_r a_rj`.
    let mut rc: Vec<f64> = m.cols.iter().map(|c| c.cost).collect();
    for &(r, c, a) in &m.triplets {
        if pre.keep_row[r as usize] {
            rc[c as usize] -= duals[r as usize] * a;
        }
    }
    let tol = tol.max(1e-9);
    for s in &pre.singleton_bounds {
        let j = s.var as usize;
        let d = rc[j];
        let btol = tol * 10.0 * (1.0 + s.value.abs());
        // `d > 0` means the lower bound binds (min problem), `d < 0` the
        // upper; the row is eligible when it implied that side at exactly
        // the final working bound.
        let eligible = if d > tol {
            s.lower && (s.value - pre.lb[j]).abs() <= btol
        } else if d < -tol {
            s.upper && (s.value - pre.ub[j]).abs() <= btol
        } else {
            false
        };
        if eligible {
            duals[s.row as usize] = d / s.coef;
            rc[j] = 0.0;
        }
    }
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::Model;

    #[test]
    fn fixed_vars_eliminated_and_offset_counted() {
        let mut m = Model::new();
        let x = m.add_var(2.0, 3.0, 3.0, "fixed"); // fixed at 3, cost 2
        let y = m.add_nonneg(1.0, "y");
        m.eq(&[(x, 1.0), (y, 1.0)], 5.0);
        let p = presolve(&m).unwrap();
        // The row becomes a singleton on y and fixes it at 2.
        assert_eq!(p.var_map[x.index()], None);
        assert_eq!(p.fixed_values[x.index()], 3.0);
        assert_eq!(p.fixed_values[y.index()], 2.0);
        assert_eq!(p.obj_offset, 8.0);
        assert!(!p.keep_row[0]);
        // End-to-end: y = 2, objective 6 + 2 = 8.
        let sol = m.solve().unwrap();
        assert!((sol.objective - 8.0).abs() < 1e-7);
        assert!((sol.value(x) - 3.0).abs() < 1e-12);
        assert!((sol.value(y) - 2.0).abs() < 1e-7);
    }

    #[test]
    fn all_fixed_consistent_row_dropped() {
        let mut m = Model::new();
        let x = m.add_var(1.0, 2.0, 2.0, "x");
        m.le(&[(x, 1.0)], 2.0);
        let p = presolve(&m).unwrap();
        assert!(!p.keep_row[0]);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn all_fixed_inconsistent_row_infeasible() {
        let mut m = Model::new();
        let x = m.add_var(0.0, 2.0, 2.0, "x");
        m.le(&[(x, 1.0)], 1.0);
        assert_eq!(presolve(&m).unwrap_err(), LpError::Infeasible);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn truly_empty_row_checked() {
        let mut m = Model::new();
        let _ = m.add_nonneg(1.0, "x");
        m.add_row(Cmp::Ge, 1.0, &[]); // 0 >= 1: impossible
        assert_eq!(presolve(&m).unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn empty_eq_zero_ok() {
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        m.add_row(Cmp::Eq, 0.0, &[]);
        m.ge(&[(x, 1.0)], 1.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn singleton_le_tightens_upper_bound() {
        let mut m = Model::new();
        let x = m.add_nonneg(-1.0, "x"); // min -x
        m.le(&[(x, 2.0)], 8.0); // x <= 4, as a row
        let p = presolve(&m).unwrap();
        assert_eq!(p.singleton_rows, 1);
        assert!(!p.keep_row[0]);
        assert_eq!(p.ub[x.index()], 4.0);
        // No rows survive: the solve uses the tightened bound.
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 4.0).abs() < 1e-9);
        assert!((sol.objective + 4.0).abs() < 1e-9);
    }

    #[test]
    fn singleton_ge_tightens_lower_bound() {
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x"); // min x
        m.ge(&[(x, 1.0)], 3.0);
        let p = presolve(&m).unwrap();
        assert_eq!(p.lb[x.index()], 3.0);
        assert!(!p.keep_row[0]);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn singleton_negative_coef_flips_sense() {
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        m.le(&[(x, -1.0)], -3.0); // -x <= -3  <=>  x >= 3
        let p = presolve(&m).unwrap();
        assert_eq!(p.lb[x.index()], 3.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn singleton_eq_fixes_and_cascades() {
        // x = 2 (singleton eq) makes the second row a singleton on y,
        // which fixes y = 3 via its own equality.
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        let y = m.add_nonneg(1.0, "y");
        m.eq(&[(x, 1.0)], 2.0);
        m.eq(&[(x, 1.0), (y, 1.0)], 5.0);
        let p = presolve(&m).unwrap();
        assert!(p.kept_vars.is_empty(), "both vars fixed by cascade");
        assert!(!p.keep_row[0] && !p.keep_row[1]);
        let sol = m.solve().unwrap();
        assert!((sol.objective - 5.0).abs() < 1e-9);
        assert!((sol.value(x) - 2.0).abs() < 1e-9);
        assert!((sol.value(y) - 3.0).abs() < 1e-9);
    }

    /// The visiting order is part of the contract (`singleton_bounds` is in
    /// drop order, and dual postsolve credits the first recorded row): the
    /// index pass reaches later rows before an earlier row's re-examination
    /// comes off the queue.
    #[test]
    fn cascade_visits_later_rows_before_requeued_earlier_ones() {
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        let y = m.add_nonneg(1.0, "y");
        let z = m.add_nonneg(1.0, "z");
        let w = m.add_nonneg(1.0, "w");
        m.le(&[(x, 1.0), (y, 2.0)], 6.0); // row 0: singleton once x = 2
        m.eq(&[(x, 1.0)], 2.0); // row 1: fixes x
        m.ge(&[(x, 1.0), (z, 1.0)], 5.0); // row 2: z >= 3
        m.le(&[(x, 3.0), (w, 1.0)], 10.0); // row 3: w <= 4
        let p = presolve(&m).unwrap();
        let order: Vec<u32> = p.singleton_bounds.iter().map(|s| s.row).collect();
        assert_eq!(order, [1, 2, 3, 0]);
        let values: Vec<f64> = p.singleton_bounds.iter().map(|s| s.value).collect();
        assert_eq!(values, [2.0, 3.0, 4.0, 2.0]);
        assert_eq!(p.singleton_rows, 4);
        assert_eq!(p.keep_row, [false; 4]);
        assert_eq!(p.kept_vars, [y.0, z.0, w.0]);
        assert_eq!((p.lb[x.index()], p.ub[x.index()]), (2.0, 2.0));
        assert_eq!((p.lb[y.index()], p.ub[y.index()]), (0.0, 2.0));
        assert_eq!((p.lb[z.index()], p.ub[z.index()]), (3.0, f64::INFINITY));
        assert_eq!((p.lb[w.index()], p.ub[w.index()]), (0.0, 4.0));
        assert_eq!(p.rhs_adjust, [4.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.obj_offset, 2.0);
    }

    #[test]
    fn crossing_singleton_bounds_infeasible() {
        let mut m = Model::new();
        let x = m.add_unit(1.0, "x"); // x in [0,1]
        m.ge(&[(x, 1.0)], 2.0); // x >= 2: crosses ub
        assert_eq!(presolve(&m).unwrap_err(), LpError::Infeasible);
        assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
    }

    #[test]
    fn redundant_singleton_kept_loose() {
        let mut m = Model::new();
        let x = m.add_unit(-1.0, "x");
        m.le(&[(x, 1.0)], 5.0); // looser than ub = 1: no-op bound
        let p = presolve(&m).unwrap();
        assert_eq!(p.ub[x.index()], 1.0);
        assert!(!p.keep_row[0]);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_var_rows_survive() {
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        let y = m.add_nonneg(1.0, "y");
        m.ge(&[(x, 1.0), (y, 1.0)], 2.0);
        let p = presolve(&m).unwrap();
        assert!(p.keep_row[0]);
        assert_eq!(p.singleton_rows, 0);
    }

    /// A binding singleton row must report the bound multiplier as its
    /// dual after postsolve — and match the dual the same constraint gets
    /// when it survives presolve as a two-variable row.
    #[test]
    fn singleton_row_dual_postsolved() {
        // min -x with 2x <= 2 (singleton: x <= 1, binding). KKT:
        // -1 - 2y = 0 => y = -0.5.
        let mut m = Model::new();
        let x = m.add_var(-1.0, 0.0, 5.0, "x");
        let r = m.le(&[(x, 2.0)], 2.0);
        let sol = m.solve().unwrap();
        assert!((sol.value(x) - 1.0).abs() < 1e-9);
        assert!((sol.dual(r) - (-0.5)).abs() < 1e-9, "dual {}", sol.dual(r));

        // The kept-row variant (second variable stops the singleton
        // rewrite) must agree on the shared row's dual.
        let mut m2 = Model::new();
        let x = m2.add_var(-1.0, 0.0, 5.0, "x");
        let y = m2.add_nonneg(1.0, "y");
        let r2 = m2.le(&[(x, 2.0), (y, 1.0)], 2.0);
        let sol2 = m2.solve().unwrap();
        assert!(
            (sol2.dual(r2) - (-0.5)).abs() < 1e-9,
            "dual {}",
            sol2.dual(r2)
        );

        // A *loose* singleton row keeps dual 0 (complementary slackness).
        let mut m3 = Model::new();
        let x = m3.add_unit(-1.0, "x");
        let r3 = m3.le(&[(x, 1.0)], 10.0);
        let sol3 = m3.solve().unwrap();
        assert_eq!(sol3.dual(r3), 0.0);
    }

    #[test]
    fn redundant_le_row_dropped() {
        // x + y <= 5 with x, y in [0,1]: max activity 2 — never binds.
        let mut m = Model::new();
        let x = m.add_unit(-1.0, "x");
        let y = m.add_unit(-2.0, "y");
        m.le(&[(x, 1.0), (y, 1.0)], 5.0);
        m.le(&[(x, 1.0), (y, 1.0)], 1.5); // bindable: kept
        let p = presolve(&m).unwrap();
        assert!(!p.keep_row[0] && p.keep_row[1]);
        assert_eq!(p.redundant_rows, 1);
        let sol = m.solve().unwrap();
        assert!((sol.objective + 2.5).abs() < 1e-7, "obj {}", sol.objective);
    }

    #[test]
    fn redundant_ge_row_dropped_infinite_not() {
        let mut m = Model::new();
        let x = m.add_unit(1.0, "x");
        let y = m.add_unit(1.0, "y");
        m.ge(&[(x, 1.0), (y, 1.0)], -1.0); // min activity 0 >= -1: redundant
        let p = presolve(&m).unwrap();
        assert!(!p.keep_row[0]);
        // An unbounded-above variable keeps its Le row non-redundant.
        let mut m = Model::new();
        let x = m.add_nonneg(1.0, "x");
        let y = m.add_unit(1.0, "y");
        m.le(&[(x, 1.0), (y, 1.0)], 100.0);
        let p = presolve(&m).unwrap();
        assert!(p.keep_row[0]);
        assert_eq!(p.redundant_rows, 0);
    }
}
