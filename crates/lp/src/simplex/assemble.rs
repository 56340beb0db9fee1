//! Assembly of the working problem from the presolved model: the rows
//! that survive presolve, one slack column per inequality row, the CSC
//! matrix over the structurals and then the slacks (artificial columns
//! stay implicit unit vectors), the row starts of its row-wise copy, the
//! bounds, the right-hand side, the all-artificial starting basis, and
//! both phases' cost vectors.

use super::{splitmix64, State, VStat};
use crate::basis::SolveStats;
use crate::model::{Cmp, Model};
use crate::presolve::Presolved;
use crate::scratch::{prep, reserve, AsmBufs};

/// Relative magnitude of the deterministic jitter on phase-1 artificial
/// costs. Exact unit costs make transportation-like LPs massively
/// dual-degenerate in phase 1 (every tied reduced cost spawns a run of
/// degenerate pivots); the jitter breaks the ties while preserving the
/// phase-1 optimum's defining property (zero infeasibility ⇔ all
/// artificials at zero).
const PHASE1_JITTER: f64 = 1e-7;

/// The coefficient of a row's slack column: `+1` for `Le`, `−1` for `Ge`;
/// `Eq` rows carry no slack.
fn slack_coef(cmp: Cmp) -> Option<f64> {
    match cmp {
        Cmp::Le => Some(1.0),
        Cmp::Ge => Some(-1.0),
        Cmp::Eq => None,
    }
}

/// Deterministic hash → uniform float in `(0, 1]`.
fn splitmix_unit(x: u64) -> f64 {
    (splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64 + f64::EPSILON
}

impl State {
    /// Builds the working problem of `model` under `pre` and resets the
    /// point to the all-artificial basis. A model whose rows all presolve
    /// away gets `m = 0`: an empty basis, over which pricing flips each
    /// column to its cheaper bound.
    pub(super) fn assemble(
        &mut self,
        model: &Model,
        pre: &Presolved,
        asm: &mut AsmBufs,
        warm_attempted: bool,
    ) {
        let AsmBufs {
            row_map,
            col_counts,
            fill_ptr,
            ..
        } = asm;
        let cnt = &mut self.cnt;
        let kept_rows = &mut self.kept_rows;
        reserve(cnt, kept_rows, model.num_rows());
        kept_rows.extend((0..model.num_rows() as u32).filter(|&r| pre.keep_row[r as usize]));
        prep(cnt, row_map, model.num_rows(), None);
        for (new, &old) in kept_rows.iter().enumerate() {
            row_map[old as usize] = Some(new as u32);
        }
        let m = kept_rows.len();
        let n_struct = pre.kept_vars.len();

        // Column-sorted triplets over kept rows/vars, and the row lengths
        // of the row-wise copy (counted at `row_ptr[r + 1]`).
        prep(cnt, col_counts, n_struct, 0usize);
        let row_ptr = &mut self.rows.row_ptr;
        prep(cnt, row_ptr, m + 1, 0usize);
        for &(r, c, _) in &model.triplets {
            if let Some(nr) = row_map[r as usize] {
                if let Some(rc) = pre.var_map[c as usize] {
                    col_counts[rc as usize] += 1;
                    row_ptr[nr as usize + 1] += 1;
                }
            }
        }
        // Slack bookkeeping: one slack column for each Le/Ge row.
        prep(cnt, &mut self.slack_of_row, m, None);
        let mut n_expl = n_struct;
        for (i, (slack, &r)) in self
            .slack_of_row
            .iter_mut()
            .zip(kept_rows.iter())
            .enumerate()
        {
            if slack_coef(model.rows[r as usize].cmp).is_some() {
                *slack = Some(n_expl);
                n_expl += 1;
                row_ptr[i + 1] += 1;
            }
        }
        for i in 0..m {
            row_ptr[i + 1] += row_ptr[i];
        }
        self.rows.reset();

        let csc = &mut self.csc;
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
        // Slack columns: one entry each, the slack's sign.
        for (new_r, (slack, &r)) in self.slack_of_row.iter().zip(kept_rows.iter()).enumerate() {
            if let (Some(j), Some(coef)) = (*slack, slack_coef(model.rows[r as usize].cmp)) {
                let p = csc.col_ptr[j];
                csc.row_idx[p] = new_r as u32;
                csc.values[p] = coef;
            }
        }
        // The model builder merges duplicate terms at `add_row` time, so each
        // CSC column already has unique row indices.

        // Bounds and working arrays.
        let nvars = n_expl + m;
        prep(cnt, &mut self.lb, nvars, 0.0);
        prep(cnt, &mut self.ub, nvars, f64::INFINITY);
        for (rj, &oj) in pre.kept_vars.iter().enumerate() {
            self.lb[rj] = pre.lb[oj as usize];
            self.ub[rj] = pre.ub[oj as usize];
        }
        // Slacks: [0, inf). Artificials: [0, inf) during phase 1.

        reserve(cnt, &mut self.b, m);
        self.b
            .extend(kept_rows.iter().map(|&r| pre.rhs_adjust[r as usize]));

        self.m = m;
        self.n_expl = n_expl;
        prep(cnt, &mut self.art_sign, m, 1.0);
        prep(cnt, &mut self.x, nvars, 0.0);
        prep(cnt, &mut self.vstat, nvars, VStat::AtLower);
        reserve(cnt, &mut self.basis, m);
        self.basis.extend(n_expl..n_expl + m);
        self.since_refactor = 0;
        self.iterations = 0;
        self.stats = SolveStats {
            rows: m,
            cols: n_expl,
            warm_attempted,
            ..Default::default()
        };
    }

    /// Both phases' cost vectors over all variables: phase 1 prices the
    /// artificials at jittered unit costs, phase 2 the structurals at
    /// their true costs, optionally perturbed by `perturb`.
    pub(super) fn phase_costs(
        &mut self,
        model: &Model,
        pre: &Presolved,
        perturb: f64,
        costs1: &mut Vec<f64>,
        costs2: &mut Vec<f64>,
    ) {
        let (nvars, n_struct) = (self.nvars(), pre.kept_vars.len());
        prep(&mut self.cnt, costs1, nvars, 0.0);
        for (r, c) in costs1.iter_mut().skip(self.n_expl).enumerate() {
            *c = 1.0 + PHASE1_JITTER * splitmix_unit(r as u64 + 0x5EED);
        }
        prep(&mut self.cnt, costs2, nvars, 0.0);
        for (rj, &oj) in pre.kept_vars.iter().enumerate() {
            costs2[rj] = model.cols[oj as usize].cost;
        }
        if perturb > 0.0 {
            // Deterministic anti-degeneracy perturbation on structural costs.
            let scale = costs2[..n_struct]
                .iter()
                .map(|c| c.abs())
                .fold(1.0_f64, f64::max);
            for (j, c) in costs2.iter_mut().enumerate().take(n_struct) {
                *c += perturb * scale * splitmix_unit(j as u64 + 1);
            }
        }
    }
}
