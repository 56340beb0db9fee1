//! Warm starts: a [`Basis`] snapshot from a related model is mapped onto
//! the working problem by the integer key of each column's and row's name,
//! so rows and columns may have been inserted, dropped or reordered in
//! between. This module alone knows that key format: [`State::map_snapshot`]
//! reads it, [`State::snapshot`] writes it, and
//! [`State::repair_basis`] needs only the [`State`]. A failed repair falls
//! back to the cold crash basis — warm starting is an optimization, never a
//! correctness risk.

use super::{run_phase, PhaseEnd, State, VStat};
use crate::basis::{Basis, SnapStat};
use crate::model::{Model, SolverOptions};
use crate::presolve::Presolved;
use crate::scratch::{prep, reserve, reserve_pool, CompleteBufs, PhaseBufs, WarmBufs};
use crate::sparse_lu::complete_basis_into;
use crate::LP_TOL;

/// Phase-0 rounds [`State::repair_basis`] may take before it gives the
/// basis up (on `online_eager_k8` 80 % of the repairs take one round, 19 %
/// two; three is the most seen on any benchmark workload).
const REPAIR_ROUNDS: usize = 4;

impl State {
    /// First half of a warm start: maps `snap`'s statuses onto the working
    /// columns by key — basic candidates into `wb.cand`, nonbasic-at-upper
    /// columns into `wb.uppers`. Returns `false` when nothing maps.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(super) fn map_snapshot(
        &mut self,
        model: &Model,
        pre: &Presolved,
        snap: &Basis,
        wb: &mut WarmBufs,
    ) -> bool {
        if snap.is_empty() {
            return false;
        }
        let n_struct = pre.kept_vars.len();
        let WarmBufs { cand, uppers, .. } = wb;
        reserve(&mut self.cnt, cand, n_struct + self.m);
        reserve(&mut self.cnt, uppers, n_struct);
        for (rj, &oj) in pre.kept_vars.iter().enumerate() {
            match snap.col(model.cols[oj as usize].key) {
                Some(SnapStat::Basic) => cand.push(rj),
                Some(SnapStat::AtUpper) => uppers.push(rj),
                None => {}
            }
        }
        // Slacks: basic when the snapshot remembers the row's slack as basic,
        // and also when the row is absent from the snapshot's working problem —
        // presolved away back then (a colgen capacity row that could not bind
        // yet) or genuinely new (one a generated column created) — because
        // such a row was satisfied strictly at the old optimum. Seeding its slack keeps the mapped basis's implied
        // point exactly at the old optimum; without it the completion may cover
        // the row with a structural column and scramble every basic value.
        for (&slack, &r) in self.slack_of_row.iter().zip(&self.kept_rows) {
            match slack {
                Some(sj) if snap.row(model.rows[r as usize].key).unwrap_or(true) => cand.push(sj),
                _ => {}
            }
        }
        !cand.is_empty()
    }

    /// Second half of a warm start, over the mapped `wb.cand` and
    /// `wb.uppers`. Returns `true` when the mapped basis factorized and
    /// produced a (near-)feasible point; on `false` the state may be
    /// arbitrary and the caller must run the cold crash.
    ///
    /// The mapping is repaired, not all-or-nothing: negative artificials get
    /// their sign flipped, basic variables forced outside their range are
    /// driven back by rounds of a bound-shifting "phase 0" (see inline
    /// comments), and a small residual on artificials is tolerated — phase 1
    /// clears it in far fewer pivots than a cold start would need.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    pub(super) fn repair_basis(
        &mut self,
        opts: &SolverOptions,
        wb: &mut WarmBufs,
        complete: &mut CompleteBufs,
        ph: &mut PhaseBufs,
    ) -> bool {
        let (m, n_expl, nvars) = (self.m, self.n_expl, self.nvars());
        let WarmBufs {
            cand,
            uppers,
            shifted,
            costs0,
            r,
            ..
        } = wb;

        // Bound-violation threshold for treating a mapped basic value as off.
        let vtol = LP_TOL * 10.0;
        self.art_sign.fill(1.0);

        // Complete the candidate set to a full basis: rank-revealing
        // elimination over the candidate columns, then slack (preferred) or
        // artificial unit columns for uncovered rows.
        let mut cols = std::mem::take(&mut self.fx.cols);
        reserve_pool(&mut self.cnt, &mut cols, cand.len());
        self.gather(cand, &mut cols);
        complete_basis_into(
            &mut complete.elim,
            &mut complete.ws,
            m,
            &cols[..cand.len()],
            &mut self.cnt,
        );
        self.fx.cols = cols;
        let picked = &complete.elim.pivoted_col;
        let covered = &complete.elim.pivoted_row;
        self.basis.clear();
        self.basis
            .extend(cand.iter().zip(picked).filter(|(_, &p)| p).map(|(&j, _)| j));
        for (r, &cov) in covered.iter().enumerate() {
            if !cov {
                self.basis.push(self.slack_of_row[r].unwrap_or(n_expl + r));
            }
        }
        if self.basis.len() != m {
            return false;
        }

        // Statuses: basis members basic; snapshot uppers at their (finite)
        // upper bound; everything else at lower. Artificials not in the basis
        // are pinned to zero.
        self.vstat.fill(VStat::AtLower);
        self.lb[n_expl..].fill(0.0);
        self.ub[n_expl..].fill(0.0);
        for k in 0..m {
            let j = self.basis[k];
            self.vstat[j] = VStat::Basic;
            if j >= n_expl {
                self.ub[j] = f64::INFINITY; // artificial may carry residual
            }
        }
        for &j in uppers.iter() {
            if self.vstat[j] != VStat::Basic && self.ub[j].is_finite() {
                self.vstat[j] = VStat::AtUpper;
            }
        }

        // Factorize and compute the implied basic values, unclamped. A second
        // pass re-factorizes after flipping the sign of any artificial whose
        // implied value came out negative.
        prep(&mut self.cnt, r, m, 0.0);
        for _pass in 0..2 {
            if self.factor().is_err() {
                return false;
            }
            self.implied_basic_values(r);
            let mut flipped = false;
            for (pos, &val) in r.iter().enumerate() {
                let j = self.basis[pos];
                if j >= n_expl && val < -vtol {
                    let row = j - n_expl;
                    self.art_sign[row] = -self.art_sign[row];
                    flipped = true;
                }
            }
            if !flipped {
                break;
            }
        }
        self.since_refactor = 0;

        // Adopt the implied point, collecting every basic variable it forces
        // outside its range.
        shifted.clear();
        for (pos, &val) in r.iter().enumerate() {
            let j = self.basis[pos];
            self.x[j] = if j >= n_expl {
                val.max(0.0)
            } else if val < self.lb[j] - vtol || val > self.ub[j] + vtol {
                shifted.push((j, self.lb[j], self.ub[j]));
                val
            } else {
                val.clamp(self.lb[j], self.ub[j])
            };
        }

        // Early junk-basis rejection, before spending repair pivots: when the
        // mapped point violates bounds on a large fraction of the basis, the
        // snapshot likely came from a structurally unrelated model (e.g. a
        // different random instance whose variables merely share names) and
        // the bound-shifting repair would burn its pivot cap only to fail —
        // cold-starting immediately is cheaper. The ¼ threshold mirrors the
        // artificial-residual acceptance test below. It also refuses about
        // 1 % of online epochs' snapshots from their own chain, which the
        // repair would have accepted in fewer pivots; without the rule the
        // online column-generation schedules come out slightly worse, so it
        // stays.
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
        prep(&mut self.cnt, costs0, nvars, 0.0);
        let cap = 200 + 4 * m;
        let mut rounds = 0;
        while !shifted.is_empty() {
            for &(j, lb0, ub0) in shifted.iter() {
                if self.x[j] < lb0 {
                    costs0[j] = -1.0;
                    self.lb[j] = self.x[j];
                    self.ub[j] = lb0;
                } else {
                    costs0[j] = 1.0;
                    self.lb[j] = ub0;
                    self.ub[j] = self.x[j];
                }
            }
            let before = self.iterations;
            let end = run_phase(self, costs0, opts, cap, ph);
            // Restore the original bounds (the cold crash reuses them should
            // the repair fail), re-align the nonbasic statuses of the returned
            // variables with them, and keep the ones still outside.
            shifted.retain(|&(j, lb0, ub0)| {
                self.lb[j] = lb0;
                self.ub[j] = ub0;
                costs0[j] = 0.0;
                if self.x[j] < lb0 - vtol || self.x[j] > ub0 + vtol {
                    return true;
                }
                if self.vstat[j] == VStat::Basic {
                    self.x[j] = self.x[j].clamp(lb0, ub0);
                } else if (self.x[j] - ub0).abs() <= (self.x[j] - lb0).abs() && ub0.is_finite() {
                    self.vstat[j] = VStat::AtUpper;
                    self.x[j] = ub0;
                } else {
                    self.vstat[j] = VStat::AtLower;
                    self.x[j] = lb0;
                }
                false
            });
            rounds += 1;
            let stuck = self.iterations == before || rounds == REPAIR_ROUNDS;
            if !matches!(end, Ok(PhaseEnd::Optimal)) || (stuck && !shifted.is_empty()) {
                return false;
            }
        }

        // Accept unless the mapping left so much residual on artificials that
        // phase 1 would redo everything anyway.
        let art_rows = self.x[n_expl..].iter().filter(|&&v| v > LP_TOL).count();
        art_rows * 4 <= m
    }

    /// The outgoing snapshot, by key: every kept column that is basic or
    /// at its upper bound (at-lower is the default), and whether each kept
    /// row's slack is basic.
    pub(super) fn snapshot(&self, model: &Model, pre: &Presolved) -> Basis {
        let mut cols = Vec::with_capacity(self.m);
        for (rj, &oj) in pre.kept_vars.iter().enumerate() {
            let stat = match self.vstat[rj] {
                VStat::Basic => SnapStat::Basic,
                VStat::AtUpper => SnapStat::AtUpper,
                VStat::AtLower => continue,
            };
            cols.push((model.cols[oj as usize].key, stat));
        }
        let basic = |slack: &Option<usize>| slack.is_some_and(|sj| self.vstat[sj] == VStat::Basic);
        let rows = self.kept_rows.iter().zip(&self.slack_of_row);
        let rows = rows.map(|(&r, slack)| (model.rows[r as usize].key, basic(slack)));
        Basis::new(cols, rows.collect())
    }
}
