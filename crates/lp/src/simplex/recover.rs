//! Cold starts (the crash basis) and the singular-factorization recovery
//! ladder ([`State::recover`]).

use super::{run_phases, State, VStat};
use crate::model::{LpError, SolverOptions};
use crate::scratch::{prep, PhaseBufs};
use coflow_obs::Counter as ObsCounter;

impl State {
    /// The cold start: the crash basis. When its first factorization fails
    /// (in practice only an injected fault: the crash basis is diagonal),
    /// rungs 1 and 2 would redo exactly what just failed, so the cold start
    /// escalates straight to rung 3.
    pub(super) fn cold_start(&mut self, resid: &mut Vec<f64>) -> Result<(), LpError> {
        match self.crash(true, resid) {
            Err(LpError::Numerical(_)) => self.recover(3, resid),
            res => res,
        }
    }

    /// Runs phase 1 and phase 2 ([`run_phases`]) inside the recovery
    /// ladder: a numerical failure climbs to the first rung above the last
    /// one tried that succeeds, and runs the phases again from there. When
    /// no rung is left, the phases' error is returned.
    pub(super) fn run_recovering(
        &mut self,
        opts: &SolverOptions,
        costs1: &[f64],
        costs2: &[f64],
        ph: &mut PhaseBufs,
        resid: &mut Vec<f64>,
    ) -> Result<(usize, bool), LpError> {
        let mut rung = 0;
        loop {
            let msg = match run_phases(self, opts, costs1, costs2, ph) {
                Err(LpError::Numerical(msg)) => msg,
                res => return res,
            };
            let recovered = (rung + 1..=3).any(|next| {
                rung = next;
                self.recover(next, resid).is_ok()
            });
            if !recovered {
                return Err(LpError::Numerical(msg));
            }
        }
    }

    /// One rung of the recovery ladder:
    ///
    /// 1. refactorize the current basis in place;
    /// 2. rebuild the crash basis and restore feasibility from scratch;
    /// 3. cold-restart from the all-artificial identity basis.
    ///
    /// Every rung bumps the `Recoveries` counter and its own `recovery_*`
    /// stat. Inside [`State::run_recovering`] each rung is attempted at
    /// most once per solve, and a rung that itself fails (the basis is
    /// singular beyond repair, or the fault hook keeps firing) escalates
    /// immediately. [`State::cold_start`]'s rung 3 runs outside that
    /// budget, so a solve whose first factorization fails can run rung 3
    /// twice.
    fn recover(&mut self, rung: usize, resid: &mut Vec<f64>) -> Result<(), LpError> {
        self.rec.bump(ObsCounter::Recoveries, 1);
        match rung {
            1 => {
                self.stats.recovery_refactorizations += 1;
                self.refactorize()
            }
            2 => {
                self.stats.recovery_basis_repairs += 1;
                self.crash(true, resid)
            }
            _ => {
                self.stats.recovery_cold_restarts += 1;
                self.crash(false, resid)
            }
        }
    }

    /// Builds the cold crash basis: prefer each row's own slack when it can
    /// sit at a feasible (nonnegative) value, otherwise fall back to an
    /// artificial. This leaves artificials only on equality rows and on
    /// inequality rows violated at the all-lower-bound point, which slashes
    /// phase-1 work.
    ///
    /// With `prefer_slacks = false` every row is covered by its artificial
    /// instead — the recovery ladder's last rung: the basis matrix is then
    /// a signed identity, the one factorization that cannot fail
    /// numerically.
    #[deny(clippy::disallowed_methods, clippy::disallowed_macros)]
    fn crash(&mut self, prefer_slacks: bool, resid: &mut Vec<f64>) -> Result<(), LpError> {
        let (m, n_expl) = (self.m, self.n_expl);
        // Reset to the all-artificial basis with every other variable at
        // its lower bound, and take the rows' residuals at that point.
        self.vstat.fill(VStat::AtLower);
        self.basis.clear();
        self.basis.extend(n_expl..n_expl + m);
        self.art_sign.fill(1.0);
        self.lb[n_expl..].fill(0.0);
        self.ub[n_expl..].fill(f64::INFINITY);
        prep(&mut self.cnt, resid, m, 0.0);
        self.nonbasic_residual(resid);
        for (r, &res) in resid.iter().enumerate() {
            let aj = n_expl + r;
            // A slack column's one entry is its sign: +1 for Le, -1 for Ge.
            let slack = self.slack_of_row[r]
                .filter(|_| prefer_slacks)
                .map(|sj| (sj, res / self.csc.values[self.csc.col_ptr[sj]]))
                .filter(|&(_, val)| val >= 0.0);
            if let Some((sj, val)) = slack {
                self.basis[r] = sj;
                self.vstat[sj] = VStat::Basic;
                self.x[sj] = val;
                // Artificial stays nonbasic at 0 and is never allowed to move.
                self.art_sign[r] = 1.0;
                self.ub[aj] = 0.0;
                self.vstat[aj] = VStat::AtLower;
                self.x[aj] = 0.0;
            } else {
                let sign = if res >= 0.0 { 1.0 } else { -1.0 };
                self.art_sign[r] = sign;
                self.x[aj] = sign * res;
                self.vstat[aj] = VStat::Basic;
            }
        }
        self.refactorize()
    }
}
