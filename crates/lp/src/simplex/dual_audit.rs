//! Test-only audit of the pivot loop's dual update: [`run_phase`] reports
//! the duals it is about to price with, and the audit compares them with
//! a fresh `B⁻ᵀ c_B`.
//!
//! [`run_phase`]: super::run_phase

use super::State;
use crate::{Cmp, LpError, Model, Scratch, SolverOptions};

#[path = "../../tests/common/families.rs"]
mod families;

/// The pivot loop's duals against fresh ones, per solve.
#[derive(Default)]
pub(super) struct DualAudit {
    /// Pivots audited.
    pivots: usize,
    /// Largest `‖y − B⁻ᵀc_B‖∞ / (1 + ‖B⁻ᵀc_B‖∞)` over them.
    worst: f64,
    /// The solve's refactorizations at the last audit.
    refactors_seen: usize,
    /// Pivots audited first after a refactorization.
    after_refactor: usize,
    /// Of those, the ones whose duals were not solved for on the fresh
    /// factors (not bit-identical to `B⁻ᵀc_B`).
    unsolved_after_refactor: usize,
}

impl State {
    /// Records how the duals `y` the pivot loop is about to price with
    /// compare with a fresh `B⁻ᵀc_B`.
    pub(super) fn audit_duals(&mut self, costs: &[f64], y: &[f64]) {
        let mut fresh = vec![0.0; self.m];
        self.duals(costs, &mut fresh);
        if self.stats.refactorizations != self.audit.refactors_seen {
            self.audit.refactors_seen = self.stats.refactorizations;
            self.audit.after_refactor += 1;
            let solved = y
                .iter()
                .zip(&fresh)
                .all(|(a, b)| a.to_bits() == b.to_bits());
            self.audit.unsolved_after_refactor += usize::from(!solved);
        }
        let (err, norm) = (y.iter().zip(&fresh)).fold((0.0f64, 0.0f64), |(e, n), (a, b)| {
            (e.max((a - b).abs()), n.max(b.abs()))
        });
        self.audit.pivots += 1;
        self.audit.worst = self.audit.worst.max(err / (1.0 + norm));
    }
}

/// The updated duals stay within `1e-9·(1 + ‖y‖∞)` of a fresh `B⁻ᵀc_B` at
/// every pivot of the pinned LP families, and every refactorization is
/// followed by a recompute: the duals it prices with next are bit for bit
/// a fresh solve's. `transport(30)` runs past 120 pivots, so it
/// refactorizes inside the pivot loop, not only at the start and the end.
#[test]
fn updated_duals_track_fresh_duals() -> Result<(), LpError> {
    let seeds = if cfg!(miri) { 2 } else { 12 };
    let models = std::iter::once(families::transport(30))
        .chain((0..seeds).map(|seed| families::mixed(seed, 40, 18)));
    for (k, m) in models.enumerate() {
        let mut scratch = Scratch::new();
        let (sol, _) = m.solve_with_basis_in(&SolverOptions::default(), &mut scratch)?;
        let audit = &scratch.state.audit;
        assert!(audit.pivots > sol.iterations, "model {k}");
        assert!(audit.worst <= 1e-9, "model {k}: drift {:e}", audit.worst);
        let in_loop = sol.stats.refactorizations.saturating_sub(2);
        assert!(
            k > 0 || in_loop > 0,
            "transport(30) must refactorize mid-phase"
        );
        assert!(
            audit.after_refactor >= sol.stats.refactorizations,
            "model {k}"
        );
        assert_eq!(audit.unsolved_after_refactor, 0, "model {k}");
    }
    Ok(())
}
