//! Test-only audit of the pivot loop's dual and reduced-cost updates:
//! [`run_phase`] reports the duals and the cached reduced costs it is
//! about to price with, and the audit compares them with a fresh
//! `B⁻ᵀ c_B` and fresh dot products `c_j − yᵀa_j`.
//!
//! [`run_phase`]: super::run_phase

use super::State;
use crate::scratch::RedCosts;
use crate::{Cmp, LpError, Model, Scratch, SolverOptions};
use coflow_obs::Counter;

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
    /// Current cached reduced costs audited, over all pivots.
    cached: usize,
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

    /// Asserts that every cached reduced cost pricing may read next (current
    /// and of a column with a pricing sign) is within
    /// `1e-9·(1 + ‖y‖∞·‖a_j‖₁)` of a fresh dot product under the duals `y`,
    /// in every solve of every unit test.
    pub(super) fn audit_reduced_costs(
        &mut self,
        costs: &[f64],
        y: &[f64],
        dj: &RedCosts,
        sgn: &[i8],
    ) {
        if !self.rows.filled {
            return;
        }
        let ynorm = y.iter().fold(0.0f64, |n, v| n.max(v.abs()));
        for (j, &sg) in sgn.iter().enumerate() {
            if sg == 0 || dj.stamp[j] != dj.epoch {
                continue;
            }
            let mut a1 = 0.0;
            self.for_col(j, |_, v| a1 += v.abs());
            let fresh = self.reduced_cost(j, costs, y);
            let err = (dj.d[j] - fresh).abs();
            assert!(
                err <= 1e-9 * (1.0 + ynorm * a1),
                "pivot {}: cached d_{j} = {:e}, fresh {fresh:e}",
                self.audit.pivots,
                dj.d[j]
            );
            self.audit.cached += 1;
        }
    }
}

/// The updated duals stay within `1e-9·(1 + ‖y‖∞)` of a fresh `B⁻ᵀc_B` at
/// every pivot of the pinned LP families and a packet-shaped LP, and every
/// refactorization is followed by a recompute: the duals it prices with
/// next are bit for bit a fresh solve's. `transport(30)` runs past 120
/// pivots, so it refactorizes inside the pivot loop, not only at the start
/// and the end. Every cached reduced cost pricing may read stays within
/// `1e-9·(1 + ‖y‖∞·‖a_j‖₁)` of a fresh dot product (the audit asserts it
/// at each pivot); on `transport(30)` and the packet LP the row-wise
/// update engages, so cached values are read there.
#[test]
fn updated_duals_track_fresh_duals() -> Result<(), LpError> {
    let seeds = if cfg!(miri) { 2 } else { 12 };
    let models = [families::transport(30), families::packet(3, 24, 5)]
        .into_iter()
        .chain((0..seeds).map(|seed| families::mixed(seed, 40, 18)));
    for (k, m) in models.enumerate() {
        let mut scratch = Scratch::new();
        let (sol, _) = m.solve_in(&SolverOptions::default(), None, &mut scratch)?;
        let rowwise = scratch.obs().counter(Counter::RowWiseUpdates);
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
        assert!(
            k > 1 || (rowwise > 0 && audit.cached > 0),
            "model {k}: the row-wise update must engage"
        );
    }
    Ok(())
}

/// A second identical solve on the same [`Scratch`] takes the same pivots,
/// engages the row-wise update on the same basis changes, and runs inside
/// the capacity the first solve left: the row-wise copy, the cached reduced
/// costs, their stamps and the pivotal row are acquired like every other
/// workspace buffer.
#[test]
fn second_rowwise_solve_allocates_nothing() -> Result<(), LpError> {
    let m = families::transport(30);
    let opts = SolverOptions::default();
    let mut scratch = Scratch::new();
    let (first, _) = m.solve_in(&opts, None, &mut scratch)?;
    let engaged = scratch.obs().counter(Counter::RowWiseUpdates);
    assert!(engaged > 0, "the row-wise update must engage");
    assert!(first.stats.allocs > 0);
    let (second, _) = m.solve_in(&opts, None, &mut scratch)?;
    assert_eq!(scratch.obs().counter(Counter::RowWiseUpdates), 2 * engaged);
    assert_eq!(second.iterations, first.iterations);
    assert_eq!(second.objective.to_bits(), first.objective.to_bits());
    assert_eq!(
        second.stats.allocs, 0,
        "reuses {}",
        second.stats.scratch_reuse
    );
    Ok(())
}
