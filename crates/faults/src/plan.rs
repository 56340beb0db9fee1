//! Seeded fault plans: the [`coflow_lp::FaultHook`] implementation.
//!
//! A [`FaultPlan`] draws one random decision per hook consultation from a
//! seeded [`StdRng`]. Because the solver consults hooks at fixed points of
//! the solve (see `coflow_lp::fault`), the decision sequence is a pure
//! function of the seed and the solve sequence — independent of wall-clock
//! time and allocation addresses. Injection totals are
//! published through a shared [`FaultCounters`] handle so the harness can
//! observe what fired after the plan has been boxed into the solver.

use coflow_lp::{ColgenFault, FaultHook};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cell::Cell;
use std::rc::Rc;

/// Knobs of a [`FaultPlan`]. Probabilities are per consultation; the
/// default mix fires often enough to exercise every recovery rung on a
/// multi-epoch run while leaving most solves clean.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlanConfig {
    /// RNG seed; the whole fault sequence is a function of it.
    pub seed: u64,
    /// Probability that a basis (re)factorization reports singular.
    pub p_singular: f64,
    /// Probability that a column-generation round aborts its pricing call
    /// (simulated oracle outage).
    pub p_abort_pricing: f64,
    /// Probability that a round's duals are perturbed before pricing.
    pub p_perturb_duals: f64,
    /// Relative magnitude of the dual perturbation when it fires.
    pub perturb_eps: f64,
    /// Probability that a firing singular fault extends into a *burst* of
    /// consecutive singular factorizations. A lone failure is absorbed by
    /// the solver's first recovery rung; only a burst long enough to
    /// defeat refactorize → repair → cold-restart (and the engine's
    /// same-epoch retry) ever reaches the degradation ladder.
    pub p_burst: f64,
    /// Burst length is drawn uniformly from `2..=max_burst`.
    pub max_burst: usize,
    /// Hard cap on total injected faults (`None` = unlimited). The RNG is
    /// still advanced once per consultation after the cap, so reaching it
    /// does not shift later draws.
    pub max_faults: Option<u64>,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            p_singular: 0.08,
            p_abort_pricing: 0.08,
            p_perturb_duals: 0.20,
            perturb_eps: 1e-4,
            p_burst: 0.12,
            max_burst: 10,
            max_faults: None,
        }
    }
}

/// Shared injection totals, updated by the plan as faults fire (on the
/// solving thread, the only one the plan ever runs on).
#[derive(Debug, Default)]
pub struct FaultCounters {
    /// Factorizations forced singular.
    pub singular: Cell<u64>,
    /// Pricing rounds aborted.
    pub aborts: Cell<u64>,
    /// Dual vectors perturbed.
    pub perturbs: Cell<u64>,
}

impl FaultCounters {
    /// Total faults injected so far.
    pub fn total(&self) -> u64 {
        self.singular.get() + self.aborts.get() + self.perturbs.get()
    }
}

/// Counts one injected fault.
fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

/// A deterministic, seeded schedule of solver faults.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultPlanConfig,
    rng: StdRng,
    counters: Rc<FaultCounters>,
    /// Remaining forced-singular factorizations of an active burst.
    burst: usize,
}

impl FaultPlan {
    /// A plan drawing from `cfg.seed`.
    pub fn new(cfg: FaultPlanConfig) -> Self {
        Self {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            counters: Rc::new(FaultCounters::default()),
            burst: 0,
        }
    }

    /// A handle to the injection totals, valid after the plan is boxed
    /// into the solver.
    pub fn counters(&self) -> Rc<FaultCounters> {
        Rc::clone(&self.counters)
    }

    fn exhausted(&self) -> bool {
        self.cfg
            .max_faults
            .is_some_and(|cap| self.counters.total() >= cap)
    }
}

impl FaultHook for FaultPlan {
    fn on_factorization(&mut self) -> bool {
        if self.burst > 0 {
            self.burst -= 1;
            if self.exhausted() {
                return false;
            }
            bump(&self.counters.singular);
            return true;
        }
        // Draw first so the cap never shifts subsequent decisions.
        let fire = self.rng.random_bool(self.cfg.p_singular);
        if fire && !self.exhausted() {
            if self.cfg.max_burst >= 2 && self.rng.random_bool(self.cfg.p_burst) {
                self.burst = self.rng.random_range(2..=self.cfg.max_burst) - 1;
            }
            bump(&self.counters.singular);
            return true;
        }
        false
    }

    fn on_colgen_round(&mut self, _round: usize) -> ColgenFault {
        let u: f64 = self.rng.random();
        if self.exhausted() {
            return ColgenFault::None;
        }
        if u < self.cfg.p_abort_pricing {
            bump(&self.counters.aborts);
            ColgenFault::AbortPricing
        } else if u < self.cfg.p_abort_pricing + self.cfg.p_perturb_duals {
            bump(&self.counters.perturbs);
            ColgenFault::PerturbDuals(self.cfg.perturb_eps)
        } else {
            ColgenFault::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64, n: usize) -> (Vec<bool>, Vec<ColgenFault>) {
        let mut p = FaultPlan::new(FaultPlanConfig {
            seed,
            ..Default::default()
        });
        let facts = (0..n).map(|_| p.on_factorization()).collect();
        let rounds = (0..n).map(|r| p.on_colgen_round(r)).collect();
        (facts, rounds)
    }

    #[test]
    fn same_seed_same_sequence() {
        assert_eq!(sequence(7, 64), sequence(7, 64));
    }

    #[test]
    fn seeds_decorrelate() {
        // 64 draws at p >= 0.08 per surface: identical sequences across
        // two seeds would be astronomically unlikely.
        assert_ne!(sequence(1, 64), sequence(2, 64));
    }

    #[test]
    fn counters_track_fired_faults() {
        let mut p = FaultPlan::new(FaultPlanConfig {
            seed: 3,
            p_singular: 1.0,
            p_burst: 0.0,
            ..Default::default()
        });
        let c = p.counters();
        for _ in 0..5 {
            assert!(p.on_factorization());
        }
        assert_eq!(c.singular.get(), 5);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn fault_cap_stops_injection_without_shifting_draws() {
        let cfg = FaultPlanConfig {
            seed: 9,
            p_singular: 1.0,
            p_abort_pricing: 1.0,
            p_perturb_duals: 0.0,
            p_burst: 0.0,
            max_faults: Some(2),
            ..Default::default()
        };
        let mut p = FaultPlan::new(cfg);
        assert!(p.on_factorization());
        assert!(p.on_factorization());
        // Cap reached: nothing more fires, on either surface.
        assert!(!p.on_factorization());
        assert_eq!(p.on_colgen_round(0), ColgenFault::None);
        assert_eq!(p.counters().total(), 2);

        // The capped plan's RNG consumed one draw per call all the same:
        // an uncapped twin agrees with it on every pre-cap decision.
        let mut q = FaultPlan::new(FaultPlanConfig {
            max_faults: None,
            ..cfg
        });
        assert!(q.on_factorization());
        assert!(q.on_factorization());
        assert!(q.on_factorization());
        assert_eq!(q.on_colgen_round(0), ColgenFault::AbortPricing);
    }

    #[test]
    fn bursts_force_consecutive_failures() {
        let mut p = FaultPlan::new(FaultPlanConfig {
            seed: 5,
            p_singular: 1.0,
            p_burst: 1.0,
            max_burst: 4,
            ..Default::default()
        });
        // The first fire always starts a burst (p_burst = 1) of length
        // 2..=4, so at least the next call must also fail — the pattern
        // that defeats a whole recovery ladder pass.
        assert!(p.on_factorization());
        assert!(p.on_factorization());
        assert!(p.counters().singular.get() >= 2);
    }

    #[test]
    fn zero_probabilities_are_inert() {
        let mut p = FaultPlan::new(FaultPlanConfig {
            seed: 11,
            p_singular: 0.0,
            p_abort_pricing: 0.0,
            p_perturb_duals: 0.0,
            ..Default::default()
        });
        for r in 0..32 {
            assert!(!p.on_factorization());
            assert_eq!(p.on_colgen_round(r), ColgenFault::None);
        }
        assert_eq!(p.counters().total(), 0);
    }
}
