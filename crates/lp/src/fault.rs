//! Fault-injection hook points for the solver.
//!
//! A [`FaultHook`] is an *optional* callback the solver consults at a small
//! set of decision points, so an injected fault sequence is a pure function
//! of the hook's own state and the solve sequence. That is what lets the
//! chaos suite assert byte-identical traces across repeat runs *with faults
//! firing*.
//!
//! Hooks live on the [`Scratch`](crate::Scratch) workspace (installed via
//! [`WarmChain::set_fault_hook`](crate::WarmChain::set_fault_hook)), so one
//! hook follows a whole warm-started epoch sequence. Production code never
//! installs one; the implementation lives in the `coflow-faults` crate.

/// What a hook wants done to the current column-generation round.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum ColgenFault {
    /// No fault this round.
    #[default]
    None,
    /// Simulate a pricing-oracle outage: `solve_colgen` stops before this
    /// round's pricing call and returns the current restricted-master
    /// optimum with `converged = false` (a feasible, possibly suboptimal
    /// answer — the same degraded contract as a round budget).
    AbortPricing,
    /// Perturb the duals handed to the pricing oracle by the given relative
    /// magnitude (deterministic per-row jitter). The master solution is
    /// untouched; the oracle may generate suboptimal columns or terminate
    /// early, both of which the rounding layer tolerates.
    PerturbDuals(f64),
}

/// Solver-side fault-injection callbacks. All methods default to "no
/// fault", so implementors override only the surfaces they target.
///
/// Determinism contract: every method is invoked on the solving thread, in
/// a sequence fixed by the solve; implementations must derive their
/// decisions only from internal (seeded) state and the call sequence,
/// never from wall-clock time or addresses.
pub trait FaultHook {
    /// Consulted once per basis (re)factorization attempt. Returning
    /// `true` makes the factorization report a singular basis, exercising
    /// the recovery ladder (refactorize → basis repair → cold restart).
    fn on_factorization(&mut self) -> bool {
        false
    }

    /// Consulted once per column-generation round, before the master's
    /// duals are handed to the pricing oracle.
    fn on_colgen_round(&mut self, round: usize) -> ColgenFault {
        let _ = round;
        ColgenFault::None
    }
}

impl std::fmt::Debug for dyn FaultHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("FaultHook")
    }
}

/// Applies [`ColgenFault::PerturbDuals`]: scales `duals[i]` by
/// `1 + eps·j(i)` where `j(i)` is a deterministic per-row jitter in
/// `[-1, 1)` derived from splitmix64. Shared here so tests and the faults
/// crate perturb identically.
pub fn perturb_duals_in_place(duals: &mut [f64], eps: f64) {
    for (i, d) in duals.iter_mut().enumerate() {
        let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Map to [-1, 1): top 53 bits as a unit float, shifted.
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        *d *= 1.0 + eps * (2.0 * unit - 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbation_is_deterministic_and_bounded() {
        let mut a = vec![1.0, -2.0, 0.5, 0.0];
        let mut b = a.clone();
        perturb_duals_in_place(&mut a, 1e-3);
        perturb_duals_in_place(&mut b, 1e-3);
        assert_eq!(a, b, "same eps, same input => same output");
        for (orig, new) in [1.0, -2.0, 0.5, 0.0_f64].iter().zip(&a) {
            assert!((new - orig).abs() <= 1e-3 * orig.abs() + f64::EPSILON);
        }
    }

    #[test]
    fn default_hook_is_inert() {
        struct Noop;
        impl FaultHook for Noop {}
        let mut h = Noop;
        assert!(!h.on_factorization());
        assert_eq!(h.on_colgen_round(0), ColgenFault::None);
    }
}
