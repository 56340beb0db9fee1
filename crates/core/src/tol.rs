//! Unified numerical tolerances and float-comparison helpers.
//!
//! Every epsilon used by the algorithm layer lives here under a *name* that
//! says what kind of quantity it guards. Raw `==`/`!=` between floats and
//! ad-hoc per-file `1e-…` literals are banned in library code by the
//! in-tree `coflow-lint` pass (rules L2 and the tolerance-migration policy);
//! comparisons go through these constants and helpers instead, so the whole
//! workspace agrees on what "equal", "at most", and "zero" mean.
//!
//! The LP solver keeps its own [`coflow_lp::LP_TOL`](../../coflow_lp/constant.LP_TOL.html)
//! (it sits *below* this crate in the dependency graph); everything above the
//! solver — rounding, simulation, the online engine, benches — uses this
//! module. Callers that drive the solver pass these constants *down* (e.g.
//! [`OBJ_REL_EPS`] as the column-generation convergence tolerance).
//!
//! | constant | guards |
//! |----------|--------|
//! | [`FEAS_EPS`] | schedule-feasibility slack (capacity, demand, completion checks) |
//! | [`DUAL_EPS`] | dual-price significance (pricing oracles, reduced costs) |
//! | [`OBJ_REL_EPS`] | relative agreement between two objective values |
//! | [`TIME_EPS`] | event-time slack (releases, segment ordering, α-point accumulation) |
//! | [`ZERO_EPS`] | "effectively zero" sizes, rates, and weights |

/// Feasibility slack for schedule checking: capacity, per-flow demand and
/// completion-time constraints may be violated by at most this much before
/// the checker reports a violation. Also the absolute slack used when
/// comparing objective values whose scale is O(1)–O(100).
pub const FEAS_EPS: f64 = 1e-6;

/// Threshold below which a dual price (or reduced cost) is treated as zero
/// by pricing consumers — the column-generation oracles and the engine's
/// ordering heuristics. Matches the solver's internal pricing floor.
pub const DUAL_EPS: f64 = 1e-9;

/// Relative tolerance for declaring two objective values equal: used by the
/// colgen-vs-eager cross checks and (passed down) as the restricted-master
/// convergence tolerance.
pub const OBJ_REL_EPS: f64 = 1e-6;

/// Slack on event times: release-date respect, segment start/end ordering,
/// and α-point accumulation all tolerate this much backwards drift from
/// floating-point summation.
pub const TIME_EPS: f64 = 1e-9;

/// Below this magnitude a size, rate, weight, or capacity divisor is
/// treated as exactly zero (avoids 0/0 and denormal-driven blowups).
pub const ZERO_EPS: f64 = 1e-12;

/// `a` and `b` agree within absolute slack `eps`.
///
/// NaN never compares equal to anything (mirrors IEEE `==`).
#[inline]
pub fn approx_eq(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps
}

/// `a` and `b` agree within *relative* slack `eps`, on the scale
/// `1 + max(|a|, |b|)` — absolute near zero, relative for large values.
#[inline]
pub fn rel_eq(a: f64, b: f64, eps: f64) -> bool {
    (a - b).abs() <= eps * (1.0 + a.abs().max(b.abs()))
}

/// `a <= b` up to slack `eps` (i.e. `a - b <= eps`).
#[inline]
pub fn approx_le(a: f64, b: f64, eps: f64) -> bool {
    a - b <= eps
}

/// `a >= b` up to slack `eps` (i.e. `b - a <= eps`).
#[inline]
pub fn approx_ge(a: f64, b: f64, eps: f64) -> bool {
    b - a <= eps
}

/// `|a|` is below the zero threshold `eps`.
#[inline]
pub fn is_zero(a: f64, eps: f64) -> bool {
    a.abs() <= eps
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;

    #[test]
    fn absolute_comparisons() {
        assert!(approx_eq(1.0, 1.0 + 0.5 * FEAS_EPS, FEAS_EPS));
        assert!(!approx_eq(1.0, 1.0 + 2.0 * FEAS_EPS, FEAS_EPS));
        assert!(approx_le(1.0 + 0.5 * FEAS_EPS, 1.0, FEAS_EPS));
        assert!(!approx_le(1.0 + 2.0 * FEAS_EPS, 1.0, FEAS_EPS));
        assert!(approx_ge(1.0 - 0.5 * TIME_EPS, 1.0, TIME_EPS));
        assert!(is_zero(0.5 * ZERO_EPS, ZERO_EPS));
        assert!(!is_zero(2.0 * ZERO_EPS, ZERO_EPS));
    }

    #[test]
    fn relative_scales_with_magnitude() {
        // 1e9 * (1 + 2e-7) differs absolutely by ~200 but relatively by 2e-7.
        let big = 1.0e9;
        assert!(rel_eq(big, big * (1.0 + 0.2 * OBJ_REL_EPS), OBJ_REL_EPS));
        assert!(!rel_eq(big, big * (1.0 + 3.0 * OBJ_REL_EPS), OBJ_REL_EPS));
        // Near zero it degrades to absolute tolerance.
        assert!(rel_eq(0.0, 0.5 * OBJ_REL_EPS, OBJ_REL_EPS));
    }

    #[test]
    fn nan_never_equal() {
        assert!(!approx_eq(f64::NAN, f64::NAN, FEAS_EPS));
        assert!(!rel_eq(f64::NAN, 0.0, FEAS_EPS));
    }

    #[test]
    #[allow(clippy::assertions_on_constants)] // the ordering IS the invariant under test
    fn constants_are_ordered_sanely() {
        assert!(ZERO_EPS < TIME_EPS);
        assert!(TIME_EPS < FEAS_EPS);
        assert!(DUAL_EPS < FEAS_EPS);
    }
}
