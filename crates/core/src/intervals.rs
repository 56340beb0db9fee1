//! The geometric interval grid of the interval-indexed LPs (§2.1).
//!
//! The time line is divided into `[0, 1], (1, 1+ε], (1+ε, (1+ε)²], ...`
//! with boundaries `τ_0 = 0` and `τ_ℓ = (1+ε)^{ℓ-1}` for `ℓ >= 1`.
//! Interval `ℓ` is `(τ_ℓ, τ_{ℓ+1}]` for `ℓ ∈ {0, 1, ..., L}`.

/// A geometric time grid.
#[derive(Clone, Debug)]
pub struct IntervalGrid {
    /// The `ε` of the geometric growth (interval `ℓ+1` is `(1+ε)` times
    /// longer than interval `ℓ`, for `ℓ >= 1`).
    pub eps: f64,
    /// Boundaries `τ_0 .. τ_{L+1}` (length `L + 2`).
    boundaries: Vec<f64>,
}

impl IntervalGrid {
    /// Builds a grid with growth `1 + eps` covering `[0, horizon]`: the last
    /// boundary `τ_{L+1}` is `>= horizon`.
    ///
    /// # Panics
    /// If `eps <= 0` or `horizon` is not positive/finite.
    pub fn cover(eps: f64, horizon: f64) -> Self {
        assert!(eps > 0.0 && eps.is_finite(), "need eps > 0, got {eps}");
        assert!(
            horizon > 0.0 && horizon.is_finite(),
            "need positive finite horizon"
        );
        let mut boundaries = vec![0.0, 1.0];
        let growth = 1.0 + eps;
        #[expect(
            clippy::unwrap_used,
            reason = "boundaries starts with two elements and only grows"
        )]
        while *boundaries.last().unwrap() < horizon {
            let next = boundaries.last().unwrap() * growth;
            boundaries.push(next);
        }
        Self { eps, boundaries }
    }

    /// Number of intervals `L + 1` (indices `0 ..= L`).
    pub fn count(&self) -> usize {
        self.boundaries.len() - 1
    }

    /// `τ_ℓ`, the lower boundary of interval `ℓ` (0 for `ℓ = 0`).
    #[inline]
    pub fn lower(&self, l: usize) -> f64 {
        self.boundaries[l]
    }

    /// `τ_{ℓ+1}`, the upper boundary of interval `ℓ`.
    #[inline]
    pub fn upper(&self, l: usize) -> f64 {
        self.boundaries[l + 1]
    }

    /// Interval length `τ_{ℓ+1} − τ_ℓ`.
    #[inline]
    pub fn length(&self, l: usize) -> f64 {
        self.upper(l) - self.lower(l)
    }

    /// First interval in which a flow released at `r` may make progress:
    /// the smallest `ℓ` with `τ_{ℓ+1} >= r` (the paper moves releases to the
    /// end of the interval in which they occur — Lemma 4's `(1+ε)` loss).
    pub fn first_usable(&self, release: f64) -> usize {
        for l in 0..self.count() {
            if self.upper(l) >= release {
                return l;
            }
        }
        self.count() - 1
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;

    #[test]
    fn cover_reaches_horizon() {
        let g = IntervalGrid::cover(1.0, 100.0);
        assert!(*g.boundaries.last().unwrap() >= 100.0);
        assert_eq!(g.lower(0), 0.0);
        assert_eq!(g.upper(0), 1.0);
        // eps = 1 doubles: 0, 1, 2, 4, 8, ...
        assert_eq!(g.upper(1), 2.0);
        assert_eq!(g.upper(2), 4.0);
    }

    #[test]
    fn paper_epsilon_geometry() {
        // The paper's optimized ε ≈ 0.5436 (§2.1).
        let g = IntervalGrid::cover(0.5436, 50.0);
        for l in 1..g.count() - 1 {
            let ratio = g.length(l + 1) / g.length(l);
            assert!((ratio - 1.5436).abs() < 1e-9);
        }
    }

    #[test]
    fn first_usable_monotone() {
        let g = IntervalGrid::cover(1.0, 64.0);
        assert_eq!(g.first_usable(0.0), 0);
        assert_eq!(g.first_usable(1.0), 0);
        assert_eq!(g.first_usable(1.1), 1);
        assert_eq!(g.first_usable(3.0), 2); // τ_3 = 4 >= 3
        let mut prev = 0;
        for r in [0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 9.0, 33.0] {
            let l = g.first_usable(r);
            assert!(l >= prev);
            assert!(g.upper(l) >= r);
            prev = l;
        }
    }

    #[test]
    #[should_panic(expected = "eps > 0")]
    fn zero_eps_rejected() {
        IntervalGrid::cover(0.0, 10.0);
    }

    #[test]
    fn lengths_sum_to_last_boundary() {
        let g = IntervalGrid::cover(0.7, 40.0);
        let total: f64 = (0..g.count()).map(|l| g.length(l)).sum();
        assert!((total - g.upper(g.count() - 1)).abs() < 1e-9);
    }
}
