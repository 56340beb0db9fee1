//! The interval-indexed LP for circuit coflows with **given paths**
//! (§2.1, constraints (4)–(10)).
//!
//! Variables, per flow `f` and usable interval `ℓ`:
//! `x_{fℓ} ∈ [0,1]` — fraction of `f` completed in `(τ_ℓ, τ_{ℓ+1}]`.
//! Per flow: completion `c_f`; per coflow: dummy completion `c_{i0}`
//! (the reformulation's depth-1 in-tree: `c_f <= c_{i0}`, weight on the
//! dummy only).
//!
//! Constraints:
//! * (4) `Σ_ℓ x_{fℓ} = 1`
//! * (5) `Σ_ℓ τ_ℓ x_{fℓ} <= c_f`
//! * (6) `c_f <= c_{i0}`
//! * (7)+(8) capacity per edge and interval:
//!   `Σ_{f ∈ P(e)} σ_f x_{fℓ} / Δ_ℓ <= c(e)` where `Δ_ℓ = τ_{ℓ+1} − τ_ℓ`.
//!   *Deviation:* the paper divides by `τ_ℓ` (Eq. 7), which is 0 for
//!   `ℓ = 0` and looser than the interval length for `ε < 1`; dividing by
//!   the interval length keeps Lemma 4 valid (any schedule still maps into
//!   the LP: the volume a flow can move within an interval is at most
//!   `rate × Δ_ℓ`) and tightens the relaxation.
//! * (9) release: no `x_{fℓ}` variable exists for intervals ending before
//!   `r_f`; additionally `c_f >= r_f` (valid: completions follow releases).
//! * (10) nonnegativity via variable bounds.
//!
//! This is the path LP of `circuit::path_lp` with one route per
//! flow — a prescribed path is the one-candidate case of §2.2's candidate
//! sets — so the model is built and read back by that module's `PathLp`,
//! the builder [`crate::circuit::lp_free`] uses for free paths.

use crate::circuit::path_lp::{CapRows, FlowRoutes, PathLp};
use crate::intervals::IntervalGrid;
use crate::model::Instance;
use coflow_lp::{LpError, SolveStats, SolverOptions, WarmChain};

/// Configuration for the §2.1 LP.
#[derive(Clone, Debug)]
pub struct GivenPathsLpConfig {
    /// Geometric growth `ε` of the interval grid (paper: 0.5436).
    pub eps: f64,
    /// Simplex options.
    pub solver: SolverOptions,
}

impl Default for GivenPathsLpConfig {
    fn default() -> Self {
        Self {
            eps: crate::PAPER_EPS,
            solver: SolverOptions::default(),
        }
    }
}

/// Solution of the §2.1 LP (also reused by the path-based §2.2 LP).
#[derive(Clone, Debug)]
pub struct CircuitLpSolution {
    /// The interval grid used.
    pub grid: IntervalGrid,
    /// `x[flat][ℓ]` — completion fractions (0 for unusable intervals).
    pub x: Vec<Vec<f64>>,
    /// LP completion time `c_f` per flow (flat order).
    pub flow_completion: Vec<f64>,
    /// LP coflow completion `c_{i0}`.
    pub coflow_completion: Vec<f64>,
    /// LP objective `Σ ω_i c_{i0}`.
    pub objective: f64,
    /// Simplex pivots.
    pub iterations: usize,
    /// Detailed solver statistics (pivots by phase, refactorizations,
    /// warm-start outcome, ...).
    pub stats: SolveStats,
}

impl CircuitLpSolution {
    /// The α-interval `h^α_f` of a flow: the earliest interval by whose end
    /// a cumulative α-fraction is completed (§2.1, Rounding).
    pub fn alpha_interval(&self, flat: usize, alpha: f64) -> usize {
        let xs = &self.x[flat];
        let mut acc = 0.0;
        for (l, &v) in xs.iter().enumerate() {
            acc += v;
            if acc >= alpha - 1e-9 {
                return l;
            }
        }
        xs.len().saturating_sub(1)
    }
}

/// Builds and solves the §2.1 LP for an instance whose flows all carry
/// prescribed paths, on the canonical grid covering the instance horizon.
///
/// # Errors
/// [`LpError`] from the solver (the LP is feasible by construction for any
/// valid instance, so errors indicate mis-built instances or solver limits);
/// [`LpError::Numerical`] if some flow lacks a path.
pub fn solve_given_paths_lp(
    instance: &Instance,
    cfg: &GivenPathsLpConfig,
) -> Result<CircuitLpSolution, LpError> {
    let grid = IntervalGrid::cover(cfg.eps, instance.horizon());
    solve_given_paths_lp_on_grid(instance, cfg, grid, &mut WarmChain::new())
}

/// [`solve_given_paths_lp`] on an explicit interval grid, warm-started
/// through `chain`.
///
/// All variables and rows carry names that are stable when the grid *grows*
/// (boundaries are a prefix of the grown grid's boundaries), so threading
/// one [`WarmChain`] through a sequence of growing grids reuses each
/// optimal basis instead of cold-starting — the LP-sequence pattern of the
/// paper's algorithms.
fn solve_given_paths_lp_on_grid(
    instance: &Instance,
    cfg: &GivenPathsLpConfig,
    grid: IntervalGrid,
    chain: &mut WarmChain,
) -> Result<CircuitLpSolution, LpError> {
    let routes = instance
        .flows()
        .map(|(_, flat, spec)| match &spec.path {
            Some(p) => Ok(FlowRoutes::circuit(&grid, spec, [(0, p.clone())])),
            None => Err(LpError::Numerical(format!(
                "flow {flat} has no prescribed path"
            ))),
        })
        .collect::<Result<_, _>>()?;
    let (m, lp) = PathLp::build(instance, grid, routes, CapRows::Binding)?;
    let sol = chain.solve(&m, &cfg.solver)?;
    Ok(lp.extract(&sol, sol.iterations).base)
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_net::{paths, topo, NodeId};

    /// Single unit flow on a unit edge: LP must say completion 1
    /// (it fits entirely in interval 0 = (0,1]).
    #[test]
    fn single_flow_completes_in_first_interval() {
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::with_path(NodeId(0), NodeId(1), 1.0, 0.0, p)],
            )],
        );
        let lp = solve_given_paths_lp(&inst, &GivenPathsLpConfig::default()).unwrap();
        // x mass should sit entirely in interval 0; c >= 0 only is implied,
        // so the LP reports c = 0 (interval lower boundary): the classic
        // interval-LP slack. Objective is a *lower bound*.
        let total: f64 = lp.x[0].iter().sum();
        assert!((total - 1.0).abs() < 1e-6);
        assert!(lp.objective <= 1.0 + 1e-6);
        assert_eq!(lp.alpha_interval(0, 0.5), 0);
    }

    /// Two unit flows sharing one unit edge: they cannot both finish in
    /// interval 0 — capacity allows 1 unit of volume in (0,1].
    #[test]
    fn capacity_forces_spill_to_later_intervals() {
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let mk = |_| FlowSpec::with_path(NodeId(0), NodeId(1), 1.0, 0.0, p.clone());
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(1.0, vec![mk(0)]), Coflow::new(1.0, vec![mk(1)])],
        );
        let lp = solve_given_paths_lp(&inst, &GivenPathsLpConfig::default()).unwrap();
        // Volume in interval 0 across both flows is at most len_0 * cap = 1.
        let v0 = lp.x[0][0] + lp.x[1][0];
        assert!(v0 <= 1.0 + 1e-6, "interval-0 volume {v0} exceeds capacity");
        // Total objective must exceed the single-flow bound.
        assert!(lp.objective >= 1.0 - 1e-6, "objective {}", lp.objective);
    }

    /// Release times forbid early intervals.
    #[test]
    fn release_times_zero_out_early_intervals() {
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::with_path(NodeId(0), NodeId(1), 1.0, 5.0, p)],
            )],
        );
        let lp = solve_given_paths_lp(&inst, &GivenPathsLpConfig::default()).unwrap();
        let first = lp.grid.first_usable(5.0);
        for l in 0..first {
            assert_eq!(lp.x[0][l], 0.0, "interval {l} before release must be empty");
        }
        assert!(lp.flow_completion[0] >= 5.0 - 1e-6, "c_f >= r_f");
    }

    /// Coflow completion dominates member flows (constraint 6).
    #[test]
    fn coflow_completion_dominates() {
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![
                    FlowSpec::with_path(NodeId(0), NodeId(1), 3.0, 0.0, p.clone()),
                    FlowSpec::with_path(NodeId(0), NodeId(1), 1.0, 0.0, p),
                ],
            )],
        );
        let lp = solve_given_paths_lp(&inst, &GivenPathsLpConfig::default()).unwrap();
        for f in 0..2 {
            assert!(lp.flow_completion[f] <= lp.coflow_completion[0] + 1e-6);
        }
        // 4 units through a unit edge: completion at least 4 in any
        // schedule. The LP prices completions at interval *lower*
        // boundaries, so its bound is weaker; with ε ≈ 0.5436 the geometry
        // gives ≈ 1.527 here.
        assert!(
            lp.coflow_completion[0] >= 1.5,
            "got {}",
            lp.coflow_completion[0]
        );
    }

    /// Weights steer the LP: heavy coflow should finish earlier.
    #[test]
    fn weights_prioritize() {
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let mk = |w: f64| {
            Coflow::new(
                w,
                vec![FlowSpec::with_path(
                    NodeId(0),
                    NodeId(1),
                    2.0,
                    0.0,
                    p.clone(),
                )],
            )
        };
        let inst = Instance::new(t.graph, vec![mk(10.0), mk(0.1)]);
        let lp = solve_given_paths_lp(&inst, &GivenPathsLpConfig::default()).unwrap();
        assert!(
            lp.coflow_completion[0] <= lp.coflow_completion[1] + 1e-6,
            "heavy coflow should not finish later: {} vs {}",
            lp.coflow_completion[0],
            lp.coflow_completion[1]
        );
    }

    #[test]
    fn alpha_interval_accumulates() {
        let sol = CircuitLpSolution {
            grid: IntervalGrid::cover(1.0, 8.0),
            x: vec![vec![0.25, 0.25, 0.5, 0.0]],
            flow_completion: vec![0.0],
            coflow_completion: vec![0.0],
            objective: 0.0,
            iterations: 0,
            stats: SolveStats::default(),
        };
        assert_eq!(sol.alpha_interval(0, 0.25), 0);
        assert_eq!(sol.alpha_interval(0, 0.5), 1);
        assert_eq!(sol.alpha_interval(0, 0.75), 2);
        assert_eq!(sol.alpha_interval(0, 1.0), 2);
    }

    /// A growing interval grid warm-started through one [`WarmChain`] must
    /// reproduce the cold objectives while spending strictly fewer total
    /// iterations than cold-starting every solve.
    #[test]
    fn warm_chain_on_growing_grids_matches_cold() {
        let t = topo::line(3, 1.0);
        let p01 = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(2)).unwrap();
        let p12 = paths::bfs_shortest_path(&t.graph, NodeId(1), NodeId(2)).unwrap();
        let inst = Instance::new(
            t.graph,
            vec![
                Coflow::new(
                    2.0,
                    vec![FlowSpec::with_path(NodeId(0), NodeId(2), 3.0, 0.0, p01)],
                ),
                Coflow::new(
                    1.0,
                    vec![FlowSpec::with_path(NodeId(1), NodeId(2), 2.0, 1.0, p12)],
                ),
            ],
        );
        let cfg = GivenPathsLpConfig::default();
        let h = inst.horizon();
        let scales = [1.0, 2.0, 4.0];

        let mut chain = WarmChain::new();
        let mut warm_sols = Vec::new();
        for s in scales {
            let grid = IntervalGrid::cover(cfg.eps, h * s);
            warm_sols.push(solve_given_paths_lp_on_grid(&inst, &cfg, grid, &mut chain).unwrap());
        }
        // Every solve after the first attempted (and took) the warm start.
        assert_eq!(chain.stats().warm_attempted, scales.len() - 1);
        assert_eq!(chain.stats().warm_used, scales.len() - 1);

        let mut cold_total = 0usize;
        for (s, warm) in scales.iter().zip(&warm_sols) {
            let grid = IntervalGrid::cover(cfg.eps, h * s);
            let cold =
                solve_given_paths_lp_on_grid(&inst, &cfg, grid, &mut WarmChain::new()).unwrap();
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "scale {s}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            cold_total += cold.iterations;
        }
        assert!(
            chain.stats().total_iterations < cold_total,
            "warm chain {} iters vs cold {}",
            chain.stats().total_iterations,
            cold_total
        );
    }

    #[test]
    fn missing_paths_is_an_error() {
        let t = topo::line(2, 1.0);
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0)],
            )],
        );
        let err = solve_given_paths_lp(&inst, &GivenPathsLpConfig::default()).unwrap_err();
        assert!(
            matches!(&err, LpError::Numerical(msg) if msg.contains("flow 0 has no prescribed path")),
            "{err:?}"
        );
    }
}
