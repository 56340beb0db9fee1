//! Rounding for circuit coflows without given paths (§2.2, Algorithm 1):
//! per-flow scaling (Eq. 24) of the LP's path weights and
//! Raghavan–Thompson randomized path selection. The LP is solved in path
//! form ([`crate::circuit::lp_free`]), so the paths the paper obtains by
//! flow decomposition are its columns.
//!
//! The paper fixes `α = 1/2` and `D = 3` here. After each flow commits to
//! one path, congestion may exceed capacities by the rounding blow-up
//! (`O(log E / log log E)` w.h.p. — Chernoff bound in §2.2); the α-point
//! schedule regains feasibility exactly the way the paper does, by scaling
//! bandwidth down / time up. Callers that want that schedule run
//! [`round_given_paths`](crate::circuit::round_given::round_given_paths)
//! on `instance.with_paths(&rounding.paths)`, whose per-interval stretch
//! is the measured blow-up; callers that want Algorithm 1's order run
//! [`lp_order`] on the LP.

use crate::circuit::lp_free::FreeLpSolution;
use crate::model::Instance;
use crate::order::lp_order;
use coflow_net::{paths as netpaths, Path};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// How the single path is chosen from a flow's fractional path set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PathSelection {
    /// Raghavan–Thompson: sample proportionally to fractional amounts
    /// (the analyzed algorithm; default).
    Sample,
    /// Deterministic: take the heaviest ("thickest") fractional path —
    /// the limit of the §4.2 observation that a flow's LP mass usually sits
    /// on one dominant path.
    Thickest,
    /// §4.2-style practical tweak: process flows in LP completion order
    /// and, among paths carrying at least 20% of the heaviest path's mass,
    /// pick the one minimizing incremental congestion. Marries the LP's
    /// routing guidance with explicit load balancing; used by the
    /// experiment harness.
    LoadAware,
}

/// Configuration for the §2.2 rounding.
#[derive(Clone, Debug)]
pub struct FreeRoundingConfig {
    /// α-point parameter (paper: 1/2 — the "half interval").
    pub alpha: f64,
    /// Displacement D (paper: 3).
    pub displacement: usize,
    /// RNG seed for the randomized path selection.
    pub seed: u64,
    /// Path selection strategy.
    pub selection: PathSelection,
}

impl Default for FreeRoundingConfig {
    fn default() -> Self {
        Self {
            alpha: crate::PAPER_ALPHA,
            displacement: crate::PAPER_DISPLACEMENT,
            seed: 0,
            selection: PathSelection::Sample,
        }
    }
}

/// Result of Algorithm 1's rounding.
#[derive(Clone, Debug)]
pub struct FreeRounding {
    /// The selected path per flow (flat order).
    pub paths: Vec<Path>,
    /// Number of paths carrying each flow's scaled LP mass (§4.3 observes
    /// that decomposition yields 1 on fat-trees).
    pub paths_per_flow: Vec<usize>,
}

/// Runs the §2.2 rounding against an LP solution.
pub fn round_free_paths(
    instance: &Instance,
    lp: &FreeLpSolution,
    cfg: &FreeRoundingConfig,
) -> FreeRounding {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let g = &instance.graph;
    let nf = instance.flow_count();
    let mut paths: Vec<Path> = vec![Path::empty(); nf];
    let mut paths_per_flow = vec![0usize; nf];

    // LoadAware processes flows in LP completion order so earlier
    // (higher-priority) flows claim the least-loaded routes first; the
    // other strategies are order-independent.
    let process_order: Vec<usize> = match cfg.selection {
        PathSelection::LoadAware => lp_order(instance, &lp.base).order,
        _ => (0..nf).collect(),
    };
    let mut edge_load = vec![0.0_f64; g.edge_count()];

    for &flat in &process_order {
        let spec = instance.flow(instance.id_of_flat(flat));
        let h = lp.base.alpha_interval(flat, cfg.alpha);
        let k = h + cfg.displacement;
        // Geometric interval weights of Eq. (24): intervals closer to the
        // half interval contribute more.
        let scale = |l: usize| -> f64 {
            let gap = (k - l).saturating_sub(1) as i32;
            0.5f64.powi(gap)
        };
        let routing = &lp.routing[flat];
        // The routes carrying scaled mass, as route indices and weights.
        let (ids, weights): (Vec<usize>, Vec<f64>) = routing
            .w
            .iter()
            .map(|row| -> f64 {
                row.iter()
                    .take(h + 1)
                    .enumerate()
                    .map(|(l, &v)| v * scale(l))
                    .sum()
            })
            .enumerate()
            .filter(|&(_, wgt)| wgt > 1e-12)
            .unzip();
        paths_per_flow[flat] = ids.len().max(1);
        let picked = match cfg.selection {
            PathSelection::Sample => sample_path(&weights, &mut rng),
            PathSelection::Thickest => {
                (0..ids.len()).max_by(|&a, &b| weights[a].total_cmp(&weights[b]))
            }
            PathSelection::LoadAware => {
                let wmax = weights.iter().fold(0.0_f64, |a, &b| a.max(b));
                (0..ids.len())
                    .filter(|&i| weights[i] >= 0.2 * wmax)
                    .min_by(|&a, &b| {
                        let cost = |i: usize| -> (f64, f64) {
                            let mut worst = 0.0_f64;
                            let mut total = 0.0_f64;
                            for &e in routing.paths[ids[i]].edges.iter() {
                                let u =
                                    (edge_load[e.index()] + spec.size) / g.capacity(e).max(1e-12);
                                worst = worst.max(u);
                                total += u;
                            }
                            (worst, total)
                        };
                        let (ka, kb) = (cost(a), cost(b));
                        ka.0.total_cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
                    })
            }
        };
        #[expect(
            clippy::expect_used,
            reason = "endpoint connectivity was checked when the LP was built"
        )]
        let chosen = picked
            .map(|i| routing.paths[ids[i]].clone())
            .unwrap_or_else(|| {
                // Degenerate LP mass (e.g. zero-size flow): fall back to a
                // shortest path.
                netpaths::bfs_shortest_path(g, spec.src, spec.dst)
                    .expect("flow endpoints disconnected")
            });
        for &e in chosen.edges.iter() {
            edge_load[e.index()] += spec.size;
        }
        paths[flat] = chosen;
    }
    FreeRounding {
        paths,
        paths_per_flow,
    }
}

/// Raghavan–Thompson sampling: the index of a path drawn with probability
/// proportional to its weight, or `None` when the weights sum to (nearly)
/// nothing. One draw from `rng` per call that returns an index. The §2.2
/// rounding and the §3.2 packet pipeline both draw through here.
pub(crate) fn sample_path<R: RngExt>(weights: &[f64], rng: &mut R) -> Option<usize> {
    let total: f64 = weights.iter().sum();
    if total <= 1e-12 {
        return None;
    }
    let mut draw = rng.random::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        draw -= w;
        if draw <= 0.0 {
            return Some(i);
        }
    }
    Some(weights.len() - 1)
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use crate::circuit::lp_free::{
        solve_free_paths_lp_colgen_on_grid, solve_free_paths_lp_paths, FreePathsLpConfig, PathPool,
    };
    use crate::circuit::round_given::{round_given_paths, RoundingConfig};
    use crate::intervals::IntervalGrid;
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_net::topo;

    fn contention_instance() -> Instance {
        let t = topo::triangle();
        let (x, y, z) = (t.hosts[0], t.hosts[1], t.hosts[2]);
        Instance::new(
            t.graph,
            vec![
                Coflow::new(
                    1.0,
                    vec![FlowSpec::new(x, y, 1.0, 0.0), FlowSpec::new(x, z, 1.0, 0.0)],
                ),
                Coflow::new(2.0, vec![FlowSpec::new(y, z, 1.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(z, y, 2.0, 0.5)]),
            ],
        )
    }

    /// The paper's LP — column generation over every simple path — rounds
    /// to a checker-clean schedule.
    #[test]
    fn end_to_end_all_paths_lp_feasible() {
        let inst = contention_instance();
        let cfg = FreePathsLpConfig {
            path_slack: inst.graph.node_count(),
            ..Default::default()
        };
        let grid = IntervalGrid::cover(cfg.eps, inst.horizon());
        let chain = &mut coflow_lp::WarmChain::new();
        let (lp, _) =
            solve_free_paths_lp_colgen_on_grid(&inst, &cfg, grid, chain, &mut PathPool::new())
                .unwrap();
        let r = round_free_paths(&inst, &lp, &FreeRoundingConfig::default());
        let routed = inst.with_paths(&r.paths);
        let rounded = round_given_paths(&routed, &lp.base, &RoundingConfig::default());
        let v = rounded.schedule.check(&routed, 1e-6, 1e-6);
        assert!(v.is_empty(), "violations: {v:?}");
        assert_eq!(r.paths.len(), inst.flow_count());
    }

    #[test]
    fn end_to_end_path_formulation_feasible() {
        let inst = contention_instance();
        let cfg = FreePathsLpConfig {
            path_slack: 1,
            ..Default::default()
        };
        let lp = solve_free_paths_lp_paths(&inst, &cfg).unwrap();
        let r = round_free_paths(&inst, &lp, &FreeRoundingConfig::default());
        let routed = inst.with_paths(&r.paths);
        let rounded = round_given_paths(&routed, &lp.base, &RoundingConfig::default());
        assert!(rounded.schedule.check(&routed, 1e-6, 1e-6).is_empty());
        // Every selected path connects its endpoints.
        for (_, flat, spec) in inst.flows() {
            assert!(routed
                .graph
                .is_simple_path(&r.paths[flat], spec.src, spec.dst));
        }
    }

    #[test]
    fn selection_is_deterministic_given_seed() {
        let inst = contention_instance();
        let cfg = FreePathsLpConfig {
            path_slack: 1,
            ..Default::default()
        };
        let lp = solve_free_paths_lp_paths(&inst, &cfg).unwrap();
        let a = round_free_paths(
            &inst,
            &lp,
            &FreeRoundingConfig {
                seed: 7,
                ..Default::default()
            },
        );
        let b = round_free_paths(
            &inst,
            &lp,
            &FreeRoundingConfig {
                seed: 7,
                ..Default::default()
            },
        );
        assert_eq!(a.paths, b.paths);
    }

    #[test]
    fn sample_path_proportional() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut count1 = 0;
        for _ in 0..10_000 {
            if sample_path(&[0.9, 0.1], &mut rng).unwrap() == 0 {
                count1 += 1;
            }
        }
        // 0.9 probability within generous tolerance.
        assert!((8500..9500).contains(&count1), "count {count1}");
    }

    #[test]
    fn sample_path_degenerate_none() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(sample_path(&[], &mut rng).is_none());
        assert!(sample_path(&[0.0], &mut rng).is_none());
    }

    #[test]
    fn ratio_against_lower_bound_reasonable() {
        // Empirical check of the quality claim. Interval-indexed LPs price
        // completions at interval lower boundaries (τ_0 = 0), so the
        // multiplicative guarantee is only meaningful when the instance is
        // scaled so completions exceed the first interval — the paper's
        // implicit normalization. Scale sizes up accordingly.
        let t = topo::triangle();
        let (x, y, z) = (t.hosts[0], t.hosts[1], t.hosts[2]);
        let inst = Instance::new(
            t.graph,
            vec![
                Coflow::new(
                    1.0,
                    vec![FlowSpec::new(x, y, 8.0, 0.0), FlowSpec::new(x, z, 8.0, 0.0)],
                ),
                Coflow::new(2.0, vec![FlowSpec::new(y, z, 8.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(z, y, 16.0, 0.5)]),
            ],
        );
        let cfg = FreePathsLpConfig {
            path_slack: 1,
            ..Default::default()
        };
        let lp = solve_free_paths_lp_paths(&inst, &cfg).unwrap();
        let r = round_free_paths(&inst, &lp, &FreeRoundingConfig::default());
        let lb = crate::bounds::circuit_lower_bound(lp.base.objective, lp.base.grid.eps);
        assert!(lb > 1.0);
        let rounded = round_given_paths(
            &inst.with_paths(&r.paths),
            &lp.base,
            &RoundingConfig::default(),
        );
        let ratio = rounded.metrics.weighted_sum / lb;
        assert!(ratio < 60.0, "ratio {ratio} unexpectedly large");
    }

    #[test]
    fn paths_per_flow_reported() {
        let inst = contention_instance();
        let cfg = FreePathsLpConfig {
            path_slack: 1,
            ..Default::default()
        };
        let lp = solve_free_paths_lp_paths(&inst, &cfg).unwrap();
        let r = round_free_paths(&inst, &lp, &FreeRoundingConfig::default());
        assert_eq!(r.paths_per_flow.len(), inst.flow_count());
        for &c in &r.paths_per_flow {
            assert!(c >= 1);
        }
    }
}
