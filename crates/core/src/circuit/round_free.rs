//! Rounding for circuit coflows without given paths (§2.2, Algorithm 1):
//! per-flow scaling (Eq. 24) of the LP's path weights, Raghavan–Thompson
//! randomized path selection, and the α-point interval schedule on the
//! selected paths. The LP is solved in path form
//! ([`crate::circuit::lp_free`]), so the paths the paper obtains by flow
//! decomposition are its columns.
//!
//! The paper fixes `α = 1/2` and `D = 3` here. After each flow commits to
//! one path, congestion may exceed capacities by the rounding blow-up
//! (`O(log E / log log E)` w.h.p. — Chernoff bound in §2.2); the final
//! schedule regains feasibility exactly the way the paper does, by scaling
//! bandwidth down / time up, realized in
//! [`crate::circuit::round_given::round_given_paths`]'s per-interval
//! stretch. The measured stretch is reported.

use crate::circuit::lp_free::FreeLpSolution;
use crate::circuit::round_given::{round_given_paths, RoundedSchedule, RoundingConfig};
use crate::model::Instance;
use crate::order::{lp_order, Priority};
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
            alpha: 0.5,
            displacement: 3,
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
    /// Flow ordering by LP completion times (Algorithm 1's return value).
    pub order: Priority,
    /// Number of paths carrying each flow's scaled LP mass (§4.3 observes
    /// that decomposition yields 1 on fat-trees).
    pub paths_per_flow: Vec<usize>,
    /// The feasible α-point schedule on the selected paths.
    pub rounded: RoundedSchedule,
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
        let candidates: Vec<(Path, f64)> = routing
            .paths
            .iter()
            .zip(&routing.w)
            .map(|(p, row)| {
                let weight: f64 = row
                    .iter()
                    .take(h + 1)
                    .enumerate()
                    .map(|(l, &v)| v * scale(l))
                    .sum();
                (p.clone(), weight)
            })
            .filter(|&(_, wgt)| wgt > 1e-12)
            .collect();
        paths_per_flow[flat] = candidates.len().max(1);
        let picked = match cfg.selection {
            PathSelection::Sample => sample_path(&candidates, &mut rng),
            PathSelection::Thickest => candidates
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .filter(|&&(_, w)| w > 1e-12)
                .map(|(p, _)| p.clone()),
            PathSelection::LoadAware => {
                let wmax = candidates.iter().map(|&(_, w)| w).fold(0.0_f64, f64::max);
                if wmax <= 1e-12 {
                    None
                } else {
                    candidates
                        .iter()
                        .filter(|&&(_, w)| w >= 0.2 * wmax)
                        .min_by(|a, b| {
                            let cost = |p: &Path| -> (f64, f64) {
                                let mut worst = 0.0_f64;
                                let mut total = 0.0_f64;
                                for &e in p.edges.iter() {
                                    let u = (edge_load[e.index()] + spec.size)
                                        / g.capacity(e).max(1e-12);
                                    worst = worst.max(u);
                                    total += u;
                                }
                                (worst, total)
                            };
                            let (ka, kb) = (cost(&a.0), cost(&b.0));
                            ka.0.total_cmp(&kb.0).then(ka.1.total_cmp(&kb.1))
                        })
                        .map(|(p, _)| p.clone())
                }
            }
        };
        let chosen = picked.unwrap_or_else(|| {
            // Degenerate LP mass (e.g. zero-size flow): fall back to a
            // shortest path.
            // lint: allow(no_panic) — endpoint connectivity was checked when the LP was built
            netpaths::bfs_shortest_path(g, spec.src, spec.dst).expect("flow endpoints disconnected")
        });
        for &e in chosen.edges.iter() {
            edge_load[e.index()] += spec.size;
        }
        paths[flat] = chosen;
    }

    // Schedule on the fixed paths with the α-point machinery; the per-
    // interval stretch absorbs the randomized-rounding congestion blow-up.
    let routed = instance.with_paths(&paths);
    let rounded = round_given_paths(
        &routed,
        &lp.base,
        &RoundingConfig {
            alpha: cfg.alpha,
            displacement: cfg.displacement,
        },
    );
    let order = lp_order(instance, &lp.base);

    FreeRounding {
        paths,
        order,
        paths_per_flow,
        rounded,
    }
}

/// Raghavan–Thompson sampling: pick path `p` with probability proportional
/// to its fractional amount.
fn sample_path<R: RngExt>(candidates: &[(Path, f64)], rng: &mut R) -> Option<Path> {
    let total: f64 = candidates.iter().map(|&(_, w)| w).sum();
    if total <= 1e-12 || candidates.is_empty() {
        return None;
    }
    let mut draw = rng.random::<f64>() * total;
    for (p, w) in candidates {
        draw -= w;
        if draw <= 0.0 {
            return Some(p.clone());
        }
    }
    #[allow(clippy::unwrap_used)]
    // lint: allow(no_panic) — the draw loop ran, so candidates is non-empty
    let last = candidates.last().unwrap();
    Some(last.0.clone())
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::circuit::lp_free::{
        solve_free_paths_lp_colgen_on_grid, solve_free_paths_lp_paths, FreePathsLpConfig, PathPool,
    };
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
        let v = r.rounded.schedule.check(&routed, 1e-6, 1e-6);
        assert!(v.is_empty(), "violations: {v:?}");
        assert_eq!(r.paths.len(), inst.flow_count());
        assert_eq!(r.order.len(), inst.flow_count());
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
        assert!(r.rounded.schedule.check(&routed, 1e-6, 1e-6).is_empty());
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
        use coflow_net::EdgeId;
        let p1 = Path::new(vec![EdgeId(0)]);
        let p2 = Path::new(vec![EdgeId(1)]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut count1 = 0;
        for _ in 0..10_000 {
            let c = vec![(p1.clone(), 0.9), (p2.clone(), 0.1)];
            if sample_path(&c, &mut rng).unwrap() == p1 {
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
        let p = Path::empty();
        assert!(sample_path(&[(p, 0.0)], &mut rng).is_none());
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
        let ratio = r.rounded.metrics.weighted_sum / lb;
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
