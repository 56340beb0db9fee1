//! The interval-indexed LP for circuit coflows **without given paths**
//! (§2.2, constraints (15)–(23)), solved in path form.
//!
//! The paper writes (15)–(23) over edge rates `x^e_{fℓ}`. By the flow
//! decomposition theorem an edge flow is a sum of simple `src → dst` paths
//! and cycles, and a cycle delivers nothing, so the same LP over one column
//! `x_{f,p,ℓ}` per simple path `p` has the same optimum. That path LP is
//! `circuit::path_lp`'s `PathLp`, over a hop-bounded path space: a flow's
//! routes have at most `shortest + path_slack` edges. The entry point picks
//! how its columns appear:
//!
//! * [`solve_free_paths_lp_paths`] and [`solve_free_paths_lp_paths_on_grid`]
//!   enumerate every candidate path up front
//!   ([`coflow_net::paths::candidate_paths`], at most `max_paths` per flow);
//! * [`solve_free_paths_lp_colgen_on_grid`] runs delayed column generation:
//!   a shortest-path-seeded restricted master grows by the routes an exact
//!   pricing oracle finds against its duals, with no cap on their number.
//!
//! Column generation with `path_slack` ≥ node count − 1 solves **the
//! paper's LP exactly**. Hop budgets clamp to `node_count − 1`, the most
//! edges a simple path has, so every simple path is admissible, and the
//! oracle always returns a simple path. Where the eager enumeration is not
//! capped, both entry points optimize the same polytope.
//!
//! Both return a [`FreeLpSolution`]: the completion-fraction view shared
//! with §2.1 plus each flow's paths and their per-interval weights, which
//! the rounding step ([`crate::circuit::round_free`]) samples. A flow with a
//! prescribed path is a one-candidate set, which makes the §2.1 LP
//! ([`crate::circuit::lp_given`]) the same builder again.

use crate::circuit::lp_given::CircuitLpSolution;
use crate::circuit::path_lp::{no_path, CapRows, FlowRoutes, PathLp, Route};
use crate::intervals::IntervalGrid;
use crate::model::{FlowSpec, Instance};
use coflow_lp::{
    solve_colgen, ColGenStats, ColumnPool, LpError, Model, Solution, SolverOptions, WarmChain,
};
use coflow_net::{paths as netpaths, pricing, EdgeId, NodeId, Path};
use std::collections::BTreeMap;

/// Cap on restricted-master solve rounds of column generation: a safety
/// net far above observed round counts, which are single-digit.
/// [`coflow_lp::Budget::max_colgen_rounds`] tightens it per solve.
const MAX_COLGEN_ROUNDS: usize = 200;

/// A persistent pool of generated candidate paths, grouped by flat flow
/// index. Threading one pool through a sequence of related solves (growing
/// grids, online epochs) seeds each restricted master with every path an
/// earlier solve paid a pricing round to discover — and keeps the
/// `(flow, path)` → variable-name mapping stable, so warm-started bases
/// keep mapping too.
pub type PathPool = ColumnPool<Path>;

/// Configuration for the §2.2 LP.
#[derive(Clone, Debug)]
pub struct FreePathsLpConfig {
    /// Geometric growth ε (the paper sets ε = 1 here).
    pub eps: f64,
    /// Allowed extra hops over a flow's shortest path (0 = equal-cost
    /// shortest paths only). Any value ≥ node count − 1 admits every
    /// simple path.
    pub path_slack: usize,
    /// Cap on candidate paths per flow of the eager enumeration.
    pub max_paths: usize,
    /// Simplex options.
    pub solver: SolverOptions,
}

impl Default for FreePathsLpConfig {
    fn default() -> Self {
        Self {
            eps: crate::FREE_PATHS_EPS,
            path_slack: 0,
            max_paths: 32,
            solver: SolverOptions::default(),
        }
    }
}

/// Fractional routing of one flow, as returned by the LP.
#[derive(Clone, Debug)]
pub struct FlowRouting {
    /// Candidate paths (deterministic order).
    pub paths: Vec<Path>,
    /// `w[p][ℓ]` fraction of the flow completed on path `p` in interval `ℓ`.
    pub w: Vec<Vec<f64>>,
}

/// Solution of the §2.2 LP.
#[derive(Clone, Debug)]
pub struct FreeLpSolution {
    /// Completion-fraction view (shared shape with the §2.1 solution so the
    /// same α-point machinery applies).
    pub base: CircuitLpSolution,
    /// Per-flow fractional routing (flat order).
    pub routing: Vec<FlowRouting>,
}

/// Solves the §2.2 path LP over eagerly enumerated candidate paths.
///
/// A flow with no path between its endpoints (disconnected instance) is an
/// [`LpError::Numerical`].
pub fn solve_free_paths_lp_paths(
    instance: &Instance,
    cfg: &FreePathsLpConfig,
) -> Result<FreeLpSolution, LpError> {
    let grid = IntervalGrid::cover(cfg.eps, instance.horizon());
    solve_free_paths_lp_paths_on_grid(instance, cfg, grid, &mut WarmChain::new())
}

/// [`solve_free_paths_lp_paths`] on an explicit grid, warm-started through
/// `chain`.
///
/// Variable and row names are stable when the grid grows (a grid covering a
/// larger horizon keeps the smaller grid's boundaries as a prefix), so
/// threading one [`WarmChain`] through a growing sequence reuses each
/// optimal basis instead of cold-starting every solve.
pub fn solve_free_paths_lp_paths_on_grid(
    instance: &Instance,
    cfg: &FreePathsLpConfig,
    grid: IntervalGrid,
    chain: &mut WarmChain,
) -> Result<FreeLpSolution, LpError> {
    // A prescribed path is a one-candidate set; a flow nothing reaches has
    // an empty one, which the builder reports.
    let g = &instance.graph;
    let routes: Vec<FlowRoutes> = instance
        .flows()
        .map(|(_, _, spec)| {
            let ps = match &spec.path {
                Some(p) => vec![p.clone()],
                None => {
                    netpaths::candidate_paths(g, spec.src, spec.dst, cfg.path_slack, cfg.max_paths)
                }
            };
            FlowRoutes::circuit(&grid, spec, (0..).zip(ps))
        })
        .collect();
    let (m, lp) = PathLp::build(instance, grid, routes, CapRows::Binding)?;
    let sol = chain.solve(&m, &cfg.solver)?;
    Ok(lp.extract(&sol, sol.iterations))
}

/// Whether column generation prices routes for this flow. A prescribed
/// (committed) flow cannot reroute; a zero-size flow puts no load on
/// capacity rows, so every path column is identical and the seed already
/// covers it.
fn is_priced(spec: &FlowSpec) -> bool {
    spec.path.is_none() && spec.size > 0.0
}

/// Column generation's initial restricted master, and what its rounds
/// price with.
struct DelayedMaster {
    model: Model,
    lp: PathLp,
    /// Per distinct destination of a priced flow: hops to it from every
    /// node. A priced flow's routes may have at most `path_slack` more
    /// edges than the hops from its source.
    to_dst: BTreeMap<NodeId, Vec<usize>>,
}

impl DelayedMaster {
    /// Seeds the master: a flow whose path is prescribed gets that path
    /// alone; any other flow gets every pooled path, its shortest path
    /// interned first so the pool is never empty. A priced flow also gets
    /// its destination's hop field, which the oracle's search is bounded
    /// by; flows that share a destination share it.
    fn seed(instance: &Instance, grid: IntervalGrid, pool: &mut PathPool) -> Result<Self, LpError> {
        let g = &instance.graph;
        let mut routes: Vec<FlowRoutes> = Vec::with_capacity(instance.flow_count());
        let mut to_dst: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        for (_, flat, spec) in instance.flows() {
            match &spec.path {
                Some(p) => {
                    let (pi, _) = pool.insert_with(flat, pricing::path_signature(p), || p.clone());
                    routes.push(FlowRoutes::circuit(&grid, spec, [(pi, p.clone())]));
                }
                None => {
                    let sp = netpaths::bfs_shortest_path(g, spec.src, spec.dst)
                        .ok_or_else(|| no_path(flat))?;
                    pool.insert_with(flat, pricing::path_signature(&sp), || sp);
                    let pooled = (0..).zip(pool.group(flat).iter().cloned());
                    routes.push(FlowRoutes::circuit(&grid, spec, pooled));
                    if is_priced(spec) {
                        to_dst
                            .entry(spec.dst)
                            .or_insert_with(|| netpaths::reverse_bfs_distances(g, spec.dst));
                    }
                }
            }
        }
        let (model, lp) = PathLp::build(instance, grid, routes, CapRows::Loaded)?;
        Ok(Self { model, lp, to_dst })
    }

    /// Runs the column-generation rounds on the seeded master: solves it
    /// through `chain`, prices every priced flow's intervals against the
    /// duals, appends the routes that price out (and the capacity rows they
    /// are first to load), and repeats until nothing prices out.
    fn solve(
        &mut self,
        instance: &Instance,
        cfg: &FreePathsLpConfig,
        chain: &mut WarmChain,
        pool: &mut PathPool,
    ) -> Result<(Solution, ColGenStats), LpError> {
        let (model, lp) = (&mut self.model, &mut self.lp);
        let nl = lp.grid().count();
        let g = &instance.graph;

        // Pricing tolerance: a column must beat the simplex's own optimality
        // tolerance to be worth injecting; anything closer to zero is dual
        // noise on an already-optimal master.
        let price_tol = coflow_lp::LP_TOL.max(crate::tol::DUAL_EPS);

        // Oracle scratch, retained across pricing rounds: the Bellman–Ford DP
        // tables (a search leaves them as it found them) and the call tallies.
        let mut ws = pricing::PathScratch::default();

        let solved = solve_colgen(model, &cfg.solver, chain, MAX_COLGEN_ROUNDS, |sol, m| {
            // Price each (flow, interval) pair whose dual bound says a path
            // could conceivably price out — edge prices are nonnegative, so
            // `base >= -tol` rules a pair out before any search — and inject
            // each path that does, in flow-then-interval order.
            let mut added = 0usize;
            for (_, flat, spec) in instance.flows() {
                if !is_priced(spec) {
                    continue;
                }
                let to_dst = &self.to_dst[&spec.dst];
                let hop_budget = netpaths::hop_budget(g, to_dst[spec.src.index()], cfg.path_slack);
                let (sum_row, cmp_row) = lp.flow_rows(flat);
                let y_sum = sol.dual(sum_row);
                let y_cmp = sol.dual(cmp_row);
                let first = lp.grid().first_usable(spec.release);
                for l in first..nl {
                    let base = -y_sum - lp.grid().lower(l) * y_cmp;
                    if base < -price_tol {
                        let coeff = spec.size / lp.grid().length(l);
                        let caps = lp.cap_rows(l);
                        // A row no solved column loads — none yet, or only this
                        // round's — has dual 0.
                        let price = |e: EdgeId| {
                            caps[e.index()]
                                .and_then(|row| sol.duals.get(row.index()))
                                .map_or(0.0, |&y| (-y).max(0.0) * coeff)
                        };
                        let found = pricing::cheapest_path_hop_bounded_in(
                            g, spec.src, spec.dst, to_dst, hop_budget, price, &mut ws,
                        );
                        let Some((p, w)) = found else {
                            continue;
                        };
                        if base + w < -price_tol {
                            let sig = pricing::path_signature(&p);
                            let (id, fresh) = pool.insert_with(flat, sig, || p.clone());
                            if fresh {
                                added += lp.add_route(m, g, flat, Route { id, first, path: p });
                            }
                        }
                    }
                }
            }
            added
        });

        // Fold the oracle counters (calls, edge relaxations) into the chain's
        // recorder — before a failed master's error propagates, so the trace
        // keeps the work of the rounds that did run.
        chain.obs().merge_counters(&ws.take_counters());

        solved
    }
}

/// Solves the path-based §2.2 LP by **delayed column generation**: the
/// restricted master is the eager builder's model (`PathLp`) over one
/// shortest path per flow plus every path already interned in `pool`, and
/// further paths are generated on demand by a hop-bounded shortest-path
/// oracle over the master's capacity-row duals
/// ([`coflow_net::pricing::cheapest_path_hop_bounded_in`]).
///
/// The reduced cost of a candidate column `x_{f,p,ℓ}` is
/// `−y_sum(f) − τ_ℓ·y_cmp(f) + Σ_{e∈p} (−y_cap(e,ℓ))·(σ_f/len_ℓ)`: the
/// first two terms are path-independent, and the capacity duals of `Le`
/// rows are nonpositive at optimality, so the most negative column per
/// `(flow, interval)` is exactly a cheapest path under nonnegative edge
/// prices — a Bellman–Ford call instead of enumeration. The hop
/// budget is the eager enumeration's ([`coflow_net::paths::hop_budget`]),
/// so both entry points optimize the same polytope whenever the eager
/// candidate set is complete, and their objectives agree to solver
/// tolerance. With `path_slack` ≥ node count − 1 the oracle prices over
/// every simple path, and the LP is the paper's (15)–(23).
///
/// The oracle pays for each flow's **hop-feasible subgraph**, not for the
/// fabric: with budget `H`, a search from `src` relaxes an edge `(u, v)`
/// only if `v` is within the remaining budget of `dst`, and the hop field
/// to each distinct destination is computed once, before the rounds. The
/// master pays only for the capacity rows its columns **load**: the builder
/// writes the seed routes' rows, and a generated route creates each
/// `(edge, interval)` row it is the first to load, just before the column
/// that loads it. A row that does not exist prices at dual 0 — also when
/// an earlier column of the same round created it, since the solution being
/// priced predates it — which is the dual an empty row would have.
///
/// `pool` persists generated paths across calls: a growing-grid sequence or
/// an online epoch sequence seeds each master with everything discovered so
/// far, and because variable names are keyed by the pool's **stable**
/// per-flow path indices, the basis snapshot `chain` keeps from the previous
/// solve ([`coflow_lp::WarmChain`]) keeps mapping onto the next master (warm
/// starts and column reuse compose).
///
/// Returns the solution together with the [`ColGenStats`] of this call.
/// The oracle's counters (calls, relaxations) reach `chain`'s trace whether
/// or not the solve succeeds.
pub fn solve_free_paths_lp_colgen_on_grid(
    instance: &Instance,
    cfg: &FreePathsLpConfig,
    grid: IntervalGrid,
    chain: &mut WarmChain,
    pool: &mut PathPool,
) -> Result<(FreeLpSolution, ColGenStats), LpError> {
    let mut master = DelayedMaster::seed(instance, grid, pool)?;
    let (sol, stats) = master.solve(instance, cfg, chain, pool)?;
    Ok((master.lp.extract(&sol, stats.total_iterations), stats))
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_net::topo;

    /// Column generation on a cold chain and a fresh pool.
    fn colgen(
        inst: &Instance,
        cfg: &FreePathsLpConfig,
    ) -> Result<(FreeLpSolution, ColGenStats), LpError> {
        let grid = IntervalGrid::cover(cfg.eps, inst.horizon());
        solve_free_paths_lp_colgen_on_grid(
            inst,
            cfg,
            grid,
            &mut WarmChain::new(),
            &mut PathPool::new(),
        )
    }

    fn triangle_inst() -> Instance {
        let t = topo::triangle();
        let (x, y, z) = (t.hosts[0], t.hosts[1], t.hosts[2]);
        Instance::new(
            t.graph,
            vec![
                Coflow::new(1.0, vec![FlowSpec::new(x, y, 1.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(z, y, 1.0, 0.0)]),
            ],
        )
    }

    /// A flow whose endpoints are disconnected is a typed error from both
    /// entry points, never a panic.
    #[test]
    fn disconnected_flow_is_an_error_in_both_column_modes() {
        let mut g = coflow_net::graph::Graph::new();
        let (a, b, c) = (g.add_node(), g.add_node(), g.add_node());
        g.add_bidi_edge(a, b, 1.0); // c is isolated
        let inst = Instance::new(
            g,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::new(a, b, 1.0, 0.0), FlowSpec::new(a, c, 1.0, 0.0)],
            )],
        );
        let cfg = FreePathsLpConfig::default();
        for err in [
            solve_free_paths_lp_paths(&inst, &cfg).unwrap_err(),
            colgen(&inst, &cfg).unwrap_err(),
        ] {
            assert!(
                matches!(&err, LpError::Numerical(msg) if msg.contains("flow 1 has no path")),
                "{err:?}"
            );
        }
    }

    /// One flow of twice the capacity of its direct edge, on the triangle:
    /// only by splitting over the direct edge and the 2-hop detour does it
    /// finish within the first interval. The all-paths LP does; the
    /// shortest-path LP cannot.
    #[test]
    fn all_paths_lp_splits_a_flow_under_contention() {
        let t = topo::triangle();
        let (x, y) = (t.hosts[0], t.hosts[1]);
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(1.0, vec![FlowSpec::new(x, y, 2.0, 0.0)])],
        );
        let cfg = FreePathsLpConfig {
            path_slack: inst.graph.node_count(),
            ..Default::default()
        };
        let (lp, _) = colgen(&inst, &cfg).unwrap();
        let direct = solve_free_paths_lp_paths(&inst, &FreePathsLpConfig::default()).unwrap();
        assert!(
            lp.base.objective < direct.base.objective - 0.25,
            "all paths {} vs direct only {}",
            lp.base.objective,
            direct.base.objective
        );
        let first = &lp.routing[0];
        assert_eq!(first.paths.len(), 2);
        assert!(first.w.iter().all(|row| row[0] > 0.25), "{first:?}");
    }

    #[test]
    fn release_times_respected_in_free_lp() {
        let t = topo::triangle();
        let (x, y) = (t.hosts[0], t.hosts[1]);
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(1.0, vec![FlowSpec::new(x, y, 1.0, 6.0)])],
        );
        let lp = solve_free_paths_lp_paths(&inst, &FreePathsLpConfig::default()).unwrap();
        assert!(lp.base.flow_completion[0] >= 6.0 - 1e-6);
        let first = lp.base.grid.first_usable(6.0);
        for l in 0..first {
            assert_eq!(lp.base.x[0][l], 0.0);
        }
    }

    #[test]
    fn prescribed_paths_pass_through_path_lp() {
        // When a flow carries a path, the path LP restricts to it.
        let t = topo::triangle();
        let (x, y) = (t.hosts[0], t.hosts[1]);
        let p = coflow_net::paths::bfs_shortest_path(&t.graph, x, y).unwrap();
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::with_path(x, y, 1.0, 0.0, p.clone())],
            )],
        );
        let lp = solve_free_paths_lp_paths(&inst, &FreePathsLpConfig::default()).unwrap();
        assert_eq!(lp.routing[0].paths, [p]);
    }

    /// The path LP on a growing grid, warm-started through one chain:
    /// identical objectives, strictly fewer total iterations than cold.
    #[test]
    fn warm_chain_on_growing_grids_matches_cold() {
        let inst = triangle_inst();
        let cfg = FreePathsLpConfig {
            path_slack: 1,
            ..Default::default()
        };
        let h = inst.horizon();
        let scales = [1.0, 2.0, 4.0];

        let mut chain = WarmChain::new();
        let mut warm_objs = Vec::new();
        for s in scales {
            let grid = IntervalGrid::cover(cfg.eps, h * s);
            let sol = solve_free_paths_lp_paths_on_grid(&inst, &cfg, grid, &mut chain).unwrap();
            warm_objs.push(sol.base.objective);
        }
        assert_eq!(chain.stats().warm_used, scales.len() - 1);

        let mut cold_total = 0usize;
        for (s, warm_obj) in scales.iter().zip(&warm_objs) {
            let grid = IntervalGrid::cover(cfg.eps, h * s);
            let cold = solve_free_paths_lp_paths_on_grid(&inst, &cfg, grid, &mut WarmChain::new())
                .unwrap();
            assert!(
                (warm_obj - cold.base.objective).abs() < 1e-6,
                "scale {s}: warm {warm_obj} vs cold {}",
                cold.base.objective
            );
            cold_total += cold.base.iterations;
        }
        assert!(
            chain.stats().total_iterations < cold_total,
            "warm chain {} iters vs cold {}",
            chain.stats().total_iterations,
            cold_total
        );
    }

    /// Delayed column generation must reproduce the eager objective when
    /// the eager enumeration is complete, while materializing no more
    /// columns than the eager model.
    #[test]
    fn colgen_matches_eager_on_triangle() {
        let inst = triangle_inst();
        let cfg = FreePathsLpConfig {
            path_slack: 1,
            ..Default::default()
        };
        let eager = solve_free_paths_lp_paths(&inst, &cfg).unwrap();
        let (cg, stats) = colgen(&inst, &cfg).unwrap();
        assert!(
            (cg.base.objective - eager.base.objective).abs() < 1e-6,
            "colgen {} vs eager {}",
            cg.base.objective,
            eager.base.objective
        );
        assert!(stats.rounds >= 1);
        assert_eq!(stats.final_cols, stats.seeded_cols + stats.generated_cols);
    }

    /// Contention on a fat-tree forces pricing to actually generate
    /// columns beyond the shortest-path seeds, and the optimum still
    /// matches eager (all equal-cost paths enumerated => eager complete).
    #[test]
    fn colgen_generates_columns_under_fat_tree_contention() {
        let t = topo::fat_tree(4, 1.0);
        // Many flows between the same pods so one shortest path saturates.
        let mut flows = Vec::new();
        for i in 0..4 {
            flows.push(FlowSpec::new(t.hosts[i], t.hosts[15 - i], 4.0, 0.0));
        }
        let inst = Instance::new(t.graph.clone(), vec![Coflow::new(1.0, flows)]);
        let cfg = FreePathsLpConfig::default();
        let eager = solve_free_paths_lp_paths(&inst, &cfg).unwrap();
        let grid = IntervalGrid::cover(cfg.eps, inst.horizon());
        let mut pool = PathPool::new();
        let (cg, stats) =
            solve_free_paths_lp_colgen_on_grid(&inst, &cfg, grid, &mut WarmChain::new(), &mut pool)
                .unwrap();
        assert!(
            (cg.base.objective - eager.base.objective).abs() < 1e-6,
            "colgen {} vs eager {}",
            cg.base.objective,
            eager.base.objective
        );
        assert!(
            stats.generated_cols > 0,
            "contention must force column generation"
        );
        assert!(pool.len() > inst.flow_count(), "pool holds generated paths");
    }

    /// The four contending inter-pod flows of the fat-tree k=4 tests.
    fn fat_tree_contention() -> Instance {
        let t = topo::fat_tree(4, 1.0);
        let flows = (0..4)
            .map(|i| FlowSpec::new(t.hosts[i], t.hosts[15 - i], 4.0, 0.0))
            .collect();
        Instance::new(t.graph, vec![Coflow::new(1.0, flows)])
    }

    /// The final delayed master has exactly the capacity rows its columns
    /// load: every `(edge, interval)` row is loaded by some route of a flow
    /// with volume in that interval, and every such pair has its row — the
    /// seed routes' written by the builder, the generated routes' created
    /// as they attached. The model holds no other row, and the optimum is
    /// the eager one.
    #[test]
    fn delayed_master_has_only_the_capacity_rows_its_columns_load() {
        let inst = fat_tree_contention();
        let cfg = FreePathsLpConfig::default();
        let grid = IntervalGrid::cover(cfg.eps, inst.horizon());
        let nl = grid.count();
        let mut pool = PathPool::new();
        let mut chain = WarmChain::new();
        let mut master = DelayedMaster::seed(&inst, grid, &mut pool).unwrap();
        let seeded_rows = master.model.num_rows();
        let (sol, stats) = master.solve(&inst, &cfg, &mut chain, &mut pool).unwrap();
        assert!(stats.generated_cols > 0, "routes beyond the seeds attached");
        assert!(
            master.model.num_rows() > seeded_rows,
            "generated routes created rows"
        );
        let rows: Vec<(usize, EdgeId)> = (0..nl)
            .flat_map(|l| {
                let caps = master.lp.cap_rows(l);
                (0..caps.len())
                    .filter(move |&e| caps[e].is_some())
                    .map(move |e| (l, EdgeId(e as u32)))
            })
            .collect();
        assert_eq!(
            master.model.num_rows(),
            3 * inst.flow_count() + rows.len(),
            "no row besides sum/cmp/prec and the recorded capacity rows"
        );
        let cg = master.lp.extract(&sol, stats.total_iterations);
        let mut loaded = std::collections::BTreeSet::new();
        for ((_, _, spec), routing) in inst.flows().zip(&cg.routing) {
            let first = cg.base.grid.first_usable(spec.release);
            for p in routing.paths.iter().filter(|_| spec.size > 0.0) {
                loaded.extend((first..nl).flat_map(|l| p.edges.iter().map(move |&e| (l, e))));
            }
        }
        assert_eq!(rows, loaded.into_iter().collect::<Vec<_>>());

        let eager = solve_free_paths_lp_paths(&inst, &cfg).unwrap();
        assert!(
            (cg.base.objective - eager.base.objective).abs() < 1e-6,
            "colgen {} vs eager {}",
            cg.base.objective,
            eager.base.objective
        );
    }

    /// Two prescribed flows contending on an edge that no priced flow can
    /// reach: no generated route will ever load it, so its capacity rows
    /// exist only because the seed routes load them — without them the
    /// master would let both flows through at once.
    #[test]
    fn prescribed_flows_contend_outside_every_priced_subgraph() {
        use coflow_net::graph::{Graph, NodeId as N};
        let mut g = Graph::with_nodes(4);
        let shared = g.add_edge(N(0), N(1), 1.0);
        let spare = g.add_edge(N(0), N(1), 1.0);
        g.add_edge(N(2), N(3), 1.0);
        let objective = |second: EdgeId| {
            let committed =
                |e: EdgeId| FlowSpec::with_path(N(0), N(1), 3.0, 0.0, Path::new(vec![e]));
            let inst = Instance::new(
                g.clone(),
                vec![
                    Coflow::new(1.0, vec![committed(shared)]),
                    Coflow::new(1.0, vec![committed(second)]),
                    Coflow::new(1.0, vec![FlowSpec::new(N(2), N(3), 1.0, 0.0)]),
                ],
            );
            let cfg = FreePathsLpConfig::default();
            let delayed = colgen(&inst, &cfg).unwrap().0.base.objective;
            let eager = solve_free_paths_lp_paths(&inst, &cfg)
                .unwrap()
                .base
                .objective;
            assert!(
                (delayed - eager).abs() < 1e-6,
                "delayed {delayed} vs eager {eager}"
            );
            delayed
        };
        let (contending, apart) = (objective(shared), objective(spare));
        assert!(
            contending > apart + 0.5,
            "sharing the edge must delay a coflow: {contending} vs {apart}"
        );
    }

    /// A master that fails after pricing has run must not take the oracle's
    /// counters with it: the trace of a failed solve still says how much
    /// work its rounds did.
    #[test]
    fn oracle_counters_survive_a_failed_master() {
        /// Factorizations fail for good once the first master has solved
        /// (the round hook fires between a master and its pricing).
        #[derive(Default)]
        struct FailAfterFirstMaster(bool);
        impl coflow_lp::FaultHook for FailAfterFirstMaster {
            fn on_factorization(&mut self) -> bool {
                self.0
            }
            fn on_colgen_round(&mut self, _: usize) -> coflow_lp::ColgenFault {
                self.0 = true;
                coflow_lp::ColgenFault::None
            }
        }
        let inst = fat_tree_contention();
        let cfg = FreePathsLpConfig::default();
        let grid = IntervalGrid::cover(cfg.eps, inst.horizon());
        let mut chain = WarmChain::new();
        chain.set_fault_hook(Some(Box::new(FailAfterFirstMaster::default())));
        let err =
            solve_free_paths_lp_colgen_on_grid(&inst, &cfg, grid, &mut chain, &mut PathPool::new())
                .unwrap_err();
        assert!(matches!(err, LpError::Numerical(_)), "{err:?}");
        let trace = chain.take_trace();
        assert!(trace.counter(coflow_obs::Counter::OracleCalls) > 0);
        assert!(trace.counter(coflow_obs::Counter::OracleRelaxations) > 0);
    }

    /// Growing grids threaded through one chain + one pool: objectives
    /// match cold eager solves, warm starts are taken, and the later solves
    /// are seeded with the earlier solves' generated columns.
    #[test]
    fn colgen_pool_reuse_across_growing_grids() {
        let inst = triangle_inst();
        let cfg = FreePathsLpConfig {
            path_slack: 1,
            ..Default::default()
        };
        let h = inst.horizon();
        let mut chain = WarmChain::new();
        let mut pool = PathPool::new();
        let mut gen_per_solve = Vec::new();
        for s in [1.0, 2.0, 4.0] {
            let grid = IntervalGrid::cover(cfg.eps, h * s);
            let (cg, stats) =
                solve_free_paths_lp_colgen_on_grid(&inst, &cfg, grid, &mut chain, &mut pool)
                    .unwrap();
            gen_per_solve.push(stats.generated_cols);
            let grid = IntervalGrid::cover(cfg.eps, h * s);
            let eager = solve_free_paths_lp_paths_on_grid(&inst, &cfg, grid, &mut WarmChain::new())
                .unwrap();
            assert!(
                (cg.base.objective - eager.base.objective).abs() < 1e-6,
                "scale {s}: colgen {} vs eager {}",
                cg.base.objective,
                eager.base.objective
            );
        }
        assert!(chain.stats().warm_used > 0, "masters must warm-start");
        // Whatever paths the first solve generated seed the later ones.
        assert_eq!(
            &gen_per_solve[1..],
            &[0, 0],
            "pooled columns must make later solves generation-free"
        );
    }

    #[test]
    fn colgen_respects_prescribed_paths() {
        let t = topo::triangle();
        let (x, y) = (t.hosts[0], t.hosts[1]);
        let p = coflow_net::paths::bfs_shortest_path(&t.graph, x, y).unwrap();
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::with_path(x, y, 1.0, 0.0, p.clone())],
            )],
        );
        let cfg = FreePathsLpConfig {
            path_slack: 1,
            ..Default::default()
        };
        let (lp, _) = colgen(&inst, &cfg).unwrap();
        assert_eq!(lp.routing[0].paths, [p]);
    }

    #[test]
    fn weighted_coflows_finish_in_weight_order() {
        let t = topo::triangle();
        let (x, y) = (t.hosts[0], t.hosts[1]);
        let inst = Instance::new(
            t.graph,
            vec![
                Coflow::new(100.0, vec![FlowSpec::new(x, y, 2.0, 0.0)]),
                Coflow::new(0.01, vec![FlowSpec::new(x, y, 2.0, 0.0)]),
            ],
        );
        let lp = solve_free_paths_lp_paths(&inst, &FreePathsLpConfig::default()).unwrap();
        assert!(lp.base.coflow_completion[0] <= lp.base.coflow_completion[1] + 1e-6);
    }
}
