//! The interval-indexed LP for circuit coflows **without given paths**
//! (§2.2, constraints (15)–(23)).
//!
//! Two interchangeable formulations are provided:
//!
//! * [`solve_free_paths_lp_edges`] — the paper's formulation: per flow,
//!   interval and edge, a rate variable `x^e_{fℓ}` with flow-conservation
//!   constraints (18)–(20) and shared capacity (21). Exact on any graph;
//!   size `O(F·L·E)`, so intended for small/medium networks (and used as
//!   the reference in tests).
//! * [`solve_free_paths_lp_paths`] — a column (path-based) restriction of
//!   the same polytope: variables `x_{f,p,ℓ}` over an enumerated candidate
//!   path set. On fat-trees with all equal-cost shortest paths enumerated,
//!   every edge-flow solution can be expressed over these columns (§4.3 of
//!   the paper observes the decomposition returns one path per flow there),
//!   so the restriction is lossless in the evaluation setting while being
//!   dramatically smaller. Used by the experiment harness.
//!
//! Both produce a [`FreeLpSolution`]: the completion-fraction view shared
//! with §2.1 plus per-flow fractional routing information consumed by the
//! rounding step ([`crate::circuit::round_free`]).
//!
//! The path formulation has one builder, `circuit::path_lp`'s
//! `PathLp`, in both [`ColumnMode`]s: eager enumeration hands it every
//! candidate path, the delayed mode hands it the pooled seeds as its
//! initial restricted master and appends generated columns to the same
//! rows. A flow with a prescribed path is a one-candidate set, which makes
//! the §2.1 LP ([`crate::circuit::lp_given`]) the same builder again. The
//! edge formulation has a different capacity structure (rates per edge,
//! conservation rows) and stays its own builder; it shares the `C_i`
//! helper, the per-flow rows and the solution read-back.

use crate::circuit::lp_given::CircuitLpSolution;
use crate::circuit::path_lp::{
    add_cap_row, add_flow_rows, circuit_solution, coflow_completion_vars, no_path, CapRows, PathLp,
    Routes,
};
use crate::intervals::IntervalGrid;
use crate::model::{FlowSpec, Instance};
use coflow_lp::{
    solve_colgen, Cmp, ColGenStats, ColumnPool, LpError, Model, SolverOptions, VarId, WarmChain,
};
use coflow_net::{paths as netpaths, pricing, EdgeId, NodeId, Path};
use std::collections::BTreeMap;

/// How the path formulation materializes its columns.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ColumnMode {
    /// Enumerate the full candidate set up front
    /// ([`coflow_net::paths::candidate_paths`]) — the cross-check oracle
    /// for the delayed mode, whose master is the same builder's model.
    #[default]
    Eager,
    /// Delayed column generation: seed the restricted master with each
    /// flow's shortest path only and price further paths on demand against
    /// the master's capacity-row duals (see
    /// [`solve_free_paths_lp_colgen_on_grid`]).
    Delayed,
}

/// Cap on restricted-master solve rounds of the delayed mode: a safety
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
    /// For the path formulation: allowed extra hops over the shortest path
    /// when enumerating candidates (0 = equal-cost shortest paths only).
    pub path_slack: usize,
    /// For the path formulation: cap on candidate paths per flow.
    pub max_paths: usize,
    /// Column strategy of the path formulation (eager enumeration vs
    /// delayed generation). The delayed mode prices over the same
    /// hop-bounded path space (`shortest + path_slack`), so the two modes
    /// optimize the same polytope whenever the eager enumeration is
    /// complete (its `max_paths` cap not hit).
    pub columns: ColumnMode,
    /// Simplex options.
    pub solver: SolverOptions,
}

impl Default for FreePathsLpConfig {
    fn default() -> Self {
        Self {
            eps: crate::FREE_PATHS_EPS,
            path_slack: 0,
            max_paths: 32,
            columns: ColumnMode::default(),
            solver: SolverOptions::default(),
        }
    }
}

/// Fractional routing of one flow, as returned by the LP.
#[derive(Clone, Debug)]
pub enum FlowRouting {
    /// Edge formulation: per interval, sparse `(edge, rate)` pairs.
    EdgeFlows(Vec<Vec<(EdgeId, f64)>>),
    /// Path formulation: candidate paths and `w[path][interval]` completion
    /// fractions.
    PathWeights {
        /// Candidate paths (deterministic order).
        paths: Vec<Path>,
        /// `w[p][ℓ]` fraction of the flow completed on path `p` in
        /// interval `ℓ`.
        w: Vec<Vec<f64>>,
    },
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

/// Solves the edge-flow formulation (15)–(23).
///
/// Rate variables exist only for "useful" edges: edges entering the flow's
/// source or leaving its destination are omitted (they can only form
/// circulations, which deliver nothing).
pub fn solve_free_paths_lp_edges(
    instance: &Instance,
    cfg: &FreePathsLpConfig,
) -> Result<FreeLpSolution, LpError> {
    let grid = IntervalGrid::cover(cfg.eps, instance.horizon());
    let nl = grid.count();
    let nf = instance.flow_count();
    let g = &instance.graph;
    let mut m = Model::new();
    let c_cof = coflow_completion_vars(&mut m, instance);

    /// One flow's columns: `x[k]` and `y[k][j]`, the rate on `useful[j]`,
    /// belong to interval `first + k`.
    struct EdgeCols {
        c: VarId,
        first: usize,
        x: Vec<VarId>,
        useful: Vec<EdgeId>,
        y: Vec<Vec<VarId>>,
    }
    let mut flows: Vec<EdgeCols> = Vec::with_capacity(nf);

    for (id, flat, spec) in instance.flows() {
        let c = m.add_var(0.0, spec.release, f64::INFINITY, format!("c{flat}"));
        let first = grid.first_usable(spec.release);

        let useful: Vec<EdgeId> = g
            .edges()
            .filter(|&e| {
                let (u, v) = g.endpoints(e);
                v != spec.src && u != spec.dst && u != v
            })
            .collect();

        let x: Vec<VarId> = (first..nl)
            .map(|l| m.add_unit(0.0, format!("x{flat}:{l}")))
            .collect();
        let y: Vec<Vec<VarId>> = (first..nl)
            .map(|l| {
                useful
                    .iter()
                    .map(|e| m.add_nonneg(0.0, format!("y{flat}:{l}:{e:?}")))
                    .collect()
            })
            .collect();

        // (15)–(17).
        let cols: Vec<(VarId, usize)> = x.iter().copied().zip(first..nl).collect();
        add_flow_rows(&mut m, &grid, flat, c, c_cof[id.coflow as usize], &cols);

        // (18)–(20) conservation per usable interval:
        // net_out(v) = demand * x for v = src, -demand * x for v = dst,
        // 0 otherwise.
        for ((l, &xl), yl) in (first..nl).zip(&x).zip(&y) {
            let demand_coeff = spec.size / grid.length(l);
            let mut per_node: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); g.node_count()];
            for (&e, &yv) in useful.iter().zip(yl) {
                let (u, v) = g.endpoints(e);
                per_node[u.index()].push((yv, 1.0));
                per_node[v.index()].push((yv, -1.0));
            }
            for v in g.nodes() {
                let mut terms = std::mem::take(&mut per_node[v.index()]);
                if v == spec.src {
                    terms.push((xl, -demand_coeff));
                } else if v == spec.dst {
                    terms.push((xl, demand_coeff));
                } else if terms.is_empty() {
                    continue;
                }
                m.add_row_named(Cmp::Eq, 0.0, &terms, format!("con{flat}:{l}:{}", v.index()));
            }
        }
        flows.push(EdgeCols {
            c,
            first,
            x,
            useful,
            y,
        });
    }

    // (21) capacity per edge and interval.
    for l in 0..nl {
        let mut per_edge: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); g.edge_count()];
        for f in flows.iter().filter(|f| f.first <= l) {
            for (&e, &yv) in f.useful.iter().zip(&f.y[l - f.first]) {
                per_edge[e.index()].push((yv, 1.0));
            }
        }
        for (ei, terms) in per_edge.iter().enumerate() {
            if !terms.is_empty() {
                add_cap_row(&mut m, g, ei, l, terms);
            }
        }
    }

    let sol = m.solve_with(&cfg.solver)?;

    let mut xs = vec![vec![0.0; nl]; nf];
    let mut routing = Vec::with_capacity(nf);
    for (f, x) in flows.iter().zip(&mut xs) {
        let mut per_l: Vec<Vec<(EdgeId, f64)>> = vec![Vec::new(); nl];
        for ((l, &xl), yl) in (f.first..nl).zip(&f.x).zip(&f.y) {
            x[l] = sol.value(xl);
            per_l[l] = (f.useful.iter().zip(yl))
                .filter_map(|(&e, &v)| {
                    let val = sol.value(v);
                    (val > 1e-9).then_some((e, val))
                })
                .collect();
        }
        routing.push(FlowRouting::EdgeFlows(per_l));
    }

    let c_flow: Vec<VarId> = flows.iter().map(|f| f.c).collect();
    Ok(FreeLpSolution {
        base: circuit_solution(grid, xs, &c_flow, &c_cof, &sol, sol.iterations),
        routing,
    })
}

/// Solves the path-based column restriction of (15)–(23).
///
/// A flow with no path between its endpoints (disconnected instance) is an
/// [`LpError::Numerical`], in either [`ColumnMode`].
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
///
/// With [`ColumnMode::Delayed`] the solve runs through
/// [`solve_free_paths_lp_colgen_on_grid`] with a solve-local [`PathPool`];
/// sequences that want cross-solve column reuse call the pooled entry point
/// directly.
pub fn solve_free_paths_lp_paths_on_grid(
    instance: &Instance,
    cfg: &FreePathsLpConfig,
    grid: IntervalGrid,
    chain: &mut WarmChain,
) -> Result<FreeLpSolution, LpError> {
    if cfg.columns == ColumnMode::Delayed {
        let mut pool = PathPool::new();
        return solve_free_paths_lp_colgen_on_grid(instance, cfg, grid, chain, &mut pool)
            .map(|(sol, _)| sol);
    }
    // A prescribed path is a one-candidate set; a flow nothing reaches has
    // an empty one, which the builder reports.
    let g = &instance.graph;
    let routes: Vec<Routes> = instance
        .flows()
        .map(|(_, _, spec)| {
            let ps = match &spec.path {
                Some(p) => vec![p.clone()],
                None => {
                    netpaths::candidate_paths(g, spec.src, spec.dst, cfg.path_slack, cfg.max_paths)
                }
            };
            (0..).zip(ps).collect()
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

/// The delayed mode's initial restricted master, and what its rounds price
/// with.
struct DelayedMaster {
    model: Model,
    lp: PathLp,
    /// Per flat flow: the most edges one of its routes may have.
    hop_budget: Vec<usize>,
    /// Per distinct destination of a priced flow: hops to it from every
    /// node.
    to_dst: BTreeMap<NodeId, Vec<usize>>,
}

impl DelayedMaster {
    /// Seeds the master: a flow whose path is prescribed gets that path
    /// alone; any other flow gets every pooled path, its shortest path
    /// interned first so the pool is never empty. A priced flow also marks
    /// its hop-feasible edges — `hops(src→u) + 1 + hops(v→dst) <= budget` —
    /// for the builder to declare capacity rows on. A hop field depends on
    /// the endpoint alone, so flows share them.
    fn seed(
        instance: &Instance,
        cfg: &FreePathsLpConfig,
        grid: IntervalGrid,
        pool: &mut PathPool,
    ) -> Result<Self, LpError> {
        let nf = instance.flow_count();
        let g = &instance.graph;
        let mut hop_budget = Vec::with_capacity(nf);
        let mut routes: Vec<Routes> = Vec::with_capacity(nf);
        let mut from_src: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        let mut to_dst: BTreeMap<NodeId, Vec<usize>> = BTreeMap::new();
        let mut attachable = vec![false; g.edge_count()];
        for (_, flat, spec) in instance.flows() {
            match &spec.path {
                Some(p) => {
                    hop_budget.push(p.len());
                    let (pi, _) = pool.insert_with(flat, pricing::path_signature(p), || p.clone());
                    routes.push(vec![(pi, p.clone())]);
                }
                None => {
                    let sp = netpaths::bfs_shortest_path(g, spec.src, spec.dst)
                        .ok_or_else(|| no_path(flat))?;
                    let budget = sp.len() + cfg.path_slack;
                    hop_budget.push(budget);
                    pool.insert_with(flat, pricing::path_signature(&sp), || sp);
                    routes.push((0..).zip(pool.group(flat).iter().cloned()).collect());
                    if !is_priced(spec) {
                        continue;
                    }
                    let from = from_src
                        .entry(spec.src)
                        .or_insert_with(|| netpaths::bfs_distances(g, spec.src));
                    let to = to_dst
                        .entry(spec.dst)
                        .or_insert_with(|| netpaths::reverse_bfs_distances(g, spec.dst));
                    for e in g.edges() {
                        let (u, v) = g.endpoints(e);
                        // `usize::MAX` marks an unreachable endpoint.
                        if from[u.index()].saturating_add(to[v.index()]) < budget {
                            attachable[e.index()] = true;
                        }
                    }
                }
            }
        }
        let (model, lp) = PathLp::build(instance, grid, routes, CapRows::Attachable(attachable))?;
        Ok(Self {
            model,
            lp,
            hop_budget,
            to_dst,
        })
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
/// budget mirrors the eager enumeration (`shortest + path_slack`), so both
/// modes optimize the same polytope whenever the eager candidate set is
/// complete, and their objectives agree to solver tolerance.
///
/// Both the oracle and the master pay for each flow's **hop-feasible
/// subgraph**, not for the fabric: with budget `H`, a flow can only ever
/// use edges `(u, v)` with `hops(src→u) + 1 + hops(v→dst) <= H`. The hop
/// fields are computed once per distinct endpoint, before the rounds; the
/// oracle relaxes no edge outside the subgraph, and the master declares
/// capacity rows only for those edges and the seed routes' — about 2,500
/// of a k=16 fat-tree's 6,144 edges for 40 flows, under 200 of 768 in an
/// online k=8 epoch whose flows are mostly committed. Rows are never
/// created lazily: every row a generated column attaches to exists from
/// the start.
///
/// `pool` persists generated paths across calls: a growing-grid sequence or
/// an online epoch sequence seeds each master with everything discovered so
/// far, and because variable names are keyed by the pool's **stable**
/// per-flow path indices, the previous solve's [`coflow_lp::Basis`] keeps
/// mapping onto the next master (warm starts and column reuse compose).
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
    let nl = grid.count();
    let g = &instance.graph;
    let DelayedMaster {
        model: mut m,
        mut lp,
        hop_budget,
        to_dst,
    } = DelayedMaster::seed(instance, cfg, grid, pool)?;

    // Pricing tolerance: a column must beat the simplex's own optimality
    // tolerance to be worth injecting; anything closer to zero is dual
    // noise on an already-optimal master.
    let price_tol = cfg.solver.tol.max(crate::tol::DUAL_EPS);

    // Per-worker oracle state, retained across pricing rounds: the
    // Bellman–Ford DP tables plus the section's search results in item
    // order. Worker `w` always owns slot `w` (deterministic static
    // partition), and a search leaves its scratch as it found it, so
    // results are identical at any thread count.
    #[derive(Default)]
    struct OracleSlot {
        ws: pricing::PathScratch,
        out: Vec<Option<(Path, f64)>>,
    }
    let oracle_workers = cfg.solver.threads.max(1);
    let mut oracle_slots: Vec<OracleSlot> = Vec::new();
    oracle_slots.resize_with(oracle_workers, OracleSlot::default);

    let solved = solve_colgen(&mut m, &cfg.solver, chain, MAX_COLGEN_ROUNDS, |sol, m| {
        // Gather the (flow, interval) oracle calls whose dual bound says a
        // path could conceivably price out: edge prices are nonnegative,
        // so `base >= -tol` rules a pair out before any search.
        let mut work: Vec<(usize, &FlowSpec, usize, f64)> = Vec::new(); // (flat, spec, l, base)
        for (_, flat, spec) in instance.flows() {
            if !is_priced(spec) {
                continue;
            }
            let (sum_row, cmp_row) = lp.flow_rows(flat);
            let y_sum = sol.dual(sum_row);
            let y_cmp = sol.dual(cmp_row);
            for l in lp.first(flat)..nl {
                let base = -y_sum - lp.grid().lower(l) * y_cmp;
                if base < -price_tol {
                    work.push((flat, spec, l, base));
                }
            }
        }

        // Fan the searches across the worker pool: each search reads only
        // the master's duals (shared, immutable) and its worker's own DP
        // scratch. Sections are contiguous in item order, so concatenating
        // the slot outputs below restores the exact serial order.
        for slot in oracle_slots.iter_mut() {
            slot.out.clear();
        }
        coflow_lp::par::for_each_section(
            oracle_workers,
            work.len(),
            &mut oracle_slots,
            |_, range, slot| {
                let OracleSlot { ws, out } = slot;
                for &(flat, spec, l, _) in &work[range] {
                    let coeff = spec.size / lp.grid().length(l);
                    let caps = lp.cap_rows(l);
                    // An edge without rows is one no column loads: dual 0.
                    let price = |e: EdgeId| {
                        caps[e.index()].map_or(0.0, |row| (-sol.dual(row)).max(0.0) * coeff)
                    };
                    out.push(pricing::cheapest_path_hop_bounded_in(
                        g,
                        spec.src,
                        spec.dst,
                        &to_dst[&spec.dst],
                        hop_budget[flat],
                        price,
                        ws,
                    ));
                }
            },
        );

        // Serial injection in item order: ColumnPool indices and master
        // column order stay byte-identical to the serial oracle loop.
        let mut added = 0usize;
        let results = oracle_slots.iter().flat_map(|s| s.out.iter());
        for (&(flat, _, _, base), res) in work.iter().zip(results) {
            let Some((p, w)) = res else {
                continue;
            };
            if base + w < -price_tol {
                let sig = pricing::path_signature(p);
                let (pi, fresh) = pool.insert_with(flat, sig, || p.clone());
                if fresh {
                    added += lp.add_route(m, flat, pi, p);
                }
            }
        }
        added
    });

    // Fold each worker's oracle counters (calls, edge relaxations) into
    // the chain's recorder — before a failed master's error propagates, so
    // the trace keeps the work of the rounds that did run. Slot order is
    // fixed, and counter merging is integer addition, so totals are
    // identical at any thread count.
    for slot in oracle_slots.iter_mut() {
        let cs = slot.ws.take_counters();
        chain.obs().merge_counters(&cs);
    }

    let (sol, stats) = solved?;
    Ok((lp.extract(&sol, stats.total_iterations), stats))
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_net::topo;

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

    /// A flow whose endpoints are disconnected is a typed error in both
    /// column modes, never a panic.
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
        for columns in [ColumnMode::Eager, ColumnMode::Delayed] {
            let cfg = FreePathsLpConfig {
                columns,
                ..Default::default()
            };
            let err = solve_free_paths_lp_paths(&inst, &cfg).unwrap_err();
            assert!(
                matches!(&err, LpError::Numerical(msg) if msg.contains("flow 1 has no path")),
                "{columns:?}: {err:?}"
            );
        }
    }

    #[test]
    fn edge_and_path_formulations_agree_on_triangle() {
        let inst = triangle_inst();
        let cfg = FreePathsLpConfig {
            path_slack: 1,
            ..Default::default()
        };
        let a = solve_free_paths_lp_edges(&inst, &cfg).unwrap();
        let b = solve_free_paths_lp_paths(&inst, &cfg).unwrap();
        // With slack 1 the path set spans everything the edge LP can do on
        // a triangle, so optima coincide.
        assert!(
            (a.base.objective - b.base.objective).abs() < 1e-5,
            "edge {} vs path {}",
            a.base.objective,
            b.base.objective
        );
    }

    #[test]
    fn path_restriction_never_beats_edge_lp() {
        let inst = triangle_inst();
        let cfg = FreePathsLpConfig::default(); // slack 0: direct paths only
        let edge = solve_free_paths_lp_edges(&inst, &cfg).unwrap();
        let path = solve_free_paths_lp_paths(&inst, &cfg).unwrap();
        assert!(path.base.objective >= edge.base.objective - 1e-6);
    }

    #[test]
    fn edge_lp_uses_both_routes_under_contention() {
        // Two flows with the same src/dst on the triangle: the edge LP can
        // split across the direct edge and the 2-hop detour to finish both
        // within the first intervals.
        let t = topo::triangle();
        let (x, y) = (t.hosts[0], t.hosts[1]);
        let inst = Instance::new(
            t.graph,
            vec![
                Coflow::new(1.0, vec![FlowSpec::new(x, y, 1.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(x, y, 1.0, 0.0)]),
            ],
        );
        let lp = solve_free_paths_lp_edges(&inst, &FreePathsLpConfig::default()).unwrap();
        // Serial on one edge would force total completion >= 1 + 2; with
        // splitting both can finish around time 1, so the LP objective
        // (sum of interval lower bounds) must be strictly below the serial
        // bound.
        assert!(
            lp.base.objective < 3.0 - 1e-6,
            "objective {}",
            lp.base.objective
        );
        // At least one flow routes mass over a 2-edge path in some interval.
        let used_detour = lp.routing.iter().any(|r| match r {
            FlowRouting::EdgeFlows(per_l) => per_l.iter().any(|edges| edges.len() >= 2),
            _ => false,
        });
        assert!(used_detour, "expected the LP to spread over multiple edges");
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
        match &lp.routing[0] {
            FlowRouting::PathWeights { paths, .. } => {
                assert_eq!(paths.len(), 1);
                assert_eq!(paths[0], p);
            }
            _ => panic!("expected path weights"),
        }
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
        let cfg_cg = FreePathsLpConfig {
            columns: ColumnMode::Delayed,
            ..cfg
        };
        let grid = IntervalGrid::cover(cfg_cg.eps, inst.horizon());
        let mut pool = PathPool::new();
        let (cg, stats) = solve_free_paths_lp_colgen_on_grid(
            &inst,
            &cfg_cg,
            grid,
            &mut WarmChain::new(),
            &mut pool,
        )
        .unwrap();
        assert!(
            (cg.base.objective - eager.base.objective).abs() < 1e-6,
            "colgen {} vs eager {}",
            cg.base.objective,
            eager.base.objective
        );
        assert!(stats.rounds >= 1);
        assert_eq!(stats.final_cols, stats.seeded_cols + stats.generated_cols);
        // The dispatching entry point gives the same result.
        let dispatched = solve_free_paths_lp_paths(&inst, &cfg_cg).unwrap();
        assert!((dispatched.base.objective - eager.base.objective).abs() < 1e-6);
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
        let cfg_cg = FreePathsLpConfig {
            columns: ColumnMode::Delayed,
            ..cfg
        };
        let grid = IntervalGrid::cover(cfg_cg.eps, inst.horizon());
        let mut pool = PathPool::new();
        let (cg, stats) = solve_free_paths_lp_colgen_on_grid(
            &inst,
            &cfg_cg,
            grid,
            &mut WarmChain::new(),
            &mut pool,
        )
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

    /// The delayed master declares capacity rows for the edges its flows
    /// can use, not for the fabric — and that is enough: every generated
    /// route finds its rows (`add_route` panics otherwise) and the optimum
    /// is the eager one.
    #[test]
    fn delayed_master_declares_only_attachable_capacity_rows() {
        let inst = fat_tree_contention();
        let cfg = FreePathsLpConfig {
            columns: ColumnMode::Delayed,
            ..Default::default()
        };
        let grid = IntervalGrid::cover(cfg.eps, inst.horizon());
        let every_row = 3 * inst.flow_count() + inst.graph.edge_count() * grid.count();
        let master = DelayedMaster::seed(&inst, &cfg, grid.clone(), &mut PathPool::new()).unwrap();
        let rows = master.model.num_rows();
        assert!(rows < every_row, "{rows} rows declared of {every_row}");
        // Hosts 0..4 share a pod, as do hosts 12..16, and every flow goes
        // from the first to the second: of the 96 directed edges, the
        // hop-feasible ones are the 4 host, 4 edge-aggregation and 4
        // aggregation-core links going up and their mirror images down.
        assert_eq!(inst.graph.edge_count(), 96);
        let per_interval = (rows - 3 * inst.flow_count()) / grid.count();
        assert_eq!(per_interval, (4 + 4 + 4) + (4 + 4 + 4));

        let mut pool = PathPool::new();
        let (cg, stats) =
            solve_free_paths_lp_colgen_on_grid(&inst, &cfg, grid, &mut WarmChain::new(), &mut pool)
                .unwrap();
        assert!(stats.generated_cols > 0, "routes beyond the seeds attached");
        let eager = solve_free_paths_lp_paths(&inst, &FreePathsLpConfig::default()).unwrap();
        assert!(
            (cg.base.objective - eager.base.objective).abs() < 1e-6,
            "colgen {} vs eager {}",
            cg.base.objective,
            eager.base.objective
        );
    }

    /// Two prescribed flows contending on an edge that no priced flow can
    /// reach: the edge is on no hop-feasible subgraph, so its capacity rows
    /// exist only because seed routes count — without them the master
    /// would let both flows through at once.
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
            let solve = |columns| {
                let cfg = FreePathsLpConfig {
                    columns,
                    ..Default::default()
                };
                solve_free_paths_lp_paths(&inst, &cfg)
                    .unwrap()
                    .base
                    .objective
            };
            let (delayed, eager) = (solve(ColumnMode::Delayed), solve(ColumnMode::Eager));
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

    /// A flow frozen at size 0 (completed, in an online residual) loads
    /// nothing, but its route keeps its capacity rows: the row set must not
    /// change at every completion, or the row indices a warm start
    /// remembers would shift with it.
    #[test]
    fn frozen_flow_routes_keep_their_capacity_rows() {
        use coflow_net::graph::{Graph, NodeId as N};
        let mut g = Graph::with_nodes(4);
        let done = g.add_edge(N(0), N(1), 1.0);
        let idle = g.add_edge(N(1), N(0), 1.0);
        let live = g.add_edge(N(2), N(3), 1.0);
        let frozen = FlowSpec::with_path(N(0), N(1), 0.0, 0.0, Path::new(vec![done]));
        let inst = Instance::new(
            g,
            vec![Coflow::new(
                1.0,
                vec![frozen, FlowSpec::new(N(2), N(3), 1.0, 0.0)],
            )],
        );
        let cfg = FreePathsLpConfig::default();
        let grid = IntervalGrid::cover(cfg.eps, inst.horizon());
        let master = DelayedMaster::seed(&inst, &cfg, grid, &mut PathPool::new()).unwrap();
        let rows = master.lp.cap_rows(0);
        assert!(rows[done.index()].is_some() && rows[live.index()].is_some());
        assert!(rows[idle.index()].is_none(), "no route, no priced subgraph");
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
        let cfg = FreePathsLpConfig {
            columns: ColumnMode::Delayed,
            ..Default::default()
        };
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
            columns: ColumnMode::Delayed,
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
            let eager_cfg = FreePathsLpConfig {
                columns: ColumnMode::Eager,
                ..cfg.clone()
            };
            let grid = IntervalGrid::cover(cfg.eps, h * s);
            let eager =
                solve_free_paths_lp_paths_on_grid(&inst, &eager_cfg, grid, &mut WarmChain::new())
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
            columns: ColumnMode::Delayed,
            path_slack: 1,
            ..Default::default()
        };
        let lp = solve_free_paths_lp_paths(&inst, &cfg).unwrap();
        match &lp.routing[0] {
            FlowRouting::PathWeights { paths, .. } => {
                assert_eq!(paths.len(), 1);
                assert_eq!(paths[0], p);
            }
            _ => panic!("expected path weights"),
        }
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

    /// Concurrent pricing oracles must not perturb colgen determinism:
    /// the oracle fan-out partitions the per-(flow, interval) work items
    /// across scoped workers but injects results serially in item order,
    /// so the [`PathPool`] contents — group by group, in insertion order —
    /// the objective bits, and the round count must be identical at any
    /// `solver.threads`.
    #[test]
    fn colgen_column_pool_identical_across_oracle_threads() {
        let t = topo::fat_tree(4, 1.0);
        let mut flows = Vec::new();
        for i in 0..4 {
            flows.push(FlowSpec::new(t.hosts[i], t.hosts[15 - i], 4.0, 0.0));
        }
        let inst = Instance::new(t.graph.clone(), vec![Coflow::new(1.0, flows)]);
        let run = |threads: usize| {
            let cfg = FreePathsLpConfig {
                columns: ColumnMode::Delayed,
                solver: coflow_lp::SolverOptions {
                    threads,
                    ..Default::default()
                },
                ..Default::default()
            };
            let grid = IntervalGrid::cover(cfg.eps, inst.horizon());
            let mut pool = PathPool::new();
            let (cg, stats) = solve_free_paths_lp_colgen_on_grid(
                &inst,
                &cfg,
                grid,
                &mut WarmChain::new(),
                &mut pool,
            )
            .unwrap();
            (cg.base.objective, stats.rounds, stats.generated_cols, pool)
        };
        let (obj1, rounds1, gen1, pool1) = run(1);
        assert!(gen1 > 0, "contention must force column generation");
        for threads in [2, 4] {
            let (obj, rounds, gen, pool) = run(threads);
            assert_eq!(obj.to_bits(), obj1.to_bits(), "objective bits @{threads}");
            assert_eq!(rounds, rounds1, "round count @{threads}");
            assert_eq!(gen, gen1, "generated columns @{threads}");
            assert_eq!(pool.group_count(), pool1.group_count(), "groups @{threads}");
            for g in 0..pool1.group_count() {
                assert_eq!(
                    pool.group(g),
                    pool1.group(g),
                    "pool group {g} ordering differs at {threads} threads"
                );
            }
        }
    }
}
