//! Online scheduling policies: what the engine asks at every epoch
//! boundary.
//!
//! A policy sees the [`Residual`] instance (remaining sizes, frozen
//! completed flows, releases on the epoch's local clock) and returns an
//! [`EpochPlan`]: routing commitments for flows that do not have a path
//! yet, plus the rate discipline the executor applies until the next
//! boundary. Four implementations span the repo's layers:
//!
//! * [`LpOrder`] — the paper's §2.2 pipeline (path LP → randomized
//!   rounding → LP-completion-time order) re-run on the residual instance,
//!   threading one [`WarmChain`] across epochs so each re-solve starts
//!   from the previous optimal basis;
//! * [`Greedy`] — shortest-remaining-coflow-first (Varys-style SEBF
//!   analogue in the fluid model);
//! * [`WeightedFair`] — weighted max–min fair sharing by coflow weight;
//! * [`Fifo`] — serve coflows in admission order.

use coflow_core::circuit::lp_free::{
    solve_free_paths_lp_colgen_on_grid, solve_free_paths_lp_paths_on_grid, FreePathsLpConfig,
    PathPool,
};
use coflow_core::circuit::round_free::{round_free_paths, FreeRoundingConfig};
use coflow_core::order::lp_order;
use coflow_core::residual::Residual;
use coflow_core::{Instance, IntervalGrid};
use coflow_lp::{ChainStats, ColGenStats, SolveStats, WarmChain};
use coflow_net::{paths as netpaths, Path};

/// What a policy sees at an epoch boundary.
#[derive(Debug)]
pub struct EpochView<'a> {
    /// Wall-clock time of the boundary.
    pub now: f64,
    /// The full (offline) instance, for weights/topology lookups.
    pub original: &'a Instance,
    /// The residual instance at `now` (see [`coflow_core::residual`]).
    pub residual: &'a Residual,
    /// Committed path per **original** flat index (`None` = unrouted).
    pub paths: &'a [Option<Path>],
}

/// Rate discipline until the next epoch boundary. Flow indices are
/// **original** flat indices.
#[derive(Clone, Debug)]
pub enum RatePlan {
    /// Serve active flows greedily in this priority order (highest first);
    /// the executor re-applies the order as flows complete or release
    /// ([`coflow_sim::fluid::greedy_fill`]).
    Ordered(Vec<usize>),
    /// Weighted max–min fair shares with these per-flow weights
    /// ([`coflow_sim::fluid::fair_fill`]).
    Fair(Vec<f64>),
}

/// A policy's answer at an epoch boundary.
#[derive(Clone, Debug)]
pub struct EpochPlan {
    /// Routing commitments `(original flat index, path)` for flows without
    /// a path. The engine rejects re-routing of committed flows.
    pub routes: Vec<(usize, Path)>,
    /// Rate discipline until the next boundary.
    pub rates: RatePlan,
}

/// Why a policy could not produce a plan this epoch.
///
/// A plan failure is an *epoch-local* event, not a run failure: the engine
/// answers it with its degradation ladder (retry → reuse the standing plan
/// → fall back to the solver-free [`Greedy`] — see
/// [`run_trace`](crate::engine::run_trace)).
#[derive(Clone, Debug, PartialEq)]
pub enum PolicyError {
    /// The LP re-solve failed (numerical breakdown past the solver's own
    /// recovery ladder, infeasibility, budget exhaustion before
    /// feasibility, ...).
    Lp(coflow_lp::LpError),
    /// Any other policy-internal failure.
    Other(String),
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyError::Lp(e) => write!(f, "lp: {e}"),
            PolicyError::Other(msg) => f.write_str(msg),
        }
    }
}

impl From<coflow_lp::LpError> for PolicyError {
    fn from(e: coflow_lp::LpError) -> Self {
        PolicyError::Lp(e)
    }
}

/// An online scheduling policy.
pub trait OnlinePolicy {
    /// Display name (stable; used in metrics artifacts).
    fn name(&self) -> &'static str;

    /// Computes the plan for the epoch starting at `view.now`, or reports
    /// why it cannot (the engine's degradation ladder takes over).
    fn plan(&mut self, view: &EpochView<'_>) -> Result<EpochPlan, PolicyError>;

    /// Solver statistics of the last [`OnlinePolicy::plan`] call's LP
    /// re-solve (`None` for solver-free policies).
    fn last_solve(&self) -> Option<SolveStats> {
        None
    }

    /// Aggregate warm-chain statistics across all re-solves so far
    /// (`None` for solver-free policies).
    fn chain_stats(&self) -> Option<ChainStats> {
        None
    }

    /// Column-generation statistics of the last [`OnlinePolicy::plan`]
    /// call's LP re-solve (`None` for solver-free policies and eager
    /// column enumeration).
    fn last_colgen(&self) -> Option<ColGenStats> {
        None
    }
}

/// BFS-shortest-path routes for every live, unrouted flow — the default
/// routing of the solver-free policies, and the routing rung the engine
/// uses when it reuses a stale plan (a reused plan cannot route flows that
/// arrived after it was computed).
pub(crate) fn route_missing(view: &EpochView<'_>) -> Vec<(usize, Path)> {
    let g = &view.original.graph;
    let mut routes = Vec::new();
    for (_, rflat, spec) in view.residual.instance.flows() {
        let oflat = view.residual.flat_map[rflat];
        if view.paths[oflat].is_none() && spec.size > 0.0 {
            let p = netpaths::bfs_shortest_path(g, spec.src, spec.dst)
                // lint: allow(no_panic) — instance validation checked reachability at admission
                .expect("instance validated: destination reachable");
            routes.push((oflat, p));
        }
    }
    routes
}

/// Priority order over original flats from a coflow ranking: coflows in
/// `ranked` order (residual indices), flows within a coflow in flat order.
fn order_by_coflows(residual: &Residual, ranked: &[usize]) -> Vec<usize> {
    let inst = &residual.instance;
    let mut order = Vec::with_capacity(residual.flat_map.len());
    for &rc in ranked {
        for j in 0..inst.coflows[rc].flows.len() {
            let rflat = inst.flat_index(coflow_core::FlowId {
                coflow: rc as u32,
                flow: j as u32,
            });
            order.push(residual.flat_map[rflat]);
        }
    }
    order
}

// ---------------------------------------------------------------------------
// FIFO
// ---------------------------------------------------------------------------

/// First-in-first-out: coflows in admission order, flows within a coflow in
/// flat order, greedy rates.
#[derive(Clone, Copy, Debug, Default)]
pub struct Fifo;

impl OnlinePolicy for Fifo {
    fn name(&self) -> &'static str {
        "Fifo"
    }

    fn plan(&mut self, view: &EpochView<'_>) -> Result<EpochPlan, PolicyError> {
        let ranked: Vec<usize> = (0..view.residual.instance.coflow_count()).collect();
        Ok(EpochPlan {
            routes: route_missing(view),
            rates: RatePlan::Ordered(order_by_coflows(view.residual, &ranked)),
        })
    }
}

// ---------------------------------------------------------------------------
// Greedy (shortest remaining coflow first)
// ---------------------------------------------------------------------------

/// Shortest-remaining-coflow-first (Varys-style): coflows ranked by
/// remaining volume, ties by admission order; greedy rates.
#[derive(Clone, Copy, Debug, Default)]
pub struct Greedy;

impl OnlinePolicy for Greedy {
    fn name(&self) -> &'static str {
        "Greedy"
    }

    fn plan(&mut self, view: &EpochView<'_>) -> Result<EpochPlan, PolicyError> {
        Ok(greedy_plan(view))
    }
}

/// [`Greedy`]'s plan. Infallible, which is what lets the engine end its
/// degradation ladder on it.
pub(crate) fn greedy_plan(view: &EpochView<'_>) -> EpochPlan {
    let inst = &view.residual.instance;
    let size: Vec<f64> = inst.coflows.iter().map(|c| c.total_size()).collect();
    let mut ranked: Vec<usize> = (0..inst.coflow_count()).collect();
    ranked.sort_by(|&a, &b| {
        size[a]
            .partial_cmp(&size[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    EpochPlan {
        routes: route_missing(view),
        rates: RatePlan::Ordered(order_by_coflows(view.residual, &ranked)),
    }
}

// ---------------------------------------------------------------------------
// Weighted fair sharing
// ---------------------------------------------------------------------------

/// Weighted max–min fair sharing: every live flow gets a share proportional
/// to its coflow's weight (the online analogue of the Figure 1 fair-sharing
/// strawman, made weight-aware).
#[derive(Clone, Copy, Debug, Default)]
pub struct WeightedFair;

impl OnlinePolicy for WeightedFair {
    fn name(&self) -> &'static str {
        "WeightedFair"
    }

    fn plan(&mut self, view: &EpochView<'_>) -> Result<EpochPlan, PolicyError> {
        let mut weights = vec![1.0; view.original.flow_count()];
        for (id, flat, _) in view.original.flows() {
            weights[flat] = view.original.coflows[id.coflow as usize].weight.max(1e-9);
        }
        Ok(EpochPlan {
            routes: route_missing(view),
            rates: RatePlan::Fair(weights),
        })
    }
}

// ---------------------------------------------------------------------------
// LP order (the paper's pipeline, re-run per epoch)
// ---------------------------------------------------------------------------

/// The paper's §2.2 pipeline on the residual instance: path LP →
/// randomized rounding (routes for newly arrived flows; committed flows
/// keep their path via the LP's prescribed-path restriction) →
/// LP-completion-time priority order. Consecutive epochs thread one
/// [`WarmChain`], so each re-solve warm-starts from the previous basis —
/// set [`LpOrder::warm`] to `false` to force cold re-solves (for A/B
/// measurements).
///
/// Built by [`LpOrder::colgen`], the re-solves run by column generation
/// and the policy keeps one [`PathPool`] **across
/// epochs**: residual flat indices are stable (admission appends, frozen
/// flows keep their slot), so epoch `k+1`'s restricted master is seeded
/// with every path epochs `0..k` paid pricing rounds to discover — the
/// column-side analogue of the warm-started basis. Set
/// [`LpOrder::pool_reuse`] to `false` to clear the pool (and the chain)
/// every epoch, the cold baseline the pooled mode is measured against.
#[derive(Clone, Debug)]
pub struct LpOrder {
    /// LP configuration (grid ε, candidate-path budget, solver options).
    pub lp_cfg: FreePathsLpConfig,
    /// Rounding configuration (α, displacement, seed, selection).
    pub round_cfg: FreeRoundingConfig,
    /// Warm-start consecutive epoch re-solves (default `true`).
    pub warm: bool,
    /// Keep the generated-column pool across epochs (default `true`;
    /// only meaningful under column generation).
    pub pool_reuse: bool,
    /// Re-solve by column generation ([`LpOrder::colgen`]) rather than
    /// eager enumeration.
    colgen: bool,
    chain: WarmChain,
    pool: PathPool,
    last: Option<SolveStats>,
    last_colgen: Option<ColGenStats>,
}

impl Default for LpOrder {
    fn default() -> Self {
        Self::new(FreePathsLpConfig::default(), FreeRoundingConfig::default())
    }
}

impl LpOrder {
    /// A warm-starting LP policy with the given configurations.
    pub fn new(lp_cfg: FreePathsLpConfig, round_cfg: FreeRoundingConfig) -> Self {
        Self {
            lp_cfg,
            round_cfg,
            warm: true,
            pool_reuse: true,
            colgen: false,
            chain: WarmChain::new(),
            pool: PathPool::new(),
            last: None,
            last_colgen: None,
        }
    }

    /// Same, but every epoch re-solve cold-starts (baseline for measuring
    /// the warm-start win).
    pub fn cold(lp_cfg: FreePathsLpConfig, round_cfg: FreeRoundingConfig) -> Self {
        Self {
            warm: false,
            ..Self::new(lp_cfg, round_cfg)
        }
    }

    /// Column-generation mode with cross-epoch pool (and basis) reuse.
    pub fn colgen(lp_cfg: FreePathsLpConfig, round_cfg: FreeRoundingConfig) -> Self {
        Self {
            colgen: true,
            ..Self::new(lp_cfg, round_cfg)
        }
    }

    /// Column-generation mode that clears the pool *and* the chain every
    /// epoch: the fully cold baseline for the pooled A/B.
    pub fn colgen_cold_pool(lp_cfg: FreePathsLpConfig, round_cfg: FreeRoundingConfig) -> Self {
        Self {
            warm: false,
            pool_reuse: false,
            ..Self::colgen(lp_cfg, round_cfg)
        }
    }

    /// Total paths currently interned in the cross-epoch pool.
    pub fn pooled_paths(&self) -> usize {
        self.pool.len()
    }

    /// Installs a solver fault-injection hook on the policy's warm chain
    /// (`None` removes it). A chaos facility — see
    /// [`coflow_lp::FaultHook`]; production configurations never set one.
    pub fn set_fault_hook(&mut self, hook: Option<Box<dyn coflow_lp::FaultHook>>) {
        self.chain.set_fault_hook(hook);
    }
}

impl OnlinePolicy for LpOrder {
    fn name(&self) -> &'static str {
        "LpOrder"
    }

    fn plan(&mut self, view: &EpochView<'_>) -> Result<EpochPlan, PolicyError> {
        let residual = view.residual;
        let inst = &residual.instance;
        if inst.flow_count() == 0 {
            return Ok(EpochPlan {
                routes: Vec::new(),
                rates: RatePlan::Ordered(Vec::new()),
            });
        }
        if !self.warm {
            self.chain.reset();
        }
        let grid = IntervalGrid::cover(self.lp_cfg.eps, inst.horizon());
        // Residual LPs are feasible by construction, but the *solve* can
        // still fail (numerical breakdown past the solver's recovery
        // ladder, an exhausted budget, injected faults): that surfaces
        // here as a PolicyError for the engine's degradation ladder.
        let lp = if self.colgen {
            if !self.pool_reuse {
                self.pool.clear();
            }
            let (lp, cg) = solve_free_paths_lp_colgen_on_grid(
                inst,
                &self.lp_cfg,
                grid,
                &mut self.chain,
                &mut self.pool,
            )?;
            self.last_colgen = Some(cg);
            lp
        } else {
            self.last_colgen = None;
            solve_free_paths_lp_paths_on_grid(inst, &self.lp_cfg, grid, &mut self.chain)?
        };
        self.last = Some(lp.base.stats);
        let rounding = round_free_paths(inst, &lp, &self.round_cfg);
        let routes = residual
            .flat_map
            .iter()
            .enumerate()
            .filter(|&(rflat, &oflat)| {
                view.paths[oflat].is_none() && !rounding.paths[rflat].is_empty()
            })
            .map(|(rflat, &oflat)| (oflat, rounding.paths[rflat].clone()))
            .collect();
        let order = lp_order(inst, &lp.base)
            .order
            .into_iter()
            .map(|rflat| residual.flat_map[rflat])
            .collect();
        Ok(EpochPlan {
            routes,
            rates: RatePlan::Ordered(order),
        })
    }

    fn last_solve(&self) -> Option<SolveStats> {
        self.last
    }

    fn chain_stats(&self) -> Option<ChainStats> {
        Some(self.chain.stats())
    }

    fn last_colgen(&self) -> Option<ColGenStats> {
        self.last_colgen
    }
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use coflow_core::residual::residual_instance;
    use coflow_core::{Coflow, FlowSpec};
    use coflow_net::{topo, NodeId};

    fn view_fixture(inst: &Instance) -> (Residual, Vec<Option<Path>>) {
        let remaining: Vec<f64> = inst.flows().map(|(_, _, f)| f.size).collect();
        let paths = vec![None; inst.flow_count()];
        let admitted: Vec<usize> = (0..inst.coflow_count()).collect();
        (
            residual_instance(inst, 0.0, &admitted, &remaining, &paths),
            paths,
        )
    }

    fn two_coflow_line() -> Instance {
        let t = topo::line(2, 1.0);
        Instance::new(
            t.graph,
            vec![
                Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 5.0, 0.0)]),
                Coflow::new(3.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0)]),
            ],
        )
    }

    #[test]
    fn greedy_ranks_short_coflows_first() {
        let inst = two_coflow_line();
        let (residual, paths) = view_fixture(&inst);
        let view = EpochView {
            now: 0.0,
            original: &inst,
            residual: &residual,
            paths: &paths,
        };
        let plan = Greedy.plan(&view).unwrap();
        match plan.rates {
            RatePlan::Ordered(o) => assert_eq!(o, vec![1, 0], "size-1 coflow first"),
            _ => panic!("greedy is ordered"),
        }
        assert_eq!(plan.routes.len(), 2, "both flows get routed");
    }

    #[test]
    fn fifo_keeps_admission_order() {
        let inst = two_coflow_line();
        let (residual, paths) = view_fixture(&inst);
        let view = EpochView {
            now: 0.0,
            original: &inst,
            residual: &residual,
            paths: &paths,
        };
        match Fifo.plan(&view).unwrap().rates {
            RatePlan::Ordered(o) => assert_eq!(o, vec![0, 1]),
            _ => panic!("fifo is ordered"),
        }
    }

    #[test]
    fn weighted_fair_uses_coflow_weights() {
        let inst = two_coflow_line();
        let (residual, paths) = view_fixture(&inst);
        let view = EpochView {
            now: 0.0,
            original: &inst,
            residual: &residual,
            paths: &paths,
        };
        match WeightedFair.plan(&view).unwrap().rates {
            RatePlan::Fair(w) => assert_eq!(w, vec![1.0, 3.0]),
            _ => panic!("weighted fair is fair"),
        }
    }

    #[test]
    fn lp_order_prioritizes_heavy_coflow_and_reports_stats() {
        let inst = two_coflow_line();
        let (residual, paths) = view_fixture(&inst);
        let view = EpochView {
            now: 0.0,
            original: &inst,
            residual: &residual,
            paths: &paths,
        };
        let mut pol = LpOrder::default();
        let plan = pol.plan(&view).unwrap();
        match plan.rates {
            RatePlan::Ordered(o) => {
                assert_eq!(o.len(), 2);
                assert_eq!(o[0], 1, "weight-3 size-1 coflow must be served first");
            }
            _ => panic!("lp policy is ordered"),
        }
        assert!(pol.last_solve().is_some());
        assert_eq!(pol.chain_stats().unwrap().solves, 1);
    }

    #[test]
    fn committed_paths_are_not_rerouted() {
        let inst = two_coflow_line();
        let remaining: Vec<f64> = inst.flows().map(|(_, _, f)| f.size).collect();
        let p = netpaths::bfs_shortest_path(&inst.graph, NodeId(0), NodeId(1)).unwrap();
        let paths = vec![Some(p), None];
        let residual = residual_instance(&inst, 0.0, &[0, 1], &remaining, &paths);
        let view = EpochView {
            now: 0.0,
            original: &inst,
            residual: &residual,
            paths: &paths,
        };
        for plan in [
            Fifo.plan(&view).unwrap(),
            Greedy.plan(&view).unwrap(),
            LpOrder::default().plan(&view).unwrap(),
        ] {
            assert!(
                plan.routes.iter().all(|&(f, _)| f != 0),
                "flow 0 already committed"
            );
            assert!(plan.routes.iter().any(|&(f, _)| f == 1));
        }
    }
}
