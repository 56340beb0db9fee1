//! The interval-indexed **path LP** — the one skeleton behind §2.1, the
//! path formulation of §2.2 and the packet LP of §3.2 — plus the pieces
//! every interval LP of this crate shares.
//!
//! Per coflow a completion variable `C_i` (weight in the objective); per
//! flow a completion variable `c_f` and, for each of its *routes* `p` and
//! each interval `ℓ` from the route's first on, a fraction
//! `x_{f,p,ℓ} ∈ [0,1]`; rows
//!
//! * (sum) `Σ_{p,ℓ} x_{f,p,ℓ} = 1`,
//! * (cmp) `Σ_{p,ℓ} τ_ℓ x_{f,p,ℓ} <= c_f`,
//! * (prec) `c_f <= C_i`,
//! * (cap) per edge and interval ([`CapRows`]), the circuits' rate rows
//!   `Σ_{f,p ∋ e} σ_f x_{f,p,ℓ} / Δ_ℓ <= c(e)` (§2.1 (7)–(8), and §2.2) or
//!   the packets' congestion rows `Σ_{f,p ∋ e} Σ_{ℓ' <= ℓ} x_{f,p,ℓ'} <=
//!   τ_{ℓ+1}` (§3.2 (28)).
//!
//! [`PathLp::build`] writes that model out once, row-wise, from a per-flow
//! [`FlowRoutes`]: the lower bound of `c_f` and the routes, each with the
//! interval its columns start at. A circuit flow starts every route at its
//! release ([`FlowRoutes::circuit`]); a packet starts route `p` where
//! dilation (29) first lets it finish ([`crate::packet::free`]). A
//! prescribed path is a one-route list (§2.1, [`crate::circuit::lp_given`];
//! §3.1), eager enumeration lists every candidate path, and column
//! generation's restricted master lists its pooled seeds and then grows
//! through [`PathLp::add_route`] ([`crate::circuit::lp_free`]). Variable
//! order, row order and names are the same in all of them, so bases and
//! pivot counts carry over.
//!
//! Eager and generated columns differ only in which rate rows exist: the
//! eager model keeps the rows that can bind over its complete column set;
//! the restricted master has exactly the rows its columns load — the
//! builder writes those of the seed routes, and [`PathLp::add_route`]
//! creates each further `(edge, interval)` row when a generated route is
//! the first to load it — so its size follows what the columns use, not
//! the network.

use crate::circuit::lp_free::{FlowRouting, FreeLpSolution};
use crate::circuit::lp_given::CircuitLpSolution;
use crate::intervals::IntervalGrid;
use crate::model::{FlowSpec, Instance};
use coflow_lp::{Cmp, LpError, Model, RowId, Solution, VarId};
use coflow_net::{EdgeId, Graph, Path};

/// One route of a flow. The id names the route's columns
/// (`x{flat}:{id}:{ℓ}`), so it must be stable wherever a warm start is to
/// map — the enumeration index for eager columns, the
/// [`PathPool`](crate::circuit::lp_free::PathPool) index for pooled ones.
/// The route has one column per interval from `first` on.
pub(crate) struct Route {
    pub(crate) id: u32,
    pub(crate) first: usize,
    pub(crate) path: Path,
}

/// One flow's input to [`PathLp::build`]: the lower bound `earliest` of
/// its completion variable `c_f`, and its routes.
pub(crate) struct FlowRoutes {
    pub(crate) earliest: f64,
    pub(crate) routes: Vec<Route>,
}

impl FlowRoutes {
    /// A circuit flow (§2.1 (9), §2.2): `c_f >= r_f`, and every route
    /// starts at the first interval ending at or after the release.
    pub(crate) fn circuit(
        grid: &IntervalGrid,
        spec: &FlowSpec,
        paths: impl IntoIterator<Item = (u32, Path)>,
    ) -> Self {
        let first = grid.first_usable(spec.release);
        Self {
            earliest: spec.release,
            routes: paths
                .into_iter()
                .map(|(id, path)| Route { id, first, path })
                .collect(),
        }
    }
}

/// The error of a flow whose route list is empty.
pub(crate) fn no_path(flat: usize) -> LpError {
    LpError::Numerical(format!("flow {flat} has no path (disconnected?)"))
}

/// The coflow completion variables `C_i` of any interval LP: cost `ω_i`,
/// lower bound the coflow's earliest release. An empty coflow has no
/// release (`+∞`) and completes at time 0.
pub(crate) fn coflow_completion_vars(m: &mut Model, instance: &Instance) -> Vec<VarId> {
    instance
        .coflows
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let r = c.earliest_release();
            let lb = if r.is_finite() { r.max(0.0) } else { 0.0 };
            m.add_var(c.weight, lb, f64::INFINITY, format_args!("C{i}"))
        })
        .collect()
}

/// Rows (sum), (cmp) and (prec) of flow `flat` over its routes' columns,
/// route-major; returns the `(sum, cmp)` row ids.
fn add_flow_rows(
    m: &mut Model,
    grid: &IntervalGrid,
    flat: usize,
    c_flow: VarId,
    c_coflow: VarId,
    routes: &[RouteCols],
) -> (RowId, RowId) {
    let cols = || {
        routes
            .iter()
            .flat_map(|r| r.vars.iter().copied().zip(r.first..))
    };
    let terms: Vec<_> = cols().map(|(v, _)| (v, 1.0)).collect();
    let sum = m.add_row_named(Cmp::Eq, 1.0, &terms, format_args!("sum{flat}"));
    let mut terms: Vec<_> = cols().map(|(v, l)| (v, grid.lower(l))).collect();
    terms.push((c_flow, -1.0));
    let cmp = m.add_row_named(Cmp::Le, 0.0, &terms, format_args!("cmp{flat}"));
    m.add_row_named(
        Cmp::Le,
        0.0,
        &[(c_flow, 1.0), (c_coflow, -1.0)],
        format_args!("prec{flat}"),
    );
    (sum, cmp)
}

/// The capacity row of edge `ei` in interval `l`.
fn add_cap_row(m: &mut Model, ei: usize, l: usize, rhs: f64, terms: &[(VarId, f64)]) -> RowId {
    m.add_row_named(Cmp::Le, rhs, terms, format_args!("cap{ei}:{l}"))
}

/// Which capacity rows [`PathLp::build`] writes: the circuits' rate rows
/// (`Binding`, `Loaded`) or the packets' congestion rows (`Cumulative`).
pub(crate) enum CapRows {
    /// Only rate rows that could bind: `x ∈ [0,1]`, so a row whose
    /// coefficients sum to at most its right-hand side is redundant.
    Binding,
    /// The restricted master's rate rows: every row a listed route loads, bindable
    /// or not (prescribed paths too: two committed flows contend wherever
    /// they meet), recorded so that [`PathLp::add_route`] can extend them.
    /// A row no column loads is not written: it could not bind and would
    /// report dual 0, which is what pricing reads for a row that does not
    /// exist. `add_route` creates it when a generated route first loads
    /// it. A [`coflow_lp::WarmChain`]'s basis snapshot maps rows by name, so
    /// a row that appears between two solves is just a new row to a warm
    /// start.
    Loaded,
    /// The congestion rows (28), pruned as `Binding`: per edge and interval
    /// `ℓ`, the columns of intervals `ℓ' <= ℓ` on routes through the edge.
    Cumulative,
}

/// The columns of one flow on one route: `vars[k]` is interval `first + k`.
struct RouteCols {
    path: Path,
    first: usize,
    vars: Vec<VarId>,
}

/// One flow's variables and the rows its columns attach to.
struct FlowCols {
    c: VarId,
    sum: RowId,
    cmp: RowId,
    size: f64,
    routes: Vec<RouteCols>,
}

/// The index of a built path LP: which variable and row of the [`Model`]
/// is which `C_i`, `c_f`, `x_{f,p,ℓ}`, (sum), (cmp), (cap).
pub(crate) struct PathLp {
    grid: IntervalGrid,
    c_cof: Vec<VarId>,
    flows: Vec<FlowCols>,
    /// `cap[l * edge_count + e]`, interval-major like the rows themselves,
    /// `None` while no column loads edge `e` in interval `l`; recorded
    /// under [`CapRows::Loaded`] only (no column is ever added to a pruned
    /// model).
    cap: Vec<Option<RowId>>,
    edge_count: usize,
}

impl PathLp {
    /// Builds the path LP of `instance` on `grid` over `routes[flat]`.
    ///
    /// Layout (the eager builder's, which the pinned pivot counts depend
    /// on): all `C_i`; then per flow `c_f`, its `x` route-major, and rows
    /// (sum), (cmp), (prec); then capacity rows interval-major.
    ///
    /// # Errors
    /// [`no_path`] for a flow with an empty route list.
    pub(crate) fn build(
        instance: &Instance,
        grid: IntervalGrid,
        routes: Vec<FlowRoutes>,
        caps: CapRows,
    ) -> Result<(Model, Self), LpError> {
        assert_eq!(
            routes.len(),
            instance.flow_count(),
            "one route list per flow"
        );
        let nl = grid.count();
        let g = &instance.graph;
        let mut m = Model::new();
        let c_cof = coflow_completion_vars(&mut m, instance);

        let mut flows = Vec::with_capacity(routes.len());
        for ((id, flat, spec), FlowRoutes { earliest, routes }) in instance.flows().zip(routes) {
            if routes.is_empty() {
                return Err(no_path(flat));
            }
            let c = m.add_var(0.0, earliest, f64::INFINITY, format_args!("c{flat}"));
            let routes: Vec<RouteCols> = routes
                .into_iter()
                .map(|Route { id, first, path }| RouteCols {
                    vars: (first..nl)
                        .map(|l| m.add_unit(0.0, format_args!("x{flat}:{id}:{l}")))
                        .collect(),
                    path,
                    first,
                })
                .collect();
            let (sum, cmp) =
                add_flow_rows(&mut m, &grid, flat, c, c_cof[id.coflow as usize], &routes);
            flows.push(FlowCols {
                c,
                sum,
                cmp,
                size: spec.size,
                routes,
            });
        }

        let ne = g.edge_count();
        let mut cap = match caps {
            CapRows::Loaded => vec![None; nl * ne],
            CapRows::Binding | CapRows::Cumulative => Vec::new(),
        };
        let mut per_edge: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); ne];
        for l in 0..nl {
            for f in &flows {
                for r in &f.routes {
                    let Some(k) = l.checked_sub(r.first) else {
                        continue;
                    };
                    let (vars, coeff) = match caps {
                        CapRows::Cumulative => (&r.vars[..=k], 1.0),
                        _ if f.size > 0.0 => (&r.vars[k..=k], f.size / grid.length(l)),
                        _ => continue,
                    };
                    for &v in vars {
                        for &e in r.path.edges.iter() {
                            per_edge[e.index()].push((v, coeff));
                        }
                    }
                }
            }
            for (ei, terms) in per_edge.iter_mut().enumerate() {
                if terms.is_empty() {
                    continue;
                }
                let rhs = match caps {
                    CapRows::Cumulative => grid.upper(l),
                    CapRows::Binding | CapRows::Loaded => g.capacity(EdgeId(ei as u32)),
                };
                if let CapRows::Loaded = caps {
                    cap[l * ne + ei] = Some(add_cap_row(&mut m, ei, l, rhs, terms));
                } else if terms.iter().map(|&(_, c)| c).sum::<f64>() > rhs {
                    add_cap_row(&mut m, ei, l, rhs, terms);
                }
                terms.clear();
            }
        }

        let lp = Self {
            grid,
            c_cof,
            flows,
            cap,
            edge_count: ne,
        };
        Ok((m, lp))
    }

    /// The interval grid the LP was built on.
    pub(crate) fn grid(&self) -> &IntervalGrid {
        &self.grid
    }

    /// The (sum) and (cmp) rows of flow `flat`.
    pub(crate) fn flow_rows(&self, flat: usize) -> (RowId, RowId) {
        (self.flows[flat].sum, self.flows[flat].cmp)
    }

    /// Interval `l`'s capacity rows in a [`CapRows::Loaded`] model,
    /// indexed by edge; `None` where no column loads the edge yet.
    pub(crate) fn cap_rows(&self, l: usize) -> &[Option<RowId>] {
        &self.cap[l * self.edge_count..(l + 1) * self.edge_count]
    }

    /// Appends `route` of flow `flat` to a [`CapRows::Loaded`] model, one
    /// column per interval from the route's first; returns how many. A
    /// capacity row the route is the first to load is created, empty, just
    /// before the column that loads it.
    pub(crate) fn add_route(
        &mut self,
        m: &mut Model,
        g: &Graph,
        flat: usize,
        Route { id, first, path }: Route,
    ) -> usize {
        let nl = self.grid.count();
        let ne = self.edge_count;
        let f = &self.flows[flat];
        let mut vars = Vec::with_capacity(nl - first);
        let mut terms: Vec<(RowId, f64)> = Vec::with_capacity(2 + path.len());
        for l in first..nl {
            terms.clear();
            terms.push((f.sum, 1.0));
            terms.push((f.cmp, self.grid.lower(l)));
            if f.size > 0.0 {
                let coeff = f.size / self.grid.length(l);
                for e in path.edges.iter() {
                    let row = *self.cap[l * ne + e.index()]
                        .get_or_insert_with(|| add_cap_row(m, e.index(), l, g.capacity(*e), &[]));
                    terms.push((row, coeff));
                }
            }
            vars.push(m.add_column(0.0, 0.0, 1.0, format_args!("x{flat}:{id}:{l}"), &terms));
        }
        let added = vars.len();
        self.flows[flat]
            .routes
            .push(RouteCols { path, first, vars });
        added
    }

    /// Turns the solver's answer into the LP solution the roundings read:
    /// per flow its routes in insertion order with `w[route][ℓ]`, and
    /// `x[flat][ℓ]` their sum. `iterations` is the pivot count to report
    /// (a column-generation run spans several solves).
    pub(crate) fn extract(self, sol: &Solution, iterations: usize) -> FreeLpSolution {
        let nl = self.grid.count();
        let flow_completion = self.flows.iter().map(|f| sol.value(f.c)).collect();
        let mut xs = Vec::with_capacity(self.flows.len());
        let mut routing = Vec::with_capacity(self.flows.len());
        for f in self.flows {
            let mut x = vec![0.0; nl];
            let mut paths = Vec::with_capacity(f.routes.len());
            let mut w = Vec::with_capacity(f.routes.len());
            for r in f.routes {
                let mut row = vec![0.0; nl];
                for (l, &v) in (r.first..nl).zip(&r.vars) {
                    row[l] = sol.value(v);
                    x[l] += row[l];
                }
                paths.push(r.path);
                w.push(row);
            }
            xs.push(x);
            routing.push(FlowRouting { paths, w });
        }
        FreeLpSolution {
            base: CircuitLpSolution {
                grid: self.grid,
                x: xs,
                flow_completion,
                coflow_completion: self.c_cof.iter().map(|&v| sol.value(v)).collect(),
                objective: sol.objective,
                iterations,
                stats: sol.stats,
            },
            routing,
        }
    }
}
