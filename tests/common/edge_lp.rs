//! The paper's §2.2 LP (15)–(23) in its own edge-flow form, as a reference
//! for the library's path LP.
//!
//! Per flow `f` and usable interval `ℓ`: a completed fraction
//! `x_{fℓ} ∈ [0, 1]` and a rate `y^e_{fℓ} ≥ 0` on every edge `e`, with
//!
//! * `Σ_ℓ x_{fℓ} = 1` and `Σ_ℓ τ_ℓ x_{fℓ} ≤ c_f ≤ C_i`;
//! * flow conservation: the net rate out of node `v` is `σ_f x_{fℓ} / Δ_ℓ`
//!   at the source, its negative at the destination, and 0 elsewhere;
//! * capacity: `Σ_f y^e_{fℓ} ≤ c(e)`;
//!
//! minimizing `Σ_i ω_i C_i`. It is built from the public `coflow_lp::Model`
//! API alone and shares no code with the library's LP builders, so a bug
//! there cannot hide here too. Its size is `O(F·L·E)`: small instances only.

use coflow::algo::{Instance, IntervalGrid};
use coflow::lp::{Cmp, Model, VarId};

/// The optimum of (15)–(23) for `inst` on the grid of growth `eps` that
/// covers its horizon. Every flow must be free (no prescribed path).
pub fn optimum(inst: &Instance, eps: f64) -> f64 {
    let grid = IntervalGrid::cover(eps, inst.horizon());
    let g = &inst.graph;
    let mut m = Model::new();
    let coflow_c: Vec<VarId> = inst
        .coflows
        .iter()
        .enumerate()
        .map(|(i, c)| m.add_var(c.weight, 0.0, f64::INFINITY, format_args!("C{i}")))
        .collect();
    let mut load: Vec<Vec<Vec<(VarId, f64)>>> =
        vec![vec![Vec::new(); g.edge_count()]; grid.count()];
    for (id, flat, spec) in inst.flows() {
        assert!(spec.path.is_none(), "flow {flat} has a prescribed path");
        let c = m.add_var(0.0, spec.release, f64::INFINITY, format_args!("c{flat}"));
        m.add_row(
            Cmp::Le,
            0.0,
            &[(c, 1.0), (coflow_c[id.coflow as usize], -1.0)],
        );
        let mut sum = Vec::new();
        let mut completion = vec![(c, -1.0)];
        let first = grid.first_usable(spec.release);
        for (l, load) in load.iter_mut().enumerate().skip(first) {
            let x = m.add_unit(0.0, format_args!("x{flat}:{l}"));
            sum.push((x, 1.0));
            completion.push((x, grid.lower(l)));
            // Net rate out of each node.
            let mut net: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); g.node_count()];
            for e in g.edges() {
                let (u, v) = g.endpoints(e);
                let y = m.add_nonneg(0.0, format_args!("y{flat}:{l}:{}", e.index()));
                net[u.index()].push((y, 1.0));
                net[v.index()].push((y, -1.0));
                load[e.index()].push((y, 1.0));
            }
            let demand = spec.size / grid.length(l);
            net[spec.src.index()].push((x, -demand));
            net[spec.dst.index()].push((x, demand));
            for terms in net.iter().filter(|t| !t.is_empty()) {
                m.add_row(Cmp::Eq, 0.0, terms);
            }
        }
        m.add_row(Cmp::Eq, 1.0, &sum);
        m.add_row(Cmp::Le, 0.0, &completion);
    }
    for (e, terms) in load.iter().flat_map(|per_edge| g.edges().zip(per_edge)) {
        if !terms.is_empty() {
            m.add_row(Cmp::Le, g.capacity(e), terms);
        }
    }
    m.solve()
        .expect("the edge LP of a connected instance is feasible")
        .objective
}
