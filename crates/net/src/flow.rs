//! Network flows: per-edge flow fields and the flow-decomposition theorem.
//!
//! §2.2 of the paper applies "the well-known flow decomposition theorem
//! (see e.g. [Ahuja–Magnanti–Orlin])" to turn fractional LP edge-flows into
//! a set of weighted source–sink paths, which are then sampled by
//! Raghavan–Thompson randomized rounding. The decomposition here peels
//! *thickest* paths first (§4.2), minimizing the number of paths produced.

use crate::graph::{EdgeId, Graph, NodeId, Path};
use crate::paths::widest_path;
use crate::FLOW_EPS;

/// A flow value per edge of a [`Graph`] (indexed by [`EdgeId`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EdgeFlow {
    values: Vec<f64>,
}

impl EdgeFlow {
    /// Zero flow on a graph with `edge_count` edges.
    pub fn zeros(edge_count: usize) -> Self {
        Self {
            values: vec![0.0; edge_count],
        }
    }

    /// Flow on edge `e`.
    #[inline]
    pub fn get(&self, e: EdgeId) -> f64 {
        self.values[e.index()]
    }

    /// Sets flow on edge `e`.
    #[inline]
    pub fn set(&mut self, e: EdgeId, v: f64) {
        self.values[e.index()] = v;
    }

    /// Adds `v` to the flow on edge `e`.
    #[inline]
    pub fn add(&mut self, e: EdgeId, v: f64) {
        self.values[e.index()] += v;
    }

    /// Dense view.
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Net out-flow of node `v` (out minus in).
    pub fn net_out(&self, g: &Graph, v: NodeId) -> f64 {
        let out: f64 = g.out_edges(v).iter().map(|&e| self.get(e)).sum();
        let inn: f64 = g.in_edges(v).iter().map(|&e| self.get(e)).sum();
        out - inn
    }

    /// Total flow leaving `src` net of returning flow — the *value* of an
    /// `src -> dst` flow.
    pub fn value(&self, g: &Graph, src: NodeId) -> f64 {
        self.net_out(g, src)
    }
}

/// A path with an associated flow amount, produced by decomposition.
#[derive(Clone, Debug)]
pub struct WeightedPath {
    /// The path.
    pub path: Path,
    /// Amount of flow carried by this path.
    pub amount: f64,
}

/// Result of decomposing an `src -> dst` flow into paths.
#[derive(Clone, Debug)]
pub struct FlowDecomposition {
    /// Peeled paths, thickest first.
    pub paths: Vec<WeightedPath>,
    /// Flow value that could not be routed on simple `src->dst` paths
    /// (circulations / numerical residue). Zero for acyclic LP solutions.
    pub residual: f64,
}

impl FlowDecomposition {
    /// Total amount carried by the decomposed paths.
    pub fn total(&self) -> f64 {
        self.paths.iter().map(|p| p.amount).sum()
    }
}

/// Decomposes the `src -> dst` flow `f` into at most `E` simple paths by
/// repeatedly peeling the *thickest* path in the support (the §4.2 routine).
///
/// Any leftover flow that forms circulations (possible in degenerate LP
/// bases) is reported in [`FlowDecomposition::residual`] and ignored by
/// callers: circulations deliver nothing, so dropping them only helps.
pub fn decompose_flow(g: &Graph, src: NodeId, dst: NodeId, f: &EdgeFlow) -> FlowDecomposition {
    let mut rem = f.clone();
    let mut paths = Vec::new();
    let target = f.value(g, src).max(0.0);
    let mut delivered = 0.0;
    // Each peel zeroes at least one support edge, so at most E iterations.
    for _ in 0..g.edge_count() {
        if target - delivered <= FLOW_EPS {
            break;
        }
        let Some((path, width)) = widest_path(g, src, dst, |e| rem.get(e), FLOW_EPS) else {
            break;
        };
        if width <= FLOW_EPS || path.is_empty() {
            break;
        }
        // Don't peel more than remains to be delivered (guards against
        // counting circulation flow as deliverable).
        let amount = width.min(target - delivered);
        for &e in path.edges.iter() {
            rem.add(e, -amount);
        }
        delivered += amount;
        paths.push(WeightedPath { path, amount });
    }
    FlowDecomposition {
        paths,
        residual: (target - delivered).max(0.0),
    }
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::topo;

    fn diamond() -> (Graph, NodeId, NodeId, [EdgeId; 4]) {
        // s -> a -> t and s -> b -> t.
        let mut g = Graph::with_nodes(4);
        let (s, a, b, t) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let e0 = g.add_edge(s, a, 2.0);
        let e1 = g.add_edge(a, t, 2.0);
        let e2 = g.add_edge(s, b, 1.0);
        let e3 = g.add_edge(b, t, 1.0);
        (g, s, t, [e0, e1, e2, e3])
    }

    /// The `src -> dst` flow that sends `weights[i % weights.len()]` along
    /// the `i`-th candidate path, and its value.
    pub(super) fn path_sum(
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        weights: &[f64],
    ) -> (EdgeFlow, f64) {
        let mut f = EdgeFlow::zeros(g.edge_count());
        let mut value = 0.0;
        let paths = crate::paths::candidate_paths(g, src, dst, 0, 16);
        for (i, p) in paths.iter().enumerate() {
            let w = weights[i % weights.len()];
            for &e in p.edges.iter() {
                f.add(e, w);
            }
            value += w;
        }
        (f, value)
    }

    #[test]
    fn decompose_diamond_two_paths() {
        let (g, s, t, [e0, e1, e2, e3]) = diamond();
        let mut f = EdgeFlow::zeros(g.edge_count());
        f.set(e0, 2.0);
        f.set(e1, 2.0);
        f.set(e2, 1.0);
        f.set(e3, 1.0);
        let d = decompose_flow(&g, s, t, &f);
        assert_eq!(d.paths.len(), 2);
        assert!((d.total() - 3.0).abs() < 1e-9);
        assert!(d.residual < 1e-9);
        // Thickest first.
        assert!(d.paths[0].amount >= d.paths[1].amount);
        for wp in &d.paths {
            assert!(g.is_simple_path(&wp.path, s, t));
        }
    }

    #[test]
    fn decompose_ignores_circulation() {
        // s -> t flow of 1 plus a 3-cycle a->b->c->a carrying 5.
        let mut g = Graph::with_nodes(5);
        let (s, t, a, b, c) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4));
        let st = g.add_edge(s, t, 1.0);
        let ab = g.add_edge(a, b, 10.0);
        let bc = g.add_edge(b, c, 10.0);
        let ca = g.add_edge(c, a, 10.0);
        let mut f = EdgeFlow::zeros(g.edge_count());
        f.set(st, 1.0);
        f.set(ab, 5.0);
        f.set(bc, 5.0);
        f.set(ca, 5.0);
        let d = decompose_flow(&g, s, t, &f);
        assert_eq!(d.paths.len(), 1);
        assert!((d.total() - 1.0).abs() < 1e-9);
        assert!(d.residual < 1e-9, "cycle flow isn't deliverable value");
    }

    #[test]
    fn decompose_zero_flow() {
        let (g, s, t, _) = diamond();
        let f = EdgeFlow::zeros(g.edge_count());
        let d = decompose_flow(&g, s, t, &f);
        assert!(d.paths.is_empty());
        assert_eq!(d.residual, 0.0);
    }

    #[test]
    fn decompose_split_flow_fractional() {
        // Fractional split typical of LP output: 0.6 / 0.4 across diamond.
        let (g, s, t, [e0, e1, e2, e3]) = diamond();
        let mut f = EdgeFlow::zeros(g.edge_count());
        f.set(e0, 0.6);
        f.set(e1, 0.6);
        f.set(e2, 0.4);
        f.set(e3, 0.4);
        let d = decompose_flow(&g, s, t, &f);
        assert_eq!(d.paths.len(), 2);
        assert!((d.total() - 1.0).abs() < 1e-9);
        assert!((d.paths[0].amount - 0.6).abs() < 1e-9);
    }

    #[test]
    fn decompose_path_sum_roundtrip_fat_tree() {
        // Decomposition of a sum of weighted paths re-delivers its full value.
        let t = topo::fat_tree(4, 1.0);
        let (s, d) = (t.hosts[0], t.hosts[15]);
        let (f, value) = path_sum(&t.graph, s, d, &[0.5, 0.25, 0.125, 0.0625]);
        assert!(value > 0.0);
        let dec = decompose_flow(&t.graph, s, d, &f);
        assert!((dec.total() - value).abs() < 1e-6);
        assert!(dec.residual < 1e-6);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::path_sum;
    use super::*;
    use proptest::prelude::*;

    /// Random small DAG-ish graphs: nodes 0..n, random forward edges.
    fn arb_graph() -> impl Strategy<Value = Graph> {
        (
            3usize..8,
            proptest::collection::vec((0usize..7, 0usize..7, 0.1f64..4.0), 4..20),
        )
            .prop_map(|(n, edges)| {
                let mut g = Graph::with_nodes(n);
                for (a, b, c) in edges {
                    let (a, b) = (a % n, b % n);
                    if a != b {
                        // orient forward to keep plenty of s->t structure
                        let (s, d) = if a < b { (a, b) } else { (b, a) };
                        g.add_edge(NodeId(s as u32), NodeId(d as u32), c);
                    }
                }
                g
            })
    }

    proptest! {
        #[test]
        fn path_sums_decompose(g in arb_graph(), w in proptest::collection::vec(0.1f64..2.0, 1..6)) {
            let s = NodeId(0);
            let t = NodeId((g.node_count() - 1) as u32);
            let (f, value) = path_sum(&g, s, t, &w);
            let d = decompose_flow(&g, s, t, &f);
            // Decomposition delivers the entire flow value.
            prop_assert!((d.total() - value).abs() < 1e-6);
            prop_assert!(d.residual < 1e-6);
            for wp in &d.paths {
                prop_assert!(g.is_simple_path(&wp.path, s, t));
                prop_assert!(wp.amount > 0.0);
            }
        }
    }
}
