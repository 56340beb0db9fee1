//! Time-expanded graphs (Ford–Fulkerson 1958), the §3.2 / Figure 2
//! construction.
//!
//! Given `G = (V, E)` and a horizon `T`, the time-expanded graph `G^T` has a
//! node `(v, t)` for every `v ∈ V` and `0 <= t <= T`, a *transit* edge
//! `((u,t), (v,t+1))` for every `(u,v) ∈ E`, and a *queue* edge
//! `((v,t), (v,t+1))` for every `v` — queue edges "simulate packets waiting
//! for one or more rounds at a node" (paper, §3.2).

use crate::graph::{EdgeId, Graph, NodeId};

/// A time-expanded copy of a base graph, with index mappings back and forth.
#[derive(Clone, Debug)]
pub struct TimeExpandedGraph {
    /// The expanded graph. Transit edges have the base edge's capacity;
    /// queue edges have capacity `queue_cap`.
    pub graph: Graph,
    /// Horizon `T`: timestamps run `0..=T`.
    pub horizon: usize,
    /// Number of nodes in the base graph.
    base_nodes: usize,
    /// For each expanded edge: `Some(base_edge)` for transit edges, `None`
    /// for queue edges.
    pub base_edge: Vec<Option<EdgeId>>,
}

impl TimeExpandedGraph {
    /// Builds `G^T` from `base` with timestamps `0..=horizon`.
    ///
    /// `queue_cap` is the capacity assigned to queue edges (the paper treats
    /// queues as unbounded in the LP; pass `f64::MAX / 4.0`-ish or a finite
    /// bound to model bounded queues; packet model uses `usize::MAX` worth).
    pub fn build(base: &Graph, horizon: usize, queue_cap: f64) -> Self {
        let n = base.node_count();
        let mut g = Graph::with_nodes(n * (horizon + 1));
        let mut base_edge = Vec::new();
        for t in 0..horizon {
            // Transit edges.
            for e in base.edges() {
                let (u, v) = base.endpoints(e);
                let from = Self::idx(n, u, t);
                let to = Self::idx(n, v, t + 1);
                g.add_edge(from, to, base.capacity(e));
                base_edge.push(Some(e));
            }
            // Queue edges.
            for v in base.nodes() {
                let from = Self::idx(n, v, t);
                let to = Self::idx(n, v, t + 1);
                g.add_edge(from, to, queue_cap);
                base_edge.push(None);
            }
        }
        Self {
            graph: g,
            horizon,
            base_nodes: n,
            base_edge,
        }
    }

    #[inline]
    fn idx(n: usize, v: NodeId, t: usize) -> NodeId {
        NodeId((t * n + v.index()) as u32)
    }

    /// The expanded node for base node `v` at time `t`.
    #[inline]
    pub fn node_at(&self, v: NodeId, t: usize) -> NodeId {
        assert!(t <= self.horizon);
        Self::idx(self.base_nodes, v, t)
    }

    /// Inverse mapping: `(base node, timestamp)` of an expanded node.
    #[inline]
    pub fn split(&self, x: NodeId) -> (NodeId, usize) {
        let i = x.index();
        (NodeId((i % self.base_nodes) as u32), i / self.base_nodes)
    }

    /// True if `e` is a queue edge `((v,t),(v,t+1))`.
    #[inline]
    pub fn is_queue_edge(&self, e: EdgeId) -> bool {
        self.base_edge[e.index()].is_none()
    }
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::topo;

    #[test]
    fn figure2_shape() {
        // Figure 2 expands a graph to T = 2.
        let t = topo::triangle();
        let tx = TimeExpandedGraph::build(&t.graph, 2, 100.0);
        // Nodes: 3 * (T+1) = 9.
        assert_eq!(tx.graph.node_count(), 9);
        // Edges per layer: 6 transit + 3 queue; 2 layers.
        assert_eq!(tx.graph.edge_count(), 18);
    }

    #[test]
    fn node_mapping_roundtrip() {
        let t = topo::triangle();
        let tx = TimeExpandedGraph::build(&t.graph, 3, 100.0);
        for base in t.graph.nodes() {
            for time in 0..=3 {
                let x = tx.node_at(base, time);
                assert_eq!(tx.split(x), (base, time));
            }
        }
    }

    #[test]
    fn transit_edges_carry_base_capacity() {
        let mut g = Graph::with_nodes(2);
        let e = g.add_edge(NodeId(0), NodeId(1), 2.5);
        let tx = TimeExpandedGraph::build(&g, 2, 9.0);
        let copies: Vec<EdgeId> = tx
            .graph
            .edges()
            .filter(|&c| tx.base_edge[c.index()] == Some(e))
            .collect();
        assert_eq!(copies.len(), 2);
        for c in copies {
            assert_eq!(tx.graph.capacity(c), 2.5);
            assert!(!tx.is_queue_edge(c));
            let (u, v) = tx.graph.endpoints(c);
            let (bu, tu) = tx.split(u);
            let (bv, tv) = tx.split(v);
            assert_eq!(bu, NodeId(0));
            assert_eq!(bv, NodeId(1));
            assert_eq!(tv, tu + 1);
        }
    }

    #[test]
    fn queue_edges_stay_at_node() {
        let g = Graph::with_nodes(2);
        let tx = TimeExpandedGraph::build(&g, 2, 7.0);
        assert_eq!(tx.graph.edge_count(), 4); // 2 queue edges per layer
        for e in tx.graph.edges() {
            assert!(tx.is_queue_edge(e));
            assert_eq!(tx.graph.capacity(e), 7.0);
            let (u, v) = tx.graph.endpoints(e);
            let (bu, tu) = tx.split(u);
            let (bv, tv) = tx.split(v);
            assert_eq!(bu, bv);
            assert_eq!(tv, tu + 1);
        }
    }

    #[test]
    fn paths_through_time_respect_horizon() {
        // A packet can reach (dst, T) only if dist <= T.
        let t = topo::line(4, 1.0);
        let tx = TimeExpandedGraph::build(&t.graph, 2, 100.0);
        let s = tx.node_at(NodeId(0), 0);
        // dst is 3 hops away; horizon 2 => unreachable at any layer.
        for layer in 0..=2 {
            let d = tx.node_at(NodeId(3), layer);
            assert!(crate::paths::bfs_shortest_path(&tx.graph, s, d).is_none());
        }
        let tx3 = TimeExpandedGraph::build(&t.graph, 3, 100.0);
        let s = tx3.node_at(NodeId(0), 0);
        let d = tx3.node_at(NodeId(3), 3);
        let p = crate::paths::bfs_shortest_path(&tx3.graph, s, d).unwrap();
        assert_eq!(p.len(), 3);
    }
}
