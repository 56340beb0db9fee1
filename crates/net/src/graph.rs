//! Core directed multigraph with edge capacities.
//!
//! The representation favors the access patterns of the scheduling
//! algorithms: iterating out/in edges of a node, random access to edge
//! endpoints and capacities by dense id, and cheap cloning of paths (a path
//! is a boxed slice of edge ids).

use std::fmt;

/// Dense node identifier. Nodes are created sequentially by
/// [`Graph::add_node`]; ids index internal arrays directly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Dense edge identifier (see [`Graph::add_edge`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

#[derive(Clone, Debug)]
struct EdgeRec {
    src: NodeId,
    dst: NodeId,
    cap: f64,
}

/// A directed multigraph with `f64` edge capacities.
///
/// Parallel edges and self-loops are permitted (self-loops are never useful
/// for routing but are not rejected; path searches simply ignore them).
///
/// ```
/// use coflow_net::Graph;
/// let mut g = Graph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// let e = g.add_edge(a, b, 2.5);
/// assert_eq!(g.edge_src(e), a);
/// assert_eq!(g.edge_dst(e), b);
/// assert_eq!(g.capacity(e), 2.5);
/// assert_eq!(g.out_edges(a), &[e]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Graph {
    edges: Vec<EdgeRec>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` nodes and no edges.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Self::new();
        for _ in 0..n {
            g.add_node();
        }
        g
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.out_adj.len() as u32);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a directed edge `src -> dst` with capacity `cap` and returns its
    /// id.
    ///
    /// # Panics
    /// Panics if `cap` is negative or NaN, or if either endpoint is out of
    /// range.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, cap: f64) -> EdgeId {
        assert!(
            cap >= 0.0 && cap.is_finite(),
            "capacity must be finite and >= 0, got {cap}"
        );
        assert!(src.index() < self.node_count(), "src node out of range");
        assert!(dst.index() < self.node_count(), "dst node out of range");
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeRec { src, dst, cap });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        id
    }

    /// Adds a pair of opposite directed edges (a "bidirectional link") each
    /// with capacity `cap`; returns `(forward, backward)` ids.
    ///
    /// Datacenter links are full-duplex, so the evaluation topologies (§4.1)
    /// use this for every physical link.
    pub fn add_bidi_edge(&mut self, a: NodeId, b: NodeId, cap: f64) -> (EdgeId, EdgeId) {
        (self.add_edge(a, b, cap), self.add_edge(b, a, cap))
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edge_count() as u32).map(EdgeId)
    }

    /// Source endpoint of `e`.
    #[inline]
    pub fn edge_src(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].src
    }

    /// Destination endpoint of `e`.
    #[inline]
    pub fn edge_dst(&self, e: EdgeId) -> NodeId {
        self.edges[e.index()].dst
    }

    /// `(src, dst)` endpoints of `e`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let r = &self.edges[e.index()];
        (r.src, r.dst)
    }

    /// Capacity `c(e)`.
    #[inline]
    pub fn capacity(&self, e: EdgeId) -> f64 {
        self.edges[e.index()].cap
    }

    /// Minimum edge capacity over the whole graph (`inf` if no edges).
    pub fn min_capacity(&self) -> f64 {
        self.edges
            .iter()
            .map(|e| e.cap)
            .fold(f64::INFINITY, f64::min)
    }

    /// Edges leaving `v`.
    #[inline]
    pub fn out_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.out_adj[v.index()]
    }

    /// Edges entering `v`.
    #[inline]
    pub fn in_edges(&self, v: NodeId) -> &[EdgeId] {
        &self.in_adj[v.index()]
    }

    /// Out-degree of `v`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_adj[v.index()].len()
    }

    /// In-degree of `v`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_adj[v.index()].len()
    }

    /// Looks up an edge from `src` to `dst` (first match among parallel
    /// edges), if any.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_adj[src.index()]
            .iter()
            .copied()
            .find(|&e| self.edge_dst(e) == dst)
    }

    /// Validates that `path` is a contiguous directed walk from `src` to
    /// `dst` using existing edges, with no repeated *nodes* (simple path).
    pub fn is_simple_path(&self, path: &Path, src: NodeId, dst: NodeId) -> bool {
        let Some(&last) = path.edges.last() else {
            return src == dst;
        };
        if self.edge_src(path.edges[0]) != src {
            return false;
        }
        if self.edge_dst(last) != dst {
            return false;
        }
        let mut seen = vec![false; self.node_count()];
        seen[src.index()] = true;
        let mut cur = src;
        for &e in path.edges.iter() {
            if self.edge_src(e) != cur {
                return false;
            }
            cur = self.edge_dst(e);
            if seen[cur.index()] {
                return false;
            }
            seen[cur.index()] = true;
        }
        cur == dst
    }

    /// Bottleneck (minimum) capacity along `path`; `inf` for the empty path.
    pub fn path_bottleneck(&self, path: &Path) -> f64 {
        path.edges
            .iter()
            .map(|&e| self.capacity(e))
            .fold(f64::INFINITY, f64::min)
    }
}

/// A directed path, stored as the sequence of edge ids traversed.
///
/// The empty path (used when source equals destination) is permitted.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Path {
    /// Edges in traversal order.
    pub edges: Box<[EdgeId]>,
}

impl Path {
    /// Builds a path from a vector of edge ids.
    pub fn new(edges: Vec<EdgeId>) -> Self {
        Self {
            edges: edges.into_boxed_slice(),
        }
    }

    /// The empty path.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Number of edges (the path's *dilation* contribution).
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if the path has no edges.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Node sequence `src, ..., dst` of the path within `g`
    /// (length `len() + 1`); empty for the empty path.
    pub fn nodes(&self, g: &Graph) -> Vec<NodeId> {
        if self.edges.is_empty() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.edges.len() + 1);
        out.push(g.edge_src(self.edges[0]));
        for &e in self.edges.iter() {
            out.push(g.edge_dst(e));
        }
        out
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Path[")?;
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{:?}", e)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;

    fn two_node() -> (Graph, NodeId, NodeId, EdgeId) {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let e = g.add_edge(a, b, 1.0);
        (g, a, b, e)
    }

    #[test]
    fn add_and_query_nodes_edges() {
        let (g, a, b, e) = two_node();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_src(e), a);
        assert_eq!(g.edge_dst(e), b);
        assert_eq!(g.endpoints(e), (a, b));
        assert_eq!(g.capacity(e), 1.0);
        assert_eq!(g.min_capacity(), 1.0);
        assert_eq!(g.out_degree(a), 1);
        assert_eq!(g.in_degree(b), 1);
        assert_eq!(g.out_degree(b), 0);
        assert_eq!(g.in_degree(a), 0);
    }

    #[test]
    fn bidi_edge_creates_opposite_pair() {
        let mut g = Graph::with_nodes(2);
        let (f, r) = g.add_bidi_edge(NodeId(0), NodeId(1), 3.0);
        assert_eq!(g.edge_src(f), NodeId(0));
        assert_eq!(g.edge_dst(f), NodeId(1));
        assert_eq!(g.edge_src(r), NodeId(1));
        assert_eq!(g.edge_dst(r), NodeId(0));
        assert_eq!(g.capacity(f), 3.0);
        assert_eq!(g.capacity(r), 3.0);
    }

    #[test]
    fn parallel_edges_allowed() {
        let mut g = Graph::with_nodes(2);
        let e1 = g.add_edge(NodeId(0), NodeId(1), 1.0);
        let e2 = g.add_edge(NodeId(0), NodeId(1), 2.0);
        assert_ne!(e1, e2);
        assert_eq!(g.out_edges(NodeId(0)).len(), 2);
        // find_edge returns the first parallel edge.
        assert_eq!(g.find_edge(NodeId(0), NodeId(1)), Some(e1));
    }

    #[test]
    fn find_edge_absent() {
        let (g, a, b, _) = two_node();
        assert_eq!(g.find_edge(b, a), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be finite")]
    fn negative_capacity_rejected() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), -1.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be finite")]
    fn nan_capacity_rejected() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(0), NodeId(1), f64::NAN);
    }

    #[test]
    fn min_capacity_empty_graph_is_infinite() {
        let g = Graph::new();
        assert!(g.min_capacity().is_infinite());
    }

    #[test]
    fn path_nodes_and_bottleneck() {
        let mut g = Graph::with_nodes(3);
        let e0 = g.add_edge(NodeId(0), NodeId(1), 2.0);
        let e1 = g.add_edge(NodeId(1), NodeId(2), 0.5);
        let p = Path::new(vec![e0, e1]);
        assert_eq!(p.nodes(&g), vec![NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(g.path_bottleneck(&p), 0.5);
        assert!(g.is_simple_path(&p, NodeId(0), NodeId(2)));
        assert!(!g.is_simple_path(&p, NodeId(1), NodeId(2)));
    }

    #[test]
    fn empty_path_semantics() {
        let g = Graph::with_nodes(1);
        let p = Path::empty();
        assert!(p.is_empty());
        assert!(g.is_simple_path(&p, NodeId(0), NodeId(0)));
        assert!(g.path_bottleneck(&p).is_infinite());
        assert!(p.nodes(&g).is_empty());
    }

    #[test]
    fn non_simple_path_rejected() {
        // 0 -> 1 -> 0 revisits node 0.
        let mut g = Graph::with_nodes(2);
        let e0 = g.add_edge(NodeId(0), NodeId(1), 1.0);
        let e1 = g.add_edge(NodeId(1), NodeId(0), 1.0);
        let p = Path::new(vec![e0, e1]);
        assert!(!g.is_simple_path(&p, NodeId(0), NodeId(0)));
    }

    #[test]
    fn discontiguous_path_rejected() {
        let mut g = Graph::with_nodes(4);
        let e0 = g.add_edge(NodeId(0), NodeId(1), 1.0);
        let e1 = g.add_edge(NodeId(2), NodeId(3), 1.0);
        let p = Path::new(vec![e0, e1]);
        assert!(!g.is_simple_path(&p, NodeId(0), NodeId(3)));
    }
}
