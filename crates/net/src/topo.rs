//! Topology builders.
//!
//! The paper's running example (Figure 1) is a triangle with unit edge
//! capacities; the experimental evaluation (§4.1) runs on a 128-server
//! fat-tree with 1 Gb/s links. Prior coflow work (Varys, Aalo, [8, 24])
//! assumes a non-blocking switch; `big_switch` builds that special case so
//! the extension module in `coflow-core` can reproduce it.

use crate::graph::{Graph, NodeId};
use rand::{Rng, RngExt};

/// A built topology together with the nodes that act as traffic endpoints
/// ("hosts"). Only hosts are ever used as flow sources/destinations by the
/// workload generators.
#[derive(Clone, Debug)]
pub struct Topology {
    /// The underlying directed graph (bidirectional links are modeled as
    /// opposite directed edge pairs).
    pub graph: Graph,
    /// Endpoint nodes.
    pub hosts: Vec<NodeId>,
    /// Human-readable name, e.g. `fat-tree(k=4)`.
    pub name: String,
}

impl Topology {
    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }
}

/// The triangle network of Figure 1: nodes `x, y, z` and the three
/// *undirected* unit-capacity edges drawn in the figure, modeled as opposite
/// directed pairs. All three nodes are hosts.
///
/// Flows in the figure: `A1` (size 2) and `C` (size 2) on edge `x–y`... —
/// the figure places flows on edges; the instance builder for the example
/// lives in the root crate's `examples/quickstart.rs`.
pub fn triangle() -> Topology {
    let mut g = Graph::new();
    let x = g.add_node();
    let y = g.add_node();
    let z = g.add_node();
    g.add_bidi_edge(x, y, 1.0);
    g.add_bidi_edge(y, z, 1.0);
    g.add_bidi_edge(z, x, 1.0);
    Topology {
        graph: g,
        hosts: vec![x, y, z],
        name: "triangle".into(),
    }
}

/// A directed line `0 -> 1 -> ... -> n-1` with capacity `cap` per edge.
/// Useful for single-edge / chain reductions (Observation 3 reduces
/// `1|pmtn,r_i|Σω_i c_i` to a single edge).
pub fn line(n: usize, cap: f64) -> Topology {
    assert!(n >= 1);
    let mut g = Graph::with_nodes(n);
    for i in 0..n.saturating_sub(1) {
        g.add_edge(NodeId(i as u32), NodeId(i as u32 + 1), cap);
    }
    Topology {
        hosts: g.nodes().collect(),
        graph: g,
        name: format!("line(n={n})"),
    }
}

/// A bidirectional ring on `n` nodes with per-direction capacity `cap`.
pub fn ring(n: usize, cap: f64) -> Topology {
    assert!(n >= 2);
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        let a = NodeId(i as u32);
        let b = NodeId(((i + 1) % n) as u32);
        g.add_bidi_edge(a, b, cap);
    }
    Topology {
        hosts: g.nodes().collect(),
        graph: g,
        name: format!("ring(n={n})"),
    }
}

/// A star: `n` hosts each connected to a central switch by a bidirectional
/// link of capacity `cap`. The unique path property (§2: "any network
/// topology in which there is a unique path between pairs of vertices, e.g.
/// trees or non-blocking switches") makes stars the canonical
/// *paths-are-given* instance family.
pub fn star(n: usize, cap: f64) -> Topology {
    assert!(n >= 1);
    let mut g = Graph::new();
    let center = g.add_node();
    let mut hosts = Vec::with_capacity(n);
    for _ in 0..n {
        let h = g.add_node();
        g.add_bidi_edge(h, center, cap);
        hosts.push(h);
    }
    Topology {
        graph: g,
        hosts,
        name: format!("star(n={n})"),
    }
}

/// A non-blocking `n x n` switch: each host `i` has an *ingress* link
/// (host -> core) and an *egress* link (core -> host), both of capacity
/// `cap`, through an infinitely-fast core. This is exactly the "big switch"
/// model of Varys \[8\] and Qiu–Stein–Zhong \[24\]: the only contention is at
/// the `2n` host ports.
///
/// Implementation: a single core node; ingress edge `host->core` capacity
/// `cap`, egress edge `core->host` capacity `cap`. (The core itself imposes
/// no constraint because every flow uses exactly one ingress and one egress
/// edge.)
pub fn big_switch(n: usize, cap: f64) -> Topology {
    let mut t = star(n, cap);
    t.name = format!("big-switch(n={n})");
    t
}

/// A `k`-ary fat-tree (Al-Fares et al.), the evaluation topology of §4.1.
///
/// * `k` must be even.
/// * `k` pods; each pod has `k/2` edge switches and `k/2` aggregation
///   switches; `(k/2)^2` core switches; `k^3/4` hosts.
/// * `k = 8` gives the paper's 128-server network; `k = 4` gives a
///   16-server miniature with identical structure (4 equal-cost core paths
///   between hosts in different pods).
/// * Every link is bidirectional with capacity `link_cap` in each direction
///   (the paper's 1 Gb/s becomes `link_cap = 1.0`, i.e. capacities are
///   expressed in Gb/s).
pub fn fat_tree(k: usize, link_cap: f64) -> Topology {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree requires even k >= 2, got {k}"
    );
    let half = k / 2;
    let mut g = Graph::new();

    // Core switches: (k/2)^2, switch (i, j) at `i·k/2 + j` for i, j in 0..k/2.
    let core: Vec<NodeId> = (0..half * half).map(|_| g.add_node()).collect();

    let mut hosts = Vec::with_capacity(k * half * half);
    for _ in 0..k {
        // Aggregation and edge switches for this pod.
        let agg: Vec<NodeId> = (0..half).map(|_| g.add_node()).collect();
        let edge: Vec<NodeId> = (0..half).map(|_| g.add_node()).collect();

        // Edge <-> agg full bipartite within the pod.
        for &e in &edge {
            for &a in &agg {
                g.add_bidi_edge(e, a, link_cap);
            }
        }
        // Agg a connects to core row a: cores (a, j) for all j.
        for (a_idx, &a) in agg.iter().enumerate() {
            for j in 0..half {
                g.add_bidi_edge(a, core[a_idx * half + j], link_cap);
            }
        }
        // Hosts under each edge switch.
        for &e in &edge {
            for _ in 0..half {
                let host = g.add_node();
                g.add_bidi_edge(host, e, link_cap);
                hosts.push(host);
            }
        }
    }

    Topology {
        graph: g,
        hosts,
        name: format!("fat-tree(k={k})"),
    }
}

/// A `w x h` bidirectional grid (mesh) with per-direction capacity `cap`.
/// Used by the packet-based experiments; every node is a host.
pub fn grid(w: usize, h: usize, cap: f64) -> Topology {
    assert!(w >= 1 && h >= 1);
    let mut g = Graph::with_nodes(w * h);
    // Node `(x, y)` is id `x·h + y`.
    let id = |x: usize, y: usize| NodeId((x * h + y) as u32);
    for x in 0..w {
        for y in 0..h {
            if x + 1 < w {
                g.add_bidi_edge(id(x, y), id(x + 1, y), cap);
            }
            if y + 1 < h {
                g.add_bidi_edge(id(x, y), id(x, y + 1), cap);
            }
        }
    }
    Topology {
        hosts: g.nodes().collect(),
        graph: g,
        name: format!("grid({w}x{h})"),
    }
}

/// Random host pair (src != dst) drawn uniformly from a topology's hosts.
pub fn random_host_pair<R: Rng>(t: &Topology, rng: &mut R) -> (NodeId, NodeId) {
    assert!(t.host_count() >= 2, "need at least two hosts");
    let i = rng.random_range(0..t.hosts.len());
    let mut j = rng.random_range(0..t.hosts.len() - 1);
    if j >= i {
        j += 1;
    }
    (t.hosts[i], t.hosts[j])
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::paths;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn triangle_shape() {
        let t = triangle();
        assert_eq!(t.graph.node_count(), 3);
        assert_eq!(t.graph.edge_count(), 6); // 3 undirected links
        assert_eq!(t.host_count(), 3);
        assert_eq!(t.graph.min_capacity(), 1.0);
    }

    #[test]
    fn fat_tree_k4_counts() {
        let t = fat_tree(4, 1.0);
        // k=4: 16 hosts, 4 core, 8 agg, 8 edge switches = 36 nodes.
        assert_eq!(t.host_count(), 16);
        assert_eq!(t.graph.node_count(), 36);
        // Links: host-edge 16, edge-agg 4 pods * 2*2 = 16, agg-core 4*2*2=16
        // => 48 undirected => 96 directed.
        assert_eq!(t.graph.edge_count(), 96);
    }

    #[test]
    fn fat_tree_k8_is_paper_testbed() {
        let t = fat_tree(8, 1.0);
        assert_eq!(t.host_count(), 128, "paper evaluates on 128 servers");
        // 16 core + 8 pods * (4 agg + 4 edge) + 128 hosts = 208 nodes.
        assert_eq!(t.graph.node_count(), 208);
        // host-edge 128 + edge-agg 8*16 + agg-core 8*16 = 384 links.
        assert_eq!(t.graph.edge_count(), 768);
    }

    #[test]
    fn fat_tree_all_pairs_connected() {
        let t = fat_tree(4, 1.0);
        for &a in &t.hosts {
            for &b in &t.hosts {
                if a != b {
                    assert!(
                        paths::bfs_shortest_path(&t.graph, a, b).is_some(),
                        "{a:?} -> {b:?} disconnected"
                    );
                }
            }
        }
    }

    #[test]
    fn fat_tree_interpod_distance() {
        let t = fat_tree(4, 1.0);
        // Hosts 0 and 15 are in different pods: host-edge-agg-core-agg-edge-host = 6 hops.
        let p = paths::bfs_shortest_path(&t.graph, t.hosts[0], t.hosts[15]).unwrap();
        assert_eq!(p.len(), 6);
        // Same edge switch: 2 hops.
        let p = paths::bfs_shortest_path(&t.graph, t.hosts[0], t.hosts[1]).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    #[should_panic(expected = "even k")]
    fn fat_tree_odd_k_rejected() {
        fat_tree(3, 1.0);
    }

    #[test]
    fn star_unique_paths() {
        let t = star(4, 1.0);
        assert_eq!(t.host_count(), 4);
        assert_eq!(t.graph.node_count(), 5);
        let ps = paths::enumerate_simple_paths(&t.graph, t.hosts[0], t.hosts[1], 8, 100);
        assert_eq!(ps.len(), 1, "stars have unique host-to-host paths");
        assert_eq!(ps[0].len(), 2);
    }

    #[test]
    fn big_switch_port_capacities() {
        let t = big_switch(3, 2.0);
        for &h in &t.hosts {
            assert_eq!(t.graph.out_degree(h), 1);
            assert_eq!(t.graph.in_degree(h), 1);
            let e = t.graph.out_edges(h)[0];
            assert_eq!(t.graph.capacity(e), 2.0);
        }
    }

    #[test]
    fn grid_counts() {
        let t = grid(3, 2, 1.0);
        assert_eq!(t.graph.node_count(), 6);
        // Undirected: horizontal 2*2=4? w=3,h=2: x-edges (w-1)*h = 4, y-edges w*(h-1) = 3 => 7 links, 14 arcs.
        assert_eq!(t.graph.edge_count(), 14);
    }

    #[test]
    fn ring_and_line() {
        let r = ring(5, 1.0);
        assert_eq!(r.graph.edge_count(), 10);
        let l = line(4, 2.0);
        assert_eq!(l.graph.edge_count(), 3);
        assert_eq!(l.graph.min_capacity(), 2.0);
    }

    #[test]
    fn random_host_pair_distinct() {
        let t = star(5, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let (a, b) = random_host_pair(&t, &mut rng);
            assert_ne!(a, b);
            assert!(t.hosts.contains(&a) && t.hosts.contains(&b));
        }
    }
}
