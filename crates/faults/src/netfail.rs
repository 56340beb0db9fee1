//! Connectivity-preserving link removal.
//!
//! The [`Graph`](coflow_net::Graph) API deliberately has no edge removal
//! (flat edge ids are load-bearing everywhere), and zeroing a capacity
//! would starve any flow later routed across it — the engine would spin on
//! a flow that can never finish. So link failure is modeled *upstream*:
//! [`drop_links`] rebuilds the topology's graph without the removed
//! bidirectional pairs **before** instance generation, so admission sees
//! the degraded network and every generated flow is routable by
//! construction.

use coflow_net::topo::Topology;
use coflow_net::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Removes up to `count` bidirectional links from `topo`, chosen by a
/// seeded shuffle, skipping any removal that would disconnect the host
/// set. Returns the degraded topology (same node ids, same hosts, edges
/// renumbered in original order) and the number of links actually removed.
///
/// Determinism: same `topo`, `count`, and `seed` produce byte-identical
/// results.
pub fn drop_links(topo: &Topology, count: usize, seed: u64) -> (Topology, usize) {
    let g = &topo.graph;
    // Undirected pairs (a, b), a < b, in first-direction edge order. The
    // in-tree builders create links exclusively with `add_bidi_edge`, but
    // a stray one-way edge would simply never be a removal candidate.
    let mut pairs: Vec<(NodeId, NodeId)> = g
        .edges()
        .filter_map(|e| {
            let (a, b) = g.endpoints(e);
            (a.index() < b.index() && g.find_edge(b, a).is_some()).then_some((a, b))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    pairs.shuffle(&mut rng);

    let mut removed: Vec<(NodeId, NodeId)> = Vec::with_capacity(count);
    for &cand in &pairs {
        if removed.len() == count {
            break;
        }
        removed.push(cand);
        if !hosts_connected(topo, &removed) {
            removed.pop();
        }
    }

    let mut out = Graph::with_nodes(g.node_count());
    for e in g.edges() {
        let (s, d) = g.endpoints(e);
        let gone = removed
            .iter()
            .any(|&(a, b)| (s, d) == (a, b) || (s, d) == (b, a));
        if !gone {
            out.add_edge(s, d, g.capacity(e));
        }
    }
    let n = removed.len();
    (
        Topology {
            graph: out,
            hosts: topo.hosts.clone(),
            name: format!("{}-drop{n}", topo.name),
        },
        n,
    )
}

/// True when every host is reachable from the first host over the links
/// that survive `removed`. Links are symmetric (whole pairs are removed),
/// so single-source reachability covers all host pairs.
fn hosts_connected(topo: &Topology, removed: &[(NodeId, NodeId)]) -> bool {
    let g = &topo.graph;
    let Some(&start) = topo.hosts.first() else {
        return true;
    };
    let mut seen = vec![false; g.node_count()];
    let mut queue = vec![start];
    seen[start.index()] = true;
    while let Some(v) = queue.pop() {
        for &e in g.out_edges(v) {
            let (a, b) = g.endpoints(e);
            let gone = removed
                .iter()
                .any(|&(x, y)| (a, b) == (x, y) || (a, b) == (y, x));
            if gone {
                continue;
            }
            let w = g.edge_dst(e);
            if !seen[w.index()] {
                seen[w.index()] = true;
                queue.push(w);
            }
        }
    }
    topo.hosts.iter().all(|h| seen[h.index()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use coflow_net::topo;

    /// Counts surviving undirected links.
    fn undirected_links(t: &Topology) -> usize {
        let g = &t.graph;
        assert_eq!(g.edge_count() % 2, 0, "links stay paired");
        g.edge_count() / 2
    }

    #[test]
    fn removal_is_deterministic_and_paired() {
        let t = topo::fat_tree(4, 1.0);
        let (a, na) = drop_links(&t, 3, 42);
        let (b, nb) = drop_links(&t, 3, 42);
        assert_eq!(na, 3);
        assert_eq!(na, nb);
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        assert_eq!(undirected_links(&a), undirected_links(&t) - 3);
        assert_eq!(a.name, "fat-tree(k=4)-drop3");
        // Node ids and hosts are untouched.
        assert_eq!(a.graph.node_count(), t.graph.node_count());
        assert_eq!(a.hosts, t.hosts);
    }

    #[test]
    fn hosts_stay_connected_under_heavy_removal() {
        let t = topo::fat_tree(4, 1.0);
        for seed in 0..20 {
            // Ask for far more removals than connectivity can spare; the
            // skip logic must keep every host reachable.
            let (d, n) = drop_links(&t, 40, seed);
            assert!(n > 0, "seed {seed}: some links must be removable");
            assert!(
                hosts_connected(&d, &[]),
                "seed {seed}: hosts disconnected after {n} removals"
            );
        }
    }

    #[test]
    fn line_refuses_any_cut() {
        // Every link of a line is a bridge between hosts: nothing can go.
        let t = topo::line(4, 1.0);
        let (d, n) = drop_links(&t, 2, 7);
        assert_eq!(n, 0);
        assert_eq!(d.graph.edge_count(), t.graph.edge_count());
    }

    #[test]
    fn zero_count_is_identity_on_edges() {
        let t = topo::fat_tree(4, 1.0);
        let (d, n) = drop_links(&t, 0, 1);
        assert_eq!(n, 0);
        assert_eq!(d.graph.edge_count(), t.graph.edge_count());
    }
}
