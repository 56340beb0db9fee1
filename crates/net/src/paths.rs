//! Path search: BFS shortest paths, hop distances, and bounded simple-path
//! enumeration.

use crate::graph::{EdgeId, Graph, NodeId, Path};
use std::collections::VecDeque;

/// Breadth-first shortest path (fewest edges) from `src` to `dst`.
/// Returns `None` if unreachable; the empty path if `src == dst`.
pub fn bfs_shortest_path(g: &Graph, src: NodeId, dst: NodeId) -> Option<Path> {
    if src == dst {
        return Some(Path::empty());
    }
    let mut pred: Vec<Option<EdgeId>> = vec![None; g.node_count()];
    let mut seen = vec![false; g.node_count()];
    seen[src.index()] = true;
    let mut q = VecDeque::new();
    q.push_back(src);
    while let Some(u) = q.pop_front() {
        for &e in g.out_edges(u) {
            let v = g.edge_dst(e);
            if !seen[v.index()] {
                seen[v.index()] = true;
                pred[v.index()] = Some(e);
                if v == dst {
                    return Some(reconstruct(g, &pred, src, dst));
                }
                q.push_back(v);
            }
        }
    }
    None
}

fn reconstruct(g: &Graph, pred: &[Option<EdgeId>], src: NodeId, dst: NodeId) -> Path {
    let mut edges = Vec::new();
    let mut cur = dst;
    while cur != src {
        // lint: allow(no_panic) — callers only reconstruct nodes the search reached
        let e = pred[cur.index()].expect("broken predecessor chain");
        edges.push(e);
        cur = g.edge_src(e);
    }
    edges.reverse();
    Path::new(edges)
}

/// Enumerates simple paths from `src` to `dst` with at most `max_hops`
/// edges, stopping after `max_paths` have been found (DFS order,
/// deterministic). Intended for topologies with small path sets (fat-trees,
/// stars, rings) where path-based LP formulations are used.
pub fn enumerate_simple_paths(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
    max_paths: usize,
) -> Vec<Path> {
    let mut out = Vec::new();
    if max_paths == 0 {
        return out;
    }
    if src == dst {
        out.push(Path::empty());
        return out;
    }
    // Prune: only descend into nodes that can still reach dst within budget.
    let dist_to_dst = reverse_bfs_distances(g, dst);
    let mut on_path = vec![false; g.node_count()];
    on_path[src.index()] = true;
    let mut stack: Vec<EdgeId> = Vec::new();
    dfs_paths(
        g,
        src,
        dst,
        max_hops,
        max_paths,
        &dist_to_dst,
        &mut on_path,
        &mut stack,
        &mut out,
    );
    out
}

/// BFS hop distances *to* `dst` (i.e. on the reversed graph).
pub fn reverse_bfs_distances(g: &Graph, dst: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.node_count()];
    dist[dst.index()] = 0;
    let mut q = VecDeque::new();
    q.push_back(dst);
    while let Some(u) = q.pop_front() {
        let du = dist[u.index()];
        for &e in g.in_edges(u) {
            let v = g.edge_src(e);
            if dist[v.index()] == usize::MAX {
                dist[v.index()] = du + 1;
                q.push_back(v);
            }
        }
    }
    dist
}

#[allow(clippy::too_many_arguments)]
fn dfs_paths(
    g: &Graph,
    u: NodeId,
    dst: NodeId,
    budget: usize,
    max_paths: usize,
    dist_to_dst: &[usize],
    on_path: &mut Vec<bool>,
    stack: &mut Vec<EdgeId>,
    out: &mut Vec<Path>,
) {
    if out.len() >= max_paths {
        return;
    }
    if u == dst {
        out.push(Path::new(stack.clone()));
        return;
    }
    if budget == 0 {
        return;
    }
    for &e in g.out_edges(u) {
        let v = g.edge_dst(e);
        if on_path[v.index()] {
            continue;
        }
        let need = dist_to_dst[v.index()];
        if need == usize::MAX || need + 1 > budget {
            continue; // cannot reach dst within remaining budget
        }
        on_path[v.index()] = true;
        stack.push(e);
        dfs_paths(
            g,
            v,
            dst,
            budget - 1,
            max_paths,
            dist_to_dst,
            on_path,
            stack,
            out,
        );
        stack.pop();
        on_path[v.index()] = false;
        if out.len() >= max_paths {
            return;
        }
    }
}

/// The hop budget of the path space "at most `slack` edges more than a
/// shortest path of `shortest` edges": saturating, and clamped to
/// `node_count − 1`, the most edges a simple path of `g` has. Any `slack` at
/// or above that admits every simple path.
pub fn hop_budget(g: &Graph, shortest: usize, slack: usize) -> usize {
    shortest
        .saturating_add(slack)
        .min(g.node_count().saturating_sub(1))
}

/// Convenience: candidate path set for a source-sink pair — all simple paths
/// within [`hop_budget`] of the shortest, capped at `max_paths`. Returns an
/// empty vec when disconnected.
pub fn candidate_paths(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    slack: usize,
    max_paths: usize,
) -> Vec<Path> {
    match bfs_shortest_path(g, src, dst) {
        None => Vec::new(),
        Some(sp) => {
            let max_hops = hop_budget(g, sp.len(), slack);
            // Enumerate generously, then subsample evenly: plain truncation
            // would keep only paths through the first branch explored (all
            // via one aggregation switch on a fat-tree), starving the LP
            // and the load balancers of route diversity.
            let budget = max_paths.max(64);
            let mut ps = enumerate_simple_paths(g, src, dst, max_hops, budget);
            // Deterministic order: shortest first, then lexicographic edge ids.
            ps.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.edges.cmp(&b.edges)));
            if ps.len() > max_paths {
                let n = ps.len();
                ps = (0..max_paths)
                    .map(|i| ps[i * n / max_paths].clone())
                    .collect();
            }
            ps
        }
    }
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::topo;

    #[test]
    fn bfs_on_triangle() {
        let t = topo::triangle();
        let p = bfs_shortest_path(&t.graph, t.hosts[0], t.hosts[1]).unwrap();
        assert_eq!(p.len(), 1);
        assert!(t.graph.is_simple_path(&p, t.hosts[0], t.hosts[1]));
    }

    #[test]
    fn bfs_same_node_empty() {
        let t = topo::triangle();
        let p = bfs_shortest_path(&t.graph, t.hosts[0], t.hosts[0]).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn bfs_unreachable() {
        let mut g = Graph::with_nodes(2);
        g.add_edge(NodeId(1), NodeId(0), 1.0);
        assert!(bfs_shortest_path(&g, NodeId(0), NodeId(1)).is_none());
    }

    #[test]
    fn enumerate_triangle_paths() {
        let t = topo::triangle();
        // x -> y: direct (1 hop) and via z (2 hops).
        let ps = enumerate_simple_paths(&t.graph, t.hosts[0], t.hosts[1], 2, 10);
        assert_eq!(ps.len(), 2);
        let ps1 = enumerate_simple_paths(&t.graph, t.hosts[0], t.hosts[1], 1, 10);
        assert_eq!(ps1.len(), 1);
    }

    #[test]
    fn enumerate_respects_cap() {
        let t = topo::triangle();
        let ps = enumerate_simple_paths(&t.graph, t.hosts[0], t.hosts[1], 2, 1);
        assert_eq!(ps.len(), 1);
    }

    #[test]
    fn candidate_paths_sorted_shortest_first() {
        let t = topo::triangle();
        let ps = candidate_paths(&t.graph, t.hosts[0], t.hosts[1], 1, 10);
        assert_eq!(ps.len(), 2);
        assert!(ps[0].len() <= ps[1].len());
    }

    #[test]
    fn fat_tree_interpod_path_count() {
        // In a k-ary fat tree, hosts in different pods have (k/2)^2
        // equal-cost shortest paths.
        let t = topo::fat_tree(4, 1.0);
        let ps = candidate_paths(&t.graph, t.hosts[0], t.hosts[15], 0, 64);
        assert_eq!(ps.len(), 4);
        for p in &ps {
            assert_eq!(p.len(), 6);
            assert!(t.graph.is_simple_path(p, t.hosts[0], t.hosts[15]));
        }
        // Same pod, different edge switch: k/2 = 2 paths of length 4.
        let ps = candidate_paths(&t.graph, t.hosts[0], t.hosts[2], 0, 64);
        assert_eq!(ps.len(), 2);
        // Same edge switch: unique 2-hop path.
        let ps = candidate_paths(&t.graph, t.hosts[0], t.hosts[1], 0, 64);
        assert_eq!(ps.len(), 1);
    }

    /// `max_paths` = 32 keeps every inter-pod shortest path of a k=8
    /// fat-tree, (k/2)² = 16, but only half of k=16's 64.
    #[test]
    fn max_paths_binds_between_pods_at_k16_not_k8() {
        for (k, all, kept) in [(8, 16, 16), (16, 64, 32)] {
            let t = topo::fat_tree(k, 1.0);
            let (a, b) = (t.hosts[0], t.hosts[t.hosts.len() - 1]);
            assert_eq!(
                candidate_paths(&t.graph, a, b, 0, usize::MAX).len(),
                all,
                "k={k}"
            );
            let ps = candidate_paths(&t.graph, a, b, 0, 32);
            assert_eq!(ps.len(), kept, "k={k}");
            assert!(ps.iter().all(|p| p.len() == 6));
        }
    }

    #[test]
    fn candidate_paths_disconnected_empty() {
        let g = Graph::with_nodes(2);
        assert!(candidate_paths(&g, NodeId(0), NodeId(1), 2, 10).is_empty());
    }
}
