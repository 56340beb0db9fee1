//! Dual-priced path search for column generation.
//!
//! The pricing step of a path-formulation column generation asks: *given
//! nonnegative per-edge prices derived from the restricted master's row
//! duals, which admissible path has the lowest total price?*
//! [`cheapest_path_hop_bounded`] answers it: the minimum-price path with at
//! most `max_hops` edges (Bellman–Ford layered DP). The hop bound matters
//! for exactness against the eager builders: the §2.2 path LP enumerates
//! candidates up to `shortest + slack` hops, so the oracle must search the
//! *same* path space or column generation could price its way to a
//! different (larger) polytope and a different objective.
//!
//! The DP is **goal-directed**: a walk that has used `h` of its `max_hops`
//! edges and stands on `v` can still arrive only if
//! `hops(v → dst) <= max_hops − h`, so layer `h` relaxes an edge `(u, v)`
//! only when `v` passes that test against the destination's hop field
//! ([`crate::paths::reverse_bfs_distances`]). A call therefore costs the
//! edges of the flow's hop-feasible subgraph — a few dozen on a fat-tree —
//! not `max_hops` sweeps over the fabric. The pruning is exact, not a
//! heuristic: if `(v, h)` can still reach `dst` in budget then so can
//! `(u, h − 1)` for every in-edge `(u, v)`, so every surviving relaxation
//! sees the operands the unpruned DP would, in the same order, and a pruned
//! one can never lie on a returned path.
//!
//! The search is deterministic under cost ties (ascending node order per
//! layer, fixed edge-id iteration order, strict-improvement relaxation):
//! degenerate duals — ubiquitous in interval-indexed coflow LPs, where most
//! links price to exactly zero — must not make generated columns depend on
//! hash order.

use crate::graph::{EdgeId, Graph, NodeId, Path};

/// FNV-1a hash of a path's edge sequence: the interning signature used by
/// `coflow_lp::ColumnPool` at the call sites. Distinct edge sequences get
/// distinct signatures with overwhelming probability; the empty path maps
/// to the FNV offset basis.
pub fn path_signature(p: &Path) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for e in p.edges.iter() {
        for b in e.0.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Reusable workspace for [`cheapest_path_hop_bounded_in`]: the layered
/// Bellman–Ford DP tables and the per-layer frontier lists, retained across
/// oracle calls so steady-state pricing rounds neither allocate nor clear a
/// table per (flow, interval).
///
/// Invariant between calls: every `dist` entry is `∞`, every `pred` entry
/// `None`, every frontier empty. A call writes only the entries its
/// frontiers list and resets exactly those before returning, so reuse can
/// never change results — one scratch per *worker* is safe even under
/// work-stealing item assignment — and a call costs what it touches.
#[derive(Clone, Debug, Default)]
pub struct PathScratch {
    /// Node count the tables are laid out for; a graph of another size
    /// (a degraded topology sharing the scratch) re-initializes them.
    width: usize,
    /// `dist[h * width + v]` = min price over walks `src -> v` with exactly
    /// `h` edges from which `dst` is still reachable within the budget.
    dist: Vec<f64>,
    /// Edge that achieved `dist[h * width + v]` (predecessor chain per hop
    /// layer).
    pred: Vec<Option<EdgeId>>,
    /// `frontier[h]`: the nodes with a finite layer-`h` distance.
    frontier: Vec<Vec<NodeId>>,
    /// Observability tallies (oracle calls, edge relaxations). One scratch
    /// lives per worker, so parallel pricing fan-outs accumulate here
    /// without sharing; the coordinator merges the sets in slot order.
    counters: coflow_obs::CounterSet,
}

impl PathScratch {
    /// The tallies accumulated since the last [`PathScratch::take_counters`].
    pub fn counters(&self) -> &coflow_obs::CounterSet {
        &self.counters
    }

    /// Returns the accumulated tallies and resets them (the merge-then-reset
    /// step of the per-worker counter protocol).
    pub fn take_counters(&mut self) -> coflow_obs::CounterSet {
        let out = self.counters;
        self.counters.clear();
        out
    }
}

/// Minimum-price walk from `src` to `dst` using at most `max_hops` edges,
/// where `price(e) >= 0`. Returns the path and its total price, or `None`
/// when `dst` is unreachable within the hop budget.
///
/// Exact layered DP (Bellman–Ford over hop counts), so it remains correct
/// where plain Dijkstra is not: the cheapest unconstrained path may exceed
/// the hop budget while a pricier short path fits. Ties are broken toward
/// fewer hops, then by the fixed edge iteration order — deterministic, and
/// the minimal-hop minimum-cost walk is always simple (a cycle under
/// nonnegative prices could be removed without raising the cost, and
/// removing it strictly lowers the hop count).
///
/// Computes the destination's hop field and allocates its DP tables per
/// call; hot pricing loops should hold both and call
/// [`cheapest_path_hop_bounded_in`] instead.
///
/// # Panics
/// In debug builds, if `price` returns a negative value.
pub fn cheapest_path_hop_bounded(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    max_hops: usize,
    price: impl Fn(EdgeId) -> f64,
) -> Option<(Path, f64)> {
    let to_dst = crate::paths::reverse_bfs_distances(g, dst);
    let mut ws = PathScratch::default();
    cheapest_path_hop_bounded_in(g, src, dst, &to_dst, max_hops, price, &mut ws)
}

/// [`cheapest_path_hop_bounded`] against a caller-owned [`PathScratch`] and
/// the destination's hop field `to_dst` =
/// [`reverse_bfs_distances`](crate::paths::reverse_bfs_distances)`(g, dst)`,
/// which depends on neither prices nor budget and so is computed once per
/// destination, not per call: identical results, no allocation beyond the
/// returned path, and work proportional to the hop-feasible subgraph.
// lint: hot
pub fn cheapest_path_hop_bounded_in(
    g: &Graph,
    src: NodeId,
    dst: NodeId,
    to_dst: &[usize],
    max_hops: usize,
    price: impl Fn(EdgeId) -> f64,
    ws: &mut PathScratch,
) -> Option<(Path, f64)> {
    ws.counters.bump(coflow_obs::Counter::OracleCalls, 1);
    if src == dst {
        return Some((Path::empty(), 0.0));
    }
    let nv = g.node_count();
    debug_assert_eq!(to_dst.len(), nv, "hop field of another graph");
    if ws.width != nv {
        ws.width = nv;
        ws.dist.clear();
        ws.pred.clear();
    }
    let layers = max_hops + 1;
    if ws.dist.len() < layers * nv {
        ws.dist.resize(layers * nv, f64::INFINITY);
        ws.pred.resize(layers * nv, None);
    }
    if ws.frontier.len() < layers {
        ws.frontier.resize_with(layers, Default::default);
    }
    let PathScratch {
        dist,
        pred,
        frontier,
        counters,
        ..
    } = ws;
    dist[src.index()] = 0.0;
    frontier[0].push(src);
    let mut relaxed = 0u64;
    for h in 1..=max_hops {
        let (done, open) = frontier.split_at_mut(h);
        let (from, reached) = (&mut done[h - 1], &mut open[0]);
        // Ascending node order, as a sweep over `g.nodes()` would visit
        // them: cost ties are broken by relaxation order.
        from.sort_unstable();
        let (prev, cur) = ((h - 1) * nv, h * nv);
        let left = max_hops - h;
        for &u in from.iter() {
            let du = dist[prev + u.index()];
            for &e in g.out_edges(u) {
                let v = g.edge_dst(e);
                if to_dst[v.index()] > left {
                    continue;
                }
                let w = price(e);
                debug_assert!(w >= 0.0, "pricing requires nonnegative edge prices");
                let nd = du + w;
                relaxed += 1;
                let at = cur + v.index();
                if nd < dist[at] {
                    if dist[at].is_infinite() {
                        reached.push(v);
                    }
                    dist[at] = nd;
                    pred[at] = Some(e);
                }
            }
        }
    }
    counters.bump(coflow_obs::Counter::OracleRelaxations, relaxed);
    // Best arrival: minimum cost, ties toward fewer hops.
    let mut best: Option<(usize, f64)> = None;
    for h in 0..layers {
        let d = dist[h * nv + dst.index()];
        if d.is_finite() && best.is_none_or(|(_, bd)| d < bd) {
            best = Some((h, d));
        }
    }
    let found = best.map(|(mut h, cost)| {
        let mut edges = Vec::with_capacity(h);
        let mut cur = dst;
        while h > 0 {
            // lint: allow(no_panic) — best is Some, so the DP table has a full chain to dst
            let e = pred[h * nv + cur.index()].expect("broken hop-DP predecessor chain");
            edges.push(e);
            cur = g.edge_src(e);
            h -= 1;
        }
        debug_assert_eq!(cur, src);
        edges.reverse();
        (Path::new(edges), cost)
    });
    // Restore the between-calls invariant from the frontiers.
    for (h, nodes) in frontier.iter_mut().enumerate().take(layers) {
        for v in nodes.drain(..) {
            dist[h * nv + v.index()] = f64::INFINITY;
            pred[h * nv + v.index()] = None;
        }
    }
    found
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp, clippy::needless_range_loop)]
mod tests {
    use super::*;
    use crate::paths::reverse_bfs_distances;
    use crate::topo;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The reference the goal-directed DP is held to: the same layered
    /// Bellman–Ford over the full `(max_hops + 1) × |V|` table, every layer
    /// a sweep over all nodes in id order, nothing pruned.
    fn full_table_reference(
        g: &Graph,
        src: NodeId,
        dst: NodeId,
        max_hops: usize,
        price: impl Fn(EdgeId) -> f64,
    ) -> Option<(Path, f64)> {
        if src == dst {
            return Some((Path::empty(), 0.0));
        }
        let nv = g.node_count();
        let mut dist = vec![vec![f64::INFINITY; nv]; max_hops + 1];
        let mut pred: Vec<Vec<Option<EdgeId>>> = vec![vec![None; nv]; max_hops + 1];
        dist[0][src.index()] = 0.0;
        for h in 1..=max_hops {
            for u in g.nodes() {
                let du = dist[h - 1][u.index()];
                if du.is_infinite() {
                    continue;
                }
                for &e in g.out_edges(u) {
                    let v = g.edge_dst(e);
                    let nd = du + price(e);
                    if nd < dist[h][v.index()] {
                        dist[h][v.index()] = nd;
                        pred[h][v.index()] = Some(e);
                    }
                }
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for (h, row) in dist.iter().enumerate() {
            let d = row[dst.index()];
            if d.is_finite() && best.is_none_or(|(_, bd)| d < bd) {
                best = Some((h, d));
            }
        }
        let (mut h, cost) = best?;
        let mut edges = Vec::with_capacity(h);
        let mut cur = dst;
        while h > 0 {
            let e = pred[h][cur.index()].unwrap();
            edges.push(e);
            cur = g.edge_src(e);
            h -= 1;
        }
        edges.reverse();
        Some((Path::new(edges), cost))
    }

    /// The pruned DP against the full-table reference on random digraphs
    /// whose prices are mostly exact zeros and exact ties (what degenerate
    /// capacity duals look like), every hop budget 0..=6, through **one**
    /// scratch shared by all cases and by graphs of different node counts:
    /// same path, same cost bits, and the scratch back to its all-∞ state.
    #[test]
    fn goal_directed_dp_matches_full_table_reference() {
        let mut rng = StdRng::seed_from_u64(0x0C0F_1055);
        let mut ws = PathScratch::default();
        let (mut found, mut missed) = (0, 0);
        for case in 0..400 {
            let n = rng.random_range(2..=12usize);
            let mut g = Graph::with_nodes(n);
            for _ in 0..rng.random_range(1..=4 * n) {
                let (a, b) = (rng.random_range(0..n), rng.random_range(0..n));
                g.add_edge(NodeId(a as u32), NodeId(b as u32), 1.0);
            }
            let prices: Vec<f64> = (0..g.edge_count())
                .map(|_| [0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 0.25, 1.5][rng.random_range(0..8usize)])
                .collect();
            let price = |e: EdgeId| prices[e.index()];
            let src = NodeId(rng.random_range(0..n) as u32);
            let dst = NodeId(rng.random_range(0..n) as u32);
            let to_dst = reverse_bfs_distances(&g, dst);
            for max_hops in 0..=6 {
                let got =
                    cheapest_path_hop_bounded_in(&g, src, dst, &to_dst, max_hops, price, &mut ws);
                let want = full_table_reference(&g, src, dst, max_hops, price);
                assert_eq!(
                    got.as_ref().map(|(p, c)| (p, c.to_bits())),
                    want.as_ref().map(|(p, c)| (p, c.to_bits())),
                    "case {case}: {src:?} -> {dst:?} within {max_hops} hops"
                );
                if got.is_some() {
                    found += 1;
                } else {
                    missed += 1;
                }
                assert!(ws.dist.iter().all(|d| d.is_infinite()), "case {case}: dist");
                assert!(ws.pred.iter().all(Option::is_none), "case {case}: pred");
                assert!(
                    ws.frontier.iter().all(Vec::is_empty),
                    "case {case}: frontier"
                );
            }
        }
        assert!(
            found > 500 && missed > 500,
            "{found} found, {missed} missed"
        );
    }

    /// The work bound that makes the oracle affordable at scale: a query
    /// relaxes only edges on some path that still fits the hop budget. On a
    /// fat-tree k=8 an inter-pod pair has 1 + 4 + 16 + 16 + 4 + 1 such
    /// edges (of 768); a budget below the hop distance relaxes nothing.
    #[test]
    fn relaxations_are_bounded_by_the_hop_feasible_subgraph() {
        let t = topo::fat_tree(8, 1.0);
        let (a, b) = (t.hosts[0], t.hosts[127]);
        let to_dst = reverse_bfs_distances(&t.graph, b);
        let mut ws = PathScratch::default();
        let relaxations = |ws: &mut PathScratch| {
            ws.take_counters()
                .get(coflow_obs::Counter::OracleRelaxations)
        };
        let hit = cheapest_path_hop_bounded_in(&t.graph, a, b, &to_dst, 6, |_| 1.0, &mut ws);
        assert_eq!(hit.map(|(p, c)| (p.len(), c)), Some((6, 6.0)));
        assert_eq!(relaxations(&mut ws), 1 + 4 + 16 + 16 + 4 + 1);
        let miss = cheapest_path_hop_bounded_in(&t.graph, a, b, &to_dst, 5, |_| 1.0, &mut ws);
        assert_eq!(miss, None);
        assert_eq!(relaxations(&mut ws), 0, "an over-budget query does no work");
    }

    /// Zero duals everywhere: the oracle must return a shortest-hop path
    /// (any tie), deterministically.
    #[test]
    fn zero_dual_links_pick_shortest_hops_deterministically() {
        let t = topo::fat_tree(4, 1.0);
        let (a, b) = (t.hosts[0], t.hosts[15]);
        let first = cheapest_path_hop_bounded(&t.graph, a, b, 6, |_| 0.0).unwrap();
        assert_eq!(first.1, 0.0);
        assert_eq!(first.0.len(), 6, "inter-pod shortest path has 6 hops");
        assert!(t.graph.is_simple_path(&first.0, a, b));
        for _ in 0..5 {
            let again = cheapest_path_hop_bounded(&t.graph, a, b, 6, |_| 0.0).unwrap();
            assert_eq!(again.0, first.0, "ties must break deterministically");
        }
    }

    /// Degenerate ties: two exactly-equal-cost routes; the oracle returns
    /// one of them, with the right cost, stably.
    #[test]
    fn degenerate_tie_is_stable_and_costed() {
        // 0 -> {1, 2} -> 3, both routes cost 1.0 + 1.0.
        let mut g = crate::graph::Graph::with_nodes(4);
        use crate::graph::NodeId as N;
        let e01 = g.add_edge(N(0), N(1), 1.0);
        g.add_edge(N(0), N(2), 1.0);
        g.add_edge(N(1), N(3), 1.0);
        let e23 = g.add_edge(N(2), N(3), 1.0);
        let (p, c) = cheapest_path_hop_bounded(&g, N(0), N(3), 4, |_| 1.0).unwrap();
        assert_eq!(c, 2.0);
        assert_eq!(p.len(), 2);
        assert_eq!(
            p.edges[0], e01,
            "edge-order tie-break must pick the first branch"
        );
        assert!(!p.edges.contains(&e23));
    }

    /// The hop bound is binding: a cheap long route must be rejected in
    /// favor of the pricier short one, and plain shortest-path reasoning
    /// (Dijkstra) would get this wrong.
    #[test]
    fn hop_bound_rejects_cheap_long_route() {
        let mut g = crate::graph::Graph::with_nodes(5);
        use crate::graph::NodeId as N;
        let direct = g.add_edge(N(0), N(4), 1.0); // price 5
        g.add_edge(N(0), N(1), 1.0); // free detour, 4 hops
        g.add_edge(N(1), N(2), 1.0);
        g.add_edge(N(2), N(3), 1.0);
        g.add_edge(N(3), N(4), 1.0);
        let price = move |e: EdgeId| if e == direct { 5.0 } else { 0.0 };
        let (p, c) = cheapest_path_hop_bounded(&g, N(0), N(4), 4, price).unwrap();
        assert_eq!((p.len(), c), (4, 0.0), "within budget the detour wins");
        let (p, c) = cheapest_path_hop_bounded(&g, N(0), N(4), 2, price).unwrap();
        assert_eq!((p.len(), c), (1, 5.0), "hop bound forces the direct edge");
        assert!(cheapest_path_hop_bounded(&g, N(0), N(4), 0, price).is_none());
    }

    /// A retained scratch must not leak DP rows from an earlier call with
    /// a *larger* hop bound into a later call with a smaller one: the
    /// stale rows hold finite distances whose predecessor chains no
    /// longer exist (regression — this used to panic or return a
    /// beyond-budget path when one scratch served flows with different
    /// hop bounds, as the online engine's epoch re-solves do).
    #[test]
    fn shared_scratch_across_shrinking_hop_bounds() {
        let mut g = crate::graph::Graph::with_nodes(5);
        use crate::graph::NodeId as N;
        let direct = g.add_edge(N(0), N(4), 1.0); // price 5
        g.add_edge(N(0), N(1), 1.0); // free detour, 4 hops
        g.add_edge(N(1), N(2), 1.0);
        g.add_edge(N(2), N(3), 1.0);
        g.add_edge(N(3), N(4), 1.0);
        let price = move |e: EdgeId| if e == direct { 5.0 } else { 0.0 };
        let mut ws = PathScratch::default();
        let to_dst = reverse_bfs_distances(&g, N(4));
        let (p, c) =
            cheapest_path_hop_bounded_in(&g, N(0), N(4), &to_dst, 4, price, &mut ws).unwrap();
        assert_eq!((p.len(), c), (4, 0.0));
        // The scratch now retains 5 DP rows; a 2-hop query through it
        // must match a fresh-scratch solve exactly.
        let shared = cheapest_path_hop_bounded_in(&g, N(0), N(4), &to_dst, 2, price, &mut ws);
        let fresh = cheapest_path_hop_bounded(&g, N(0), N(4), 2, price);
        assert_eq!(shared, fresh);
        assert_eq!(shared.unwrap(), (Path::new(vec![direct]), 5.0));
        // And an unreachable budget must stay unreachable.
        assert!(cheapest_path_hop_bounded_in(&g, N(0), N(4), &to_dst, 0, price, &mut ws).is_none());
    }

    #[test]
    fn same_node_is_the_empty_path() {
        let t = topo::triangle();
        let (p, c) =
            cheapest_path_hop_bounded(&t.graph, t.hosts[0], t.hosts[0], 3, |_| 1.0).unwrap();
        assert!(p.is_empty());
        assert_eq!(c, 0.0);
    }

    #[test]
    fn signatures_distinguish_paths() {
        let t = topo::fat_tree(4, 1.0);
        let ps = crate::paths::candidate_paths(&t.graph, t.hosts[0], t.hosts[15], 0, 16);
        assert_eq!(ps.len(), 4);
        let sigs: std::collections::HashSet<u64> = ps.iter().map(path_signature).collect();
        assert_eq!(sigs.len(), ps.len(), "distinct paths, distinct signatures");
        assert_eq!(path_signature(&ps[0]), path_signature(&ps[0].clone()));
    }
}
