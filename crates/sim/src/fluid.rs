//! Event-driven fluid simulator.
//!
//! State advances between *events* (flow releases and completions). At each
//! event the allocation policy recomputes all active rates; between events
//! rates are constant, so the realized schedule is piecewise-constant
//! (exactly the Lemma 1 normal form) and is returned as a checkable
//! [`CircuitSchedule`].

use coflow_core::objective::{metrics, Metrics};
use coflow_core::order::Priority;
use coflow_core::schedule::{CircuitSchedule, FlowSchedule, Segment};
use coflow_core::Instance;
use coflow_net::Path;

/// Bandwidth allocation policies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AllocPolicy {
    /// Serve flows in priority order; each gets the full residual
    /// bottleneck of its path ("each flow starts as soon as it can, in the
    /// prescribed order", §4.2). The default.
    #[default]
    GreedyRate,
    /// Progressive-filling max–min fairness across active flows (the
    /// Figure 1 (s1) fair-sharing strawman).
    MaxMinFair,
}

/// Simulator configuration.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// Allocation policy.
    pub policy: AllocPolicy,
}

/// Relative volume tolerance for deeming a flow complete: a flow of size
/// `s` is done once at most `VOL_EPS·(1 + s)` of it remains (shared with
/// the online engine's executor).
pub const VOL_EPS: f64 = 1e-9;

/// Simulation result.
#[derive(Clone, Debug)]
pub struct SimOutcome {
    /// The realized piecewise-constant schedule.
    pub schedule: CircuitSchedule,
    /// Per-flow completion times (flat order).
    pub flow_completion: Vec<f64>,
    /// Objective metrics.
    pub metrics: Metrics,
    /// Number of events processed.
    pub events: usize,
}

/// Greedy priority-order rate allocation (§4.2): each flow in `active`
/// order (highest priority first) takes the full residual bottleneck of its
/// path. A flow whose bottleneck exceeds 1e-12 has its `rates` entry set to
/// it; any other flow's entry is left untouched, so callers pass zeroed
/// rates (as [`simulate`] and the online engine do). `residual` holds
/// per-edge remaining capacity and is consumed.
///
/// Shared by [`simulate`] and the online engine's epoch executor
/// (`coflow-engine`), so both realize identical schedules for identical
/// priority orders.
pub fn greedy_fill(paths: &[Path], active: &[usize], rates: &mut [f64], residual: &mut [f64]) {
    for &f in active {
        let rate = paths[f]
            .edges
            .iter()
            .map(|e| residual[e.index()])
            .fold(f64::INFINITY, f64::min);
        let rate = if rate.is_finite() { rate.max(0.0) } else { 0.0 };
        if rate > 1e-12 {
            rates[f] = rate;
            for e in paths[f].edges.iter() {
                residual[e.index()] -= rate;
            }
        }
    }
}

/// Below this total every partial sum of integral weights is an exact
/// integer, so removing a weight by subtraction gives the same bits as
/// summing what is left afresh.
const EXACT_SUM_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53

/// Weighted progressive-filling max–min fairness across `active` flows.
///
/// `weights[f]` scales flow `f`'s share of every bottleneck (pass `None`
/// for the unweighted fair sharing of [`AllocPolicy::MaxMinFair`]); with
/// all weights 1 this is bit-identical to classic progressive filling.
/// `active` lists distinct flows. Each active flow of positive weight has
/// its fair rate *added* to its `rates` entry (a weight-0 flow's entry is
/// left untouched), so callers pass zeroed rates, as [`simulate`] and the
/// online engine do. `residual` is consumed.
///
/// Once per call, a set-up pass lists the live edges (those an unfrozen
/// flow still crosses), each edge's flows in `active` order and each
/// edge's weight sum, summed in `active` order. A round scans only the
/// live edges, and a flow's path is walked again only when it freezes.
/// Then it adds `delta·w` for each round's `delta` so far to its rate: the
/// same additions, in the same order, as adding to every unfrozen flow
/// each round. When a flow freezes, its weight is subtracted from the sums
/// of the edges it crosses if every weight is integral and their
/// path-weighted total is below 2^53, so that every sum is an exact
/// integer; a round then costs O(live edges + newly frozen flows × (path
/// length + rounds so far)). Otherwise those edges re-sum their unfrozen
/// flows in `active` order, rescanning each such edge's list and dropping
/// the frozen flows from it. Either way every rate and residual is the
/// same to the bit as a round over all flows and all edges.
pub fn fair_fill(
    paths: &[Path],
    active: &[usize],
    weights: Option<&[f64]>,
    rates: &mut [f64],
    residual: &mut [f64],
) {
    let ne = residual.len();
    // The flows that take a share, in `active` order: local flow `i` is
    // `flows[i]`, of weight `ws[i]`. Weight-0 (or negative) flows take no
    // share: leaving them out both defines their rate as 0 and keeps the
    // filling loop terminating (a flow contributing nothing to any edge's
    // weight sum would never saturate or freeze). Exactly the weights
    // `<= 0` are left out: a NaN weight takes part.
    let mut flows: Vec<usize> = Vec::with_capacity(active.len());
    let mut ws: Vec<f64> = Vec::with_capacity(active.len());
    // Per edge: the weight sum of the unfrozen flows crossing it, summed
    // in `active` order, and how many path entries of unfrozen flows cross
    // it (live while > 0).
    let mut wsum = vec![0.0_f64; ne];
    let mut crossings = vec![0_u32; ne];
    let mut live: Vec<usize> = Vec::new();
    let mut integral = true;
    let mut total = 0.0_f64;
    for &f in active {
        let wf = weights.map_or(1.0, |w| w[f]);
        if wf <= 0.0 {
            continue;
        }
        // +0 exactly for a positive integral weight (NaN for an infinite
        // or NaN one).
        integral &= wf.fract().to_bits() == 0;
        flows.push(f);
        ws.push(wf);
        let path = &paths[f].edges;
        for e in path.iter() {
            let e = e.index();
            if crossings[e] == 0 {
                live.push(e);
            }
            crossings[e] += 1;
            wsum[e] += wf;
        }
        // Exact while below 2^53, and at least 2^53 once the true total
        // is: rounding is monotone and 2^53 is a float.
        total += wf * path.len() as f64;
    }
    let n = flows.len();
    let exact = integral && total < EXACT_SUM_LIMIT;
    // Edge -> local flows, one entry per path entry, in `active` order:
    // edge `e`'s flows are `adj[first[e]..end[e]]`.
    let mut first = vec![0_usize; ne];
    let mut end = vec![0_usize; ne];
    let mut len = 0;
    for &e in &live {
        first[e] = len;
        end[e] = len;
        len += crossings[e] as usize;
    }
    let mut adj = vec![0_u32; len];
    for i in 0..n {
        for e in paths[flows[i]].edges.iter() {
            let e = e.index();
            adj[end[e]] = i as u32;
            end[e] += 1;
        }
    }

    // Every round's `delta`, for the flows to add up when they freeze.
    let mut deltas: Vec<f64> = Vec::new();
    let settle = |rate: &mut f64, w: f64, deltas: &[f64]| {
        for &d in deltas {
            *rate += d * w;
        }
    };

    let mut frozen = vec![false; n];
    let mut unfrozen = n;
    let mut newly: Vec<usize> = Vec::new();
    let mut dirty: Vec<usize> = Vec::new();
    let mut is_dirty = vec![false; if exact { 0 } else { ne }];
    // Progressive filling.
    while unfrozen > 0 {
        // Drop the edges no unfrozen flow crosses any more, and raise all
        // unfrozen rates by the smallest fair share of the others.
        let mut delta = f64::INFINITY;
        live.retain(|&e| {
            if crossings[e] == 0 {
                return false;
            }
            if wsum[e] > 0.0 {
                delta = delta.min(residual[e] / wsum[e]);
            }
            true
        });
        if !delta.is_finite() {
            // Every unfrozen flow has an empty path: nothing constrains
            // them, nothing can saturate — stop rather than spin.
            break;
        }
        if delta <= 1e-12 {
            // Saturated: freeze everything on saturated edges.
            delta = delta.max(0.0);
        }
        deltas.push(delta);
        // Take the share from every live edge, and freeze the flows
        // crossing one it saturates.
        newly.clear();
        for &e in &live {
            if wsum[e] > 0.0 {
                residual[e] -= delta * wsum[e];
            }
            if residual[e] <= 1e-9 {
                for &i in &adj[first[e]..end[e]] {
                    let i = i as usize;
                    if !frozen[i] {
                        frozen[i] = true;
                        newly.push(i);
                    }
                }
            }
        }
        if newly.is_empty() && delta <= 1e-12 {
            // No residual and nobody newly frozen: freeze all (below).
            break;
        }
        unfrozen -= newly.len();
        for &i in &newly {
            settle(&mut rates[flows[i]], ws[i], &deltas);
            for e in paths[flows[i]].edges.iter() {
                let e = e.index();
                crossings[e] -= 1;
                if exact {
                    wsum[e] -= ws[i];
                } else if !is_dirty[e] {
                    is_dirty[e] = true;
                    dirty.push(e);
                }
            }
        }
        for e in dirty.drain(..) {
            is_dirty[e] = false;
            if crossings[e] == 0 {
                continue;
            }
            // Sum the unfrozen flows and drop the frozen ones from the
            // edge's list, keeping `active` order.
            let mut s = 0.0_f64;
            let mut kept = first[e];
            for j in first[e]..end[e] {
                let i = adj[j] as usize;
                if !frozen[i] {
                    s += ws[i];
                    adj[kept] = adj[j];
                    kept += 1;
                }
            }
            end[e] = kept;
            wsum[e] = s;
        }
    }
    for i in (0..n).filter(|&i| !frozen[i]) {
        settle(&mut rates[flows[i]], ws[i], &deltas);
    }
}

/// Runs the fluid simulation of (`paths`, `order`) on `instance`.
///
/// # Panics
/// * if `paths`/`order` lengths disagree with the instance;
/// * if the simulation deadlocks (an active flow can never progress —
///   impossible when all path edges have positive capacity);
/// * if it fails to terminate within a generous event budget.
pub fn simulate(
    instance: &Instance,
    paths: &[Path],
    order: &Priority,
    cfg: &SimConfig,
) -> SimOutcome {
    let nf = instance.flow_count();
    assert_eq!(paths.len(), nf, "need one path per flow");
    assert_eq!(order.len(), nf, "need a total order over flows");
    let g = &instance.graph;

    let sizes: Vec<f64> = instance.flows().map(|(_, _, s)| s.size).collect();
    let releases: Vec<f64> = instance.flows().map(|(_, _, s)| s.release).collect();
    let mut remaining = sizes.clone();
    let mut done = vec![false; nf];
    let mut completion = vec![0.0_f64; nf];
    // Zero-size flows complete at release.
    for f in 0..nf {
        if sizes[f] <= 0.0 {
            done[f] = true;
            completion[f] = releases[f];
        }
    }

    let mut schedule = CircuitSchedule {
        flows: paths
            .iter()
            .map(|p| FlowSchedule {
                path: p.clone(),
                segments: Vec::new(),
            })
            .collect(),
    };

    let mut t = 0.0_f64;
    let mut events = 0usize;
    let mut rates = vec![0.0_f64; nf];
    let mut residual = vec![0.0_f64; g.edge_count()];
    let event_budget = 4 * nf + 16;

    loop {
        if done.iter().all(|&d| d) {
            break;
        }
        events += 1;
        assert!(
            events <= event_budget,
            "fluid simulator exceeded event budget (bug)"
        );

        // --- Allocate rates for active flows. ---
        for (e, r) in residual.iter_mut().enumerate() {
            *r = g.capacity(coflow_net::EdgeId(e as u32));
        }
        rates.fill(0.0);
        let active: Vec<usize> = order
            .order
            .iter()
            .copied()
            .filter(|&f| !done[f] && releases[f] <= t + 1e-12)
            .collect();
        match cfg.policy {
            AllocPolicy::GreedyRate => greedy_fill(paths, &active, &mut rates, &mut residual),
            AllocPolicy::MaxMinFair => fair_fill(paths, &active, None, &mut rates, &mut residual),
        }

        // --- Find the next event time. ---
        let mut next_t = f64::INFINITY;
        for &f in &active {
            if rates[f] > 1e-12 {
                next_t = next_t.min(t + remaining[f] / rates[f]);
            }
        }
        for f in 0..nf {
            if !done[f] && releases[f] > t + 1e-12 {
                next_t = next_t.min(releases[f]);
            }
        }
        assert!(
            next_t.is_finite(),
            "fluid simulator deadlocked at t={t}: active flows starved"
        );
        // Guard against zero-length steps from numerical ties.
        let next_t = next_t.max(t + 1e-12);

        // --- Advance, record segments. ---
        for f in 0..nf {
            if rates[f] > 1e-12 {
                push_segment(&mut schedule.flows[f].segments, t, next_t, rates[f]);
                remaining[f] -= rates[f] * (next_t - t);
                let tol = VOL_EPS * (1.0 + sizes[f]);
                if remaining[f] <= tol {
                    remaining[f] = 0.0;
                    done[f] = true;
                    completion[f] = next_t;
                }
            }
        }
        t = next_t;
    }

    let m = metrics(instance, &completion);
    SimOutcome {
        schedule,
        flow_completion: completion,
        metrics: m,
        events,
    }
}

/// Appends a segment, merging with the previous one when contiguous with an
/// identical rate (keeps schedules compact across no-op reallocations).
/// Shared with the online engine's executor so both emit identical
/// schedules for identical rate sequences.
pub fn push_segment(segs: &mut Vec<Segment>, start: f64, end: f64, rate: f64) {
    if let Some(last) = segs.last_mut() {
        if (last.end - start).abs() < 1e-12 && (last.rate - rate).abs() < 1e-12 {
            last.end = end;
            return;
        }
    }
    segs.push(Segment { start, end, rate });
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use coflow_core::model::{Coflow, FlowSpec};
    use coflow_net::{paths, topo, NodeId};

    /// The Figure 1 instance: coflow A = {A1: x->y size 2, A2: y->z size 1},
    /// B = {y->z size 1}, C = {x->y size 2}; unit capacities, unit weights.
    fn figure1() -> (Instance, Vec<Path>) {
        let t = topo::triangle();
        let (x, y, z) = (t.hosts[0], t.hosts[1], t.hosts[2]);
        let inst = Instance::new(
            t.graph.clone(),
            vec![
                Coflow::new(
                    1.0,
                    vec![FlowSpec::new(x, y, 2.0, 0.0), FlowSpec::new(y, z, 1.0, 0.0)],
                ),
                Coflow::new(1.0, vec![FlowSpec::new(y, z, 1.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(x, y, 2.0, 0.0)]),
            ],
        );
        let route: Vec<Path> = inst
            .flows()
            .map(|(_, _, s)| paths::bfs_shortest_path(&inst.graph, s.src, s.dst).unwrap())
            .collect();
        (inst, route)
    }

    #[test]
    fn figure1_s1_fair_sharing_costs_10() {
        let (inst, route) = figure1();
        let out = simulate(
            &inst,
            &route,
            &Priority::identity(4),
            &SimConfig {
                policy: AllocPolicy::MaxMinFair,
            },
        );
        assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
        let total: f64 = out.metrics.coflow_completion.iter().sum();
        assert!(
            (total - 10.0).abs() < 1e-6,
            "fair sharing should cost 10, got {total}"
        );
    }

    #[test]
    fn figure1_s2_priority_a_b_c_costs_8() {
        let (inst, route) = figure1();
        // Order: A1, A2, B, C (flat order is already coflow-major).
        let out = simulate(&inst, &route, &Priority::identity(4), &SimConfig::default());
        assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
        let total: f64 = out.metrics.coflow_completion.iter().sum();
        assert!(
            (total - 8.0).abs() < 1e-6,
            "priority A,B,C should cost 8, got {total}"
        );
        assert_eq!(out.metrics.coflow_completion, vec![2.0, 2.0, 4.0]);
    }

    #[test]
    fn figure1_s3_optimal_order_costs_7() {
        let (inst, route) = figure1();
        // Optimal: B first (y->z), C on x->y, then A1, A2.
        // Flat indices: A1=0, A2=1, B=2, C=3.
        let out = simulate(
            &inst,
            &route,
            &Priority {
                order: vec![2, 3, 0, 1],
            },
            &SimConfig::default(),
        );
        assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
        let total: f64 = out.metrics.coflow_completion.iter().sum();
        assert!((total - 7.0).abs() < 1e-6, "optimal costs 7, got {total}");
        assert_eq!(out.metrics.coflow_completion, vec![4.0, 1.0, 2.0]);
    }

    #[test]
    fn single_flow_full_bottleneck() {
        let t = topo::line(3, 0.5);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(2)).unwrap();
        let inst = Instance::new(
            t.graph.clone(),
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::new(NodeId(0), NodeId(2), 2.0, 1.0)],
            )],
        );
        let out = simulate(&inst, &[p], &Priority::identity(1), &SimConfig::default());
        // Released at 1, rate 0.5 => done at 1 + 4 = 5.
        assert!((out.flow_completion[0] - 5.0).abs() < 1e-9);
        assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    }

    #[test]
    fn greedy_respects_priority_not_index() {
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let mk = || Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0)]);
        let inst = Instance::new(t.graph.clone(), vec![mk(), mk()]);
        // Reverse priority: flow 1 first.
        let out = simulate(
            &inst,
            &[p.clone(), p],
            &Priority { order: vec![1, 0] },
            &SimConfig::default(),
        );
        assert_eq!(out.flow_completion, vec![2.0, 1.0]);
    }

    #[test]
    fn blocked_flow_waits_for_release_of_bandwidth() {
        // Flow 1 (lower priority) shares the edge; starts only after flow 0.
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let inst = Instance::new(
            t.graph.clone(),
            vec![Coflow::new(
                1.0,
                vec![
                    FlowSpec::new(NodeId(0), NodeId(1), 3.0, 0.0),
                    FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0),
                ],
            )],
        );
        let out = simulate(
            &inst,
            &[p.clone(), p],
            &Priority::identity(2),
            &SimConfig::default(),
        );
        assert_eq!(out.flow_completion, vec![3.0, 4.0]);
        // Flow 1's only segment must start at t = 3.
        assert_eq!(out.schedule.flows[1].segments[0].start, 3.0);
    }

    #[test]
    fn staggered_releases_preempt() {
        // Low-priority flow starts at 0; high-priority flow released at 1
        // takes the edge over (preemption via reallocation).
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let inst = Instance::new(
            t.graph.clone(),
            vec![
                Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 5.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 1.0)]),
            ],
        );
        let out = simulate(
            &inst,
            &[p.clone(), p],
            &Priority { order: vec![1, 0] },
            &SimConfig::default(),
        );
        // Flow 1: [1,2]. Flow 0: [0,1] + [2,6] => done at 6.
        assert_eq!(out.flow_completion[1], 2.0);
        assert_eq!(out.flow_completion[0], 6.0);
        assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    }

    #[test]
    fn maxmin_shares_bottleneck_equally() {
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let mk = || Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0)]);
        let inst = Instance::new(t.graph.clone(), vec![mk(), mk()]);
        let out = simulate(
            &inst,
            &[p.clone(), p],
            &Priority::identity(2),
            &SimConfig {
                policy: AllocPolicy::MaxMinFair,
            },
        );
        assert_eq!(out.flow_completion, vec![2.0, 2.0]);
    }

    #[test]
    fn maxmin_unconstrained_flow_gets_more() {
        // Flows: A on shared edge with B; C alone elsewhere gets full rate.
        let t = topo::triangle();
        let (x, y, z) = (t.hosts[0], t.hosts[1], t.hosts[2]);
        let inst = Instance::new(
            t.graph.clone(),
            vec![
                Coflow::new(1.0, vec![FlowSpec::new(x, y, 1.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(x, y, 1.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(y, z, 1.0, 0.0)]),
            ],
        );
        let route: Vec<Path> = inst
            .flows()
            .map(|(_, _, s)| paths::bfs_shortest_path(&inst.graph, s.src, s.dst).unwrap())
            .collect();
        let out = simulate(
            &inst,
            &route,
            &Priority::identity(3),
            &SimConfig {
                policy: AllocPolicy::MaxMinFair,
            },
        );
        assert_eq!(out.flow_completion[2], 1.0, "uncontended flow at full rate");
        assert_eq!(out.flow_completion[0], 2.0);
        assert_eq!(out.flow_completion[1], 2.0);
    }

    #[test]
    fn fair_fill_zero_weight_flow_gets_zero_rate_and_terminates() {
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let paths = vec![p.clone(), p];
        let mut rates = vec![0.0; 2];
        let mut residual = vec![1.0];
        // Flow 1 has weight 0: it must be starved, not spin the filling
        // loop forever; flow 0 takes the whole edge.
        fair_fill(
            &paths,
            &[0, 1],
            Some(&[2.0, 0.0]),
            &mut rates,
            &mut residual,
        );
        assert!((rates[0] - 1.0).abs() < 1e-9, "rates {rates:?}");
        assert_eq!(rates[1], 0.0);
        // All-zero weights: no allocation, no hang.
        let mut rates = vec![0.0; 2];
        let mut residual = vec![1.0];
        let paths2 = vec![
            paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap(),
            paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap(),
        ];
        fair_fill(
            &paths2,
            &[0, 1],
            Some(&[0.0, 0.0]),
            &mut rates,
            &mut residual,
        );
        assert_eq!(rates, vec![0.0, 0.0]);
    }

    #[test]
    fn zero_size_flows_complete_at_release() {
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let inst = Instance::new(
            t.graph.clone(),
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::new(NodeId(0), NodeId(1), 0.0, 3.5)],
            )],
        );
        let out = simulate(&inst, &[p], &Priority::identity(1), &SimConfig::default());
        assert_eq!(out.flow_completion[0], 3.5);
    }

    #[test]
    fn event_count_linearish() {
        // n flows on one edge: greedy serializes => ~2n events.
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let coflows: Vec<Coflow> = (0..20)
            .map(|i| {
                Coflow::new(
                    1.0,
                    vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, i as f64 * 0.1)],
                )
            })
            .collect();
        let inst = Instance::new(t.graph.clone(), coflows);
        let route = vec![p; 20];
        let out = simulate(
            &inst,
            &route,
            &Priority::identity(20),
            &SimConfig::default(),
        );
        assert!(out.events <= 3 * 20 + 16);
        assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    }
}
