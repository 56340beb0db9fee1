//! Packet coflows **without given paths** (§3.2): routing and scheduling
//! together.
//!
//! The paper's pipeline: (a) an interval-indexed LP over the time-expanded
//! graph assigns each packet fractional arrival times subject to congestion
//! (28) and dilation (29); (b) packets are filtered to their half-interval;
//! (c) each interval's packets are routed+scheduled by Srinivasan–Teo \[28\]
//! on the collapsed graph (constraints (33)–(36)), achieving `O(τ_{ℓ+2})`
//! per block.
//!
//! Our implementation keeps exactly that structure with two
//! substitutions:
//!
//! * the per-interval LP is expressed over enumerated candidate paths
//!   (length-bounded, so dilation (29) is enforced structurally) instead of
//!   raw edge variables — on our evaluation topologies the path sets are
//!   exhaustive, so the polytope is the same;
//! * the per-block Srinivasan–Teo rounding is Raghavan–Thompson path
//!   sampling (the same technique §2.2 uses) followed by the greedy
//!   `C+D` list scheduler.
//!
//! The exact time-expanded LP of the paper is implemented separately in
//! [`crate::packet::timexp_lp`] and used in tests as the reference bound.
//!
//! [`route_and_schedule`] is the one builder of the packet interval LP: a
//! packet that carries a prescribed path has a one-candidate path set, so
//! §3.1 ([`crate::packet::jobshop::schedule_given_paths`]) is this pipeline
//! on a fully routed instance. Of the circuit LPs it shares only the `C_i`
//! helper: its capacity rows are cumulative and its columns start at a
//! path-dependent interval.

use crate::circuit::path_lp::coflow_completion_vars;
use crate::intervals::IntervalGrid;
use crate::model::Instance;
use crate::objective::{metrics, Metrics};
use crate::packet::jobshop::{horizon_steps, schedule_blocks, BlockStats};
use crate::schedule::PacketSchedule;
use coflow_lp::{LpError, Model, SolverOptions, VarId};
use coflow_net::{paths as netpaths, Path};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for §3.2.
#[derive(Clone, Debug)]
pub struct PacketFreeConfig {
    /// Geometric growth (powers of two in the paper).
    pub eps: f64,
    /// Half-interval parameter.
    pub alpha: f64,
    /// Candidate paths: extra hops over shortest allowed.
    pub path_slack: usize,
    /// Candidate paths: cap per flow.
    pub max_paths: usize,
    /// RNG seed for path sampling.
    pub seed: u64,
    /// Simplex options.
    pub solver: SolverOptions,
}

impl Default for PacketFreeConfig {
    fn default() -> Self {
        Self {
            eps: 1.0,
            alpha: 0.5,
            path_slack: 2,
            max_paths: 16,
            seed: 0,
            solver: SolverOptions::default(),
        }
    }
}

/// Result of the packet pipeline (§3.2, and §3.1 through it).
#[derive(Clone, Debug)]
pub struct PacketFreeResult {
    /// Selected route per packet.
    pub paths: Vec<Path>,
    /// The feasible schedule.
    pub schedule: PacketSchedule,
    /// LP optimum (relaxation lower bound).
    pub lp_objective: f64,
    /// Realized metrics.
    pub metrics: Metrics,
    /// Per-block accounting.
    pub blocks: Vec<BlockStats>,
}

/// Routes and schedules a packet instance. A packet that carries a
/// prescribed path keeps it (a one-candidate path set), which is how §3.1
/// ([`crate::packet::jobshop::schedule_given_paths`]) runs through here.
pub fn route_and_schedule(
    instance: &Instance,
    cfg: &PacketFreeConfig,
) -> Result<PacketFreeResult, LpError> {
    let grid = IntervalGrid::cover(cfg.eps, horizon_steps(instance));
    let nl = grid.count();
    let nf = instance.flow_count();
    let g = &instance.graph;
    let mut m = Model::new();
    let c_cof = coflow_completion_vars(&mut m, instance);

    let mut cand: Vec<Vec<Path>> = Vec::with_capacity(nf);
    // xv[flat][path] = (first usable interval, one variable per interval
    // from there on).
    let mut xv: Vec<Vec<(usize, Vec<VarId>)>> = Vec::with_capacity(nf);

    for (id, flat, spec) in instance.flows() {
        let ps = match &spec.path {
            Some(p) => vec![p.clone()],
            None => netpaths::candidate_paths(g, spec.src, spec.dst, cfg.path_slack, cfg.max_paths),
        };
        let shortest = ps.iter().map(Path::len).min().ok_or_else(|| {
            LpError::Numerical(format!("packet {flat} has no path (disconnected?)"))
        })? as f64;
        let earliest_done = spec.release.ceil() + shortest;
        let cf = m.add_var(
            0.0,
            earliest_done.max(0.0),
            f64::INFINITY,
            format!("c{flat}"),
        );

        // Dilation (29): a packet using path p can only complete in
        // intervals whose end allows r + |p| steps.
        let cols: Vec<(usize, Vec<VarId>)> = ps
            .iter()
            .enumerate()
            .map(|(pi, p)| {
                let first = grid.first_usable(spec.release.ceil() + p.len() as f64);
                let vars = (first..nl)
                    .map(|l| m.add_unit(0.0, format!("x{flat}:{pi}:{l}")))
                    .collect();
                (first, vars)
            })
            .collect();
        let terms: Vec<_> = cols
            .iter()
            .flat_map(|(_, vars)| vars.iter().map(|&v| (v, 1.0)))
            .collect();
        m.eq(&terms, 1.0);
        let mut terms: Vec<_> = cols
            .iter()
            .flat_map(|(first, vars)| (*first..nl).zip(vars).map(|(l, &v)| (v, grid.lower(l))))
            .collect();
        terms.push((cf, -1.0));
        m.le(&terms, 0.0);
        m.le(&[(cf, 1.0), (c_cof[id.coflow as usize], -1.0)], 0.0);

        cand.push(ps);
        xv.push(cols);
    }

    // Cumulative congestion (28): per edge and interval, the packets that
    // finish by τ_{ℓ+1} over a path through the edge number at most τ_{ℓ+1}.
    for l in 0..nl {
        let mut per_edge: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); g.edge_count()];
        for (paths, cols) in cand.iter().zip(&xv) {
            for (p, (first, vars)) in paths.iter().zip(cols) {
                for &v in vars.iter().take((l + 1).saturating_sub(*first)) {
                    for &e in p.edges.iter() {
                        per_edge[e.index()].push((v, 1.0));
                    }
                }
            }
        }
        for terms in &per_edge {
            // Unit coefficients on [0,1] vars: prune rows that cannot bind.
            if terms.len() as f64 > grid.upper(l) {
                m.le(terms, grid.upper(l));
            }
        }
    }

    let sol = m.solve_with(&cfg.solver)?;

    // Half-interval + path sampling per packet.
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut half = Vec::with_capacity(nf);
    let mut chosen: Vec<Path> = Vec::with_capacity(nf);
    for (paths, cols) in cand.iter().zip(&xv) {
        // The α-interval: cumulative mass over intervals, all paths.
        let mut acc = 0.0;
        let mut h = nl - 1;
        for l in 0..nl {
            for (first, vars) in cols {
                if l >= *first {
                    acc += sol.value(vars[l - first]);
                }
            }
            if acc >= cfg.alpha - 1e-9 {
                h = l;
                break;
            }
        }
        half.push(h);
        // Path weights: mass accumulated up to the half interval.
        let weights: Vec<f64> = cols
            .iter()
            .map(|(first, vars)| {
                vars.iter()
                    .take((h + 1).saturating_sub(*first))
                    .map(|&v| sol.value(v))
                    .sum()
            })
            .collect();
        let total: f64 = weights.iter().sum();
        let pick = if total <= 1e-12 {
            0
        } else {
            let mut draw = rng.random::<f64>() * total;
            let mut idx = weights.len() - 1;
            for (i, &w) in weights.iter().enumerate() {
                draw -= w;
                if draw <= 0.0 {
                    idx = i;
                    break;
                }
            }
            idx
        };
        chosen.push(paths[pick].clone());
    }

    let (schedule, blocks) = schedule_blocks(instance, &half, |flat| chosen[flat].clone());
    let completions = schedule.completion_times(instance);
    let mets = metrics(instance, &completions);
    Ok(PacketFreeResult {
        paths: chosen,
        schedule,
        lp_objective: sol.objective,
        metrics: mets,
        blocks,
    })
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_net::topo;

    fn grid_packets(n: usize) -> Instance {
        let t = topo::grid(3, 3, 1.0);
        let coflows: Vec<Coflow> = (0..n)
            .map(|i| {
                let s = t.hosts[(i * 5) % 9];
                let mut d = t.hosts[(i * 7 + 3) % 9];
                if s == d {
                    d = t.hosts[(i * 7 + 4) % 9];
                }
                Coflow::new(
                    1.0 + (i % 3) as f64,
                    vec![FlowSpec::new(s, d, 1.0, (i % 2) as f64)],
                )
            })
            .collect();
        Instance::new(t.graph.clone(), coflows)
    }

    #[test]
    fn end_to_end_feasible() {
        let inst = grid_packets(6);
        let r = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
        let v = r.schedule.check(&inst);
        assert!(v.is_empty(), "{v:?}");
        for (_, flat, spec) in inst.flows() {
            assert!(inst
                .graph
                .is_simple_path(&r.paths[flat], spec.src, spec.dst));
        }
    }

    #[test]
    fn lp_lower_bounds_realized() {
        let inst = grid_packets(5);
        let r = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
        assert!(r.lp_objective <= r.metrics.weighted_sum + 1e-6);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = grid_packets(5);
        let a = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
        let b = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
        assert_eq!(a.paths, b.paths);
        assert_eq!(a.metrics.weighted_sum, b.metrics.weighted_sum);
    }

    #[test]
    fn routing_avoids_hotspot() {
        // 6 packets from corner to corner on a triangle-free mesh: the LP
        // should split them over the two shortest routes; after rounding,
        // at least two distinct paths should be in use.
        let t = topo::grid(2, 2, 1.0);
        let coflows: Vec<Coflow> = (0..6)
            .map(|_| Coflow::new(1.0, vec![FlowSpec::new(t.hosts[0], t.hosts[3], 1.0, 0.0)]))
            .collect();
        let inst = Instance::new(t.graph.clone(), coflows);
        let r = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
        let distinct: std::collections::HashSet<_> =
            r.paths.iter().map(|p| p.edges.clone()).collect();
        assert!(distinct.len() >= 2, "all packets on one route");
        assert!(r.schedule.check(&inst).is_empty());
    }

    #[test]
    fn respects_releases() {
        let t = topo::grid(2, 2, 1.0);
        let inst = Instance::new(
            t.graph.clone(),
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::new(t.hosts[0], t.hosts[3], 1.0, 6.0)],
            )],
        );
        let r = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
        let c = r.schedule.completion_times(&inst);
        assert!(c[0] >= 8.0, "release 6 + 2 hops, got {}", c[0]);
    }

    #[test]
    fn disconnected_packet_is_an_error() {
        let mut g = coflow_net::graph::Graph::new();
        let (a, b, c) = (g.add_node(), g.add_node(), g.add_node());
        g.add_bidi_edge(a, b, 1.0); // c is isolated
        let inst = Instance::new(
            g,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::new(a, b, 1.0, 0.0), FlowSpec::new(a, c, 1.0, 0.0)],
            )],
        );
        let err = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap_err();
        assert!(
            matches!(&err, LpError::Numerical(msg) if msg.contains("packet 1 has no path")),
            "{err:?}"
        );
    }
}
