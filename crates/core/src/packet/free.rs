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
//!   raw edge variables. The enumeration keeps at most `max_paths` per
//!   packet, and the cap binds: on 8×8 grids with 160 packets (the
//!   `packet_free_grid8` benchmark's shape) 106–123 packets have more than
//!   16 paths within `path_slack` = 2. So `lp_objective` is the optimum of
//!   the capped LP, which bounds only schedules over the kept paths, not
//!   the paper's LP, until the path set is priced instead of enumerated;
//! * the per-block Srinivasan–Teo rounding is Raghavan–Thompson path
//!   sampling (the same technique §2.2 uses) followed by the greedy
//!   `C+D` list scheduler.
//!
//! The exact time-expanded LP of the paper is implemented separately in
//! [`crate::packet::timexp_lp`] and used in tests as the reference bound.
//!
//! [`route_and_schedule`] builds, reads and rounds through the circuit LPs'
//! skeleton, `circuit::path_lp`'s `PathLp`. The packet LP differs from
//! theirs in its input and its capacity rows only: path `p`'s columns start
//! where dilation (29) first lets it finish, at `⌈r⌉ + |p|`; `c_f` is at
//! least `⌈r⌉` plus the shortest path; and the capacity rows are the
//! cumulative congestion rows (28). The half interval is the circuits'
//! [`alpha_interval`](crate::circuit::lp_given::CircuitLpSolution::alpha_interval),
//! and the path is drawn by §2.2's sampler. A packet that carries a
//! prescribed path has a one-candidate path set, so §3.1
//! ([`crate::packet::jobshop::schedule_given_paths`]) is this pipeline on a
//! fully routed instance.

use crate::circuit::path_lp::{CapRows, FlowRoutes, PathLp, Route};
use crate::circuit::round_free::sample_path;
use crate::intervals::IntervalGrid;
use crate::model::Instance;
use crate::objective::{metrics, Metrics};
use crate::packet::jobshop::{horizon_steps, schedule_blocks, BlockStats};
use crate::schedule::PacketSchedule;
use coflow_lp::{LpError, SolverOptions};
use coflow_net::{paths as netpaths, Path};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    /// LP optimum: a lower bound over schedules on the candidate paths.
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
    let g = &instance.graph;
    let flows = instance
        .flows()
        .map(|(_, flat, spec)| {
            let ps = match &spec.path {
                Some(p) => vec![p.clone()],
                None => {
                    netpaths::candidate_paths(g, spec.src, spec.dst, cfg.path_slack, cfg.max_paths)
                }
            };
            let shortest = ps.iter().map(Path::len).min().ok_or_else(|| {
                LpError::Numerical(format!("packet {flat} has no path (disconnected?)"))
            })? as f64;
            // Dilation (29): a packet released at r on path p finishes no
            // earlier than ⌈r⌉ + |p|, so p's columns start at that interval.
            let r = spec.release.ceil();
            let routes = (0..)
                .zip(ps)
                .map(|(id, path)| Route {
                    id,
                    first: grid.first_usable(r + path.len() as f64),
                    path,
                })
                .collect();
            Ok(FlowRoutes {
                earliest: (r + shortest).max(0.0),
                routes,
            })
        })
        .collect::<Result<_, LpError>>()?;
    let (m, lp) = PathLp::build(instance, grid, flows, CapRows::Cumulative)?;
    let sol = m.solve_with(&cfg.solver)?;
    let lp = lp.extract(&sol, sol.iterations);

    // Half-interval, then one path per packet drawn by its mass up to there
    // (path 0 when it has none).
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let half: Vec<usize> = (0..instance.flow_count())
        .map(|flat| lp.base.alpha_interval(flat, cfg.alpha))
        .collect();
    let chosen: Vec<Path> = lp
        .routing
        .into_iter()
        .zip(&half)
        .map(|(mut routing, &h)| {
            let weights: Vec<f64> = routing.w.iter().map(|row| row[..=h].iter().sum()).collect();
            routing
                .paths
                .swap_remove(sample_path(&weights, &mut rng).unwrap_or(0))
        })
        .collect();

    let (schedule, blocks) = schedule_blocks(instance, &half, |flat| chosen[flat].clone());
    let completions = schedule.completion_times(instance);
    let mets = metrics(instance, &completions);
    Ok(PacketFreeResult {
        paths: chosen,
        schedule,
        lp_objective: lp.base.objective,
        metrics: mets,
        blocks,
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
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
        let distinct: std::collections::BTreeSet<_> =
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
