//! Packet coflows with **given paths** (§3.1): the problem is the unit
//! job-shop `J | r_j, p_ij = 1 | Σ ω_S C_S` (each packet = a job, each edge
//! of its path = a unit operation on "machine" e).
//!
//! The paper invokes Queyranne–Sviridenko \[25\] for an O(1) approximation.
//! We implement the same interval-indexed template those algorithms share:
//!
//! 1. solve an interval-indexed LP with *cumulative congestion* constraints
//!    (packets finishing by `τ_{ℓ+1}` can cross any edge at most `τ_{ℓ+1}`
//!    times — the given-paths analogue of constraint (28)) and *dilation*
//!    filtering (a packet cannot finish before `r + |p|` — analogue of
//!    (29));
//! 2. assign every packet to its α-interval;
//! 3. schedule each block with the greedy `C+D` list scheduler
//!    ([`crate::packet::listsched`]), blocks back-to-back.
//!
//! Steps 1 and 2 are an instance of the §3.2 pipeline: a prescribed path is
//! a one-candidate path set, so [`schedule_given_paths`] is
//! [`route_and_schedule`] on an instance whose packets all carry their path
//! — the same LP builder, the same α-interval extraction, and a path
//! "choice" that can only return the prescribed path. This module keeps
//! what both halves share downstream of the LP: the step horizon and the
//! block scheduler.

use crate::model::Instance;
use crate::packet::free::{route_and_schedule, PacketFreeConfig, PacketFreeResult};
use crate::packet::listsched::{list_schedule, PacketTask};
use crate::schedule::PacketSchedule;
use coflow_lp::{LpError, SolverOptions};

/// Configuration of the packet LP + rounding.
#[derive(Clone, Debug)]
pub struct PacketConfig {
    /// Geometric growth (the paper's §3.2 grid uses powers of two: ε = 1).
    pub eps: f64,
    /// α-point parameter (1/2 = the paper's half-intervals).
    pub alpha: f64,
    /// Simplex options.
    pub solver: SolverOptions,
}

impl Default for PacketConfig {
    fn default() -> Self {
        Self {
            eps: 1.0,
            alpha: 0.5,
            solver: SolverOptions::default(),
        }
    }
}

/// Per-block statistics of the rounding stage.
#[derive(Clone, Debug)]
pub struct BlockStats {
    /// The grid interval the block corresponds to.
    pub interval: usize,
    /// Number of packets in the block.
    pub packets: usize,
    /// First step of the block.
    pub start: u64,
    /// One past the last step used.
    pub end: u64,
}

/// Schedules a packet instance whose packets all carry prescribed paths
/// (which the result's `paths` repeat).
///
/// # Errors
/// [`LpError::Numerical`] for a packet without a prescribed path;
/// otherwise whatever the LP solve reports.
pub fn schedule_given_paths(
    instance: &Instance,
    cfg: &PacketConfig,
) -> Result<PacketFreeResult, LpError> {
    if let Some((_, flat, _)) = instance.flows().find(|(_, _, s)| s.path.is_none()) {
        return Err(LpError::Numerical(format!(
            "packet {flat} has no prescribed path"
        )));
    }
    route_and_schedule(
        instance,
        &PacketFreeConfig {
            eps: cfg.eps,
            alpha: cfg.alpha,
            solver: cfg.solver.clone(),
            ..Default::default()
        },
    )
}

/// A safe step horizon for packet instances: all packets one-at-a-time.
pub(crate) fn horizon_steps(instance: &Instance) -> f64 {
    let total_hops: f64 = instance
        .flows()
        .map(|(_, _, s)| match &s.path {
            Some(p) => p.len() as f64,
            None => instance.graph.node_count() as f64,
        })
        .sum();
    (instance.max_release().ceil() + total_hops + 1.0).max(1.0)
}

/// Groups packets by their assigned interval and list-schedules each block
/// after the previous one. Shared by §3.1 and §3.2.
pub(crate) fn schedule_blocks<F: Fn(usize) -> coflow_net::Path>(
    instance: &Instance,
    assigned_interval: &[usize],
    path_of: F,
) -> (PacketSchedule, Vec<BlockStats>) {
    let nf = instance.flow_count();
    let max_h = assigned_interval.iter().copied().max().unwrap_or(0);
    let mut by_block: Vec<Vec<usize>> = vec![Vec::new(); max_h + 1];
    for flat in 0..nf {
        by_block[assigned_interval[flat]].push(flat);
    }
    let mut schedule = PacketSchedule {
        packets: vec![Vec::new(); nf],
    };
    let mut blocks = Vec::new();
    let mut cursor: u64 = 0;
    for (h, members) in by_block.iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let tasks: Vec<PacketTask> = members
            .iter()
            .map(|&flat| {
                let spec = instance.flow(instance.id_of_flat(flat));
                PacketTask {
                    path: path_of(flat),
                    release: spec.release.ceil() as u64,
                }
            })
            .collect();
        let ranks: Vec<usize> = (0..tasks.len()).collect();
        let moves = list_schedule(&instance.graph, &tasks, cursor, &ranks);
        let mut end = cursor;
        for (mi, &flat) in members.iter().enumerate() {
            if let Some(last) = moves[mi].last() {
                end = end.max(last.depart + 1);
            }
            schedule.packets[flat] = moves[mi].clone();
        }
        blocks.push(BlockStats {
            interval: h,
            packets: members.len(),
            start: cursor,
            end,
        });
        cursor = end;
    }
    (schedule, blocks)
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_net::{paths, topo, NodeId};

    fn grid_instance(pairs: &[((usize, usize), f64)]) -> Instance {
        let t = topo::grid(3, 3, 1.0);
        let coflows = pairs
            .iter()
            .map(|&((a, b), r)| {
                let s = t.hosts[a];
                let d = t.hosts[b];
                let p = paths::bfs_shortest_path(&t.graph, s, d).unwrap();
                Coflow::new(1.0, vec![FlowSpec::with_path(s, d, 1.0, r, p)])
            })
            .collect();
        Instance::new(t.graph.clone(), coflows)
    }

    #[test]
    fn schedule_is_feasible_and_complete() {
        let inst = grid_instance(&[((0, 8), 0.0), ((2, 6), 0.0), ((1, 7), 1.0), ((3, 5), 0.0)]);
        let r = schedule_given_paths(&inst, &PacketConfig::default()).unwrap();
        let v = r.schedule.check(&inst);
        assert!(v.is_empty(), "{v:?}");
        assert!(r.metrics.weighted_sum > 0.0);
        assert!(!r.blocks.is_empty());
    }

    /// §3.1 needs a path on every packet; one without is a typed error,
    /// never a panic.
    #[test]
    fn packet_without_path_is_an_error() {
        let mut inst = grid_instance(&[((0, 8), 0.0), ((2, 6), 0.0)]);
        inst.coflows[1].flows[0].path = None;
        let err = schedule_given_paths(&inst, &PacketConfig::default()).unwrap_err();
        assert!(
            matches!(&err, LpError::Numerical(msg) if msg.contains("packet 1 has no prescribed path")),
            "{err:?}"
        );
    }

    #[test]
    fn lp_is_lower_bound() {
        let inst = grid_instance(&[((0, 8), 0.0), ((8, 0), 0.0)]);
        let r = schedule_given_paths(&inst, &PacketConfig::default()).unwrap();
        assert!(
            r.lp_objective <= r.metrics.weighted_sum + 1e-6,
            "LP {} must lower-bound realized {}",
            r.lp_objective,
            r.metrics.weighted_sum
        );
    }

    #[test]
    fn dilation_bound_respected_in_lp() {
        // A packet with a 4-hop path cannot complete before step 4.
        let inst = grid_instance(&[((0, 8), 0.0)]);
        let r = schedule_given_paths(&inst, &PacketConfig::default()).unwrap();
        assert!(r.lp_objective >= 4.0 - 1e-6, "lp {}", r.lp_objective);
        // And the realized schedule takes exactly 4 steps here.
        let c = r.schedule.completion_times(&inst);
        assert_eq!(c[0], 4.0);
    }

    #[test]
    fn contention_pushes_lp_up() {
        // Ten packets all crossing the same middle edge: congestion 10
        // forces the LP average completion up.
        let t = topo::line(3, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(2)).unwrap();
        let coflows: Vec<Coflow> = (0..10)
            .map(|_| {
                Coflow::new(
                    1.0,
                    vec![FlowSpec::with_path(
                        NodeId(0),
                        NodeId(2),
                        1.0,
                        0.0,
                        p.clone(),
                    )],
                )
            })
            .collect();
        let inst = Instance::new(t.graph.clone(), coflows);
        let r = schedule_given_paths(&inst, &PacketConfig::default()).unwrap();
        assert!(r.schedule.check(&inst).is_empty());
        // Sum of completions is at least 2 + sum_{i=1..10} i-ish; LP must
        // exceed the uncontended bound 10 * 2 = 20.
        assert!(r.lp_objective > 20.0, "lp {}", r.lp_objective);
        // Greedy pipeline: last packet done around step 11.
        assert!(r.metrics.makespan >= 11.0);
        assert!(r.metrics.makespan <= 20.0);
    }

    #[test]
    fn release_times_delay_blocks() {
        let inst = grid_instance(&[((0, 2), 9.0)]);
        let r = schedule_given_paths(&inst, &PacketConfig::default()).unwrap();
        let c = r.schedule.completion_times(&inst);
        assert!(c[0] >= 9.0 + 2.0, "release 9 + 2 hops, got {}", c[0]);
        assert!(r.schedule.check(&inst).is_empty());
    }

    #[test]
    fn blocks_are_time_disjoint() {
        let inst = grid_instance(&[
            ((0, 8), 0.0),
            ((8, 0), 0.0),
            ((2, 6), 0.0),
            ((6, 2), 0.0),
            ((1, 5), 0.0),
            ((4, 0), 2.0),
        ]);
        let r = schedule_given_paths(&inst, &PacketConfig::default()).unwrap();
        for w in r.blocks.windows(2) {
            assert!(w[0].end <= w[1].start, "blocks overlap: {:?}", r.blocks);
        }
    }
}
