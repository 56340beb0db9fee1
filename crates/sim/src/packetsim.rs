//! Discrete store-and-forward execution of packet schemes.
//!
//! Wraps the core greedy list scheduler with a scheme-level interface:
//! given per-packet paths and a global priority order, every edge forwards
//! its highest-priority waiting packet each step (§3's model: "each link
//! can serve at most one packet at a time").

use coflow_core::model::Instance;
use coflow_core::objective::{metrics, Metrics};
use coflow_core::order::Priority;
use coflow_core::packet::listsched::{list_schedule, PacketTask};
use coflow_core::schedule::PacketSchedule;
use coflow_net::Path;

/// Packet simulation result.
#[derive(Clone, Debug)]
pub struct PacketSimOutcome {
    /// The realized schedule (checkable).
    pub schedule: PacketSchedule,
    /// Per-packet completion times.
    pub flow_completion: Vec<f64>,
    /// Objective metrics.
    pub metrics: Metrics,
}

/// Simulates the packet scheme (`paths`, `order`) from step 0.
pub fn simulate_packets(instance: &Instance, paths: &[Path], order: &Priority) -> PacketSimOutcome {
    let nf = instance.flow_count();
    assert_eq!(paths.len(), nf);
    assert_eq!(order.len(), nf);
    let tasks: Vec<PacketTask> = instance
        .flows()
        .map(|(_, flat, spec)| PacketTask {
            path: paths[flat].clone(),
            release: spec.release.ceil() as u64,
        })
        .collect();
    let ranks = order.ranks();
    let moves = list_schedule(&instance.graph, &tasks, 0, &ranks);
    let schedule = PacketSchedule { packets: moves };
    let completion = schedule.completion_times(instance);
    let m = metrics(instance, &completion);
    PacketSimOutcome {
        schedule,
        flow_completion: completion,
        metrics: m,
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use coflow_core::model::{Coflow, FlowSpec};
    use coflow_net::{paths, topo, NodeId};

    #[test]
    fn end_to_end_grid() {
        let t = topo::grid(3, 3, 1.0);
        let coflows: Vec<Coflow> = (0..8)
            .map(|i| {
                let s = t.hosts[i];
                let d = t.hosts[8 - i];
                Coflow::new(1.0, vec![FlowSpec::new(s, d, 1.0, 0.0)])
            })
            .filter(|c| c.flows[0].src != c.flows[0].dst)
            .collect();
        let inst = Instance::new(t.graph.clone(), coflows);
        let route: Vec<Path> = inst
            .flows()
            .map(|(_, _, s)| paths::bfs_shortest_path(&inst.graph, s.src, s.dst).unwrap())
            .collect();
        let out = simulate_packets(&inst, &route, &Priority::identity(inst.flow_count()));
        assert!(out.schedule.check(&inst).is_empty());
        assert!(out.metrics.makespan >= 4.0); // corner-to-corner needs 4 hops
    }

    #[test]
    fn priority_changes_who_waits() {
        let t = topo::line(3, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(2)).unwrap();
        let mk = || Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(2), 1.0, 0.0)]);
        let inst = Instance::new(t.graph.clone(), vec![mk(), mk()]);
        // Same path, same remaining distance => rank decides.
        let a = simulate_packets(
            &inst,
            &[p.clone(), p.clone()],
            &Priority { order: vec![0, 1] },
        );
        assert_eq!(a.flow_completion, vec![2.0, 3.0]);
        let b = simulate_packets(&inst, &[p.clone(), p], &Priority { order: vec![1, 0] });
        assert_eq!(b.flow_completion, vec![3.0, 2.0]);
    }
}
