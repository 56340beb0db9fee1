//! Greedy prioritized store-and-forward list scheduling.
//!
//! Within each geometric block, the §3 algorithms need a schedule whose
//! makespan is `O(C + D)` (congestion + dilation). The classic
//! Leighton–Maggs–Rao result guarantees such schedules exist with constant
//! queues; the constructive algorithms (\[20\], Srinivasan–Teo \[28\]) are
//! random-delay based. We use the standard practical surrogate: a greedy
//! list scheduler where every edge, at every step, forwards the
//! highest-priority waiting packet (priority = farthest-to-go first, ties
//! by rank). Greedy is within a constant of `C + D` on all our workloads
//! and is itself a `O(C·D)`-worst-case correct scheduler; the block
//! structure (geometric intervals) is what delivers the approximation
//! guarantee shape.

use coflow_net::{Graph, Path};

use crate::schedule::PacketMove;

/// A packet to schedule: a fixed path and an integral release step.
#[derive(Clone, Debug)]
pub struct PacketTask {
    /// The path to traverse.
    pub path: Path,
    /// Earliest step at which the first edge may be crossed.
    pub release: u64,
}

/// Schedules `packets` greedily starting no earlier than `start_step`.
/// `rank[i]` breaks ties (smaller = higher priority). Returns one move list
/// per packet. Packets with empty paths get empty move lists.
///
/// # Panics
/// If the schedule fails to drain within a generous step budget (would
/// indicate an internal bug — greedy always makes progress).
pub fn list_schedule(
    g: &Graph,
    packets: &[PacketTask],
    start_step: u64,
    rank: &[usize],
) -> Vec<Vec<PacketMove>> {
    assert_eq!(packets.len(), rank.len());
    let n = packets.len();
    let mut moves: Vec<Vec<PacketMove>> = vec![Vec::new(); n];
    let mut pos = vec![0usize; n]; // edges already crossed
    let mut remaining: usize = packets.iter().filter(|p| !p.path.is_empty()).count();
    if remaining == 0 {
        return moves;
    }
    let total_hops: u64 = packets.iter().map(|p| p.path.len() as u64).sum();
    // Budget: every step at least one packet moves once any is eligible, so
    // total_hops steps of motion suffice; add the largest possible waiting
    // prologue for releases.
    let max_release = packets.iter().map(|p| p.release).max().unwrap_or(0);
    let budget = start_step.max(max_release) + total_hops + n as u64 + 4;

    let mut t = start_step;
    // earliest step a packet may move again (arrival time at current node).
    let mut ready_at: Vec<u64> = packets.iter().map(|p| p.release.max(start_step)).collect();
    let mut winner: std::collections::BTreeMap<u32, usize> = std::collections::BTreeMap::new();
    while remaining > 0 {
        assert!(t <= budget, "list scheduler failed to drain (bug)");
        // For each edge, the best candidate packet this step.
        winner.clear();
        for i in 0..n {
            if pos[i] >= packets[i].path.len() || ready_at[i] > t {
                continue;
            }
            let e = packets[i].path.edges[pos[i]];
            let better = match winner.get(&e.0) {
                None => true,
                Some(&j) => {
                    let rem_i = packets[i].path.len() - pos[i];
                    let rem_j = packets[j].path.len() - pos[j];
                    // Farthest-to-go first, then rank, then index.
                    rem_i > rem_j
                        || (rem_i == rem_j && (rank[i] < rank[j] || (rank[i] == rank[j] && i < j)))
                }
            };
            if better {
                winner.insert(e.0, i);
            }
        }
        for (&e, &i) in winner.iter() {
            moves[i].push(PacketMove {
                depart: t,
                edge: coflow_net::EdgeId(e),
            });
            pos[i] += 1;
            ready_at[i] = t + 1;
            if pos[i] == packets[i].path.len() {
                remaining -= 1;
            }
        }
        t += 1;
    }
    let _ = g; // graph is implicit in the paths; kept for symmetry/debug
    moves
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use coflow_net::{paths, topo, NodeId};

    fn line_paths(n: usize) -> (coflow_net::Graph, Path) {
        let t = topo::line(n, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId((n - 1) as u32)).unwrap();
        (t.graph, p)
    }

    #[test]
    fn single_packet_pipelines() {
        let (g, p) = line_paths(4);
        let tasks = vec![PacketTask {
            path: p,
            release: 0,
        }];
        let m = list_schedule(&g, &tasks, 0, &[0]);
        assert_eq!(m[0].len(), 3);
        assert_eq!(m[0][0].depart, 0);
        assert_eq!(m[0][1].depart, 1);
        assert_eq!(m[0][2].depart, 2);
    }

    #[test]
    fn two_packets_same_path_serialize_on_edges() {
        let (g, p) = line_paths(3);
        let tasks = vec![
            PacketTask {
                path: p.clone(),
                release: 0,
            },
            PacketTask {
                path: p,
                release: 0,
            },
        ];
        let m = list_schedule(&g, &tasks, 0, &[0, 1]);
        // First edge used at steps 0 and 1 by the two packets.
        let e0_steps: Vec<u64> = m.iter().map(|mv| mv[0].depart).collect();
        assert_eq!(e0_steps.iter().min(), Some(&0));
        assert!(e0_steps[0] != e0_steps[1]);
        // Pipeline: both done by step 3 (makespan C + D - 1 = 2 + 2).
        let done = m
            .iter()
            .map(|mv| mv.last().unwrap().depart + 1)
            .max()
            .unwrap();
        assert!(done <= 4);
    }

    #[test]
    fn releases_respected() {
        let (g, p) = line_paths(3);
        let tasks = vec![PacketTask {
            path: p,
            release: 5,
        }];
        let m = list_schedule(&g, &tasks, 0, &[0]);
        assert!(m[0][0].depart >= 5);
    }

    #[test]
    fn start_step_respected() {
        let (g, p) = line_paths(3);
        let tasks = vec![PacketTask {
            path: p,
            release: 0,
        }];
        let m = list_schedule(&g, &tasks, 10, &[0]);
        assert_eq!(m[0][0].depart, 10);
    }

    #[test]
    fn empty_paths_no_moves() {
        let g = coflow_net::Graph::with_nodes(1);
        let tasks = vec![PacketTask {
            path: Path::empty(),
            release: 0,
        }];
        let m = list_schedule(&g, &tasks, 0, &[0]);
        assert!(m[0].is_empty());
    }

    #[test]
    fn farthest_to_go_wins_contention() {
        // Packet A has 3 edges left, packet B has 1; both want edge e at
        // step 0 — A must win under farthest-to-go.
        let t = topo::line(4, 1.0);
        let g = t.graph;
        let pa = paths::bfs_shortest_path(&g, NodeId(0), NodeId(3)).unwrap();
        let pb = paths::bfs_shortest_path(&g, NodeId(0), NodeId(1)).unwrap();
        let tasks = vec![
            PacketTask {
                path: pb,
                release: 0,
            },
            PacketTask {
                path: pa,
                release: 0,
            },
        ];
        let m = list_schedule(&g, &tasks, 0, &[0, 1]);
        assert_eq!(m[1][0].depart, 0, "long packet should go first");
        assert_eq!(m[0][0].depart, 1);
    }

    #[test]
    fn no_edge_conflicts_in_congested_mesh() {
        // 20 random-ish packets on a grid; verify pairwise edge-step
        // exclusivity directly.
        let t = topo::grid(4, 4, 1.0);
        let g = t.graph.clone();
        let mut tasks = Vec::new();
        for i in 0..20u32 {
            let s = t.hosts[(i as usize * 7) % 16];
            let d = t.hosts[(i as usize * 11 + 5) % 16];
            if s == d {
                continue;
            }
            let p = paths::bfs_shortest_path(&g, s, d).unwrap();
            tasks.push(PacketTask {
                path: p,
                release: (i % 3) as u64,
            });
        }
        let ranks: Vec<usize> = (0..tasks.len()).collect();
        let m = list_schedule(&g, &tasks, 0, &ranks);
        let mut used = std::collections::BTreeSet::new();
        for mv in &m {
            for pm in mv {
                assert!(
                    used.insert((pm.edge.0, pm.depart)),
                    "edge conflict at {pm:?}"
                );
            }
        }
        // Every packet fully routed.
        for (task, mv) in tasks.iter().zip(&m) {
            assert_eq!(mv.len(), task.path.len());
        }
    }
}
