//! Flow orderings ("the ordering prescribed by a scheduling algorithm",
//! §4.1). Algorithm 1 returns "flow paths and ordering based on c_f"; the
//! fluid simulator serves flows greedily in this order.

use crate::circuit::lp_given::CircuitLpSolution;
use crate::model::Instance;

/// A total priority order over flows (flat indices, highest priority
/// first).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Priority {
    /// Flat flow indices from highest to lowest priority.
    pub order: Vec<usize>,
}

impl Priority {
    /// Identity order (flat index = priority).
    pub fn identity(n: usize) -> Self {
        Self {
            order: (0..n).collect(),
        }
    }

    /// Builds an order by sorting flat indices by a key (ascending:
    /// smaller key = higher priority). Ties broken by flat index, so the
    /// result is deterministic.
    pub fn by_key<K: PartialOrd, F: Fn(usize) -> K>(n: usize, key: F) -> Self {
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            key(a)
                .partial_cmp(&key(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        Self { order }
    }

    /// Rank lookup: `rank[flat]` = position in the order (0 = highest).
    pub fn ranks(&self) -> Vec<usize> {
        let mut r = vec![0usize; self.order.len()];
        for (pos, &flat) in self.order.iter().enumerate() {
            r[flat] = pos;
        }
        r
    }

    /// Number of flows ordered.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// The LP-based ordering of Algorithm 1: flows sorted by their coflow's LP
/// completion time `ĉ_{i0}`, then by their own LP completion `ĉ_f`, then by
/// flat index. Serving whole coflows contiguously is what makes the
/// ordering *coflow-aware* (the max-structure of the objective rewards
/// finishing a coflow's last flow early).
pub fn lp_order(instance: &Instance, lp: &CircuitLpSolution) -> Priority {
    let nf = instance.flow_count();
    Priority::by_key(nf, |flat| {
        let id = instance.id_of_flat(flat);
        (
            lp.coflow_completion[id.coflow as usize],
            lp.flow_completion[flat],
        )
    })
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use crate::intervals::IntervalGrid;
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_net::{topo, NodeId};

    #[test]
    fn by_key_sorts_ascending_stable() {
        let p = Priority::by_key(4, |i| [3.0, 1.0, 1.0, 0.5][i]);
        assert_eq!(p.order, vec![3, 1, 2, 0]);
        assert_eq!(p.ranks(), vec![3, 1, 2, 0]);
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn identity_order() {
        assert_eq!(Priority::identity(3).order, vec![0, 1, 2]);
    }

    #[test]
    fn lp_order_groups_by_coflow() {
        let t = topo::line(2, 1.0);
        let inst = Instance::new(
            t.graph,
            vec![
                Coflow::new(
                    1.0,
                    vec![
                        FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0),
                        FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0),
                    ],
                ),
                Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0)]),
            ],
        );
        // Fake LP: coflow 1 finishes earlier; inside coflow 0, flow 1
        // earlier than flow 0.
        let lp = CircuitLpSolution {
            grid: IntervalGrid::cover(1.0, 8.0),
            x: vec![vec![]; 3],
            flow_completion: vec![5.0, 2.0, 1.0],
            coflow_completion: vec![5.0, 1.0],
            objective: 0.0,
            iterations: 0,
            stats: Default::default(),
        };
        let p = lp_order(&inst, &lp);
        assert_eq!(p.order, vec![2, 1, 0]);
    }
}
