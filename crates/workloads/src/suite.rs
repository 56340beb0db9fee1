//! Named experiment scenarios.
//!
//! * [`fig3_config`] / [`fig4_config`] — the paper's two sweeps (§4.3):
//!   Figure 3 fixes 10 coflows and varies width ∈ {4, 8, 16, 32};
//!   Figure 4 fixes width 16 and varies #coflows ∈ {10, 15, 20, 25, 30}.
//! * [`shuffle_mix`] — the motivating workload of §1: reducers cannot
//!   start until all map outputs arrive, i.e. each reducer's inbound
//!   transfers form one coflow (here: each shuffle stage is one coflow
//!   whose flows are the `m × r` map→reduce transfers).
//! * [`figure1_instance`] — the triangle example of Figure 1, with the
//!   exact sizes from the paper.

use crate::gen::GenConfig;
use coflow_core::model::{Coflow, FlowSpec, Instance};
use coflow_net::topo::Topology;

/// Figure 3 point: 10 coflows, the given width, one of 10 seeded trials.
pub fn fig3_config(width: usize, trial: u64) -> GenConfig {
    GenConfig {
        n_coflows: 10,
        width,
        // Distinct seeds per (width, trial) point.
        seed: 0x0F13_0000 + (width as u64) * 101 + trial,
        ..Default::default()
    }
}

/// Figure 4 point: width 16, the given number of coflows.
pub fn fig4_config(n_coflows: usize, trial: u64) -> GenConfig {
    GenConfig {
        n_coflows,
        width: 16,
        seed: 0x0F14_0000 + (n_coflows as u64) * 101 + trial,
        ..Default::default()
    }
}

/// A MapReduce shuffle on `topo`: `m` mappers and `r` reducers drawn from
/// the host set round-robin; every (mapper, reducer) transfer has the given
/// size; the whole shuffle is one coflow (the reduce phase starts when the
/// last transfer lands — §1's motivating semantics).
fn mapreduce_shuffle(
    topo: &Topology,
    m: usize,
    r: usize,
    size: f64,
    weight: f64,
    release: f64,
) -> Instance {
    assert!(m + r <= topo.host_count(), "need m + r distinct hosts");
    let mappers = &topo.hosts[..m];
    let reducers = &topo.hosts[m..m + r];
    let flows: Vec<FlowSpec> = mappers
        .iter()
        .flat_map(|&s| {
            reducers
                .iter()
                .map(move |&d| FlowSpec::new(s, d, size, release))
        })
        .collect();
    Instance::new(topo.graph.clone(), vec![Coflow::new(weight, flows)])
}

/// Several shuffle stages arriving over time (a small Spark-like job mix).
pub fn shuffle_mix(topo: &Topology, stages: &[(usize, usize, f64, f64, f64)]) -> Instance {
    let mut coflows = Vec::new();
    for &(m, r, size, weight, release) in stages {
        let one = mapreduce_shuffle(topo, m, r, size, weight, release);
        coflows.extend(one.coflows);
    }
    Instance::new(topo.graph.clone(), coflows)
}

/// The exact Figure 1 instance: triangle x,y,z; coflow A = {A1: x→y size 2,
/// A2: y→z size 1}, B = {y→z size 1}, C = {x→y size 2}; unit weights.
/// Known values: fair sharing 10, priority(A,B,C) 8, optimum 7.
pub fn figure1_instance() -> Instance {
    let t = coflow_net::topo::triangle();
    let (x, y, z) = (t.hosts[0], t.hosts[1], t.hosts[2]);
    Instance::new(
        t.graph,
        vec![
            Coflow::new(
                1.0,
                vec![FlowSpec::new(x, y, 2.0, 0.0), FlowSpec::new(y, z, 1.0, 0.0)],
            ),
            Coflow::new(1.0, vec![FlowSpec::new(y, z, 1.0, 0.0)]),
            Coflow::new(1.0, vec![FlowSpec::new(x, y, 2.0, 0.0)]),
        ],
    )
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use coflow_net::topo;

    #[test]
    fn fig3_fig4_seeds_distinct() {
        let a = fig3_config(4, 0);
        let b = fig3_config(4, 1);
        let c = fig3_config(8, 0);
        let d = fig4_config(10, 0);
        let seeds = [a.seed, b.seed, c.seed, d.seed];
        let set: std::collections::BTreeSet<_> = seeds.iter().collect();
        assert_eq!(set.len(), 4);
        assert_eq!(a.n_coflows, 10);
        assert_eq!(d.width, 16);
    }

    #[test]
    fn shuffle_is_one_coflow_m_by_r() {
        let t = topo::fat_tree(4, 1.0);
        let inst = mapreduce_shuffle(&t, 4, 3, 2.0, 1.0, 0.0);
        assert_eq!(inst.coflow_count(), 1);
        assert_eq!(inst.flow_count(), 12);
        assert!(inst.validate().is_empty());
        // All destinations are reducers.
        for (_, _, f) in inst.flows() {
            assert!(t.hosts[4..7].contains(&f.dst));
            assert!(t.hosts[..4].contains(&f.src));
        }
    }

    #[test]
    fn shuffle_mix_stacks_stages() {
        let t = topo::fat_tree(4, 1.0);
        let inst = shuffle_mix(&t, &[(2, 2, 1.0, 1.0, 0.0), (3, 1, 2.0, 2.0, 5.0)]);
        assert_eq!(inst.coflow_count(), 2);
        assert_eq!(inst.flow_count(), 4 + 3);
        assert_eq!(inst.coflows[1].earliest_release(), 5.0);
    }

    #[test]
    fn figure1_matches_paper() {
        let inst = figure1_instance();
        assert_eq!(inst.coflow_count(), 3);
        assert_eq!(inst.flow_count(), 4);
        assert_eq!(inst.total_size(), 6.0);
        assert!(inst.validate().is_empty());
    }
}
