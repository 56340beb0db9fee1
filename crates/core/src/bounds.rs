//! Lower bounds on the optimal weighted coflow completion time, derived
//! from the interval-indexed LPs.
//!
//! * Lemma 4: for circuit coflows with given paths, `LP* / (1+ε)` lower
//!   bounds the optimum (the `(1+ε)` pays for moving release times to
//!   interval boundaries).
//! * Lemma 5: for circuit coflows without paths (ε = 1), `LP* / 2`.
//! * Lemma 7: for packet coflows, the time-expanded LP value itself.
//!
//! These are what the experiment harness divides by to report *empirical
//! approximation ratios* (the Table 1 counterpart experiment).

/// Lemma 4 / Lemma 5 bound: `LP* / (1 + ε)`.
pub fn circuit_lower_bound(lp_objective: f64, eps: f64) -> f64 {
    lp_objective / (1.0 + eps)
}

/// Lemma 7 bound: the packet LP optimum is itself a lower bound.
pub fn packet_lower_bound(lp_objective: f64) -> f64 {
    lp_objective
}

/// A trivial combinatorial lower bound needing no LP: every coflow must
/// wait for its last release and then push each flow's volume through that
/// flow's best possible bottleneck; weighted sum of those.
///
/// Useful as a sanity floor next to the LP bounds.
pub fn trivial_lower_bound(instance: &crate::model::Instance) -> f64 {
    let g = &instance.graph;
    let mut total = 0.0;
    for c in &instance.coflows {
        let mut coflow_c = 0.0_f64;
        for f in &c.flows {
            let bw = match &f.path {
                Some(p) => g.path_bottleneck(p),
                None => {
                    // Best case: the widest out-edge of the source (any
                    // path must leave the source).
                    g.out_edges(f.src)
                        .iter()
                        .map(|&e| g.capacity(e))
                        .fold(0.0, f64::max)
                }
            };
            let t = if bw > 0.0 && bw.is_finite() {
                f.release + f.size / bw
            } else {
                f.release
            };
            coflow_c = coflow_c.max(t);
        }
        total += c.weight * coflow_c;
    }
    total
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::*;
    use crate::model::{Coflow, FlowSpec, Instance};
    use coflow_net::{paths, topo, NodeId};

    #[test]
    fn bound_arithmetic() {
        assert!((circuit_lower_bound(10.0, 1.0) - 5.0).abs() < 1e-12);
        assert!((circuit_lower_bound(10.0, 0.5436) - 10.0 / 1.5436).abs() < 1e-12);
        assert_eq!(packet_lower_bound(7.0), 7.0);
    }

    #[test]
    fn trivial_bound_counts_release_and_bottleneck() {
        let t = topo::line(2, 0.5);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                2.0,
                vec![FlowSpec::with_path(NodeId(0), NodeId(1), 2.0, 1.0, p)],
            )],
        );
        // release 1 + 2/0.5 = 5; weight 2 => 10.
        assert!((trivial_lower_bound(&inst) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn trivial_bound_without_paths_uses_widest_out_edge() {
        let t = topo::triangle();
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::new(t.hosts[0], t.hosts[1], 3.0, 0.0)],
            )],
        );
        // Widest out-edge capacity 1 => bound 3.
        assert!((trivial_lower_bound(&inst) - 3.0).abs() < 1e-12);
    }

    /// The LP bound is positive where the trivial bound sees the bottleneck
    /// exactly (a single-flow instance).
    #[test]
    fn lp_bound_vs_trivial() {
        use crate::circuit::lp_given::{solve_given_paths_lp, GivenPathsLpConfig};
        let t = topo::line(2, 1.0);
        let p = paths::bfs_shortest_path(&t.graph, NodeId(0), NodeId(1)).unwrap();
        let inst = Instance::new(
            t.graph,
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::with_path(NodeId(0), NodeId(1), 4.0, 0.0, p)],
            )],
        );
        let lp = solve_given_paths_lp(&inst, &GivenPathsLpConfig::default()).unwrap();
        let lb = circuit_lower_bound(lp.objective, lp.grid.eps);
        assert!(lb > 0.0);
        let triv = trivial_lower_bound(&inst);
        assert!((triv - 4.0).abs() < 1e-9);
    }
}
