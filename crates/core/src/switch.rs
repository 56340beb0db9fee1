//! The non-blocking switch ("big switch") special case — the setting of
//! Varys \[8\], Qiu–Stein–Zhong \[24\] and the concurrent-open-shop connection
//! discussed in §1.3.
//!
//! On an `n × n` non-blocking switch every flow's path is the unique
//! 2-hop `ingress(src) -> egress(dst)` route, so the §2.1 given-paths
//! machinery applies verbatim; this module provides the instance builder
//! and a convenience wrapper running LP + rounding, demonstrating that the
//! general-topology framework subsumes the classic coflow model.

use crate::circuit::lp_given::{solve_given_paths_lp, CircuitLpSolution, GivenPathsLpConfig};
use crate::circuit::round_given::{round_given_paths, RoundedSchedule, RoundingConfig};
use crate::model::{Coflow, FlowSpec, Instance};
use coflow_lp::LpError;
use coflow_net::{topo, Path};

/// A flow demand on the switch: `(src port, dst port, size, release)`.
pub type PortDemand = (usize, usize, f64, f64);

/// Builds a big-switch instance. Each coflow is `(weight, demands)`;
/// every flow gets its unique 2-hop path attached.
///
/// # Panics
/// If a demand references an out-of-range port or has `src == dst`.
pub fn switch_instance(
    ports: usize,
    port_cap: f64,
    coflows: &[(f64, Vec<PortDemand>)],
) -> Instance {
    let t = topo::big_switch(ports, port_cap);
    let g = t.graph.clone();
    let built: Vec<Coflow> = coflows
        .iter()
        .map(|(w, demands)| {
            let flows = demands
                .iter()
                .map(|&(s, d, size, rel)| {
                    assert!(
                        s < ports && d < ports && s != d,
                        "bad port demand ({s},{d})"
                    );
                    let src = t.hosts[s];
                    let dst = t.hosts[d];
                    #[expect(
                        clippy::unwrap_used,
                        reason = "every host in the synthetic fabric has an uplink"
                    )]
                    let up = g.find_edge(src, g.edge_dst(g.out_edges(src)[0])).unwrap();
                    #[expect(
                        clippy::expect_used,
                        reason = "every host in the synthetic fabric has a downlink"
                    )]
                    let down = g.in_edges(dst).first().copied().expect("egress edge");
                    let path = Path::new(vec![up, down]);
                    debug_assert!(g.is_simple_path(&path, src, dst));
                    FlowSpec::with_path(src, dst, size, rel, path)
                })
                .collect();
            Coflow::new(*w, flows)
        })
        .collect();
    Instance::new(g, built)
}

/// Runs the §2.1 pipeline (LP + α-point rounding) on a switch instance.
pub fn schedule_switch(
    instance: &Instance,
    lp_cfg: &GivenPathsLpConfig,
    round_cfg: &RoundingConfig,
) -> Result<(CircuitLpSolution, RoundedSchedule), LpError> {
    let lp = solve_given_paths_lp(instance, lp_cfg)?;
    let rounded = round_given_paths(instance, &lp, round_cfg);
    Ok((lp, rounded))
}

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;

    #[test]
    fn builder_attaches_unique_paths() {
        let inst = switch_instance(
            4,
            1.0,
            &[
                (1.0, vec![(0, 1, 2.0, 0.0), (2, 3, 1.0, 0.0)]),
                (2.0, vec![(1, 0, 1.0, 0.5)]),
            ],
        );
        assert!(inst.validate().is_empty(), "{:?}", inst.validate());
        assert!(inst.has_all_paths());
        for (_, _, f) in inst.flows() {
            assert_eq!(f.path.as_ref().unwrap().len(), 2, "switch paths are 2 hops");
        }
    }

    #[test]
    fn pipeline_produces_feasible_schedule() {
        let inst = switch_instance(
            3,
            1.0,
            &[
                (1.0, vec![(0, 1, 1.0, 0.0), (0, 2, 2.0, 0.0)]),
                (1.0, vec![(1, 2, 1.0, 0.0)]),
                (3.0, vec![(2, 0, 1.0, 0.0)]),
            ],
        );
        let (lp, rounded) = schedule_switch(
            &inst,
            &GivenPathsLpConfig::default(),
            &RoundingConfig::default(),
        )
        .unwrap();
        assert!(rounded.schedule.check(&inst, 1e-6, 1e-6).is_empty());
        let lb = crate::bounds::circuit_lower_bound(lp.objective, lp.grid.eps);
        assert!(rounded.metrics.weighted_sum >= lb - 1e-6);
    }

    /// Port contention structure: coflow completion is governed by the most
    /// loaded port (the concurrent-open-shop "machine load" bound). The LP
    /// must see it.
    #[test]
    fn port_load_lower_bound_respected() {
        // Port 0 egress receives 4 units total => makespan >= 4 for the
        // union; single coflow so its completion >= 4.
        let inst = switch_instance(3, 1.0, &[(1.0, vec![(1, 0, 2.0, 0.0), (2, 0, 2.0, 0.0)])]);
        let (lp, _) = schedule_switch(
            &inst,
            &GivenPathsLpConfig::default(),
            &RoundingConfig::default(),
        )
        .unwrap();
        // Interval LP bound: the 4 units must spill into later intervals;
        // the boundary-priced bound comes out ≈ 1.5 with the paper's ε.
        assert!(lp.objective >= 1.4, "objective {}", lp.objective);
    }

    #[test]
    #[should_panic(expected = "bad port demand")]
    fn bad_ports_rejected() {
        switch_instance(2, 1.0, &[(1.0, vec![(0, 0, 1.0, 0.0)])]);
    }
}
