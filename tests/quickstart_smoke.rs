//! Smoke test mirroring `examples/quickstart.rs` end to end: the Figure 1
//! triangle instance through fair sharing, fixed priority, and the §2.2
//! LP-based pipeline, with the example's own assertions plus the figure's
//! expected totals. Keeps the quickstart honest — if this passes, the
//! first thing a new user runs works.

use coflow::prelude::*;

#[test]
fn quickstart_code_path_end_to_end() {
    // The network of Figure 1: triangle x, y, z with unit capacities.
    let topo = coflow::net::topo::triangle();
    let (x, y, z) = (topo.hosts[0], topo.hosts[1], topo.hosts[2]);

    let instance = Instance::new(
        topo.graph.clone(),
        vec![
            Coflow::new(
                1.0,
                vec![FlowSpec::new(x, y, 2.0, 0.0), FlowSpec::new(y, z, 1.0, 0.0)],
            ),
            Coflow::new(1.0, vec![FlowSpec::new(y, z, 1.0, 0.0)]),
            Coflow::new(1.0, vec![FlowSpec::new(x, y, 2.0, 0.0)]),
        ],
    );
    assert!(instance.validate().is_empty());

    let shortest: Vec<_> = instance
        .flows()
        .map(|(_, _, f)| {
            coflow::net::paths::bfs_shortest_path(&instance.graph, f.src, f.dst).unwrap()
        })
        .collect();
    let n = instance.flow_count();

    // (s1) fair sharing — the paper reports total 10.
    let fair = simulate(
        &instance,
        &shortest,
        &Priority::identity(n),
        &SimConfig {
            policy: AllocPolicy::MaxMinFair,
        },
    );
    assert!(fair.schedule.check(&instance, 1e-6, 1e-6).is_empty());
    let fair_total: f64 = fair.metrics.coflow_completion.iter().sum();
    assert!(
        (fair_total - 10.0).abs() < 1e-6,
        "fair sharing total {fair_total}, figure says 10"
    );

    // (s2) strict priority A > B > C — the paper reports total 8.
    let priority = simulate(
        &instance,
        &shortest,
        &Priority::identity(n),
        &SimConfig::default(),
    );
    let prio_total: f64 = priority.metrics.coflow_completion.iter().sum();
    assert!(
        (prio_total - 8.0).abs() < 1e-6,
        "priority total {prio_total}, figure says 8"
    );

    // The §2.2 pipeline: LP, rounding, LP-completion-time order, simulate.
    let lp = solve_free_paths_lp_paths(&instance, &FreePathsLpConfig::default())
        .expect("LP is feasible");
    let rounding = round_free_paths(&instance, &lp, &FreeRoundingConfig::default());
    let order = lp_order(&instance, &lp.base);
    let lp_run = simulate(&instance, &rounding.paths, &order, &SimConfig::default());

    assert!(lp_run.schedule.check(&instance, 1e-6, 1e-6).is_empty());
    let total: f64 = lp_run.metrics.coflow_completion.iter().sum();
    assert!(
        total <= 8.0,
        "LP-based total {total} must beat or match the priority schedule"
    );
    // Lemma 5 lower bound must hold for every schedule.
    let lb = lp.base.objective / 2.0;
    for m in [&fair.metrics, &priority.metrics, &lp_run.metrics] {
        assert!(lb <= m.weighted_sum + 1e-6);
    }
}
