//! Quickstart: the paper's Figure 1 in a few lines of API.
//!
//! Builds the triangle network, declares three coflows, runs the §2.2
//! LP-based algorithm, and compares it against fair sharing and a fixed
//! priority order — reproducing the 10 / 8 / 7 story of the figure.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    reason = "an example fails fast on I/O and solver errors, and its console output is its result"
)]

use coflow::prelude::*;

fn main() {
    // The network of Figure 1: triangle x, y, z with unit capacities.
    let topo = coflow::net::topo::triangle();
    let (x, y, z) = (topo.hosts[0], topo.hosts[1], topo.hosts[2]);

    // Coflow A = {A1: x->y of size 2, A2: y->z of size 1}; B = {y->z, 1};
    // C = {x->y, 2}. All released at time 0, unit weights.
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

    // Shortest-path routing for the two strawmen.
    let shortest: Vec<_> = instance
        .flows()
        .map(|(_, _, f)| {
            coflow::net::paths::bfs_shortest_path(&instance.graph, f.src, f.dst).unwrap()
        })
        .collect();
    let n = instance.flow_count();

    // (s1) Fair sharing: every flow gets an equal share of each bottleneck.
    let fair = simulate(
        &instance,
        &shortest,
        &Priority::identity(n),
        &SimConfig {
            policy: AllocPolicy::MaxMinFair,
        },
    );

    // (s2) Strict coflow priority A > B > C with greedy rates.
    let priority = simulate(
        &instance,
        &shortest,
        &Priority::identity(n),
        &SimConfig::default(),
    );

    // The paper's algorithm: interval-indexed LP, randomized rounding,
    // LP-completion-time ordering (§2.2 + §4.2).
    let lp = solve_free_paths_lp_paths(&instance, &FreePathsLpConfig::default())
        .expect("LP is feasible");
    let rounding = round_free_paths(&instance, &lp, &FreeRoundingConfig::default());
    let order = lp_order(&instance, &lp.base);
    let lp_run = simulate(&instance, &rounding.paths, &order, &SimConfig::default());

    // Every schedule the simulator produces is checkable.
    assert!(lp_run.schedule.check(&instance, 1e-6, 1e-6).is_empty());

    println!("Figure 1 (paper values: fair = 10, priority = 8, optimal = 7)");
    for (name, m) in [
        ("fair sharing   (s1)", &fair.metrics),
        ("priority A,B,C (s2)", &priority.metrics),
        ("LP-based           ", &lp_run.metrics),
    ] {
        println!(
            "  {name}: coflow completions {:?}  total {}",
            m.coflow_completion
                .iter()
                .map(|c| (c * 10.0).round() / 10.0)
                .collect::<Vec<_>>(),
            m.coflow_completion.iter().sum::<f64>()
        );
    }
    let total: f64 = lp_run.metrics.coflow_completion.iter().sum();
    assert!(
        total <= 8.0,
        "LP-based should do at least as well as the priority schedule"
    );
    println!("\nLP lower bound: {:.3}", lp.base.objective / 2.0);
}
