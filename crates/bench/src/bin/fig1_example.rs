//! **Figure 1** reproduction: the triangle example with coflows A, B, C.
//!
//! Prints the three solutions of the figure — (s1) fair sharing = 10,
//! (s2) coflow priority A,B,C = 8, (s3) optimal = 7 — each produced by the
//! fluid simulator and verified by the feasibility checker, plus what the
//! §2.2 LP-based algorithm achieves on the same instance.
//!
//! ```text
//! cargo run --release -p coflow-bench --bin fig1_example
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::print_stdout,
    reason = "an experiment binary fails fast on I/O and solver errors, and its console output is its result"
)]

use coflow_bench::print_table;
use coflow_core::circuit::lp_free::{solve_free_paths_lp_paths, FreePathsLpConfig};
use coflow_core::circuit::round_free::{round_free_paths, FreeRoundingConfig};
use coflow_core::order::{lp_order, Priority};
use coflow_net::paths as netpaths;
use coflow_sim::fluid::{simulate, AllocPolicy, SimConfig};
use coflow_workloads::suite::figure1_instance;

fn main() {
    let inst = figure1_instance();
    let route: Vec<_> = inst
        .flows()
        .map(|(_, _, f)| netpaths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap())
        .collect();
    let n = inst.flow_count();

    let mut rows = Vec::new();

    // (s1): max-min fair sharing — every flow gets 1/2.
    let s1 = simulate(
        &inst,
        &route,
        &Priority::identity(n),
        &SimConfig {
            policy: AllocPolicy::MaxMinFair,
        },
    );
    assert!(s1.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    rows.push(describe("(s1) fair sharing", &s1.metrics.coflow_completion));

    // (s2): priority A > B > C.
    let s2 = simulate(&inst, &route, &Priority::identity(n), &SimConfig::default());
    assert!(s2.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    rows.push(describe(
        "(s2) priority A,B,C",
        &s2.metrics.coflow_completion,
    ));

    // (s3): the optimal order (B and C first, then A).
    let s3 = simulate(
        &inst,
        &route,
        &Priority {
            order: vec![2, 3, 0, 1],
        },
        &SimConfig::default(),
    );
    assert!(s3.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    rows.push(describe("(s3) optimal", &s3.metrics.coflow_completion));

    // LP-Based (§2.2 pipeline, §4.2 simulation tweaks).
    let lp = solve_free_paths_lp_paths(&inst, &FreePathsLpConfig::default()).unwrap();
    let r = round_free_paths(&inst, &lp, &FreeRoundingConfig::default());
    let order = lp_order(&inst, &lp.base);
    let lpd = simulate(&inst, &r.paths, &order, &SimConfig::default());
    assert!(lpd.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    rows.push(describe(
        "LP-Based algorithm",
        &lpd.metrics.coflow_completion,
    ));

    print_table(
        "Figure 1: triangle network, coflows A{A1:2,A2:1}, B{1}, C{2} (paper: 10 / 8 / 7)",
        &["solution", "C_A", "C_B", "C_C", "total"],
        &rows,
    );
    println!(
        "\nLP objective {:.3} (lower bound {:.3})",
        lp.base.objective,
        lp.base.objective / 2.0
    );
}

fn describe(name: &str, c: &[f64]) -> Vec<String> {
    vec![
        name.to_string(),
        format!("{:.1}", c[0]),
        format!("{:.1}", c[1]),
        format!("{:.1}", c[2]),
        format!("{:.1}", c.iter().sum::<f64>()),
    ]
}
