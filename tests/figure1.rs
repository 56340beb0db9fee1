//! Integration test for experiment E1: the Figure 1 triangle example.
//!
//! The paper's three solutions must evaluate to exactly 10 (fair sharing),
//! 8 (coflow priority A,B,C) and 7 (optimal); the LP-based pipeline must
//! find a schedule no worse than the priority solution, and on this
//! instance it actually reaches the optimum 7.

#![allow(
    clippy::unwrap_used,
    reason = "test helpers outside #[test] fns fail fast on known-good fixtures"
)]

use coflow::prelude::*;
use coflow::workloads::suite::figure1_instance;

fn shortest_routes(inst: &Instance) -> Vec<coflow::net::Path> {
    inst.flows()
        .map(|(_, _, f)| coflow::net::paths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap())
        .collect()
}

#[test]
fn s1_fair_sharing_is_10() {
    let inst = figure1_instance();
    let routes = shortest_routes(&inst);
    let out = simulate(
        &inst,
        &routes,
        &Priority::identity(4),
        &SimConfig {
            policy: AllocPolicy::MaxMinFair,
        },
    );
    assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    assert!((out.metrics.coflow_completion.iter().sum::<f64>() - 10.0).abs() < 1e-6);
}

#[test]
fn s2_priority_is_8() {
    let inst = figure1_instance();
    let routes = shortest_routes(&inst);
    let out = simulate(
        &inst,
        &routes,
        &Priority::identity(4),
        &SimConfig::default(),
    );
    assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    assert!((out.metrics.coflow_completion.iter().sum::<f64>() - 8.0).abs() < 1e-6);
}

#[test]
fn s3_optimal_is_7() {
    let inst = figure1_instance();
    let routes = shortest_routes(&inst);
    let out = simulate(
        &inst,
        &routes,
        &Priority {
            order: vec![2, 3, 0, 1],
        },
        &SimConfig::default(),
    );
    assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    assert!((out.metrics.coflow_completion.iter().sum::<f64>() - 7.0).abs() < 1e-6);
}

#[test]
fn lp_pipeline_reaches_optimum() {
    let inst = figure1_instance();
    let lp = solve_free_paths_lp_paths(&inst, &FreePathsLpConfig::default()).unwrap();
    let r = round_free_paths(&inst, &lp, &FreeRoundingConfig::default());
    let out = simulate(
        &inst,
        &r.paths,
        &lp_order(&inst, &lp.base),
        &SimConfig::default(),
    );
    assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    let total: f64 = out.metrics.coflow_completion.iter().sum();
    assert!(
        (total - 7.0).abs() < 1e-6,
        "LP-based pipeline should find an optimal order on Figure 1, got {total}"
    );
}

#[test]
fn no_order_beats_7() {
    // Exhaustive check over all 24 flow orders with greedy allocation:
    // 7 is indeed the best achievable (validates the paper's "optimal").
    let inst = figure1_instance();
    let routes = shortest_routes(&inst);
    let mut best = f64::INFINITY;
    let mut perm = vec![0usize, 1, 2, 3];
    // Heap's algorithm, simple recursive version.
    fn heaps(k: usize, perm: &mut Vec<usize>, visit: &mut impl FnMut(&[usize])) {
        if k == 1 {
            visit(perm);
            return;
        }
        for i in 0..k {
            heaps(k - 1, perm, visit);
            if k.is_multiple_of(2) {
                perm.swap(i, k - 1);
            } else {
                perm.swap(0, k - 1);
            }
        }
    }
    let mut visit = |p: &[usize]| {
        let out = simulate(
            &inst,
            &routes,
            &Priority { order: p.to_vec() },
            &SimConfig::default(),
        );
        let total: f64 = out.metrics.coflow_completion.iter().sum();
        if total < best {
            best = total;
        }
    };
    heaps(4, &mut perm, &mut visit);
    assert!(
        (best - 7.0).abs() < 1e-6,
        "exhaustive best is {best}, paper says 7"
    );
}
