//! Property tests for delayed column generation: on random small
//! topologies the restricted-master loop must reproduce the eager
//! full-enumeration optimum — and, over every simple path, the optimum of
//! the paper's edge-flow LP — and feed the downstream pipeline a solution
//! whose rounded schedule passes the capacity/release/volume checker.

mod common;

use coflow::algo::intervals::IntervalGrid;
use coflow::algo::tol;
use coflow::lp::WarmChain;
use coflow::prelude::*;
use coflow::workloads::gen::{generate, GenConfig};
use coflow::workloads::suite::fig3_config;
use common::colgen;
use proptest::prelude::*;

fn cfg(n: usize, w: usize, seed: u64) -> GenConfig {
    GenConfig {
        n_coflows: n,
        width: w,
        size_mean: 3.0,
        seed,
        ..Default::default()
    }
}

/// Small topologies whose candidate-path sets the eager enumeration covers
/// completely (so both entry points optimize the same polytope).
fn small_topo(pick: usize) -> coflow::net::topo::Topology {
    match pick % 3 {
        0 => coflow::net::topo::fat_tree(4, 1.0),
        1 => coflow::net::topo::grid(3, 3, 1.0),
        _ => coflow::net::topo::ring(6, 1.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Column generation and eager enumeration agree on the LP optimum
    /// (±1e-6) on random instances over random small topologies, the
    /// colgen master never materializes more columns than the eager
    /// model, and the rounded colgen solution passes the schedule
    /// checker (capacity, release, volume).
    #[test]
    fn colgen_matches_eager_and_rounds_feasibly(
        topo_pick in 0usize..3,
        n in 1usize..4,
        w in 1usize..4,
        slack in 0usize..2,
        seed in 0u64..500,
    ) {
        let topo = small_topo(topo_pick);
        let inst = generate(&topo, &cfg(n, w, seed));
        prop_assert!(inst.validate().is_empty());

        // `max_paths` far above any small-topology path count keeps the
        // eager enumeration complete — the precondition for equality.
        let eager_cfg = FreePathsLpConfig {
            path_slack: slack,
            max_paths: 64,
            ..Default::default()
        };
        let eager = solve_free_paths_lp_paths(&inst, &eager_cfg).unwrap();
        let (cg, stats) = colgen(&inst, &eager_cfg);

        prop_assert!(
            (cg.base.objective - eager.base.objective).abs()
                <= 1e-6 * (1.0 + eager.base.objective.abs()),
            "colgen {} vs eager {} (topo {topo_pick}, slack {slack})",
            cg.base.objective,
            eager.base.objective
        );
        prop_assert!(stats.final_cols <= eager.base.stats.cols.max(1));

        // The colgen solution drives the paper pipeline end to end: the
        // rounded schedule must satisfy capacity, releases, and volumes.
        let r = round_free_paths(&inst, &cg, &FreeRoundingConfig { seed, ..Default::default() });
        let routed = inst.with_paths(&r.paths);
        let violations = r.rounded.schedule.check(&routed, 1e-6, 1e-6);
        prop_assert!(violations.is_empty(), "rounded colgen schedule: {violations:?}");
        // Lemma 5 at ε = 1: LP*/2 lower-bounds any feasible schedule.
        prop_assert!(
            cg.base.objective / 2.0 <= r.rounded.metrics.weighted_sum + 1e-6,
            "LB {} vs realized {}",
            cg.base.objective / 2.0,
            r.rounded.metrics.weighted_sum
        );
    }

    /// Pool-threaded colgen re-solves of the *same* instance stay at the
    /// eager optimum and re-price nothing on the second pass.
    #[test]
    fn pooled_resolve_is_generation_free(seed in 0u64..200) {
        let topo = coflow::net::topo::fat_tree(4, 1.0);
        let inst = generate(&topo, &cfg(2, 3, seed));
        let cg_cfg = FreePathsLpConfig::default();
        let mut pool = PathPool::new();
        let mut chain = WarmChain::new();
        let grid = IntervalGrid::cover(cg_cfg.eps, inst.horizon());
        let (first, _) =
            solve_free_paths_lp_colgen_on_grid(&inst, &cg_cfg, grid, &mut chain, &mut pool)
                .unwrap();
        let grid = IntervalGrid::cover(cg_cfg.eps, inst.horizon());
        let (second, stats) =
            solve_free_paths_lp_colgen_on_grid(&inst, &cg_cfg, grid, &mut chain, &mut pool)
                .unwrap();
        prop_assert!(stats.generated_cols == 0, "pool must seed everything");
        prop_assert!((first.base.objective - second.base.objective).abs() < 1e-9);
    }

    /// The online residual shape — some flows committed to a path, the
    /// rest free — is where both kinds of route list meet in the one
    /// builder: eager and generated columns still agree on the optimum, and
    /// a committed flow keeps exactly its path in both.
    #[test]
    fn mixed_prescribed_and_free_flows_agree(
        topo_pick in 0usize..3,
        n in 1usize..4,
        w in 2usize..4,
        slack in 0usize..2,
        seed in 0u64..500,
    ) {
        let topo = small_topo(topo_pick);
        let mut inst = generate(&topo, &cfg(n, w, seed));
        // Commit every coflow's even-numbered flows to their shortest path.
        for c in &mut inst.coflows {
            for f in c.flows.iter_mut().step_by(2) {
                f.path = coflow::net::paths::bfs_shortest_path(&inst.graph, f.src, f.dst);
                prop_assert!(f.path.is_some());
            }
        }
        prop_assert!(inst.flows().any(|(_, _, f)| f.path.is_none()));

        let eager_cfg = FreePathsLpConfig {
            path_slack: slack,
            max_paths: 64,
            ..Default::default()
        };
        let eager = solve_free_paths_lp_paths(&inst, &eager_cfg).unwrap();
        let (cg, _) = colgen(&inst, &eager_cfg);
        prop_assert!(
            tol::rel_eq(cg.base.objective, eager.base.objective, tol::OBJ_REL_EPS),
            "colgen {} vs eager {} (topo {topo_pick}, slack {slack})",
            cg.base.objective,
            eager.base.objective
        );
        for (_, flat, f) in inst.flows() {
            let Some(p) = &f.path else { continue };
            for lp in [&eager, &cg] {
                prop_assert!(lp.routing[flat].paths == std::slice::from_ref(p), "flow {flat}");
            }
        }
    }

    /// With `path_slack` at the node count the oracle prices over every
    /// simple path, so column generation solves the paper's edge-flow LP
    /// (15)–(23): its optimum equals an independent edge-flow build's, and
    /// it rounds to a checker-clean schedule.
    #[test]
    fn all_paths_colgen_matches_the_edge_lp(
        topo_pick in 0usize..3,
        n in 1usize..4,
        w in 1usize..4,
        seed in 0u64..500,
    ) {
        let topo = small_topo(topo_pick);
        let inst = generate(&topo, &cfg(n, w, seed));
        let all_paths = FreePathsLpConfig {
            path_slack: inst.graph.node_count(),
            ..Default::default()
        };
        let (cg, _) = colgen(&inst, &all_paths);
        let edge = common::edge_lp::optimum(&inst, all_paths.eps);
        prop_assert!(
            tol::rel_eq(cg.base.objective, edge, 1e-6),
            "all-paths colgen {} vs edge LP {edge} (topo {topo_pick})",
            cg.base.objective
        );
        let r = round_free_paths(&inst, &cg, &FreeRoundingConfig { seed, ..Default::default() });
        let routed = inst.with_paths(&r.paths);
        let violations = r.rounded.schedule.check(&routed, 1e-6, 1e-6);
        prop_assert!(violations.is_empty(), "rounded all-paths schedule: {violations:?}");
    }
}

/// A `path_slack` past every simple path's length is the all-paths LP: it
/// neither overflows the hop budget nor changes the LP, so the optimum is
/// the same to the bit from either entry point.
#[test]
fn huge_slack_is_the_all_paths_lp() {
    let topo = coflow::net::topo::grid(3, 3, 1.0);
    let inst = generate(&topo, &cfg(3, 3, 1));
    let with_slack = |path_slack| FreePathsLpConfig {
        path_slack,
        max_paths: 1000,
        ..Default::default()
    };
    let (all, huge) = (
        with_slack(inst.graph.node_count() - 1),
        with_slack(usize::MAX),
    );
    let eager = solve_free_paths_lp_paths(&inst, &all)
        .unwrap()
        .base
        .objective;
    let cg = colgen(&inst, &all).0.base.objective;
    assert!(
        tol::rel_eq(cg, eager, tol::OBJ_REL_EPS),
        "colgen {cg} vs eager {eager}"
    );
    let huge_eager = solve_free_paths_lp_paths(&inst, &huge).unwrap();
    assert_eq!(huge_eager.base.objective.to_bits(), eager.to_bits());
    let huge_cg = colgen(&inst, &huge).0.base.objective;
    assert_eq!(huge_cg.to_bits(), cg.to_bits());
}

/// The paper-scale point (fat-tree k=8, 10 coflows of width 8): column
/// generation reproduces the eager optimum while materializing at most a
/// quarter of the eager columns.
#[test]
fn colgen_needs_a_quarter_of_eager_columns_on_fat_tree_k8() {
    let topo = coflow::net::topo::fat_tree(8, 1.0);
    let inst = generate(&topo, &fig3_config(8, 0));
    let eager_cfg = FreePathsLpConfig::default();
    let eager = solve_free_paths_lp_paths(&inst, &eager_cfg).unwrap();
    let (cg, _) = colgen(&inst, &eager_cfg);
    assert!(
        tol::rel_eq(cg.base.objective, eager.base.objective, tol::OBJ_REL_EPS),
        "colgen {} vs eager {}",
        cg.base.objective,
        eager.base.objective
    );
    assert!(
        4 * cg.base.stats.cols <= eager.base.stats.cols,
        "colgen cols {} exceed 25% of eager {}",
        cg.base.stats.cols,
        eager.base.stats.cols
    );
}
