//! End-to-end integration of the circuit-model pipelines across all
//! crates: generator → LP → rounding → ordering → simulator → checker,
//! plus cross-formulation and lower-bound consistency.

mod common;

use coflow::algo::circuit::lp_free::FreeLpSolution;
use coflow::prelude::*;
use coflow::workloads::gen::{generate, GenConfig};
use coflow::workloads::io::{from_json, to_json};

fn small_cfg(seed: u64) -> GenConfig {
    GenConfig {
        n_coflows: 3,
        width: 3,
        size_mean: 3.0,
        seed,
        ..Default::default()
    }
}

#[test]
fn full_pipeline_on_fat_tree_all_schemes_feasible() {
    let topo = coflow::net::topo::fat_tree(4, 1.0);
    for seed in 0..3 {
        let inst = generate(&topo, &small_cfg(seed));
        assert!(inst.validate().is_empty());

        let lp = solve_free_paths_lp_paths(&inst, &FreePathsLpConfig::default()).unwrap();
        let lb = lp.base.objective / 2.0;

        // LP-based.
        let r = round_free_paths(
            &inst,
            &lp,
            &FreeRoundingConfig {
                seed,
                ..Default::default()
            },
        );
        let lp_out = simulate(
            &inst,
            &r.paths,
            &lp_order(&inst, &lp.base),
            &SimConfig::default(),
        );
        assert!(lp_out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
        assert!(
            lb <= lp_out.metrics.weighted_sum + 1e-6,
            "LB must hold for LP-based"
        );

        // Heuristics: all feasible, all above the LP lower bound.
        let bcfg = BaselineConfig {
            seed,
            ..Default::default()
        };
        for s in [
            baselines::baseline_random(&inst, &bcfg),
            baselines::schedule_only(&inst, &bcfg),
            baselines::route_only(&inst, &bcfg),
        ] {
            let out = simulate(&inst, &s.paths, &s.order, &SimConfig::default());
            assert!(
                out.schedule.check(&inst, 1e-6, 1e-6).is_empty(),
                "{} produced an infeasible schedule",
                s.name
            );
            assert!(
                lb <= out.metrics.weighted_sum + 1e-6,
                "{}: LP lower bound {} exceeded cost {}",
                s.name,
                lb,
                out.metrics.weighted_sum
            );
        }
    }
}

#[test]
fn given_paths_pipeline_on_star() {
    // Stars have unique paths: the canonical §2.1 setting.
    let topo = coflow::net::topo::star(6, 1.0);
    let inst = generate(&topo, &small_cfg(11));
    let routes: Vec<_> = inst
        .flows()
        .map(|(_, _, f)| coflow::net::paths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap())
        .collect();
    let routed = inst.with_paths(&routes);

    let lp = solve_given_paths_lp(&routed, &GivenPathsLpConfig::default()).unwrap();
    let rounded = round_given_paths(&routed, &lp, &RoundingConfig::default());
    assert!(rounded.schedule.check(&routed, 1e-6, 1e-6).is_empty());

    // The theory bound: rounded cost within the proven constant of the LB.
    let lb = coflow::algo::bounds::circuit_lower_bound(lp.objective, lp.grid.eps);
    assert!(lb > 0.0);
    assert!(
        rounded.metrics.weighted_sum / lb <= 17.54 + 1e-6,
        "rounding exceeded the §2.1 approximation factor: {} / {}",
        rounded.metrics.weighted_sum,
        lb
    );

    // The practical execution (§4.2): LP order + greedy simulation beats
    // or matches the displaced-interval schedule.
    let out = simulate(
        &routed,
        &routes,
        &lp_order(&routed, &lp),
        &SimConfig::default(),
    );
    assert!(out.schedule.check(&routed, 1e-6, 1e-6).is_empty());
    assert!(out.metrics.weighted_sum <= rounded.metrics.weighted_sum + 1e-6);
}

/// Column generation over every simple path of `inst`: the paper's §2.2 LP.
fn all_paths_lp(inst: &Instance) -> FreeLpSolution {
    let cfg = FreePathsLpConfig {
        path_slack: inst.graph.node_count(),
        ..Default::default()
    };
    common::colgen(inst, &cfg).0
}

#[test]
fn edge_and_path_lp_agree_when_paths_exhaustive() {
    // Column generation over every simple path, and on the triangle eager
    // enumeration with slack 1, solve the paper's edge-flow LP exactly.
    let topo = coflow::net::topo::triangle();
    let inst = generate(
        &topo,
        &GenConfig {
            n_coflows: 2,
            width: 2,
            seed: 4,
            ..Default::default()
        },
    );
    let cfg = FreePathsLpConfig {
        path_slack: 1,
        ..Default::default()
    };
    let edge = common::edge_lp::optimum(&inst, cfg.eps);
    let scale = 1.0 + edge.abs();
    for path in [
        all_paths_lp(&inst),
        solve_free_paths_lp_paths(&inst, &cfg).unwrap(),
    ] {
        assert!(
            (edge - path.base.objective).abs() / scale < 1e-5,
            "edge {edge} vs path {}",
            path.base.objective
        );
    }
}

#[test]
fn instance_snapshot_roundtrip_through_pipeline() {
    // Serialize an instance, reload it, and verify the deterministic
    // pipeline produces identical results — the reproducibility contract
    // the experiment harness relies on.
    let topo = coflow::net::topo::fat_tree(4, 1.0);
    let inst = generate(&topo, &small_cfg(21));
    let json = coflow::workloads::io::to_json(&inst).unwrap();
    let back = coflow::workloads::io::from_json(&json).unwrap();

    let run = |i: &Instance| {
        let lp = solve_free_paths_lp_paths(i, &FreePathsLpConfig::default()).unwrap();
        let r = round_free_paths(i, &lp, &FreeRoundingConfig::default());
        let out = simulate(i, &r.paths, &lp_order(i, &lp.base), &SimConfig::default());
        out.metrics.weighted_sum
    };
    let a = run(&inst);
    let b = run(&back);
    assert!(
        (a - b).abs() < 1e-6,
        "pipeline not reproducible across serialization: {a} vs {b}"
    );
}

#[test]
fn weights_steer_realized_schedules() {
    // Double one coflow's weight: its completion in the LP-based schedule
    // must not get worse.
    let topo = coflow::net::topo::fat_tree(4, 1.0);
    let base = generate(&topo, &small_cfg(31));
    let mut heavy = base.clone();
    heavy.coflows[0].weight *= 50.0;

    let run = |i: &Instance| {
        let lp = solve_free_paths_lp_paths(i, &FreePathsLpConfig::default()).unwrap();
        let r = round_free_paths(i, &lp, &FreeRoundingConfig::default());
        let out = simulate(i, &r.paths, &lp_order(i, &lp.base), &SimConfig::default());
        out.metrics.coflow_completion[0]
    };
    let before = run(&base);
    let after = run(&heavy);
    assert!(
        after <= before + 1e-6,
        "upweighting a coflow should not delay it: {before} -> {after}"
    );
}

#[test]
fn switch_model_composes_with_simulator() {
    // The big-switch extension: LP order + fluid execution on the star.
    let inst = coflow::algo::switch::switch_instance(
        4,
        1.0,
        &[
            (1.0, vec![(0, 1, 2.0, 0.0), (2, 3, 1.0, 0.0)]),
            (5.0, vec![(1, 2, 1.0, 0.0)]),
        ],
    );
    let (lp, rounded) = coflow::algo::switch::schedule_switch(
        &inst,
        &GivenPathsLpConfig::default(),
        &RoundingConfig::default(),
    )
    .unwrap();
    assert!(rounded.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    let paths: Vec<_> = inst
        .flows()
        .map(|(_, _, f)| f.path.clone().unwrap())
        .collect();
    let out = simulate(&inst, &paths, &lp_order(&inst, &lp), &SimConfig::default());
    assert!(out.schedule.check(&inst, 1e-6, 1e-6).is_empty());
    // The heavy singleton coflow should finish first.
    let c = &out.metrics.coflow_completion;
    assert!(c[1] <= c[0] + 1e-9, "heavy coflow delayed: {c:?}");
}

/// An empty coflow — `"flows": []`, which `io::from_json` accepts and
/// `Instance::validate` only reports — has no release time. Every LP gives
/// it the completion bound 0 (the given-paths LP always did; the others
/// asked the solver for a variable with lower bound `+∞` and panicked),
/// and so do the engine runs that re-solve those LPs.
#[test]
fn empty_coflow_completes_at_zero_in_every_circuit_lp() {
    let t = coflow::net::topo::triangle();
    let (x, y) = (t.hosts[0], t.hosts[1]);
    let built = Instance::new(
        t.graph,
        vec![
            Coflow::new(1.0, vec![FlowSpec::new(x, y, 2.0, 0.0)]),
            Coflow::new(1.0, vec![]),
        ],
    );
    let inst = from_json(&to_json(&built).unwrap()).unwrap();
    assert!(inst.coflows[1].flows.is_empty());

    let cfg = FreePathsLpConfig {
        path_slack: 1,
        ..Default::default()
    };
    let eager = solve_free_paths_lp_paths(&inst, &cfg).unwrap();
    let all_paths = all_paths_lp(&inst);
    for lp in [&eager, &all_paths] {
        assert!(lp.base.coflow_completion[1].abs() < 1e-9);
    }
    let edge = common::edge_lp::optimum(&inst, cfg.eps);
    assert!(
        (edge - all_paths.base.objective).abs() < 1e-6 * (1.0 + edge.abs()),
        "edge {edge} vs all paths {}",
        all_paths.base.objective
    );

    let r = round_free_paths(&inst, &eager, &FreeRoundingConfig::default());
    let routed = inst.with_paths(&r.paths);
    assert!(r.rounded.schedule.check(&routed, 1e-6, 1e-6).is_empty());
    let given = solve_given_paths_lp(&routed, &GivenPathsLpConfig::default()).unwrap();
    assert!(given.coflow_completion[1].abs() < 1e-9);

    for mut policy in [
        LpOrder::default(),
        LpOrder::colgen(cfg, FreeRoundingConfig::default()),
    ] {
        let out = run_online(&inst, &mut policy, &EngineConfig::default());
        let routed = inst.with_paths(&out.paths);
        assert!(out.schedule.check(&routed, 1e-6, 1e-6).is_empty());
        assert!(out.metrics.coflow_completion[1].abs() < 1e-9);
        assert_eq!(out.engine.degraded_epochs, 0);
    }
}
