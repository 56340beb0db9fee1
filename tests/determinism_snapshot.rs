//! Byte-reproducibility audit for the full pipeline (the end-to-end
//! counterpart of the workspace's ban on hash-ordered collections):
//! generate a seeded instance, solve the free-paths LP (eager and by
//! column generation), round it, run the online engine under eager and
//! column-generation `LpOrder` and the three solver-free policies, and
//! serialize everything — twice, in the same process — and require the
//! two serializations to be *byte-identical*. Any nondeterminism (hash-map iteration leaking into
//! output order, unseeded randomness, time-dependent tie-breaks) shows up
//! here as a diff, not as a flaky downstream test.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] fns fail fast on known-good fixtures"
)]

use coflow::algo::intervals::IntervalGrid;
use coflow::lp::WarmChain;
use coflow::prelude::*;
use coflow::workloads::gen::{generate, GenConfig};
use coflow::workloads::io::to_json;

/// Formats a float with full round-trip precision so the snapshot is
/// sensitive to the last bit, not just display rounding.
fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// The seeded fat-tree k=4 instance every snapshot is taken on.
fn snapshot_instance() -> Instance {
    let topo = coflow::net::topo::fat_tree(4, 1.0);
    let instance = generate(
        &topo,
        &GenConfig {
            n_coflows: 6,
            width: 3,
            size_mean: 2.0,
            weight_mean: 1.0,
            arrival_rate: 0.5,
            jitter_rate: 0.0,
            seed: 7,
        },
    );
    assert!(instance.validate().is_empty());
    instance
}

fn edge_list(p: &coflow::net::Path) -> String {
    let edges: Vec<String> = p.edges.iter().map(|e| e.0.to_string()).collect();
    edges.join(",")
}

/// An online run's completions, routes, objective and epoch count.
fn push_engine_outcome(out: &mut String, outcome: &EngineOutcome) {
    for (i, c) in outcome.flow_completion.iter().enumerate() {
        out.push_str(&format!("done[{i}] {}\n", bits(*c)));
    }
    for (i, p) in outcome.paths.iter().enumerate() {
        out.push_str(&format!("route[{i}] {}\n", edge_list(p)));
    }
    out.push_str(&format!(
        "weighted_sum {}\nepochs {}\n",
        bits(outcome.metrics.weighted_sum),
        outcome.engine.epochs
    ));
}

/// One full pipeline run serialized into a canonical byte string.
fn pipeline_snapshot() -> String {
    let instance = snapshot_instance();

    let mut out = String::new();

    // 1. The instance itself (JSON round-trip surface).
    out.push_str("== instance ==\n");
    out.push_str(&to_json(&instance).expect("instance serializes"));
    out.push('\n');

    // 2. Offline LP solve + rounding, to the last bit of every completion
    // time and segment.
    let lp = solve_free_paths_lp_paths(&instance, &FreePathsLpConfig::default())
        .expect("generated instance is feasible");
    out.push_str("== lp ==\n");
    out.push_str(&format!("objective {}\n", bits(lp.base.objective)));
    for (i, c) in lp.base.flow_completion.iter().enumerate() {
        out.push_str(&format!("c[{i}] {}\n", bits(*c)));
    }
    let rounding = round_free_paths(&instance, &lp, &FreeRoundingConfig::default());
    out.push_str("== rounding ==\n");
    for (i, p) in rounding.paths.iter().enumerate() {
        out.push_str(&format!("path[{i}] {}\n", edge_list(p)));
    }
    let rounded = round_given_paths(
        &instance.with_paths(&rounding.paths),
        &lp.base,
        &RoundingConfig::default(),
    );
    for (i, s) in rounded.schedule.flows.iter().enumerate() {
        for seg in &s.segments {
            out.push_str(&format!(
                "seg[{i}] {} {} {}\n",
                bits(seg.start),
                bits(seg.end),
                bits(seg.rate)
            ));
        }
    }

    // 3. Online engine epochs over the canonical arrival trace.
    let mut policy = LpOrder::default();
    let outcome = run_online(&instance, &mut policy, &EngineConfig::default());
    out.push_str("== engine ==\n");
    push_engine_outcome(&mut out, &outcome);

    // 4. Column generation: the oracle injects in flow-then-interval
    // order, so the objective bits, the round and column counts and every
    // pool group's paths — in insertion order — are pinned too.
    let cg_cfg = FreePathsLpConfig::default();
    let grid = IntervalGrid::cover(cg_cfg.eps, instance.horizon());
    let mut pool = PathPool::new();
    let (cg, stats) = solve_free_paths_lp_colgen_on_grid(
        &instance,
        &cg_cfg,
        grid,
        &mut WarmChain::new(),
        &mut pool,
    )
    .expect("generated instance is feasible");
    out.push_str("== colgen ==\n");
    out.push_str(&format!(
        "objective {}\nrounds {}\ngenerated_cols {}\nfinal_cols {}\n",
        bits(cg.base.objective),
        stats.rounds,
        stats.generated_cols,
        stats.final_cols
    ));
    for g in 0..pool.group_count() {
        for (pi, p) in pool.group(g).iter().enumerate() {
            out.push_str(&format!("pool[{g}][{pi}] {}\n", edge_list(p)));
        }
    }

    // 5. The online engine again, re-solving by pooled column generation.
    let mut policy = LpOrder::colgen(FreePathsLpConfig::default(), FreeRoundingConfig::default());
    let outcome = run_online(&instance, &mut policy, &EngineConfig::default());
    out.push_str("== engine colgen ==\n");
    push_engine_outcome(&mut out, &outcome);

    // 6. The solver-free rungs of the degradation ladder: the executor's
    // greedy and weighted-fair fills, with no LP in the loop.
    let solver_free: [(&str, &mut dyn OnlinePolicy); 3] = [
        ("Greedy", &mut Greedy),
        ("WeightedFair", &mut WeightedFair),
        ("Fifo", &mut Fifo),
    ];
    for (name, policy) in solver_free {
        let outcome = run_online(&instance, policy, &EngineConfig::default());
        out.push_str(&format!("== engine {name} ==\n"));
        push_engine_outcome(&mut out, &outcome);
    }
    out
}

#[test]
fn pipeline_is_byte_reproducible_in_process() {
    let a = pipeline_snapshot();
    let b = pipeline_snapshot();
    // CI's determinism lane sets `COFLOW_SNAPSHOT_OUT`, runs this test in
    // two processes and byte-diffs the written snapshots.
    if let Ok(path) = std::env::var("COFLOW_SNAPSHOT_OUT") {
        std::fs::write(&path, &a).expect("write snapshot to COFLOW_SNAPSHOT_OUT");
    }
    // Compare as bytes and report the first diverging line on failure.
    if a != b {
        for (la, lb) in a.lines().zip(b.lines()) {
            assert_eq!(la, lb, "first diverging snapshot line");
        }
        panic!(
            "snapshots differ in length: {} vs {} bytes",
            a.len(),
            b.len()
        );
    }
    assert_eq!(a.as_bytes(), b.as_bytes());
}

/// The refactor guard of the change that made candidate-list devex the
/// only pricing rule, on an interval LP: pivots, phase-1 pivots,
/// refactorizations and objective bits of the snapshot instance's path LP,
/// recorded with the then optional candidate pricing mode selected
/// (`crates/lp/tests/pinned_counts.rs` pins the raw LPs). The counts moved
/// from `(122, 92, 4)` when the pivot loop began to update the duals
/// instead of re-solving them, and from `(128, 100, 4)` when pricing began
/// to read reduced costs maintained from the row-wise pivotal row (ties
/// break on values rounded differently); the objective bits did not.
#[test]
fn single_rule_reproduces_candidate_counts() {
    let instance = snapshot_instance();
    let lp = solve_free_paths_lp_paths(&instance, &FreePathsLpConfig::default())
        .expect("instance is feasible");
    let s = lp.base.stats;
    assert_eq!(
        (
            s.iterations,
            s.phase1_iterations,
            s.refactorizations,
            lp.base.objective.to_bits()
        ),
        (132, 93, 5, 0x4044_e26c_6705_50ae)
    );
}
