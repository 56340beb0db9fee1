//! **Ablation A1**: where does the LP-based win come from — routing or
//! ordering?
//!
//! All orderings below share the *same* routing (the LP-rounded paths), so
//! differences isolate the ordering component: the LP completion-time order
//! (coflow-aware, what Algorithm 1 returns) vs SEBF (coflow-aware but
//! LP-free) vs WSJF vs per-flow SJF (Schedule-only's rule) vs random.
//!
//! ```text
//! cargo run --release -p coflow-bench --bin ablation_order [--trials N]
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    reason = "an experiment binary fails fast on I/O and solver errors, and its console output is its result"
)]

use coflow_bench::{print_table, run_parallel, write_csv, CommonArgs};
use coflow_core::baselines;
use coflow_core::circuit::lp_free::{solve_free_paths_lp_paths, FreePathsLpConfig};
use coflow_core::circuit::round_free::{round_free_paths, FreeRoundingConfig};
use coflow_core::model::Instance;
use coflow_core::order::{lp_order, Priority};
use coflow_net::topo;
use coflow_sim::fluid::{simulate, SimConfig};
use coflow_workloads::gen::generate;
use coflow_workloads::suite::fig3_config;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let args = CommonArgs::parse("results/ablation_order.csv");
    let t = topo::fat_tree(args.k, 1.0);
    println!(
        "Ordering ablation on {} with width-16 instances, {} trials",
        t.name, args.trials
    );
    let instances: Vec<Instance> = (0..args.trials)
        .map(|trial| generate(&t, &fig3_config(16, 900 + trial as u64)))
        .collect();

    let names = ["LP order", "SEBF", "WSJF", "per-flow SJF", "random"];
    let results: Vec<Vec<f64>> = run_parallel(&instances, args.threads, |i, inst| {
        let lp = solve_free_paths_lp_paths(inst, &FreePathsLpConfig::default()).unwrap();
        let rounding = round_free_paths(
            inst,
            &lp,
            &FreeRoundingConfig {
                seed: i as u64,
                ..Default::default()
            },
        );
        let paths = rounding.paths;
        let cfg = SimConfig::default();
        let n = inst.flow_count();
        let g = &inst.graph;

        let mut outs = Vec::new();
        // LP completion-time order (Algorithm 1).
        outs.push(
            simulate(inst, &paths, &lp_order(inst, &lp.base), &cfg)
                .metrics
                .avg_coflow_completion,
        );
        // SEBF on the same routing.
        let s = baselines::sebf(inst, &paths);
        outs.push(
            simulate(inst, &paths, &s.order, &cfg)
                .metrics
                .avg_coflow_completion,
        );
        // WSJF.
        let s = baselines::wsjf(inst, &paths);
        outs.push(
            simulate(inst, &paths, &s.order, &cfg)
                .metrics
                .avg_coflow_completion,
        );
        // Per-flow SJF (Schedule-only's rule, coflow-blind).
        let sjf = Priority::by_key(n, |flat| {
            let spec = inst.flow(inst.id_of_flat(flat));
            spec.size / g.path_bottleneck(&paths[flat]).max(1e-12)
        });
        outs.push(
            simulate(inst, &paths, &sjf, &cfg)
                .metrics
                .avg_coflow_completion,
        );
        // Random order.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(77 + i as u64));
        outs.push(
            simulate(inst, &paths, &Priority { order }, &cfg)
                .metrics
                .avg_coflow_completion,
        );
        outs
    });

    let trials = results.len() as f64;
    let means: Vec<f64> = (0..names.len())
        .map(|j| results.iter().map(|r| r[j]).sum::<f64>() / trials)
        .collect();
    let best = means.iter().copied().fold(f64::INFINITY, f64::min);
    let rows: Vec<Vec<String>> = names
        .iter()
        .zip(&means)
        .map(|(n, &m)| vec![n.to_string(), format!("{m:.1}"), format!("{:.3}", m / best)])
        .collect();
    print_table(
        "Ordering ablation (identical LP-rounded routing)",
        &["ordering", "avg completion", "vs best"],
        &rows,
    );

    if let Some(out) = &args.out {
        write_csv(out, &["ordering", "avg_completion", "vs_best"], &rows).expect("csv write");
        println!("\nWrote {out}");
    }
}
