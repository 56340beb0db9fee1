//! **Ablation A3**: path-selection strategy inside the §2.2 rounding.
//!
//! Same LP solution, same ordering, three ways to snap fractional routing
//! to single paths: Raghavan–Thompson sampling (the analyzed algorithm),
//! deterministic thickest-path, and the load-aware §4.2-style tweak the
//! experiment harness uses. Reported per strategy: simulated average
//! completion and the α-point schedule's measured stretch.
//!
//! ```text
//! cargo run --release -p coflow-bench --bin ablation_selection [--trials N]
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    reason = "an experiment binary fails fast on I/O and solver errors, and its console output is its result"
)]

use coflow_bench::{print_table, run_parallel, write_csv, CommonArgs};
use coflow_core::circuit::lp_free::{solve_free_paths_lp_paths, FreePathsLpConfig};
use coflow_core::circuit::round_free::{round_free_paths, FreeRoundingConfig, PathSelection};
use coflow_core::circuit::round_given::{round_given_paths, RoundingConfig};
use coflow_core::model::Instance;
use coflow_core::order::lp_order;
use coflow_lp::SolverOptions;
use coflow_net::topo;
use coflow_sim::fluid::{simulate, SimConfig};
use coflow_workloads::gen::generate;
use coflow_workloads::suite::fig3_config;

fn main() {
    let args = CommonArgs::parse("results/ablation_selection.csv");
    let t = topo::fat_tree(args.k, 1.0);
    println!(
        "Path-selection ablation on {} with width-16 instances, {} trials",
        t.name, args.trials
    );
    let instances: Vec<Instance> = (0..args.trials)
        .map(|trial| generate(&t, &fig3_config(16, 700 + trial as u64)))
        .collect();
    let lp_cfg = FreePathsLpConfig {
        solver: SolverOptions::for_experiments(),
        ..Default::default()
    };

    let strategies = [
        ("Sample (RT, analyzed)", PathSelection::Sample),
        ("Thickest", PathSelection::Thickest),
        ("LoadAware (harness)", PathSelection::LoadAware),
    ];
    // results[trial][strategy] = (avg completion, stretch)
    let results: Vec<Vec<(f64, f64)>> = run_parallel(&instances, args.threads, |i, inst| {
        let lp = solve_free_paths_lp_paths(inst, &lp_cfg).unwrap();
        let order = lp_order(inst, &lp.base);
        strategies
            .iter()
            .map(|&(_, sel)| {
                let r = round_free_paths(
                    inst,
                    &lp,
                    &FreeRoundingConfig {
                        seed: i as u64,
                        selection: sel,
                        ..Default::default()
                    },
                );
                let out = simulate(inst, &r.paths, &order, &SimConfig::default());
                let rounded = round_given_paths(
                    &inst.with_paths(&r.paths),
                    &lp.base,
                    &RoundingConfig::default(),
                );
                (out.metrics.avg_coflow_completion, rounded.max_stretch)
            })
            .collect()
    });

    let trials = results.len() as f64;
    let rows: Vec<Vec<String>> = strategies
        .iter()
        .enumerate()
        .map(|(s, (name, _))| {
            let avg = results.iter().map(|r| r[s].0).sum::<f64>() / trials;
            let stretch = results.iter().map(|r| r[s].1).fold(0.0_f64, f64::max);
            vec![
                name.to_string(),
                format!("{avg:.1}"),
                format!("{stretch:.2}"),
            ]
        })
        .collect();
    print_table(
        "Path-selection strategies (same LP, same ordering)",
        &["strategy", "avg completion", "max stretch"],
        &rows,
    );
    if let Some(out) = &args.out {
        write_csv(out, &["strategy", "avg_completion", "max_stretch"], &rows).expect("csv");
        println!("\nWrote {out}");
    }
}
