//! **Ablation A2**: sensitivity of the §2.1 α-point rounding to its
//! parameters (α, D, ε). The paper optimizes (α=0.5, D=3, ε≈0.5436) for the
//! worst-case factor 17.54 (Eq. 12–14); this ablation shows the measured
//! cost and stretch across the parameter grid, on given-path (star)
//! instances.
//!
//! ```text
//! cargo run --release -p coflow-bench --bin ablation_alpha [--trials N]
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    reason = "an experiment binary fails fast on I/O and solver errors, and its console output is its result"
)]

use coflow_bench::{print_table, write_csv, CommonArgs};
use coflow_core::bounds;
use coflow_core::circuit::lp_given::{solve_given_paths_lp, GivenPathsLpConfig};
use coflow_core::circuit::round_given::{round_given_paths, RoundingConfig};
use coflow_core::model::Instance;
use coflow_net::{paths as netpaths, topo};
use coflow_workloads::gen::{generate, GenConfig};

fn main() {
    let args = CommonArgs::parse("results/ablation_alpha.csv");
    let trials = args.trials.max(3);
    let t = topo::star(8, 1.0);
    println!(
        "α/D/ε ablation of the given-paths rounding, {} trials per cell",
        trials
    );

    let instances: Vec<Instance> = (0..trials)
        .map(|trial| {
            let inst = generate(
                &t,
                &GenConfig {
                    n_coflows: 5,
                    width: 4,
                    size_mean: 6.0,
                    seed: 0xA1FA + trial as u64,
                    ..Default::default()
                },
            );
            let paths: Vec<_> = inst
                .flows()
                .map(|(_, _, f)| netpaths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap())
                .collect();
            inst.with_paths(&paths)
        })
        .collect();

    let mut rows = Vec::new();
    for &eps in &[0.3, coflow_core::PAPER_EPS, 1.0] {
        // LP once per ε (rounding params don't change the LP).
        let lps: Vec<_> = instances
            .iter()
            .map(|inst| {
                solve_given_paths_lp(
                    inst,
                    &GivenPathsLpConfig {
                        eps,
                        ..Default::default()
                    },
                )
                .unwrap()
            })
            .collect();
        for &alpha in &[0.25, 0.5, 0.75, 1.0] {
            for &d in &[1usize, 2, 3, 4] {
                let mut ratio_sum = 0.0;
                let mut stretch_max = 0.0_f64;
                for (inst, lp) in instances.iter().zip(&lps) {
                    let r = round_given_paths(
                        inst,
                        lp,
                        &RoundingConfig {
                            alpha,
                            displacement: d,
                        },
                    );
                    debug_assert!(r.schedule.check(inst, 1e-6, 1e-6).is_empty());
                    let lb = bounds::circuit_lower_bound(lp.objective, eps);
                    ratio_sum += r.metrics.weighted_sum / lb;
                    stretch_max = stretch_max.max(r.max_stretch);
                }
                rows.push(vec![
                    format!("{eps:.4}"),
                    format!("{alpha:.2}"),
                    format!("{d}"),
                    format!("{:.2}", ratio_sum / instances.len() as f64),
                    format!("{stretch_max:.2}"),
                ]);
            }
        }
    }
    print_table(
        "α-point rounding sensitivity (mean cost/LB, max interval stretch); paper picks ε=0.5436, α=0.5, D=3",
        &["eps", "alpha", "D", "cost/LB", "max stretch"],
        &rows,
    );

    if let Some(out) = &args.out {
        write_csv(
            out,
            &["eps", "alpha", "D", "cost_over_lb", "max_stretch"],
            &rows,
        )
        .expect("csv write");
        println!("\nWrote {out}");
    }
}
