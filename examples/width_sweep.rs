//! A miniature of the paper's Figure 3 sweep, runnable in seconds: vary
//! coflow width on a 16-server fat-tree and watch the gap between the
//! LP-based algorithm and the heuristics grow (full-size regeneration lives
//! in `coflow-bench`'s `fig3_width` binary).
//!
//! ```text
//! cargo run --release --example width_sweep
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::print_stdout,
    reason = "an example fails fast on I/O and solver errors, and its console output is its result"
)]

use coflow::prelude::*;
use coflow::workloads::gen::{generate, GenConfig};

fn main() {
    let topo = coflow::net::topo::fat_tree(4, 1.0);
    println!(
        "mini Figure 3: {} | 5 coflows | widths 2/4/8 | 2 trials\n",
        topo.name
    );
    println!(
        "{:>6} {:>10} {:>12} {:>15} {:>10}",
        "width", "LP-Based", "Route-only", "Schedule-only", "Baseline"
    );

    for width in [2usize, 4, 8] {
        let mut sums = [0.0f64; 4];
        let trials = 2;
        for trial in 0..trials {
            let inst = generate(
                &topo,
                &GenConfig {
                    n_coflows: 5,
                    width,
                    seed: 42 + trial,
                    ..Default::default()
                },
            );
            // LP-based.
            let lp = solve_free_paths_lp_paths(&inst, &FreePathsLpConfig::default()).unwrap();
            let r = round_free_paths(
                &inst,
                &lp,
                &FreeRoundingConfig {
                    selection: PathSelection::LoadAware,
                    seed: trial,
                    ..Default::default()
                },
            );
            let out = simulate(
                &inst,
                &r.paths,
                &lp_order(&inst, &lp.base),
                &SimConfig::default(),
            );
            sums[0] += out.metrics.avg_coflow_completion;
            // Heuristics.
            let bcfg = BaselineConfig {
                seed: trial,
                ..Default::default()
            };
            for (i, s) in [
                baselines::route_only(&inst, &bcfg),
                baselines::schedule_only(&inst, &bcfg),
                baselines::baseline_random(&inst, &bcfg),
            ]
            .iter()
            .enumerate()
            {
                let out = simulate(&inst, &s.paths, &s.order, &SimConfig::default());
                sums[i + 1] += out.metrics.avg_coflow_completion;
            }
        }
        let avg = |x: f64| x / trials as f64;
        println!(
            "{:>6} {:>10.1} {:>12.1} {:>15.1} {:>10.1}",
            width,
            avg(sums[0]),
            avg(sums[1]),
            avg(sums[2]),
            avg(sums[3])
        );
    }
    println!("\n(expect LP-Based lowest; see coflow-bench fig3_width for the full figure)");
}
