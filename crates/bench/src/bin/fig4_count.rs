//! **Figure 4** (§4.3): impact of the number of coflows.
//!
//! "Using a fixed coflow width of 16, we vary the number of coflows from 10
//! to 25 [figure shows up to 30], in increments of 5."
//!
//! ```text
//! cargo run --release -p coflow-bench --bin fig4_count [--k 8] [--trials 10]
//! ```

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "an experiment binary fails fast on I/O and solver errors, and its console output is its result"
)]

use coflow_bench::{
    print_improvements, print_table, run_point, write_csv, CommonArgs, PointSummary, SCHEME_NAMES,
};
use coflow_core::circuit::lp_free::FreePathsLpConfig;
use coflow_core::model::Instance;
use coflow_net::topo;
use coflow_workloads::gen::generate;
use coflow_workloads::suite::fig4_config;

fn main() {
    let args = CommonArgs::parse("results/fig4_count.csv");
    let counts = [10usize, 15, 20, 25, 30];
    let t = topo::fat_tree(args.k, 1.0);
    println!(
        "Figure 4 reproduction: {} ({} servers), width 16, coflow counts {:?}, {} trials/point",
        t.name,
        t.host_count(),
        counts,
        args.trials
    );
    let lp_cfg = FreePathsLpConfig {
        solver: coflow_lp::SolverOptions::for_experiments(),
        ..Default::default()
    };

    let mut points: Vec<PointSummary> = Vec::new();
    for &n in &counts {
        let instances: Vec<Instance> = (0..args.trials)
            .map(|trial| generate(&t, &fig4_config(n, trial as u64)))
            .collect();
        let p = run_point(&format!("{n} coflows"), &instances, &lp_cfg, args.threads);
        println!(
            "  [{}] LP obj {:.1}, LB {:.1}, paths/flow {:.2}, {} pivots, {:.0} ms/solve",
            p.label,
            p.diag.lp_objective,
            p.diag.lower_bound,
            p.diag.paths_per_flow,
            p.diag.iterations,
            p.diag.solve_ms
        );
        points.push(p);
    }

    let mut rows = Vec::new();
    for p in &points {
        let mut row = vec![p.label.clone()];
        for name in SCHEME_NAMES {
            row.push(format!("{:.1}", p.avg_of(name)));
        }
        rows.push(row);
    }
    print_table(
        &format!(
            "Average completion time ({} servers, width 16)",
            t.host_count()
        ),
        &[
            "coflows",
            "LP-Based",
            "Route-only",
            "Schedule-only",
            "Baseline",
        ],
        &rows,
    );

    let mut rows = Vec::new();
    for p in &points {
        let mut row = vec![p.label.clone()];
        for name in SCHEME_NAMES {
            row.push(format!("{:.3}", p.ratio_to_baseline(name)));
        }
        rows.push(row);
    }
    print_table(
        "Ratio with respect to Baseline",
        &[
            "coflows",
            "LP-Based",
            "Route-only",
            "Schedule-only",
            "Baseline",
        ],
        &rows,
    );

    print_improvements(&points);

    if let Some(out) = &args.out {
        let mut rows = Vec::new();
        for p in &points {
            for name in SCHEME_NAMES {
                rows.push(vec![
                    p.label.clone(),
                    name.to_string(),
                    format!("{}", p.avg_of(name)),
                    format!("{}", p.ratio_to_baseline(name)),
                    format!("{}", p.trials),
                ]);
            }
        }
        write_csv(
            out,
            &[
                "coflows",
                "scheme",
                "avg_completion",
                "ratio_vs_baseline",
                "trials",
            ],
            &rows,
        )
        .expect("csv write");
        println!("\nWrote {out}");
    }
}
