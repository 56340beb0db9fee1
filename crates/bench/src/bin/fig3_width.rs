//! **Figure 3** (§4.3): impact of coflow width.
//!
//! "We fix the number of coflows to 10 and run experiments for coflow
//! widths in {4, 8, 16, 32}." Both panels are printed: absolute average
//! completion time per scheme, and the ratio with respect to Baseline.
//!
//! Defaults run a k=4 fat-tree (16 servers) with 5 trials per point so the
//! whole figure regenerates in minutes; `--k 8 --trials 10` is the paper's
//! exact 128-server setting.
//!
//! ```text
//! cargo run --release -p coflow-bench --bin fig3_width [--k 8] [--trials 10]
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
use coflow_workloads::suite::fig3_config;

fn main() {
    let args = CommonArgs::parse("results/fig3_width.csv");
    let widths = [4usize, 8, 16, 32];
    let t = topo::fat_tree(args.k, 1.0);
    println!(
        "Figure 3 reproduction: {} ({} servers), 10 coflows, widths {:?}, {} trials/point",
        t.name,
        t.host_count(),
        widths,
        args.trials
    );
    let lp_cfg = FreePathsLpConfig {
        solver: coflow_lp::SolverOptions::for_experiments(),
        ..Default::default()
    };

    let mut points: Vec<PointSummary> = Vec::new();
    for &w in &widths {
        let instances: Vec<Instance> = (0..args.trials)
            .map(|trial| generate(&t, &fig3_config(w, trial as u64)))
            .collect();
        let p = run_point(&format!("{w} flows"), &instances, &lp_cfg, args.threads);
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

    // Panel 1: absolute average completion times.
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
            "Average completion time ({} servers, 10 coflows)",
            t.host_count()
        ),
        &[
            "width",
            "LP-Based",
            "Route-only",
            "Schedule-only",
            "Baseline",
        ],
        &rows,
    );

    // Panel 2: ratio w.r.t. Baseline.
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
            "width",
            "LP-Based",
            "Route-only",
            "Schedule-only",
            "Baseline",
        ],
        &rows,
    );

    print_improvements(&points);

    // §4.3's observation: the decomposition returns ~1 path per flow.
    let ppf: f64 = points.iter().map(|p| p.diag.paths_per_flow).sum::<f64>() / points.len() as f64;
    println!("\nPaths per flow after decomposition (paper observes 1.0 on fat-trees): {ppf:.3}");

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
                "width",
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
