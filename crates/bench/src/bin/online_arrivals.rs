//! **Online arrivals**: arrival-rate × policy sweep of the online engine
//! on a fat-tree, the coflows-arrive-over-time regime (the setting of the
//! iterated-rounding and parallel-networks follow-up papers).
//!
//! For each Poisson arrival rate, every [`OnlinePolicy`] schedules the
//! same traces (8 coflows of width 4); every realized schedule must pass
//! the §1.1 checker. Timing of the same engine on larger traces is the
//! `online_*_k8` workloads of `benchmark/`.
//!
//! ```text
//! cargo run --release -p coflow-bench --bin online_arrivals [--k 4] [--trials 5]
//! ```
//!
//! [`OnlinePolicy`]: coflow_engine::OnlinePolicy

#![allow(
    clippy::expect_used,
    clippy::print_stdout,
    reason = "an experiment binary fails fast on I/O and solver errors, and its console output is its result"
)]

use coflow_bench::{print_table, run_parallel, write_csv, CommonArgs};
use coflow_core::circuit::lp_free::FreePathsLpConfig;
use coflow_core::circuit::round_free::{FreeRoundingConfig, PathSelection};
use coflow_engine::{run, EngineConfig, Fifo, Greedy, LpOrder, OnlinePolicy, WeightedFair};
use coflow_net::topo;
use coflow_workloads::gen::{generate, GenConfig};

/// What the table reports of one policy's run on one trace.
struct PolicyRun {
    policy: &'static str,
    weighted_sum: f64,
    avg_completion: f64,
    epochs: usize,
    pivots: usize,
    warm_epochs: usize,
}

fn main() {
    let args = CommonArgs::parse("results/online_arrivals.csv");
    assert!(args.trials >= 1, "need at least 1 trial (--trials)");
    let rates = [0.25, 0.5, 1.0];
    let t = topo::fat_tree(args.k, 1.0);
    println!(
        "Online arrivals on {} ({} hosts): 8 coflows x width 4, rates {:?}, {} trials/rate",
        t.name,
        t.host_count(),
        rates,
        args.trials
    );
    let cfg = EngineConfig::default();

    let mut rows: Vec<Vec<String>> = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        let instances: Vec<_> = (0..args.trials)
            .map(|trial| {
                generate(
                    &t,
                    &GenConfig {
                        n_coflows: 8,
                        width: 4,
                        size_mean: 3.0,
                        arrival_rate: rate,
                        jitter_rate: 2.0,
                        // Keyed by sweep position, not the rate value:
                        // nearby rates must not collide to one seed.
                        seed: 0x011E_0000 + (ri as u64) * 10_000 + trial as u64,
                        ..Default::default()
                    },
                )
            })
            .collect();

        // Per trial, one `PolicyRun` per policy, in the same order.
        let results: Vec<Vec<PolicyRun>> = run_parallel(&instances, args.threads, |trial, inst| {
            let mut lp = LpOrder::new(
                FreePathsLpConfig {
                    solver: coflow_lp::SolverOptions::for_experiments(),
                    ..Default::default()
                },
                FreeRoundingConfig {
                    seed: trial as u64,
                    selection: PathSelection::LoadAware,
                    ..Default::default()
                },
            );
            let (mut greedy, mut fair, mut fifo) = (Greedy, WeightedFair, Fifo);
            let policies: [&mut dyn OnlinePolicy; 4] = [&mut lp, &mut greedy, &mut fair, &mut fifo];
            policies
                .into_iter()
                .map(|policy| {
                    let out = run(inst, policy, &cfg);
                    // The online engine must never oversubscribe a
                    // link or jump a release.
                    let routed = inst.with_paths(&out.paths);
                    let violations = out.schedule.check(&routed, 1e-6, 1e-6);
                    assert!(violations.is_empty(), "{}: {violations:?}", policy.name());
                    let solves = out.engine.epoch_log.iter().filter_map(|e| e.solve);
                    PolicyRun {
                        policy: policy.name(),
                        weighted_sum: out.metrics.weighted_sum,
                        avg_completion: out.metrics.avg_coflow_completion,
                        epochs: out.engine.epochs,
                        pivots: solves.clone().map(|s| s.iterations).sum(),
                        warm_epochs: solves.filter(|s| s.warm_used).count(),
                    }
                })
                .collect()
        });

        let trials = results.len() as f64;
        for (p, first) in results[0].iter().enumerate() {
            let mean =
                |f: fn(&PolicyRun) -> f64| results.iter().map(|r| f(&r[p])).sum::<f64>() / trials;
            rows.push(vec![
                format!("{rate}"),
                first.policy.to_string(),
                format!("{:.2}", mean(|m| m.weighted_sum)),
                format!("{:.2}", mean(|m| m.avg_completion)),
                format!("{:.1}", mean(|m| m.epochs as f64)),
                format!("{:.1}", mean(|m| m.pivots as f64)),
                format!("{:.1}", mean(|m| m.warm_epochs as f64)),
            ]);
        }
    }

    print_table(
        "Online engine: per-trial means by arrival rate and policy",
        &[
            "rate",
            "policy",
            "Σ ω·C",
            "avg C",
            "epochs",
            "pivots",
            "warm epochs",
        ],
        &rows,
    );

    if let Some(out) = &args.out {
        write_csv(
            out,
            &[
                "rate",
                "policy",
                "weighted_sum",
                "avg_completion",
                "epochs",
                "pivots",
                "warm_epochs",
            ],
            &rows,
        )
        .expect("csv write");
        println!("\nWrote {out}");
    }
}
