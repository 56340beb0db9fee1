//! **Table 1** counterpart: empirical approximation ratios for all four
//! models, measured as `realized cost / LP lower bound` on random
//! instances, printed next to the paper's proven bounds.
//!
//! The theory bounds are worst-case; the measured ratios being far below
//! them (and the packet models' being small constants) is the expected
//! outcome — §4.3 notes "the worst-case approximation ratio ... does not
//! happen in practice".
//!
//! ```text
//! cargo run --release -p coflow-bench --bin table1_ratios [--trials N]
//! ```

// Experiment binaries fail fast by design: unwrap/expect on I/O and
// solver results is the intended error handling here.
#![allow(clippy::unwrap_used)]

use coflow_bench::{print_table, write_csv, CommonArgs};
use coflow_core::bounds;
use coflow_core::circuit::lp_free::{
    solve_free_paths_lp_colgen_on_grid, FreePathsLpConfig, PathPool,
};
use coflow_core::circuit::lp_given::{solve_given_paths_lp, GivenPathsLpConfig};
use coflow_core::circuit::round_free::{round_free_paths, FreeRoundingConfig};
use coflow_core::circuit::round_given::{round_given_paths, RoundingConfig};
use coflow_core::packet::free::{route_and_schedule, PacketFreeConfig};
use coflow_core::packet::jobshop::{schedule_given_paths, PacketConfig};
use coflow_core::IntervalGrid;
use coflow_lp::WarmChain;
use coflow_net::{paths as netpaths, topo};
use coflow_workloads::gen::{generate, generate_packets, GenConfig};

struct Row {
    model: &'static str,
    paths: &'static str,
    theory: &'static str,
    ratios: Vec<f64>,
}

fn main() {
    let args = CommonArgs::parse("results/table1_ratios.csv");
    let trials = args.trials.max(3);
    println!("Table 1 counterpart: measured approximation ratios over {trials} trials/model");

    let mut rows: Vec<Row> = Vec::new();

    // --- Circuit, given paths (§2.1, bound 17.6). On a star every pair has
    // a unique path, the canonical given-paths topology. Sizes are >= 1 so
    // the interval normalization is meaningful.
    {
        let t = topo::star(8, 1.0);
        let mut ratios = Vec::new();
        for trial in 0..trials {
            let cfg = GenConfig {
                n_coflows: 4,
                width: 4,
                size_mean: 6.0,
                seed: 0xAA00 + trial as u64,
                ..Default::default()
            };
            let inst = generate(&t, &cfg);
            let routed = {
                let paths: Vec<_> = inst
                    .flows()
                    .map(|(_, _, f)| {
                        netpaths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap()
                    })
                    .collect();
                inst.with_paths(&paths)
            };
            let lp = solve_given_paths_lp(&routed, &GivenPathsLpConfig::default()).unwrap();
            let r = round_given_paths(&routed, &lp, &RoundingConfig::default());
            assert!(r.schedule.check(&routed, 1e-6, 1e-6).is_empty());
            let lb = bounds::circuit_lower_bound(lp.objective, lp.grid.eps);
            ratios.push(r.metrics.weighted_sum / lb);
        }
        rows.push(Row {
            model: "Circuit",
            paths: "given",
            theory: "17.6 (O(1))",
            ratios,
        });
    }

    // --- Circuit, paths not given (§2.2, bound O(log E / log log E)). The
    // LP is the paper's (15)–(23): column generation over every simple path.
    {
        let t = topo::fat_tree(4, 1.0);
        let lp_cfg = FreePathsLpConfig {
            path_slack: t.graph.node_count(),
            ..Default::default()
        };
        let mut ratios = Vec::new();
        for trial in 0..trials {
            let cfg = GenConfig {
                n_coflows: 4,
                width: 4,
                size_mean: 6.0,
                seed: 0xBB00 + trial as u64,
                ..Default::default()
            };
            let inst = generate(&t, &cfg);
            let grid = IntervalGrid::cover(lp_cfg.eps, inst.horizon());
            let chain = &mut WarmChain::new();
            let (lp, _) = solve_free_paths_lp_colgen_on_grid(
                &inst,
                &lp_cfg,
                grid,
                chain,
                &mut PathPool::new(),
            )
            .unwrap();
            let r = round_free_paths(
                &inst,
                &lp,
                &FreeRoundingConfig {
                    seed: trial as u64,
                    ..Default::default()
                },
            );
            let routed = inst.with_paths(&r.paths);
            assert!(r.rounded.schedule.check(&routed, 1e-6, 1e-6).is_empty());
            let lb = bounds::circuit_lower_bound(lp.base.objective, lp.base.grid.eps);
            ratios.push(r.rounded.metrics.weighted_sum / lb);
        }
        rows.push(Row {
            model: "Circuit",
            paths: "not given",
            theory: "O(log E/loglog E)",
            ratios,
        });
    }

    // --- Packet, given paths (§3.1, O(1)).
    {
        let t = topo::grid(3, 3, 1.0);
        let mut ratios = Vec::new();
        for trial in 0..trials {
            let cfg = GenConfig {
                n_coflows: 4,
                width: 3,
                seed: 0xCC00 + trial as u64,
                ..Default::default()
            };
            let inst = generate_packets(&t, &cfg);
            let routed = {
                let paths: Vec<_> = inst
                    .flows()
                    .map(|(_, _, f)| {
                        netpaths::bfs_shortest_path(&inst.graph, f.src, f.dst).unwrap()
                    })
                    .collect();
                inst.with_paths(&paths)
            };
            let r = schedule_given_paths(&routed, &PacketConfig::default()).unwrap();
            assert!(r.schedule.check(&routed).is_empty());
            let lb = bounds::packet_lower_bound(r.lp_objective);
            ratios.push(r.metrics.weighted_sum / lb);
        }
        rows.push(Row {
            model: "Packet",
            paths: "given",
            theory: "O(1)",
            ratios,
        });
    }

    // --- Packet, paths not given (§3.2, O(1)).
    {
        let t = topo::grid(3, 3, 1.0);
        let mut ratios = Vec::new();
        for trial in 0..trials {
            let cfg = GenConfig {
                n_coflows: 4,
                width: 3,
                seed: 0xDD00 + trial as u64,
                ..Default::default()
            };
            let inst = generate_packets(&t, &cfg);
            let r = route_and_schedule(&inst, &PacketFreeConfig::default()).unwrap();
            assert!(r.schedule.check(&inst).is_empty());
            let lb = bounds::packet_lower_bound(r.lp_objective);
            ratios.push(r.metrics.weighted_sum / lb);
        }
        rows.push(Row {
            model: "Packet",
            paths: "not given",
            theory: "O(1)",
            ratios,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mean = r.ratios.iter().sum::<f64>() / r.ratios.len() as f64;
            let max = r.ratios.iter().copied().fold(0.0_f64, f64::max);
            vec![
                r.model.to_string(),
                r.paths.to_string(),
                r.theory.to_string(),
                format!("{mean:.2}"),
                format!("{max:.2}"),
            ]
        })
        .collect();
    print_table(
        "Measured approximation ratios (cost / LP lower bound)",
        &["model", "paths", "theory bound", "mean ratio", "max ratio"],
        &table,
    );

    if let Some(out) = &args.out {
        write_csv(
            out,
            &["model", "paths", "theory", "mean_ratio", "max_ratio"],
            &table,
        )
        .expect("csv write");
        println!("\nWrote {out}");
    }
}
