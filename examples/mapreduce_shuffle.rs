//! MapReduce shuffle on a fat-tree — the paper's motivating workload (§1):
//! "the reduce phase at a particular reducer can begin only after all the
//! relevant data from the map phase has arrived".
//!
//! Three shuffle stages (Spark-like job mix) arrive over time on a k=4
//! fat-tree; the example compares the LP-based scheme against the §4.3
//! heuristics and SEBF, and prints how long each *stage* (coflow) waits for
//! its last transfer.
//!
//! ```text
//! cargo run --release --example mapreduce_shuffle
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::print_stdout,
    reason = "an example fails fast on I/O and solver errors, and its console output is its result"
)]

use coflow::prelude::*;
use coflow::workloads::suite::shuffle_mix;

fn main() {
    let topo = coflow::net::topo::fat_tree(4, 1.0);
    // Stage mixes: (mappers, reducers, bytes per transfer, weight, release).
    // Weights encode job priority (e.g. an interactive query's shuffle).
    let instance = shuffle_mix(
        &topo,
        &[
            (4, 4, 2.0, 1.0, 0.0), // big batch shuffle
            (2, 2, 1.0, 4.0, 3.0), // small high-priority query
            (3, 2, 3.0, 1.0, 6.0), // medium stage arriving later
        ],
    );
    assert!(instance.validate().is_empty());
    println!(
        "{} shuffle transfers across {} stages on {} ({} hosts)\n",
        instance.flow_count(),
        instance.coflow_count(),
        topo.name,
        topo.host_count()
    );

    // LP-based (the paper's §2.2 algorithm + §4.2 execution).
    let lp = solve_free_paths_lp_paths(&instance, &FreePathsLpConfig::default()).unwrap();
    let rounding = round_free_paths(
        &instance,
        &lp,
        &FreeRoundingConfig {
            selection: PathSelection::LoadAware,
            ..Default::default()
        },
    );
    let lp_out = simulate(
        &instance,
        &rounding.paths,
        &lp_order(&instance, &lp.base),
        &SimConfig::default(),
    );
    assert!(lp_out.schedule.check(&instance, 1e-6, 1e-6).is_empty());

    // Heuristics.
    let bcfg = BaselineConfig::default();
    let schemes = [
        baselines::route_only(&instance, &bcfg),
        baselines::schedule_only(&instance, &bcfg),
        baselines::baseline_random(&instance, &bcfg),
    ];
    let route_paths = schemes[0].paths.clone();
    let sebf = baselines::sebf(&instance, &route_paths);

    println!(
        "{:<16} {:>10} {:>12}  per-stage completions",
        "scheme", "weighted", "avg stage"
    );
    let show = |name: &str, m: &Metrics| {
        println!(
            "{:<16} {:>10.2} {:>12.2}  {:?}",
            name,
            m.weighted_sum,
            m.avg_coflow_completion,
            m.coflow_completion
                .iter()
                .map(|c| (c * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    };
    show("LP-Based", &lp_out.metrics);
    for s in &schemes {
        let out = simulate(&instance, &s.paths, &s.order, &SimConfig::default());
        show(s.name, &out.metrics);
    }
    let out = simulate(&instance, &sebf.paths, &sebf.order, &SimConfig::default());
    show(sebf.name, &out.metrics);

    println!(
        "\nLP lower bound (Lemma 5): {:.2}; LP-based achieves {:.2} ({:.2}x)",
        lp.base.objective / 2.0,
        lp_out.metrics.weighted_sum,
        lp_out.metrics.weighted_sum / (lp.base.objective / 2.0)
    );
}
