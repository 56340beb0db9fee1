//! Quickstart for the **online engine**: coflows arriving over time on a
//! fat-tree, scheduled by all four online policies.
//!
//! A Poisson arrival trace is generated (`arrival_rate` coflows per time
//! unit), the engine admits each coflow when it arrives, re-plans at every
//! arrival/completion epoch, and a fluid executor advances rates between
//! events. `LpOrder` re-solves the paper's §2.2 LP on the residual
//! instance at every epoch, warm-starting each re-solve from the previous
//! optimal basis.
//!
//! ```text
//! cargo run --release --example online_arrivals
//! ```
//!
//! The arrival-rate × policy sweep is the `online_arrivals` binary of
//! `coflow-bench`; timing of the engine is the `online_*_k8` workloads of
//! `benchmark/`.

// Experiment binaries fail fast by design: unwrap/expect on I/O and
// solver results is the intended error handling here.
#![allow(clippy::unwrap_used)]

use coflow::prelude::*;
use coflow::workloads::gen::{generate, GenConfig};

fn main() {
    let topo = coflow::net::topo::fat_tree(4, 1.0);
    let instance = generate(
        &topo,
        &GenConfig {
            n_coflows: 6,
            width: 3,
            size_mean: 3.0,
            arrival_rate: 0.4, // mean inter-arrival 2.5 time units
            jitter_rate: 2.0,
            seed: 7,
            ..Default::default()
        },
    );
    println!(
        "online arrivals on {} ({} hosts): {} coflows / {} flows, arrivals spread over [0, {:.1}]",
        topo.name,
        topo.host_count(),
        instance.coflow_count(),
        instance.flow_count(),
        instance.max_release()
    );

    let cfg = EngineConfig::default(); // re-plan on every arrival + completion
    let mut lp = LpOrder::default();
    let (mut fifo, mut greedy, mut fair) = (Fifo, Greedy, WeightedFair);
    let policies: Vec<&mut dyn OnlinePolicy> = vec![&mut lp, &mut greedy, &mut fair, &mut fifo];

    println!(
        "\n{:>14}  {:>12} {:>10} {:>7} {:>8} {:>10} {:>10}",
        "policy", "Σ ω·C", "avg C", "epochs", "events", "pivots", "warm used"
    );
    for policy in policies {
        let out = run_online(&instance, policy, &cfg);
        let e = &out.engine;
        println!(
            "{:>14}  {:>12.2} {:>10.2} {:>7} {:>8} {:>10} {:>10}",
            e.policy,
            e.weighted_sum,
            e.avg_coflow_completion,
            e.epochs,
            e.events,
            e.total_pivots,
            format!("{}/{}", e.warm_used, e.warm_attempted),
        );
    }
    println!(
        "\nLpOrder re-solves the residual LP each epoch through one WarmChain; \
         `warm used` counts epochs that reused the previous optimal basis."
    );
}
