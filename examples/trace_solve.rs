//! Trace a column-generation solve and render it trace_view-style.
//!
//! Runs the §2.2 free-paths LP in column-generation mode on a fat-tree
//! instance with the recorder forced to the **logical clock** (event-count
//! ticks), then prints the captured trace: the span tree in completion
//! order, per-name totals with self-time bars, counters, and the
//! resolve-latency histogram. Because the clock is logical, every run of
//! this example prints *identical* numbers — the trace measures the shape
//! of the computation, not the speed of the machine.
//!
//! Given an output path, the example also writes the trace there as
//! `coflow-trace/v1` JSONL for the `trace_view` binary to render (CI runs
//! it twice and `cmp`s the two files):
//!
//! ```text
//! cargo run --release --example trace_solve [-- results/TRACE_solve.jsonl]
//! cargo run --release -p coflow-bench --bin trace_view -- results/TRACE_solve.jsonl
//! ```

// Experiment binaries fail fast by design: unwrap/expect on I/O and
// solver results is the intended error handling here.
#![allow(clippy::unwrap_used)]

use coflow::obs::{ClockMode, Counter, SpanName};
use coflow::prelude::*;
use coflow_core::IntervalGrid;
use coflow_lp::WarmChain;
use coflow_workloads::gen::{generate, GenConfig};

fn main() {
    // A small fat-tree workload: enough structure for several colgen
    // rounds, small enough to run in well under a second.
    let topo = coflow::net::topo::fat_tree(4, 1.0);
    let inst = generate(
        &topo,
        &GenConfig {
            n_coflows: 6,
            width: 4,
            size_mean: 3.0,
            arrival_rate: 0.5,
            seed: 42,
            ..Default::default()
        },
    );

    // Column-generation config; the chain's recorder is switched to the
    // logical clock *before* any recording, so the trace is reproducible.
    let cfg = FreePathsLpConfig::default();
    let grid = IntervalGrid::cover(cfg.eps, inst.horizon());
    let mut pool = PathPool::new();
    let mut chain = WarmChain::new();
    chain.obs().set_mode(ClockMode::Logical);

    let (lp, cg) =
        solve_free_paths_lp_colgen_on_grid(&inst, &cfg, grid, &mut chain, &mut pool).unwrap();
    let trace = chain.take_trace();

    println!(
        "solved: objective {:.4}, {} colgen rounds, {} columns generated\n",
        lp.base.objective, cg.rounds, cg.generated_cols
    );

    // The span tree, completion (post-) order: children print before
    // parents, exactly as the ring recorded them.
    println!(
        "trace: clock {}, {} spans ({} dropped)",
        trace.mode.as_str(),
        trace.spans.len(),
        trace.dropped
    );
    println!("\nspan tree (completion order, logical ticks):");
    for s in &trace.spans {
        println!(
            "{:indent$}{:<14} total {:>6}  self {:>6}",
            "",
            s.name.as_str(),
            s.dur,
            s.self_t,
            indent = 2 + 2 * s.depth as usize,
        );
    }

    // Per-name aggregation with share-of-self-time bars, the same view
    // `trace_view` renders for the benchmark traces.
    let names = [
        SpanName::ColgenRound,
        SpanName::Master,
        SpanName::Oracle,
        SpanName::Solve,
        SpanName::Phase1,
        SpanName::Phase2,
    ];
    let total_self: f64 = names.iter().map(|&n| trace.span_self_ms(n)).sum();
    println!("\nby span name (bars: share of total self time):");
    for &n in &names {
        let count = trace.span_count(n);
        if count == 0 {
            continue;
        }
        let self_t = trace.span_self_ms(n);
        let share = if total_self > 0.0 {
            self_t / total_self
        } else {
            0.0
        };
        println!(
            "  {:<14} x{:<4} total {:>8.0}  self {:>8.0}  {:>5.1}% |{}",
            n.as_str(),
            count,
            trace.span_total_ms(n),
            self_t,
            share * 100.0,
            "#".repeat((share * 40.0).round() as usize),
        );
    }

    println!("\ncounters:");
    for c in [
        Counter::Pivots,
        Counter::Refactorizations,
        Counter::ScratchReuses,
        Counter::ColumnsPriced,
        Counter::OracleCalls,
        Counter::OracleRelaxations,
    ] {
        println!("  {:<18} {:>10}", c.as_str(), trace.counter(c));
    }

    // ColGenStats is a *view* over this trace: the per-phase sums agree.
    let master = trace.span_total_ms(SpanName::Master);
    let oracle = trace.span_total_ms(SpanName::Oracle);
    assert!((master - cg.master_ms).abs() < 1e-9);
    assert!((oracle - cg.pricing_ms).abs() < 1e-9);
    assert_eq!(trace.span_count(SpanName::Master), cg.rounds);
    println!(
        "\nview check: ColGenStats master {master:.0} / oracle {oracle:.0} ticks — \
         identical to the trace sums"
    );

    if let Some(path) = std::env::args().nth(1) {
        coflow_workloads::io::write_trace(std::path::Path::new(&path), &trace).unwrap();
        println!("wrote {path}");
    }
}
