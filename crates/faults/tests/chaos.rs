//! The seeded chaos suite (the tentpole's acceptance property).
//!
//! For every seed: the faulted end-to-end run must not panic, must produce
//! a checker-clean schedule that completes every coflow, and must render a
//! byte-identical `coflow-trace/v1` JSONL trace when repeated.
//!
//! `COFLOW_CHAOS_SEEDS` overrides the seed count (default 200); the CI
//! `chaos` lane runs a quick subset, the default run is the full suite.
//! `COFLOW_CHAOS_TRACE_OUT=<path>` additionally writes every seed's trace
//! to one file so CI can byte-diff two independent *processes* on top of
//! the in-process repeat identity asserted here.

use coflow_faults::chaos_run;

fn seed_count() -> u64 {
    std::env::var("COFLOW_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(200)
}

/// Asserts the per-run survival properties and returns the outcome.
fn surviving_run(seed: u64) -> coflow_faults::ChaosOutcome {
    let out = chaos_run(seed);
    assert_eq!(out.violations, 0, "seed {seed}: infeasible schedule");
    assert!(
        !out.completions.is_empty() && out.completions.iter().all(|&c| c.is_finite() && c > 0.0),
        "seed {seed}: incomplete flows {:?}",
        out.completions
    );
    assert!(!out.trace_jsonl.is_empty(), "seed {seed}: empty trace");
    out
}

#[test]
fn seeded_suite_survives_and_replays_byte_identically() {
    let n = seed_count();
    let mut faults_total = 0u64;
    let mut degraded_total = 0usize;
    let mut drops_total = 0usize;
    let mut suite_trace = String::new();
    for seed in 0..n {
        let a = surviving_run(seed);
        let b = surviving_run(seed);
        assert_eq!(
            a.trace_jsonl, b.trace_jsonl,
            "seed {seed}: trace differs between identical runs"
        );
        assert_eq!(
            a.completions, b.completions,
            "seed {seed}: nondeterministic run"
        );
        assert_eq!(a.faults_injected, b.faults_injected, "seed {seed}");
        faults_total += a.faults_injected;
        degraded_total += a.degraded_epochs;
        drops_total += a.links_removed;
        suite_trace.push_str(&a.trace_jsonl);
    }
    if let Ok(path) = std::env::var("COFLOW_CHAOS_TRACE_OUT") {
        std::fs::write(&path, &suite_trace)
            .unwrap_or_else(|e| panic!("writing suite trace to {path}: {e}"));
    }
    // The suite must actually exercise the machinery, not vacuously pass.
    assert!(faults_total > 0, "no faults injected across {n} seeds");
    assert!(drops_total > 0, "no links removed across {n} seeds");
    // Degraded epochs are seed-dependent (most faults are absorbed below
    // the engine); at full scale some seed must climb the ladder.
    if n >= 100 {
        assert!(degraded_total > 0, "ladder never engaged across {n} seeds");
    }
}
