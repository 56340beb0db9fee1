//! The end-to-end chaos harness.
//!
//! [`chaos_run`] executes one seeded scenario: a degraded fat-tree (links
//! removed by [`drop_links`]), a small
//! generated workload, and the online engine running the budgeted
//! column-generation LP policy with a [`FaultPlan`]
//! installed — forced singular factorizations, pricing outages, perturbed
//! duals — on top of whatever natural degeneracy the instance brings.
//!
//! The run is expected to *succeed anyway*: the solver's recovery ladder
//! and the engine's degradation ladder absorb every fault, so the harness
//! returns the checker verdict, per-flow completions, and the rendered
//! logical-clock trace for the suite to assert on (no panic, zero
//! violations, full completion, byte-identical traces across repeat runs).

use crate::netfail::drop_links;
use crate::plan::{FaultPlan, FaultPlanConfig};
use coflow_engine::{run, EngineConfig, LpOrder};
use coflow_lp::{Budget, SolverOptions};
use coflow_net::topo;
use coflow_workloads::gen::{generate, GenConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Once;

/// What one chaos run produced.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Per-flow completion times (flat order).
    pub completions: Vec<f64>,
    /// Feasibility violations reported by `CircuitSchedule::check`.
    pub violations: usize,
    /// Epochs the degradation ladder had to degrade.
    pub degraded_epochs: usize,
    /// Epochs served by the solver-free fallback policy.
    pub fallback_policy_uses: usize,
    /// Faults the plan actually injected into the solver.
    pub faults_injected: u64,
    /// Bidirectional links removed from the fat-tree.
    pub links_removed: usize,
    /// The engine trace rendered as `coflow-trace/v1` JSONL (logical
    /// clock: byte-identical across runs).
    pub trace_jsonl: String,
}

/// Forces `COFLOW_OBS_CLOCK=logical` for this process, once.
///
/// Recorders read the variable at construction, so [`chaos_run`] calls
/// this before any engine or solver runs. Process-wide by design: the
/// chaos suite's byte-diff assertions are meaningless under the wall
/// clock.
fn force_logical_clock() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| std::env::set_var("COFLOW_OBS_CLOCK", "logical"));
}

/// Runs one seeded chaos scenario to completion and reports what happened.
/// The seed drives the topology damage, the workload and the fault plan.
///
/// Never panics for any seed: that is the property under test.
pub fn chaos_run(seed: u64) -> ChaosOutcome {
    force_logical_clock();
    let mut rng = StdRng::seed_from_u64(seed);

    // Scenario: a k=4 fat-tree missing 0-2 links, 3 coflows x 2 flows
    // arriving over time. Small on purpose — the suite runs hundreds of
    // these — but multi-epoch, so the ladder has standing plans to reuse.
    let (t, links_removed) = drop_links(&topo::fat_tree(4, 1.0), rng.random_range(0..3usize), seed);
    let inst = generate(
        &t,
        &GenConfig {
            n_coflows: 3,
            width: 2,
            size_mean: 2.0,
            arrival_rate: 0.75,
            jitter_rate: 2.0,
            seed: seed ^ 0xC0F_F0D,
            ..Default::default()
        },
    );

    // Budgeted colgen LP: tight enough that budgets genuinely truncate on
    // some seeds, generous enough that clean solves stay optimal.
    let lp_cfg = coflow_core::circuit::lp_free::FreePathsLpConfig {
        solver: SolverOptions {
            budget: Budget {
                max_pivots: Some(400),
                max_colgen_rounds: Some(4),
                deadline: None,
            },
            ..SolverOptions::for_experiments()
        },
        ..Default::default()
    };
    let round_cfg = coflow_core::circuit::round_free::FreeRoundingConfig {
        seed,
        ..Default::default()
    };
    let mut policy = LpOrder::colgen(lp_cfg, round_cfg);
    let plan = FaultPlan::new(FaultPlanConfig {
        seed: seed ^ 0xFA17,
        ..Default::default()
    });
    let counters = plan.counters();
    policy.set_fault_hook(Some(Box::new(plan)));

    let out = run(&inst, &mut policy, &EngineConfig::default());

    let routed = inst.with_paths(&out.paths);
    let violations = out.schedule.check(&routed, 1e-6, 1e-6).len();
    ChaosOutcome {
        completions: out.flow_completion.clone(),
        violations,
        degraded_epochs: out.engine.degraded_epochs,
        fallback_policy_uses: out.engine.fallback_policy_uses,
        faults_injected: counters.total(),
        links_removed,
        trace_jsonl: out.trace.render_jsonl(),
    }
}
