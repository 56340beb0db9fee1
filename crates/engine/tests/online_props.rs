//! Property tests tying the online engine back to the offline pipeline.
//!
//! * **Offline equivalence** — with every release at 0 the canonical trace
//!   admits everything in one epoch; under an arrivals-only trigger the
//!   engine's `LpOrder` policy then *is* the offline §2.2 pipeline (same
//!   LP, same rounding seed, same order) driven by the same shared fluid
//!   allocator, so the weighted completion times must agree exactly.
//! * **Feasibility invariants** — on arbitrary arrival streams, every
//!   policy's realized schedule passes the §1.1 checker: rate allocations
//!   never exceed any link capacity at any event time, releases are
//!   respected, and all demanded volume is delivered.
//! * **Basis reuse is a speed lever** — epoch by epoch the warm-started LP
//!   reaches the cold LP's optimum (not necessarily its vertex, so realized
//!   objectives of a warm and a cold run may differ; both runs are sound).

use coflow_core::bounds::trivial_lower_bound;
use coflow_core::circuit::lp_free::{
    solve_free_paths_lp_paths, solve_free_paths_lp_paths_on_grid, FreePathsLpConfig,
};
use coflow_core::circuit::round_free::{round_free_paths, FreeRoundingConfig};
use coflow_core::intervals::IntervalGrid;
use coflow_core::order::lp_order;
use coflow_core::tol::{rel_eq, OBJ_REL_EPS};
use coflow_engine::{
    run, EngineConfig, EngineOutcome, EpochPlan, EpochTrigger, EpochView, Fifo, Greedy, LpOrder,
    OnlinePolicy, PolicyError, RatePlan, WeightedFair,
};
use coflow_lp::{ChainStats, ColGenStats, SolveStats, WarmChain};
use coflow_sim::fluid::{simulate, SimConfig};
use coflow_workloads::gen::{generate, GenConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All releases at 0 + a single epoch ⇒ `LpOrder` reproduces the
    /// offline circuit schedule's weighted completion time exactly.
    #[test]
    fn single_epoch_lp_order_matches_offline(n in 1usize..4, w in 1usize..4, seed in 0u64..200) {
        let topo = coflow_net::topo::fat_tree(4, 1.0);
        let inst = generate(&topo, &GenConfig {
            n_coflows: n,
            width: w,
            size_mean: 3.0,
            arrival_rate: 0.0,
            jitter_rate: 0.0,
            seed,
            ..Default::default()
        });
        let lp_cfg = FreePathsLpConfig::default();
        let round_cfg = FreeRoundingConfig { seed, ..Default::default() };

        // Offline reference: LP → rounding → LP order → fluid simulation.
        let lp = solve_free_paths_lp_paths(&inst, &lp_cfg).unwrap();
        let rounding = round_free_paths(&inst, &lp, &round_cfg);
        let order = lp_order(&inst, &lp.base);
        let offline = simulate(&inst, &rounding.paths, &order, &SimConfig::default());

        // Online engine, single epoch (everything arrives at t = 0 and the
        // trigger never fires again).
        let mut pol = LpOrder::new(lp_cfg, round_cfg);
        let cfg = EngineConfig { trigger: EpochTrigger::arrivals_only() };
        let online = run(&inst, &mut pol, &cfg);

        // All arrivals at 0 must make exactly one epoch.
        prop_assert_eq!(online.engine.epochs, 1);
        prop_assert!(
            (online.metrics.weighted_sum - offline.metrics.weighted_sum).abs() < 1e-9,
            "online {} vs offline {}",
            online.metrics.weighted_sum,
            offline.metrics.weighted_sum
        );
        for (a, b) in online.flow_completion.iter().zip(&offline.flow_completion) {
            prop_assert!((a - b).abs() < 1e-9, "flow completions diverge: {a} vs {b}");
        }
    }

    /// On Poisson arrival streams, every policy's fluid rate allocations
    /// never exceed link capacity at any event time (and the schedule is
    /// feasible end to end: releases respected, volume delivered).
    #[test]
    fn rates_never_exceed_capacity(n in 1usize..4, w in 1usize..3, seed in 0u64..200) {
        let topo = coflow_net::topo::fat_tree(4, 1.0);
        let inst = generate(&topo, &GenConfig {
            n_coflows: n,
            width: w,
            size_mean: 3.0,
            arrival_rate: 0.7,
            jitter_rate: 2.0,
            seed,
            ..Default::default()
        });
        let (mut fifo, mut greedy, mut fair, mut lp) =
            (Fifo, Greedy, WeightedFair, LpOrder::default());
        let policies: Vec<(&str, &mut dyn coflow_engine::OnlinePolicy)> = vec![
            ("Fifo", &mut fifo),
            ("Greedy", &mut greedy),
            ("WeightedFair", &mut fair),
            ("LpOrder", &mut lp),
        ];
        for (name, pol) in policies {
            let out = run(&inst, pol, &EngineConfig::default());
            let routed = inst.with_paths(&out.paths);
            // The checker enforces per-edge capacity at *every* segment
            // boundary (i.e. every event time), release times, and exact
            // demand delivery.
            let violations = out.schedule.check(&routed, 1e-6, 1e-6);
            prop_assert!(violations.is_empty(), "{name}: {violations:?}");
            for (_, flat, spec) in inst.flows() {
                prop_assert!(
                    out.flow_completion[flat] >= spec.release - 1e-9,
                    "{name}: flow {flat} completes before release"
                );
            }
            let delivered: f64 = out.schedule.flows.iter().map(|f| f.delivered()).sum();
            prop_assert!(
                (delivered - inst.total_size()).abs() < 1e-5 * (1.0 + inst.total_size()),
                "{name}: delivered {delivered} vs demand {}",
                inst.total_size()
            );
        }
    }

    /// Basis reuse is a pure speed lever, in the two senses that are true.
    ///
    /// (a) *Lockstep LP equality:* [`Lockstep`] solves every epoch's
    /// residual LP through its persistent chain and through a fresh one;
    /// the two optima must agree within `tol::OBJ_REL_EPS`.
    /// (b) *Both runs sound:* a warm (`LpOrder::new`) and a [`Cold`] run
    /// are each checker-clean, deliver all demand and stay above the
    /// trivial lower bound.
    ///
    /// This test used to assert the *realized* Σ ω C of the two runs equal.
    /// That holds only while both reach the same LP vertex in every epoch,
    /// i.e. while warm starts are mostly rejected: an accepted basis may end
    /// on another optimal vertex of a degenerate LP, which rounds to other
    /// paths and a different trace with the same LP value.
    #[test]
    fn warm_and_cold_lp_runs_agree(seed in 0u64..100) {
        let topo = coflow_net::topo::fat_tree(4, 1.0);
        let inst = generate(&topo, &GenConfig {
            n_coflows: 3,
            width: 2,
            size_mean: 3.0,
            arrival_rate: 0.5,
            jitter_rate: 0.0,
            seed,
            ..Default::default()
        });
        let mk = || (FreePathsLpConfig::default(), FreeRoundingConfig { seed, ..Default::default() });

        let (lp_cfg, round_cfg) = mk();
        let mut lockstep = Lockstep { lp_cfg, round_cfg, chain: WarmChain::new(), worst: None };
        run(&inst, &mut lockstep, &EngineConfig::default());
        if let Some((warm, cold)) = lockstep.worst {
            prop_assert!(rel_eq(warm, cold, OBJ_REL_EPS), "LP optimum warm {warm} vs cold {cold}");
        }

        let (lc, rc) = mk();
        let warm = run(&inst, &mut LpOrder::new(lc, rc), &EngineConfig::default());
        let (lc, rc) = mk();
        let cold = run(&inst, &mut Cold::new(lc, rc, false), &EngineConfig::default());
        for (name, out) in [("warm", &warm), ("cold", &cold)] {
            let violations = out.schedule.check(&inst.with_paths(&out.paths), 1e-6, 1e-6);
            prop_assert!(violations.is_empty(), "{name}: {violations:?}");
            let delivered: f64 = out.schedule.flows.iter().map(|f| f.delivered()).sum();
            prop_assert!(
                (delivered - inst.total_size()).abs() < 1e-5 * (1.0 + inst.total_size()),
                "{name}: delivered {delivered} vs demand {}",
                inst.total_size()
            );
            let floor = trivial_lower_bound(&inst);
            prop_assert!(
                out.metrics.weighted_sum >= floor - 1e-6,
                "{name}: {} below the trivial bound {floor}",
                out.metrics.weighted_sum
            );
        }
        prop_assert_eq!(solve_totals(&cold).warm_attempted, 0);
        if warm.engine.epochs > 1 {
            prop_assert!(solve_totals(&warm).warm_attempted > 0);
        }
    }
}

/// `LpOrder`'s eager plan with every LP solved twice — through the policy's
/// persistent chain and through a fresh (cold) one. Plans from the warm
/// solution; keeps the epoch whose two optima are furthest apart.
struct Lockstep {
    lp_cfg: FreePathsLpConfig,
    round_cfg: FreeRoundingConfig,
    chain: WarmChain,
    /// `(warm, cold)` objective of the worst epoch so far.
    worst: Option<(f64, f64)>,
}

impl OnlinePolicy for Lockstep {
    fn name(&self) -> &'static str {
        "Lockstep"
    }

    fn plan(&mut self, view: &EpochView<'_>) -> Result<EpochPlan, PolicyError> {
        let residual = view.residual;
        let inst = &residual.instance;
        if inst.flow_count() == 0 {
            return Ok(EpochPlan {
                routes: Vec::new(),
                rates: RatePlan::Ordered(Vec::new()),
            });
        }
        let grid = || IntervalGrid::cover(self.lp_cfg.eps, inst.horizon());
        let lp = solve_free_paths_lp_paths_on_grid(inst, &self.lp_cfg, grid(), &mut self.chain)?;
        let cold =
            solve_free_paths_lp_paths_on_grid(inst, &self.lp_cfg, grid(), &mut WarmChain::new())?;
        let pair = (lp.base.objective, cold.base.objective);
        let gap = |(w, c): (f64, f64)| (w - c).abs() / (1.0 + w.abs().max(c.abs()));
        if self.worst.is_none_or(|old| gap(pair) > gap(old)) {
            self.worst = Some(pair);
        }
        let rounding = round_free_paths(inst, &lp, &self.round_cfg);
        let routes = residual
            .flat_map
            .iter()
            .enumerate()
            .filter(|&(rflat, &oflat)| {
                view.paths[oflat].is_none() && !rounding.paths[rflat].is_empty()
            })
            .map(|(rflat, &oflat)| (oflat, rounding.paths[rflat].clone()))
            .collect();
        let order = lp_order(inst, &lp.base)
            .order
            .into_iter()
            .map(|rflat| residual.flat_map[rflat])
            .collect();
        Ok(EpochPlan {
            routes,
            rates: RatePlan::Ordered(order),
        })
    }
}

/// The cold baseline of the warm-start and pooled-column tests: every
/// epoch is planned by a freshly built `LpOrder` (eager, or column
/// generation when `colgen`), so every re-solve starts from a new chain
/// with no snapshot and, under column generation, an empty pool.
struct Cold {
    lp_cfg: FreePathsLpConfig,
    round_cfg: FreeRoundingConfig,
    colgen: bool,
    /// The policy that planned the latest epoch.
    current: Option<LpOrder>,
}

impl Cold {
    fn new(lp_cfg: FreePathsLpConfig, round_cfg: FreeRoundingConfig, colgen: bool) -> Self {
        Self {
            lp_cfg,
            round_cfg,
            colgen,
            current: None,
        }
    }
}

impl OnlinePolicy for Cold {
    fn name(&self) -> &'static str {
        "Cold"
    }

    fn plan(&mut self, view: &EpochView<'_>) -> Result<EpochPlan, PolicyError> {
        let (lc, rc) = (self.lp_cfg.clone(), self.round_cfg.clone());
        let fresh = if self.colgen {
            LpOrder::colgen(lc, rc)
        } else {
            LpOrder::new(lc, rc)
        };
        self.current.insert(fresh).plan(view)
    }

    fn last_solve(&self) -> Option<SolveStats> {
        self.current.as_ref()?.last_solve()
    }

    fn chain_stats(&self) -> Option<ChainStats> {
        self.current.as_ref()?.chain_stats()
    }

    fn last_colgen(&self) -> Option<ColGenStats> {
        self.current.as_ref()?.last_colgen()
    }
}

/// Pivots and warm starts summed over a run's epoch log.
fn solve_totals(out: &EngineOutcome) -> ChainStats {
    let mut t = ChainStats::default();
    for s in out.engine.epoch_log.iter().filter_map(|e| e.solve) {
        t.warm_attempted += s.warm_attempted as usize;
        t.warm_used += s.warm_used as usize;
        t.total_iterations += s.iterations;
    }
    t
}

/// On a fixed trace long enough to chain a few dozen re-solves,
/// warm-started epochs need fewer total pivots than cold ones (1241 vs
/// 3096) and at least nine in ten snapshots are accepted (35 of 37) —
/// admissions, which insert rows ahead of the capacity rows, included.
#[test]
fn warm_epochs_need_fewer_pivots_than_cold() {
    let topo = coflow_net::topo::fat_tree(4, 1.0);
    let inst = generate(
        &topo,
        &GenConfig {
            n_coflows: 8,
            width: 4,
            size_mean: 3.0,
            arrival_rate: 0.25,
            jitter_rate: 2.0,
            seed: 0x011E_0000,
            ..Default::default()
        },
    );
    let warm = solve_totals(&run(
        &inst,
        &mut LpOrder::default(),
        &EngineConfig::default(),
    ));
    let mut cold_policy = Cold::new(
        FreePathsLpConfig::default(),
        FreeRoundingConfig::default(),
        false,
    );
    let cold = solve_totals(&run(&inst, &mut cold_policy, &EngineConfig::default()));
    assert!(warm.warm_used > 0, "the chain must be exercised");
    assert!(
        warm.warm_used * 10 >= warm.warm_attempted * 9,
        "accepted {} of {} warm starts",
        warm.warm_used,
        warm.warm_attempted
    );
    assert!(
        warm.total_iterations < cold.total_iterations,
        "warm {} vs cold {} pivots",
        warm.total_iterations,
        cold.total_iterations
    );
}

/// Column-generation epoch re-solves with a cross-epoch pool: the realized
/// schedule stays feasible, colgen metrics land in the engine log, and the
/// pooled run never generates more columns than the cold-pool baseline
/// (later epochs are seeded with earlier epochs' discoveries).
#[test]
fn colgen_pooled_epochs_feasible_and_reuse_columns() {
    let topo = coflow_net::topo::fat_tree(4, 1.0);
    let inst = generate(
        &topo,
        &GenConfig {
            n_coflows: 4,
            width: 3,
            size_mean: 3.0,
            arrival_rate: 0.5,
            jitter_rate: 0.0,
            seed: 7,
            ..Default::default()
        },
    );
    let mk = || {
        (
            FreePathsLpConfig::default(),
            FreeRoundingConfig {
                seed: 7,
                ..Default::default()
            },
        )
    };
    let (lc, rc) = mk();
    let mut pooled_policy = LpOrder::colgen(lc, rc);
    let pooled = run(&inst, &mut pooled_policy, &EngineConfig::default());
    let (lc, rc) = mk();
    let coldpool = run(
        &inst,
        &mut Cold::new(lc, rc, true),
        &EngineConfig::default(),
    );

    for out in [&pooled, &coldpool] {
        let routed = inst.with_paths(&out.paths);
        let violations = out.schedule.check(&routed, 1e-6, 1e-6);
        assert!(violations.is_empty(), "{violations:?}");
    }
    assert!(
        pooled
            .engine
            .epoch_log
            .iter()
            .filter_map(|e| e.colgen)
            .any(|c| c.final_cols > 0),
        "colgen stats must be logged"
    );
    assert!(pooled
        .engine
        .epoch_log
        .iter()
        .all(|e| e.solve.is_none() || e.colgen.is_some()));
    assert!(
        pooled.engine.total_columns_generated <= coldpool.engine.total_columns_generated,
        "pooled epochs must not price more columns than cold pools ({} vs {})",
        pooled.engine.total_columns_generated,
        coldpool.engine.total_columns_generated
    );
    assert!(
        pooled_policy.pooled_paths() > 0,
        "the cross-epoch pool must retain generated paths"
    );
}

/// Steady-state epoch re-solves run entirely inside retained scratch:
/// with every coflow arriving at t = 0 there is a single admission, so
/// after the first epoch the LP keeps its shape (completed flows freeze
/// at size 0 instead of dropping out) and every warm re-solve through the
/// pooled colgen policy must report `allocs == 0` — the certificate that
/// the whole solve (assembly, factorization, pricing, warm-start probing)
/// was served from capacity retained in the policy's `Scratch`. See the
/// counting contract on `coflow_lp::scratch`.
#[test]
fn steady_state_epochs_allocate_nothing() {
    let topo = coflow_net::topo::fat_tree(4, 1.0);
    let inst = generate(
        &topo,
        &GenConfig {
            n_coflows: 5,
            width: 3,
            size_mean: 3.0,
            arrival_rate: 0.0,
            jitter_rate: 0.0,
            seed: 11,
            ..Default::default()
        },
    );
    let lc = FreePathsLpConfig::default();
    let rc = FreeRoundingConfig {
        seed: 11,
        ..Default::default()
    };
    let mut pol = LpOrder::colgen(lc, rc);
    let out = run(&inst, &mut pol, &EngineConfig::default());
    let solves: Vec<_> = out
        .engine
        .epoch_log
        .iter()
        .filter_map(|e| e.solve)
        .collect();
    assert!(
        solves.len() >= 2,
        "need completion-triggered epochs after the first (got {})",
        solves.len()
    );
    assert!(
        solves[0].scratch_reuse > 0,
        "even the first epoch's colgen rounds reuse scratch within the solve chain"
    );
    for (i, s) in solves.iter().enumerate().skip(1) {
        assert_eq!(
            s.allocs, 0,
            "epoch {i} re-solve allocated outside retained scratch (reuse {})",
            s.scratch_reuse
        );
    }
    // The allocs == 0 contract above held with the trace sink attached:
    // the recorder lives inside the same retained scratch, so recording
    // epoch/plan spans and the resolve histogram must not count as an
    // allocation. The trace proves the sink was live, not a no-op.
    let trace = &out.trace;
    assert!(!trace.is_empty(), "engine trace must record spans");
    assert_eq!(
        trace.span_count(coflow_obs::SpanName::Epoch),
        out.engine.epochs,
        "one epoch span per engine epoch"
    );
    assert_eq!(
        trace.counter(coflow_obs::Counter::Epochs) as usize,
        out.engine.epochs,
        "epoch counter tracks the epoch count"
    );
    assert_eq!(
        trace.hists[coflow_obs::HistId::Resolve as usize].total() as usize,
        out.engine.epochs,
        "one resolve-latency sample per epoch"
    );
}
