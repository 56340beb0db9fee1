//! The discrete-event online scheduling engine.
//!
//! The engine ingests coflow arrivals from an [`ArrivalTrace`], maintains
//! the live (admitted, not yet completed) flow set, and advances a fluid
//! executor between events. Two nested cadences:
//!
//! * **events** — flow completions, flow releases, coflow arrivals,
//!   periodic ticks. At every event the executor re-applies the standing
//!   [`RatePlan`] (the same shared allocators the offline simulator uses:
//!   [`coflow_sim::fluid::greedy_fill`] / [`fair_fill`]), so rates adapt
//!   as flows finish or appear;
//! * **epoch boundaries** — the subset of events selected by the
//!   [`EpochTrigger`]. There the engine admits newly arrived coflows,
//!   updates the [`residual instance`](coflow_core::residual) in place, and asks
//!   the [`OnlinePolicy`] for a fresh plan — for [`LpOrder`] that is a
//!   warm-started LP re-solve whose [`SolveStats`] land in the epoch log.
//!
//! [`fair_fill`]: coflow_sim::fluid::fair_fill
//! [`LpOrder`]: crate::policy::LpOrder
//! [`SolveStats`]: coflow_lp::SolveStats

use crate::epoch::EpochTrigger;
use crate::metrics::{EngineMetrics, EpochRecord};
use crate::policy::{greedy_plan, EpochPlan, EpochView, OnlinePolicy, RatePlan};
use crate::trace::ArrivalTrace;
use coflow_core::objective::{metrics, Metrics};
use coflow_core::residual::ResidualState;
use coflow_core::schedule::{CircuitSchedule, FlowSchedule};
use coflow_core::Instance;
use coflow_net::Path;
use coflow_obs::{Counter as ObsCounter, HistId, Recorder, SpanName};
use coflow_sim::fluid::{fair_fill, greedy_fill, push_segment, VOL_EPS};

/// Engine configuration.
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// When to re-optimize (see [`EpochTrigger`]).
    pub trigger: EpochTrigger,
}

/// Same-epoch retries of the primary policy after a plan failure, the
/// first rung of the degradation ladder (see [`run_trace`]).
const PLAN_RETRIES: usize = 1;

/// Result of an engine run.
#[derive(Clone, Debug)]
pub struct EngineOutcome {
    /// The realized piecewise-constant schedule (original flat indices).
    pub schedule: CircuitSchedule,
    /// Per-flow completion times (flat order).
    pub flow_completion: Vec<f64>,
    /// The path each flow committed to (empty for never-routed zero-size
    /// flows).
    pub paths: Vec<Path>,
    /// Objective metrics of the realized schedule.
    pub metrics: Metrics,
    /// Engine-level metrics: epochs, events, degraded epochs and the
    /// per-epoch log.
    pub engine: EngineMetrics,
    /// The engine's own trace: one `epoch` span per re-plan boundary with
    /// a nested `plan` span around the policy call, plus the `resolve`
    /// latency histogram. Under `COFLOW_OBS_CLOCK=logical` the rendered
    /// JSONL is byte-identical across runs.
    pub trace: coflow_obs::Trace,
}

/// Runs `policy` online over `instance`'s canonical arrival trace (each
/// coflow arrives at its earliest flow release).
pub fn run(
    instance: &Instance,
    policy: &mut dyn OnlinePolicy,
    cfg: &EngineConfig,
) -> EngineOutcome {
    run_trace(
        instance,
        &ArrivalTrace::from_instance(instance),
        policy,
        cfg,
    )
}

/// Runs `policy` online over an explicit arrival trace. A flow can start
/// no earlier than `max(its release, its coflow's trace arrival)`, so
/// traces can batch or delay admissions relative to the instance.
///
/// **Degradation ladder.** A failed [`OnlinePolicy::plan`] is an
/// epoch-local event, not a run failure. The rungs, in order:
/// 1. **retry** the primary policy once more in the same epoch (LP
///    failures are often transient — a warm basis gone bad, an injected
///    fault window, a budget raced by arrival bursts);
/// 2. **reuse the standing plan**: keep the previous epoch's rate
///    discipline, route newly arrived flows by BFS, and track how stale the
///    reused plan was;
/// 3. with no standing plan, **fall back** to the solver-free
///    [`Greedy`](crate::policy::Greedy) policy for this epoch — it always
///    succeeds, so a run never dies at a plan failure.
///
/// Every degraded epoch is recorded in the epoch log (`degraded`,
/// `fallback`, and the reused plan's age as `stale_ms`), the aggregate
/// [`EngineMetrics`] (`degraded_epochs`, `fallback_policy_uses`), and the
/// engine trace (a `fallback` span plus the `degraded_epochs` /
/// `policy_fallbacks` counters).
///
/// # Panics
/// * if the trace does not cover every coflow exactly once;
/// * if the policy tries to re-route a committed flow;
/// * if the engine deadlocks or exceeds its event budget (bugs).
pub fn run_trace(
    instance: &Instance,
    trace: &ArrivalTrace,
    policy: &mut dyn OnlinePolicy,
    cfg: &EngineConfig,
) -> EngineOutcome {
    let nf = instance.flow_count();
    let ncof = instance.coflow_count();
    assert_eq!(
        trace.len(),
        ncof,
        "trace must cover every coflow exactly once"
    );
    let g = &instance.graph;

    // Flat SoA view: the per-event loops below only touch scalar fields.
    let flat = instance.flatten();

    let mut admitted_at = vec![f64::INFINITY; ncof];
    let mut admission_order: Vec<usize> = Vec::with_capacity(ncof);
    let mut remaining = flat.sizes().to_vec();
    let mut rstate = ResidualState::new(instance);
    let mut done = vec![false; nf];
    let mut completion = vec![0.0_f64; nf];
    let mut paths_opt: Vec<Option<Path>> = vec![None; nf];
    let mut paths_flat: Vec<Path> = vec![Path::empty(); nf];
    let mut schedule = CircuitSchedule {
        flows: (0..nf).map(|_| FlowSchedule::default()).collect(),
    };

    let mut plan = EpochPlan {
        routes: Vec::new(),
        rates: RatePlan::Ordered(Vec::new()),
    };
    // Degradation-ladder state: when the standing plan was computed and
    // whether one exists at all (rung 2 reuses it; without one the ladder
    // goes straight to the Greedy fallback).
    let mut plan_birth = 0.0_f64;
    let mut have_plan = false;
    let mut epoch_log: Vec<EpochRecord> = Vec::new();
    // The engine's trace recorder: ring pre-allocated here, so recording
    // inside the event loop never allocates.
    let mut rec = Recorder::new();
    let mut t = 0.0_f64;
    let mut next_arr = 0usize;
    let mut events = 0usize;
    let mut epoch_due = true;

    let mut rates = vec![0.0_f64; nf];
    let mut residual_cap = vec![0.0_f64; g.edge_count()];
    // Executor scratch reused at every event: the active flows in fill
    // order, and a mark for those the standing order already lists.
    let mut active: Vec<usize> = Vec::with_capacity(nf);
    let mut in_plan = vec![false; nf];
    let mut event_budget = 8 * (nf + ncof) + 64;
    if let Some(p) = cfg.trigger.period {
        event_budget += (instance.horizon() / p).ceil() as usize + 16;
    }

    // Effective release: a flow starts no earlier than its coflow's
    // admission.
    let eff_release =
        |f: usize, admitted_at: &[f64]| flat.release(f).max(admitted_at[flat.coflow_of(f)]);

    loop {
        if epoch_due {
            // --- Admission. ---
            while next_arr < trace.len() && trace.events()[next_arr].0 <= t + 1e-9 {
                let (at, ci) = trace.events()[next_arr];
                // `at` may predate this boundary under batching triggers;
                // the flow could not run before now because `admitted_at`
                // was infinite in every earlier activity check.
                admitted_at[ci] = at;
                admission_order.push(ci);
                // Zero-size flows complete the moment they exist.
                for fi in flat.flows_of(ci) {
                    if flat.size(fi) <= 0.0 {
                        done[fi] = true;
                        completion[fi] = flat.release(fi).max(t);
                    }
                }
                next_arr += 1;
            }

            // --- Re-plan (only when there is live work). ---
            let live = (0..nf).any(|f| !done[f] && admitted_at[flat.coflow_of(f)].is_finite());
            if live {
                rec.enter(SpanName::Epoch);
                let residual = rstate.update(instance, t, &admission_order, &remaining, &paths_opt);
                let live_flows = residual
                    .instance
                    .flows()
                    .filter(|&(_, rf, _)| !done[residual.flat_map[rf]])
                    .count();
                rec.enter(SpanName::Plan);
                let view = EpochView {
                    now: t,
                    original: instance,
                    residual,
                    paths: &paths_opt,
                };
                // --- Degradation ladder (see the function docs). ---
                let mut retries = 0usize;
                let mut fresh = policy.plan(&view);
                while fresh.is_err() && retries < PLAN_RETRIES {
                    retries += 1;
                    rec.bump(ObsCounter::Recoveries, 1);
                    fresh = policy.plan(&view);
                }
                let mut degraded = None;
                let mut stale_ms = 0.0_f64;
                let mut fallback = false;
                match fresh {
                    Ok(p) => {
                        plan = p;
                        plan_birth = t;
                        have_plan = true;
                    }
                    Err(e) => {
                        rec.enter(SpanName::Fallback);
                        rec.bump(ObsCounter::DegradedEpochs, 1);
                        if have_plan {
                            // Rung 2: keep the standing rate discipline,
                            // but flows that arrived after it was computed
                            // still need routes to make progress.
                            stale_ms = t - plan_birth;
                            plan.routes = crate::policy::route_missing(&view);
                            degraded = Some(format!("stale-reuse: {e}"));
                        } else {
                            // Rung 3: plan this epoch with the solver-free
                            // fallback policy.
                            rec.bump(ObsCounter::PolicyFallbacks, 1);
                            fallback = true;
                            plan = greedy_plan(&view);
                            plan_birth = t;
                            have_plan = true;
                            degraded = Some(format!("fallback Greedy: {e}"));
                        }
                        rec.exit();
                    }
                }
                let plan_span = rec.exit();
                rec.record_hist(HistId::Resolve, plan_span.dur);
                for (f, p) in std::mem::take(&mut plan.routes) {
                    if done[f] && flat.size(f) <= 0.0 {
                        continue; // zero-size flows never transmit
                    }
                    assert!(
                        paths_opt[f].is_none(),
                        "policy attempted to re-route committed flow {f}"
                    );
                    schedule.flows[f].path = p.clone();
                    paths_flat[f] = p.clone();
                    paths_opt[f] = Some(p);
                }
                epoch_log.push(EpochRecord {
                    time: t,
                    live_flows,
                    solve: policy.last_solve(),
                    colgen: policy.last_colgen(),
                    degraded,
                    retries,
                    stale_ms,
                    fallback,
                });
                rec.exit();
                rec.bump(ObsCounter::Epochs, 1);
            } else {
                plan = EpochPlan {
                    routes: Vec::new(),
                    rates: RatePlan::Ordered(Vec::new()),
                };
            }
            // (`epoch_due` is recomputed at the bottom of every iteration.)
        }

        if done.iter().all(|&d| d) && next_arr >= trace.len() {
            break;
        }
        events += 1;
        assert!(
            events <= event_budget,
            "online engine exceeded event budget (bug)"
        );

        // --- Allocate rates under the standing plan. ---
        for (e, r) in residual_cap.iter_mut().enumerate() {
            *r = g.capacity(coflow_net::EdgeId(e as u32));
        }
        rates.fill(0.0);
        let is_active = |f: usize| {
            !done[f]
                && admitted_at[flat.coflow_of(f)].is_finite()
                && eff_release(f, &admitted_at) <= t + 1e-12
                && paths_opt[f].is_some()
        };
        active.clear();
        match &plan.rates {
            RatePlan::Ordered(order) => {
                active.extend(order.iter().copied().filter(|&f| is_active(f)));
                // Defensive: active flows the plan omitted go last, in flat
                // order (they will be ranked properly at the next epoch).
                let planned = active.len();
                for &f in &active {
                    in_plan[f] = true;
                }
                active.extend((0..nf).filter(|&f| is_active(f) && !in_plan[f]));
                for &f in &active[..planned] {
                    in_plan[f] = false;
                }
                greedy_fill(&paths_flat, &active, &mut rates, &mut residual_cap);
            }
            RatePlan::Fair(weights) => {
                active.extend((0..nf).filter(|&f| is_active(f)));
                fair_fill(
                    &paths_flat,
                    &active,
                    Some(weights),
                    &mut rates,
                    &mut residual_cap,
                );
            }
        }

        // --- Find the next event time. ---
        let mut next_t = f64::INFINITY;
        for f in 0..nf {
            if rates[f] > 1e-12 {
                next_t = next_t.min(t + remaining[f] / rates[f]);
            }
        }
        for f in 0..nf {
            if !done[f] && admitted_at[flat.coflow_of(f)].is_finite() {
                let r = eff_release(f, &admitted_at);
                if r > t + 1e-12 {
                    next_t = next_t.min(r);
                }
            }
        }
        let live_admitted = (0..nf).any(|f| !done[f] && admitted_at[flat.coflow_of(f)].is_finite());
        let next_arrival = (next_arr < trace.len()).then(|| trace.events()[next_arr].0);
        if let Some(at) = next_arrival {
            if cfg.trigger.on_arrival {
                next_t = next_t.min(at);
            }
        }
        let mut tick = None;
        if cfg.trigger.period.is_some() && (live_admitted || next_arrival.is_some()) {
            tick = cfg.trigger.next_tick(t);
            if let Some(tk) = tick {
                next_t = next_t.min(tk);
            }
        }
        if !next_t.is_finite() {
            // Last resort: idle until the next arrival and force an epoch
            // there (covers triggers that would otherwise sleep forever).
            if let Some(at) = next_arrival {
                next_t = at;
            }
        }
        assert!(
            next_t.is_finite(),
            "online engine deadlocked at t={t}: live flows starved"
        );
        // Guard against zero-length steps from numerical ties.
        let next_t = next_t.max(t + 1e-12);

        // --- Advance, record segments. ---
        let mut completed_any = false;
        for f in 0..nf {
            if rates[f] > 1e-12 {
                push_segment(&mut schedule.flows[f].segments, t, next_t, rates[f]);
                remaining[f] -= rates[f] * (next_t - t);
                let tol = VOL_EPS * (1.0 + flat.size(f));
                if remaining[f] <= tol {
                    remaining[f] = 0.0;
                    done[f] = true;
                    completion[f] = next_t;
                    completed_any = true;
                }
            }
        }
        t = next_t;

        // --- Does this event open an epoch? ---
        let arrived_now = next_arrival.is_some_and(|at| at <= t + 1e-9);
        let tick_hit = tick.is_some_and(|tk| t + 1e-12 >= tk);
        epoch_due = (completed_any && cfg.trigger.on_completion)
            || (arrived_now && cfg.trigger.on_arrival)
            || tick_hit
            || (arrived_now && !live_admitted);
    }

    let m = metrics(instance, &completion);
    let engine = EngineMetrics::collect(events, epoch_log);
    EngineOutcome {
        schedule,
        flow_completion: completion,
        paths: paths_flat,
        metrics: m,
        engine,
        trace: rec.drain(),
    }
}
