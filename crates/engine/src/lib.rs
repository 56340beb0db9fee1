//! # coflow-engine
//!
//! An event-driven **online** scheduler for coflows with release dates:
//! the scenario the paper's model already carries (per-flow releases,
//! Poisson coflow arrivals in `coflow-workloads::gen`) but that every
//! offline solver in the workspace ignores by seeing the whole instance at
//! time 0.
//!
//! ```text
//!  arrivals ──▶ admission ──▶ residual instance ──▶ OnlinePolicy::plan
//!     ▲            (epoch boundary: EpochTrigger)        │
//!     │                                                  ▼
//!  ArrivalTrace        fluid executor ◀── routes + RatePlan
//!                 (greedy_fill / fair_fill between events)
//! ```
//!
//! * [`trace::ArrivalTrace`] — the time-ordered coflow arrival stream;
//! * [`epoch::EpochTrigger`] — which events open an epoch (arrival,
//!   completion, periodic tick);
//! * [`coflow_core::residual`] — the residual instance handed to policies:
//!   remaining sizes, frozen completed flows, stable flat indices (what
//!   makes warm starts possible);
//! * [`policy`] — the [`policy::OnlinePolicy`] trait and four
//!   implementations: [`policy::LpOrder`] (the paper's LP pipeline
//!   re-solved per epoch through one [`coflow_lp::WarmChain`]),
//!   [`policy::Greedy`], [`policy::WeightedFair`], [`policy::Fifo`];
//! * [`engine`] — the event loop ([`engine::run`] / [`engine::run_trace`]);
//! * [`metrics`] — [`metrics::EngineMetrics`]: epoch and event counts,
//!   degraded epochs, and the per-epoch log with each re-solve's
//!   [`coflow_lp::SolveStats`]. The objective lives in
//!   [`EngineOutcome::metrics`], plan latency in [`EngineOutcome::trace`].

pub mod engine;
pub mod epoch;
pub mod metrics;
pub mod policy;
pub mod trace;

pub use engine::{run, run_trace, EngineConfig, EngineOutcome};
pub use epoch::EpochTrigger;
pub use metrics::{EngineMetrics, EpochRecord};
pub use policy::{
    EpochPlan, EpochView, Fifo, Greedy, LpOrder, OnlinePolicy, PolicyError, RatePlan, WeightedFair,
};
pub use trace::ArrivalTrace;

#[cfg(test)]
#[allow(clippy::float_cmp, reason = "unit tests assert exact expected values")]
mod tests {
    use super::*;
    use coflow_core::{Coflow, FlowSpec, Instance};
    use coflow_net::{topo, NodeId};

    fn staggered() -> Instance {
        let t = topo::line(2, 1.0);
        Instance::new(
            t.graph,
            vec![
                Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 2.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 1.0)]),
            ],
        )
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let inst = staggered();
        let out = run(&inst, &mut Fifo, &EngineConfig::default());
        // FIFO: coflow 0 runs [0,2], coflow 1 waits, runs [2,3].
        assert!((out.flow_completion[0] - 2.0).abs() < 1e-9);
        assert!((out.flow_completion[1] - 3.0).abs() < 1e-9);
        assert!(out.engine.epochs >= 2, "one epoch per arrival at least");
        let routed = inst.with_paths(&out.paths);
        assert!(out.schedule.check(&routed, 1e-6, 1e-6).is_empty());
    }

    #[test]
    fn greedy_preempts_for_short_coflow() {
        let inst = staggered();
        let out = run(&inst, &mut Greedy, &EngineConfig::default());
        // At t=1 the size-1 coflow has less remaining (1) than coflow 0
        // (also 1 remaining — tie broken by admission keeps coflow 0...
        // make sizes decisive: remaining of coflow 0 at t=1 is 1.0, tie;
        // admission order wins, so coflow 0 finishes first at 2.
        assert!((out.flow_completion[0] - 2.0).abs() < 1e-9);
        assert!((out.flow_completion[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_fair_splits_capacity() {
        let t = topo::line(2, 1.0);
        let inst = Instance::new(
            t.graph,
            vec![
                Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0)]),
            ],
        );
        let out = run(&inst, &mut WeightedFair, &EngineConfig::default());
        // Equal weights: both progress at 1/2 until both finish at 2.
        assert!((out.flow_completion[0] - 2.0).abs() < 1e-9);
        assert!((out.flow_completion[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_fair_favors_heavy_coflow() {
        let t = topo::line(2, 1.0);
        let inst = Instance::new(
            t.graph,
            vec![
                Coflow::new(3.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0)]),
                Coflow::new(1.0, vec![FlowSpec::new(NodeId(0), NodeId(1), 1.0, 0.0)]),
            ],
        );
        let out = run(&inst, &mut WeightedFair, &EngineConfig::default());
        assert!(
            out.flow_completion[0] < out.flow_completion[1],
            "weight-3 coflow must finish first: {:?}",
            out.flow_completion
        );
    }

    #[test]
    fn lp_order_threads_warm_chain_across_epochs() {
        let inst = staggered();
        let mut pol = LpOrder::default();
        let out = run(&inst, &mut pol, &EngineConfig::default());
        assert!(out.engine.epochs >= 2);
        let chain = pol.chain_stats().expect("LpOrder keeps a chain");
        assert!(chain.total_iterations > 0);
        assert!(
            chain.warm_used >= 1,
            "second epoch must reuse the basis: {chain:?}"
        );
        let routed = inst.with_paths(&out.paths);
        assert!(out.schedule.check(&routed, 1e-6, 1e-6).is_empty());
    }

    /// Column generation across completions: a completed flow stays in the
    /// residual frozen at size 0 on its path, loads nothing, and so its
    /// capacity rows leave the next master while the flows that share them
    /// stay. Snapshots map rows by name, so every warm start the chain
    /// offers — epoch to epoch and round to round — is accepted.
    #[test]
    fn colgen_warm_starts_survive_completions() {
        let t = topo::fat_tree(4, 1.0);
        let h = &t.hosts;
        let flow = |s: usize, d: usize, size: f64, r: f64| FlowSpec::new(h[s], h[d], size, r);
        let inst = Instance::new(
            t.graph,
            vec![
                Coflow::new(1.0, vec![flow(0, 15, 1.0, 0.0), flow(1, 14, 3.0, 0.0)]),
                Coflow::new(2.0, vec![flow(2, 13, 2.0, 0.0), flow(4, 11, 4.0, 0.5)]),
                Coflow::new(1.0, vec![flow(0, 12, 2.0, 1.5), flow(3, 15, 1.0, 2.5)]),
                Coflow::new(3.0, vec![flow(5, 10, 3.0, 3.0)]),
            ],
        );
        let mut pol = LpOrder::colgen(Default::default(), Default::default());
        let out = run(&inst, &mut pol, &EngineConfig::default());
        let completions_then_solves = out
            .engine
            .epoch_log
            .windows(2)
            .any(|w| w[1].solve.is_some() && w[1].live_flows < w[0].live_flows);
        assert!(completions_then_solves, "a re-solve after a completion");
        let chain = pol.chain_stats().expect("LpOrder keeps a chain");
        assert!(chain.warm_attempted > out.engine.epochs, "{chain:?}");
        assert_eq!(chain.warm_used, chain.warm_attempted, "{chain:?}");
        let routed = inst.with_paths(&out.paths);
        assert!(out.schedule.check(&routed, 1e-6, 1e-6).is_empty());
    }

    /// A junk warm basis — here one whose factorization fails, via a fault
    /// hook forcing the warm-start refactorization singular — must be
    /// rejected early in the epoch loop: the solver cold-starts that epoch
    /// (`warm_attempted` without `warm_used`), the run stays checker-clean,
    /// and warm starts resume on later epochs once the basis is sane again.
    #[test]
    fn junk_warm_basis_is_rejected_in_epoch_loop() {
        struct FailFirst {
            calls: usize,
        }
        impl coflow_lp::FaultHook for FailFirst {
            fn on_factorization(&mut self) -> bool {
                self.calls += 1;
                self.calls == 1
            }
        }
        let inst = staggered();
        let mut pol = LpOrder::default();
        let a = run(&inst, &mut pol, &EngineConfig::default());
        assert!(a.engine.epochs >= 2);

        // The chain still holds run A's final basis. Poison its very next
        // factorization: the epoch-1 warm-start refactorize fails, which is
        // exactly what a stale/corrupt snapshot looks like to the solver.
        pol.set_fault_hook(Some(Box::new(FailFirst { calls: 0 })));
        let b = run(&inst, &mut pol, &EngineConfig::default());
        let first = b.engine.epoch_log[0]
            .solve
            .as_ref()
            .expect("first epoch of an LpOrder run re-solves");
        assert!(first.warm_attempted, "stale basis must be offered");
        assert!(
            !first.warm_used,
            "junk basis must be rejected, not limp along: {first:?}"
        );
        assert!(
            b.engine
                .epoch_log
                .iter()
                .any(|e| e.solve.is_some_and(|s| s.warm_used)),
            "later epochs must warm-start again: {:?}",
            b.engine.epoch_log
        );
        assert!(b.flow_completion.iter().all(|&c| c.is_finite() && c > 0.0));
        let routed = inst.with_paths(&b.paths);
        assert!(b.schedule.check(&routed, 1e-6, 1e-6).is_empty());
        // Same instance, so the degraded run still lands on the same plan.
        assert_eq!(a.flow_completion, b.flow_completion);
    }

    #[test]
    fn periodic_trigger_batches_admissions() {
        let inst = staggered();
        let cfg = EngineConfig {
            trigger: EpochTrigger::periodic(4.0),
        };
        let out = run(&inst, &mut Fifo, &cfg);
        // Coflow 1 arrives at t=1 but is only admitted at the t=4 tick
        // (coflow 0 keeps the engine busy until then), so it completes at 5.
        assert!((out.flow_completion[0] - 2.0).abs() < 1e-9);
        assert!(
            (out.flow_completion[1] - 5.0).abs() < 1e-9,
            "got {:?}",
            out.flow_completion
        );
    }

    #[test]
    fn empty_instance_is_a_noop() {
        let g = coflow_net::Graph::with_nodes(2);
        let inst = Instance::new(g, vec![]);
        let out = run(&inst, &mut Greedy, &EngineConfig::default());
        assert_eq!(out.engine.epochs, 0);
        assert_eq!(out.metrics.weighted_sum, 0.0);
    }

    /// A policy whose `plan` fails in a chosen call window; outside the
    /// window it defers to [`Greedy`].
    struct Flaky {
        calls: usize,
        fail_from: usize,
        fail_to: usize,
    }

    impl OnlinePolicy for Flaky {
        fn name(&self) -> &'static str {
            "Flaky"
        }
        fn plan(&mut self, view: &EpochView<'_>) -> Result<EpochPlan, PolicyError> {
            self.calls += 1;
            if self.calls >= self.fail_from && self.calls < self.fail_to {
                Err(PolicyError::Other("injected plan failure".into()))
            } else {
                Greedy.plan(view)
            }
        }
    }

    #[test]
    fn ladder_falls_back_when_first_epoch_fails() {
        let inst = staggered();
        // First epoch: the plan call and its one retry both fail; there is
        // no standing plan to reuse, so the fallback policy serves it.
        let mut pol = Flaky {
            calls: 0,
            fail_from: 1,
            fail_to: 3,
        };
        let out = run(&inst, &mut pol, &EngineConfig::default());
        assert!(out.flow_completion.iter().all(|&c| c > 0.0), "all complete");
        assert_eq!(out.engine.degraded_epochs, 1);
        assert_eq!(out.engine.fallback_policy_uses, 1);
        assert!(out.engine.epoch_log.iter().all(|e| e.stale_ms == 0.0));
        let first = &out.engine.epoch_log[0];
        assert_eq!(first.retries, 1);
        assert!(first.fallback);
        assert!(first.degraded.as_deref().unwrap().starts_with("fallback"));
        let routed = inst.with_paths(&out.paths);
        assert!(out.schedule.check(&routed, 1e-6, 1e-6).is_empty());
    }

    #[test]
    fn ladder_reuses_stale_plan_mid_run() {
        let inst = staggered();
        // Second epoch (the t=1 arrival) fails past its retry: the engine
        // keeps epoch 1's rate plan (stale by 1 time unit) and BFS-routes
        // the newly arrived flow so it still makes progress.
        let mut pol = Flaky {
            calls: 0,
            fail_from: 2,
            fail_to: 4,
        };
        let out = run(&inst, &mut pol, &EngineConfig::default());
        assert!((out.flow_completion[0] - 2.0).abs() < 1e-9);
        assert!(
            (out.flow_completion[1] - 3.0).abs() < 1e-9,
            "stale plan still serves the new flow"
        );
        assert!(out.engine.degraded_epochs >= 1);
        assert_eq!(out.engine.fallback_policy_uses, 0);
        let degraded = out
            .engine
            .epoch_log
            .iter()
            .find(|e| e.degraded.is_some())
            .unwrap();
        assert!(degraded
            .degraded
            .as_deref()
            .unwrap()
            .starts_with("stale-reuse"));
        assert!(degraded.stale_ms > 0.0);
        let routed = inst.with_paths(&out.paths);
        assert!(out.schedule.check(&routed, 1e-6, 1e-6).is_empty());
    }

    #[test]
    fn retry_rung_recovers_without_degrading() {
        let inst = staggered();
        // Each failure window is one call wide: the single retry succeeds,
        // so no epoch degrades and the run matches plain Greedy.
        let mut pol = Flaky {
            calls: 0,
            fail_from: 1,
            fail_to: 2,
        };
        let out = run(&inst, &mut pol, &EngineConfig::default());
        assert_eq!(out.engine.degraded_epochs, 0);
        assert_eq!(out.engine.epoch_log[0].retries, 1);
        assert!((out.flow_completion[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn custom_trace_delays_admission() {
        let inst = staggered();
        let trace = ArrivalTrace::from_events(vec![(3.0, 0), (3.0, 1)]);
        let out = run_trace(&inst, &trace, &mut Fifo, &EngineConfig::default());
        // Nothing runs before t=3 even though releases are 0 and 1.
        for fs in &out.schedule.flows {
            for s in &fs.segments {
                assert!(s.start >= 3.0 - 1e-9);
            }
        }
        assert!((out.flow_completion[0] - 5.0).abs() < 1e-9);
    }
}
