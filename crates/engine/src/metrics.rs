//! Engine-level metrics.
//!
//! [`EngineMetrics`] records what the *engine* did on top of what the
//! schedule achieved: epochs, per-epoch LP [`SolveStats`], re-solve wall
//! time, and warm-chain outcomes.

use crate::policy::OnlinePolicy;
use coflow_core::Metrics;
use coflow_lp::{ColGenStats, SolveStats};
use coflow_obs::Histogram;

/// One epoch boundary's record.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Boundary time.
    pub time: f64,
    /// Live (admitted, not completed) flows at the boundary.
    pub live_flows: usize,
    /// Wall time of the policy's plan call in milliseconds.
    pub resolve_ms: f64,
    /// LP statistics of the re-solve (`None` for solver-free policies).
    pub solve: Option<SolveStats>,
    /// Column-generation statistics of the re-solve (`None` for
    /// solver-free policies and eager column enumeration).
    pub colgen: Option<ColGenStats>,
    /// How the epoch was served when the primary policy failed: `None` for
    /// a fresh primary plan, otherwise a description of the degradation
    /// rung taken and the error that forced it.
    pub degraded: Option<String>,
    /// Primary-policy retries consumed at this boundary.
    pub retries: usize,
    /// How stale the reused plan was at this boundary (model-time units;
    /// 0 unless the stale-reuse rung was taken).
    pub stale_ms: f64,
    /// The epoch was planned by the fallback policy.
    pub fallback: bool,
}

/// Aggregate engine metrics for one run.
#[derive(Clone, Debug, Default)]
pub struct EngineMetrics {
    /// Policy display name.
    pub policy: String,
    /// Per-coflow completion times.
    pub coflow_completion: Vec<f64>,
    /// `Σ ω_k C_k` of the realized schedule.
    pub weighted_sum: f64,
    /// Unweighted mean coflow completion.
    pub avg_coflow_completion: f64,
    /// Epoch boundaries at which the policy re-planned.
    pub epochs: usize,
    /// Executor events processed (completions, releases, arrivals, ticks).
    pub events: usize,
    /// Total plan/re-solve wall time in milliseconds.
    pub total_resolve_ms: f64,
    /// Median per-epoch re-solve latency in milliseconds. Quantiles come
    /// from a deterministic power-of-two histogram over nanosecond
    /// samples ([`coflow_obs::Histogram`]), so the reported value is the
    /// inclusive upper edge of the bucket holding the requested rank —
    /// stable across runs and merge orders, coarse by design.
    pub resolve_ms_p50: f64,
    /// 90th-percentile per-epoch re-solve latency in milliseconds.
    pub resolve_ms_p90: f64,
    /// 99th-percentile per-epoch re-solve latency in milliseconds.
    pub resolve_ms_p99: f64,
    /// Total simplex pivots across all epoch re-solves.
    pub total_pivots: usize,
    /// Total phase-1 pivots across all epoch re-solves.
    pub total_phase1_pivots: usize,
    /// Epoch re-solves that attempted a warm start.
    pub warm_attempted: usize,
    /// Epoch re-solves whose warm basis was accepted.
    pub warm_used: usize,
    /// Total columns the epoch re-solves materialized in their restricted
    /// masters (seeded + generated; 0 for eager / solver-free policies).
    pub total_columns: usize,
    /// Columns injected by pricing across all epoch re-solves. With a
    /// cross-epoch [`PathPool`](coflow_core::circuit::lp_free::PathPool)
    /// later epochs are seeded with earlier epochs' discoveries, so this
    /// total shrinks relative to a cold pool.
    pub total_columns_generated: usize,
    /// Restricted-master pricing rounds across all epoch re-solves.
    pub total_colgen_rounds: usize,
    /// Epochs not served by a fresh primary-policy plan (the degradation
    /// ladder's stale-reuse or fallback rung fired).
    pub degraded_epochs: usize,
    /// Epochs planned by the fallback policy.
    pub fallback_policy_uses: usize,
    /// Total model time the executor ran under a stale (reused) plan,
    /// summed over degraded boundaries as `now − plan birth`.
    pub stale_schedule_ms: f64,
    /// The per-epoch log.
    pub epoch_log: Vec<EpochRecord>,
}

impl EngineMetrics {
    /// Folds the epoch log and objective metrics into the aggregate view.
    pub(crate) fn collect(
        policy: &dyn OnlinePolicy,
        m: &Metrics,
        events: usize,
        epoch_log: &[EpochRecord],
    ) -> Self {
        let solves: Vec<&SolveStats> = epoch_log.iter().filter_map(|e| e.solve.as_ref()).collect();
        let colgens: Vec<&ColGenStats> =
            epoch_log.iter().filter_map(|e| e.colgen.as_ref()).collect();
        // Latency quantiles over ns-scaled samples; the histogram's
        // integer bucket counts make the result independent of epoch
        // order.
        let mut resolve = Histogram::new();
        for e in epoch_log {
            resolve.record((e.resolve_ms * 1e6) as u64);
        }
        Self {
            policy: policy.name().to_string(),
            coflow_completion: m.coflow_completion.clone(),
            weighted_sum: m.weighted_sum,
            avg_coflow_completion: m.avg_coflow_completion,
            epochs: epoch_log.len(),
            events,
            total_resolve_ms: epoch_log.iter().map(|e| e.resolve_ms).sum(),
            resolve_ms_p50: resolve.quantile(0.5) as f64 / 1e6,
            resolve_ms_p90: resolve.quantile(0.9) as f64 / 1e6,
            resolve_ms_p99: resolve.quantile(0.99) as f64 / 1e6,
            total_pivots: solves.iter().map(|s| s.iterations).sum(),
            total_phase1_pivots: solves.iter().map(|s| s.phase1_iterations).sum(),
            warm_attempted: solves.iter().filter(|s| s.warm_attempted).count(),
            warm_used: solves.iter().filter(|s| s.warm_used).count(),
            total_columns: colgens.iter().map(|c| c.final_cols).sum(),
            total_columns_generated: colgens.iter().map(|c| c.generated_cols).sum(),
            total_colgen_rounds: colgens.iter().map(|c| c.rounds).sum(),
            degraded_epochs: epoch_log.iter().filter(|e| e.degraded.is_some()).count(),
            fallback_policy_uses: epoch_log.iter().filter(|e| e.fallback).count(),
            stale_schedule_ms: epoch_log.iter().map(|e| e.stale_ms).sum(),
            epoch_log: epoch_log.to_vec(),
        }
    }
}
