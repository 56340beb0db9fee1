//! Engine-level metrics.
//!
//! [`EngineMetrics`] records only what the *engine* knows: how many epochs
//! and events the run took, how often its degradation ladder fired, and
//! the per-epoch log. Every other fact about a run has one home elsewhere:
//! the objective in [`EngineOutcome::metrics`](crate::EngineOutcome), plan
//! latency in the trace's `plan` spans and `resolve` histogram, warm-chain
//! totals in [`OnlinePolicy::chain_stats`](crate::OnlinePolicy), and
//! per-epoch pivots, warm starts, columns and staleness in the epoch log.

use coflow_lp::{ColGenStats, SolveStats};

/// One epoch boundary's record.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Boundary time.
    pub time: f64,
    /// Live (admitted, not completed) flows at the boundary.
    pub live_flows: usize,
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
    /// Epoch boundaries at which the policy re-planned.
    pub epochs: usize,
    /// Executor events processed (completions, releases, arrivals, ticks).
    pub events: usize,
    /// Epochs not served by a fresh primary-policy plan (the degradation
    /// ladder's stale-reuse or fallback rung fired).
    pub degraded_epochs: usize,
    /// Epochs planned by the fallback policy.
    pub fallback_policy_uses: usize,
    /// Columns injected by pricing across all epoch re-solves. With a
    /// cross-epoch [`PathPool`](coflow_core::circuit::lp_free::PathPool)
    /// later epochs are seeded with earlier epochs' discoveries, so this
    /// total shrinks relative to a cold pool.
    pub total_columns_generated: usize,
    /// The per-epoch log.
    pub epoch_log: Vec<EpochRecord>,
}

impl EngineMetrics {
    /// Folds the epoch log into the aggregate view.
    pub(crate) fn collect(events: usize, epoch_log: Vec<EpochRecord>) -> Self {
        Self {
            epochs: epoch_log.len(),
            events,
            degraded_epochs: epoch_log.iter().filter(|e| e.degraded.is_some()).count(),
            fallback_policy_uses: epoch_log.iter().filter(|e| e.fallback).count(),
            total_columns_generated: epoch_log
                .iter()
                .filter_map(|e| e.colgen.as_ref())
                .map(|c| c.generated_cols)
                .sum(),
            epoch_log,
        }
    }
}
