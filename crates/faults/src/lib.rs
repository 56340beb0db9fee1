//! # coflow-faults
//!
//! Deterministic fault injection for the LP → engine pipeline, and the
//! chaos harness that proves the pipeline survives it.
//!
//! The production crates expose the *hook points* (`coflow_lp::FaultHook`,
//! the engine's degradation ladder in [`coflow_engine::run_trace`]);
//! this crate supplies the *faults*:
//!
//! * [`plan`] — [`plan::FaultPlan`], a seeded plan of solver faults
//!   (forced singular factorizations, pricing-oracle outages, perturbed
//!   duals) driven by the vendored xoshiro generator. Same seed, same
//!   fault sequence — at any [`SolverOptions::threads`] setting, because
//!   the solver consults hooks only at serial points.
//! * [`netfail`] — connectivity-preserving link removal on a
//!   [`Topology`](coflow_net::topo::Topology): whole bidirectional pairs
//!   disappear *before* instance generation, so every admitted flow is
//!   still routable and faults degrade capacity rather than strand work.
//! * [`corrupt`] — byte-level corruption of `COFB` binary snapshots, for
//!   pinning `coflow_workloads::binio`'s typed-error contract.
//! * [`chaos`] — [`chaos::chaos_run`]: one seeded end-to-end run of the
//!   online engine with budgets, the degradation ladder, and a
//!   [`plan::FaultPlan`] installed, returning the rendered logical-clock
//!   trace for byte-diffing across runs and thread counts.
//!
//! Everything here is std-only and deterministic; nothing in this crate is
//! linked into production configurations.
//!
//! [`SolverOptions::threads`]: coflow_lp::SolverOptions

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod corrupt;
pub mod netfail;
pub mod plan;

pub use chaos::{chaos_run, force_logical_clock, ChaosConfig, ChaosOutcome};
pub use netfail::drop_links;
pub use plan::{FaultCounters, FaultPlan, FaultPlanConfig};
