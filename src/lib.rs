//! # coflow — Asymptotically Optimal Approximation Algorithms for Coflow Scheduling
//!
//! Umbrella crate for the reproduction of Jahanjou, Kantor & Rajaraman
//! (SPAA 2017): re-exports the workspace crates under one roof and provides
//! a [`prelude`] for examples and downstream users.
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`net`] | `coflow-net` | graphs, topologies, paths, pricing oracles, time expansion |
//! | [`lp`] | `coflow-lp` | the from-scratch simplex LP solver |
//! | [`algo`] | `coflow-core` | coflow models + the paper's four algorithms |
//! | [`sim`] | `coflow-sim` | fluid and packet simulators (§4.1) |
//! | [`engine`] | `coflow-engine` | event-driven online scheduler with warm-started epoch re-solves |
//! | [`workloads`] | `coflow-workloads` | seeded random instance generators |
//! | [`obs`] | `coflow-obs` | deterministic structured tracing and metrics (spans, counters, histograms) |
//!
//! See `README.md` for a tour of the workspace, how to run the
//! experiment binaries, and the vendored dependency policy.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use coflow_core as algo;
pub use coflow_engine as engine;
pub use coflow_lp as lp;
pub use coflow_net as net;
pub use coflow_obs as obs;
pub use coflow_sim as sim;
pub use coflow_workloads as workloads;

/// One-stop imports for typical usage (see `examples/`).
pub mod prelude {
    pub use coflow_core::baselines::{self, BaselineConfig, Scheme};
    pub use coflow_core::circuit::lp_free::{
        solve_free_paths_lp_colgen_on_grid, solve_free_paths_lp_paths, FreePathsLpConfig, PathPool,
    };
    pub use coflow_core::circuit::lp_given::{solve_given_paths_lp, GivenPathsLpConfig};
    pub use coflow_core::circuit::round_free::{
        round_free_paths, FreeRoundingConfig, PathSelection,
    };
    pub use coflow_core::circuit::round_given::{round_given_paths, RoundingConfig};
    pub use coflow_core::order::{lp_order, Priority};
    pub use coflow_core::packet::free::{route_and_schedule, PacketFreeConfig};
    pub use coflow_core::packet::jobshop::{schedule_given_paths, PacketConfig};
    pub use coflow_core::residual::{residual_instance, Residual};
    pub use coflow_core::{metrics, Coflow, FlowSpec, Instance, Metrics};
    pub use coflow_engine::{
        run as run_online, ArrivalTrace, EngineConfig, EngineOutcome, EpochTrigger, Fifo, Greedy,
        LpOrder, OnlinePolicy, WeightedFair,
    };
    pub use coflow_sim::fluid::{simulate, AllocPolicy, SimConfig};
    pub use coflow_sim::packetsim::simulate_packets;
}

#[cfg(test)]
// Unit tests assert exact expected values; strict float equality is the point.
#[allow(clippy::float_cmp)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_compiles_and_links() {
        let t = crate::net::topo::star(3, 1.0);
        let inst = Instance::new(
            t.graph.clone(),
            vec![Coflow::new(
                1.0,
                vec![FlowSpec::new(t.hosts[0], t.hosts[1], 1.0, 0.0)],
            )],
        );
        let lp = solve_free_paths_lp_paths(&inst, &FreePathsLpConfig::default()).unwrap();
        let r = round_free_paths(&inst, &lp, &FreeRoundingConfig::default());
        let out = simulate(
            &inst,
            &r.paths,
            &lp_order(&inst, &lp.base),
            &SimConfig::default(),
        );
        // One unit at bottleneck rate 1 completes at t = 1 (fluid model).
        assert!((out.metrics.weighted_sum - 1.0).abs() < 1e-6);
    }
}
