//! # coflow-net
//!
//! Directed, capacitated network substrate for the coflow-scheduling
//! reproduction of Jahanjou, Kantor & Rajaraman, *Asymptotically Optimal
//! Approximation Algorithms for Coflow Scheduling* (SPAA 2017).
//!
//! The paper models the datacenter as a directed graph `G = (V, E)` with edge
//! capacities `{c(e)}` (§1.1). This crate provides:
//!
//! * [`Graph`] — a compact adjacency-list directed multigraph with `f64`
//!   edge capacities ([`graph`]);
//! * [`topo`] — topology builders used throughout the paper and its
//!   evaluation: the triangle of Figure 1, `k`-ary fat-trees (the 128-server
//!   evaluation testbed of §4.1), non-blocking switches, grids, rings and
//!   stars;
//! * [`paths`] — BFS shortest paths, *widest* ("thickest") path search as
//!   used by the paper's flow-decomposition routine (§4.2), and bounded
//!   simple-path enumeration for path-based LP formulations;
//! * [`pricing`] — dual-priced path oracles for delayed column generation:
//!   hop-bounded Bellman–Ford under nonnegative per-edge prices, plus path
//!   interning signatures;
//! * [`flow`] — per-edge flow fields and the flow-decomposition theorem
//!   (§2.2, citing Ahuja–Magnanti–Orlin) realized as thickest-path peeling;
//! * [`timexp`] — time-expanded graphs with queue edges (Ford–Fulkerson
//!   1958), the construction of §3.2 / Figure 2.
//!
//! Everything is deterministic given seeds and has no external native
//! dependencies.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod flow;
pub mod graph;
pub mod paths;
pub mod pricing;
pub mod timexp;
pub mod topo;

pub use flow::{EdgeFlow, FlowDecomposition};
pub use graph::{EdgeId, Graph, NodeId, Path};
pub use timexp::TimeExpandedGraph;

/// Numeric tolerance used for capacity / conservation comparisons throughout
/// the crate. Flow values below this are treated as zero.
pub const FLOW_EPS: f64 = 1e-9;
