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
//! * [`paths`] — BFS shortest paths, hop distances and budgets, and bounded
//!   simple-path enumeration for the path-based LP formulations;
//! * [`pricing`] — dual-priced path oracles for delayed column generation:
//!   hop-bounded Bellman–Ford under nonnegative per-edge prices, plus path
//!   interning signatures;
//! * [`timexp`] — time-expanded graphs with queue edges (Ford–Fulkerson
//!   1958), the construction of §3.2 / Figure 2.
//!
//! Everything is deterministic given seeds and has no external native
//! dependencies.

pub mod graph;
pub mod paths;
pub mod pricing;
pub mod timexp;
pub mod topo;

pub use graph::{EdgeId, Graph, NodeId, Path};
pub use timexp::TimeExpandedGraph;
