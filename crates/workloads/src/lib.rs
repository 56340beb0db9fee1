//! # coflow-workloads
//!
//! Random coflow instance generation per §4.1 of the paper: "Each coflow
//! instance is randomly generated with flow release times, flow sizes, and
//! coflow weights based on Poisson distributions. Each result is the
//! average of 10 tries."
//!
//! * [`rng`] — self-contained Poisson and exponential samplers (the paper's
//!   distributions; kept in-tree so the only RNG dependency is `rand`'s
//!   uniform source);
//! * [`gen`] — the configurable instance generator;
//! * [`suite`] — named scenarios: the Figure 3 / Figure 4 sweeps, a
//!   MapReduce shuffle, a broadcast pattern, and packet workloads;
//! * [`io`] — JSON (de)serialization of instances for reproducibility
//!   snapshots, and the JSONL trace files.

pub mod gen;
pub mod io;
pub mod rng;
pub mod suite;

pub use gen::{generate, GenConfig};
