//! # coflow-sim
//!
//! The evaluation substrate of §4.1: "like previous works, we developed a
//! flow-based simulator. At a high level, the simulator is an event queue.
//! Each flow corresponds to an event which happens at its release time. The
//! simulator chooses the next flow based on the ordering prescribed by a
//! scheduling algorithm or scheme. A second event occurs when a flow
//! completes; at which time, its reserved bandwidth is released."
//!
//! * [`fluid`] — the event-driven fluid (flow-level) simulator with two
//!   allocation policies: greedy priority-order rate reservation (the
//!   paper's §4.2 "each flow starts as soon as it can, in the order
//!   prescribed") and max–min fair sharing (the Figure 1 (s1) strawman);
//! * [`packetsim`] — discrete store-and-forward execution of packet
//!   schemes (one packet per edge per step), used by the packet-model
//!   experiments.
//!
//! Every simulation returns the realized [`coflow_core::CircuitSchedule`] /
//! [`coflow_core::PacketSchedule`] so tests can re-validate feasibility with
//! the core checkers — the simulator cannot silently cheat.

pub mod fluid;
pub mod packetsim;

pub use fluid::{simulate, AllocPolicy, SimConfig, SimOutcome};
pub use packetsim::{simulate_packets, PacketSimOutcome};
