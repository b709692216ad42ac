#![warn(missing_docs)]

//! # ns-archsim
//!
//! Discrete-event simulation of the paper's 1995 platforms — the
//! substitution (documented in DESIGN.md) for hardware that no longer
//! exists. Three layers:
//!
//! * **Node**: a trace-driven cache simulator ([`cache`]) feeding a
//!   calibrated cycles-per-flop CPU model ([`cpu`]); the only calibrated
//!   scalars come from the paper's own Figure 2 anchors.
//! * **Interconnect**: contention-aware models of shared Ethernet, FDDI,
//!   the ALLNODE switches, ATM, the SP switch and the T3D torus
//!   ([`network`]), plus message-library software-cost models for PVM,
//!   PVMe, MPL and Cray PVM ([`msglib`]).
//! * **Program**: each rank of the runtime's `CartTopology` replays the
//!   recorded step pair of its plan ([`workload`]: the phase spans, with
//!   their FLOPs, and the messages of a two-step traced run of the code
//!   itself) under the runtime's `CommVersion`, executed by an event-driven
//!   SPMD engine ([`spmd`]) that reports the paper's busy /
//!   non-overlapped-communication split.
//!
//! The platform catalog ([`platform`]) names the paper's machines; the
//! shared-memory Cray Y-MP uses the analytic [`cpu::YmpModel`].

pub mod cache;
pub mod cpu;
pub mod msglib;
pub mod network;
pub mod platform;
pub mod spmd;
pub mod workload;

pub use cache::{CacheGeometry, CacheSim, SweepOrder};
pub use cpu::{Calibration, CpuSpec, YmpModel};
pub use msglib::MsgLib;
pub use network::{NetKind, Network};
pub use platform::Platform;
pub use spmd::{simulate, simulate_traced, SimConfig, SimResult};
pub use workload::{record, Recording};
