#![warn(missing_docs)]

//! # ns-runtime
//!
//! A PVM-style message-passing runtime and the distributed-memory parallel
//! driver for the jet solver.
//!
//! The paper parallelizes its application with PVM (LACE, T3D), MPL and
//! PVMe (IBM SP). This crate reproduces that programming model in-process:
//!
//! * [`pack`] — typed pack/unpack buffers (`pvm_pkdouble` workflow);
//! * [`comm`] — tagged point-to-point endpoints over crossbeam channels,
//!   with stash-based tag matching, per-rank statistics and wait-time
//!   accounting;
//! * [`collectives`] — barrier / all-reduce built from point-to-point;
//! * [`halo`] — the paper's grouped halo protocol (primitive columns,
//!   two-column flux packets), including the Version 7 burst-splitting
//!   variant;
//! * [`topology`] — the Cartesian `px × pr` pencil rank grid with typed
//!   decomposition-plan validation;
//! * [`shape`] — a run's [`Shape`] (rank grid, protocol, recovery, team),
//!   the one description the oracle, serve and the simulator key on;
//! * [`parallel`] — the one rank-per-thread driver: a [`RunPlan`]
//!   (topology, protocol, telemetry, reliability, resume) goes
//!   into [`run`], which reports the paper's busy/non-overlapped time
//!   breakdown; `run_parallel`, `run_parallel_cart` and
//!   `run_parallel_instrumented` are one-line plans over it;
//! * [`fault`] — seeded, deterministic fault injection (drop / corrupt /
//!   duplicate / delay / rank crash) for chaos testing;
//! * [`recover`] — what `reliability: Some(..)` adds to the driver's
//!   generation loop: coordinated in-memory checkpoints, the rollback
//!   decision and its report.
//!
//! The distributed solver is *bitwise identical* to the serial solver for
//! any processor count — asserted by tests — because the exchanged ghost
//! data are exactly the values the serial sweep would read.

pub mod collectives;
pub mod comm;
pub mod fault;
pub mod halo;
pub mod pack;
pub mod parallel;
pub mod recover;
pub mod shape;
pub mod topology;

pub use comm::{CommStats, Endpoint, ReliableConfig};
pub use fault::{CrashSpec, FaultInjector, FaultPlan, FaultStats};
pub use halo::{CommVersion, ThreadHalo};
pub use parallel::{
    run, run_parallel, run_parallel_cart, run_parallel_instrumented, ParallelRun, RankResult, RunPlan, TelemetryOptions,
};
pub use recover::{ChaosOptions, RecoveryReport};
pub use shape::Shape;
pub use topology::{CartNeighbors, CartTopology, DecompositionError};
