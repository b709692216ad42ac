#![warn(missing_docs)]

//! # ns-telemetry
//!
//! Unified observability for the reproduction: the instruments the paper
//! wished it had on its 1995 testbed ("unless we have hardware performance
//! monitoring tools", Section 6), applied uniformly to the live solver, the
//! message-passing runtime and the architecture simulator.
//!
//! * [`phase`] — a low-overhead phase profiler ([`PhaseTimer`]) that
//!   attributes wall time and FLOPs to the solver's named phases
//!   (`r:prims` … `x:correct`, `comm:send` / `comm:recv` / `comm:stall`);
//!   the simulator replays the recorded step pair of a traced run under the
//!   **same labels**, so measured and simulated breakdowns are comparable
//!   side by side;
//! * timelines — the one [`Event`] type and its JSONL and Chrome
//!   `trace_event` exporters, re-exported from `ns-metrics`, whose
//!   [`ns_metrics::Recorder`] records every phase span, message, fault and
//!   lifecycle mark;
//! * [`health`] — a run-health monitor sampling the solver's watchdogs
//!   (max Mach, max wave speed, min density/pressure, invariant drift) on a
//!   configurable cadence, with NaN/positivity early-abort and a
//!   machine-readable [`RunSummary`].
//!
//! The crate is deliberately dependency-light (serde and `ns-metrics`
//! only) and sits *below* `ns-core` in the dependency graph: the solver,
//! runtime and simulator all speak these types without this crate knowing
//! about any of them.
//!
//! Phase timing is **off by default**: a disabled [`PhaseTimer`] costs one
//! branch per call, which keeps the telemetry-off overhead on the solver
//! kernels well under the 2% budget.

pub mod health;
pub mod phase;

pub use health::{
    CommTotals, ConservationSummary, HealthConfig, HealthLimits, HealthMonitor, HealthSample, RecoverySummary,
    RunSummary, ServeJobSummary, RUN_SUMMARY_SCHEMA,
};
pub use ns_metrics::{to_chrome_trace, to_jsonl, trace_from_jsonl, Event, EventKind, MetricsSummary, Recorder};
pub use phase::{PhaseLedger, PhaseStat, PhaseTimer};
