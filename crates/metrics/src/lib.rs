#![warn(missing_docs)]

//! # ns-metrics
//!
//! Live observability primitives for the reproduction: the instrumentation
//! the paper's 1995 testbed lacked ("unless we have hardware performance
//! monitoring tools", Section 6), kept cheap enough to stay compiled into
//! the default hot paths.
//!
//! * [`registry`] — a lock-free metrics registry: [`Counter`]s, [`Gauge`]s
//!   and log2-bucketed latency [`Histogram`]s behind `Arc` handles, so the
//!   hot path is one relaxed atomic op per update while a concurrent reader
//!   takes a mergeable, diffable [`MetricsSnapshot`] at any moment and
//!   renders it as a Prometheus-style text page;
//! * [`span`] — causal span IDs minted per `(generation, step)` and carried
//!   inside the reliability layer's frame trailer, so a halo exchange or a
//!   NACK/resend chain stitches into one cross-rank trace;
//! * [`trace`] — the one [`Event`] type every timeline is made of (phase
//!   spans, sends, receives, faults, lifecycle marks) with its JSONL and
//!   Chrome `trace_event` exporters;
//! * [`flight`] — the one per-rank [`Recorder`] those events go into: a
//!   bounded ring dumped to `FLIGHT_<rank>.json` when a rank crashes, a
//!   rollback fires, a watchdog aborts, or a serve daemon drains or
//!   restarts uncleanly, and the whole run's timeline when tracing is on.
//!
//! The crate sits at the very bottom of the dependency graph (serde only):
//! `ns-telemetry`, `ns-runtime`, `ns-core` and `ns-serve` all speak these
//! types without this crate knowing about any of them.

pub mod flight;
pub mod registry;
pub mod span;
pub mod trace;

pub use flight::{FlightDump, Recorder, DEFAULT_FLIGHT_CAPACITY, FLIGHT_SCHEMA};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, HistogramSummary, MetricsSnapshot, MetricsSummary, Registry,
    SNAPSHOT_SCHEMA,
};
pub use span::{span_generation, span_id, span_step};
pub use trace::{to_chrome_trace, to_jsonl, trace_from_jsonl, Event, EventKind};
