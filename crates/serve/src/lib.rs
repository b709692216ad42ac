//! ns-serve: a batch-run service over the solver drivers.
//!
//! The paper's experiments (Figures 3–6) are parameter sweeps: the same
//! jet case run across optimization versions, communication protocols and
//! processor counts, many cells repeated. This crate serves that workload
//! as jobs rather than scripts, through one crash-durable daemon
//! ([`daemon::Daemon`], `ns-served`, surfaced as `jetns served`) that owns
//! every piece below:
//!
//! * **Admission control** — a bounded priority queue
//!   ([`queue::JobQueue`]). A full queue sheds a strictly lower-priority
//!   queued job to admit higher-priority work, or rejects the newcomer
//!   with a retry-after hint derived from observed service time. Only
//!   *queued* jobs are ever shed; an in-flight run always finishes, so a
//!   rank team is never abandoned mid-exchange.
//! * **Execution** — a bounded worker pool runs jobs on the real
//!   backends: the message-passing driver [`ns_runtime::run`] (the serial
//!   job is its 1×1 plan; any comm protocol version; the chaos backend is
//!   the same plan with the recovery machinery armed), and the
//!   shared-memory solver [`ns_core::Solver::shared`] (the serial V5
//!   solver with its station loops on a DOALL thread team).
//! * **Result caching** — a content-addressed, single-flight cache
//!   ([`cache::ResultCache`]) keyed by the canonical config hash
//!   ([`job::JobSpec::canonical_key`]). A repeated sweep cell is served
//!   the cold run's `RunSummary` payload byte-for-byte, and cold results
//!   are cross-checked against golden FNV field fingerprints where the
//!   differential oracle guarantees bitwise agreement.
//! * **Telemetry** — per-job queue wait, run wall and cache disposition
//!   are folded into the ns-telemetry [`ns_telemetry::RunSummary`] as its
//!   `serve` block.
//! * **Durability** — every admitted job is journaled in a checksummed
//!   write-ahead log ([`wal::Wal`], PR 3 frame machinery on disk) before
//!   the client's admit is acknowledged, and completed results are
//!   written through to a per-key spill store ([`spill::Spill`]) before
//!   their `Completed` record lands, so `kill -9` mid-campaign restarts
//!   into the same queue state and re-serves finished cells from bytes.
//! * **Transport** — a length-prefixed, checksum-framed request/response
//!   protocol over a Unix socket ([`proto`]), with a blocking client
//!   ([`client::Client`]) that honours per-priority retry-after hints.
//! * **Degradation** — per-job deadlines, brownout shedding of
//!   low-priority work under queue/memory pressure, and a SIGTERM
//!   graceful drain that finishes every admitted job, journals a
//!   `CleanShutdown`, and dumps the flight recorder.
//!
//! [`loadgen`] replays the sweep through a daemon over its socket and
//! returns the verdict (byte-identical duplicates, golden fingerprints, a
//! rejected-then-drained overload burst) that `jetns loadgen` and CI gate
//! on.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod daemon;
pub mod job;
pub mod loadgen;
pub mod proto;
pub mod queue;
pub mod spill;
pub mod wal;

pub use cache::{CacheStats, CachedRun, Claim, ResultCache};
pub use client::Client;
pub use daemon::{Daemon, DaemonConfig, ServeStats};
pub use job::{Backend, JobDesc, JobSpec, Priority};
pub use loadgen::{run_loadgen, sweep_jobs, BurstReport, LoadgenOptions, LoadgenVerdict};
pub use proto::{DaemonStatus, Request, Response};
pub use queue::{JobQueue, PushError, Pushed, QueuedJob};
pub use spill::Spill;
pub use wal::{Wal, WalRecord, WalReplay};
