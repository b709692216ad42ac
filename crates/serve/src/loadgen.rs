//! Load generator: replays a Figure 3–6-style sweep through the server
//! and reports serving behaviour — latency percentiles, throughput, cache
//! hit rate, duplicate byte-identity, golden cross-check counts — plus a
//! deliberate overload burst that demonstrates admission control
//! (reject-with-retry-after) without deadlocking.
//!
//! The sweep is the paper's experiment shape: one jet case swept over the
//! comm protocol versions and rank counts, with every cell submitted
//! twice so the content-addressed cache is exercised on a realistic
//! workload (a parameter sweep re-visiting cells), and a handful of
//! backend cells (serial, shared-memory, chaos, fused-V6 kernel) mixed in.

use crate::client::Client;
use crate::daemon::{Daemon, DaemonConfig};
use crate::job::{Backend, JobDesc, JobSpec, Priority};
use crate::proto::Response;
use crate::server::{golden_expectation, Outcome, Server, ServerConfig, SubmitError};
use ns_core::config::{Regime, SolverConfig, Version};
use ns_core::Solver;
use ns_numerics::Grid;
use ns_runtime::CommVersion;
use ns_verify::snapshot::{self, GoldenFile};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Schema version stamped into `SERVE_loadgen.json` (the `schema_version`
/// field) and required verbatim by [`LoadgenReport::from_json`]. v2 renamed
/// `schema` → `schema_version` and added the `mode` field (in-process vs
/// socket-mode runs of the same sweep).
pub const LOADGEN_SCHEMA: u32 = 2;

/// Loadgen tuning.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenOptions {
    /// Small grid / few steps (CI-sized) instead of the paper's oracle
    /// shape.
    pub quick: bool,
    /// Server worker pool size for the sweep phase.
    pub workers: usize,
    /// Admission-queue depth for the sweep phase (sized so the sweep
    /// itself is never rejected; the burst phase uses its own tiny queue).
    pub queue_depth: usize,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self { quick: true, workers: 2, queue_depth: 64 }
    }
}

/// Latency percentiles over completed jobs (admission to outcome).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Median, milliseconds.
    pub p50_ms: f64,
    /// 99th percentile, milliseconds.
    pub p99_ms: f64,
    /// Mean, milliseconds.
    pub mean_ms: f64,
    /// Slowest job, milliseconds.
    pub max_ms: f64,
}

impl LatencyStats {
    fn of(samples: &mut [f64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_by(|a, b| a.total_cmp(b));
        let pick = |q: f64| samples[((samples.len() - 1) as f64 * q).round() as usize];
        Self {
            p50_ms: pick(0.50),
            p99_ms: pick(0.99),
            mean_ms: samples.iter().sum::<f64>() / samples.len() as f64,
            max_ms: samples[samples.len() - 1],
        }
    }
}

/// One completed job, as reported.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobRow {
    /// Submission label.
    pub label: String,
    /// Canonical case name.
    pub case: String,
    /// Admission priority name.
    pub priority: String,
    /// `"cold"` or `"hit"`.
    pub cache: String,
    /// Queue wait, milliseconds.
    pub queue_ms: f64,
    /// Backend wall, milliseconds (zero for hits).
    pub run_ms: f64,
    /// Admission-to-outcome total, milliseconds.
    pub total_ms: f64,
}

/// The overload burst: a tiny queue deliberately overfilled with distinct
/// cells.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct BurstReport {
    /// Burst submissions attempted.
    pub submitted: u64,
    /// Admitted (at most queue depth + workers' worth at a time).
    pub admitted: u64,
    /// Rejected with a retry-after hint.
    pub rejected: u64,
    /// Lower-priority jobs shed to admit the burst's high-priority tail.
    pub shed: u64,
    /// Smallest retry-after hint seen, milliseconds (must be positive).
    pub min_retry_after_ms: f64,
    /// Admitted burst jobs that completed once the queue drained.
    pub completed: u64,
}

/// Everything `jetns loadgen` writes to its JSON artifact.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Artifact schema version.
    pub schema_version: u32,
    /// `"in-process"` (direct [`Server`] calls) or `"socket"` (through a
    /// [`Daemon`] over its Unix socket, WAL and spill engaged).
    pub mode: String,
    /// Quick (CI-sized) sweep?
    pub quick: bool,
    /// Sweep-phase worker pool size.
    pub workers: usize,
    /// Sweep-phase queue depth.
    pub queue_depth: usize,
    /// Sweep jobs admitted.
    pub jobs_submitted: u64,
    /// Sweep jobs completed.
    pub jobs_completed: u64,
    /// Sweep jobs failed (must be zero).
    pub jobs_failed: u64,
    /// Cache hits over the sweep.
    pub cache_hits: u64,
    /// Cold computes over the sweep.
    pub cache_misses: u64,
    /// Duplicate claims that waited out a concurrent owner.
    pub cache_coalesced: u64,
    /// hits / (hits + misses).
    pub cache_hit_rate: f64,
    /// Every duplicated cell's repeat was served the cold payload
    /// byte-for-byte.
    pub duplicates_byte_identical: bool,
    /// Cells whose fingerprint was cross-checked against the golden
    /// reference.
    pub golden_checked: u64,
    /// Cross-checks that disagreed (must be zero).
    pub golden_mismatches: u64,
    /// Latency over completed sweep jobs.
    pub latency: LatencyStats,
    /// Completed sweep jobs per wall-clock second.
    pub throughput_jobs_per_sec: f64,
    /// The overload burst.
    pub burst: BurstReport,
    /// Per-job detail.
    pub rows: Vec<JobRow>,
}

impl LoadgenReport {
    /// The acceptance predicate `jetns loadgen` (and CI) gates on.
    pub fn pass(&self) -> bool {
        self.jobs_completed == self.jobs_submitted
            && self.jobs_failed == 0
            && self.cache_hits > 0
            && self.duplicates_byte_identical
            && self.golden_checked > 0
            && self.golden_mismatches == 0
            && self.burst.rejected > 0
            && self.burst.min_retry_after_ms > 0.0
            && self.burst.completed == self.burst.admitted
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("loadgen report serializes")
    }

    /// Parse a committed `SERVE_loadgen.json`, refusing any artifact whose
    /// schema version is not exactly [`LOADGEN_SCHEMA`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let report: Self = serde_json::from_str(text).map_err(|e| format!("loadgen report parse: {e}"))?;
        if report.schema_version != LOADGEN_SCHEMA {
            return Err(format!("loadgen report schema {} != supported {LOADGEN_SCHEMA}", report.schema_version));
        }
        Ok(report)
    }
}

/// The sweep: comm versions × rank counts (every cell twice, priorities
/// cycling), plus backend cells. ≥3 versions × ≥3 P with duplicates, per
/// the acceptance bar.
pub fn sweep_jobs(quick: bool) -> Vec<JobSpec> {
    let (grid, steps) = if quick { (Grid::new(48, 16, 50.0, 5.0), 4) } else { (Grid::new(66, 24, 50.0, 5.0), 6) };
    let base = SolverConfig::paper(grid.clone(), Regime::Euler);
    let prios = [Priority::Normal, Priority::High, Priority::Low];
    let mut jobs = Vec::new();
    let mut cell = 0usize;
    let mut push2 = |spec: JobSpec| {
        // every cell is submitted twice: the repeat must be a cache hit
        for dup in 0..2 {
            let mut s = spec.clone();
            s.label = format!("{}#{dup}", spec.label);
            s.priority = prios[(cell + dup) % prios.len()];
            jobs.push(s);
        }
        cell += 1;
    };
    for comm in [CommVersion::V5, CommVersion::V6, CommVersion::V7] {
        for procs in [1, 2, 4] {
            let mut spec = JobSpec::new(base.clone(), steps, procs);
            spec.comm = comm;
            spec.label = format!("sweep/{:?}/p{procs}", comm);
            push2(spec);
        }
    }
    // backend cells: serial reference, shared-memory, chaos (fault-free
    // plan, recovery machinery armed), fused-V6 and SoA-V7 kernels
    let mut serial = JobSpec::new(base.clone(), steps, 1);
    serial.backend = Backend::Serial;
    serial.label = "backend/serial".into();
    push2(serial);
    let mut shared = JobSpec::new(base.clone(), steps, 2);
    shared.backend = Backend::Shared;
    shared.label = "backend/shared-p2".into();
    push2(shared);
    let mut chaos = JobSpec::new(base.clone(), steps, 2);
    chaos.backend = Backend::Chaos;
    chaos.label = "backend/chaos-p2".into();
    push2(chaos);
    let mut fused = JobSpec::new(base.clone(), steps, 2);
    fused.cfg.version = Version::V6;
    fused.label = "kernel/V6-p2".into();
    push2(fused);
    let mut soa = JobSpec::new(base.clone(), steps, 2);
    soa.cfg.version = Version::V7;
    soa.label = "kernel/V7-p2".into();
    push2(soa);
    if !quick {
        let ns = SolverConfig::paper(grid, Regime::NavierStokes);
        let mut ns_serial = JobSpec::new(ns.clone(), steps, 1);
        ns_serial.backend = Backend::Serial;
        ns_serial.label = "ns/serial".into();
        push2(ns_serial);
        let mut ns_par = JobSpec::new(ns, steps, 2);
        ns_par.label = "ns/parallel-p2".into();
        push2(ns_par);
    }
    jobs
}

/// A golden reference for the sweep's shape, built from a fresh serial V5
/// run — the same FNV fingerprint mechanism as the committed
/// `GOLDEN_verify.json`, regenerated here so the cross-check is
/// self-consistent on any toolchain (the committed file's hashes are
/// platform artifacts that the verify gate regenerates and diffs).
pub fn reference_golden(quick: bool) -> GoldenFile {
    let (grid, steps) = if quick { (Grid::new(48, 16, 50.0, 5.0), 4) } else { (Grid::new(66, 24, 50.0, 5.0), 6) };
    let mut entries = BTreeMap::new();
    for regime in [Regime::Euler, Regime::NavierStokes] {
        let mut reference = Solver::new(SolverConfig::paper(grid.clone(), regime));
        reference.run(steps);
        entries.insert(format!("{}/serial/V5", regime.key()), snapshot::of(&reference.field));
    }
    GoldenFile { schema: snapshot::SCHEMA, grid: [grid.nx, grid.nr], steps, entries }
}

/// Run the sweep and the overload burst; panics only on channel breakage
/// (a server bug), never on rejection — rejection is the point of the
/// burst.
pub fn run_loadgen(opts: &LoadgenOptions) -> LoadgenReport {
    let golden = reference_golden(opts.quick);
    let jobs = sweep_jobs(opts.quick);
    debug_assert!(jobs.iter().any(|j| golden_expectation(&golden, j).is_some()), "sweep must exercise the golden path");

    let (server, rx) = Server::new(ServerConfig {
        workers: opts.workers,
        queue_depth: opts.queue_depth,
        golden: Some(golden),
        ..Default::default()
    });
    let t0 = Instant::now();
    let mut submitted = 0u64;
    for spec in &jobs {
        match server.submit(spec.clone()) {
            Ok(_) => submitted += 1,
            Err(e) => panic!("sweep submission must be admitted (queue sized for the sweep): {e:?}"),
        }
    }
    let mut rows = Vec::new();
    let mut payload_by_case: BTreeMap<String, String> = BTreeMap::new();
    let mut duplicates_byte_identical = true;
    let mut failed = 0u64;
    let mut latencies = Vec::new();
    for _ in 0..submitted {
        match rx.recv().expect("server outcome stream stays open") {
            Outcome::Done(r) => {
                let total = r.queue_wait + r.run_wall;
                latencies.push(total.as_secs_f64() * 1e3);
                match payload_by_case.get(&r.case) {
                    Some(first) => duplicates_byte_identical &= first == &r.run.payload,
                    None => {
                        payload_by_case.insert(r.case.clone(), r.run.payload.clone());
                    }
                }
                rows.push(JobRow {
                    label: r.label,
                    case: r.case,
                    priority: r.priority.name().to_string(),
                    cache: if r.cache_hit { "hit" } else { "cold" }.to_string(),
                    queue_ms: r.queue_wait.as_secs_f64() * 1e3,
                    run_ms: r.run_wall.as_secs_f64() * 1e3,
                    total_ms: total.as_secs_f64() * 1e3,
                });
            }
            Outcome::Failed { label, error, .. } => {
                failed += 1;
                rows.push(JobRow {
                    label: format!("{label} FAILED: {error}"),
                    case: String::new(),
                    priority: "?".to_string(),
                    cache: "cold".to_string(),
                    queue_ms: 0.0,
                    run_ms: 0.0,
                    total_ms: 0.0,
                });
            }
            Outcome::Shed { .. } => panic!("the sweep queue is sized for the sweep; nothing should shed"),
        }
    }
    let sweep_wall = t0.elapsed();
    let stats = server.finish();

    let burst = run_burst();

    let completed = stats.completed;
    LoadgenReport {
        schema_version: LOADGEN_SCHEMA,
        mode: "in-process".to_string(),
        quick: opts.quick,
        workers: opts.workers,
        queue_depth: opts.queue_depth,
        jobs_submitted: submitted,
        jobs_completed: completed,
        jobs_failed: failed,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_coalesced: stats.cache_coalesced,
        cache_hit_rate: if completed == 0 { 0.0 } else { stats.cache_hits as f64 / completed as f64 },
        duplicates_byte_identical,
        golden_checked: stats.golden_checked,
        golden_mismatches: stats.golden_mismatches,
        latency: LatencyStats::of(&mut latencies),
        throughput_jobs_per_sec: if sweep_wall.is_zero() { 0.0 } else { completed as f64 / sweep_wall.as_secs_f64() },
        burst,
        rows,
    }
}

/// The overload burst: one worker, a depth-2 queue, and a stream of
/// distinct cells submitted faster than they can possibly drain. The
/// normal-priority tail must be rejected with positive retry-after hints;
/// a high-priority straggler shed a queued normal job; and `finish()`
/// must drain everything admitted without deadlock.
fn run_burst() -> BurstReport {
    let (server, rx) = Server::new(ServerConfig { workers: 1, queue_depth: 2, golden: None, ..Default::default() });
    let base = SolverConfig::paper(Grid::new(48, 16, 50.0, 5.0), Regime::Euler);
    let mut report = BurstReport { min_retry_after_ms: f64::INFINITY, ..Default::default() };
    // distinct cells (steps vary) so the cache cannot absorb the burst;
    // enough steps that the single worker is still busy while we flood
    for steps in 1..=10u64 {
        let mut spec = JobSpec::new(base.clone(), steps + 20, 1);
        spec.backend = Backend::Serial;
        spec.label = format!("burst/{steps}");
        report.submitted += 1;
        match server.submit(spec) {
            Ok(_) => report.admitted += 1,
            Err(SubmitError::Busy { retry_after, .. }) => {
                report.rejected += 1;
                report.min_retry_after_ms = report.min_retry_after_ms.min(retry_after.as_secs_f64() * 1e3);
            }
            Err(e) => panic!("burst submissions are valid; got {e:?}"),
        }
    }
    // a high-priority straggler: if the queue is still full it must be
    // admitted by shedding a queued normal job, never rejected
    let mut vip = JobSpec::new(base, 40, 1);
    vip.backend = Backend::Serial;
    vip.priority = Priority::High;
    vip.label = "burst/vip".into();
    report.submitted += 1;
    match server.submit(vip) {
        Ok(_) => report.admitted += 1,
        Err(SubmitError::Busy { retry_after, .. }) => {
            report.rejected += 1;
            report.min_retry_after_ms = report.min_retry_after_ms.min(retry_after.as_secs_f64() * 1e3);
        }
        Err(e) => panic!("vip submission is valid; got {e:?}"),
    }
    let stats = server.finish();
    report.shed = stats.shed;
    report.admitted -= stats.shed; // a shed job was admitted, then evicted
    while let Ok(outcome) = rx.recv() {
        if let Outcome::Done(_) = outcome {
            report.completed += 1;
        }
    }
    if report.min_retry_after_ms.is_infinite() {
        report.min_retry_after_ms = 0.0;
    }
    report
}

/// Run the same sweep + burst through a real [`Daemon`] over its Unix
/// socket — WAL journaling, spill write-through, framed transport and
/// retry-after hints all engaged — and report the identical artifact
/// shape with `mode: "socket"`. State lives in (and is removed from) a
/// scratch directory under `scratch_root`.
pub fn run_loadgen_socket(opts: &LoadgenOptions, scratch_root: &std::path::Path) -> std::io::Result<LoadgenReport> {
    let golden = reference_golden(opts.quick);
    let jobs = sweep_jobs(opts.quick);

    let state_dir = scratch_root.join(format!("loadgen-socket-{}", std::process::id()));
    let mut cfg = DaemonConfig::new(&state_dir);
    cfg.workers = opts.workers;
    cfg.queue_depth = opts.queue_depth;
    cfg.golden = Some(golden);
    cfg.sync = false; // loadgen measures serving, not fsync latency
    let daemon = Daemon::start(cfg)?;
    let mut client = Client::connect(daemon.socket_path())?;

    let t0 = Instant::now();
    let mut submitted = 0u64;
    let mut failed = 0u64;
    let mut rows = Vec::new();
    let mut latencies = Vec::new();
    let mut payload_by_case: BTreeMap<String, String> = BTreeMap::new();
    let mut duplicates_byte_identical = true;
    let mut waiting: Vec<(JobSpec, String)> = Vec::new();
    let row_of = |spec: &JobSpec,
                  resp: &Response,
                  payloads: &mut BTreeMap<String, String>,
                  identical: &mut bool,
                  lat: &mut Vec<f64>|
     -> Option<JobRow> {
        match resp {
            Response::Done { case, cache, payload, queue_ms, run_ms, .. } => {
                match payloads.get(case) {
                    Some(first) => *identical &= first == payload,
                    None => {
                        payloads.insert(case.clone(), payload.clone());
                    }
                }
                let total = queue_ms + run_ms;
                lat.push(total);
                Some(JobRow {
                    label: spec.label.clone(),
                    case: case.clone(),
                    priority: spec.priority.name().to_string(),
                    cache: cache.clone(),
                    queue_ms: *queue_ms,
                    run_ms: *run_ms,
                    total_ms: total,
                })
            }
            _ => None,
        }
    };
    for spec in &jobs {
        let desc = JobDesc::from_spec(spec);
        match client.submit_with_retry(&desc, std::time::Duration::from_secs(60))? {
            Response::Admitted { key, .. } => {
                submitted += 1;
                waiting.push((spec.clone(), key));
            }
            // a duplicate whose first copy already settled durably is
            // answered Done at submit time, without re-queueing
            resp @ Response::Done { .. } => {
                submitted += 1;
                match row_of(spec, &resp, &mut payload_by_case, &mut duplicates_byte_identical, &mut latencies) {
                    Some(row) => rows.push(row),
                    None => unreachable!(),
                }
            }
            other => panic!("sweep submission must be admitted (queue sized for the sweep): {other:?}"),
        }
    }
    let mut settled_done = 0u64;
    for (spec, key) in &waiting {
        match client.wait(key, std::time::Duration::from_secs(120))? {
            resp @ Response::Done { .. } => {
                settled_done += 1;
                if let Some(row) =
                    row_of(spec, &resp, &mut payload_by_case, &mut duplicates_byte_identical, &mut latencies)
                {
                    rows.push(row);
                }
            }
            Response::Failed { error, .. } => {
                failed += 1;
                rows.push(JobRow {
                    label: format!("{} FAILED: {error}", spec.label),
                    case: String::new(),
                    priority: "?".to_string(),
                    cache: "cold".to_string(),
                    queue_ms: 0.0,
                    run_ms: 0.0,
                    total_ms: 0.0,
                });
            }
            other => panic!("sweep wait must settle within the timeout: {other:?}"),
        }
    }
    let sweep_wall = t0.elapsed();
    let status = client.status()?;
    let stats = status.stats;
    drop(client);
    daemon.drain()?;

    let burst = run_burst_socket(scratch_root)?;

    // every admitted job settled Done, plus any durable short-circuits
    let completed = settled_done + (submitted - waiting.len() as u64);
    let report = LoadgenReport {
        schema_version: LOADGEN_SCHEMA,
        mode: "socket".to_string(),
        quick: opts.quick,
        workers: opts.workers,
        queue_depth: opts.queue_depth,
        jobs_submitted: submitted,
        jobs_completed: completed,
        jobs_failed: failed,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_coalesced: stats.cache_coalesced,
        cache_hit_rate: if completed == 0 { 0.0 } else { stats.cache_hits as f64 / completed as f64 },
        duplicates_byte_identical,
        golden_checked: stats.golden_checked,
        golden_mismatches: stats.golden_mismatches,
        latency: LatencyStats::of(&mut latencies),
        throughput_jobs_per_sec: if sweep_wall.is_zero() { 0.0 } else { completed as f64 / sweep_wall.as_secs_f64() },
        burst,
        rows,
    };
    let _ = std::fs::remove_dir_all(&state_dir);
    Ok(report)
}

/// The overload burst over the socket: a one-worker, depth-2 daemon
/// flooded with distinct cells via plain submits (no retry), so `Busy`
/// responses with positive hints come back over the wire; shed jobs
/// settle as `Failed` waits.
fn run_burst_socket(scratch_root: &std::path::Path) -> std::io::Result<BurstReport> {
    let state_dir = scratch_root.join(format!("loadgen-burst-{}", std::process::id()));
    let mut cfg = DaemonConfig::new(&state_dir);
    cfg.workers = 1;
    cfg.queue_depth = 2;
    cfg.sync = false;
    let daemon = Daemon::start(cfg)?;
    let mut client = Client::connect(daemon.socket_path())?;
    let base = SolverConfig::paper(Grid::new(48, 16, 50.0, 5.0), Regime::Euler);
    let mut report = BurstReport { min_retry_after_ms: f64::INFINITY, ..Default::default() };
    let mut admitted_keys = Vec::new();
    let submit = |client: &mut Client, spec: JobSpec, report: &mut BurstReport, keys: &mut Vec<String>| {
        report.submitted += 1;
        match client.submit(&JobDesc::from_spec(&spec))? {
            Response::Admitted { key, .. } => {
                report.admitted += 1;
                keys.push(key);
            }
            Response::Busy { retry_after_ms, .. } => {
                report.rejected += 1;
                report.min_retry_after_ms = report.min_retry_after_ms.min(retry_after_ms as f64);
            }
            other => panic!("burst submissions are valid; got {other:?}"),
        }
        std::io::Result::Ok(())
    };
    for steps in 1..=10u64 {
        let mut spec = JobSpec::new(base.clone(), steps + 20, 1);
        spec.backend = Backend::Serial;
        spec.label = format!("burst/{steps}");
        submit(&mut client, spec, &mut report, &mut admitted_keys)?;
    }
    let mut vip = JobSpec::new(base, 40, 1);
    vip.backend = Backend::Serial;
    vip.priority = Priority::High;
    vip.label = "burst/vip".into();
    submit(&mut client, vip, &mut report, &mut admitted_keys)?;
    for key in &admitted_keys {
        if let Response::Done { .. } = client.wait(key, std::time::Duration::from_secs(120))? {
            report.completed += 1;
        }
    }
    let stats = client.status()?.stats;
    report.shed = stats.shed;
    report.admitted -= stats.shed; // a shed job was admitted, then evicted
    drop(client);
    daemon.drain()?;
    let _ = std::fs::remove_dir_all(&state_dir);
    if report.min_retry_after_ms.is_infinite() {
        report.min_retry_after_ms = 0.0;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_three_comm_versions_three_rank_counts_with_duplicates() {
        let jobs = sweep_jobs(true);
        let comms: std::collections::BTreeSet<_> = jobs.iter().map(|j| format!("{:?}", j.comm)).collect();
        let procs: std::collections::BTreeSet<_> =
            jobs.iter().filter(|j| j.backend == Backend::Parallel).map(|j| j.procs).collect();
        assert!(comms.len() >= 3, "≥3 comm versions, got {comms:?}");
        assert!(procs.len() >= 3, "≥3 rank counts, got {procs:?}");
        let mut by_key = BTreeMap::new();
        for j in &jobs {
            *by_key.entry(j.canonical_key()).or_insert(0u32) += 1;
        }
        assert!(by_key.values().all(|&n| n == 2), "every cell appears exactly twice");
        assert!(jobs.iter().all(|j| j.validate().is_ok()), "every sweep job passes admission validation");
    }

    #[test]
    fn loadgen_report_round_trips_and_rejects_wrong_schema() {
        let report = LoadgenReport {
            schema_version: LOADGEN_SCHEMA,
            mode: "in-process".into(),
            quick: true,
            workers: 2,
            queue_depth: 64,
            jobs_submitted: 4,
            jobs_completed: 4,
            jobs_failed: 0,
            cache_hits: 2,
            cache_misses: 2,
            cache_coalesced: 0,
            cache_hit_rate: 0.5,
            duplicates_byte_identical: true,
            golden_checked: 1,
            golden_mismatches: 0,
            latency: LatencyStats::default(),
            throughput_jobs_per_sec: 8.0,
            burst: BurstReport::default(),
            rows: vec![JobRow {
                label: "sweep/V5/p2#0".into(),
                case: "case".into(),
                priority: "normal".into(),
                cache: "cold".into(),
                queue_ms: 0.1,
                run_ms: 5.0,
                total_ms: 5.1,
            }],
        };
        let back = LoadgenReport::from_json(&report.to_json()).expect("round trip");
        assert_eq!(back.jobs_completed, 4);
        assert_eq!(back.rows[0].priority, "normal");
        let mut wrong = report;
        wrong.schema_version = LOADGEN_SCHEMA + 1;
        let err = LoadgenReport::from_json(&wrong.to_json()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
    }

    #[test]
    fn sweep_exercises_the_golden_path() {
        let golden = reference_golden(true);
        let covered = sweep_jobs(true).iter().filter(|j| golden_expectation(&golden, j).is_some()).count();
        assert!(covered >= 2, "golden cross-check applies to at least a couple of sweep cells, got {covered}");
    }
}
