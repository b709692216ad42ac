//! Load generator: replays a Figure 3–6-style sweep through a real
//! [`Daemon`] over its Unix socket — WAL journaling, spill write-through,
//! framed transport and retry-after hints all engaged — and checks what a
//! served sweep must guarantee: duplicates answered byte-identically, cold
//! results matching their golden fingerprints, and a deliberate overload
//! burst rejected with retry-after hints without deadlocking. Latency is
//! the repo benchmark's `serve_*` workloads' business, not this one's.
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
use ns_core::config::{Regime, SolverConfig, Version};
use ns_core::Solver;
use ns_numerics::Grid;
use ns_runtime::CommVersion;
use ns_verify::snapshot::{self, GoldenFile};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Loadgen tuning.
#[derive(Clone, Copy, Debug)]
pub struct LoadgenOptions {
    /// Small grid / few steps (CI-sized) instead of the paper's oracle
    /// shape.
    pub quick: bool,
    /// Daemon worker pool size for the sweep phase.
    pub workers: usize,
    /// Admission-queue depth for the sweep phase (sized so the sweep
    /// itself is never rejected; the burst phase uses its own tiny queue).
    pub queue_depth: usize,
}

/// The overload burst: a tiny queue deliberately overfilled with distinct
/// cells.
#[derive(Clone, Copy, Debug, Default)]
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

/// What one loadgen run found; [`LoadgenVerdict::pass`] is the bar
/// `jetns loadgen` (and CI) gate on.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadgenVerdict {
    /// Sweep jobs submitted.
    pub jobs_submitted: u64,
    /// Sweep jobs that settled `Done`.
    pub jobs_completed: u64,
    /// Sweep jobs that settled `Failed` (must be zero).
    pub jobs_failed: u64,
    /// The daemon's cache-hit counter over the sweep.
    pub cache_hits: u64,
    /// Every duplicated cell's repeat was answered the first payload
    /// byte-for-byte.
    pub duplicates_byte_identical: bool,
    /// Cells whose fingerprint was cross-checked against the golden
    /// reference.
    pub golden_checked: u64,
    /// Cross-checks that disagreed (must be zero).
    pub golden_mismatches: u64,
    /// The overload burst.
    pub burst: BurstReport,
}

impl LoadgenVerdict {
    /// The acceptance predicate.
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

/// Run the sweep, then the overload burst, each against its own daemon in
/// a scratch state directory under `scratch_root` (removed afterwards).
/// Panics only on a response the protocol rules out (a server bug), never
/// on rejection — rejection is the point of the burst.
pub fn run_loadgen(opts: &LoadgenOptions, scratch_root: &Path) -> io::Result<LoadgenVerdict> {
    let jobs = sweep_jobs(opts.quick);
    let state_dir = scratch_root.join(format!("loadgen-sweep-{}", std::process::id()));
    let mut cfg = DaemonConfig::new(&state_dir);
    cfg.workers = opts.workers;
    cfg.queue_depth = opts.queue_depth;
    cfg.golden = Some(reference_golden(opts.quick));
    cfg.sync = false; // the verdict is about what is served, not fsync cost
    let daemon = Daemon::start(cfg)?;
    let mut client = Client::connect(daemon.socket_path())?;

    let mut settled = Vec::new();
    let mut waiting = Vec::new();
    for spec in &jobs {
        match client.submit_with_retry(&JobDesc::from_spec(spec), Duration::from_secs(60))? {
            Response::Admitted { key, .. } => waiting.push(key),
            // a duplicate whose first copy already settled durably is
            // answered Done at submit time, without re-queueing
            done @ Response::Done { .. } => settled.push(done),
            other => panic!("sweep submission must be admitted (queue sized for the sweep): {other:?}"),
        }
    }
    for key in &waiting {
        settled.push(client.wait(key, Duration::from_secs(120))?);
    }
    let mut verdict =
        LoadgenVerdict { jobs_submitted: jobs.len() as u64, duplicates_byte_identical: true, ..Default::default() };
    let mut first_payload: BTreeMap<String, String> = BTreeMap::new();
    for response in settled {
        match response {
            Response::Done { case, payload, .. } => {
                verdict.jobs_completed += 1;
                match first_payload.entry(case) {
                    Entry::Occupied(first) => verdict.duplicates_byte_identical &= *first.get() == payload,
                    Entry::Vacant(slot) => {
                        slot.insert(payload);
                    }
                }
            }
            Response::Failed { .. } => verdict.jobs_failed += 1,
            other => panic!("sweep wait must settle within the timeout: {other:?}"),
        }
    }
    let stats = client.status()?.stats;
    verdict.cache_hits = stats.cache_hits;
    verdict.golden_checked = stats.golden_checked;
    verdict.golden_mismatches = stats.golden_mismatches;
    drop(client);
    daemon.drain()?;
    let _ = std::fs::remove_dir_all(&state_dir);

    verdict.burst = run_burst(scratch_root)?;
    Ok(verdict)
}

/// The overload burst: a one-worker, depth-2 daemon flooded with distinct
/// cells via plain submits (no retry), faster than they can possibly
/// drain. The normal-priority tail must come back `Busy` with positive
/// hints; a high-priority straggler sheds a queued normal job (which
/// settles as a `Failed` wait); and everything admitted still completes.
fn run_burst(scratch_root: &Path) -> io::Result<BurstReport> {
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
        io::Result::Ok(())
    };
    // distinct cells (steps vary) so the cache cannot absorb the burst;
    // enough steps that the single worker is still busy while we flood
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
        if let Response::Done { .. } = client.wait(key, Duration::from_secs(120))? {
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
    use crate::server::golden_expectation;

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
    fn sweep_exercises_the_golden_path() {
        let golden = reference_golden(true);
        let covered = sweep_jobs(true).iter().filter(|j| golden_expectation(&golden, j).is_some()).count();
        assert!(covered >= 2, "golden cross-check applies to at least a couple of sweep cells, got {covered}");
    }
}
