//! The job-execution server: admission control in front, a bounded worker
//! pool over the real solver drivers behind, the single-flight result
//! cache in between.
//!
//! Life of a job: `submit` validates the spec and pushes it through the
//! bounded priority queue (rejecting with a retry-after hint, or shedding
//! a lower-priority job, when full). A worker pops it, claims its
//! canonical key in the cache — a hit streams the cold run's payload back
//! byte-for-byte; an owner executes the backend run, stamps the job-level
//! telemetry into the `RunSummary`, optionally cross-checks the field
//! fingerprint against the committed golden snapshots, and fills the
//! cache. Whoever settles a job (the worker, or the submitter whose push
//! shed it) reports it once through the `SettleHook` the daemon supplied
//! when it built the server. Shutdown is graceful by construction:
//! cancellation is the cooperative collective token from `ns-runtime`, so
//! an in-flight rank team always winds down together — it is never
//! abandoned mid-exchange.

use crate::cache::{CacheStats, CachedRun, Claim, ResultCache};
use crate::daemon::DaemonConfig;
use crate::job::{Backend, JobSpec, Priority};
use crate::queue::{JobQueue, PushError, Pushed, QueuedJob};
use crate::spill::Spill;
use ns_core::config::SolverConfig;
use ns_core::shared::SharedSolver;
use ns_metrics::{Counter, Gauge, Histogram, Registry};
use ns_runtime::{CancelToken, CartTopology, CommVersion, RunPlan};
use ns_telemetry::{RunSummary, ServeJobSummary, RUN_SUMMARY_SCHEMA};
use ns_verify::oracle;
use ns_verify::snapshot::{field_hash, GoldenFile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Queue occupancy, as a fraction of its depth, past which low-priority
/// submissions are rejected up front instead of admitted and shed later.
const BROWNOUT_FRACTION: f64 = 0.75;

/// Why a submission was not admitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// Validation failed; nothing was queued.
    Invalid(String),
    /// Queue at capacity (and the job outranked nothing sheddable), or the
    /// server is browning out: back off for roughly `retry_after` and try
    /// again.
    Busy {
        /// Suggested backoff, derived from the per-priority observed
        /// service rate, this job's own cost estimate, and the queue depth
        /// ahead of the caller.
        retry_after: Duration,
        /// True when the rejection came from brownout shedding (queue or
        /// memory pressure past threshold) rather than a hard-full queue.
        brownout: bool,
    },
    /// The server is shutting down.
    Closed,
}

/// How a job settled.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Settled {
    /// Completed, cold or from cache; the result is in the cache.
    Done {
        /// `"cold"` or `"hit"`.
        cache: &'static str,
        /// Time between admission and a worker claiming the job.
        queue_ms: f64,
        /// Backend execution time (zero for cache hits).
        run_ms: f64,
    },
    /// Settled without a result: shed from the queue, expired there past
    /// its deadline, or failed in a backend (panic, abort, cancellation).
    Failed(String),
}

/// Called once for every admitted job, with its canonical key, its
/// reporting label and how it settled, on the thread that settled it: the
/// worker, or the submitter whose push shed it. A `Done` job's result is
/// already in the cache (and written through to the spill) when it runs.
pub(crate) type SettleHook = Box<dyn Fn(u64, &str, Settled) + Send + Sync>;

/// Monotonic server counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServeStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs completed (cold and cached).
    pub completed: u64,
    /// Submissions rejected with retry-after.
    pub rejected: u64,
    /// Queued jobs shed (eviction or shutdown drain).
    pub shed: u64,
    /// Jobs that failed in a backend.
    pub failed: u64,
    /// Cache hits (including coalesced waiters).
    pub cache_hits: u64,
    /// Cold computes.
    pub cache_misses: u64,
    /// Hits that waited out a concurrent duplicate instead of recomputing.
    pub cache_coalesced: u64,
    /// Cold results cross-checked against a golden fingerprint.
    pub golden_checked: u64,
    /// Cross-checks that disagreed.
    pub golden_mismatches: u64,
    /// Jobs whose deadline expired while still queued (settled as failed
    /// without running).
    pub expired: u64,
    /// Low-priority submissions rejected by brownout shedding.
    pub brownout_rejected: u64,
    /// Cache hits promoted back from the on-disk spill.
    pub spill_hits: u64,
    /// Cache entries evicted to stay inside the byte budget.
    pub cache_evictions: u64,
}

/// Handles into the process-global metrics registry, resolved once at
/// server start; every update on the serving path is one relaxed atomic
/// next to the existing `ServeStats` counter it mirrors.
struct ServeMetrics {
    queue_depth: Arc<Gauge>,
    admitted: Arc<Counter>,
    rejected: Arc<Counter>,
    shed: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    job_run_us: Arc<Histogram>,
    expired: Arc<Counter>,
    brownout: Arc<Counter>,
}

impl ServeMetrics {
    fn new() -> Self {
        let r = Registry::global();
        Self {
            queue_depth: r.gauge("ns_serve_queue_depth"),
            admitted: r.counter("ns_serve_admitted_total"),
            rejected: r.counter("ns_serve_rejected_total"),
            shed: r.counter("ns_serve_shed_total"),
            completed: r.counter("ns_serve_completed_total"),
            failed: r.counter("ns_serve_failed_total"),
            cache_hits: r.counter("ns_serve_cache_hits_total"),
            cache_misses: r.counter("ns_serve_cache_misses_total"),
            job_run_us: r.histogram("ns_serve_job_run_us"),
            expired: r.counter("ns_serve_expired_total"),
            brownout: r.counter("ns_serve_brownout_total"),
        }
    }

    /// Worker-busy microseconds, folded per backend in the Prometheus
    /// label style (`{backend="serial"}`): backend utilization is the
    /// rate of this counter over wall time. Resolved per cold run, which
    /// is far off the hot path.
    fn backend_busy(backend: Backend) -> Arc<Counter> {
        Registry::global().counter(&format!("ns_serve_backend_busy_us_total{{backend=\"{}\"}}", backend.name()))
    }
}

struct Inner {
    settle: SettleHook,
    metrics: ServeMetrics,
    cancel: CancelToken,
    golden: Option<GoldenFile>,
    workers: usize,
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    shed: AtomicU64,
    failed: AtomicU64,
    golden_checked: AtomicU64,
    golden_mismatches: AtomicU64,
    expired: AtomicU64,
    brownout_rejected: AtomicU64,
    /// Per-priority-level EWMA of the cold-run service *rate* in
    /// fixed-point µs per cost unit × 1024 (index = `Priority::level()`).
    /// Keeping a rate instead of a raw duration is the satellite fix: a
    /// cheap job's retry-after scales by its own cost estimate instead of
    /// inheriting whatever expensive job last finished, and tracking it
    /// per level keeps a lane of fat Low sweeps from inflating the hints
    /// handed to High clients.
    rate_x1024: [AtomicU64; 3],
}

impl Inner {
    fn record_service_time(&self, priority: Priority, cost_units: u64, wall: Duration) {
        let us = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        let cur = us.saturating_mul(1024) / cost_units.max(1);
        let slot = &self.rate_x1024[priority.level() as usize];
        let old = slot.load(Ordering::Relaxed);
        let new = if old == 0 { cur } else { (old * 7 + cur * 3) / 10 };
        slot.store(new.max(1), Ordering::Relaxed);
    }

    /// The best available service-rate estimate for a priority level:
    /// its own lane, else any observed lane (highest first — the
    /// conservative guess), else zero (caller falls back to a fixed hint).
    fn rate_for(&self, priority: Priority) -> u64 {
        let own = self.rate_x1024[priority.level() as usize].load(Ordering::Relaxed);
        if own != 0 {
            return own;
        }
        self.rate_x1024.iter().rev().map(|r| r.load(Ordering::Relaxed)).find(|&r| r != 0).unwrap_or(0)
    }
}

/// The server. Dropping it without calling [`Server::finish`] or
/// [`Server::shutdown_now`] joins nothing — call one of them.
pub(crate) struct Server {
    queue: Arc<JobQueue>,
    cache: Arc<ResultCache>,
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
    queue_depth: usize,
}

impl Server {
    /// Start the workers over a cache backed by `spill`; every admitted job
    /// is reported to `settle` exactly once.
    pub fn new(cfg: &DaemonConfig, spill: Spill, settle: SettleHook) -> Self {
        assert!(cfg.workers >= 1);
        let queue = Arc::new(JobQueue::new(cfg.queue_depth));
        let cache = Arc::new(ResultCache::with_spill(cfg.cache_budget_bytes, spill));
        let inner = Arc::new(Inner {
            settle,
            metrics: ServeMetrics::new(),
            cancel: CancelToken::new(),
            golden: cfg.golden.clone(),
            workers: cfg.workers,
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            golden_checked: AtomicU64::new(0),
            golden_mismatches: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            brownout_rejected: AtomicU64::new(0),
            rate_x1024: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let cache = Arc::clone(&cache);
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&queue, &cache, &inner))
            })
            .collect();
        Self { queue, cache, inner, workers, next_id: AtomicU64::new(1), queue_depth: cfg.queue_depth }
    }

    /// A handle on the result cache (the daemon uses it to short-circuit
    /// submits and settle waits without going through the queue).
    pub fn cache_handle(&self) -> Arc<ResultCache> {
        Arc::clone(&self.cache)
    }

    /// True when admission is under brownout: queue depth past
    /// [`BROWNOUT_FRACTION`] of capacity, or cache residency past 90% of
    /// its byte budget. Low-priority submissions are rejected while this
    /// holds.
    pub fn brownout_active(&self) -> bool {
        let threshold = (BROWNOUT_FRACTION * self.queue_depth as f64).ceil() as usize;
        if self.queue.len() >= threshold {
            return true;
        }
        let budget = self.cache.budget_bytes();
        budget != usize::MAX && self.cache.resident_bytes() >= budget / 10 * 9
    }

    /// Validate and enqueue a job; returns its id.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        spec.validate().map_err(SubmitError::Invalid)?;
        if spec.priority == Priority::Low && self.brownout_active() {
            self.inner.brownout_rejected.fetch_add(1, Ordering::Relaxed);
            self.inner.metrics.brownout.inc();
            return Err(SubmitError::Busy { retry_after: self.retry_after(&spec), brownout: true });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = QueuedJob { id, spec, submitted: Instant::now() };
        match self.queue.push(job) {
            Ok(Pushed::Admitted) => {}
            Ok(Pushed::Shed(victim)) => self.shed(&victim),
            Err(PushError::Full(rejected)) => {
                self.inner.rejected.fetch_add(1, Ordering::Relaxed);
                self.inner.metrics.rejected.inc();
                return Err(SubmitError::Busy { retry_after: self.retry_after(&rejected.spec), brownout: false });
            }
            Err(PushError::Closed) => return Err(SubmitError::Closed),
        }
        self.inner.submitted.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.admitted.inc();
        self.inner.metrics.queue_depth.set(self.queue.len() as i64);
        Ok(id)
    }

    /// Suggested backoff when a submission is rejected: the rejected job's
    /// *own* estimated service time (its cost units times the per-priority
    /// observed rate) times the queue depth ahead of a retrying caller,
    /// spread over the worker pool. A cheap cell retrying behind a queue
    /// of expensive ones backs off for its own expected slot, not theirs.
    pub fn retry_after(&self, spec: &JobSpec) -> Duration {
        let rate = self.inner.rate_for(spec.priority);
        let per_job = if rate == 0 {
            Duration::from_millis(50)
        } else {
            Duration::from_micros(rate.saturating_mul(spec.cost_units()) / 1024)
        };
        let waves = (self.queue.len() / self.inner.workers).max(1) as u32;
        per_job * waves
    }

    /// Jobs currently queued (not yet claimed by a worker).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Counter snapshot (cache counters folded in).
    pub fn stats(&self) -> ServeStats {
        let CacheStats { hits, misses, coalesced, spill_hits, evictions } = self.cache.stats();
        ServeStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed),
            failed: self.inner.failed.load(Ordering::Relaxed),
            cache_hits: hits,
            cache_misses: misses,
            cache_coalesced: coalesced,
            golden_checked: self.inner.golden_checked.load(Ordering::Relaxed),
            golden_mismatches: self.inner.golden_mismatches.load(Ordering::Relaxed),
            expired: self.inner.expired.load(Ordering::Relaxed),
            brownout_rejected: self.inner.brownout_rejected.load(Ordering::Relaxed),
            spill_hits,
            cache_evictions: evictions,
        }
    }

    /// Graceful shutdown: stop admitting, serve everything queued, join
    /// the workers.
    pub fn finish(mut self) -> ServeStats {
        self.queue.close();
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
        self.stats()
    }

    /// Settle a queued job that will never run.
    fn shed(&self, victim: &QueuedJob) {
        self.inner.shed.fetch_add(1, Ordering::Relaxed);
        self.inner.metrics.shed.inc();
        let label = label_of(&victim.spec);
        (self.inner.settle)(victim.spec.canonical_key(), &label, Settled::Failed(format!("shed under load: {label}")));
    }

    /// Immediate shutdown: drain the queue (draining jobs are reported as
    /// shed), fire the cooperative cancel token so in-flight rank teams
    /// wind down together at the next step boundary, join the workers.
    #[allow(dead_code, reason = "the daemon always drains; server::tests pins this cancel path")]
    pub fn shutdown_now(mut self) -> ServeStats {
        for victim in self.queue.drain() {
            self.shed(&victim);
        }
        self.inner.metrics.queue_depth.set(0);
        self.inner.cancel.cancel();
        for w in std::mem::take(&mut self.workers) {
            let _ = w.join();
        }
        self.stats()
    }
}

fn label_of(spec: &JobSpec) -> String {
    if spec.label.is_empty() {
        spec.case()
    } else {
        spec.label.clone()
    }
}

fn worker_loop(queue: &JobQueue, cache: &ResultCache, inner: &Inner) {
    while let Some(job) = queue.pop() {
        inner.metrics.queue_depth.set(queue.len() as i64);
        let key = job.spec.canonical_key();
        let settled = serve(&job, key, cache, inner);
        let (count, metric) = match settled {
            Settled::Done { .. } => (&inner.completed, &inner.metrics.completed),
            Settled::Failed(_) => (&inner.failed, &inner.metrics.failed),
        };
        count.fetch_add(1, Ordering::Relaxed);
        metric.inc();
        (inner.settle)(key, &label_of(&job.spec), settled);
    }
}

/// Run one popped job to its settled state: expired in the queue, served
/// from the cache, or executed cold and filled into the cache.
fn serve(job: &QueuedJob, key: u64, cache: &ResultCache, inner: &Inner) -> Settled {
    let queue_wait = job.submitted.elapsed();
    let queue_ms = queue_wait.as_secs_f64() * 1e3;
    // deadline gate: a job that waited out its deadline in the queue is
    // settled without running (and without touching the cache — the slot
    // stays free for a live claimant)
    if let Some(deadline) = job.spec.deadline.filter(|&d| queue_wait > d) {
        inner.expired.fetch_add(1, Ordering::Relaxed);
        inner.metrics.expired.inc();
        return Settled::Failed(format!(
            "deadline exceeded: waited {queue_ms:.1}ms of a {:.1}ms budget",
            deadline.as_secs_f64() * 1e3
        ));
    }
    if let Claim::Hit(_) = cache.claim(key) {
        inner.metrics.cache_hits.inc();
        return Settled::Done { cache: "hit", queue_ms, run_ms: 0.0 };
    }
    inner.metrics.cache_misses.inc();
    let busy = ServeMetrics::backend_busy(job.spec.backend);
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(&job.spec, &inner.cancel)));
    let run_wall = t0.elapsed();
    let run_us = run_wall.as_micros().min(u128::from(u64::MAX)) as u64;
    inner.metrics.job_run_us.record(run_us);
    busy.add(run_us);
    match outcome.unwrap_or_else(|panic| Err(panic_message(&panic))) {
        Ok((mut summary, hash)) => {
            inner.record_service_time(job.spec.priority, job.spec.cost_units(), run_wall);
            let golden = inner.golden.as_ref().and_then(|g| golden_expectation(g, &job.spec)).map(|expected| {
                inner.golden_checked.fetch_add(1, Ordering::Relaxed);
                let ok = expected == ns_verify::snapshot::hash_hex(hash);
                if !ok {
                    inner.golden_mismatches.fetch_add(1, Ordering::Relaxed);
                }
                ok
            });
            // the registry window stays out of a served result: it is
            // process-global, so with several workers it mixes concurrent
            // jobs, and every hit, spill load and reply would carry it (a
            // fifth of a tiny serial job's payload)
            summary.metrics = None;
            summary.serve = Some(ServeJobSummary {
                job_id: job.id,
                priority: job.spec.priority.level(),
                queue_wait_seconds: queue_wait.as_secs_f64(),
                run_seconds: run_wall.as_secs_f64(),
                cache: "cold".into(),
            });
            cache.fill(key, CachedRun { case: job.spec.case(), payload: summary.to_json(), field_hash: hash, golden });
            Settled::Done { cache: "cold", queue_ms, run_ms: run_wall.as_secs_f64() * 1e3 }
        }
        Err(error) => {
            // aborted/failed runs are never cached: clear the slot so a
            // waiter or retry can own the key
            cache.abandon(key);
            Settled::Failed(error)
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("backend panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("backend panicked: {s}")
    } else {
        "backend panicked".to_string()
    }
}

/// A summary for the shared-memory backend, shaped like the driver's.
fn process_summary(spec: &JobSpec, wall: Duration) -> RunSummary {
    RunSummary {
        schema_version: RUN_SUMMARY_SCHEMA,
        case: spec.case(),
        regime: spec.cfg.regime.key().to_string(),
        nx: spec.cfg.grid.nx,
        nr: spec.cfg.grid.nr,
        ranks: 1,
        steps_requested: spec.steps,
        steps_taken: spec.steps,
        wall_seconds: wall.as_secs_f64(),
        aborted: None,
        phase_seconds: std::collections::BTreeMap::new(),
        comm: ns_telemetry::CommTotals::default(),
        recovery: None,
        conservation: None,
        serve: None,
        metrics: None,
        health: Vec::new(),
    }
}

/// Execute one job on its backend. Returns the summary (without the serve
/// block, stamped by the worker) and the final field's fingerprint, or the
/// abort/cancellation reason.
fn execute(spec: &JobSpec, cancel: &CancelToken) -> Result<(RunSummary, u64), String> {
    match spec.backend {
        Backend::Shared => {
            let t0 = Instant::now();
            let mut solver = SharedSolver::new(spec.cfg.clone(), spec.procs);
            step_until_cancelled(spec.steps, cancel, || solver.step())?;
            Ok((process_summary(spec, t0.elapsed()), field_hash(&solver.field)))
        }
        Backend::Serial | Backend::Parallel | Backend::Chaos => {
            let run =
                ns_runtime::run(&RunPlan { cancel: Some(cancel.clone()), ..spec.plan() }).map_err(|e| e.to_string())?;
            if let Some(reason) = run.aborted() {
                return Err(reason);
            }
            let hash = field_hash(&run.gather_field());
            Ok((run.summary(&spec.case()), hash))
        }
    }
}

/// Take `steps` steps of a fresh shared-memory solver, polling the
/// cooperative cancel token at every step boundary.
fn step_until_cancelled(steps: u64, cancel: &CancelToken, mut step: impl FnMut()) -> Result<(), String> {
    for n in 0..steps {
        if cancel.is_cancelled() {
            return Err(format!("cancelled at step {n}"));
        }
        step();
    }
    Ok(())
}

/// The golden fingerprint a cold result must reproduce, if the committed
/// snapshots cover this cell: the golden grid and steps, the paper config
/// up to the kernel version, and a job plan that `oracle::expect` holds
/// bitwise against the serial V5 plan the snapshots were taken from. A
/// shared job's plan is the 1×1 V5 plan its canonical form forces.
pub(crate) fn golden_expectation<'g>(golden: &'g GoldenFile, spec: &JobSpec) -> Option<&'g str> {
    let c = spec.canonical();
    if [c.cfg.grid.nx, c.cfg.grid.nr] != golden.grid || c.steps != golden.steps {
        return None;
    }
    let serial = SolverConfig::paper(c.cfg.grid.clone(), c.cfg.regime);
    let baseline = RunPlan::new(&serial, CartTopology::axial(1), c.steps, CommVersion::V5);
    oracle::expect(&c.plan(), &baseline).filter(|e| e.is_bitwise())?;
    golden.entries.get(&format!("{}/serial/V5", c.cfg.regime.key())).map(|snap| snap.hash.as_str())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::{unbounded, Receiver};
    use ns_core::config::Regime;
    use ns_core::Solver;
    use ns_numerics::Grid;
    use ns_verify::snapshot;
    use std::path::PathBuf;

    /// A settle as the hook saw it: key, label, how.
    type Settle = (u64, String, Settled);

    /// A scratch state directory, removed on drop.
    struct Scratch(PathBuf);

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A server over a fresh spill whose settle hook sends every settle
    /// down a channel (the daemon's hook journals it instead).
    fn server(workers: usize, queue_depth: usize, golden: Option<GoldenFile>) -> (Server, Receiver<Settle>, Scratch) {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ns-server-test-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DaemonConfig { workers, queue_depth, golden, sync: false, ..DaemonConfig::new(&dir) };
        let spill = Spill::open(dir.join("spill"), false).unwrap();
        let (tx, rx) = unbounded();
        let hook = move |key: u64, label: &str, how: Settled| {
            let _ = tx.send((key, label.to_string(), how));
        };
        (Server::new(&cfg, spill, Box::new(hook)), rx, Scratch(dir))
    }

    fn euler(nx: usize, nr: usize) -> SolverConfig {
        SolverConfig::paper(Grid::new(nx, nr, 50.0, 5.0), Regime::Euler)
    }

    fn serial_job(steps: u64, label: &str) -> JobSpec {
        let mut spec = JobSpec::new(euler(48, 16), steps, 1);
        spec.backend = Backend::Serial;
        spec.label = label.to_string();
        spec
    }

    fn oracle_shaped_golden() -> (GoldenFile, SolverConfig) {
        // a golden file built from a fresh serial V5 reference on a small
        // oracle-shaped cell (committed golden hashes are
        // platform-dependent; the mechanism is what is under test)
        let grid = Grid::new(48, 16, 50.0, 5.0);
        let cfg = SolverConfig::paper(grid.clone(), Regime::Euler);
        let mut reference = Solver::new(cfg.clone());
        reference.run(4);
        let mut entries = std::collections::BTreeMap::new();
        entries.insert("euler/serial/V5".to_string(), snapshot::of(&reference.field));
        (GoldenFile { schema: snapshot::SCHEMA, grid: [48, 16], steps: 4, entries }, cfg)
    }

    #[test]
    fn golden_cross_check_confirms_bitwise_cells_and_flags_drift() {
        let (golden, cfg) = oracle_shaped_golden();
        let spec = JobSpec::new(cfg.clone(), 4, 2); // parallel Euler: bitwise
        assert!(golden_expectation(&golden, &spec).is_some(), "oracle-shaped Euler parallel cell is covered");
        let verdict = |golden: GoldenFile| {
            let (server, rx, _dir) = server(1, 4, Some(golden));
            server.submit(spec.clone()).unwrap();
            let (key, _, how) = rx.recv().unwrap();
            assert!(matches!(how, Settled::Done { cache: "cold", .. }), "expected a cold Done, got {how:?}");
            let golden = server.cache_handle().peek(key).unwrap().golden;
            let stats = server.finish();
            (golden, stats.golden_checked, stats.golden_mismatches)
        };
        assert_eq!(verdict(golden.clone()), (Some(true), 1, 0), "fresh run matches its golden fingerprint");
        // corrupt the golden entry: the same cell must now be flagged
        let mut bad = golden;
        bad.entries.get_mut("euler/serial/V5").unwrap().hash = snapshot::hash_hex(0xdead_beef);
        assert_eq!(verdict(bad), (Some(false), 1, 1));
    }

    /// A serial job is the 1×1 plan, so a one-rank parallel job with
    /// dissipation is admitted and computes the serial job's field.
    #[test]
    fn one_rank_parallel_job_with_dissipation_is_the_serial_job() {
        let (server, rx, _dir) = server(1, 4, None);
        let mut parallel = JobSpec::new(euler(48, 16), 5, 1);
        parallel.cfg.dissipation = 0.002;
        let mut serial = parallel.clone();
        serial.backend = Backend::Serial;
        let admitted = [server.submit(parallel).map(|_| ()), server.submit(serial).map(|_| ())];
        assert_eq!(admitted, [Ok(()), Ok(())], "both are admitted");
        let mut hashes = Vec::new();
        for _ in 0..2 {
            let (key, _, how) = rx.recv().unwrap();
            assert!(matches!(how, Settled::Done { cache: "cold", .. }), "distinct backends, distinct keys: {how:?}");
            hashes.push(server.cache_handle().peek(key).unwrap().field_hash);
        }
        assert_eq!(hashes[0], hashes[1]);
        // and that field is the damped serial solver's
        let mut reference = Solver::new(SolverConfig { dissipation: 0.002, ..euler(48, 16) });
        reference.run(5);
        assert_eq!(hashes[0], field_hash(&reference.field));
        server.finish();
    }

    #[test]
    fn golden_applicability_is_conservative() {
        let (golden, cfg) = oracle_shaped_golden();
        // NS parallel is only truncation-level: not covered
        let mut ns = cfg.clone();
        ns.regime = Regime::NavierStokes;
        let ns = SolverConfig::paper(ns.grid, Regime::NavierStokes);
        let ns_par = JobSpec::new(ns, 4, 2);
        assert!(golden_expectation(&golden, &ns_par).is_none());
        // different steps: not covered
        let other_steps = JobSpec::new(cfg.clone(), 6, 2);
        assert!(golden_expectation(&golden, &other_steps).is_none());
        // non-paper config (adaptive dt): not covered
        let mut tweaked = cfg;
        tweaked.adaptive_dt = !tweaked.adaptive_dt;
        assert!(golden_expectation(&golden, &JobSpec::new(tweaked, 4, 2)).is_none());
    }

    /// The golden check asks the oracle: Navier-Stokes on one rank is the
    /// serial plan and is checked, an axial N-S split or a V1-V4 kernel is
    /// tolerance-bounded and is not.
    #[test]
    fn golden_cells_are_the_ones_the_oracle_holds_bitwise() {
        let grid = Grid::new(48, 16, 50.0, 5.0);
        let mut entries = std::collections::BTreeMap::new();
        for regime in [Regime::Euler, Regime::NavierStokes] {
            let mut reference = Solver::new(SolverConfig::paper(grid.clone(), regime));
            reference.run(4);
            entries.insert(format!("{}/serial/V5", regime.key()), snapshot::of(&reference.field));
        }
        let golden = GoldenFile { schema: snapshot::SCHEMA, grid: [48, 16], steps: 4, entries };
        let job = |regime, procs, backend, version, comm| {
            let mut spec = JobSpec::new(SolverConfig::paper(grid.clone(), regime), 4, procs);
            (spec.backend, spec.cfg.version, spec.comm) = (backend, version, comm);
            spec
        };
        use ns_core::config::Version::{V3, V5, V7};
        use CommVersion::{V5 as C5, V7 as C7};
        let ns = Regime::NavierStokes;
        let covered = [
            job(ns, 1, Backend::Parallel, V7, C7),
            job(ns, 3, Backend::Serial, V5, C5),
            job(ns, 2, Backend::Shared, V7, C5),
            job(Regime::Euler, 2, Backend::Chaos, V7, C7),
        ];
        for spec in &covered {
            assert!(golden_expectation(&golden, spec).is_some(), "{} is bitwise serial V5", spec.case());
        }
        for spec in [job(ns, 2, Backend::Parallel, V5, C5), job(Regime::Euler, 1, Backend::Parallel, V3, C5)] {
            assert!(golden_expectation(&golden, &spec).is_none(), "{} is tolerance-bounded", spec.case());
        }
        // and a served one-rank N-S job does reproduce the serial fingerprint
        let (server, rx, _dir) = server(1, 4, Some(golden));
        server.submit(covered[0].clone()).unwrap();
        let (key, _, how) = rx.recv().unwrap();
        assert!(matches!(how, Settled::Done { cache: "cold", .. }), "got {how:?}");
        assert_eq!(server.cache_handle().peek(key).unwrap().golden, Some(true));
        let stats = server.finish();
        assert_eq!((stats.golden_checked, stats.golden_mismatches), (1, 0));
    }

    #[test]
    fn serving_updates_the_global_metrics_registry() {
        let before = Registry::global().snapshot();
        let (server, rx, _dir) = server(1, 4, None);
        let spec = JobSpec::new(euler(32, 12), 2, 1);
        server.submit(spec.clone()).unwrap();
        server.submit(spec).unwrap(); // duplicate cell: a hit once the cold run fills
        for _ in 0..2 {
            let (_, _, how) = rx.recv().unwrap();
            assert!(matches!(how, Settled::Done { .. }), "got {how:?}");
        }
        server.finish();
        let delta = Registry::global().snapshot().diff(&before);
        assert!(delta.counters.get("ns_serve_admitted_total").copied().unwrap_or(0) >= 2);
        assert!(delta.counters.get("ns_serve_completed_total").copied().unwrap_or(0) >= 2);
        assert!(delta.counters.get("ns_serve_cache_misses_total").copied().unwrap_or(0) >= 1);
        let h = delta.histograms.get("ns_serve_job_run_us").expect("job run histogram");
        assert!(h.count >= 1);
        // utilization folded under the backend label (the registry is
        // process-global and other tests run serial jobs too, so assert on
        // this test's own backend only)
        let busy = delta.counters.keys().any(|k| k.starts_with("ns_serve_backend_busy_us_total{backend="));
        assert!(busy, "per-backend busy counter present: {:?}", delta.counters.keys().collect::<Vec<_>>());
    }

    #[test]
    fn retry_after_scales_with_the_rejected_jobs_own_cost() {
        // regression: the old hint was one global EWMA of service *time*,
        // so a cheap job rejected behind expensive ones inherited their
        // backoff wholesale. The rate-based hint scales by the rejected
        // job's own cost estimate instead.
        let (server, _rx, _dir) = server(1, 2, None);
        // seed the Normal lane's rate as if a fat cell took 1 s
        let fat = JobSpec::new(euler(64, 24), 100, 1);
        server.inner.record_service_time(Priority::Normal, fat.cost_units(), Duration::from_secs(1));
        let cheap = serial_job(2, "cheap");
        let cheap_hint = server.retry_after(&cheap);
        let fat_hint = server.retry_after(&fat);
        assert!(
            cheap_hint < fat_hint / 20,
            "cheap hint {cheap_hint:?} must be far below the fat job's {fat_hint:?} (ratio of cost units is ~{})",
            fat.cost_units() / cheap.cost_units()
        );
        // and the lanes are independent: an expensive Low lane must not
        // poison a High client's hint when High has its own observations
        server.inner.record_service_time(Priority::Low, 1, Duration::from_secs(10));
        let mut vip = cheap.clone();
        vip.priority = Priority::High;
        server.inner.record_service_time(Priority::High, vip.cost_units(), Duration::from_millis(2));
        assert!(
            server.retry_after(&vip) < Duration::from_millis(50),
            "High lane hint {:?} must come from High observations, not the 10s/unit Low lane",
            server.retry_after(&vip)
        );
        server.finish();
    }

    #[test]
    fn brownout_rejects_low_priority_up_front() {
        // depth 4 browns out at ceil(0.75 * 4) = 3 queued jobs: park the
        // worker on a long occupant, then queue three fillers
        let (server, _rx, _dir) = server(1, 4, None);
        server.submit(serial_job(100_000, "occupant")).unwrap();
        while server.queue_len() > 0 {
            std::thread::yield_now();
        }
        for steps in 1..=3 {
            server.submit(serial_job(steps, "filler")).unwrap();
        }
        assert!(server.brownout_active(), "3 of 4 queued is past the brownout fraction");
        let mut low = serial_job(4, "low");
        low.priority = Priority::Low;
        match server.submit(low.clone()) {
            Err(SubmitError::Busy { brownout, .. }) => assert!(brownout, "rejection must be flagged as brownout"),
            other => panic!("expected brownout Busy, got {other:?}"),
        }
        // normal priority rides through the same pressure
        let mut normal = low;
        normal.priority = Priority::Normal;
        server.submit(normal).unwrap();
        // the occupant is cancelled, the queued jobs shed: nothing runs long
        let stats = server.shutdown_now();
        assert_eq!(stats.brownout_rejected, 1);
        assert_eq!(stats.submitted, 5);
    }

    #[test]
    fn queued_deadline_expiry_settles_without_running() {
        let (server, rx, _dir) = server(1, 4, None);
        let mut spec = serial_job(2, "late");
        spec.deadline = Some(Duration::ZERO); // expired the moment it queues
        server.submit(spec).unwrap();
        match rx.recv().unwrap() {
            (_, _, Settled::Failed(error)) => assert!(error.contains("deadline exceeded"), "got {error:?}"),
            other => panic!("expected deadline failure, got {other:?}"),
        }
        let stats = server.finish();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.cache_misses, 0, "an expired job must never touch a backend or the cache");
    }

    #[test]
    fn invalid_jobs_are_rejected_at_admission_not_in_a_worker() {
        let (server, _rx, _dir) = server(1, 2, None);
        let mut spec = JobSpec::new(SolverConfig::paper(Grid::small(), Regime::Euler), 2, 20);
        assert!(matches!(server.submit(spec.clone()), Err(SubmitError::Invalid(_))));
        spec.procs = 2;
        spec.steps = 0;
        assert!(matches!(server.submit(spec), Err(SubmitError::Invalid(_))));
        let stats = server.finish();
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.failed, 0);
    }

    /// A full queue must reject with a positive retry-after hint, and the
    /// rejections must not wedge the server: everything admitted still
    /// completes and `finish` returns.
    #[test]
    fn full_queue_rejects_with_retry_after_and_no_deadlock() {
        let (server, rx, _dir) = server(1, 2, None);
        let mut admitted = 0u64;
        let mut rejected = 0u64;
        for i in 0..12u64 {
            // distinct cells (steps differ) so the cache cannot absorb the burst
            match server.submit(serial_job(20 + i, &format!("burst/{i}"))) {
                Ok(_) => admitted += 1,
                Err(SubmitError::Busy { retry_after, .. }) => {
                    rejected += 1;
                    assert!(retry_after > Duration::ZERO, "retry-after hint must be positive");
                }
                Err(e) => panic!("unexpected submit error: {e:?}"),
            }
        }
        assert!(rejected > 0, "a depth-2 queue flooded with 12 jobs must reject some");
        for _ in 0..admitted {
            let (_, label, how) =
                rx.recv_timeout(Duration::from_secs(60)).expect("admitted jobs complete; no deadlock");
            assert!(matches!(how, Settled::Done { .. }), "burst jobs are valid and unshed: {label} {how:?}");
        }
        let stats = server.finish();
        assert_eq!(stats.completed, admitted);
        assert_eq!(stats.rejected, rejected);
        assert_eq!(stats.failed, 0);
    }

    /// A repeated cell is served from cache: the cold run's payload, zero
    /// run wall, and a priority or label change must not split the cache
    /// key.
    #[test]
    fn duplicate_cells_hit_the_cache_byte_identically() {
        let (server, rx, _dir) = server(1, 8, None);
        let cold = JobSpec::new(euler(48, 16), 3, 2);
        let mut dup = cold.clone();
        dup.priority = Priority::High;
        dup.label = "same cell, different urgency".into();
        server.submit(cold).unwrap();
        server.submit(dup).unwrap();
        let (first_key, _, first) = rx.recv().unwrap();
        let (second_key, _, second) = rx.recv().unwrap();
        assert_eq!(first_key, second_key, "priority and label are not part of the key");
        assert!(matches!(first, Settled::Done { cache: "cold", .. }), "first visit computes: {first:?}");
        assert!(
            matches!(second, Settled::Done { cache: "hit", run_ms, .. } if run_ms == 0.0),
            "repeat visit is served from cache: {second:?}"
        );
        // both settles point at the one cached result: the cold summary
        let run = server.cache_handle().peek(first_key).unwrap();
        assert!(run.payload.contains("\"cache\": \"cold\""), "the shared payload is the cold run's summary");
        let stats = server.finish();
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
    }

    /// Under overload, queued low-priority work is shed to admit
    /// high-priority work — and the shed job is settled, not silently
    /// dropped.
    #[test]
    fn overload_sheds_lowest_priority_and_reports_it() {
        let (server, rx, _dir) = server(1, 2, None);
        // occupy the worker long enough that the queue stays full
        server.submit(serial_job(60, "occupant")).unwrap();
        // wait for the worker to claim it, so the queue below is exactly ours
        while server.queue_len() > 0 {
            std::thread::yield_now();
        }
        let mut low = serial_job(61, "backfill");
        low.priority = Priority::Low;
        server.submit(low).unwrap();
        server.submit(serial_job(62, "steady")).unwrap();
        let mut vip = serial_job(63, "urgent");
        vip.priority = Priority::High;
        server.submit(vip).unwrap();
        let mut shed = Vec::new();
        let mut done = Vec::new();
        for _ in 0..4 {
            match rx.recv_timeout(Duration::from_secs(60)).unwrap() {
                (_, label, Settled::Failed(error)) => {
                    assert!(error.starts_with("shed under load"), "no job should fail: {error}");
                    shed.push(label);
                }
                (_, label, Settled::Done { .. }) => done.push(label),
            }
        }
        assert_eq!(shed, ["backfill"], "the queued low job is the victim");
        assert_eq!(done.len(), 3);
        let stats = server.finish();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.completed, 3);
    }

    /// Immediate shutdown never abandons an in-flight rank team: the
    /// cooperative cancel token winds the team down together, the job
    /// settles as failed with a cancellation reason, and nothing hangs —
    /// with plain channels and with the recovery machinery armed alike.
    #[test]
    fn shutdown_now_cancels_in_flight_rank_teams_cleanly() {
        for backend in [Backend::Parallel, Backend::Chaos] {
            let (server, rx, _dir) = server(1, 4, None);
            // a parallel job big enough that shutdown lands mid-run
            let mut long = JobSpec::new(euler(64, 24), 100_000, 4);
            long.backend = backend;
            server.submit(long).unwrap();
            server.submit(serial_job(5, "queued-behind")).unwrap();
            // let the worker pick the parallel job up
            std::thread::sleep(Duration::from_millis(100));
            let stats = server.shutdown_now();
            assert_eq!(stats.shed, 1, "{backend:?}: the queued job is drained as shed");
            let mut cancelled = false;
            let mut shed = 0;
            // ends once the server, and with it the hook, is gone
            while let Ok((_, _, how)) = rx.recv_timeout(Duration::from_secs(60)) {
                match how {
                    Settled::Failed(error) if error.starts_with("shed under load") => shed += 1,
                    Settled::Failed(error) => {
                        assert!(error.contains("cancelled"), "the in-flight team reports cancellation, got {error:?}");
                        cancelled = true;
                    }
                    Settled::Done { .. } => panic!("a 100k-step run cannot complete in this test"),
                }
            }
            assert!(cancelled, "{backend:?}: the in-flight parallel job was cancelled, not abandoned");
            assert_eq!(shed, 1);
            assert_eq!(stats.failed, 1);
        }
    }
}
