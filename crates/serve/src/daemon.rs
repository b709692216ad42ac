//! `ns-served`: the crash-durable serve daemon, and the only server.
//!
//! One [`Daemon`] owns the whole serving path: admission control in front
//! (validation at the wire, the bounded priority queue, brownout), a
//! bounded worker pool over the real solver drivers behind, and the
//! single-flight result cache in between — plus the three things a long
//! campaign needs to survive shared infrastructure (the operating mode of
//! the related-work sweep campaigns): a Unix-socket transport speaking the
//! checksummed [`crate::proto`] frames, a write-ahead journal
//! ([`crate::wal`]) that makes admission durable, and a spill-backed result
//! cache so completed cells are served from bytes across restarts.
//!
//! Life of a job: `submit` resolves the wire description into a validated
//! spec, answers a key that already has a result at once, else pushes the
//! job through the queue (rejecting with a retry-after hint, or shedding a
//! lower-priority job, when full) and journals it. A worker pops it, claims
//! its canonical key in the cache — a hit streams the cold run's payload
//! back byte-for-byte; an owner executes the backend run, stamps the
//! job-level telemetry into the `RunSummary`, optionally cross-checks the
//! field fingerprint against the committed golden snapshots, and fills the
//! cache. Whoever settles a job (the worker, or the submitter whose push
//! shed it) reports it once through `settle`.
//!
//! Ordering invariants (the durability model, DESIGN §15):
//!
//! 1. A job is journaled `Admitted` *before* its `Admitted` response is
//!    sent (fsynced when `sync` is on). An acknowledged job therefore
//!    survives `kill -9` and is re-enqueued on restart. The push and the
//!    append happen under one admission mutex, which the drain takes to
//!    close the queue: no `Admitted` record follows `CleanShutdown`.
//! 2. A cold result is written through to the spill *before* its
//!    `Completed` record is appended (the worker fills the cache, then
//!    settles the job, which journals it: program order), so a `Completed`
//!    record always points at durable bytes and a restart never recomputes
//!    a completed cell.
//! 3. Graceful drain: stop admitting → run everything still queued →
//!    journal `CleanShutdown` → dump the flight recorder → remove the
//!    socket. Zero admitted jobs are lost, by construction rather than by
//!    timing. An in-flight run is never interrupted, so a rank team always
//!    finishes together.

use crate::cache::{CacheStats, CachedRun, Claim, ResultCache};
use crate::client::parse_key_hex;
use crate::job::{Backend, JobDesc, JobSpec, Priority};
use crate::proto::{read_request, write_response, DaemonStatus, Request, Response};
use crate::queue::{JobQueue, PushError, Pushed, QueuedJob};
use crate::spill::Spill;
use crate::wal::{key_hex, Wal, WalRecord, WalReplay};
use ns_core::config::SolverConfig;
use ns_core::Solver;
use ns_metrics::{Counter, FlightDump, Gauge, Histogram, Recorder, Registry};
use ns_runtime::{CartTopology, CommVersion, RunPlan};
use ns_telemetry::{RunSummary, ServeJobSummary, RUN_SUMMARY_SCHEMA};
use ns_verify::oracle;
use ns_verify::snapshot::{field_hash, GoldenFile};
use std::collections::HashMap;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Process signal plumbing for `jetns served`: a SIGTERM/SIGINT handler
/// that only sets a flag (the async-signal-safe minimum), polled by the
/// daemon's run loop to trigger a graceful drain.
pub mod term {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    // libc's signal(2) — declared directly, the C library is linked anyway
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Install the SIGTERM/SIGINT handler. Idempotent.
    pub fn install_term_handler() {
        let handler = on_term as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    /// True once SIGTERM or SIGINT has been delivered.
    pub fn term_requested() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

/// Daemon tuning.
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// State directory: holds the WAL (`jobs.wal`), the spill
    /// (`spill/`), and flight dumps.
    pub state_dir: PathBuf,
    /// Socket path; defaults to `{state_dir}/served.sock`.
    pub socket: Option<PathBuf>,
    /// Worker threads.
    pub workers: usize,
    /// Admission-queue depth.
    pub queue_depth: usize,
    /// Result-cache residency budget in bytes.
    pub cache_budget_bytes: usize,
    /// fsync WAL admits and spill writes (turn off only in tests that
    /// don't exercise crash durability).
    pub sync: bool,
    /// Golden snapshots for cold-result cross-checks.
    pub golden: Option<GoldenFile>,
}

impl DaemonConfig {
    /// Defaults rooted at `state_dir`.
    pub fn new(state_dir: impl Into<PathBuf>) -> Self {
        Self {
            state_dir: state_dir.into(),
            socket: None,
            workers: 2,
            queue_depth: 32,
            cache_budget_bytes: 64 << 20,
            sync: true,
            golden: None,
        }
    }
}

/// Queue occupancy, as a fraction of its depth, past which low-priority
/// submissions are rejected up front instead of admitted and shed later.
const BROWNOUT_FRACTION: f64 = 0.75;

/// Monotonic daemon counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ServeStats {
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs completed (cold and cached).
    pub completed: u64,
    /// Submissions rejected with retry-after.
    pub rejected: u64,
    /// Queued jobs shed under load.
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

/// How a job settled.
#[derive(Clone, Debug, PartialEq)]
enum Settled {
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
    /// its deadline, or failed in a backend (panic or abort).
    Failed(String),
}

/// One of the daemon's own counters, and the process-global registry
/// counter it mirrors, if any: one call bumps both.
struct Tally(AtomicU64, Option<Arc<Counter>>);

impl Tally {
    fn new(metric: Option<&str>) -> Self {
        Self(AtomicU64::new(0), metric.map(|name| Registry::global().counter(name)))
    }

    fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
        if let Some(counter) = &self.1 {
            counter.inc();
        }
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The daemon's counters (the `ServeStats` fields the cache does not keep)
/// and its registry-only instruments, resolved once at start; every update
/// on the serving path is a relaxed atomic or two.
struct Meters {
    submitted: Tally,
    completed: Tally,
    rejected: Tally,
    shed: Tally,
    failed: Tally,
    golden_checked: Tally,
    golden_mismatches: Tally,
    expired: Tally,
    brownout_rejected: Tally,
    queue_depth: Arc<Gauge>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    job_run_us: Arc<Histogram>,
}

impl Meters {
    fn new() -> Self {
        let r = Registry::global();
        Self {
            submitted: Tally::new(Some("ns_serve_admitted_total")),
            completed: Tally::new(Some("ns_serve_completed_total")),
            rejected: Tally::new(Some("ns_serve_rejected_total")),
            shed: Tally::new(Some("ns_serve_shed_total")),
            failed: Tally::new(Some("ns_serve_failed_total")),
            golden_checked: Tally::new(None),
            golden_mismatches: Tally::new(None),
            expired: Tally::new(Some("ns_serve_expired_total")),
            brownout_rejected: Tally::new(Some("ns_serve_brownout_total")),
            queue_depth: r.gauge("ns_serve_queue_depth"),
            cache_hits: r.counter("ns_serve_cache_hits_total"),
            cache_misses: r.counter("ns_serve_cache_misses_total"),
            job_run_us: r.histogram("ns_serve_job_run_us"),
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

/// Every key the daemon has admitted, and `Wait` clients blocked on it. A
/// key maps to `None` while its job is pending, then to how it settled; a
/// done job keeps only how it was served: the payload stays in the result
/// cache (resident or spilled), whose byte budget is then the daemon's
/// bound on resident results however many keys have settled.
struct WaitHub {
    jobs: Mutex<HashMap<u64, Option<Settled>>>,
    cv: Condvar,
}

struct Shared {
    queue: JobQueue,
    cache: ResultCache,
    /// Held across a push and its `Admitted` append; the drain takes it to
    /// close the queue (ordering invariant 1).
    admission: Mutex<()>,
    next_id: AtomicU64,
    wal: Mutex<Wal>,
    hub: WaitHub,
    meters: Meters,
    golden: Option<GoldenFile>,
    workers: usize,
    /// Per-priority-level EWMA of the cold-run service *rate* in
    /// fixed-point µs per cost unit × 1024 (index = `Priority::level()`).
    /// A rate, not a raw duration: a cheap job's retry-after scales by its
    /// own cost estimate instead of inheriting whatever expensive job last
    /// finished, and one lane per level keeps a lane of fat Low sweeps from
    /// inflating the hints handed to High clients.
    rate_x1024: [AtomicU64; 3],
    draining: AtomicBool,
    recorder: Mutex<Recorder>,
    state_dir: PathBuf,
}

impl Shared {
    /// Mark a lifecycle note `kind: note` (`seq` = the job key, if any).
    fn record(&self, kind: &str, note: &str, key: Option<u64>) {
        self.recorder.lock().expect("recorder lock poisoned").mark(format!("{kind}: {note}"), key, None);
    }

    /// Jobs admitted and not yet settled.
    fn inflight(&self) -> usize {
        self.hub.jobs.lock().unwrap().values().filter(|how| how.is_none()).count()
    }

    fn dump_flight(&self, reason: &str) {
        let dump = self.recorder.lock().expect("recorder lock poisoned").dump(reason);
        let path = self.state_dir.join(FlightDump::file_name(0));
        let _ = std::fs::write(path, dump.to_json());
    }

    /// True when admission is under brownout: queue depth past
    /// [`BROWNOUT_FRACTION`] of capacity, or cache residency past 90% of
    /// its byte budget. Low-priority submissions are rejected while this
    /// holds.
    fn brownout_active(&self) -> bool {
        let threshold = (BROWNOUT_FRACTION * self.queue.depth() as f64).ceil() as usize;
        if self.queue.len() >= threshold {
            return true;
        }
        let budget = self.cache.budget_bytes();
        budget != usize::MAX && self.cache.resident_bytes() >= budget / 10 * 9
    }

    fn record_service_time(&self, priority: Priority, cost_units: u64, wall: Duration) {
        let us = wall.as_micros().min(u128::from(u64::MAX)) as u64;
        let cur = us.saturating_mul(1024) / cost_units.max(1);
        let slot = &self.rate_x1024[priority.level() as usize];
        let old = slot.load(Ordering::Relaxed);
        let new = if old == 0 { cur } else { (old * 7 + cur * 3) / 10 };
        slot.store(new.max(1), Ordering::Relaxed);
    }

    /// Suggested backoff when a submission is rejected: the rejected job's
    /// *own* estimated service time (its cost units times the observed
    /// rate of its priority lane, else of any lane, highest first — the
    /// conservative guess) times the queue depth ahead of a retrying
    /// caller, spread over the worker pool. A cheap cell retrying behind a
    /// queue of expensive ones backs off for its own expected slot, not
    /// theirs.
    fn retry_after(&self, spec: &JobSpec) -> Duration {
        let own = &self.rate_x1024[spec.priority.level() as usize];
        let rate = std::iter::once(own)
            .chain(self.rate_x1024.iter().rev())
            .map(|r| r.load(Ordering::Relaxed))
            .find(|&r| r != 0);
        let per_job = match rate {
            Some(rate) => Duration::from_micros(rate.saturating_mul(spec.cost_units()) / 1024),
            None => Duration::from_millis(50),
        };
        let waves = (self.queue.len() / self.workers).max(1) as u32;
        per_job * waves
    }

    /// Counter snapshot (cache counters folded in).
    fn stats(&self) -> ServeStats {
        let CacheStats { hits, misses, coalesced, spill_hits, evictions } = self.cache.stats();
        let m = &self.meters;
        ServeStats {
            submitted: m.submitted.get(),
            completed: m.completed.get(),
            rejected: m.rejected.get(),
            shed: m.shed.get(),
            failed: m.failed.get(),
            cache_hits: hits,
            cache_misses: misses,
            cache_coalesced: coalesced,
            golden_checked: m.golden_checked.get(),
            golden_mismatches: m.golden_mismatches.get(),
            expired: m.expired.get(),
            brownout_rejected: m.brownout_rejected.get(),
            spill_hits,
            cache_evictions: evictions,
        }
    }
}

/// Final accounting handed back by [`Daemon::drain`].
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Daemon counters at shutdown.
    pub stats: ServeStats,
    /// Total WAL records (replayed + written this incarnation).
    pub wal_records: u64,
    /// Results sitting in the spill store.
    pub spilled: usize,
}

/// The running daemon. Create with [`Daemon::start`], end with
/// [`Daemon::drain`].
pub struct Daemon {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    accept_thread: Option<JoinHandle<()>>,
    socket_path: PathBuf,
    replay: WalReplay,
}

impl Daemon {
    /// Start the daemon: replay the journal, start the workers, re-enqueue
    /// unsettled jobs, bind the socket, start the accept loop.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Self> {
        assert!(cfg.workers >= 1);
        std::fs::create_dir_all(&cfg.state_dir)?;
        let socket_path = cfg.socket.clone().unwrap_or_else(|| cfg.state_dir.join("served.sock"));
        let (wal, replay) = Wal::open(cfg.state_dir.join("jobs.wal"), cfg.sync)?;
        let spill = Spill::open(cfg.state_dir.join("spill"), cfg.sync)?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(cfg.queue_depth),
            cache: ResultCache::with_spill(cfg.cache_budget_bytes, spill),
            admission: Mutex::new(()),
            next_id: AtomicU64::new(1),
            wal: Mutex::new(wal),
            hub: WaitHub { jobs: Mutex::new(HashMap::new()), cv: Condvar::new() },
            meters: Meters::new(),
            golden: cfg.golden,
            workers: cfg.workers,
            rate_x1024: Default::default(),
            draining: AtomicBool::new(false),
            recorder: Mutex::new(Recorder::new(0, Instant::now())),
            state_dir: cfg.state_dir,
        });
        let workers = (0..cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();

        let unclean = !replay.pending.is_empty() || (replay.records > 0 && !replay.clean_shutdown);
        if unclean {
            shared.record("restart", &format!("unclean restart: {} pending", replay.pending.len()), None);
            shared.dump_flight("unclean-restart");
            Registry::global().counter("ns_served_unclean_restarts_total").inc();
        }

        // re-enqueue admitted-but-unsettled jobs from the previous
        // incarnation (already journaled: no second Admitted record)
        let replayed = Registry::global().counter("ns_served_replayed_total");
        for (key_str, desc) in &replay.pending {
            let Ok(key) = parse_key_hex(key_str) else { continue };
            if shared.cache.peek(key).is_some() {
                // settled after all: the Completed record was lost to a torn
                // tail but the spill write survived
                let mut wal = shared.wal.lock().unwrap();
                let _ = wal.append(&WalRecord::Completed { key: key_str.clone() });
                continue;
            }
            resubmit_with_patience(&shared, key, desc);
            replayed.inc();
        }

        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path)?;
        let accept_thread = Some({
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        });

        Ok(Self { shared, workers, accept_thread, socket_path, replay })
    }

    /// What journal replay found at startup.
    pub fn replay(&self) -> &WalReplay {
        &self.replay
    }

    /// The socket path clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.socket_path
    }

    /// True once a drain has been requested (by a client `Drain` request;
    /// the host loop should then call [`Daemon::drain`]).
    pub fn drain_requested(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Admitted-but-unsettled jobs currently tracked.
    pub fn inflight(&self) -> usize {
        self.shared.inflight()
    }

    /// Graceful drain: stop admitting, finish every admitted job, journal
    /// `CleanShutdown`, dump the flight recorder, remove the socket.
    pub fn drain(mut self) -> std::io::Result<DrainReport> {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.record("drain", "drain requested", None);
        // the drain fence: a submit holding the admission mutex journals its
        // Admitted record before the queue closes, and none pushes after
        {
            let _admission = self.shared.admission.lock().unwrap();
            self.shared.queue.close();
        }
        for worker in std::mem::take(&mut self.workers) {
            let _ = worker.join();
        }
        let stats = self.shared.stats();
        // wake the blocked accept with a connection of our own; if that
        // fails the thread stays blocked, so leave it detached rather than
        // hang the drain (it dies with the process)
        if let Some(accept) = self.accept_thread.take() {
            if UnixStream::connect(&self.socket_path).is_ok() {
                let _ = accept.join();
            }
        }
        let wal_records = {
            let mut wal = self.shared.wal.lock().unwrap();
            wal.append(&WalRecord::CleanShutdown)?;
            wal.records()
        };
        self.shared.record("drain", "clean shutdown journaled", None);
        self.shared.dump_flight("drain");
        let _ = std::fs::remove_file(&self.socket_path);
        let spilled = Spill::open(self.shared.state_dir.join("spill"), false).map(|s| s.len()).unwrap_or(0);
        Ok(DrainReport { stats, wal_records, spilled })
    }
}

/// Re-enqueue a replayed job, riding out `Busy` rejections: the restart
/// backlog can exceed the queue depth, and workers are already chewing
/// through it, so patience is all that's needed (nothing drains or closes
/// the queue before `start` returns).
fn resubmit_with_patience(shared: &Shared, key: u64, desc: &JobDesc) {
    let spec = match desc.to_spec() {
        Ok(spec) => spec,
        // journaled under an older validation regime
        Err(reason) => {
            return settle(shared, key, "", Settled::Failed(format!("replayed job no longer valid: {reason}")))
        }
    };
    while let Response::Busy { retry_after_ms, .. } = enqueue(shared, key, spec.clone()) {
        std::thread::sleep(Duration::from_millis(retry_after_ms.min(200)));
    }
}

/// Settle a job: journal how it settled, record it in the flight ring
/// (under `label` when done, its reason when failed) and wake `Wait`
/// clients. Runs once per admitted job, on the thread that settled it: the
/// worker, or the submitter whose push shed it. A `Done` job's result is
/// already in the cache (and written through to the spill).
fn settle(shared: &Shared, key: u64, label: &str, how: Settled) {
    let (record, kind, note) = match &how {
        Settled::Done { .. } => (WalRecord::Completed { key: key_hex(key) }, "complete", label),
        Settled::Failed(reason) => {
            (WalRecord::Cancelled { key: key_hex(key), reason: reason.clone() }, "fail", reason.as_str())
        }
    };
    let _ = shared.wal.lock().unwrap().append(&record);
    shared.record(kind, note, Some(key));
    shared.hub.jobs.lock().unwrap().insert(key, Some(how));
    shared.hub.cv.notify_all();
}

/// Accept connections until the daemon drains: a blocking accept, which
/// [`Daemon::drain`] wakes by connecting once `draining` is set.
fn accept_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    for stream in listener.incoming() {
        let Ok(stream) = stream else { return };
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        let shared = Arc::clone(shared);
        // detached: a connection never blocks the drain (drained daemons
        // answer `Draining` to submits)
        std::thread::spawn(move || connection(&shared, stream));
    }
}

fn connection(shared: &Shared, mut stream: UnixStream) {
    let mut seq = 0u64;
    loop {
        let request = match read_request(&mut stream, seq) {
            Ok(r) => r,
            Err(_) => return, // EOF, checksum failure or desync: drop the connection
        };
        let response = handle(shared, request);
        if write_response(&mut stream, seq, &response).is_err() {
            return;
        }
        seq += 1;
    }
}

fn done_response(key: u64, run: &CachedRun, cache: &str, queue_ms: f64, run_ms: f64) -> Response {
    Response::Done {
        key: key_hex(key),
        case: run.case.clone(),
        cache: cache.to_string(),
        payload: run.payload.clone(),
        field_hash: ns_verify::snapshot::hash_hex(run.field_hash),
        queue_ms,
        run_ms,
    }
}

fn handle(shared: &Shared, request: Request) -> Response {
    match request {
        Request::Submit { desc } => submit(shared, &desc),
        Request::Wait { key, timeout_ms } => wait(shared, &key, Duration::from_millis(timeout_ms)),
        Request::Status => status(shared),
        Request::Drain => {
            shared.record("drain", "client drain request", None);
            shared.draining.store(true, Ordering::SeqCst);
            Response::Draining
        }
    }
}

fn submit(shared: &Shared, desc: &JobDesc) -> Response {
    let spec = match desc.to_spec() {
        Ok(spec) => spec,
        Err(reason) => return Response::Invalid { reason },
    };
    let key = spec.canonical_key();
    // durable short-circuit: a key with a result (resident or spilled)
    // answers immediately, as a cache hit, and is never journaled or
    // queued again
    if let Some(run) = shared.cache.serve(key) {
        shared.record("durable-hit", &run.case, Some(key));
        return done_response(key, &run, "durable", 0.0, 0.0);
    }
    // ordering invariant 1: journal (fsync) before acknowledging, with the
    // push, under the admission mutex
    let _admission = shared.admission.lock().unwrap();
    let pushed = enqueue(shared, key, spec);
    if !matches!(pushed, Response::Admitted { .. }) {
        return pushed;
    }
    let record = WalRecord::Admitted { key: key_hex(key), desc: desc.clone() };
    if let Err(e) = shared.wal.lock().unwrap().append(&record) {
        return Response::Failed { key: key_hex(key), error: format!("journal append failed: {e}") };
    }
    shared.record("admit", desc.label.as_deref().unwrap_or_default(), Some(key));
    pushed
}

/// Queue a validated job as pending under `key`: `Admitted`, or the
/// response that refuses it (brownout, a full queue, a closed one). A push
/// that sheds a lower-priority queued job settles the victim here.
fn enqueue(shared: &Shared, key: u64, spec: JobSpec) -> Response {
    let busy = |spec: &JobSpec, brownout| Response::Busy {
        retry_after_ms: shared.retry_after(spec).as_millis().max(1) as u64,
        brownout,
    };
    if spec.priority == Priority::Low && shared.brownout_active() {
        shared.meters.brownout_rejected.inc();
        return busy(&spec, true);
    }
    // pending before the push: a worker can settle the job before this
    // returns (a zero deadline expires at once). A refusal puts back what
    // was there, e.g. a duplicate still pending.
    let before = shared.hub.jobs.lock().unwrap().insert(key, None);
    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let refused = match shared.queue.push(QueuedJob { id, spec, submitted: Instant::now() }) {
        Ok(Pushed::Admitted) => None,
        Ok(Pushed::Shed(victim)) => {
            shared.meters.shed.inc();
            let label = label_of(&victim.spec);
            settle(shared, victim.spec.canonical_key(), &label, Settled::Failed(format!("shed under load: {label}")));
            None
        }
        Err(PushError::Full(rejected)) => {
            shared.meters.rejected.inc();
            Some(busy(&rejected.spec, false))
        }
        Err(PushError::Closed) => Some(Response::Draining),
    };
    if let Some(refused) = refused {
        let mut jobs = shared.hub.jobs.lock().unwrap();
        if jobs.get(&key) == Some(&None) {
            match before {
                Some(how) => jobs.insert(key, how),
                None => jobs.remove(&key),
            };
        }
        return refused;
    }
    shared.meters.submitted.inc();
    shared.meters.queue_depth.set(shared.queue.len() as i64);
    Response::Admitted { id, key: key_hex(key) }
}

fn wait(shared: &Shared, key_str: &str, timeout: Duration) -> Response {
    let Ok(key) = parse_key_hex(key_str) else {
        return Response::Invalid { reason: format!("malformed key {key_str:?}") };
    };
    let deadline = Instant::now() + timeout;
    let (run, served) = loop {
        // the payload lives in the cache, resident or spilled; a previous
        // incarnation's result never enters the hub and is answered from
        // there too. Peeked outside the hub lock: a peek may read the spill.
        let run = shared.cache.peek(key);
        let jobs = shared.hub.jobs.lock().unwrap();
        let served = match jobs.get(&key) {
            Some(&Some(Settled::Done { cache, queue_ms, run_ms })) => Some((cache, queue_ms, run_ms)),
            Some(Some(Settled::Failed(error))) => return Response::Failed { key: key_hex(key), error: error.clone() },
            Some(None) | None => None,
        };
        if run.is_some() || served.is_some() {
            break (run, served);
        }
        // unsettled: wait under the lock acquisition that saw it so, so a
        // settle cannot land unheard in between
        let now = Instant::now();
        if now >= deadline {
            return Response::TimedOut { key: key_hex(key) };
        }
        drop(shared.hub.cv.wait_timeout(jobs, deadline - now).unwrap());
    };
    // settled after the peek missed it: the cache fill precedes the settle,
    // so a second peek finds it unless it was evicted and the write-through
    // to the spill had failed
    let Some(run) = run.or_else(|| shared.cache.peek(key)) else {
        let error = "result evicted and not in the spill store; resubmit".to_string();
        return Response::Failed { key: key_hex(key), error };
    };
    let (cache, queue_ms, run_ms) = served.unwrap_or(("durable", 0.0, 0.0));
    done_response(key, &run, cache, queue_ms, run_ms)
}

fn status(shared: &Shared) -> Response {
    Response::Status {
        status: DaemonStatus {
            stats: shared.stats(),
            queue_len: shared.queue.len() as u64,
            inflight: shared.inflight() as u64,
            wal_records: shared.wal.lock().unwrap().records(),
            draining: shared.draining.load(Ordering::SeqCst),
            brownout: shared.brownout_active(),
        },
    }
}

fn label_of(spec: &JobSpec) -> String {
    if spec.label.is_empty() {
        spec.case()
    } else {
        spec.label.clone()
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        shared.meters.queue_depth.set(shared.queue.len() as i64);
        let key = job.spec.canonical_key();
        let settled = serve(shared, &job, key);
        match settled {
            Settled::Done { .. } => shared.meters.completed.inc(),
            Settled::Failed(_) => shared.meters.failed.inc(),
        }
        settle(shared, key, &label_of(&job.spec), settled);
    }
}

/// Run one popped job to its settled state: expired in the queue, served
/// from the cache, or executed cold and filled into the cache.
fn serve(shared: &Shared, job: &QueuedJob, key: u64) -> Settled {
    let queue_wait = job.submitted.elapsed();
    let queue_ms = queue_wait.as_secs_f64() * 1e3;
    // deadline gate: a job that waited out its deadline in the queue is
    // settled without running (and without touching the cache — the slot
    // stays free for a live claimant)
    if let Some(deadline) = job.spec.deadline.filter(|&d| queue_wait > d) {
        shared.meters.expired.inc();
        return Settled::Failed(format!(
            "deadline exceeded: waited {queue_ms:.1}ms of a {:.1}ms budget",
            deadline.as_secs_f64() * 1e3
        ));
    }
    if let Claim::Hit(_) = shared.cache.claim(key) {
        shared.meters.cache_hits.inc();
        return Settled::Done { cache: "hit", queue_ms, run_ms: 0.0 };
    }
    shared.meters.cache_misses.inc();
    let busy = Meters::backend_busy(job.spec.backend);
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| execute(&job.spec)));
    let run_wall = t0.elapsed();
    let run_us = run_wall.as_micros().min(u128::from(u64::MAX)) as u64;
    shared.meters.job_run_us.record(run_us);
    busy.add(run_us);
    match outcome.unwrap_or_else(|panic| Err(panic_message(&panic))) {
        Ok((mut summary, hash)) => {
            shared.record_service_time(job.spec.priority, job.spec.cost_units(), run_wall);
            let golden = shared.golden.as_ref().and_then(|g| golden_expectation(g, &job.spec)).map(|expected| {
                shared.meters.golden_checked.inc();
                let ok = expected == ns_verify::snapshot::hash_hex(hash);
                if !ok {
                    shared.meters.golden_mismatches.inc();
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
            let run = CachedRun { case: job.spec.case(), payload: summary.to_json(), field_hash: hash, golden };
            shared.cache.fill(key, run);
            Settled::Done { cache: "cold", queue_ms, run_ms: run_wall.as_secs_f64() * 1e3 }
        }
        Err(error) => {
            // aborted/failed runs are never cached: clear the slot so a
            // waiter or retry can own the key
            shared.cache.abandon(key);
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
/// abort reason.
fn execute(spec: &JobSpec) -> Result<(RunSummary, u64), String> {
    match spec.backend {
        Backend::Shared => {
            let t0 = Instant::now();
            let mut solver = Solver::shared(spec.cfg.clone(), spec.procs);
            solver.run(spec.steps);
            Ok((process_summary(spec, t0.elapsed()), field_hash(&solver.field)))
        }
        Backend::Serial | Backend::Parallel | Backend::Chaos => {
            let run = ns_runtime::run(&spec.plan()).map_err(|e| e.to_string())?;
            if let Some(reason) = run.aborted() {
                return Err(reason);
            }
            let hash = field_hash(&run.gather_field());
            Ok((run.summary(&spec.case()), hash))
        }
    }
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
    use bytes::Bytes;
    use ns_core::config::Regime;
    use ns_core::Solver;
    use ns_numerics::Grid;
    use ns_verify::snapshot::{self, hash_hex};

    /// A daemon over a fresh, unsynced state directory.
    fn daemon(cfg: DaemonConfig) -> (Daemon, Scratch) {
        let dir = Scratch::new();
        (Daemon::start(DaemonConfig { state_dir: dir.0.clone(), sync: false, ..cfg }).unwrap(), dir)
    }

    /// A scratch state directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Self {
            static NEXT: AtomicU64 = AtomicU64::new(0);
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("ns-daemon-test-{}-{n}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// `workers` workers over a `queue_depth` queue, everything else default.
    fn sized(workers: usize, queue_depth: usize) -> DaemonConfig {
        DaemonConfig { workers, queue_depth, ..DaemonConfig::new("") }
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

    fn serial_desc(steps: u64) -> JobDesc {
        let mut spec = JobSpec::new(euler(24, 10), steps, 1);
        spec.backend = Backend::Serial;
        JobDesc::from_spec(&spec)
    }

    /// Submit a job the daemon must admit; its key.
    fn admit(shared: &Shared, spec: &JobSpec) -> String {
        match submit(shared, &JobDesc::from_spec(spec)) {
            Response::Admitted { key, .. } => key,
            other => panic!("{} must be admitted, got {other:?}", spec.case()),
        }
    }

    /// Wait for a key to settle (generously: the debug build runs serve).
    fn settled(shared: &Shared, key: &str) -> Response {
        wait(shared, key, Duration::from_secs(120))
    }

    fn daemon_status(shared: &Shared) -> DaemonStatus {
        match status(shared) {
            Response::Status { status } => status,
            other => panic!("status answers Status, got {other:?}"),
        }
    }

    /// Poll until `n` admitted jobs have settled (completed, failed or
    /// shed): a key admitted twice settles twice under one hub entry.
    fn await_settles(shared: &Shared, n: u64) {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            let s = daemon_status(shared).stats;
            if s.completed + s.failed + s.shed >= n {
                return;
            }
            assert!(Instant::now() < deadline, "{n} settles expected, stats {s:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// The journal's records in append order.
    fn journal(path: &Path) -> Vec<WalRecord> {
        let bytes = std::fs::read(path).unwrap();
        let mut records = Vec::new();
        let mut at = 0;
        while at + 4 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let frame = ns_runtime::pack::open_frame(Bytes::copy_from_slice(&bytes[at + 4..at + 4 + len])).unwrap();
            records.push(serde_json::from_slice(&frame.body).unwrap());
            at += 4 + len;
        }
        records
    }

    fn oracle_shaped_golden() -> (GoldenFile, SolverConfig) {
        // a golden file built from a fresh serial V5 reference on a small
        // oracle-shaped cell (committed golden hashes are
        // platform-dependent; the mechanism is what is under test)
        let cfg = euler(48, 16);
        let mut reference = Solver::new(cfg.clone());
        reference.run(4);
        let mut entries = std::collections::BTreeMap::new();
        entries.insert("euler/serial/V5".to_string(), snapshot::of(&reference.field));
        (GoldenFile { schema: snapshot::SCHEMA, grid: [48, 16], steps: 4, entries }, cfg)
    }

    /// The hub remembers how a job settled, not its payload: once the cache
    /// evicts a settled key nothing else keeps the bytes resident (so the
    /// byte budget bounds a long-lived daemon), and `Wait` still answers
    /// them, from the spill.
    #[test]
    fn settled_payloads_are_owned_by_the_cache_alone() {
        // a one-byte budget: every fill evicts everything but itself
        let (daemon, _dir) = daemon(DaemonConfig { cache_budget_bytes: 1, ..DaemonConfig::new("") });
        let shared = &daemon.shared;
        let settle_job = |steps: u64| {
            let Response::Admitted { key, .. } = submit(shared, &serial_desc(steps)) else {
                panic!("a fresh key is admitted");
            };
            match settled(shared, &key) {
                Response::Done { cache, payload, .. } => (key, cache, payload),
                other => panic!("job {key} must settle Done, got {other:?}"),
            }
        };
        let (key, _, cold_payload) = settle_job(2);
        let resident = Arc::downgrade(&shared.cache.peek(parse_key_hex(&key).unwrap()).expect("just filled"));
        settle_job(3);
        // the worker drops its handle right after settling; give it a moment
        let deadline = Instant::now() + Duration::from_secs(10);
        while resident.upgrade().is_some() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(resident.upgrade().is_none(), "an evicted payload has no owner left: the hub must not hold it");
        match wait(shared, &key, Duration::from_secs(5)) {
            Response::Done { cache, payload, .. } => {
                assert_eq!(cache, "cold", "the hub still knows how the job was served");
                assert_eq!(payload, cold_payload, "the spill answers the same bytes");
            }
            other => panic!("a settled key answers Done after eviction, got {other:?}"),
        }
        daemon.drain().unwrap();
    }

    /// `wait` checks the hub and blocks under one lock acquisition, so a
    /// settle that lands while it peeks the cache is heard at once, not a
    /// whole timeout later. Each trial starts a settle a little later
    /// relative to the wait, sweeping it across the peek.
    #[test]
    fn a_settle_racing_a_wait_is_answered_at_once() {
        let (daemon, _dir) = daemon(DaemonConfig::new(""));
        let shared = &*daemon.shared;
        let timeout = Duration::from_secs(5);
        for trial in 0..400u64 {
            // never submitted: every peek misses and reads the spill
            let key = u64::MAX - trial;
            let go = AtomicBool::new(false);
            let answered = std::thread::scope(|s| {
                s.spawn(|| {
                    while !go.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    for _ in 0..trial % 50 * 20 {
                        std::hint::spin_loop();
                    }
                    settle(shared, key, "raced", Settled::Failed("raced".into()));
                });
                go.store(true, Ordering::Release);
                let t0 = Instant::now();
                let response = wait(shared, &key_hex(key), timeout);
                assert!(matches!(response, Response::Failed { .. }), "trial {trial}: {response:?}");
                t0.elapsed()
            });
            assert!(answered < timeout / 10, "trial {trial}: a racing settle was answered after {answered:?}");
        }
        daemon.drain().unwrap();
    }

    /// A hit is a submit the cache answers in place of a run. Waiting on a
    /// settled key reads the cache too, but serves nothing new.
    #[test]
    fn only_a_submit_answered_from_the_cache_counts_a_hit() {
        let (daemon, _dir) = daemon(DaemonConfig::new(""));
        let shared = &daemon.shared;
        let desc = serial_desc(2);
        let Response::Admitted { key, .. } = submit(shared, &desc) else { panic!("a fresh key is admitted") };
        for _ in 0..3 {
            assert!(matches!(settled(shared, &key), Response::Done { .. }));
        }
        assert_eq!(daemon_status(shared).stats.cache_hits, 0, "waits count no hit");
        assert!(matches!(submit(shared, &desc), Response::Done { .. }), "the repeat is answered at submit");
        assert_eq!(daemon_status(shared).stats.cache_hits, 1, "one resubmit, one hit");
        daemon.drain().unwrap();
    }

    /// A zero deadline is valid on the wire and expires the moment a worker
    /// pops the job, possibly before `submit` returns; the key must still
    /// leave the in-flight count once it settles.
    #[test]
    fn jobs_settled_before_submit_returns_leave_nothing_in_flight() {
        let (daemon, _dir) = daemon(DaemonConfig { workers: 4, ..DaemonConfig::new("") });
        let shared = &daemon.shared;
        for steps in 1..=200 {
            let desc = JobDesc { deadline_ms: Some(0), ..serial_desc(steps) };
            let key = match submit(shared, &desc) {
                Response::Admitted { key, .. } => key,
                Response::Busy { .. } => continue,
                other => panic!("a valid job is admitted or busy, got {other:?}"),
            };
            match wait(shared, &key, Duration::from_secs(60)) {
                Response::Failed { error, .. } => assert!(error.contains("deadline exceeded"), "got {error:?}"),
                other => panic!("a zero-deadline job expires, got {other:?}"),
            }
        }
        assert_eq!(daemon_status(shared).inflight, 0, "every settled key left the in-flight count");
        assert_eq!(daemon.inflight(), 0);
        daemon.drain().unwrap();
    }

    /// A served rank team exchanges exactly what its plan does: the
    /// payload's message counts and volumes are those of the same plan
    /// run directly (no control traffic rides along per step).
    #[test]
    fn served_rank_teams_report_their_plans_comm_totals() {
        let (daemon, _dir) = daemon(sized(1, 4));
        for procs in [2, 4] {
            let spec = JobSpec::new(SolverConfig::paper(Grid::small(), Regime::Euler), 6, procs);
            let Response::Done { payload, .. } = settled(&daemon.shared, &admit(&daemon.shared, &spec)) else {
                panic!("P = {procs}: the job completes");
            };
            let served = RunSummary::from_json(&payload).unwrap().comm;
            let planned = ns_runtime::run(&spec.plan()).unwrap().summary(&spec.case()).comm;
            assert!(served.sends > 0, "P = {procs}: a rank team exchanges halos");
            assert_eq!(served, planned, "P = {procs}: served comm totals are the plan's");
        }
        daemon.drain().unwrap();
    }

    /// The drain fence: client threads keep submitting distinct keys while
    /// the daemon drains. Every admitted job is journaled before the
    /// `CleanShutdown` record and settled, and the journal replays clean.
    /// The jobs expire the moment a worker pops them, so the queue stays
    /// short and the drain lands among live submits; twenty daemon lives
    /// move it around.
    #[test]
    fn no_admitted_record_follows_the_clean_shutdown() {
        for life in 0..20u64 {
            let (daemon, dir) = daemon(sized(2, 16));
            let shared = Arc::clone(&daemon.shared);
            let admitted = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for client in 0..3u64 {
                    let (shared, admitted) = (&shared, &admitted);
                    s.spawn(move || {
                        for n in 0u64.. {
                            let desc = JobDesc { deadline_ms: Some(0), ..serial_desc(1 + client + 3 * n) };
                            match submit(shared, &desc) {
                                Response::Admitted { key, .. } => admitted.lock().unwrap().push(key),
                                Response::Busy { .. } => std::thread::yield_now(),
                                Response::Draining => return,
                                other => panic!("life {life}, client {client}: {other:?}"),
                            }
                        }
                    });
                }
                // the drain lands among live submits: once a client is in
                // (a fixed sleep alone raced the clients' start under load)
                let t0 = Instant::now();
                while admitted.lock().unwrap().is_empty() && t0.elapsed() < Duration::from_secs(10) {
                    std::thread::yield_now();
                }
                std::thread::sleep(Duration::from_millis(1 + life % 5));
                daemon.drain().unwrap();
            });
            let (_, replay) = Wal::open(dir.0.join("jobs.wal"), false).unwrap();
            assert!(replay.clean_shutdown, "life {life}: the journal ends with CleanShutdown");
            assert!(replay.pending.is_empty(), "life {life}: {} admitted jobs left pending", replay.pending.len());
            let records = journal(&dir.0.join("jobs.wal"));
            let clean = records.iter().position(|r| *r == WalRecord::CleanShutdown).unwrap();
            assert_eq!(clean, records.len() - 1, "life {life}: CleanShutdown is the last record");
            let admitted = admitted.into_inner().unwrap();
            assert!(!admitted.is_empty(), "life {life}: the clients got some jobs in before the drain");
            for key in &admitted {
                let at = |settle: bool| {
                    records.iter().position(|r| match r {
                        WalRecord::Admitted { key: k, .. } => !settle && k == key,
                        WalRecord::Completed { key: k } | WalRecord::Cancelled { key: k, .. } => settle && k == key,
                        WalRecord::CleanShutdown => false,
                    })
                };
                assert!(at(false).is_some_and(|i| i < clean), "life {life}, {key}: Admitted before CleanShutdown");
                assert!(at(true).is_some(), "life {life}, {key}: settled");
            }
        }
    }

    #[test]
    fn golden_cross_check_confirms_bitwise_cells_and_flags_drift() {
        let (golden, cfg) = oracle_shaped_golden();
        let spec = JobSpec::new(cfg.clone(), 4, 2); // parallel Euler: bitwise
        assert!(golden_expectation(&golden, &spec).is_some(), "oracle-shaped Euler parallel cell is covered");
        let verdict = |golden: GoldenFile| {
            let (daemon, _dir) = daemon(DaemonConfig { golden: Some(golden), ..sized(1, 4) });
            let key = admit(&daemon.shared, &spec);
            let how = settled(&daemon.shared, &key);
            assert!(
                matches!(&how, Response::Done { cache, .. } if cache == "cold"),
                "expected a cold Done, got {how:?}"
            );
            let golden = daemon.shared.cache.peek(parse_key_hex(&key).unwrap()).unwrap().golden;
            let stats = daemon.drain().unwrap().stats;
            (golden, stats.golden_checked, stats.golden_mismatches)
        };
        assert_eq!(verdict(golden.clone()), (Some(true), 1, 0), "fresh run matches its golden fingerprint");
        // corrupt the golden entry: the same cell must now be flagged
        let mut bad = golden;
        bad.entries.get_mut("euler/serial/V5").unwrap().hash = snapshot::hash_hex(0xdead_beef);
        assert_eq!(verdict(bad), (Some(false), 1, 1));
    }

    /// A serial job is the 1×1 plan, so a one-rank parallel job with
    /// dissipation is admitted and computes the serial job's field; a damped
    /// Euler job on two ranks computes it too, bitwise. (The wire format
    /// carries the paper's undamped config, so the specs go straight onto
    /// the queue.)
    #[test]
    fn one_rank_parallel_job_with_dissipation_is_the_serial_job() {
        let (daemon, _dir) = daemon(sized(1, 4));
        let shared = &daemon.shared;
        let mut parallel = JobSpec::new(euler(48, 16), 5, 1);
        parallel.cfg.dissipation = 0.002;
        let mut serial = parallel.clone();
        serial.backend = Backend::Serial;
        let two_ranks = JobSpec { procs: 2, ..parallel.clone() };
        let mut hashes = Vec::new();
        for job in [parallel, serial, two_ranks] {
            assert_eq!(job.validate(), Ok(()), "{} is admitted", job.case());
            let key = job.canonical_key();
            assert!(matches!(enqueue(shared, key, job), Response::Admitted { .. }));
            match settled(shared, &key_hex(key)) {
                Response::Done { cache, field_hash, .. } if cache == "cold" => hashes.push(field_hash),
                other => panic!("distinct backends, distinct keys, each cold: {other:?}"),
            }
        }
        // and that field is the damped serial solver's
        let mut reference = Solver::new(SolverConfig { dissipation: 0.002, ..euler(48, 16) });
        reference.run(5);
        let reference = hash_hex(field_hash(&reference.field));
        assert!(hashes.iter().all(|h| *h == reference), "{hashes:?} vs {reference}");
        daemon.drain().unwrap();
    }

    #[test]
    fn golden_applicability_is_conservative() {
        let (golden, cfg) = oracle_shaped_golden();
        // NS parallel is only truncation-level: not covered
        let ns = SolverConfig::paper(cfg.grid.clone(), Regime::NavierStokes);
        assert!(golden_expectation(&golden, &JobSpec::new(ns, 4, 2)).is_none());
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
        let (daemon, _dir) = daemon(DaemonConfig { golden: Some(golden), ..sized(1, 4) });
        let key = admit(&daemon.shared, &covered[0]);
        let how = settled(&daemon.shared, &key);
        assert!(matches!(&how, Response::Done { cache, .. } if cache == "cold"), "got {how:?}");
        assert_eq!(daemon.shared.cache.peek(parse_key_hex(&key).unwrap()).unwrap().golden, Some(true));
        let stats = daemon.drain().unwrap().stats;
        assert_eq!((stats.golden_checked, stats.golden_mismatches), (1, 0));
    }

    #[test]
    fn serving_updates_the_global_metrics_registry() {
        let before = Registry::global().snapshot();
        let (daemon, _dir) = daemon(sized(1, 4));
        for steps in [2, 3] {
            let key = admit(&daemon.shared, &JobSpec::new(euler(32, 12), steps, 1));
            let how = settled(&daemon.shared, &key);
            assert!(matches!(how, Response::Done { .. }), "got {how:?}");
        }
        daemon.drain().unwrap();
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
        let (daemon, _dir) = daemon(sized(1, 2));
        let shared = &daemon.shared;
        // seed the Normal lane's rate as if a fat cell took 1 s
        let fat = JobSpec::new(euler(64, 24), 100, 1);
        shared.record_service_time(Priority::Normal, fat.cost_units(), Duration::from_secs(1));
        let cheap = serial_job(2, "cheap");
        let cheap_hint = shared.retry_after(&cheap);
        let fat_hint = shared.retry_after(&fat);
        assert!(
            cheap_hint < fat_hint / 20,
            "cheap hint {cheap_hint:?} must be far below the fat job's {fat_hint:?} (ratio of cost units is ~{})",
            fat.cost_units() / cheap.cost_units()
        );
        // and the lanes are independent: an expensive Low lane must not
        // poison a High client's hint when High has its own observations
        shared.record_service_time(Priority::Low, 1, Duration::from_secs(10));
        let mut vip = cheap.clone();
        vip.priority = Priority::High;
        shared.record_service_time(Priority::High, vip.cost_units(), Duration::from_millis(2));
        assert!(
            shared.retry_after(&vip) < Duration::from_millis(50),
            "High lane hint {:?} must come from High observations, not the 10s/unit Low lane",
            shared.retry_after(&vip)
        );
        daemon.drain().unwrap();
    }

    #[test]
    fn brownout_rejects_low_priority_up_front() {
        // depth 4 browns out at ceil(0.75 * 4) = 3 queued jobs: park the
        // worker on an occupant that outlasts the submits below by far
        // (about a second), then queue three fillers
        let (daemon, _dir) = daemon(sized(1, 4));
        let shared = &daemon.shared;
        admit(shared, &serial_job(10_000, "occupant"));
        while !shared.queue.is_empty() {
            std::thread::yield_now();
        }
        for steps in 1..=3 {
            admit(shared, &serial_job(steps, "filler"));
        }
        assert!(shared.brownout_active(), "3 of 4 queued is past the brownout fraction");
        assert!(daemon_status(shared).brownout, "status reports the brownout");
        let mut low = serial_job(4, "low");
        low.priority = Priority::Low;
        match submit(shared, &JobDesc::from_spec(&low)) {
            Response::Busy { brownout, .. } => assert!(brownout, "rejection must be flagged as brownout"),
            other => panic!("expected brownout Busy, got {other:?}"),
        }
        // normal priority rides through the same pressure
        low.priority = Priority::Normal;
        admit(shared, &low);
        // the drain runs the occupant and the four queued jobs to the end
        let stats = daemon.drain().unwrap().stats;
        assert_eq!(stats.brownout_rejected, 1);
        assert_eq!((stats.submitted, stats.completed), (5, 5));
    }

    #[test]
    fn queued_deadline_expiry_settles_without_running() {
        let (daemon, _dir) = daemon(sized(1, 4));
        let mut spec = serial_job(2, "late");
        spec.deadline = Some(Duration::ZERO); // expired the moment it queues
        let key = admit(&daemon.shared, &spec);
        match settled(&daemon.shared, &key) {
            Response::Failed { error, .. } => assert!(error.contains("deadline exceeded"), "got {error:?}"),
            other => panic!("expected deadline failure, got {other:?}"),
        }
        let stats = daemon.drain().unwrap().stats;
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.cache_misses, 0, "an expired job must never touch a backend or the cache");
    }

    #[test]
    fn invalid_jobs_are_rejected_at_admission_not_in_a_worker() {
        let (daemon, _dir) = daemon(sized(1, 2));
        let mut spec = JobSpec::new(SolverConfig::paper(Grid::small(), Regime::Euler), 2, 20);
        let refused =
            |spec: &JobSpec| matches!(submit(&daemon.shared, &JobDesc::from_spec(spec)), Response::Invalid { .. });
        assert!(refused(&spec), "20 ranks on 50 columns");
        spec.procs = 2;
        spec.steps = 0;
        assert!(refused(&spec), "zero steps");
        let stats = daemon.drain().unwrap().stats;
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.failed, 0);
    }

    /// A full queue must reject with a positive retry-after hint, and the
    /// rejections must not wedge the daemon: everything admitted still
    /// completes and the drain returns.
    #[test]
    fn full_queue_rejects_with_retry_after_and_no_deadlock() {
        let (daemon, _dir) = daemon(sized(1, 2));
        let shared = &daemon.shared;
        let mut admitted = Vec::new();
        let mut rejected = 0u64;
        for i in 0..12u64 {
            // distinct cells (steps differ) so the cache cannot absorb the burst
            match submit(shared, &JobDesc::from_spec(&serial_job(20 + i, &format!("burst/{i}")))) {
                Response::Admitted { key, .. } => admitted.push(key),
                Response::Busy { retry_after_ms, .. } => {
                    rejected += 1;
                    assert!(retry_after_ms > 0, "retry-after hint must be positive");
                }
                other => panic!("unexpected submit response: {other:?}"),
            }
        }
        assert!(rejected > 0, "a depth-2 queue flooded with 12 jobs must reject some");
        for key in &admitted {
            let how = wait(shared, key, Duration::from_secs(60));
            assert!(matches!(how, Response::Done { .. }), "burst jobs are valid and unshed: {key} {how:?}");
        }
        let stats = daemon.drain().unwrap().stats;
        assert_eq!(stats.completed, admitted.len() as u64);
        assert_eq!(stats.rejected, rejected);
        assert_eq!(stats.failed, 0);
    }

    /// A repeated cell is served from cache: the cold run's payload, zero
    /// run wall, and a priority or label change must not split the cache
    /// key.
    #[test]
    fn duplicate_cells_hit_the_cache_byte_identically() {
        let (daemon, _dir) = daemon(sized(1, 8));
        let shared = &daemon.shared;
        let cold = JobSpec::new(euler(48, 16), 3, 2);
        let mut dup = cold.clone();
        dup.priority = Priority::High;
        dup.label = "same cell, different urgency".into();
        // both queue behind an occupant of the one worker, so neither is
        // answered at submit: the repeat is answered by the worker, from
        // the cache the first visit filled
        admit(shared, &serial_job(500, "occupant"));
        let keys = [admit(shared, &cold), admit(shared, &dup)];
        assert_eq!(keys[0], keys[1], "priority and label are not part of the key");
        await_settles(shared, 3);
        let Response::Done { cache, run_ms, payload, .. } = settled(shared, &keys[0]) else {
            panic!("the key settles Done")
        };
        assert_eq!((cache.as_str(), run_ms), ("hit", 0.0), "the later visit is served from cache");
        // both visits point at the one cached result: the cold summary
        assert!(payload.contains("\"cache\": \"cold\""), "the shared payload is the cold run's summary");
        let cached = shared.cache.peek(parse_key_hex(&keys[0]).unwrap()).unwrap();
        assert_eq!(payload, cached.payload, "byte-identical to the cache's copy");
        let stats = daemon.drain().unwrap().stats;
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 2), "the occupant and the first visit are cold");
    }

    /// Under overload, queued low-priority work is shed to admit
    /// high-priority work — and the shed job is settled, not silently
    /// dropped.
    #[test]
    fn overload_sheds_lowest_priority_and_reports_it() {
        let (daemon, _dir) = daemon(sized(1, 2));
        let shared = &daemon.shared;
        // occupy the worker long enough that the queue stays full
        let occupant = admit(shared, &serial_job(60, "occupant"));
        // wait for the worker to claim it, so the queue below is exactly ours
        while !shared.queue.is_empty() {
            std::thread::yield_now();
        }
        let mut low = serial_job(61, "backfill");
        low.priority = Priority::Low;
        let backfill = admit(shared, &low);
        let steady = admit(shared, &serial_job(62, "steady"));
        let mut vip = serial_job(63, "urgent");
        vip.priority = Priority::High;
        let urgent = admit(shared, &vip);
        match settled(shared, &backfill) {
            Response::Failed { error, .. } => assert!(error.starts_with("shed under load"), "got {error}"),
            other => panic!("the queued low job is the victim, got {other:?}"),
        }
        for key in [occupant, steady, urgent] {
            let how = settled(shared, &key);
            assert!(matches!(how, Response::Done { .. }), "no other job is shed or fails: {how:?}");
        }
        let stats = daemon.drain().unwrap().stats;
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.completed, 3);
    }
}
