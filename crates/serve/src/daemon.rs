//! `ns-served`: the crash-durable serve daemon.
//!
//! The daemon wraps the in-process [`Server`] with the three things a
//! long campaign needs to survive shared infrastructure (the operating
//! mode of the related-work sweep campaigns): a Unix-socket transport
//! speaking the checksummed [`crate::proto`] frames, a write-ahead
//! journal ([`crate::wal`]) that makes admission durable, and a
//! spill-backed result cache so completed cells are served from bytes
//! across restarts.
//!
//! Ordering invariants (the durability model, DESIGN §15):
//!
//! 1. A job is journaled `Admitted` *before* its `Admitted` response is
//!    sent (fsynced when `sync` is on). An acknowledged job therefore
//!    survives `kill -9` and is re-enqueued on restart.
//! 2. A cold result is written through to the spill *before* its
//!    `Completed` record is appended (the cache fill happens before the
//!    worker emits its outcome, and the pump journals from outcomes), so
//!    a `Completed` record always points at durable bytes and a restart
//!    never recomputes a completed cell.
//! 3. Graceful drain: stop admitting → run everything still queued →
//!    journal `CleanShutdown` → dump the flight recorder → remove the
//!    socket. Zero admitted jobs are lost, by construction rather than by
//!    timing.

use crate::cache::ResultCache;
use crate::client::parse_key_hex;
use crate::job::JobDesc;
use crate::proto::{read_request, write_response, DaemonStatus, Request, Response};
use crate::server::{Outcome, Server, ServerConfig, SubmitError};
use crate::spill::Spill;
use crate::wal::{key_hex, Wal, WalRecord, WalReplay};
use crate::CachedRun;
use crossbeam_channel::Receiver;
use ns_metrics::{FlightDump, FlightRecorder, Registry};
use ns_verify::snapshot::GoldenFile;
use std::collections::{HashMap, HashSet};
use std::io::ErrorKind;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
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
    /// Brownout threshold as a fraction of `queue_depth`.
    pub brownout_fraction: f64,
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
            brownout_fraction: 0.75,
            golden: None,
        }
    }
}

/// How a settled job is remembered for `Wait` clients. A done job keeps
/// only how it was served: the payload stays in the result cache (resident
/// or spilled), whose byte budget is then the daemon's bound on resident
/// results however many keys have settled.
enum Settled {
    Done {
        /// `"cold"` or `"hit"` (how the worker served it).
        cache: &'static str,
        queue_ms: f64,
        run_ms: f64,
    },
    Failed(String),
}

struct WaitHub {
    settled: Mutex<HashMap<u64, Settled>>,
    cv: Condvar,
}

struct Shared {
    server: Mutex<Option<Server>>,
    cache: Arc<ResultCache>,
    wal: Mutex<Wal>,
    hub: WaitHub,
    inflight: Mutex<HashSet<u64>>,
    draining: AtomicBool,
    flight: Mutex<FlightRecorder>,
    state_dir: PathBuf,
}

impl Shared {
    fn record(&self, kind: &str, label: &str, key: Option<u64>) {
        self.flight.lock().unwrap().record(kind, label, None, key, None, 0);
    }

    fn dump_flight(&self, reason: &str) {
        let dump = self.flight.lock().unwrap().dump(0, reason);
        let path = self.state_dir.join(FlightDump::file_name(0));
        let _ = std::fs::write(path, dump.to_json());
    }
}

/// Final accounting handed back by [`Daemon::drain`].
#[derive(Clone, Debug)]
pub struct DrainReport {
    /// Server counters at shutdown.
    pub stats: crate::server::ServeStats,
    /// Total WAL records (replayed + written this incarnation).
    pub wal_records: u64,
    /// Results sitting in the spill store.
    pub spilled: usize,
}

/// The running daemon. Create with [`Daemon::start`], end with
/// [`Daemon::drain`].
pub struct Daemon {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    pump_thread: Option<JoinHandle<()>>,
    socket_path: PathBuf,
    replay: WalReplay,
}

impl Daemon {
    /// Start the daemon: replay the journal, re-enqueue unsettled jobs,
    /// bind the socket, start the accept loop and the outcome pump.
    pub fn start(cfg: DaemonConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        let socket_path = cfg.socket.clone().unwrap_or_else(|| cfg.state_dir.join("served.sock"));
        let (wal, replay) = Wal::open(cfg.state_dir.join("jobs.wal"), cfg.sync)?;
        let spill = Spill::open(cfg.state_dir.join("spill"), cfg.sync)?;
        let (server, outcomes) = Server::new(ServerConfig {
            workers: cfg.workers,
            queue_depth: cfg.queue_depth,
            golden: cfg.golden.clone(),
            cache_budget_bytes: cfg.cache_budget_bytes,
            spill: Some(spill),
            brownout_fraction: cfg.brownout_fraction,
        });
        let cache = server.cache_handle();
        let shared = Arc::new(Shared {
            server: Mutex::new(Some(server)),
            cache,
            wal: Mutex::new(wal),
            hub: WaitHub { settled: Mutex::new(HashMap::new()), cv: Condvar::new() },
            inflight: Mutex::new(HashSet::new()),
            draining: AtomicBool::new(false),
            flight: Mutex::new(FlightRecorder::default()),
            state_dir: cfg.state_dir.clone(),
        });

        let unclean = !replay.pending.is_empty() || (replay.records > 0 && !replay.clean_shutdown);
        if unclean {
            shared.record("restart", &format!("unclean restart: {} pending", replay.pending.len()), None);
            shared.dump_flight("unclean-restart");
            Registry::global().counter("ns_served_unclean_restarts_total").inc();
        }

        // the pump journals settles and wakes Wait clients; started before
        // replay so replayed jobs settle through the same path
        let pump_thread = Some({
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || outcome_pump(&shared, &outcomes))
        });

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
            shared.inflight.lock().unwrap().insert(key);
            resubmit_with_patience(&shared, key, desc);
            replayed.inc();
        }

        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path)?;
        listener.set_nonblocking(true)?;
        let accept_thread = Some({
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener))
        });

        Ok(Self { shared, accept_thread, pump_thread, socket_path, replay })
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
        self.shared.inflight.lock().unwrap().len()
    }

    /// Graceful drain: stop admitting, finish every admitted job, journal
    /// `CleanShutdown`, dump the flight recorder, remove the socket.
    pub fn drain(mut self) -> std::io::Result<DrainReport> {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.record("drain", "drain requested", None);
        let server = self.shared.server.lock().unwrap().take();
        let stats = match server {
            Some(server) => server.finish(),
            None => Default::default(),
        };
        if let Some(pump) = self.pump_thread.take() {
            let _ = pump.join();
        }
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
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

/// Re-submit a replayed job, riding out `Busy` rejections: the restart
/// backlog can exceed the queue depth, and workers are already chewing
/// through it, so patience is all that's needed.
fn resubmit_with_patience(shared: &Shared, key: u64, desc: &JobDesc) {
    let spec = match desc.to_spec() {
        Ok(spec) => spec,
        Err(reason) => {
            // journaled under an older validation regime: settle it
            settle(shared, key, Settled::Failed(format!("replayed job no longer valid: {reason}")));
            let mut wal = shared.wal.lock().unwrap();
            let _ = wal.append(&WalRecord::Cancelled { key: key_hex(key), reason });
            return;
        }
    };
    loop {
        let backoff = {
            let guard = shared.server.lock().unwrap();
            let Some(server) = guard.as_ref() else { return };
            match server.submit(spec.clone()) {
                Ok(_) => return,
                Err(SubmitError::Busy { retry_after, .. }) => retry_after.min(Duration::from_millis(200)),
                Err(SubmitError::Closed) => return,
                Err(SubmitError::Invalid(reason)) => {
                    drop(guard);
                    settle(shared, key, Settled::Failed(reason.clone()));
                    let mut wal = shared.wal.lock().unwrap();
                    let _ = wal.append(&WalRecord::Cancelled { key: key_hex(key), reason });
                    return;
                }
            }
        };
        std::thread::sleep(backoff);
    }
}

fn settle(shared: &Shared, key: u64, how: Settled) {
    shared.inflight.lock().unwrap().remove(&key);
    shared.hub.settled.lock().unwrap().insert(key, how);
    shared.hub.cv.notify_all();
}

/// Journal settles and wake waiters. Runs until the server (and with it
/// every outcome sender) is gone.
fn outcome_pump(shared: &Shared, outcomes: &Receiver<Outcome>) {
    while let Ok(outcome) = outcomes.recv() {
        match outcome {
            Outcome::Done(res) => {
                // ordering invariant 2: the worker filled the cache (spill
                // write-through) before sending this outcome, so the
                // Completed record below always points at durable bytes
                {
                    let mut wal = shared.wal.lock().unwrap();
                    let _ = wal.append(&WalRecord::Completed { key: key_hex(res.key) });
                }
                shared.record("complete", &res.case, Some(res.key));
                settle(
                    shared,
                    res.key,
                    Settled::Done {
                        cache: if res.cache_hit { "hit" } else { "cold" },
                        queue_ms: res.queue_wait.as_secs_f64() * 1e3,
                        run_ms: res.run_wall.as_secs_f64() * 1e3,
                    },
                );
            }
            Outcome::Failed { key, error, .. } => {
                {
                    let mut wal = shared.wal.lock().unwrap();
                    let _ = wal.append(&WalRecord::Cancelled { key: key_hex(key), reason: error.clone() });
                }
                shared.record("fail", &error, Some(key));
                settle(shared, key, Settled::Failed(error));
            }
            Outcome::Shed { key, label, .. } => {
                let reason = format!("shed under load: {label}");
                {
                    let mut wal = shared.wal.lock().unwrap();
                    let _ = wal.append(&WalRecord::Cancelled { key: key_hex(key), reason: reason.clone() });
                }
                shared.record("shed", &label, Some(key));
                settle(shared, key, Settled::Failed(reason));
            }
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let shared = Arc::clone(shared);
                // detached: a connection never blocks the drain (drained
                // daemons answer `Draining` to submits)
                std::thread::spawn(move || connection(&shared, stream));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => return,
        }
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
    // answers immediately and is never journaled or queued again
    if let Some(run) = shared.cache.peek(key) {
        shared.record("durable-hit", &run.case, Some(key));
        return done_response(key, &run, "durable", 0.0, 0.0);
    }
    // ordering invariant 1: journal (fsync) before acknowledging. The
    // server guard is held across submit + journal so a drain (which
    // takes the server, then appends CleanShutdown) can never interleave
    // an Admitted record after the shutdown marker.
    let guard = shared.server.lock().unwrap();
    let Some(server) = guard.as_ref() else {
        return Response::Draining;
    };
    match server.submit(spec) {
        Ok(id) => {
            shared.inflight.lock().unwrap().insert(key);
            let mut wal = shared.wal.lock().unwrap();
            if let Err(e) = wal.append(&WalRecord::Admitted { key: key_hex(key), desc: desc.clone() }) {
                return Response::Failed { key: key_hex(key), error: format!("journal append failed: {e}") };
            }
            shared.record("admit", &desc.label.clone().unwrap_or_default(), Some(key));
            Response::Admitted { id, key: key_hex(key) }
        }
        Err(SubmitError::Busy { retry_after, brownout }) => {
            Response::Busy { retry_after_ms: retry_after.as_millis().max(1) as u64, brownout }
        }
        Err(SubmitError::Invalid(reason)) => Response::Invalid { reason },
        Err(SubmitError::Closed) => Response::Draining,
    }
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
        let settled = shared.hub.settled.lock().unwrap();
        let served = match settled.get(&key) {
            Some(&Settled::Done { cache, queue_ms, run_ms }) => Some((cache, queue_ms, run_ms)),
            Some(Settled::Failed(error)) => return Response::Failed { key: key_hex(key), error: error.clone() },
            None => None,
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
        drop(shared.hub.cv.wait_timeout(settled, deadline - now).unwrap());
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
    let guard = shared.server.lock().unwrap();
    let (stats, queue_len, brownout) = match guard.as_ref() {
        Some(server) => (server.stats(), server.queue_len() as u64, server.brownout_active()),
        None => (Default::default(), 0, false),
    };
    drop(guard);
    Response::Status {
        status: DaemonStatus {
            stats,
            queue_len,
            inflight: shared.inflight.lock().unwrap().len() as u64,
            wal_records: shared.wal.lock().unwrap().records(),
            draining: shared.draining.load(Ordering::SeqCst),
            brownout,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{Backend, JobSpec};
    use ns_core::config::{Regime, SolverConfig};
    use ns_numerics::Grid;

    /// The hub remembers how a job settled, not its payload: once the cache
    /// evicts a settled key nothing else keeps the bytes resident (so the
    /// byte budget bounds a long-lived daemon), and `Wait` still answers
    /// them, from the spill.
    #[test]
    fn settled_payloads_are_owned_by_the_cache_alone() {
        let dir = std::env::temp_dir().join(format!("ns-daemon-hub-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // a one-byte budget: every fill evicts everything but itself
        let cfg = DaemonConfig { cache_budget_bytes: 1, sync: false, ..DaemonConfig::new(&dir) };
        let daemon = Daemon::start(cfg).unwrap();
        let shared = &daemon.shared;
        let settle_job = |steps: u64| {
            let mut spec = JobSpec::new(SolverConfig::paper(Grid::new(24, 10, 50.0, 5.0), Regime::Euler), steps, 1);
            spec.backend = Backend::Serial;
            let Response::Admitted { key, .. } = submit(shared, &JobDesc::from_spec(&spec)) else {
                panic!("a fresh key is admitted");
            };
            match wait(shared, &key, Duration::from_secs(120)) {
                Response::Done { cache, payload, .. } => (key, cache, payload),
                other => panic!("job {key} must settle Done, got {other:?}"),
            }
        };
        let (key, _, cold_payload) = settle_job(2);
        let resident = Arc::downgrade(&shared.cache.peek(parse_key_hex(&key).unwrap()).expect("just filled"));
        settle_job(3);
        // the pump drops its outcome right after settling; give it a moment
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
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `wait` checks the hub and blocks under one lock acquisition, so a
    /// settle that lands while it peeks the cache is heard at once, not a
    /// whole timeout later. Each trial starts a settle a little later
    /// relative to the wait, sweeping it across the peek.
    #[test]
    fn a_settle_racing_a_wait_is_answered_at_once() {
        let dir = std::env::temp_dir().join(format!("ns-daemon-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let daemon = Daemon::start(DaemonConfig { sync: false, ..DaemonConfig::new(&dir) }).unwrap();
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
                    settle(shared, key, Settled::Failed("raced".into()));
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
        let _ = std::fs::remove_dir_all(&dir);
    }
}
