//! The `serve_*` workloads and the `ns-serve` ledger: an in-process daemon
//! and one client on its Unix socket, one request outstanding (a closed
//! loop), every submit→`Done` round trip timed on the client's side.
//!
//! A rep is one daemon life in a fresh state directory: start, connect, a
//! cold phase of distinct-key jobs (the write path: journal, queue, worker,
//! spill, cache fill), a hot phase re-submitting those keys (the read path:
//! cache peek, eviction, spill load), status, drain.

use crate::gen::{access_order, distinct_jobs, Rng};
use crate::report::{Metrics, Reps};
use crate::spans::Recorder;
use crate::stats::{median, quantile, sort, supports};
use ns_core::Solver;
use ns_serve::proto::{read_request, read_response, write_request, write_response};
use ns_serve::{
    CachedRun, Client, Daemon, DaemonConfig, DaemonStatus, JobDesc, JobQueue, QueuedJob, Request, Response,
    ResultCache, Spill, Wal, WalRecord,
};
use ns_verify::snapshot::{field_hash, hash_hex};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Shape of one daemon life.
#[derive(Clone, Copy, Debug)]
pub struct ServeCase {
    /// Result-cache residency budget of the daemon.
    pub cache_budget_bytes: usize,
    /// Distinct-key jobs submitted cold.
    pub cold: usize,
    /// Re-submits of those keys afterwards.
    pub hot: usize,
    /// Which phase the untraced run times. Timing the hot phase runs the
    /// cold one first, untimed, as its preload; timing the cold phase skips
    /// the hot one.
    pub timed: Phase,
}

/// A phase of a daemon life.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Phase {
    /// Distinct keys: every job is computed.
    Cold,
    /// Repeated keys: every job is answered from the cache or the spill.
    Hot,
}

/// A cold job's reply, kept for the output checks and the layer walk.
struct Reply {
    key: String,
    case: String,
    payload: String,
    field_hash: String,
}

/// Distinct-key jobs every life runs before its cold phase, untimed: the
/// first requests of a fresh daemon pay for page faults and lazily built
/// registries that no later request pays.
const WARM_JOBS: usize = 32;

/// Everything one daemon life measured.
#[derive(Default)]
struct Life {
    start_s: f64,
    connect_s: f64,
    cold_wall_s: f64,
    hot_wall_s: f64,
    cold_ms: Vec<f64>,
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    hot_ms: Vec<f64>,
    /// Replies other than `Done`.
    failed: u64,
    /// Hot replies compared with the key's first payload / that differed.
    compared: u64,
    differed: u64,
    status: Option<DaemonStatus>,
    drain_s: f64,
    /// Fresh connect + `Status` round trips (traced lives only).
    connect_ms: Vec<f64>,
    /// Second `Daemon::start` on the finished state dir (traced lives only).
    replay_s: f64,
    replies: Vec<Reply>,
}

const WAIT: Duration = Duration::from_secs(60);

fn start(dir: &Path, case: &ServeCase) -> io::Result<Daemon> {
    let mut cfg = DaemonConfig::new(dir);
    cfg.workers = 1;
    cfg.sync = true;
    cfg.cache_budget_bytes = case.cache_budget_bytes;
    Daemon::start(cfg)
}

/// One daemon life: `warm` untimed, `jobs` cold, then `order` (indices
/// into `jobs`) hot. `extras` adds the connect and replay probes of a
/// traced life.
fn life(
    case: &ServeCase,
    warm: &[JobDesc],
    jobs: &[JobDesc],
    order: &[usize],
    dir: &Path,
    extras: bool,
    rec: &mut Recorder,
) -> io::Result<Life> {
    let mut l = Life::default();
    let span = rec.enter("serve.Daemon::start", 0);
    let t0 = Instant::now();
    let daemon = start(dir, case)?;
    l.start_s = t0.elapsed().as_secs_f64();
    rec.exit(span);
    // A client of a running daemon finds the accept loop asleep in its
    // poll; connecting in the instant after `start` would race it. The
    // first round trip on a connection waits out that poll, so it belongs
    // to set-up, not to the first job.
    std::thread::sleep(Duration::from_millis(2));
    let connect = |socket: &Path| -> io::Result<(Client, f64)> {
        let t0 = Instant::now();
        let mut client = Client::connect(socket)?;
        client.status()?;
        Ok((client, t0.elapsed().as_secs_f64()))
    };
    let span = rec.enter("serve.Client::connect", 0);
    let (mut client, connect_s) = connect(daemon.socket_path())?;
    l.connect_s = connect_s;
    rec.exit(span);

    for desc in warm {
        let mut reply = client.submit(desc)?;
        if let Response::Admitted { key, .. } = &reply {
            reply = client.wait(key, WAIT)?;
        }
        if !matches!(reply, Response::Done { .. }) {
            eprintln!("warm-up job: expected Done, got {reply:?}");
            l.failed += 1;
        }
    }

    let phase = Instant::now();
    for (i, desc) in jobs.iter().enumerate() {
        rec.pause(i % 2 == 1);
        let op = rec.enter("serve.job.cold", i as u64);
        let t0 = Instant::now();
        let span = rec.enter("serve.Client::submit", i as u64);
        let mut reply = client.submit(desc)?;
        rec.exit(span);
        if let Response::Admitted { key, .. } = &reply {
            let span = rec.enter("serve.Client::wait", i as u64);
            reply = client.wait(key, WAIT)?;
            rec.exit(span);
        }
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        rec.exit(op);
        match reply {
            Response::Done { key, case, payload, field_hash, queue_ms, run_ms, .. } => {
                l.cold_ms.push(ms);
                l.queue_ms.push(queue_ms);
                l.run_ms.push(run_ms);
                l.replies.push(Reply { key, case, payload, field_hash });
            }
            other => {
                eprintln!("cold job {i}: expected Done, got {other:?}");
                l.failed += 1;
            }
        }
    }
    l.cold_wall_s = phase.elapsed().as_secs_f64();
    rec.pause(false);

    // a failed cold job leaves its key without a first payload; the hot
    // phase is only meaningful over a complete preload
    if l.failed == 0 {
        let mut seen: Vec<(usize, String)> = Vec::with_capacity(order.len());
        let phase = Instant::now();
        for (i, &k) in order.iter().enumerate() {
            rec.pause(i % 2 == 1);
            let span = rec.enter("serve.job.hot", i as u64);
            let t0 = Instant::now();
            let reply = client.submit(&jobs[k])?;
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            rec.exit(span);
            match reply {
                Response::Done { payload, .. } => {
                    l.hot_ms.push(ms);
                    seen.push((k, payload));
                }
                other => {
                    eprintln!("hot job {i}: expected Done, got {other:?}");
                    l.failed += 1;
                }
            }
        }
        l.hot_wall_s = phase.elapsed().as_secs_f64();
        l.compared = seen.len() as u64;
        l.differed = seen.iter().filter(|(k, payload)| *payload != l.replies[*k].payload).count() as u64;
    }

    rec.pause(false);
    l.status = Some(client.status()?);
    if extras {
        for _ in 0..5 {
            l.connect_ms.push(connect(daemon.socket_path())?.1 * 1e3);
        }
    }
    drop(client);
    let span = rec.enter("serve.Daemon::drain", 0);
    let t0 = Instant::now();
    daemon.drain()?;
    l.drain_s = t0.elapsed().as_secs_f64();
    rec.exit(span);
    if extras {
        let span = rec.enter("serve.Daemon::start.replay", 0);
        let t0 = Instant::now();
        let daemon = start(dir, case)?;
        l.replay_s = t0.elapsed().as_secs_f64();
        rec.exit(span);
        daemon.drain()?;
    }
    Ok(l)
}

/// The seeded inputs of rep `rep`: warm-up jobs, cold jobs (all of
/// distinct keys) and the hot access order.
fn inputs(case: &ServeCase, seed: u64, rep: u64) -> (Vec<JobDesc>, Vec<JobDesc>, Vec<usize>) {
    let mut rng = Rng::new(seed, rep);
    let mut jobs = distinct_jobs(&mut rng, WARM_JOBS + case.cold);
    let warm = jobs.split_off(case.cold);
    let order = access_order(&mut rng, case.cold, case.hot);
    (warm, jobs, order)
}

/// Re-run `sample` of the jobs directly on a `Solver` and compare field
/// hashes with what the daemon replied. Returns `(checked, mismatched)`.
fn hash_check(jobs: &[JobDesc], replies: &[Reply], rng: &mut Rng, sample: usize) -> (u64, u64) {
    let mut bad = 0;
    for _ in 0..sample {
        let i = rng.below(replies.len());
        let spec = jobs[i].to_spec().expect("generated jobs validate");
        let mut solver = Solver::new(spec.cfg);
        solver.run(spec.steps);
        if hash_hex(field_hash(&solver.field)) != replies[i].field_hash {
            eprintln!("check failed: job {i} field hash differs from a direct Solver run");
            bad += 1;
        }
    }
    (sample as u64, bad)
}

/// The untraced `serve_*` run: daemon lives until `budget` is spent, then
/// the output checks.
pub fn run(case: &ServeCase, seed: u64, budget: Duration, scratch: &Path) -> io::Result<Reps> {
    let mut reps = Reps::default();
    let deadline = Instant::now() + budget;
    let mut rep = 0u64;
    loop {
        let (warm, jobs, order) = inputs(case, seed, rep);
        let order = if case.timed == Phase::Hot { &order[..] } else { &[] };
        let dir = scratch.join(format!("r{rep}"));
        let l = life(case, &warm, &jobs, order, &dir, false, &mut Recorder::off())?;
        std::fs::remove_dir_all(&dir)?;
        // the preload of the hot phase is the benchmark's input, not the
        // program's set-up: its cost is what `serve_cold` times
        reps.setup_s.push(l.start_s + l.connect_s);
        let (n, wall_s, ms) = match case.timed {
            Phase::Cold => (jobs.len(), l.cold_wall_s, &l.cold_ms),
            Phase::Hot => (order.len(), l.hot_wall_s, &l.hot_ms),
        };
        reps.ops += n as u64;
        reps.wall_s += wall_s;
        reps.op_ms.extend(ms);
        reps.failed += l.failed;
        reps.checks += l.compared;
        reps.failed_checks += l.differed;
        rep += 1;
        if Instant::now() >= deadline {
            reps.peak_rss_mb = crate::host::peak_rss_mb();
            if l.failed == 0 {
                let (checked, bad) = hash_check(&jobs, &l.replies, &mut Rng::new(seed, u64::MAX), 16);
                reps.checks += checked;
                reps.failed_checks += bad;
            }
            return Ok(reps);
        }
    }
}

fn p50_us(samples: &[f64]) -> f64 {
    median(samples) * 1e6
}

/// Time `f` once per item, in seconds.
fn timed<T>(items: &[T], mut f: impl FnMut(usize, &T)) -> Vec<f64> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let t0 = Instant::now();
            f(i, item);
            t0.elapsed().as_secs_f64()
        })
        .collect()
}

/// Microseconds of a cold job spent in the walked calls.
struct Walked {
    /// The fsynced `Admitted` append, which overlaps the worker's run.
    wal_sync_us: f64,
    /// Every other walked call on the job's path.
    rest_us: f64,
}

/// The layer walk: the public calls a cold job passes through, timed one
/// by one on the same generated jobs and real reply payloads, in `dir`.
fn walk(jobs: &[JobDesc], replies: &[Reply], dir: &Path, rec: &mut Recorder, out: &mut Metrics) -> io::Result<Walked> {
    let n = jobs.len().min(replies.len()).min(200);
    let (jobs, replies) = (&jobs[..n], &replies[..n]);
    let span = rec.enter("serve.walk", 0);

    let key_us = p50_us(&timed(jobs, |_, d| {
        black_box(d.to_spec().expect("generated jobs validate").canonical_key());
    }));
    out.put_n("serve.job.key_us", key_us, n);

    let done: Vec<Response> = replies
        .iter()
        .map(|r| Response::Done {
            key: r.key.clone(),
            case: r.case.clone(),
            cache: "cold".into(),
            payload: r.payload.clone(),
            field_hash: r.field_hash.clone(),
            queue_ms: 0.0,
            run_ms: 0.0,
        })
        .collect();
    let mut wire = Vec::with_capacity(4096);
    let proto_us = p50_us(&timed(jobs, |i, d| {
        wire.clear();
        write_request(&mut wire, 0, &Request::Submit { desc: d.clone() }).expect("writes to memory");
        black_box(read_request(&mut wire.as_slice(), 0).expect("reads what was written"));
        wire.clear();
        write_response(&mut wire, 0, &done[i]).expect("writes to memory");
        black_box(read_response(&mut wire.as_slice(), 0).expect("reads what was written"));
    }));
    out.put_n("serve.proto.roundtrip_us", proto_us, n);

    let (mut wal, _) = Wal::open(dir.join("walk.wal"), true)?;
    let admitted: Vec<WalRecord> =
        jobs.iter().zip(replies).map(|(d, r)| WalRecord::Admitted { key: r.key.clone(), desc: d.clone() }).collect();
    let completed: Vec<WalRecord> = replies.iter().map(|r| WalRecord::Completed { key: r.key.clone() }).collect();
    let wal_sync_us = p50_us(&timed(&admitted, |_, r| wal.append(r).expect("journal append")));
    let wal_nosync_us = p50_us(&timed(&completed, |_, r| wal.append(r).expect("journal append")));
    out.put_n("serve.wal.append_sync_us_p50", wal_sync_us, n);
    out.put_n("serve.wal.append_nosync_us_p50", wal_nosync_us, n);

    let runs: Vec<CachedRun> = replies
        .iter()
        .map(|r| CachedRun { case: r.case.clone(), payload: r.payload.clone(), field_hash: 0, golden: None })
        .collect();
    let spill = Spill::open(dir.join("walk-spill"), true)?;
    let store_us = p50_us(&timed(&runs, |i, run| spill.store(i as u64, run).expect("spill store")));
    let load_us = p50_us(&timed(&runs, |i, _| {
        black_box(spill.load(i as u64).expect("a stored result loads"));
    }));
    out.put_n("serve.spill.store_us_p50", store_us, n);
    out.put_n("serve.spill.load_us_p50", load_us, n);

    let resident = ResultCache::new();
    for (i, run) in runs.iter().enumerate() {
        resident.fill(i as u64, run.clone());
    }
    const PEEK_ROUNDS: usize = 200;
    let t0 = Instant::now();
    for _ in 0..PEEK_ROUNDS {
        for i in 0..n {
            black_box(resident.peek(i as u64));
        }
    }
    out.put("serve.cache.peek_resident_ns", t0.elapsed().as_nanos() as f64 / (PEEK_ROUNDS * n) as f64);

    // a cache filled to its budget: every further fill evicts
    let tight = ResultCache::with_budget(HOT_CACHE_BYTES);
    for (i, run) in runs.iter().enumerate() {
        tight.fill(i as u64, run.clone());
    }
    let fill_us = p50_us(&timed(&runs, |i, run| {
        tight.fill((n + i) as u64, run.clone());
    }));
    out.put_n("serve.cache.fill_evict_us", fill_us, n);

    let queue = JobQueue::new(32);
    let specs: Vec<_> = jobs.iter().map(|d| d.to_spec().expect("generated jobs validate")).collect();
    const QUEUE_ROUNDS: usize = 20;
    let t0 = Instant::now();
    for round in 0..QUEUE_ROUNDS {
        for (i, spec) in specs.iter().enumerate() {
            let job = QueuedJob { id: (round * n + i) as u64, spec: spec.clone(), submitted: Instant::now() };
            queue.push(job).expect("an empty queue admits");
            black_box(queue.pop());
        }
    }
    let push_pop_ns = t0.elapsed().as_nanos() as f64 / (QUEUE_ROUNDS * n) as f64;
    out.put("serve.queue.push_pop_ns", push_pop_ns);
    rec.exit(span);

    // submit and wait are two round trips
    let rest_us = key_us + 2.0 * proto_us + wal_nosync_us + store_us + push_pop_ns * 1e-3;
    Ok(Walked { wal_sync_us, rest_us })
}

/// Cache budget of the hot daemon: room for roughly 80 of the ~800-byte
/// results, well under the 256 preloaded, so most re-submits are spill
/// promotions and every promotion evicts.
pub const HOT_CACHE_BYTES: usize = 64 << 10;

/// The `ns-serve` ledger: one traced life with both phases and the
/// connect/replay probes, then the layer walk on its jobs and replies. The
/// recorder is on for every other job, so the odd-numbered jobs of the same
/// life are the untraced baseline. Returns `(attempted, failed)`.
pub fn ledger(
    case: &ServeCase,
    seed: u64,
    scratch: &Path,
    rec: &mut Recorder,
    out: &mut Metrics,
) -> io::Result<(u64, u64)> {
    let (warm, jobs, order) = inputs(case, seed, 0);
    let dir = scratch.join("ledger");
    let l = life(case, &warm, &jobs, &order, &dir, true, rec)?;
    let status = l.status.as_ref().expect("a finished life has a status");
    if l.failed > 0 {
        return Err(io::Error::other("the ledger needs a life in which every job is answered Done"));
    }

    let own_ms = if case.timed == Phase::Cold { &l.cold_ms } else { &l.hot_ms };
    // p95 needs 200 samples to have ten beyond it; every case in the
    // workload table runs at least 256 jobs per phase
    if !supports(own_ms.len(), 0.95) {
        return Err(io::Error::other("too few jobs for a p95"));
    }
    let mut sorted = own_ms.clone();
    sort(&mut sorted);
    out.put_n("serve.job_ms_p50", quantile(&sorted, 0.5), sorted.len());
    out.put_n("serve.job_ms_p95", quantile(&sorted, 0.95), sorted.len());
    let parity = |odd: usize| median(&own_ms.iter().skip(odd).step_by(2).copied().collect::<Vec<_>>());
    out.put("serve.trace_overhead_frac", (parity(0) - parity(1)) / parity(1));

    let cold_ms = median(&l.cold_ms);
    let (queue_ms, run_ms) = (median(&l.queue_ms), median(&l.run_ms));
    out.put_n("serve.cold_job_ms_p50", cold_ms, l.cold_ms.len());
    out.put_n("serve.hot_job_ms_p50", median(&l.hot_ms), l.hot_ms.len());
    out.put_n("serve.queue.wait_ms_p50", queue_ms, l.queue_ms.len());
    out.put_n("serve.server.run_ms_p50", run_ms, l.run_ms.len());
    let overhead: Vec<f64> = l.cold_ms.iter().zip(&l.queue_ms).zip(&l.run_ms).map(|((t, q), r)| t - q - r).collect();
    out.put_n("serve.overhead_ms_p50", median(&overhead), overhead.len());

    let s = &status.stats;
    let claims = (s.cache_hits + s.cache_misses).max(1) as f64;
    out.put("serve.cache.hit_ratio", s.cache_hits as f64 / claims);
    out.put("serve.cache.spill_hit_frac", s.spill_hits as f64 / s.cache_hits.max(1) as f64);
    out.put("serve.cache.evictions", s.cache_evictions as f64);
    out.put("serve.wal.records_per_job", status.wal_records as f64 / (warm.len() + jobs.len()) as f64);
    out.put("serve.daemon.start_ms", l.start_s * 1e3);
    out.put("serve.daemon.drain_ms", l.drain_s * 1e3);
    out.put_n("serve.daemon.connect_ms_p50", median(&l.connect_ms), l.connect_ms.len());
    out.put("serve.wal.replay_ms", l.replay_s * 1e3);

    let walked = walk(&jobs, &l.replies, &dir, rec, out)?;
    // A cold job's blocking steps: the journal fsync of `Admitted` runs
    // while the worker already dequeues and computes, so the longer of the
    // two counts; then the spill store, the `Completed` record, two framed
    // round trips, key derivation and the queue hand-off. What is left is
    // socket hops and thread wake-ups.
    let blocking_ms = (walked.wal_sync_us * 1e-3).max(queue_ms + run_ms) + walked.rest_us * 1e-3;
    out.put("serve.unattributed_ms_p50", cold_ms - blocking_ms);

    let (checked, bad) = hash_check(&jobs, &l.replies, &mut Rng::new(seed, u64::MAX), 16);
    std::fs::remove_dir_all(&dir)?;
    Ok(((jobs.len() + order.len()) as u64 + l.compared + checked, l.differed + bad))
}
