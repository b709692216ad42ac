//! End-to-end tests for the serve stack: admission control under a full
//! queue, byte-identical cache hits, shedding order at the server level,
//! cooperative cancellation of in-flight rank teams, and the loadgen
//! acceptance sweep over a daemon's socket.

use ns_core::config::{Regime, SolverConfig};
use ns_numerics::Grid;
use ns_serve::{run_loadgen, Backend, JobSpec, LoadgenOptions, Outcome, Priority, Server, ServerConfig, SubmitError};
use std::time::Duration;

fn euler(nx: usize, nr: usize) -> SolverConfig {
    SolverConfig::paper(Grid::new(nx, nr, 50.0, 5.0), Regime::Euler)
}

fn serial_job(steps: u64, label: &str) -> JobSpec {
    let mut spec = JobSpec::new(euler(48, 16), steps, 1);
    spec.backend = Backend::Serial;
    spec.label = label.to_string();
    spec
}

/// A full queue must reject with a positive retry-after hint, and the
/// rejections must not wedge the server: everything admitted still
/// completes and `finish` returns.
#[test]
fn full_queue_rejects_with_retry_after_and_no_deadlock() {
    let (server, rx) = Server::new(ServerConfig { workers: 1, queue_depth: 2, golden: None, ..Default::default() });
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
    let mut done = 0u64;
    for _ in 0..admitted {
        match rx.recv_timeout(Duration::from_secs(60)).expect("admitted jobs complete; no deadlock") {
            Outcome::Done(_) => done += 1,
            other => panic!("burst jobs are valid and unshed: {other:?}"),
        }
    }
    let stats = server.finish();
    assert_eq!(done, admitted);
    assert_eq!(stats.completed, admitted);
    assert_eq!(stats.rejected, rejected);
    assert_eq!(stats.failed, 0);
}

/// A repeated cell is served from cache: same payload bytes (the same
/// allocation, in fact), zero run wall, and a priority or label change
/// must not split the cache key.
#[test]
fn duplicate_cells_hit_the_cache_byte_identically() {
    let (server, rx) = Server::new(ServerConfig { workers: 1, queue_depth: 8, golden: None, ..Default::default() });
    let cold = JobSpec::new(euler(48, 16), 3, 2);
    let mut dup = cold.clone();
    dup.priority = Priority::High;
    dup.label = "same cell, different urgency".into();
    server.submit(cold).unwrap();
    server.submit(dup).unwrap();
    let first = match rx.recv().unwrap() {
        Outcome::Done(r) => r,
        other => panic!("expected Done, got {other:?}"),
    };
    let second = match rx.recv().unwrap() {
        Outcome::Done(r) => r,
        other => panic!("expected Done, got {other:?}"),
    };
    assert!(!first.cache_hit, "first visit computes");
    assert!(second.cache_hit, "repeat visit is served from cache");
    assert_eq!(second.run_wall, Duration::ZERO);
    assert!(std::sync::Arc::ptr_eq(&first.run, &second.run), "the hit replays the cold allocation itself");
    assert_eq!(first.run.payload, second.run.payload);
    assert!(first.run.payload.contains("\"cache\": \"cold\""), "the shared payload is the cold run's summary");
    let stats = server.finish();
    assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
}

/// Under overload, queued low-priority work is shed to admit high-priority
/// work — and the shed job is reported, not silently dropped.
#[test]
fn overload_sheds_lowest_priority_and_reports_it() {
    let (server, rx) = Server::new(ServerConfig { workers: 1, queue_depth: 2, golden: None, ..Default::default() });
    // occupy the worker long enough that the queue stays full
    server.submit(serial_job(60, "occupant")).unwrap();
    // wait for the worker to claim it, so the queue below is exactly ours
    while server.queue_len() > 0 {
        std::thread::yield_now();
    }
    let mut low = serial_job(61, "backfill");
    low.priority = Priority::Low;
    let low_id = server.submit(low).unwrap();
    server.submit(serial_job(62, "steady")).unwrap();
    let mut vip = serial_job(63, "urgent");
    vip.priority = Priority::High;
    server.submit(vip).unwrap();
    let mut shed = Vec::new();
    let mut done = Vec::new();
    for _ in 0..4 {
        match rx.recv_timeout(Duration::from_secs(60)).unwrap() {
            Outcome::Shed { id, priority, .. } => shed.push((id, priority)),
            Outcome::Done(r) => done.push(r.label),
            Outcome::Failed { error, .. } => panic!("no job should fail: {error}"),
        }
    }
    assert_eq!(shed, vec![(low_id, Priority::Low)], "the queued low job is the victim");
    assert_eq!(done.len(), 3);
    let stats = server.finish();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 3);
}

/// Immediate shutdown never abandons an in-flight rank team: the
/// cooperative cancel token winds the team down together, the job reports
/// as failed with a cancellation reason, and nothing hangs — with plain
/// channels and with the recovery machinery armed alike.
#[test]
fn shutdown_now_cancels_in_flight_rank_teams_cleanly() {
    for backend in [Backend::Parallel, Backend::Chaos] {
        let (server, rx) = Server::new(ServerConfig { workers: 1, queue_depth: 4, golden: None, ..Default::default() });
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
        while let Ok(outcome) = rx.recv_timeout(Duration::from_secs(60)) {
            match outcome {
                Outcome::Failed { error, .. } => {
                    assert!(error.contains("cancelled"), "the in-flight team reports cancellation, got {error:?}");
                    cancelled = true;
                }
                Outcome::Shed { .. } => shed += 1,
                Outcome::Done(_) => panic!("a 100k-step run cannot complete in this test"),
            }
        }
        assert!(cancelled, "{backend:?}: the in-flight parallel job was cancelled, not abandoned");
        assert_eq!(shed, 1);
        assert_eq!(stats.failed, 1);
    }
}

/// The loadgen acceptance sweep through a daemon's socket: mixed comm
/// versions × rank counts with duplicates, cache-served byte-identical
/// repeats, golden cross-checks, and an overload burst that rejects with
/// retry-after and still drains.
#[test]
fn loadgen_quick_sweep_passes_its_own_acceptance_bar() {
    let scratch = std::env::temp_dir().join(format!("ns-serve-e2e-loadgen-{}", std::process::id()));
    let v = run_loadgen(&LoadgenOptions { quick: true, workers: 2, queue_depth: 64 }, &scratch).expect("daemon runs");
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        v.pass(),
        "loadgen acceptance failed: completed {}/{}, failed {}, hits {}, dup-identical {}, golden {} checked/{} mismatched, burst rejected {} retry_after_ms {}",
        v.jobs_completed,
        v.jobs_submitted,
        v.jobs_failed,
        v.cache_hits,
        v.duplicates_byte_identical,
        v.golden_checked,
        v.golden_mismatches,
        v.burst.rejected,
        v.burst.min_retry_after_ms,
    );
    // every duplicated cell means at least half the sweep can hit
    let hit_rate = v.cache_hits as f64 / v.jobs_completed as f64;
    assert!(hit_rate >= 0.4, "hit rate {hit_rate} too low for a fully duplicated sweep");
}
