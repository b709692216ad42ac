//! End-to-end tests of the serve daemon over its Unix socket: the full
//! submit → journal → run → spill → wait → drain loop in-process, plus
//! the two recovery paths the WAL buys — a restart re-serving finished
//! work from the spill without recomputing, and a restart replaying
//! journaled-but-unfinished jobs to completion.

use ns_core::config::{Regime, SolverConfig};
use ns_numerics::Grid;
use ns_runtime::Shape;
use ns_serve::job::{JobDesc, JobSpec};
use ns_serve::wal::{key_hex, Wal, WalRecord};
use ns_serve::{Client, Daemon, DaemonConfig, Response};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

static NEXT: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ns-daemon-e2e").join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn job(steps: u64) -> JobSpec {
    // paper domain lengths: the JobDesc wire format round-trips exactly
    let cfg = SolverConfig::paper(Grid::new(24, 10, 50.0, 5.0), Regime::Euler);
    let mut spec = JobSpec::new(cfg, steps, Shape::SERIAL);
    spec.label = format!("e2e/{steps}");
    spec
}

fn wait_done(client: &mut Client, key: &str) -> (String, String) {
    match client.wait(key, Duration::from_secs(120)).unwrap() {
        Response::Done { cache, payload, .. } => (cache, payload),
        other => panic!("job {key} must settle Done, got {other:?}"),
    }
}

#[test]
fn submit_wait_drain_roundtrip_over_the_socket() {
    let dir = scratch_dir("roundtrip");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let mut client = Client::connect(daemon.socket_path()).unwrap();

    // two distinct jobs plus a duplicate of the first; the duplicate may
    // be admitted (twin still running) or answered durably at submit time
    let mut settled = Vec::new();
    for spec in [job(2), job(3), job(2)] {
        match client.submit(&JobDesc::from_spec(&spec)).unwrap() {
            Response::Admitted { key, .. } => {
                let payload = wait_done(&mut client, &key).1;
                settled.push((key, payload));
            }
            Response::Done { key, payload, .. } => settled.push((key, payload)),
            other => panic!("submission must be admitted: {other:?}"),
        }
    }
    assert_eq!(settled[0].0, settled[2].0, "duplicate cell shares its canonical key");
    assert_eq!(settled[0].1, settled[2].1, "duplicate is served byte-identically");

    let status = client.status().unwrap();
    assert!(!status.draining);
    assert!(status.wal_records >= 4, "2 admits + their completions journaled, got {}", status.wal_records);

    drop(client);
    let report = daemon.drain().unwrap();
    assert_eq!(report.stats.failed, 0);
    assert!(report.spilled >= 2, "both distinct results spilled, got {}", report.spilled);

    // the drain journaled a clean shutdown with nothing pending
    let (_, replay) = Wal::open(dir.join("jobs.wal"), false).unwrap();
    assert!(replay.clean_shutdown, "drain must journal CleanShutdown");
    assert!(replay.pending.is_empty(), "graceful drain loses zero admitted jobs");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn restart_serves_finished_work_from_the_spill_without_recompute() {
    let dir = scratch_dir("restart");
    let spec = job(4);
    let first_payload;
    {
        let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
        let mut client = Client::connect(daemon.socket_path()).unwrap();
        let key = match client.submit(&JobDesc::from_spec(&spec)).unwrap() {
            Response::Admitted { key, .. } => key,
            other => panic!("cold submission must be admitted: {other:?}"),
        };
        first_payload = wait_done(&mut client, &key).1;
        drop(client);
        daemon.drain().unwrap();
    }

    // restart in the same state dir: the same cell must be answered at
    // submit time from durable bytes, never re-queued or recomputed
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    assert!(daemon.replay().pending.is_empty(), "clean shutdown leaves nothing to replay");
    let mut client = Client::connect(daemon.socket_path()).unwrap();
    match client.submit(&JobDesc::from_spec(&spec)).unwrap() {
        Response::Done { cache, payload, .. } => {
            assert_eq!(cache, "durable", "restart serve comes from the spill");
            assert_eq!(payload, first_payload, "spill-served bytes are identical to the original run");
        }
        other => panic!("restart submission must short-circuit Done, got {other:?}"),
    }
    let stats = client.status().unwrap().stats;
    assert_eq!(stats.cache_misses, 0, "no recompute after restart");
    assert_eq!(stats.submitted, 0, "durable short-circuit never touches the queue");
    drop(client);
    daemon.drain().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unclean_shutdown_replays_pending_jobs_to_completion() {
    let dir = scratch_dir("replay");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = job(5);
    let desc = JobDesc::from_spec(&spec);
    let key = spec.canonical_key();
    {
        // forge a crash: a journal holding an admitted job and no
        // CleanShutdown, exactly what kill -9 after the admit ack leaves
        let (mut wal, _) = Wal::open(dir.join("jobs.wal"), true).unwrap();
        wal.append(&WalRecord::Admitted { key: key_hex(key), desc: desc.clone() }).unwrap();
    }
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    assert_eq!(daemon.replay().pending.len(), 1, "the journaled job is pending at startup");
    let mut client = Client::connect(daemon.socket_path()).unwrap();
    // the replayed job completes without any new submission
    let (_, payload) = wait_done(&mut client, &key_hex(key));
    assert!(!payload.is_empty());
    drop(client);
    let report = daemon.drain().unwrap();
    assert_eq!(report.stats.completed, 1, "replayed job ran to completion");
    let (_, replay) = Wal::open(dir.join("jobs.wal"), false).unwrap();
    assert!(replay.pending.is_empty(), "replayed job settled in the journal");
    assert!(replay.clean_shutdown);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_wal_tail_costs_only_the_torn_record() {
    let dir = scratch_dir("torn");
    std::fs::create_dir_all(&dir).unwrap();
    let keep = job(6);
    let torn = job(7);
    let wal_path = dir.join("jobs.wal");
    {
        let (mut wal, _) = Wal::open(&wal_path, true).unwrap();
        wal.append(&WalRecord::Admitted { key: key_hex(keep.canonical_key()), desc: JobDesc::from_spec(&keep) })
            .unwrap();
        wal.append(&WalRecord::Admitted { key: key_hex(torn.canonical_key()), desc: JobDesc::from_spec(&torn) })
            .unwrap();
    }
    // tear the second record mid-write
    let bytes = std::fs::read(&wal_path).unwrap();
    std::fs::write(&wal_path, &bytes[..bytes.len() - 7]).unwrap();

    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let replay = daemon.replay();
    assert_eq!(replay.pending.len(), 1, "only the whole record replays");
    assert_eq!(replay.pending[0].0, key_hex(keep.canonical_key()));
    assert!(replay.truncated_bytes > 0, "the torn tail was measured and discarded");
    let mut client = Client::connect(daemon.socket_path()).unwrap();
    wait_done(&mut client, &key_hex(keep.canonical_key()));
    drop(client);
    daemon.drain().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A grid past `MAX_GRID_POINTS` is answered `Invalid` at submit, before
/// anything is journaled or allocated for it.
#[test]
fn a_huge_grid_is_refused_at_submit() {
    let dir = scratch_dir("huge-grid");
    let daemon = Daemon::start(DaemonConfig::new(&dir)).unwrap();
    let mut client = Client::connect(daemon.socket_path()).unwrap();
    let huge = JobDesc { nx: 100_000, nr: 100_000, ..JobDesc::from_spec(&job(2)) };
    match client.submit(&huge).unwrap() {
        Response::Invalid { reason } => assert!(reason.contains("too large"), "{reason}"),
        other => panic!("a 10^5 x 10^5 grid must be refused, got {other:?}"),
    }
    assert_eq!(client.status().unwrap().wal_records, 0, "nothing journaled");
    drop(client);
    assert_eq!(daemon.drain().unwrap().stats.failed, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
