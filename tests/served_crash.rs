//! Chaos tests of the `jetns served` daemon as a real child process: a
//! `kill -9` mid-campaign must restart into the same queue state — the
//! journal replays unfinished jobs, finished cells are served from the
//! spill without recompute — and the completed campaign's final-field
//! fingerprints must match an uninterrupted run bit for bit (payload
//! byte-identity for *re-served* results is covered by the serve crate's
//! daemon_e2e tests; across independent runs the payload embeds wall
//! times). A SIGTERM drain must finish every admitted job and journal a
//! clean shutdown.

use ns_core::config::{Regime, SolverConfig};
use ns_numerics::Grid;
use ns_runtime::Shape;
use ns_serve::job::{JobDesc, JobSpec};
use ns_serve::wal::Wal;
use ns_serve::{Client, Response};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("served-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The campaign: distinct serial cells, long enough that a two-worker
/// daemon is still mid-flight when we pull the plug.
fn campaign() -> Vec<JobSpec> {
    (0..6u64)
        .map(|i| {
            let cfg = SolverConfig::paper(Grid::new(32, 12, 50.0, 5.0), Regime::Euler);
            let mut spec = JobSpec::new(cfg, 20 + i, Shape::SERIAL);
            spec.label = format!("campaign/{i}");
            spec
        })
        .collect()
}

fn spawn_served(state: &Path, workers: usize) -> Child {
    Command::new(env!("CARGO_BIN_EXE_jetns"))
        .args(["served", "--state", state.to_str().unwrap(), "--workers", &workers.to_string(), "--depth", "16"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn jetns served")
}

fn connect(state: &Path) -> Client {
    let socket = state.join("served.sock");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if socket.exists() {
            if let Ok(c) = Client::connect(&socket) {
                return c;
            }
        }
        assert!(Instant::now() < deadline, "daemon socket never came up at {}", socket.display());
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Submit the campaign, returning each job's canonical key.
fn submit_all(client: &mut Client, jobs: &[JobSpec]) -> Vec<String> {
    jobs.iter()
        .map(|spec| match client.submit_with_retry(&JobDesc::from_spec(spec), Duration::from_secs(60)).unwrap() {
            Response::Admitted { key, .. } => key,
            Response::Done { key, .. } => key,
            other => panic!("campaign job {} must be admitted: {other:?}", spec.label),
        })
        .collect()
}

/// Wait out every key, returning key → (cache disposition, field hash).
fn collect_all(client: &mut Client, keys: &[String]) -> BTreeMap<String, (String, String)> {
    let mut out = BTreeMap::new();
    for key in keys {
        match client.wait(key, Duration::from_secs(300)).unwrap() {
            Response::Done { key, cache, field_hash, .. } => {
                out.insert(key, (cache, field_hash));
            }
            other => panic!("campaign job {key} must complete: {other:?}"),
        }
    }
    out
}

fn wait_exit(child: &mut Child, budget: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + budget;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        assert!(Instant::now() < deadline, "daemon did not exit within {budget:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn kill_dash_nine_mid_campaign_restarts_to_byte_identical_results() {
    let jobs = campaign();

    // the uninterrupted reference run
    let ref_state = scratch("reference");
    let mut daemon = spawn_served(&ref_state, 2);
    let mut client = connect(&ref_state);
    let keys = submit_all(&mut client, &jobs);
    let reference = collect_all(&mut client, &keys);
    client.drain().unwrap();
    drop(client);
    assert!(wait_exit(&mut daemon, Duration::from_secs(60)).success(), "reference daemon drains clean");

    // the chaos run: same campaign, daemon SIGKILLed mid-flight
    let state = scratch("chaos");
    let mut victim = spawn_served(&state, 2);
    let mut client = connect(&state);
    let keys = submit_all(&mut client, &jobs);
    // let some (not all) of the campaign finish, then pull the plug
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let completed = client.status().unwrap().stats.completed;
        if completed >= 2 {
            break;
        }
        assert!(Instant::now() < deadline, "campaign never made progress");
        std::thread::sleep(Duration::from_millis(10));
    }
    victim.kill().unwrap(); // SIGKILL: no drain, no CleanShutdown
    victim.wait().unwrap();
    drop(client);

    // restart in the same state dir: journal replay + spill serving
    let mut revived = spawn_served(&state, 2);
    let mut client = connect(&state);
    let results = collect_all(&mut client, &keys);
    let stats = client.status().unwrap().stats;
    client.drain().unwrap();
    drop(client);
    assert!(wait_exit(&mut revived, Duration::from_secs(60)).success(), "revived daemon drains clean");

    assert_eq!(results.len(), reference.len(), "every campaign job completed after the crash");
    // the solver is deterministic, so the final-field fingerprint of every
    // cell must match the uninterrupted run's bit for bit — crash, replay
    // and spill-serving change nothing about the physics
    for (key, (_, expected)) in &reference {
        let (_, got) = &results[key];
        assert_eq!(got, expected, "field fingerprint for {key} must match the uninterrupted run");
    }
    // work finished before the kill is served from the spill, not redone:
    // strictly fewer cold computes after restart than jobs in the campaign
    let durable = results.values().filter(|(cache, _)| cache == "durable").count();
    assert!(durable >= 1, "at least the pre-kill completions are served durably, got {results:?}");
    assert!(
        (stats.cache_misses as usize) < jobs.len(),
        "restart must not recompute the whole campaign ({} cold of {})",
        stats.cache_misses,
        jobs.len()
    );
}

#[test]
fn sigterm_drains_gracefully_losing_zero_admitted_jobs() {
    let jobs = campaign();
    let state = scratch("drain");
    let mut daemon = spawn_served(&state, 2);
    let mut client = connect(&state);
    let keys = submit_all(&mut client, &jobs);
    drop(client);

    // SIGTERM while the campaign is still in flight
    let term = Command::new("kill").args(["-TERM", &daemon.id().to_string()]).status().unwrap();
    assert!(term.success(), "kill -TERM delivered");
    let status = wait_exit(&mut daemon, Duration::from_secs(300));
    assert!(status.success(), "graceful drain exits zero");

    // the journal ends in CleanShutdown with nothing pending: every
    // admitted job settled before exit
    let (_, replay) = Wal::open(state.join("jobs.wal"), false).unwrap();
    assert!(replay.clean_shutdown, "drain journals CleanShutdown");
    assert!(replay.pending.is_empty(), "graceful drain loses zero admitted jobs: {:?}", replay.pending);
    assert!(replay.completed >= keys.len() as u64, "all {} campaign cells completed", keys.len());

    // and a restarted daemon serves the whole campaign durably
    let mut revived = spawn_served(&state, 2);
    let mut client = connect(&state);
    let results = collect_all(&mut client, &keys);
    assert!(results.values().all(|(cache, _)| cache == "durable"), "drained results all serve from the spill");
    client.drain().unwrap();
    drop(client);
    assert!(wait_exit(&mut revived, Duration::from_secs(60)).success());
}
