//! End-to-end test for the serve stack: the loadgen acceptance sweep over
//! a daemon's socket. The serving cases (admission under a full queue,
//! byte-identical hits, shed order, brownout, the drain fence) live in
//! `daemon::tests`, next to the `submit`, `wait` and `settle` they drive.

use ns_serve::{run_loadgen, LoadgenOptions};

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
    // every cell is submitted twice and its repeat is exactly one hit:
    // waits on a settled key count none
    assert_eq!(v.cache_hits * 2, v.jobs_completed, "one hit per duplicated cell, no more");
}
