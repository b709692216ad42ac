//! Property-based tests of the write-ahead job journal: for any record
//! sequence and any corruption of the file's tail — truncation, bit
//! flips, duplicated record bytes — replay recovers a valid prefix,
//! never panics, and never resurrects a job that settled inside that
//! prefix. These are the invariants the daemon's crash recovery leans
//! on: a torn append costs at most the torn record, and a settled job
//! is never re-run.

use ns_core::config::{Regime, SolverConfig};
use ns_numerics::Grid;
use ns_serve::job::{JobDesc, JobSpec};
use ns_serve::wal::{key_hex, Wal, WalRecord};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ns-wal-props");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}-{}-{}.wal", std::process::id(), NEXT.fetch_add(1, Ordering::Relaxed)))
}

fn small_desc(steps: u64) -> JobDesc {
    let cfg = SolverConfig::paper(Grid::new(12, 8, 10.0, 2.0), Regime::Euler);
    JobDesc::from_spec(&JobSpec::new(cfg, steps.max(1), ns_runtime::Shape::SERIAL))
}

/// Decode an op stream into records over a 4-key space.
fn records_of(ops: &[(u8, u64)]) -> Vec<WalRecord> {
    ops.iter()
        .map(|&(kind, key)| match kind {
            0 => WalRecord::Admitted { key: key_hex(key), desc: small_desc(key + 1) },
            1 => WalRecord::Completed { key: key_hex(key) },
            2 => WalRecord::Cancelled { key: key_hex(key), reason: "prop".into() },
            _ => WalRecord::CleanShutdown,
        })
        .collect()
}

/// Write `records` through a real [`Wal`] and return the raw file bytes.
fn journal_bytes(path: &PathBuf, records: &[WalRecord]) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    let (mut wal, _) = Wal::open(path, false).unwrap();
    for r in records {
        wal.append(r).unwrap();
    }
    drop(wal);
    std::fs::read(path).unwrap()
}

/// The keys settled (Completed or Cancelled) within the first `n` records.
fn settled_within(records: &[WalRecord], n: usize) -> BTreeSet<String> {
    records
        .iter()
        .take(n)
        .filter_map(|r| match r {
            WalRecord::Completed { key } => Some(key.clone()),
            WalRecord::Cancelled { key, .. } => Some(key.clone()),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Truncating the journal anywhere leaves a replayable prefix: some
    /// whole number of leading records survives, the rest is discarded,
    /// and no job settled inside the surviving prefix comes back pending.
    #[test]
    fn truncation_replays_a_valid_prefix(
        ops in prop::collection::vec((0u8..4, 0u64..4), 1..10),
        cut in 0.0f64..1.0,
    ) {
        let path = scratch("trunc");
        let records = records_of(&ops);
        let bytes = journal_bytes(&path, &records);
        let keep = ((bytes.len() - 1) as f64 * cut) as usize;
        std::fs::write(&path, &bytes[..keep]).unwrap();
        let (_, replay) = Wal::open(&path, false).unwrap();
        prop_assert!(replay.records <= records.len() as u64);
        // the surviving prefix is literally the first `records` appends
        let n = replay.records as usize;
        for key in settled_within(&records, n) {
            prop_assert!(
                !replay.pending.iter().any(|(k, _)| *k == key),
                "settled key {key} resurrected after truncation at {keep}/{}", bytes.len()
            );
        }
        // the file was truncated to the valid prefix, so reopening is stable
        let after = std::fs::metadata(&path).unwrap().len();
        let (_, again) = Wal::open(&path, false).unwrap();
        prop_assert_eq!(again.records, replay.records);
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), after);
        std::fs::remove_file(&path).unwrap();
    }

    /// Flipping any single bit never panics, never grows the record count,
    /// and never resurrects a job settled inside the surviving prefix —
    /// the checksum trailer turns silent corruption into a clean stop.
    #[test]
    fn bit_flips_stop_replay_cleanly(
        ops in prop::collection::vec((0u8..4, 0u64..4), 1..10),
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let path = scratch("flip");
        let records = records_of(&ops);
        let mut bytes = journal_bytes(&path, &records);
        let idx = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replay) = Wal::open(&path, false).unwrap();
        prop_assert!(replay.records <= records.len() as u64);
        let n = replay.records as usize;
        for key in settled_within(&records, n) {
            prop_assert!(
                !replay.pending.iter().any(|(k, _)| *k == key),
                "settled key {key} resurrected by a bit flip at byte {idx} bit {bit}"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    /// Re-appending the raw bytes of an earlier record (a duplicated
    /// write, e.g. a retried append that actually landed twice) stops
    /// replay at the duplicate: its embedded sequence number no longer
    /// matches its position, so it and everything after are discarded
    /// rather than replayed twice.
    #[test]
    fn duplicate_record_bytes_stop_replay_at_the_duplicate(
        ops in prop::collection::vec((0u8..3, 0u64..4), 2..8),
        dup in 0.0f64..1.0,
    ) {
        let path = scratch("dup");
        let records = records_of(&ops);
        let bytes = journal_bytes(&path, &records);
        // find record boundaries from the length prefixes
        let mut bounds = vec![0usize];
        let mut at = 0usize;
        while at + 4 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            at += 4 + len;
            bounds.push(at);
        }
        let n_records = bounds.len() - 1;
        let pick = ((n_records - 1) as f64 * dup) as usize;
        let mut doctored = bytes.clone();
        doctored.extend_from_slice(&bytes[bounds[pick]..bounds[pick + 1]]);
        std::fs::write(&path, &doctored).unwrap();
        let (_, replay) = Wal::open(&path, false).unwrap();
        // every original record replays; the duplicate (stale seq) does not
        prop_assert_eq!(replay.records, n_records as u64, "duplicate must not count as a new record");
        prop_assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes.len() as u64, "duplicate bytes truncated away");
        std::fs::remove_file(&path).unwrap();
    }
}
