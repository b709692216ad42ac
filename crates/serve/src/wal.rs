//! Write-ahead job journal.
//!
//! Every job the daemon admits is journaled *before* the client's admit is
//! acknowledged, and journaled again when it settles (completed, or
//! cancelled by shedding / deadline expiry / a failing backend). A daemon
//! that is `kill -9`ed mid-campaign therefore restarts into the same queue
//! state: replaying the journal yields exactly the set of admitted-but-
//! unsettled jobs, which are re-enqueued, while settled keys are left to
//! the spill-backed result cache.
//!
//! The on-disk format reuses the PR 3 frame machinery: each record is a
//! `[u32 len][sealed frame]` where the frame body is the record's JSON and
//! the trailer carries the record index as its sequence number plus the
//! FNV checksum ([`ns_runtime::pack::PackBuf::seal_frame`] /
//! [`ns_runtime::pack::open_frame`]). Replay is torn-write-safe in the
//! spirit of `core::checkpoint`: it stops at the first record that is
//! short, fails its checksum, or carries an out-of-order sequence number
//! (a duplicated append), and the file is truncated back to the last valid
//! record so subsequent appends extend a clean tail. A key that ever
//! reached a terminal record (`Completed`/`Cancelled`) is never
//! resurrected by stray duplicate `Admitted` records, in either order —
//! replay is a state machine over keys, not a log of suggestions.
//!
//! What is fsync-guaranteed (see DESIGN §15): `Admitted` records are
//! fsynced before the admit is acknowledged when the journal is opened
//! with `sync = true`; settle records are appended without fsync — losing
//! one costs at most a redundant re-enqueue whose execution is absorbed by
//! the spill cache, never a wrong or lost result.

use crate::job::JobDesc;
use bytes::Bytes;
use ns_runtime::pack::{open_frame, FRAME_TRAILER};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// Largest record body replay will accept; anything bigger is treated as a
/// corrupt length word (a torn write into the length prefix can otherwise
/// ask for gigabytes).
pub const MAX_RECORD_BYTES: usize = 1 << 20;

/// One journal record. Keys are the job's canonical content hash rendered
/// as fixed-width hex (the same identity the result cache and spill use).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WalRecord {
    /// A job was admitted: the full wire description rides along so a
    /// replay can re-enqueue it verbatim.
    Admitted {
        /// Canonical key, `{:016x}`.
        key: String,
        /// The admitted job description.
        desc: JobDesc,
    },
    /// The job's result was computed and written through to the spill
    /// store (the spill write happens first, so a `Completed` record
    /// always points at durable bytes).
    Completed {
        /// Canonical key, `{:016x}`.
        key: String,
    },
    /// The job was settled without a result: shed under overload, expired
    /// past its deadline, or failed in a backend. Replay must not re-run
    /// it.
    Cancelled {
        /// Canonical key, `{:016x}`.
        key: String,
        /// Why the job settled without a result.
        reason: String,
    },
    /// A graceful drain finished with every admitted job settled. Its
    /// presence as the final record is how a restart distinguishes a clean
    /// shutdown from a crash.
    CleanShutdown,
}

impl WalRecord {
    fn key(&self) -> Option<&str> {
        match self {
            WalRecord::Admitted { key, .. } | WalRecord::Completed { key } | WalRecord::Cancelled { key, .. } => {
                Some(key)
            }
            WalRecord::CleanShutdown => None,
        }
    }
}

/// Canonical hex rendering of a cache key, the identity shared by the
/// journal, the spill store and the wire protocol.
pub fn key_hex(key: u64) -> String {
    format!("{key:016x}")
}

/// What replaying a journal found.
#[derive(Clone, Debug, Default)]
pub struct WalReplay {
    /// Jobs admitted but never settled, in admission order: the work a
    /// restarted daemon re-enqueues.
    pub pending: Vec<(String, JobDesc)>,
    /// Keys that reached `Completed`.
    pub completed: u64,
    /// Keys that reached `Cancelled`.
    pub cancelled: u64,
    /// Valid records replayed.
    pub records: u64,
    /// Garbage bytes dropped from the tail (torn write, bit flip, or a
    /// duplicated append; zero for a cleanly written journal).
    pub truncated_bytes: u64,
    /// The final valid record was [`WalRecord::CleanShutdown`].
    pub clean_shutdown: bool,
}

/// The append-only journal. All appends go through one handle; the daemon
/// wraps it in a mutex.
pub struct Wal {
    file: File,
    path: PathBuf,
    next_seq: u64,
    sync: bool,
}

impl Wal {
    /// Open (creating if absent) a journal, replaying whatever is already
    /// there. The file is truncated back to its last valid record, so the
    /// append cursor never extends a corrupt tail.
    pub fn open(path: impl AsRef<Path>, sync: bool) -> std::io::Result<(Self, WalReplay)> {
        let path = path.as_ref().to_path_buf();
        let existing = std::fs::read(&path).unwrap_or_default();
        let (replay, valid_len) = replay_bytes(&existing);
        let mut file = OpenOptions::new().create(true).read(true).append(true).open(&path)?;
        if (existing.len() as u64) > valid_len {
            // re-open without append to drop the corrupt tail
            drop(file);
            let f = OpenOptions::new().write(true).open(&path)?;
            f.set_len(valid_len)?;
            f.sync_data()?;
            drop(f);
            file = OpenOptions::new().create(true).read(true).append(true).open(&path)?;
        }
        Ok((Self { file, path, next_seq: replay.records, sync }, replay))
    }

    /// Append one record; fsyncs when the journal was opened with
    /// `sync = true` *and* the record is load-bearing for admission
    /// (`Admitted` / `CleanShutdown`).
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        let body = serde_json::to_string(record).expect("wal record serializes");
        // PackBuf packs f64/u64 lanes; a WAL body is raw JSON bytes, so the
        // frame is built directly in the same [body][seq][span][checksum]
        // layout `open_frame` validates.
        let mut framed = Vec::with_capacity(body.len() + FRAME_TRAILER + 4);
        let seq = self.next_seq;
        let sum = ns_runtime::pack::frame_checksum(seq, 0, body.as_bytes());
        let frame_len = (body.len() + FRAME_TRAILER) as u32;
        framed.extend_from_slice(&frame_len.to_le_bytes());
        framed.extend_from_slice(body.as_bytes());
        framed.extend_from_slice(&seq.to_le_bytes());
        framed.extend_from_slice(&0u64.to_le_bytes());
        framed.extend_from_slice(&sum.to_le_bytes());
        self.file.write_all(&framed)?;
        if self.sync && matches!(record, WalRecord::Admitted { .. } | WalRecord::CleanShutdown) {
            self.file.sync_data()?;
        }
        self.next_seq += 1;
        Ok(())
    }

    /// Records appended or replayed through this handle so far.
    pub fn records(&self) -> u64 {
        self.next_seq
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Replay journal bytes: returns what was found plus the byte length of
/// the valid prefix. Never panics on garbage — a short length word, an
/// oversized length, a failed checksum, an out-of-order sequence number or
/// unparseable JSON all stop the replay at the previous record.
pub fn replay_bytes(bytes: &[u8]) -> (WalReplay, u64) {
    #[derive(Clone, Copy, PartialEq)]
    enum KeyState {
        Pending,
        Done,
        Dropped,
    }
    let mut replay = WalReplay::default();
    let mut states: BTreeMap<String, KeyState> = BTreeMap::new();
    let mut order: Vec<(String, JobDesc)> = Vec::new();
    let mut off = 0usize;
    let mut valid = 0u64;
    loop {
        if bytes.len() - off < 4 {
            break;
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4-byte slice")) as usize;
        if !(FRAME_TRAILER..=MAX_RECORD_BYTES + FRAME_TRAILER).contains(&len) || bytes.len() - off - 4 < len {
            break;
        }
        let Ok(frame) = open_frame(Bytes::copy_from_slice(&bytes[off + 4..off + 4 + len])) else {
            break;
        };
        if frame.seq != replay.records {
            break; // duplicated or reordered append: stop at the last valid record
        }
        let Ok(record) = serde_json::from_slice::<WalRecord>(&frame.body) else {
            break;
        };
        replay.records += 1;
        replay.clean_shutdown = matches!(record, WalRecord::CleanShutdown);
        match &record {
            WalRecord::Admitted { key, desc } => {
                // a key already settled is never resurrected; a key already
                // pending is not double-enqueued
                if !states.contains_key(key) {
                    states.insert(key.clone(), KeyState::Pending);
                    order.push((key.clone(), desc.clone()));
                }
            }
            WalRecord::Completed { key } => {
                if states.insert(key.clone(), KeyState::Done) != Some(KeyState::Done) {
                    replay.completed += 1;
                }
            }
            WalRecord::Cancelled { key, .. } => {
                if states.insert(key.clone(), KeyState::Dropped) != Some(KeyState::Dropped) {
                    replay.cancelled += 1;
                }
            }
            WalRecord::CleanShutdown => {}
        }
        let _ = record.key();
        off += 4 + len;
        valid = off as u64;
    }
    replay.truncated_bytes = (bytes.len() as u64).saturating_sub(valid);
    replay.pending = order.into_iter().filter(|(k, _)| matches!(states.get(k), Some(KeyState::Pending))).collect();
    (replay, valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(steps: u64) -> JobDesc {
        JobDesc {
            label: Some(format!("wal-test-{steps}")),
            regime: "euler".into(),
            nx: 48,
            nr: 16,
            steps,
            version: "V5".into(),
            procs: 1,
            comm: "V5".into(),
            backend: "serial".into(),
            priority: "normal".into(),
            deadline_ms: None,
        }
    }

    #[test]
    fn roundtrip_and_pending_state_machine() {
        let dir = std::env::temp_dir().join(format!("ns-wal-{:x}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.wal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, replay) = Wal::open(&path, true).unwrap();
            assert_eq!(replay.records, 0);
            wal.append(&WalRecord::Admitted { key: key_hex(1), desc: desc(2) }).unwrap();
            wal.append(&WalRecord::Admitted { key: key_hex(2), desc: desc(3) }).unwrap();
            wal.append(&WalRecord::Completed { key: key_hex(1) }).unwrap();
            wal.append(&WalRecord::Cancelled { key: key_hex(3), reason: "shed".into() }).unwrap();
        }
        let (_, replay) = Wal::open(&path, true).unwrap();
        assert_eq!(replay.records, 4);
        assert_eq!(replay.completed, 1);
        assert_eq!(replay.cancelled, 1);
        assert_eq!(replay.truncated_bytes, 0);
        assert!(!replay.clean_shutdown);
        let pending: Vec<&str> = replay.pending.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(pending, vec![key_hex(2)], "only the unsettled key is pending");
        assert_eq!(replay.pending[0].1.steps, 3, "the pending desc rides along");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn clean_shutdown_marker_is_detected_only_as_final_record() {
        let dir = std::env::temp_dir().join(format!("ns-wal-{:x}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("clean.wal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path, false).unwrap();
            wal.append(&WalRecord::CleanShutdown).unwrap();
            wal.append(&WalRecord::Admitted { key: key_hex(9), desc: desc(2) }).unwrap();
        }
        let (_, replay) = Wal::open(&path, false).unwrap();
        assert!(!replay.clean_shutdown, "a record after the marker means the daemon came back up");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_continue() {
        let dir = std::env::temp_dir().join(format!("ns-wal-{:x}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.wal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut wal, _) = Wal::open(&path, false).unwrap();
            wal.append(&WalRecord::Admitted { key: key_hex(1), desc: desc(2) }).unwrap();
            wal.append(&WalRecord::Completed { key: key_hex(1) }).unwrap();
        }
        // tear the last record: drop its final 5 bytes
        let mut bytes = std::fs::read(&path).unwrap();
        let full = bytes.len();
        bytes.truncate(full - 5);
        std::fs::write(&path, &bytes).unwrap();
        let (mut wal, replay) = Wal::open(&path, false).unwrap();
        assert_eq!(replay.records, 1, "replay stops at the last whole record");
        assert_eq!(replay.pending.len(), 1, "the settle record was torn away, so the job is pending again");
        let first_record_len = 4 + u32::from_le_bytes(bytes[..4].try_into().unwrap()) as u64;
        assert_eq!(std::fs::metadata(&path).unwrap().len(), first_record_len, "torn tail is truncated away on open");
        // the journal keeps working after truncation
        wal.append(&WalRecord::Completed { key: key_hex(1) }).unwrap();
        drop(wal);
        let (_, replay) = Wal::open(&path, false).unwrap();
        assert_eq!(replay.records, 2);
        assert!(replay.pending.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
