//! The client↔daemon wire protocol: length-prefixed, checksum-framed
//! request/response messages over a byte stream (in practice a Unix
//! socket).
//!
//! Each message is `[u32 le length][sealed frame]`, the frame being the
//! PR 3 layout `[body][seq:8][span:8][checksum:8]` with the body a JSON
//! document — the same framing the WAL and the spill use, so a bit flip
//! anywhere in transport is detected by the checksum trailer, not by a
//! JSON parse error three layers up. `seq` carries a per-connection
//! message counter (each direction counts its own messages; a mismatch
//! means a desynchronized stream and kills the connection), `span` is 0.

use bytes::Bytes;
use ns_runtime::pack::{frame_checksum, open_frame, FRAME_TRAILER};
use serde::{Deserialize, Serialize};
use std::io::{Read, Write};

/// Largest message body accepted; a torn or hostile length prefix reads
/// as an error, not an allocation.
pub const MAX_MESSAGE_BYTES: usize = 16 << 20;

/// What a client can ask.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Submit a job for execution (idempotent by canonical key: a key
    /// that already has a durable result answers `Done` immediately).
    Submit {
        /// The job description (the `jetns submit --jobs` wire format).
        desc: crate::job::JobDesc,
    },
    /// Block until the keyed job settles (or the timeout passes).
    Wait {
        /// Canonical key, `{:016x}` (from an `Admitted` response).
        key: String,
        /// Give up after this many milliseconds.
        timeout_ms: u64,
    },
    /// Daemon status snapshot.
    Status,
    /// Ask the daemon to drain gracefully: stop admitting, finish every
    /// admitted job, journal a clean shutdown, exit.
    Drain,
}

/// Daemon status snapshot returned by [`Request::Status`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DaemonStatus {
    /// Daemon counters (submissions, completions, cache, brownout...).
    pub stats: crate::daemon::ServeStats,
    /// Jobs currently queued.
    pub queue_len: u64,
    /// Admitted-but-unsettled jobs the daemon is tracking (queued or
    /// in flight).
    pub inflight: u64,
    /// WAL records written so far (including replayed ones).
    pub wal_records: u64,
    /// True while a drain is in progress.
    pub draining: bool,
    /// True when admission is currently browning out low-priority work.
    pub brownout: bool,
}

/// What the daemon answers.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// The job was admitted (journaled durably before this was sent).
    Admitted {
        /// Daemon-assigned job id.
        id: u64,
        /// Canonical key to [`Request::Wait`] on, `{:016x}`.
        key: String,
    },
    /// The job's result (from a fresh run, the cache, or the spill).
    Done {
        /// Canonical key, `{:016x}`.
        key: String,
        /// Canonical case name.
        case: String,
        /// `"cold"`, `"hit"` or `"durable"` (served without re-queueing).
        cache: String,
        /// The run's `RunSummary` JSON, byte-identical across duplicates.
        payload: String,
        /// FNV-1a 64 fingerprint of the final field, `{:016x}`.
        field_hash: String,
        /// Queue wait on the daemon side, milliseconds (0 for durable
        /// short-circuits).
        queue_ms: f64,
        /// Backend wall time, milliseconds (0 for cache/durable serves).
        run_ms: f64,
    },
    /// Not admitted: back off and retry.
    Busy {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u64,
        /// The rejection came from brownout shedding, not a full queue.
        brownout: bool,
    },
    /// Validation failed; the job was never journaled.
    Invalid {
        /// What was wrong.
        reason: String,
    },
    /// The job settled without a result.
    Failed {
        /// Canonical key, `{:016x}`.
        key: String,
        /// Backend error, shed notice, or deadline expiry.
        error: String,
    },
    /// A [`Request::Wait`] timed out; the job may still settle later.
    TimedOut {
        /// Canonical key, `{:016x}`.
        key: String,
    },
    /// Status snapshot.
    Status {
        /// The snapshot.
        status: DaemonStatus,
    },
    /// Drain acknowledged; the daemon stops accepting new connections.
    Draining,
}

/// Frame a message body (JSON bytes) onto a stream.
pub fn write_frame(w: &mut impl Write, seq: u64, body: &[u8]) -> std::io::Result<()> {
    if body.len() > MAX_MESSAGE_BYTES {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "message exceeds MAX_MESSAGE_BYTES"));
    }
    let sum = frame_checksum(seq, 0, body);
    let mut framed = Vec::with_capacity(4 + body.len() + FRAME_TRAILER);
    framed.extend_from_slice(&((body.len() + FRAME_TRAILER) as u32).to_le_bytes());
    framed.extend_from_slice(body);
    framed.extend_from_slice(&seq.to_le_bytes());
    framed.extend_from_slice(&0u64.to_le_bytes());
    framed.extend_from_slice(&sum.to_le_bytes());
    w.write_all(&framed)
}

/// Read one framed message body off a stream, validating length bounds,
/// checksum, and the expected per-connection sequence number.
pub fn read_frame(r: &mut impl Read, expect_seq: u64) -> std::io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if !(FRAME_TRAILER..=MAX_MESSAGE_BYTES + FRAME_TRAILER).contains(&len) {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad frame length {len}")));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    let frame = open_frame(Bytes::from(buf))
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("corrupt frame: {e:?}")))?;
    if frame.seq != expect_seq {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("desynchronized stream: seq {} expected {expect_seq}", frame.seq),
        ));
    }
    Ok(frame.body.to_vec())
}

/// Serialize and frame a request.
pub fn write_request(w: &mut impl Write, seq: u64, req: &Request) -> std::io::Result<()> {
    write_frame(w, seq, serde_json::to_string(req).expect("request serializes").as_bytes())
}

/// Read and parse a request.
pub fn read_request(r: &mut impl Read, expect_seq: u64) -> std::io::Result<Request> {
    let body = read_frame(r, expect_seq)?;
    serde_json::from_slice(&body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad request: {e}")))
}

/// Serialize and frame a response.
pub fn write_response(w: &mut impl Write, seq: u64, resp: &Response) -> std::io::Result<()> {
    write_frame(w, seq, serde_json::to_string(resp).expect("response serializes").as_bytes())
}

/// Read and parse a response.
pub fn read_response(r: &mut impl Read, expect_seq: u64) -> std::io::Result<Response> {
    let body = read_frame(r, expect_seq)?;
    serde_json::from_slice(&body)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad response: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_response_roundtrip_over_a_buffer() {
        let req = Request::Wait { key: "00000000deadbeef".into(), timeout_ms: 250 };
        let mut buf = Vec::new();
        write_request(&mut buf, 0, &req).unwrap();
        let got = read_request(&mut buf.as_slice(), 0).unwrap();
        assert_eq!(got, req);
        let resp = Response::Busy { retry_after_ms: 40, brownout: true };
        let mut buf = Vec::new();
        write_response(&mut buf, 7, &resp).unwrap();
        assert_eq!(read_response(&mut buf.as_slice(), 7).unwrap(), resp);
    }

    #[test]
    fn corruption_and_desync_are_io_errors() {
        let mut buf = Vec::new();
        write_request(&mut buf, 0, &Request::Status).unwrap();
        let mut flipped = buf.clone();
        let mid = 4 + 2; // inside the body
        flipped[mid] ^= 0x40;
        assert!(read_request(&mut flipped.as_slice(), 0).is_err(), "bit flip must fail the checksum");
        assert!(read_request(&mut buf.as_slice(), 1).is_err(), "wrong seq means a desynchronized stream");
        let short = &buf[..buf.len() - 3];
        assert!(read_request(&mut &short[..], 0).is_err(), "truncated frame is an io error");
    }
}
