//! Property-based tests of the socket decoder: on arbitrary bytes, and on
//! a valid frame with one truncation or one bit flip, `read_request` and
//! `read_response` return an error or the original message, and never
//! panic. This is what the daemon's connection threads and the client
//! lean on: a torn, corrupted or hostile stream costs the connection, not
//! the process.

use ns_serve::job::JobDesc;
use ns_serve::proto::{
    read_request, read_response, write_frame, write_request, write_response, DaemonStatus, Request, Response,
};
use ns_serve::wal::key_hex;
use ns_serve::ServeStats;
use proptest::prelude::*;

fn desc(n: u64) -> JobDesc {
    JobDesc {
        label: (!n.is_multiple_of(3)).then(|| format!("cell/{n}")),
        regime: ["euler", "navier-stokes"][(n % 2) as usize].into(),
        nx: 24 + (n % 100) as usize,
        nr: 10 + (n % 40) as usize,
        steps: 1 + n % 1000,
        version: format!("V{}", 1 + n % 7),
        procs: 1 + (n % 8) as usize,
        comm: format!("V{}", 5 + n % 3),
        backend: ["serial", "parallel", "chaos", "shared"][(n % 4) as usize].into(),
        priority: ["low", "normal", "high"][(n % 3) as usize].into(),
        deadline_ms: n.is_multiple_of(5).then_some(n % 60_000),
    }
}

/// One of every request shape, picked by `kind`, its fields drawn from `n`.
fn request(kind: u8, n: u64) -> Request {
    match kind % 4 {
        0 => Request::Submit { desc: desc(n) },
        1 => Request::Wait { key: key_hex(n), timeout_ms: n % 100_000 },
        2 => Request::Status,
        _ => Request::Drain,
    }
}

/// One of every response shape, picked by `kind`, its fields drawn from
/// `n` (milliseconds are multiples of 1/8, exact in binary).
fn response(kind: u8, n: u64) -> Response {
    let key = key_hex(n);
    let ms = (n % 10_000) as f64 / 8.0;
    match kind % 8 {
        0 => Response::Admitted { id: n, key },
        1 => Response::Done {
            key,
            case: format!("euler/V5/parallel/p{}/commV5/nx66x24/s6", 1 + n % 4),
            cache: ["cold", "hit", "durable"][(n % 3) as usize].into(),
            payload: format!("{{\"case\": \"c{n}\", \"steps\": {}}}", n % 97),
            field_hash: key_hex(n.rotate_left(17)),
            queue_ms: ms,
            run_ms: ms * 2.0,
        },
        2 => Response::Busy { retry_after_ms: 1 + n % 5000, brownout: n.is_multiple_of(2) },
        3 => Response::Invalid { reason: format!("unknown regime \"x{n}\" (expected euler|navier-stokes)") },
        4 => Response::Failed { key, error: format!("shed under load: cell/{n}") },
        5 => Response::TimedOut { key },
        6 => Response::Status {
            status: DaemonStatus {
                stats: ServeStats { submitted: n, completed: n / 2, cache_hits: n / 3, ..Default::default() },
                queue_len: n % 32,
                inflight: n % 64,
                wal_records: n,
                draining: n % 2 == 1,
                brownout: n.is_multiple_of(3),
            },
        },
        _ => Response::Draining,
    }
}

fn request_bytes(seq: u64, req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(&mut buf, seq, req).unwrap();
    buf
}

fn response_bytes(seq: u64, resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    write_response(&mut buf, seq, resp).unwrap();
    buf
}

/// An index into `len` bytes from a unit fraction.
fn at(len: usize, frac: f64) -> usize {
    ((len - 1) as f64 * frac) as usize
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Unmodified frames decode to the message they carry: the properties
    /// below start from frames that are valid.
    #[test]
    fn valid_frames_decode_to_the_original(kind in 0u8..8, n in 0u64..u64::MAX, seq in 0u64..1000) {
        let req = request(kind, n);
        prop_assert_eq!(read_request(&mut request_bytes(seq, &req).as_slice(), seq).unwrap(), req);
        let resp = response(kind, n);
        prop_assert_eq!(read_response(&mut response_bytes(seq, &resp).as_slice(), seq).unwrap(), resp);
    }

    /// Arbitrary bytes — raw, or behind a length prefix that matches them
    /// so the checksum is what judges them — decode to an error, never a
    /// panic.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..96), seq in 0u64..4) {
        prop_assert!(read_request(&mut bytes.as_slice(), seq).is_err());
        prop_assert!(read_response(&mut bytes.as_slice(), seq).is_err());
        let mut prefixed = (bytes.len() as u32).to_le_bytes().to_vec();
        prefixed.extend_from_slice(&bytes);
        prop_assert!(read_request(&mut prefixed.as_slice(), seq).is_err());
        prop_assert!(read_response(&mut prefixed.as_slice(), seq).is_err());
    }

    /// A body the checksum vouches for but that is not the JSON of a
    /// message — arbitrary bytes, or a message's JSON with one byte
    /// changed before sealing — reaches the JSON decoder, which returns an
    /// error or some message, and never panics.
    #[test]
    fn sealed_garbage_never_panics(
        bytes in prop::collection::vec(0u8..=255, 0..96),
        kind in 0u8..8,
        n in 0u64..u64::MAX,
        pos in 0.0f64..1.0,
        byte in 0u8..=255,
    ) {
        let mut bodies = vec![bytes];
        for mut json in [
            serde_json::to_string(&request(kind, n)).unwrap().into_bytes(),
            serde_json::to_string(&response(kind, n)).unwrap().into_bytes(),
        ] {
            let i = at(json.len(), pos);
            json[i] = byte;
            bodies.push(json);
        }
        for body in &bodies {
            let mut framed = Vec::new();
            write_frame(&mut framed, 0, body).unwrap();
            let _ = read_request(&mut framed.as_slice(), 0);
            let _ = read_response(&mut framed.as_slice(), 0);
        }
    }

    /// A frame cut short anywhere is an error: the reader never waits for,
    /// or invents, the missing bytes.
    #[test]
    fn truncated_frames_are_errors(kind in 0u8..8, n in 0u64..u64::MAX, cut in 0.0f64..1.0) {
        let bytes = request_bytes(3, &request(kind, n));
        prop_assert!(read_request(&mut &bytes[..at(bytes.len(), cut)], 3).is_err());
        let bytes = response_bytes(3, &response(kind, n));
        prop_assert!(read_response(&mut &bytes[..at(bytes.len(), cut)], 3).is_err());
    }

    /// A single flipped bit anywhere in a frame — length prefix, body or
    /// trailer — is an error or, at worst, the original message.
    #[test]
    fn bit_flips_are_errors_or_the_original(
        kind in 0u8..8,
        n in 0u64..u64::MAX,
        pos in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let req = request(kind, n);
        let mut bytes = request_bytes(5, &req);
        let i = at(bytes.len(), pos);
        bytes[i] ^= 1 << bit;
        if let Ok(got) = read_request(&mut bytes.as_slice(), 5) {
            prop_assert_eq!(got, req, "flip at byte {} bit {}", i, bit);
        }
        let resp = response(kind, n);
        let mut bytes = response_bytes(5, &resp);
        let i = at(bytes.len(), pos);
        bytes[i] ^= 1 << bit;
        if let Ok(got) = read_response(&mut bytes.as_slice(), 5) {
            prop_assert_eq!(got, resp, "flip at byte {} bit {}", i, bit);
        }
    }
}
