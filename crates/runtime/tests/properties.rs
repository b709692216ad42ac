//! Property-based tests of the message-passing runtime: pack/unpack
//! round-trips, tag matching under arbitrary interleavings, collectives.

use bytes::Bytes;
use ns_runtime::collectives;
use ns_runtime::comm::{universe, MsgKind, Tag};
use ns_runtime::pack::{frame_checksum, open_frame, PackBuf, UnpackBuf, FRAME_TRAILER};
use proptest::prelude::*;

proptest! {
    /// Arbitrary bytes into `open_frame` — raw, or with a valid trailer
    /// appended so the accepting path runs too — are refused or opened,
    /// never a panic; what it opens is exactly a sealed frame: the body
    /// plus the trailer of the `seq` and `span` it reports.
    #[test]
    fn open_frame_takes_arbitrary_bytes(
        raw in prop::collection::vec(0u8..=255, 0..96), seal in prop::bool::ANY, seq in 0u64..u64::MAX,
    ) {
        let sealed = |body: &[u8], seq: u64, span: u64| {
            let sum = frame_checksum(seq, span, body);
            [body, &seq.to_le_bytes(), &span.to_le_bytes(), &sum.to_le_bytes()].concat()
        };
        let input = if seal { sealed(&raw, seq, seq.rotate_left(7)) } else { raw };
        match open_frame(Bytes::from(input.clone())) {
            Ok(frame) => {
                prop_assert_eq!(frame.body.len() + FRAME_TRAILER, input.len());
                prop_assert_eq!(sealed(&frame.body, frame.seq, frame.span), input);
            }
            Err(e) => prop_assert!(!seal, "a sealed frame must open: {e}"),
        }
    }

    /// Pack/unpack round-trips arbitrary f64 vectors exactly (bit pattern).
    #[test]
    fn pack_roundtrip_bits(vals in prop::collection::vec(prop::num::f64::ANY, 0..256)) {
        let mut p = PackBuf::with_capacity_f64(vals.len());
        p.pack_f64_slice(&vals);
        prop_assert_eq!(p.len(), vals.len() * 8);
        let mut u = UnpackBuf::new(p.freeze());
        let mut out = vec![0.0f64; vals.len()];
        u.unpack_f64_slice(&mut out).unwrap();
        u.finish().unwrap();
        for (a, b) in vals.iter().zip(&out) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Splitting a payload into arbitrary chunk sequences unpacks to the
    /// same values.
    #[test]
    fn chunked_unpack_equals_bulk(vals in prop::collection::vec(-1e6f64..1e6, 1..64), cut in 0usize..64) {
        let cut = cut % vals.len();
        let mut p = PackBuf::new();
        p.pack_f64_slice(&vals);
        let mut u = UnpackBuf::new(p.freeze());
        let mut head = vec![0.0; cut];
        let mut tail = vec![0.0; vals.len() - cut];
        u.unpack_f64_slice(&mut head).unwrap();
        u.unpack_f64_slice(&mut tail).unwrap();
        u.finish().unwrap();
        head.extend(tail);
        prop_assert_eq!(head, vals);
    }

    /// Requesting more items than available always errors and never panics.
    #[test]
    fn over_read_is_an_error(n in 0usize..32, extra in 1usize..16) {
        let mut p = PackBuf::new();
        p.pack_f64_slice(&vec![1.0; n]);
        let mut u = UnpackBuf::new(p.freeze());
        let mut out = vec![0.0; n + extra];
        prop_assert!(u.unpack_f64_slice(&mut out).is_err());
    }

    /// Messages delivered in any order are matched correctly by
    /// (source, tag): the receiver sees exactly what each send carried.
    #[test]
    fn tag_matching_handles_any_permutation(perm in prop::sample::subsequence((0..6usize).collect::<Vec<_>>(), 6)) {
        // build 6 messages with distinct tags, send them in natural order,
        // receive them in `perm` order (a permutation prefix) then the rest
        let kinds = [MsgKind::Prims1, MsgKind::Flux1, MsgKind::Prims2, MsgKind::Flux2, MsgKind::FluxSplit, MsgKind::Gather];
        let mut eps = universe(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        for (k, kind) in kinds.iter().enumerate() {
            let mut p = PackBuf::new();
            p.pack_f64(k as f64);
            a.send(1, Tag { kind: *kind, seq: 9 }, p).unwrap();
        }
        let mut order: Vec<usize> = perm.clone();
        for k in 0..6 {
            if !order.contains(&k) {
                order.push(k);
            }
        }
        for k in order {
            let payload = b.recv(0, Tag { kind: kinds[k], seq: 9 }).unwrap();
            let mut u = UnpackBuf::new(payload);
            prop_assert_eq!(u.unpack_f64().unwrap(), k as f64);
        }
        prop_assert_eq!(b.stats.recvs, 6);
    }

    /// All-reduce computes the true max/sum for any rank count and values.
    #[test]
    fn allreduce_correct_for_any_size(vals in prop::collection::vec(-1e3f64..1e3, 1..9)) {
        let n = vals.len();
        let eps = universe(n);
        let results: Vec<(f64, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .into_iter()
                .map(|mut ep| {
                    let mine = vals[ep.rank()];
                    s.spawn(move || {
                        let mx = collectives::allreduce_max(&mut ep, mine, 0).unwrap();
                        let sm = collectives::allreduce_sum(&mut ep, mine, 1).unwrap();
                        (mx, sm)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let true_max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let true_sum: f64 = vals.iter().sum();
        for (mx, sm) in results {
            prop_assert_eq!(mx, true_max);
            prop_assert!((sm - true_sum).abs() < 1e-9 * (1.0 + true_sum.abs()));
        }
    }

    /// Statistics account every byte exactly: after any sequence of sends
    /// between two endpoints, bytes_sent == sum of payload lengths.
    #[test]
    fn stats_account_every_byte(sizes in prop::collection::vec(0usize..512, 1..20)) {
        let mut eps = universe(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut total = 0u64;
        for (k, &n) in sizes.iter().enumerate() {
            let mut p = PackBuf::new();
            p.pack_f64_slice(&vec![0.0; n]);
            total += (n * 8) as u64;
            a.send(1, Tag { kind: MsgKind::Flux1, seq: k as u64 }, p).unwrap();
        }
        prop_assert_eq!(a.stats.bytes_sent, total);
        prop_assert_eq!(a.stats.sends, sizes.len() as u64);
        for (k, &n) in sizes.iter().enumerate() {
            let payload = b.recv(0, Tag { kind: MsgKind::Flux1, seq: k as u64 }).unwrap();
            prop_assert_eq!(payload.len(), n * 8);
        }
        prop_assert_eq!(b.stats.bytes_recvd, total);
    }
}
