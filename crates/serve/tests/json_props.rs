//! Properties of the JSON codec that every wire message, spill file, WAL
//! record and checkpoint goes through: every finite `f64` round-trips
//! bitwise, any string round-trips byte for byte as a `Done` payload, and a
//! read costs time linear in the document's length.

use ns_serve::proto::{read_response, write_response, Response};
use proptest::prelude::*;
use std::time::Instant;

fn f64_round_trips(x: f64) {
    let text = serde_json::to_string(&x).unwrap();
    let back: f64 = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{text} does not read back: {e}"));
    assert_eq!(back.to_bits(), x.to_bits(), "{text}");
}

/// One character of an arbitrary string, biased toward the ones the
/// writer escapes and toward multi-byte UTF-8.
fn pick_char(kind: u8, n: u32) -> char {
    const SPECIAL: [char; 10] = ['"', '\\', '/', '\n', '\r', '\t', 'é', '€', '😀', '\u{2028}'];
    match kind % 4 {
        0 => SPECIAL[n as usize % SPECIAL.len()],
        1 => char::from_u32(n % 0x20).unwrap(),
        2 => char::from_u32(n % 0x80).unwrap(),
        _ => char::from_u32(n % 0x11_0000).unwrap_or('\u{fffd}'),
    }
}

#[test]
fn the_f64_edges_round_trip_bitwise() {
    let two64 = 18_446_744_073_709_551_616.0f64;
    for x in [
        0.0,
        -0.0,
        1.0e300,
        -1.0e300,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        two64,
        -two64,
        f64::from_bits(two64.to_bits() - 1),
        -9_223_372_036_854_775_808.0,
        0.1 + 0.2,
    ] {
        f64_round_trips(x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn every_finite_f64_round_trips_bitwise(bits in 0u64..=u64::MAX) {
        let x = f64::from_bits(bits);
        prop_assume!(x.is_finite());
        f64_round_trips(x);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_string_round_trips_as_a_done_payload(
        chars in prop::collection::vec((0u8..4, 0u32..0x11_0000), 0..96),
        seq in 0u64..1_000,
    ) {
        let payload: String = chars.iter().map(|&(kind, n)| pick_char(kind, n)).collect();
        let sent = Response::Done {
            key: "00000000deadbeef".into(),
            case: payload.chars().rev().collect(),
            cache: "hit".into(),
            payload: payload.clone(),
            field_hash: "0123456789abcdef".into(),
            queue_ms: 0.125,
            run_ms: 0.0,
        };
        let mut buf = Vec::new();
        write_response(&mut buf, seq, &sent).unwrap();
        let got = read_response(&mut buf.as_slice(), seq).unwrap();
        match &got {
            Response::Done { payload: back, .. } => prop_assert_eq!(back.as_bytes(), payload.as_bytes()),
            other => panic!("a Done response read back as {other:?}"),
        }
        prop_assert_eq!(got, sent);
    }
}

/// Best of five reads of a JSON string of `kib` Ki characters, in seconds.
fn best_read_secs(kib: usize) -> f64 {
    let unit = "jet \"shear\" layer \\ Mach 1.5, Ré 1.2e6, 20 °C\n";
    let text: String = unit.chars().cycle().take(kib * 1024).collect();
    let doc = serde_json::to_string(&text).unwrap();
    (0..5)
        .map(|_| {
            let t = Instant::now();
            let back: String = serde_json::from_str(&doc).unwrap();
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(back, text);
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

/// Four times the document costs about four times the time. A parser that
/// re-scans the rest of the document at each character reads ≈ 16 here.
#[test]
fn a_read_costs_time_linear_in_the_document() {
    let (small, large) = (best_read_secs(64), best_read_secs(256));
    let ratio = large / small;
    assert!(ratio < 8.0, "256 KiB took {large:.2e} s, 64 KiB {small:.2e} s: ratio {ratio:.1}, linear reads ≈ 4");
}
