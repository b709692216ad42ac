//! Property-based tests of the checkpoint format: round-trips are bitwise
//! for any grid/regime/step count, and corrupted bytes are rejected with a
//! [`CheckpointError`] — never a panic and never a silently-wrong solver.
//! The recovery layer in `ns-runtime` leans on both properties.

use ns_core::checkpoint::{Checkpoint, CheckpointError, FORMAT};
use ns_core::config::{Regime, SolverConfig, Version};
use ns_core::Solver;
use ns_numerics::Grid;
use proptest::prelude::*;
use std::ops::Range;

fn solver_after(nx: usize, nr: usize, steps: u64, viscous: bool) -> Solver {
    let regime = if viscous { Regime::NavierStokes } else { Regime::Euler };
    let mut s = Solver::new(SolverConfig::paper(Grid::new(nx, nr, 10.0, 2.0), regime));
    s.run(steps);
    s
}

/// The bytes of a valid 12×8 checkpoint: V7 Navier-Stokes after one step,
/// so every configuration field the sweep reads (`tile_r` included) is live.
fn valid_bytes() -> Vec<u8> {
    let mut cfg = SolverConfig::paper(Grid::new(12, 8, 10.0, 2.0), Regime::NavierStokes);
    cfg.version = Version::V7;
    let mut s = Solver::new(cfg);
    s.run(1);
    Checkpoint::capture(&s).to_bytes().unwrap()
}

/// The spans of the numeric literals in checkpoint JSON outside the field
/// planes' `data` arrays: configuration, clock, ledger, patch and plane
/// shapes. (The state values are what the bit-flip property lands in.)
fn numeric_fields(json: &[u8]) -> Vec<Range<usize>> {
    let (mut spans, mut i, mut key_is_data, mut in_data) = (Vec::new(), 0, false, false);
    while i < json.len() {
        match json[i] {
            b'"' => {
                let start = i + 1;
                i += 1;
                while json[i] != b'"' {
                    i += if json[i] == b'\\' { 2 } else { 1 };
                }
                key_is_data = &json[start..i] == b"data";
                i += 1;
            }
            b'[' if key_is_data => (in_data, i) = (true, i + 1),
            b']' if in_data => (in_data, i) = (false, i + 1),
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < json.len() && matches!(json[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                    i += 1;
                }
                if !in_data {
                    spans.push(start..i);
                }
            }
            _ => i += 1,
        }
    }
    spans
}

/// `bytes` with the span `at` replaced by `literal`.
fn splice(bytes: &[u8], at: Range<usize>, literal: &str) -> Vec<u8> {
    [&bytes[..at.start], literal.as_bytes(), &bytes[at.end..]].concat()
}

/// The one field of a valid checkpoint named `key` set to `literal`.
fn with_field(key: &str, literal: &str) -> Vec<u8> {
    let bytes = valid_bytes();
    let pat = format!("\"{key}\":");
    let at = bytes.windows(pat.len()).position(|w| w == pat.as_bytes()).expect("key present") + pat.len();
    let span = numeric_fields(&bytes).into_iter().find(|s| s.start == at).expect("numeric value");
    splice(&bytes, span, literal)
}

/// A literal for a numeric field: the kinds a hand edit or a corrupted
/// writer leaves — small and huge unsigned, negative, fractional, extreme.
fn literal(kind: u8, v: u64) -> String {
    match kind {
        0 => (v % 64).to_string(),
        1 => v.to_string(),
        2 => format!("-{}", v % 1000),
        3 => u64::MAX.to_string(),
        4 => format!("{:e}", f64::from_bits(v % 0x7ff0_0000_0000_0000)),
        _ => format!("{}.5", v % 100),
    }
}

/// Whatever `from_bytes` admits, `restore` turns into a solver that steps.
fn admitted_restores_and_steps(bytes: &[u8]) {
    if let Ok(cp) = Checkpoint::from_bytes(bytes) {
        cp.restore().run(1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// capture → to_bytes → from_bytes → restore reproduces the solver
    /// bitwise, and the restored solver keeps stepping exactly like the
    /// original (same workspace-independent trajectory).
    #[test]
    fn roundtrip_through_bytes_is_bitwise(
        nx in 12usize..28, nr in 8usize..16, steps in 0u64..5, viscous in prop::bool::ANY,
    ) {
        let mut original = solver_after(nx, nr, steps, viscous);
        let bytes = Checkpoint::capture(&original).to_bytes().unwrap();
        let mut restored = Checkpoint::from_bytes(&bytes).unwrap().restore();
        prop_assert_eq!(original.field.max_diff(&restored.field), 0.0);
        prop_assert_eq!(original.t.to_bits(), restored.t.to_bits());
        prop_assert_eq!(original.nstep, restored.nstep);
        prop_assert_eq!(&original.ledger, &restored.ledger);
        original.run(2);
        restored.run(2);
        prop_assert_eq!(original.field.max_diff(&restored.field), 0.0, "trajectories diverged after restore");
        prop_assert_eq!(&original.ledger, &restored.ledger);
    }

    /// Truncating the serialized bytes anywhere must fail cleanly.
    #[test]
    fn truncated_bytes_are_rejected(cut in 0.0f64..1.0) {
        let bytes = Checkpoint::capture(&solver_after(12, 8, 1, false)).to_bytes().unwrap();
        let keep = ((bytes.len() - 1) as f64 * cut) as usize;
        let err = Checkpoint::from_bytes(&bytes[..keep]).unwrap_err();
        prop_assert!(matches!(err, CheckpointError::Json(_)), "{err}");
    }

    /// Flipping one bit anywhere in the bytes must never panic: the result
    /// is either a clean [`CheckpointError`] or — when the flip lands in a
    /// numeric literal and stays parseable — a checkpoint that still passes
    /// the shape/finiteness validation.
    #[test]
    fn single_bit_flips_never_panic(pos in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = Checkpoint::capture(&solver_after(12, 8, 1, true)).to_bytes().unwrap();
        let idx = ((bytes.len() - 1) as f64 * pos) as usize;
        bytes[idx] ^= 1 << bit;
        if let Ok(cp) = Checkpoint::from_bytes(&bytes) {
            // validation let it through: it must still restore to a
            // finite, well-shaped solver
            let s = cp.restore();
            prop_assert!(s.field.q.iter().all(|p| p.all_finite()));
        }
    }
}

#[test]
fn foreign_format_version_is_rejected() {
    let mut cp = Checkpoint::capture(&solver_after(12, 8, 0, false));
    cp.format = FORMAT + 1;
    let bytes = cp.to_bytes().unwrap();
    let err = Checkpoint::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, CheckpointError::BadFormat(v) if v == FORMAT + 1), "{err}");
}

#[test]
fn non_finite_state_is_rejected() {
    let mut cp = Checkpoint::capture(&solver_after(12, 8, 0, false));
    cp.q[0].set(1, 1, f64::NAN);
    let bytes = cp.to_bytes().unwrap();
    // NaN serializes to JSON null, which refuses to parse back as a number
    // — so the rejection arrives as a Json error before the finiteness
    // validation even runs. Either way, the bytes must not restore.
    let err = Checkpoint::from_bytes(&bytes).unwrap_err();
    assert!(matches!(err, CheckpointError::Json(_) | CheckpointError::Corrupt(_)), "{err}");
}

/// A patch width whose ghosted width overflows `usize`.
#[test]
fn overflowing_patch_width_is_rejected() {
    let err = Checkpoint::from_bytes(&with_field("nxl", &u64::MAX.to_string())).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
}

/// A patch that starts past the end of its grid (`nx` = 12).
#[test]
fn patch_outside_its_grid_is_rejected() {
    let err = Checkpoint::from_bytes(&with_field("i0", "1000")).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
}

/// A plane whose `data` is one value short of `ni × nj`.
#[test]
fn short_plane_data_is_rejected() {
    let bytes = valid_bytes();
    let pat = b"\"data\":[";
    let start = bytes.windows(pat.len()).position(|w| w == pat).unwrap() + pat.len();
    let end = start + bytes[start..].iter().position(|&b| b == b']').unwrap();
    let last_comma = start + bytes[start..end].iter().rposition(|&b| b == b',').unwrap();
    let short = [&bytes[..last_comma], &bytes[end..]].concat();
    let err = Checkpoint::from_bytes(&short).unwrap_err();
    assert!(matches!(err, CheckpointError::Corrupt(_)), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes are refused or restore to a solver that steps.
    #[test]
    fn arbitrary_bytes_never_panic(raw in prop::collection::vec(0u8..=255, 0..512)) {
        admitted_restores_and_steps(&raw);
    }

    /// Any one numeric field of a valid checkpoint (configuration, clock,
    /// ledger, patch, plane shapes) set to any literal: refused, or a
    /// checkpoint that restores to a solver that steps.
    #[test]
    fn edited_numeric_fields_never_panic(pick in 0usize..10_000, kind in 0u8..6, v in 0u64..u64::MAX) {
        let bytes = valid_bytes();
        let fields = numeric_fields(&bytes);
        admitted_restores_and_steps(&splice(&bytes, fields[pick % fields.len()].clone(), &literal(kind, v)));
    }
}
