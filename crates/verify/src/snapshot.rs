//! Compact field snapshots and the committed golden file.
//!
//! A [`FieldSnapshot`] is an FNV-1a 64-bit hash over the exact bit patterns
//! of every interior value (so any single-ulp change flips it) plus
//! per-component RMS/max norms (so a mismatch is triaged at a glance:
//! hash-only differences are rounding-level, norm differences are real).
//!
//! Golden policy (`DESIGN.md` §11): the committed `GOLDEN_verify.json` pins
//! the serial V5 reference state per regime for the oracle's fixed
//! configuration. Bit-exactness of `f64` arithmetic is guaranteed by IEEE
//! 754 for `+ - * /` and `sqrt`, but the transcendental functions used by
//! the jet profile and gas model (`exp`, `tanh`, `powf`) come from the
//! platform libm, so golden hashes are stable per platform/toolchain, not
//! universally. When a *deliberate* numerics change or a toolchain move
//! shifts them, regenerate with `jetns verify --bless` and commit the diff
//! alongside an explanation; the norms in the file bound how large the
//! shift was.

use std::collections::BTreeMap;

use ns_core::Field;
use serde::{Deserialize, Serialize};

/// Schema version of the golden file.
pub const SCHEMA: u32 = 1;

/// FNV-1a 64-bit offset basis: the `h` a fresh hash starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a 64-bit hash state `h`. The one plain FNV in
/// the workspace: field fingerprints and the serve cache keys both run it.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash over the interior values' bit patterns, in component
///-major, then row-major (axial-outer) order.
pub fn field_hash(field: &Field) -> u64 {
    let mut h = FNV_OFFSET;
    for c in 0..4 {
        for i in 0..field.nxl() {
            for j in 0..field.nr() {
                h = fnv1a(h, &field.at(c, i as isize, j as isize).to_bits().to_le_bytes());
            }
        }
    }
    h
}

/// The canonical textual form of a field fingerprint — the 16-hex-digit
/// encoding the golden file stores and every cross-checker (the oracle,
/// the serve cache-correctness check) must compare with. One definition so
/// the formats cannot drift apart.
pub fn hash_hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Compact summary of one field: bit-exact hash plus per-component norms.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FieldSnapshot {
    /// FNV-1a 64 over the interior bit patterns, as 16 hex digits.
    pub hash: String,
    /// Per-component RMS of the (r-weighted) conservative variables.
    pub l2: [f64; 4],
    /// Per-component max-norm.
    pub linf: [f64; 4],
}

/// Snapshot a field.
pub fn of(field: &Field) -> FieldSnapshot {
    let mut l2 = [0.0f64; 4];
    let mut linf = [0.0f64; 4];
    let n = (field.nxl() * field.nr()) as f64;
    for c in 0..4 {
        let mut ss = 0.0;
        for i in 0..field.nxl() {
            for j in 0..field.nr() {
                let v = field.at(c, i as isize, j as isize);
                ss += v * v;
                linf[c] = linf[c].max(v.abs());
            }
        }
        l2[c] = (ss / n).sqrt();
    }
    FieldSnapshot { hash: hash_hex(field_hash(field)), l2, linf }
}

/// The committed golden-snapshot file.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GoldenFile {
    /// Schema version.
    pub schema: u32,
    /// Oracle grid (nx, nr) the snapshots were taken on.
    pub grid: [usize; 2],
    /// Steps advanced before snapshotting.
    pub steps: u64,
    /// Reference snapshots by key (e.g. `"euler/serial/V5"`).
    pub entries: BTreeMap<String, FieldSnapshot>,
}

/// Outcome of diffing freshly computed snapshots against the golden file.
#[derive(Clone, Debug, Serialize)]
pub struct GoldenDiff {
    /// Number of golden entries checked.
    pub checked: usize,
    /// Human-readable mismatch descriptions (empty on success).
    pub mismatches: Vec<String>,
    /// Verdict.
    pub pass: bool,
}

impl GoldenFile {
    /// Load from disk, refusing a file whose schema version is not exactly
    /// [`SCHEMA`] — a version bump means the layout changed, and silently
    /// diffing against it would produce nonsense mismatch reports.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        let golden: Self = serde_json::from_str(&text).map_err(|e| format!("parse {path}: {e}"))?;
        if golden.schema != SCHEMA {
            return Err(format!("{path}: golden schema {} != supported {SCHEMA}", golden.schema));
        }
        Ok(golden)
    }

    /// Write to disk (pretty-printed, stable key order via `BTreeMap`).
    pub fn save(&self, path: &str) -> Result<(), String> {
        let text = serde_json::to_string_pretty(self).map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(path, text + "\n").map_err(|e| format!("write {path}: {e}"))
    }

    /// Compare this (committed) golden file against freshly computed
    /// snapshots. Every golden entry must be present and hash-identical;
    /// keys the fresh run produced that the golden file lacks are also
    /// mismatches (they mean the matrix grew — re-bless deliberately).
    pub fn diff(&self, current: &GoldenFile) -> GoldenDiff {
        let mut mismatches = Vec::new();
        if self.schema != current.schema {
            mismatches.push(format!("schema {} vs current {}", self.schema, current.schema));
        }
        if self.grid != current.grid || self.steps != current.steps {
            mismatches.push(format!(
                "oracle configuration changed: golden {:?}x{} steps, current {:?}x{} steps",
                self.grid, self.steps, current.grid, current.steps
            ));
        }
        for (key, want) in &self.entries {
            match current.entries.get(key) {
                None => mismatches.push(format!("{key}: missing from current run")),
                Some(got) if got.hash != want.hash => mismatches.push(format!(
                    "{key}: hash {} != golden {} (linf {:?} vs {:?})",
                    got.hash, want.hash, got.linf, want.linf
                )),
                Some(_) => {}
            }
        }
        for key in current.entries.keys() {
            if !self.entries.contains_key(key) {
                mismatches.push(format!("{key}: not in golden file (run --bless to adopt)"));
            }
        }
        GoldenDiff { checked: self.entries.len(), pass: mismatches.is_empty(), mismatches }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_core::field::Patch;
    use ns_core::Field;
    use ns_numerics::gas::Primitive;
    use ns_numerics::{GasModel, Grid};

    fn sample_field() -> Field {
        let gas = GasModel::air(1.2e6, 1.5);
        Field::from_primitives(Patch::whole(Grid::small()), &gas, |x, r| Primitive {
            rho: 1.0 + 0.01 * (0.3 * x).sin(),
            u: 0.5 + 0.05 * (0.2 * r).cos(),
            v: 0.01 * r,
            p: gas.pressure(1.0, 1.0),
        })
    }

    #[test]
    fn hash_is_sensitive_to_one_ulp() {
        let a = sample_field();
        let mut b = a.clone();
        let v = b.at(2, 7, 3);
        b.set(2, 7, 3, f64::from_bits(v.to_bits() ^ 1));
        assert_ne!(field_hash(&a), field_hash(&b), "a single-ulp flip must change the hash");
        assert_eq!(field_hash(&a), field_hash(&a.clone()), "hash must be deterministic");
    }

    #[test]
    fn golden_roundtrip_and_diff() {
        let snap = of(&sample_field());
        let mut entries = BTreeMap::new();
        entries.insert("euler/serial/V5".to_string(), snap.clone());
        let golden = GoldenFile { schema: SCHEMA, grid: [50, 20], steps: 4, entries };
        let text = serde_json::to_string_pretty(&golden).unwrap();
        let back: GoldenFile = serde_json::from_str(&text).unwrap();
        assert_eq!(golden, back, "golden file must round-trip through JSON");
        assert!(golden.diff(&back).pass);

        // a perturbed entry must be flagged
        let mut other = golden.clone();
        other.entries.get_mut("euler/serial/V5").unwrap().hash = "deadbeefdeadbeef".into();
        let d = golden.diff(&other);
        assert!(!d.pass && d.mismatches.len() == 1);

        // an extra entry in the fresh run must be flagged too
        let mut grown = golden.clone();
        grown.entries.insert("euler/serial/V9".to_string(), snap);
        assert!(!golden.diff(&grown).pass);
    }

    #[test]
    fn load_rejects_a_foreign_schema_version() {
        let mut golden = GoldenFile { schema: SCHEMA + 1, grid: [50, 20], steps: 4, entries: BTreeMap::new() };
        let dir = std::env::temp_dir().join(format!("ns-golden-schema-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("GOLDEN_bad.json");
        let path = path.to_str().unwrap();
        golden.save(path).unwrap();
        let err = GoldenFile::load(path).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        golden.schema = SCHEMA;
        golden.save(path).unwrap();
        assert!(GoldenFile::load(path).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
