//! Shared support for the ns-bench benchmark binaries.
//!
//! The criterion-style benches print human-readable `bench ...` lines; this
//! module adds the machine-readable side: a small median-of-samples timing
//! harness ([`MedianBench`]) whose results are merged into a committed JSON
//! file (`BENCH_kernels.json` at the repository root) so the kernel ladder's
//! performance trajectory can be tracked across commits and rendered by
//! `jetns bench-report` (the Figure 2 analogue for this machine).
//!
//! Protocol: each bench binary measures its groups, then calls
//! [`MedianBench::write_merged`], which replaces exactly the groups it owns
//! in the existing file and leaves every other binary's groups untouched.
//! Setting `NS_BENCH_QUICK` (any value) switches to a short measurement
//! budget for CI smoke runs; the file records which mode produced it.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Schema tag written into the JSON file.
pub const SCHEMA: &str = "ns-bench/kernels/v1";

/// One measured data point: the median wall-clock cost of an operation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Benchmark group, e.g. `prims_flux_sweep`.
    pub group: String,
    /// Point id within the group, e.g. `V6/125x50`.
    pub id: String,
    /// Median nanoseconds per iteration across the timed samples.
    pub median_ns: f64,
    /// Iterations folded into each timed sample.
    pub iters: u64,
    /// Number of timed samples the median is taken over.
    pub samples: u64,
    /// Floating-point operations per iteration (from the
    /// `ns_core::opcount::FlopLedger` model), when the operation has a
    /// defined flop count.
    pub flops: Option<f64>,
    /// `flops / median seconds`, in MFLOPS, when `flops` is known.
    pub mflops: Option<f64>,
}

/// The on-disk shape of `BENCH_kernels.json`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BenchFile {
    /// Schema tag ([`SCHEMA`]).
    pub schema: String,
    /// True when the last writer ran in `NS_BENCH_QUICK` mode (short budget,
    /// noisier medians — CI smoke artifacts, not trajectory points).
    pub quick: bool,
    /// Vector ISA the last writer's V7 sweep ran on ([`ns_core::soa::isa`]):
    /// a kernel number means little without it. Empty in files written
    /// before the field existed.
    #[serde(default)]
    pub isa: String,
    /// All recorded points, grouped by `group` in insertion order.
    pub records: Vec<BenchRecord>,
}

/// Where bench results go: `NS_BENCH_OUT` if set, else `BENCH_kernels.json`
/// at the workspace root.
pub fn output_path() -> PathBuf {
    match std::env::var_os("NS_BENCH_OUT") {
        Some(p) => PathBuf::from(p),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json"),
    }
}

/// Median of a sample set (mean of the middle pair for even counts).
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        0.5 * (samples[n / 2 - 1] + samples[n / 2])
    }
}

/// Fewest iterations folded into one timed sample.
const MIN_ITERS: u64 = 8;

/// One member of a [`MedianBench::measure_interleaved`] group.
pub struct GroupItem<'a> {
    /// Point id within the group, e.g. `V6`.
    pub id: String,
    /// Flops per iteration for MFLOPS derivation, if modeled.
    pub flops: Option<f64>,
    /// The operation under test.
    pub f: Box<dyn FnMut() + 'a>,
}

/// A median-of-samples timing harness that accumulates [`BenchRecord`]s.
///
/// Unlike the criterion shim (single budget, mean-only, print-only), this
/// times a fixed number of multi-iteration samples and keeps the median —
/// robust to the occasional descheduling blip — and remembers the numbers
/// so they can be written to the JSON trajectory file.
pub struct MedianBench {
    quick: bool,
    records: Vec<BenchRecord>,
}

impl MedianBench {
    /// Build a harness, reading `NS_BENCH_QUICK` from the environment.
    pub fn from_env() -> Self {
        Self { quick: std::env::var_os("NS_BENCH_QUICK").is_some(), records: Vec::new() }
    }

    /// Build a harness with an explicit mode (tests).
    pub fn with_mode(quick: bool) -> Self {
        Self { quick, records: Vec::new() }
    }

    /// Is the short CI measurement budget active?
    pub fn quick(&self) -> bool {
        self.quick
    }

    /// Records accumulated so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    fn budget(&self) -> (Duration, u64) {
        if self.quick {
            (Duration::from_millis(2), 5)
        } else {
            (Duration::from_millis(10), 21)
        }
    }

    /// Warm up and calibrate: double the batch size until one batch costs
    /// at least a quarter of the per-sample target. A batch is never under
    /// [`MIN_ITERS`]: an interleaved group hands each member the caches the
    /// previous member left, and with one whole 250x100 solver step per
    /// sample that cold start was a fifth of the V1 median.
    fn calibrate(f: &mut dyn FnMut(), sample_target: Duration) -> u64 {
        f();
        let mut iters = MIN_ITERS;
        loop {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            if t0.elapsed() * 4 >= sample_target || iters >= 1 << 20 {
                return iters;
            }
            iters *= 2;
        }
    }

    fn push_record(&mut self, group: &str, id: &str, median_ns: f64, iters: u64, nsamples: u64, flops: Option<f64>) {
        let mflops = flops.map(|fl| fl / (median_ns * 1e-9) / 1e6);
        let tag = format!("{group}/{id}");
        match mflops {
            Some(m) => println!("json-bench {tag:<44} {median_ns:>14.1} ns/iter  {m:>9.1} MFLOPS"),
            None => println!("json-bench {tag:<44} {median_ns:>14.1} ns/iter"),
        }
        self.records.push(BenchRecord {
            group: group.to_string(),
            id: id.to_string(),
            median_ns,
            iters,
            samples: nsamples,
            flops,
            mflops,
        });
    }

    /// Time `f`, record the median ns/iteration under `group`/`id`, and
    /// return it. `flops` is the per-iteration flop count used to derive
    /// MFLOPS (pass `None` for operations without a flop model).
    pub fn measure<F: FnMut()>(&mut self, group: &str, id: &str, flops: Option<f64>, mut f: F) -> f64 {
        let (sample_target, nsamples) = self.budget();
        let iters = Self::calibrate(&mut f, sample_target);
        let mut samples = Vec::with_capacity(nsamples as usize);
        for _ in 0..nsamples {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            samples.push(t0.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
        let median_ns = median(&mut samples);
        self.push_record(group, id, median_ns, iters, nsamples, flops);
        median_ns
    }

    /// Measure several operations as one paired experiment: every sample
    /// round times each member once, cycling through them, so slow drift
    /// (CPU frequency, thermal, a noisy neighbor) lands on all members
    /// equally instead of biasing whichever happened to run last. This is
    /// what makes small (few-percent) deltas between ladder versions
    /// trustworthy. Records land in item order.
    pub fn measure_interleaved(&mut self, group: &str, items: &mut [GroupItem<'_>]) {
        let (sample_target, nsamples) = self.budget();
        let iters: Vec<u64> = items.iter_mut().map(|it| Self::calibrate(&mut it.f, sample_target)).collect();
        let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(nsamples as usize); items.len()];
        for _ in 0..nsamples {
            for (k, it) in items.iter_mut().enumerate() {
                let t0 = Instant::now();
                for _ in 0..iters[k] {
                    (it.f)();
                }
                samples[k].push(t0.elapsed().as_secs_f64() * 1e9 / iters[k] as f64);
            }
        }
        for (k, it) in items.iter().enumerate() {
            let median_ns = median(&mut samples[k]);
            self.push_record(group, &it.id, median_ns, iters[k], nsamples, it.flops);
        }
    }

    /// Merge these records into the JSON file at `path`: groups measured by
    /// this harness replace their previous contents wholesale; groups owned
    /// by other bench binaries are preserved. A missing file starts fresh;
    /// an unreadable, unparsable, or foreign-schema file is an error — the
    /// committed trajectory must never be clobbered because of a typo'd
    /// path or a half-written file.
    pub fn write_merged(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::{Error, ErrorKind};
        let mine: std::collections::BTreeSet<&str> = self.records.iter().map(|r| r.group.as_str()).collect();
        let existing = match std::fs::read_to_string(path) {
            Ok(text) => {
                let file: BenchFile = serde_json::from_str(&text).map_err(|e| {
                    Error::new(
                        ErrorKind::InvalidData,
                        format!("{}: not a bench file ({e}); refusing to overwrite", path.display()),
                    )
                })?;
                if file.schema != SCHEMA {
                    return Err(Error::new(
                        ErrorKind::InvalidData,
                        format!("{}: schema `{}` != `{SCHEMA}`; refusing to overwrite", path.display(), file.schema),
                    ));
                }
                file.records
            }
            Err(e) if e.kind() == ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let mut records: Vec<BenchRecord> = existing.into_iter().filter(|r| !mine.contains(r.group.as_str())).collect();
        records.extend(self.records.iter().cloned());
        let file =
            BenchFile { schema: SCHEMA.to_string(), quick: self.quick, isa: ns_core::soa::isa().to_string(), records };
        let mut text = serde_json::to_string_pretty(&file).expect("bench file serializes");
        text.push('\n');
        std::fs::write(path, text)?;
        println!("json-bench wrote {}", path.display());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_robust_to_outliers() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [1.0, 2.0, 3.0, 1000.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn measure_records_positive_time_and_mflops() {
        let mut h = MedianBench::with_mode(true);
        let mut acc = 0.0f64;
        let ns = h.measure("unit", "spin", Some(64.0), || {
            for k in 0..64 {
                acc += (k as f64).sqrt();
            }
            std::hint::black_box(acc);
        });
        assert!(ns > 0.0);
        let r = &h.records()[0];
        assert_eq!((r.group.as_str(), r.id.as_str()), ("unit", "spin"));
        assert_eq!(r.median_ns, ns);
        let m = r.mflops.unwrap();
        assert!((m - 64.0 / (ns * 1e-9) / 1e6).abs() < 1e-9);
    }

    #[test]
    fn write_merged_replaces_own_groups_and_keeps_others() {
        let dir = std::env::temp_dir().join(format!("ns-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_kernels.json");

        let mut a = MedianBench::with_mode(true);
        a.measure("alpha", "x", None, || {
            std::hint::black_box(1u64);
        });
        a.measure("beta", "y", None, || {
            std::hint::black_box(2u64);
        });
        a.write_merged(&path).unwrap();

        // A second harness re-measures `alpha` only: `beta` must survive,
        // and `alpha` must be replaced (one record, the new id).
        let mut b = MedianBench::with_mode(true);
        b.measure("alpha", "z", None, || {
            std::hint::black_box(3u64);
        });
        b.write_merged(&path).unwrap();

        let file: BenchFile = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(file.schema, SCHEMA);
        assert!(file.quick);
        assert_eq!(file.isa, ns_core::soa::isa());
        let alphas: Vec<_> = file.records.iter().filter(|r| r.group == "alpha").collect();
        assert_eq!(alphas.len(), 1);
        assert_eq!(alphas[0].id, "z");
        assert!(file.records.iter().any(|r| r.group == "beta" && r.id == "y"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_merged_refuses_to_clobber_a_foreign_file() {
        let dir = std::env::temp_dir().join(format!("ns-bench-foreign-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut h = MedianBench::with_mode(true);
        h.measure("alpha", "x", None, || {
            std::hint::black_box(1u64);
        });

        // not JSON at all
        let garbled = dir.join("garbled.json");
        std::fs::write(&garbled, "not json {").unwrap();
        assert!(h.write_merged(&garbled).is_err());
        assert_eq!(std::fs::read_to_string(&garbled).unwrap(), "not json {", "file left untouched");

        // valid JSON, wrong schema
        let foreign = dir.join("foreign.json");
        std::fs::write(&foreign, r#"{"schema": "someone-elses/v9", "quick": false, "records": []}"#).unwrap();
        let err = h.write_merged(&foreign).unwrap_err();
        assert!(err.to_string().contains("schema"), "{err}");

        // a missing file is fine: first write creates it
        let fresh = dir.join("fresh.json");
        h.write_merged(&fresh).unwrap();
        assert!(fresh.exists());

        // so is a v1 file from before the `isa` field: merged, and stamped
        let old = dir.join("old.json");
        std::fs::write(&old, format!(r#"{{"schema": "{SCHEMA}", "quick": false, "records": []}}"#)).unwrap();
        h.write_merged(&old).unwrap();
        let file: BenchFile = serde_json::from_str(&std::fs::read_to_string(&old).unwrap()).unwrap();
        assert_eq!((file.isa.as_str(), file.records.len()), (ns_core::soa::isa(), 1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
