//! Figure 2 analogue from *measured* data: render the V1→V7 kernel ladder
//! recorded in `BENCH_kernels.json` (written by the ns-bench binaries) as an
//! ASCII MFLOPS bar chart, plus a table of the runtime-primitive medians.
//!
//! The simulated ladder ([`crate::fig_versions::simulated_1995`]) shows the
//! calibrated 1995 machine; this report shows the same sweep measured on the
//! present host, so the committed JSON becomes a perf trajectory the repo
//! can track across commits.

use serde::Deserialize;
use std::collections::BTreeMap;

/// One benchmark point (the subset of the ns-bench record this report uses).
#[derive(Clone, Debug, Deserialize)]
pub struct BenchPoint {
    /// Group name, e.g. `prims_flux_sweep/125x50`.
    pub group: String,
    /// Point id within the group, e.g. `V6`.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Derived MFLOPS, when the point has a flop model.
    pub mflops: Option<f64>,
}

/// Parsed contents of `BENCH_kernels.json`.
#[derive(Clone, Debug, Deserialize)]
pub struct BenchData {
    /// Schema tag (`ns-bench/kernels/v1`).
    pub schema: String,
    /// True when the file came from an `NS_BENCH_QUICK` smoke run.
    pub quick: bool,
    /// Vector ISA the V7 sweep ran on (`ns_core::soa::isa`); empty in files
    /// written before the field existed.
    #[serde(default)]
    pub isa: String,
    /// All recorded points.
    pub records: Vec<BenchPoint>,
}

/// The file's ISA as shown to a reader.
fn isa_label(isa: &str) -> &str {
    if isa.is_empty() {
        "not recorded"
    } else {
        isa
    }
}

/// Group prefixes that form a version ladder, with what each one times.
const LADDERS: [(&str, &str); 2] = [("prims_flux_sweep/", "prims+flux sweep"), ("whole_step/", "whole solver step")];

/// Split a ladder group into (what it times, grid).
fn ladder_of(group: &str) -> Option<(&'static str, &str)> {
    LADDERS.iter().find_map(|&(prefix, what)| group.strip_prefix(prefix).map(|grid| (what, grid)))
}

/// Parse the JSON text of `BENCH_kernels.json`.
pub fn parse(json: &str) -> Result<BenchData, String> {
    let data: BenchData = serde_json::from_str(json).map_err(|e| format!("BENCH_kernels.json: {e}"))?;
    if !data.schema.starts_with("ns-bench/kernels/") {
        return Err(format!("unexpected schema `{}`", data.schema));
    }
    Ok(data)
}

/// Render the ladder chart and primitive table.
pub fn render(data: &BenchData) -> String {
    let mut out = format!("measured on isa: {}\n", isa_label(&data.isa));
    if data.quick {
        out.push_str("(NS_BENCH_QUICK smoke run: short budget, medians are noisy)\n");
    }
    out.push('\n');

    // Ladder groups, one block per grid size, versions in id order.
    let mut ladders: BTreeMap<(&str, &str), Vec<&BenchPoint>> = BTreeMap::new();
    for p in &data.records {
        if let Some(key) = ladder_of(&p.group) {
            ladders.entry(key).or_default().push(p);
        }
    }
    for ((what, grid), mut pts) in ladders {
        pts.sort_by(|a, b| a.id.cmp(&b.id));
        out.push_str(&format!("Figure 2 (measured host): {what}, grid {grid}\n"));
        let vmax = pts.iter().filter_map(|p| p.mflops).fold(0.0f64, f64::max).max(1e-9);
        let v5 = pts.iter().find(|p| p.id == "V5").and_then(|p| p.mflops);
        let v6 = pts.iter().find(|p| p.id == "V6").and_then(|p| p.mflops);
        for p in &pts {
            let m = p.mflops.unwrap_or(0.0);
            let bar = "#".repeat(((m / vmax) * 40.0).round() as usize);
            // The rungs past the paper's ladder, each against the one before
            // it. V7 differs from V6 only in where the update runs, so the
            // plane-sweep ladder ends at V6 and V7 shows on the whole step.
            let vs_prev = match (p.id.as_str(), v5, v6) {
                ("V6", Some(base), _) if base > 0.0 => format!("  ({:.2}x over V5)", m / base),
                ("V7", _, Some(base)) if base > 0.0 => format!("  ({:.2}x over V6)", m / base),
                _ => String::new(),
            };
            let ms = p.median_ns * 1e-6;
            out.push_str(&format!("  {:<4} {:>9.1} MFLOPS {ms:>8.3} ms |{bar}{vs_prev}\n", p.id, m));
        }
        out.push('\n');
    }
    if !out.contains("Figure 2") {
        out.push_str("no version ladder in file (run the solver_kernels bench)\n\n");
    }

    // Everything else: median-ns table.
    let rest: Vec<&BenchPoint> = data.records.iter().filter(|p| ladder_of(&p.group).is_none()).collect();
    if !rest.is_empty() {
        out.push_str("runtime primitives (median ns/op)\n");
        for p in rest {
            out.push_str(&format!("  {:<28} {:>12.1}\n", format!("{}/{}", p.group, p.id), p.median_ns));
        }
    }
    out
}

/// One point of a baseline-vs-candidate comparison.
#[derive(Clone, Debug)]
pub struct CompareRow {
    /// `group/id` key the point was matched on.
    pub key: String,
    /// Baseline median, ns/op.
    pub baseline_ns: f64,
    /// Candidate median, ns/op.
    pub candidate_ns: f64,
    /// candidate / baseline (> 1 means slower).
    pub ratio: f64,
    /// Ratio exceeded the tolerance.
    pub regressed: bool,
}

/// Outcome of [`compare`]: every baseline point matched against the
/// candidate file.
#[derive(Clone, Debug)]
pub struct BenchCompare {
    /// Slowdown factor a point may reach before it counts as a regression.
    pub tolerance: f64,
    /// `(baseline, candidate)` ISA tags; when they differ the ratios compare
    /// vector units as well as code, which the report says.
    pub isa: (String, String),
    /// Matched points, file order.
    pub rows: Vec<CompareRow>,
    /// Baseline keys the candidate file lacks (a silently dropped bench
    /// must fail the gate, not pass it).
    pub missing: Vec<String>,
    /// Baseline groups absent from a *quick* candidate wholesale: the
    /// short CI budget deliberately skips the large-grid ladders, so their
    /// absence is reported but does not fail the gate.
    pub skipped_groups: Vec<String>,
}

impl BenchCompare {
    /// Points slower than `tolerance × baseline`.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    /// The gate: no regressions and no dropped points.
    pub fn pass(&self) -> bool {
        self.regressions() == 0 && self.missing.is_empty()
    }
}

/// Compare a candidate bench file against the committed baseline, matching
/// points by `group/id`. The tolerance is a *ratio*, not a percentage,
/// because the expected use is a quick-mode CI run (short budget, noisy
/// medians, possibly a slower shared runner) against a committed full-mode
/// baseline: ~3x absorbs that noise while still catching an accidental
/// order-of-magnitude regression. Candidate-only points (new benches) are
/// ignored — they have no baseline to regress from.
pub fn compare(baseline: &BenchData, candidate: &BenchData, tolerance: f64) -> BenchCompare {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    let mut skipped_groups = Vec::new();
    let candidate_groups: std::collections::BTreeSet<&str> =
        candidate.records.iter().map(|c| c.group.as_str()).collect();
    for b in &baseline.records {
        let key = format!("{}/{}", b.group, b.id);
        if candidate.quick && !candidate_groups.contains(b.group.as_str()) {
            if !skipped_groups.contains(&b.group) {
                skipped_groups.push(b.group.clone());
            }
            continue;
        }
        match candidate.records.iter().find(|c| c.group == b.group && c.id == b.id) {
            Some(c) => {
                let ratio = if b.median_ns > 0.0 { c.median_ns / b.median_ns } else { f64::INFINITY };
                rows.push(CompareRow {
                    key,
                    baseline_ns: b.median_ns,
                    candidate_ns: c.median_ns,
                    ratio,
                    regressed: ratio > tolerance,
                });
            }
            None => missing.push(key),
        }
    }
    BenchCompare { tolerance, isa: (baseline.isa.clone(), candidate.isa.clone()), rows, missing, skipped_groups }
}

/// Render the comparison table.
pub fn render_compare(cmp: &BenchCompare) -> String {
    let mut out = String::new();
    out.push_str(&format!("bench regression gate (tolerance {:.1}x)\n", cmp.tolerance));
    let (base_isa, cand_isa) = (isa_label(&cmp.isa.0), isa_label(&cmp.isa.1));
    if base_isa == cand_isa {
        out.push_str(&format!("  isa: {cand_isa}\n"));
    } else {
        out.push_str(&format!(
            "  WARNING: baseline isa `{base_isa}` != candidate isa `{cand_isa}`: the ratios below compare vector units as well as code\n"
        ));
    }
    out.push_str(&format!("  {:<34} {:>12} {:>12} {:>7}\n", "point", "baseline ns", "candidate ns", "ratio"));
    for r in &cmp.rows {
        out.push_str(&format!(
            "  {:<34} {:>12.1} {:>12.1} {:>6.2}x{}\n",
            r.key,
            r.baseline_ns,
            r.candidate_ns,
            r.ratio,
            if r.regressed { "  REGRESSED" } else { "" }
        ));
    }
    for key in &cmp.missing {
        out.push_str(&format!("  {key:<34} MISSING from candidate\n"));
    }
    for group in &cmp.skipped_groups {
        out.push_str(&format!("  {group:<34} skipped (group absent from quick candidate)\n"));
    }
    out.push_str(&format!(
        "{} points, {} regressions, {} missing: {}\n",
        cmp.rows.len(),
        cmp.regressions(),
        cmp.missing.len(),
        if cmp.pass() { "pass" } else { "FAIL" }
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> &'static str {
        r#"{
  "schema": "ns-bench/kernels/v1",
  "quick": false,
  "isa": "x86_64+avx2",
  "records": [
    {"group": "prims_flux_sweep/125x50", "id": "V1", "median_ns": 120000.0, "iters": 8, "samples": 15, "flops": 425000.0, "mflops": 3540.0},
    {"group": "prims_flux_sweep/125x50", "id": "V5", "median_ns": 70000.0, "iters": 8, "samples": 15, "flops": 425000.0, "mflops": 6071.0},
    {"group": "prims_flux_sweep/125x50", "id": "V6", "median_ns": 65000.0, "iters": 8, "samples": 15, "flops": 425000.0, "mflops": 6538.0},
    {"group": "pack_f64", "id": "800", "median_ns": 350.5, "iters": 64, "samples": 15, "flops": null, "mflops": null},
    {"group": "whole_step/250x100", "id": "V6", "median_ns": 1900000.0, "iters": 4, "samples": 15, "flops": 9606900.0, "mflops": 5056.3},
    {"group": "whole_step/250x100", "id": "V7", "median_ns": 1500000.0, "iters": 4, "samples": 15, "flops": 9606900.0, "mflops": 6404.6}
  ]
}"#
    }

    #[test]
    fn parses_and_renders_ladder_with_rung_speedups() {
        let data = parse(sample()).unwrap();
        assert_eq!(data.records.len(), 6);
        let text = render(&data);
        assert!(text.contains("prims+flux sweep, grid 125x50"), "{text}");
        // the whole-step group is a ladder too, quoted in ms/step
        assert!(text.contains("whole solver step, grid 250x100"), "{text}");
        assert!(text.contains("1.500 ms"), "{text}");
        assert!(text.contains("V6"), "{text}");
        // each new rung is annotated against its predecessor: V6 on both
        // ladders, V7 on the whole step only (a plane sweep has no V7 row)
        assert!(text.contains("x over V5"), "{text}");
        assert_eq!(text.matches("x over V6").count(), 1, "{text}");
        // the longest bar belongs to the fastest version
        let v7_line = text.lines().find(|l| l.trim_start().starts_with("V7")).unwrap();
        assert!(v7_line.matches('#').count() == 40, "{v7_line}");
        // runtime primitives table included
        assert!(text.contains("pack_f64/800"), "{text}");
        // the header says which vector unit produced the numbers; a file
        // from before the field existed still parses and says so
        assert!(text.starts_with("measured on isa: x86_64+avx2\n"), "{text}");
        let old = parse(&sample().replace("  \"isa\": \"x86_64+avx2\",\n", "")).unwrap();
        assert!(render(&old).starts_with("measured on isa: not recorded\n"));
    }

    #[test]
    fn rejects_foreign_schema() {
        assert!(parse(r#"{"schema": "other", "quick": false, "records": []}"#).is_err());
    }

    #[test]
    fn quick_files_are_flagged() {
        let data = parse(&sample().replace("\"quick\": false", "\"quick\": true")).unwrap();
        assert!(render(&data).contains("NS_BENCH_QUICK"));
    }

    #[test]
    fn compare_flags_regressions_and_dropped_points_but_not_noise() {
        let baseline = parse(sample()).unwrap();
        // candidate: V1 within tolerance (2x), V5 regressed (4x), pack_f64
        // dropped, V6 unchanged
        let mut candidate = baseline.clone();
        candidate.records[0].median_ns *= 2.0;
        candidate.records[1].median_ns *= 4.0;
        candidate.records.retain(|p| p.group != "pack_f64");
        let cmp = compare(&baseline, &candidate, 3.0);
        assert_eq!(cmp.regressions(), 1);
        assert_eq!(cmp.missing, vec!["pack_f64/800".to_string()]);
        assert!(!cmp.pass());
        // the same wholesale group absence in a *quick* candidate is a skip
        candidate.quick = true;
        let cmp_quick = compare(&baseline, &candidate, 5.0);
        assert!(cmp_quick.missing.is_empty());
        assert_eq!(cmp_quick.skipped_groups, vec!["pack_f64".to_string()]);
        assert!(cmp_quick.pass());
        assert!(render_compare(&cmp_quick).contains("skipped"));
        candidate.quick = false;
        let text = render_compare(&cmp);
        assert!(text.contains("REGRESSED"), "{text}");
        assert!(text.contains("MISSING"), "{text}");
        assert!(text.contains("FAIL"), "{text}");
        // the same candidate with everything restored passes
        let cmp = compare(&baseline, &baseline, 3.0);
        assert!(cmp.pass());
        assert!(render_compare(&cmp).contains("pass"));
        assert!(render_compare(&cmp).contains("  isa: x86_64+avx2\n"));
        // a candidate from another vector unit is compared, but flagged
        let mut sse2 = baseline.clone();
        sse2.isa = "x86_64".into();
        let text = render_compare(&compare(&baseline, &sse2, 3.0));
        assert!(text.contains("WARNING: baseline isa `x86_64+avx2` != candidate isa `x86_64`"), "{text}");
        // a candidate-only point is no failure: new benches have no baseline
        let mut grown = baseline.clone();
        grown.records.push(BenchPoint {
            group: "metrics_overhead".into(),
            id: "counter_inc".into(),
            median_ns: 1.0,
            mflops: None,
        });
        assert!(compare(&baseline, &grown, 3.0).pass());
    }
}
