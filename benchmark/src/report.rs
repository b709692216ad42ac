//! What a run hands back: the timed samples of its reps, and named metric
//! values on their way to the result line.

use crate::spec::Spec;
use crate::stats::median;
use std::collections::BTreeMap;

/// Samples of one run's reps. A rep is set-up (inputs built, warm-up done)
/// followed by a timed region of one or more operations: time steps for
/// the solver workloads, submit→`Done` jobs for the serve workloads.
#[derive(Default)]
pub struct Reps {
    /// Set-up seconds, one per rep.
    pub setup_s: Vec<f64>,
    /// Milliseconds per operation: one sample per rep (rep wall / steps)
    /// for solver workloads, one per job for serve workloads.
    pub op_ms: Vec<f64>,
    /// Operations inside timed regions.
    pub ops: u64,
    /// Seconds inside timed regions.
    pub wall_s: f64,
    /// Operations that failed: unhealthy solver, aborted rank, any reply
    /// other than `Done`.
    pub failed: u64,
    /// Output checks made outside the timed regions.
    pub checks: u64,
    /// Output checks that failed.
    pub failed_checks: u64,
    /// `VmHWM` when the last timed region ended, before the output checks
    /// allocate their reference runs.
    pub peak_rss_mb: f64,
}

impl Reps {
    /// Operations and checks attempted.
    pub fn attempted(&self) -> u64 {
        self.ops + self.checks
    }

    /// Operations and checks failed.
    pub fn all_failed(&self) -> u64 {
        self.failed + self.failed_checks
    }

    /// The end-to-end metrics every workload reports.
    pub fn end_to_end(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put_n("setup_s", median(&self.setup_s), self.setup_s.len());
        m.put_n("op_ms_p50", median(&self.op_ms), self.op_ms.len());
        m.put_n("ops_per_s", self.ops as f64 / self.wall_s, self.ops as usize);
        m.put("peak_rss_mb", self.peak_rss_mb);
        m
    }
}

/// Named metric values; units come from `BENCHMARK.json` when printed.
#[derive(Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, Option<usize>)>,
}

impl Metrics {
    /// Record a value.
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), (value, None));
    }

    /// Record a value computed from `n` samples.
    pub fn put_n(&mut self, name: &str, value: f64, n: usize) {
        self.values.insert(name.to_string(), (value, Some(n)));
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// One `metric workload value unit [n=samples]` line per value, for
    /// people.
    pub fn print(&self, workload: &str, spec: &Spec) {
        for (name, (value, n)) in &self.values {
            let unit = spec.metric(name).map_or("?", |m| m.unit.as_str());
            let n = n.map(|n| format!(" n={n}")).unwrap_or_default();
            println!("{name} {workload} {value} {unit}{n}");
        }
    }

    /// The `metrics` object of the result line: exactly the names in
    /// `defs`, in that order. A name the run did not produce is a bug in
    /// the benchmark, reported as an error rather than a made-up number.
    pub fn result_json(&self, defs: &[crate::spec::MetricDef]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(defs.len());
        for d in defs {
            let value = self.get(&d.name).ok_or_else(|| format!("metric {} was not measured", d.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite", d.name));
            }
            parts.push(format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", d.name, d.unit));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}
