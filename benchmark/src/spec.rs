//! `BENCHMARK.json`: the metric and workload definitions, compiled into the
//! binary so the names, units and bounds it prints are exactly the
//! committed ones.

use serde::Value;

/// The committed definition file.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One workload: its name and why it is in the set.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadDef {
    /// Name, as passed to `--workload`.
    pub name: String,
    /// One line on what it stresses.
    pub why: String,
}

/// One metric definition.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The whole file.
#[derive(Clone, Debug, PartialEq)]
pub struct Spec {
    /// Program and arguments that run one workload.
    pub command: Vec<String>,
    /// Directories that hold the benchmark.
    pub paths: Vec<String>,
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// The workloads.
    pub workloads: Vec<WorkloadDef>,
    /// Metrics a user of the system would see.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of single layers.
    pub per_layer: Vec<MetricDef>,
}

/// A name starts with a letter or digit and is made of at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let body = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len()) && name.starts_with(|c: char| c.is_ascii_alphanumeric()) && name.chars().all(body)
}

/// A unit is made of at most 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn keys_are(v: &Value, ctx: &str, expected: &[&str]) -> Result<(), String> {
    let map = v.as_map().ok_or_else(|| format!("{ctx}: expected an object"))?;
    let mut got: Vec<&str> = map.iter().map(|(k, _)| k.as_str()).collect();
    let mut want = expected.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    if got == want {
        Ok(())
    } else {
        Err(format!("{ctx}: keys {got:?}, expected exactly {want:?}"))
    }
}

fn string(v: &Value, key: &str, ctx: &str) -> Result<String, String> {
    v.get(key).and_then(Value::as_str).map(str::to_string).ok_or_else(|| format!("{ctx}: `{key}` must be a string"))
}

fn strings(v: &Value, key: &str) -> Result<Vec<String>, String> {
    let seq = v.get(key).and_then(Value::as_seq).ok_or_else(|| format!("`{key}` must be a list"))?;
    seq.iter().map(|s| s.as_str().map(str::to_string).ok_or_else(|| format!("`{key}` holds a non-string"))).collect()
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(x) => Some(*x),
        _ => None,
    }
}

fn metrics(v: &Value, key: &str, bounded: bool) -> Result<Vec<MetricDef>, String> {
    let seq = v.get(key).and_then(Value::as_seq).ok_or_else(|| format!("`{key}` must be a list"))?;
    seq.iter()
        .map(|m| {
            let ctx = format!("{key} entry");
            let expected: &[&str] =
                if bounded { &["name", "unit", "better", "bound"] } else { &["name", "unit", "better"] };
            keys_are(m, &ctx, expected)?;
            let bound = match m.get("bound") {
                Some(b) => Some(number(b).ok_or_else(|| format!("{ctx}: `bound` must be a number"))?),
                None => None,
            };
            Ok(MetricDef {
                name: string(m, "name", &ctx)?,
                unit: string(m, "unit", &ctx)?,
                better: string(m, "better", &ctx)?,
                bound,
            })
        })
        .collect()
}

impl Spec {
    /// The committed `BENCHMARK.json`.
    pub fn committed() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json is valid")
    }

    /// Parse and validate a definition file against the limits its format
    /// states.
    pub fn parse(text: &str) -> Result<Spec, String> {
        if text.len() > 64 << 10 {
            return Err("file exceeds 64 KiB".into());
        }
        let v = serde_json::value_from_str(text).map_err(|e| format!("not JSON: {e}"))?;
        keys_are(&v, "top level", &["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"])?;
        let run_seconds = match v.get("run_seconds") {
            Some(Value::U64(n)) => *n,
            _ => return Err("`run_seconds` must be a whole number".into()),
        };
        let workloads = v
            .get("workloads")
            .and_then(Value::as_seq)
            .ok_or("`workloads` must be a list")?
            .iter()
            .map(|w| {
                keys_are(w, "workload", &["name", "why"])?;
                Ok(WorkloadDef { name: string(w, "name", "workload")?, why: string(w, "why", "workload")? })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let spec = Spec {
            command: strings(&v, "command")?,
            paths: strings(&v, "paths")?,
            run_seconds,
            workloads,
            end_to_end: metrics(&v, "end_to_end", true)?,
            per_layer: metrics(&v, "per_layer", false)?,
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), String> {
        let in_range = |what: &str, n: usize, lo: usize, hi: usize| {
            if (lo..=hi).contains(&n) {
                Ok(())
            } else {
                Err(format!("{n} {what}, allowed {lo} to {hi}"))
            }
        };
        in_range("command strings", self.command.len(), 1, 32)?;
        in_range("paths", self.paths.len(), 1, 16)?;
        in_range("workloads", self.workloads.len(), 2, 8)?;
        in_range("end_to_end metrics", self.end_to_end.len(), 1, 16)?;
        in_range("per_layer metrics", self.per_layer.len(), 1, 128)?;
        in_range("run_seconds", self.run_seconds as usize, 1, 60)?;
        if let Some(arg) = self.command.iter().find(|a| a.len() > 200 || a.starts_with('/') || a.contains("..")) {
            return Err(format!("command string {arg:?} is too long or leaves the repo"));
        }
        let path_ok = |p: &String| {
            (1..=200).contains(&p.len())
                && !p.starts_with('/')
                && !p.contains("..")
                && p.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-' | '/'))
        };
        if let Some(p) = self.paths.iter().find(|p| !path_ok(p)) {
            return Err(format!("path {p:?} is not a plain relative directory"));
        }
        let mut names: Vec<&str> = self.workloads.iter().map(|w| w.name.as_str()).collect();
        names.extend(self.end_to_end.iter().chain(&self.per_layer).map(|m| m.name.as_str()));
        if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
            return Err(format!("invalid name {bad:?}"));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        if names.len() != total {
            return Err("a name is used more than once".into());
        }
        if let Some(w) = self.workloads.iter().find(|w| w.why.len() > 200 || w.why.contains('\n')) {
            return Err(format!("workload {}: `why` must be one line of at most 200 characters", w.name));
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            if !valid_unit(&m.unit) {
                return Err(format!("metric {}: invalid unit {:?}", m.name, m.unit));
            }
            if m.better != "lower" && m.better != "higher" {
                return Err(format!("metric {}: `better` must be lower or higher", m.name));
            }
            if m.bound.is_some_and(|b| !(b > 0.0 && b <= 0.25)) {
                return Err(format!("metric {}: bound must be in (0, 0.25]", m.name));
            }
        }
        let setup = self.end_to_end.iter().find(|m| m.name == "setup_s");
        if !setup.is_some_and(|m| m.unit == "s" && m.better == "lower") {
            return Err("end_to_end must hold `setup_s` with unit s, better lower".into());
        }
        Ok(())
    }

    /// The definition of an end-to-end or per-layer metric.
    pub fn metric(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end.iter().chain(&self.per_layer).find(|m| m.name == name)
    }

    /// Render back to JSON (the round trip the tests check).
    #[cfg(test)]
    pub fn to_json(&self) -> String {
        let s = |x: &str| Value::Str(x.to_string());
        let list = |xs: &[String]| Value::Seq(xs.iter().map(|x| s(x)).collect());
        let metric = |m: &MetricDef| {
            let mut e = vec![
                ("name".to_string(), s(&m.name)),
                ("unit".to_string(), s(&m.unit)),
                ("better".to_string(), s(&m.better)),
            ];
            if let Some(b) = m.bound {
                e.push(("bound".to_string(), Value::F64(b)));
            }
            Value::Map(e)
        };
        let doc = Value::Map(vec![
            ("command".to_string(), list(&self.command)),
            ("paths".to_string(), list(&self.paths)),
            ("run_seconds".to_string(), Value::U64(self.run_seconds)),
            (
                "workloads".to_string(),
                Value::Seq(
                    self.workloads
                        .iter()
                        .map(|w| Value::Map(vec![("name".to_string(), s(&w.name)), ("why".to_string(), s(&w.why))]))
                        .collect(),
                ),
            ),
            ("end_to_end".to_string(), Value::Seq(self.end_to_end.iter().map(metric).collect())),
            ("per_layer".to_string(), Value::Seq(self.per_layer.iter().map(metric).collect())),
        ]);
        serde_json::to_string_pretty(&doc).expect("spec serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_file_round_trips() {
        let spec = Spec::committed();
        assert_eq!(Spec::parse(&spec.to_json()).expect("rendered spec parses"), spec);
    }

    #[test]
    fn committed_file_names_this_benchmark() {
        let spec = Spec::committed();
        assert_eq!(spec.paths, vec!["benchmark".to_string()]);
        assert!(spec.command.iter().any(|a| a == "benchmark/Cargo.toml"));
        let names: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
        let known: Vec<&str> = crate::workloads::ALL.iter().map(|w| w.name).collect();
        assert_eq!(names, known, "BENCHMARK.json and the workload table list the same workloads");
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn name_rule() {
        for good in ["a", "op_ms_p50", "core.x_ms_per_step", "9lives", "runtime.pool.reuse-frac"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("GB/s"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    fn minimal(end_to_end: &str) -> String {
        format!(
            r#"{{"command": ["x"], "paths": ["p"], "run_seconds": 5,
                "workloads": [{{"name": "a", "why": "w"}}, {{"name": "b", "why": "w"}}],
                "end_to_end": [{end_to_end}],
                "per_layer": [{{"name": "l", "unit": "count", "better": "higher"}}]}}"#
        )
    }

    #[test]
    fn limits_are_enforced() {
        let setup = r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}"#;
        assert!(Spec::parse(&minimal(setup)).is_ok());
        let wide = setup.replace("0.25", "0.3");
        assert!(Spec::parse(&minimal(&wide)).unwrap_err().contains("bound"));
        let no_setup = setup.replace("setup_s", "other");
        assert!(Spec::parse(&minimal(&no_setup)).unwrap_err().contains("setup_s"));
        let dup = format!("{setup}, {}", setup.replace("setup_s", "a"));
        assert!(Spec::parse(&minimal(&dup)).unwrap_err().contains("more than once"));
        let extra_key = setup.replace("\"bound\"", "\"note\": 1, \"bound\"");
        assert!(Spec::parse(&minimal(&extra_key)).unwrap_err().contains("exactly"));
    }
}
