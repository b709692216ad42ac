//! The repo benchmark: whole-step, live P=2 and socket round-trip
//! workloads with a per-layer ledger. See `README.md` beside this package
//! and `BENCHMARK.json` at the repo root.
//!
//! `--workload NAME --seed N --seconds S --trace 0|1` runs one workload in
//! this process and ends with one JSON result line. Without `--workload`
//! every workload is run in a child process of its own, untraced then
//! traced, and the results are printed one `metric workload value unit`
//! line each; `--check` does that twice and compares the two sets.

mod core_layer;
mod gen;
mod host;
mod report;
mod runtime_layer;
mod serve_layer;
mod spans;
mod spec;
mod stats;
mod workloads;

use report::Metrics;
use spans::Recorder;
use spec::Spec;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;
use workloads::{Kind, Workload};

/// Per-layer metrics that are counts of what the program did, or computed
/// from the problem size: two runs of the same code must agree exactly.
const EXACT: [&str; 6] = [
    "core.flops_per_step",
    "core.min_bytes_per_step_computed",
    "runtime.startups_per_step",
    "runtime.bytes_per_step",
    "runtime.msg_doubles",
    "serve.wal.records_per_job",
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    check: bool,
}

fn parse_args(spec: &Spec) -> Result<Args, String> {
    let mut args = Args { workload: None, seed: 1, seconds: spec.run_seconds, trace: false, check: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?.max(1),
            "--trace" => args.trace = number(value()?)? != 0,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument {other} (see benchmark/README.md)")),
        }
    }
    Ok(args)
}

/// State directories of the daemons under test: a fresh directory under
/// `out/`, removed when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> std::io::Result<Self> {
        let dir = PathBuf::from(format!("out/tmp-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Run one workload in this process and print its result line.
fn run_one(w: &Workload, args: &Args, spec: &Spec) -> Result<(), String> {
    let cores = host::nproc();
    if cores < 2 && (args.trace || matches!(w.kind, Kind::Par(_))) {
        // two ranks on one core time the scheduler, not the runtime: give
        // the counts, which do not depend on timing, and no wall clock
        if let Kind::Par(topo) = w.kind {
            let (startups, bytes) = runtime_layer::counts(&w.solver, topo, args.seed);
            println!("runtime.startups_per_step {} {startups} count", w.name);
            println!("runtime.bytes_per_step {} {bytes} B", w.name);
        }
        return Err(format!("host.nproc = {cores}: wall-clock metrics of two-rank runs are absent on this host"));
    }
    let scratch = Scratch::new().map_err(|e| format!("cannot create a scratch directory: {e}"))?;
    let budget = Duration::from_secs(args.seconds);
    let io = |e: std::io::Error| format!("{}: {e}", w.name);

    let (metrics, attempted, failed, defs) = if args.trace {
        let mut rec = Recorder::new(w.name, true);
        let mut m = Metrics::default();
        // half the run for the workload's own layer, a brief pass over each
        // of the others, so every ledger column exists for every workload
        let share = |own: bool| if own { budget / 2 } else { budget / 8 };
        let llc = host::llc_bytes();
        m.put("host.nproc", cores as f64);
        m.put("host.llc_bytes", llc as f64);
        m.put("host.timer_ns", host::timer_ns());
        let triad = host::triad(llc);
        m.put("host.triad_gbs", triad.gbs);
        m.put("host.triad_array_bytes", triad.array_bytes as f64);

        let case = |own: bool| if own { w.solver } else { w.solver.brief() };
        let own = w.kind == Kind::Step;
        let mut tally = core_layer::ledger(&case(own), args.seed, share(own), &mut rec, &mut m);
        let (own, topo) = match w.kind {
            Kind::Par(topo) => (true, topo),
            _ => (false, runtime_layer::Topo::slab(2)),
        };
        let t = runtime_layer::ledger(&case(own), topo, args.seed, share(own), &mut rec, &mut m);
        tally = (tally.0 + t.0, tally.1 + t.1);
        let t = serve_layer::ledger(&w.serve, args.seed, &scratch.0, &mut rec, &mut m).map_err(io)?;
        tally = (tally.0 + t.0, tally.1 + t.1);

        std::fs::write("out/trace.json", rec.to_json()).map_err(|e| format!("cannot write out/trace.json: {e}"))?;
        println!("# span self time: name calls seconds ({} spans in benchmark/out/trace.json)", rec.spans().len());
        for (name, (calls, seconds)) in spans::self_seconds_by_name(rec.spans()) {
            println!("# {name} {calls} {seconds:.6}");
        }
        (m, tally.0, tally.1, &spec.per_layer)
    } else {
        let reps = match w.kind {
            Kind::Step => core_layer::run(&w.solver, args.seed, budget),
            Kind::Par(topo) => runtime_layer::run(&w.solver, topo, args.seed, budget),
            Kind::Serve => serve_layer::run(&w.serve, args.seed, budget, &scratch.0).map_err(io)?,
        };
        (reps.end_to_end(), reps.attempted(), reps.all_failed(), &spec.end_to_end)
    };
    drop(scratch);

    metrics.print(w.name, spec);
    let body = metrics.result_json(defs)?;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {body}}}",
        failed == 0,
        attempted.max(1)
    );
    Ok(())
}

/// `(workload, metric) -> value` of one full set of runs.
type Table = BTreeMap<(String, String), f64>;

/// Run every workload in a child process of its own (so `peak_rss_mb` is
/// the workload's), untraced then traced, and collect the result lines.
fn run_all(args: &Args) -> Result<Table, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut table = Table::new();
    for w in &workloads::ALL {
        for trace in ["0", "1"] {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", w.name))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            if !out.status.success() {
                println!("# {} --trace {trace}: absent ({})", w.name, out.status);
                continue;
            }
            let v = serde_json::value_from_str(last).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
            let count = |key: &str| match v.get(key) {
                Some(serde::Value::U64(n)) => Ok(*n as f64),
                _ => Err(format!("{}: result line lacks `{key}`", w.name)),
            };
            if trace == "0" {
                table.insert((w.name.to_string(), "failed_frac".into()), count("failed")? / count("attempted")?);
            }
            for (name, m) in v.get("metrics").and_then(serde::Value::as_map).unwrap_or(&[]) {
                let value = match m.get("value") {
                    Some(serde::Value::F64(x)) => *x,
                    Some(serde::Value::U64(n)) => *n as f64,
                    Some(serde::Value::I64(n)) => *n as f64,
                    _ => return Err(format!("{} {name}: value is not a number", w.name)),
                };
                table.insert((w.name.to_string(), name.clone()), value);
            }
        }
    }
    Ok(table)
}

fn print_table(table: &Table, spec: &Spec) {
    for ((workload, metric), value) in table {
        let unit = spec.metric(metric).map_or("frac", |m| m.unit.as_str());
        println!("{metric} {workload} {value} {unit}");
    }
}

/// Repeatability self-check: two full sets on the same code must agree
/// within every end-to-end bound, and exactly on every exact count.
fn check(args: &Args, spec: &Spec) -> Result<(), String> {
    let (a, b) = (run_all(args)?, run_all(args)?);
    let mut bad = 0;
    println!("# metric workload first second relative_difference verdict");
    for ((workload, metric), &first) in &a {
        let Some(&second) = b.get(&(workload.clone(), metric.clone())) else {
            println!("{metric} {workload} {first} absent - FAIL");
            bad += 1;
            continue;
        };
        let rel = if first == second { 0.0 } else { (second - first).abs() / first.abs().max(f64::MIN_POSITIVE) };
        let allowed = if EXACT.contains(&metric.as_str()) || metric == "failed_frac" {
            Some(0.0)
        } else {
            spec.end_to_end.iter().find(|m| &m.name == metric).and_then(|m| m.bound)
        };
        let verdict = match allowed {
            Some(bound) if rel > bound => {
                bad += 1;
                "FAIL"
            }
            Some(_) => "ok",
            None => "info",
        };
        println!("{metric} {workload} {first} {second} {rel:.4} {verdict}");
    }
    if bad > 0 {
        return Err(format!("{bad} metrics differ between two runs of the same code by more than their bound"));
    }
    println!("# check passed: set the bounds at least twice the spreads above (see README.md)");
    Ok(())
}

fn real_main() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; measure with `cargo run --release`".into());
    }
    let spec = Spec::committed();
    let args = parse_args(&spec)?;
    // all paths below (`out/`, the daemons' sockets) are relative to the
    // package directory; socket paths must stay short
    std::env::set_current_dir(env!("CARGO_MANIFEST_DIR"))
        .map_err(|e| format!("cannot enter {}: {e}", env!("CARGO_MANIFEST_DIR")))?;
    match &args.workload {
        Some(name) => {
            let w = workloads::find(name).ok_or_else(|| {
                let names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; the workloads are {}", names.join(", "))
            })?;
            run_one(w, &args, &spec)
        }
        None if args.check => check(&args, &spec),
        None => run_all(&args).map(|table| print_table(&table, &spec)),
    }
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("jetns-benchmark: {e}");
        std::process::exit(1);
    }
}
