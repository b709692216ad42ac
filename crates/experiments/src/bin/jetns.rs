//! `jetns` — command-line front end to the reproduction.
//!
//! ```text
//! jetns run        [--steps N] [--nx N] [--nr N] [--euler] [--eps E]   run the jet, print contour
//!                  [--cadence N] [--summary FILE]                      …with health sampling
//! jetns telemetry  [--ranks P] [--steps N] [--cadence N] [--out DIR]   instrumented parallel run:
//!                                                                      phase table, Gantt, traces
//! jetns figures    [--only NAME]                                       regenerate all tables/figures
//! jetns platforms                                                      Figures 9/10/13
//! jetns extensions                                                     future-work studies
//! jetns speedup    [--steps N]                                         host wall-clock scaling
//! jetns checkpoint --out FILE [--steps N]                              run and write a restart file
//! jetns resume     --from FILE [--steps N]                             continue from a restart file
//! jetns bench-report [--file PATH]                                     render the measured V1→V7
//!                                                                      MFLOPS ladder (Figure 2
//!                                                                      analogue) from BENCH_kernels.json
//! jetns bench-compare --candidate FILE [--baseline FILE]               bench regression gate:
//!                  [--tolerance X]                                     fresh medians vs committed
//!                                                                      BENCH_kernels.json
//! jetns scaling-sweep [--quick] [--out FILE]                           simulate the 2-D pencil
//!                                                                      strong-scaling sweep, write
//!                                                                      BENCH_scaling.json
//! jetns scaling-report [--file PATH]                                   render the committed sweep as
//!                                                                      per-platform tables
//! jetns chaos      [--steps N] [--nx N] [--nr N] [--seed S]            fault-injection sweep:
//!                  [--rates R1,R2,..] [--procs P1,P2,..] [--no-crash]  survival/overhead table,
//!                  [--json FILE] [--flight-dir DIR]                    bitwise-recovery check,
//!                                                                      FLIGHT_<rank>.json dumps
//! jetns verify     [--quick] [--bless] [--json FILE]                   correctness gate: MMS order
//!                  [--golden FILE]                                     sweeps, conservation ledgers,
//!                                                                      differential oracle, goldens
//! jetns serve      --jobs FILE [--workers N] [--depth N]               run a JSON job list through
//!                  [--golden FILE] [--out FILE]                        the sharded batch service
//! jetns loadgen    [--quick] [--workers N] [--depth N]                 replay the sweep through a
//!                                                                      daemon's socket: duplicates,
//!                                                                      goldens, overload burst
//! jetns served     --state DIR [--socket PATH] [--workers N]           crash-durable daemon: WAL-
//!                  [--depth N] [--no-sync] [--golden FILE]             journaled jobs, spill-backed
//!                                                                      cache, SIGTERM graceful drain
//! jetns submit     --socket PATH (--jobs FILE [--wait] [--out FILE]    submit a JSON job list to a
//!                  | --status | --drain)                               running daemon over its socket
//! jetns metrics    [--ranks P] [--steps N] [--nx N] [--nr N]           short instrumented run, then
//!                  [--prom FILE] [--json FILE]                         the live registry window in
//!                                                                      Prometheus text / JSON
//! ```

use ns_core::checkpoint::Checkpoint;
use ns_core::config::{Regime, SolverConfig};
use ns_core::{diag, Solver};
use ns_experiments::{bench_report, contour, extensions, fig_platforms, report, speedup};
use ns_numerics::Grid;
use ns_runtime::{CartTopology, CommVersion, RunPlan, TelemetryOptions};
use ns_telemetry::{to_chrome_trace, to_jsonl, HealthConfig, HealthMonitor};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Self {
        let mut flags = Vec::new();
        let mut k = 0;
        while k < raw.len() {
            if let Some(name) = raw[k].strip_prefix("--") {
                let value = raw.get(k + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    k += 1;
                }
                flags.push((name.to_string(), value));
            }
            k += 1;
        }
        Self { flags }
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(n, _)| n == name).and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.get(name).and_then(|v| v.parse().ok()).unwrap_or(default)
    }
}

/// Write a file with a contextual error instead of a bare panic; every
/// artifact the CLI produces goes through here so a full disk or a bad
/// path is a clean nonzero exit, not an unwrap backtrace.
fn write_file(path: &str, content: impl AsRef<[u8]>) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
}

fn config(args: &Args) -> SolverConfig {
    let nx = args.num("nx", 125usize).max(8);
    let nr = args.num("nr", 50usize).max(8);
    let regime = if args.has("euler") { Regime::Euler } else { Regime::NavierStokes };
    let mut cfg = SolverConfig::paper(Grid::new(nx, nr, 50.0, 5.0), regime);
    cfg.dissipation = args.num("eps", 0.002f64);
    cfg
}

fn cmd_run(args: &Args) -> ExitCode {
    let cfg = config(args);
    let steps = args.num("steps", 500u64);
    println!("running {} on {}x{} for {steps} steps…", cfg.regime.name(), cfg.grid.nx, cfg.grid.nr);
    let mut s = Solver::new(cfg);
    s.enable_phase_timing();
    let health = HealthConfig { cadence: args.num("cadence", 50u64), ..HealthConfig::default() };
    let mut mon = HealthMonitor::new(health);
    let gas = *s.gas();
    let mut ledger = diag::ConservationLedger::open(&s.field, &gas);
    let metrics_before = ns_metrics::Registry::global().snapshot();
    let t0 = std::time::Instant::now();
    let mut taken = 0;
    let aborted_at_start = mon.due(s.nstep) && !mon.observe(s.health_sample());
    if !aborted_at_start {
        for _ in 0..steps {
            s.step();
            ledger.record(&s.field, &gas, s.dt());
            taken += 1;
            if mon.due(s.nstep) && !mon.observe(s.health_sample()) {
                break;
            }
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    println!(
        "t = {:.2}, healthy = {}, max Mach = {:.2} ({} health samples)",
        s.t,
        s.healthy(),
        diag::max_mach(&s.field, &gas),
        mon.samples.len()
    );
    if let Some(reason) = &mon.abort {
        eprintln!("early abort after {taken} steps: {reason}");
    }
    print!("{}", contour::ascii(&diag::axial_momentum(&s.field, &gas), 100, 20));
    if let Some(path) = args.get("summary") {
        let mut summary = serial_summary(&s, &mon, steps, taken, wall);
        summary.conservation = Some(ledger.close(&s.field).to_summary());
        let window = ns_metrics::Registry::global().snapshot().diff(&metrics_before);
        let metrics = ns_metrics::MetricsSummary::from_snapshot(&window);
        summary.metrics = (!metrics.is_empty()).then_some(metrics);
        if let Err(e) = write_file(path, summary.to_json()) {
            eprintln!("jetns run: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if s.healthy() && mon.abort.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Machine-readable summary of a serial (single-rank) run.
fn serial_summary(s: &Solver, mon: &HealthMonitor, requested: u64, taken: u64, wall: f64) -> ns_telemetry::RunSummary {
    let cfg = &s.cfg;
    let mut summary = ns_telemetry::RunSummary {
        schema_version: ns_telemetry::RUN_SUMMARY_SCHEMA,
        case: "jet-serial".to_string(),
        regime: cfg.regime.key().to_string(),
        nx: cfg.grid.nx,
        nr: cfg.grid.nr,
        ranks: 1,
        steps_requested: requested,
        steps_taken: taken,
        wall_seconds: wall,
        aborted: mon.abort.clone(),
        phase_seconds: BTreeMap::new(),
        comm: ns_telemetry::CommTotals::default(),
        recovery: None,
        conservation: None,
        serve: None,
        metrics: None,
        health: mon.samples.clone(),
    };
    summary.set_phases(s.phase_ledger());
    summary
}

fn cmd_telemetry(args: &Args) -> ExitCode {
    let ranks = args.num("ranks", 4usize).max(2);
    let steps = args.num("steps", 100u64);
    let outdir = args.get("out").unwrap_or("telemetry-out").to_string();
    let mut cfg = config(args);
    cfg.dissipation = 0.0; // artificial smoothing is serial-only; the parallel driver asserts this
    let health = HealthConfig { cadence: args.num("cadence", 10u64), ..HealthConfig::default() };
    println!(
        "instrumented {} run: {} ranks, {steps} steps, health cadence {}…",
        cfg.regime.name(),
        ranks,
        health.cadence
    );
    let telemetry = TelemetryOptions { phases: true, trace: true, health: Some(health) };
    let plan = RunPlan { telemetry, ..RunPlan::new(&cfg, CartTopology::axial(ranks), steps, CommVersion::V5) };
    let run = match ns_runtime::run(&plan) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("jetns telemetry: {e}");
            return ExitCode::FAILURE;
        }
    };

    // per-rank phase breakdown next to a simulated reference column that
    // uses the exact same label vocabulary
    let owned = |m: BTreeMap<&'static str, f64>| -> BTreeMap<String, f64> {
        m.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    };
    let mut columns: Vec<(String, BTreeMap<String, f64>)> =
        (0..ranks).map(|r| (format!("rank {r}"), owned(run.rank_phase_seconds(r)))).collect();
    let mut scfg = ns_archsim::SimConfig::paper(ns_archsim::Platform::lace560_allnode_s(), ranks, cfg.regime);
    scfg.grid = cfg.grid.clone();
    scfg.report_steps = run.steps_taken().max(1);
    scfg.sim_steps = scfg.report_steps.min(4);
    columns.push(("LACE sim (ref)".to_string(), owned(ns_archsim::simulate(&scfg).phase_seconds)));
    println!("{}", report::phase_breakdown("Per-rank phase breakdown, live vs simulated LACE Allnode-S", &columns));

    let trace = run.merged_trace();
    print!("{}", report::gantt(&trace, ranks, 100));

    if let Err(e) = std::fs::create_dir_all(&outdir) {
        eprintln!("cannot create {outdir}: {e}");
        return ExitCode::FAILURE;
    }
    let mut summary = run.summary("jet-parallel");
    summary.case = format!("jet-parallel-p{ranks}");
    let writes = [
        ("trace.jsonl", to_jsonl(&trace)),
        ("trace_chrome.json", to_chrome_trace(&trace)),
        ("run_summary.json", summary.to_json()),
    ];
    for (name, content) in writes {
        let path = format!("{outdir}/{name}");
        if let Err(e) = write_file(&path, content) {
            eprintln!("jetns telemetry: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("\nwrote {outdir}/trace.jsonl, {outdir}/trace_chrome.json, {outdir}/run_summary.json");
    if let Some(reason) = run.aborted() {
        eprintln!("run aborted early: {reason}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_figures(args: &Args) -> ExitCode {
    let only = args.get("only");
    for r in ns_experiments::all_reports() {
        if only.is_none_or(|f| r.title.to_lowercase().contains(&f.to_lowercase())) {
            println!("{}", r.render());
        }
    }
    ExitCode::SUCCESS
}

fn cmd_platforms() -> ExitCode {
    for regime in [Regime::NavierStokes, Regime::Euler] {
        println!("{}", fig_platforms::fig9_10(regime).render());
    }
    println!("{}", fig_platforms::fig13().table());
    ExitCode::SUCCESS
}

fn cmd_extensions() -> ExitCode {
    for regime in [Regime::NavierStokes, Regime::Euler] {
        println!("{}", extensions::decomposition_ablation(regime).table());
    }
    println!("{}", extensions::extended_scaling(Regime::NavierStokes).render());
    println!("{}", extensions::weak_scaling(Regime::NavierStokes).table());
    println!(
        "{}",
        extensions::phase_profile(ns_archsim::Platform::lace560_allnode_s(), Regime::NavierStokes, &[1, 4, 16]).table()
    );
    println!("{}", extensions::now_projection(Regime::NavierStokes).render());
    ExitCode::SUCCESS
}

fn cmd_speedup(args: &Args) -> ExitCode {
    let steps = args.num("steps", 40u64);
    let grid = Grid::new(200, 80, 50.0, 5.0);
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
    let counts: Vec<usize> = [2usize, 4, 8].into_iter().filter(|&p| p <= cores.max(2)).collect();
    println!("{}", speedup::message_passing_speedup(grid.clone(), steps, &counts, Regime::NavierStokes).table());
    println!("{}", speedup::shared_memory_speedup(grid, steps, &counts, Regime::NavierStokes).table());
    ExitCode::SUCCESS
}

fn cmd_checkpoint(args: &Args) -> ExitCode {
    let Some(path) = args.get("out") else {
        eprintln!("checkpoint requires --out FILE");
        return ExitCode::FAILURE;
    };
    let cfg = config(args);
    let steps = args.num("steps", 200u64);
    let mut s = Solver::new(cfg);
    s.run(steps);
    match Checkpoint::capture(&s).to_bytes() {
        Ok(bytes) => {
            if let Err(e) = write_file(path, &bytes) {
                eprintln!("jetns checkpoint: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}: {} bytes at t = {:.3}, step {}", bytes.len(), s.t, s.nstep);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("serialization failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_resume(args: &Args) -> ExitCode {
    let Some(path) = args.get("from") else {
        eprintln!("resume requires --from FILE");
        return ExitCode::FAILURE;
    };
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut s = match Checkpoint::from_bytes(&bytes) {
        Ok(cp) => cp.restore(),
        Err(e) => {
            eprintln!("bad checkpoint: {e}");
            return ExitCode::FAILURE;
        }
    };
    let steps = args.num("steps", 200u64);
    println!("resumed at t = {:.3}, step {}; running {steps} more…", s.t, s.nstep);
    s.run(steps);
    let gas = *s.gas();
    println!("now t = {:.3}, healthy = {}, max Mach = {:.2}", s.t, s.healthy(), diag::max_mach(&s.field, &gas));
    ExitCode::SUCCESS
}

fn cmd_bench_report(args: &Args) -> ExitCode {
    let path = args.get("file").unwrap_or("BENCH_kernels.json");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("jetns: cannot read {path}: {e} (run `cargo bench -p ns-bench` to produce it)");
            return ExitCode::FAILURE;
        }
    };
    match bench_report::parse(&text) {
        Ok(data) => {
            print!("{}", bench_report::render(&data));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jetns: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_scaling_sweep(args: &Args) -> ExitCode {
    let quick = args.has("quick");
    let out = args.get("out").unwrap_or("BENCH_scaling.json");
    println!("simulating the pencil strong-scaling sweep{}…", if quick { " (quick: P=32)" } else { "" });
    let data = ns_experiments::scaling::sweep(quick);
    let json = match serde_json::to_string_pretty(&data) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("jetns: cannot serialize sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = write_file(out, json + "\n") {
        eprintln!("jetns: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {} cells to {out}", data.cells.len());
    print!("{}", ns_experiments::scaling::render(&data));
    ExitCode::SUCCESS
}

fn cmd_scaling_report(args: &Args) -> ExitCode {
    let path = args.get("file").unwrap_or("BENCH_scaling.json");
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("jetns: cannot read {path}: {e} (run `jetns scaling-sweep` to produce it)");
            return ExitCode::FAILURE;
        }
    };
    match ns_experiments::scaling::parse(&text) {
        Ok(data) => {
            print!("{}", ns_experiments::scaling::render(&data));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jetns: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_chaos(args: &Args) -> ExitCode {
    let nx = args.num("nx", 48usize).max(16);
    let nr = args.num("nr", 16usize).max(8);
    let steps = args.num("steps", 8u64).max(2);
    let seed = args.num("seed", 1995u64);
    let parse_list = |name: &str, default: &str| -> Vec<String> {
        args.get(name).unwrap_or(default).split(',').map(str::to_string).collect()
    };
    let procs: Vec<usize> = parse_list("procs", "2,4").iter().filter_map(|v| v.parse().ok()).collect();
    let rates: Vec<f64> = parse_list("rates", "0,0.01,0.05").iter().filter_map(|v| v.parse().ok()).collect();
    if procs.is_empty() || rates.is_empty() {
        eprintln!("jetns chaos: --procs and --rates must be comma-separated numbers");
        return ExitCode::FAILURE;
    }
    // the distributed protocol has no smoothing halo, and recovery needs
    // the bitwise-reproducible path, so dissipation stays off here
    let mut cfg = SolverConfig::paper(Grid::new(nx, nr, 20.0, 4.0), Regime::NavierStokes);
    cfg.dissipation = 0.0;
    if let Some(&p) = procs.iter().max() {
        if nx / p < 4 {
            eprintln!("jetns chaos: {nx} columns cannot feed {p} ranks (need >= 4 each)");
            return ExitCode::FAILURE;
        }
    }
    let crash = !args.has("no-crash");
    println!("chaos sweep: {nx}x{nr}, {steps} steps, procs {procs:?}, rates {rates:?}, crash {crash}, seed {seed}…");
    let sweep = ns_experiments::chaos::sweep(&cfg, &procs, &rates, steps, seed, crash);
    print!("{}", ns_experiments::chaos::render(&sweep));
    if let Some(path) = args.get("json") {
        if let Err(e) = write_file(path, ns_experiments::chaos::to_json(&sweep)) {
            eprintln!("jetns chaos: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(dir) = args.get("flight-dir") {
        match ns_experiments::chaos::write_flight_dumps(&sweep, dir) {
            Ok(paths) => println!("wrote {} flight dump(s) to {dir}/", paths.len()),
            Err(e) => {
                eprintln!("jetns chaos: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ns_experiments::chaos::all_recovered(&sweep) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_verify(args: &Args) -> ExitCode {
    let quick = args.has("quick");
    let golden_path = args.get("golden").unwrap_or("GOLDEN_verify.json").to_string();
    println!("verification suite ({} mode)…", if quick { "quick" } else { "full" });
    let mut report = ns_verify::run(&ns_verify::VerifyConfig { quick });

    // the oracle's reference snapshots become (or are checked against) the
    // committed golden file
    let current = ns_verify::snapshot::GoldenFile {
        schema: ns_verify::snapshot::SCHEMA,
        grid: [report.oracle.grid[0], report.oracle.grid[1]],
        steps: report.oracle.steps,
        entries: report.oracle.snapshots.clone(),
    };
    if args.has("bless") {
        if let Err(e) = current.save(&golden_path) {
            eprintln!("jetns verify: {e}");
            return ExitCode::FAILURE;
        }
        println!("blessed {golden_path} ({} snapshots)", current.entries.len());
    } else {
        match ns_verify::snapshot::GoldenFile::load(&golden_path) {
            Ok(golden) => report.golden = Some(golden.diff(&current)),
            Err(e) => eprintln!("jetns verify: no golden comparison: {e} (run --bless to create it)"),
        }
    }

    print!("{}", report.render());
    if let Some(path) = args.get("json") {
        if let Err(e) = write_file(path, report.to_json()) {
            eprintln!("jetns verify: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if report.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Load a golden file when asked for (or silently probe the default path):
/// cold results whose shape the differential oracle covers are
/// cross-checked against its FNV field fingerprints.
fn serve_golden(args: &Args) -> Option<ns_verify::snapshot::GoldenFile> {
    match args.get("golden") {
        Some(path) => match ns_verify::snapshot::GoldenFile::load(path) {
            Ok(g) => Some(g),
            Err(e) => {
                eprintln!("jetns serve: {e}; running without golden cross-checks");
                None
            }
        },
        None => ns_verify::snapshot::GoldenFile::load("GOLDEN_verify.json").ok(),
    }
}

fn cmd_serve(args: &Args) -> ExitCode {
    use ns_serve::{JobDesc, Outcome, Server, ServerConfig, SubmitError};
    let Some(jobs_path) = args.get("jobs") else {
        eprintln!("jetns serve requires --jobs FILE (a JSON array of job descriptions)");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(jobs_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("jetns serve: cannot read {jobs_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let descs: Vec<JobDesc> = match serde_json::from_str(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("jetns serve: bad job list {jobs_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = ServerConfig {
        workers: args.num("workers", 2usize).max(1),
        queue_depth: args.num("depth", 32usize).max(1),
        golden: serve_golden(args),
        ..Default::default()
    };
    println!("serving {} jobs on {} workers (queue depth {})…", descs.len(), cfg.workers, cfg.queue_depth);
    let (server, rx) = Server::new(cfg);
    let mut expected = 0u64;
    for (i, desc) in descs.iter().enumerate() {
        let spec = match desc.to_spec() {
            Ok(s) => s,
            Err(e) => {
                eprintln!("jetns serve: job {i} is invalid: {e}");
                return ExitCode::FAILURE;
            }
        };
        loop {
            match server.submit(spec.clone()) {
                Ok(_) => {
                    expected += 1;
                    break;
                }
                Err(SubmitError::Busy { retry_after, .. }) => {
                    // a CLI batch has nowhere to go: honour our own hint
                    std::thread::sleep(retry_after);
                }
                Err(e) => {
                    eprintln!("jetns serve: job {i} rejected: {e:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    let mut payloads = Vec::new();
    let mut failed = 0u64;
    for _ in 0..expected {
        match rx.recv() {
            Ok(Outcome::Done(r)) => {
                let golden = match r.run.golden {
                    Some(true) => ", golden ok",
                    Some(false) => ", GOLDEN MISMATCH",
                    None => "",
                };
                println!(
                    "done {:<28} [{}] queue {:.1} ms, run {:.1} ms{golden}",
                    r.label,
                    if r.cache_hit { "cache" } else { "cold " },
                    r.queue_wait.as_secs_f64() * 1e3,
                    r.run_wall.as_secs_f64() * 1e3,
                );
                payloads.push(r);
            }
            Ok(Outcome::Shed { label, .. }) => {
                // queue sized by --depth; a shed batch job simply reports
                eprintln!("shed {label} (outranked under a full queue)");
            }
            Ok(Outcome::Failed { label, error, .. }) => {
                eprintln!("FAILED {label}: {error}");
                failed += 1;
            }
            Err(_) => break,
        }
    }
    let stats = server.finish();
    println!(
        "served {} ({} cold, {} cache hits), {} failed, {} golden checks ({} mismatched)",
        stats.completed,
        stats.cache_misses,
        stats.cache_hits,
        stats.failed,
        stats.golden_checked,
        stats.golden_mismatches
    );
    if let Some(path) = args.get("out") {
        // the out file is a JSON array of the jobs' RunSummary payloads
        // (each already carries its serve block), spliced verbatim so a
        // cache hit is byte-identical to its cold twin
        let mut body = String::from("[\n");
        for (i, r) in payloads.iter().enumerate() {
            body.push_str(&r.run.payload);
            if i + 1 < payloads.len() {
                body.push(',');
            }
            body.push('\n');
        }
        body.push_str("]\n");
        if let Err(e) = write_file(path, body) {
            eprintln!("jetns serve: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if failed == 0 && stats.golden_mismatches == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_loadgen(args: &Args) -> ExitCode {
    let opts = ns_serve::LoadgenOptions {
        quick: args.has("quick"),
        workers: args.num("workers", 2usize).max(1),
        queue_depth: args.num("depth", 64usize).max(16),
    };
    println!(
        "loadgen: {} sweep through a daemon on {} workers (queue depth {})…",
        if opts.quick { "quick" } else { "full" },
        opts.workers,
        opts.queue_depth,
    );
    let v = match ns_serve::run_loadgen(&opts, &std::env::temp_dir()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("jetns loadgen: {e}");
            return ExitCode::FAILURE;
        }
    };
    let b = v.burst;
    println!("jobs: {} submitted, {} completed, {} failed", v.jobs_submitted, v.jobs_completed, v.jobs_failed);
    println!(
        "cache: {} hits (the daemon's Wait peeks count too), duplicates byte-identical: {}",
        v.cache_hits,
        if v.duplicates_byte_identical { "yes" } else { "NO" }
    );
    println!("golden cross-checks: {} checked, {} mismatched", v.golden_checked, v.golden_mismatches);
    println!(
        "burst: {} submitted -> {} admitted, {} rejected (min retry-after {:.0} ms), {} shed, {} completed",
        b.submitted, b.admitted, b.rejected, b.min_retry_after_ms, b.shed, b.completed
    );
    println!("acceptance: {}", if v.pass() { "PASS" } else { "FAIL" });
    if v.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_served(args: &Args) -> ExitCode {
    use ns_serve::daemon::term;
    use ns_serve::{Daemon, DaemonConfig};
    let Some(state_dir) = args.get("state") else {
        eprintln!("jetns served requires --state DIR (journal, spill and socket live there)");
        return ExitCode::FAILURE;
    };
    let mut cfg = DaemonConfig::new(state_dir);
    cfg.workers = args.num("workers", 2usize).max(1);
    cfg.queue_depth = args.num("depth", 32usize).max(1);
    cfg.sync = !args.has("no-sync");
    cfg.golden = serve_golden(args);
    if let Some(socket) = args.get("socket") {
        cfg.socket = Some(socket.into());
    }
    term::install_term_handler();
    let daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("jetns served: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let replay = daemon.replay();
    println!(
        "served: listening on {} ({} journal records replayed, {} jobs re-enqueued)",
        daemon.socket_path().display(),
        replay.records,
        replay.pending.len(),
    );
    // run until SIGTERM/SIGINT or a client Drain request, then drain
    while !term::term_requested() && !daemon.drain_requested() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    println!("served: drain requested, finishing {} in-flight job(s)…", daemon.inflight());
    match daemon.drain() {
        Ok(report) => {
            println!(
                "served: drained clean — {} completed ({} cache hits), {} failed, {} journal records, {} spilled results",
                report.stats.completed,
                report.stats.cache_hits,
                report.stats.failed,
                report.wal_records,
                report.spilled,
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("jetns served: drain failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_submit(args: &Args) -> ExitCode {
    use ns_serve::{Client, JobDesc, Response};
    let Some(socket) = args.get("socket") else {
        eprintln!("jetns submit requires --socket PATH (a running `jetns served`)");
        return ExitCode::FAILURE;
    };
    let mut client = match Client::connect(socket) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("jetns submit: cannot connect to {socket}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.has("status") {
        return match client.status() {
            Ok(s) => {
                println!(
                    "daemon: {} queued, {} in flight, {} journal records{}{}\n\
                     stats: {} completed, {} cache hits, {} cold, {} failed, {} expired, {} shed",
                    s.queue_len,
                    s.inflight,
                    s.wal_records,
                    if s.draining { ", DRAINING" } else { "" },
                    if s.brownout { ", BROWNOUT" } else { "" },
                    s.stats.completed,
                    s.stats.cache_hits,
                    s.stats.cache_misses,
                    s.stats.failed,
                    s.stats.expired,
                    s.stats.shed,
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("jetns submit: status failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.has("drain") {
        return match client.drain() {
            Ok(_) => {
                println!("drain requested");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("jetns submit: drain failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(jobs_path) = args.get("jobs") else {
        eprintln!("jetns submit requires --jobs FILE (or --status / --drain)");
        return ExitCode::FAILURE;
    };
    let descs: Vec<JobDesc> = match std::fs::read_to_string(jobs_path)
        .map_err(|e| format!("cannot read {jobs_path}: {e}"))
        .and_then(|t| serde_json::from_str(&t).map_err(|e| format!("bad job list {jobs_path}: {e}")))
    {
        Ok(d) => d,
        Err(e) => {
            eprintln!("jetns submit: {e}");
            return ExitCode::FAILURE;
        }
    };
    let budget = std::time::Duration::from_secs(args.num("retry-budget-secs", 600u64));
    let mut keys = Vec::new();
    let mut payloads = Vec::new();
    let mut failed = 0u64;
    for (i, desc) in descs.iter().enumerate() {
        match client.submit_with_retry(desc, budget) {
            Ok(Response::Admitted { key, .. }) => {
                println!("admitted job {i} as {key}");
                keys.push(key);
            }
            Ok(Response::Done { key, payload, cache, .. }) => {
                println!("done     job {i} as {key} [{cache}]");
                payloads.push(payload);
            }
            Ok(Response::Busy { retry_after_ms, brownout }) => {
                eprintln!(
                    "jetns submit: job {i} still rejected after the retry budget \
                     (retry-after {retry_after_ms} ms{})",
                    if brownout { ", brownout" } else { "" }
                );
                failed += 1;
            }
            Ok(other) => {
                eprintln!("jetns submit: job {i} rejected: {other:?}");
                failed += 1;
            }
            Err(e) => {
                eprintln!("jetns submit: job {i}: connection failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if args.has("wait") {
        let timeout = std::time::Duration::from_secs(args.num("timeout-secs", 600u64));
        for key in &keys {
            match client.wait(key, timeout) {
                Ok(Response::Done { key, cache, queue_ms, run_ms, payload, .. }) => {
                    println!("done     {key} [{cache}] queue {queue_ms:.1} ms, run {run_ms:.1} ms");
                    payloads.push(payload);
                }
                Ok(Response::Failed { key, error }) => {
                    eprintln!("FAILED {key}: {error}");
                    failed += 1;
                }
                Ok(other) => {
                    eprintln!("jetns submit: wait on {key}: {other:?}");
                    failed += 1;
                }
                Err(e) => {
                    eprintln!("jetns submit: wait on {key}: connection failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        if let Some(path) = args.get("out") {
            // same artifact shape as `jetns serve --out`: a JSON array of
            // the jobs' RunSummary payloads, spliced verbatim
            let mut body = String::from("[\n");
            for (i, p) in payloads.iter().enumerate() {
                body.push_str(p);
                if i + 1 < payloads.len() {
                    body.push(',');
                }
                body.push('\n');
            }
            body.push_str("]\n");
            if let Err(e) = write_file(path, body) {
                eprintln!("jetns submit: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run a short instrumented workload and expose the live registry: every
/// subsystem the tentpole instruments (comm, driver, recovery) feeds the
/// process-global registry, so a fresh CLI process must generate traffic
/// before there is anything to report.
fn cmd_metrics(args: &Args) -> ExitCode {
    let ranks = args.num("ranks", 2usize).max(2);
    let steps = args.num("steps", 8u64).max(1);
    let mut cfg = SolverConfig::paper(
        Grid::new(args.num("nx", 48usize).max(16), args.num("nr", 16usize).max(8), 20.0, 4.0),
        Regime::Euler,
    );
    cfg.dissipation = 0.0;
    println!("metrics probe: {} ranks, {steps} steps on {}x{}…", ranks, cfg.grid.nx, cfg.grid.nr);
    let before = ns_metrics::Registry::global().snapshot();
    if let Err(e) = ns_runtime::run(&RunPlan::new(&cfg, CartTopology::axial(ranks), steps, CommVersion::V7)) {
        eprintln!("jetns metrics: {e}");
        return ExitCode::FAILURE;
    }
    let window = ns_metrics::Registry::global().snapshot().diff(&before);
    print!("{}", window.to_prometheus());
    if let Some(path) = args.get("prom") {
        if let Err(e) = write_file(path, window.to_prometheus()) {
            eprintln!("jetns metrics: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    if let Some(path) = args.get("json") {
        if let Err(e) = write_file(path, window.to_json()) {
            eprintln!("jetns metrics: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
}

/// The bench regression gate: compare a (typically quick-mode) candidate
/// MedianBench file against the committed full-mode baseline.
fn cmd_bench_compare(args: &Args) -> ExitCode {
    let Some(candidate_path) = args.get("candidate") else {
        eprintln!("bench-compare requires --candidate FILE (a fresh BENCH_kernels.json)");
        return ExitCode::FAILURE;
    };
    let baseline_path = args.get("baseline").unwrap_or("BENCH_kernels.json");
    let tolerance = args.num("tolerance", 3.0f64).max(1.0);
    let load = |path: &str| -> Result<bench_report::BenchData, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        bench_report::parse(&text)
    };
    let (baseline, candidate) = match (load(baseline_path), load(candidate_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("jetns bench-compare: {e}");
            }
            return ExitCode::FAILURE;
        }
    };
    let cmp = bench_report::compare(&baseline, &candidate, tolerance);
    print!("{}", bench_report::render_compare(&cmp));
    if cmp.pass() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: jetns <run|telemetry|figures|platforms|extensions|speedup|checkpoint|resume|bench-report|bench-compare|chaos|verify|serve|served|submit|loadgen|metrics> [flags]\n\
         see the module docs in crates/experiments/src/bin/jetns.rs"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        return usage();
    };
    let args = Args::parse(&raw[1..]);
    match cmd.as_str() {
        "run" => cmd_run(&args),
        "telemetry" => cmd_telemetry(&args),
        "figures" => cmd_figures(&args),
        "platforms" => cmd_platforms(),
        "extensions" => cmd_extensions(),
        "speedup" => cmd_speedup(&args),
        "checkpoint" => cmd_checkpoint(&args),
        "resume" => cmd_resume(&args),
        "bench-report" => cmd_bench_report(&args),
        "chaos" => cmd_chaos(&args),
        "verify" => cmd_verify(&args),
        "serve" => cmd_serve(&args),
        "served" => cmd_served(&args),
        "submit" => cmd_submit(&args),
        "loadgen" => cmd_loadgen(&args),
        "metrics" => cmd_metrics(&args),
        "bench-compare" => cmd_bench_compare(&args),
        "scaling-sweep" => cmd_scaling_sweep(&args),
        "scaling-report" => cmd_scaling_report(&args),
        _ => usage(),
    }
}
