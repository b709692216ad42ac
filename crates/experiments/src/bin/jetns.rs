//! `jetns` — command-line front end to the reproduction.
//!
//! ```text
//! jetns run        [--topology PXxPR] [--comm V5|V6|V7] [--steps N]    one run on any rank grid
//!                  [--nx N] [--nr N] [--euler] [--eps E] [--cadence N] (1x1, the serial run, by
//!                  [--resume FILE] [--trace DIR] [--prom FILE]         default): contour, health,
//!                  [--summary FILE]                                    conservation ledger; --trace
//!                                                                      adds the phase table, Gantt
//!                                                                      and trace files, --prom the
//!                                                                      registry window
//! jetns figures    [--only NAME]                                       regenerate all tables/figures
//! jetns platforms                                                      Figures 9/10/13
//! jetns extensions                                                     future-work studies
//! jetns checkpoint --out FILE [--steps N]                              run and write a restart file
//!                                                                      (`run --resume` continues it)
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
//! jetns loadgen    [--quick] [--workers N] [--depth N]                 replay the sweep through a
//!                                                                      daemon's socket: duplicates,
//!                                                                      goldens, overload burst
//! jetns served     --state DIR [--socket PATH] [--workers N]           crash-durable daemon: WAL-
//!                  [--depth N] [--no-sync] [--golden FILE]             journaled jobs, spill-backed
//!                                                                      cache, SIGTERM graceful drain
//! jetns submit     --socket PATH (--jobs FILE [--wait] [--out FILE]    submit a JSON job list to a
//!                  | --status | --drain)                               running daemon over its socket
//! ```

use ns_core::checkpoint::Checkpoint;
use ns_core::config::{Regime, SolverConfig};
use ns_core::{diag, Solver};
use ns_experiments::{bench_report, contour, extensions, fig_platforms, report};
use ns_numerics::Grid;
use ns_runtime::{CartTopology, CommVersion, RunPlan, TelemetryOptions};
use ns_telemetry::{to_chrome_trace, to_jsonl, HealthConfig};
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
    SolverConfig::paper(Grid::new(nx, nr, 50.0, 5.0), regime)
}

/// Artificial dissipation the flow-physics runs damp with by default; only
/// a whole-grid (1×1) run can carry it.
const DEFAULT_EPS: f64 = 0.002;

fn cmd_run(args: &Args) -> ExitCode {
    run(args).unwrap_or_else(|e| {
        eprintln!("jetns run: {e}");
        ExitCode::FAILURE
    })
}

/// One plan through the one driver, on any rank grid: the contour and the
/// health line, then the artifacts the flags ask for.
fn run(args: &Args) -> Result<ExitCode, String> {
    let spec = args.get("topology").unwrap_or("1x1");
    let (px, pr) = spec
        .split_once('x')
        .and_then(|(px, pr)| Some((px.parse().ok()?, pr.parse().ok()?)))
        .ok_or_else(|| format!("bad --topology {spec:?} (expected PXxPR, e.g. 2x1)"))?;
    let topology = CartTopology::new(px, pr).map_err(|e| e.to_string())?;
    let comm = CommVersion::parse(args.get("comm").unwrap_or("V5"))?;
    let checkpoint = args.get("resume").map(|path| {
        let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Checkpoint::from_bytes(&bytes).map_err(|e| format!("bad checkpoint {path}: {e}"))
    });
    let checkpoint = checkpoint.transpose()?;
    // a checkpoint fixes the grid and the physics; dissipation stays a flag
    let mut cfg = checkpoint.as_ref().map_or_else(|| config(args), |cp| cp.cfg.clone());
    cfg.dissipation = args.num("eps", if topology.size() == 1 { DEFAULT_EPS } else { 0.0 });
    let steps = args.num("steps", 500u64);
    let trace_dir = args.get("trace");
    let telemetry = TelemetryOptions {
        phases: trace_dir.is_some() || args.has("summary"),
        trace: trace_dir.is_some(),
        health: Some(HealthConfig { cadence: args.num("cadence", 50u64), ..HealthConfig::default() }),
    };
    println!(
        "running {} on {}x{} for {steps} steps over {px}x{pr} ranks…",
        cfg.regime.name(),
        cfg.grid.nx,
        cfg.grid.nr
    );
    let before = ns_metrics::Registry::global().snapshot();
    let plan = RunPlan { telemetry, resume: checkpoint.as_ref(), ..RunPlan::new(&cfg, topology, steps, comm) };
    let run = ns_runtime::run(&plan).map_err(|e| e.to_string())?;
    let window = ns_metrics::Registry::global().snapshot().diff(&before);

    let field = run.gather_field();
    let gas = cfg.effective_gas();
    let watch = diag::watchdogs(&field, &gas);
    println!(
        "t = {:.2}, healthy = {}, max Mach = {:.2} ({} health samples)",
        run.ranks[0].t,
        watch.healthy(),
        watch.max_mach,
        run.merged_health().len()
    );
    if let Some(reason) = run.aborted() {
        eprintln!("early abort after {} steps: {reason}", run.steps_taken());
    }
    print!("{}", contour::ascii(&diag::axial_momentum(&field, &gas), 100, 20));

    let summary = run.summary(&format!("jet-{px}x{pr}"));
    if let Some(dir) = trace_dir {
        print_phases(&run, &plan);
        let trace = run.merged_trace();
        print!("{}", report::gantt(&trace, topology.size(), 100));
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        write_file(&format!("{dir}/trace.jsonl"), to_jsonl(&trace))?;
        write_file(&format!("{dir}/trace_chrome.json"), to_chrome_trace(&trace))?;
        write_file(&format!("{dir}/run_summary.json"), summary.to_json())?;
        println!("\nwrote {dir}/trace.jsonl, {dir}/trace_chrome.json, {dir}/run_summary.json");
    }
    if let Some(path) = args.get("summary") {
        write_file(path, summary.to_json())?;
        println!("wrote {path}");
    }
    if let Some(path) = args.get("prom") {
        write_file(path, window.to_prometheus())?;
        println!("wrote {path}");
    }
    Ok(if watch.healthy() && run.aborted().is_none() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The per-rank phase breakdown next to a simulated reference column that
/// uses the exact same label vocabulary.
fn print_phases(run: &ns_runtime::ParallelRun, plan: &RunPlan) {
    let ranks = plan.topology.size();
    let mut columns: Vec<_> = (0..ranks).map(|r| (format!("rank {r}"), run.rank_phase_seconds(r))).collect();
    let report_steps = run.steps_taken().max(1);
    let scfg = ns_archsim::SimConfig {
        topology: plan.topology,
        comm: plan.comm,
        grid: plan.cfg.grid.clone(),
        report_steps,
        sim_steps: report_steps.min(4),
        ..ns_archsim::SimConfig::paper(ns_archsim::Platform::lace560_allnode_s(), ranks, plan.cfg.regime)
    };
    columns.push(("LACE sim (ref)".to_string(), ns_archsim::simulate(&scfg).phase_seconds));
    println!("{}", report::phase_breakdown("Per-rank phase breakdown, live vs simulated LACE Allnode-S", &columns));
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

fn cmd_checkpoint(args: &Args) -> ExitCode {
    let Some(path) = args.get("out") else {
        eprintln!("checkpoint requires --out FILE");
        return ExitCode::FAILURE;
    };
    let mut cfg = config(args);
    cfg.dissipation = args.num("eps", DEFAULT_EPS);
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
                eprintln!("jetns served: {e}; running without golden cross-checks");
                None
            }
        },
        None => ns_verify::snapshot::GoldenFile::load("GOLDEN_verify.json").ok(),
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
        "cache: {} hits, duplicates byte-identical: {}",
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
            // a JSON array of the jobs' RunSummary payloads, spliced
            // verbatim so a cache hit is byte-identical to its cold twin
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
        "usage: jetns <run|figures|platforms|extensions|checkpoint|bench-report|bench-compare|scaling-sweep|scaling-report|chaos|verify|loadgen|served|submit> [flags]\n\
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
        "figures" => cmd_figures(&args),
        "platforms" => cmd_platforms(),
        "extensions" => cmd_extensions(),
        "checkpoint" => cmd_checkpoint(&args),
        "bench-report" => cmd_bench_report(&args),
        "chaos" => cmd_chaos(&args),
        "verify" => cmd_verify(&args),
        "served" => cmd_served(&args),
        "submit" => cmd_submit(&args),
        "loadgen" => cmd_loadgen(&args),
        "bench-compare" => cmd_bench_compare(&args),
        "scaling-sweep" => cmd_scaling_sweep(&args),
        "scaling-report" => cmd_scaling_report(&args),
        _ => usage(),
    }
}
