//! End-to-end tour of the telemetry stack: run the distributed jet with
//! every instrument armed, print the per-rank phase breakdown next to the
//! simulated LACE reference (same label vocabulary), draw the ASCII Gantt
//! timeline, and show the three machine-readable exports `jetns run
//! --trace DIR` writes to disk.
//!
//! ```text
//! cargo run --release --example trace_demo
//! ```

use ns_core::config::{Regime, SolverConfig};
use ns_experiments::report;
use ns_numerics::Grid;
use ns_runtime::{run_parallel_instrumented, CommVersion, TelemetryOptions};
use ns_telemetry::{to_chrome_trace, to_jsonl, trace_from_jsonl, HealthConfig};

fn main() {
    let ranks = 3;
    let steps = 12;
    let cfg = SolverConfig::paper(Grid::new(60, 24, 50.0, 5.0), Regime::NavierStokes);
    let opts = TelemetryOptions {
        phases: true,
        trace: true,
        health: Some(HealthConfig { cadence: 4, ..HealthConfig::default() }),
    };
    println!("instrumented {}-rank Navier-Stokes run, {steps} steps…\n", ranks);
    let run = run_parallel_instrumented(&cfg, ranks, steps, CommVersion::V5, opts);

    // 1. phase attribution: live ranks vs the architecture simulator,
    //    comparable because both sides use the same phase labels
    let mut columns: Vec<_> = (0..ranks).map(|r| (format!("rank {r}"), run.rank_phase_seconds(r))).collect();
    let mut scfg = ns_archsim::SimConfig::paper(ns_archsim::Platform::lace560_allnode_s(), ranks, cfg.regime);
    scfg.solver = cfg.clone();
    scfg.report_steps = steps;
    scfg.sim_steps = steps.min(4);
    columns.push(("LACE sim".to_string(), ns_archsim::simulate(&scfg).phase_seconds));
    println!("{}", report::phase_breakdown("Phase breakdown: live host vs simulated LACE", &columns));

    // 2. the merged message/phase timeline as an ASCII Gantt chart
    let trace = run.merged_trace();
    print!("{}", report::gantt(&trace, ranks, 90));

    // 3. the exports: JSONL (round-trips), Chrome trace_event, JSON summary
    let jsonl = to_jsonl(&trace);
    let back = trace_from_jsonl(&jsonl).expect("jsonl round-trip");
    assert!(back.iter().eq(trace.iter().copied()), "jsonl round-trip mismatch");
    let chrome = to_chrome_trace(&trace);
    let summary = run.summary("trace-demo");
    println!("\ntrace: {} events, {} JSONL bytes, {} Chrome-trace bytes", trace.len(), jsonl.len(), chrome.len());
    println!("first event: {}", jsonl.lines().next().unwrap_or(""));
    println!("\nrun summary:\n{}", summary.to_json());

    // the simulator emits the same event schema from virtual time
    let (_, sim_trace) = ns_archsim::simulate_traced(&scfg);
    println!("\nsimulated LACE timeline (virtual µs over {} steps):", scfg.sim_steps);
    print!("{}", report::gantt(&sim_trace, ranks, 90));
}
