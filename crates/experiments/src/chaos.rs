//! The chaos study: sweep injected fault rates across processor counts,
//! verify that the recovery stack reproduces the fault-free answer *bitwise*,
//! and measure what the healing cost in wall clock.
//!
//! Every cell of the sweep runs the same [`RunPlan`] twice: once over the
//! plain in-process runtime (`reliability: None` — no framing, no faults)
//! as the reference, and once with `reliability` armed on
//! a deterministic [`FaultPlan`] — message drops, bit corruption and
//! duplication at the given rate, plus (optionally) one hard rank crash
//! mid-run. The cell *survives* when the chaos run completes within its
//! rollback budget, and is *bitwise* when its gathered field equals the
//! reference field exactly (`max_diff == 0`). The paper's cluster runs
//! (Section 5) simply died on a lost PVM daemon; this is the experiment we
//! would have wanted to hand them.

use ns_core::config::SolverConfig;
use ns_metrics::FlightDump;
use ns_runtime::{run, CartTopology, ChaosOptions, CommVersion, CrashSpec, FaultPlan, RunPlan};
use ns_telemetry::RecoverySummary;
use serde::Serialize;

/// Schema version stamped into the chaos-sweep JSON artifact.
pub const CHAOS_SCHEMA: u32 = 1;

/// One `(fault rate, processor count)` cell of the sweep.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ChaosCell {
    /// Ranks in the universe.
    pub p: usize,
    /// Per-frame rate of each message fault (drop; corruption and
    /// duplication each run at half this).
    pub rate: f64,
    /// Whether one rank was crashed mid-run.
    pub crashed: bool,
    /// The chaos run completed within its rollback budget.
    pub survived: bool,
    /// The recovered field equals the fault-free field bitwise.
    pub bitwise: bool,
    /// Chaos wall clock over fault-free wall clock.
    pub overhead: f64,
    /// Fault-free wall clock, seconds.
    pub clean_seconds: f64,
    /// Chaos wall clock, seconds.
    pub chaos_seconds: f64,
    /// The recovery block of the chaos run.
    pub recovery: RecoverySummary,
}

/// The whole sweep, ready for rendering or the CI artifact.
#[derive(Clone, Debug, Serialize)]
pub struct ChaosSweep {
    /// Artifact schema version ([`CHAOS_SCHEMA`]).
    pub schema: u32,
    /// Grid of the swept problem.
    pub nx: usize,
    /// Radial points of the swept problem.
    pub nr: usize,
    /// Steps per run.
    pub nsteps: u64,
    /// Seed of the deterministic fault plans.
    pub seed: u64,
    /// The cells, rate-major.
    pub cells: Vec<ChaosCell>,
    /// Flight-recorder dumps collected across the chaos runs (crashed
    /// ranks, rolled-back generations), in sweep order; also written as
    /// individual `FLIGHT_<rank>.json` files by [`write_flight_dumps`].
    pub flight_dumps: Vec<FlightDump>,
}

/// The deterministic plan for one cell: drops at `rate`, corruption and
/// duplication at `rate / 2`, and — when `crash` — rank `p / 2` killed at
/// the middle step. The seed is folded with the cell coordinates so no two
/// cells replay the same fault stream.
pub fn cell_plan(seed: u64, rate: f64, p: usize, nsteps: u64, crash: bool) -> FaultPlan {
    FaultPlan {
        seed: seed ^ ((p as u64) << 48) ^ (rate.to_bits() >> 16),
        drop_rate: rate,
        corrupt_rate: rate / 2.0,
        dup_rate: rate / 2.0,
        crash: crash.then_some(CrashSpec { rank: p / 2, step: (nsteps / 2).max(1) }),
        ..FaultPlan::default()
    }
}

/// Run the sweep: `rates` × `procs`, `nsteps` steps each, on `cfg`'s grid.
///
/// Every rank needs at least 4 interior columns.
pub fn sweep(cfg: &SolverConfig, procs: &[usize], rates: &[f64], nsteps: u64, seed: u64, crash: bool) -> ChaosSweep {
    let mut cells = Vec::new();
    let mut flight_dumps = Vec::new();
    for &rate in rates {
        for &p in procs {
            let plain = RunPlan::new(cfg, CartTopology::axial(p), nsteps, CommVersion::V5);
            let clean_t = std::time::Instant::now();
            let reference = run(&plain).unwrap_or_else(|e| panic!("{e}"));
            let clean_seconds = clean_t.elapsed().as_secs_f64();

            let opts = ChaosOptions { plan: cell_plan(seed, rate, p, nsteps, crash), ..ChaosOptions::default() };
            let faulty = RunPlan { reliability: Some(opts), ..plain };
            let chaos_t = std::time::Instant::now();
            let recovered = || run(&faulty).expect("the reference ran on this topology");
            let chaos = std::panic::catch_unwind(std::panic::AssertUnwindSafe(recovered)).ok();
            let chaos_seconds = chaos_t.elapsed().as_secs_f64();

            if let Some(run) = &chaos {
                flight_dumps.extend(run.flight_dumps().into_iter().cloned());
            }
            let (survived, bitwise, recovery) = match &chaos {
                Some(run) => (
                    true,
                    reference.gather_field().max_diff(&run.gather_field()) == 0.0,
                    run.recovery.as_ref().map(|r| r.to_summary(&run.total_stats())).unwrap_or_default(),
                ),
                // the rollback budget panicked: the cell is lost, not the sweep
                None => (false, false, RecoverySummary::default()),
            };
            cells.push(ChaosCell {
                p,
                rate,
                crashed: crash,
                survived,
                bitwise,
                overhead: if clean_seconds > 0.0 { chaos_seconds / clean_seconds } else { 0.0 },
                clean_seconds,
                chaos_seconds,
                recovery,
            });
        }
    }
    ChaosSweep { schema: CHAOS_SCHEMA, nx: cfg.grid.nx, nr: cfg.grid.nr, nsteps, seed, cells, flight_dumps }
}

/// Write every collected flight dump into `dir` under its canonical
/// `FLIGHT_<rank>.json` name (a rank that crashed in several cells keeps
/// its last dump). Returns the paths written.
pub fn write_flight_dumps(s: &ChaosSweep, dir: &str) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let mut paths = Vec::new();
    for dump in &s.flight_dumps {
        let path = format!("{dir}/{}", FlightDump::file_name(dump.rank));
        std::fs::write(&path, dump.to_json()).map_err(|e| format!("cannot write {path}: {e}"))?;
        if !paths.contains(&path) {
            paths.push(path);
        }
    }
    Ok(paths)
}

/// Render the survival/overhead table.
pub fn render(s: &ChaosSweep) -> String {
    let mut out = String::new();
    out.push_str(&format!("== Chaos sweep: {}x{} grid, {} steps, seed {} ==\n", s.nx, s.nr, s.nsteps, s.seed));
    out.push_str(&format!(
        "{:>6} {:>7} {:>6} {:>9} {:>8} {:>9} {:>6} {:>5} {:>7} {:>8} {:>7}\n",
        "rate", "p", "crash", "survived", "bitwise", "overhead", "gens", "rb", "faults", "retries", "recomp"
    ));
    for c in &s.cells {
        out.push_str(&format!(
            "{:>6} {:>7} {:>6} {:>9} {:>8} {:>8.2}x {:>6} {:>5} {:>7} {:>8} {:>7}\n",
            format!("{:.1}%", c.rate * 100.0),
            c.p,
            if c.crashed { "yes" } else { "no" },
            if c.survived { "yes" } else { "NO" },
            if c.bitwise { "yes" } else { "NO" },
            c.overhead,
            c.recovery.generations,
            c.recovery.rollbacks,
            c.recovery.faults_injected,
            c.recovery.retries,
            c.recovery.recomputed_steps,
        ));
    }
    let ok = s.cells.iter().filter(|c| c.survived && c.bitwise).count();
    out.push_str(&format!("{ok}/{} cells recovered bitwise\n", s.cells.len()));
    out
}

/// True when every cell both survived and recovered bitwise.
pub fn all_recovered(s: &ChaosSweep) -> bool {
    s.cells.iter().all(|c| c.survived && c.bitwise)
}

/// The machine-readable artifact (what CI uploads).
pub fn to_json(s: &ChaosSweep) -> String {
    serde_json::to_string_pretty(s).expect("sweep serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_core::config::Regime;
    use ns_numerics::Grid;

    fn tiny_cfg() -> SolverConfig {
        SolverConfig::paper(Grid::new(24, 10, 8.0, 2.0), Regime::Euler)
    }

    #[test]
    fn tiny_sweep_recovers_bitwise() {
        let sweep = sweep(&tiny_cfg(), &[2], &[0.0, 0.02], 4, 7, false);
        assert_eq!(sweep.cells.len(), 2);
        assert!(all_recovered(&sweep), "{}", render(&sweep));
        // the zero-rate cell must not have healed anything
        assert_eq!(sweep.cells[0].recovery.faults_injected, 0);
    }

    #[test]
    fn sweep_json_artifact_is_complete() {
        let sweep = sweep(&tiny_cfg(), &[2], &[0.01], 4, 7, true);
        let json = to_json(&sweep);
        for key in ["schema", "cells", "survived", "bitwise", "overhead", "recovery", "rollbacks", "flight_dumps"] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert_eq!(sweep.schema, CHAOS_SCHEMA);
        assert!(sweep.cells[0].crashed);
    }

    #[test]
    fn crashing_sweep_collects_and_writes_flight_dumps() {
        let sweep = sweep(&tiny_cfg(), &[2], &[0.0], 4, 7, true);
        assert!(
            sweep.flight_dumps.iter().any(|d| d.reason == "rank-crash"),
            "a crashed cell must surface its rank-crash dump"
        );
        let dir = std::env::temp_dir().join(format!("ns-chaos-flight-{}", std::process::id()));
        let dir = dir.to_str().unwrap().to_string();
        let paths = write_flight_dumps(&sweep, &dir).unwrap();
        // crash spec kills rank p/2 = 1
        assert!(paths.iter().any(|p| p.ends_with("FLIGHT_1.json")), "{paths:?}");
        for p in &paths {
            let dump = FlightDump::from_json(&std::fs::read_to_string(p).unwrap()).unwrap();
            assert!(!dump.events.is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cell_plans_differ_across_cells() {
        let a = cell_plan(7, 0.01, 2, 8, false);
        let b = cell_plan(7, 0.01, 4, 8, false);
        let c = cell_plan(7, 0.02, 2, 8, false);
        assert_ne!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
    }
}
