//! The `step_*` workloads and the `ns-core` ledger: whole `Solver::step`s
//! timed from outside, then once more with the solver's own phase timers on
//! so the step decomposes into its kernel phases.

use crate::report::{Metrics, Reps};
use crate::spans::Recorder;
use crate::stats::median;
use ns_core::config::{Regime, SolverConfig, Version};
use ns_core::Solver;
use ns_numerics::Grid;
use ns_verify::snapshot::field_hash;
use std::time::{Duration, Instant};

/// One solver problem: grid, equations, kernel rung and how long a rep is.
#[derive(Clone, Copy, Debug)]
pub struct SolverCase {
    /// Axial points.
    pub nx: usize,
    /// Radial points.
    pub nr: usize,
    /// Governing equations.
    pub regime: Regime,
    /// Kernel version.
    pub version: Version,
    /// Untimed warm-up steps per rep (part of set-up).
    pub warm: u64,
    /// Timed steps per rep; even, so a rep ends on a completed L1/L2
    /// alternation.
    pub steps: u64,
}

impl SolverCase {
    /// The paper's configuration on this case's grid (the paper's 50 x 5
    /// radii domain), with the seeded excitation level.
    pub fn cfg(&self, seed: u64) -> SolverConfig {
        let mut cfg = SolverConfig::paper(Grid::new(self.nx, self.nr, 50.0, 5.0), self.regime);
        cfg.version = self.version;
        cfg.excitation.level = crate::gen::excitation_level(seed);
        cfg
    }

    /// The same problem with a tenth of the steps, for the brief passes a
    /// traced run makes over layers outside its workload's path.
    pub fn brief(&self) -> SolverCase {
        let even = |n: u64| (n / 10).max(2).next_multiple_of(2);
        SolverCase { warm: even(self.warm), steps: even(self.steps), ..*self }
    }
}

/// What the phase timers and the FLOP ledger said about the timed steps.
#[derive(Default)]
struct PhaseTotals {
    steps: u64,
    wall_s: f64,
    x_s: f64,
    r_s: f64,
    sweep_s: f64,
    update_s: f64,
    bc_s: f64,
    all_s: f64,
    flops: u64,
}

/// Run reps of (fresh solver, warm-up, timed steps) until `budget` is
/// spent. Returns the samples, the phase totals (empty unless `phases`) and
/// the last rep's final-field hash.
fn step_reps(
    case: &SolverCase,
    seed: u64,
    budget: Duration,
    phases: bool,
    rec: &mut Recorder,
) -> (Reps, PhaseTotals, u64) {
    let cfg = case.cfg(seed);
    let mut reps = Reps::default();
    let mut totals = PhaseTotals::default();
    let deadline = Instant::now() + budget;
    let mut rep = 0u64;
    loop {
        let t_setup = Instant::now();
        let span = rec.enter("core.Solver::new", rep);
        let mut solver = Solver::new(cfg.clone());
        rec.exit(span);
        solver.run(case.warm);
        if phases {
            solver.enable_phase_timing();
        }
        let flops_before = solver.ledger.total();
        reps.setup_s.push(t_setup.elapsed().as_secs_f64());

        let span = rec.enter("core.Solver::run", rep);
        let t0 = Instant::now();
        solver.run(case.steps);
        let wall = t0.elapsed().as_secs_f64();
        rec.exit(span);

        reps.op_ms.push(wall * 1e3 / case.steps as f64);
        reps.ops += case.steps;
        reps.wall_s += wall;
        if !solver.healthy() {
            reps.failed += case.steps;
        }
        if phases {
            totals.steps += case.steps;
            totals.wall_s += wall;
            totals.flops += solver.ledger.total() - flops_before;
            for (label, stat) in &solver.phase_ledger().by_label {
                let s = stat.seconds;
                totals.all_s += s;
                let Some((axis, phase)) = label.split_once(':') else { continue };
                match axis {
                    "x" => totals.x_s += s,
                    "r" => totals.r_s += s,
                    "bc" => totals.bc_s += s,
                    _ => {}
                }
                if ["prims", "flux", "fused"].iter().any(|p| phase.starts_with(p)) {
                    totals.sweep_s += s;
                } else if matches!(phase, "predict" | "correct") {
                    totals.update_s += s;
                }
            }
        }
        rep += 1;
        if Instant::now() >= deadline {
            reps.peak_rss_mb = crate::host::peak_rss_mb();
            return (reps, totals, field_hash(&solver.field));
        }
    }
}

/// The untraced `step_*` run plus its output check: the last rep stayed
/// healthy and its final field is bitwise the field a V5 run of the same
/// steps produces (the V5 = V7 contract).
pub fn run(case: &SolverCase, seed: u64, budget: Duration) -> Reps {
    let (mut reps, _, hash) = step_reps(case, seed, budget, false, &mut Recorder::off());
    reps.checks += 1;
    let mut reference = Solver::new(SolverConfig { version: Version::V5, ..case.cfg(seed) });
    reference.run(case.warm + case.steps);
    if !reference.healthy() || field_hash(&reference.field) != hash {
        eprintln!("check failed: final field differs from the V5 run of the same steps");
        reps.failed_checks += 1;
    }
    reps
}

/// The `ns-core` ledger for `case`: an untraced pass for the baseline step
/// time, then a pass with phase timing on.
/// Returns `(attempted, failed)` steps.
pub fn ledger(case: &SolverCase, seed: u64, budget: Duration, rec: &mut Recorder, out: &mut Metrics) -> (u64, u64) {
    let (plain, _, _) = step_reps(case, seed, budget / 2, false, &mut Recorder::off());
    let (traced, t, _) = step_reps(case, seed, budget / 2, true, rec);
    let per_step_ms = |s: f64| s * 1e3 / t.steps as f64;
    let step_ms = median(&plain.op_ms);
    let traced_ms = median(&traced.op_ms);
    out.put("core.x_ms_per_step", per_step_ms(t.x_s));
    out.put("core.r_ms_per_step", per_step_ms(t.r_s));
    out.put("core.sweep_ms_per_step", per_step_ms(t.sweep_s));
    out.put("core.update_ms_per_step", per_step_ms(t.update_s));
    out.put("core.bc_ms_per_step", per_step_ms(t.bc_s));
    out.put("core.unattributed_frac", 1.0 - t.all_s / t.wall_s);
    let flops_per_step = t.flops as f64 / t.steps as f64;
    out.put("core.flops_per_step", flops_per_step);
    out.put("core.mflops", flops_per_step / (step_ms * 1e3));
    // the least a step can move: every conservative component of every
    // point read once and written once by each of the four sub-sweeps
    let min_bytes = (8 * 4 * case.nx * case.nr * 2 * 4) as f64;
    out.put("core.min_bytes_per_step_computed", min_bytes);
    out.put("core.min_gbs_computed", min_bytes / (step_ms * 1e6));
    out.put_n("core.step_ms_p50", step_ms, plain.op_ms.len());
    out.put("core.trace_overhead_frac", (traced_ms - step_ms) / step_ms);
    (plain.ops + traced.ops, plain.failed + traced.failed)
}
