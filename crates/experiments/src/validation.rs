//! Cross-validation of the analytic workload model against the live solver:
//! the platform simulator replays `ns_core::workload`, so that model must
//! track what the instrumented solver actually does.

use ns_core::config::{Regime, SolverConfig};
use ns_core::driver::Solver;
use ns_core::field::Patch;
use ns_core::workload;
use ns_numerics::Grid;

/// Relative error between the workload model's per-step FLOPs and the live
/// solver's measured ledger delta (interior kernels only; the ledger also
/// carries boundary work the model ignores).
pub fn workload_vs_ledger_error(grid: Grid, regime: Regime, steps: u64) -> f64 {
    let cfg = SolverConfig::paper(grid.clone(), regime);
    let mut s = Solver::new(cfg);
    s.run(1); // exclude any first-step effects from the sample
    let before = s.ledger;
    s.run(steps);
    let interior_measured = (s.ledger.prims + s.ledger.flux + s.ledger.source + s.ledger.update)
        - (before.prims + before.flux + before.source + before.update);
    let per_step_measured = interior_measured as f64 / steps as f64;
    let model = workload::step_workload(regime, &Patch::whole(grid.clone())).compute_flops() as f64;
    (per_step_measured - model).abs() / model
}

/// One cell of the validation matrix.
#[derive(Clone, Debug)]
pub struct ValidationCell {
    /// Governing equations.
    pub regime: Regime,
    /// Grid shape (nx, nr).
    pub grid: [usize; 2],
    /// Relative model-vs-measured error.
    pub error: f64,
}

/// The grid ladder the matrix covers: the paper's small grid, a tall one, a
/// wide one, and an odd-sized one (nothing divides evenly).
fn matrix_grids() -> Vec<Grid> {
    vec![Grid::small(), Grid::new(80, 40, 50.0, 5.0), Grid::new(128, 16, 50.0, 5.0), Grid::new(67, 21, 50.0, 5.0)]
}

/// Run the full regime x grid validation matrix.
pub fn validation_matrix(steps: u64) -> Vec<ValidationCell> {
    let mut cells = Vec::new();
    for regime in [Regime::NavierStokes, Regime::Euler] {
        for grid in matrix_grids() {
            let shape = [grid.nx, grid.nr];
            cells.push(ValidationCell { regime, grid: shape, error: workload_vs_ledger_error(grid, regime, steps) });
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_solver_across_regimes_and_grids() {
        for cell in validation_matrix(4) {
            assert!(cell.error < 0.01, "{:?} on {:?}: workload model off by {}", cell.regime, cell.grid, cell.error);
        }
    }
}
