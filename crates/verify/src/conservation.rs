//! Conservation ledgers: invariant drift reconciled against boundary-flux
//! budgets.
//!
//! The mechanics live in [`ns_core::diag::ConservationLedger`] (so the
//! production drivers can audit runs too); this module owns the
//! verification *cases* — which configurations to audit, for how long, and
//! what unexplained residual is acceptable.

use ns_core::config::{Regime, SolverConfig};
use ns_numerics::Grid;
use ns_runtime::{CartTopology, CommVersion, RunPlan, TelemetryOptions};
use ns_telemetry::HealthConfig;
use serde::Serialize;

/// Tolerance on the relative unexplained residual for a uniform stream
/// (exact cancellation up to rounding accumulation).
pub const TOL_UNIFORM: f64 = 1e-10;
/// Tolerance on the relative unexplained residual for evolving jet flow:
/// the budget quadrature is O(h^2) at the surfaces, so the residual is
/// truncation-level, not rounding-level. Calibrated with ~10x headroom over
/// the measured residuals (see `EXPERIMENTS.md`).
pub const TOL_JET: f64 = 2e-3;

/// One conservation case: a configuration run for `steps` with the ledger
/// open, and its verdict against `tolerance`.
#[derive(Clone, Debug, Serialize)]
pub struct ConservationCase {
    /// Case label.
    pub name: String,
    /// Governing equations.
    pub regime: String,
    /// Steps run.
    pub steps: u64,
    /// Relative raw drift (mass, x-momentum, r-momentum, energy).
    pub drift_rel: [f64; 4],
    /// Relative unexplained residual (same order).
    pub residual_rel: [f64; 4],
    /// Residual tolerance.
    pub tolerance: f64,
    /// Verdict: every residual component below tolerance.
    pub pass: bool,
}

/// A uniform free stream: every budget term cancels analytically, so the
/// residual is pure rounding accumulation.
fn uniform_cfg(regime: Regime) -> SolverConfig {
    let mut cfg = SolverConfig::paper(Grid::new(64, 24, 50.0, 5.0), regime);
    cfg.excitation.enabled = false;
    cfg.jet.u_c = 0.4;
    cfg.jet.u_inf = 0.4;
    cfg.jet.t_c = 1.0;
    cfg.jet.t_inf = 1.0;
    cfg.jet.mach_c = 0.0;
    cfg
}

/// The excited jet on the small grid: the forced shear layer rolls up, so
/// the boundary fluxes are large and evolving and the ledger is exercised
/// for real (the unexcited jet is a near-equilibrium of the tanh profile —
/// its drift is rounding-level and audits nothing).
fn jet_cfg(regime: Regime) -> SolverConfig {
    SolverConfig::paper(Grid::small(), regime)
}

/// Run one case: the 1×1 plan with health armed, which keeps the ledger.
/// A run the watchdogs stop early fails the case, whatever its ledger says:
/// the audit covers the whole window or nothing.
pub fn run_case(name: &str, cfg: SolverConfig, steps: u64, tolerance: f64) -> ConservationCase {
    audit(name, cfg, steps, tolerance, HealthConfig::default())
}

fn audit(name: &str, cfg: SolverConfig, steps: u64, tolerance: f64, health: HealthConfig) -> ConservationCase {
    let telemetry = TelemetryOptions { health: Some(health), ..Default::default() };
    let plan = RunPlan { telemetry, ..RunPlan::new(&cfg, CartTopology::axial(1), steps, CommVersion::V5) };
    let run = ns_runtime::run(&plan).unwrap_or_else(|e| panic!("{name}: {e}"));
    let closed = run.conservation().expect("health armed: the ledger is kept");
    let whole_window = run.aborted().is_none() && closed.steps == steps;
    let pass = whole_window && closed.residual_rel.iter().all(|&r| r <= tolerance);
    ConservationCase {
        name: name.to_string(),
        regime: cfg.regime.name().to_string(),
        steps: closed.steps,
        drift_rel: closed.drift_rel,
        residual_rel: closed.residual_rel,
        tolerance,
        pass,
    }
}

/// Run the conservation suite. `quick` trims to one uniform and one jet
/// case; the full suite covers both regimes of each.
pub fn run_cases(quick: bool) -> Vec<ConservationCase> {
    let long = 240;
    if quick {
        vec![
            run_case("uniform/euler", uniform_cfg(Regime::Euler), long, TOL_UNIFORM),
            run_case("jet/euler", jet_cfg(Regime::Euler), long, TOL_JET),
        ]
    } else {
        vec![
            run_case("uniform/euler", uniform_cfg(Regime::Euler), long, TOL_UNIFORM),
            run_case("uniform/navier-stokes", uniform_cfg(Regime::NavierStokes), long, TOL_UNIFORM),
            run_case("jet/euler", jet_cfg(Regime::Euler), long, TOL_JET),
            run_case("jet/navier-stokes", jet_cfg(Regime::NavierStokes), long, TOL_JET),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_telemetry::HealthLimits;

    /// A run the watchdogs stop before the window ends audits only the
    /// steps it took; however clean that short ledger is, the case fails.
    #[test]
    fn a_health_abort_fails_the_case() {
        let health = HealthConfig { cadence: 2, limits: HealthLimits { max_mach: 0.5, ..Default::default() } };
        let case = audit("jet/euler", jet_cfg(Regime::Euler), 8, TOL_JET, health);
        assert_eq!(case.steps, 0, "the jet core is Mach 1.5: the step-0 sample stops the run");
        assert!(case.residual_rel.iter().all(|&r| r <= TOL_JET), "the empty ledger is clean");
        assert!(!case.pass, "a shortened window must not pass");
        assert!(run_case("jet/euler", jet_cfg(Regime::Euler), 8, TOL_JET).pass);
    }
}
