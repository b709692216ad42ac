//! Floating-point operation accounting (Table 1 / Table 2 inputs).
//!
//! The paper reports total FP operations for the two applications
//! (145e9 for Navier-Stokes, 77e9 for Euler on the 250x100 grid over 5000
//! steps). We count canonical per-point costs of each kernel — the *work the
//! algorithm does*, identical across optimization versions (the paper, too,
//! holds FLOPs fixed across versions and lets only the time vary, which is
//! how a 9.3 -> 16.0 MFLOPS improvement is meaningful).
//!
//! Counting rule: `+ - * /` and `sqrt` each count 1; the per-point constants
//! below are audited against the kernel formulas in `tests`.

use serde::{Deserialize, Serialize};

/// Per-point cost of the primitive-recovery kernel
/// (`q = Q/r`, `1/rho`, `u`, `v`, kinetic energy, `p`, `T`).
pub const COST_PRIMS: u64 = 16;

/// Per-point cost of the six velocity/temperature derivatives
/// (each central difference: one subtraction and one multiply).
pub const COST_DERIVS: u64 = 12;

/// Per-point cost of the stress/heat-flux evaluation
/// (divergence, three normal stresses, shear, two heat fluxes).
pub const COST_STRESS: u64 = 18;

/// Per-point cost of assembling one viscous flux vector and `r`-weighting it.
pub const COST_FLUX_ASSEMBLY_VISCOUS: u64 = 22;

/// Per-point cost of assembling one inviscid flux vector and `r`-weighting it.
pub const COST_FLUX_ASSEMBLY_INVISCID: u64 = 14;

/// Per-point cost of the source term `p - ttt` (1 op; stresses already counted).
pub const COST_SOURCE: u64 = 1;

/// Per-point cost of a predictor update (per 4 components: one-sided
/// difference, scale, add; plus the source add in `r` sweeps).
pub const COST_PREDICTOR: u64 = 24;

/// Per-point cost of a corrector update.
pub const COST_CORRECTOR: u64 = 28;

/// Per-point cost of one fourth-difference dissipation pass (per direction).
pub const COST_DISSIPATION: u64 = 24;

/// Total flux-kernel per-point cost (derivatives + stresses + assembly) for
/// the viscous equations.
pub const COST_FLUX_VISCOUS: u64 = COST_DERIVS + COST_STRESS + COST_FLUX_ASSEMBLY_VISCOUS;

/// Total flux-kernel per-point cost for the Euler equations.
pub const COST_FLUX_INVISCID: u64 = COST_FLUX_ASSEMBLY_INVISCID;

/// Running FLOP ledger, broken down by kernel class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlopLedger {
    /// Primitive recovery.
    pub prims: u64,
    /// Flux evaluation (derivatives + stresses + assembly).
    pub flux: u64,
    /// Source-term evaluation.
    pub source: u64,
    /// Predictor/corrector updates.
    pub update: u64,
    /// Boundary-condition work (characteristic solves, extrapolations).
    pub boundary: u64,
    /// Artificial dissipation.
    pub dissipation: u64,
}

impl FlopLedger {
    /// Total FP operations recorded.
    pub fn total(&self) -> u64 {
        self.prims + self.flux + self.source + self.update + self.boundary + self.dissipation
    }

    /// Merge another ledger into this one (used to aggregate ranks).
    pub fn merge(&mut self, other: &FlopLedger) {
        self.prims += other.prims;
        self.flux += other.flux;
        self.source += other.source;
        self.update += other.update;
        self.boundary += other.boundary;
        self.dissipation += other.dissipation;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Audit `COST_PRIMS` against the kernel formulas:
    /// 4 ops for `q_c / r` (or `q_c * inv_r`), 1 for `1/rho`, 1 each for `u`
    /// and `v`, 3 for `u^2 + v^2`, 2 for `ke = 0.5 * rho * s`,
    /// 2 for `p = (g-1)(E - ke)`, 2 for `T = p * inv_rho * inv_rgas`.
    #[test]
    fn audit_prims_cost() {
        assert_eq!(COST_PRIMS, 4 + 1 + 1 + 1 + 3 + 2 + 2 + 2);
    }

    /// Six central differences, each `(a - b) * inv_2h`.
    #[test]
    fn audit_derivs_cost() {
        assert_eq!(COST_DERIVS, 6 * 2);
    }

    /// Stress kernel: `v/r` (1), `div` (2), `lam_div` (2), `txx/trr/ttt`
    /// (3 x 3), `txr` (2), `qx`/`qr` (1 each) = 18.
    #[test]
    fn audit_stress_cost() {
        assert_eq!(COST_STRESS, 1 + 2 + 2 + 9 + 2 + 1 + 1);
    }

    /// Viscous x-flux assembly: `E` recovery (5: p/(g-1) + ke reuse of 0.5
    /// rho s — counted 5), `m = rho u` (1), four components (1 + 3 + 2 + 7),
    /// `r`-weighting (4) minus shared subexpressions -> 22; the inviscid
    /// variant drops the 8 stress subtractions.
    #[test]
    fn audit_flux_assembly_costs() {
        assert_eq!(COST_FLUX_ASSEMBLY_VISCOUS, 5 + 1 + 1 + 3 + 2 + 6 + 4);
        assert_eq!(COST_FLUX_ASSEMBLY_INVISCID, COST_FLUX_ASSEMBLY_VISCOUS - 8);
    }

    /// Predictor: per component the 2-4 one-sided difference is 3 add/sub +
    /// 1 multiply by `7`, one multiply by `lambda`, one add = 6 ops x 4.
    #[test]
    fn audit_update_costs() {
        assert_eq!(COST_PREDICTOR, 4 * 6);
        assert_eq!(COST_CORRECTOR, 4 * 7);
    }

    /// The ledger counts the work the algorithm does, not how the kernels
    /// schedule it: the fused SoA sweep, with the update through the planes
    /// (V6) and inside it (V7), must account exactly the FLOPs of the V5 two-pass baseline, class by
    /// class, for both regimes.
    #[test]
    fn fused_and_soa_rungs_account_identical_flops() {
        use crate::config::{Regime, SolverConfig, Version};
        for regime in [Regime::Euler, Regime::NavierStokes] {
            let ledger_of = |v: Version| {
                let mut cfg = SolverConfig::paper(ns_numerics::Grid::new(24, 12, 10.0, 2.0), regime);
                cfg.version = v;
                let mut s = crate::Solver::new(cfg);
                s.run(4);
                s.ledger
            };
            let v5 = ledger_of(Version::V5);
            assert_eq!(ledger_of(Version::V6), v5, "{regime:?}: V6 ledger must equal V5");
            assert_eq!(ledger_of(Version::V7), v5, "{regime:?}: V7 ledger must equal V5");
        }
    }

    #[test]
    fn ledger_total_and_merge() {
        let mut a = FlopLedger { prims: 1, flux: 2, source: 3, update: 4, boundary: 5, dissipation: 6 };
        assert_eq!(a.total(), 21);
        let b = a;
        a.merge(&b);
        assert_eq!(a.total(), 42);
        assert_eq!(a.flux, 4);
    }
}
