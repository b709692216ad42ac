//! Optional fourth-difference artificial dissipation.
//!
//! The 2-4 MacCormack scheme has only the dissipation built into its
//! one-sided differences; the paper adds none. Long excited-jet runs at
//! `M_c = 1.5` eventually steepen, so we provide a conventional explicit
//! fourth-difference smoother for the flow-physics examples. It is **off**
//! (`dissipation = 0`) in every performance experiment and is only available
//! on a whole-grid patch: the serial solver, or a 1×1 rank grid (a finer
//! decomposition is refused at plan validation, since the paper's message
//! protocol carries no smoothing halo).

use crate::bc::Q_PARITY;
use crate::field::Field;
use crate::opcount::{self, FlopLedger};

/// Apply one explicit smoothing pass `Q <- Q - eps D4(Q')` with the
/// fourth-difference operator in both directions, where `Q'` is the
/// *fluctuation* `Q - Q_base` when a base field is supplied.
///
/// Smoothing the raw state erodes the tanh shear layer itself while the
/// Dirichlet inflow keeps re-imposing the sharp profile — the growing
/// axial mismatch destabilizes the inlet region within a few hundred
/// steps. Smoothing the fluctuation about the initial (parallel-jet) base
/// flow preserves the mean exactly and damps only what the excitation and
/// rollup create, which is precisely what the long Figure 1 run needs.
/// Radial ghosts use the axis parity mirror; the axial stencil is
/// restricted to columns with a full interior stencil.
pub fn apply_about(field: &mut Field, base: Option<&Field>, eps: f64, ledger: &mut FlopLedger) {
    if eps == 0.0 {
        return;
    }
    assert!(eps < 1.0 / 16.0, "explicit fourth-difference smoothing requires eps < 1/16");
    let (nxl, nr) = (field.nxl(), field.nr());
    let mut snap = field.clone();
    if let Some(b) = base {
        assert_eq!(b.nxl(), nxl);
        for c in 0..4 {
            for (dst, src) in snap.q[c].as_mut_slice().iter_mut().zip(b.q[c].as_slice()) {
                *dst -= src;
            }
        }
    }
    // mirror radial ghosts of the snapshot so D4 is defined down to j = 0
    for c in 0..4 {
        let s = Q_PARITY[c];
        for i in 0..nxl as isize {
            for g in 0..2_isize {
                snap.set(c, i, -1 - g, s * snap.at(c, i, g));
            }
        }
    }
    // Smoothing is confined to points whose full 5-point stencils are
    // interior: touching the Dirichlet inflow column, the characteristic
    // outflow column, the far-field rows or the axis-mirror closure injects
    // boundary-incompatible perturbations (the mirrored closure in
    // particular is not dissipative for all axis modes) which the
    // low-dissipation 2-4 scheme then amplifies.
    for c in 0..4 {
        for i in 2..nxl.saturating_sub(2) {
            let si = i as isize;
            for j in 2..nr.saturating_sub(3) {
                let sj = j as isize;
                let mut d4 = 0.0;
                // radial stencil (ghosts valid below the axis, interior above)
                d4 += snap.at(c, si, sj - 2) - 4.0 * snap.at(c, si, sj - 1) + 6.0 * snap.at(c, si, sj)
                    - 4.0 * snap.at(c, si, sj + 1)
                    + snap.at(c, si, sj + 2);
                // axial stencil
                d4 += snap.at(c, si - 2, sj) - 4.0 * snap.at(c, si - 1, sj) + 6.0 * snap.at(c, si, sj)
                    - 4.0 * snap.at(c, si + 1, sj)
                    + snap.at(c, si + 2, sj);
                let v = field.at(c, si, sj) - eps * d4;
                field.set(c, si, sj, v);
            }
        }
    }
    ledger.dissipation += (nxl * nr) as u64 * opcount::COST_DISSIPATION;
}

/// Smoothing of the raw state (no base field); see [`apply_about`].
pub fn apply(field: &mut Field, eps: f64, ledger: &mut FlopLedger) {
    apply_about(field, None, eps, ledger);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Patch;
    use ns_numerics::gas::Primitive;
    use ns_numerics::{GasModel, Grid};

    fn gas() -> GasModel {
        GasModel::air(1.2e6, 1.5)
    }

    #[test]
    fn zero_eps_is_noop() {
        let g = gas();
        let mut f = Field::from_primitives(Patch::whole(Grid::small()), &g, |x, r| Primitive {
            rho: 1.0 + 0.1 * (x + r).sin(),
            u: 0.3,
            v: 0.0,
            p: 0.7,
        });
        let before = f.clone();
        let mut ledger = FlopLedger::default();
        apply(&mut f, 0.0, &mut ledger);
        assert_eq!(f.max_diff(&before), 0.0);
        assert_eq!(ledger.dissipation, 0);
    }

    #[test]
    fn smooths_an_odd_even_mode() {
        // a +-1 checkerboard in j is the highest radial frequency; one pass
        // must reduce its amplitude
        let patch = Patch::whole(Grid::small());
        let mut f = Field::zeros(patch);
        let (nxl, nr) = (f.nxl(), f.nr());
        for i in 0..nxl {
            for j in 0..nr {
                let sgn = if j.is_multiple_of(2) { 1.0 } else { -1.0 };
                f.set(3, i as isize, j as isize, 10.0 + sgn);
            }
        }
        let mut ledger = FlopLedger::default();
        apply(&mut f, 0.01, &mut ledger);
        // measure the oscillation amplitude at an interior point
        let a = f.at(3, 10, 8);
        let b = f.at(3, 10, 9);
        assert!((a - b).abs() < 2.0, "checkerboard must be damped, got {}", (a - b).abs());
        assert!(ledger.dissipation > 0);
    }

    #[test]
    fn preserves_smooth_fields_to_high_order() {
        // D4 of a cubic is exactly zero: smooth fields are untouched where
        // the full stencil applies
        let patch = Patch::whole(Grid::small());
        let mut f = Field::zeros(patch);
        let (nxl, nr) = (f.nxl(), f.nr());
        for c in 0..4 {
            for i in 0..nxl {
                for j in 0..nr {
                    let x = i as f64;
                    f.set(c, i as isize, j as isize, 1.0 + 0.01 * x + 0.001 * x * x);
                }
            }
        }
        let before = f.clone();
        let mut ledger = FlopLedger::default();
        apply(&mut f, 0.02, &mut ledger);
        // columns with full axial stencils and rows away from the axis
        for i in 4..nxl - 4 {
            for j in 4..nr - 4 {
                let d = (f.at(0, i as isize, j as isize) - before.at(0, i as isize, j as isize)).abs();
                assert!(d < 1e-12, "({i},{j}) changed by {d}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_unstable_eps() {
        let g = gas();
        let mut f = Field::from_primitives(Patch::whole(Grid::small()), &g, |_, _| Primitive {
            rho: 1.0,
            u: 0.0,
            v: 0.0,
            p: 0.7,
        });
        let mut ledger = FlopLedger::default();
        apply(&mut f, 0.5, &mut ledger);
    }
}
