//! Optional fourth-difference artificial dissipation.
//!
//! The 2-4 MacCormack scheme has only the dissipation built into its
//! one-sided differences; the paper adds none. Long excited-jet runs at
//! `M_c = 1.5` eventually steepen, so we provide a conventional explicit
//! fourth-difference smoother for the flow-physics examples. It is **off**
//! (`dissipation = 0`) in every performance experiment, and runs on every
//! rank grid: after the step each rank swaps the two edge lines of its
//! smoothing snapshot with its face neighbours
//! ([`crate::scheme::XHalo::exchange_state`]) and smooths the
//! global-interior points it owns with the serial per-point arithmetic, so
//! a damped decomposed run is bitwise the damped serial run of the same
//! field.

use crate::field::{gi, Field};
use crate::opcount::{self, FlopLedger};
use ns_numerics::Array2;

/// The smoothing snapshot `Q'`: the state planes, less the base when there
/// is one — the *fluctuation* `Q - Q_base` the step smooths.
///
/// Smoothing the raw state erodes the tanh shear layer itself while the
/// Dirichlet inflow keeps re-imposing the sharp profile — the growing
/// axial mismatch destabilizes the inlet region within a few hundred
/// steps. Smoothing the fluctuation about the initial (parallel-jet) base
/// flow preserves the mean exactly and damps only what the excitation and
/// rollup create, which is precisely what the long Figure 1 run needs.
/// Its ghost lines are whatever the field's were; a decomposed step fills
/// those at internal patch edges before [`smooth`] reads them.
pub fn fluctuation(field: &Field, base: Option<&Field>) -> [Array2; 4] {
    let mut snap = field.q.clone();
    if let Some(b) = base {
        assert_eq!(b.patch, field.patch);
        for (plane, base_plane) in snap.iter_mut().zip(&b.q) {
            for (dst, src) in plane.as_mut_slice().iter_mut().zip(base_plane.as_slice()) {
                *dst -= src;
            }
        }
    }
    snap
}

/// `Q <- Q - eps D4(snap)` at every global-interior point the field's patch
/// owns (global `2 <= i < nx - 2`, `2 <= j < nr - 3`). Both stencils stay
/// inside the global interior, so no boundary ghost is read: a patch edge
/// reads the snapshot's ghost lines, which hold the neighbour's edge lines.
pub fn smooth(field: &mut Field, snap: &[Array2; 4], eps: f64, ledger: &mut FlopLedger) {
    assert!(eps < 1.0 / 16.0, "explicit fourth-difference smoothing requires eps < 1/16");
    // Smoothing is confined to points whose full 5-point stencils are
    // interior: touching the Dirichlet inflow column, the characteristic
    // outflow column, the far-field rows or the axis-mirror closure injects
    // boundary-incompatible perturbations (the mirrored closure in
    // particular is not dissipative for all axis modes) which the
    // low-dissipation 2-4 scheme then amplifies.
    let p = &field.patch;
    // the local indices of the owned points `[o, o + n)` in the global `[lo, hi)`
    let owned = |o: usize, n: usize, lo: usize, hi: usize| lo.max(o) - o..hi.min(o + n).saturating_sub(o);
    let is = owned(p.i0, p.nxl, 2, p.grid.nx.saturating_sub(2));
    let js = owned(p.j0, p.nrl, 2, p.grid.nr.saturating_sub(3));
    let cells = (p.nxl * p.nrl) as u64;
    for (c, s) in snap.iter().enumerate() {
        let at = |i: isize, j: isize| s.at(gi(i), gi(j));
        for i in is.clone() {
            let si = i as isize;
            for j in js.clone() {
                let sj = j as isize;
                let mut d4 = 0.0;
                // radial stencil
                d4 += at(si, sj - 2) - 4.0 * at(si, sj - 1) + 6.0 * at(si, sj) - 4.0 * at(si, sj + 1) + at(si, sj + 2);
                // axial stencil
                d4 += at(si - 2, sj) - 4.0 * at(si - 1, sj) + 6.0 * at(si, sj) - 4.0 * at(si + 1, sj) + at(si + 2, sj);
                let v = field.at(c, si, sj) - eps * d4;
                field.set(c, si, sj, v);
            }
        }
    }
    ledger.dissipation += cells * opcount::COST_DISSIPATION;
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

    /// One smoothing pass of the raw state, as a whole-grid step runs it.
    fn apply(f: &mut Field, eps: f64, ledger: &mut FlopLedger) {
        let snap = fluctuation(f, None);
        smooth(f, &snap, eps, ledger);
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
        apply(&mut f, 0.0, &mut FlopLedger::default());
        assert_eq!(f.max_diff(&before), 0.0);
        // and an undamped step skips the pass: no smoothing is charged
        let cfg = crate::config::SolverConfig::paper(Grid::small(), crate::config::Regime::Euler);
        let mut s = crate::driver::Solver::new(crate::config::SolverConfig { dissipation: 0.0, ..cfg });
        s.run(2);
        assert_eq!(s.ledger.dissipation, 0);
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
        apply(&mut f, 0.5, &mut FlopLedger::default());
    }
}
