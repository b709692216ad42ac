//! Flow diagnostics: integrated invariants, boundary-flux conservation
//! budgets and derived planes (the axial momentum plane is what the paper's
//! Figure 1 contours).

use crate::field::Field;
use crate::physics::{self, Stresses};
use ns_numerics::{Array2, GasModel};

/// Integrated quantities of the axisymmetric flow (per unit `2 pi`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Invariants {
    /// Total mass `integral rho r dr dx`.
    pub mass: f64,
    /// Total axial momentum.
    pub x_momentum: f64,
    /// Total radial momentum.
    pub r_momentum: f64,
    /// Total energy.
    pub energy: f64,
}

impl Invariants {
    fn to_array(self) -> [f64; 4] {
        [self.mass, self.x_momentum, self.r_momentum, self.energy]
    }
}

/// Invariants, budgets and their integrals are sums over cells, so the
/// patches of a decomposition add up to the whole grid.
impl std::ops::AddAssign for Invariants {
    fn add_assign(&mut self, o: Self) {
        self.mass += o.mass;
        self.x_momentum += o.x_momentum;
        self.r_momentum += o.r_momentum;
        self.energy += o.energy;
    }
}

/// Compute the integrated invariants.
pub fn invariants(field: &Field) -> Invariants {
    Invariants {
        mass: field.integral(0),
        x_momentum: field.integral(1),
        r_momentum: field.integral(2),
        energy: field.integral(3),
    }
}

/// Predicted instantaneous rate of change `d/dt integral Q` of each
/// invariant from the boundary fluxes and the radial pressure source — the
/// other side of the conservation ledger.
///
/// The control volume matching [`Field::integral`]'s midpoint quadrature is
/// `[-dx/2, lx + dx/2] x [0, lr]` (the staggered radial grid puts the inner
/// surface exactly on the axis, where the weighted flux `G = r g` vanishes
/// identically). Surface fluxes are evaluated by linear extrapolation of
/// the two cells nearest each surface to the half-cell-offset surface
/// itself, consistent to O(h^2) with the quadrature.
///
/// Only inviscid fluxes are accounted: the neglected viscous surface work
/// and heat flux are O(mu) (mu ~ 2.5e-6 at the paper's Reynolds number),
/// far below the drift tolerances the verification suite asserts.
///
/// On a patch of a decomposition only the global surfaces it owns are
/// billed, so the patches' budgets sum to the whole grid's.
pub fn boundary_budget(field: &Field, gas: &GasModel) -> Invariants {
    let patch = &field.patch;
    let (dx, dr) = (patch.grid.dx, patch.grid.dr);
    let (nxl, nr) = (field.nxl(), field.nr());
    let s0 = Stresses::default();
    let fvec = |i: usize, j: usize| -> [f64; 4] {
        let w = field.primitive(i, j, gas);
        let e = gas.total_energy(w.rho, w.u, w.v, w.p);
        let f = physics::xflux(w.rho, w.u, w.v, w.p, e, &s0);
        let r = patch.r(j);
        [r * f[0], r * f[1], r * f[2], r * f[3]]
    };
    let gvec = |i: usize, j: usize| -> [f64; 4] {
        let w = field.primitive(i, j, gas);
        let e = gas.total_energy(w.rho, w.u, w.v, w.p);
        let g = physics::rflux(w.rho, w.u, w.v, w.p, e, &s0);
        let r = patch.r(j);
        [r * g[0], r * g[1], r * g[2], r * g[3]]
    };
    let mut rate = [0.0f64; 4];
    if patch.is_global_left() {
        for j in 0..nr {
            let f0 = fvec(0, j);
            let f1 = fvec(1, j);
            for c in 0..4 {
                rate[c] += (1.5 * f0[c] - 0.5 * f1[c]) * dr;
            }
        }
    }
    if patch.is_global_right() {
        for j in 0..nr {
            let f0 = fvec(nxl - 1, j);
            let f1 = fvec(nxl - 2, j);
            for c in 0..4 {
                rate[c] -= (1.5 * f0[c] - 0.5 * f1[c]) * dr;
            }
        }
    }
    if patch.is_global_top() {
        for i in 0..nxl {
            let g0 = gvec(i, nr - 1);
            let g1 = gvec(i, nr - 2);
            for c in 0..4 {
                rate[c] -= (1.5 * g0[c] - 0.5 * g1[c]) * dx;
            }
        }
    }
    // The radial momentum equation has the geometric source S_3 = p (plus
    // the O(mu) hoop stress, neglected with the other viscous terms).
    let mut sp = 0.0;
    for i in 0..nxl {
        for j in 0..nr {
            sp += field.primitive(i, j, gas).p;
        }
    }
    rate[2] += sp * dx * dr;
    Invariants { mass: rate[0], x_momentum: rate[1], r_momentum: rate[2], energy: rate[3] }
}

/// A running conservation ledger: invariant drift reconciled against the
/// time-integrated boundary budget.
///
/// The domain is open (inflow, outflow, entraining far field), so the raw
/// invariants are *not* constant — conservation here means every unit of
/// mass/momentum/energy the interior gains is accounted for by a boundary
/// flux or the geometric pressure source. The ledger integrates
/// [`boundary_budget`] in time (trapezoid rule, matching the scheme's
/// second-order time accuracy); the *unexplained residual* — drift minus
/// integrated budget — is the conservation defect the verification suite
/// bounds.
///
/// Every term is a sum over cells, so the ledgers a decomposition's ranks
/// keep over their own patches [`merge`](Self::merge) into the whole grid's.
#[derive(Clone, Debug)]
pub struct ConservationLedger {
    /// Per component (mass, x-mom, r-mom, energy): the invariants at open,
    /// the latest boundary budget, and the time-integrated budget
    /// (trapezoid rule).
    inv0: [f64; 4],
    prev_budget: [f64; 4],
    acc: [f64; 4],
    steps: u64,
}

impl ConservationLedger {
    /// Open the ledger on a field's current state.
    pub fn open(field: &Field, gas: &GasModel) -> Self {
        let (inv0, prev_budget) = (invariants(field).to_array(), boundary_budget(field, gas).to_array());
        Self { inv0, prev_budget, acc: [0.0; 4], steps: 0 }
    }

    /// Record one completed step of size `dt`.
    pub fn record(&mut self, field: &Field, gas: &GasModel, dt: f64) {
        let cur = boundary_budget(field, gas).to_array();
        for c in 0..4 {
            self.acc[c] += 0.5 * dt * (self.prev_budget[c] + cur[c]);
        }
        self.prev_budget = cur;
        self.steps += 1;
    }

    /// Add another patch's ledger, kept over the same steps.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.steps, other.steps, "merged ledgers must cover the same steps");
        for c in 0..4 {
            self.inv0[c] += other.inv0[c];
            self.prev_budget[c] += other.prev_budget[c];
            self.acc[c] += other.acc[c];
        }
    }

    /// Close the ledger on `field`'s state (see [`Self::close_on`]).
    pub fn close(&self, field: &Field) -> ClosedLedger {
        self.close_on(invariants(field))
    }

    /// Close the ledger on the invariants `now`: relative raw drift and
    /// unexplained residual per component. Radial momentum is scaled by the
    /// mass invariant (its own initial value is rounding-level zero), axial
    /// momentum by the larger of its own magnitude and the mass.
    pub fn close_on(&self, now: Invariants) -> ClosedLedger {
        let (now, inv0) = (now.to_array(), self.inv0);
        let drift: [f64; 4] = std::array::from_fn(|c| now[c] - inv0[c]);
        let scale = [inv0[0], inv0[1].abs().max(inv0[0]), inv0[0], inv0[3]];
        let mut drift_rel = [0.0; 4];
        let mut residual_rel = [0.0; 4];
        for c in 0..4 {
            drift_rel[c] = (drift[c] / scale[c]).abs();
            residual_rel[c] = ((drift[c] - self.acc[c]) / scale[c]).abs();
        }
        ClosedLedger { steps: self.steps, drift_rel, residual_rel }
    }
}

/// Closed-ledger outcome (component order: mass, x-mom, r-mom, energy).
#[derive(Clone, Copy, Debug)]
pub struct ClosedLedger {
    /// Steps recorded.
    pub steps: u64,
    /// Relative raw drift per component.
    pub drift_rel: [f64; 4],
    /// Relative unexplained residual per component.
    pub residual_rel: [f64; 4],
}

impl ClosedLedger {
    /// Convert for the telemetry [`ns_telemetry::RunSummary`].
    pub fn to_summary(self) -> ns_telemetry::ConservationSummary {
        ns_telemetry::ConservationSummary {
            steps: self.steps,
            drift_rel: self.drift_rel,
            residual_rel: self.residual_rel,
        }
    }
}

/// Axial momentum plane `rho u` (unweighted), the Figure 1 quantity.
pub fn axial_momentum(field: &Field, gas: &GasModel) -> Array2 {
    field.map_interior(gas, |w| w.rho * w.u)
}

/// Local Mach number plane.
pub fn mach(field: &Field, gas: &GasModel) -> Array2 {
    field.map_interior(gas, |w| w.mach(gas))
}

/// Pressure plane.
pub fn pressure(field: &Field, gas: &GasModel) -> Array2 {
    field.map_interior(gas, |w| w.p)
}

/// All stability watchdogs, gathered in one pass over the interior.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Watchdogs {
    /// Maximum Mach number.
    pub max_mach: f64,
    /// Maximum convective+acoustic wave speed `max(|u| + c, |v| + c)` —
    /// the CFL-limiting signal speed.
    pub max_wave_speed: f64,
    /// Minimum density (positivity watchdog).
    pub min_rho: f64,
    /// Minimum pressure (positivity watchdog).
    pub min_p: f64,
    /// False when any interior primitive is NaN/inf. The extrema above
    /// cannot signal this themselves: `f64::max`/`min` silently drop NaNs.
    pub finite: bool,
}

impl Watchdogs {
    /// True while the state is finite and positivity holds.
    pub fn healthy(&self) -> bool {
        self.finite && self.min_rho > 0.0 && self.min_p > 0.0
    }
}

/// Compute every watchdog in a single sweep. The health monitor samples
/// this each cadence step, so the point of fusing the passes is to pay for
/// one `primitive()` decode per cell instead of three.
pub fn watchdogs(field: &Field, gas: &GasModel) -> Watchdogs {
    let mut max_mach = 0.0f64;
    let mut wave = 0.0f64;
    let mut rho = f64::INFINITY;
    let mut p = f64::INFINITY;
    let mut finite = true;
    for i in 0..field.nxl() {
        for j in 0..field.nr() {
            let w = field.primitive(i, j, gas);
            let c = w.sound_speed(gas);
            max_mach = max_mach.max(w.mach(gas).abs());
            wave = wave.max(w.u.abs() + c).max(w.v.abs() + c);
            rho = rho.min(w.rho);
            p = p.min(w.p);
            finite = finite && w.rho.is_finite() && w.u.is_finite() && w.v.is_finite() && w.p.is_finite();
        }
    }
    Watchdogs { max_mach, max_wave_speed: wave, min_rho: rho, min_p: p, finite }
}

/// Maximum Mach number over the interior (stability watchdog).
pub fn max_mach(field: &Field, gas: &GasModel) -> f64 {
    watchdogs(field, gas).max_mach
}

/// Maximum convective+acoustic wave speed over the interior,
/// `max(|u| + c, |v| + c)` — the CFL-limiting signal speed.
pub fn max_wave_speed(field: &Field, gas: &GasModel) -> f64 {
    watchdogs(field, gas).max_wave_speed
}

/// Minimum density and pressure (positivity watchdog).
pub fn min_rho_p(field: &Field, gas: &GasModel) -> (f64, f64) {
    let w = watchdogs(field, gas);
    (w.min_rho, w.min_p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Patch;
    use ns_numerics::gas::Primitive;
    use ns_numerics::Grid;

    #[test]
    fn invariants_of_quiescent_gas() {
        let gas = GasModel::air(1.2e6, 1.5);
        let grid = Grid::small();
        let f = Field::from_primitives(Patch::whole(grid.clone()), &gas, |_, _| Primitive {
            rho: 2.0,
            u: 0.0,
            v: 0.0,
            p: 0.7,
        });
        let inv = invariants(&f);
        assert!(inv.mass > 0.0);
        assert!(inv.x_momentum.abs() < 1e-12);
        assert!(inv.r_momentum.abs() < 1e-12);
        assert!(inv.energy > 0.0);
        // mass = 2 * sum r_j * nx * dx * dr
        let expected = 2.0 * (0..grid.nr).map(|j| grid.r(j)).sum::<f64>() * grid.nx as f64 * grid.dx * grid.dr;
        assert!((inv.mass - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn boundary_budget_of_uniform_flow_is_zero() {
        // Uniform axial flow: inflow and outflow fluxes cancel column for
        // column, the top surface carries no convective flux (v = 0) and its
        // pressure flux r*p integrates against the source integral p exactly
        // (both are linear in r, which the half-cell extrapolation treats
        // exactly). Every budget component must vanish to rounding.
        let gas = GasModel::air(1.2e6, 1.5);
        let f = Field::from_primitives(Patch::whole(Grid::small()), &gas, |_, _| Primitive {
            rho: 1.0,
            u: 0.4,
            v: 0.0,
            p: gas.pressure(1.0, 1.0),
        });
        let b = boundary_budget(&f, &gas);
        for (name, v) in
            [("mass", b.mass), ("x_momentum", b.x_momentum), ("r_momentum", b.r_momentum), ("energy", b.energy)]
        {
            assert!(v.abs() < 1e-10, "{name} budget of uniform flow = {v}");
        }
    }

    /// Each pencil bills only the global surfaces it owns, so the budgets
    /// of a decomposition sum to the whole grid's (a radial split used to
    /// bill its internal top edge as far field).
    #[test]
    fn pencil_budgets_sum_to_the_whole_grid_budget() {
        let gas = GasModel::air(1.2e6, 1.5);
        let grid = Grid::small();
        let state = |x: f64, r: f64| Primitive {
            rho: 1.0 + 0.1 * r * (0.3 * x).sin(),
            u: 1.5 / (1.0 + r * r),
            v: 0.05 * r * (0.2 * x).cos(),
            p: gas.pressure(1.0, 1.0) * (1.0 + 0.02 * r),
        };
        let whole = boundary_budget(&Field::from_primitives(Patch::whole(grid.clone()), &gas, state), &gas);
        let scale = whole.to_array().iter().fold(0.0f64, |m, v| m.max(v.abs()));
        for (px, pr) in [(1, 2), (2, 2)] {
            let mut sum = Invariants::default();
            for cr in 0..pr {
                for cx in 0..px {
                    let patch = Patch::pencil(grid.clone(), (cx, cr), (px, pr));
                    sum += boundary_budget(&Field::from_primitives(patch, &gas, state), &gas);
                }
            }
            for (c, (s, w)) in sum.to_array().into_iter().zip(whole.to_array()).enumerate() {
                assert!((s - w).abs() <= 1e-12 * scale, "{px}x{pr} component {c}: {s} vs whole-grid {w}");
            }
        }
    }

    #[test]
    fn momentum_plane_and_watchdogs() {
        let gas = GasModel::air(1.2e6, 1.5);
        let f = Field::from_primitives(Patch::whole(Grid::small()), &gas, |_, r| Primitive {
            rho: 1.0,
            u: if r < 1.0 { 1.5 } else { 0.0 },
            v: 0.0,
            p: gas.pressure(1.0, 1.0),
        });
        let m = axial_momentum(&f, &gas);
        assert!((m[(0, 0)] - 1.5).abs() < 1e-12);
        assert!(m[(0, f.nr() - 1)].abs() < 1e-12);
        assert!((max_mach(&f, &gas) - 1.5).abs() < 1e-9);
        let (rho, p) = min_rho_p(&f, &gas);
        assert!(rho > 0.9 && p > 0.0);
    }

    #[test]
    fn fused_watchdogs_match_individual_passes() {
        let gas = GasModel::air(1.2e6, 1.5);
        let f = Field::from_primitives(Patch::whole(Grid::small()), &gas, |x, r| Primitive {
            rho: 1.0 + 0.1 * (x + r),
            u: if r < 1.0 { 1.5 } else { 0.1 * x },
            v: 0.05 * r,
            p: gas.pressure(1.0, 1.0) * (1.0 + 0.05 * x),
        });
        let w = watchdogs(&f, &gas);
        assert!(w.finite);
        assert_eq!(w.max_mach, mach(&f, &gas).max_abs());
        assert!(w.max_wave_speed > 0.0);
        assert!(w.min_rho > 0.0 && w.min_p > 0.0);
        assert_eq!((w.min_rho, w.min_p), min_rho_p(&f, &gas));
    }

    #[test]
    fn watchdogs_flag_non_finite_values() {
        let gas = GasModel::air(1.2e6, 1.5);
        let mut f = Field::from_primitives(Patch::whole(Grid::small()), &gas, |_, _| Primitive {
            rho: 1.0,
            u: 0.5,
            v: 0.0,
            p: gas.pressure(1.0, 1.0),
        });
        assert!(watchdogs(&f, &gas).finite);
        f.set(1, 2, 2, f64::NAN);
        assert!(!watchdogs(&f, &gas).finite);
    }
}
