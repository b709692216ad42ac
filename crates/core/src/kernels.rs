//! Versioned hot kernels: primitive recovery and flux evaluation.
//!
//! Each kernel exists in the paper's five single-processor optimization
//! flavors (see [`Version`]). The flavors are *semantically equivalent* —
//! they differ in loop order, exponentiation style, division style and
//! addressing style, exactly the transformations the paper applied to its
//! Fortran code:
//!
//! | Version | loops            | squares  | divides        | addressing |
//! |---------|------------------|----------|----------------|------------|
//! | V1      | axial innermost  | `powf`   | `/`            | indexed    |
//! | V2      | axial innermost  | `x * x`  | `/`            | indexed    |
//! | V3      | radial innermost | `x * x`  | `/`            | indexed    |
//! | V4      | radial innermost | `x * x`  | reciprocal mul | indexed    |
//! | V5      | radial innermost | `x * x`  | reciprocal mul | row slices |
//! | V6      | fused prims+flux | `x * x`  | reciprocal mul | lane chunks|
//!
//! Radial-innermost loops are stride-1 over the row-major planes (the loop
//! interchange the paper credits with ~50% of the gain); V5's row-slice
//! addressing is the analogue of the paper's COMMON-block collapse (fewer
//! address computations, friendlier to the register allocator and the
//! vectorizer).
//!
//! V6 goes one rung past the paper: primitive recovery, ghost fill and flux
//! evaluation are *fused into one sweep* over the axial stations (see
//! [`fused_sweep`]), so each radial line is consumed for fluxes while still
//! hot in cache instead of being round-tripped through memory between a
//! whole-plane prims pass and a whole-plane flux pass. Its inner loops are
//! explicitly chunked into fixed-width lanes ([`LANES`]) over the stride-1
//! row slices, giving LLVM constant trip counts to auto-vectorize. The
//! per-point arithmetic is identical to V5 (same operations in the same
//! order), so V6 results are bitwise equal to V5 — a property the tests
//! assert exactly.

use crate::config::Version;
use crate::field::{Field, FluxField, Patch, PrimField, NG};
use crate::opcount::{self, FlopLedger};
use crate::physics::{self, Derivs};
use ns_numerics::{Array2, GasModel};

/// Square helper: `powf` for V1, multiplication for the rest.
#[inline(always)]
fn sq<const POWF: bool>(x: f64) -> f64 {
    if POWF {
        x.powf(2.0)
    } else {
        x * x
    }
}

/// Which global boundaries this patch owns (affects derivative stencils
/// and ghost fills).
#[derive(Clone, Copy, Debug)]
pub struct EdgeFlags {
    /// Patch owns the global inflow boundary.
    pub left: bool,
    /// Patch owns the global outflow boundary.
    pub right: bool,
    /// Patch owns the jet axis (bottom radial boundary).
    pub bottom: bool,
    /// Patch owns the far-field row (top radial boundary).
    pub top: bool,
}

impl EdgeFlags {
    /// Edge flags of a patch.
    pub fn of(patch: &Patch) -> Self {
        Self {
            left: patch.is_global_left(),
            right: patch.is_global_right(),
            bottom: patch.is_global_bottom(),
            top: patch.is_global_top(),
        }
    }
}

// ---------------------------------------------------------------------------
// primitive recovery
// ---------------------------------------------------------------------------

/// Recover primitives `rho, u, v, p, T` from the r-weighted conservative
/// field on the interior `[0, nxl) x [0, nr)`.
pub fn compute_prims(version: Version, field: &Field, prim: &mut PrimField, gas: &GasModel, ledger: &mut FlopLedger) {
    match version {
        Version::V1 => prims_indexed::<true, false, true>(field, prim, gas),
        Version::V2 => prims_indexed::<false, false, true>(field, prim, gas),
        Version::V3 => prims_indexed::<false, false, false>(field, prim, gas),
        Version::V4 => prims_indexed::<false, true, false>(field, prim, gas),
        Version::V5 => prims_sliced(field, prim, gas),
        // The standalone (non-sweep) entries share the V6 body: V7's SoA
        // arena only pays off inside the tiled fused sweep, and the V6 body
        // is already bitwise the V7 per-point tree.
        Version::V6 | Version::V7 => prims_fused(field, prim, gas),
    }
    ledger.prims += (field.nxl() * field.nr()) as u64 * opcount::COST_PRIMS;
}

/// Indexed primitive recovery; `POWF` selects `powf` squares, `RECIP`
/// selects reciprocal multiplication, `IINNER` selects axial-innermost
/// (strided) loops.
fn prims_indexed<const POWF: bool, const RECIP: bool, const IINNER: bool>(
    field: &Field,
    prim: &mut PrimField,
    gas: &GasModel,
) {
    let (nxl, nr) = (field.nxl(), field.nr());
    let gm1 = gas.gamma - 1.0;
    let inv_rgas = 1.0 / gas.r_gas;
    // Reciprocal radius table (one division per row, amortized; V1-V3 divide
    // per point instead).
    let inv_r: Vec<f64> = (0..nr).map(|j| 1.0 / field.patch.r(j)).collect();

    let mut body = |i: usize, j: usize| {
        let (ii, jj) = (i + NG, j + NG);
        let (q0, q1, q2, q3) =
            (field.q[0].at(ii, jj), field.q[1].at(ii, jj), field.q[2].at(ii, jj), field.q[3].at(ii, jj));
        let (rho, mx, mr, e) = if RECIP {
            let w = inv_r[j];
            (q0 * w, q1 * w, q2 * w, q3 * w)
        } else {
            let r = field.patch.r(j);
            (q0 / r, q1 / r, q2 / r, q3 / r)
        };
        let (u, v) = if RECIP {
            let inv_rho = 1.0 / rho;
            (mx * inv_rho, mr * inv_rho)
        } else {
            (mx / rho, mr / rho)
        };
        let ke = 0.5 * rho * (sq::<POWF>(u) + sq::<POWF>(v));
        let p = gm1 * (e - ke);
        let t = if RECIP { p * (1.0 / rho) * inv_rgas } else { p / (rho * gas.r_gas) };
        prim.rho.set(ii, jj, rho);
        prim.u.set(ii, jj, u);
        prim.v.set(ii, jj, v);
        prim.p.set(ii, jj, p);
        prim.t.set(ii, jj, t);
    };

    if IINNER {
        for j in 0..nr {
            for i in 0..nxl {
                body(i, j);
            }
        }
    } else {
        for i in 0..nxl {
            for j in 0..nr {
                body(i, j);
            }
        }
    }
}

/// V5 primitive recovery: row-slice addressing, stride-1, reciprocals.
fn prims_sliced(field: &Field, prim: &mut PrimField, gas: &GasModel) {
    let (nxl, nr) = (field.nxl(), field.nr());
    let gm1 = gas.gamma - 1.0;
    let inv_rgas = 1.0 / gas.r_gas;
    let inv_r: Vec<f64> = (0..nr).map(|j| 1.0 / field.patch.r(j)).collect();

    for i in 0..nxl {
        let ii = i + NG;
        let q0 = &field.q[0].row(ii)[NG..NG + nr];
        let q1 = &field.q[1].row(ii)[NG..NG + nr];
        let q2 = &field.q[2].row(ii)[NG..NG + nr];
        let q3 = &field.q[3].row(ii)[NG..NG + nr];
        // Split the destination rows so the borrows don't overlap.
        let rho_row = &mut prim.rho.row_mut(ii)[NG..NG + nr];
        for j in 0..nr {
            rho_row[j] = q0[j] * inv_r[j];
        }
        let u_row = &mut prim.u.row_mut(ii)[NG..NG + nr];
        for j in 0..nr {
            u_row[j] = q1[j] * inv_r[j];
        }
        let v_row = &mut prim.v.row_mut(ii)[NG..NG + nr];
        for j in 0..nr {
            v_row[j] = q2[j] * inv_r[j];
        }
        // Second pass: divide by rho, recover p and T.
        for j in 0..nr {
            let rho = field.q[0].at(ii, j + NG) * inv_r[j];
            let inv_rho = 1.0 / rho;
            let u = prim.u.at(ii, j + NG) * inv_rho;
            let v = prim.v.at(ii, j + NG) * inv_rho;
            let e = q3[j] * inv_r[j];
            let ke = 0.5 * rho * (u * u + v * v);
            let p = gm1 * (e - ke);
            prim.u.set(ii, j + NG, u);
            prim.v.set(ii, j + NG, v);
            prim.p.set(ii, j + NG, p);
            prim.t.set(ii, j + NG, p * inv_rho * inv_rgas);
        }
    }
}

// ---------------------------------------------------------------------------
// flux kernels
// ---------------------------------------------------------------------------

/// Derivative stencil at interior point `(i, j)` (raw indices `ii, jj`);
/// (takes the full stencil context — splitting it would add per-point cost)
/// x-derivatives fall back to second-order one-sided stencils at owned
/// global boundaries, r-derivatives are always central (ghost rows are
/// filled by the boundary module before any flux kernel runs).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn derivs_at(
    prim: &PrimField,
    i: usize,
    nxl: usize,
    edges: EdgeFlags,
    ii: usize,
    jj: usize,
    inv_2dx: f64,
    inv_2dr: f64,
) -> Derivs {
    let dx_of = |a: &Array2| -> f64 {
        if i == 0 && edges.left {
            (-3.0 * a.at(ii, jj) + 4.0 * a.at(ii + 1, jj) - a.at(ii + 2, jj)) * inv_2dx
        } else if i == nxl - 1 && edges.right {
            (3.0 * a.at(ii, jj) - 4.0 * a.at(ii - 1, jj) + a.at(ii - 2, jj)) * inv_2dx
        } else {
            (a.at(ii + 1, jj) - a.at(ii - 1, jj)) * inv_2dx
        }
    };
    let dr_of = |a: &Array2| -> f64 { (a.at(ii, jj + 1) - a.at(ii, jj - 1)) * inv_2dr };
    Derivs {
        ux: dx_of(&prim.u),
        ur: dr_of(&prim.u),
        vx: dx_of(&prim.v),
        vr: dr_of(&prim.v),
        tx: dx_of(&prim.t),
        tr: dr_of(&prim.t),
    }
}

/// Direction of a flux kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FluxDir {
    /// Axial flux `F` (feeds x-sweeps).
    X,
    /// Radial flux `G` plus the source plane (feeds r-sweeps).
    R,
}

/// Compute the r-weighted flux (`F` or `G`) on the interior, and for
/// [`FluxDir::R`] also the source plane `p - t_theta_theta`.
#[allow(clippy::too_many_arguments)]
pub fn compute_flux(
    version: Version,
    dir: FluxDir,
    prim: &PrimField,
    patch: &Patch,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    src: Option<&mut Array2>,
    ledger: &mut FlopLedger,
) {
    compute_flux_range(version, dir, prim, patch, edges, gas, flux, src, 0..patch.nxl, ledger);
}

/// [`compute_flux`] restricted to the axial columns in `i_range` — the
/// building block of the Version 6 overlap, which computes the interior
/// while the boundary primitive columns are in flight and finishes the
/// edge columns afterwards.
#[allow(clippy::too_many_arguments)]
pub fn compute_flux_range(
    version: Version,
    dir: FluxDir,
    prim: &PrimField,
    patch: &Patch,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    src: Option<&mut Array2>,
    i_range: std::ops::Range<usize>,
    ledger: &mut FlopLedger,
) {
    debug_assert!(i_range.end <= patch.nxl);
    if i_range.is_empty() {
        return;
    }
    let viscous = !gas.is_inviscid();
    let pts = (i_range.len() * patch.nr()) as u64;
    match version {
        Version::V1 => flux_indexed::<true, false, true>(dir, prim, patch, edges, gas, flux, src, i_range),
        Version::V2 => flux_indexed::<false, false, true>(dir, prim, patch, edges, gas, flux, src, i_range),
        Version::V3 => flux_indexed::<false, false, false>(dir, prim, patch, edges, gas, flux, src, i_range),
        Version::V4 => flux_indexed::<false, true, false>(dir, prim, patch, edges, gas, flux, src, i_range),
        Version::V5 => flux_sliced(dir, prim, patch, edges, gas, flux, src, i_range),
        // V7 edge columns use the V6 chunked body (bitwise-identical): the
        // SoA tiled path only covers the fused interior sweep.
        Version::V6 | Version::V7 => flux_chunked(dir, prim, patch, edges, gas, flux, src, i_range),
    }
    ledger.flux += pts * if viscous { opcount::COST_FLUX_VISCOUS } else { opcount::COST_FLUX_INVISCID };
    if dir == FluxDir::R {
        ledger.source += pts * opcount::COST_SOURCE;
    }
}

/// Indexed flux kernel shared by V1-V4 (see [`compute_flux`]).
#[allow(clippy::too_many_arguments)]
fn flux_indexed<const POWF: bool, const RECIP: bool, const IINNER: bool>(
    dir: FluxDir,
    prim: &PrimField,
    patch: &Patch,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    mut src: Option<&mut Array2>,
    i_range: std::ops::Range<usize>,
) {
    let (nxl, nr) = (patch.nxl, patch.nr());
    let inv_2dx = 1.0 / (2.0 * patch.grid.dx);
    let inv_2dr = 1.0 / (2.0 * patch.grid.dr);
    let inv_gm1 = 1.0 / (gas.gamma - 1.0);
    let viscous = !gas.is_inviscid();
    let inv_r: Vec<f64> = (0..nr).map(|j| 1.0 / patch.r(j)).collect();

    let mut body = |i: usize, j: usize, src: &mut Option<&mut Array2>| {
        let (ii, jj) = (i + NG, j + NG);
        let rho = prim.rho.at(ii, jj);
        let u = prim.u.at(ii, jj);
        let v = prim.v.at(ii, jj);
        let p = prim.p.at(ii, jj);
        let r = patch.r(j);
        let s = if viscous {
            let d = derivs_at(prim, i, nxl, edges, ii, jj, inv_2dx, inv_2dr);
            let v_over_r = if RECIP { v * inv_r[j] } else { v / r };
            physics::stresses(gas, &d, v_over_r)
        } else {
            Default::default()
        };
        let e = if POWF {
            p * inv_gm1 + 0.5 * rho * (u.powf(2.0) + v.powf(2.0))
        } else {
            p * inv_gm1 + 0.5 * rho * (u * u + v * v)
        };
        let f = match dir {
            FluxDir::X => physics::xflux(rho, u, v, p, e, &s),
            FluxDir::R => physics::rflux(rho, u, v, p, e, &s),
        };
        for c in 0..4 {
            flux.c[c].set(ii, jj, r * f[c]);
        }
        if dir == FluxDir::R {
            if let Some(sp) = src.as_deref_mut() {
                sp.set(ii, jj, physics::source3(p, &s));
            }
        }
    };

    if IINNER {
        for j in 0..nr {
            for i in i_range.clone() {
                body(i, j, &mut src);
            }
        }
    } else {
        for i in i_range {
            for j in 0..nr {
                body(i, j, &mut src);
            }
        }
    }
}

/// V5 flux kernel: row-slice addressing over stride-1 inner loops.
#[allow(clippy::too_many_arguments)]
fn flux_sliced(
    dir: FluxDir,
    prim: &PrimField,
    patch: &Patch,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    mut src: Option<&mut Array2>,
    i_range: std::ops::Range<usize>,
) {
    let (nxl, nr) = (patch.nxl, patch.nr());
    let inv_2dx = 1.0 / (2.0 * patch.grid.dx);
    let inv_2dr = 1.0 / (2.0 * patch.grid.dr);
    let inv_gm1 = 1.0 / (gas.gamma - 1.0);
    let viscous = !gas.is_inviscid();
    let mu = gas.mu;
    let kappa = gas.kappa;
    let r_of: Vec<f64> = (0..nr).map(|j| patch.r(j)).collect();
    let inv_r: Vec<f64> = r_of.iter().map(|&r| 1.0 / r).collect();

    for i in i_range {
        let ii = i + NG;
        // Row slices of the stencil neighborhood, bound once per row: the
        // "collapse the COMMON blocks" analogue (single base pointer + offset
        // addressing in the inner loop).
        let u0 = prim.u.row(ii);
        let v0 = prim.v.row(ii);
        let t0 = prim.t.row(ii);
        let rho0 = prim.rho.row(ii);
        let p0 = prim.p.row(ii);
        // x-stencil rows with one-sided fallback at owned global edges.
        let (cl, cm, cr, wl, wm, wr);
        if i == 0 && edges.left {
            // -3 f0 + 4 f1 - f2 at (ii, ii+1, ii+2)
            (cl, cm, cr) = (ii, ii + 1, ii + 2);
            (wl, wm, wr) = (-3.0 * inv_2dx, 4.0 * inv_2dx, -inv_2dx);
        } else if i == nxl - 1 && edges.right {
            (cl, cm, cr) = (ii - 2, ii - 1, ii);
            (wl, wm, wr) = (inv_2dx, -4.0 * inv_2dx, 3.0 * inv_2dx);
        } else {
            (cl, cm, cr) = (ii - 1, ii, ii + 1);
            (wl, wm, wr) = (-inv_2dx, 0.0, inv_2dx);
        }
        let (u_l, u_m, u_r) = (prim.u.row(cl), prim.u.row(cm), prim.u.row(cr));
        let (v_l, v_m, v_r) = (prim.v.row(cl), prim.v.row(cm), prim.v.row(cr));
        let (t_l, t_m, t_r) = (prim.t.row(cl), prim.t.row(cm), prim.t.row(cr));

        let f_rows: [&mut [f64]; 4] = {
            let [a, b, c, d] = &mut flux.c;
            [a.row_mut(ii), b.row_mut(ii), c.row_mut(ii), d.row_mut(ii)]
        };
        let src_row = src.as_deref_mut().map(|s| s.row_mut(ii));
        let mut src_row = src_row;

        for j in 0..nr {
            let jj = j + NG;
            let rho = rho0[jj];
            let u = u0[jj];
            let v = v0[jj];
            let p = p0[jj];
            let r = r_of[j];
            let s = if viscous {
                let ux = wl * u_l[jj] + wm * u_m[jj] + wr * u_r[jj];
                let vx = wl * v_l[jj] + wm * v_m[jj] + wr * v_r[jj];
                let tx = wl * t_l[jj] + wm * t_m[jj] + wr * t_r[jj];
                let ur = (u0[jj + 1] - u0[jj - 1]) * inv_2dr;
                let vr = (v0[jj + 1] - v0[jj - 1]) * inv_2dr;
                let tr = (t0[jj + 1] - t0[jj - 1]) * inv_2dr;
                let v_over_r = v * inv_r[j];
                let div = ux + vr + v_over_r;
                let lam_div = -(2.0 / 3.0) * mu * div;
                physics::Stresses {
                    txx: 2.0 * mu * ux + lam_div,
                    trr: 2.0 * mu * vr + lam_div,
                    ttt: 2.0 * mu * v_over_r + lam_div,
                    txr: mu * (ur + vx),
                    qx: -kappa * tx,
                    qr: -kappa * tr,
                }
            } else {
                Default::default()
            };
            let e = p * inv_gm1 + 0.5 * rho * (u * u + v * v);
            let f = match dir {
                FluxDir::X => physics::xflux(rho, u, v, p, e, &s),
                FluxDir::R => physics::rflux(rho, u, v, p, e, &s),
            };
            f_rows[0][jj] = r * f[0];
            f_rows[1][jj] = r * f[1];
            f_rows[2][jj] = r * f[2];
            f_rows[3][jj] = r * f[3];
            if let Some(sr) = src_row.as_deref_mut() {
                sr[jj] = physics::source3(p, &s);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// V6: fused single-sweep prims+flux with lane-chunked inner loops
// ---------------------------------------------------------------------------

/// Fixed inner-loop lane width of the V6 kernels. The chunked loops run in
/// blocks of `LANES` contiguous radial points (constant trip count, stride-1)
/// followed by a scalar remainder, which is the shape LLVM's auto-vectorizer
/// handles best on every target we care about.
pub const LANES: usize = 8;

/// Reborrow `N` contiguous lanes of a row starting at `at` as a fixed-size
/// array: constant-trip loops over these carry no bounds checks, which is
/// what lets the chunked V6 bodies vectorize.
#[inline(always)]
fn lanes<const N: usize>(s: &[f64], at: usize) -> &[f64; N] {
    s[at..at + N].try_into().unwrap()
}

/// Mutable counterpart of [`lanes`].
#[inline(always)]
fn lanes_mut<const N: usize>(s: &mut [f64], at: usize) -> &mut [f64; N] {
    (&mut s[at..at + N]).try_into().unwrap()
}

/// V6 primitive recovery of one axial station `ii` (raw index): single pass
/// over the row — V5 makes two (momenta first, then divide by `rho`), V6
/// keeps the per-point temporaries in registers and touches each `q` row
/// exactly once. Arithmetic is op-for-op identical to V5.
#[inline(always)]
fn prims_row_fused(field: &Field, prim: &mut PrimField, ii: usize, nr: usize, gm1: f64, inv_rgas: f64, inv_r: &[f64]) {
    let q0 = &field.q[0].row(ii)[NG..NG + nr];
    let q1 = &field.q[1].row(ii)[NG..NG + nr];
    let q2 = &field.q[2].row(ii)[NG..NG + nr];
    let q3 = &field.q[3].row(ii)[NG..NG + nr];
    let rho_row = &mut prim.rho.row_mut(ii)[NG..NG + nr];
    let u_row = &mut prim.u.row_mut(ii)[NG..NG + nr];
    let v_row = &mut prim.v.row_mut(ii)[NG..NG + nr];
    let p_row = &mut prim.p.row_mut(ii)[NG..NG + nr];
    let t_row = &mut prim.t.row_mut(ii)[NG..NG + nr];

    let mut base = 0;
    while base + LANES <= nr {
        let q0c = lanes::<LANES>(q0, base);
        let q1c = lanes::<LANES>(q1, base);
        let q2c = lanes::<LANES>(q2, base);
        let q3c = lanes::<LANES>(q3, base);
        let wc = lanes::<LANES>(inv_r, base);
        let rhoc = lanes_mut::<LANES>(rho_row, base);
        let uc = lanes_mut::<LANES>(u_row, base);
        let vc = lanes_mut::<LANES>(v_row, base);
        let pc = lanes_mut::<LANES>(p_row, base);
        let tc = lanes_mut::<LANES>(t_row, base);
        // Stage the reciprocals as a lane block so the divides issue as
        // packed ops instead of serializing the main loop's chain.
        let mut inv_rho = [0.0; LANES];
        for l in 0..LANES {
            rhoc[l] = q0c[l] * wc[l];
            inv_rho[l] = 1.0 / rhoc[l];
        }
        for l in 0..LANES {
            let w = wc[l];
            let rho = rhoc[l];
            let u = (q1c[l] * w) * inv_rho[l];
            let v = (q2c[l] * w) * inv_rho[l];
            let e = q3c[l] * w;
            let ke = 0.5 * rho * (u * u + v * v);
            let p = gm1 * (e - ke);
            uc[l] = u;
            vc[l] = v;
            pc[l] = p;
            tc[l] = p * inv_rho[l] * inv_rgas;
        }
        base += LANES;
    }
    for j in base..nr {
        let w = inv_r[j];
        let rho = q0[j] * w;
        let inv_rho = 1.0 / rho;
        let u = (q1[j] * w) * inv_rho;
        let v = (q2[j] * w) * inv_rho;
        let e = q3[j] * w;
        let ke = 0.5 * rho * (u * u + v * v);
        let p = gm1 * (e - ke);
        rho_row[j] = rho;
        u_row[j] = u;
        v_row[j] = v;
        p_row[j] = p;
        t_row[j] = p * inv_rho * inv_rgas;
    }
}

/// V6 plane-wide primitive recovery: one fused pass per row (the standalone
/// entry used by [`compute_prims`]; the operator path goes through
/// [`fused_sweep`] instead, which also emits the fluxes in the same sweep).
fn prims_fused(field: &Field, prim: &mut PrimField, gas: &GasModel) {
    let (nxl, nr) = (field.nxl(), field.nr());
    let gm1 = gas.gamma - 1.0;
    let inv_rgas = 1.0 / gas.r_gas;
    let inv_r: Vec<f64> = (0..nr).map(|j| 1.0 / field.patch.r(j)).collect();
    for i in 0..nxl {
        prims_row_fused(field, prim, i + NG, nr, gm1, inv_rgas, &inv_r);
    }
}

/// V6 flux evaluation of one axial station: the V5 row-slice body with the
/// inner loop chunked into [`LANES`]-wide blocks. Per-point arithmetic is
/// identical to [`flux_sliced`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn flux_row_chunked(
    dir: FluxDir,
    prim: &PrimField,
    patch: &Patch,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    src: Option<&mut Array2>,
    i: usize,
    r_of: &[f64],
    inv_r: &[f64],
) {
    let (nxl, nr) = (patch.nxl, patch.nr());
    let inv_2dx = 1.0 / (2.0 * patch.grid.dx);
    let inv_2dr = 1.0 / (2.0 * patch.grid.dr);
    let inv_gm1 = 1.0 / (gas.gamma - 1.0);
    let viscous = !gas.is_inviscid();
    let mu = gas.mu;
    let kappa = gas.kappa;
    let ii = i + NG;
    let u0 = prim.u.row(ii);
    let v0 = prim.v.row(ii);
    let t0 = prim.t.row(ii);
    let rho0 = prim.rho.row(ii);
    let p0 = prim.p.row(ii);
    let (cl, cm, cr, wl, wm, wr);
    if i == 0 && edges.left {
        (cl, cm, cr) = (ii, ii + 1, ii + 2);
        (wl, wm, wr) = (-3.0 * inv_2dx, 4.0 * inv_2dx, -inv_2dx);
    } else if i == nxl - 1 && edges.right {
        (cl, cm, cr) = (ii - 2, ii - 1, ii);
        (wl, wm, wr) = (inv_2dx, -4.0 * inv_2dx, 3.0 * inv_2dx);
    } else {
        (cl, cm, cr) = (ii - 1, ii, ii + 1);
        (wl, wm, wr) = (-inv_2dx, 0.0, inv_2dx);
    }
    let (u_l, u_m, u_r) = (prim.u.row(cl), prim.u.row(cm), prim.u.row(cr));
    let (v_l, v_m, v_r) = (prim.v.row(cl), prim.v.row(cm), prim.v.row(cr));
    let (t_l, t_m, t_r) = (prim.t.row(cl), prim.t.row(cm), prim.t.row(cr));

    let [fa, fb, fc, fd] = &mut flux.c;
    let (f0_row, f1_row, f2_row, f3_row) = (fa.row_mut(ii), fb.row_mut(ii), fc.row_mut(ii), fd.row_mut(ii));
    let mut src_row = src.map(|s| s.row_mut(ii));

    let mut base = 0;
    while base + LANES <= nr {
        let at = base + NG;
        let rhoc = lanes::<LANES>(rho0, at);
        let uc = lanes::<LANES>(u0, at);
        let vc = lanes::<LANES>(v0, at);
        let pc = lanes::<LANES>(p0, at);
        let rc = lanes::<LANES>(r_of, base);
        let wc = lanes::<LANES>(inv_r, base);
        // radial stencil neighbors as shifted windows of the same rows
        let (u_dn, u_up) = (lanes::<LANES>(u0, at - 1), lanes::<LANES>(u0, at + 1));
        let (v_dn, v_up) = (lanes::<LANES>(v0, at - 1), lanes::<LANES>(v0, at + 1));
        let (t_dn, t_up) = (lanes::<LANES>(t0, at - 1), lanes::<LANES>(t0, at + 1));
        let (ulc, umc, urc) = (lanes::<LANES>(u_l, at), lanes::<LANES>(u_m, at), lanes::<LANES>(u_r, at));
        let (vlc, vmc, vrc) = (lanes::<LANES>(v_l, at), lanes::<LANES>(v_m, at), lanes::<LANES>(v_r, at));
        let (tlc, tmc, trc) = (lanes::<LANES>(t_l, at), lanes::<LANES>(t_m, at), lanes::<LANES>(t_r, at));
        let f0c = lanes_mut::<LANES>(&mut *f0_row, at);
        let f1c = lanes_mut::<LANES>(&mut *f1_row, at);
        let f2c = lanes_mut::<LANES>(&mut *f2_row, at);
        let f3c = lanes_mut::<LANES>(&mut *f3_row, at);
        for l in 0..LANES {
            let rho = rhoc[l];
            let u = uc[l];
            let v = vc[l];
            let p = pc[l];
            let r = rc[l];
            let s = if viscous {
                let ux = wl * ulc[l] + wm * umc[l] + wr * urc[l];
                let vx = wl * vlc[l] + wm * vmc[l] + wr * vrc[l];
                let tx = wl * tlc[l] + wm * tmc[l] + wr * trc[l];
                let ur = (u_up[l] - u_dn[l]) * inv_2dr;
                let vr = (v_up[l] - v_dn[l]) * inv_2dr;
                let tr = (t_up[l] - t_dn[l]) * inv_2dr;
                let v_over_r = v * wc[l];
                let div = ux + vr + v_over_r;
                let lam_div = -(2.0 / 3.0) * mu * div;
                physics::Stresses {
                    txx: 2.0 * mu * ux + lam_div,
                    trr: 2.0 * mu * vr + lam_div,
                    ttt: 2.0 * mu * v_over_r + lam_div,
                    txr: mu * (ur + vx),
                    qx: -kappa * tx,
                    qr: -kappa * tr,
                }
            } else {
                Default::default()
            };
            let e = p * inv_gm1 + 0.5 * rho * (u * u + v * v);
            let f = match dir {
                FluxDir::X => physics::xflux(rho, u, v, p, e, &s),
                FluxDir::R => physics::rflux(rho, u, v, p, e, &s),
            };
            f0c[l] = r * f[0];
            f1c[l] = r * f[1];
            f2c[l] = r * f[2];
            f3c[l] = r * f[3];
            if let Some(sr) = src_row.as_deref_mut() {
                sr[base + NG + l] = physics::source3(p, &s);
            }
        }
        base += LANES;
    }
    for j in base..nr {
        let jj = j + NG;
        let rho = rho0[jj];
        let u = u0[jj];
        let v = v0[jj];
        let p = p0[jj];
        let r = r_of[j];
        let s = if viscous {
            let ux = wl * u_l[jj] + wm * u_m[jj] + wr * u_r[jj];
            let vx = wl * v_l[jj] + wm * v_m[jj] + wr * v_r[jj];
            let tx = wl * t_l[jj] + wm * t_m[jj] + wr * t_r[jj];
            let ur = (u0[jj + 1] - u0[jj - 1]) * inv_2dr;
            let vr = (v0[jj + 1] - v0[jj - 1]) * inv_2dr;
            let tr = (t0[jj + 1] - t0[jj - 1]) * inv_2dr;
            let v_over_r = v * inv_r[j];
            let div = ux + vr + v_over_r;
            let lam_div = -(2.0 / 3.0) * mu * div;
            physics::Stresses {
                txx: 2.0 * mu * ux + lam_div,
                trr: 2.0 * mu * vr + lam_div,
                ttt: 2.0 * mu * v_over_r + lam_div,
                txr: mu * (ur + vx),
                qx: -kappa * tx,
                qr: -kappa * tr,
            }
        } else {
            Default::default()
        };
        let e = p * inv_gm1 + 0.5 * rho * (u * u + v * v);
        let f = match dir {
            FluxDir::X => physics::xflux(rho, u, v, p, e, &s),
            FluxDir::R => physics::rflux(rho, u, v, p, e, &s),
        };
        f0_row[jj] = r * f[0];
        f1_row[jj] = r * f[1];
        f2_row[jj] = r * f[2];
        f3_row[jj] = r * f[3];
        if let Some(sr) = src_row.as_deref_mut() {
            sr[jj] = physics::source3(p, &s);
        }
    }
}

/// V6 flux kernel over a station range (the standalone entry used by
/// [`compute_flux_range`]; the operator path uses [`fused_sweep`]).
#[allow(clippy::too_many_arguments)]
fn flux_chunked(
    dir: FluxDir,
    prim: &PrimField,
    patch: &Patch,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    mut src: Option<&mut Array2>,
    i_range: std::ops::Range<usize>,
) {
    let nr = patch.nr();
    let r_of: Vec<f64> = (0..nr).map(|j| patch.r(j)).collect();
    let inv_r: Vec<f64> = r_of.iter().map(|&r| 1.0 / r).collect();
    for i in i_range {
        flux_row_chunked(dir, prim, patch, edges, gas, flux, src.as_deref_mut(), i, &r_of, &inv_r);
    }
}

/// Fill the radial ghost points of one freshly computed primitive station
/// (axis mirror below, far-field extrapolation above) — exactly what the
/// plane-wide `bc::mirror_prims_axis` / `bc::extrap_prims_top` pair does for
/// this station, done while the row is still in cache.
#[inline]
fn fused_row_ghosts(prim: &mut PrimField, ii: usize, nr: usize) {
    crate::bc::mirror_prims_axis_row(prim, ii);
    crate::bc::extrap_prims_top_row(prim, ii, nr);
}

/// V6: recover primitives (plus their radial ghosts) for an explicit list of
/// interior stations — the boundary stations an x-sweep must compute *before*
/// posting the halo exchange, ahead of the fused interior sweep.
pub fn fused_boundary_prims(
    field: &Field,
    prim: &mut PrimField,
    gas: &GasModel,
    stations: &[usize],
    ledger: &mut FlopLedger,
) {
    let nr = field.nr();
    let gm1 = gas.gamma - 1.0;
    let inv_rgas = 1.0 / gas.r_gas;
    let inv_r: Vec<f64> = (0..nr).map(|j| 1.0 / field.patch.r(j)).collect();
    for &i in stations {
        prims_row_fused(field, prim, i + NG, nr, gm1, inv_rgas, &inv_r);
        fused_row_ghosts(prim, i + NG, nr);
    }
    ledger.prims += (stations.len() * nr) as u64 * opcount::COST_PRIMS;
}

/// Highest station whose primitives must be available before the flux at
/// station `e` can be evaluated.
#[inline]
pub(crate) fn flux_needs(e: usize, nxl: usize, edges: EdgeFlags, viscous: bool) -> usize {
    if !viscous {
        e // inviscid fluxes are pointwise
    } else if e == 0 && edges.left {
        2 // one-sided forward stencil
    } else if e == nxl - 1 && edges.right {
        nxl - 1 // one-sided backward stencil
    } else {
        e + 1 // central stencil
    }
}

/// The V6 tentpole: one fused sweep over the axial stations that recovers
/// primitives, fills their radial ghosts, and evaluates fluxes as soon as
/// each station's stencil becomes available — a software pipeline in `i`.
///
/// `prim_range` is swept in ascending order; stations below `prim_range.start`
/// and the optional `hi_pre` station are assumed precomputed (by
/// [`fused_boundary_prims`]). Flux stations in `flux_range` are emitted the
/// moment their stencil is complete and any stragglers are flushed at the
/// end, so callers may pass flux ranges that reach into halo-dependent
/// stations only when those ghosts are already filled.
///
/// Ledger accounting matches the unfused V5 path exactly:
/// `|prim_range| * nr` primitive points and `|flux_range| * nr` flux points.
#[allow(clippy::too_many_arguments)]
pub fn fused_sweep(
    dir: FluxDir,
    field: &Field,
    prim: &mut PrimField,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    mut src: Option<&mut Array2>,
    prim_range: std::ops::Range<usize>,
    flux_range: std::ops::Range<usize>,
    hi_pre: Option<usize>,
    ledger: &mut FlopLedger,
) {
    let patch = &field.patch;
    let (nxl, nr) = (patch.nxl, patch.nr());
    debug_assert!(prim_range.end <= nxl && flux_range.end <= nxl);
    let gm1 = gas.gamma - 1.0;
    let inv_rgas = 1.0 / gas.r_gas;
    let viscous = !gas.is_inviscid();
    let r_of: Vec<f64> = (0..nr).map(|j| patch.r(j)).collect();
    let inv_r: Vec<f64> = r_of.iter().map(|&r| 1.0 / r).collect();

    let mut next_flux = flux_range.start;
    for i in prim_range.clone() {
        prims_row_fused(field, prim, i + NG, nr, gm1, inv_rgas, &inv_r);
        fused_row_ghosts(prim, i + NG, nr);
        while next_flux < flux_range.end {
            let need = flux_needs(next_flux, nxl, edges, viscous);
            if need > i && hi_pre != Some(need) {
                break;
            }
            flux_row_chunked(dir, prim, patch, edges, gas, flux, src.as_deref_mut(), next_flux, &r_of, &inv_r);
            next_flux += 1;
        }
    }
    // Flush whatever the pipeline could not prove ready (short ranges, or
    // flux stations whose stencil reaches into already-filled halo ghosts).
    while next_flux < flux_range.end {
        flux_row_chunked(dir, prim, patch, edges, gas, flux, src.as_deref_mut(), next_flux, &r_of, &inv_r);
        next_flux += 1;
    }

    ledger.prims += (prim_range.len() * nr) as u64 * opcount::COST_PRIMS;
    ledger.flux +=
        (flux_range.len() * nr) as u64 * if viscous { opcount::COST_FLUX_VISCOUS } else { opcount::COST_FLUX_INVISCID };
    if dir == FluxDir::R {
        ledger.source += (flux_range.len() * nr) as u64 * opcount::COST_SOURCE;
    }
}

/// Version dispatch for a fused sweep through the planes: V7 runs the SoA
/// tiled sweep from [`crate::soa`] (lazily arming the sweep workspace in
/// `soa`), every earlier fused version runs [`fused_sweep`]. Both are
/// bitwise-equal drop-ins for each other (oracle- and property-tested).
///
/// `exports` lists the swept stations whose primitives must land back in
/// the AoS `prim` planes for later consumers (edge-column flux passes, the
/// characteristic-outflow stencil); V6 writes every station to AoS anyway,
/// so the list only drives the V7 SoA→AoS boundary.
#[allow(clippy::too_many_arguments)]
pub fn fused_sweep_version(
    version: Version,
    tile_r: usize,
    soa: &mut Option<Box<crate::soa::SoaWs>>,
    dir: FluxDir,
    field: &Field,
    prim: &mut PrimField,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    src: Option<&mut Array2>,
    prim_range: std::ops::Range<usize>,
    flux_range: std::ops::Range<usize>,
    hi_pre: Option<usize>,
    exports: &[usize],
    ledger: &mut FlopLedger,
) {
    fused_pass_version(
        version, tile_r, soa, dir, field, prim, edges, gas, flux, src, prim_range, flux_range, hi_pre, exports, None,
        ledger,
    );
}

/// [`fused_sweep_version`] as the operators call it: with the predictor or
/// corrector pass that follows the sweep offered to it. V7 runs the pass
/// inside the sweep on every station it can ([`crate::soa::fused_pass`])
/// and returns those stations; V6 sweeps into the planes, leaves the pass
/// alone and returns an empty range. Either way the caller owes the update
/// of the rest of `pass.irange`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fused_pass_version(
    version: Version,
    tile_r: usize,
    soa: &mut Option<Box<crate::soa::SoaWs>>,
    dir: FluxDir,
    field: &Field,
    prim: &mut PrimField,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    src: Option<&mut Array2>,
    prim_range: std::ops::Range<usize>,
    flux_range: std::ops::Range<usize>,
    hi_pre: Option<usize>,
    exports: &[usize],
    pass: Option<crate::scheme::FusedUpdate<'_>>,
    ledger: &mut FlopLedger,
) -> std::ops::Range<usize> {
    if version == Version::V7 {
        let ws = soa.get_or_insert_with(|| Box::new(crate::soa::SoaWs::new(&field.patch)));
        crate::soa::fused_pass(
            dir, field, prim, edges, gas, flux, src, prim_range, flux_range, hi_pre, exports, ws, tile_r, pass, ledger,
        )
    } else {
        fused_sweep(dir, field, prim, edges, gas, flux, src, prim_range, flux_range, hi_pre, ledger);
        let start = pass.map_or(0, |p| p.irange.start);
        start..start
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Regime, SolverConfig};
    use ns_numerics::gas::Primitive;
    use ns_numerics::Grid;

    fn setup(regime: Regime) -> (Field, PrimField, GasModel, Patch) {
        let cfg = SolverConfig::paper(Grid::small(), regime);
        let gas = cfg.effective_gas();
        let patch = Patch::whole(cfg.grid.clone());
        let field = Field::from_primitives(patch.clone(), &gas, |x, r| Primitive {
            rho: 1.0 + 0.1 * (0.3 * x).sin() * (0.9 * r).cos(),
            u: 0.8 + 0.05 * (0.2 * x + r).cos(),
            v: 0.02 * (0.5 * x).sin() * r.min(1.5),
            p: 0.714 + 0.03 * (0.4 * x - 0.7 * r).sin(),
        });
        let prim = PrimField::zeros(&patch);
        (field, prim, gas, patch)
    }

    /// Fill ghost prim rows the way the BC module does, so the r-derivatives
    /// in the flux kernels are well-defined in this isolated test.
    fn fill_ghost_rows(prim: &mut PrimField, nxl: usize, nr: usize) {
        for i in 0..nxl + 2 * NG {
            for g in 0..NG {
                // axis mirror: row -1-g mirrors row g; v flips sign
                let (dst, srcj) = (NG - 1 - g, NG + g);
                prim.rho.set(i, dst, prim.rho.at(i, srcj));
                prim.u.set(i, dst, prim.u.at(i, srcj));
                prim.v.set(i, dst, -prim.v.at(i, srcj));
                prim.p.set(i, dst, prim.p.at(i, srcj));
                prim.t.set(i, dst, prim.t.at(i, srcj));
                // top: linear extrapolation
                let dst = NG + nr + g;
                let (a, b) = (NG + nr - 1, NG + nr - 2);
                let w = (g + 1) as f64;
                for pl in [&mut prim.rho, &mut prim.u, &mut prim.v, &mut prim.p, &mut prim.t] {
                    let val = pl.at(i, a) + w * (pl.at(i, a) - pl.at(i, b));
                    pl.set(i, dst, val);
                }
            }
        }
    }

    #[test]
    fn all_versions_recover_identical_primitives() {
        let (field, _, gas, patch) = setup(Regime::NavierStokes);
        let mut ledger = FlopLedger::default();
        let mut reference = PrimField::zeros(&patch);
        compute_prims(Version::V5, &field, &mut reference, &gas, &mut ledger);
        for v in Version::ALL {
            let mut prim = PrimField::zeros(&patch);
            compute_prims(v, &field, &mut prim, &gas, &mut ledger);
            for i in 0..field.nxl() {
                for j in 0..field.nr() {
                    let (ii, jj) = (i + NG, j + NG);
                    assert!((prim.rho.at(ii, jj) - reference.rho.at(ii, jj)).abs() < 1e-12, "{v:?} rho at {i},{j}");
                    assert!((prim.p.at(ii, jj) - reference.p.at(ii, jj)).abs() < 1e-12, "{v:?} p");
                    assert!((prim.t.at(ii, jj) - reference.t.at(ii, jj)).abs() < 1e-12, "{v:?} t");
                }
            }
        }
    }

    #[test]
    fn prims_invert_set_primitive() {
        let (field, mut prim, gas, _) = setup(Regime::NavierStokes);
        let mut ledger = FlopLedger::default();
        compute_prims(Version::V5, &field, &mut prim, &gas, &mut ledger);
        let w = field.primitive(7, 9, &gas);
        assert!((prim.rho.at(7 + NG, 9 + NG) - w.rho).abs() < 1e-12);
        assert!((prim.u.at(7 + NG, 9 + NG) - w.u).abs() < 1e-12);
        assert!((prim.p.at(7 + NG, 9 + NG) - w.p).abs() < 1e-12);
    }

    #[test]
    fn all_versions_compute_identical_fluxes() {
        for regime in [Regime::NavierStokes, Regime::Euler] {
            let (field, mut prim, gas, patch) = setup(regime);
            let mut ledger = FlopLedger::default();
            compute_prims(Version::V5, &field, &mut prim, &gas, &mut ledger);
            fill_ghost_rows(&mut prim, patch.nxl, patch.nr());
            let edges = EdgeFlags::of(&patch);
            for dir in [FluxDir::X, FluxDir::R] {
                let mut reference = FluxField::zeros(&patch);
                let mut src_ref = Array2::zeros(patch.nxl + 2 * NG, patch.nr() + 2 * NG);
                compute_flux(
                    Version::V5,
                    dir,
                    &prim,
                    &patch,
                    edges,
                    &gas,
                    &mut reference,
                    Some(&mut src_ref),
                    &mut ledger,
                );
                for v in Version::ALL {
                    let mut flux = FluxField::zeros(&patch);
                    let mut src = Array2::zeros(patch.nxl + 2 * NG, patch.nr() + 2 * NG);
                    compute_flux(v, dir, &prim, &patch, edges, &gas, &mut flux, Some(&mut src), &mut ledger);
                    for c in 0..4 {
                        for i in 0..patch.nxl {
                            for j in 0..patch.nr() {
                                let d = (flux.at(c, i as isize, j as isize) - reference.at(c, i as isize, j as isize))
                                    .abs();
                                assert!(d < 1e-11, "{regime:?} {v:?} {dir:?} comp {c} at ({i},{j}): {d}");
                            }
                        }
                    }
                    if dir == FluxDir::R {
                        for i in 0..patch.nxl {
                            for j in 0..patch.nr() {
                                let d = (src.at(i + NG, j + NG) - src_ref.at(i + NG, j + NG)).abs();
                                assert!(d < 1e-12, "{regime:?} {v:?} source at ({i},{j})");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn uniform_state_has_zero_stress_flux_difference() {
        // For a uniform state the x-flux must be exactly r * f(const), so the
        // axial flux difference across columns is zero.
        let cfg = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
        let gas = cfg.effective_gas();
        let patch = Patch::whole(cfg.grid.clone());
        let field = Field::from_primitives(patch.clone(), &gas, |_, _| Primitive { rho: 1.0, u: 0.5, v: 0.0, p: 0.7 });
        let mut prim = PrimField::zeros(&patch);
        let mut ledger = FlopLedger::default();
        compute_prims(Version::V5, &field, &mut prim, &gas, &mut ledger);
        fill_ghost_rows(&mut prim, patch.nxl, patch.nr());
        let mut flux = FluxField::zeros(&patch);
        compute_flux(Version::V5, FluxDir::X, &prim, &patch, EdgeFlags::of(&patch), &gas, &mut flux, None, &mut ledger);
        for c in 0..4 {
            for j in 0..patch.nr() {
                let a = flux.at(c, 10, j as isize);
                let b = flux.at(c, 11, j as isize);
                assert!((a - b).abs() < 1e-12, "component {c} row {j}");
            }
        }
    }

    #[test]
    fn euler_flux_has_no_viscous_terms() {
        let (field, mut prim, gas, patch) = setup(Regime::Euler);
        assert!(gas.is_inviscid());
        let mut ledger = FlopLedger::default();
        compute_prims(Version::V5, &field, &mut prim, &gas, &mut ledger);
        fill_ghost_rows(&mut prim, patch.nxl, patch.nr());
        let mut flux = FluxField::zeros(&patch);
        let mut src = Array2::zeros(patch.nxl + 2 * NG, patch.nr() + 2 * NG);
        compute_flux(
            Version::V5,
            FluxDir::R,
            &prim,
            &patch,
            EdgeFlags::of(&patch),
            &gas,
            &mut flux,
            Some(&mut src),
            &mut ledger,
        );
        // source reduces to p alone
        for i in 0..patch.nxl {
            for j in 0..patch.nr() {
                let p = prim.p.at(i + NG, j + NG);
                assert!((src.at(i + NG, j + NG) - p).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn v6_prims_and_flux_are_bitwise_v5() {
        for regime in [Regime::NavierStokes, Regime::Euler] {
            let (field, _, gas, patch) = setup(regime);
            let mut ledger = FlopLedger::default();
            let mut p5 = PrimField::zeros(&patch);
            let mut p6 = PrimField::zeros(&patch);
            compute_prims(Version::V5, &field, &mut p5, &gas, &mut ledger);
            compute_prims(Version::V6, &field, &mut p6, &gas, &mut ledger);
            for i in 0..patch.nxl {
                for j in 0..patch.nr() {
                    let (ii, jj) = (i + NG, j + NG);
                    for (a, b) in [(&p5.rho, &p6.rho), (&p5.u, &p6.u), (&p5.v, &p6.v), (&p5.p, &p6.p), (&p5.t, &p6.t)] {
                        assert_eq!(a.at(ii, jj).to_bits(), b.at(ii, jj).to_bits(), "{regime:?} prim at ({i},{j})");
                    }
                }
            }
            fill_ghost_rows(&mut p5, patch.nxl, patch.nr());
            let edges = EdgeFlags::of(&patch);
            for dir in [FluxDir::X, FluxDir::R] {
                let mut f5 = FluxField::zeros(&patch);
                let mut f6 = FluxField::zeros(&patch);
                let mut s5 = Array2::zeros(patch.nxl + 2 * NG, patch.nr() + 2 * NG);
                let mut s6 = Array2::zeros(patch.nxl + 2 * NG, patch.nr() + 2 * NG);
                compute_flux(Version::V5, dir, &p5, &patch, edges, &gas, &mut f5, Some(&mut s5), &mut ledger);
                compute_flux(Version::V6, dir, &p5, &patch, edges, &gas, &mut f6, Some(&mut s6), &mut ledger);
                for c in 0..4 {
                    for i in 0..patch.nxl {
                        for j in 0..patch.nr() {
                            assert_eq!(
                                f5.at(c, i as isize, j as isize).to_bits(),
                                f6.at(c, i as isize, j as isize).to_bits(),
                                "{regime:?} {dir:?} comp {c} at ({i},{j})"
                            );
                        }
                    }
                }
                if dir == FluxDir::R {
                    for i in 0..patch.nxl {
                        for j in 0..patch.nr() {
                            assert_eq!(s5.at(i + NG, j + NG).to_bits(), s6.at(i + NG, j + NG).to_bits());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fused_sweep_is_bitwise_the_unfused_sequence() {
        for regime in [Regime::NavierStokes, Regime::Euler] {
            let (field, _, gas, patch) = setup(regime);
            let edges = EdgeFlags::of(&patch);
            let (nxl, nr) = (patch.nxl, patch.nr());

            // Reference: whole-plane V5 prims, plane-wide ghost fill, V5 flux.
            let mut ref_ledger = FlopLedger::default();
            let mut ref_prim = PrimField::zeros(&patch);
            compute_prims(Version::V5, &field, &mut ref_prim, &gas, &mut ref_ledger);
            crate::bc::mirror_prims_axis(&mut ref_prim);
            crate::bc::extrap_prims_top(&mut ref_prim, nr);
            for dir in [FluxDir::X, FluxDir::R] {
                let mut ref_flux = FluxField::zeros(&patch);
                let mut ref_src = Array2::zeros(nxl + 2 * NG, nr + 2 * NG);
                compute_flux(
                    Version::V5,
                    dir,
                    &ref_prim,
                    &patch,
                    edges,
                    &gas,
                    &mut ref_flux,
                    Some(&mut ref_src),
                    &mut ref_ledger,
                );

                for split_boundary in [false, true] {
                    let mut ledger = FlopLedger::default();
                    let mut prim = PrimField::zeros(&patch);
                    let mut flux = FluxField::zeros(&patch);
                    let mut src = Array2::zeros(nxl + 2 * NG, nr + 2 * NG);
                    if split_boundary {
                        // x-operator shape: boundary stations first, then the
                        // pipelined interior sweep.
                        fused_boundary_prims(&field, &mut prim, &gas, &[0, nxl - 1], &mut ledger);
                        fused_sweep(
                            dir,
                            &field,
                            &mut prim,
                            edges,
                            &gas,
                            &mut flux,
                            Some(&mut src),
                            1..nxl - 1,
                            0..nxl,
                            Some(nxl - 1),
                            &mut ledger,
                        );
                    } else {
                        fused_sweep(
                            dir,
                            &field,
                            &mut prim,
                            edges,
                            &gas,
                            &mut flux,
                            Some(&mut src),
                            0..nxl,
                            0..nxl,
                            None,
                            &mut ledger,
                        );
                    }
                    // Interior stations (incl. their radial ghosts) and all
                    // flux/source points must be bit-identical.
                    for i in 0..nxl {
                        let ii = i + NG;
                        for jj in 0..nr + 2 * NG {
                            assert_eq!(prim.p.at(ii, jj).to_bits(), ref_prim.p.at(ii, jj).to_bits());
                            assert_eq!(prim.v.at(ii, jj).to_bits(), ref_prim.v.at(ii, jj).to_bits());
                        }
                    }
                    for c in 0..4 {
                        for i in 0..nxl {
                            for j in 0..nr {
                                assert_eq!(
                                    flux.at(c, i as isize, j as isize).to_bits(),
                                    ref_flux.at(c, i as isize, j as isize).to_bits(),
                                    "{regime:?} {dir:?} split={split_boundary} comp {c} at ({i},{j})"
                                );
                            }
                        }
                    }
                    if dir == FluxDir::R {
                        for i in 0..nxl {
                            for j in 0..nr {
                                assert_eq!(src.at(i + NG, j + NG).to_bits(), ref_src.at(i + NG, j + NG).to_bits());
                            }
                        }
                    }
                    // Fused ledger accounting matches the unfused path.
                    assert_eq!(ledger.prims, (nxl * nr) as u64 * opcount::COST_PRIMS);
                    assert_eq!(
                        ledger.flux,
                        (nxl * nr) as u64
                            * if gas.is_inviscid() { opcount::COST_FLUX_INVISCID } else { opcount::COST_FLUX_VISCOUS }
                    );
                }
            }
        }
    }

    #[test]
    fn ledger_accumulates_flux_costs() {
        let (field, mut prim, gas, patch) = setup(Regime::NavierStokes);
        let mut ledger = FlopLedger::default();
        compute_prims(Version::V5, &field, &mut prim, &gas, &mut ledger);
        fill_ghost_rows(&mut prim, patch.nxl, patch.nr());
        let pts = (patch.nxl * patch.nr()) as u64;
        assert_eq!(ledger.prims, pts * opcount::COST_PRIMS);
        let mut flux = FluxField::zeros(&patch);
        compute_flux(Version::V5, FluxDir::X, &prim, &patch, EdgeFlags::of(&patch), &gas, &mut flux, None, &mut ledger);
        assert_eq!(ledger.flux, pts * opcount::COST_FLUX_VISCOUS);
        assert_eq!(ledger.source, 0);
    }
}
