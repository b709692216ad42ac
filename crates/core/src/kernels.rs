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
//! | V6      | fused sweep      | `x * x`  | reciprocal mul | SoA lanes; update through the planes |
//! | V7      | fused sweep      | `x * x`  | reciprocal mul | SoA lanes; update inside the sweep   |
//!
//! Radial-innermost loops are stride-1 over the row-major planes (the loop
//! interchange the paper credits with ~50% of the gain); V5's row-slice
//! addressing is the analogue of the paper's COMMON-block collapse (fewer
//! address computations, friendlier to the register allocator and the
//! vectorizer).
//!
//! Three sweep-phase bodies live in this crate, each for a reason: the
//! `*_indexed` pair is V1–V4 (the paper's ladder, by const generics); the row
//! pair `prims_row` / `flux_row` is V5 — serial or on a DOALL team
//! (`doall`) — and the few stations V6/V7 compute outside their sweep; the
//! fused SoA sweep in [`crate::soa`] is V6/V7. The per-point arithmetic of
//! the last two is the same expression tree, so V5, V6 and V7 agree bit for
//! bit — a property the tests assert exactly.

use crate::config::Version;
use crate::field::{Field, FluxField, Patch, PrimField, NG};
use crate::opcount::{self, FlopLedger};
use crate::physics::{self, Derivs};
use ns_numerics::{Array2, GasModel};
use rayon::prelude::*;
use rayon::ThreadPool;
use std::ops::Range;

/// A DOALL loop over the raw stations `rows` of `N` planes: `body(ii, r)`
/// gets `r`, each plane's row `ii`, and every station writes only its rows —
/// the paper's Y-MP parallelization, a DOALL directive on the station loop.
/// Without a team, or for fewer than two stations, it is a plain loop on the
/// calling thread in station order, allocating nothing; with one, the team
/// runs its contiguous chunks of stations in one fork-join. Rows are
/// independent, so the result does not depend on the team.
pub(crate) fn doall<const N: usize>(
    team: Option<&ThreadPool>,
    mut planes: [&mut Array2; N],
    rows: Range<usize>,
    body: impl Fn(usize, [&mut [f64]; N]) + Sync,
) {
    let team = team.filter(|t| rows.len() > 1 && t.current_num_threads() > 1);
    let Some(team) = team else {
        for ii in rows {
            body(ii, planes.each_mut().map(|p| p.row_mut(ii)));
        }
        return;
    };
    let mut bands = planes.map(|p| {
        let nj = p.nj();
        p.as_mut_slice()[rows.start * nj..rows.end * nj].chunks_mut(nj)
    });
    let mut stations: Vec<_> =
        rows.map(|ii| (ii, bands.each_mut().map(|b| b.next().expect("one row per station")))).collect();
    team.install(|| stations.par_iter_mut().for_each(|(ii, r)| body(*ii, r.each_mut().map(|row| &mut **row))));
}

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
/// field on the interior `[0, nxl) x [0, nr)`. A `team` spreads V5's
/// stations over its threads (a DOALL loop); the other rungs ignore it.
pub fn compute_prims(
    version: Version,
    team: Option<&ThreadPool>,
    field: &Field,
    prim: &mut PrimField,
    gas: &GasModel,
    ledger: &mut FlopLedger,
) {
    match version {
        Version::V1 => prims_indexed::<true, false, true>(field, prim, gas),
        Version::V2 => prims_indexed::<false, false, true>(field, prim, gas),
        Version::V3 => prims_indexed::<false, false, false>(field, prim, gas),
        Version::V4 => prims_indexed::<false, true, false>(field, prim, gas),
        // V6/V7 have no standalone kernels: outside the fused sweep they are V5.
        Version::V5 | Version::V6 | Version::V7 => prims_sliced(team, field, prim, gas, 0..field.nxl(), 0..field.nr()),
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

/// Primitive recovery of one axial station, the V5 way: row-slice
/// addressing, stride-1, reciprocals, per-point temporaries in registers. `q`
/// and `out` are the station's rows of the conservative and primitive planes
/// (ghosts included, interior written); `inv_r` has one entry per interior
/// row. The one row-sliced primitive body outside the fused sweep. One loop
/// on purpose: split into a weighting pass and a divide pass, the same
/// expression tree measured 40 % slower on 24-point rows (four loop set-ups
/// a row) and 6–10 % slower on 100-point ones.
#[inline(always)]
pub(crate) fn prims_row(q: [&[f64]; 4], out: [&mut [f64]; 5], inv_r: &[f64], gm1: f64, inv_rgas: f64) {
    let nr = inv_r.len();
    let [q0, q1, q2, q3] = q.map(|row| &row[NG..NG + nr]);
    let [rho, u, v, p, t] = out.map(|row| &mut row[NG..NG + nr]);
    for j in 0..nr {
        let w = inv_r[j];
        let rhoj = q0[j] * w;
        let inv_rho = 1.0 / rhoj;
        let (uj, vj) = ((q1[j] * w) * inv_rho, (q2[j] * w) * inv_rho);
        let e = q3[j] * w;
        let ke = 0.5 * rhoj * (uj * uj + vj * vj);
        let pj = gm1 * (e - ke);
        rho[j] = rhoj;
        u[j] = uj;
        v[j] = vj;
        p[j] = pj;
        t[j] = pj * inv_rho * inv_rgas;
    }
}

/// V5 primitive recovery: [`prims_row`] at each of `stations`, over the
/// interior rows `rows`, on `team` if there is one.
fn prims_sliced(
    team: Option<&ThreadPool>,
    field: &Field,
    prim: &mut PrimField,
    gas: &GasModel,
    stations: Range<usize>,
    rows: Range<usize>,
) {
    let gm1 = gas.gamma - 1.0;
    let inv_rgas = 1.0 / gas.r_gas;
    let inv_r: Vec<f64> = rows.clone().map(|j| 1.0 / field.patch.r(j)).collect();
    let planes = [&mut prim.rho, &mut prim.u, &mut prim.v, &mut prim.p, &mut prim.t];
    doall(team, planes, stations.start + NG..stations.end + NG, |ii, out| {
        let q = field.q.each_ref().map(|c| &c.row(ii)[rows.start..]);
        prims_row(q, out.map(|row| &mut row[rows.start..]), &inv_r, gm1, inv_rgas);
    });
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
    team: Option<&ThreadPool>,
    dir: FluxDir,
    prim: &PrimField,
    patch: &Patch,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    src: Option<&mut Array2>,
    ledger: &mut FlopLedger,
) {
    compute_flux_range(version, team, dir, prim, patch, edges, gas, flux, src, 0..patch.nxl, ledger);
}

/// [`compute_flux`] restricted to the axial columns in `i_range` — the
/// building block of the comm Version 6 overlap, which computes the interior
/// while the boundary primitive columns are in flight and finishes the
/// edge columns afterwards.
#[allow(clippy::too_many_arguments)]
pub fn compute_flux_range(
    version: Version,
    team: Option<&ThreadPool>,
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
        // V6/V7 have no standalone kernels: outside the fused sweep (the
        // post-halo edge columns) they are V5.
        Version::V5 | Version::V6 | Version::V7 => flux_sliced(team, dir, prim, patch, edges, gas, flux, src, i_range),
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

/// The flux (and, for radial sweeps, source) of one axial station `i`, the V5
/// way: row-slice addressing over a stride-1 inner loop. `out` and `src_row`
/// are the station's rows of the flux and source planes (ghosts included,
/// interior written); `r_of` / `inv_r` have one entry per interior row. The
/// one row-sliced flux body outside the fused sweep.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn flux_row(
    dir: FluxDir,
    prim: &PrimField,
    patch: &Patch,
    edges: EdgeFlags,
    gas: &GasModel,
    r_of: &[f64],
    inv_r: &[f64],
    i: usize,
    [f0, f1, f2, f3]: [&mut [f64]; 4],
    mut src_row: Option<&mut [f64]>,
) {
    let (nxl, nr) = (patch.nxl, patch.nr());
    let inv_2dx = 1.0 / (2.0 * patch.grid.dx);
    let inv_2dr = 1.0 / (2.0 * patch.grid.dr);
    let inv_gm1 = 1.0 / (gas.gamma - 1.0);
    let viscous = !gas.is_inviscid();
    let mu = gas.mu;
    let kappa = gas.kappa;
    let ii = i + NG;
    // Row slices of the stencil neighborhood, bound once per row: the
    // "collapse the COMMON blocks" analogue (single base pointer + offset
    // addressing in the inner loop).
    let (rho0, u0, v0, p0, t0) = (prim.rho.row(ii), prim.u.row(ii), prim.v.row(ii), prim.p.row(ii), prim.t.row(ii));
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
        f0[jj] = r * f[0];
        f1[jj] = r * f[1];
        f2[jj] = r * f[2];
        f3[jj] = r * f[3];
        if let Some(sr) = src_row.as_deref_mut() {
            sr[jj] = physics::source3(p, &s);
        }
    }
}

/// V5 flux kernel: [`flux_row`] over the stations in `i_range`, on `team` if
/// there is one.
#[allow(clippy::too_many_arguments)]
fn flux_sliced(
    team: Option<&ThreadPool>,
    dir: FluxDir,
    prim: &PrimField,
    patch: &Patch,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    src: Option<&mut Array2>,
    i_range: Range<usize>,
) {
    let r_of: Vec<f64> = (0..patch.nr()).map(|j| patch.r(j)).collect();
    let inv_r: Vec<f64> = r_of.iter().map(|&r| 1.0 / r).collect();
    let row = |ii: usize, out: [&mut [f64]; 4], src_row: Option<&mut [f64]>| {
        flux_row(dir, prim, patch, edges, gas, &r_of, &inv_r, ii - NG, out, src_row)
    };
    let rows = i_range.start + NG..i_range.end + NG;
    match src {
        Some(sp) => {
            let [c0, c1, c2, c3] = &mut flux.c;
            doall(team, [c0, c1, c2, c3, sp], rows, |ii, [a, b, c, d, s]| row(ii, [a, b, c, d], Some(s)));
        }
        None => doall(team, flux.c.each_mut(), rows, |ii, out| row(ii, out, None)),
    }
}

/// Recover primitives (plus their radial ghosts at owned global edges) for
/// an explicit list of interior stations — the boundary stations a fused
/// (V6/V7) x-sweep must compute *before* posting the halo exchange, ahead
/// of the interior sweep that imports them. Per station exactly what the
/// plane path's [`compute_prims`] and owned-edge `bc` fills do.
pub fn fused_boundary_prims(
    field: &Field,
    prim: &mut PrimField,
    gas: &GasModel,
    stations: &[usize],
    ledger: &mut FlopLedger,
) {
    let nr = field.nr();
    for &i in stations {
        prims_sliced(None, field, prim, gas, i..i + 1, 0..nr);
        if field.patch.is_global_bottom() {
            crate::bc::mirror_prims_axis_row(prim, i + NG);
        }
        if field.patch.is_global_top() {
            crate::bc::extrap_prims_top_row(prim, i + NG, nr);
        }
    }
    ledger.prims += (stations.len() * nr) as u64 * opcount::COST_PRIMS;
}

/// The primitives of the radial edge rows `0` and `nr - 1` at every
/// station: what a fused (V6/V7) stage sends its radial neighbours ahead of
/// its sweep. Not charged to the ledger: the sweep recovers them again.
pub(crate) fn edge_row_prims(field: &Field, prim: &mut PrimField, gas: &GasModel) {
    for j in [0, field.nr() - 1] {
        prims_sliced(None, field, prim, gas, 0..field.nxl(), j..j + 1);
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
        compute_prims(Version::V5, None, &field, &mut reference, &gas, &mut ledger);
        for v in Version::ALL {
            let mut prim = PrimField::zeros(&patch);
            compute_prims(v, None, &field, &mut prim, &gas, &mut ledger);
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
        compute_prims(Version::V5, None, &field, &mut prim, &gas, &mut ledger);
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
            compute_prims(Version::V5, None, &field, &mut prim, &gas, &mut ledger);
            fill_ghost_rows(&mut prim, patch.nxl, patch.nr());
            let edges = EdgeFlags::of(&patch);
            for dir in [FluxDir::X, FluxDir::R] {
                let mut reference = FluxField::zeros(&patch);
                let mut src_ref = Array2::zeros(patch.nxl + 2 * NG, patch.nr() + 2 * NG);
                compute_flux(
                    Version::V5,
                    None,
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
                    compute_flux(v, None, dir, &prim, &patch, edges, &gas, &mut flux, Some(&mut src), &mut ledger);
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
        compute_prims(Version::V5, None, &field, &mut prim, &gas, &mut ledger);
        fill_ghost_rows(&mut prim, patch.nxl, patch.nr());
        let mut flux = FluxField::zeros(&patch);
        compute_flux(
            Version::V5,
            None,
            FluxDir::X,
            &prim,
            &patch,
            EdgeFlags::of(&patch),
            &gas,
            &mut flux,
            None,
            &mut ledger,
        );
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
        compute_prims(Version::V5, None, &field, &mut prim, &gas, &mut ledger);
        fill_ghost_rows(&mut prim, patch.nxl, patch.nr());
        let mut flux = FluxField::zeros(&patch);
        let mut src = Array2::zeros(patch.nxl + 2 * NG, patch.nr() + 2 * NG);
        compute_flux(
            Version::V5,
            None,
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

    /// The fused SoA sweep (V6, and the body V7 updates in) against a body it
    /// shares no code with: whole-plane V5 prims, plane-wide ghost fill, V5
    /// flux. Bit for bit on every flux and source point, on every primitive
    /// station the sweep hands back to the AoS planes (radial ghosts
    /// included) and in the ledger — for both regimes and directions, the
    /// whole-patch shape and the x-operator's split shape (boundary stations
    /// precomputed and imported, `hi_pre`, exports for the post-halo edge
    /// columns), a whole patch and an internal slab, and any tile size (tile
    /// boundaries are recomputation, not approximation).
    #[test]
    fn fused_sweep_is_bitwise_the_unfused_sequence() {
        use crate::config::DEFAULT_TILE_R;
        use crate::soa::{self, SoaWs};
        let bits = |a: &Array2, ii: usize| a.row(ii).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for regime in [Regime::NavierStokes, Regime::Euler] {
            let (whole, _, gas, patch) = setup(regime);
            // internal: no global x edge, so only the split shape applies
            let slab = Patch::block(patch.grid.clone(), 1, 3);
            let internal = Field::from_primitives(slab.clone(), &gas, |x, r| Primitive {
                rho: 1.0 + 0.07 * (0.31 * x).cos() * (0.8 * r).sin(),
                u: 0.9 + 0.04 * (0.22 * x - r).sin(),
                v: 0.015 * (0.45 * x).cos() * r.min(1.4),
                p: 0.7 + 0.02 * (0.38 * x + 0.6 * r).cos(),
            });
            let cases = [
                (&whole, FluxDir::X, false),
                (&whole, FluxDir::X, true),
                (&whole, FluxDir::R, false),
                (&whole, FluxDir::R, true),
                (&internal, FluxDir::X, true),
            ];
            for (field, dir, split) in cases {
                let patch = &field.patch;
                let edges = EdgeFlags::of(patch);
                let (nxl, nr) = (patch.nxl, patch.nr());
                let (flo, fhi) = (usize::from(!edges.left), nxl - usize::from(!edges.right));
                let (prim_range, hi_pre, exports) =
                    if split { (1..nxl - 1, Some(nxl - 1), [1, nxl - 2]) } else { (0..nxl, None, [nxl - 2, nxl - 3]) };

                let mut ref_ledger = FlopLedger::default();
                let mut ref_prim = PrimField::zeros(patch);
                let mut ref_flux = FluxField::zeros(patch);
                let mut ref_src = Array2::zeros(nxl + 2 * NG, nr + 2 * NG);
                compute_prims(Version::V5, None, field, &mut ref_prim, &gas, &mut ref_ledger);
                crate::bc::mirror_prims_axis(&mut ref_prim);
                crate::bc::extrap_prims_top(&mut ref_prim, nr);
                let src = (dir == FluxDir::R).then_some(&mut ref_src);
                let (v5, range) = (Version::V5, flo..fhi);
                compute_flux_range(
                    v5,
                    None,
                    dir,
                    &ref_prim,
                    patch,
                    edges,
                    &gas,
                    &mut ref_flux,
                    src,
                    range,
                    &mut ref_ledger,
                );

                for tile_r in [1, 3, 7, soa::LANES, DEFAULT_TILE_R, 10_000] {
                    let what = format!("{regime:?} {dir:?} nxl {nxl} split={split} tile {tile_r}");
                    let mut ledger = FlopLedger::default();
                    let mut prim = PrimField::zeros(patch);
                    let mut flux = FluxField::zeros(patch);
                    let mut src = Array2::zeros(nxl + 2 * NG, nr + 2 * NG);
                    let mut ws = SoaWs::new(patch);
                    if split {
                        fused_boundary_prims(field, &mut prim, &gas, &[0, nxl - 1], &mut ledger);
                    }
                    soa::fused_sweep(
                        dir,
                        field,
                        &mut prim,
                        edges,
                        &gas,
                        &mut flux,
                        (dir == FluxDir::R).then_some(&mut src),
                        prim_range.clone(),
                        flo..fhi,
                        hi_pre,
                        &exports,
                        &mut ws,
                        tile_r,
                        &mut ledger,
                    );
                    // Nothing was written outside `flo..fhi`, so whole planes compare.
                    for ii in 0..nxl + 2 * NG {
                        for (c, (got, want)) in flux.c.iter().zip(&ref_flux.c).enumerate() {
                            assert!(bits(got, ii) == bits(want, ii), "{what}: flux {c} at raw station {ii}");
                        }
                        assert!(bits(&src, ii) == bits(&ref_src, ii), "{what}: source at raw station {ii}");
                    }
                    let precomputed = if split { vec![0, nxl - 1] } else { vec![] };
                    for i in exports.into_iter().chain(precomputed) {
                        let planes = [&prim.rho, &prim.u, &prim.v, &prim.p, &prim.t];
                        let wants = [&ref_prim.rho, &ref_prim.u, &ref_prim.v, &ref_prim.p, &ref_prim.t];
                        for (c, (got, want)) in planes.into_iter().zip(wants).enumerate() {
                            assert!(bits(got, i + NG) == bits(want, i + NG), "{what}: primitive {c} at station {i}");
                        }
                    }
                    assert_eq!(ledger, ref_ledger, "{what}: ledger");
                }
            }
        }
    }

    #[test]
    fn ledger_accumulates_flux_costs() {
        let (field, mut prim, gas, patch) = setup(Regime::NavierStokes);
        let mut ledger = FlopLedger::default();
        compute_prims(Version::V5, None, &field, &mut prim, &gas, &mut ledger);
        fill_ghost_rows(&mut prim, patch.nxl, patch.nr());
        let pts = (patch.nxl * patch.nr()) as u64;
        assert_eq!(ledger.prims, pts * opcount::COST_PRIMS);
        let mut flux = FluxField::zeros(&patch);
        compute_flux(
            Version::V5,
            None,
            FluxDir::X,
            &prim,
            &patch,
            EdgeFlags::of(&patch),
            &gas,
            &mut flux,
            None,
            &mut ledger,
        );
        assert_eq!(ledger.flux, pts * opcount::COST_FLUX_VISCOUS);
        assert_eq!(ledger.source, 0);
    }
}
