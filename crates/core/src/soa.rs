//! The fused sweep of the V6 and V7 rungs on a structure-of-arrays compute
//! path: lane-aligned SoA buffers, explicit fixed-width [`LaneVec`]
//! arithmetic, cache-blocked (radially tiled) sweeps. V6 writes flux and
//! source to the planes its update reads; V7 runs the update inside the sweep.
//!
//! ## Layout
//!
//! The solver state stays in the AoS-of-planes [`Field`]; this module owns a
//! *sweep-scoped* SoA arena ([`SoaWs`]) for the recovered primitives that the
//! fused operator path converts out of only at sweep boundaries (immediately
//! adjacent to the halo exchange, which is the only other place the rows are
//! touched), so the runtime, comm framing, checkpoint and recovery layers
//! never see it:
//!
//! ```text
//!            AoS Field (per component, rows strided nr + 2 NG)
//!   q[0]: [..|................|..]   <- read in place by lane loads
//!   q[1]: [..|................|..]      (loads need no padding)
//!
//!            SoA arena (station-blocked, stride = round_up(nr + 2 NG, LANES))
//!   prims i:     [rho pad][u pad][v pad][p pad][t pad]
//!   prims i+1:   [rho pad][u pad][v pad][p pad][t pad]
//! ```
//!
//! The conservative inputs are deliberately *not* copied into an SoA mirror:
//! only the primitive *stores* need lane padding, and a staged copy of `q`
//! measured as a full extra round-trip of the field through memory per sweep
//! (~25% of sweep time on the 250×100 grid). Everything one station's
//! recover→ghost-fill→flux pipeline touches is a handful of *contiguous*
//! rows, and the radial axis is tiled
//! ([`SolverConfig::tile_r`](crate::config::SolverConfig::tile_r)) so those
//! rows stay cache-resident even on tall grids.
//!
//! ## Lanes and bitwise policy
//!
//! [`LaneVec<N>`] is an explicit `[f64; N]` short-vector type (no nightly,
//! no intrinsics) whose operators are fully unrolled elementwise loops with
//! constant trip counts — the shape LLVM reliably turns into packed IEEE
//! ops. Each lane is an independent grid point: the sweep performs *exactly*
//! the per-point expression trees of the V5 row kernels in [`crate::kernels`]
//! (same operations, same association), never reassociates across lanes, and
//! has no cross-lane reductions, so V6 and V7 results are bitwise equal to V5
//! — the oracle and the property tests assert this exactly. Ranges that are not a
//! whole number of lanes are finished by a *shifted* final lane block
//! (recomputing up to `LANES - 1` points bit-identically) instead of a
//! scalar remainder loop; ranges narrower than one lane fall back to
//! single-lane (`N = 1`) blocks of the same generic body.
//!
//! Direction, viscosity and source-plane presence are const generics of the
//! flux body, so the hot loops carry no per-point branches.
//!
//! ## The update rides in the sweep
//!
//! A V7 step does not sweep into the flux planes and read them back: its
//! operators hand the sweep the predictor or corrector pass that consumes
//! the flux (`fused_pass`, `scheme::FusedUpdate`). The sweep emits each
//! station's flux rows into a three-station ring in [`SoaWs`] and updates a station
//! from the ring as soon as its one-sided stencil is complete — the radial
//! operator right behind the station's own flux (stencil and flux ghost fill
//! stay inside the row), the axial one a station (backward difference) or
//! three (forward) behind it — with the row kernels of [`crate::scheme`] on
//! the operands the plane path gives them, so the bits are those of sweep →
//! ghost fill → update. Stations whose stencil reaches a ghost flux (global
//! edge extrapolation, neighbour exchange, edge columns computed after the
//! halo) are *deferred*: the sweep writes the four stations at either end of
//! the patch to the planes as well, and the caller runs the plane update
//! over what is left of its window once the ghosts exist. A V6 step, like the
//! public [`fused_sweep`] that benches and property tests call, is the same
//! body with no pass attached: every station deferred, every flux row to the
//! planes.
//!
//! ## ISA dispatch
//!
//! The sweep is one `#[inline(always)]` source body (`run`) instantiated
//! twice per direction and regime: for the target's baseline vector unit,
//! and under `#[target_feature(enable = "avx2")]` on x86-64, picked per call
//! by `is_x86_feature_detected!`. Only the register width differs — no
//! `fma`, no intrinsics — so the two instantiations agree bit for bit
//! (unit-tested against each other). This is the crate's one `unsafe` block
//! (DESIGN §14.2).

use crate::bc;
use crate::field::{Field, FluxField, Patch, PrimField, NG};
use crate::kernels::{EdgeFlags, FluxDir};
use crate::opcount::{self, FlopLedger};
use crate::scheme::FusedUpdate;
use ns_numerics::{Array2, GasModel};
use std::ops::Range;

/// Lane width of the sweep: four `f64` grid points, one 256-bit register
/// per lane value under AVX2 (and two 128-bit ones on the SSE2 fallback).
/// Eight lanes hold more live values than either register file has and
/// spill — measured slower on both paths (DESIGN §14.2).
pub const LANES: usize = 4;

/// Round `n` up to the next multiple of [`LANES`].
#[inline(always)]
fn pad(n: usize) -> usize {
    n.div_ceil(LANES) * LANES
}

// ---------------------------------------------------------------------------
// LaneVec
// ---------------------------------------------------------------------------

/// Fixed-width vector of `N` lanes, each an independent grid point.
///
/// All arithmetic is elementwise with constant trip counts (fully unrolled
/// by the optimizer); there are intentionally **no** horizontal operations,
/// so using `LaneVec` can never reassociate a reduction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LaneVec<const N: usize>(pub [f64; N]);

impl<const N: usize> LaneVec<N> {
    /// Broadcast a scalar into every lane.
    #[inline(always)]
    pub fn splat(x: f64) -> Self {
        Self([x; N])
    }

    /// Load `N` contiguous lanes of `s` starting at `at`.
    #[inline(always)]
    pub fn load(s: &[f64], at: usize) -> Self {
        Self(s[at..at + N].try_into().unwrap())
    }

    /// Store the lanes into `s` starting at `at`.
    #[inline(always)]
    pub fn store(self, s: &mut [f64], at: usize) {
        s[at..at + N].copy_from_slice(&self.0);
    }

    /// Elementwise reciprocal `1.0 / x` (a true IEEE divide per lane).
    #[inline(always)]
    pub fn recip(self) -> Self {
        let mut o = [0.0; N];
        for l in 0..N {
            o[l] = 1.0 / self.0[l];
        }
        Self(o)
    }
}

macro_rules! lane_binop {
    ($trait:ident, $fn:ident, $op:tt) => {
        impl<const N: usize> std::ops::$trait for LaneVec<N> {
            type Output = Self;
            #[inline(always)]
            fn $fn(self, rhs: Self) -> Self {
                let mut o = [0.0; N];
                for l in 0..N {
                    o[l] = self.0[l] $op rhs.0[l];
                }
                Self(o)
            }
        }
    };
}
lane_binop!(Add, add, +);
lane_binop!(Sub, sub, -);
lane_binop!(Mul, mul, *);
lane_binop!(Div, div, /);

impl<const N: usize> std::ops::Neg for LaneVec<N> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        let mut o = [0.0; N];
        for l in 0..N {
            o[l] = -self.0[l];
        }
        Self(o)
    }
}

// ---------------------------------------------------------------------------
// SoA containers
// ---------------------------------------------------------------------------

/// Primitive planes (`rho, u, v, p, t`) in a lane-aligned, station-blocked
/// SoA arena: for each axial station (ghosts included) the five component
/// rows sit contiguously, each padded to a whole number of lanes. The
/// sweep recovers into these and the flux stencils read them back while the
/// station block is still in L1.
#[derive(Clone, Debug)]
pub struct SoaPrims {
    data: Vec<f64>,
    ni: usize,
    nj: usize,
    stride: usize,
}

/// Component order inside a [`SoaPrims`] station block.
const P_RHO: usize = 0;
const P_U: usize = 1;
const P_V: usize = 2;
const P_P: usize = 3;
const P_T: usize = 4;

impl SoaPrims {
    /// Zeroed arena shaped for `patch` (ghosts included).
    pub fn zeros(patch: &Patch) -> Self {
        Self::with_stations(patch.nxl + 2 * NG, patch.nr() + 2 * NG)
    }

    /// Zeroed arena of `ni` stations of `nj`-point rows.
    fn with_stations(ni: usize, nj: usize) -> Self {
        let stride = pad(nj);
        Self { data: vec![0.0; ni * 5 * stride], ni, nj, stride }
    }

    #[inline(always)]
    fn base(&self, ii: usize, comp: usize) -> usize {
        debug_assert!(ii < self.ni && comp < 5);
        (ii * 5 + comp) * self.stride
    }

    /// Row of primitive component `comp` at raw station `ii`.
    #[inline(always)]
    fn row(&self, ii: usize, comp: usize) -> &[f64] {
        let b = self.base(ii, comp);
        &self.data[b..b + self.stride]
    }

    /// The five rows of one station, split for simultaneous mutation.
    #[inline(always)]
    fn station_rows_mut(&mut self, ii: usize) -> [&mut [f64]; 5] {
        let b = self.base(ii, 0);
        let s = self.stride;
        let block = &mut self.data[b..b + 5 * s];
        let (rho, rest) = block.split_at_mut(s);
        let (u, rest) = rest.split_at_mut(s);
        let (v, rest) = rest.split_at_mut(s);
        let (p, t) = rest.split_at_mut(s);
        [rho, u, v, p, t]
    }

    /// Import one precomputed AoS primitive station (ghost rows included) —
    /// used for the boundary stations that [`crate::kernels::fused_boundary_prims`]
    /// computed ahead of the halo post.
    fn import_station(&mut self, prim: &PrimField, ii: usize) {
        let nj = self.nj;
        let [rho, u, v, p, t] = self.station_rows_mut(ii);
        rho[..nj].copy_from_slice(prim.rho.row(ii));
        u[..nj].copy_from_slice(prim.u.row(ii));
        v[..nj].copy_from_slice(prim.v.row(ii));
        p[..nj].copy_from_slice(prim.p.row(ii));
        t[..nj].copy_from_slice(prim.t.row(ii));
    }

    /// Import one radial ghost entry (raw row `jj`) of station `ii` from the
    /// AoS planes: the exchanged row at an internal radial edge.
    fn import_ghost(&mut self, prim: &PrimField, ii: usize, jj: usize) {
        let planes = [&prim.rho, &prim.u, &prim.v, &prim.p, &prim.t];
        for (row, plane) in self.station_rows_mut(ii).into_iter().zip(planes) {
            row[jj] = plane.at(ii, jj);
        }
    }

    /// Export one swept station back to the AoS planes (ghost rows included)
    /// — the stations the post-halo edge-column flux pass will read.
    fn export_station(&self, prim: &mut PrimField, ii: usize) {
        let nj = self.nj;
        prim.rho.row_mut(ii).copy_from_slice(&self.row(ii, P_RHO)[..nj]);
        prim.u.row_mut(ii).copy_from_slice(&self.row(ii, P_U)[..nj]);
        prim.v.row_mut(ii).copy_from_slice(&self.row(ii, P_V)[..nj]);
        prim.p.row_mut(ii).copy_from_slice(&self.row(ii, P_P)[..nj]);
        prim.t.row_mut(ii).copy_from_slice(&self.row(ii, P_T)[..nj]);
    }
}

/// Flux stations an axial pass keeps: the one-sided 2-4 stencil spans three.
const RING: usize = 3;
/// Row of the radial source inside a ring station, after the four flux rows.
const R_SRC: usize = 4;
/// Axial stations at either end of a patch whose flux an attached pass also
/// writes to the flux planes: the four the cubic ghost extrapolation reads
/// at a global edge, which cover the two the flux exchange sends at an
/// internal one and every station a deferred update differences.
const X_BAND: usize = 4;
/// Radial points by which a tile's flux rows overlap its neighbours' when a
/// radial pass is attached. The far-field extrapolation sets it: a tile that
/// holds the last row fills the ghosts above it from the last four. The
/// stencil reaches two, and the axis mirror wants row 1 beside row 0.
const R_REACH: usize = 3;

/// Reusable sweep workspace: the primitive SoA arena, the flux ring and
/// the padded radius tables of one patch. Created lazily by the first fused
/// sweep and kept in the solver [`Workspace`](crate::field::Workspace).
#[derive(Clone, Debug)]
pub struct SoaWs {
    /// Recovered primitives (station-blocked); the conservative inputs have
    /// no mirror here (module docs, Layout).
    pub prims: SoaPrims,
    /// The flux (and radial source) rows of the last [`RING`] stations a
    /// sweep emitted, in the arena's station layout — four flux rows and
    /// [`R_SRC`] where a primitive station has `rho, u, v, p, t` — each row
    /// indexed like a flux-plane row: what an attached update reads instead
    /// of the planes.
    ring: SoaPrims,
    r_of: Vec<f64>,
    inv_r: Vec<f64>,
    /// The patch everything above was built from: the arena depends on its
    /// shape, the radius tables on `j0` and `grid.dr` as well.
    patch: Patch,
}

impl SoaWs {
    /// Build a workspace for `patch`.
    pub fn new(patch: &Patch) -> Self {
        let prims = SoaPrims::zeros(patch);
        let (nr, stride) = (patch.nr(), prims.stride);
        // Identical expressions to the V5 radius tables; padded entries
        // are never read (every lane block stays inside [0, nr)).
        let mut r_of = vec![1.0; stride];
        let mut inv_r = vec![1.0; stride];
        for (j, (r, w)) in r_of.iter_mut().zip(inv_r.iter_mut()).enumerate().take(nr) {
            *r = patch.r(j);
            *w = 1.0 / *r;
        }
        let ring = SoaPrims::with_stations(RING, prims.nj);
        Self { prims, ring, r_of, inv_r, patch: patch.clone() }
    }

    /// Rebuild if the workspace was built for another patch (a ten-word
    /// compare otherwise). Same shape is not enough: a pencil at another
    /// radial offset has other radii.
    fn ensure(&mut self, patch: &Patch) {
        if self.patch != *patch {
            *self = Self::new(patch);
        }
    }
}

// ---------------------------------------------------------------------------
// lane kernels (bit-identical per point to the V5 row kernels)
// ---------------------------------------------------------------------------

/// One lane block of primitive recovery at interior radial index `j`
/// (per-point expression tree identical to [`crate::kernels::prims_row`]).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn prims_lane<const N: usize>(
    q: [&[f64]; 4],
    out: &mut [&mut [f64]; 5],
    inv_r: &[f64],
    j: usize,
    gm1: f64,
    inv_rgas: f64,
) {
    let at = j + NG;
    let q0 = LaneVec::<N>::load(q[0], at);
    let q1 = LaneVec::<N>::load(q[1], at);
    let q2 = LaneVec::<N>::load(q[2], at);
    let q3 = LaneVec::<N>::load(q[3], at);
    let w = LaneVec::<N>::load(inv_r, j);
    let rho = q0 * w;
    let inv_rho = rho.recip();
    let u = (q1 * w) * inv_rho;
    let v = (q2 * w) * inv_rho;
    let e = q3 * w;
    let ke = (LaneVec::splat(0.5) * rho) * (u * u + v * v);
    let p = LaneVec::splat(gm1) * (e - ke);
    let t = (p * inv_rho) * LaneVec::splat(inv_rgas);
    rho.store(out[P_RHO], at);
    u.store(out[P_U], at);
    v.store(out[P_V], at);
    p.store(out[P_P], at);
    t.store(out[P_T], at);
}

/// Recover primitives of one station over interior radial points
/// `[jlo, jhi)`: full lane blocks, then a shifted final block (or
/// single-lane blocks when the range is narrower than a lane).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn prims_station_tile(
    qrows: [&[f64]; 4],
    prims: &mut SoaPrims,
    ii: usize,
    jlo: usize,
    jhi: usize,
    gm1: f64,
    inv_rgas: f64,
    inv_r: &[f64],
) {
    let mut out = prims.station_rows_mut(ii);
    let mut j = jlo;
    while j + LANES <= jhi {
        prims_lane::<LANES>(qrows, &mut out, inv_r, j, gm1, inv_rgas);
        j += LANES;
    }
    if j < jhi {
        if jhi - jlo >= LANES {
            prims_lane::<LANES>(qrows, &mut out, inv_r, jhi - LANES, gm1, inv_rgas);
        } else {
            while j < jhi {
                prims_lane::<1>(qrows, &mut out, inv_r, j, gm1, inv_rgas);
                j += 1;
            }
        }
    }
}

/// Axis-symmetry ghost fill of one SoA station (bitwise the arithmetic of
/// [`crate::bc::mirror_prims_axis_row`]).
#[inline(always)]
fn mirror_axis_station(prims: &mut SoaPrims, ii: usize) {
    let [rho, u, v, p, t] = prims.station_rows_mut(ii);
    for g in 0..NG {
        let (dst, src) = (NG - 1 - g, NG + g);
        rho[dst] = rho[src];
        u[dst] = u[src];
        v[dst] = -v[src];
        p[dst] = p[src];
        t[dst] = t[src];
    }
}

/// Far-field ghost fill of one SoA station (bitwise the arithmetic of
/// [`crate::bc::extrap_prims_top_row`]).
#[inline(always)]
fn extrap_top_station(prims: &mut SoaPrims, ii: usize, nr: usize) {
    let rows = prims.station_rows_mut(ii);
    let a = NG + nr - 1;
    let b = NG + nr - 2;
    for row in rows {
        for g in 0..NG {
            let dst = NG + nr + g;
            let w = (g + 1) as f64;
            row[dst] = row[a] + w * (row[a] - row[b]);
        }
    }
}

/// Loop-invariant scalar constants of a flux station (hoisted subtrees of
/// the V5 per-point expressions — hoisting a subtree does not change the
/// per-point association).
#[derive(Clone, Copy)]
struct FluxConsts {
    inv_2dr: f64,
    inv_gm1: f64,
    two_mu: f64,
    c_lam: f64,
    mu: f64,
    neg_kappa: f64,
}

/// The primitive rows a flux station reads: the center station block plus
/// the `u`/`v`/`t` rows of the three x-stencil stations.
#[derive(Clone, Copy)]
struct StencilRows<'a> {
    rho0: &'a [f64],
    u0: &'a [f64],
    v0: &'a [f64],
    p0: &'a [f64],
    t0: &'a [f64],
    u_l: &'a [f64],
    u_m: &'a [f64],
    u_r: &'a [f64],
    v_l: &'a [f64],
    v_m: &'a [f64],
    v_r: &'a [f64],
    t_l: &'a [f64],
    t_m: &'a [f64],
    t_r: &'a [f64],
}

/// One lane block of the flux body at interior radial index `j` — the
/// per-point arithmetic of [`crate::kernels::flux_row`] with direction and
/// viscosity as const generics (no per-point branches).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn flux_lane<const DIRX: bool, const VISC: bool, const N: usize>(
    rows: &StencilRows<'_>,
    c: &FluxConsts,
    wl: f64,
    wm: f64,
    wr: f64,
    r_of: &[f64],
    inv_r: &[f64],
    f_rows: &mut [&mut [f64]; 4],
    src_row: &mut Option<&mut [f64]>,
    j: usize,
) {
    let at = j + NG;
    let rho = LaneVec::<N>::load(rows.rho0, at);
    let u = LaneVec::<N>::load(rows.u0, at);
    let v = LaneVec::<N>::load(rows.v0, at);
    let p = LaneVec::<N>::load(rows.p0, at);
    let r = LaneVec::<N>::load(r_of, j);
    let (txx, trr, ttt, txr, qx, qr);
    if VISC {
        let ux = LaneVec::splat(wl) * LaneVec::<N>::load(rows.u_l, at)
            + LaneVec::splat(wm) * LaneVec::<N>::load(rows.u_m, at)
            + LaneVec::splat(wr) * LaneVec::<N>::load(rows.u_r, at);
        let vx = LaneVec::splat(wl) * LaneVec::<N>::load(rows.v_l, at)
            + LaneVec::splat(wm) * LaneVec::<N>::load(rows.v_m, at)
            + LaneVec::splat(wr) * LaneVec::<N>::load(rows.v_r, at);
        let tx = LaneVec::splat(wl) * LaneVec::<N>::load(rows.t_l, at)
            + LaneVec::splat(wm) * LaneVec::<N>::load(rows.t_m, at)
            + LaneVec::splat(wr) * LaneVec::<N>::load(rows.t_r, at);
        let ur =
            (LaneVec::<N>::load(rows.u0, at + 1) - LaneVec::<N>::load(rows.u0, at - 1)) * LaneVec::splat(c.inv_2dr);
        let vr =
            (LaneVec::<N>::load(rows.v0, at + 1) - LaneVec::<N>::load(rows.v0, at - 1)) * LaneVec::splat(c.inv_2dr);
        let tr =
            (LaneVec::<N>::load(rows.t0, at + 1) - LaneVec::<N>::load(rows.t0, at - 1)) * LaneVec::splat(c.inv_2dr);
        let v_over_r = v * LaneVec::<N>::load(inv_r, j);
        let div = ux + vr + v_over_r;
        let lam_div = LaneVec::splat(c.c_lam) * div;
        txx = LaneVec::splat(c.two_mu) * ux + lam_div;
        trr = LaneVec::splat(c.two_mu) * vr + lam_div;
        ttt = LaneVec::splat(c.two_mu) * v_over_r + lam_div;
        txr = LaneVec::splat(c.mu) * (ur + vx);
        qx = LaneVec::splat(c.neg_kappa) * tx;
        qr = LaneVec::splat(c.neg_kappa) * tr;
    } else {
        // Inviscid: the V5 body still evaluates the flux expressions with
        // the default (zero) stresses; so does the sweep, for bit parity.
        txx = LaneVec::splat(0.0);
        trr = LaneVec::splat(0.0);
        ttt = LaneVec::splat(0.0);
        txr = LaneVec::splat(0.0);
        qx = LaneVec::splat(0.0);
        qr = LaneVec::splat(0.0);
    }
    let e = p * LaneVec::splat(c.inv_gm1) + (LaneVec::splat(0.5) * rho) * (u * u + v * v);
    let (f0, f1, f2, f3);
    if DIRX {
        let m = rho * u;
        f0 = m;
        f1 = m * u + p - txx;
        f2 = m * v - txr;
        f3 = (e + p) * u - u * txx - v * txr + qx;
    } else {
        let n = rho * v;
        f0 = n;
        f1 = n * u - txr;
        f2 = n * v + p - trr;
        f3 = (e + p) * v - u * txr - v * trr + qr;
    }
    (r * f0).store(f_rows[0], at);
    (r * f1).store(f_rows[1], at);
    (r * f2).store(f_rows[2], at);
    (r * f3).store(f_rows[3], at);
    if !DIRX {
        if let Some(sr) = src_row.as_deref_mut() {
            (p - ttt).store(sr, at);
        }
    }
}

/// Evaluate one station's flux (and source, for radial sweeps) over the
/// interior radial points `[jlo, jhi)` from the SoA primitive arena into
/// `f_rows` / `src_row`: the station's rows of the planes, or of the ring.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn flux_station_tile<const DIRX: bool, const VISC: bool>(
    prims: &SoaPrims,
    patch: &Patch,
    edges: EdgeFlags,
    c: &FluxConsts,
    inv_2dx: f64,
    mut f_rows: [&mut [f64]; 4],
    mut src_row: Option<&mut [f64]>,
    e: usize,
    jlo: usize,
    jhi: usize,
    r_of: &[f64],
    inv_r: &[f64],
) {
    let nxl = patch.nxl;
    let ii = e + NG;
    // x-stencil stations and weights, exactly as in the V5 row kernel.
    let (cl, cm, cr, wl, wm, wr);
    if e == 0 && edges.left {
        (cl, cm, cr) = (ii, ii + 1, ii + 2);
        (wl, wm, wr) = (-3.0 * inv_2dx, 4.0 * inv_2dx, -inv_2dx);
    } else if e == nxl - 1 && edges.right {
        (cl, cm, cr) = (ii - 2, ii - 1, ii);
        (wl, wm, wr) = (inv_2dx, -4.0 * inv_2dx, 3.0 * inv_2dx);
    } else {
        (cl, cm, cr) = (ii - 1, ii, ii + 1);
        (wl, wm, wr) = (-inv_2dx, 0.0, inv_2dx);
    }
    let rows = StencilRows {
        rho0: prims.row(ii, P_RHO),
        u0: prims.row(ii, P_U),
        v0: prims.row(ii, P_V),
        p0: prims.row(ii, P_P),
        t0: prims.row(ii, P_T),
        u_l: prims.row(cl, P_U),
        u_m: prims.row(cm, P_U),
        u_r: prims.row(cr, P_U),
        v_l: prims.row(cl, P_V),
        v_m: prims.row(cm, P_V),
        v_r: prims.row(cr, P_V),
        t_l: prims.row(cl, P_T),
        t_m: prims.row(cm, P_T),
        t_r: prims.row(cr, P_T),
    };

    let mut j = jlo;
    while j + LANES <= jhi {
        flux_lane::<DIRX, VISC, LANES>(&rows, c, wl, wm, wr, r_of, inv_r, &mut f_rows, &mut src_row, j);
        j += LANES;
    }
    if j < jhi {
        if jhi - jlo >= LANES {
            flux_lane::<DIRX, VISC, LANES>(&rows, c, wl, wm, wr, r_of, inv_r, &mut f_rows, &mut src_row, jhi - LANES);
        } else {
            while j < jhi {
                flux_lane::<DIRX, VISC, 1>(&rows, c, wl, wm, wr, r_of, inv_r, &mut f_rows, &mut src_row, j);
                j += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// the fused sweep
// ---------------------------------------------------------------------------

/// Highest station whose primitives must be available before the flux at
/// station `e` can be evaluated.
#[inline]
fn flux_needs(e: usize, nxl: usize, edges: EdgeFlags, viscous: bool) -> usize {
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

/// The V6 rung, and the body V7 runs its update in: one sweep over the axial
/// stations that recovers primitives, fills their radial ghosts (boundary
/// conditions at owned edges, the exchanged rows of `prim` at internal ones)
/// and evaluates each station's flux as soon as its stencil is complete — a
/// software pipeline in `i` over the lane-aligned SoA arena with
/// cache-blocked radial tiles, in the instantiation compiled for this host's
/// vector unit ([`isa`]).
///
/// `prim_range` is swept in ascending order; stations below it and `hi_pre`
/// are taken as precomputed ([`crate::kernels::fused_boundary_prims`]), and
/// `flux_range` may reach halo-dependent stations only once those ghosts are
/// filled. The ledger is charged as the unfused V5 sequence charges it;
/// additionally:
///
/// * the conservative rows of `prim_range` are read in place from the AoS
///   `field` (nothing is staged),
/// * precomputed boundary stations (below `prim_range` and `hi_pre`) are
///   imported from the AoS `prim` planes,
/// * the swept stations named in `exports` are copied back to the AoS
///   `prim` planes on exit — the caller lists exactly the stations a later
///   AoS consumer (edge-column flux pass, characteristic outflow stencil)
///   will read; stations outside `prim_range` are ignored (they are still
///   AoS-resident),
///
/// so from the outside the sweep is a drop-in replacement for the unfused V5
/// sequence: bitwise-equal primitives where exported, bitwise-equal fluxes
/// on every station a later consumer reads — here, with no update attached,
/// all of `flux_range`, every one deferred to the caller through the planes;
/// the solver's V7 operators attach their update (`fused_pass`) and get the
/// planes written only where something still reads them. Tile boundary
/// columns are recomputed rather than carried between tiles, which is why
/// any `tile_r >= 1` yields bit-identical results.
#[allow(clippy::too_many_arguments)]
pub fn fused_sweep(
    dir: FluxDir,
    field: &Field,
    prim: &mut PrimField,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    src: Option<&mut Array2>,
    prim_range: Range<usize>,
    flux_range: Range<usize>,
    hi_pre: Option<usize>,
    exports: &[usize],
    ws: &mut SoaWs,
    tile_r: usize,
    ledger: &mut FlopLedger,
) {
    fused_pass(
        dir, field, prim, edges, gas, flux, src, prim_range, flux_range, hi_pre, exports, ws, tile_r, None, ledger,
    );
}

/// [`fused_sweep`] with the predictor or corrector pass that consumes its
/// flux run inside it: each station of `pass.irange` whose stencil the sweep
/// emits itself ([`FusedUpdate::fusable`]) is updated from the flux ring in
/// [`SoaWs`] as soon as its last flux station exists, while those rows are
/// still in L1/L2 — the radial operator right after the station's own flux
/// (its stencil and its flux ghost fill stay inside the row), the axial
/// operator one station (backward difference) or three (forward) behind the
/// flux. Returns the stations updated. What reaches the planes is only what
/// a later consumer reads: the [`X_BAND`] axial stations at either end of
/// the patch, which the flux exchange, the ghost extrapolation and the
/// caller's deferred update of the remaining stations use; a radial pass
/// writes no plane at all, `src` included (it is attached only on a patch
/// that owns both radial boundaries, so its flux ghosts are all boundary
/// fills), and charges the ghost fill to `ledger.boundary` as
/// [`bc::fill_rflux_ghosts_sides`] does.
///
/// Bitwise the composition sweep → ghost fill → update through the planes:
/// the same row kernels on the same operands. Without a pass this is
/// [`fused_sweep`] and returns an empty range.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fused_pass(
    dir: FluxDir,
    field: &Field,
    prim: &mut PrimField,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    src: Option<&mut Array2>,
    prim_range: Range<usize>,
    flux_range: Range<usize>,
    hi_pre: Option<usize>,
    exports: &[usize],
    ws: &mut SoaWs,
    tile_r: usize,
    pass: Option<FusedUpdate<'_>>,
    ledger: &mut FlopLedger,
) -> Range<usize> {
    dispatch(
        dir,
        Sweep { field, prim, edges, gas, flux, src, prim_range, flux_range, hi_pre, exports, ws, tile_r, pass, ledger },
    )
}

/// Call `$run::<DIRX, VISC>` for the direction and regime of a sweep.
macro_rules! per_shape {
    ($run:ident, $dir:expr, $s:expr) => {
        match ($dir, !$s.gas.is_inviscid()) {
            (FluxDir::X, true) => $run::<true, true>($s),
            (FluxDir::X, false) => $run::<true, false>($s),
            (FluxDir::R, true) => $run::<false, true>($s),
            (FluxDir::R, false) => $run::<false, false>($s),
        }
    };
}

/// Run the sweep in the instantiation for the vector unit this host has.
fn dispatch(dir: FluxDir, s: Sweep<'_>) -> Range<usize> {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: `run_avx2` requires only that the CPU executes AVX2,
        // which the detection on the line above has just established.
        return unsafe { per_shape!(run_avx2, dir, s) };
    }
    per_shape!(run_plain, dir, s)
}

/// The vector ISA [`fused_sweep`] runs on this host, e.g. `"x86_64+avx2"`,
/// `"x86_64"`, `"aarch64"`. For reports only (bench files print it beside
/// their numbers); nothing branches on it.
pub fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        return "x86_64+avx2";
    }
    std::env::consts::ARCH
}

/// The operands of one sweep call, so that both instantiations of the body
/// take one argument list.
struct Sweep<'a> {
    field: &'a Field,
    prim: &'a mut PrimField,
    edges: EdgeFlags,
    gas: &'a GasModel,
    flux: &'a mut FluxField,
    src: Option<&'a mut Array2>,
    prim_range: Range<usize>,
    flux_range: Range<usize>,
    hi_pre: Option<usize>,
    exports: &'a [usize],
    ws: &'a mut SoaWs,
    tile_r: usize,
    pass: Option<FusedUpdate<'a>>,
    ledger: &'a mut FlopLedger,
}

/// [`run`] compiled for 256-bit vectors. `avx2` without `fma`: rustc never
/// contracts `a * b + c`, so every lane still evaluates the IEEE operations
/// of the plain instantiation in the same order and no bit can differ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<const DIRX: bool, const VISC: bool>(s: Sweep<'_>) -> Range<usize> {
    run::<DIRX, VISC>(s)
}

/// [`run`] compiled for the target's baseline vector unit. Out of line like
/// [`run_avx2`], so that a stack frame holds one direction and regime: an
/// unoptimised build gives every inlined local a slot of its own, and all
/// four in one frame outgrew a 2 MB thread stack.
#[inline(never)]
fn run_plain<const DIRX: bool, const VISC: bool>(s: Sweep<'_>) -> Range<usize> {
    run::<DIRX, VISC>(s)
}

/// Recover one station's primitives over `[jlo, jhi)` and, on the tiles that
/// reach them, its radial ghosts: the boundary condition fills an owned
/// edge's, an internal edge's are the exchanged rows in the AoS `prim`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn recover_station(
    field: &Field,
    prim: &PrimField,
    edges: EdgeFlags,
    prims: &mut SoaPrims,
    ii: usize,
    jlo: usize,
    jhi: usize,
    gm1: f64,
    inv_rgas: f64,
    inv_r: &[f64],
) {
    let nr = field.nr();
    let qrows = [field.q[0].row(ii), field.q[1].row(ii), field.q[2].row(ii), field.q[3].row(ii)];
    prims_station_tile(qrows, prims, ii, jlo, jhi, gm1, inv_rgas, inv_r);
    if jlo == 0 {
        if edges.bottom {
            mirror_axis_station(prims, ii);
        } else {
            prims.import_ghost(prim, ii, NG - 1);
        }
    }
    if jhi == nr {
        if edges.top {
            extrap_top_station(prims, ii, nr);
        } else {
            prims.import_ghost(prim, ii, NG + nr);
        }
    }
}

/// The one sweep body. `#[inline(always)]` all the way down to the
/// [`LaneVec`] operators, so each caller — [`run_plain`], [`run_avx2`] —
/// compiles its own copy for its own vector unit, the update row kernels of
/// an attached pass included; anything left out of line would stay baseline
/// code.
#[inline(always)]
fn run<const DIRX: bool, const VISC: bool>(s: Sweep<'_>) -> Range<usize> {
    let Sweep {
        field,
        prim,
        edges,
        gas,
        flux,
        mut src,
        prim_range,
        flux_range,
        hi_pre,
        exports,
        ws,
        tile_r,
        mut pass,
        ledger,
    } = s;
    let patch = &field.patch;
    let (nxl, nr) = (patch.nxl, patch.nr());
    debug_assert!(prim_range.end <= nxl && flux_range.end <= nxl);
    ws.ensure(patch);
    let SoaWs { prims, ring, r_of, inv_r, .. } = ws;
    let tile_r = tile_r.max(1);

    let gm1 = gas.gamma - 1.0;
    let inv_rgas = 1.0 / gas.r_gas;
    let inv_2dx = 1.0 / (2.0 * patch.grid.dx);
    let consts = FluxConsts {
        inv_2dr: 1.0 / (2.0 * patch.grid.dr),
        inv_gm1: 1.0 / (gas.gamma - 1.0),
        two_mu: 2.0 * gas.mu,
        c_lam: -(2.0 / 3.0) * gas.mu,
        mu: gas.mu,
        neg_kappa: -gas.kappa,
    };

    // AoS→SoA boundary: import the precomputed boundary primitive stations
    // (the conservative rows are read in place, never staged).
    for s in 0..prim_range.start {
        prims.import_station(prim, s + NG);
    }
    if let Some(h) = hi_pre {
        if !prim_range.contains(&h) {
            prims.import_station(prim, h + NG);
        }
    }

    let dir = if DIRX { FluxDir::X } else { FluxDir::R };
    // The stations an attached pass updates in here; it leaves the rest of
    // its window to the caller.
    let done = pass.as_ref().map_or(0..0, |p| p.fusable(dir, &flux_range));
    // A radial pass differences along the row just computed, so its tiles
    // evaluate the flux rows their stencil and ghost fills reach as well.
    let reach = if !DIRX && pass.is_some() { R_REACH } else { 0 };
    debug_assert!(reach == 0 || (edges.bottom && edges.top), "a fused radial pass owns both radial boundaries");

    let n_tiles = nr.div_ceil(tile_r);
    for t in 0..n_tiles {
        let jlo = t * tile_r;
        let jhi = (jlo + tile_r).min(nr);
        let (fjlo, fjhi) = (jlo.saturating_sub(reach), (jhi + reach).min(nr));
        // Prims extend one point past the flux rows so the radial stencil at
        // their top edge is satisfied; the overlap is recomputed
        // bit-identically by the next tile. Below `jlo` the arena still
        // holds what the previous tile recovered for this station.
        let pjhi = (fjhi + 1).min(nr);

        let mut next_prim = prim_range.start;
        for e in flux_range.clone() {
            // Recover stations up to the last one this flux stencil reads;
            // what it reads past `prim_range` was imported above.
            let need = flux_needs(e, nxl, edges, VISC);
            while next_prim < prim_range.end && next_prim <= need {
                recover_station(field, prim, edges, prims, next_prim + NG, jlo, pjhi, gm1, inv_rgas, inv_r);
                next_prim += 1;
            }
            let ii = e + NG;
            // Two call sites on purpose: choosing the destination rows first
            // and calling once measured 4-5 % slower on a 512x512 step.
            let Some(pass) = pass.as_mut() else {
                // No update attached: every station is the caller's, through
                // the planes.
                let [fa, fb, fc, fd] = &mut flux.c;
                let f_rows = [fa.row_mut(ii), fb.row_mut(ii), fc.row_mut(ii), fd.row_mut(ii)];
                let src_row = src.as_deref_mut().map(|s| s.row_mut(ii));
                flux_station_tile::<DIRX, VISC>(
                    prims, patch, edges, &consts, inv_2dx, f_rows, src_row, e, jlo, jhi, r_of, inv_r,
                );
                continue;
            };
            let slot = if DIRX { e % RING } else { 0 };
            let [f0, f1, f2, f3, src_row] = ring.station_rows_mut(slot);
            let (f_rows, src_row) = ([f0, f1, f2, f3], (!DIRX).then_some(src_row));
            flux_station_tile::<DIRX, VISC>(
                prims, patch, edges, &consts, inv_2dx, f_rows, src_row, e, fjlo, fjhi, r_of, inv_r,
            );
            let forward = pass.st.forward;
            let step = if forward { 1 } else { -1 };
            if DIRX {
                let jj = jlo + NG..jhi + NG;
                if e < X_BAND || e + X_BAND >= nxl {
                    for (plane, c) in flux.c.iter_mut().zip(0..) {
                        plane.row_mut(ii)[jj.clone()].copy_from_slice(&ring.row(slot, c)[jj.clone()]);
                    }
                }
                // Forward, the station two back has just received its last
                // flux; backward, this one has.
                let i = if forward { e.wrapping_sub(2) } else { e };
                if done.contains(&i) {
                    let at = jj.start;
                    let f = |c| [0, 1, 2].map(|k| &ring.row((i as isize + k * step) as usize % RING, c)[at..]);
                    pass.station(field, i + NG, jj, f, None);
                }
            } else {
                let (bottom, top) = (edges.bottom && fjlo == 0, edges.top && fjhi == nr);
                for (row, parity) in ring.station_rows_mut(slot).into_iter().zip(bc::G_PARITY) {
                    bc::fill_rflux_ghost_row(row, parity, nr, bottom, top);
                }
                let jj = jlo + NG..jhi.min(pass.nj) + NG;
                if done.contains(&e) && !jj.is_empty() {
                    let at = jj.start;
                    let f = |c| [0, 1, 2].map(|k| &ring.row(slot, c)[(at as isize + k * step) as usize..]);
                    pass.station(field, ii, jj, f, Some(&ring.row(slot, R_SRC)[at..]));
                }
            }
        }
        // Stations no flux of this call reads (the caller may export them).
        while next_prim < prim_range.end {
            recover_station(field, prim, edges, prims, next_prim + NG, jlo, pjhi, gm1, inv_rgas, inv_r);
            next_prim += 1;
        }
    }

    // SoA→AoS boundary: export the swept stations whose primitives a later
    // AoS consumer will read (edge-column flux pass after `finish_prims`,
    // the characteristic-outflow stencil). Stations outside `prim_range`
    // were never moved out of the AoS planes.
    for &s in exports {
        if prim_range.contains(&s) {
            prims.export_station(prim, s + NG);
        }
    }

    // Ledger accounting identical to the V5 path (tile-overlap columns
    // are recomputation, not model work).
    ledger.prims += (prim_range.len() * nr) as u64 * opcount::COST_PRIMS;
    ledger.flux +=
        (flux_range.len() * nr) as u64 * if VISC { opcount::COST_FLUX_VISCOUS } else { opcount::COST_FLUX_INVISCID };
    if !DIRX {
        ledger.source += (flux_range.len() * nr) as u64 * opcount::COST_SOURCE;
        if pass.is_some() {
            ledger.boundary += bc::rflux_ghost_flops(flux_range.len(), edges.bottom, edges.top);
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Regime, SchemeOrder, SolverConfig, Version, DEFAULT_TILE_R};
    use crate::driver::Solver;
    use crate::kernels;
    use crate::scheme::{self, Stencil, Update};
    use ns_numerics::gas::Primitive;
    use ns_numerics::Grid;

    fn smooth_field(patch: &Patch, gas: &GasModel) -> Field {
        Field::from_primitives(patch.clone(), gas, |x, r| Primitive {
            rho: 1.0 + 0.1 * (0.3 * x).sin() * (0.9 * r).cos(),
            u: 0.8 + 0.05 * (0.2 * x + r).cos(),
            v: 0.02 * (0.5 * x).sin() * r.min(1.5),
            p: 0.714 + 0.03 * (0.4 * x - 0.7 * r).sin(),
        })
    }

    /// The two call shapes the operators use: one whole-patch pass, or the
    /// x-operator's split pass (boundary stations precomputed and imported,
    /// `hi_pre`, exports for the post-halo edge columns).
    #[derive(Clone, Copy, Debug)]
    enum Shape {
        Whole,
        Split,
    }

    /// One sweep through the dispatched entry ([`fused_sweep`]) or through
    /// the plain instantiation of the same body; returns every bit the call
    /// can write: flux and source planes, AoS primitive planes, ledger.
    fn sweep_bits(
        plain: bool,
        dir: FluxDir,
        field: &Field,
        gas: &GasModel,
        shape: Shape,
        tile_r: usize,
        ws: &mut SoaWs,
    ) -> (Vec<u64>, FlopLedger) {
        let patch = &field.patch;
        let nxl = patch.nxl;
        let edges = EdgeFlags::of(patch);
        let mut ledger = FlopLedger::default();
        let mut prim = PrimField::zeros(patch);
        let mut flux = FluxField::zeros(patch);
        let mut src = Array2::zeros(nxl + 2 * NG, patch.nr() + 2 * NG);
        let (prim_range, flux_range, hi_pre, exports) = match shape {
            Shape::Whole => (0..nxl, 0..nxl, None, [nxl - 2, nxl - 3]),
            Shape::Split => {
                kernels::fused_boundary_prims(field, &mut prim, gas, &[0, nxl - 1], &mut ledger);
                (1..nxl - 1, 1..nxl - 1, Some(nxl - 1), [1, nxl - 2])
            }
        };
        let src_arg = (dir == FluxDir::R).then_some(&mut src);
        if plain {
            let (prim, flux, exports, ledger) = (&mut prim, &mut flux, &exports[..], &mut ledger);
            let src = src_arg;
            let pass = None;
            let s = Sweep {
                field,
                prim,
                edges,
                gas,
                flux,
                src,
                prim_range,
                flux_range,
                hi_pre,
                exports,
                ws,
                tile_r,
                pass,
                ledger,
            };
            per_shape!(run_plain, dir, s);
        } else {
            fused_sweep(
                dir,
                field,
                &mut prim,
                edges,
                gas,
                &mut flux,
                src_arg,
                prim_range,
                flux_range,
                hi_pre,
                &exports,
                ws,
                tile_r,
                &mut ledger,
            );
        }
        let planes = flux.c.iter().chain([&src, &prim.rho, &prim.u, &prim.v, &prim.p, &prim.t]);
        (planes.flat_map(|a| a.as_slice()).map(|v| v.to_bits()).collect(), ledger)
    }

    /// The instantiation [`fused_sweep`] dispatches to on this host (AVX2
    /// where the CPU has it) against the plain instantiation of the same
    /// body, bit for bit, on radial sizes around the lane width (single-lane
    /// fallback, exact blocks, shifted tails) and tile sizes around it.
    /// On a host without AVX2 [`isa`] has no `+avx2` and this compares the
    /// plain instantiation with itself; the failure message names the ISA.
    #[test]
    fn dispatched_instantiation_is_bitwise_the_plain_one() {
        let grid = Grid::new(16, 24, 8.0, 2.4);
        for regime in [Regime::NavierStokes, Regime::Euler] {
            let gas = SolverConfig::paper(grid.clone(), regime).effective_gas();
            for nrl in [3, 4, 5, 7, 8, 9, 24] {
                for shape in [Shape::Whole, Shape::Split] {
                    let (i0, nxl) = match shape {
                        Shape::Whole => (0, grid.nx),
                        Shape::Split => (3, 10), // internal: no global x edges
                    };
                    let patch = Patch { grid: grid.clone(), i0, nxl, j0: 0, nrl };
                    let forcing = forcing(&patch);
                    let mut field = smooth_field(&patch, &gas);
                    // One of each: a signed zero, a subnormal, a NaN payload.
                    // A single NaN, because where two different NaNs meet the
                    // survivor follows an operand order the compiler may pick
                    // differently per instantiation.
                    salt(&mut field);
                    for dir in [FluxDir::X, FluxDir::R] {
                        for (t, tile_r) in [1, 3, LANES, DEFAULT_TILE_R].into_iter().enumerate() {
                            let mut ws = SoaWs::new(&patch);
                            let plain = sweep_bits(true, dir, &field, &gas, shape, tile_r, &mut ws);
                            let dispatched = sweep_bits(false, dir, &field, &gas, shape, tile_r, &mut ws);
                            let what = format!("{regime:?} {dir:?} {shape:?} nr {nrl} tile {tile_r}");
                            assert!(plain == dispatched, "{} differs from the plain instantiation: {what}", isa());
                            // The update outputs of an attached pass (its row
                            // kernels are inlined into both instantiations):
                            // four of the sixteen passes per tile size, all
                            // sixteen per shape.
                            for k in (0..16).filter(|k| k % 4 == t) {
                                let p = Pass::nth(k);
                                let run = |how| stage_bits(how, dir, &field, &gas, shape, tile_r, p, &forcing);
                                assert!(
                                    run(How::FusedPlain) == run(How::Fused),
                                    "{} differs from the plain instantiation with {p:?} attached: {what}",
                                    isa()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    // --- the fused pass against the composition it replaces -----------------

    /// A quiet NaN with a payload; the one NaN pattern in these tests (see
    /// [`dispatched_instantiation_is_bitwise_the_plain_one`] for why one).
    const SENTINEL: u64 = 0x7ff8_dead_beef_0001;

    /// One of each into a sweep's input: a signed zero, a subnormal, a NaN
    /// payload. The NaN goes into the energy of the top row: it reaches the
    /// radial momentum flux `G_2` through the pressure in its own row only,
    /// and a NaN in the first two rows of `G_2` would pass through the axis
    /// mirror's `-1.0 * g`, which is a multiply (sign kept) or, where the
    /// optimiser sees the constant, a negation (sign flipped) — a second NaN
    /// pattern that depends on how each call site was compiled.
    fn salt(field: &mut Field) {
        let (nxl, nr) = (field.nxl(), field.nr());
        field.q[2].set(1 + NG, NG, -0.0);
        field.q[1].set(nxl - 2 + NG, NG, f64::from_bits(1234));
        field.q[3].set(nxl / 2 + NG, nr - 1 + NG, f64::from_bits(SENTINEL));
    }

    /// The update a stage attaches to its sweep, or composes after it.
    #[derive(Clone, Copy, Debug)]
    struct Pass {
        correct: bool,
        forward: bool,
        order: SchemeOrder,
        mms: bool,
    }

    impl Pass {
        /// The `k`-th of the sixteen passes.
        fn nth(k: usize) -> Self {
            let order = if k & 4 == 0 { SchemeOrder::TwoFour } else { SchemeOrder::TwoTwo };
            Pass { correct: k & 1 != 0, forward: k & 2 != 0, order, mms: k & 8 != 0 }
        }
    }

    /// How a stage is run.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum How {
        /// Sweep into the planes, ghost fill, whole update through the
        /// planes: what V1–V6 do and what V7 did.
        Composed,
        /// The pass inside the sweep ([`fused_pass`]), deferred stations after.
        Fused,
        /// The same through the plain instantiation of the body.
        FusedPlain,
    }

    /// The window an operator updates on `patch` and the edge flags it sweeps
    /// with: the axial one freezes owned inflow/outflow columns, the radial
    /// one the far-field row and differences one-sidedly at every patch edge.
    ///
    /// The test patches are the first `nrl` rows of a taller grid (a `Grid`
    /// has at least five) and stand for patches that span theirs, the only
    /// ones a radial pass is attached on: both radial boundaries count as
    /// owned.
    fn window(dir: FluxDir, patch: &Patch) -> (EdgeFlags, Range<usize>, usize) {
        let own = EdgeFlags { bottom: true, top: true, ..EdgeFlags::of(patch) };
        let (nxl, nr) = (patch.nxl, patch.nr());
        match dir {
            FluxDir::X => (own, usize::from(own.left)..nxl - usize::from(own.right), nr),
            FluxDir::R => (EdgeFlags { left: true, right: true, ..own }, 0..nxl, nr - usize::from(own.top)),
        }
    }

    /// One operator stage on `field`, as `scheme` runs it, and every bit it
    /// leaves: the updated state (ghosts and frozen cells included), the
    /// [`X_BAND`] stations of the flux planes later consumers read, the
    /// ledger. The flux of edge columns and ghost columns a real run gets
    /// after the halo (`finish_prims`, `exchange_flux`) is planted from a
    /// formula, the same for every `how`: a station wrongly updated from the
    /// ring instead of waiting for it shows as a difference.
    #[allow(clippy::too_many_arguments)]
    fn stage_bits(
        how: How,
        dir: FluxDir,
        field: &Field,
        gas: &GasModel,
        shape: Shape,
        tile_r: usize,
        p: Pass,
        forcing: &[Array2; 4],
    ) -> (Vec<u64>, FlopLedger) {
        let patch = &field.patch;
        let (nxl, nr) = (patch.nxl, patch.nr());
        let (edges, irange, nj) = window(dir, patch);
        let st = Stencil { forward: p.forward, order: p.order, lam: 0.37, dt: 0.013 };
        let mms = p.mms.then_some(forcing);
        // The state the pass writes: finite inside the window (the corrector
        // reads it), a NaN payload everywhere else.
        let mut out = Field::zeros(patch.clone());
        for (c, plane) in out.q.iter_mut().enumerate() {
            *plane = Array2::from_fn(nxl + 2 * NG, nr + 2 * NG, |ii, jj| {
                if (irange.start + NG..irange.end + NG).contains(&ii) && (NG..nj + NG).contains(&jj) {
                    0.3 + 0.01 * (c + 2 * ii + 3 * jj) as f64
                } else {
                    f64::from_bits(SENTINEL)
                }
            });
        }
        let before = out.clone();

        let mut ledger = FlopLedger::default();
        let mut prim = PrimField::zeros(patch);
        let mut flux = FluxField::zeros(patch);
        let mut src = Array2::zeros(nxl + 2 * NG, nr + 2 * NG);
        let mut ws = SoaWs::new(patch);
        let (prim_range, flux_range, hi_pre) = match shape {
            Shape::Whole => (0..nxl, 0..nxl, None),
            Shape::Split => {
                kernels::fused_boundary_prims(field, &mut prim, gas, &[0, nxl - 1], &mut ledger);
                (1..nxl - 1, usize::from(!edges.left)..nxl - usize::from(!edges.right), Some(nxl - 1))
            }
        };
        let emitted = flux_range.clone();
        let done = if how == How::Composed {
            let src = (dir == FluxDir::R).then_some(&mut src);
            fused_sweep(
                dir,
                field,
                &mut prim,
                edges,
                gas,
                &mut flux,
                src,
                prim_range,
                flux_range,
                hi_pre,
                &[],
                &mut ws,
                tile_r,
                &mut ledger,
            );
            irange.start..irange.start
        } else {
            let pass = FusedUpdate { st, mms, irange: irange.clone(), nj, out: &mut out, correct: p.correct };
            let (prim, flux, ws, ledger) = (&mut prim, &mut flux, &mut ws, &mut ledger);
            if how == How::Fused {
                fused_pass(
                    dir,
                    field,
                    prim,
                    edges,
                    gas,
                    flux,
                    None,
                    prim_range,
                    flux_range,
                    hi_pre,
                    &[],
                    ws,
                    tile_r,
                    Some(pass),
                    ledger,
                )
            } else {
                let (src, exports, pass) = (None, &[][..], Some(pass));
                let s = Sweep {
                    field,
                    prim,
                    edges,
                    gas,
                    flux,
                    src,
                    prim_range,
                    flux_range,
                    hi_pre,
                    exports,
                    ws,
                    tile_r,
                    pass,
                    ledger,
                };
                per_shape!(run_plain, dir, s)
            }
        };
        // Between sweep and update, as in `scheme`.
        match dir {
            FluxDir::X => {
                let ghosts_l = if edges.left { 0 } else { NG as isize };
                let ghosts_r = if edges.right { 0 } else { NG as isize };
                for i in (-ghosts_l..nxl as isize + ghosts_r).filter(|&i| i < 0 || !emitted.contains(&(i as usize))) {
                    for c in 0..4 {
                        for j in 0..nr as isize {
                            flux.set(c, i, j, 0.2 + 0.05 * ((3 * c as isize + 5 * i + 7 * j) % 11) as f64);
                        }
                    }
                }
                bc::extrap_flux_x(&mut flux, nxl, nr, edges.left, edges.right, &mut ledger);
            }
            FluxDir::R if done.is_empty() => {
                bc::fill_rflux_ghosts_sides(&mut flux, nxl, nr, edges.bottom, edges.top, &mut ledger)
            }
            FluxDir::R => {}
        }
        let src = (dir == FluxDir::R).then_some(&src);
        let up = Update { dir, st, flux: &flux, src, mms, irange: irange.clone(), nj };
        for rest in up.outside(&done) {
            if p.correct {
                scheme::correct(&rest, &mut out, field, false, None);
            } else {
                scheme::predict(&rest, field, &mut out, false, None);
            }
        }

        // Nothing outside the window was written.
        for (plane, plane0) in out.q.iter().zip(&before.q) {
            for (ii, jj) in (0..nxl + 2 * NG).flat_map(|ii| (0..nr + 2 * NG).map(move |jj| (ii, jj))) {
                let planted = plane0.at(ii, jj).to_bits() == SENTINEL;
                assert!(
                    !planted || plane.at(ii, jj).to_bits() == SENTINEL,
                    "{how:?} wrote ({ii},{jj}), outside its window"
                );
            }
        }
        let mut bits: Vec<u64> = out.q.iter().flat_map(|a| a.as_slice()).map(|v| v.to_bits()).collect();
        if dir == FluxDir::X {
            for ii in (0..nxl + 2 * NG).filter(|&ii| ii < NG + X_BAND || ii + NG + X_BAND >= nxl + 2 * NG) {
                bits.extend(flux.c.iter().flat_map(|plane| &plane.row(ii)[NG..NG + nr]).map(|v| v.to_bits()));
            }
        }
        (bits, ledger)
    }

    /// Patches `nr` rows tall on an `nx = 16` grid: its whole width and three
    /// internal slabs (no global x edge) — one so narrow that every station
    /// of either difference is deferred, one where exactly one is fused.
    fn stage_patches(nr: usize) -> [Patch; 4] {
        let grid = Grid::new(16, 24, 8.0, 2.4);
        [(0, 16), (3, 4), (3, 5), (3, 9)].map(|(i0, nxl)| Patch { grid: grid.clone(), i0, nxl, j0: 0, nrl: nr })
    }

    /// MMS forcing planes for a stage test: any finite numbers will do.
    fn forcing(patch: &Patch) -> [Array2; 4] {
        std::array::from_fn(|c| {
            Array2::from_fn(patch.nxl + 2 * NG, patch.nr() + 2 * NG, |ii, jj| {
                0.1 * ((c + 3 * ii + 7 * jj) % 13) as f64 - 0.6
            })
        })
    }

    /// The tentpole's contract: a sweep with the update inside it, plus the
    /// deferred stations afterwards, leaves the bits of sweep → ghost fill →
    /// `predict`/`correct` through the planes — both directions and regimes,
    /// predictor and corrector, forward and backward, both orders, forcing on
    /// and off, radial sizes and tile sizes around the lane width, whole
    /// patches and internal slabs, the axial operator's split shape and the
    /// exchange-free Euler stage-2 shape; inputs carry a signed zero, a
    /// subnormal and a NaN payload, and NaN payloads planted outside the
    /// update window survive (checked inside [`stage_bits`]).
    #[test]
    fn fused_pass_is_bitwise_sweep_then_update_through_the_planes() {
        let tiles = [1, 3, LANES, DEFAULT_TILE_R];
        let mut cases = 0;
        for regime in [Regime::NavierStokes, Regime::Euler] {
            for nr in [3, 4, 5, 7, 8, 9, 24] {
                for patch in stage_patches(nr) {
                    let gas = SolverConfig::paper(patch.grid.clone(), regime).effective_gas();
                    let mut field = smooth_field(&patch, &gas);
                    salt(&mut field);
                    let forcing = forcing(&patch);
                    let mut shapes = vec![(FluxDir::R, Shape::Whole), (FluxDir::X, Shape::Split)];
                    if regime == Regime::Euler {
                        shapes.push((FluxDir::X, Shape::Whole));
                    }
                    for (dir, shape) in shapes {
                        // Every pass meets every tile size; which of them on
                        // this patch rotates from case to case.
                        for k in 0..16 {
                            let (p, tile_r) = (Pass::nth(k), tiles[(k + k / 4 + cases) % 4]);
                            let run = |how| stage_bits(how, dir, &field, &gas, shape, tile_r, p, &forcing);
                            let what =
                                format!("{regime:?} {dir:?} {shape:?} nxl {} nr {nr} tile {tile_r} {p:?}", patch.nxl);
                            assert!(
                                run(How::Composed) == run(How::Fused),
                                "fused pass differs from the composition: {what}"
                            );
                        }
                        cases += 1;
                    }
                }
            }
        }
    }

    /// The deferred-station rule, spelled out on the shapes the operators
    /// use: which stations a sweep updates itself.
    #[test]
    fn fusable_stations_are_those_whose_stencil_the_sweep_emits() {
        let mut field = Field::zeros(Patch::whole(Grid::small()));
        let mut fusable = |dir, forward, irange: Range<usize>, emitted: Range<usize>| {
            let st = Stencil { forward, order: SchemeOrder::TwoFour, lam: 1.0, dt: 1.0 };
            FusedUpdate { st, mms: None, irange, nj: 1, out: &mut field, correct: false }.fusable(dir, &emitted)
        };
        // serial, nxl = 12: columns 0 and 11 frozen, all twelve flux stations emitted
        assert_eq!(fusable(FluxDir::X, true, 1..11, 0..12), 1..10);
        assert_eq!(fusable(FluxDir::X, false, 1..11, 0..12), 2..11);
        // internal slab: edge columns 0 and nxl - 1 wait for the halo
        assert_eq!(fusable(FluxDir::X, true, 0..12, 1..11), 1..9);
        assert_eq!(fusable(FluxDir::X, false, 0..12, 1..11), 3..11);
        // four columns: nothing; five: exactly one
        assert!(fusable(FluxDir::X, true, 0..4, 1..3).is_empty());
        assert!(fusable(FluxDir::X, false, 0..4, 1..3).is_empty());
        assert_eq!(fusable(FluxDir::X, true, 0..5, 1..4), 1..2);
        assert_eq!(fusable(FluxDir::X, false, 0..5, 1..4), 3..4);
        // the radial stencil never leaves its station
        assert_eq!(fusable(FluxDir::R, true, 0..12, 0..12), 0..12);
    }

    /// A workspace handed a same-shaped patch at another radial offset (or on
    /// another grid spacing) must not reuse the radii it was built with.
    #[test]
    fn one_workspace_follows_the_patch_it_is_handed() {
        let grid = Grid::new(16, 24, 8.0, 2.4);
        let gas = SolverConfig::paper(grid.clone(), Regime::NavierStokes).effective_gas();
        let lower = Patch::pencil(grid.clone(), (0, 0), (1, 2));
        let upper = Patch::pencil(grid, (0, 1), (1, 2));
        let stretched = Patch::pencil(Grid::new(16, 24, 8.0, 3.6), (0, 0), (1, 2));
        assert_eq!((lower.nxl, lower.nrl), (upper.nxl, upper.nrl));
        let mut shared = SoaWs::new(&lower);
        for patch in [&lower, &upper, &stretched, &lower] {
            let field = smooth_field(patch, &gas);
            for dir in [FluxDir::X, FluxDir::R] {
                let reused = sweep_bits(false, dir, &field, &gas, Shape::Whole, DEFAULT_TILE_R, &mut shared);
                let fresh = sweep_bits(false, dir, &field, &gas, Shape::Whole, DEFAULT_TILE_R, &mut SoaWs::new(patch));
                assert!(reused == fresh, "{dir:?} at j0 = {}, dr = {}", patch.j0, patch.grid.dr);
            }
        }
    }

    #[test]
    fn lanevec_ops_are_elementwise_ieee() {
        let a = LaneVec::<4>([1.0, -2.5, 0.0, f64::INFINITY]);
        let b = LaneVec::<4>([2.0, 0.5, -0.0, 1.0]);
        assert_eq!((a + b).0, [3.0, -2.0, 0.0, f64::INFINITY]);
        assert_eq!((a - b).0, [-1.0, -3.0, 0.0, f64::INFINITY]);
        assert_eq!((a * b).0, [2.0, -1.25, -0.0, f64::INFINITY]);
        assert_eq!((a / b).0[0], 0.5);
        assert_eq!((-b).0, [-2.0, -0.5, 0.0, -1.0]);
        assert_eq!(b.recip().0[1], 2.0);
        let mut out = [0.0; 6];
        LaneVec::<4>::load(&[9.0, 1.0, 2.0, 3.0, 4.0, 9.0], 1).store(&mut out, 1);
        assert_eq!(out, [0.0, 1.0, 2.0, 3.0, 4.0, 0.0]);
        assert_eq!(LaneVec::<3>::splat(7.0).0, [7.0; 3]);
    }

    /// End-to-end, against a body the fused rungs share no sweep code with:
    /// serial V5 (plane path, row kernels), V6 (the sweep, update through the
    /// planes) and V7 (update inside the sweep) solvers agree bit for bit and
    /// FLOP for FLOP, for both regimes and a non-default tile size, after an
    /// odd and an even number of steps: both operator orders (`L1x L1r`,
    /// `L2r L2x`) and both variants run, and a run may end on either.
    #[test]
    fn v7_solver_is_bitwise_v6() {
        for regime in [Regime::NavierStokes, Regime::Euler] {
            for (tile_r, steps) in [(5, 3), (5, 4), (DEFAULT_TILE_R, 3), (DEFAULT_TILE_R, 4)] {
                let [s5, s6, s7] = [Version::V5, Version::V6, Version::V7].map(|version| {
                    let mut cfg = SolverConfig::paper(Grid::small(), regime);
                    cfg.version = version;
                    cfg.tile_r = tile_r;
                    let mut solver = Solver::new(cfg);
                    solver.run(steps);
                    solver
                });
                for (s, v) in [(&s6, "V6"), (&s7, "V7")] {
                    let what = format!("{regime:?} tile {tile_r} after {steps} steps: {v} against V5");
                    for (c, (got, want)) in s.field.q.iter().zip(&s5.field.q).enumerate() {
                        let same = got.as_slice().iter().zip(want.as_slice()).all(|(a, b)| a.to_bits() == b.to_bits());
                        assert!(same, "{what}, component {c}");
                    }
                    assert_eq!(s.ledger, s5.ledger, "{what}, FLOP ledger");
                }
            }
        }
    }
}
