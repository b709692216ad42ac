//! Solution and work fields with ghost layers.
//!
//! The solver state is the paper's radially weighted conservative vector
//! `Q = r (rho, rho u, rho v, E)` stored as four structure-of-arrays planes
//! with [`NG`] ghost layers on every side. A [`Patch`] describes which axial
//! slab of the global grid a field covers, so the same containers serve the
//! serial solver (one patch = whole grid) and the distributed solver (one
//! patch per rank, axial block decomposition only — the decomposition the
//! paper chose after experimentation).

use ns_numerics::{gas::Primitive, Array2, GasModel, Grid};
use serde::{Deserialize, Serialize};

/// Number of ghost layers on each side (the 2-4 stencil reaches +-2).
pub const NG: usize = 2;

/// A rectangular pencil `[i0, i0 + nxl) x [j0, j0 + nrl)` of the global
/// grid. The paper's axial slabs are the `j0 = 0, nrl = grid.nr` special
/// case; the 2-D decomposition splits both directions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Patch {
    /// The global grid this patch belongs to.
    pub grid: Grid,
    /// Global index of the first owned axial column.
    pub i0: usize,
    /// Number of owned axial columns.
    pub nxl: usize,
    /// Global index of the first owned radial row.
    pub j0: usize,
    /// Number of owned radial rows.
    pub nrl: usize,
}

/// The `rank`-th of `size` even blocks over `n` cells: `(start, len)` with
/// the remainder spread over the leading ranks (the standard block rule).
#[inline]
fn block_1d(n: usize, rank: usize, size: usize) -> (usize, usize) {
    let base = n / size;
    let rem = n % size;
    (rank * base + rank.min(rem), base + usize::from(rank < rem))
}

impl Patch {
    /// A patch covering the entire grid (serial solver).
    pub fn whole(grid: Grid) -> Self {
        let nxl = grid.nx;
        let nrl = grid.nr;
        Self { grid, i0: 0, nxl, j0: 0, nrl }
    }

    /// The `rank`-th of `size` axial blocks, sized as evenly as possible
    /// (remainder spread over the leading ranks, the standard block rule).
    pub fn block(grid: Grid, rank: usize, size: usize) -> Self {
        assert!(size >= 1 && rank < size);
        Self::pencil(grid, (rank, 0), (size, 1))
    }

    /// The `(cx, cr)` pencil of a `px x pr` Cartesian split: axial block
    /// `cx` of `px` crossed with radial block `cr` of `pr`, both sized by
    /// the same remainder-spreading rule as [`Patch::block`].
    pub fn pencil(grid: Grid, coords: (usize, usize), dims: (usize, usize)) -> Self {
        let ((cx, cr), (px, pr)) = (coords, dims);
        assert!(px >= 1 && pr >= 1 && cx < px && cr < pr);
        let (i0, nxl) = block_1d(grid.nx, cx, px);
        let (j0, nrl) = block_1d(grid.nr, cr, pr);
        Self { grid, i0, nxl, j0, nrl }
    }

    /// Axial coordinate of local column `i`.
    #[inline(always)]
    pub fn x(&self, i: usize) -> f64 {
        self.grid.x(self.i0 + i)
    }

    /// Radial coordinate of local row `j`.
    #[inline(always)]
    pub fn r(&self, j: usize) -> f64 {
        self.grid.r(self.j0 + j)
    }

    /// Radial coordinate for a signed local row index. At the global axis
    /// ghosts mirror across it (`r_{-1} = -r_0`); an interior pencil's
    /// bottom ghosts are real rows of the neighbour below.
    #[inline(always)]
    pub fn r_signed(&self, j: isize) -> f64 {
        self.grid.r_signed(self.j0 as isize + j)
    }

    /// Number of owned radial rows.
    #[inline(always)]
    pub fn nr(&self) -> usize {
        self.nrl
    }

    /// Does this patch own the global inflow boundary?
    #[inline(always)]
    pub fn is_global_left(&self) -> bool {
        self.i0 == 0
    }

    /// Does this patch own the global outflow boundary?
    #[inline(always)]
    pub fn is_global_right(&self) -> bool {
        self.i0 + self.nxl == self.grid.nx
    }

    /// Does this patch own the jet axis (the bottom radial boundary)?
    #[inline(always)]
    pub fn is_global_bottom(&self) -> bool {
        self.j0 == 0
    }

    /// Does this patch own the far-field row (the top radial boundary)?
    #[inline(always)]
    pub fn is_global_top(&self) -> bool {
        self.j0 + self.nrl == self.grid.nr
    }

    /// Does this patch own all four global boundaries, i.e. the whole grid?
    #[inline(always)]
    pub fn is_whole_grid(&self) -> bool {
        self.is_global_left() && self.is_global_right() && self.is_global_bottom() && self.is_global_top()
    }
}

/// Map a signed local index (ghosts at negative indices) to array index.
#[inline(always)]
pub fn gi(i: isize) -> usize {
    (i + NG as isize) as usize
}

/// Four-component conservative field `Q = r q` with ghost layers.
#[derive(Clone, Debug)]
pub struct Field {
    /// Component planes, each `(nxl + 2 NG) x (nr + 2 NG)`.
    pub q: [Array2; 4],
    /// The axial slab this field covers.
    pub patch: Patch,
}

impl Field {
    /// Zero-initialized field over `patch`.
    pub fn zeros(patch: Patch) -> Self {
        let ni = patch.nxl + 2 * NG;
        let nj = patch.nr() + 2 * NG;
        Self { q: std::array::from_fn(|_| Array2::zeros(ni, nj)), patch }
    }

    /// Build a field from a primitive-state function of `(x, r)`.
    pub fn from_primitives(patch: Patch, gas: &GasModel, mut f: impl FnMut(f64, f64) -> Primitive) -> Self {
        let mut fld = Self::zeros(patch);
        for i in 0..fld.patch.nxl {
            let x = fld.patch.x(i);
            for j in 0..fld.patch.nr() {
                let r = fld.patch.r(j);
                let w = f(x, r);
                fld.set_primitive(i, j, gas, &w);
            }
        }
        fld
    }

    /// Number of owned axial columns.
    #[inline(always)]
    pub fn nxl(&self) -> usize {
        self.patch.nxl
    }

    /// Number of radial points.
    #[inline(always)]
    pub fn nr(&self) -> usize {
        self.patch.nr()
    }

    /// Read component `c` at signed local `(i, j)` (ghosts allowed).
    #[inline(always)]
    pub fn at(&self, c: usize, i: isize, j: isize) -> f64 {
        self.q[c].at(gi(i), gi(j))
    }

    /// Write component `c` at signed local `(i, j)` (ghosts allowed).
    #[inline(always)]
    pub fn set(&mut self, c: usize, i: isize, j: isize, v: f64) {
        self.q[c].set(gi(i), gi(j), v);
    }

    /// Conservative (r-weighted) vector at interior point `(i, j)`.
    #[inline(always)]
    pub fn qvec(&self, i: usize, j: usize) -> [f64; 4] {
        let (ii, jj) = (i + NG, j + NG);
        [self.q[0].at(ii, jj), self.q[1].at(ii, jj), self.q[2].at(ii, jj), self.q[3].at(ii, jj)]
    }

    /// Store a conservative (r-weighted) vector at interior point `(i, j)`.
    #[inline(always)]
    pub fn set_qvec(&mut self, i: usize, j: usize, q: [f64; 4]) {
        let (ii, jj) = (i + NG, j + NG);
        for c in 0..4 {
            self.q[c].set(ii, jj, q[c]);
        }
    }

    /// Un-weighted conservative vector `(rho, rho u, rho v, E)` at `(i, j)`.
    #[inline(always)]
    pub fn qvec_unweighted(&self, i: usize, j: usize) -> [f64; 4] {
        let inv_r = 1.0 / self.patch.r(j);
        let q = self.qvec(i, j);
        [q[0] * inv_r, q[1] * inv_r, q[2] * inv_r, q[3] * inv_r]
    }

    /// Primitive state at interior point `(i, j)`.
    #[inline(always)]
    pub fn primitive(&self, i: usize, j: usize, gas: &GasModel) -> Primitive {
        Primitive::from_conservative(self.qvec_unweighted(i, j), gas)
    }

    /// Set interior point `(i, j)` from a primitive state (applies the `r`
    /// weighting).
    #[inline(always)]
    pub fn set_primitive(&mut self, i: usize, j: usize, gas: &GasModel, w: &Primitive) {
        let r = self.patch.r(j);
        let q = w.to_conservative(gas);
        self.set_qvec(i, j, [r * q[0], r * q[1], r * q[2], r * q[3]]);
    }

    /// Extract an interior plane of some derived quantity.
    pub fn map_interior(&self, gas: &GasModel, mut f: impl FnMut(&Primitive) -> f64) -> Array2 {
        Array2::from_fn(self.nxl(), self.nr(), |i, j| f(&self.primitive(i, j, gas)))
    }

    /// Volume-weighted integral of component `c` over the interior
    /// (`integral Q_c dx dr`; because `Q` carries the `r` weight this is the
    /// true axisymmetric volume integral up to `2 pi`).
    pub fn integral(&self, c: usize) -> f64 {
        let mut s = 0.0;
        for i in 0..self.nxl() {
            for j in 0..self.nr() {
                s += self.at(c, i as isize, j as isize);
            }
        }
        s * self.patch.grid.dx * self.patch.grid.dr
    }

    /// True if every interior value is finite.
    pub fn interior_finite(&self) -> bool {
        for c in 0..4 {
            for i in 0..self.nxl() {
                for j in 0..self.nr() {
                    if !self.at(c, i as isize, j as isize).is_finite() {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Max absolute interior difference to another same-shape field; NaN
    /// when either field holds a NaN (`f64::max` would drop it and read the
    /// point as equal).
    pub fn max_diff(&self, other: &Field) -> f64 {
        assert_eq!(self.nxl(), other.nxl());
        assert_eq!(self.nr(), other.nr());
        let mut m = 0.0_f64;
        for c in 0..4 {
            for i in 0..self.nxl() {
                for j in 0..self.nr() {
                    let d = (self.at(c, i as isize, j as isize) - other.at(c, i as isize, j as isize)).abs();
                    if d.is_nan() {
                        return f64::NAN;
                    }
                    m = m.max(d);
                }
            }
        }
        m
    }
}

/// Primitive-variable work planes (same ghosted shape as [`Field`]).
#[derive(Clone, Debug)]
pub struct PrimField {
    /// Density.
    pub rho: Array2,
    /// Axial velocity.
    pub u: Array2,
    /// Radial velocity.
    pub v: Array2,
    /// Pressure.
    pub p: Array2,
    /// Temperature.
    pub t: Array2,
}

impl PrimField {
    /// Zero-initialized primitive planes for `patch`.
    pub fn zeros(patch: &Patch) -> Self {
        let ni = patch.nxl + 2 * NG;
        let nj = patch.nr() + 2 * NG;
        Self {
            rho: Array2::zeros(ni, nj),
            u: Array2::zeros(ni, nj),
            v: Array2::zeros(ni, nj),
            p: Array2::zeros(ni, nj),
            t: Array2::zeros(ni, nj),
        }
    }
}

/// Four-component flux planes (same ghosted shape as [`Field`]).
#[derive(Clone, Debug)]
pub struct FluxField {
    /// Component planes.
    pub c: [Array2; 4],
}

impl FluxField {
    /// Zero-initialized flux planes for `patch`.
    pub fn zeros(patch: &Patch) -> Self {
        let ni = patch.nxl + 2 * NG;
        let nj = patch.nr() + 2 * NG;
        Self { c: std::array::from_fn(|_| Array2::zeros(ni, nj)) }
    }

    /// Read component `c` at signed `(i, j)`.
    #[inline(always)]
    pub fn at(&self, c: usize, i: isize, j: isize) -> f64 {
        self.c[c].at(gi(i), gi(j))
    }

    /// Write component `c` at signed `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, c: usize, i: isize, j: isize, v: f64) {
        self.c[c].set(gi(i), gi(j), v);
    }
}

/// Scratch space reused across steps: primitive planes for the base and
/// predictor states, flux planes, the predictor field, and the radial
/// source plane.
#[derive(Clone, Debug)]
pub struct Workspace {
    /// Primitives of the current stage state.
    pub prim: PrimField,
    /// Flux planes (F for x-sweeps, G for r-sweeps).
    pub flux: FluxField,
    /// Predictor-stage fluxes.
    pub flux_bar: FluxField,
    /// Predictor state.
    pub qbar: Field,
    /// Radial source `S_3 = p - tau_theta_theta` (interior only).
    pub src: Array2,
    /// Predictor-stage source.
    pub src_bar: Array2,
    /// Phase profiler threaded through the operators (off by default, so
    /// the uninstrumented path pays one branch per phase boundary).
    pub timers: ns_telemetry::PhaseTimer,
    /// Manufactured-solution forcing planes, populated by the driver when
    /// `SolverConfig::mms` is set and `None` for production runs (the
    /// operators take the unforced code path without touching them).
    pub mms: Option<Box<crate::mms::MmsSources>>,
    /// SoA sweep workspace, armed lazily by the first fused (V6/V7) sweep and
    /// `None` for every other version (see [`crate::soa`]).
    pub soa: Option<Box<crate::soa::SoaWs>>,
    /// The DOALL team V5's station loops run on (`None`: the calling
    /// thread); set by [`crate::driver::Solver::shared`].
    pub(crate) team: Option<std::sync::Arc<rayon::ThreadPool>>,
}

impl Workspace {
    /// Allocate all scratch planes for `patch`.
    pub fn new(patch: &Patch) -> Self {
        Self {
            prim: PrimField::zeros(patch),
            flux: FluxField::zeros(patch),
            flux_bar: FluxField::zeros(patch),
            qbar: Field::zeros(patch.clone()),
            src: Array2::zeros(patch.nxl + 2 * NG, patch.nr() + 2 * NG),
            src_bar: Array2::zeros(patch.nxl + 2 * NG, patch.nr() + 2 * NG),
            timers: ns_telemetry::PhaseTimer::default(),
            mms: None,
            soa: None,
            team: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gas() -> GasModel {
        GasModel::air(1.2e6, 1.5)
    }

    #[test]
    fn block_decomposition_covers_grid_disjointly() {
        let grid = Grid::paper();
        for size in [1, 2, 3, 5, 7, 16] {
            let mut next = 0;
            for rank in 0..size {
                let p = Patch::block(grid.clone(), rank, size);
                assert_eq!(p.i0, next, "rank {rank} of {size}");
                assert!(p.nxl >= grid.nx / size);
                next = p.i0 + p.nxl;
            }
            assert_eq!(next, grid.nx, "size {size} covers the grid");
        }
    }

    #[test]
    fn block_sizes_differ_by_at_most_one() {
        let grid = Grid::paper();
        for size in [3, 7, 11, 16] {
            let sizes: Vec<_> = (0..size).map(|r| Patch::block(grid.clone(), r, size).nxl).collect();
            let mn = *sizes.iter().min().unwrap();
            let mx = *sizes.iter().max().unwrap();
            assert!(mx - mn <= 1, "{sizes:?}");
        }
    }

    #[test]
    fn global_boundary_flags() {
        let grid = Grid::paper();
        let p0 = Patch::block(grid.clone(), 0, 4);
        let p3 = Patch::block(grid.clone(), 3, 4);
        let p1 = Patch::block(grid.clone(), 1, 4);
        assert!(p0.is_global_left() && !p0.is_global_right());
        assert!(!p3.is_global_left() && p3.is_global_right());
        assert!(!p1.is_global_left() && !p1.is_global_right());
        let w = Patch::whole(grid);
        assert!(w.is_global_left() && w.is_global_right());
    }

    #[test]
    fn primitive_roundtrip_through_r_weighting() {
        let patch = Patch::whole(Grid::small());
        let g = gas();
        let mut f = Field::zeros(patch);
        let w = Primitive { rho: 1.3, u: 0.7, v: -0.1, p: 0.6 };
        f.set_primitive(3, 5, &g, &w);
        let w2 = f.primitive(3, 5, &g);
        assert!((w.rho - w2.rho).abs() < 1e-13);
        assert!((w.p - w2.p).abs() < 1e-13);
        // the stored Q really is r-weighted
        let r = f.patch.r(5);
        assert!((f.at(0, 3, 5) - r * w.rho).abs() < 1e-13);
    }

    #[test]
    fn ghost_indexing_is_offset_by_ng() {
        let patch = Patch::whole(Grid::small());
        let mut f = Field::zeros(patch);
        f.set(0, -2, -2, 42.0);
        assert_eq!(f.q[0].at(0, 0), 42.0);
        f.set(0, 0, 0, 7.0);
        assert_eq!(f.q[0].at(NG, NG), 7.0);
    }

    #[test]
    fn integral_of_uniform_density() {
        let grid = Grid::small();
        let g = gas();
        let f = Field::from_primitives(Patch::whole(grid.clone()), &g, |_, _| Primitive {
            rho: 1.0,
            u: 0.0,
            v: 0.0,
            p: g.pressure(1.0, 1.0),
        });
        // integral of r dr dx over the staggered cells = dx*dr * sum r_j * nx
        let expected: f64 = (0..grid.nr).map(|j| grid.r(j)).sum::<f64>() * grid.nx as f64 * grid.dx * grid.dr;
        assert!((f.integral(0) - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn max_diff_detects_perturbation() {
        let patch = Patch::whole(Grid::small());
        let g = gas();
        let mk = || Field::from_primitives(patch.clone(), &g, |_, _| Primitive { rho: 1.0, u: 0.1, v: 0.0, p: 0.7 });
        let a = mk();
        let mut b = mk();
        assert_eq!(a.max_diff(&b), 0.0);
        let old = b.at(3, 4, 4);
        b.set(3, 4, 4, old + 1e-3);
        assert!((a.max_diff(&b) - 1e-3).abs() < 1e-15);
    }
}
