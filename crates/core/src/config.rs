//! Solver configuration: flow regime, optimization version, jet parameters.

use ns_numerics::{profile::ShearLayer, GasModel, Grid};
use serde::{Deserialize, Serialize};

/// Which set of governing equations to solve.
///
/// The paper runs the same application twice: the full compressible
/// Navier-Stokes equations ("N-S") and the Euler equations obtained by
/// zeroing the shear stresses and heat fluxes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Regime {
    /// Full viscous compressible Navier-Stokes.
    NavierStokes,
    /// Inviscid Euler (`tau_ij = kappa = 0`).
    Euler,
}

impl Regime {
    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Regime::NavierStokes => "Navier-Stokes",
            Regime::Euler => "Euler",
        }
    }

    /// Machine-readable key: what run summaries, job descriptions, case
    /// names and golden-file entries spell the regime as.
    pub fn key(self) -> &'static str {
        match self {
            Regime::NavierStokes => "navier-stokes",
            Regime::Euler => "euler",
        }
    }
}

/// Single-processor optimization versions from the paper's Section 6 /
/// Figure 2. Each version *cumulatively* contains the previous ones, in the
/// order the paper applied them (which, as the paper notes, differs from the
/// order they were presented):
///
/// * `V1` — original code: axial-innermost (strided) loops, exponentiation
///   by `powf`, divisions in the inner loops.
/// * `V2` — strength reduction: exponentiations replaced by multiplications.
/// * `V3` — loop interchange: stride-1 (radial-innermost) array access.
///   The paper credits this with ~50% of the total gain.
/// * `V4` — divisions replaced by reciprocal multiplications
///   (the paper reduced 5.5e9 divisions to 2.0e9).
/// * `V5` — register/memory-layout optimization: the analogue of collapsing
///   multiple COMMON blocks is one row kernel per phase
///   (`kernels::prims_row`, `kernels::flux_row`) that binds its row slices
///   once and keeps per-point temporaries in registers instead of
///   materializing intermediate stress arrays.
/// * `V6` — beyond the paper's ladder: prims+flux loop fusion on a
///   structure-of-arrays compute path (see `crate::soa`). Primitive
///   recovery, radial ghost fill and flux evaluation are one sweep over the
///   axial stations, so each radial line is consumed for fluxes while still
///   hot in cache instead of being round-tripped through memory between a
///   whole-plane prims pass and a whole-plane flux pass. The sweep reads
///   the AoS conservative rows in place (lane loads need no padding) and
///   recovers primitives into a lane-padded SoA ring of four per-station
///   component blocks, so every inner loop is a whole number of
///   [`crate::soa::LANES`]-wide `LaneVec` blocks — no scalar remainders, no
///   per-point branches (direction/viscosity/source are const generics) —
///   and the radial axis is tiled ([`SolverConfig::tile_r`]) so the
///   recover→ghost-fill→flux pipeline of a station stays in L1. The sweep
///   body is compiled twice from one source, for the target's baseline
///   vector unit and for AVX2, and picked at run time
///   ([`crate::soa::isa`]); the two agree bit for bit. Conversions between
///   the AoS `Field` and the SoA ring happen only at sweep boundaries
///   (adjacent to halo exchange / checkpoint), so comm, recovery and
///   checkpoint layers are untouched. Flux and source go to the planes and
///   the predictor/corrector update reads them back, as on V1–V5.
/// * `V7` — the same sweep with the update inside it: each station is
///   updated from a few-row flux ring while those rows are in cache (the
///   radial operator right behind the station's own flux, the axial one a
///   station or three behind), so the flux and source planes are written
///   only at the few stations beside a patch edge whose update has to wait
///   for ghost flux — the same row kernels on the same operands as the
///   plane path V1–V6 keep.
///
/// The per-point arithmetic of V6 and V7 is bit-identical to V5: lanes are
/// independent grid points and no reduction is ever reassociated across
/// lanes.
///
/// The *communication* variants with the same numbers (overlap,
/// burst-splitting) are a separate axis, `ns-runtime`'s `CommVersion`,
/// which the platform simulator (`ns-archsim`) takes as it is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Version {
    /// Original code.
    V1,
    /// + strength reduction.
    V2,
    /// + loop interchange (stride-1).
    V3,
    /// + division -> reciprocal multiply.
    V4,
    /// + row-slice kernels / register reuse.
    V5,
    /// + prims/flux single-sweep fusion (SoA lanes, radial tiles, run-time ISA dispatch).
    V6,
    /// + the predictor/corrector update inside the sweep.
    V7,
}

impl Version {
    /// All single-processor versions in ladder order (V1–V5 are the paper's
    /// Figure 2 rungs; V6/V7 are this repo's fused-sweep extensions).
    pub const ALL: [Version; 7] =
        [Version::V1, Version::V2, Version::V3, Version::V4, Version::V5, Version::V6, Version::V7];

    /// 1-based index as used on the Figure 2 axis.
    pub fn index(self) -> usize {
        match self {
            Version::V1 => 1,
            Version::V2 => 2,
            Version::V3 => 3,
            Version::V4 => 4,
            Version::V5 => 5,
            Version::V6 => 6,
            Version::V7 => 7,
        }
    }
}

/// Default radial tile width of the V6/V7 sweep (grid points), chosen from
/// measurement.
/// Every tile multiplies the station pipeline's fixed per-station cost
/// (row slicing, ghost fills, stencil bookkeeping) by the tile count, so
/// blocking only pays once a tile's resident rows outgrow the cache. Per
/// station those are 4 conservative rows in, the primitive ring (4
/// stations x 5 rows, three of them the stencil's), the flux ring (4 flux +
/// source for the radial operator; 4 stations x 4 rows axially, three of
/// them the stencil's) and, under V7, whose update rides in the sweep, the
/// 4 rows it writes plus, axially, the 4 state rows of the lagging station
/// it updates: ≈ 33 rows of `tile_r` points radially, ≈ 48 axially
/// (≈ 770 KiB at 2048, still inside a 2 MiB L2), of which ≈ 28 and ≈ 39 are
/// touched per station. The sweep alone holds ≈ 29 (≈ 24 touched). The
/// probe below timed the sweep with a whole-patch primitive arena, whose
/// rows a station touched once and left behind; the ring has not been
/// re-probed on a tall grid. On the committed grids (nr <= 100)
/// and on the benchmark's 512 rows a single tile is
/// fastest, and on a tall nr = 8192 probe (viscous axial sweep, nx = 32
/// and 125) the sweep bottoms out near `tile_r` = 2048 (≈ 380 KiB live,
/// inside L2): level with a single 8192-row tile and 1.8x over the unfused
/// V5 sequence, vs 1.5-2.6x *slower* at `tile_r` = 64. 2048 keeps paper-scale
/// grids single-tile while bounding the window for very tall ones. Any
/// `tile_r >= 1` is valid and bitwise-equivalent (tiles are independent
/// grid points; boundary columns are recomputed, not carried).
pub const DEFAULT_TILE_R: usize = 2048;

/// Spatial order of the MacCormack scheme.
///
/// The paper uses the fourth-order Gottlieb–Turkel "2-4" variant; the
/// classic second-order "2-2" MacCormack scheme is provided as the accuracy
/// baseline the Gottlieb–Turkel paper itself improves upon (used by the
/// ablation study; see `EXPERIMENTS.md`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchemeOrder {
    /// Gottlieb–Turkel 2-4: one-sided 3-point differences, 4th order when
    /// alternated.
    TwoFour,
    /// Classic MacCormack 2-2: one-sided 2-point differences, 2nd order.
    TwoTwo,
}

/// Inflow excitation parameters (paper Section 3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Excitation {
    /// Excitation level `epsilon`.
    pub level: f64,
    /// Strouhal number based on jet diameter and centerline velocity.
    pub strouhal: f64,
    /// Radial width of the modal shape (fraction of jet radius).
    pub width: f64,
    /// Enabled flag; performance experiments run with excitation on, as the
    /// paper does, but its cost is negligible (inflow column only).
    pub enabled: bool,
}

impl Excitation {
    /// The paper's forcing: `epsilon = 1.5e-2`, `St = 1/8`, localized in the
    /// shear layer.
    pub fn paper() -> Self {
        Self { level: 1.5e-2, strouhal: 0.125, width: 0.25, enabled: true }
    }

    /// No forcing.
    pub fn off() -> Self {
        Self { level: 0.0, strouhal: 0.125, width: 0.25, enabled: false }
    }

    /// Angular frequency `omega = 2 pi St U_c / D` (jet diameter `D = 2`).
    pub fn omega(&self, u_c: f64) -> f64 {
        std::f64::consts::PI * self.strouhal * u_c
    }
}

/// Complete solver configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Grid.
    pub grid: Grid,
    /// Gas model (use [`GasModel::inviscid`] of this for Euler; the solver
    /// does that internally based on `regime`).
    pub gas: GasModel,
    /// Governing equations.
    pub regime: Regime,
    /// Optimization version for the hot kernels.
    pub version: Version,
    /// Jet mean-flow profile.
    pub jet: ShearLayer,
    /// Inflow excitation.
    pub excitation: Excitation,
    /// CFL number used to pick the time step.
    pub cfl: f64,
    /// Explicit time-step override (bypasses the CFL estimate when `Some`).
    pub dt_override: Option<f64>,
    /// Fourth-difference artificial dissipation coefficient (0 disables; the
    /// paper's scheme has none, but long excited-jet runs need a little).
    pub dissipation: f64,
    /// Spatial order of the scheme (the paper's 2-4 by default).
    pub scheme: SchemeOrder,
    /// Re-evaluate the time step every step from the instantaneous maximum
    /// wave speed (a global reduction in the distributed solver). The paper
    /// runs with a fixed step; this is the conventional production upgrade.
    pub adaptive_dt: bool,
    /// Manufactured-solution verification mode. When `Some`, the solver is
    /// initialized at the analytic state, the inflow/outflow/far-field
    /// boundaries carry the manufactured data instead of the jet physics,
    /// and the analytic forcing from [`crate::mms`] is injected into both
    /// split operators. Production runs use `None`.
    pub mms: Option<crate::mms::MmsSpec>,
    /// Radial tile width of the cache-blocked fused sweep (grid points). Only
    /// consulted when `version >= V6`; any value `>= 1` yields bitwise
    /// identical results (property-tested), so this is purely a performance
    /// knob. See [`DEFAULT_TILE_R`] for the measured default.
    pub tile_r: usize,
}

impl SolverConfig {
    /// The paper's production configuration on a given grid.
    pub fn paper(grid: Grid, regime: Regime) -> Self {
        let jet = ShearLayer::paper();
        let gas = GasModel::air(1.2e6, jet.u_c);
        Self {
            grid,
            gas,
            regime,
            version: Version::V5,
            jet,
            excitation: Excitation::paper(),
            cfl: 0.5,
            dt_override: None,
            dissipation: 0.0,
            scheme: SchemeOrder::TwoFour,
            adaptive_dt: false,
            mms: None,
            tile_r: DEFAULT_TILE_R,
        }
    }

    /// Effective gas model for the configured regime.
    pub fn effective_gas(&self) -> GasModel {
        match self.regime {
            Regime::NavierStokes => self.gas,
            Regime::Euler => self.gas.inviscid(),
        }
    }

    /// Time step from the CFL condition with the inviscid wave-speed bound
    /// `max(|u|) + c` estimated from the inflow profile.
    pub fn time_step(&self) -> f64 {
        if let Some(dt) = self.dt_override {
            return dt;
        }
        // Fastest signal: centerline velocity plus centerline sound speed
        // (c_c = 1 in our nondimensionalization), with modest headroom for
        // perturbations.
        let wave = self.jet.u_c + 1.0;
        let h = self.grid.dx.min(self.grid.dr);
        self.cfl * h / (1.2 * wave)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_sane() {
        let cfg = SolverConfig::paper(Grid::paper(), Regime::NavierStokes);
        assert_eq!(cfg.version, Version::V5);
        let dt = cfg.time_step();
        assert!(dt > 0.0 && dt < cfg.grid.dr, "dt = {dt}");
    }

    #[test]
    fn euler_gas_is_inviscid() {
        let cfg = SolverConfig::paper(Grid::small(), Regime::Euler);
        assert!(cfg.effective_gas().is_inviscid());
        assert!(!SolverConfig::paper(Grid::small(), Regime::NavierStokes).effective_gas().is_inviscid());
    }

    #[test]
    fn dt_override_wins() {
        let mut cfg = SolverConfig::paper(Grid::small(), Regime::Euler);
        cfg.dt_override = Some(1e-4);
        assert_eq!(cfg.time_step(), 1e-4);
    }

    #[test]
    fn version_ordering_and_indexing() {
        assert!(Version::V1 < Version::V5);
        assert!(Version::V5 < Version::V6);
        assert!(Version::V6 < Version::V7);
        assert_eq!(Version::ALL.len(), 7);
        for (k, v) in Version::ALL.iter().enumerate() {
            assert_eq!(v.index(), k + 1);
        }
    }

    #[test]
    fn default_tile_is_sane() {
        let cfg = SolverConfig::paper(Grid::paper(), Regime::NavierStokes);
        assert_eq!(cfg.tile_r, DEFAULT_TILE_R);
        // the committed grids (nr <= 100) must run as a single tile — the
        // blocking default only kicks in on much taller grids
        assert!(DEFAULT_TILE_R >= Grid::paper().nr);
    }

    #[test]
    fn excitation_frequency() {
        let e = Excitation::paper();
        // omega = 2 pi * (1/8) * 1.5 / 2
        let omega = e.omega(1.5);
        assert!((omega - std::f64::consts::PI * 0.125 * 1.5).abs() < 1e-12);
    }
}
