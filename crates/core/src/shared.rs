//! Shared-memory parallel driver — the analogue of the paper's Cray Y-MP
//! parallelization.
//!
//! On the Y-MP the paper "did some hand optimization to convert some loops
//! to parallel loops, used the DOALL directive, and partitioned the domain
//! along the orthogonal direction of the sweep". The Rust analogue is Rayon:
//! the hot per-row loops become `par_iter` loops over disjoint row bands, so
//! every worker sweeps stride-1 data, and each phase is a fork-join region
//! exactly like a DOALL loop nest.
//!
//! This driver parallelizes the dominant phases (primitive recovery, flux
//! evaluation, predictor/corrector updates) using the V5 kernel arithmetic;
//! boundary fills stay serial (they are O(N) against the O(N^2) interior).
//! Results are bitwise identical to the serial V5 solver — row partitioning
//! changes no arithmetic — which the tests assert.

use crate::bc;
use crate::config::SolverConfig;
use crate::field::{Field, FluxField, Patch, PrimField, Workspace, NG};
use crate::kernels::{self, EdgeFlags, FluxDir};
use crate::opcount::{self, FlopLedger};
use crate::scheme::{correct_row, predict_row, Stencil, Update, Variant};
use ns_numerics::{Array2, GasModel};
use rayon::prelude::*;

/// Shared-memory solver over the whole grid with a dedicated Rayon pool.
pub struct SharedSolver {
    /// Configuration (version is forced to V5 — the paper parallelized its
    /// fully optimized code).
    pub cfg: SolverConfig,
    gas: GasModel,
    /// Current solution.
    pub field: Field,
    ws: Workspace,
    /// Physical time.
    pub t: f64,
    /// Completed steps.
    pub nstep: u64,
    /// FLOP ledger.
    pub ledger: FlopLedger,
    dt: f64,
    /// Base (`t = 0`) field kept for mean-preserving dissipation.
    base: Option<Box<Field>>,
    pool: rayon::ThreadPool,
}

impl SharedSolver {
    /// Create a shared-memory solver with `threads` workers.
    pub fn new(mut cfg: SolverConfig, threads: usize) -> Self {
        cfg.version = crate::config::Version::V5;
        assert!(cfg.mms.is_none(), "MMS verification runs use the serial or distributed drivers");
        assert_eq!(
            cfg.scheme,
            crate::config::SchemeOrder::TwoFour,
            "the parallel drivers implement the paper's 2-4 scheme"
        );
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("rayon pool");
        let gas = cfg.effective_gas();
        let patch = Patch::whole(cfg.grid.clone());
        let mut ledger = FlopLedger::default();
        let (field, base) = crate::driver::start_field(&cfg, patch, &mut ledger);
        let ws = Workspace::new(&field.patch);
        let dt = cfg.time_step();
        Self { cfg, gas, field, ws, t: 0.0, nstep: 0, ledger, dt, base, pool }
    }

    /// Effective gas model.
    pub fn gas(&self) -> &GasModel {
        &self.gas
    }

    /// The fixed time step.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Advance one step (same operator ordering as the serial driver).
    pub fn step(&mut self) {
        let cfg = self.cfg.clone();
        if cfg.adaptive_dt {
            let wave = crate::diag::max_wave_speed(&self.field, &self.gas);
            self.dt = cfg.cfl * cfg.grid.dx.min(cfg.grid.dr) / wave;
            self.ledger.boundary += (self.field.nxl() * self.field.nr()) as u64 * 6;
        }
        let dt = self.dt;
        let t = self.t;
        let even = self.nstep.is_multiple_of(2);
        let Self { gas, field, ws, ledger, base, pool, .. } = self;
        pool.install(|| {
            if even {
                par_r_operator(Variant::L1, field, ws, &cfg, gas, dt, ledger);
                par_x_operator(Variant::L1, field, ws, &cfg, gas, t, dt, ledger);
            } else {
                par_x_operator(Variant::L2, field, ws, &cfg, gas, t, dt, ledger);
                par_r_operator(Variant::L2, field, ws, &cfg, gas, dt, ledger);
            }
            bc::apply_inflow(field, &cfg, gas, t + dt, ledger);
            bc::axis_regularize(field, gas, ledger);
        });
        // the serial driver's smoothing, after the step, on the whole grid
        crate::dissipation::apply_about(field, base.as_deref(), cfg.dissipation, ledger);
        self.t += dt;
        self.nstep += 1;
    }

    /// Advance `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }
}

/// Collect the interior row band `(raw index, row slice)` of a plane.
fn band(a: &mut Array2, nxl: usize) -> Vec<(usize, &mut [f64])> {
    let nj = a.nj();
    a.as_mut_slice().chunks_mut(nj).enumerate().skip(NG).take(nxl).collect()
}

/// Parallel primitive recovery: the serial V5 row kernel
/// ([`kernels::prims_row`]) with the stations spread over the pool.
fn par_prims(field: &Field, prim: &mut PrimField, gas: &GasModel, ledger: &mut FlopLedger) {
    let (nxl, nr) = (field.nxl(), field.nr());
    let gm1 = gas.gamma - 1.0;
    let inv_rgas = 1.0 / gas.r_gas;
    let inv_r: Vec<f64> = (0..nr).map(|j| 1.0 / field.patch.r(j)).collect();

    let mut rho_rows = band(&mut prim.rho, nxl);
    let mut u_rows = band(&mut prim.u, nxl);
    let mut v_rows = band(&mut prim.v, nxl);
    let mut p_rows = band(&mut prim.p, nxl);
    let mut t_rows = band(&mut prim.t, nxl);

    rho_rows
        .par_iter_mut()
        .zip(u_rows.par_iter_mut())
        .zip(v_rows.par_iter_mut())
        .zip(p_rows.par_iter_mut())
        .zip(t_rows.par_iter_mut())
        .for_each(|(((((ii, rho), (_, u)), (_, v)), (_, p)), (_, t))| {
            kernels::prims_row(field.q.each_ref().map(|c| c.row(*ii)), [rho, u, v, p, t], &inv_r, gm1, inv_rgas);
        });
    ledger.prims += (nxl * nr) as u64 * opcount::COST_PRIMS;
}

/// Parallel flux evaluation: the serial V5 row kernel
/// ([`kernels::flux_row`]) with the stations spread over the pool.
#[allow(clippy::too_many_arguments)]
fn par_flux(
    dir: FluxDir,
    prim: &PrimField,
    patch: &Patch,
    edges: EdgeFlags,
    gas: &GasModel,
    flux: &mut FluxField,
    src: Option<&mut Array2>,
    ledger: &mut FlopLedger,
) {
    let (nxl, nr) = (patch.nxl, patch.nr());
    let r_of: Vec<f64> = (0..nr).map(|j| patch.r(j)).collect();
    let inv_r: Vec<f64> = r_of.iter().map(|&r| 1.0 / r).collect();
    let viscous = !gas.is_inviscid();

    let [c0, c1, c2, c3] = &mut flux.c;
    let mut f0 = band(c0, nxl);
    let mut f1 = band(c1, nxl);
    let mut f2 = band(c2, nxl);
    let mut f3 = band(c3, nxl);

    if let Some(sp) = src {
        let mut srows = band(sp, nxl);
        f0.par_iter_mut()
            .zip(f1.par_iter_mut())
            .zip(f2.par_iter_mut())
            .zip(f3.par_iter_mut())
            .zip(srows.par_iter_mut())
            .for_each(|(((((ii, a), (_, b)), (_, c)), (_, d)), (_, s))| {
                kernels::flux_row(dir, prim, patch, edges, gas, &r_of, &inv_r, *ii - NG, [a, b, c, d], Some(s));
            });
    } else {
        f0.par_iter_mut().zip(f1.par_iter_mut()).zip(f2.par_iter_mut()).zip(f3.par_iter_mut()).for_each(
            |((((ii, a), (_, b)), (_, c)), (_, d))| {
                kernels::flux_row(dir, prim, patch, edges, gas, &r_of, &inv_r, *ii - NG, [a, b, c, d], None);
            },
        );
    }

    let pts = (nxl * nr) as u64;
    ledger.flux += pts * if viscous { opcount::COST_FLUX_VISCOUS } else { opcount::COST_FLUX_INVISCID };
    if dir == FluxDir::R {
        ledger.source += pts * opcount::COST_SOURCE;
    }
}

/// Parallel predictor: [`crate::scheme::predict`] with the rows of each
/// component plane spread over the pool.
fn par_predict(up: &Update, base: &Field, out: &mut Field) {
    for c in 0..4 {
        band(&mut out.q[c], up.irange.end)[up.irange.start..].par_iter_mut().for_each(|(ii, row)| {
            predict_row(&mut row[NG..NG + up.nj], up.row(c, *ii, &base.q[c]));
        });
    }
}

/// Parallel corrector: [`crate::scheme::correct`], in place — each row reads
/// `field` only at the points it writes, so disjoint row bands need no
/// double buffer.
fn par_correct(up: &Update, field: &mut Field, qbar: &Field) {
    for c in 0..4 {
        band(&mut field.q[c], up.irange.end)[up.irange.start..].par_iter_mut().for_each(|(ii, row)| {
            correct_row(&mut row[NG..NG + up.nj], up.row(c, *ii, &qbar.q[c]));
        });
    }
}

/// Parallel axial operator (mirrors `scheme::x_operator`; whole grid only).
#[allow(clippy::too_many_arguments)]
fn par_x_operator(
    variant: Variant,
    field: &mut Field,
    ws: &mut Workspace,
    cfg: &SolverConfig,
    gas: &GasModel,
    t: f64,
    dt: f64,
    ledger: &mut FlopLedger,
) {
    let patch = field.patch.clone();
    let edges = EdgeFlags::of(&patch);
    let (nxl, nr) = (patch.nxl, patch.nr());
    let lam = dt / (6.0 * patch.grid.dx);

    par_prims(field, &mut ws.prim, gas, ledger);
    bc::mirror_prims_axis(&mut ws.prim);
    bc::extrap_prims_top(&mut ws.prim, nr);
    par_flux(FluxDir::X, &ws.prim, &patch, edges, gas, &mut ws.flux, None, ledger);
    bc::extrap_flux_x(&mut ws.flux, nxl, nr, edges.left, edges.right, ledger);
    bc::outflow_characteristic(field, &ws.prim, gas, dt, ledger);

    let st = Stencil { forward: variant == Variant::L1, order: cfg.scheme, lam, dt };
    let up = Update { dir: FluxDir::X, st, flux: &ws.flux, src: None, mms: None, irange: 1..nxl - 1, nj: nr };
    par_predict(&up, field, &mut ws.qbar);
    ledger.update += up.flops(opcount::COST_PREDICTOR);
    bc::apply_inflow(&mut ws.qbar, cfg, gas, t + dt, ledger);
    for j in 0..nr {
        ws.qbar.set_qvec(nxl - 1, j, field.qvec(nxl - 1, j));
    }

    par_prims(&ws.qbar, &mut ws.prim, gas, ledger);
    bc::mirror_prims_axis(&mut ws.prim);
    bc::extrap_prims_top(&mut ws.prim, nr);
    par_flux(FluxDir::X, &ws.prim, &patch, edges, gas, &mut ws.flux_bar, None, ledger);
    bc::extrap_flux_x(&mut ws.flux_bar, nxl, nr, edges.left, edges.right, ledger);

    let st = Stencil { forward: !st.forward, ..st };
    let up = Update { dir: FluxDir::X, st, flux: &ws.flux_bar, src: None, mms: None, irange: 1..nxl - 1, nj: nr };
    par_correct(&up, field, &ws.qbar);
    ledger.update += up.flops(opcount::COST_CORRECTOR);

    bc::apply_inflow(field, cfg, gas, t + dt, ledger);
}

/// Parallel radial operator (mirrors `scheme::r_operator`).
fn par_r_operator(
    variant: Variant,
    field: &mut Field,
    ws: &mut Workspace,
    cfg: &SolverConfig,
    gas: &GasModel,
    dt: f64,
    ledger: &mut FlopLedger,
) {
    let patch = field.patch.clone();
    // matches scheme::r_operator: local one-sided x-stencils at patch edges
    // (the shared-memory solver always owns the whole radial extent)
    let edges = EdgeFlags { left: true, right: true, bottom: true, top: true };
    let (nxl, nr) = (patch.nxl, patch.nr());
    let lam = dt / (6.0 * patch.grid.dr);

    par_prims(field, &mut ws.prim, gas, ledger);
    bc::mirror_prims_axis(&mut ws.prim);
    bc::extrap_prims_top(&mut ws.prim, nr);
    par_flux(FluxDir::R, &ws.prim, &patch, edges, gas, &mut ws.flux, Some(&mut ws.src), ledger);
    bc::fill_rflux_ghosts(&mut ws.flux, nxl, nr, ledger);

    let st = Stencil { forward: variant == Variant::L1, order: cfg.scheme, lam, dt };
    let up = Update { dir: FluxDir::R, st, flux: &ws.flux, src: Some(&ws.src), mms: None, irange: 0..nxl, nj: nr - 1 };
    par_predict(&up, field, &mut ws.qbar);
    ledger.update += up.flops(opcount::COST_PREDICTOR);
    for i in 0..nxl {
        ws.qbar.set_qvec(i, nr - 1, field.qvec(i, nr - 1));
    }

    par_prims(&ws.qbar, &mut ws.prim, gas, ledger);
    bc::mirror_prims_axis(&mut ws.prim);
    bc::extrap_prims_top(&mut ws.prim, nr);
    par_flux(FluxDir::R, &ws.prim, &patch, edges, gas, &mut ws.flux_bar, Some(&mut ws.src_bar), ledger);
    bc::fill_rflux_ghosts(&mut ws.flux_bar, nxl, nr, ledger);

    let st = Stencil { forward: !st.forward, ..st };
    let (flux, src) = (&ws.flux_bar, Some(&ws.src_bar));
    let up = Update { dir: FluxDir::R, st, flux, src, mms: None, irange: 0..nxl, nj: nr - 1 };
    par_correct(&up, field, &ws.qbar);
    ledger.update += up.flops(opcount::COST_CORRECTOR);

    bc::farfield_top(field, gas, gas.pressure(1.0, cfg.jet.t_c), ledger);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Regime, SolverConfig};
    use crate::driver::Solver;
    use ns_numerics::Grid;

    #[test]
    fn shared_solver_matches_serial_v5_exactly() {
        for regime in [Regime::Euler, Regime::NavierStokes] {
            for dissipation in [0.0, 0.002] {
                let cfg = SolverConfig { dissipation, ..SolverConfig::paper(Grid::small(), regime) };
                let mut serial = Solver::new(cfg.clone());
                let mut shared = SharedSolver::new(cfg, 4);
                serial.run(6);
                shared.run(6);
                let d = serial.field.max_diff(&shared.field);
                assert_eq!(d, 0.0, "{regime:?} eps {dissipation}: shared-memory result must be bitwise identical");
                assert_eq!(serial.ledger.dissipation, shared.ledger.dissipation);
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let cfg = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
        let mut one = SharedSolver::new(cfg.clone(), 1);
        let mut eight = SharedSolver::new(cfg, 8);
        one.run(5);
        eight.run(5);
        assert_eq!(one.field.max_diff(&eight.field), 0.0);
    }

    #[test]
    fn ledger_matches_serial() {
        let cfg = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
        let mut serial = Solver::new(cfg.clone());
        let mut shared = SharedSolver::new(cfg, 2);
        serial.run(3);
        shared.run(3);
        assert_eq!(serial.ledger.prims, shared.ledger.prims);
        assert_eq!(serial.ledger.flux, shared.ledger.flux);
        assert_eq!(serial.ledger.update, shared.ledger.update);
    }
}
