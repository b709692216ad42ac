//! Time-stepping driver.
//!
//! One time step applies both split operators; successive steps alternate
//! the symmetric variants (paper Section 3):
//!
//! ```text
//! Q^{n+1} = L1x L1r Q^n          (even steps: radial first)
//! Q^{n+2} = L2r L2x Q^{n+1}      (odd steps: axial first)
//! ```
//!
//! The same driver advances the serial solver (one patch spanning the grid,
//! [`NoHalo`]) and each rank of the distributed solver (a block patch and a
//! real halo exchanger from `ns-runtime`). Either may carry a DOALL team
//! ([`Solver::with_threads`]): the shared-memory solver is the serial one
//! with its V5 station loops on the team, and a plan arms the same team on
//! every rank.

use crate::config::SolverConfig;
use crate::field::{Field, Patch, Workspace};
use crate::opcount::FlopLedger;
use crate::scheme::{self, NoHalo, Variant, XHalo};
use crate::{bc, diag, dissipation};
use ns_numerics::GasModel;
use std::sync::{Arc, OnceLock};

/// Wall-clock latency of every completed step, in microseconds, recorded
/// into the process-global metrics registry. Resolved once; the per-step
/// cost is two `Instant::now` reads and one relaxed atomic record.
fn step_latency() -> &'static Arc<ns_metrics::Histogram> {
    static H: OnceLock<Arc<ns_metrics::Histogram>> = OnceLock::new();
    H.get_or_init(|| ns_metrics::Registry::global().histogram("ns_step_latency_us"))
}

/// Build the initial condition on a patch: the parallel-flow extension of
/// the inflow mean profile (`W(x, r) = W_inflow(r)`), the standard start for
/// spatially developing jet computations. Manufactured-solution runs start
/// exactly on the analytic state instead, so any subsequent departure is
/// pure truncation error.
pub fn initial_field(cfg: &SolverConfig, patch: Patch) -> Field {
    let gas = cfg.effective_gas();
    if let Some(spec) = &cfg.mms {
        return crate::mms::exact_field(spec, patch, &gas);
    }
    let jet = cfg.jet;
    let p0 = gas.pressure(1.0, jet.t_c);
    Field::from_primitives(patch, &gas, |_, r| ns_numerics::gas::Primitive {
        rho: jet.rho(r),
        u: jet.u(r),
        v: 0.0,
        p: p0,
    })
}

/// The state at `t = 0` on a patch — the initial field with the `t = 0`
/// inflow applied on the patch owning the inflow column (its excited column
/// 0 differs from the initial field) — and, when damped, a copy of it: the
/// base the smoothing damps the fluctuation about. A fresh solver and a
/// restored one both take their base from here, so a damped run resumes
/// bitwise.
pub fn start_field(cfg: &SolverConfig, patch: Patch, ledger: &mut FlopLedger) -> (Field, Option<Box<Field>>) {
    let mut field = initial_field(cfg, patch);
    if field.patch.is_global_left() && cfg.mms.is_none() {
        bc::apply_inflow(&mut field, cfg, &cfg.effective_gas(), 0.0, ledger);
    }
    let base = (cfg.dissipation != 0.0).then(|| Box::new(field.clone()));
    (field, base)
}

/// The jet solver: state, scratch, clock and instrumentation for one patch.
pub struct Solver {
    /// Configuration (grid, regime, version, jet, excitation…).
    pub cfg: SolverConfig,
    gas: GasModel,
    /// Current solution.
    pub field: Field,
    ws: Workspace,
    /// Physical time.
    pub t: f64,
    /// Completed step count.
    pub nstep: u64,
    /// FLOP ledger (Table 1 input).
    pub ledger: FlopLedger,
    dt: f64,
    /// Base (`t = 0`) field kept for mean-preserving dissipation.
    base: Option<Box<Field>>,
}

impl Solver {
    /// Serial solver over the whole grid.
    pub fn new(cfg: SolverConfig) -> Self {
        let patch = Patch::whole(cfg.grid.clone());
        Self::on_patch(cfg, patch)
    }

    /// Arm a DOALL team of `threads` on this solver, the analogue of the
    /// paper's Cray Y-MP version: its serial code with DOALL directives on
    /// the loops. Every V5 station loop — primitive recovery, flux
    /// evaluation, predictor and corrector — is spread over the team;
    /// boundary fills and smoothing stay on the calling thread, and the
    /// other kernel rungs ignore the team. Stations are independent, so the
    /// team never changes an answer. Panics on `threads == 0` (a plan
    /// refuses that with a typed error before any thread starts).
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "a DOALL team needs at least one thread");
        let team = rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("rayon pool");
        self.ws.team = Some(Arc::new(team));
        self
    }

    /// Solver over an axial block (one rank of the distributed solver).
    pub fn on_patch(cfg: SolverConfig, patch: Patch) -> Self {
        assert_eq!(patch.grid, cfg.grid, "patch must belong to the configured grid");
        let gas = cfg.effective_gas();
        let mut ledger = FlopLedger::default();
        let (field, base) = start_field(&cfg, patch, &mut ledger);
        let mut ws = Workspace::new(&field.patch);
        if let Some(spec) = &cfg.mms {
            assert_eq!(cfg.dissipation, 0.0, "MMS verification runs exclude artificial dissipation");
            ws.mms = Some(Box::new(crate::mms::sources(spec, &field.patch, &gas)));
        }
        let dt = cfg.time_step();
        Self { cfg, gas, field, ws, t: 0.0, nstep: 0, ledger, dt, base }
    }

    /// Reassemble a solver from checkpointed parts (see
    /// [`crate::checkpoint`]); the clock, step parity and ledger continue
    /// exactly where they were.
    pub fn from_parts(
        cfg: SolverConfig,
        field: Field,
        mut ws: Workspace,
        t: f64,
        nstep: u64,
        ledger: FlopLedger,
    ) -> Self {
        assert_eq!(field.patch.grid, cfg.grid, "field must belong to the configured grid");
        let gas = cfg.effective_gas();
        if let Some(spec) = &cfg.mms {
            if ws.mms.is_none() {
                ws.mms = Some(Box::new(crate::mms::sources(spec, &field.patch, &gas)));
            }
        }
        let dt = cfg.time_step();
        let (_, base) = start_field(&cfg, field.patch.clone(), &mut FlopLedger::default());
        Self { cfg, gas, field, ws, t, nstep, ledger, dt, base }
    }

    /// Effective gas model (inviscid for the Euler regime).
    pub fn gas(&self) -> &GasModel {
        &self.gas
    }

    /// The fixed time step.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Advance one step serially (panics if the solver does not own the
    /// whole grid — distributed ranks must provide their halo).
    pub fn step(&mut self) {
        assert!(self.field.patch.is_whole_grid(), "serial stepping requires a whole-grid patch; use step_with_halo");
        self.step_with_halo(&mut NoHalo);
    }

    /// Advance one step with the given axial halo exchanger.
    pub fn step_with_halo(&mut self, halo: &mut dyn XHalo) {
        let step_start = std::time::Instant::now();
        let cfg = self.cfg.clone();
        if cfg.adaptive_dt {
            self.ws.timers.start("diag:watchdog", self.ledger.total());
            let local = diag::max_wave_speed(&self.field, &self.gas);
            self.ledger.boundary += (self.field.nxl() * self.field.nr()) as u64 * 6;
            self.ws.timers.start("comm:reduce", self.ledger.total());
            let global = halo.reduce_max(local);
            self.ws.timers.pause(self.ledger.total());
            self.dt = cfg.cfl * self.cfg.grid.dx.min(self.cfg.grid.dr) / global;
        }
        let dt = self.dt;
        let t = self.t;
        if self.nstep.is_multiple_of(2) {
            scheme::r_operator(Variant::L1, &mut self.field, &mut self.ws, &cfg, &self.gas, halo, dt, &mut self.ledger);
            scheme::x_operator(
                Variant::L1,
                &mut self.field,
                &mut self.ws,
                &cfg,
                &self.gas,
                halo,
                t,
                dt,
                &mut self.ledger,
            );
        } else {
            scheme::x_operator(
                Variant::L2,
                &mut self.field,
                &mut self.ws,
                &cfg,
                &self.gas,
                halo,
                t,
                dt,
                &mut self.ledger,
            );
            scheme::r_operator(Variant::L2, &mut self.field, &mut self.ws, &cfg, &self.gas, halo, dt, &mut self.ledger);
        }
        self.ws.timers.start("bc:step", self.ledger.total());
        // On even steps the axial operator ran last and its corrector has
        // already imposed the inflow at `t + dt`; only the radial operator
        // leaves the inflow column to be re-imposed.
        if self.field.patch.is_global_left() && !self.nstep.is_multiple_of(2) {
            match &cfg.mms {
                Some(spec) => crate::mms::dirichlet_column(&mut self.field, spec, &self.gas, 0),
                None => bc::apply_inflow(&mut self.field, &cfg, &self.gas, t + dt, &mut self.ledger),
            }
        }
        // The axis regularization imposes the linear model v(r0) = (r0/r1)
        // v(r1); the manufactured v has curvature in r, so under MMS the
        // model would inject an O(dr^2) error at the axis and mask the
        // scheme's order. The manufactured state is exactly odd in v, so the
        // mirror ghost fill alone keeps the axis consistent.
        if cfg.mms.is_none() && self.field.patch.is_global_bottom() {
            bc::axis_regularize(&mut self.field, &self.gas, &mut self.ledger);
        }
        if cfg.dissipation != 0.0 {
            // the smoothing halo: the snapshot's edge lines, swapped with
            // the face neighbours (timer paused, as around every halo call)
            let mut snap = dissipation::fluctuation(&self.field, self.base.as_deref());
            self.ws.timers.pause(self.ledger.total());
            halo.exchange_state(&mut snap);
            self.ws.timers.start("bc:step", self.ledger.total());
            dissipation::smooth(&mut self.field, &snap, cfg.dissipation, &mut self.ledger);
        }
        self.ws.timers.pause(self.ledger.total());
        self.t += dt;
        self.nstep += 1;
        step_latency().record(step_start.elapsed().as_micros() as u64);
    }

    /// Advance `n` steps.
    pub fn run(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Turn on phase accumulation (see [`ns_telemetry::PhaseTimer`]).
    pub fn enable_phase_timing(&mut self) {
        self.ws.timers.enable();
    }

    /// Turn on phase accumulation *and* span recording into `spans` (see
    /// [`ns_telemetry::PhaseTimer::enable_traced`]).
    pub fn enable_phase_trace(&mut self, spans: ns_telemetry::Recorder) {
        self.ws.timers.enable_traced(spans);
    }

    /// The accumulated per-phase costs so far.
    pub fn phase_ledger(&self) -> &ns_telemetry::PhaseLedger {
        &self.ws.timers.ledger
    }

    /// Take the accumulated phase ledger and, when tracing, the span
    /// recorder, leaving the timer accumulating (untraced) from empty.
    pub fn take_phase_telemetry(&mut self) -> (ns_telemetry::PhaseLedger, Option<ns_telemetry::Recorder>) {
        self.ws.timers.take()
    }

    /// Integrated invariants of the current state.
    pub fn invariants(&self) -> diag::Invariants {
        diag::invariants(&self.field)
    }

    /// One watchdog sample of the current state (all diagnostics gathered
    /// by the fused [`diag::watchdogs`] pass plus the invariants).
    pub fn health_sample(&self) -> ns_telemetry::HealthSample {
        let w = diag::watchdogs(&self.field, &self.gas);
        let inv = diag::invariants(&self.field);
        ns_telemetry::HealthSample {
            step: self.nstep,
            t: self.t,
            dt: self.dt,
            max_mach: w.max_mach,
            max_wave_speed: w.max_wave_speed,
            min_rho: w.min_rho,
            min_p: w.min_p,
            mass: inv.mass,
            energy: inv.energy,
            finite: w.finite,
        }
    }

    /// True while the state is finite and positivity holds.
    pub fn healthy(&self) -> bool {
        diag::watchdogs(&self.field, &self.gas).healthy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Regime, SolverConfig};
    use ns_numerics::Grid;

    #[test]
    fn solver_initializes_with_jet_profile() {
        let cfg = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
        let s = Solver::new(cfg);
        let gas = *s.gas();
        let core = s.field.primitive(10, 0, &gas);
        let ambient = s.field.primitive(10, s.field.nr() - 1, &gas);
        assert!(core.u > 1.3, "jet core fast, got {}", core.u);
        assert!(ambient.u < 0.5, "ambient slow, got {}", ambient.u);
        assert!(core.rho < ambient.rho, "heated core is lighter");
    }

    #[test]
    fn steps_advance_clock_and_stay_healthy() {
        for regime in [Regime::Euler, Regime::NavierStokes] {
            let cfg = SolverConfig::paper(Grid::small(), regime);
            let mut s = Solver::new(cfg);
            let dt = s.dt();
            s.run(10);
            assert_eq!(s.nstep, 10);
            assert!((s.t - 10.0 * dt).abs() < 1e-12);
            assert!(s.healthy(), "{regime:?} went unhealthy");
        }
    }

    #[test]
    fn ledger_grows_linearly_with_steps() {
        let cfg = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
        let mut s = Solver::new(cfg);
        s.run(2);
        let after2 = s.ledger.total();
        s.run(2);
        let after4 = s.ledger.total();
        // cost of steps 3-4 equals cost of steps 1-2 minus the one-time
        // initialization boundary work
        let d1 = after2;
        let d2 = after4 - after2;
        assert!(d2 > 0);
        let rel = (d1 as f64 - d2 as f64).abs() / d2 as f64;
        assert!(rel < 0.01, "per-step cost should be steady, rel diff {rel}");
    }

    #[test]
    fn euler_costs_less_than_navier_stokes() {
        let mut ns = Solver::new(SolverConfig::paper(Grid::small(), Regime::NavierStokes));
        let mut eu = Solver::new(SolverConfig::paper(Grid::small(), Regime::Euler));
        ns.run(4);
        eu.run(4);
        let ratio = eu.ledger.total() as f64 / ns.ledger.total() as f64;
        assert!(ratio < 0.8, "Euler should be much cheaper, ratio {ratio}");
        assert!(ratio > 0.3, "but not free, ratio {ratio}");
    }

    #[test]
    fn excitation_perturbs_the_flow() {
        let mk = |enabled: bool| {
            let mut cfg = SolverConfig::paper(Grid::small(), Regime::Euler);
            cfg.excitation.enabled = enabled;
            let mut s = Solver::new(cfg);
            s.run(20);
            s
        };
        let on = mk(true);
        let off = mk(false);
        let d = on.field.max_diff(&off.field);
        assert!(d > 1e-8, "excitation must do something, diff {d}");
    }

    #[test]
    fn adaptive_dt_tracks_the_flow_and_outruns_the_static_bound() {
        let mut cfg = SolverConfig::paper(Grid::small(), Regime::Euler);
        let static_dt = cfg.time_step();
        cfg.adaptive_dt = true;
        let mut s = Solver::new(cfg);
        s.run(5);
        assert!(s.healthy());
        // the static estimate pads the wave speed by 20%; the adaptive step
        // measures it, so it must be larger (same CFL)
        assert!(s.dt() > static_dt, "adaptive {} vs static {static_dt}", s.dt());
        // and it respects the true CFL bound
        let gas = *s.gas();
        let wave = diag::max_wave_speed(&s.field, &gas);
        let cfl_eff = s.dt() * wave / s.cfg.grid.dx.min(s.cfg.grid.dr);
        assert!(cfl_eff <= s.cfg.cfl * 1.0001, "effective CFL {cfl_eff}");
    }

    #[test]
    fn every_step_records_into_the_latency_histogram() {
        let before = ns_metrics::Registry::global().snapshot();
        let cfg = SolverConfig::paper(Grid::small(), Regime::Euler);
        let mut s = Solver::new(cfg);
        s.run(3);
        let delta = ns_metrics::Registry::global().snapshot().diff(&before);
        let h = delta.histograms.get("ns_step_latency_us").expect("histogram registered");
        assert!(h.count >= 3, "3 steps must record >= 3 samples, got {}", h.count);
    }

    #[test]
    fn mass_is_nearly_conserved_over_short_runs() {
        let mut cfg = SolverConfig::paper(Grid::small(), Regime::Euler);
        cfg.excitation.enabled = false;
        let mut s = Solver::new(cfg);
        let m0 = s.invariants().mass;
        s.run(20);
        let m1 = s.invariants().mass;
        // open boundaries admit small flux imbalance, but nothing dramatic
        assert!((m1 - m0).abs() / m0 < 1e-3, "mass drifted {} -> {}", m0, m1);
    }
}
