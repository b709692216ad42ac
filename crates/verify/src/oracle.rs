//! The cross-version / cross-P / cross-driver differential oracle.
//!
//! One fixed configuration (66 x 24 grid, excited jet, 6 steps — even, so
//! runs end on a completed `L1`/`L2` alternation) is executed across the
//! whole equivalence matrix:
//!
//! * every kernel `Version` rung V1-V7, serially;
//! * `ns_runtime::run` over processor counts P and pencil shapes (each rank
//!   running the same versioned kernels);
//! * the same plans with `reliability` armed on a fault-free plan (the
//!   recovery machinery must be a perfect no-op when nothing fails);
//! * the comm-protocol versions V5/V6/V7 (physics-neutral by design), under
//!   the V5 kernels and under V7's, whose sweeps carry the update.
//!
//! Each cell asserts the *strongest* property the design guarantees:
//! bitwise identity for V5<->V6<->V7 (plus identical FLOP ledgers — the
//! fused and SoA rungs re-order memory, never arithmetic), for Euler
//! serial<->parallel, for chaos<->parallel and for comm protocols;
//! truncation-level agreement (documented tolerance) for V1-V4 (different
//! operation orderings round differently) and for Navier-Stokes
//! serial<->parallel (the radial operator's one-sided viscous
//! cross-derivative stencils at internal patch edges).

use std::collections::BTreeMap;

use ns_core::config::{Regime, SolverConfig, Version};
use ns_core::driver::Solver;
use ns_core::Field;
use ns_numerics::Grid;
use ns_runtime::{CartTopology, ChaosOptions, CommVersion, FaultPlan, RunPlan};
use serde::Serialize;

use crate::snapshot::{self, FieldSnapshot};

/// Tolerance for cross-kernel-version comparisons (V1-V4 vs V5): pure
/// rounding-level reassociation differences.
pub const TOL_VERSION: f64 = 1e-9;
/// Tolerance for Navier-Stokes serial-vs-parallel: truncation-level viscous
/// edge stencils, still far below any physical scale.
pub const TOL_NS_PARALLEL: f64 = 1e-8;

/// What a cell is allowed to differ by from its baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expect {
    /// Bitwise identity (max abs diff must be exactly zero).
    Bitwise,
    /// Relative agreement: `max_diff / scale <= tol`.
    Rel(f64),
}

/// A deliberate single-ulp perturbation of one run, used by the oracle's
/// own negative-path tests to prove the harness can fail.
#[derive(Clone, Debug)]
pub struct Perturb {
    /// Cell key whose field to perturb (e.g. `"euler/V6/serial"`).
    pub key: String,
    /// Component to touch.
    pub component: usize,
    /// Interior indices.
    pub i: usize,
    /// Interior indices.
    pub j: usize,
}

/// Oracle configuration: the run matrix and the fixed run shape.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Grid (identical for every cell; golden snapshots pin it).
    pub grid: Grid,
    /// Steps per run (even, fixed across quick/full so goldens match).
    pub steps: u64,
    /// Kernel versions to cover (must include V5, the baseline).
    pub versions: Vec<Version>,
    /// Processor counts for the distributed drivers.
    pub procs: Vec<usize>,
    /// 2-D pencil shapes `(px, pr)` for the Cartesian drivers (run on the
    /// V5 baseline kernel, the rung radial splits support).
    pub pencil_shapes: Vec<(usize, usize)>,
    /// Governing equations to cover.
    pub regimes: Vec<Regime>,
    /// Non-baseline comm protocols to cover (baseline is V5).
    pub comm_versions: Vec<CommVersion>,
    /// Fault injection for negative-path tests (`None` in production).
    pub perturb: Option<Perturb>,
}

impl OracleConfig {
    /// The standard matrix. `quick` trims to the corners that catch nearly
    /// everything (V5/V6/V7, P in {1,4}, comm V6) for the CI gate; the full
    /// matrix is the issue's exhaustive V1-V7 x {1,2,4,8,16} x all drivers.
    pub fn standard(quick: bool) -> Self {
        let grid = Grid::new(66, 24, 50.0, 5.0);
        let regimes = vec![Regime::Euler, Regime::NavierStokes];
        if quick {
            Self {
                grid,
                steps: 6,
                versions: vec![Version::V5, Version::V6, Version::V7],
                procs: vec![1, 4],
                pencil_shapes: vec![(1, 4), (2, 2)],
                regimes,
                comm_versions: vec![CommVersion::V6],
                perturb: None,
            }
        } else {
            Self {
                grid,
                steps: 6,
                versions: Version::ALL.to_vec(),
                procs: vec![1, 2, 4, 8, 16],
                pencil_shapes: vec![(1, 4), (4, 1), (2, 2), (4, 2)],
                regimes,
                comm_versions: vec![CommVersion::V6, CommVersion::V7],
                perturb: None,
            }
        }
    }
}

/// One comparison in the matrix.
#[derive(Clone, Debug, Serialize)]
pub struct OracleCell {
    /// Cell key, e.g. `"euler/V3/parallel/p4"`.
    pub key: String,
    /// Key of the run this cell was compared against.
    pub baseline: String,
    /// The asserted property (`"bitwise"` or `"rel<=..."`).
    pub expected: String,
    /// Measured max abs difference over the interior.
    pub max_abs_diff: f64,
    /// Measured relative difference (max_abs_diff / baseline scale).
    pub rel_diff: f64,
    /// Verdict.
    pub pass: bool,
}

/// The whole matrix outcome plus the reference snapshots for the golden
/// file.
#[derive(Clone, Debug, Serialize)]
pub struct OracleReport {
    /// Oracle grid.
    pub grid: [usize; 2],
    /// Steps per run.
    pub steps: u64,
    /// Every comparison made.
    pub cells: Vec<OracleCell>,
    /// Serial V5 reference snapshots per regime (the golden entries).
    pub snapshots: BTreeMap<String, FieldSnapshot>,
}

impl OracleReport {
    /// True when every cell passed.
    pub fn pass(&self) -> bool {
        self.cells.iter().all(|c| c.pass)
    }
}

fn comm_key(v: CommVersion) -> &'static str {
    match v {
        CommVersion::V5 => "commV5",
        CommVersion::V6 => "commV6",
        CommVersion::V7 => "commV7",
    }
}

fn base_cfg(oc: &OracleConfig, regime: Regime, version: Version) -> SolverConfig {
    let mut cfg = SolverConfig::paper(oc.grid.clone(), regime);
    cfg.version = version;
    cfg
}

/// Fault-free chaos options: recovery machinery armed (checkpoint cadence
/// shorter than the run) but no faults planned.
fn chaos_opts() -> ChaosOptions {
    ChaosOptions { plan: FaultPlan::none(42), checkpoint_every: 3, ..Default::default() }
}

/// The gathered field of `cfg` run on `topo` through the one driver, over
/// plain channels or (`chaos`) with the recovery machinery armed.
fn distributed(cfg: &SolverConfig, topo: CartTopology, steps: u64, comm: CommVersion, chaos: bool) -> Field {
    let plan = RunPlan { reliability: chaos.then(chaos_opts), ..RunPlan::new(cfg, topo, steps, comm) };
    ns_runtime::run(&plan).unwrap_or_else(|e| panic!("{}x{} ranks: {e}", topo.px, topo.pr)).gather_field()
}

fn maybe_perturb(oc: &OracleConfig, key: &str, field: &mut Field) {
    if let Some(p) = &oc.perturb {
        if p.key == key {
            let v = field.at(p.component, p.i as isize, p.j as isize);
            field.set(p.component, p.i as isize, p.j as isize, f64::from_bits(v.to_bits() ^ 1));
        }
    }
}

/// Max interior magnitude of the baseline, the scale for relative diffs.
fn field_scale(field: &Field) -> f64 {
    let mut m = 0.0f64;
    for c in 0..4 {
        for i in 0..field.nxl() {
            for j in 0..field.nr() {
                m = m.max(field.at(c, i as isize, j as isize).abs());
            }
        }
    }
    m
}

fn compare(key: &str, baseline: &str, a: &Field, b: &Field, expect: Expect) -> OracleCell {
    let max_abs_diff = a.max_diff(b);
    let scale = field_scale(b).max(f64::MIN_POSITIVE);
    let rel_diff = max_abs_diff / scale;
    let (expected, pass) = match expect {
        Expect::Bitwise => ("bitwise".to_string(), max_abs_diff == 0.0),
        Expect::Rel(tol) => (format!("rel<={tol:e}"), rel_diff <= tol),
    };
    OracleCell { key: key.to_string(), baseline: baseline.to_string(), expected, max_abs_diff, rel_diff, pass }
}

/// Run the full differential-oracle matrix.
pub fn run_matrix(oc: &OracleConfig) -> OracleReport {
    assert!(oc.versions.contains(&Version::V5), "the oracle baseline is V5");
    assert!(oc.steps.is_multiple_of(2), "runs must end on a completed L1/L2 alternation");
    let mut cells = Vec::new();
    let mut snapshots = BTreeMap::new();
    for &regime in &oc.regimes {
        let rk = regime.key();

        // --- serial ladder ------------------------------------------------
        let mut serial: Vec<(Version, Field, ns_core::opcount::FlopLedger)> = Vec::new();
        for &v in &oc.versions {
            let mut solver = Solver::new(base_cfg(oc, regime, v));
            solver.run(oc.steps);
            let mut field = solver.field.clone();
            maybe_perturb(oc, &format!("{rk}/{v:?}/serial"), &mut field);
            serial.push((v, field, solver.ledger));
        }
        let (v5_field, v5_ledger) = {
            let e = serial.iter().find(|(v, _, _)| *v == Version::V5).unwrap();
            (e.1.clone(), e.2)
        };
        snapshots.insert(format!("{rk}/serial/V5"), snapshot::of(&v5_field));

        let v5_key = format!("{rk}/V5/serial");
        for (v, field, ledger) in &serial {
            if *v == Version::V5 {
                continue;
            }
            let key = format!("{rk}/{v:?}/serial");
            let bitwise_rung = matches!(*v, Version::V6 | Version::V7);
            let expect = if bitwise_rung { Expect::Bitwise } else { Expect::Rel(TOL_VERSION) };
            let mut cell = compare(&key, &v5_key, field, &v5_field, expect);
            if bitwise_rung && *ledger != v5_ledger {
                // the fused/SoA paths must also account identical FLOPs
                cell.pass = false;
                cell.expected = "bitwise+ledger".to_string();
            }
            cells.push(cell);
        }

        // --- distributed drivers ------------------------------------------
        for (v, serial_field, _) in &serial {
            let cfg = base_cfg(oc, regime, *v);
            let serial_key = format!("{rk}/{v:?}/serial");
            let par_expect = match regime {
                Regime::Euler => Expect::Bitwise,
                Regime::NavierStokes => Expect::Rel(TOL_NS_PARALLEL),
            };
            for &p in &oc.procs {
                let par_key = format!("{rk}/{v:?}/parallel/p{p}");
                let topo = CartTopology::axial(p);
                let mut par = distributed(&cfg, topo, oc.steps, CommVersion::V5, false);
                maybe_perturb(oc, &par_key, &mut par);
                cells.push(compare(&par_key, &serial_key, &par, serial_field, par_expect));

                // fault-free chaos must be a bitwise no-op on the parallel run
                let chaos_key = format!("{rk}/{v:?}/chaos/p{p}");
                let mut chaos = distributed(&cfg, topo, oc.steps, CommVersion::V5, true);
                maybe_perturb(oc, &chaos_key, &mut chaos);
                cells.push(compare(&chaos_key, &par_key, &chaos, &par, Expect::Bitwise));
            }
        }

        // --- 2-D pencil decompositions (V5 kernels, grouped comm) ---------
        // Euler pencils are bitwise against serial for every shape; N-S is
        // bitwise only for pure radial splits (px = 1), where no one-sided
        // viscous axial stencils appear at internal edges.
        let cfg = base_cfg(oc, regime, Version::V5);
        for &(px, pr) in &oc.pencil_shapes {
            let topo = CartTopology::new(px, pr).unwrap_or_else(|e| panic!("pencil shape {px}x{pr}: {e}"));
            let expect = match regime {
                Regime::Euler => Expect::Bitwise,
                Regime::NavierStokes if px == 1 => Expect::Bitwise,
                Regime::NavierStokes => Expect::Rel(TOL_NS_PARALLEL),
            };
            let key = format!("{rk}/V5/pencil/{px}x{pr}");
            let mut par = distributed(&cfg, topo, oc.steps, CommVersion::V5, false);
            maybe_perturb(oc, &key, &mut par);
            cells.push(compare(&key, &v5_key, &par, &v5_field, expect));

            // fault-free chaos over the same topology is a bitwise no-op
            let chaos_key = format!("{rk}/V5/chaos-pencil/{px}x{pr}");
            let mut chaos = distributed(&cfg, topo, oc.steps, CommVersion::V5, true);
            maybe_perturb(oc, &chaos_key, &mut chaos);
            cells.push(compare(&chaos_key, &key, &chaos, &par, Expect::Bitwise));
        }

        // --- comm-protocol versions (physics-neutral, P=4) -----------------
        // V5 kernels over the configured protocols. V7 kernels over both
        // split-phase ones in every matrix: a V7 sweep updates the stations
        // whose flux stencil it emits itself and defers the rest until the
        // halo has landed, so the deferred-station rule is held against
        // `post_prims`/`finish_prims` here, not only against comm V5.
        let split_phase = [CommVersion::V6, CommVersion::V7];
        for (kernel, comms) in [(Version::V5, &oc.comm_versions[..]), (Version::V7, &split_phase[..])] {
            if !oc.versions.contains(&kernel) {
                continue;
            }
            let cfg = base_cfg(oc, regime, kernel);
            let baseline = distributed(&cfg, CartTopology::axial(4), oc.steps, CommVersion::V5, false);
            let base_key = format!("{rk}/{kernel:?}/parallel/p4");
            for &cv in comms {
                let key = format!("{base_key}/{}", comm_key(cv));
                let mut f = distributed(&cfg, CartTopology::axial(4), oc.steps, cv, false);
                maybe_perturb(oc, &key, &mut f);
                cells.push(compare(&key, &base_key, &f, &baseline, Expect::Bitwise));
            }
        }
    }
    OracleReport { grid: [oc.grid.nx, oc.grid.nr], steps: oc.steps, cells, snapshots }
}
