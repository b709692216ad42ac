//! The cross-version / cross-P / cross-driver differential oracle.
//!
//! One fixed configuration (66 x 24 grid, excited jet, 6 steps — even, so
//! runs end on a completed `L1`/`L2` alternation) is run as a list of
//! `(run, baseline)` pairs, every run — the serial one is the 1×1 plan —
//! through `ns_runtime::run`:
//!
//! * every kernel `Version` rung against V5, serially;
//! * each rung on P axial ranks and the V5 rung on 2-D pencils, against
//!   serial;
//! * the same plans with `reliability` armed on a fault-free plan (the
//!   recovery machinery must be a perfect no-op when nothing fails);
//! * the comm-protocol versions V5/V6/V7, under the V5 kernels and under
//!   V7's, whose sweeps carry the update;
//! * damped Euler (artificial dissipation [`DAMPED`]) on slabs, a pencil
//!   and under recovery, against the damped serial run.
//!
//! A pair does not say what it must hold: [`expect`] derives the verdict
//! from the two plans, and it is the only code that chooses one. Bitwise
//! identity is the design wherever no arithmetic is re-ordered (V5<->V6<->V7,
//! plus identical FLOP ledgers; Euler on any rank grid; chaos; comm
//! protocols); a documented tolerance covers V1-V4 (different operation
//! orderings round differently) and Navier-Stokes split axially (the
//! viscous cross-derivative stencils at internal patch edges).

use std::collections::BTreeMap;

use ns_core::config::{Regime, SolverConfig, Version};
use ns_core::opcount::FlopLedger;
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

/// The artificial dissipation of the oracle's damped runs (the flow-physics
/// default of `jetns run`).
pub const DAMPED: f64 = 0.002;

/// What a cell is allowed to differ by from its baseline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expect {
    /// Bitwise identity (max abs diff must be exactly zero).
    Bitwise,
    /// Relative agreement: `max_diff / scale <= tol`.
    Rel(f64),
}

impl Expect {
    /// Whether this is the bitwise verdict.
    pub fn is_bitwise(self) -> bool {
        match self {
            Expect::Bitwise => true,
            Expect::Rel(_) => false,
        }
    }
}

/// The verdict the design guarantees between two plans of the same physics:
/// one rule per axis on which they differ, the tolerances summed, bitwise
/// only when every axis is.
///
/// * kernel version: V5, V6 and V7 re-order memory, never arithmetic, so
///   any two of them are bitwise; any other pair is [`TOL_VERSION`];
/// * rank grid: the same rank grid on both sides, Euler, or both plans
///   unsplit axially (`px == 1`), is bitwise; Navier-Stokes split axially
///   on different grids is [`TOL_NS_PARALLEL`];
/// * comm protocol and `reliability` move the same data: bitwise.
///
/// `None` when the plans differ in anything else (the rest of the solver
/// configuration, the step count): no contract relates those runs.
pub fn expect(plan: &RunPlan<'_>, baseline: &RunPlan<'_>) -> Option<Expect> {
    let (a, b) = (plan.cfg, baseline.cfg);
    if plan.nsteps != baseline.nsteps || *a != (SolverConfig { version: a.version, ..b.clone() }) {
        return None;
    }
    let bitwise_rung = |v: Version| v >= Version::V5;
    let same_arithmetic = a.version == b.version || (bitwise_rung(a.version) && bitwise_rung(b.version));
    let version = if same_arithmetic { 0.0 } else { TOL_VERSION };
    let (p, q) = (plan.topology, baseline.topology);
    let axial_unsplit = p.px == 1 && q.px == 1;
    let topology = if p == q || a.regime == Regime::Euler || axial_unsplit { 0.0 } else { TOL_NS_PARALLEL };
    let tol = version + topology;
    Some(if tol == 0.0 { Expect::Bitwise } else { Expect::Rel(tol) })
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

/// One run of the matrix: the oracle's configuration in `regime` under
/// kernel `version` with artificial dissipation `dissipation`, on
/// `topology` over `comm`, with the recovery machinery armed on a
/// fault-free plan when `chaos`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Run {
    /// Governing equations.
    pub regime: Regime,
    /// Kernel version.
    pub version: Version,
    /// Rank grid (1×1 is the serial run).
    pub topology: CartTopology,
    /// Halo protocol.
    pub comm: CommVersion,
    /// Recovery machinery armed, nothing injected.
    pub chaos: bool,
    /// Artificial dissipation coefficient (0: the paper's undamped scheme).
    pub dissipation: f64,
}

impl Run {
    /// The serial run: the 1×1 plan over comm V5.
    pub fn serial(regime: Regime, version: Version) -> Self {
        let topology = CartTopology::axial(1);
        Self { regime, version, topology, comm: CommVersion::V5, chaos: false, dissipation: 0.0 }
    }

    /// Cell key, e.g. `"euler/V6/serial"`, `"euler/V7/parallel/p4/commV6"`,
    /// `"navier-stokes/V5/chaos-pencil/2x2"` or `"euler/V5/parallel/p4/eps0.002"`.
    pub fn key(&self) -> String {
        let CartTopology { px, pr } = self.topology;
        let shape = match (px * pr, pr, self.chaos) {
            (1, _, false) => "serial".to_string(),
            (_, 1, false) => format!("parallel/p{px}"),
            (_, 1, true) => format!("chaos/p{px}"),
            (_, _, false) => format!("pencil/{px}x{pr}"),
            (_, _, true) => format!("chaos-pencil/{px}x{pr}"),
        };
        let comm = if self.comm == CommVersion::V5 { String::new() } else { format!("/comm{}", self.comm.name()) };
        let eps = if self.dissipation == 0.0 { String::new() } else { format!("/eps{}", self.dissipation) };
        format!("{}/{:?}/{shape}{comm}{eps}", self.regime.key(), self.version)
    }

    fn cfg(&self, grid: &Grid) -> SolverConfig {
        let paper = SolverConfig::paper(grid.clone(), self.regime);
        SolverConfig { version: self.version, dissipation: self.dissipation, ..paper }
    }

    fn plan<'a>(&self, cfg: &'a SolverConfig, steps: u64) -> RunPlan<'a> {
        // a checkpoint cadence shorter than the run, no faults planned
        let chaos = || ChaosOptions { plan: FaultPlan::none(42), checkpoint_every: 3, ..Default::default() };
        RunPlan { reliability: self.chaos.then(chaos), ..RunPlan::new(cfg, self.topology, steps, self.comm) }
    }
}

/// Oracle configuration: the fixed run shape and the pairs to compare.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Grid (identical for every cell; golden snapshots pin it).
    pub grid: Grid,
    /// Steps per run (even, fixed across quick/full so goldens match).
    pub steps: u64,
    /// `(run, baseline)` pairs, one cell each; runs are keyed by
    /// [`Run::key`], so a run shared by several pairs is executed once.
    pub pairs: Vec<(Run, Run)>,
    /// Fault injection for negative-path tests (`None` in production).
    pub perturb: Option<Perturb>,
}

impl OracleConfig {
    /// The standard matrix. `quick` trims to the corners that catch nearly
    /// everything (V5/V6/V7 on P in {1,4} and the 1x4, 2x2 pencils, comm V6)
    /// for the CI gate; the full matrix is V1-V7 x {P x 1 for P in
    /// {1,2,4,8,16}, 1x4, 2x2, 4x2} x all drivers. Both carry the three
    /// damped Euler cells.
    pub fn standard(quick: bool) -> Self {
        use CommVersion as C;
        type Axes = (&'static [Version], &'static [usize], &'static [(usize, usize)], &'static [CommVersion]);
        let (versions, procs, pencils, comms): Axes = if quick {
            (&[Version::V5, Version::V6, Version::V7], &[1, 4], &[(1, 4), (2, 2)], &[C::V6])
        } else {
            (&Version::ALL, &[1, 2, 4, 8, 16], &[(1, 4), (2, 2), (4, 2)], &[C::V6, C::V7])
        };
        let mut pairs = Vec::new();
        for regime in [Regime::Euler, Regime::NavierStokes] {
            let serial = |v| Run::serial(regime, v);
            for &v in versions.iter().filter(|&&v| v != Version::V5) {
                pairs.push((serial(v), serial(Version::V5)));
            }
            // every rung on every slab and pencil; on one rank the plan is
            // the serial run itself, so only its chaos twin is a cell
            let slabs = procs.iter().map(|&p| (p, 1));
            for &v in versions {
                for (px, pr) in slabs.clone().chain(pencils.iter().copied()) {
                    let split = Run { topology: CartTopology::new(px, pr).expect("rank grid"), ..serial(v) };
                    if px * pr > 1 {
                        pairs.push((split, serial(v)));
                    }
                    pairs.push((Run { chaos: true, ..split }, split));
                }
            }
            // V7's sweeps update the stations whose flux stencil they emit
            // and defer the rest until the halo has landed, so V7 kernels
            // run under both split-phase protocols in every matrix
            for (kernel, comms) in [(Version::V5, comms), (Version::V7, &[C::V6, C::V7][..])] {
                let base = Run { topology: CartTopology::axial(4), ..serial(kernel) };
                pairs.extend(comms.iter().map(|&comm| (Run { comm, ..base }, base)));
            }
        }
        // the smoothing halo: damped Euler on slabs, a pencil and under
        // recovery, each bitwise its damped baseline
        let damped = Run { dissipation: DAMPED, ..Run::serial(Regime::Euler, Version::V5) };
        let p4 = Run { topology: CartTopology::axial(4), ..damped };
        let pencil = Run { topology: CartTopology::new(2, 2).expect("pencil shape"), ..damped };
        pairs.extend([(p4, damped), (pencil, damped), (Run { chaos: true, ..p4 }, p4)]);
        Self { grid: Grid::new(66, 24, 50.0, 5.0), steps: 6, pairs, perturb: None }
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

/// The gathered field and per-rank FLOP ledgers of one run, perturbed
/// when the config names its key.
fn execute(oc: &OracleConfig, run: &Run) -> (Field, Vec<FlopLedger>) {
    let cfg = run.cfg(&oc.grid);
    let out = ns_runtime::run(&run.plan(&cfg, oc.steps)).unwrap_or_else(|e| panic!("{}: {e}", run.key()));
    let mut field = out.gather_field();
    if let Some(p) = oc.perturb.as_ref().filter(|p| p.key == run.key()) {
        let v = field.at(p.component, p.i as isize, p.j as isize);
        field.set(p.component, p.i as isize, p.j as isize, f64::from_bits(v.to_bits() ^ 1));
    }
    (field, out.ranks.iter().map(|r| r.ledger).collect())
}

fn compare(key: &str, baseline: &str, a: &Field, b: &Field, expect: Expect) -> OracleCell {
    let max_abs_diff = a.max_diff(b);
    // the baseline's largest interior magnitude (NaN when it holds one)
    let scale = b.max_diff(&Field::zeros(b.patch.clone()));
    let rel_diff = max_abs_diff / if scale == 0.0 { f64::MIN_POSITIVE } else { scale };
    // a NaN difference meets neither verdict
    let (expected, pass) = match expect {
        Expect::Bitwise => ("bitwise".to_string(), max_abs_diff == 0.0),
        Expect::Rel(tol) => (format!("rel<={tol:e}"), rel_diff <= tol),
    };
    OracleCell { key: key.to_string(), baseline: baseline.to_string(), expected, max_abs_diff, rel_diff, pass }
}

/// Run the differential-oracle matrix: every pair's run against its
/// baseline, under the verdict [`expect`] derives from the two plans.
pub fn run_matrix(oc: &OracleConfig) -> OracleReport {
    assert!(oc.steps.is_multiple_of(2), "runs must end on a completed L1/L2 alternation");
    let mut runs = BTreeMap::new();
    let mut cells = Vec::new();
    for (run, base) in &oc.pairs {
        for r in [run, base] {
            runs.entry(r.key()).or_insert_with(|| execute(oc, r));
        }
        let (cfg, base_cfg) = (run.cfg(&oc.grid), base.cfg(&oc.grid));
        let expect = expect(&run.plan(&cfg, oc.steps), &base.plan(&base_cfg, oc.steps))
            .unwrap_or_else(|| panic!("{}: no contract relates it to {}", run.key(), base.key()));
        let ((field, ledgers), (base_field, base_ledgers)) = (&runs[&run.key()], &runs[&base.key()]);
        let mut cell = compare(&run.key(), &base.key(), field, base_field, expect);
        // the fused and SoA rungs must also account identical FLOPs
        let same_grid_other_rung = run.version != base.version && run.topology == base.topology;
        if expect.is_bitwise() && same_grid_other_rung && ledgers != base_ledgers {
            cell.pass = false;
            cell.expected = "bitwise+ledger".to_string();
        }
        cells.push(cell);
    }
    let snapshots = [Regime::Euler, Regime::NavierStokes]
        .into_iter()
        .filter_map(|regime| {
            let (field, _) = runs.get(&Run::serial(regime, Version::V5).key())?;
            Some((format!("{}/serial/V5", regime.key()), snapshot::of(field)))
        })
        .collect();
    OracleReport { grid: [oc.grid.nx, oc.grid.nr], steps: oc.steps, cells, snapshots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_core::field::Patch;

    fn plan(cfg: &SolverConfig, px: usize, pr: usize) -> RunPlan<'_> {
        RunPlan::new(cfg, CartTopology::new(px, pr).unwrap(), 6, CommVersion::V5)
    }

    fn cfg(regime: Regime, version: Version) -> SolverConfig {
        Run::serial(regime, version).cfg(&Grid::new(66, 24, 50.0, 5.0))
    }

    /// `f64::max` returns its non-NaN operand, so a fold over it reads a
    /// NaN point as "no difference" and passes it as bitwise.
    #[test]
    fn a_nan_point_fails_every_verdict() {
        let clean = Field::zeros(Patch::whole(Grid::small()));
        let mut nan = clean.clone();
        nan.set(1, 3, 4, f64::NAN);
        assert!(nan.max_diff(&clean).is_nan() && clean.max_diff(&nan).is_nan());
        for expect in [Expect::Bitwise, Expect::Rel(1.0)] {
            assert!(!compare("nan", "clean", &nan, &clean, expect).pass, "{expect:?}: NaN run passed");
            assert!(!compare("clean", "nan", &clean, &nan, expect).pass, "{expect:?}: NaN baseline passed");
        }
        assert!(compare("clean", "clean", &clean, &clean, Expect::Bitwise).pass);
    }

    #[test]
    fn expect_composes_one_rule_per_axis() {
        let (euler, ns) = (cfg(Regime::Euler, Version::V5), cfg(Regime::NavierStokes, Version::V5));
        let (ns_v3, ns_v7) = (cfg(Regime::NavierStokes, Version::V3), cfg(Regime::NavierStokes, Version::V7));
        let serial = plan(&ns, 1, 1);
        // kernel version
        assert_eq!(expect(&plan(&ns_v7, 1, 1), &serial), Some(Expect::Bitwise));
        assert_eq!(expect(&plan(&ns_v3, 1, 1), &serial), Some(Expect::Rel(TOL_VERSION)));
        // rank grid
        assert_eq!(expect(&plan(&euler, 2, 2), &plan(&euler, 1, 1)), Some(Expect::Bitwise));
        assert_eq!(expect(&plan(&ns, 1, 4), &serial), Some(Expect::Bitwise));
        assert_eq!(expect(&plan(&ns, 2, 1), &serial), Some(Expect::Rel(TOL_NS_PARALLEL)));
        assert_eq!(expect(&plan(&ns, 2, 2), &plan(&ns, 2, 1)), Some(Expect::Rel(TOL_NS_PARALLEL)));
        assert_eq!(expect(&plan(&ns_v7, 2, 2), &plan(&ns, 2, 2)), Some(Expect::Bitwise), "same rank grid");
        // comm and reliability
        let chaos = ChaosOptions { plan: FaultPlan::none(1), ..Default::default() };
        let twin = RunPlan { comm: CommVersion::V7, reliability: Some(chaos), ..plan(&ns, 4, 1) };
        assert_eq!(expect(&twin, &plan(&ns, 4, 1)), Some(Expect::Bitwise));
        // several axes: the tolerances add up
        assert_eq!(expect(&plan(&ns_v3, 2, 2), &serial), Some(Expect::Rel(TOL_VERSION + TOL_NS_PARALLEL)));
        assert_eq!(expect(&plan(&ns_v7, 1, 4), &serial), Some(Expect::Bitwise));
    }

    #[test]
    fn expect_relates_no_pairs_of_different_physics() {
        let (euler, ns) = (cfg(Regime::Euler, Version::V5), cfg(Regime::NavierStokes, Version::V5));
        assert_eq!(expect(&plan(&euler, 1, 1), &plan(&ns, 1, 1)), None);
        let longer = RunPlan { nsteps: 8, ..plan(&ns, 1, 1) };
        assert_eq!(expect(&longer, &plan(&ns, 1, 1)), None);
    }

    #[test]
    fn standard_matrices_key_every_run_once() {
        for (quick, cells) in [(true, 55), (false, 233)] {
            let oc = OracleConfig::standard(quick);
            assert_eq!(oc.pairs.len(), cells);
            let keys: std::collections::BTreeSet<_> = oc.pairs.iter().map(|(run, _)| run.key()).collect();
            assert_eq!(keys.len(), cells, "one cell per run");
            assert!(oc.pairs.iter().all(|(run, base)| run != base), "no run is its own baseline");
        }
    }
}
