//! The cross-version / cross-P / cross-driver differential oracle.
//!
//! One fixed configuration (66 x 24 grid, excited jet, 6 steps — even, so
//! runs end on a completed `L1`/`L2` alternation) is run as one generated
//! list of `(run, baseline)` pairs, [`plan_space`]: every plan `validate`
//! admits, each against its [`Run::resets`], every run — the serial one
//! is the 1×1 plan — through `ns_runtime::run`. The resets are
//!
//! * the one-axis resets: kernel → V5, rank grid → 1×1, comm → V5,
//!   chaos → off (the recovery machinery armed on a fault-free plan must
//!   be a perfect no-op), DOALL team → 1 thread;
//! * the all-axes reset: the serial V5 run at the same dissipation.
//!
//! A pair does not say what it must hold: [`expect`] derives the verdict
//! from the two plans, and it is the only code that chooses one. Bitwise
//! identity is the design wherever no arithmetic is re-ordered (V5<->V6<->V7,
//! plus identical FLOP ledgers on the same rank grid; Euler on any rank
//! grid; chaos; comm protocols; DOALL teams); a documented tolerance
//! covers V1-V4 (different operation orderings round differently) and
//! Navier-Stokes split axially (the viscous cross-derivative stencils at
//! internal patch edges).

use std::collections::BTreeMap;

use ns_core::config::{Regime, SolverConfig, Version};
use ns_core::opcount::FlopLedger;
use ns_core::Field;
use ns_numerics::Grid;
use ns_runtime::{CartTopology, CommVersion, RunPlan, Shape};
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
/// * comm protocol, `reliability` and the DOALL team (`threads`, over
///   independent stations) re-order no arithmetic: bitwise, no rule.
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
/// kernel `version` with artificial dissipation `dissipation`, in `shape`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Run {
    /// Governing equations.
    pub regime: Regime,
    /// Kernel version.
    pub version: Version,
    /// Artificial dissipation coefficient (0: the paper's undamped scheme).
    pub dissipation: f64,
    /// Rank grid, protocol, recovery and team ([`Shape::SERIAL`] is the
    /// serial run).
    pub shape: Shape,
}

impl Run {
    /// The serial run: the 1×1 plan over comm V5.
    fn serial(regime: Regime, version: Version) -> Self {
        Self { regime, version, dissipation: 0.0, shape: Shape::SERIAL }
    }

    /// The runs this one is checked against: its one-axis resets and its
    /// all-axes reset (see the module doc), itself and duplicates dropped.
    pub fn resets(&self) -> Vec<Run> {
        let serial = Run { dissipation: self.dissipation, ..Run::serial(self.regime, Version::V5) };
        let reset = |shape| Run { shape, ..*self };
        let (s, base) = (self.shape, Shape::SERIAL);
        let mut resets: Vec<_> = [
            Run { version: serial.version, ..*self },
            reset(Shape { topology: base.topology, ..s }),
            reset(Shape { comm: base.comm, ..s }),
            reset(Shape { chaos: base.chaos, ..s }),
            reset(Shape { threads: base.threads, ..s }),
            serial,
        ]
        .into_iter()
        .filter(|reset| reset != self)
        .collect();
        // one axis off the serial run, that axis's reset is the serial run
        resets.dedup();
        resets
    }

    /// Cell key, e.g. `"euler/V6/serial"`, `"euler/V7/parallel/p4/commV6"`,
    /// `"navier-stokes/V5/chaos-pencil/2x2/t2"` or `"euler/V5/parallel/p4/eps0.002"`.
    pub fn key(&self) -> String {
        let eps = if self.dissipation == 0.0 { String::new() } else { format!("/eps{}", self.dissipation) };
        format!("{}/{:?}/{}{eps}", self.regime.key(), self.version, self.shape.name())
    }

    fn cfg(&self, grid: &Grid) -> SolverConfig {
        let paper = SolverConfig::paper(grid.clone(), self.regime);
        SolverConfig { version: self.version, dissipation: self.dissipation, ..paper }
    }
}

/// Oracle configuration: the fixed run shape and the pairs to compare.
#[derive(Clone, Debug)]
pub struct OracleConfig {
    /// Grid (identical for every cell; golden snapshots pin it).
    pub grid: Grid,
    /// Steps per run (even, so runs end on a completed `L1`/`L2` alternation).
    pub steps: u64,
    /// `(run, baseline)` pairs, one cell each; runs are keyed by
    /// [`Run::key`], so a run shared by several pairs is executed once.
    pub pairs: Vec<(Run, Run)>,
    /// Fault injection for negative-path tests (`None` in production).
    pub perturb: Option<Perturb>,
}

impl OracleConfig {
    /// The oracle: [`plan_space`] on the 66 x 24 grid, 6 steps.
    pub fn standard() -> Self {
        let grid = Grid::new(66, 24, 50.0, 5.0);
        Self { pairs: plan_space(&grid), grid, steps: 6, perturb: None }
    }
}

/// Every plan `validate` admits on `grid`, each paired with every one of
/// its [`Run::resets`]: both regimes, every kernel version, every `px × pr`
/// rank grid with `px <= 16` and `pr <= 4`, every comm protocol, chaos on
/// and off, each undamped and damped ([`DAMPED`]), two threads on a slice.
/// The space is small enough to enumerate, so it is enumerated.
pub fn plan_space(grid: &Grid) -> Vec<(Run, Run)> {
    let topologies: Vec<_> = (1..=16)
        .flat_map(|px| (1..=4).map(move |pr| CartTopology::new(px, pr).expect("rank grid")))
        .filter(|t| t.validate(grid).is_ok())
        .collect();
    [Regime::Euler, Regime::NavierStokes]
        .into_iter()
        .flat_map(|regime| [0.0, DAMPED].map(|dissipation| Run { dissipation, ..Run::serial(regime, Version::V5) }))
        .flat_map(|run| Version::ALL.map(|version| Run { version, ..run }))
        .flat_map(|run| topologies.iter().map(move |&topology| Run { shape: Shape { topology, ..run.shape }, ..run }))
        .flat_map(|run| CommVersion::ALL.map(|comm| Run { shape: Shape { comm, ..run.shape }, ..run }))
        .flat_map(|run| [false, true].map(|chaos| Run { shape: Shape { chaos, ..run.shape }, ..run }))
        // the smoothing runs after the step and swaps the grouped packet
        // under every protocol: V5 and V7 under comm V5 cover its paths
        .filter(|run| {
            let comm_v5 = run.shape.comm == CommVersion::V5;
            run.dissipation == 0.0 || (matches!(run.version, Version::V5 | Version::V7) && comm_v5)
        })
        // only V5's station loops use a team: V5 under comm V5 on rank
        // grids up to 2x2 covers it, with rollback armed on 2x2
        .flat_map(|run| [1, 2].map(|threads| Run { shape: Shape { threads, ..run.shape }, ..run }))
        .filter(|run| {
            let Shape { topology: CartTopology { px, pr }, comm, chaos, threads } = run.shape;
            let slice = run.version == Version::V5 && comm == CommVersion::V5 && px.max(pr) <= 2;
            threads == 1 || (slice && (!chaos || px * pr == 4))
        })
        .flat_map(|run| run.resets().into_iter().map(move |base| (run, base)))
        .collect()
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
    let out = ns_runtime::run(&run.shape.plan(&cfg, oc.steps)).unwrap_or_else(|e| panic!("{}: {e}", run.key()));
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
        let expect = expect(&run.shape.plan(&cfg, oc.steps), &base.shape.plan(&base_cfg, oc.steps))
            .unwrap_or_else(|| panic!("{}: no contract relates it to {}", run.key(), base.key()));
        let ((field, ledgers), (base_field, base_ledgers)) = (&runs[&run.key()], &runs[&base.key()]);
        let mut cell = compare(&run.key(), &base.key(), field, base_field, expect);
        // a bitwise twin on the same rank grid must also account identical FLOPs
        if expect.is_bitwise() && run.shape.topology == base.shape.topology && ledgers != base_ledgers {
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
    use ns_runtime::{ChaosOptions, FaultPlan};

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

    /// Nothing else pins the cells' keys, so a refactor could rename or
    /// drop a cell silently: the sorted `(key, baseline key, verdict)`
    /// triples of the plan list hash (FNV-1a, as the snapshots) to the
    /// value taken before the run shape became a `Shape`.
    #[test]
    fn the_plan_list_is_pinned() {
        let oc = OracleConfig::standard();
        let mut triples: Vec<String> = oc
            .pairs
            .iter()
            .map(|(run, base)| {
                let (cfg, base_cfg) = (run.cfg(&oc.grid), base.cfg(&oc.grid));
                let verdict = expect(&run.shape.plan(&cfg, oc.steps), &base.shape.plan(&base_cfg, oc.steps));
                format!("{}\t{}\t{:?}\n", run.key(), base.key(), verdict.expect("a contract"))
            })
            .collect();
        triples.sort();
        assert_eq!(triples.len(), 22_854);
        let hash = triples.iter().fold(snapshot::FNV_OFFSET, |h, t| snapshot::fnv1a(h, t.as_bytes()));
        assert_eq!(hash, 0xd6d8_44ed_a6c7_0f01, "the plan list's keys or verdicts moved");
    }

    #[test]
    fn resets_reset_one_axis_each_then_all() {
        let keys = |run: Run| run.resets().iter().map(Run::key).collect::<Vec<_>>();
        assert!(keys(Run::serial(Regime::Euler, Version::V5)).is_empty(), "the serial V5 run is every reset");
        assert_eq!(keys(Run::serial(Regime::Euler, Version::V3)), ["euler/V5/serial"], "one axis: one reset");
        let pencil = CartTopology::new(2, 2).unwrap();
        let shape = Shape { topology: pencil, comm: CommVersion::V6, chaos: true, threads: 1 };
        let twin = Run { shape, ..Run::serial(Regime::NavierStokes, Version::V7) };
        assert_eq!(
            keys(twin),
            [
                "navier-stokes/V5/chaos-pencil/2x2/commV6",
                "navier-stokes/V7/chaos/p1/commV6",
                "navier-stokes/V7/chaos-pencil/2x2",
                "navier-stokes/V7/pencil/2x2/commV6",
                "navier-stokes/V5/serial",
            ]
        );
        let shape = Shape { topology: CartTopology::axial(4), ..Shape::SERIAL };
        let damped = Run { shape, dissipation: DAMPED, ..Run::serial(Regime::Euler, Version::V7) };
        assert_eq!(
            keys(damped),
            ["euler/V5/parallel/p4/eps0.002", "euler/V7/serial/eps0.002", "euler/V5/serial/eps0.002"]
        );
        let shape = Shape { comm: CommVersion::V5, threads: 2, ..twin.shape };
        let teamed = Run { version: Version::V5, shape, ..twin };
        assert_eq!(
            keys(teamed),
            [
                "navier-stokes/V5/chaos/p1/t2",
                "navier-stokes/V5/pencil/2x2/t2",
                "navier-stokes/V5/chaos-pencil/2x2",
                "navier-stokes/V5/serial",
            ]
        );
    }

    #[test]
    fn plan_space_pairs_every_plan_with_its_resets() {
        let oc = OracleConfig::standard();
        assert_eq!(oc.pairs.len(), 22_854);
        let mut baselines: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (run, base) in &oc.pairs {
            assert_ne!(run, base, "no run is its own baseline");
            let (cfg, base_cfg) = (run.cfg(&oc.grid), base.cfg(&oc.grid));
            let verdict = expect(&run.shape.plan(&cfg, oc.steps), &base.shape.plan(&base_cfg, oc.steps));
            assert!(verdict.is_some(), "{} vs {}: no contract", run.key(), base.key());
            baselines.entry(base.key()).or_default();
            baselines.entry(run.key()).or_default().push(base.key());
        }
        assert_eq!(
            baselines.len(),
            5_912,
            "2 x (7*64*3*2) undamped and 2 x (2*64*2) damped runs, 2 x 2 x 5 two-thread runs and their 4 chaos/p1/t2 resets"
        );
        // every run is paired with each of its resets, once, and with
        // nothing else: the list holds every pair the hand-kept matrices
        // and the tier-1 enumeration held
        for (run, _) in &oc.pairs {
            let mut got = baselines[&run.key()].clone();
            let mut want: Vec<_> = run.resets().iter().map(Run::key).collect();
            got.sort();
            want.sort();
            assert_eq!(got, want, "{}", run.key());
        }
        // V1-V4 on any Euler rank grid are bitwise their own serial run,
        // and the V6/V7 pencils their V5 twins
        let verdict = |key: &str, base: &str| {
            let (run, base) = oc.pairs.iter().find(|(r, b)| r.key() == key && b.key() == base).expect("pair");
            let (cfg, base_cfg) = (run.cfg(&oc.grid), base.cfg(&oc.grid));
            expect(&run.shape.plan(&cfg, oc.steps), &base.shape.plan(&base_cfg, oc.steps))
        };
        assert_eq!(verdict("euler/V3/pencil/4x2", "euler/V3/serial"), Some(Expect::Bitwise));
        assert_eq!(
            verdict("navier-stokes/V7/chaos-pencil/2x2/commV6", "navier-stokes/V5/chaos-pencil/2x2/commV6"),
            Some(Expect::Bitwise)
        );
        assert_eq!(
            verdict("navier-stokes/V3/pencil/4x2", "navier-stokes/V5/serial"),
            Some(Expect::Rel(TOL_VERSION + TOL_NS_PARALLEL))
        );
        // a team is bitwise its teamless twin, ranks and rollback armed or not
        assert_eq!(
            verdict("navier-stokes/V5/chaos-pencil/2x2/t2/eps0.002", "navier-stokes/V5/chaos-pencil/2x2/eps0.002"),
            Some(Expect::Bitwise)
        );
        assert_eq!(verdict("euler/V5/serial/t2", "euler/V5/serial"), Some(Expect::Bitwise));
    }
}
