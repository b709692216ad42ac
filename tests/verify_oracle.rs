//! The ns-verify differential oracle as a tier-1 test, plus its
//! negative paths.
//!
//! The oracle's one plan list (`oracle::plan_space`) *is* the promoted form
//! of the former ad-hoc equivalence tests (serial vs parallel vs chaos, V5
//! vs V6, comm-protocol neutrality) that used to live scattered across
//! `crates/core` and `tests/parallel_consistency.rs`. The negative-path
//! tests prove the instruments can fail: an oracle that stays green under a
//! deliberate perturbation verifies nothing.

use ns_core::config::{Regime, SchemeOrder, SolverConfig};
use ns_core::diag::ConservationLedger;
use ns_core::driver::Solver;
use ns_core::mms;
use ns_numerics::Grid;
use ns_runtime::CartTopology;
use ns_verify::oracle::{self, OracleConfig, Perturb};
use ns_verify::snapshot::{GoldenFile, SCHEMA};

/// The pairs of the one list whose run and baseline both lie on 1×1, 4×1
/// or 2×2, one ulp flipped in the run `key`: the `(run, baseline)` keys of
/// the cells that fail.
fn failing_on_the_corner(key: &str, component: usize, i: usize, j: usize) -> Vec<(String, String)> {
    let mut oc = OracleConfig::standard();
    let corner = |t: CartTopology| [(1, 1), (4, 1), (2, 2)].contains(&(t.px, t.pr));
    oc.pairs.retain(|(run, base)| corner(run.shape.topology) && corner(base.shape.topology));
    assert_eq!(oc.pairs.len(), 992);
    oc.perturb = Some(Perturb { key: key.into(), component, i, j });
    let report = oracle::run_matrix(&oc);
    let mut failing: Vec<_> =
        report.cells.iter().filter(|c| !c.pass).map(|c| (c.key.clone(), c.baseline.clone())).collect();
    failing.sort();
    failing
}

fn pairs(cells: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut pairs: Vec<_> = cells.iter().map(|&(run, base)| (run.to_string(), base.to_string())).collect();
    pairs.sort();
    pairs
}

#[test]
fn oracle_catches_single_ulp_serial_perturbation() {
    // the perturbed run fails against serial V5, and every run whose
    // baseline it is fails too (V6's distributed, chaos and comm twins);
    // nothing else does
    assert_eq!(
        failing_on_the_corner("euler/V6/serial", 2, 20, 7),
        pairs(&[
            ("euler/V6/serial", "euler/V5/serial"),
            ("euler/V6/chaos/p1", "euler/V6/serial"),
            ("euler/V6/serial/commV6", "euler/V6/serial"),
            ("euler/V6/serial/commV7", "euler/V6/serial"),
            ("euler/V6/pencil/2x2", "euler/V6/serial"),
            ("euler/V6/parallel/p4", "euler/V6/serial"),
        ])
    );
}

#[test]
fn oracle_catches_single_ulp_parallel_perturbation() {
    // the perturbed run fails against serial, and its chaos and comm twins
    // and the V6/V7 runs on its grid (compared against it) fail too; the
    // V1-V4 runs on its grid hold it only to a tolerance, so they pass
    assert_eq!(
        failing_on_the_corner("euler/V5/parallel/p4", 0, 33, 11),
        pairs(&[
            ("euler/V5/parallel/p4", "euler/V5/serial"),
            ("euler/V5/chaos/p4", "euler/V5/parallel/p4"),
            ("euler/V5/parallel/p4/commV6", "euler/V5/parallel/p4"),
            ("euler/V5/parallel/p4/commV7", "euler/V5/parallel/p4"),
            ("euler/V6/parallel/p4", "euler/V5/parallel/p4"),
            ("euler/V7/parallel/p4", "euler/V5/parallel/p4"),
        ])
    );
}

#[test]
fn conservation_ledger_flags_unexplained_drift() {
    let cfg = SolverConfig::paper(Grid::small(), Regime::Euler);
    let mut solver = Solver::new(cfg);
    let gas = *solver.gas();
    let mut ledger = ConservationLedger::open(&solver.field, &gas);
    for _ in 0..40 {
        solver.step();
        ledger.record(&solver.field, &gas, solver.dt());
    }
    let clean = ledger.close(&solver.field);
    assert!(
        clean.residual_rel.iter().all(|&r| r <= ns_verify::conservation::TOL_JET),
        "clean run residuals {:?}",
        clean.residual_rel
    );

    // inject mass the boundary budget cannot explain: 1% on the density
    // component everywhere
    let mut bad = solver.field.clone();
    for i in 0..bad.nxl() {
        for j in 0..bad.nr() {
            let v = bad.at(0, i as isize, j as isize);
            bad.set(0, i as isize, j as isize, v * 1.01);
        }
    }
    let dirty = ledger.close(&bad);
    assert!(
        dirty.residual_rel[0] > ns_verify::conservation::TOL_JET,
        "a 1% mass injection must exceed the jet tolerance: residual {:?}",
        dirty.residual_rel
    );
    assert!(dirty.residual_rel[0] > 100.0 * clean.residual_rel[0]);
}

#[test]
fn mms_norms_detect_a_perturbed_solution() {
    let (cfg, steps) = ns_verify::mms::level_config(Regime::Euler, SchemeOrder::TwoFour, 0);
    let spec = cfg.mms.unwrap();
    let mut solver = Solver::new(cfg);
    solver.run(steps);
    let gas = *solver.gas();
    let exact = mms::exact_field(&spec, solver.field.patch.clone(), &gas);
    let (l2_clean, linf_clean) = ns_verify::mms::error_norms(&solver.field, &exact);
    assert!(l2_clean < 1e-4, "level-0 interior error should be converged: {l2_clean}");

    let mut bad = solver.field.clone();
    let v = bad.at(1, 30, 8);
    bad.set(1, 30, 8, v + 1.0);
    let (_, linf_bad) = ns_verify::mms::error_norms(&bad, &exact);
    assert!(
        linf_bad > 10.0 * linf_clean.max(1e-6),
        "a perturbed cell must dominate the max-norm: {linf_bad} vs clean {linf_clean}"
    );
}

/// Every plan `validate` admits on the oracle grid meets the contract
/// `oracle::expect` states against each of its resets: the one generated
/// list, `oracle::plan_space`, that `jetns verify` and CI's gate run too.
/// A V6/V7 plan against its V5 twin is held bitwise and, by `run_matrix`,
/// to the same per-rank FLOP ledgers, so a wrong ghost row on a pencil
/// cannot hide inside `TOL_NS_PARALLEL`; each run executes once. The
/// serial V5 snapshots round-trip into a golden file.
#[test]
fn every_admitted_plan_meets_its_contract() {
    let report = oracle::run_matrix(&OracleConfig::standard());
    let failing: Vec<_> = report
        .cells
        .iter()
        .filter(|c| !c.pass)
        .map(|c| format!("{} vs {}: expected {}, max abs diff {:e}", c.key, c.baseline, c.expected, c.max_abs_diff))
        .collect();
    assert!(failing.is_empty(), "{} of {} cells broke their contract: {failing:#?}", failing.len(), report.cells.len());
    assert_eq!(report.cells.len(), 22_854);
    // V7's sweeps update the stations whose flux stencil they emit and
    // defer the rest until the halo has landed: bitwise under both
    // split-phase protocols; and a DOALL team on every rank of a pencil
    // with rollback armed is bitwise its teamless twin
    for key in
        ["euler/V7/parallel/p4/commV6", "navier-stokes/V7/parallel/p4/commV7", "navier-stokes/V5/chaos-pencil/2x2/t2"]
    {
        let base = &key[..key.rfind('/').unwrap()];
        let cell = report.cells.iter().find(|c| c.key == key && c.baseline == base);
        assert_eq!(cell.map(|c| c.expected.as_str()), Some("bitwise"), "{key} vs {base}");
    }
    assert_eq!(report.snapshots.len(), 2, "one serial V5 reference per regime");

    // the snapshots round-trip into a golden file that diffs clean against
    // itself, and a tampered hash is caught
    let golden =
        GoldenFile { schema: SCHEMA, grid: report.grid, steps: report.steps, entries: report.snapshots.clone() };
    assert!(golden.diff(&golden).pass);
    let mut tampered = golden.clone();
    tampered.entries.get_mut("euler/serial/V5").unwrap().hash = "0000000000000000".into();
    assert!(!golden.diff(&tampered).pass);
}
