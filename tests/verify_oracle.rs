//! The ns-verify differential oracle as a tier-1 test, plus its
//! negative paths.
//!
//! The quick matrix here *is* the promoted form of the former ad-hoc
//! equivalence tests (serial vs parallel vs chaos, V5 vs V6, comm-protocol
//! neutrality) that used to live scattered across `crates/core` and
//! `tests/parallel_consistency.rs`. The negative-path tests prove the
//! instruments can fail: an oracle that stays green under a deliberate
//! perturbation verifies nothing.

use ns_core::config::Version;
use ns_core::config::{Regime, SchemeOrder, SolverConfig};
use ns_core::diag::ConservationLedger;
use ns_core::driver::Solver;
use ns_core::mms;
use ns_numerics::Grid;
use ns_runtime::{CartTopology, CommVersion};
use ns_verify::oracle::{self, OracleConfig, Perturb, Run};
use ns_verify::snapshot::{GoldenFile, SCHEMA};

#[test]
fn quick_matrix_is_green_and_golden_self_diff_passes() {
    let report = oracle::run_matrix(&OracleConfig::standard(true));
    let failing: Vec<_> = report.cells.iter().filter(|c| !c.pass).map(|c| c.key.clone()).collect();
    assert!(failing.is_empty(), "oracle cells failed: {failing:?}");
    // quick matrix shape: per regime, {V6,V7}-vs-V5 serial (2) +
    // {V5,V6,V7} x {p4 parallel, p1 chaos, p4 chaos} (9; the p1 plan is
    // the serial run itself) + {V5,V6,V7} x {1x4,2x2} x {pencil,
    // chaos-pencil} (12) + V5 kernels under comm V6 (1) + V7 kernels under
    // comm V6 and V7 (2); plus damped Euler p4, 2x2 pencil and p4 chaos
    // twin (3)
    assert_eq!(report.cells.len(), 55);
    for key in ["euler/V7/parallel/p4/commV6", "navier-stokes/V7/parallel/p4/commV7"] {
        let cell = report.cells.iter().find(|c| c.key == key).unwrap_or_else(|| panic!("no cell {key}"));
        assert_eq!((cell.expected.as_str(), cell.baseline.as_str()), ("bitwise", &key[..key.rfind('/').unwrap()]));
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

#[test]
fn oracle_catches_single_ulp_serial_perturbation() {
    let mut oc = OracleConfig::standard(true);
    oc.perturb = Some(Perturb { key: "euler/V6/serial".into(), component: 2, i: 20, j: 7 });
    let report = oracle::run_matrix(&oc);
    assert!(!report.pass(), "a single-ulp flip must break a bitwise cell");
    let failing: Vec<_> = report.cells.iter().filter(|c| !c.pass).map(|c| c.key.as_str()).collect();
    assert!(failing.contains(&"euler/V6/serial"), "failing cells: {failing:?}");
    // the perturbed serial field is also the baseline for V6's distributed
    // cells — every failure must trace back to it, nothing else
    assert!(failing.iter().all(|k| k.starts_with("euler/V6/")), "unrelated cells failed: {failing:?}");
}

#[test]
fn oracle_catches_single_ulp_parallel_perturbation() {
    let mut oc = OracleConfig::standard(true);
    oc.perturb = Some(Perturb { key: "euler/V5/parallel/p4".into(), component: 0, i: 33, j: 11 });
    let report = oracle::run_matrix(&oc);
    let failing: Vec<_> = report.cells.iter().filter(|c| !c.pass).map(|c| c.key.as_str()).collect();
    // the perturbed run fails against serial, and the chaos and comm-V6
    // runs (compared against it) fail too
    assert_eq!(
        failing,
        vec!["euler/V5/parallel/p4", "euler/V5/chaos/p4", "euler/V5/parallel/p4/commV6"],
        "failing: {failing:?}"
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
/// `oracle::expect` states against its baseline: both regimes, every kernel
/// version, every `px × pr` partition with `px <= 16` and `pr <= 4`, every
/// comm protocol, and each plan's fault-free chaos twin. The damped plans
/// (ε = `oracle::DAMPED`) run every admitted shape at kernels V5 and V7
/// under comm V5, with and without the twin: the smoothing runs after the
/// step and swaps the grouped packet under every protocol, so other rungs
/// and protocols add no path. A V1–V5 plan is compared with the serial V5
/// run (damped or not); a V6/V7 plan with its V5 twin — the same rank grid,
/// comm, chaos and ε — which `expect` holds bitwise and `run_matrix` holds
/// to the same per-rank FLOP ledgers, so a wrong ghost row on a pencil
/// cannot hide inside `TOL_NS_PARALLEL`; the twin's own cell carries the
/// serial contract. The space is small enough to enumerate, so it is
/// enumerated rather than sampled; each run executes once.
#[test]
fn every_admitted_plan_meets_its_contract() {
    let oc = OracleConfig::standard(true);
    let shapes = || (1..=16).flat_map(|px| (1..=4).map(move |pr| CartTopology::new(px, pr).unwrap()));
    let mut pairs = Vec::new();
    for regime in [Regime::Euler, Regime::NavierStokes] {
        for dissipation in [0.0, oracle::DAMPED] {
            let serial = Run { dissipation, ..Run::serial(regime, Version::V5) };
            let (versions, comms): (&[Version], &[CommVersion]) = if dissipation == 0.0 {
                (&Version::ALL, &CommVersion::ALL)
            } else {
                (&[Version::V5, Version::V7], &[CommVersion::V5])
            };
            for &version in versions {
                for topology in shapes().filter(|t| t.validate(&oc.grid).is_ok()) {
                    for &comm in comms {
                        for chaos in [false, true] {
                            let run = Run { version, topology, comm, chaos, ..serial };
                            let base =
                                if version >= Version::V6 { Run { version: Version::V5, ..run } } else { serial };
                            if run != serial {
                                pairs.push((run, base));
                            }
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        pairs.len(),
        5884,
        "2 x (7*64*3*2 - 1) undamped and 2 x (2*64*2 - 1) damped plans, less the serial runs"
    );
    let report = oracle::run_matrix(&OracleConfig { pairs, ..oc });
    let failing: Vec<_> = report
        .cells
        .iter()
        .filter(|c| !c.pass)
        .map(|c| format!("{}: expected {}, max abs diff {:e}", c.key, c.expected, c.max_abs_diff))
        .collect();
    assert!(failing.is_empty(), "{} of {} plans broke their contract: {failing:#?}", failing.len(), report.cells.len());
}
