//! Parallel-consistency coverage the ns-verify oracle does NOT subsume:
//! the Rayon shared-memory driver, adaptive-dt reduction, per-rank message
//! accounting and gather layout.
//!
//! The former serial-vs-distributed, cross-P, cross-kernel-version and
//! comm-protocol equivalence tests that lived here were promoted into the
//! ns-verify differential oracle (`crates/verify/src/oracle.rs`), which
//! runs the full V1-V6 x P x driver x protocol matrix under `jetns verify`
//! and `tests/verify_oracle.rs`.

use ns_core::config::{Regime, SolverConfig};
use ns_core::driver::Solver;

use ns_numerics::Grid;
use ns_runtime::{run_parallel, CommVersion};

fn grid() -> Grid {
    Grid::new(64, 24, 50.0, 5.0)
}

#[test]
fn shared_memory_driver_is_bitwise_serial() {
    // the Rayon driver is not in the oracle matrix — keep its own check
    let cfg = SolverConfig::paper(grid(), Regime::Euler);
    let steps = 8;
    let mut serial = Solver::new(cfg.clone());
    serial.run(steps);
    for t in [1, 3, 8] {
        let mut sh = Solver::shared(cfg.clone(), t);
        sh.run(steps);
        assert_eq!(serial.field.max_diff(&sh.field), 0.0, "threads={t}");
    }
}

#[test]
fn v6_overlap_keeps_protocol_counts() {
    // the live Version 6: identical start-ups — only the waiting moves (the
    // paper found no speedup; physics neutrality is asserted by the oracle)
    let cfg = SolverConfig::paper(grid(), Regime::Euler);
    let run = run_parallel(&cfg, 4, 5, CommVersion::V6);
    assert_eq!(run.ranks[1].stats.startups(), 12 * 5, "same start-ups as V5");
}

#[test]
fn adaptive_dt_is_identical_serial_and_parallel() {
    // the global max-reduction must give every rank the serial dt, so the
    // Euler solution stays bitwise identical
    let mut cfg = SolverConfig::paper(grid(), Regime::Euler);
    cfg.adaptive_dt = true;
    let mut serial = Solver::new(cfg.clone());
    serial.run(6);
    for p in [2, 5] {
        let run = run_parallel(&cfg, p, 6, CommVersion::V5);
        assert_eq!(serial.field.max_diff(&run.gather_field()), 0.0, "p={p}");
    }
    // shared-memory driver too
    let mut sh = Solver::shared(cfg, 4);
    sh.run(6);
    assert_eq!(serial.field.max_diff(&sh.field), 0.0);
}

#[test]
fn per_rank_accounting_is_consistent() {
    let cfg = SolverConfig::paper(grid(), Regime::NavierStokes);
    let steps = 5;
    let run = run_parallel(&cfg, 4, steps, CommVersion::V5);
    // paper protocol: interior ranks 16 start-ups/step, edges 8
    assert_eq!(run.ranks[0].stats.startups(), 8 * steps);
    assert_eq!(run.ranks[1].stats.startups(), 16 * steps);
    assert_eq!(run.ranks[2].stats.startups(), 16 * steps);
    assert_eq!(run.ranks[3].stats.startups(), 8 * steps);
    // conservation of messages: total sends == total recvs
    let t = run.total_stats();
    assert_eq!(t.sends, t.recvs);
    assert_eq!(t.bytes_sent, t.bytes_recvd);
    // every rank spent some time computing
    for r in &run.ranks {
        assert!(r.busy.as_nanos() > 0, "rank {} busy", r.rank);
    }
}

#[test]
fn gathered_field_covers_every_column_exactly_once() {
    let cfg = SolverConfig::paper(grid(), Regime::Euler);
    let run = run_parallel(&cfg, 5, 2, CommVersion::V5);
    let g = run.gather_field();
    assert!(g.interior_finite());
    // spot check: each rank's first column landed at its global offset
    for r in &run.ranks {
        let gi = r.field.patch.i0;
        for c in 0..4 {
            assert_eq!(g.at(c, gi as isize, 3), r.field.at(c, 0, 3), "rank {} comp {c}", r.rank);
        }
    }
}
