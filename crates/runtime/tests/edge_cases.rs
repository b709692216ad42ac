//! Runtime edge cases: degenerate single-rank universes, grid splits that
//! do not divide evenly, zero-step runs, and collective corner cases.
//! These are the boundaries of the decomposition and protocol machinery
//! that the main oracle matrix (which runs "nice" shapes) does not pin.

use ns_core::config::{Regime, SolverConfig};
use ns_core::driver::Solver;
use ns_core::field::{FluxField, Patch, PrimField};
use ns_numerics::Grid;
use ns_runtime::collectives::{allreduce_max, allreduce_sum, barrier};
use ns_runtime::comm::universe;
use ns_runtime::{
    run_parallel, run_parallel_cart, CartTopology, ChaosOptions, CommVersion, CrashSpec, FaultPlan, ReliableConfig,
    RunPlan, ThreadHalo,
};
use std::thread;
use std::time::Duration;

#[test]
fn single_rank_run_is_bitwise_serial_and_sends_nothing() {
    // P=1: both neighbours are None, every exchange must be a no-op
    let cfg = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
    let mut serial = Solver::new(cfg.clone());
    serial.run(6);
    let run = run_parallel(&cfg, 1, 6, CommVersion::V5);
    assert_eq!(serial.field.max_diff(&run.gather_field()), 0.0);
    assert_eq!(run.ranks[0].stats.sends, 0, "a lone rank has nobody to talk to");
    assert_eq!(run.ranks[0].stats.recvs, 0);
}

#[test]
fn non_divisible_splits_are_bitwise_serial() {
    // nx = 67 over 3 and 5 ranks: every remainder-handling branch of the
    // block decomposition is exercised
    let cfg = SolverConfig::paper(Grid::new(67, 24, 50.0, 5.0), Regime::Euler);
    let mut serial = Solver::new(cfg.clone());
    serial.run(4);
    for p in [3, 5] {
        let run = run_parallel(&cfg, p, 4, CommVersion::V5);
        let widths: Vec<usize> = run.ranks.iter().map(|r| r.field.patch.nxl).collect();
        assert_eq!(widths.iter().sum::<usize>(), 67, "p={p}: columns lost or duplicated");
        assert_eq!(serial.field.max_diff(&run.gather_field()), 0.0, "p={p}");
    }
}

#[test]
fn zero_step_runs_leave_the_initial_condition_untouched() {
    let cfg = SolverConfig::paper(Grid::small(), Regime::Euler);
    let serial = Solver::new(cfg.clone());
    let run = run_parallel(&cfg, 4, 0, CommVersion::V5);
    assert_eq!(serial.field.max_diff(&run.gather_field()), 0.0);
    let t = run.total_stats();
    assert_eq!(t.sends, t.recvs, "even an empty run must balance its messages");

    // the chaos driver with nothing to do must also be a no-op
    let reliability = Some(ChaosOptions { plan: FaultPlan::none(7), ..Default::default() });
    let chaos =
        ns_runtime::run(&RunPlan { reliability, ..RunPlan::new(&cfg, CartTopology::axial(4), 0, CommVersion::V5) })
            .unwrap();
    assert_eq!(serial.field.max_diff(&chaos.gather_field()), 0.0);
}

#[test]
fn halo_with_no_neighbours_is_a_no_op() {
    let patch = Patch::whole(Grid::small());
    let nr = patch.grid.nr;
    let mut eps = universe(1);
    let mut prim = PrimField::zeros(&patch);
    let mut flux = FluxField::zeros(&patch);
    {
        use ns_core::scheme::XHalo;
        let mut halo = ThreadHalo::new(&mut eps[0], None, None, patch.nxl, nr, CommVersion::V7);
        halo.begin_step(0);
        halo.exchange_prims(&mut prim);
        halo.exchange_flux(&mut flux);
        assert_eq!(halo.reduce_max(2.5), 2.5, "P=1 reduction is the identity");
    }
    assert_eq!(eps[0].stats.sends, 0);
    assert_eq!(eps[0].stats.recvs, 0);
}

#[test]
fn collectives_handle_negative_values_and_many_epochs() {
    // max over all-negative inputs (a naive 0-initialised accumulator would
    // get this wrong) and interleaved sum/max/barrier epochs on two ranks
    let eps = universe(2);
    let results: Vec<(f64, f64)> = thread::scope(|s| {
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                s.spawn(move || {
                    let mine = -(ep.rank() as f64 + 1.0); // -1, -2
                    let mx = allreduce_max(&mut ep, mine, 0).unwrap();
                    barrier(&mut ep, 1).unwrap();
                    let mut sum = 0.0;
                    for epoch in 2..30 {
                        sum = allreduce_sum(&mut ep, mine, epoch).unwrap();
                    }
                    (mx, sum)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (mx, sum) in results {
        assert_eq!(mx, -1.0, "max of negatives must not be clamped to zero");
        assert_eq!(sum, -3.0);
    }
}

#[test]
fn pencil_non_divisible_on_both_axes_is_bitwise_serial() {
    // 67 x 26 over a 3 x 2 rank grid: the remainder-handling branches of
    // the block decomposition fire on both axes at once
    let cfg = SolverConfig::paper(Grid::new(67, 26, 50.0, 5.0), Regime::Euler);
    let mut serial = Solver::new(cfg.clone());
    serial.run(4);
    let run = run_parallel_cart(&cfg, CartTopology::new(3, 2).unwrap(), 4, CommVersion::V5).unwrap();
    let cols: usize = run.ranks.iter().filter(|r| r.field.patch.j0 == 0).map(|r| r.field.patch.nxl).sum();
    let rows: usize = run.ranks.iter().filter(|r| r.field.patch.i0 == 0).map(|r| r.field.patch.nrl).sum();
    assert_eq!(cols, 67, "columns lost or duplicated across the bottom rank row");
    assert_eq!(rows, 26, "rows lost or duplicated across the left rank column");
    assert_eq!(serial.field.max_diff(&run.gather_field()), 0.0);
}

#[test]
fn one_by_one_pencil_is_a_true_no_op() {
    // the 1 x 1 topology must behave exactly like the lone axial rank:
    // bitwise serial, and not a single message on the wire
    let cfg = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
    let mut serial = Solver::new(cfg.clone());
    serial.run(4);
    let run = run_parallel_cart(&cfg, CartTopology::new(1, 1).unwrap(), 4, CommVersion::V5).unwrap();
    assert_eq!(serial.field.max_diff(&run.gather_field()), 0.0);
    assert_eq!(run.ranks[0].stats.sends, 0, "a 1x1 pencil has nobody to talk to");
    assert_eq!(run.ranks[0].stats.recvs, 0);
}

#[test]
fn degenerate_pencils_match_the_axial_and_serial_paths() {
    // P x 1 must BE the 1-D axial decomposition, message for message
    let cfg = SolverConfig::paper(Grid::small(), Regime::Euler);
    let axial = run_parallel(&cfg, 4, 4, CommVersion::V5);
    let cart = run_parallel_cart(&cfg, CartTopology::new(4, 1).unwrap(), 4, CommVersion::V5).unwrap();
    assert_eq!(axial.gather_field().max_diff(&cart.gather_field()), 0.0);
    assert_eq!(axial.total_stats().sends, cart.total_stats().sends, "same protocol, same message count");

    // 1 x P keeps every axial stencil whole, so even Navier-Stokes (whose
    // axial splits are only tolerance-equal) must be bitwise vs serial
    let ns = SolverConfig::paper(Grid::small(), Regime::NavierStokes);
    let mut serial = Solver::new(ns.clone());
    serial.run(4);
    let radial = run_parallel_cart(&ns, CartTopology::new(1, 4).unwrap(), 4, CommVersion::V5).unwrap();
    assert_eq!(serial.field.max_diff(&radial.gather_field()), 0.0);
}

#[test]
fn pencil_chaos_with_faults_replays_corner_strips_bitwise() {
    // message drops plus a mid-run crash on a 2 x 2 pencil: rollback and
    // replay must reproduce the fault-free pencil run bitwise, radial
    // corner-strip exchanges included
    let cfg = SolverConfig::paper(Grid::new(66, 24, 50.0, 5.0), Regime::NavierStokes);
    let topo = CartTopology::new(2, 2).unwrap();
    let reference = run_parallel_cart(&cfg, topo, 6, CommVersion::V5).unwrap();
    let opts = ChaosOptions {
        plan: FaultPlan {
            seed: 1995,
            drop_rate: 0.03,
            crash: Some(CrashSpec { rank: 3, step: 4 }),
            ..FaultPlan::default()
        },
        reliable: ReliableConfig { retry_timeout: Duration::from_millis(2), max_retries: 5 },
        checkpoint_every: 2,
        max_rollbacks: 8,
        recv_timeout: Duration::from_millis(250),
    };
    let chaos =
        ns_runtime::run(&RunPlan { reliability: Some(opts), ..RunPlan::new(&cfg, topo, 6, CommVersion::V5) }).unwrap();
    assert_eq!(reference.gather_field().max_diff(&chaos.gather_field()), 0.0);
    let rep = chaos.recovery.unwrap();
    assert_eq!(rep.crashes, 1, "the planned crash must have fired");
    assert!(rep.rollbacks >= 1, "recovery must have rolled back at least once");
}

#[test]
fn more_ranks_than_make_sense_still_gathers_exactly() {
    // 16 ranks on a 66-column grid: 4-column patches, ghost width 2 == half
    // a patch — the narrowest split the stencil supports
    let cfg = SolverConfig::paper(Grid::new(66, 24, 50.0, 5.0), Regime::Euler);
    let mut serial = Solver::new(cfg.clone());
    serial.run(2);
    let run = run_parallel(&cfg, 16, 2, CommVersion::V5);
    assert_eq!(run.ranks.len(), 16);
    assert_eq!(serial.field.max_diff(&run.gather_field()), 0.0);
}
