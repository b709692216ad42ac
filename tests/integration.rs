//! End-to-end integration across all crates: the live solver's traced run
//! is the step program the platform simulator replays, and the measured
//! runtime statistics must line up with the replay.

use ns_archsim::{record, simulate, simulate_traced, Platform, SimConfig};
use ns_core::config::{Regime, SolverConfig, Version};
use ns_core::driver::Solver;
use ns_experiments::{all_reports, fig_flow};
use ns_numerics::Grid;
use ns_runtime::{run_parallel, CartTopology, CommVersion, RunPlan, Shape, TelemetryOptions};
use ns_telemetry::EventKind;

#[test]
fn live_runtime_and_simulator_agree_on_protocol_counts() {
    // every rank of every rank grid must make the same start-ups and send
    // the same bytes in the real thread runtime and in the discrete-event
    // simulator, under the plane kernels and the fused sweep and every
    // comm protocol alike, damped (a smoothing halo swap after each step)
    // or not; over two steps the simulated timeline is the live traced
    // one, event for event
    let grid = Grid::new(64, 24, 50.0, 5.0);
    let steps = 4u64;
    let mut cases = Vec::new();
    for (px, pr) in [(4, 1), (1, 2), (2, 2), (1, 4), (2, 3)] {
        for regime in [Regime::NavierStokes, Regime::Euler] {
            for version in [Version::V5, Version::V7] {
                for comm in CommVersion::ALL {
                    let cfg = SolverConfig { version, ..SolverConfig::paper(grid.clone(), regime) };
                    cases.push((cfg, CartTopology::new(px, pr).unwrap(), comm));
                }
            }
        }
    }
    for version in [Version::V5, Version::V7] {
        let damped =
            SolverConfig { version, dissipation: 0.002, ..SolverConfig::paper(grid.clone(), Regime::NavierStokes) };
        cases.push((damped, CartTopology::new(2, 2).unwrap(), CommVersion::V5));
    }
    for (cfg, topology, comm) in cases {
        let live = ns_runtime::run(&RunPlan::new(&cfg, topology, steps, comm)).unwrap();
        let sim_cfg = SimConfig {
            topology,
            solver: cfg.clone(),
            comm,
            report_steps: steps,
            sim_steps: steps,
            ..SimConfig::paper(Platform::lace560_allnode_s(), 1, cfg.regime)
        };
        let sim = simulate(&sim_cfg);
        let case = format!("{:?} {:?} eps {} {comm:?} {topology:?}", cfg.regime, cfg.version, cfg.dissipation);
        for rank in 0..topology.size() {
            let stats = live.ranks[rank].stats;
            assert_eq!(stats.sends + stats.recvs, sim.startups[rank], "{case} rank {rank} start-ups");
            assert_eq!(stats.bytes_sent, sim.bytes_sent[rank], "{case} rank {rank} bytes");
        }
        let telemetry = TelemetryOptions { trace: true, ..Default::default() };
        let traced = ns_runtime::run(&RunPlan { telemetry, ..RunPlan::new(&cfg, topology, 2, comm) });
        let (_, sim_trace) = simulate_traced(&SimConfig { report_steps: 2, sim_steps: 2, ..sim_cfg });
        for (rank, live_rank) in traced.unwrap().ranks.iter().enumerate() {
            let program = |events: Vec<&ns_telemetry::Event>| {
                events.into_iter().map(|e| (e.kind, e.label.to_string(), e.peer, e.bytes)).collect::<Vec<_>>()
            };
            let replayed = program(sim_trace.iter().filter(|e| e.rank == rank).collect());
            assert_eq!(replayed, program(live_rank.trace.iter().collect()), "{case} rank {rank}");
        }
    }
}

/// The recorded step-0 program of rank 1 of a 4 × 1 N-S plan under comm V6,
/// written out: the radial operator is message free on slabs; each axial
/// flux stage posts its primitive columns, computes the interior while they
/// are in flight, finishes the receives and then the edge columns.
#[test]
fn the_recorded_v6_step_is_the_overlap_protocol() {
    use EventKind::{Mark, Phase, Recv, Send};
    let cfg = SolverConfig::paper(Grid::new(64, 24, 50.0, 5.0), Regime::NavierStokes);
    let rec = record(&cfg, CartTopology::axial(4), CommVersion::V6);
    let prims = 3 * 24 * 8;
    let flux = 4 * 2 * 24 * 8;
    let want: Vec<(EventKind, &str, Option<usize>, u64)> = vec![
        (Mark, "step", None, 0),
        (Phase, "r:prims", None, 0),
        (Phase, "r:flux", None, 0),
        (Phase, "r:flux", None, 0),
        (Phase, "r:predict", None, 0),
        (Phase, "r:prims2", None, 0),
        (Phase, "r:flux2", None, 0),
        (Phase, "r:flux2", None, 0),
        (Phase, "r:correct", None, 0),
        (Phase, "x:prims", None, 0),
        (Send, "Prims1", Some(0), prims),
        (Send, "Prims1", Some(2), prims),
        (Phase, "x:flux", None, 0),
        (Recv, "Prims1", Some(0), prims),
        (Recv, "Prims1", Some(2), prims),
        (Phase, "x:flux", None, 0),
        (Send, "Flux1", Some(0), flux),
        (Send, "Flux1", Some(2), flux),
        (Recv, "Flux1", Some(0), flux),
        (Recv, "Flux1", Some(2), flux),
        (Phase, "x:flux", None, 0),
        (Phase, "x:predict", None, 0),
        (Phase, "x:prims2", None, 0),
        (Send, "Prims2", Some(0), prims),
        (Send, "Prims2", Some(2), prims),
        (Phase, "x:flux2", None, 0),
        (Recv, "Prims2", Some(0), prims),
        (Recv, "Prims2", Some(2), prims),
        (Phase, "x:flux2", None, 0),
        (Send, "Flux2", Some(0), flux),
        (Send, "Flux2", Some(2), flux),
        (Recv, "Flux2", Some(0), flux),
        (Recv, "Flux2", Some(2), flux),
        (Phase, "x:flux2", None, 0),
        (Phase, "x:correct", None, 0),
        (Phase, "bc:step", None, 0),
    ];
    let got: Vec<_> = rec.step(1, 0).iter().map(|e| (e.kind, &*e.label, e.peer, e.bytes)).collect();
    assert_eq!(got, want);
    // the flux spans carry their own FLOPs: the interior while the columns
    // are in flight, then the two edge columns, then nothing for the ghost
    // extrapolation an interior rank does not own
    let flux: Vec<u64> = rec.step(1, 0).iter().filter(|e| e.label == "x:flux").map(|e| e.flops).collect();
    assert!(flux[0] > flux[1] && flux[1] > 0 && flux[2] == 0, "{flux:?}");
}

#[test]
fn ledger_flops_feed_the_simulator_consistently() {
    // the FLOPs the simulator charges per step are the FLOPs the solver's
    // ledger counts over the same steps, exactly: the simulator replays
    // the phase spans, and every ledger entry of a step falls in one
    let grid = Grid::new(64, 24, 50.0, 5.0);
    for regime in [Regime::Euler, Regime::NavierStokes] {
        let cfg = SolverConfig::paper(grid.clone(), regime);
        let mut s = Solver::new(cfg.clone());
        let before = s.ledger.total();
        s.run(2);
        let measured = s.ledger.total() - before;
        let replayed = record(&cfg, CartTopology::axial(1), CommVersion::V5).flops(0, 2);
        assert_eq!(measured, replayed, "{regime:?}");
    }
}

#[test]
fn every_report_renders_with_data() {
    for r in all_reports() {
        assert!(!r.series.is_empty(), "{}: has series", r.title);
        for s in &r.series {
            assert!(!s.points.is_empty(), "{} / {}: has points", r.title, s.label);
            for &(x, y) in &s.points {
                assert!(x.is_finite() && y.is_finite(), "{} / {}: finite data", r.title, s.label);
            }
        }
        let text = r.render();
        assert!(text.contains(&r.title), "rendered report carries its title");
    }
}

#[test]
fn excited_jet_contour_is_renderable_from_parallel_run() {
    // gather a distributed run and render its momentum plane: the full
    // Figure 1 pipeline through the runtime crate
    let grid = Grid::new(64, 24, 50.0, 5.0);
    let cfg = SolverConfig::paper(grid, Regime::Euler);
    let run = run_parallel(&cfg, 4, 30, CommVersion::V5);
    let field = run.gather_field();
    let gas = cfg.effective_gas();
    let momentum = ns_core::diag::axial_momentum(&field, &gas);
    let ascii = ns_experiments::contour::ascii(&momentum, 64, 16);
    assert!(ascii.contains("range:"));
    // jet core must be visibly hotter than the coflow
    let core = momentum[(32, 0)];
    let ambient = momentum[(32, 22)];
    assert!(core > ambient, "core {core} vs ambient {ambient}");
}

#[test]
fn quick_excited_jet_matches_serial_reference() {
    let grid = Grid::new(48, 20, 50.0, 5.0);
    let flow = fig_flow::excited_jet(grid.clone(), 25, Regime::Euler, 0.0);
    let mut s = Solver::new(SolverConfig::paper(grid, Regime::Euler));
    s.run(25);
    let gas = *s.gas();
    let reference = ns_core::diag::axial_momentum(&s.field, &gas);
    let d = ns_numerics::norms::linf_diff(&flow.momentum, &reference);
    assert_eq!(d, 0.0, "fig_flow wraps the same solver");
}

#[test]
fn adaptive_checkpoint_probe_pipeline() {
    // a production-style session: adaptive stepping, probes attached,
    // checkpoint mid-run, resume, and the resumed run's probe samples line
    // up with an uninterrupted reference
    use ns_core::checkpoint::Checkpoint;
    use ns_core::probe::ProbeArray;
    let grid = Grid::new(48, 20, 50.0, 5.0);
    let mut cfg = SolverConfig::paper(grid, Regime::Euler);
    cfg.adaptive_dt = true;

    let mut reference = Solver::new(cfg.clone());
    let gas = *reference.gas();
    let mut ref_probes = ProbeArray::new(&reference.field, &[(5.0, 1.0)]);
    for _ in 0..12 {
        reference.step();
        ref_probes.sample(&reference.field, &gas, reference.t);
    }

    let mut first = Solver::new(cfg);
    let mut probes = ProbeArray::new(&first.field, &[(5.0, 1.0)]);
    for _ in 0..5 {
        first.step();
        probes.sample(&first.field, &gas, first.t);
    }
    let bytes = Checkpoint::capture(&first).to_bytes().unwrap();
    let mut resumed = Checkpoint::from_bytes(&bytes).unwrap().restore();
    for _ in 0..7 {
        resumed.step();
        probes.sample(&resumed.field, &gas, resumed.t);
    }
    assert_eq!(resumed.field.max_diff(&reference.field), 0.0, "restart transparent under adaptive dt");
    assert_eq!(probes.len(), ref_probes.len());
    for (a, b) in probes.series[0].p.iter().zip(&ref_probes.series[0].p) {
        assert_eq!(a.to_bits(), b.to_bits(), "probe histories identical");
    }
}

#[test]
fn simulator_handles_every_platform_at_every_p() {
    for platform in Platform::all() {
        for p in [1usize, 3, 16] {
            let mut cfg = SimConfig::paper(platform, p, Regime::Euler);
            cfg.sim_steps = 3;
            let r = simulate(&cfg);
            assert!(r.total > 0.0, "{} P={p}", platform.name);
            assert_eq!(r.busy.len(), p);
            // busy time dominates over pure waiting on all healthy setups
            assert!(r.mean_busy() > 0.0);
        }
    }
}

/// Every rank grid a plan can be refused on is refused with one error,
/// word for word, by the live driver, the simulator and serve admission
/// (the last on the axial shapes a job can express). Only shapes are
/// refused: the fused kernel V7 on a radial split is admitted by the driver
/// and the simulator alike.
#[test]
fn refusals_agree_everywhere() {
    use ns_runtime::DecompositionError as E;
    use ns_serve::JobSpec;
    let grid = Grid::new(66, 24, 50.0, 5.0);
    let paper = SolverConfig::paper(grid.clone(), Regime::NavierStokes);
    let sim = |topology, version| SimConfig {
        topology,
        solver: SolverConfig { version, ..paper.clone() },
        sim_steps: 1,
        report_steps: 1,
        ..SimConfig::paper(Platform::cluster_fat_tree(), 1, paper.regime)
    };
    let cases = [
        (E::ZeroRanks, (0, 1)),
        (E::TooFewColumns { px: 20, nx: 66 }, (20, 1)),
        (E::TooFewRows { pr: 7, nr: 24 }, (1, 7)),
    ];
    for (error, (px, pr)) in cases {
        let topology = CartTopology { px, pr };
        let refused = ns_runtime::run(&RunPlan::new(&paper, topology, 2, CommVersion::V5)).err();
        assert_eq!(refused, Some(error.clone()), "{px}x{pr}: the driver");
        let refusal = sim(topology, paper.version);
        let panic = std::panic::catch_unwind(|| simulate(&refusal)).expect_err("the simulator must refuse");
        let text = panic.downcast_ref::<String>().map(String::as_str);
        assert_eq!(text, Some(format!("topology refused: {error}").as_str()), "{px}x{pr}: the simulator");
        if pr == 1 {
            let job = JobSpec::new(paper.clone(), 2, Shape { topology, ..Shape::SERIAL });
            assert_eq!(job.validate(), Err(error.to_string()), "{px}x1: serve admission");
        }
    }
    // a DOALL team of no threads: the driver and a shared job's admission
    let no_team = RunPlan { threads: 0, ..RunPlan::new(&paper, CartTopology::axial(1), 2, CommVersion::V5) };
    assert_eq!(ns_runtime::run(&no_team).err(), Some(E::ZeroThreads), "no threads: the driver");
    let job = JobSpec::new(paper.clone(), 2, Shape { threads: 0, ..Shape::SERIAL });
    assert_eq!(job.validate(), Err(E::ZeroThreads.to_string()), "no threads: serve admission");
    let (pencil, v7) = (CartTopology { px: 1, pr: 2 }, SolverConfig { version: Version::V7, ..paper.clone() });
    assert!(ns_runtime::run(&RunPlan::new(&v7, pencil, 2, CommVersion::V5)).is_ok(), "V7 1x2: the driver");
    assert_eq!(simulate(&sim(pencil, Version::V7)).startups.len(), 2, "V7 1x2: the simulator");
}
