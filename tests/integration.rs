//! End-to-end integration across all crates: the live solver feeds the
//! workload model, the workload model feeds the platform simulator, and the
//! measured runtime statistics must line up with both.

use ns_archsim::{simulate, Platform, SimConfig};
use ns_core::config::{Regime, SolverConfig};
use ns_core::driver::Solver;
use ns_core::field::Patch;
use ns_core::workload;
use ns_experiments::{all_reports, fig_flow};
use ns_numerics::Grid;
use ns_runtime::{run_parallel, CartTopology, CommVersion, RunPlan};

#[test]
fn live_runtime_and_simulator_agree_on_protocol_counts() {
    // every rank of every rank grid must make the same start-ups and send
    // the same bytes in the real thread runtime, in the discrete-event
    // simulator and in the step program the simulator bills
    let grid = Grid::new(64, 24, 50.0, 5.0);
    let steps = 4u64;
    for (px, pr) in [(4, 1), (1, 2), (2, 2), (1, 4), (2, 3)] {
        let topology = CartTopology::new(px, pr).unwrap();
        for regime in [Regime::NavierStokes, Regime::Euler] {
            let cfg = SolverConfig::paper(grid.clone(), regime);
            let live = ns_runtime::run(&RunPlan::new(&cfg, topology, steps, CommVersion::V5)).unwrap();
            let sim = simulate(&SimConfig {
                topology,
                grid: grid.clone(),
                report_steps: steps,
                sim_steps: steps,
                ..SimConfig::paper(Platform::lace560_allnode_s(), 1, regime)
            });
            for rank in 0..topology.size() {
                let stats = live.ranks[rank].stats;
                let what = format!("{regime:?} {px}x{pr} rank {rank}");
                assert_eq!(stats.sends + stats.recvs, sim.startups[rank], "{what} start-ups");
                assert_eq!(stats.bytes_sent, sim.bytes_sent[rank], "{what} bytes");
                let nb = topology.neighbors(rank);
                let axial = usize::from(nb.left.is_some()) + usize::from(nb.right.is_some());
                let radial = usize::from(nb.down.is_some()) + usize::from(nb.up.is_some());
                let patch = Patch::pencil(grid.clone(), topology.coords(rank), (px, pr));
                let model = workload::step_workload(regime, &patch);
                assert_eq!(stats.bytes_sent, model.bytes_sent_per_step(axial, radial) * steps, "{what} model bytes");
            }
        }
    }
}

#[test]
fn ledger_flops_feed_the_simulator_consistently() {
    // per-step interior flops measured by the solver == the flops the
    // simulator charges per step (same constants, by construction — this
    // guards against the two drifting apart)
    let grid = Grid::new(64, 24, 50.0, 5.0);
    let cfg = SolverConfig::paper(grid.clone(), Regime::Euler);
    let mut s = Solver::new(cfg);
    s.run(1);
    let before = s.ledger;
    s.run(2);
    let measured = (s.ledger.prims + s.ledger.flux + s.ledger.source + s.ledger.update)
        - (before.prims + before.flux + before.source + before.update);
    let model = workload::step_workload(Regime::Euler, &Patch::whole(grid)).compute_flops() * 2;
    let rel = (measured as f64 - model as f64).abs() / model as f64;
    assert!(rel < 0.01, "ledger vs model: {rel}");
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
/// (the last on the axial shapes a job can express).
#[test]
fn refusals_agree_everywhere() {
    use ns_runtime::DecompositionError as E;
    use ns_serve::JobSpec;
    let grid = Grid::new(66, 24, 50.0, 5.0);
    let paper = SolverConfig::paper(grid.clone(), Regime::NavierStokes);
    let damped = SolverConfig { dissipation: 0.002, ..paper.clone() };
    let v6 = SolverConfig { version: ns_core::config::Version::V6, ..paper.clone() };
    let cases = [
        (E::ZeroRanks, &paper, (0, 1), CommVersion::V5),
        (E::TooFewColumns { px: 20, nx: 66 }, &paper, (20, 1), CommVersion::V5),
        (E::TooFewRows { pr: 7, nr: 24 }, &paper, (1, 7), CommVersion::V5),
        (E::UnsupportedVersion { version: v6.version }, &v6, (1, 2), CommVersion::V5),
        (E::UnsupportedComm, &paper, (1, 2), CommVersion::V6),
        (E::UnsupportedDissipation, &damped, (2, 1), CommVersion::V5),
    ];
    for (error, cfg, (px, pr), comm) in cases {
        let topology = CartTopology { px, pr };
        let refused = ns_runtime::run(&RunPlan::new(cfg, topology, 2, comm)).err();
        assert_eq!(refused, Some(error.clone()), "{px}x{pr}: the driver");
        // the simulator runs the paper config: it has no dissipation to refuse
        if cfg.dissipation == 0.0 {
            let sim = SimConfig {
                topology,
                grid: grid.clone(),
                version: cfg.version,
                comm,
                sim_steps: 1,
                report_steps: 1,
                ..SimConfig::paper(Platform::cluster_fat_tree(), 1, cfg.regime)
            };
            let panic = std::panic::catch_unwind(|| simulate(&sim)).expect_err("the simulator must refuse");
            let text = panic.downcast_ref::<String>().map(String::as_str);
            assert_eq!(text, Some(format!("topology refused: {error}").as_str()), "{px}x{pr}: the simulator");
        }
        if pr == 1 {
            let job = JobSpec { comm, ..JobSpec::new(cfg.clone(), 2, px) };
            assert_eq!(job.validate(), Err(error.to_string()), "{px}x1: serve admission");
        }
    }
}
