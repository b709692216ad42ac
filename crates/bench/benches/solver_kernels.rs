//! Microbenchmarks of the solver's hot kernels across the optimization
//! versions — the kernel-level view behind Figure 2.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use ns_bench::MedianBench;
use ns_core::config::{Regime, SolverConfig, Version};
use ns_core::field::{Field, FluxField, Patch, PrimField, Workspace};
use ns_core::kernels::{self, EdgeFlags, FluxDir};
use ns_core::opcount::FlopLedger;
use ns_core::scheme::{self, NoHalo, Variant};
use ns_core::soa::{self, SoaWs};
use ns_core::Solver;
use ns_numerics::gas::Primitive;
use ns_numerics::Grid;

/// The rungs with standalone kernels of their own; V6/V7 exist only as the
/// fused sweep (outside it they run the V5 row kernels).
const STANDALONE: [Version; 5] = [Version::V1, Version::V2, Version::V3, Version::V4, Version::V5];

fn setup(regime: Regime) -> (SolverConfig, Field, PrimField, FluxField, Patch) {
    let cfg = SolverConfig::paper(Grid::new(125, 50, 50.0, 5.0), regime);
    let gas = cfg.effective_gas();
    let patch = Patch::whole(cfg.grid.clone());
    let field = Field::from_primitives(patch.clone(), &gas, |x, r| Primitive {
        rho: 1.0 + 0.05 * (0.1 * x).sin() * (-r).exp(),
        u: 0.5 + 0.2 * (-(r - 1.0) * (r - 1.0)).exp(),
        v: 0.01 * (0.3 * x).sin(),
        p: gas.pressure(1.0, 1.0),
    });
    let prim = PrimField::zeros(&patch);
    let flux = FluxField::zeros(&patch);
    (cfg, field, prim, flux, patch)
}

fn bench_prims(c: &mut Criterion) {
    let (cfg, field, mut prim, _, patch) = setup(Regime::NavierStokes);
    let gas = cfg.effective_gas();
    let mut g = c.benchmark_group("kernel_prims");
    g.throughput(Throughput::Elements((patch.nxl * patch.nr()) as u64));
    for v in STANDALONE {
        g.bench_with_input(BenchmarkId::from_parameter(format!("{v:?}")), &v, |b, &v| {
            let mut ledger = FlopLedger::default();
            b.iter(|| kernels::compute_prims(v, None, &field, &mut prim, &gas, &mut ledger));
        });
    }
    g.finish();
}

fn bench_flux(c: &mut Criterion) {
    for (regime, name) in [(Regime::NavierStokes, "viscous"), (Regime::Euler, "inviscid")] {
        let (cfg, field, mut prim, mut flux, patch) = setup(regime);
        let gas = cfg.effective_gas();
        let mut ledger = FlopLedger::default();
        kernels::compute_prims(Version::V5, None, &field, &mut prim, &gas, &mut ledger);
        ns_core::bc::mirror_prims_axis(&mut prim);
        ns_core::bc::extrap_prims_top(&mut prim, patch.nr());
        let edges = EdgeFlags::of(&patch);
        let mut g = c.benchmark_group(format!("kernel_xflux_{name}"));
        g.throughput(Throughput::Elements((patch.nxl * patch.nr()) as u64));
        for v in STANDALONE {
            g.bench_with_input(BenchmarkId::from_parameter(format!("{v:?}")), &v, |b, &v| {
                let mut ledger = FlopLedger::default();
                b.iter(|| {
                    kernels::compute_flux(v, None, FluxDir::X, &prim, &patch, edges, &gas, &mut flux, None, &mut ledger)
                });
            });
        }
        g.finish();
    }
}

fn bench_operators(c: &mut Criterion) {
    let mut g = c.benchmark_group("operators");
    g.sample_size(30);
    for regime in [Regime::NavierStokes, Regime::Euler] {
        let cfg = SolverConfig::paper(Grid::new(125, 50, 50.0, 5.0), regime);
        let gas = cfg.effective_gas();
        let mut field = ns_core::driver::initial_field(&cfg, Patch::whole(cfg.grid.clone()));
        let mut ws = Workspace::new(&field.patch);
        let dt = cfg.time_step();
        let mut ledger = FlopLedger::default();
        g.bench_function(format!("x_operator_{}", regime.name()), |b| {
            b.iter(|| {
                scheme::x_operator(Variant::L1, &mut field, &mut ws, &cfg, &gas, &mut NoHalo, 0.0, dt, &mut ledger)
            })
        });
        g.bench_function(format!("r_operator_{}", regime.name()), |b| {
            b.iter(|| scheme::r_operator(Variant::L1, &mut field, &mut ws, &cfg, &gas, &mut NoHalo, dt, &mut ledger))
        });
        // same operator with phase attribution armed: the difference against
        // the rows above is the telemetry-on cost; the disabled-timer cost
        // (one branch per phase switch) is below run-to-run noise
        ws.timers.enable();
        g.bench_function(format!("x_operator_timed_{}", regime.name()), |b| {
            b.iter(|| {
                scheme::x_operator(Variant::L1, &mut field, &mut ws, &cfg, &gas, &mut NoHalo, 0.0, dt, &mut ledger)
            })
        });
        ws.timers = Default::default();
    }
    g.finish();
}

/// One prims+ghosts+flux plane sweep. V1–V5 run the two-pass sequence; V6
/// runs the fused SoA sweep over cache-blocked radial tiles (default tile
/// size, no exports — the bench consumes only the flux). A plane sweep cannot
/// tell V6 from V7: what V7 adds is the update inside the sweep, which shows
/// on `whole_step/250x100`.
#[allow(clippy::too_many_arguments)]
fn plane_sweep(
    v: Version,
    field: &Field,
    prim: &mut PrimField,
    flux: &mut FluxField,
    patch: &Patch,
    edges: EdgeFlags,
    gas: &ns_numerics::gas::GasModel,
    soa: &mut Option<Box<SoaWs>>,
    ledger: &mut FlopLedger,
) {
    if v >= Version::V6 {
        let ws = soa.get_or_insert_with(|| Box::new(SoaWs::new(patch)));
        let (all, tile_r) = (0..patch.nxl, ns_core::config::DEFAULT_TILE_R);
        soa::fused_sweep(
            FluxDir::X,
            field,
            prim,
            edges,
            gas,
            flux,
            None,
            all.clone(),
            all,
            None,
            &[],
            ws,
            tile_r,
            ledger,
        );
    } else {
        kernels::compute_prims(v, None, field, prim, gas, ledger);
        ns_core::bc::mirror_prims_axis(prim);
        ns_core::bc::extrap_prims_top(prim, patch.nr());
        kernels::compute_flux(v, None, FluxDir::X, prim, patch, edges, gas, flux, None, ledger);
    }
}

/// Machine-readable ladder: median ns/op per version per grid size, written
/// into `BENCH_kernels.json` (the committed perf trajectory) with MFLOPS
/// derived from the `FlopLedger` model. The versions are measured as one
/// interleaved group per grid so CPU-frequency drift can't bias the
/// few-percent rung-to-rung deltas. Quick mode drops the large grid.
fn json_ladder() {
    let mut h = MedianBench::from_env();
    // The whole-step ladder goes first, and `main` runs this function before
    // the Criterion groups: seven solvers allocated on an unchurned heap get
    // their planes placed as a process that only steps a solver does. After
    // the other groups have allocated and freed theirs, the same V6/V7 steps
    // read 15-20 % slower against the same V5 (EXPERIMENTS.md, Figure 2).
    whole_step_ladder(&mut h);
    let mut grids = vec![(Grid::new(125, 50, 50.0, 5.0), "125x50")];
    if !h.quick() {
        grids.push((Grid::paper(), "250x100"));
    }
    for (grid, gname) in grids {
        let cfg = SolverConfig::paper(grid, Regime::NavierStokes);
        let gas = cfg.effective_gas();
        let patch = Patch::whole(cfg.grid.clone());
        let field = Field::from_primitives(patch.clone(), &gas, |x, r| Primitive {
            rho: 1.0 + 0.05 * (0.1 * x).sin() * (-r).exp(),
            u: 0.5 + 0.2 * (-(r - 1.0) * (r - 1.0)).exp(),
            v: 0.01 * (0.3 * x).sin(),
            p: gas.pressure(1.0, 1.0),
        });
        let edges = EdgeFlags::of(&patch);
        // Flop model for one sweep: identical across versions by design
        // (the ledger counts useful work; the versions differ in time).
        let flops = {
            let mut prim = PrimField::zeros(&patch);
            let mut flux = FluxField::zeros(&patch);
            let mut model = FlopLedger::default();
            plane_sweep(Version::V5, &field, &mut prim, &mut flux, &patch, edges, &gas, &mut None, &mut model);
            model.total() as f64
        };
        // V1–V6: see `plane_sweep` for why there is no V7 row here.
        let mut items: Vec<ns_bench::GroupItem> = Version::ALL
            .iter()
            .filter(|&&v| v <= Version::V6)
            .map(|&v| {
                let mut prim = PrimField::zeros(&patch);
                let mut flux = FluxField::zeros(&patch);
                let mut soa = None;
                let mut ledger = FlopLedger::default();
                let (field, patch, gas) = (&field, &patch, &gas);
                ns_bench::GroupItem {
                    id: format!("{v:?}"),
                    flops: Some(flops),
                    f: Box::new(move || {
                        plane_sweep(v, field, &mut prim, &mut flux, patch, edges, gas, &mut soa, &mut ledger);
                    }),
                }
            })
            .collect();
        h.measure_interleaved(&format!("prims_flux_sweep/{gname}"), &mut items);
    }
    h.write_merged(&ns_bench::output_path()).expect("write BENCH_kernels.json");
}

/// The rung that decides: one whole `Solver::step` per version on the
/// paper's 250x100 N-S case — sweeps, predictor/corrector updates and
/// boundary work together, where the plane-sweep ladder above times the
/// sweeps alone. Each solver keeps stepping its own jet; the step cost does
/// not depend on the state.
fn whole_step_ladder(h: &mut MedianBench) {
    let solver = |v| {
        let mut cfg = SolverConfig::paper(Grid::paper(), Regime::NavierStokes);
        cfg.version = v;
        let mut s = Solver::new(cfg);
        s.run(2);
        s
    };
    let flops = solver(Version::V5).ledger.total() as f64 / 2.0;
    let mut items: Vec<ns_bench::GroupItem> = Version::ALL
        .iter()
        .map(|&v| {
            let mut s = solver(v);
            ns_bench::GroupItem { id: format!("{v:?}"), flops: Some(flops), f: Box::new(move || s.step()) }
        })
        .collect();
    h.measure_interleaved("whole_step/250x100", &mut items);
}

criterion_group!(benches, bench_prims, bench_flux, bench_operators);

fn main() {
    json_ladder();
    benches();
}
