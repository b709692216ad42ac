//! The `par_*` workloads and the `ns-runtime` ledger: whole live
//! `run_parallel*` calls timed from outside, decomposed with the numbers the
//! driver already returns per rank (busy, receive wait, start-ups, bytes)
//! into the paper's Figures 5/6 split.

use crate::core_layer::SolverCase;
use crate::report::{Metrics, Reps};
use crate::spans::Recorder;
use crate::stats::median;
use ns_core::config::Regime;
use ns_core::{Field, Solver};
use ns_runtime::comm::{universe, MsgKind, Tag};
use ns_runtime::pack::{open_frame, BufPool, UnpackBuf};
use ns_runtime::{
    collectives, run_parallel, run_parallel_cart, run_parallel_instrumented, CartTopology, CommVersion, ParallelRun,
    TelemetryOptions,
};
use ns_verify::oracle::TOL_NS_PARALLEL;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rank grid of a run: `px` axial by `pr` radial.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Topo {
    /// Axial ranks.
    pub px: usize,
    /// Radial ranks.
    pub pr: usize,
}

impl Topo {
    /// The paper's layout: `p` axial slabs.
    pub const fn slab(p: usize) -> Topo {
        Topo { px: p, pr: 1 }
    }
}

/// How to call the driver.
#[derive(Clone, Copy, PartialEq)]
enum Call {
    /// `run_parallel` / `run_parallel_cart`, no telemetry.
    Plain,
    /// `run_parallel_instrumented` with phases and message tracing (slabs
    /// only: pencils have no instrumented entry point).
    Instrumented,
}

fn launch(cfg: &ns_core::config::SolverConfig, topo: Topo, steps: u64, call: Call) -> ParallelRun {
    match (call, topo.pr) {
        (Call::Instrumented, 1) => {
            let opts = TelemetryOptions { phases: true, trace: true, ..Default::default() };
            run_parallel_instrumented(cfg, topo.px, steps, CommVersion::V5, opts)
        }
        (Call::Instrumented, _) => unreachable!("only slab runs are instrumented"),
        (Call::Plain, 1) => run_parallel(cfg, topo.px, steps, CommVersion::V5),
        (Call::Plain, _) => {
            let cart = CartTopology::new(topo.px, topo.pr).expect("the workload table holds valid topologies");
            run_parallel_cart(cfg, cart, steps, CommVersion::V5).expect("the workload table holds valid plans")
        }
    }
}

/// What one timed driver call reported, reduced over its ranks.
struct CallFacts {
    /// Outside wall of the call, seconds.
    wall_s: f64,
    /// Slowest rank's busy seconds (wall minus receive wait).
    busy_max_s: f64,
    /// Mean busy seconds over ranks.
    busy_mean_s: f64,
    /// Longest receive wait over ranks, seconds.
    wait_max_s: f64,
    /// Longest rank wall (busy + wait), seconds.
    rank_wall_max_s: f64,
    /// Most start-ups (sends + receives) on one rank.
    startups: u64,
    /// Most payload bytes sent by one rank.
    bytes: u64,
    /// Messages sent, all ranks.
    sends: u64,
    /// Payload bytes sent, all ranks.
    bytes_all: u64,
    /// `comm:send` seconds of the rank that spent most (instrumented only).
    send_max_s: f64,
    /// `comm:recv` + `comm:stall` seconds of the rank that spent most.
    recv_max_s: f64,
    /// Pool acquires / reuses during the call (registry diff).
    pool_acquired: u64,
    pool_reused: u64,
}

fn facts(run: &ParallelRun, wall_s: f64) -> CallFacts {
    let secs = |f: &dyn Fn(&ns_runtime::RankResult) -> f64| run.ranks.iter().map(f).fold(0.0, f64::max);
    let busy: Vec<f64> = run.busy_seconds();
    let stats = run.total_stats();
    let counter = |name: &str| run.metrics.counters.get(name).copied().unwrap_or(0);
    CallFacts {
        wall_s,
        busy_max_s: busy.iter().copied().fold(0.0, f64::max),
        busy_mean_s: busy.iter().sum::<f64>() / busy.len() as f64,
        wait_max_s: secs(&|r| r.wait.as_secs_f64()),
        rank_wall_max_s: secs(&|r| (r.busy + r.wait).as_secs_f64()),
        startups: run.ranks.iter().map(|r| r.stats.startups()).max().unwrap_or(0),
        bytes: run.ranks.iter().map(|r| r.stats.bytes_sent).max().unwrap_or(0),
        sends: stats.sends,
        bytes_all: stats.bytes_sent,
        send_max_s: secs(&|r| r.phases.seconds("comm:send")),
        recv_max_s: secs(&|r| r.phases.seconds("comm:recv") + r.phases.seconds("comm:stall")),
        pool_acquired: counter("ns_pool_acquired_total"),
        pool_reused: counter("ns_pool_reused_total"),
    }
}

/// Run reps of (config, warm-up call, timed call) until `budget` is spent.
/// Returns the samples, per-call facts and the last call's gathered field.
fn par_reps(
    case: &SolverCase,
    topo: Topo,
    call: Call,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
) -> (Reps, Vec<CallFacts>, Field) {
    let mut reps = Reps::default();
    let mut calls = Vec::new();
    let deadline = Instant::now() + budget;
    let mut rep = 0u64;
    loop {
        let t_setup = Instant::now();
        let cfg = case.cfg(seed);
        launch(&cfg, topo, case.warm, call);
        reps.setup_s.push(t_setup.elapsed().as_secs_f64());

        let span = rec.enter("runtime.run_parallel", rep);
        let t0 = Instant::now();
        let run = launch(&cfg, topo, case.steps, call);
        let wall = t0.elapsed().as_secs_f64();
        rec.exit(span);

        reps.op_ms.push(wall * 1e3 / case.steps as f64);
        reps.ops += case.steps;
        reps.wall_s += wall;
        let gathered = run.gather_field();
        if run.aborted().is_some() || run.steps_taken() != case.steps || !gathered.interior_finite() {
            reps.failed += case.steps;
        }
        calls.push(facts(&run, wall));
        rep += 1;
        if Instant::now() >= deadline {
            reps.peak_rss_mb = crate::host::peak_rss_mb();
            return (reps, calls, gathered);
        }
    }
}

/// Largest interior difference of `a` from `b`, relative to `b`'s largest
/// magnitude (the differential oracle's measure).
fn rel_diff(a: &Field, b: &Field) -> f64 {
    let mut scale = f64::MIN_POSITIVE;
    for c in 0..4 {
        for i in 0..b.nxl() {
            for j in 0..b.nr() {
                scale = scale.max(b.at(c, i as isize, j as isize).abs());
            }
        }
    }
    a.max_diff(b) / scale
}

/// The untraced `par_*` run plus its output check against the serial
/// solver: bitwise where the oracle guarantees it (Euler, and pure radial
/// splits), within the oracle's N-S tolerance otherwise.
pub fn run(case: &SolverCase, topo: Topo, seed: u64, budget: Duration) -> Reps {
    let (mut reps, _, gathered) = par_reps(case, topo, Call::Plain, seed, budget, &mut Recorder::off());
    reps.checks += 1;
    let mut serial = Solver::new(case.cfg(seed));
    serial.run(case.steps);
    let tol = if case.regime == Regime::Euler || topo.px == 1 { 0.0 } else { TOL_NS_PARALLEL };
    let diff = rel_diff(&gathered, &serial.field);
    if !serial.healthy() || diff.is_nan() || diff > tol {
        eprintln!("check failed: gathered field differs from serial by {diff:e} rel, allowed {tol:e}");
        reps.failed_checks += 1;
    }
    reps
}

/// The exact per-step counts of one short call, for hosts with too few
/// cores to time ranks honestly: `(start-ups, bytes)` on the busiest rank.
pub fn counts(case: &SolverCase, topo: Topo, seed: u64) -> (f64, f64) {
    let steps = case.brief().steps;
    let f = facts(&launch(&case.cfg(seed), topo, steps, Call::Plain), 0.0);
    (f.startups as f64 / steps as f64, f.bytes as f64 / steps as f64)
}

/// The `ns-runtime` ledger for `case` on `topo`. Returns `(attempted,
/// failed)` steps.
pub fn ledger(
    case: &SolverCase,
    topo: Topo,
    seed: u64,
    budget: Duration,
    rec: &mut Recorder,
    out: &mut Metrics,
) -> (u64, u64) {
    let ranks = topo.px * topo.pr;
    let (main, calls, _) = par_reps(case, topo, Call::Plain, seed, budget * 2 / 5, rec);
    let (serial, _, _) = par_reps(case, Topo::slab(1), Call::Plain, seed, budget / 5, &mut Recorder::off());
    let slab = Topo::slab(ranks);
    let slab_plain_ms = if topo == slab {
        median(&main.op_ms)
    } else {
        median(&par_reps(case, slab, Call::Plain, seed, budget / 5, &mut Recorder::off()).0.op_ms)
    };
    let (instr, instr_calls, _) = par_reps(case, slab, Call::Instrumented, seed, budget / 5, rec);

    let steps = case.steps as f64;
    let per_step_ms = |f: &dyn Fn(&CallFacts) -> f64, calls: &[CallFacts]| {
        median(&calls.iter().map(|c| f(c) * 1e3 / steps).collect::<Vec<_>>())
    };
    let op_ms = median(&main.op_ms);
    let wait_ms = per_step_ms(&|c| c.wait_max_s, &calls);
    out.put_n("runtime.step_ms_p50", op_ms, main.op_ms.len());
    out.put("runtime.busy_ms_per_step", per_step_ms(&|c| c.busy_max_s, &calls));
    out.put("runtime.wait_ms_per_step", wait_ms);
    out.put("runtime.wait_frac", wait_ms / op_ms);
    out.put("runtime.imbalance", median(&calls.iter().map(|c| c.busy_max_s / c.busy_mean_s).collect::<Vec<_>>()));
    out.put("runtime.startups_per_step", calls[0].startups as f64 / steps);
    out.put("runtime.bytes_per_step", calls[0].bytes as f64 / steps);
    out.put(
        "runtime.spawn_ms",
        median(&calls.iter().map(|c| (c.wall_s - c.rank_wall_max_s) * 1e3).collect::<Vec<_>>()),
    );
    out.put("runtime.send_ms_per_step", per_step_ms(&|c| c.send_max_s, &instr_calls));
    out.put("runtime.recv_ms_per_step", per_step_ms(&|c| c.recv_max_s, &instr_calls));
    let (acquired, reused) = calls.iter().fold((0, 0), |(a, r), c| (a + c.pool_acquired, r + c.pool_reused));
    out.put("runtime.pool.reuse_frac", reused as f64 / acquired.max(1) as f64);
    out.put("runtime.par_efficiency", median(&serial.op_ms) / (ranks as f64 * op_ms));
    out.put("runtime.trace_overhead_frac", (median(&instr.op_ms) - slab_plain_ms) / slab_plain_ms);

    let doubles = (calls[0].bytes_all / calls[0].sends.max(1) / 8).max(1) as usize;
    out.put("runtime.msg_doubles", doubles as f64);
    let span = rec.enter("runtime.pack", 0);
    out.put("runtime.pack.ns_per_msg", pack_ns(doubles));
    rec.exit(span);
    let span = rec.enter("runtime.comm.pingpong", 0);
    let (pingpong_us, allreduce_us) = two_rank_micro(doubles);
    rec.exit(span);
    out.put("runtime.comm.pingpong_us", pingpong_us);
    out.put("runtime.collectives.allreduce_us", allreduce_us);
    (main.ops + serial.ops + instr.ops, main.failed + serial.failed + instr.failed)
}

const MICRO_ROUNDS: u64 = 5_000;

/// One message's pack → seal → open → unpack cost through a warm pool, in
/// nanoseconds.
fn pack_ns(doubles: usize) -> f64 {
    let mut pool = BufPool::new();
    let data = vec![1.5f64; doubles];
    let mut out = vec![0.0f64; doubles];
    let mut round = |seq: u64| {
        let mut buf = pool.acquire_f64(doubles);
        buf.pack_f64_slice(black_box(&data));
        buf.seal_frame(seq, 0);
        let frame = open_frame(buf.freeze()).expect("a frame just sealed opens");
        let mut unpack = UnpackBuf::new(frame.body);
        unpack.unpack_f64_slice(&mut out).expect("the payload holds what was packed");
        black_box(&out);
        pool.recycle(unpack.finish().expect("the payload is fully consumed"));
    };
    (0..100).for_each(&mut round);
    let t0 = Instant::now();
    (0..MICRO_ROUNDS).for_each(&mut round);
    t0.elapsed().as_nanos() as f64 / MICRO_ROUNDS as f64
}

/// `Endpoint::send`/`recv` round trip of one message and one
/// `allreduce_max`, between two rank threads, in microseconds.
fn two_rank_micro(doubles: usize) -> (f64, f64) {
    let mut eps = universe(2);
    let mut peer = eps.pop().expect("two endpoints");
    let mut me = eps.pop().expect("two endpoints");
    let tag = |seq| Tag { kind: MsgKind::Prims1, seq };
    let data = vec![1.5f64; doubles];
    std::thread::scope(|s| {
        let echo_data = data.clone();
        let echo = s.spawn(move || {
            let mut pool = BufPool::new();
            for seq in 0..MICRO_ROUNDS {
                let got = peer.recv(0, tag(seq)).expect("ping arrives");
                pool.recycle(got);
                let mut buf = pool.acquire_f64(doubles);
                buf.pack_f64_slice(&echo_data);
                peer.send(0, tag(seq), buf).expect("pong leaves");
            }
            for epoch in 0..MICRO_ROUNDS {
                collectives::allreduce_max(&mut peer, 1.0, epoch).expect("allreduce completes");
            }
        });
        let mut pool = BufPool::new();
        let t0 = Instant::now();
        for seq in 0..MICRO_ROUNDS {
            let mut buf = pool.acquire_f64(doubles);
            buf.pack_f64_slice(&data);
            me.send(1, tag(seq), buf).expect("ping leaves");
            pool.recycle(me.recv(1, tag(seq)).expect("pong arrives"));
        }
        let pingpong = t0.elapsed();
        let t0 = Instant::now();
        for epoch in 0..MICRO_ROUNDS {
            black_box(collectives::allreduce_max(&mut me, 2.0, epoch).expect("allreduce completes"));
        }
        let allreduce = t0.elapsed();
        echo.join().expect("echo rank ran to completion");
        let us = |d: Duration| d.as_secs_f64() * 1e6 / MICRO_ROUNDS as f64;
        (us(pingpong), us(allreduce))
    })
}
