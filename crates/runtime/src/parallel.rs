//! The distributed-memory parallel driver: one OS thread per rank, the
//! paper's axial block decomposition generalized to 2-D pencils over a
//! [`CartTopology`], real message passing through the in-process endpoints.
//!
//! Beyond real wall-clock speedup, the driver records the same breakdown the
//! paper plots: per-rank *processor busy time* and *non-overlapped
//! communication time* (Figures 5, 6, 13), message start-ups and volume
//! (Tables 1, 2).

use crate::collectives;
use crate::comm::{universe, CommStats};
use crate::halo::{CommVersion, ThreadHalo};
use crate::topology::{CartTopology, DecompositionError};
use ns_core::config::{Regime, SolverConfig};
use ns_core::field::{Field, Patch};
use ns_core::opcount::FlopLedger;
use ns_core::Solver;
use ns_metrics::{FlightDump, MetricsSummary, Registry};
use ns_telemetry::{
    CommTotals, HealthConfig, HealthMonitor, HealthSample, PhaseLedger, RunSummary, TraceEvent, RUN_SUMMARY_SCHEMA,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation handle for an in-flight parallel run. Cloning
/// shares the flag; [`CancelToken::cancel`] asks every rank to stop at the
/// next step boundary. The stop is *collective*: each step the ranks
/// max-reduce their local view of the flag (under its own epoch namespace),
/// so they always break out of the step loop together — an in-flight rank
/// team is wound down, never abandoned mid-exchange.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request the run stop at the next step boundary.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Which telemetry instruments to arm for a parallel run. Everything is off
/// by default; the uninstrumented paths pay one branch per hook.
#[derive(Clone, Debug, Default)]
pub struct TelemetryOptions {
    /// Attribute each rank's wall time to the solver's named phases.
    pub phases: bool,
    /// Record timestamped phase/send/recv events on a shared timeline.
    pub trace: bool,
    /// Sample the watchdogs on this cadence, with a collective early abort
    /// the moment any rank's sample violates the limits.
    pub health: Option<HealthConfig>,
    /// Cooperative cancellation: when armed, every step starts with a
    /// max-reduction of the token's flag, so all ranks stop together at the
    /// same step boundary.
    pub cancel: Option<CancelToken>,
}

/// Epoch namespace for the health monitor's abort reduction, disjoint from
/// the adaptive-dt reduction (which uses the raw step number).
const HEALTH_EPOCH: u64 = 1 << 62;

/// Epoch namespace for the cancellation reduction, disjoint from the
/// adaptive-dt (raw step), health (`1 << 62`) and checkpoint (`1 << 61`)
/// namespaces.
const CANCEL_EPOCH: u64 = 3 << 60;

/// Result of one rank's run.
#[derive(Debug)]
pub struct RankResult {
    /// The rank id.
    pub rank: usize,
    /// Final local field (interior is authoritative).
    pub field: Field,
    /// Communication statistics.
    pub stats: CommStats,
    /// Time blocked in receives (non-overlapped communication).
    pub wait: Duration,
    /// Wall time minus wait (processor busy time, including message setup,
    /// exactly the paper's decomposition).
    pub busy: Duration,
    /// FLOP ledger.
    pub ledger: FlopLedger,
    /// Per-phase wall time (empty unless phases/trace telemetry was on).
    pub phases: PhaseLedger,
    /// This rank's timeline: phase spans and message events, sorted by
    /// start time (empty unless trace telemetry was on).
    pub trace: Vec<TraceEvent>,
    /// This rank's watchdog samples (empty unless health telemetry was on).
    pub health: Vec<HealthSample>,
    /// Steps this rank actually took (fewer than requested on abort).
    pub steps: u64,
    /// Why this rank stopped early, if it did.
    pub abort: Option<String>,
    /// Flight-recorder dump, taken only when this rank stopped early (a
    /// watchdog abort or cancellation freezes the ring as the black box).
    pub flight: Option<FlightDump>,
}

/// Result of a parallel run.
#[derive(Debug)]
pub struct ParallelRun {
    /// Per-rank results, index = rank.
    pub ranks: Vec<RankResult>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
    /// Configuration used.
    pub cfg: SolverConfig,
    /// Steps taken.
    pub nsteps: u64,
    /// Rollback/recovery accounting (populated only by
    /// [`crate::recover::run_parallel_chaos`]).
    pub recovery: Option<crate::recover::RecoveryReport>,
    /// Metrics recorded during this run: the after-minus-before diff of the
    /// process-wide registry, cut around the rank threads.
    pub metrics: MetricsSummary,
}

impl ParallelRun {
    /// Assemble the distributed solution into one whole-grid field.
    pub fn gather_field(&self) -> Field {
        let whole = Patch::whole(self.cfg.grid.clone());
        let mut out = Field::zeros(whole);
        for r in &self.ranks {
            for c in 0..4 {
                for i in 0..r.field.nxl() {
                    let gi = r.field.patch.i0 + i;
                    for j in 0..r.field.nr() {
                        let gj = r.field.patch.j0 + j;
                        out.set(c, gi as isize, gj as isize, r.field.at(c, i as isize, j as isize));
                    }
                }
            }
        }
        out
    }

    /// Aggregate FLOPs over all ranks.
    pub fn total_flops(&self) -> u64 {
        self.ranks.iter().map(|r| r.ledger.total()).sum()
    }

    /// Aggregate communication statistics.
    pub fn total_stats(&self) -> CommStats {
        let mut s = CommStats::default();
        for r in &self.ranks {
            s.merge(&r.stats);
        }
        s
    }

    /// Per-rank busy times in seconds (Figure 13's bars).
    pub fn busy_seconds(&self) -> Vec<f64> {
        self.ranks.iter().map(|r| r.busy.as_secs_f64()).collect()
    }

    /// One rank's measured `label -> seconds` phase breakdown (the shape
    /// `ns_archsim::SimResult::phase_seconds` reports for the same labels).
    pub fn rank_phase_seconds(&self, rank: usize) -> BTreeMap<&'static str, f64> {
        self.ranks[rank].phases.seconds_by_label()
    }

    /// The phase breakdown summed over ranks.
    pub fn phase_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut all = PhaseLedger::default();
        for r in &self.ranks {
            all.merge(&r.phases);
        }
        all.seconds_by_label()
    }

    /// All ranks' trace events on the shared timeline, sorted by start.
    /// Borrows from the per-rank storage — the merged view costs one pointer
    /// per event, not a clone of every label/payload record.
    pub fn merged_trace(&self) -> Vec<&TraceEvent> {
        let mut evs: Vec<&TraceEvent> = self.ranks.iter().flat_map(|r| r.trace.iter()).collect();
        evs.sort_by_key(|e| (e.t_us, e.rank));
        evs
    }

    /// The watchdog series reduced over ranks: per sampled step, the max of
    /// the maxima, the min of the minima, and the sum of the integrals.
    pub fn merged_health(&self) -> Vec<HealthSample> {
        let mut by_step: BTreeMap<u64, HealthSample> = BTreeMap::new();
        for r in &self.ranks {
            for s in &r.health {
                by_step
                    .entry(s.step)
                    .and_modify(|g| {
                        g.max_mach = g.max_mach.max(s.max_mach);
                        g.max_wave_speed = g.max_wave_speed.max(s.max_wave_speed);
                        g.min_rho = g.min_rho.min(s.min_rho);
                        g.min_p = g.min_p.min(s.min_p);
                        g.mass += s.mass;
                        g.energy += s.energy;
                        g.finite &= s.finite;
                    })
                    .or_insert(*s);
            }
        }
        by_step.into_values().collect()
    }

    /// Why the run aborted early, if any rank did.
    pub fn aborted(&self) -> Option<String> {
        // prefer a rank that saw the violation itself over peers that were
        // stopped by the collective flag
        self.ranks.iter().filter_map(|r| r.abort.clone()).reduce(|a, b| if a.contains("peer") { b } else { a })
    }

    /// Steps completed by every rank (the minimum across ranks). An empty
    /// rank set cannot occur — [`CartTopology::new`] rejects zero-rank
    /// topologies at construction — so this no longer silently reports 0
    /// steps for a run that never existed.
    pub fn steps_taken(&self) -> u64 {
        self.ranks.iter().map(|r| r.steps).min().expect("a parallel run has at least one rank")
    }

    /// Flight-recorder dumps of the ranks that stopped early (empty for a
    /// clean run), plus any the recovery driver collected.
    pub fn flight_dumps(&self) -> Vec<&FlightDump> {
        let mut out: Vec<&FlightDump> = self.ranks.iter().filter_map(|r| r.flight.as_ref()).collect();
        if let Some(rec) = &self.recovery {
            out.extend(rec.flight_dumps.iter());
        }
        out
    }

    /// The machine-readable run summary the `jetns` CLI writes as JSON.
    pub fn summary(&self, case: &str) -> RunSummary {
        let stats = self.total_stats();
        let mut s = RunSummary {
            schema_version: RUN_SUMMARY_SCHEMA,
            case: case.to_string(),
            regime: match self.cfg.regime {
                Regime::Euler => "euler".to_string(),
                Regime::NavierStokes => "navier-stokes".to_string(),
            },
            nx: self.cfg.grid.nx,
            nr: self.cfg.grid.nr,
            ranks: self.ranks.len(),
            steps_requested: self.nsteps,
            steps_taken: self.steps_taken(),
            wall_seconds: self.elapsed.as_secs_f64(),
            aborted: self.aborted(),
            phase_seconds: BTreeMap::new(),
            comm: CommTotals {
                sends: stats.sends,
                recvs: stats.recvs,
                bytes_sent: stats.bytes_sent,
                bytes_recvd: stats.bytes_recvd,
                retries: stats.retries,
                resends: stats.resends,
                corrupt_frames: stats.corrupt_frames,
                dup_frames: stats.dup_frames,
            },
            recovery: self.recovery.as_ref().map(|r| r.to_summary(&stats)),
            conservation: None,
            serve: None,
            metrics: (!self.metrics.is_empty()).then(|| self.metrics.clone()),
            health: self.merged_health(),
        };
        let mut all = PhaseLedger::default();
        for r in &self.ranks {
            all.merge(&r.phases);
        }
        s.set_phases(&all);
        s
    }
}

/// Run the solver on `p` axial ranks for `nsteps` steps, starting from the
/// standard initial condition (the paper's `P × 1` layout).
///
/// Panics if the decomposition is too fine for the 2-4 stencil and the
/// cubic boundary extrapolation (every rank needs at least 4 columns).
/// [`run_parallel_cart`] is the non-panicking generalization.
pub fn run_parallel(cfg: &SolverConfig, p: usize, nsteps: u64, version: CommVersion) -> ParallelRun {
    run_parallel_from(cfg, p, nsteps, version, None)
}

/// Run the solver over a 2-D pencil topology. The decomposition plan is
/// validated up front — split fineness on both axes plus the kernel and
/// comm-protocol restrictions of radial splits — and rejected as a typed
/// [`DecompositionError`] instead of a panic mid-run.
pub fn run_parallel_cart(
    cfg: &SolverConfig,
    topo: CartTopology,
    nsteps: u64,
    version: CommVersion,
) -> Result<ParallelRun, DecompositionError> {
    topo.validate(cfg, version)?;
    Ok(run_impl(cfg, topo, nsteps, version, None, TelemetryOptions::default()))
}

/// Run the solver on `p` ranks with the requested telemetry armed: phase
/// attribution, message/phase tracing on a shared timeline, and health
/// sampling with a collective early abort (every rank stops within one
/// cadence interval of the first violation, so no rank deadlocks waiting
/// for a peer that bailed out).
pub fn run_parallel_instrumented(
    cfg: &SolverConfig,
    p: usize,
    nsteps: u64,
    version: CommVersion,
    opts: TelemetryOptions,
) -> ParallelRun {
    run_impl(cfg, CartTopology::axial(p), nsteps, version, None, opts)
}

/// Restart a distributed run from a whole-grid checkpoint: the state is
/// scattered over the ranks and the clock/step parity continue where the
/// checkpoint left off. With `restart = None` this is a fresh run.
pub fn run_parallel_from(
    cfg: &SolverConfig,
    p: usize,
    nsteps: u64,
    version: CommVersion,
    restart: Option<&ns_core::checkpoint::Checkpoint>,
) -> ParallelRun {
    run_impl(cfg, CartTopology::axial(p), nsteps, version, restart, TelemetryOptions::default())
}

/// One collective health check. Every rank samples at the same
/// (synchronized) steps and a max-reduction of the local violation flags
/// decides for all of them, so the ranks always break out together instead
/// of deadlocking on a peer that bailed out. Returns `true` while the run
/// is globally healthy.
fn health_check(solver: &Solver, halo: &mut ThreadHalo<'_>, mon: &mut HealthMonitor) -> bool {
    if !mon.due(solver.nstep) {
        return true;
    }
    let local_ok = mon.observe(solver.health_sample());
    let flag = if local_ok { 0.0 } else { 1.0 };
    let global = collectives::allreduce_max(halo.endpoint_mut(), flag, HEALTH_EPOCH + solver.nstep)
        .expect("health abort reduction failed");
    if global > 0.0 && mon.healthy() {
        mon.abort = Some(format!("stopped by peer rank abort at step {}", solver.nstep));
    }
    global == 0.0
}

/// One collective cancellation check at a step boundary. Same collective
/// shape as [`health_check`]: a max-reduction of the local flag decides for
/// every rank at once, so a token fired between two ranks' checks can never
/// split the team. Returns the abort reason once cancellation is global.
fn cancel_check(solver: &Solver, halo: &mut ThreadHalo<'_>, tok: &CancelToken) -> Option<String> {
    let flag = if tok.is_cancelled() { 1.0 } else { 0.0 };
    let global = collectives::allreduce_max(halo.endpoint_mut(), flag, CANCEL_EPOCH + solver.nstep)
        .expect("cancellation reduction failed");
    (global > 0.0).then(|| format!("cancelled at step {}", solver.nstep))
}

pub(crate) fn run_impl(
    cfg: &SolverConfig,
    topo: CartTopology,
    nsteps: u64,
    version: CommVersion,
    restart: Option<&ns_core::checkpoint::Checkpoint>,
    opts: TelemetryOptions,
) -> ParallelRun {
    let p = topo.size();
    assert!(p >= 1);
    assert_eq!(cfg.dissipation, 0.0, "dissipation is serial-only (the paper's protocol has no smoothing halo)");
    // the panicking entry points route plan errors here; run_parallel_cart
    // has already returned them as typed values
    topo.validate(cfg, version).unwrap_or_else(|e| panic!("{e}"));

    if let Some(cp) = restart {
        assert_eq!(cp.patch.grid, cfg.grid, "checkpoint grid must match");
        assert!(
            cp.patch.nxl == cfg.grid.nx && cp.patch.nrl == cfg.grid.nr,
            "distributed restart needs a whole-grid checkpoint"
        );
    }
    let endpoints = universe(p);
    // shared by reference across the rank threads (the cancel token is a
    // shared flag; cloning per rank would be equivalent but pointless)
    let opts = &opts;
    // One origin for every rank's clock, so the per-rank timelines align.
    let trace_origin = Instant::now();
    let metrics_before = Registry::global().snapshot();
    let start = Instant::now();
    let mut ranks: Vec<RankResult> = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|mut ep| {
                let cfg = cfg.clone();
                s.spawn(move || {
                    let rank = ep.rank();
                    let patch = Patch::pencil(cfg.grid.clone(), topo.coords(rank), (topo.px, topo.pr));
                    let nb = topo.neighbors(rank);
                    let (nxl, nr) = (patch.nxl, patch.nr());
                    let mut solver = Solver::on_patch(cfg, patch);
                    if let Some(cp) = restart {
                        // scatter the whole-grid state into this rank's pencil
                        let (i0, j0) = (solver.field.patch.i0, solver.field.patch.j0);
                        for c in 0..4 {
                            for i in 0..nxl {
                                for j in 0..nr {
                                    let v = cp.q[c].at(i0 + i + ns_core::field::NG, j0 + j + ns_core::field::NG);
                                    solver.field.set(c, i as isize, j as isize, v);
                                }
                            }
                        }
                        solver.t = cp.t;
                        solver.nstep = cp.nstep;
                    }
                    if opts.trace {
                        solver.enable_phase_trace(trace_origin);
                        ep.tracer.enable(trace_origin);
                    } else if opts.phases {
                        solver.enable_phase_timing();
                    }
                    if opts.phases || opts.trace {
                        ep.send_time = Some(Duration::ZERO);
                    }
                    ep.flight.set_origin(trace_origin);
                    let mut mon = opts.health.map(HealthMonitor::new);
                    let mut steps = 0u64;
                    let mut cancelled: Option<String> = None;
                    let t0 = Instant::now();
                    {
                        let mut halo = ThreadHalo::new_cart(&mut ep, nb, nxl, nr, version);
                        let healthy_start = mon.as_mut().is_none_or(|m| health_check(&solver, &mut halo, m));
                        if healthy_start {
                            for _ in 0..nsteps {
                                if let Some(tok) = opts.cancel.as_ref() {
                                    cancelled = cancel_check(&solver, &mut halo, tok);
                                    if cancelled.is_some() {
                                        break;
                                    }
                                }
                                halo.begin_step(solver.nstep);
                                solver.step_with_halo(&mut halo);
                                steps += 1;
                                if let Some(m) = mon.as_mut() {
                                    if !health_check(&solver, &mut halo, m) {
                                        break;
                                    }
                                }
                            }
                        }
                    }
                    let wall = t0.elapsed();
                    let wait = ep.wait_time;
                    let (mut phases, phase_events) = solver.take_phase_telemetry();
                    let mut trace: Vec<TraceEvent> = Vec::new();
                    if opts.trace {
                        trace.extend(phase_events.iter().map(|e| TraceEvent::from_phase(rank, e)));
                        trace.append(&mut ep.tracer.take());
                        trace.sort_by_key(|e| e.t_us);
                    }
                    if opts.phases || opts.trace {
                        // The timer pauses around halo calls; the endpoint
                        // measures blocking receive time and send time
                        // instead (as `Duration`s: the trace events' whole
                        // microseconds round a sub-µs send to nothing).
                        phases.add("comm:recv", wait.as_secs_f64());
                        if let Some(send) = ep.send_time.filter(|t| !t.is_zero()) {
                            phases.add("comm:send", send.as_secs_f64());
                        }
                    }
                    let (health, abort) = mon.map_or((Vec::new(), None), |m| (m.samples, m.abort));
                    let was_cancelled = cancelled.is_some();
                    let abort = abort.or(cancelled);
                    // a rank that stopped early freezes its ring: the dump
                    // is the black box for diagnosing why
                    let flight = abort.as_ref().map(|reason| {
                        let kind = if was_cancelled { "cancelled" } else { "watchdog-abort" };
                        ep.flight.record(kind, reason.clone(), None, None, None, 0);
                        ep.flight.dump(rank, kind)
                    });
                    RankResult {
                        rank,
                        field: solver.field,
                        stats: ep.stats,
                        wait,
                        busy: wall.saturating_sub(wait),
                        ledger: solver.ledger,
                        phases,
                        trace,
                        health,
                        steps,
                        abort,
                        flight,
                    }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    });
    let elapsed = start.elapsed();
    ranks.sort_by_key(|r| r.rank);
    let metrics = MetricsSummary::from_snapshot(&Registry::global().snapshot().diff(&metrics_before));
    ParallelRun { ranks, elapsed, cfg: cfg.clone(), nsteps, recovery: None, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_core::config::Regime;
    use ns_core::workload;
    use ns_numerics::Grid;

    fn cfg(regime: Regime) -> SolverConfig {
        SolverConfig::paper(Grid::small(), regime)
    }

    /// Euler exchanges everything its stencils need, so the distributed
    /// solution is bitwise identical to the serial one. Navier-Stokes uses
    /// local one-sided stencils for the radial operator's viscous
    /// cross-derivatives at internal edges (the paper's protocol carries no
    /// radial-sweep messages), which is O(dx^2 * mu)-consistent: the
    /// difference must be at viscous truncation level, orders below the
    /// solution scale.
    #[test]
    fn parallel_matches_serial() {
        for (regime, tol) in [(Regime::Euler, 0.0), (Regime::NavierStokes, 1e-9)] {
            let cfg = cfg(regime);
            let mut serial = Solver::new(cfg.clone());
            serial.run(6);
            for p in [2, 3, 5] {
                let run = run_parallel(&cfg, p, 6, CommVersion::V5);
                let gathered = run.gather_field();
                let d = serial.field.max_diff(&gathered);
                assert!(d <= tol, "{regime:?} p={p}: diff {d} exceeds {tol}");
            }
        }
    }

    #[test]
    fn v7_protocol_matches_v5_bitwise() {
        let cfg = cfg(Regime::NavierStokes);
        let a = run_parallel(&cfg, 3, 4, CommVersion::V5);
        let b = run_parallel(&cfg, 3, 4, CommVersion::V7);
        assert_eq!(a.gather_field().max_diff(&b.gather_field()), 0.0, "V7 moves the same data");
    }

    #[test]
    fn startup_counts_match_table1_protocol() {
        let nsteps = 5;
        for (regime, per_step) in [(Regime::NavierStokes, 16u64), (Regime::Euler, 12u64)] {
            let run = run_parallel(&cfg(regime), 4, nsteps, CommVersion::V5);
            // interior ranks (1, 2) have two neighbours
            for r in &run.ranks[1..3] {
                assert_eq!(
                    r.stats.startups(),
                    per_step * nsteps,
                    "{regime:?} rank {}: paper protocol start-ups",
                    r.rank
                );
            }
            // edge ranks have one neighbour: half the start-ups
            assert_eq!(run.ranks[0].stats.startups(), per_step * nsteps / 2);
            assert_eq!(run.ranks[3].stats.startups(), per_step * nsteps / 2);
        }
    }

    #[test]
    fn message_volume_matches_workload_model() {
        let nsteps = 3;
        let c = cfg(Regime::NavierStokes);
        let run = run_parallel(&c, 4, nsteps, CommVersion::V5);
        let w = workload::step_workload(Regime::NavierStokes, &c.grid, c.grid.nx / 4);
        let expected_interior = w.bytes_sent_per_step(2) * nsteps;
        assert_eq!(run.ranks[1].stats.bytes_sent, expected_interior);
        assert_eq!(run.ranks[0].stats.bytes_sent, expected_interior / 2);
    }

    #[test]
    fn ledger_total_is_close_to_serial() {
        let c = cfg(Regime::Euler);
        let mut serial = Solver::new(c.clone());
        serial.run(4);
        let run = run_parallel(&c, 4, 4, CommVersion::V5);
        let par = run.total_flops() as f64;
        let ser = serial.ledger.total() as f64;
        // parallel does a little extra boundary/ghost work; totals must be
        // within a few percent
        assert!((par - ser).abs() / ser < 0.05, "serial {ser} vs parallel {par}");
    }

    #[test]
    fn distributed_restart_is_transparent() {
        use ns_core::checkpoint::Checkpoint;
        let c = cfg(Regime::Euler);
        // uninterrupted reference: 9 steps serial
        let mut reference = Solver::new(c.clone());
        reference.run(9);
        // 4 serial steps, checkpoint, then 5 more on 3 ranks
        let mut first = Solver::new(c.clone());
        first.run(4);
        let cp = Checkpoint::capture(&first);
        let resumed = run_parallel_from(&c, 3, 5, CommVersion::V5, Some(&cp));
        assert_eq!(reference.field.max_diff(&resumed.gather_field()), 0.0, "scatter restart is bitwise");
        // the resumed ranks continued the global clock
        assert!(resumed.ranks[0].ledger.total() > 0);
    }

    #[test]
    fn instrumented_run_collects_phases_trace_and_health() {
        let c = cfg(Regime::NavierStokes);
        let opts = TelemetryOptions {
            phases: true,
            trace: true,
            health: Some(ns_telemetry::HealthConfig { cadence: 2, ..Default::default() }),
            ..Default::default()
        };
        let run = run_parallel_instrumented(&c, 3, 4, CommVersion::V5, opts);
        assert_eq!(run.steps_taken(), 4);
        assert!(run.aborted().is_none());
        // phases: the measured breakdown uses the simulator's vocabulary
        let phases = run.phase_seconds();
        for label in ["r:prims", "x:flux", "x:correct", "comm:recv"] {
            assert!(phases.contains_key(label), "missing {label}");
        }
        // per-rank breakdown exists and interior rank saw comm time
        assert!(run.rank_phase_seconds(1).contains_key("x:flux2"));
        // trace: phase spans and message events on one timeline, sorted
        let trace = run.merged_trace();
        assert!(trace.iter().any(|e| e.kind == ns_telemetry::EventKind::Phase));
        assert!(trace.iter().any(|e| e.kind == ns_telemetry::EventKind::Send));
        assert!(trace.iter().any(|e| e.kind == ns_telemetry::EventKind::Recv));
        assert!(trace.windows(2).all(|w| w[0].t_us <= w[1].t_us));
        // every rank appears on the timeline
        for rank in 0..3 {
            assert!(trace.iter().any(|e| e.rank == rank), "rank {rank} missing");
        }
        // health: sampled at steps 0, 2, 4 and merged over ranks
        let health = run.merged_health();
        assert_eq!(health.iter().map(|s| s.step).collect::<Vec<_>>(), vec![0, 2, 4]);
        assert!(health.iter().all(|s| s.finite && s.min_p > 0.0));
        // summary ties it all together and serializes
        let summary = run.summary("test-case");
        assert_eq!(summary.ranks, 3);
        assert_eq!(summary.steps_taken, 4);
        assert_eq!(summary.comm.sends, run.total_stats().sends);
        let json = summary.to_json();
        assert!(json.contains("\"phase_seconds\""));
        assert!(json.contains("navier-stokes"));
    }

    /// `comm:send` comes from the endpoint's own clock, so it exists with
    /// phase timing alone (no trace events to sum) and is not lost when
    /// every send is shorter than the trace's whole-microsecond durations.
    #[test]
    fn send_phase_needs_no_trace_events() {
        let c = cfg(Regime::Euler);
        let opts = TelemetryOptions { phases: true, ..Default::default() };
        let run = run_parallel_instrumented(&c, 2, 4, CommVersion::V5, opts);
        assert!(run.ranks.iter().all(|r| r.trace.is_empty()));
        for rank in 0..2 {
            let send = run.rank_phase_seconds(rank).get("comm:send").copied().unwrap_or(0.0);
            assert!(send > 0.0, "rank {rank}: sends took time");
        }
    }

    #[test]
    fn telemetry_off_leaves_results_empty_and_state_identical() {
        let c = cfg(Regime::Euler);
        let plain = run_parallel(&c, 2, 3, CommVersion::V5);
        let inst = run_parallel_instrumented(
            &c,
            2,
            3,
            CommVersion::V5,
            TelemetryOptions { phases: true, trace: true, health: Some(Default::default()), ..Default::default() },
        );
        assert!(plain.ranks.iter().all(|r| r.phases.is_empty() && r.trace.is_empty() && r.health.is_empty()));
        // instrumentation observes, never perturbs
        assert_eq!(plain.gather_field().max_diff(&inst.gather_field()), 0.0);
    }

    #[test]
    fn health_abort_stops_all_ranks_together() {
        let c = cfg(Regime::Euler);
        // jet core is Mach 1.5: violated immediately
        let limits = ns_telemetry::HealthLimits { max_mach: 0.5, ..Default::default() };
        let opts = TelemetryOptions {
            phases: false,
            trace: false,
            health: Some(ns_telemetry::HealthConfig { cadence: 2, limits }),
            ..Default::default()
        };
        let run = run_parallel_instrumented(&c, 3, 10, CommVersion::V5, opts);
        // the step-0 sample already violates, so nobody takes a step
        assert_eq!(run.steps_taken(), 0);
        let reason = run.aborted().expect("must abort");
        assert!(reason.contains("Mach"), "got: {reason}");
        // every rank stopped, none deadlocked
        assert!(run.ranks.iter().all(|r| r.abort.is_some()));
    }

    #[test]
    fn cancel_token_stops_all_ranks_together() {
        let c = cfg(Regime::Euler);
        let tok = CancelToken::new();
        let opts = TelemetryOptions { cancel: Some(tok.clone()), ..Default::default() };
        let firer = tok.clone();
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            firer.cancel();
        });
        // far more steps than fit in 30ms: without cancellation this would
        // run for minutes
        let run = run_parallel_instrumented(&c, 3, 1_000_000, CommVersion::V5, opts);
        h.join().unwrap();
        assert!(run.steps_taken() < 1_000_000, "run must stop early");
        // the collective reduction stops every rank at the same boundary
        let steps: Vec<u64> = run.ranks.iter().map(|r| r.steps).collect();
        assert!(steps.windows(2).all(|w| w[0] == w[1]), "ranks diverged: {steps:?}");
        let reason = run.aborted().expect("cancellation is an abort");
        assert!(reason.contains("cancelled"), "got: {reason}");
        assert!(run.ranks.iter().all(|r| r.abort.is_some()), "every rank records the stop");
    }

    /// An armed but never-fired token must not perturb the run: same steps,
    /// bitwise-identical field, no abort.
    #[test]
    fn armed_unfired_cancel_is_a_bitwise_noop() {
        let c = cfg(Regime::Euler);
        let plain = run_parallel(&c, 2, 4, CommVersion::V5);
        let tok = CancelToken::new();
        let opts = TelemetryOptions { cancel: Some(tok), ..Default::default() };
        let armed = run_parallel_instrumented(&c, 2, 4, CommVersion::V5, opts);
        assert_eq!(armed.steps_taken(), 4);
        assert!(armed.aborted().is_none());
        assert_eq!(plain.gather_field().max_diff(&armed.gather_field()), 0.0);
    }

    #[test]
    #[should_panic(expected = "whole-grid checkpoint")]
    fn partial_checkpoint_is_rejected_for_restart() {
        use ns_core::checkpoint::Checkpoint;
        let c = cfg(Regime::Euler);
        let partial = Solver::on_patch(c.clone(), Patch::block(c.grid.clone(), 0, 2));
        let cp = Checkpoint::capture(&partial);
        let _ = run_parallel_from(&c, 2, 1, CommVersion::V5, Some(&cp));
    }

    #[test]
    #[should_panic(expected = "fewer than 4 columns")]
    fn too_many_ranks_is_rejected() {
        let c = cfg(Regime::Euler);
        let _ = run_parallel(&c, 20, 1, CommVersion::V5);
    }

    /// Euler pencils are bitwise for every shape (point-local fluxes, all
    /// exchanged data central); Navier-Stokes pencils are bitwise for pure
    /// radial splits and viscous-truncation-close once the axial direction
    /// is split (the one-sided viscous `∂x` at internal axial edges).
    #[test]
    fn pencil_matches_serial() {
        for (regime, shapes, tol) in [
            (Regime::Euler, vec![(1, 2), (2, 2), (3, 2)], 0.0),
            (Regime::NavierStokes, vec![(1, 2), (1, 4)], 0.0),
            (Regime::NavierStokes, vec![(2, 2)], 1e-9),
        ] {
            let cfg = cfg(regime);
            let mut serial = Solver::new(cfg.clone());
            serial.run(6);
            for (px, pr) in shapes {
                let topo = CartTopology::new(px, pr).unwrap();
                let run = run_parallel_cart(&cfg, topo, 6, CommVersion::V5).unwrap();
                let d = serial.field.max_diff(&run.gather_field());
                assert!(d <= tol, "{regime:?} {px}x{pr}: diff {d} exceeds {tol}");
            }
        }
    }

    /// The degenerate pencil shapes reproduce the 1-D drivers bitwise:
    /// `P × 1` is the existing axial path by construction, `1 × 1` a true
    /// single-rank no-op.
    #[test]
    fn degenerate_pencils_reproduce_axial_path() {
        let c = cfg(Regime::NavierStokes);
        let axial = run_parallel(&c, 3, 5, CommVersion::V5);
        let cart = run_parallel_cart(&c, CartTopology::axial(3), 5, CommVersion::V5).unwrap();
        assert_eq!(axial.gather_field().max_diff(&cart.gather_field()), 0.0);
        for (a, b) in axial.ranks.iter().zip(&cart.ranks) {
            assert_eq!(a.stats.startups(), b.stats.startups(), "rank {}: same protocol", a.rank);
        }
        let single = run_parallel_cart(&c, CartTopology::axial(1), 5, CommVersion::V5).unwrap();
        assert_eq!(single.total_stats().sends, 0, "1x1 exchanges nothing");
        let mut serial = Solver::new(c);
        serial.run(5);
        assert_eq!(serial.field.max_diff(&single.gather_field()), 0.0);
    }

    /// Too-fine plans on either axis come back as typed errors from
    /// validation, not a panic (or worse, a wrong answer) mid-run.
    #[test]
    fn too_fine_decomposition_is_a_typed_error() {
        let c = cfg(Regime::Euler);
        // 1-D regression: 20 ranks over 50 columns leaves 2 columns
        let err = run_parallel_cart(&c, CartTopology::axial(20), 1, CommVersion::V5).unwrap_err();
        assert_eq!(err, DecompositionError::TooFewColumns { px: 20, nx: 50 });
        // 2-D, axial axis too fine even with a coarse radial split
        let err = run_parallel_cart(&c, CartTopology::new(16, 2).unwrap(), 1, CommVersion::V5).unwrap_err();
        assert_eq!(err, DecompositionError::TooFewColumns { px: 16, nx: 50 });
        // 2-D, radial axis too fine: 8 ranks over 20 rows leaves 2 rows
        let err = run_parallel_cart(&c, CartTopology::new(1, 8).unwrap(), 1, CommVersion::V5).unwrap_err();
        assert_eq!(err, DecompositionError::TooFewRows { pr: 8, nr: 20 });
    }

    /// Radial splits are restricted to the unfused kernels and the grouped
    /// comm protocol; both restrictions surface as typed plan errors.
    #[test]
    fn radial_split_restrictions_are_typed_errors() {
        let mut c = cfg(Regime::Euler);
        let topo = CartTopology::new(1, 2).unwrap();
        assert_eq!(run_parallel_cart(&c, topo, 1, CommVersion::V7).unwrap_err(), DecompositionError::UnsupportedComm);
        c.version = ns_core::config::Version::V6;
        assert_eq!(
            run_parallel_cart(&c, topo, 1, CommVersion::V5).unwrap_err(),
            DecompositionError::UnsupportedVersion { version: ns_core::config::Version::V6 }
        );
    }
}
