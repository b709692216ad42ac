//! The distributed-memory parallel driver: one OS thread per rank, the
//! paper's axial block decomposition generalized to 2-D pencils over a
//! [`CartTopology`], real message passing through the in-process endpoints.
//! It is also the serial driver: a 1×1 plan runs its one rank on the
//! calling thread, bitwise [`Solver::step`].
//!
//! Beyond real wall-clock speedup, the driver records the same breakdown the
//! paper plots: per-rank *processor busy time* and *non-overlapped
//! communication time* (Figures 5, 6, 13), message start-ups and volume
//! (Tables 1, 2).

use crate::comm::{universe, CommError, CommStats, Endpoint};
use crate::fault::FaultStats;
use crate::halo::{CommVersion, ThreadHalo};
use crate::recover::{ChaosOptions, Recovery, RecoveryReport};
use crate::topology::{CartTopology, DecompositionError};
use ns_core::checkpoint::Checkpoint;
use ns_core::config::SolverConfig;
use ns_core::diag::{self, ClosedLedger, ConservationLedger};
use ns_core::field::{Field, Patch, NG};
use ns_core::opcount::FlopLedger;
use ns_core::Solver;
use ns_metrics::{FlightDump, MetricsSummary, Registry};
use ns_telemetry::{
    CommTotals, Event, HealthConfig, HealthMonitor, HealthSample, PhaseLedger, RunSummary, RUN_SUMMARY_SCHEMA,
};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Which telemetry instruments to arm for a parallel run. Everything is off
/// by default; the uninstrumented paths pay one branch per hook.
#[derive(Clone, Debug, Default)]
pub struct TelemetryOptions {
    /// Attribute each rank's wall time to the solver's named phases.
    pub phases: bool,
    /// Keep every phase, message, fault and mark event on a shared timeline
    /// (the ranks' recorders stop evicting, and the run hands the events
    /// over in [`RankResult::trace`]).
    pub trace: bool,
    /// Sample the watchdogs on this cadence, with a collective early abort
    /// the moment any rank's sample violates the limits; every rank also
    /// keeps a conservation ledger over its patch, recorded every step.
    pub health: Option<HealthConfig>,
}

/// Everything one parallel run is given; [`run`] executes it.
#[derive(Clone, Debug)]
pub struct RunPlan<'a> {
    /// Solver configuration, the same on every rank.
    pub cfg: &'a SolverConfig,
    /// The `px × pr` rank grid ([`CartTopology::axial`] is the paper's).
    pub topology: CartTopology,
    /// Steps to take (on top of `resume`'s, when resuming).
    pub nsteps: u64,
    /// Halo protocol variant.
    pub comm: CommVersion,
    /// Instruments to arm.
    pub telemetry: TelemetryOptions,
    /// `None`: plain channels, a comm error is fatal. `Some`: framed,
    /// self-healing channels under this fault plan, with coordinated
    /// checkpoints and rollback ([`crate::recover`]).
    pub reliability: Option<ChaosOptions>,
    /// Start from this whole-grid checkpoint, scattered over the ranks,
    /// instead of the standard initial condition.
    pub resume: Option<&'a Checkpoint>,
    /// Each rank's DOALL team ([`Solver::with_threads`]; 1: none, 0: refused).
    /// Only kernel V5's station loops use it, so it changes no answer; the
    /// 1×1 plan with a team is the shared-memory (Y-MP) solver.
    pub threads: usize,
}

impl<'a> RunPlan<'a> {
    /// A fault-free, uninstrumented run from the initial condition; arm the
    /// rest with struct-update syntax.
    pub fn new(cfg: &'a SolverConfig, topology: CartTopology, nsteps: u64, comm: CommVersion) -> Self {
        let telemetry = TelemetryOptions::default();
        Self { cfg, topology, nsteps, comm, telemetry, reliability: None, resume: None, threads: 1 }
    }

    /// The typed refusals: a rank grid too fine for the grid, or no threads.
    pub fn validate(&self) -> Result<(), DecompositionError> {
        if self.threads == 0 {
            return Err(DecompositionError::ZeroThreads);
        }
        self.topology.validate(&self.cfg.grid)
    }

    /// The global step the run starts at.
    fn first_step(&self) -> u64 {
        self.resume.map_or(0, |cp| cp.nstep)
    }
}

/// Epoch namespace for the health monitor's abort reduction, disjoint from
/// the adaptive-dt reduction (which uses the raw step number).
const HEALTH_EPOCH: u64 = 1 << 62;

/// Epoch namespace for the coordinated-checkpoint barriers.
const CHECKPOINT_EPOCH: u64 = 1 << 61;

/// Result of one rank's run.
#[derive(Debug)]
pub struct RankResult {
    /// The rank id.
    pub rank: usize,
    /// Final local field (interior is authoritative).
    pub field: Field,
    /// Physical time the rank's clock reached.
    pub t: f64,
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
    /// This rank's timeline: phase spans, message and fault events and
    /// lifecycle marks, in the order the rank ran them (empty unless trace
    /// telemetry was on).
    pub trace: Vec<Event>,
    /// This rank's watchdog samples (empty unless health telemetry was on).
    pub health: Vec<HealthSample>,
    /// This rank's conservation ledger over its own patch, opened on the
    /// final generation's starting state (`None` unless health telemetry
    /// was on).
    pub conservation: Option<ConservationLedger>,
    /// Steps this rank actually took (fewer than requested on abort).
    pub steps: u64,
    /// Why this rank stopped early, if it did.
    pub abort: Option<String>,
    /// Flight-recorder dump, taken only when this rank stopped early (a
    /// watchdog abort freezes the ring as the black box).
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
    /// Rollback/recovery accounting (`Some` exactly when the plan armed
    /// `reliability`).
    pub recovery: Option<RecoveryReport>,
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
    pub fn merged_trace(&self) -> Vec<&Event> {
        let mut evs: Vec<&Event> = self.ranks.iter().flat_map(|r| r.trace.iter()).collect();
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

    /// The whole grid's conservation ledger, closed on the final state:
    /// the ranks' patch ledgers and final invariants summed (`None` unless
    /// health telemetry was on). Invariants, owned-boundary fluxes and
    /// their time integrals are all sums over patches.
    pub fn conservation(&self) -> Option<ClosedLedger> {
        let mut parts = self.ranks.iter().map(|r| Some((r.conservation.as_ref()?, diag::invariants(&r.field))));
        let (first, mut now) = parts.next()??;
        let mut whole = first.clone();
        for part in parts {
            let (ledger, inv) = part?;
            whole.merge(ledger);
            now += inv;
        }
        Some(whole.close_on(now))
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
            regime: self.cfg.regime.key().to_string(),
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
            conservation: self.conservation().map(ClosedLedger::to_summary),
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
    run(&RunPlan::new(cfg, CartTopology::axial(p), nsteps, version)).unwrap_or_else(|e| panic!("{e}"))
}

/// Run the solver over a 2-D pencil topology; a plan the decomposition
/// cannot carry comes back as a typed [`DecompositionError`].
pub fn run_parallel_cart(
    cfg: &SolverConfig,
    topo: CartTopology,
    nsteps: u64,
    version: CommVersion,
) -> Result<ParallelRun, DecompositionError> {
    run(&RunPlan::new(cfg, topo, nsteps, version))
}

/// Run the solver on `p` axial ranks with the requested telemetry armed.
pub fn run_parallel_instrumented(
    cfg: &SolverConfig,
    p: usize,
    nsteps: u64,
    version: CommVersion,
    opts: TelemetryOptions,
) -> ParallelRun {
    run(&RunPlan { telemetry: opts, ..RunPlan::new(cfg, CartTopology::axial(p), nsteps, version) })
        .unwrap_or_else(|e| panic!("{e}"))
}

/// The one driver: validate the plan once, then run rank teams — one OS
/// thread per rank, rank 0 on the caller's — generation after generation
/// until one comes through. Without `reliability` that is exactly one
/// generation with a strict halo: a comm error is a panic, as a PVM task
/// dies with its virtual machine. With it, a generation that lost a rank or exhausted a retry
/// budget is rolled back ([`crate::recover`]) and the final field is bitwise
/// the fault-free run's.
///
/// Telemetry spans the generations as `stats`/`wait`/`busy` do: counters,
/// phase ledgers and trace events (one shared origin; spans carry the
/// generation) accumulate, and health samples at or past the restart step
/// are dropped on rollback, so each sampled step appears once. A health
/// abort ends the run; only a comm failure rolls it back.
///
/// A plan the decomposition cannot carry (too fine, or no threads) is a
/// typed error ([`RunPlan::validate`]); a wrong one (a `resume` checkpoint
/// that is not this grid's whole field) panics.
pub fn run(plan: &RunPlan) -> Result<ParallelRun, DecompositionError> {
    let RunPlan { cfg, topology: topo, nsteps, .. } = *plan;
    plan.validate()?;
    if let Some(cp) = plan.resume {
        assert_eq!(cp.patch, Patch::whole(cfg.grid.clone()), "distributed restart needs a whole-grid checkpoint");
    }
    let p = topo.size();
    let mut recovery = plan.reliability.as_ref().map(|opts| Recovery::new(opts, p, plan.first_step()));
    let mut carries: Vec<Carry> =
        (0..p).map(|_| Carry { mon: plan.telemetry.health.map(HealthMonitor::new), ..Default::default() }).collect();
    // One origin for every rank's clock, so the per-rank timelines align.
    let origin = Instant::now();
    let metrics_before = Registry::global().snapshot();
    let start = Instant::now();
    let attempts = loop {
        let mut attempts = generation(plan, recovery.as_ref(), &mut carries, origin);
        let Some(restart) = recovery.as_mut().and_then(|rec| rec.settle(&mut attempts)) else {
            break attempts;
        };
        // the next generation samples these steps again (and whatever a
        // rank sampled after its halo went dead is past `restart` too)
        for mon in carries.iter_mut().filter_map(|c| c.mon.as_mut()) {
            mon.samples.retain(|s| s.step < restart);
            mon.abort = None;
        }
    };
    let elapsed = start.elapsed();
    let first = plan.first_step();
    let ranks = attempts
        .into_iter()
        .zip(carries)
        .enumerate()
        .map(|(rank, (a, c))| RankResult {
            rank,
            field: a.field,
            t: a.t,
            stats: c.stats,
            wait: c.wait,
            busy: c.busy,
            ledger: a.ledger,
            phases: c.phases,
            trace: c.trace,
            health: c.mon.map_or_else(Vec::new, |m| m.samples),
            conservation: a.conservation,
            steps: a.reached - first,
            abort: a.abort,
            flight: a.flight,
        })
        .collect();
    // recovery accounting lands in the registry before the run's metrics
    // window is cut, so the summary shows it
    let recovery = recovery.map(Recovery::finish);
    let metrics = MetricsSummary::from_snapshot(&Registry::global().snapshot().diff(&metrics_before));
    Ok(ParallelRun { ranks, elapsed, cfg: cfg.clone(), nsteps, recovery, metrics })
}

/// One generation: a fresh universe, armed for recovery when there is one,
/// and a rank team of one OS thread per rank. Rank 0 runs on the calling
/// thread, so a 1×1 plan spawns nothing.
fn generation(plan: &RunPlan, rec: Option<&Recovery>, carries: &mut [Carry], origin: Instant) -> Vec<Attempt> {
    let mut endpoints = universe(carries.len());
    if let Some(rec) = rec {
        rec.arm(&mut endpoints);
    }
    let mut ranks = endpoints.into_iter().zip(carries);
    let (ep0, carry0) = ranks.next().expect("a plan has at least one rank");
    std::thread::scope(|s| {
        let handles: Vec<_> =
            ranks.map(|(ep, carry)| s.spawn(move || run_rank(plan, rec, ep, carry, origin))).collect();
        let first = run_rank(plan, rec, ep0, carry0, origin);
        std::iter::once(first).chain(handles.into_iter().map(|h| h.join().expect("rank panicked"))).collect()
    })
}

/// What a rank accumulates over the generations of a run. The health
/// monitor lives here too: its mass-drift reference is the run's first
/// sample and must survive a rollback.
#[derive(Default)]
struct Carry {
    stats: CommStats,
    wait: Duration,
    busy: Duration,
    phases: PhaseLedger,
    trace: Vec<Event>,
    mon: Option<HealthMonitor>,
}

/// How one rank's generation ended.
pub(crate) struct Attempt {
    /// Final state: local field, FLOP ledger, clock and the step reached.
    field: Field,
    ledger: FlopLedger,
    t: f64,
    pub(crate) reached: u64,
    /// The patch's conservation ledger over this generation's steps.
    conservation: Option<ConservationLedger>,
    /// The newest two coordinated checkpoints captured, oldest first.
    pub(crate) cps: Vec<Checkpoint>,
    /// Every checkpoint captured, including those `cps` let go.
    pub(crate) captured: u64,
    pub(crate) crashed: bool,
    pub(crate) failure: Option<CommError>,
    /// Why the rank stopped early of its own accord (the watchdog).
    abort: Option<String>,
    pub(crate) faults: Option<FaultStats>,
    /// The frozen flight ring of a rank that did not finish.
    pub(crate) flight: Option<FlightDump>,
}

/// One collective health check. Every rank samples at the same
/// (synchronized) steps and a max-reduction of the local violation flags
/// decides for all of them, so the ranks always break out together instead
/// of deadlocking on a peer that bailed out. Returns `true` while the run
/// is globally healthy.
fn health_check(solver: &Solver, halo: &mut ThreadHalo<'_>, mon: &mut Option<HealthMonitor>) -> bool {
    let Some(mon) = mon.as_mut().filter(|m| m.due(solver.nstep)) else {
        return true;
    };
    let local_ok = mon.observe(solver.health_sample());
    let flag = if local_ok { 0.0 } else { 1.0 };
    let global = halo.allreduce_max(flag, HEALTH_EPOCH + solver.nstep, "health abort reduction");
    if global > 0.0 && mon.healthy() {
        mon.abort = Some(format!("stopped by peer rank abort at step {}", solver.nstep));
    }
    global == 0.0
}

/// Scatter a whole-grid checkpoint into a rank's pencil; the clock and step
/// parity continue where the checkpoint left off.
fn scatter(cp: &Checkpoint, solver: &mut Solver) {
    let patch = solver.field.patch.clone();
    for c in 0..4 {
        for i in 0..patch.nxl {
            for j in 0..patch.nr() {
                let v = cp.q[c].at(patch.i0 + i + NG, patch.j0 + j + NG);
                solver.field.set(c, i as isize, j as isize, v);
            }
        }
    }
    solver.t = cp.t;
    solver.nstep = cp.nstep;
}

/// The rank body: one rank of one generation, from its starting state (the
/// rollback checkpoint, else the plan's `resume` scattered, else the
/// initial condition) through the step loop, adding what it measured to
/// `carry`.
fn run_rank(plan: &RunPlan, rec: Option<&Recovery>, mut ep: Endpoint, carry: &mut Carry, origin: Instant) -> Attempt {
    let RunPlan { cfg, topology: topo, comm, telemetry: ref tel, .. } = *plan;
    let rank = ep.rank();
    let mut solver = rec.and_then(|r| r.restore(rank)).unwrap_or_else(|| {
        let patch = Patch::pencil(cfg.grid.clone(), topo.coords(rank), (topo.px, topo.pr));
        let mut solver = Solver::on_patch(cfg.clone(), patch);
        if let Some(cp) = plan.resume {
            scatter(cp, &mut solver);
        }
        solver
    });
    // fresh or restored after a rollback, the rank carries the plan's team
    if plan.threads > 1 {
        solver = solver.with_threads(plan.threads);
    }
    let timed = tel.phases || tel.trace;
    let mut conservation = tel.health.is_some().then(|| ConservationLedger::open(&solver.field, solver.gas()));
    ep.recorder.set_origin(origin);
    if tel.trace {
        // the phase spans share the endpoint's program-order counter, so
        // the rank's timeline merges in the order the rank ran it
        ep.recorder.trace();
        solver.enable_phase_trace(ep.recorder.sibling());
    } else if tel.phases {
        solver.enable_phase_timing();
    }
    let last = plan.first_step() + plan.nsteps;
    let (nxl, nr) = (solver.field.patch.nxl, solver.field.patch.nr());
    let mut cps: Vec<Checkpoint> = Vec::new();
    let mut captured = 0;
    let mut crashed = false;
    let t0 = Instant::now();
    let failure = {
        let mut halo = ThreadHalo::new_cart(&mut ep, topo.neighbors(rank), nxl, nr, comm);
        if let Some(rec) = rec {
            halo.set_lenient();
            halo.set_generation(u64::from(rec.generation()));
        }
        let mut healthy = health_check(&solver, &mut halo, &mut carry.mon);
        while healthy && solver.nstep < last && halo.failure().is_none() {
            if let Some(rec) = rec {
                if solver.nstep.is_multiple_of(rec.opts.checkpoint_every) {
                    // coordinated: agree the universe is intact, then
                    // snapshot locally (bitwise, ghosts included)
                    halo.allreduce_max(0.0, CHECKPOINT_EPOCH + solver.nstep, "checkpoint barrier");
                    if halo.failure().is_some() {
                        break;
                    }
                    // a rank past this barrier is at most one checkpoint
                    // ahead of any other, so the newest two always hold the
                    // newest step every rank has
                    if cps.len() == 2 {
                        cps.remove(0);
                    }
                    cps.push(Checkpoint::capture(&solver));
                    captured += 1;
                }
                if rec.plan.crash.is_some_and(|c| c.rank == rank && c.step == solver.nstep) {
                    // die silently, like a hung workstation: the peers find
                    // out through their timeouts. The crash is the last
                    // thing the black box sees.
                    let span = ns_metrics::span_id(u64::from(rec.generation()), solver.nstep);
                    halo.endpoint_mut().recorder.mark("crash", None, Some(span));
                    crashed = true;
                    break;
                }
            }
            halo.begin_step(solver.nstep);
            solver.step_with_halo(&mut halo);
            if let Some(ledger) = conservation.as_mut() {
                ledger.record(&solver.field, solver.gas(), solver.dt());
            }
            healthy = health_check(&solver, &mut halo, &mut carry.mon);
        }
        halo.failure().cloned()
    };
    let wall = t0.elapsed();
    let wait = ep.wait_time;
    carry.stats.merge(&ep.stats);
    carry.wait += wait;
    carry.busy += wall.saturating_sub(wait);
    let (mut phases, spans) = solver.take_phase_telemetry();
    if timed {
        // The timer pauses around halo calls; the endpoint measures
        // blocking receive time and send time instead (as `Duration`s: the
        // events' whole microseconds round a sub-µs send to nothing).
        phases.add("comm:recv", wait.as_secs_f64(), 0);
        phases.add("comm:send", ep.send_time.as_secs_f64(), 0);
    }
    carry.phases.merge(&phases);
    let abort = carry.mon.as_ref().and_then(|m| m.abort.clone());
    // a rank that did not finish freezes its ring as the black box: the
    // steps leading to the crash, the healing attempts before the rollback,
    // or why it stopped
    let flight = if crashed {
        Some(ep.recorder.dump("rank-crash"))
    } else if failure.is_some() {
        Some(ep.recorder.dump("rollback"))
    } else {
        abort.as_ref().map(|reason| {
            ep.recorder.mark(format!("watchdog-abort: {reason}"), None, None);
            ep.recorder.dump("watchdog-abort")
        })
    };
    // the traced timeline is taken after the dump, so it ends with the
    // same events the black box does
    if let Some(spans) = spans {
        ep.recorder.absorb(spans);
    }
    carry.trace.append(&mut ep.recorder.take());
    let Solver { field, ledger, t, nstep: reached, .. } = solver;
    let faults = ep.fault_stats();
    Attempt { field, ledger, t, reached, conservation, cps, captured, crashed, failure, abort, faults, flight }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use ns_core::config::Regime;
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

    /// The paper's protocol volume: per step and axial neighbour, N-S sends
    /// two grouped primitive columns (`u, v, T`) and two two-column flux
    /// packets (4 components) of `nr` doubles each.
    #[test]
    fn message_volume_matches_the_paper_protocol() {
        let nsteps = 3;
        let c = cfg(Regime::NavierStokes);
        let run = run_parallel(&c, 4, nsteps, CommVersion::V5);
        let per_neighbour = (2 * 3 + 2 * 4 * 2) * c.grid.nr as u64 * 8;
        let expected_interior = 2 * per_neighbour * nsteps;
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

    /// A resumed plan is the uninterrupted run, bitwise: Euler on every
    /// shape, and both regimes on the 1×1 plan (the serial restart).
    #[test]
    fn distributed_restart_is_transparent() {
        let slabs_and_pencils = [CartTopology::axial(1), CartTopology::axial(3), CartTopology::new(2, 2).unwrap()];
        for (regime, topologies) in
            [(Regime::Euler, &slabs_and_pencils[..]), (Regime::NavierStokes, &[CartTopology::axial(1)])]
        {
            let c = cfg(regime);
            // uninterrupted reference: 9 steps serial
            let mut reference = Solver::new(c.clone());
            reference.run(9);
            // 4 serial steps, checkpoint, then 5 more on the plan
            let mut first = Solver::new(c.clone());
            first.run(4);
            let cp = Checkpoint::capture(&first);
            for &topo in topologies {
                let plan = RunPlan { resume: Some(&cp), ..RunPlan::new(&c, topo, 5, CommVersion::V5) };
                let resumed = run(&plan).unwrap();
                let what = format!("{regime:?} {topo:?}");
                assert_eq!(
                    reference.field.max_diff(&resumed.gather_field()),
                    0.0,
                    "{what}: scatter restart is bitwise"
                );
                assert_eq!(resumed.steps_taken(), 5, "{what}: nsteps count from the checkpoint");
                // the resumed ranks continued the global clock
                assert_eq!(resumed.ranks[0].t, reference.t, "{what}");
                assert!(resumed.ranks[0].ledger.total() > 0);
            }
        }
    }

    /// The serial run, slabs, a pure radial split and 2-D pencils all run
    /// the one rank body, so every instrument works on every shape.
    #[test]
    fn instrumented_run_collects_phases_trace_and_health() {
        let c = cfg(Regime::NavierStokes);
        let telemetry = TelemetryOptions {
            phases: true,
            trace: true,
            health: Some(ns_telemetry::HealthConfig { cadence: 2, ..Default::default() }),
        };
        let shapes = [
            CartTopology::axial(1),
            CartTopology::axial(3),
            CartTopology::new(1, 2).unwrap(),
            CartTopology::new(2, 2).unwrap(),
        ];
        for topo in shapes {
            let plan = RunPlan { telemetry: telemetry.clone(), ..RunPlan::new(&c, topo, 4, CommVersion::V5) };
            let run = run(&plan).unwrap();
            assert_eq!(run.steps_taken(), 4);
            assert!(run.aborted().is_none());
            // phases: the measured breakdown uses the one phase
            // vocabulary, every phase of the V5 step included
            let phases = run.phase_seconds();
            for label in [
                "r:prims",
                "r:flux",
                "r:predict",
                "r:prims2",
                "r:flux2",
                "r:correct",
                "x:prims",
                "x:flux",
                "x:predict",
                "x:prims2",
                "x:flux2",
                "x:correct",
                "bc:step",
                "comm:recv",
            ] {
                assert!(phases.contains_key(label), "{topo:?}: missing {label}");
            }
            // per-rank breakdown exists
            assert!(run.rank_phase_seconds(topo.size() - 1).contains_key("x:flux2"));
            // trace: phase spans and message events on one timeline, sorted
            let trace = run.merged_trace();
            assert!(trace.iter().any(|e| e.kind == ns_telemetry::EventKind::Phase));
            // (a 1×1 plan has no neighbour to message)
            let messages = topo.size() > 1;
            assert_eq!(trace.iter().any(|e| e.kind == ns_telemetry::EventKind::Send), messages, "{topo:?}");
            assert_eq!(trace.iter().any(|e| e.kind == ns_telemetry::EventKind::Recv), messages, "{topo:?}");
            assert!(trace.windows(2).all(|w| w[0].t_us <= w[1].t_us));
            // every rank appears on the timeline
            for rank in 0..topo.size() {
                assert!(trace.iter().any(|e| e.rank == rank), "{topo:?}: rank {rank} missing");
            }
            // health: sampled at steps 0, 2, 4 and merged over ranks
            let health = run.merged_health();
            assert_eq!(health.iter().map(|s| s.step).collect::<Vec<_>>(), vec![0, 2, 4]);
            assert!(health.iter().all(|s| s.finite && s.min_p > 0.0));
            // summary ties it all together and serializes
            let summary = run.summary("test-case");
            assert_eq!(summary.ranks, topo.size());
            assert_eq!(summary.steps_taken, 4);
            assert_eq!(summary.conservation.map(|l| l.steps), Some(4), "{topo:?}: one ledger over the run");
            assert_eq!(summary.comm.sends, run.total_stats().sends);
            let json = summary.to_json();
            assert!(json.contains("\"phase_seconds\""));
            assert!(json.contains("navier-stokes"));
        }
    }

    /// A traced rank's phase spans bill exactly the FLOPs its ledger
    /// counted over the steps, and its timeline is its program: each step
    /// opens with its mark, and no receive precedes the send that posted
    /// its exchange.
    #[test]
    fn traced_spans_bill_the_whole_ledger_in_program_order() {
        let c = cfg(Regime::NavierStokes);
        for topo in [CartTopology::axial(1), CartTopology::axial(3), CartTopology::new(2, 2).unwrap()] {
            let telemetry = TelemetryOptions { trace: true, ..Default::default() };
            let run = run(&RunPlan { telemetry, ..RunPlan::new(&c, topo, 2, CommVersion::V6) }).unwrap();
            for r in &run.ranks {
                let patch = Patch::pencil(c.grid.clone(), topo.coords(r.rank), (topo.px, topo.pr));
                let at_start = Solver::on_patch(c.clone(), patch).ledger.total();
                let billed: u64 = r.trace.iter().map(|e| e.flops).sum();
                assert_eq!(billed, r.ledger.total() - at_start, "{topo:?} rank {}", r.rank);
                assert_eq!(r.phases.by_label.values().map(|s| s.flops).sum::<u64>(), billed);
                let kinds: Vec<_> = r.trace.iter().map(|e| e.kind).collect();
                assert_eq!(kinds[0], ns_telemetry::EventKind::Mark, "a step opens the timeline");
                assert_eq!(kinds.iter().filter(|&&k| k == ns_telemetry::EventKind::Mark).count(), 2);
                let first_send = kinds.iter().position(|&k| k == ns_telemetry::EventKind::Send);
                let first_recv = kinds.iter().position(|&k| k == ns_telemetry::EventKind::Recv);
                assert!(first_send <= first_recv, "{topo:?} rank {}", r.rank);
            }
        }
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
            TelemetryOptions { phases: true, trace: true, health: Some(Default::default()) },
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
        };
        for topo in [CartTopology::axial(1), CartTopology::axial(3)] {
            let run = run(&RunPlan { telemetry: opts.clone(), ..RunPlan::new(&c, topo, 10, CommVersion::V5) }).unwrap();
            // the step-0 sample already violates, so nobody takes a step
            assert_eq!(run.steps_taken(), 0, "{topo:?}");
            let reason = run.aborted().expect("must abort");
            assert!(reason.contains("Mach"), "got: {reason}");
            // every rank stopped, none deadlocked
            assert!(run.ranks.iter().all(|r| r.abort.is_some()));
            assert_eq!(run.conservation().map(|l| l.steps), Some(0), "{topo:?}: the ledger opened and closed");
        }
    }

    #[test]
    #[should_panic(expected = "whole-grid checkpoint")]
    fn partial_checkpoint_is_rejected_for_restart() {
        use ns_core::checkpoint::Checkpoint;
        let c = cfg(Regime::Euler);
        let partial = Solver::on_patch(c.clone(), Patch::block(c.grid.clone(), 0, 2));
        let cp = Checkpoint::capture(&partial);
        let _ = run(&RunPlan { resume: Some(&cp), ..RunPlan::new(&c, CartTopology::axial(2), 1, CommVersion::V5) });
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
    /// `P × 1` is the existing axial path by construction, `1 × 1` the
    /// serial run.
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

    /// The fused rungs run on radial splits: at an internal radial edge the
    /// sweep takes its ghost rows from the exchange, so V6 and V7 pencils
    /// are bitwise their V5 twin in both regimes, with the same FLOPs, the
    /// same start-ups and the same bytes on every rank — on 1×2, 2×2 and a
    /// 1×5 split that leaves each rank four rows.
    #[test]
    fn fused_rungs_on_radial_splits_are_bitwise_their_v5_twin() {
        use ns_core::config::Version;
        for regime in [Regime::Euler, Regime::NavierStokes] {
            for (px, pr) in [(1, 2), (2, 2), (1, 5)] {
                let topo = CartTopology::new(px, pr).unwrap();
                let [v5, v6, v7] = [Version::V5, Version::V6, Version::V7]
                    .map(|version| run_parallel_cart(&tuned(regime, version, 0.0), topo, 6, CommVersion::V5).unwrap());
                let field = v5.gather_field();
                for (fused, name) in [(&v6, "V6"), (&v7, "V7")] {
                    let what = format!("{regime:?} {px}x{pr} {name}");
                    let bits =
                        |f: &Field| f.q.iter().flat_map(|a| a.as_slice()).map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert!(bits(&fused.gather_field()) == bits(&field), "{what}: field");
                    for (a, b) in fused.ranks.iter().zip(&v5.ranks) {
                        assert_eq!(a.ledger, b.ledger, "{what} rank {}: FLOP ledger", a.rank);
                        assert_eq!(a.stats.startups(), b.stats.startups(), "{what} rank {}: start-ups", a.rank);
                        assert_eq!(a.stats.bytes_sent, b.stats.bytes_sent, "{what} rank {}: bytes", a.rank);
                    }
                }
            }
        }
    }

    /// A config with the given kernel rung and dissipation.
    fn tuned(regime: Regime, version: ns_core::config::Version, eps: f64) -> SolverConfig {
        SolverConfig { version, dissipation: eps, ..cfg(regime) }
    }

    /// The serial reference: `Solver::step` with the conservation ledger
    /// recorded after every step, as a 1×1 plan's rank records it.
    fn serial_with_ledger(c: &SolverConfig, nsteps: u64) -> (Solver, ClosedLedger) {
        let mut s = Solver::new(c.clone());
        let gas = *s.gas();
        let mut ledger = ConservationLedger::open(&s.field, &gas);
        for _ in 0..nsteps {
            s.step();
            ledger.record(&s.field, &gas, s.dt());
        }
        let closed = ledger.close(&s.field);
        (s, closed)
    }

    fn monitored(c: &SolverConfig, topo: CartTopology, nsteps: u64) -> RunPlan<'_> {
        let telemetry = TelemetryOptions { health: Some(Default::default()), ..Default::default() };
        RunPlan { telemetry, ..RunPlan::new(c, topo, nsteps, CommVersion::V5) }
    }

    /// A 1×1 plan is the serial run: the field, the clock and the closed
    /// conservation ledger are bitwise `Solver::step`'s for both regimes,
    /// the plane and the fused-sweep kernels, with and without dissipation,
    /// and with the adaptive time step.
    #[test]
    fn a_one_by_one_plan_is_the_serial_run() {
        use ns_core::config::Version;
        let mut cases = Vec::new();
        for regime in [Regime::Euler, Regime::NavierStokes] {
            for version in [Version::V5, Version::V7] {
                for eps in [0.0, 0.002] {
                    cases.push(tuned(regime, version, eps));
                }
            }
        }
        cases.push(SolverConfig { adaptive_dt: true, ..cfg(Regime::NavierStokes) });
        for c in &cases {
            let (serial, ledger) = serial_with_ledger(c, 6);
            let run = run(&monitored(c, CartTopology::axial(1), 6)).unwrap();
            let what = format!("{:?} {:?} eps {} adaptive {}", c.regime, c.version, c.dissipation, c.adaptive_dt);
            assert_eq!(serial.field.max_diff(&run.gather_field()), 0.0, "{what}: field");
            // on one rank the comm protocol has nothing to move
            for comm in [CommVersion::V6, CommVersion::V7] {
                let other = run_parallel_cart(c, CartTopology::axial(1), 6, comm).unwrap();
                assert_eq!(serial.field.max_diff(&other.gather_field()), 0.0, "{what}: comm {comm:?}");
            }
            assert_eq!(run.ranks[0].t.to_bits(), serial.t.to_bits(), "{what}: clock");
            let closed = run.conservation().expect("health armed: the ledger is kept");
            assert_eq!(closed.steps, ledger.steps, "{what}");
            let bits = |l: &ClosedLedger| [l.drift_rel, l.residual_rel].map(|a| a.map(f64::to_bits));
            assert_eq!(bits(&closed), bits(&ledger), "{what}: closed ledger");
        }
    }

    /// The ranks' patch ledgers sum to the serial ledger: Euler is bitwise
    /// at every shape, so only the order of the sums differs.
    #[test]
    fn summed_rank_ledgers_match_the_serial_ledger() {
        let c = cfg(Regime::Euler);
        let (_, serial) = serial_with_ledger(&c, 6);
        for (px, pr) in [(2, 1), (1, 2), (2, 2)] {
            let run = run(&monitored(&c, CartTopology::new(px, pr).unwrap(), 6)).unwrap();
            let closed = run.conservation().unwrap();
            assert_eq!(closed.steps, 6);
            for (par, ser) in [(closed.drift_rel, serial.drift_rel), (closed.residual_rel, serial.residual_rel)] {
                for (p, s) in par.iter().zip(ser) {
                    assert!((p - s).abs() <= 1e-12, "{px}x{pr}: {p} vs serial {s}");
                }
            }
        }
    }

    /// A damped run on any rank grid is bitwise the damped serial run: the
    /// state halo carries the snapshot's edge lines, each rank smooths the
    /// global-interior points it owns, and the ranks bill the serial
    /// smoothing FLOPs between them.
    #[test]
    fn damped_ranks_equal_serial() {
        let c = tuned(Regime::Euler, ns_core::config::Version::V5, 0.002);
        let mut serial = Solver::new(c.clone());
        serial.run(6);
        let mut undamped = Solver::new(cfg(Regime::Euler));
        undamped.run(6);
        assert!(serial.field.max_diff(&undamped.field) > 0.0, "the smoothing acts within six steps");
        for (px, pr) in [(2, 1), (4, 1), (1, 2), (2, 2)] {
            let run = run_parallel_cart(&c, CartTopology::new(px, pr).unwrap(), 6, CommVersion::V5).unwrap();
            assert_eq!(serial.field.max_diff(&run.gather_field()), 0.0, "{px}x{pr}");
            let billed: u64 = run.ranks.iter().map(|r| r.ledger.dissipation).sum();
            assert_eq!(billed, serial.ledger.dissipation, "{px}x{pr}");
        }
    }

    /// The coarse N-S jet the undamped scheme loses (serial, ε = 0, first
    /// unhealthy at step 1113) stays healthy past step 1500 on two damped
    /// slabs: the smoothing now runs wherever the run does.
    #[test]
    fn damped_coarse_navier_stokes_slabs_stay_healthy() {
        let c = SolverConfig {
            dissipation: 0.002,
            ..SolverConfig::paper(Grid::new(66, 24, 50.0, 5.0), Regime::NavierStokes)
        };
        let run = run(&monitored(&c, CartTopology::axial(2), 1500)).unwrap();
        assert_eq!((run.aborted(), run.steps_taken()), (None, 1500));
        assert!(ns_core::diag::watchdogs(&run.gather_field(), &c.effective_gas()).healthy());
    }

    /// Two slabs under fault-free chaos, checkpointing every `every` steps.
    fn chaos_plan(c: &SolverConfig, every: u64, nsteps: u64) -> (RunPlan<'_>, ChaosOptions) {
        let opts = ChaosOptions { plan: FaultPlan::none(0), checkpoint_every: every, ..Default::default() };
        let reliability = Some(opts.clone());
        (RunPlan { reliability, ..RunPlan::new(c, CartTopology::axial(2), nsteps, CommVersion::V5) }, opts)
    }

    /// A chaos rank keeps its newest two checkpoints, not one per capture
    /// (a 100 000-step served chaos job would hold 25 000 whole patches);
    /// the report still counts every capture.
    #[test]
    fn a_chaos_rank_holds_at_most_two_checkpoints() {
        let c = cfg(Regime::Euler);
        let (plan, opts) = chaos_plan(&c, 1, 10);
        let rec = Recovery::new(&opts, 2, 0);
        let mut carries: Vec<Carry> = (0..2).map(|_| Carry::default()).collect();
        for a in generation(&plan, Some(&rec), &mut carries, Instant::now()) {
            assert_eq!(a.cps.iter().map(|cp| cp.nstep).collect::<Vec<_>>(), [8, 9]);
            assert_eq!(a.captured, 10);
        }
        assert_eq!(run(&plan).unwrap().recovery.unwrap().checkpoints, 10, "every capture is counted");
    }

    /// A crash right after a partially committed checkpoint: rank 0 holds
    /// step 6, rank 1 died before capturing it. The universe rolls back
    /// bitwise to step 4, the newest step both still hold, and re-executes
    /// onto the fault-free bits.
    #[test]
    fn crash_after_a_partial_checkpoint_rolls_back_to_the_newest_common_one() {
        let c = cfg(Regime::Euler);
        let (plan, opts) = chaos_plan(&c, 2, 8);
        let mut rec = Recovery::new(&opts, 2, 0);
        let mut carries: Vec<Carry> = (0..2).map(|_| Carry::default()).collect();
        let origin = Instant::now();
        let mut attempts = generation(&plan, Some(&rec), &mut carries, origin);
        assert_eq!(attempts[1].cps.pop().map(|cp| cp.nstep), Some(6));
        attempts[1].crashed = true;
        assert_eq!(rec.settle(&mut attempts), Some(4));
        let at_four = run_parallel(&c, 2, 4, CommVersion::V5);
        for (rank, reference) in at_four.ranks.iter().enumerate() {
            let restored = rec.restore(rank).expect("a common checkpoint was committed");
            assert_eq!((restored.nstep, restored.field.max_diff(&reference.field)), (4, 0.0), "rank {rank}");
        }
        let fault_free = run_parallel(&c, 2, 8, CommVersion::V5);
        for (a, reference) in generation(&plan, Some(&rec), &mut carries, origin).iter().zip(&fault_free.ranks) {
            assert_eq!((a.reached, a.field.max_diff(&reference.field)), (8, 0.0), "rank {}", reference.rank);
        }
    }
}
