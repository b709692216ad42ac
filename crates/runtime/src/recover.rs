//! Coordinated checkpoints and rollback/re-execute recovery for the
//! parallel driver.
//!
//! The recovery model is the classical one for the paper's workstation
//! cluster: every `checkpoint_every` steps the universe agrees (via a
//! barrier) that it is intact and each rank snapshots its *local* state
//! with [`ns_core::checkpoint::Checkpoint`]. When a rank crashes or a
//! communication failure survives the reliability layer's retry budget, the
//! whole universe is torn down and re-executed — a fresh *generation* with
//! fresh channels — from the latest checkpoint step every rank holds.
//!
//! Determinism: a rank's local checkpoint is bitwise the state a fault-free
//! run has at that step (the reliability layer delivers exactly the sent
//! bytes, and ghosts are captured with the patch), and re-execution from a
//! bitwise state is bitwise — so the final gathered field of a chaos run is
//! **identical** to the fault-free run, which the tests assert.

use crate::comm::{CommStats, Endpoint, ReliableConfig};
use crate::fault::{FaultInjector, FaultPlan, FaultStats};
use crate::parallel::Attempt;
use ns_core::checkpoint::Checkpoint;
use ns_core::Solver;
use ns_metrics::{FlightDump, Registry};
use ns_telemetry::RecoverySummary;
use std::collections::BTreeSet;
use std::time::Duration;

/// Tuning of a chaos/recovery run.
#[derive(Clone, Debug)]
pub struct ChaosOptions {
    /// The (deterministic) faults to inject.
    pub plan: FaultPlan,
    /// Reliability-layer tuning (retry interval and budget).
    pub reliable: ReliableConfig,
    /// Steps between coordinated checkpoints (>= 1; step 0 is always
    /// checkpointed, so a universe can always roll back somewhere).
    pub checkpoint_every: u64,
    /// Rollback budget: exceeding it panics, as an unrecoverable run should
    /// be loud, not livelocked.
    pub max_rollbacks: u32,
    /// Hard receive deadline; this is the failure detector for dead ranks,
    /// so it bounds how long a generation takes to notice a crash.
    pub recv_timeout: Duration,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        Self {
            plan: FaultPlan::default(),
            reliable: ReliableConfig::default(),
            checkpoint_every: 4,
            max_rollbacks: 8,
            recv_timeout: Duration::from_millis(400),
        }
    }
}

/// What recovery did over a whole chaos run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryReport {
    /// Execution generations (1 = the first attempt survived).
    pub generations: u32,
    /// Rollbacks to the last consistent checkpoint.
    pub rollbacks: u32,
    /// Global steps re-executed because of rollbacks.
    pub recomputed_steps: u64,
    /// Coordinated checkpoints captured (rank-0 count, all generations).
    pub checkpoints: u64,
    /// Rank crashes that fired.
    pub crashes: u32,
    /// Faults the plan actually injected, summed over ranks and
    /// generations.
    pub faults: FaultStats,
    /// Flight-recorder dumps frozen by failing generations: the crashed
    /// rank's ring (reason `"rank-crash"`) plus every rank that rolled back
    /// on a comm failure (reason `"rollback"`).
    pub flight_dumps: Vec<FlightDump>,
}

impl RecoveryReport {
    /// The serializable summary block, joined with the run's aggregated
    /// comm statistics (retry totals live there).
    pub fn to_summary(&self, comm: &CommStats) -> RecoverySummary {
        RecoverySummary {
            generations: self.generations,
            rollbacks: self.rollbacks,
            recomputed_steps: self.recomputed_steps,
            checkpoints: self.checkpoints,
            crashes: self.crashes,
            retries: comm.retries,
            faults_injected: self.faults.total(),
        }
    }
}

/// The recovery side of [`crate::parallel::run`]'s generation loop: the
/// live fault plan, where the next generation restarts, and the report.
pub(crate) struct Recovery<'a> {
    pub(crate) opts: &'a ChaosOptions,
    /// The plan still to be injected (the crash is disarmed once it fired).
    pub(crate) plan: FaultPlan,
    /// Per-rank checkpoints the next generation restarts from; `None`
    /// restarts from the run's own starting state.
    resume: Option<Vec<Checkpoint>>,
    /// The global step of that restart point.
    resume_step: u64,
    report: RecoveryReport,
}

impl<'a> Recovery<'a> {
    /// Recovery for a universe of `p` ranks whose run starts at `first_step`.
    pub(crate) fn new(opts: &'a ChaosOptions, p: usize, first_step: u64) -> Self {
        assert!(opts.checkpoint_every >= 1, "checkpoint cadence must be at least 1");
        if let Some(c) = opts.plan.crash {
            assert!(c.rank < p, "crash rank {} does not exist in a universe of {p}", c.rank);
        }
        Self { opts, plan: opts.plan.clone(), resume: None, resume_step: first_step, report: RecoveryReport::default() }
    }

    /// Index of the generation about to run or running (0 = first attempt).
    pub(crate) fn generation(&self) -> u32 {
        self.report.generations
    }

    /// Arm a fresh universe for this generation: framing, the generation's
    /// fault injectors, and the receive deadline that detects dead ranks.
    pub(crate) fn arm(&self, endpoints: &mut [Endpoint]) {
        for (rank, ep) in endpoints.iter_mut().enumerate() {
            ep.enable_reliability(self.opts.reliable);
            if self.plan.has_message_faults() {
                ep.set_fault_injector(FaultInjector::for_rank(&self.plan, rank, self.generation()));
            }
            ep.timeout = self.opts.recv_timeout;
        }
    }

    /// The solver `rank` restarts from after a rollback, if one happened
    /// and committed a checkpoint.
    pub(crate) fn restore(&self, rank: usize) -> Option<Solver> {
        self.resume.as_ref().map(|cps| cps[rank].clone().restore())
    }

    /// Account one finished generation. `None`: every rank came through and
    /// the run is over. `Some(step)`: a rank crashed or a comm failure
    /// outlived the retry budget, the universe is rolled back and the next
    /// generation restarts at `step`.
    pub(crate) fn settle(&mut self, attempts: &mut [Attempt]) -> Option<u64> {
        self.report.generations += 1;
        for f in attempts.iter().filter_map(|a| a.faults.as_ref()) {
            self.report.faults.merge(f);
        }
        self.report.checkpoints += attempts[0].captured;
        let crashed = attempts.iter().any(|a| a.crashed);
        if !crashed && attempts.iter().all(|a| a.failure.is_none()) {
            return None;
        }
        self.report.flight_dumps.extend(attempts.iter_mut().filter_map(|a| a.flight.take()));
        self.report.rollbacks += 1;
        if crashed {
            self.report.crashes += 1;
            // a workstation that died once is replaced, not re-crashed: the
            // re-executed timeline must be able to pass the crash step
            self.plan = self.plan.disarmed();
        }
        assert!(
            self.report.rollbacks <= self.opts.max_rollbacks,
            "chaos run exceeded its rollback budget of {} (plan: {:?})",
            self.opts.max_rollbacks,
            self.opts.plan
        );
        // the newest checkpoint step EVERY rank holds from this generation;
        // a partially-committed newer checkpoint (some rank's barrier died
        // mid-capture) is ignored by the intersection
        let common = attempts
            .iter()
            .map(|a| a.cps.iter().map(|c| c.nstep).collect::<BTreeSet<u64>>())
            .reduce(|a, b| a.intersection(&b).copied().collect());
        if let Some(best) = common.and_then(|steps| steps.into_iter().max()) {
            let held = |a: &mut Attempt| a.cps.iter().position(|c| c.nstep == best).map(|at| a.cps.swap_remove(at));
            self.resume = Some(attempts.iter_mut().map(|a| held(a).expect("step is in the intersection")).collect());
            self.resume_step = best;
        }
        // else: keep the previous resume point (or the run's start) — the
        // failed generation committed nothing new
        //
        // re-executed work, on the global timeline: the furthest any rank
        // got minus where the next generation restarts
        let furthest = attempts.iter().map(|a| a.reached).max().unwrap_or(self.resume_step);
        self.report.recomputed_steps += furthest.saturating_sub(self.resume_step);
        Some(self.resume_step)
    }

    /// Close the books: the report, with its totals added to the metrics
    /// registry.
    pub(crate) fn finish(self) -> RecoveryReport {
        let (m, r) = (Registry::global(), self.report);
        m.counter("ns_recover_generations_total").add(u64::from(r.generations));
        m.counter("ns_recover_rollbacks_total").add(u64::from(r.rollbacks));
        m.counter("ns_recover_recomputed_steps_total").add(r.recomputed_steps);
        m.counter("ns_recover_checkpoints_total").add(r.checkpoints);
        m.counter("ns_recover_crashes_total").add(u64::from(r.crashes));
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashSpec;
    use crate::halo::CommVersion;
    use crate::parallel::{run, run_parallel, ParallelRun, RunPlan, TelemetryOptions};
    use crate::topology::CartTopology;
    use ns_core::config::{Regime, SolverConfig};
    use ns_metrics::EventKind;
    use ns_numerics::Grid;

    fn cfg(regime: Regime) -> SolverConfig {
        SolverConfig::paper(Grid::small(), regime)
    }

    fn fast_opts(plan: FaultPlan) -> ChaosOptions {
        ChaosOptions {
            plan,
            reliable: ReliableConfig { retry_timeout: Duration::from_millis(2), max_retries: 5 },
            checkpoint_every: 2,
            max_rollbacks: 8,
            recv_timeout: Duration::from_millis(250),
        }
    }

    /// `p` slabs under `plan`, recovery armed.
    fn chaos_run(cfg: &SolverConfig, p: usize, nsteps: u64, plan: FaultPlan) -> ParallelRun {
        let reliability = Some(fast_opts(plan));
        run(&RunPlan { reliability, ..RunPlan::new(cfg, CartTopology::axial(p), nsteps, CommVersion::V5) }).unwrap()
    }

    #[test]
    fn faultless_chaos_run_is_one_generation_and_bitwise() {
        let c = cfg(Regime::Euler);
        let reference = run_parallel(&c, 3, 6, CommVersion::V5);
        let chaos = chaos_run(&c, 3, 6, FaultPlan::none(7));
        assert_eq!(reference.gather_field().max_diff(&chaos.gather_field()), 0.0);
        let rep = chaos.recovery.expect("chaos runs always report recovery");
        assert_eq!(rep.generations, 1);
        assert_eq!(rep.rollbacks, 0);
        assert_eq!(rep.crashes, 0);
        assert!(rep.checkpoints >= 3, "steps 0, 2, 4 at least; got {}", rep.checkpoints);
    }

    #[test]
    fn message_faults_are_healed_without_rollback() {
        let c = cfg(Regime::Euler);
        let reference = run_parallel(&c, 3, 6, CommVersion::V5);
        let plan = FaultPlan { seed: 42, drop_rate: 0.05, corrupt_rate: 0.03, dup_rate: 0.03, ..FaultPlan::default() };
        let chaos = chaos_run(&c, 3, 6, plan);
        assert_eq!(
            reference.gather_field().max_diff(&chaos.gather_field()),
            0.0,
            "healed run must be bitwise identical"
        );
        let rep = chaos.recovery.clone().unwrap();
        assert!(rep.faults.total() > 0, "5%/3%/3% over hundreds of frames must fire");
        let stats = chaos.total_stats();
        assert!(stats.retries > 0 || stats.dup_frames > 0 || stats.corrupt_frames > 0, "healing left traces");
    }

    /// Phases and health ride through the rollback: the phase ledgers
    /// accumulate over both generations, the health series is the
    /// fault-free run's, the conservation ledger is the final generation's.
    #[test]
    fn rank_crash_rolls_back_and_recovers_bitwise() {
        let c = cfg(Regime::Euler);
        let nsteps = 8;
        let telemetry = TelemetryOptions {
            phases: true,
            health: Some(ns_telemetry::HealthConfig { cadence: 1, ..Default::default() }),
            ..Default::default()
        };
        let plain = RunPlan { telemetry, ..RunPlan::new(&c, CartTopology::axial(3), nsteps, CommVersion::V5) };
        let reference = run(&plain).unwrap();
        // drop >= 1% AND a mid-run crash, per the acceptance criteria
        let plan = FaultPlan {
            seed: 1234,
            drop_rate: 0.02,
            crash: Some(CrashSpec { rank: 1, step: 5 }),
            ..FaultPlan::default()
        };
        let chaos = run(&RunPlan { reliability: Some(fast_opts(plan)), ..plain.clone() }).unwrap();
        assert_eq!(
            reference.gather_field().max_diff(&chaos.gather_field()),
            0.0,
            "crash + rollback must reproduce the fault-free field bitwise"
        );
        let rep = chaos.recovery.clone().unwrap();
        assert_eq!(rep.crashes, 1, "the crash fired exactly once");
        assert!(rep.rollbacks >= 1);
        assert!(rep.generations >= 2);
        assert!(rep.recomputed_steps >= 1, "the rollback redid work");
        // every sampled step once, re-executed steps included, and the
        // samples are the ones the fault-free run took
        let health = chaos.merged_health();
        assert_eq!(health.iter().map(|s| s.step).collect::<Vec<_>>(), (0..=nsteps).collect::<Vec<_>>());
        assert_eq!(health, reference.merged_health());
        assert!(chaos.ranks.iter().all(|r| r.phases.seconds("comm:recv") > 0.0 && r.phases.seconds("x:flux") > 0.0));
        // the conservation ledger covers the final generation only, which
        // restarted from a checkpoint at or past the crash's (step 4)
        let window = chaos.conservation().expect("health armed: ledgers kept").steps;
        let restart = nsteps - window;
        assert!(restart >= 4 && restart.is_multiple_of(2), "window of {window} steps from step {restart}");
        // the summary block is populated end to end
        let summary = chaos.summary("chaos-test");
        assert_eq!(summary.conservation.map(|l| l.steps), Some(window));
        let rec = summary.recovery.expect("recovery block present");
        assert_eq!(rec.crashes, 1);
        assert!(summary.to_json().contains("\"recovery\""));
    }

    /// A damped run rolls back onto its fault-free bits on every shape, the
    /// one-rank plan included: the restored solver smooths about the same
    /// `t = 0` base as the fresh one, inflow column and all, and carries the
    /// plan's DOALL team like a fresh one (the team changes no answer).
    #[test]
    fn damped_crash_rolls_back_bitwise() {
        let c = SolverConfig { dissipation: 0.002, ..cfg(Regime::Euler) };
        let nsteps = 8;
        for (px, pr, threads) in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 2), (2, 2, 2)] {
            let plain = RunPlan::new(&c, CartTopology::new(px, pr).unwrap(), nsteps, CommVersion::V5);
            let reference = run(&plain).unwrap();
            let plan =
                FaultPlan { seed: 5, crash: Some(CrashSpec { rank: px * pr - 1, step: 5 }), ..Default::default() };
            let chaos = run(&RunPlan { reliability: Some(fast_opts(plan)), threads, ..plain }).unwrap();
            let rep = chaos.recovery.clone().unwrap();
            let case = format!("{px}x{pr}, {threads} threads");
            assert_eq!((rep.crashes, rep.rollbacks), (1, 1), "{case}: one crash, one rollback");
            assert_eq!(reference.gather_field().max_diff(&chaos.gather_field()), 0.0, "{case}");
        }
    }

    #[test]
    fn crash_works_at_every_processor_count() {
        let c = cfg(Regime::NavierStokes);
        let nsteps = 6;
        for p in [2usize, 3] {
            let reference = run_parallel(&c, p, nsteps, CommVersion::V5);
            let plan = FaultPlan {
                seed: 9,
                drop_rate: 0.01,
                crash: Some(CrashSpec { rank: p - 1, step: 3 }),
                ..FaultPlan::default()
            };
            let chaos = chaos_run(&c, p, nsteps, plan);
            assert_eq!(reference.gather_field().max_diff(&chaos.gather_field()), 0.0, "p={p}");
        }
    }

    #[test]
    fn crash_dump_reconstructs_the_failing_generation() {
        let c = cfg(Regime::Euler);
        let plan = FaultPlan { seed: 5, crash: Some(CrashSpec { rank: 1, step: 5 }), ..FaultPlan::default() };
        let chaos = chaos_run(&c, 3, 8, plan);
        let rep = chaos.recovery.clone().expect("chaos runs report recovery");
        let dump = rep.flight_dumps.iter().find(|d| d.reason == "rank-crash").expect("crashed rank froze its ring");
        assert_eq!(dump.rank, 1);
        // the final event is the crash itself, stamped with the span of the
        // step the rank died on, in generation 0
        let crash = dump.events.last().expect("ring is not empty");
        assert_eq!((crash.kind, &*crash.label), (EventKind::Mark, "crash"));
        let span = crash.span.expect("crash event carries the step span");
        assert_eq!(ns_metrics::span_generation(span), 0);
        assert_eq!(ns_metrics::span_step(span), 5);
        // the retained step-begin events walk the failing generation in
        // order, ending at the last step completed before the crash
        let steps: Vec<u64> = dump
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Mark && e.label == "step")
            .map(|e| ns_metrics::span_step(e.span.expect("step events are spanned")))
            .collect();
        assert!(!steps.is_empty(), "the ring holds the steps before the crash");
        assert!(steps.windows(2).all(|w| w[1] == w[0] + 1), "steps reconstruct in order: {steps:?}");
        assert_eq!(*steps.last().unwrap(), 4, "last step begun before the step-5 crash");
        // the dead rank's halo traffic for its last step is in the ring,
        // spanned so it stitches with the peers' recorders
        assert!(dump.events.iter().any(|e| e.kind == EventKind::Send && e.span == Some(ns_metrics::span_id(0, 4))));
        // the surviving peers of the dead generation froze rollback dumps,
        // and the run-level accessor surfaces all of them
        assert!(rep.flight_dumps.iter().any(|d| d.reason == "rollback"));
        assert!(chaos.flight_dumps().iter().any(|d| d.reason == "rank-crash"));
        // recovery counters landed in the run's metrics window
        assert!(chaos.metrics.counters.get("ns_recover_crashes_total").copied().unwrap_or(0) >= 1);
        assert!(chaos.metrics.counters.get("ns_recover_rollbacks_total").copied().unwrap_or(0) >= 1);
    }

    /// A 2-D pencil universe heals drops and survives a mid-run crash of an
    /// interior pencil (which has axial *and* radial neighbours), landing on
    /// the same bits as the fault-free pencil run.
    #[test]
    fn pencil_chaos_recovers_bitwise() {
        let c = cfg(Regime::Euler);
        let topo = CartTopology::new(2, 2).unwrap();
        let fault_free = RunPlan::new(&c, topo, 6, CommVersion::V5);
        let reference = run(&fault_free).unwrap();
        let plan = FaultPlan {
            seed: 77,
            drop_rate: 0.02,
            crash: Some(CrashSpec { rank: 2, step: 3 }),
            ..FaultPlan::default()
        };
        let chaos = run(&RunPlan { reliability: Some(fast_opts(plan)), ..fault_free }).unwrap();
        assert_eq!(
            reference.gather_field().max_diff(&chaos.gather_field()),
            0.0,
            "pencil crash + rollback must reproduce the fault-free field bitwise"
        );
        let rep = chaos.recovery.unwrap();
        assert_eq!(rep.crashes, 1);
        assert!(rep.rollbacks >= 1);
    }

    #[test]
    #[should_panic(expected = "crash rank")]
    fn crash_outside_the_universe_is_rejected() {
        let c = cfg(Regime::Euler);
        let plan = FaultPlan { crash: Some(CrashSpec { rank: 7, step: 1 }), ..FaultPlan::none(0) };
        let _ = chaos_run(&c, 2, 2, plan);
    }
}
