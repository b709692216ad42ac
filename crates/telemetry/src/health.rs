//! Run-health monitoring and the machine-readable run summary.
//!
//! The solver samples its diagnostic watchdogs (max Mach number, max
//! convective wave speed, min density/pressure, conserved-quantity totals)
//! on a configurable cadence; [`HealthMonitor`] keeps the series, checks
//! every sample against [`HealthLimits`], and tells the driver to abort the
//! moment a sample goes non-finite or out of bounds — long before a NaN
//! would silently fill the whole field. A finished (or aborted) run is
//! described by [`RunSummary`], which the `jetns` CLI writes as JSON.

use crate::phase::PhaseLedger;
use ns_metrics::MetricsSummary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Schema version stamped into serialized [`RunSummary`] artifacts.
pub const RUN_SUMMARY_SCHEMA: u32 = 1;

/// One sample of the solver's watchdog diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthSample {
    /// Step index the sample was taken at.
    pub step: u64,
    /// Simulation time.
    pub t: f64,
    /// Time step in use.
    pub dt: f64,
    /// Max Mach number over the interior.
    pub max_mach: f64,
    /// Max convective wave speed |u|+c, |v|+c over the interior.
    pub max_wave_speed: f64,
    /// Min density over the interior.
    pub min_rho: f64,
    /// Min pressure over the interior.
    pub min_p: f64,
    /// Total mass (integral of rho).
    pub mass: f64,
    /// Total energy (integral of rho E).
    pub energy: f64,
    /// False when any interior value is NaN/inf (checked in-pass; the
    /// min/max fields above silently drop NaNs, so they cannot tell).
    pub finite: bool,
}

/// Abort thresholds for [`HealthMonitor`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthLimits {
    /// Abort when the max Mach number exceeds this.
    pub max_mach: f64,
    /// Abort when the min density drops to or below this.
    pub min_rho: f64,
    /// Abort when the min pressure drops to or below this.
    pub min_p: f64,
    /// Abort when |mass - mass0| / |mass0| exceeds this.
    pub max_mass_drift: f64,
}

impl Default for HealthLimits {
    fn default() -> Self {
        // Generous defaults: the paper's jet regimes sit near Mach 1.5, and
        // the explicit scheme dies of positivity loss, not mild drift.
        Self { max_mach: 50.0, min_rho: 0.0, min_p: 0.0, max_mass_drift: 0.5 }
    }
}

impl HealthLimits {
    /// Check one sample; `mass0` is the first sample's mass (drift
    /// reference). Returns the violated condition, if any.
    pub fn check(&self, s: &HealthSample, mass0: Option<f64>) -> Option<String> {
        // Finite first: every comparison below is false for NaN, so a NaN
        // field would sail through the threshold tests.
        if !s.finite || !s.max_mach.is_finite() || !s.min_rho.is_finite() || !s.min_p.is_finite() || !s.mass.is_finite()
        {
            return Some(format!("non-finite field values at step {}", s.step));
        }
        if s.max_mach > self.max_mach {
            return Some(format!("max Mach {:.3} exceeds limit {:.3} at step {}", s.max_mach, self.max_mach, s.step));
        }
        if s.min_rho <= self.min_rho {
            return Some(format!(
                "min density {:.3e} at or below limit {:.3e} at step {}",
                s.min_rho, self.min_rho, s.step
            ));
        }
        if s.min_p <= self.min_p {
            return Some(format!(
                "min pressure {:.3e} at or below limit {:.3e} at step {}",
                s.min_p, self.min_p, s.step
            ));
        }
        if let Some(m0) = mass0 {
            if m0 != 0.0 {
                let drift = ((s.mass - m0) / m0).abs();
                if drift > self.max_mass_drift {
                    return Some(format!(
                        "mass drift {:.3e} exceeds limit {:.3e} at step {}",
                        drift, self.max_mass_drift, s.step
                    ));
                }
            }
        }
        None
    }
}

/// How often to sample, and what to tolerate.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HealthConfig {
    /// Sample every `cadence` steps (step 0 included). 0 disables sampling.
    pub cadence: u64,
    /// Abort thresholds.
    pub limits: HealthLimits,
}

impl Default for HealthConfig {
    fn default() -> Self {
        Self { cadence: 10, limits: HealthLimits::default() }
    }
}

/// Collects [`HealthSample`]s on a cadence and decides when to abort.
#[derive(Clone, Debug, Default)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    mass0: Option<f64>,
    /// The recorded series.
    pub samples: Vec<HealthSample>,
    /// The violation that aborted the run, if any.
    pub abort: Option<String>,
}

impl HealthMonitor {
    /// Monitor with the given sampling config.
    pub fn new(cfg: HealthConfig) -> Self {
        Self { cfg, ..Self::default() }
    }

    /// The sampling config in use.
    pub fn config(&self) -> HealthConfig {
        self.cfg
    }

    /// Should the driver take a sample after `step`?
    #[inline]
    pub fn due(&self, step: u64) -> bool {
        self.cfg.cadence != 0 && step.is_multiple_of(self.cfg.cadence)
    }

    /// Record a sample. Returns `true` while the run is healthy; `false`
    /// means the driver must stop (the reason is in [`Self::abort`]).
    pub fn observe(&mut self, sample: HealthSample) -> bool {
        if self.mass0.is_none() && sample.finite {
            self.mass0 = Some(sample.mass);
        }
        let verdict = self.cfg.limits.check(&sample, self.mass0);
        self.samples.push(sample);
        if let Some(reason) = verdict {
            self.abort = Some(reason);
            return false;
        }
        true
    }

    /// True when no sample has violated the limits.
    pub fn healthy(&self) -> bool {
        self.abort.is_none()
    }
}

/// Total message-passing activity of a run, summed over ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CommTotals {
    /// Messages sent.
    pub sends: u64,
    /// Messages received.
    pub recvs: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Payload bytes received.
    pub bytes_recvd: u64,
    /// NACKs issued while waiting for overdue/corrupt frames (reliability
    /// layer; 0 on unframed runs).
    pub retries: u64,
    /// Cached frames retransmitted in answer to peer NACKs.
    pub resends: u64,
    /// Received frames discarded for checksum failure.
    pub corrupt_frames: u64,
    /// Received frames discarded as duplicates.
    pub dup_frames: u64,
}

/// What the recovery layer did during a chaos run: how often the universe
/// rolled back, how much work was re-executed, and how much healing the
/// reliability layer performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoverySummary {
    /// Execution generations (1 = no rollback ever happened).
    pub generations: u32,
    /// Rollbacks to the last consistent checkpoint.
    pub rollbacks: u32,
    /// Global steps re-executed because of rollbacks.
    pub recomputed_steps: u64,
    /// Coordinated checkpoints captured (rank-0 count).
    pub checkpoints: u64,
    /// Rank crashes that fired.
    pub crashes: u32,
    /// Receiver-side retries (NACKs issued), summed over ranks and
    /// generations.
    pub retries: u64,
    /// Frames injected with a fault by the chaos plan.
    pub faults_injected: u64,
}

/// Closed conservation ledger of a run: relative raw drift of the four
/// invariants (mass, x-momentum, r-momentum, energy) and the unexplained
/// residual left after integrating the boundary-flux budget in time. The
/// drift of an open domain is physics; the residual is the conservation
/// defect. Computed by the serial driver path (`ns-verify` ledger) and
/// absent where no ledger was attached.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ConservationSummary {
    /// Steps the ledger audited.
    pub steps: u64,
    /// Relative raw invariant drift per component.
    pub drift_rel: [f64; 4],
    /// Relative unexplained residual per component (drift minus the
    /// time-integrated boundary budget).
    pub residual_rel: [f64; 4],
}

/// Job-level serving telemetry, stamped by `ns-serve` when a run was
/// executed on behalf of a queued job: where the job's latency went and
/// whether the payload was produced cold or replayed from the result
/// cache.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeJobSummary {
    /// Server-assigned job id (admission order).
    pub job_id: u64,
    /// Admission priority level (higher is more urgent).
    pub priority: u8,
    /// Seconds the job waited in the admission queue before a worker
    /// claimed it.
    pub queue_wait_seconds: f64,
    /// Seconds executing the backend run (0 for cache hits).
    pub run_seconds: f64,
    /// `"cold"` for a computed run; cache hits replay the cold payload
    /// byte-for-byte, so a served summary always reads `"cold"` — hit/miss
    /// accounting lives in the server's own counters.
    pub cache: String,
}

/// Machine-readable description of a finished (or aborted) run: what was
/// asked for, what happened, where the time went, and the watchdog series.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RunSummary {
    /// Artifact format version (see [`RUN_SUMMARY_SCHEMA`]).
    pub schema_version: u32,
    /// Case name (CLI-provided).
    pub case: String,
    /// Flow regime (`"euler"` / `"navier-stokes"`).
    pub regime: String,
    /// Axial grid points.
    pub nx: usize,
    /// Radial grid points.
    pub nr: usize,
    /// Ranks the case ran on (1 = serial).
    pub ranks: usize,
    /// Steps requested.
    pub steps_requested: u64,
    /// Steps actually taken (fewer than requested on abort).
    pub steps_taken: u64,
    /// Wall-clock seconds.
    pub wall_seconds: f64,
    /// Why the run aborted early, if it did.
    pub aborted: Option<String>,
    /// Seconds per phase label, summed over ranks.
    pub phase_seconds: BTreeMap<String, f64>,
    /// Message totals, summed over ranks.
    pub comm: CommTotals,
    /// Rollback/recovery accounting (`null` except for chaos runs).
    pub recovery: Option<RecoverySummary>,
    /// Closed conservation ledger (`null` when no ledger was attached).
    pub conservation: Option<ConservationSummary>,
    /// Job-level serving telemetry (`null` unless the run was executed by
    /// `ns-serve` on behalf of a queued job).
    pub serve: Option<ServeJobSummary>,
    /// Live-registry deltas over the run (`null` when the run recorded no
    /// metrics window).
    pub metrics: Option<MetricsSummary>,
    /// The watchdog series.
    pub health: Vec<HealthSample>,
}

impl RunSummary {
    /// Phase ledger -> the summary's owned-string map.
    pub fn set_phases(&mut self, ledger: &PhaseLedger) {
        self.phase_seconds = ledger.by_label.iter().map(|(&l, s)| (l.to_string(), s.seconds)).collect();
    }

    /// Pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("run summary serializes")
    }

    /// Parse a summary artifact, rejecting unknown schema versions loudly.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let summary: RunSummary = serde_json::from_str(text).map_err(|e| format!("parse run summary: {e}"))?;
        if summary.schema_version != RUN_SUMMARY_SCHEMA {
            return Err(format!(
                "run summary schema_version {} unsupported (expected {RUN_SUMMARY_SCHEMA})",
                summary.schema_version
            ));
        }
        Ok(summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_sample(step: u64) -> HealthSample {
        HealthSample {
            step,
            t: step as f64 * 1e-3,
            dt: 1e-3,
            max_mach: 1.5,
            max_wave_speed: 900.0,
            min_rho: 0.9,
            min_p: 0.4,
            mass: 100.0,
            energy: 250.0,
            finite: true,
        }
    }

    #[test]
    fn cadence_gates_sampling() {
        let mon = HealthMonitor::new(HealthConfig { cadence: 10, ..Default::default() });
        assert!(mon.due(0));
        assert!(!mon.due(7));
        assert!(mon.due(20));
        let off = HealthMonitor::new(HealthConfig { cadence: 0, ..Default::default() });
        assert!(!off.due(0));
    }

    #[test]
    fn healthy_series_never_aborts() {
        let mut mon = HealthMonitor::new(HealthConfig::default());
        for step in (0..100).step_by(10) {
            assert!(mon.observe(good_sample(step)));
        }
        assert!(mon.healthy());
        assert_eq!(mon.samples.len(), 10);
    }

    #[test]
    fn non_finite_sample_aborts_even_with_clean_extrema() {
        // NaN comparisons are all false, so without the explicit finite flag
        // this sample would pass every threshold test.
        let mut s = good_sample(30);
        s.finite = false;
        let mut mon = HealthMonitor::new(HealthConfig::default());
        assert!(mon.observe(good_sample(20)));
        assert!(!mon.observe(s));
        assert!(!mon.healthy());
        assert!(mon.abort.as_deref().unwrap().contains("non-finite"));
    }

    #[test]
    fn nan_watchdog_value_aborts() {
        let mut s = good_sample(10);
        s.max_mach = f64::NAN;
        let mut mon = HealthMonitor::new(HealthConfig::default());
        assert!(!mon.observe(s));
    }

    #[test]
    fn positivity_loss_aborts() {
        let mut s = good_sample(40);
        s.min_p = -0.01;
        let mut mon = HealthMonitor::new(HealthConfig::default());
        assert!(!mon.observe(s));
        assert!(mon.abort.as_deref().unwrap().contains("pressure"));
    }

    #[test]
    fn mass_drift_checked_against_first_sample() {
        let mut mon = HealthMonitor::new(HealthConfig {
            cadence: 1,
            limits: HealthLimits { max_mass_drift: 0.1, ..Default::default() },
        });
        assert!(mon.observe(good_sample(0)));
        let mut drifted = good_sample(1);
        drifted.mass = 120.0; // 20% over the step-0 reference
        assert!(!mon.observe(drifted));
        assert!(mon.abort.as_deref().unwrap().contains("mass drift"));
    }

    #[test]
    fn summary_serializes_with_samples() {
        let mut summary = RunSummary {
            schema_version: RUN_SUMMARY_SCHEMA,
            case: "jet".into(),
            regime: "euler".into(),
            nx: 125,
            nr: 50,
            ranks: 4,
            steps_requested: 100,
            steps_taken: 100,
            wall_seconds: 1.25,
            aborted: None,
            phase_seconds: BTreeMap::new(),
            comm: CommTotals { sends: 16, recvs: 16, bytes_sent: 4096, bytes_recvd: 4096, ..Default::default() },
            recovery: None,
            conservation: Some(ConservationSummary { steps: 100, ..Default::default() }),
            serve: None,
            metrics: Some(MetricsSummary::default()),
            health: vec![good_sample(0), good_sample(10)],
        };
        let mut ledger = PhaseLedger::default();
        ledger.add("x:flux", 0.5, 0);
        summary.set_phases(&ledger);
        let json = summary.to_json();
        assert!(json.contains("\"case\""));
        assert!(json.contains("x:flux"));
        assert!(json.contains("\"max_mach\""));
        assert!(json.contains("\"schema_version\""));
        // the samples round-trip through the derived Deserialize
        let back: Vec<HealthSample> = serde_json::from_str(&serde_json::to_string(&summary.health).unwrap()).unwrap();
        assert_eq!(back, summary.health);
        // the whole artifact round-trips through the validating loader
        let loaded = RunSummary::from_json(&json).unwrap();
        assert_eq!(loaded.case, "jet");
        assert_eq!(loaded.phase_seconds["x:flux"], 0.5);
        // a foreign schema version is rejected loudly
        let mut foreign = summary.clone();
        foreign.schema_version = 99;
        let err = RunSummary::from_json(&foreign.to_json()).unwrap_err();
        assert!(err.contains("schema_version 99"), "{err}");
    }
}
