//! The job model: what a campaign cell asks for, how it is validated at
//! admission, and the canonical content hash that makes the result cache
//! content-addressed.
//!
//! Every backend is a plan for `ns_runtime::run` (`JobSpec::plan`): a
//! serial job is the 1×1 plan, a parallel or chaos job `procs` axial ranks,
//! and a shared-memory job the 1×1 plan with a DOALL team of `procs`
//! threads (`RunPlan::threads`).
//!
//! Two jobs that would compute the same physics must hash identically even
//! when they are *described* differently (a serial job "on 3 procs", a
//! shared-memory job asking for kernel V6, which its canonical form runs at
//! V5). [`JobSpec::canonical`] normalizes those degrees of freedom away
//! before hashing; priority and label never enter the key — urgency does
//! not change the answer.

use ns_core::config::{Regime, SolverConfig, Version};
use ns_numerics::Grid;
use ns_runtime::{CartTopology, ChaosOptions, CommVersion, FaultPlan, RunPlan};
use ns_verify::snapshot::{fnv1a, FNV_OFFSET};
use serde::Serialize;

/// Admission priority. Higher levels are served first; under overload the
/// queue sheds from the lowest level upward.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Backfill work: first to be shed.
    Low,
    /// The default.
    Normal,
    /// Latency-sensitive: served first, never shed in favour of others.
    High,
}

impl Priority {
    /// Numeric level (higher is more urgent).
    pub fn level(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Parse a lowercase name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "low" => Ok(Priority::Low),
            "normal" => Ok(Priority::Normal),
            "high" => Ok(Priority::High),
            other => Err(format!("unknown priority {other:?} (expected low|normal|high)")),
        }
    }
}

/// Which execution backend runs the job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Single-threaded reference solver: the driver's 1×1 plan.
    Serial,
    /// Distributed-memory driver (`ns_runtime::run`, one thread per rank).
    Parallel,
    /// Distributed driver with the recovery machinery armed (fault-free
    /// plan: checkpoints are taken, nothing is injected).
    Chaos,
    /// Shared-memory solver, the paper's Y-MP version: the 1×1 plan at
    /// kernel V5 with its station loops on a DOALL team of `procs` threads.
    Shared,
}

impl Backend {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Serial => "serial",
            Backend::Parallel => "parallel",
            Backend::Chaos => "chaos",
            Backend::Shared => "shared",
        }
    }

    /// Parse a lowercase name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "serial" => Ok(Backend::Serial),
            "parallel" => Ok(Backend::Parallel),
            "chaos" => Ok(Backend::Chaos),
            "shared" => Ok(Backend::Shared),
            other => Err(format!("unknown backend {other:?} (expected serial|parallel|chaos|shared)")),
        }
    }
}

/// One simulation job: the full solver configuration plus the run shape.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Reporting label (never part of the cache key). Empty means "use the
    /// canonical case name".
    pub label: String,
    /// Solver configuration.
    pub cfg: SolverConfig,
    /// Steps to run.
    pub steps: u64,
    /// Processor count (ranks for parallel/chaos, threads for shared,
    /// ignored for serial).
    pub procs: usize,
    /// Comm protocol version (parallel/chaos backends only).
    pub comm: CommVersion,
    /// Execution backend.
    pub backend: Backend,
    /// Admission priority (never part of the cache key).
    pub priority: Priority,
    /// Queue-side deadline measured from admission (never part of the
    /// cache key — urgency does not change the answer). A job still queued
    /// when its deadline passes is settled as failed instead of run.
    pub deadline: Option<std::time::Duration>,
}

impl JobSpec {
    /// A job with defaults for everything but the physics: parallel
    /// backend, V5 comm, normal priority, canonical label.
    pub fn new(cfg: SolverConfig, steps: u64, procs: usize) -> Self {
        Self {
            label: String::new(),
            cfg,
            steps,
            procs,
            comm: CommVersion::V5,
            backend: Backend::Parallel,
            priority: Priority::Normal,
            deadline: None,
        }
    }

    /// The spec with description-level degrees of freedom normalized away,
    /// so equal physics hashes equally: serial runs have no meaningful
    /// procs/comm, and a shared job runs kernel V5 (the rung whose station
    /// loops the team spreads; this is the one place that is decided) and
    /// uses no message protocol. The daemon runs a job's canonical plan.
    pub fn canonical(&self) -> JobSpec {
        let mut c = self.clone();
        c.label = String::new();
        c.deadline = None;
        match c.backend {
            Backend::Serial => {
                c.procs = 1;
                c.comm = CommVersion::V5;
            }
            Backend::Shared => {
                c.cfg.version = Version::V5;
                c.comm = CommVersion::V5;
            }
            Backend::Parallel | Backend::Chaos => {}
        }
        c
    }

    /// Canonical case name of the cell, e.g.
    /// `"euler/V5/parallel/p4/commV6/nx66x24/s6"`.
    pub fn case(&self) -> String {
        let c = self.canonical();
        format!(
            "{}/{:?}/{}/p{}/comm{}/nx{}x{}/s{}",
            c.cfg.regime.key(),
            c.cfg.version,
            c.backend.name(),
            c.procs,
            c.comm.name(),
            c.cfg.grid.nx,
            c.cfg.grid.nr,
            c.steps
        )
    }

    /// Content-addressed cache key: FNV-1a 64 over the canonical spec (the
    /// full serialized solver configuration plus the run shape). Priority
    /// and label are deliberately excluded.
    pub fn canonical_key(&self) -> u64 {
        let c = self.canonical();
        let cfg_json = serde_json::to_string(&c.cfg).expect("solver config serializes");
        let shape = format!("|{}|{}|comm{}|{}", c.steps, c.procs, c.comm.name(), c.backend.name());
        fnv1a(fnv1a(FNV_OFFSET, cfg_json.as_bytes()), shape.as_bytes())
    }

    /// A dimensionless work estimate for the job, used to scale the
    /// retry-after hint: cells × steps. The absolute value is meaningless;
    /// only the ratio between two jobs matters, and cells × steps tracks
    /// the split scheme's O(nx·nr) per-step cost across every backend.
    pub fn cost_units(&self) -> u64 {
        let cells = (self.cfg.grid.nx as u64).saturating_mul(self.cfg.grid.nr as u64);
        cells.saturating_mul(self.steps).max(1)
    }

    /// The plan the driver runs this job as. A serial job is the 1×1 plan,
    /// where the comm protocol moves nothing; a chaos job arms the recovery
    /// machinery on a fault-free plan (checkpoints shorter than the run,
    /// nothing injected); a shared job is the 1×1 plan with a DOALL team of
    /// `procs` threads.
    pub(crate) fn plan(&self) -> RunPlan<'_> {
        let (ranks, threads) = match self.backend {
            Backend::Serial => (1, 1),
            Backend::Shared => (1, self.procs),
            Backend::Parallel | Backend::Chaos => (self.procs, 1),
        };
        let reliability = (self.backend == Backend::Chaos).then(|| ChaosOptions {
            plan: FaultPlan::none(42),
            checkpoint_every: 4,
            ..Default::default()
        });
        let topology = CartTopology { px: ranks, pr: 1 };
        RunPlan { reliability, threads, ..RunPlan::new(&self.cfg, topology, self.steps, self.comm) }
    }

    /// Admission-time validation: reject jobs the driver would refuse, so a
    /// bad request costs an error payload, not a worker. Beyond a step to
    /// take, that is the plan's own typed validation, the one the driver
    /// runs.
    pub fn validate(&self) -> Result<(), String> {
        if self.steps == 0 {
            return Err("steps must be >= 1".into());
        }
        self.plan().validate().map_err(|e| e.to_string())
    }
}

/// JSON-facing job description, the `jetns submit --jobs` wire format. Grid
/// extents use the paper's domain (50 x 5 jet radii); everything beyond the
/// physics shape has serve-appropriate defaults.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct JobDesc {
    /// Optional reporting label.
    pub label: Option<String>,
    /// `"euler"` or `"navier-stokes"`.
    pub regime: String,
    /// Axial grid points.
    pub nx: usize,
    /// Radial grid points.
    pub nr: usize,
    /// Steps to run.
    pub steps: u64,
    /// Kernel version `"V1"`..`"V7"` (default `"V5"`).
    pub version: String,
    /// Processor count (default 1).
    pub procs: usize,
    /// Comm protocol `"V5"|"V6"|"V7"` (default `"V5"`).
    pub comm: String,
    /// Backend `"serial"|"parallel"|"chaos"|"shared"` (default
    /// `"parallel"`).
    pub backend: String,
    /// Priority `"low"|"normal"|"high"` (default `"normal"`).
    pub priority: String,
    /// Optional queue-side deadline in milliseconds from admission.
    pub deadline_ms: Option<u64>,
}

// Hand-written: the offline serde shim's derive has no `#[serde(default)]`,
// and the wire format wants absent keys to mean "the serve default".
impl serde::Deserialize for JobDesc {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::DeError> {
        let req = |key: &str| serde::map_field(v.as_map().unwrap_or(&[]), key, "JobDesc");
        let opt_str = |key: &str, default: &str| -> Result<String, serde::DeError> {
            Ok(optional(v, key)?.unwrap_or_else(|| default.to_string()))
        };
        Ok(Self {
            label: optional(v, "label")?,
            regime: serde::Deserialize::deserialize(req("regime")?)?,
            nx: serde::Deserialize::deserialize(req("nx")?)?,
            nr: serde::Deserialize::deserialize(req("nr")?)?,
            steps: serde::Deserialize::deserialize(req("steps")?)?,
            version: opt_str("version", "V5")?,
            procs: optional(v, "procs")?.unwrap_or(1),
            comm: opt_str("comm", "V5")?,
            backend: opt_str("backend", "parallel")?,
            priority: opt_str("priority", "normal")?,
            deadline_ms: optional(v, "deadline_ms")?,
        })
    }
}

/// `key`'s value in `v`; `None` when it is absent or null.
fn optional<T: serde::Deserialize>(v: &serde::Value, key: &str) -> Result<Option<T>, serde::DeError> {
    v.get(key).filter(|val| !matches!(val, serde::Value::Null)).map(T::deserialize).transpose()
}

/// Bytes the solver holds per grid point, rounded up: the state, its
/// predictor copy, both flux fields and the smoothing base (four planes
/// each), the primitives and the two source planes — about 27 planes of
/// `f64` — plus the sweep's station buffers.
pub const SOLVER_BYTES_PER_POINT: usize = 256;

/// The most solver state one job may hold.
const MAX_JOB_BYTES: usize = 256 << 20;

/// The most grid points one job may ask for: 256 MiB of solver state at
/// [`SOLVER_BYTES_PER_POINT`], 1024 × 1024 points. The largest grid any
/// caller runs, 512 × 512, is a quarter of it.
pub const MAX_GRID_POINTS: usize = MAX_JOB_BYTES / SOLVER_BYTES_PER_POINT;

impl JobDesc {
    /// Resolve the description into an executable spec. A grid outside
    /// `[Grid::MIN_POINTS, MAX_GRID_POINTS]` is refused here, before
    /// anything is allocated for it.
    pub fn to_spec(&self) -> Result<JobSpec, String> {
        let regime = [Regime::Euler, Regime::NavierStokes]
            .into_iter()
            .find(|r| r.key() == self.regime)
            .ok_or_else(|| format!("unknown regime {:?} (expected euler|navier-stokes)", self.regime))?;
        let version = Version::ALL
            .iter()
            .copied()
            .find(|v| format!("{v:?}") == self.version)
            .ok_or_else(|| format!("unknown kernel version {:?} (expected V1..V7)", self.version))?;
        let comm = CommVersion::parse(&self.comm)?;
        if self.nx < Grid::MIN_POINTS || self.nr < Grid::MIN_POINTS {
            return Err(format!(
                "grid {}x{} is too small: the 2-4 scheme needs at least {} points per direction",
                self.nx,
                self.nr,
                Grid::MIN_POINTS
            ));
        }
        if self.nx.checked_mul(self.nr).is_none_or(|points| points > MAX_GRID_POINTS) {
            return Err(format!(
                "grid {}x{} is too large: a job holds at most {MAX_GRID_POINTS} points ({} MiB of solver state)",
                self.nx,
                self.nr,
                MAX_JOB_BYTES >> 20
            ));
        }
        let mut cfg = SolverConfig::paper(Grid::new(self.nx, self.nr, 50.0, 5.0), regime);
        cfg.version = version;
        let spec = JobSpec {
            label: self.label.clone().unwrap_or_default(),
            cfg,
            steps: self.steps,
            procs: self.procs,
            comm,
            backend: Backend::parse(&self.backend)?,
            priority: Priority::parse(&self.priority)?,
            deadline: self.deadline_ms.map(std::time::Duration::from_millis),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Describe a spec back as a wire description. The daemon journals
    /// descriptions, not specs, so a replayed job re-enters through the
    /// same validation as a fresh submit. Only paper-domain grids (the
    /// shape every serve entry point constructs) survive the round trip —
    /// a spec with a hand-built exotic `SolverConfig` does not, which is
    /// fine: the socket wire format itself can only express paper grids.
    pub fn from_spec(spec: &JobSpec) -> Self {
        Self {
            label: if spec.label.is_empty() { None } else { Some(spec.label.clone()) },
            regime: spec.cfg.regime.key().into(),
            nx: spec.cfg.grid.nx,
            nr: spec.cfg.grid.nr,
            steps: spec.steps,
            version: format!("{:?}", spec.cfg.version),
            procs: spec.procs,
            comm: spec.comm.name().into(),
            backend: spec.backend.name().into(),
            priority: spec.priority.name().into(),
            deadline_ms: spec.deadline.map(|d| d.as_millis() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(nx: usize) -> JobSpec {
        JobSpec::new(SolverConfig::paper(Grid::new(nx, 16, 50.0, 5.0), Regime::Euler), 4, 2)
    }

    /// Cache keys name spill files and WAL records, so they outlive the
    /// process: the values (the parallel one taken before `fnv1a` moved to
    /// `ns-verify`, the others before a shared job became a plan) are
    /// pinned, and a change to the hash or the canonical form shows here.
    #[test]
    fn canonical_key_value_is_pinned() {
        assert_eq!(spec(48).canonical_key(), 0x209d_1f86_f7e9_a1d3);
        let on = |backend| JobSpec { backend, ..spec(48) }.canonical_key();
        assert_eq!(on(Backend::Serial), 0x7eda_6686_85f1_53dd);
        assert_eq!(on(Backend::Chaos), 0x0c9b_2e1c_b152_eeac);
        assert_eq!(on(Backend::Shared), 0x34dc_7e64_9fe0_d0e1);
    }

    #[test]
    fn key_ignores_priority_and_label() {
        let a = spec(48);
        let mut b = spec(48);
        b.priority = Priority::High;
        b.label = "urgent sweep cell".into();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.case(), b.case());
    }

    #[test]
    fn key_separates_different_physics_and_shape() {
        let base = spec(48);
        let mut other_grid = spec(64);
        other_grid.label.clear();
        let mut other_steps = spec(48);
        other_steps.steps = 6;
        let mut other_comm = spec(48);
        other_comm.comm = CommVersion::V6;
        let mut other_backend = spec(48);
        other_backend.backend = Backend::Chaos;
        let keys: Vec<u64> =
            [&base, &other_grid, &other_steps, &other_comm, &other_backend].iter().map(|s| s.canonical_key()).collect();
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "cells {i} and {j} collide");
            }
        }
    }

    #[test]
    fn canonicalization_merges_equivalent_descriptions() {
        // a serial job's procs/comm are meaningless
        let mut a = spec(48);
        a.backend = Backend::Serial;
        a.procs = 3;
        a.comm = CommVersion::V7;
        let mut b = spec(48);
        b.backend = Backend::Serial;
        b.procs = 1;
        b.comm = CommVersion::V5;
        assert_eq!(a.canonical_key(), b.canonical_key());
        // the shared driver forces kernel V5
        let mut c = spec(48);
        c.backend = Backend::Shared;
        c.cfg.version = Version::V6;
        let mut d = spec(48);
        d.backend = Backend::Shared;
        assert_eq!(c.canonical_key(), d.canonical_key());
    }

    #[test]
    fn validation_rejects_what_the_drivers_would_panic_on() {
        let mut too_fine = spec(48);
        too_fine.procs = 16; // 3 columns per rank
        assert!(too_fine.validate().unwrap_err().contains("fewer than 4 columns"));
        let mut zero_steps = spec(48);
        zero_steps.steps = 0;
        assert!(zero_steps.validate().is_err());
    }

    /// A shared job is the 1×1 plan with a DOALL team of `procs`.
    #[test]
    fn a_shared_job_is_the_one_rank_plan_with_a_team() {
        let shared = JobSpec { backend: Backend::Shared, procs: 3, ..spec(48) };
        let plan = shared.plan();
        assert_eq!((plan.topology, plan.threads), (CartTopology::axial(1), 3));
    }

    /// Dissipation is admitted on every backend, at every rank count and
    /// under every comm protocol.
    #[test]
    fn dissipation_is_admitted_on_every_backend() {
        let mut dissipative = spec(48);
        dissipative.cfg.dissipation = 0.002;
        for backend in [Backend::Serial, Backend::Parallel, Backend::Shared, Backend::Chaos] {
            for procs in [1, 2, 4] {
                for comm in CommVersion::ALL {
                    let job = JobSpec { backend, procs, comm, ..dissipative.clone() };
                    assert_eq!(job.validate(), Ok(()), "{backend:?} on {procs} under {comm:?}");
                }
            }
        }
    }

    #[test]
    fn desc_roundtrip_and_defaults() {
        let json = r#"{"regime":"euler","nx":48,"nr":16,"steps":4}"#;
        let desc: JobDesc = serde_json::from_str(json).unwrap();
        let spec = desc.to_spec().unwrap();
        assert_eq!(spec.backend, Backend::Parallel);
        assert_eq!(spec.priority, Priority::Normal);
        assert_eq!(spec.procs, 1);
        assert_eq!(spec.comm, CommVersion::V5);
        let bad: JobDesc = serde_json::from_str(r#"{"regime":"plasma","nx":48,"nr":16,"steps":4}"#).unwrap();
        assert!(bad.to_spec().unwrap_err().contains("unknown regime"));
    }
}
