//! The job model: what a campaign cell asks for, how it is validated at
//! admission, and the canonical content hash that makes the result cache
//! content-addressed.
//!
//! A job is a solver configuration, a step count and a run [`Shape`], and
//! runs as `shape.plan(..)` through `ns_runtime::run`. The wire's
//! `backend` and `procs` are an alias for a shape, resolved in
//! [`JobDesc::to_spec`], so `procs` counts ranks or threads as the backend
//! says.
//!
//! Two jobs that would compute the same physics must hash identically even
//! when they are *described* differently (a serial job "on 3 procs", a
//! one-rank parallel job under comm V7): the key is taken over the
//! canonical shape ([`Shape::canonical`]); priority, label and deadline
//! never enter it — urgency does not change the answer.

use ns_core::config::{Regime, SolverConfig, Version};
use ns_numerics::Grid;
use ns_runtime::{CartTopology, CommVersion, Shape};
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
    /// Rank grid, protocol, recovery and team.
    pub shape: Shape,
    /// Admission priority (never part of the cache key).
    pub priority: Priority,
    /// Queue-side deadline measured from admission (never part of the
    /// cache key — urgency does not change the answer). A job still queued
    /// when its deadline passes is settled as failed instead of run.
    pub deadline: Option<std::time::Duration>,
}

impl JobSpec {
    /// A job with defaults for everything but the physics and the shape:
    /// normal priority, canonical label, no deadline.
    pub fn new(cfg: SolverConfig, steps: u64, shape: Shape) -> Self {
        Self { label: String::new(), cfg, steps, shape, priority: Priority::Normal, deadline: None }
    }

    /// Canonical case name of the cell, e.g.
    /// `"euler/V5/parallel/p4/commV6/nx66x24/s6"`.
    pub fn case(&self) -> String {
        let (cfg, grid) = (&self.cfg, &self.cfg.grid);
        let shape = self.shape.canonical().name();
        format!("{}/{:?}/{shape}/nx{}x{}/s{}", cfg.regime.key(), cfg.version, grid.nx, grid.nr, self.steps)
    }

    /// Content-addressed cache key: FNV-1a 64 over the full serialized
    /// solver configuration, then the steps and the canonical shape's key
    /// text ([`Shape::key`]). Priority, label and deadline are deliberately
    /// excluded.
    pub fn canonical_key(&self) -> u64 {
        let cfg_json = serde_json::to_string(&self.cfg).expect("solver config serializes");
        let shape = format!("|{}{}", self.steps, self.shape.key());
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

    /// Admission-time validation: reject jobs the driver would refuse, so a
    /// bad request costs an error payload, not a worker. Beyond a step to
    /// take, that is the plan's own typed validation, the one the driver
    /// runs.
    pub fn validate(&self) -> Result<(), String> {
        if self.steps == 0 {
            return Err("steps must be >= 1".into());
        }
        self.shape.plan(&self.cfg, self.steps).validate().map_err(|e| e.to_string())
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
    /// Processor count (default 1): ranks for `parallel` and `chaos`,
    /// threads for `shared`, ignored for `serial`.
    pub procs: usize,
    /// Comm protocol `"V5"|"V6"|"V7"` (default `"V5"`).
    pub comm: String,
    /// Backend `"serial"|"parallel"|"chaos"|"shared"` (default
    /// `"parallel"`): an alias for a run shape ([`JobDesc::to_spec`]).
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
    /// anything is allocated for it. The backend names a shape: `serial`
    /// the 1×1 shape, `parallel` `procs`×1, `chaos` `procs`×1 with recovery
    /// armed, and `shared` the 1×1 shape with a team of `procs` threads at
    /// kernel V5, the rung whose station loops the team spreads (this is the
    /// one place that rule lives).
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
        let axial = CartTopology { px: self.procs, pr: 1 };
        let shape = match self.backend.as_str() {
            "serial" => Shape::SERIAL,
            "parallel" => Shape { topology: axial, comm, ..Shape::SERIAL },
            "chaos" => Shape { topology: axial, comm, chaos: true, ..Shape::SERIAL },
            "shared" => {
                cfg.version = Version::V5;
                Shape { threads: self.procs, ..Shape::SERIAL }
            }
            other => return Err(format!("unknown backend {other:?} (expected serial|parallel|chaos|shared)")),
        };
        let spec = JobSpec {
            label: self.label.clone().unwrap_or_default(),
            cfg,
            steps: self.steps,
            shape,
            priority: Priority::parse(&self.priority)?,
            deadline: self.deadline_ms.map(std::time::Duration::from_millis),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Describe a spec back as a wire description. The daemon journals
    /// descriptions, not specs, so a replayed job re-enters through the
    /// same validation as a fresh submit. Only paper-domain grids (the
    /// grids every serve entry point constructs) and shapes a backend
    /// names ([`Shape::alias`]) survive the round trip — the socket wire
    /// format itself can express nothing else. Panics on any other shape.
    pub fn from_spec(spec: &JobSpec) -> Self {
        let (backend, procs) = spec.shape.alias().expect("the wire names only the four backend shapes");
        Self {
            label: if spec.label.is_empty() { None } else { Some(spec.label.clone()) },
            regime: spec.cfg.regime.key().into(),
            nx: spec.cfg.grid.nx,
            nr: spec.cfg.grid.nr,
            steps: spec.steps,
            version: format!("{:?}", spec.cfg.version),
            procs,
            comm: spec.shape.comm.name().into(),
            backend: backend.into(),
            priority: spec.priority.name().into(),
            deadline_ms: spec.deadline.map(|d| d.as_millis() as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire description of a 48 × 16 Euler job of 4 steps on `backend`
    /// with `procs`.
    fn desc(backend: &str, procs: usize) -> JobDesc {
        let json = format!(r#"{{"regime":"euler","nx":48,"nr":16,"steps":4,"procs":{procs},"backend":"{backend}"}}"#);
        serde_json::from_str(&json).unwrap()
    }

    fn spec(backend: &str, procs: usize) -> JobSpec {
        desc(backend, procs).to_spec().unwrap()
    }

    /// Cache keys name spill files and WAL records, so they outlive the
    /// process: the values (the parallel one taken before `fnv1a` moved to
    /// `ns-verify`, the others before a shared job became a plan) are
    /// pinned, and a change to the hash or the canonical form shows here.
    #[test]
    fn canonical_key_value_is_pinned() {
        assert_eq!(spec("parallel", 2).canonical_key(), 0x209d_1f86_f7e9_a1d3);
        assert_eq!(spec("serial", 2).canonical_key(), 0x7eda_6686_85f1_53dd);
        assert_eq!(spec("chaos", 2).canonical_key(), 0x0c9b_2e1c_b152_eeac);
        assert_eq!(spec("shared", 2).canonical_key(), 0x34dc_7e64_9fe0_d0e1);
    }

    #[test]
    fn key_ignores_priority_and_label() {
        let a = spec("parallel", 2);
        let mut b = a.clone();
        b.priority = Priority::High;
        b.label = "urgent sweep cell".into();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.case(), b.case());
    }

    #[test]
    fn key_separates_different_physics_and_shape() {
        let base = spec("parallel", 2);
        let other_grid = JobDesc { nx: 64, ..desc("parallel", 2) }.to_spec().unwrap();
        let other_steps = JobSpec { steps: 6, ..base.clone() };
        let other_comm = JobDesc { comm: "V6".into(), ..desc("parallel", 2) }.to_spec().unwrap();
        let other_backend = spec("chaos", 2);
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
        let key = |d: JobDesc| d.to_spec().unwrap().canonical_key();
        // a serial job's procs/comm are meaningless, and so is a one-rank
        // job's protocol
        let serial = key(desc("serial", 1));
        assert_eq!(key(JobDesc { comm: "V7".into(), ..desc("serial", 3) }), serial);
        assert_eq!(key(JobDesc { comm: "V7".into(), ..desc("parallel", 1) }), serial);
        // the shared alias forces kernel V5
        assert_eq!(key(JobDesc { version: "V6".into(), ..desc("shared", 2) }), key(desc("shared", 2)));
    }

    #[test]
    fn validation_rejects_what_the_drivers_would_panic_on() {
        let too_fine = spec("parallel", 2);
        let too_fine = JobSpec { shape: Shape { topology: CartTopology::axial(16), ..too_fine.shape }, ..too_fine };
        assert!(too_fine.validate().unwrap_err().contains("fewer than 4 columns")); // 3 columns per rank
        assert!(JobSpec { steps: 0, ..spec("parallel", 2) }.validate().is_err());
    }

    /// A shared job is the 1×1 plan with a DOALL team of `procs`.
    #[test]
    fn a_shared_job_is_the_one_rank_plan_with_a_team() {
        let shared = spec("shared", 3);
        let plan = shared.shape.plan(&shared.cfg, shared.steps);
        assert_eq!((plan.topology, plan.threads), (CartTopology::axial(1), 3));
    }

    /// Dissipation is admitted on every backend, at every rank count and
    /// under every comm protocol.
    #[test]
    fn dissipation_is_admitted_on_every_backend() {
        for backend in ["serial", "parallel", "shared", "chaos"] {
            for procs in [1, 2, 4] {
                for comm in CommVersion::ALL {
                    let mut job = JobDesc { comm: comm.name().into(), ..desc(backend, procs) }.to_spec().unwrap();
                    job.cfg.dissipation = 0.002;
                    assert_eq!(job.validate(), Ok(()), "{backend} on {procs} under {comm:?}");
                }
            }
        }
    }

    #[test]
    fn desc_roundtrip_and_defaults() {
        let json = r#"{"regime":"euler","nx":48,"nr":16,"steps":4}"#;
        let desc: JobDesc = serde_json::from_str(json).unwrap();
        let spec = desc.to_spec().unwrap();
        assert_eq!(spec.shape, Shape::SERIAL, "one parallel rank is the serial shape");
        assert_eq!(spec.priority, Priority::Normal);
        let back = JobDesc::from_spec(&spec);
        assert_eq!((back.backend.as_str(), back.procs, back.comm.as_str()), ("serial", 1, "V5"));
        assert_eq!(back.to_spec().unwrap().canonical_key(), spec.canonical_key());
        let bad: JobDesc = serde_json::from_str(r#"{"regime":"plasma","nx":48,"nr":16,"steps":4}"#).unwrap();
        assert!(bad.to_spec().unwrap_err().contains("unknown regime"));
    }
}
