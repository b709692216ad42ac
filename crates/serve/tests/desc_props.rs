//! Property-based tests of job admission: `JobDesc::to_spec` on arbitrary
//! descriptions — zero, small and huge grid extents, rank and step counts,
//! arbitrary strings — returns `Ok` or `Err` and never panics, and it
//! allocates no grid on the way (this binary counts what the calling
//! thread allocates). A daemon's connection thread resolves every wire
//! submit through it, so a hostile job list costs an `Invalid` answer,
//! not the thread, and a huge grid costs nothing until it runs.

use ns_core::config::{Regime, SolverConfig, Version};
use ns_numerics::Grid;
use ns_runtime::{CartTopology, CommVersion};
use ns_serve::job::{JobDesc, MAX_GRID_POINTS};
use ns_verify::snapshot::{fnv1a, FNV_OFFSET};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the bytes the calling thread asks for
/// while its count is armed.
struct Counting;

thread_local! {
    static ARMED: Cell<Option<usize>> = const { Cell::new(None) };
}

// SAFETY: every call forwards to `System` unchanged; the count is a
// const-initialised thread local, so reading it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ARMED.try_with(|n| n.set(n.get().map(|n| n + layout.size())));
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the bytes the calling thread allocated running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    ARMED.with(|n| n.set(Some(0)));
    let out = f();
    let bytes = ARMED.with(|n| n.replace(None)).unwrap_or(0);
    (out, bytes)
}

/// The bytes a description brings along in its strings.
fn string_bytes(d: &JobDesc) -> usize {
    [&d.regime, &d.version, &d.comm, &d.backend, &d.priority].iter().map(|s| s.len()).sum::<usize>()
        + d.label.as_ref().map_or(0, String::len)
}

/// An extent or count: zero, tiny, the admission edge, ordinary, or huge.
fn size(pick: u8, n: u64) -> usize {
    match pick % 6 {
        0 => 0,
        1 => (n % 8) as usize,
        2 => 5,
        3 => 8 + (n % 300) as usize,
        4 => usize::MAX - (n % 4) as usize,
        _ => n as usize,
    }
}

/// A field value: mostly one of the names admission accepts, else
/// arbitrary bytes read as text.
fn text(valid: &[&str], pick: u8, bytes: &[u8]) -> String {
    if pick < 6 && !valid.is_empty() {
        valid[pick as usize % valid.len()].to_string()
    } else {
        String::from_utf8_lossy(bytes).into_owned()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn to_spec_never_panics_or_allocates_a_grid(
        sizes in prop::collection::vec((0u8..6, 0u64..u64::MAX), 4),
        picks in prop::collection::vec(0u8..8, 6),
        bytes in prop::collection::vec(0u8..=255, 0..24),
        deadline in 0u64..u64::MAX,
    ) {
        let desc = JobDesc {
            label: (picks[5] % 2 == 0).then(|| text(&[], 0, &bytes)),
            regime: text(&["euler", "navier-stokes"], picks[0], &bytes),
            nx: size(sizes[0].0, sizes[0].1),
            nr: size(sizes[1].0, sizes[1].1),
            steps: size(sizes[2].0, sizes[2].1) as u64,
            version: text(&["V1", "V3", "V5", "V6", "V7"], picks[1], &bytes),
            procs: size(sizes[3].0, sizes[3].1),
            comm: text(&["V5", "V6", "V7"], picks[2], &bytes),
            backend: text(&["serial", "parallel", "chaos", "shared"], picks[3], &bytes),
            priority: text(&["low", "normal", "high"], picks[4], &bytes),
            deadline_ms: (picks[5] % 3 == 0).then_some(deadline),
        };
        let (resolved, allocated) = counted(|| std::panic::catch_unwind(|| desc.to_spec()));
        prop_assert!(resolved.is_ok(), "to_spec panicked on {:?}", desc);
        if let Ok(spec) = resolved.unwrap() {
            prop_assert!(desc.nx >= 5 && desc.nr >= 5 && desc.steps >= 1, "admitted {:?}", desc);
            // a grid past the bound, or whose point count overflows, is refused
            let points = desc.nx.checked_mul(desc.nr);
            prop_assert!(points.is_some_and(|n| n <= MAX_GRID_POINTS), "admitted {:?}", desc);
            prop_assert_eq!((spec.cfg.grid.nx, spec.cfg.grid.nr), (desc.nx, desc.nr));
        }
        // what it allocates scales with the strings (an error quotes them),
        // not with nx x nr: one field of a 16 x 16 grid is already four
        // planes of 20 x 20 doubles, 12.8 KB
        prop_assert!(
            allocated <= 4096 + 8 * string_bytes(&desc),
            "to_spec allocated {} bytes for {:?}", allocated, desc
        );
    }
}

/// Whether the wire admitted `d` before a backend became an alias for a
/// run shape: every name known, a grid inside the bound, a step to take,
/// and the rank grid (`parallel`, `chaos`) or team (`shared`) admitted;
/// `serial` ignored `procs`.
fn admitted_before(d: &JobDesc) -> bool {
    let known = |valid: &[&str], s: &str| valid.contains(&s);
    let points = d.nx.checked_mul(d.nr).is_some_and(|n| n <= MAX_GRID_POINTS);
    let ranks = || CartTopology { px: d.procs, pr: 1 }.validate(&Grid::new(d.nx, d.nr, 50.0, 5.0)).is_ok();
    known(&["euler", "navier-stokes"], &d.regime)
        && known(&["V1", "V2", "V3", "V4", "V5", "V6", "V7"], &d.version)
        && known(&["V5", "V6", "V7"], &d.comm)
        && known(&["low", "normal", "high"], &d.priority)
        && d.nx >= Grid::MIN_POINTS
        && d.nr >= Grid::MIN_POINTS
        && points
        && d.steps >= 1
        && match d.backend.as_str() {
            "serial" => true,
            "shared" => d.procs >= 1,
            "parallel" | "chaos" => ranks(),
            _ => false,
        }
}

/// The cache key an admitted `d` had before a backend became an alias for
/// a run shape, kept here as the reference: FNV-1a over the solver
/// configuration's JSON, then `|steps|procs|commVn|backend`, after the
/// canonicalisation of the time (a serial job on one proc under comm V5, a
/// shared job at kernel V5 under comm V5).
fn key_before(d: &JobDesc) -> u64 {
    let regime = if d.regime == "euler" { Regime::Euler } else { Regime::NavierStokes };
    let mut cfg = SolverConfig::paper(Grid::new(d.nx, d.nr, 50.0, 5.0), regime);
    cfg.version = Version::ALL.into_iter().find(|v| format!("{v:?}") == d.version).unwrap();
    let (procs, comm) = match d.backend.as_str() {
        "serial" => (1, "V5"),
        "shared" => {
            cfg.version = Version::V5;
            (d.procs, "V5")
        }
        _ => (d.procs, d.comm.as_str()),
    };
    let cfg_json = serde_json::to_string(&cfg).unwrap();
    let shape = format!("|{}|{procs}|comm{comm}|{}", d.steps, d.backend);
    fnv1a(fnv1a(FNV_OFFSET, cfg_json.as_bytes()), shape.as_bytes())
}

/// The description whose old key an admitted `d` now has: itself, except
/// where two descriptions now name the same one-rank run. A one-rank
/// `parallel` job and a one-thread `shared` job are the serial job (the
/// latter at kernel V5); a one-rank `chaos` job moves nothing under any
/// protocol, so it is the comm V5 one.
fn merged(d: &JobDesc) -> JobDesc {
    match (d.backend.as_str(), d.procs) {
        ("parallel", 1) => JobDesc { backend: "serial".into(), ..d.clone() },
        ("shared", 1) => JobDesc { backend: "serial".into(), version: "V5".into(), ..d.clone() },
        ("chaos", 1) => JobDesc { comm: CommVersion::V5.name().into(), ..d.clone() },
        _ => d.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The wire aliases keep their keys: `to_spec` admits exactly what it
    /// admitted before, and every admitted description keys as it did,
    /// up to the one-rank merges of [`merged`].
    #[test]
    fn wire_aliases_keep_their_admission_and_keys(
        nx in 0usize..80,
        nr in 0usize..32,
        steps in 0u64..4,
        procs in 0usize..24,
        picks in prop::collection::vec(0u8..9, 4),
    ) {
        let pick = |valid: &[&str], at: u8| valid.get(at as usize).copied().unwrap_or("bogus").to_string();
        let desc = JobDesc {
            label: None,
            regime: pick(&["euler", "navier-stokes"], picks[0] % 3),
            nx,
            nr,
            steps,
            version: pick(&["V1", "V2", "V3", "V4", "V5", "V6", "V7"], picks[1]),
            procs,
            comm: pick(&["V5", "V6", "V7"], picks[2] % 4),
            backend: pick(&["serial", "parallel", "chaos", "shared"], picks[3] % 5),
            priority: "normal".into(),
            deadline_ms: None,
        };
        let spec = desc.to_spec();
        prop_assert_eq!(spec.is_ok(), admitted_before(&desc), "{:?}: {:?}", desc, spec.as_ref().err());
        if let Ok(spec) = spec {
            prop_assert_eq!(spec.canonical_key(), key_before(&merged(&desc)), "{:?}", desc);
        }
    }
}

/// The bound's edges: the largest grid any caller runs is admitted, one
/// past the bound and an overflowing point count are refused.
#[test]
fn grid_bound_admits_512_squared_and_refuses_past_it() {
    let desc = |nx: usize, nr: usize| JobDesc { nx, nr, ..JobDesc::from_spec(&sample_spec()) };
    assert!(desc(512, 512).to_spec().is_ok());
    assert!(desc(1024, 1024).to_spec().is_ok());
    for (nx, nr) in [(1025, 1024), (100_000, 100_000), (5, usize::MAX - 4), (usize::MAX, usize::MAX)] {
        let err = desc(nx, nr).to_spec().unwrap_err();
        assert!(err.contains("too large"), "{nx}x{nr}: {err}");
    }
}

fn sample_spec() -> ns_serve::job::JobSpec {
    use ns_core::config::{Regime, SolverConfig};
    let cfg = SolverConfig::paper(ns_numerics::Grid::new(24, 10, 50.0, 5.0), Regime::Euler);
    ns_serve::job::JobSpec::new(cfg, 2, ns_runtime::Shape::SERIAL)
}
