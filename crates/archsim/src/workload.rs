//! The recorded step pair: the per-rank program the simulator replays.
//!
//! A plan's step program is read off the code, not described beside it. A
//! two-step traced [`ns_runtime::run`] of the plan — one even step
//! (`L_r L_x`) and one odd step (`L_x L_r`), as [`ns_core::Solver`] runs
//! them — records every rank's timeline in program order: each step's
//! mark, the phase spans of the solver (each carrying the FLOPs its ledger
//! billed while the span was open) and the messages of the halo protocol
//! (peer, payload bytes, in the order the rank sent and received them).
//! The simulator replays recorded step `k mod 2` as its step `k` and models
//! only the durations, so its message traffic and compute split are the
//! runtime's own: V6's overlap is the recorded post, interior, finish
//! order, and V7's split flux packets are two recorded messages.
//!
//! The program does not depend on the platform, so recordings are cached
//! once per process, keyed by the plan alone.

use ns_core::config::SolverConfig;
use ns_runtime::{CartTopology, CommVersion, RunPlan, TelemetryOptions};
use ns_telemetry::{Event, EventKind};
use std::sync::{Arc, Mutex, OnceLock};

/// Every rank's recorded step pair of one plan.
#[derive(Debug)]
pub struct Recording {
    /// Per rank, the events of the even and of the odd step, each opening
    /// with its `step` mark.
    pub ranks: Vec<[Vec<Event>; 2]>,
}

/// A cached recording, keyed by the plan's solver configuration, rank grid
/// and comm protocol.
type Entry = ((SolverConfig, CartTopology, CommVersion), Arc<Recording>);

/// The recording of the plan `cfg` on `topology` under `comm`, made on first
/// use (one rank thread per rank, the calling thread being rank 0) and
/// cached for the process. Panics with the runtime's text on a plan it
/// refuses.
pub fn record(cfg: &SolverConfig, topology: CartTopology, comm: CommVersion) -> Arc<Recording> {
    static CACHE: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    let cache = CACHE.get_or_init(Mutex::default);
    let key = (cfg.clone(), topology, comm);
    let cached = |c: &[Entry]| c.iter().find(|(k, _)| *k == key).map(|(_, r)| Arc::clone(r));
    if let Some(r) = cached(&cache.lock().expect("recording cache poisoned")) {
        return r;
    }
    // recorded outside the lock, so concurrent plans record side by side
    let telemetry = TelemetryOptions { trace: true, ..Default::default() };
    let plan = RunPlan { telemetry, ..RunPlan::new(cfg, topology, 2, comm) };
    let run = ns_runtime::run(&plan).unwrap_or_else(|e| panic!("topology refused: {e}"));
    let ranks = run.ranks.into_iter().map(|r| split_steps(r.trace)).collect();
    let mut cache = cache.lock().expect("recording cache poisoned");
    if let Some(r) = cached(&cache) {
        return r;
    }
    let r = Arc::new(Recording { ranks });
    cache.push((key, Arc::clone(&r)));
    r
}

/// Cut a rank's two-step timeline at its `step` marks.
fn split_steps(trace: Vec<Event>) -> [Vec<Event>; 2] {
    let mut steps: [Vec<Event>; 2] = Default::default();
    let mut k = None;
    for e in trace {
        if e.kind == EventKind::Mark && e.label == "step" {
            k = Some(k.map_or(0, |k| k + 1));
        }
        steps[k.expect("a traced rank's timeline opens with a step mark")].push(e);
    }
    steps
}

impl Recording {
    /// The program `rank` runs as simulated step `k`: recorded step `k mod 2`.
    pub fn step(&self, rank: usize, k: u64) -> &[Event] {
        &self.ranks[rank][(k % 2) as usize]
    }

    /// Sum of `f` over `rank`'s events in `steps` replayed steps.
    fn over(&self, rank: usize, steps: u64, f: impl Fn(&Event) -> u64) -> u64 {
        let [even, odd] = self.ranks[rank].each_ref().map(|s| s.iter().map(&f).sum::<u64>());
        steps / 2 * (even + odd) + steps % 2 * even
    }

    /// FP operations `rank` bills in `steps` steps.
    pub fn flops(&self, rank: usize, steps: u64) -> u64 {
        self.over(rank, steps, |e| e.flops)
    }

    /// Message start-ups (sends plus receives) `rank` makes in `steps`
    /// steps, with `peer` only when given.
    pub fn startups(&self, rank: usize, peer: Option<usize>, steps: u64) -> u64 {
        let message = |e: &Event| matches!(e.kind, EventKind::Send | EventKind::Recv);
        self.over(rank, steps, |e| u64::from(message(e) && peer.is_none_or(|p| e.peer == Some(p))))
    }

    /// Payload bytes `rank` sends in `steps` steps.
    pub fn bytes_sent(&self, rank: usize, steps: u64) -> u64 {
        self.over(rank, steps, |e| if e.kind == EventKind::Send { e.bytes } else { 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ns_core::config::{Regime, Version};
    use ns_core::field::NG;
    use ns_numerics::Grid;

    /// The paper's `p × 1` axial split of the 250x100 grid.
    fn axial(regime: Regime, p: usize) -> Arc<Recording> {
        record(&SolverConfig::paper(Grid::paper(), regime), CartTopology::axial(p), CommVersion::V5)
    }

    #[test]
    fn navier_stokes_has_16_startups_per_step() {
        let r = axial(Regime::NavierStokes, 16);
        assert_eq!(r.startups(1, None, 1), 16);
        assert_eq!(r.startups(1, None, 2), 32, "the odd step makes the same exchanges");
        // 5000 steps -> the paper's 80,000 per-processor start-ups
        assert_eq!(r.startups(1, None, 5000), 80_000);
    }

    #[test]
    fn euler_has_12_startups_per_step() {
        let r = axial(Regime::Euler, 16);
        assert_eq!(r.startups(1, None, 1), 12);
        assert_eq!(r.startups(1, None, 5000), 60_000);
    }

    #[test]
    fn message_sizes_follow_grid() {
        // one grouped primitive column (u, v, T) and one two-column flux
        // packet (4 components) of nr = 100 doubles each
        let r = axial(Regime::NavierStokes, 4);
        let size = |label: &str| r.step(1, 0).iter().find(|e| e.label == label).map(|e| e.bytes);
        assert_eq!(size("Prims1"), Some(2400));
        assert_eq!(size("Flux1"), Some(6400));
    }

    #[test]
    fn euler_computes_roughly_half_of_ns() {
        let ns = axial(Regime::NavierStokes, 1).flops(0, 2);
        let eu = axial(Regime::Euler, 1).flops(0, 2);
        let ratio = eu as f64 / ns as f64;
        // the paper's Table 1 ratio is 77/145 = 0.53
        assert!(ratio > 0.4 && ratio < 0.75, "ratio {ratio}");
    }

    #[test]
    fn compute_scales_linearly_with_columns() {
        // 250 columns over 16 ranks leave blocks of 15 or 16; two interior
        // blocks of either width bill the same FLOPs per column
        let r = axial(Regime::NavierStokes, 16);
        let blocks = |rank: usize| ns_core::field::Patch::block(Grid::paper(), rank, 16).nxl as u64;
        let (wide, narrow) = (1..15).map(|k| (k, blocks(k))).fold((None, None), |(w, n), (k, c)| match c {
            16 => (w.or(Some(k)), n),
            _ => (w, n.or(Some(k))),
        });
        let (wide, narrow) = (wide.unwrap(), narrow.unwrap());
        assert_eq!(r.flops(wide, 2) * blocks(narrow), r.flops(narrow, 2) * blocks(wide));
    }

    #[test]
    fn edge_rank_sends_half_of_interior_rank() {
        let r = axial(Regime::NavierStokes, 16);
        assert_eq!(r.bytes_sent(0, 2) * 2, r.bytes_sent(1, 2));
    }

    /// An interior pencil of a 4 x 4 split of the paper grid: 62 or 63
    /// columns x 25 rows, with a neighbour on every face.
    fn interior_pencil(regime: Regime) -> (Arc<Recording>, usize, CartTopology) {
        let topo = CartTopology::new(4, 4).unwrap();
        let rank = (0..topo.size()).find(|&r| topo.coords(r) == (1, 2)).unwrap();
        (record(&SolverConfig::paper(Grid::paper(), regime), topo, CommVersion::V5), rank, topo)
    }

    #[test]
    fn pencil_radial_protocol_startup_counts() {
        for (regime, axial_per_nb, radial_per_nb) in [(Regime::NavierStokes, 8, 12), (Regime::Euler, 6, 4)] {
            let (r, rank, topo) = interior_pencil(regime);
            let nb = topo.neighbors(rank);
            for (peer, per_step) in
                [(nb.left, axial_per_nb), (nb.right, axial_per_nb), (nb.down, radial_per_nb), (nb.up, radial_per_nb)]
            {
                assert_eq!(r.startups(rank, Some(peer.unwrap()), 1), per_step, "{regime:?} peer {peer:?}");
            }
            assert_eq!(r.startups(rank, None, 1), 2 * (axial_per_nb + radial_per_nb));
        }
    }

    #[test]
    fn pencil_radial_rows_span_padded_width() {
        let (r, rank, topo) = interior_pencil(Regime::NavierStokes);
        let nxl = ns_core::field::Patch::pencil(Grid::paper(), topo.coords(rank), (4, 4)).nxl as u64;
        let rows: Vec<u64> = r.step(rank, 0).iter().filter(|e| e.label == "PrimsR").map(|e| e.bytes).collect();
        assert!(!rows.is_empty());
        // 3 planes x (nxl + 2 NG) points x 8 bytes: the corner strips ride
        // along with the owned row
        assert!(rows.iter().all(|&b| b == 3 * (nxl + 2 * NG as u64) * 8), "{rows:?}");
    }

    #[test]
    fn v6_workload_fuses_labels_but_not_flops_or_protocol() {
        let topo = CartTopology::new(4, 2).unwrap();
        let cfg = SolverConfig::paper(Grid::paper(), Regime::NavierStokes);
        let v5 = record(&cfg, topo, CommVersion::V5);
        let v6 = record(&SolverConfig { version: Version::V6, ..cfg }, topo, CommVersion::V5);
        for rank in 0..topo.size() {
            assert_eq!(v5.flops(rank, 2), v6.flops(rank, 2), "rank {rank}");
            assert_eq!(v5.startups(rank, None, 2), v6.startups(rank, None, 2));
            assert_eq!(v5.bytes_sent(rank, 2), v6.bytes_sent(rank, 2));
        }
        let labels: Vec<&str> =
            v6.ranks[5].iter().flatten().filter(|e| e.kind == EventKind::Phase).map(|e| &*e.label).collect();
        assert!(labels.contains(&"r:fused") && labels.contains(&"x:fused2"));
        assert!(!labels.iter().any(|l| l.contains("prims") || l.ends_with("flux") || l.ends_with("flux2")));
        // the predictor/corrector phases keep their names
        assert!(labels.contains(&"x:predict") && labels.contains(&"r:correct"));
    }
}
