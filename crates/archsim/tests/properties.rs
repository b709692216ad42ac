//! Property-based tests of the architecture simulator: cache invariants,
//! network causality and contention monotonicity, engine determinism.

use ns_archsim::network::{Network, SharedBus, Torus3d};
use ns_archsim::{simulate, CacheGeometry, CacheSim, NetKind, Platform, SimConfig};
use ns_core::config::{Regime, SolverConfig, Version};
use ns_runtime::{CartTopology, CommVersion};
use proptest::prelude::*;

proptest! {
    /// Immediately re-accessing any address is always a hit.
    #[test]
    fn cache_hit_after_access(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut c = CacheSim::new(CacheGeometry::new(4096, 64, 2));
        for &a in &addrs {
            c.access(a);
            prop_assert!(c.access(a), "address {a} must hit right after access");
        }
    }

    /// On any trace, a larger cache of the same shape never misses more
    /// (same line size and associativity, more sets: for LRU this inclusion
    /// holds per set-group and is a classic stack property).
    #[test]
    fn bigger_cache_never_worse_on_solver_like_traces(stride in 1u64..256, n in 50usize..400) {
        let trace: Vec<u64> = (0..n as u64).map(|k| k * stride * 8).collect();
        let run = |capacity: usize| {
            let mut c = CacheSim::new(CacheGeometry::new(capacity, 64, 4));
            // warm + measure two passes
            for &a in &trace { c.access(a); }
            c.reset_stats();
            for &a in &trace { c.access(a); }
            c.stats.misses
        };
        let small = run(8 * 1024);
        let large = run(64 * 1024);
        prop_assert!(large <= small, "64KB ({large}) vs 8KB ({small})");
    }

    /// Fully-associative (ways = sets-capacity) LRU never misses more than
    /// direct-mapped at the same capacity on repeated traces.
    #[test]
    fn associativity_never_hurts_on_cyclic_traces(period in 2usize..64) {
        let trace: Vec<u64> = (0..period as u64).map(|k| k * 4096).collect();
        let run = |ways: usize| {
            let mut c = CacheSim::new(CacheGeometry::new(16 * 1024, 64, ways));
            for _ in 0..3 {
                for &a in &trace { c.access(a); }
            }
            c.reset_stats();
            for &a in &trace { c.access(a); }
            c.stats.misses
        };
        prop_assert!(run(256) <= run(1));
    }

    /// Network causality: a transfer never completes before it starts, and
    /// a bus's deliveries are non-decreasing in injection order.
    #[test]
    fn shared_bus_causal_and_fifo(sizes in prop::collection::vec(1u64..20_000, 1..40)) {
        let mut bus = SharedBus::new("test", 10e6, 10e-6);
        let mut last = 0.0f64;
        let mut now = 0.0f64;
        for (k, &b) in sizes.iter().enumerate() {
            now += 0.0001 * (k % 3) as f64;
            let done = bus.transfer(now, 0, 1, b);
            prop_assert!(done > now, "delivery after injection");
            prop_assert!(done >= last, "FIFO deliveries");
            last = done;
        }
    }

    /// More traffic on the torus never makes an individual delivery earlier.
    #[test]
    fn torus_contention_monotone(loads in prop::collection::vec(100u64..50_000, 0..20)) {
        let probe = |preload: &[u64]| {
            let mut t = Torus3d::new(16);
            for &b in preload {
                t.transfer(0.0, 0, 1, b);
            }
            t.transfer(0.0, 0, 1, 6400)
        };
        let empty = probe(&[]);
        let loaded = probe(&loads);
        prop_assert!(loaded >= empty - 1e-12);
    }

    /// The SPMD engine is deterministic: identical configs produce
    /// identical results.
    #[test]
    fn simulation_is_deterministic(p in 1usize..9, viscous in prop::bool::ANY) {
        let regime = if viscous { Regime::NavierStokes } else { Regime::Euler };
        let mut cfg = SimConfig::paper(Platform::lace560_allnode_s(), p, regime);
        cfg.sim_steps = 3;
        let a = simulate(&cfg);
        let b = simulate(&cfg);
        prop_assert_eq!(a, b);
    }

    /// Simulated total time is monotone in the per-step workload: N-S never
    /// beats Euler on the same platform and processor count.
    #[test]
    fn ns_never_faster_than_euler(p in 1usize..16, which in 0usize..4) {
        let platform = [
            Platform::lace560_allnode_s(),
            Platform::lace590_allnode_f(),
            Platform::ibm_sp_mpl(),
            Platform::cray_t3d(),
        ][which];
        let mut cfg = SimConfig::paper(platform, p.max(1), Regime::Euler);
        cfg.sim_steps = 3;
        let euler = simulate(&cfg).total;
        cfg.solver.regime = Regime::NavierStokes;
        let ns = simulate(&cfg).total;
        prop_assert!(ns > euler, "{}: N-S {ns} vs Euler {euler}", platform.name);
    }

    /// Busy + wait never exceeds a rank's completion time, and the reported
    /// total is the max over ranks, for any platform/P.
    #[test]
    fn accounting_identities(p in 1usize..16, which in 0usize..8) {
        let platform = Platform::all()[which];
        let mut cfg = SimConfig::paper(platform, p.max(1), Regime::NavierStokes);
        cfg.sim_steps = 2;
        let r = simulate(&cfg);
        for k in 0..r.busy.len() {
            prop_assert!(r.busy[k] >= 0.0 && r.wait[k] >= 0.0);
            prop_assert!(r.busy[k] + r.wait[k] <= r.total * (1.0 + 1e-9), "rank {k}");
        }
        let slowest = r.busy.iter().zip(&r.wait).map(|(b, w)| b + w).fold(0.0f64, f64::max);
        prop_assert!((slowest - r.total).abs() / r.total < 1e-9, "total is the slowest rank");
    }

    /// Start-up counts follow the protocol arithmetic for every P.
    #[test]
    fn startup_arithmetic(p in 2usize..16) {
        let mut cfg = SimConfig::paper(Platform::lace560_ethernet(), p, Regime::NavierStokes);
        cfg.sim_steps = cfg.report_steps.min(4);
        cfg.report_steps = cfg.sim_steps;
        let r = simulate(&cfg);
        for (k, &s) in r.startups.iter().enumerate() {
            let neighbors = usize::from(k > 0) + usize::from(k + 1 < p);
            prop_assert_eq!(s, (8 * neighbors) as u64 * cfg.sim_steps, "rank {}", k);
        }
    }

    /// The per-phase attribution is exhaustive: `phase_seconds` summed over
    /// labels equals busy time summed over ranks (blocking-send stalls are
    /// charged to `comm:stall` *and* to busy, so both sides agree) for
    /// P ∈ {2, 4, 8, 16} as `P × 1`, `1 × P` or `P/2 × 2` rank grids, under
    /// every comm variant, and with kernel V7 on the pencil shapes.
    #[test]
    fn phase_seconds_sum_to_total_busy(
        pidx in 0usize..4,
        which in 0usize..8,
        viscous in prop::bool::ANY,
        shape in 0usize..3,
        mode in 0usize..3,
    ) {
        let platform = Platform::all()[which];
        let p = [2usize, 4, 8, 16][pidx].min(platform.max_procs);
        let regime = if viscous { Regime::NavierStokes } else { Regime::Euler };
        let (px, pr) = [(p, 1), (1, p), (p / 2, 2)][shape];
        let version = if pr == 1 { Version::V5 } else { Version::V7 };
        let paper = SimConfig::paper(platform, p, regime);
        let r = simulate(&SimConfig {
            topology: CartTopology::new(px, pr).unwrap(),
            comm: [CommVersion::V5, CommVersion::V6, CommVersion::V7][mode],
            solver: SolverConfig { version, ..paper.solver.clone() },
            sim_steps: 2,
            ..paper
        });
        let busy: f64 = r.busy.iter().sum();
        let phases: f64 = r.phase_seconds.values().sum();
        prop_assert!(
            (phases - busy).abs() <= 1e-9 * busy.max(1.0),
            "phase sum {phases} vs busy sum {busy} on {}",
            platform.name
        );
    }

    /// V7 moves exactly the same volume as V5 with strictly more start-ups;
    /// V6 moves the same volume with the same start-ups (on `P × 1`, where
    /// every interior rank has two axial neighbours).
    #[test]
    fn comm_mode_invariants(p in 2usize..12) {
        let mk = |mode: CommVersion| {
            let mut cfg = SimConfig::paper(Platform::lace560_allnode_s(), p, Regime::NavierStokes);
            cfg.sim_steps = 2;
            cfg.report_steps = 2;
            cfg.comm = mode;
            simulate(&cfg)
        };
        let v5 = mk(CommVersion::V5);
        let v6 = mk(CommVersion::V6);
        let v7 = mk(CommVersion::V7);
        for k in 0..p {
            prop_assert_eq!(v5.bytes_sent[k], v7.bytes_sent[k]);
            prop_assert_eq!(v5.bytes_sent[k], v6.bytes_sent[k]);
            prop_assert_eq!(v5.startups[k], v6.startups[k]);
            if k > 0 && k + 1 < p {
                prop_assert!(v7.startups[k] > v5.startups[k]);
            }
        }
    }
}

/// Non-proptest: the network constructors cover every kind and report
/// sensible names.
#[test]
fn all_network_kinds_construct() {
    for kind in [
        NetKind::Ethernet,
        NetKind::Fddi,
        NetKind::AllnodeS,
        NetKind::AllnodeF,
        NetKind::Atm,
        NetKind::SpSwitch,
        NetKind::Torus3d,
    ] {
        let mut net = kind.build(16);
        let done = net.transfer(0.0, 0, 1, 1000);
        assert!(done > 0.0, "{}", net.name());
        assert!(!net.name().is_empty());
    }
}
