//! Seeded input generation: the program under test only ever sees the
//! generated inputs, never the seed.

use ns_serve::JobDesc;

/// SplitMix64: tiny, seedable, and good enough to draw job shapes.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (rep index).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// Serve job shapes: tiny on purpose, so the serve layers and not the
/// solver are most of a job's latency.
const NX: std::ops::Range<usize> = 24..64;
const NR: std::ops::Range<usize> = 10..24;
const STEPS: [u64; 3] = [2, 3, 4];
const REGIMES: [&str; 2] = ["euler", "navier-stokes"];

fn job_at(index: usize) -> JobDesc {
    let (nx, rest) = (NX.start + index % NX.len(), index / NX.len());
    let (nr, rest) = (NR.start + rest % NR.len(), rest / NR.len());
    let (steps, rest) = (STEPS[rest % STEPS.len()], rest / STEPS.len());
    JobDesc {
        label: None,
        regime: REGIMES[rest].to_string(),
        nx,
        nr,
        steps,
        version: "V5".into(),
        procs: 1,
        comm: "V5".into(),
        backend: "serial".into(),
        priority: "normal".into(),
        deadline_ms: None,
    }
}

/// `n` jobs with pairwise distinct shapes (hence distinct cache keys),
/// drawn without replacement from the shape space.
pub fn distinct_jobs(rng: &mut Rng, n: usize) -> Vec<JobDesc> {
    let space = NX.len() * NR.len() * STEPS.len() * REGIMES.len();
    assert!(n <= space, "at most {space} distinct job shapes exist");
    let mut index: Vec<usize> = (0..space).collect();
    for i in 0..n {
        let j = i + rng.below(space - i);
        index.swap(i, j);
    }
    index[..n].iter().map(|&i| job_at(i)).collect()
}

/// `m` accesses over `keys` preloaded results, every key equally often, in
/// shuffled order.
pub fn access_order(rng: &mut Rng, keys: usize, m: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..m).map(|i| i % keys).collect();
    rng.shuffle(&mut order);
    order
}

/// The solver workloads' seeded input: the inflow excitation level, within
/// ±20 % of the paper's 1.5e-2. It touches the inflow column only, so the
/// work per step does not depend on it.
pub fn excitation_level(seed: u64) -> f64 {
    1.5e-2 * (0.8 + 0.4 * Rng::new(seed, 0).unit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn same_seed_same_jobs_and_order() {
        let draw = |seed| {
            let mut rng = Rng::new(seed, 3);
            (distinct_jobs(&mut rng, 300), access_order(&mut rng, 256, 2000))
        };
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
        assert_ne!(Rng::new(11, 0).next_u64(), Rng::new(11, 1).next_u64(), "reps draw from their own stream");
    }

    #[test]
    fn cold_jobs_have_distinct_keys() {
        let jobs = distinct_jobs(&mut Rng::new(5, 0), 1000);
        let keys: BTreeSet<u64> =
            jobs.iter().map(|d| d.to_spec().expect("generated jobs validate").canonical_key()).collect();
        assert_eq!(keys.len(), 1000);
        assert!(jobs.iter().all(|d| NX.contains(&d.nx) && NR.contains(&d.nr) && STEPS.contains(&d.steps)));
        assert!(jobs.iter().any(|d| d.regime == "euler") && jobs.iter().any(|d| d.regime == "navier-stokes"));
    }

    #[test]
    fn every_key_is_accessed_equally_often() {
        let order = access_order(&mut Rng::new(9, 0), 256, 2560);
        let mut count = [0usize; 256];
        order.iter().for_each(|&k| count[k] += 1);
        assert!(count.iter().all(|&c| c == 10));
        assert_ne!(order[..256], (0..256).collect::<Vec<_>>()[..], "order is shuffled");
    }

    #[test]
    fn excitation_stays_near_the_paper_level() {
        for seed in 0..50 {
            let e = excitation_level(seed);
            assert!((1.2e-2..1.8e-2).contains(&e), "{e}");
        }
        assert_eq!(excitation_level(4), excitation_level(4));
    }
}
