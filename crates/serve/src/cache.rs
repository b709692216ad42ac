//! Content-addressed, single-flight result cache with a byte-budget LRU
//! and optional on-disk spill.
//!
//! Keys are [`crate::job::JobSpec::canonical_key`] hashes; values are the
//! cold run's serialized `RunSummary` payload plus its field fingerprint.
//! A hit replays the cold payload byte-for-byte (the stored `Arc` is
//! shared, not re-serialized). The cache is *single-flight*: the first
//! claimant of a key becomes its owner and computes; concurrent claimants
//! of the same key block until the owner fills (or abandons) the slot, so
//! a duplicated sweep cell is computed exactly once even when both copies
//! are dequeued simultaneously.
//!
//! Residency is bounded: ready entries are charged their payload bytes
//! against a budget, and filling past it evicts the least-recently-used
//! entries (the just-touched entry is never the victim, so one oversized
//! result still serves its duplicates). With a [`Spill`] attached, every
//! fill is written through to disk before it becomes visible, and an
//! evicted or restart-lost entry is transparently promoted back from its
//! spill file on the next claim — eviction trades memory for a file read,
//! never for a recompute.

use crate::spill::Spill;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// A cached cold-run result.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CachedRun {
    /// Canonical case name of the cell.
    pub case: String,
    /// The cold run's full `RunSummary` JSON, replayed verbatim on hits.
    pub payload: String,
    /// FNV-1a 64 fingerprint of the final field's interior bit patterns
    /// (the same hash `GOLDEN_verify.json` records).
    pub field_hash: u64,
    /// Golden cross-check verdict: `None` when no golden entry applied,
    /// `Some(true/false)` when the fingerprint was checked.
    pub golden: Option<bool>,
}

fn cost_of(run: &CachedRun) -> usize {
    // map + Arc + bookkeeping overhead per entry, then the owned strings
    64 + run.case.len() + run.payload.len()
}

enum Slot {
    /// An owner is computing this key.
    Pending,
    /// Result resident in memory; `last_used` orders eviction.
    Ready { run: Arc<CachedRun>, last_used: u64, bytes: usize },
}

/// What a [`ResultCache::claim`] got.
pub enum Claim {
    /// Nobody has computed this key: the caller owns it and must
    /// [`ResultCache::fill`] or [`ResultCache::abandon`] it.
    Owner,
    /// Served from cache (counted as a hit; claimants that waited out a
    /// pending owner are additionally counted as coalesced).
    Hit(Arc<CachedRun>),
}

/// Monotonic cache counters, readable at any time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Claims served from a ready slot (includes coalesced waiters and
    /// spill promotions).
    pub hits: u64,
    /// Claims that became owners (cold computes).
    pub misses: u64,
    /// Hits that waited out a concurrent owner instead of finding the
    /// result ready.
    pub coalesced: u64,
    /// Hits promoted back from the on-disk spill (evicted earlier, or
    /// written by a previous daemon incarnation).
    pub spill_hits: u64,
    /// Ready entries evicted to stay inside the byte budget.
    pub evictions: u64,
}

struct Inner {
    slots: HashMap<u64, Slot>,
    resident_bytes: usize,
    clock: u64,
}

/// The cache. All methods are thread-safe.
pub struct ResultCache {
    inner: Mutex<Inner>,
    cv: Condvar,
    budget_bytes: usize,
    spill: Option<Spill>,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    spill_hits: AtomicU64,
    evictions: AtomicU64,
}

impl Default for ResultCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResultCache {
    /// An unbounded in-memory cache.
    pub fn new() -> Self {
        Self::with_budget(usize::MAX)
    }

    /// An in-memory cache that evicts LRU entries past `budget_bytes`.
    pub fn with_budget(budget_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner { slots: HashMap::new(), resident_bytes: 0, clock: 0 }),
            cv: Condvar::new(),
            budget_bytes,
            spill: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            spill_hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A bounded cache with write-through spill: fills persist to `spill`
    /// before publishing, and misses check the spill before claiming
    /// ownership.
    pub fn with_spill(budget_bytes: usize, spill: Spill) -> Self {
        let mut c = Self::with_budget(budget_bytes);
        c.spill = Some(spill);
        c
    }

    /// The configured byte budget (`usize::MAX` when unbounded).
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Bytes currently charged for resident ready entries.
    pub fn resident_bytes(&self) -> usize {
        self.inner.lock().unwrap().resident_bytes
    }

    /// Evict least-recently-used ready entries until the budget holds.
    /// `keep` is never the victim: the entry just touched must stay
    /// resident even if it alone exceeds the budget.
    fn evict_over_budget(&self, inner: &mut Inner, keep: u64) {
        while inner.resident_bytes > self.budget_bytes {
            let victim = inner
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { last_used, .. } if *k != keep => Some((*k, *last_used)),
                    _ => None,
                })
                .min_by_key(|&(_, used)| used)
                .map(|(k, _)| k);
            let Some(k) = victim else { break };
            if let Some(Slot::Ready { bytes, .. }) = inner.slots.remove(&k) {
                inner.resident_bytes -= bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn insert_ready(&self, inner: &mut Inner, key: u64, run: Arc<CachedRun>) {
        let bytes = cost_of(&run);
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(Slot::Ready { bytes: old, .. }) =
            inner.slots.insert(key, Slot::Ready { run, last_used: clock, bytes })
        {
            inner.resident_bytes -= old;
        }
        inner.resident_bytes += bytes;
        self.evict_over_budget(inner, key);
    }

    /// Claim a key: either become its owner or get the (possibly awaited)
    /// result.
    pub fn claim(&self, key: u64) -> Claim {
        let mut inner = self.inner.lock().unwrap();
        let mut waited = false;
        loop {
            inner.clock += 1;
            let clock = inner.clock;
            match inner.slots.get_mut(&key) {
                None => {
                    // not resident — promote from spill before owning
                    if let Some(run) = self.spill.as_ref().and_then(|s| s.load(key)) {
                        self.insert_ready(&mut inner, key, Arc::clone(&run));
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.spill_hits.fetch_add(1, Ordering::Relaxed);
                        if waited {
                            self.coalesced.fetch_add(1, Ordering::Relaxed);
                        }
                        return Claim::Hit(run);
                    }
                    inner.slots.insert(key, Slot::Pending);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Claim::Owner;
                }
                Some(Slot::Ready { run, last_used, .. }) => {
                    *last_used = clock;
                    let run = Arc::clone(run);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    if waited {
                        self.coalesced.fetch_add(1, Ordering::Relaxed);
                    }
                    return Claim::Hit(run);
                }
                Some(Slot::Pending) => {
                    waited = true;
                    inner = self.cv.wait(inner).unwrap();
                }
            }
        }
    }

    /// Non-claiming lookup: the result if it is resident or spilled,
    /// `None` if absent *or currently being computed*. Counts nothing:
    /// the daemon uses it to answer waits and check replayed keys without
    /// ever becoming an accidental owner.
    pub fn peek(&self, key: u64) -> Option<Arc<CachedRun>> {
        self.lookup(key, false)
    }

    /// [`ResultCache::peek`] for a request the result answers in place of
    /// a run (the daemon's durable short-circuit): a found result counts
    /// as a hit, and as a spill hit when promoted from disk.
    pub fn serve(&self, key: u64) -> Option<Arc<CachedRun>> {
        self.lookup(key, true)
    }

    fn lookup(&self, key: u64, count: bool) -> Option<Arc<CachedRun>> {
        let mut inner = self.inner.lock().unwrap();
        inner.clock += 1;
        let clock = inner.clock;
        let (run, spilled) = match inner.slots.get_mut(&key) {
            Some(Slot::Ready { run, last_used, .. }) => {
                *last_used = clock;
                (Arc::clone(run), false)
            }
            Some(Slot::Pending) => return None,
            None => {
                let run = self.spill.as_ref().and_then(|s| s.load(key))?;
                self.insert_ready(&mut inner, key, Arc::clone(&run));
                (run, true)
            }
        };
        if count {
            self.hits.fetch_add(1, Ordering::Relaxed);
            if spilled {
                self.spill_hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        Some(run)
    }

    /// Publish the owner's result and wake coalesced waiters. With a
    /// spill attached the result is persisted *before* it becomes visible;
    /// a spill write failure is not fatal (the entry stays resident and
    /// correct, it just won't survive a restart — degradation is
    /// recompute-later, never wrong bytes).
    pub fn fill(&self, key: u64, run: CachedRun) -> Arc<CachedRun> {
        if let Some(spill) = &self.spill {
            let _ = spill.store(key, &run);
        }
        let run = Arc::new(run);
        let mut inner = self.inner.lock().unwrap();
        self.insert_ready(&mut inner, key, Arc::clone(&run));
        drop(inner);
        self.cv.notify_all();
        run
    }

    /// Give up ownership without a result (failed or aborted run): the slot
    /// is cleared so a waiter (or a retry) can become the next owner.
    pub fn abandon(&self, key: u64) {
        let mut inner = self.inner.lock().unwrap();
        if matches!(inner.slots.get(&key), Some(Slot::Pending)) {
            inner.slots.remove(&key);
        }
        drop(inner);
        self.cv.notify_all();
    }

    /// Ready entries currently resident in memory.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().slots.values().filter(|s| matches!(s, Slot::Ready { .. })).count()
    }

    /// True when no ready entry is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            spill_hits: self.spill_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(case: &str) -> CachedRun {
        CachedRun { case: case.into(), payload: format!("{{\"case\":\"{case}\"}}"), field_hash: 7, golden: None }
    }

    fn sized(case: &str, payload_len: usize) -> CachedRun {
        CachedRun { case: case.into(), payload: "x".repeat(payload_len), field_hash: 7, golden: None }
    }

    #[test]
    fn owner_then_hit_shares_the_same_allocation() {
        let c = ResultCache::new();
        assert!(matches!(c.claim(1), Claim::Owner));
        let stored = c.fill(1, run("a"));
        match c.claim(1) {
            Claim::Hit(got) => assert!(Arc::ptr_eq(&got, &stored), "hits replay the stored payload, not a copy"),
            Claim::Owner => panic!("second claim must hit"),
        }
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, ..CacheStats::default() });
    }

    #[test]
    fn concurrent_duplicate_claims_coalesce() {
        let c = Arc::new(ResultCache::new());
        assert!(matches!(c.claim(9), Claim::Owner));
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || match c.claim(9) {
                Claim::Hit(r) => r.case.clone(),
                Claim::Owner => panic!("waiter must not become owner"),
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.fill(9, run("dup"));
        assert_eq!(waiter.join().unwrap(), "dup");
        assert_eq!(c.stats(), CacheStats { hits: 1, misses: 1, coalesced: 1, ..CacheStats::default() });
    }

    #[test]
    fn abandon_lets_a_waiter_take_over() {
        let c = Arc::new(ResultCache::new());
        assert!(matches!(c.claim(5), Claim::Owner));
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || matches!(c.claim(5), Claim::Owner))
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        c.abandon(5);
        assert!(waiter.join().unwrap(), "after abandon the waiter owns the key");
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        // each entry costs 64 + case + payload; budget fits two of these
        let entry_cost = cost_of(&sized("c1", 200));
        let c = ResultCache::with_budget(entry_cost * 2);
        for key in 1..=2u64 {
            assert!(matches!(c.claim(key), Claim::Owner));
            c.fill(key, sized(&format!("c{key}"), 200));
        }
        assert_eq!(c.len(), 2);
        // touch key 1 so key 2 becomes the LRU victim
        assert!(matches!(c.claim(1), Claim::Hit(_)));
        assert!(matches!(c.claim(3), Claim::Owner));
        c.fill(3, sized("c3", 200));
        assert_eq!(c.len(), 2, "third fill must evict exactly one entry");
        assert_eq!(c.stats().evictions, 1);
        assert!(matches!(c.claim(1), Claim::Hit(_)), "recently-touched entry survives");
        assert!(matches!(c.claim(3), Claim::Hit(_)), "just-filled entry survives");
        assert!(matches!(c.claim(2), Claim::Owner), "LRU entry was evicted (no spill: recompute)");
        assert!(c.resident_bytes() <= c.budget_bytes());
    }

    #[test]
    fn oversized_entry_stays_resident_alone() {
        let c = ResultCache::with_budget(32); // smaller than any entry
        assert!(matches!(c.claim(1), Claim::Owner));
        c.fill(1, sized("big", 500));
        assert_eq!(c.len(), 1, "the just-filled entry is never its own victim");
        assert!(matches!(c.claim(1), Claim::Hit(_)));
        // the next fill displaces it
        assert!(matches!(c.claim(2), Claim::Owner));
        c.fill(2, sized("big2", 500));
        assert_eq!(c.len(), 1);
        assert!(matches!(c.claim(2), Claim::Hit(_)));
    }

    #[test]
    fn eviction_with_spill_promotes_instead_of_recomputing() {
        let dir = std::env::temp_dir().join(format!("ns-cache-spill-{:x}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spill = Spill::open(&dir, false).unwrap();
        let entry_cost = cost_of(&sized("c1", 200));
        let c = ResultCache::with_spill(entry_cost, spill.clone());
        assert!(matches!(c.claim(1), Claim::Owner));
        c.fill(1, sized("c1", 200));
        assert!(matches!(c.claim(2), Claim::Owner));
        c.fill(2, sized("c2", 200));
        assert_eq!(c.len(), 1, "budget of one entry evicts the first");
        match c.claim(1) {
            Claim::Hit(r) => assert_eq!(r.case, "c1"),
            Claim::Owner => panic!("evicted entry must promote from spill, not recompute"),
        }
        let st = c.stats();
        assert_eq!(st.spill_hits, 1);
        assert_eq!(st.misses, 2, "no recompute after eviction");
        // a fresh cache over the same spill dir sees previous results
        let c2 = ResultCache::with_spill(entry_cost * 10, spill);
        assert!(c2.serve(2).is_some(), "restart serves from spill");
        assert_eq!(c2.stats().spill_hits, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peek_never_claims_and_ignores_pending() {
        let c = ResultCache::new();
        assert!(c.peek(1).is_none());
        assert!(matches!(c.claim(1), Claim::Owner));
        assert!(c.peek(1).is_none(), "pending slot is not a result");
        c.fill(1, run("a"));
        assert_eq!(c.peek(1).unwrap().case, "a");
        assert_eq!(c.stats().misses, 1, "peek never becomes an owner");
        assert_eq!(c.stats().hits, 0, "peek counts no hit");
        assert!(c.serve(1).is_some());
        assert_eq!(c.stats().hits, 1, "serve counts one");
    }
}
