//! Property-based tests of the spill decoder: `Spill::load` on a file of
//! arbitrary bytes, or on a correctly sealed frame under the right key
//! whose body is arbitrary bytes or a cached run's JSON cut short, returns
//! `None` or a valid `CachedRun`, and never panics. A spill file outlives
//! the process that wrote it, so a torn, corrupted or foreign file must
//! cost a recompute, not the daemon.

use ns_runtime::pack::frame_checksum;
use ns_serve::{CachedRun, Spill};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(0);

/// A fresh spill directory (removed by `done`).
fn spill() -> Spill {
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("ns-spill-props-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Spill::open(dir, false).unwrap()
}

fn done(spill: Spill) {
    std::fs::remove_dir_all(spill.dir()).unwrap();
}

/// Where `Spill` keeps `key`'s result.
fn path(spill: &Spill, key: u64) -> PathBuf {
    spill.dir().join(format!("{key:016x}.res"))
}

/// `body` sealed the way `Spill::store` seals a result under `key`.
fn sealed(key: u64, body: &[u8]) -> Vec<u8> {
    let mut framed = body.to_vec();
    framed.extend_from_slice(&key.to_le_bytes());
    framed.extend_from_slice(&0u64.to_le_bytes());
    framed.extend_from_slice(&frame_checksum(key, 0, body).to_le_bytes());
    framed
}

fn run(n: u64) -> CachedRun {
    CachedRun {
        case: format!("euler/V5/shared/p{}/commV5/nx48x16/s{}", 1 + n % 4, 1 + n % 9),
        payload: format!("{{\"case\": \"c{n}\", \"wall_seconds\": {}}}", (n % 1000) as f64 / 8.0),
        field_hash: n.rotate_left(13),
        golden: [None, Some(true), Some(false)][(n % 3) as usize],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The frame the store writes loads back as the run it sealed: the
    /// properties below start from files that are valid.
    #[test]
    fn stored_runs_load_back(n in 0u64..u64::MAX, key in 0u64..u64::MAX) {
        let spill = spill();
        spill.store(key, &run(n)).unwrap();
        let body = serde_json::to_string(&run(n)).unwrap();
        prop_assert_eq!(std::fs::read(path(&spill, key)).unwrap(), sealed(key, body.as_bytes()));
        prop_assert_eq!(spill.load(key).as_deref(), Some(&run(n)));
        done(spill);
    }

    /// A file of arbitrary bytes under a key is a miss, never a panic.
    #[test]
    fn arbitrary_files_are_misses(bytes in prop::collection::vec(0u8..=255, 0..128), key in 0u64..u64::MAX) {
        let spill = spill();
        std::fs::write(path(&spill, key), &bytes).unwrap();
        prop_assert!(spill.load(key).is_none());
        done(spill);
    }

    /// A frame the checksum vouches for, under the right key, whose body is
    /// arbitrary bytes or a run's JSON cut short anywhere, reaches the JSON
    /// decoder: the load is a miss or a run that re-encodes to that body,
    /// and a cut body is never the original run.
    #[test]
    fn sealed_garbage_is_a_miss_or_a_valid_run(
        bytes in prop::collection::vec(0u8..=255, 0..128),
        n in 0u64..u64::MAX,
        cut in 0.0f64..1.0,
        key in 0u64..u64::MAX,
    ) {
        let spill = spill();
        let json = serde_json::to_string(&run(n)).unwrap().into_bytes();
        let short = &json[..((json.len() - 1) as f64 * cut) as usize];
        for body in [&bytes[..], short] {
            std::fs::write(path(&spill, key), sealed(key, body)).unwrap();
            if let Some(loaded) = spill.load(key) {
                let again = serde_json::to_string(&*loaded).unwrap();
                let reread: CachedRun = serde_json::from_str(&again).unwrap();
                prop_assert_eq!(&reread, &*loaded, "a loaded run survives its own round trip");
                prop_assert!(body != short || *loaded != run(n), "a cut body loaded as the whole run");
            }
        }
        done(spill);
    }
}
