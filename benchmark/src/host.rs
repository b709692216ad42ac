//! What the host gives the run: cores, cache, sustainable memory bandwidth
//! and the cost of reading the clock. Recorded beside the layer numbers so
//! "as fast as it should be" has a denominator.

use std::hint::black_box;
use std::time::Instant;

/// Logical cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Size of the largest cache `cpu0` reports, in bytes (0 when sysfs does
/// not say).
pub fn llc_bytes() -> u64 {
    let parse = |text: &str| -> Option<u64> {
        let t = text.trim();
        let (digits, unit) = t.split_at(t.find(|c: char| !c.is_ascii_digit()).unwrap_or(t.len()));
        let scale = match unit {
            "" => 1,
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => return None,
        };
        digits.parse::<u64>().ok().map(|n| n * scale)
    };
    let Ok(dir) = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache") else { return 0 };
    dir.filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("size")).ok())
        .filter_map(|s| parse(&s))
        .max()
        .unwrap_or(0)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0);
    kb / 1024.0
}

/// Nanoseconds per `Instant::now()`, over a million back-to-back reads.
pub fn timer_ns() -> f64 {
    const READS: u32 = 1_000_000;
    let start = Instant::now();
    let mut last = start;
    for _ in 0..READS {
        last = black_box(Instant::now());
    }
    (last - start).as_nanos() as f64 / f64::from(READS)
}

/// STREAM-style triad `a = b + s * c`, best of several passes.
pub struct Triad {
    /// Bytes per array.
    pub array_bytes: u64,
    /// 24 bytes per element over the best pass (write-allocate traffic not
    /// counted, as STREAM does not count it).
    pub gbs: f64,
}

/// Measure the triad with each array at least four times the last-level
/// cache, so the passes stream from memory.
pub fn triad(llc: u64) -> Triad {
    // an unknown LLC is assumed to be 32 MiB
    let array_bytes = 4 * if llc == 0 { 32 << 20 } else { llc };
    let n = (array_bytes / 8) as usize;
    let (b, c) = (vec![1.0f64; n], vec![2.0f64; n]);
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..4 {
        let t0 = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + s * *c;
        }
        black_box(&mut a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    Triad { array_bytes, gbs: 24.0 * n as f64 / best * 1e-9 }
}
