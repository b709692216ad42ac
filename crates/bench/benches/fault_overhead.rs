//! Overhead of the reliability layer when nothing goes wrong: the seed's
//! raw endpoint path versus the framed (seq + checksum, NACK-capable) path
//! with no fault injector attached. The framed numbers bound what a
//! production run pays for the ability to survive a lossy network, which
//! `BENCH_faults.json` records as the committed datapoint: the two
//! checksum passes of a frame, about 0.3 µs per 100 doubles. That was
//! within 1.4x of a raw ping while packing cost 7 ns a double; against
//! the bulk-copy pack it is most of a framed ping (1.8x at 100 doubles),
//! with both sides cheaper than before.
//!
//! The two paths are measured interleaved (see
//! [`MedianBench::measure_interleaved`]) so frequency drift cannot fake or
//! hide a delta.

use ns_bench::{GroupItem, MedianBench};
use ns_runtime::comm::{universe, universe_reliable, Endpoint, MsgKind, ReliableConfig, Tag};
use ns_runtime::pack::PackBuf;

/// One same-thread send+recv round trip of `n` doubles on a 2-rank pair.
fn ping(a: &mut Endpoint, b: &mut Endpoint, data: &[f64], seq: &mut u64) {
    let mut p = PackBuf::with_capacity_f64(data.len());
    p.pack_f64_slice(data);
    let tag = Tag { kind: MsgKind::Flux1, seq: *seq };
    a.send(1, tag, p).unwrap();
    std::hint::black_box(b.recv(0, tag).unwrap());
    *seq += 1;
}

fn main() {
    let mut h = MedianBench::from_env();
    // 100 doubles is the paper-grid halo column scale; 6400 is a whole-face
    // gather — the framing cost should vanish into the memcpy by then.
    for n in [100usize, 6400] {
        let data = vec![0.5f64; n];

        let mut raw = universe(2);
        let mut raw_b = raw.pop().unwrap();
        let mut raw_a = raw.pop().unwrap();
        let mut raw_seq = 0u64;

        let mut rel = universe_reliable(2, ReliableConfig::default(), None);
        let mut rel_b = rel.pop().unwrap();
        let mut rel_a = rel.pop().unwrap();
        let mut rel_seq = 0u64;

        let d1 = &data;
        let d2 = &data;
        h.measure_interleaved(
            &format!("fault_overhead/{n}x8B"),
            &mut [
                GroupItem {
                    id: "raw".to_string(),
                    flops: None,
                    f: Box::new(move || ping(&mut raw_a, &mut raw_b, d1, &mut raw_seq)),
                },
                GroupItem {
                    id: "framed".to_string(),
                    flops: None,
                    f: Box::new(move || ping(&mut rel_a, &mut rel_b, d2, &mut rel_seq)),
                },
            ],
        );
    }
    // default to the repo root (cargo bench runs with the package dir as
    // its working directory)
    let path = std::env::var_os("NS_BENCH_OUT")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json")));
    h.write_merged(&path).expect("write BENCH_faults.json");
}
