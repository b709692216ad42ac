//! Microbenchmarks of the message-passing runtime: pack/unpack, endpoint
//! round trips, halo exchanges and collectives — the software costs the
//! paper blames for NOW overheads, measured on the real implementation.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use ns_bench::{GroupItem, MedianBench};
use ns_metrics::{EventKind, Recorder, Registry};
use ns_runtime::collectives;
use ns_runtime::comm::{universe, MsgKind, Tag};
use ns_runtime::pack::{BufPool, PackBuf, UnpackBuf};

fn bench_pack(c: &mut Criterion) {
    let mut g = c.benchmark_group("pack_unpack");
    for n in [100usize, 800, 6400] {
        let data = vec![1.25f64; n];
        g.throughput(Throughput::Bytes((n * 8) as u64));
        g.bench_with_input(BenchmarkId::new("pack_f64", n), &n, |b, _| {
            b.iter(|| {
                let mut p = PackBuf::with_capacity_f64(n);
                p.pack_f64_slice(&data);
                std::hint::black_box(p.freeze())
            })
        });
        g.bench_with_input(BenchmarkId::new("roundtrip", n), &n, |b, _| {
            b.iter(|| {
                let mut p = PackBuf::with_capacity_f64(n);
                p.pack_f64_slice(&data);
                let mut u = UnpackBuf::new(p.freeze());
                let mut out = vec![0.0f64; n];
                u.unpack_f64_slice(&mut out).unwrap();
                std::hint::black_box(out)
            })
        });
    }
    g.finish();
}

fn bench_ping_pong(c: &mut Criterion) {
    let mut g = c.benchmark_group("endpoint");
    g.sample_size(30);
    g.bench_function("same_thread_send_recv_800B", |b| {
        let mut eps = universe(2);
        let mut b1 = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut seq = 0u64;
        b.iter(|| {
            let mut p = PackBuf::with_capacity_f64(100);
            p.pack_f64_slice(&[0.5; 100]);
            let tag = Tag { kind: MsgKind::Flux1, seq };
            a.send(1, tag, p).unwrap();
            let got = b1.recv(0, tag).unwrap();
            seq += 1;
            std::hint::black_box(got)
        })
    });
    g.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut g = c.benchmark_group("collectives");
    g.sample_size(20);
    g.bench_function("allreduce_max_4ranks", |b| {
        b.iter(|| {
            let eps = universe(4);
            std::thread::scope(|s| {
                let hs: Vec<_> = eps
                    .into_iter()
                    .map(|mut ep| {
                        s.spawn(move || {
                            let mine = ep.rank() as f64;
                            collectives::allreduce_max(&mut ep, mine, 0).unwrap()
                        })
                    })
                    .collect();
                for h in hs {
                    std::hint::black_box(h.join().unwrap());
                }
            })
        })
    });
    g.finish();
}

/// Machine-readable runtime microbenchmarks for `BENCH_kernels.json`:
/// pack/roundtrip cost per payload size, the pooled-vs-fresh buffer
/// comparison behind the zero-allocation halo path, a same-thread message
/// round trip, and the two cross-thread round trips of [`json_two_ranks`].
fn json_runtime() {
    let mut h = MedianBench::from_env();
    for n in [100usize, 800, 6400] {
        let data = vec![1.25f64; n];
        h.measure("pack_f64", &n.to_string(), None, || {
            let mut p = PackBuf::with_capacity_f64(n);
            p.pack_f64_slice(&data);
            std::hint::black_box(p.freeze());
        });
        // Fresh allocation per message (the pre-pool hot path) ...
        h.measure("pack_roundtrip_fresh", &n.to_string(), None, || {
            let mut p = PackBuf::with_capacity_f64(n);
            p.pack_f64_slice(&data);
            let mut u = UnpackBuf::new(p.freeze());
            let mut out = vec![0.0f64; n];
            u.unpack_f64_slice(&mut out).unwrap();
            std::hint::black_box(&out);
        });
        // ... versus the recycling pool, steady state: acquire reuses the
        // buffer the previous iteration recycled, so no allocation.
        let mut pool = BufPool::default();
        let mut out = vec![0.0f64; n];
        h.measure("pack_roundtrip_pooled", &n.to_string(), None, || {
            let mut p = pool.acquire_f64(n);
            p.pack_f64_slice(&data);
            let mut u = UnpackBuf::new(p.freeze());
            u.unpack_f64_slice(&mut out).unwrap();
            pool.recycle(u.finish().unwrap());
            std::hint::black_box(&out);
        });
    }
    {
        let mut eps = universe(2);
        let mut b1 = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let mut seq = 0u64;
        h.measure("endpoint_ping", "800B", None, || {
            let mut p = PackBuf::with_capacity_f64(100);
            p.pack_f64_slice(&[0.5; 100]);
            let tag = Tag { kind: MsgKind::Flux1, seq };
            a.send(1, tag, p).unwrap();
            std::hint::black_box(b1.recv(0, tag).unwrap());
            seq += 1;
        });
    }
    json_two_ranks(&mut h);
    json_metrics_overhead(&mut h);
    h.write_merged(&ns_bench::output_path()).expect("write BENCH_kernels.json");
}

/// Round trips between two rank *threads*: unlike the same-thread
/// `endpoint_ping` (message already queued when the receive starts), every
/// iteration here waits on a peer that is itself waiting, so the point moves
/// with the receive's wake-up latency — about 3 us polled, about 45 us if a
/// receive always parked. The peer echoes until it is handed an empty
/// payload, then joins all-reduces until one comes back infinite.
fn json_two_ranks(h: &mut MedianBench) {
    let mut eps = universe(2);
    let mut peer = eps.pop().unwrap();
    let mut me = eps.pop().unwrap();
    let ping = |seq| Tag { kind: MsgKind::Flux1, seq };
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut seq = 0u64;
            while !peer.recv(0, ping(seq)).unwrap().is_empty() {
                let mut p = PackBuf::with_capacity_f64(100);
                p.pack_f64_slice(&[0.5; 100]);
                peer.send(0, ping(seq), p).unwrap();
                seq += 1;
            }
            let mut epoch = 0u64;
            while collectives::allreduce_max(&mut peer, 1.0, epoch).unwrap().is_finite() {
                epoch += 1;
            }
        });
        let mut seq = 0u64;
        h.measure("endpoint_ping_xthread", "800B", None, || {
            let mut p = PackBuf::with_capacity_f64(100);
            p.pack_f64_slice(&[0.5; 100]);
            me.send(1, ping(seq), p).unwrap();
            std::hint::black_box(me.recv(1, ping(seq)).unwrap());
            seq += 1;
        });
        me.send(1, ping(seq), PackBuf::new()).unwrap();
        let mut epoch = 0u64;
        h.measure("collectives", "allreduce_max_2ranks", None, || {
            std::hint::black_box(collectives::allreduce_max(&mut me, 2.0, epoch).unwrap());
            epoch += 1;
        });
        collectives::allreduce_max(&mut me, f64::INFINITY, epoch).unwrap();
    });
}

/// The cost of the always-on observability layer, measured as a paired
/// experiment (ISSUE 6 acceptance): the same synthetic hot loop with and
/// without each metric operation inlined, interleaved so CPU drift lands on
/// both sides equally. The committed deltas document what the default
/// (no opt-out) instrumentation costs per event.
fn json_metrics_overhead(h: &mut MedianBench) {
    let work = |acc: &mut f64| {
        for k in 0..32 {
            *acc += f64::from(k) * 1.000001;
        }
        std::hint::black_box(*acc);
    };
    let counter = Registry::global().counter("bench_overhead_counter");
    let histogram = Registry::global().histogram("bench_overhead_histogram");
    // a comm event is recorded from the start instant its call already
    // holds, so the per-event cost is the recorder's one clock read + push
    let start = std::time::Instant::now();
    let mut recorder = Recorder::new(0, start);
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut k = 0u64;
    let mut items = [
        GroupItem { id: "hot_loop_bare".to_string(), flops: None, f: Box::new(|| work(&mut a0)) },
        GroupItem {
            id: "hot_loop_counter".to_string(),
            flops: None,
            f: Box::new(|| {
                work(&mut a1);
                counter.inc();
            }),
        },
        GroupItem {
            id: "hot_loop_histogram".to_string(),
            flops: None,
            f: Box::new(|| {
                work(&mut a2);
                k += 1;
                histogram.record(k & 0xffff);
            }),
        },
        GroupItem {
            id: "hot_loop_flight".to_string(),
            flops: None,
            f: Box::new(|| {
                work(&mut a3);
                recorder.record(EventKind::Send, "Flux1", start, Some(1), Some(7), Some(9), 800);
            }),
        },
    ];
    h.measure_interleaved("metrics_overhead", &mut items);
}

criterion_group!(benches, bench_pack, bench_ping_pong, bench_collectives);

fn main() {
    benches();
    json_runtime();
}
