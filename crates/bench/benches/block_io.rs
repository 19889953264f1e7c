//! Benchmarks of the on-disk building blocks: dual-block construction,
//! in-block streaming (COP's fetch), selective out-record loads (ROP's
//! fetch), and vertex-store interval transfers.

use criterion::{
    criterion_group, criterion_main, BatchSize, Criterion, Throughput as CrThroughput,
};
use hus_core::vertex_store::VertexStore;
use hus_core::{build, BuildConfig, HusGraph};
use hus_gen::rmat;
use hus_storage::{Access, CachedBackend, ReadBackend, StorageDir};
use std::hint::black_box;

fn graph_dir(vertices: u32, edges: usize, p: u32) -> (tempfile::TempDir, HusGraph) {
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    let el = rmat(vertices, edges, 7, Default::default());
    let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(p)).unwrap();
    (tmp, g)
}

fn bench_builder(c: &mut Criterion) {
    let el = rmat(20_000, 200_000, 3, Default::default());
    let mut g = c.benchmark_group("builder");
    g.throughput(CrThroughput::Elements(el.num_edges() as u64));
    g.sample_size(10);
    g.bench_function("dual_block_200k_edges_p8", |b| {
        b.iter_batched(
            || tempfile::tempdir().unwrap(),
            |tmp| {
                let dir = StorageDir::create(tmp.path().join("g")).unwrap();
                build(&el, &dir, &BuildConfig::with_p(8)).unwrap()
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

fn bench_block_reads(c: &mut Criterion) {
    let (_tmp, g) = graph_dir(20_000, 200_000, 4);
    let mut group = c.benchmark_group("block_reads");

    group.bench_function("stream_in_block", |b| {
        b.iter(|| {
            let recs = g.stream_in_block(0, 0).unwrap();
            black_box(recs.len())
        })
    });

    let index = g.load_out_index(0, 0, Access::Sequential).unwrap();
    // Every 64th vertex of interval 0 with a non-empty range.
    let ranges: Vec<(u32, u32)> = (0..index.len() - 1)
        .step_by(64)
        .map(|v| (index[v], index[v + 1]))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    group.bench_function("selective_out_ranges", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for &(lo, hi) in &ranges {
                total += g.load_out_records(0, 0, lo, hi).unwrap().len();
            }
            black_box(total)
        })
    });

    group.bench_function("coalesced_out_block", |b| {
        b.iter(|| black_box(g.load_out_block_batch(0, 0).unwrap().len()))
    });
    group.finish();
}

fn bench_vertex_store(c: &mut Criterion) {
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("s")).unwrap();
    let starts: Vec<u32> = vec![0, 250_000, 500_000, 750_000, 1_000_000];
    let store: VertexStore<f32> = VertexStore::create(&dir, "v", &starts, |_| 1.0).unwrap();
    let buf = store.load_current(0, Access::Sequential).unwrap();
    let mut g = c.benchmark_group("vertex_store");
    g.throughput(CrThroughput::Bytes(250_000 * 4));
    g.bench_function("load_interval_1mb", |b| {
        b.iter(|| black_box(store.load_current(0, Access::Sequential).unwrap().len()))
    });
    g.bench_function("write_interval_1mb", |b| {
        b.iter(|| store.write_next(0, black_box(&buf)).unwrap())
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("s")).unwrap();
    let mut w = dir.writer("d.bin").unwrap();
    w.write_pod_slice(&(0u64..262_144).collect::<Vec<u64>>()).unwrap(); // 2 MiB
    w.finish().unwrap();

    let mut g = c.benchmark_group("page_cache");
    let plain = dir.reader("d.bin").unwrap();
    let cached = CachedBackend::with_budget(dir.reader("d.bin").unwrap(), 4 << 20);
    // Warm the cache once.
    let mut buf = vec![0u8; 4096];
    for off in (0..2_000_000u64).step_by(4096) {
        cached.read_at(off, &mut buf, Access::Random).unwrap();
    }
    g.bench_function("hit_4k", |b| {
        b.iter(|| cached.read_at(black_box(8192), &mut buf, Access::Random).unwrap())
    });
    g.bench_function("uncached_4k", |b| {
        b.iter(|| plain.read_at(black_box(8192), &mut buf, Access::Random).unwrap())
    });
    g.finish();
}

/// One contended trial: `threads` workers each issue `reads` record-sized
/// (64 B) reads scattered over their own disjoint slice of hot
/// (pre-warmed) pages; returns the wall-clock for all of them to finish.
/// The access shape mirrors selective ROP probes — tiny reads, all cache
/// hits — so the cost is dominated by page lookup, exactly where a single
/// global lock serialises and a sharded cache does not.
fn contended_reads<B: ReadBackend + Send + Sync>(
    cache: &CachedBackend<B>,
    threads: usize,
    pages_per_thread: u64,
    reads: usize,
) -> std::time::Duration {
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        for t in 0..threads as u64 {
            scope.spawn(move || {
                let mut buf = vec![0u8; 64];
                let region = t * pages_per_thread * 4096;
                let span = pages_per_thread * 4096 - 64;
                let mut lcg = t.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                for _ in 0..reads {
                    lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    cache
                        .read_at(region + lcg % span, &mut buf, hus_storage::Access::Random)
                        .unwrap();
                }
                black_box(buf[0]);
            });
        }
    });
    start.elapsed()
}

/// Median wall-clock of 9 fresh contended trials against `cache`.
fn contended_median<B: ReadBackend + Send + Sync>(
    cache: &CachedBackend<B>,
    threads: usize,
    pages_per_thread: u64,
    reads: usize,
) -> u128 {
    let mut ns: Vec<u128> = (0..9)
        .map(|_| contended_reads(cache, threads, pages_per_thread, reads).as_nanos())
        .collect();
    ns.sort_unstable();
    ns[ns.len() / 2]
}

fn bench_contended_cache(c: &mut Criterion) {
    const THREADS: usize = 8;
    const PAGES_PER_THREAD: u64 = 16;
    const READS: usize = 20_000;

    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("s")).unwrap();
    let mut w = dir.writer("d.bin").unwrap();
    w.write_pod_slice(&(0u64..262_144).collect::<Vec<u64>>()).unwrap(); // 2 MiB
    w.finish().unwrap();

    // Auto-sized sharding (1 shard on a 1-core host, up to the cap on
    // big machines) against the old single global lock. Pinning 16
    // shards here used to *regress* low-core hosts — shard overhead with
    // no parallelism to amortise it — which is exactly what auto-sizing
    // fixes, and what the assert below pins down.
    let sharded = CachedBackend::new(dir.reader("d.bin").unwrap(), 4 << 20, 4096);
    let single = CachedBackend::with_shards(dir.reader("d.bin").unwrap(), 4 << 20, 4096, 1);
    // Warm every page both caches will serve so the trials measure pure
    // hit-path lock contention, not disk reads.
    let mut buf = vec![0u8; 4096];
    for off in (0..THREADS as u64 * PAGES_PER_THREAD).map(|p| p * 4096) {
        sharded.read_at(off, &mut buf, Access::Random).unwrap();
        single.read_at(off, &mut buf, Access::Random).unwrap();
    }

    let mut g = c.benchmark_group("page_cache_contended");
    g.sample_size(10);
    g.bench_function("auto_sharded_8thread", |b| {
        b.iter(|| contended_reads(&sharded, THREADS, PAGES_PER_THREAD, READS))
    });
    g.bench_function("single_lock_8thread", |b| {
        b.iter(|| contended_reads(&single, THREADS, PAGES_PER_THREAD, READS))
    });
    g.finish();

    let sharded_ns = contended_median(&sharded, THREADS, PAGES_PER_THREAD, READS);
    let single_ns = contended_median(&single, THREADS, PAGES_PER_THREAD, READS);
    let speedup = single_ns as f64 / sharded_ns as f64;
    println!(
        "page_cache_contended: auto {} shard(s) {sharded_ns} ns vs single-lock {single_ns} ns \
         ({speedup:.2}x)",
        sharded.num_shards(),
    );
    // Regression guard: auto-sizing must never make the sharded cache
    // meaningfully slower than the single lock (on a 1-core host the two
    // configurations are structurally identical; on multi-core hosts
    // sharding should win). 0.85 leaves room for scheduler noise.
    assert!(speedup >= 0.85, "auto-sized sharded cache regressed vs single lock: {speedup:.2}x");
}

/// One measured point of the scaling sweep.
struct SweepPoint {
    threads: usize,
    backend: &'static str,
    codec: &'static str,
    mb_per_s: f64,
    wall_s: f64,
}

/// Wall-clock a forced-COP PageRank run (the COP streaming workload:
/// every in-block of every column is streamed each iteration) and
/// return (seconds, logical bytes moved). Median of `trials` runs.
fn cop_stream_run(graph: &hus_core::HusGraph, threads: usize, trials: usize) -> (f64, u64) {
    use hus_core::{RunConfig, UpdateMode};
    let mut secs: Vec<f64> = Vec::with_capacity(trials);
    let mut bytes = 0u64;
    for _ in 0..trials {
        graph.dir().tracker().reset();
        let cfg = RunConfig {
            mode: UpdateMode::ForceCop,
            threads,
            max_iterations: 3,
            ..Default::default()
        };
        let t0 = std::time::Instant::now();
        let (_, stats) =
            hus_core::Engine::new(graph, &hus_algos::PageRank::new(graph.meta().num_vertices), cfg)
                .run()
                .unwrap();
        secs.push(t0.elapsed().as_secs_f64());
        bytes = stats.total_io.total_bytes();
    }
    secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (secs[secs.len() / 2], bytes)
}

/// The multicore scaling sweep: COP streaming throughput across
/// threads × backend × codec, written to `BENCH_pipeline.json`
/// (schema 3). `host_cores` is recorded honestly;
/// the ≥1.3x parallel-vs-serial-file assertion only applies on hosts
/// that can actually run two workers at once.
fn bench_scaling_sweep(_c: &mut Criterion) {
    use hus_codec::Codec;
    use hus_core::{BuildConfig, HusGraph};
    use hus_storage::BackendKind;

    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let tmp = tempfile::tempdir().unwrap();
    let el = rmat(20_000, 200_000, 7, Default::default());

    let mut points: Vec<SweepPoint> = Vec::new();
    for (codec, codec_name) in [(Codec::Raw, "raw"), (Codec::DeltaVarint, "delta-varint")] {
        let root = tmp.path().join(codec_name);
        let dir = StorageDir::create_with(&root, BackendKind::File).unwrap();
        HusGraph::build_into(&el, &dir, &BuildConfig::with_p_codec(4, codec)).unwrap();
        for (kind, backend_name) in [(BackendKind::File, "file"), (BackendKind::Mmap, "mmap")] {
            let dir = StorageDir::open(&root).unwrap().with_backend(kind);
            let graph = HusGraph::open(dir).unwrap();
            for threads in [1usize, 2, 4, 8] {
                let (wall_s, bytes) = cop_stream_run(&graph, threads, 3);
                points.push(SweepPoint {
                    threads,
                    backend: backend_name,
                    codec: codec_name,
                    mb_per_s: bytes as f64 / 1e6 / wall_s,
                    wall_s,
                });
            }
        }
    }

    let serial_file = points
        .iter()
        .find(|p| p.threads == 1 && p.backend == "file" && p.codec == "raw")
        .map(|p| p.mb_per_s)
        .unwrap();
    let best_parallel = points
        .iter()
        .filter(|p| p.threads >= 2)
        .max_by(|a, b| a.mb_per_s.partial_cmp(&b.mb_per_s).unwrap());
    let best = best_parallel.unwrap();
    let speedup = best.mb_per_s / serial_file;

    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"threads\": {}, \"backend\": \"{}\", \"codec\": \"{}\", \
                 \"mb_per_s\": {:.1}, \"wall_s\": {:.4}}}",
                p.threads, p.backend, p.codec, p.mb_per_s, p.wall_s
            )
        })
        .collect();
    let out = format!(
        "{{\n  {},\n  \"workload\": \"cop_stream_pagerank_3iter_200k_edges_p4\",\n  \
         \"points\": [\n{}\n  ],\n  \
         \"serial_file_mb_per_s\": {:.1},\n  \
         \"best_parallel\": {{\"threads\": {}, \"backend\": \"{}\", \"codec\": \"{}\", \
         \"mb_per_s\": {:.1}}},\n  \"parallel_speedup\": {:.2}\n}}\n",
        hus_bench::bench_json_preamble_v("cop_scaling", hus_bench::BENCH_PIPELINE_SCHEMA),
        rows.join(",\n"),
        serial_file,
        best.threads,
        best.backend,
        best.codec,
        best.mb_per_s,
        speedup,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");
    std::fs::write(path, &out).unwrap();
    println!("wrote {path}:\n{out}");

    // On a host with real parallelism, the pipeline must actually pay
    // off: the best parallel configuration has to beat the serial
    // buffered-file baseline by a clear margin. A single-core host can
    // only timeslice, so the curve there is recorded but not judged.
    if host_cores >= 2 {
        assert!(
            speedup >= 1.3,
            "best parallel config ({} threads, {}, {}) is only {speedup:.2}x over serial \
             FileBackend on a {host_cores}-core host",
            best.threads,
            best.backend,
            best.codec,
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_builder, bench_block_reads, bench_vertex_store, bench_cache,
        bench_contended_cache, bench_scaling_sweep
}
criterion_main!(benches);
