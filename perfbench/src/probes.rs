//! Per-layer probes and the engine-run breakdown shared by workloads.
//!
//! Each probe calls one layer's public functions directly, inside a
//! span, on the workload's own graph, and checks what comes back.

use std::os::unix::fs::FileExt;
use std::time::Instant;

use hus_core::{HusGraph, RunStats, UpdateModel};
use hus_gen::{Csr, EdgeList};
use hus_storage::{Access, StorageDir};

use crate::trace::Tracer;
use crate::{ctx, expect_eq, median, Metrics, Result};

/// Bytes per MB in every `_mb` metric.
pub const MB: f64 = 1e6;

/// Sweeps per timed probe; the median is reported.
const PROBE_REPS: usize = 3;

/// Generate an R-MAT graph and build it, timing both.
pub struct Built {
    /// The opened graph.
    pub graph: HusGraph,
    /// The generated edge list.
    pub edges: EdgeList,
    /// Generation seconds.
    pub gen_s: f64,
    /// Build seconds.
    pub build_s: f64,
}

/// Generate R-MAT(`vertices`, `draws`) from `seed` and build it under
/// `root` with `p` intervals and `codec`.
pub fn generate_and_build(
    tracer: &Tracer,
    root: &std::path::Path,
    vertices: u32,
    draws: usize,
    seed: u64,
    p: u32,
    codec: hus_codec::Codec,
) -> Result<Built> {
    let (edges, gen) =
        tracer.span("gen.rmat", || hus_gen::rmat(vertices, draws, seed, Default::default()));
    let (graph, build) = tracer.span("builder.build", || {
        let dir = StorageDir::create(root)?;
        HusGraph::build_into(&edges, &dir, &hus_core::BuildConfig::with_p_codec(p, codec))
    });
    let graph = ctx(graph, "build the graph")?;
    Ok(Built { graph, edges, gen_s: gen.as_secs_f64(), build_s: build.as_secs_f64() })
}

/// Fill `gen.s`, `builder.s` and `builder.bytes_per_edge`.
pub fn setup_layers(m: &mut Metrics, built: &Built) -> Result<()> {
    m.set("gen.s", built.gen_s);
    m.set("builder.s", built.build_s);
    let bytes = ctx(built.graph.dir().disk_footprint(), "measure the graph directory")?;
    m.set("builder.bytes_per_edge", bytes as f64 / built.graph.num_edges().max(1) as f64);
    Ok(())
}

/// Time a full P×P `stream_in_block` sweep (ms, median of sweeps).
pub fn stream_sweep_ms(tracer: &Tracer, g: &HusGraph) -> Result<f64> {
    let p = g.p();
    let mut sweeps = Vec::new();
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        let mut records = 0u64;
        for i in 0..p {
            for j in 0..p {
                let (b, _) = tracer.span("storage.stream_in_block", || g.stream_in_block(i, j));
                records += ctx(b, "stream an in-block")?.len() as u64;
            }
        }
        sweeps.push(t0.elapsed().as_secs_f64() * 1e3);
        expect_eq(records == g.num_edges(), || {
            format!("stream sweep read {records} records, graph has {}", g.num_edges())
        })?;
    }
    Ok(median(&sweeps))
}

/// Time `load_out_record_ranges` for every out-block range of the
/// sampled vertices (µs per call, median), checking each fetched
/// neighbor list against `csr`.
pub fn range_read_us(tracer: &Tracer, g: &HusGraph, csr: &Csr, sample: &[u32]) -> Result<f64> {
    let meta = g.meta();
    let p = g.p();
    let mut calls = Vec::new();
    for &v in sample {
        let i = meta.interval_starts.partition_point(|&s| s <= v) - 1;
        let local = (v - meta.interval_start(i)) as usize;
        let mut got = Vec::new();
        for j in 0..p {
            let idx = ctx(g.load_out_index(i, j, Access::Random), "load an out-index")?;
            let (lo, hi) = (idx[local], idx[local + 1]);
            if lo == hi {
                continue;
            }
            let (recs, d) = tracer.span("storage.load_out_record_ranges", || {
                g.load_out_record_ranges(i, j, &[(lo, hi)])
            });
            calls.push(d.as_secs_f64() * 1e6);
            for r in ctx(recs, "load an out-edge range")? {
                got.extend((0..r.len()).map(|k| r.neighbor(k)));
            }
        }
        got.sort_unstable();
        let mut want = csr.out_neighbors(v).to_vec();
        want.sort_unstable();
        expect_eq(got == want, || format!("out-edges of vertex {v} differ from the edge list"))?;
    }
    Ok(median(&calls))
}

/// Read every block's encoded bytes, then time decoding them all (ms,
/// median of passes). Checks each decoded in-block against
/// `stream_in_block`.
pub fn decode_ms(tracer: &Tracer, g: &HusGraph) -> Result<f64> {
    let meta = g.meta();
    let codec = g.codec();
    let rb = meta.edge_record_bytes() as usize;
    let p = g.p();
    let mut blocks = Vec::new();
    for shard in 0..p {
        let name = hus_core::GraphMeta::in_edges_file(shard);
        let file = ctx(std::fs::File::open(g.dir().path(&name)), "open an in-shard")?;
        for i in 0..p {
            let b = meta.in_block(i, shard);
            let mut enc = vec![0u8; b.encoded_bytes as usize];
            ctx(file.read_exact_at(&mut enc, b.encoded_offset), "read an encoded block")?;
            blocks.push((i, shard, enc, b.edge_count as usize));
        }
    }
    let mut passes = Vec::new();
    let mut decoded: Vec<Vec<u8>> = Vec::new();
    for _ in 0..PROBE_REPS {
        decoded = blocks.iter().map(|(_, _, _, n)| vec![0u8; n * rb]).collect();
        let t0 = Instant::now();
        for ((_, _, enc, _), out) in blocks.iter().zip(decoded.iter_mut()) {
            let (r, _) = tracer.span("codec.decode", || codec.decode(enc, rb, out));
            ctx(r, "decode a block")?;
        }
        passes.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    for ((i, j, _, n), out) in blocks.iter().zip(&decoded) {
        let recs = ctx(g.stream_in_block(*i, *j), "stream an in-block")?;
        let same = recs.len() == *n
            && (0..*n).all(|k| {
                recs.neighbor(k) == u32::from_le_bytes(out[k * rb..k * rb + 4].try_into().unwrap())
            });
        expect_eq(same, || format!("decoded in-block ({i}, {j}) differs from the streamed block"))?;
    }
    Ok(median(&passes))
}

/// Time `VertexStore::create`, a `load_current` pass and a `write_next`
/// pass over every interval (ms each, median of passes), checking the
/// values read back.
pub fn vertex_store_ms(tracer: &Tracer, g: &HusGraph) -> Result<(f64, f64, f64)> {
    let starts = g.meta().interval_starts.clone();
    let root = g.dir().root().join("perfbench_vertex_probe");
    let (mut create, mut load, mut write) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let dir = ctx(StorageDir::create(&root), "create the vertex-store probe directory")?;
        let (store, d) = tracer.span("vertex_store.create", || {
            hus_core::vertex_store::VertexStore::<f32>::create(&dir, "probe", &starts, |v| v as f32)
        });
        let store = ctx(store, "create a vertex store")?;
        create.push(d.as_secs_f64() * 1e3);
        let (mut l, mut w) = (0.0, 0.0);
        for i in 0..store.num_intervals() {
            let (vals, d) = tracer
                .span("vertex_store.load_current", || store.load_current(i, Access::Sequential));
            let vals = ctx(vals, "load vertex values")?;
            l += d.as_secs_f64() * 1e3;
            let start = store.interval_start(i);
            expect_eq(
                vals.iter().enumerate().all(|(k, &x)| x == (start + k as u32) as f32),
                || format!("vertex store interval {i} read back wrong values"),
            )?;
            let (r, d) = tracer.span("vertex_store.write_next", || store.write_next(i, &vals));
            ctx(r, "write vertex values")?;
            w += d.as_secs_f64() * 1e3;
        }
        load.push(l);
        write.push(w);
        drop(store);
        let _ = std::fs::remove_dir_all(&root);
    }
    Ok((median(&create), median(&load), median(&write)))
}

/// Fill the storage, predictor, ROP and COP metrics from hybrid runs.
pub fn engine_layers(m: &mut Metrics, runs: &[RunStats]) {
    let q = runs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&RunStats) -> f64| runs.iter().map(f).sum::<f64>();
    m.set("storage.seq_read_mb", sum(&|r| r.total_io.seq_read_bytes as f64) / MB / q);
    m.set("storage.rand_read_mb", sum(&|r| r.total_io.rand_read_bytes as f64) / MB / q);
    m.set("storage.batched_read_mb", sum(&|r| r.total_io.batched_read_bytes as f64) / MB / q);
    m.set("storage.write_mb", sum(&|r| r.total_io.write_bytes as f64) / MB / q);
    let iters = || runs.iter().flat_map(|r| r.iterations.iter());
    let rop: Vec<_> = iters().filter(|it| it.model == UpdateModel::Rop).collect();
    let cop: Vec<_> = iters().filter(|it| it.model == UpdateModel::Cop).collect();
    m.set("predict.rop_iters", rop.len() as f64 / q);
    m.set("predict.cop_iters", cop.len() as f64 / q);
    m.set("predict.gated_iters", iters().filter(|it| it.gated).count() as f64 / q);
    m.set("rop.ms_per_query", rop.iter().map(|it| it.wall_seconds).sum::<f64>() * 1e3 / q);
    let rop_bytes: u64 = rop.iter().map(|it| it.io.read_bytes()).sum();
    let rop_edges: u64 = rop.iter().map(|it| it.active_edges).sum();
    m.set("rop.read_bytes_per_active_edge", rop_bytes as f64 / rop_edges.max(1) as f64);
    let cop_ms = cop.iter().map(|it| it.wall_seconds).sum::<f64>() * 1e3;
    m.set("cop.ms_per_iter", cop_ms / cop.len().max(1) as f64);
}

/// Fill `predict.regret` and `predict.wrong_iters` from one query run
/// three ways (hybrid, forced ROP, forced COP).
pub fn predictor_audit(hybrid: &RunStats, rop: &RunStats, cop: &RunStats) -> (f64, u64) {
    let regret = hybrid.wall_seconds / rop.wall_seconds.min(cop.wall_seconds).max(1e-9);
    let wrong = hybrid
        .iterations
        .iter()
        .enumerate()
        .filter(|(k, it)| {
            let other = if it.model == UpdateModel::Rop { cop } else { rop };
            other.iterations.get(*k).is_some_and(|o| o.wall_seconds < it.wall_seconds)
        })
        .count() as u64;
    (regret, wrong)
}
