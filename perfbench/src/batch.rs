//! The two batch workloads: repeated whole-graph queries through
//! `Engine::run`, each answer checked against an in-memory reference.
//!
//! * `pagerank_stream` — 5-iteration PageRank on a delta-varint graph.
//!   Every vertex is active, so the α gate forces COP every iteration:
//!   block streaming, decode, pull compute and write-back block the
//!   result; ROP and the predictor's choice are bypassed.
//! * `bfs_frontier` — BFS on a raw graph from seeded sources that each
//!   reach at least a quarter of the vertices. The frontier grows and
//!   shrinks, so the predictor switches between ROP and COP inside one
//!   query; the codec is bypassed.

use std::time::Instant;

use hus_algos::{reference, Bfs, PageRank, UNREACHED};
use hus_codec::Codec;
use hus_core::{Engine, HusGraph, RunConfig, RunStats, UpdateMode};
use hus_gen::Csr;

use crate::probes::{self, Built};
use crate::sys::{CpuTimes, HostTicks, RssSampler};
use crate::trace::Tracer;
use crate::{
    at_zero_steal, ctx, derive_seed, expect_eq, fingerprint, histogram_delta, median, obs_counter,
    obs_histogram, Opts, Report, Result, Size, Workload,
};

/// PageRank iterations per query.
pub const PAGERANK_ITERS: usize = 5;
/// Damping factor of the reference PageRank (`PageRank::new` uses it).
const DAMPING: f32 = 0.85;
/// Largest relative error a PageRank rank may have against the
/// in-memory reference. Float summation order differs between the
/// engine's block-by-block pull and the reference's per-vertex pull.
pub const PAGERANK_REL_TOL: f32 = 1e-3;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Fewest timed rounds a run makes, however short `--seconds` is. A
/// round runs every query of the job once.
const MIN_ROUNDS: usize = 3;
/// BFS sources per run.
const BFS_SOURCES: usize = 8;
/// Untraced/traced query pairs used to measure the tracing overhead.
const OVERHEAD_PAIRS: usize = 3;
/// Vertices sampled by the range-read probe.
const RANGE_SAMPLE: usize = 64;

struct Shape {
    vertices: u32,
    draws: usize,
    p: u32,
    codec: Codec,
}

fn shape(w: Workload, size: Size) -> Shape {
    let codec = if w == Workload::PagerankStream { Codec::DeltaVarint } else { Codec::Raw };
    match size {
        Size::Full => Shape { vertices: 1 << 18, draws: 4_000_000, p: 8, codec },
        Size::Tiny => Shape { vertices: 1 << 12, draws: 40_000, p: 4, codec },
    }
}

/// The queries of one workload with their expected answers.
enum Job {
    PageRank { want: Vec<f32> },
    Bfs { sources: Vec<(u32, Vec<u32>)> },
}

impl Job {
    fn len(&self) -> usize {
        match self {
            Job::PageRank { .. } => 1,
            Job::Bfs { sources } => sources.len(),
        }
    }

    /// Run query `k` and check its answer.
    fn run(
        &self,
        g: &HusGraph,
        k: usize,
        mode: UpdateMode,
        threads: Option<usize>,
    ) -> Result<RunStats> {
        let mut config = RunConfig { mode, ..RunConfig::default() };
        if let Some(t) = threads {
            config.threads = t;
        }
        match self {
            Job::PageRank { want } => {
                config.max_iterations = PAGERANK_ITERS;
                let program = PageRank::new(g.meta().num_vertices);
                let (ranks, stats) = ctx(Engine::new(g, &program, config).run(), "run PageRank")?;
                let bad = ranks.iter().zip(want).position(|(g, w)| {
                    (g - w).abs() > PAGERANK_REL_TOL * w.abs().max(1e-6) || g.is_nan()
                });
                expect_eq(ranks.len() == want.len() && bad.is_none(), || {
                    let v = bad.unwrap_or(0);
                    format!(
                        "PageRank rank of vertex {v}: engine {} vs reference {}",
                        ranks[v], want[v]
                    )
                })?;
                Ok(stats)
            }
            Job::Bfs { sources } => {
                let (source, want) = &sources[k % sources.len()];
                let (levels, stats) =
                    ctx(Engine::new(g, &Bfs::new(*source), config).run(), "run BFS")?;
                expect_eq(&levels == want, || {
                    let v = levels.iter().zip(want).position(|(a, b)| a != b).unwrap_or(0);
                    format!(
                        "BFS from {source}: level of vertex {v} is {} (reference {})",
                        levels[v], want[v]
                    )
                })?;
                Ok(stats)
            }
        }
    }
}

/// Seeded BFS sources chosen by the `harness::pick_source` rule: low
/// out-degree vertices whose BFS reaches at least a quarter of the graph.
fn pick_sources(csr: &Csr, seed: u64, count: usize) -> Vec<(u32, Vec<u32>)> {
    let n = csr.num_vertices;
    let mut out = Vec::new();
    let mut x = seed;
    for _ in 0..(count * 64) {
        if out.len() == count {
            break;
        }
        x = hus_gen::types::splitmix64(x);
        let v = (x % u64::from(n)) as u32;
        let deg = csr.out_degree(v);
        if deg == 0 || deg > 4 || out.iter().any(|(s, _)| *s == v) {
            continue;
        }
        let levels = reference::bfs_levels(csr, v);
        if levels.iter().filter(|&&l| l != UNREACHED).count() * 4 >= n as usize {
            out.push((v, levels));
        }
    }
    if out.is_empty() {
        let hub = (0..n).max_by_key(|&v| csr.out_degree(v)).unwrap_or(0);
        out.push((hub, reference::bfs_levels(csr, hub)));
    }
    out
}

/// Run `pagerank_stream` or `bfs_frontier`.
pub fn run(opts: &Opts, work: &std::path::Path) -> Result<Report> {
    let tracer = Tracer::new(opts.trace);
    let mut report = Report::new();
    let sh = shape(opts.workload, opts.size);
    let gen_seed = derive_seed(opts.seed, 1);
    report.note(fingerprint(
        opts,
        sh.codec,
        &[
            ("graph", format!("rmat v={} draws={} p={}", sh.vertices, sh.draws, sh.p)),
            ("gen_seed", gen_seed.to_string()),
        ],
    ));

    // Set-up: generate and build, several times when untraced.
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut built: Option<Built> = None;
    for k in 0..reps {
        if let Some(prev) = built.take() {
            let root = prev.graph.dir().root().to_path_buf();
            drop(prev);
            let _ = std::fs::remove_dir_all(root);
        }
        let b = probes::generate_and_build(
            &tracer,
            &work.join(format!("g{k}")),
            sh.vertices,
            sh.draws,
            gen_seed,
            sh.p,
            sh.codec,
        )?;
        setups.push(b.gen_s + b.build_s);
        built = Some(b);
    }
    let built = built.expect("at least one set-up ran");
    report.end_to_end.set("setup_s", median(&setups));
    probes::setup_layers(&mut report.per_layer, &built)?;
    report.note(format!("setup_s {} s (median of {reps})", median(&setups)));

    // References, computed outside the timed phase.
    let Built { graph: g, edges, .. } = built;
    let csr = Csr::from_edge_list(&edges);
    drop(edges);
    let mut job = match opts.workload {
        Workload::PagerankStream => {
            Job::PageRank { want: reference::pagerank(&csr, DAMPING, PAGERANK_ITERS) }
        }
        _ => Job::Bfs { sources: pick_sources(&csr, derive_seed(opts.seed, 2), BFS_SOURCES) },
    };
    if opts.plant_wrong_truth {
        match &mut job {
            Job::PageRank { want } => want[0] *= 2.0,
            Job::Bfs { sources } => {
                let s = sources[0].0 as usize;
                sources[0].1[s] = 1;
            }
        }
    }
    if let Job::Bfs { sources } = &job {
        let list: Vec<String> = sources.iter().map(|(s, _)| s.to_string()).collect();
        report.note(format!("bfs sources {}", list.join(",")));
    }
    let csr = if opts.trace { Some(csr) } else { None };

    // Warm-up: one pass over every query fills the page cache and runs
    // lazy initialisation.
    let mut attempted = 0u64;
    for k in 0..job.len() {
        job.run(&g, k, UpdateMode::Hybrid, None)?;
        attempted += 1;
    }

    if opts.trace {
        // Tracing overhead: alternate untraced and traced queries.
        let quiet = Tracer::new(false);
        let (mut off, mut on) = (Vec::new(), Vec::new());
        for k in 0..OVERHEAD_PAIRS.max(job.len()) {
            hus_obs::set_enabled(false);
            let (r, d) = quiet.span("engine.run", || job.run(&g, k, UpdateMode::Hybrid, None));
            r?;
            off.push(d.as_secs_f64());
            hus_obs::set_enabled(true);
            let (r, d) =
                tracer.span("engine.run.hybrid", || job.run(&g, k, UpdateMode::Hybrid, None));
            r?;
            on.push(d.as_secs_f64());
            attempted += 2;
        }
        report.per_layer.set("obs.trace_overhead_pct", (median(&on) / median(&off) - 1.0) * 100.0);
    }

    // Timed phase.
    let hits0 = obs_counter("storage.codec.cache_hits");
    let misses0 = obs_counter("storage.codec.cache_misses");
    let wait0 = obs_histogram("cop.queue_wait_ns");
    let rss = RssSampler::start();
    let cpu0 = CpuTimes::now();
    let host0 = HostTicks::now();
    let t0 = Instant::now();
    // Each query's wall time, paired with the host steal over it. The
    // phase ends on a whole round, so every BFS source weighs the same.
    let mut samples = Vec::new();
    let mut runs = Vec::new();
    let round = job.len();
    while samples.len() < MIN_ROUNDS * round
        || t0.elapsed().as_secs_f64() < opts.seconds
        || samples.len() % round != 0
    {
        let k = samples.len();
        let host = HostTicks::now();
        let (stats, d) =
            tracer.span("engine.run.hybrid", || job.run(&g, k, UpdateMode::Hybrid, None));
        runs.push(stats?);
        samples.push((HostTicks::now().steal_pct_since(&host), d.as_secs_f64()));
        attempted += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    let cpu = CpuTimes::now().since(&cpu0);
    let steal = HostTicks::now().steal_pct_since(&host0);
    let peak = rss.finish();
    let (query_s, per_point) = at_zero_steal(&samples);
    let walls: Vec<f64> = samples.iter().map(|s| s.1).collect();
    report.end_to_end.set("query_ms", query_s * 1e3);
    report.end_to_end.set("peak_rss_mb", peak);
    let name = if opts.workload == Workload::PagerankStream { "pagerank_s" } else { "bfs_s" };
    report.note(format!(
        "{name} {query_s} s (at zero host steal, from {} queries in rounds of {round}; +{per_point}% per steal point; raw median {} s)",
        walls.len(),
        median(&walls)
    ));
    if round > 1 {
        let per: Vec<String> = (0..round)
            .map(|k| {
                let q: Vec<f64> = walls.iter().skip(k).step_by(round).copied().collect();
                format!("{:.1}", median(&q) * 1e3)
            })
            .collect();
        report.note(format!("per-source median ms {}", per.join(" ")));
    }
    report.note(format!("peak_rss_mb {peak} MB"));
    report.note(format!("host_steal_pct {steal} % (timed phase)"));
    report.per_layer.set("obs.host_steal_pct", steal);
    report.attempted = attempted;

    let m = &mut report.per_layer;
    m.set("obs.samples", walls.len() as f64);
    probes::engine_layers(m, &runs);
    m.set("engine.cpu_util", cpu.total() / wall);
    m.set("engine.sys_share", cpu.system / cpu.total().max(1e-9));
    let hits = obs_counter("storage.codec.cache_hits") - hits0;
    let misses = obs_counter("storage.codec.cache_misses") - misses0;
    m.set("codec.cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    let wait = histogram_delta(&obs_histogram("cop.queue_wait_ns"), &wait0);
    m.set("cop.queue_wait_ms", wait.sum as f64 / 1e6 / walls.len() as f64);

    if let Some(csr) = csr {
        layer_probes(&mut report, &tracer, &g, &job, &csr, opts.seed)?;
        report.notes.extend(tracer.summary_lines());
    }
    Ok(report)
}

/// Traced-run probes: storage, codec and vertex-store calls, the three
/// update modes side by side, and a 1-thread run.
fn layer_probes(
    report: &mut Report,
    tracer: &Tracer,
    g: &HusGraph,
    job: &Job,
    csr: &Csr,
    seed: u64,
) -> Result<()> {
    let m = &mut report.per_layer;
    let sweep = probes::stream_sweep_ms(tracer, g)?;
    m.set("storage.stream_sweep_ms", sweep);
    if m.get("cop.ms_per_iter") > 0.0 {
        m.set("cop.non_io_share", 1.0 - sweep / m.get("cop.ms_per_iter"));
    }
    let mut x = derive_seed(seed, 3);
    let sample: Vec<u32> = (0..RANGE_SAMPLE)
        .map(|_| {
            x = hus_gen::types::splitmix64(x);
            (x % u64::from(csr.num_vertices)) as u32
        })
        .filter(|&v| csr.out_degree(v) > 0)
        .collect();
    m.set("storage.range_read_us", probes::range_read_us(tracer, g, csr, &sample)?);
    m.set("codec.decode_ms", probes::decode_ms(tracer, g)?);
    m.set("codec.ratio", g.meta().compression_ratio());
    let (create, load, write) = probes::vertex_store_ms(tracer, g)?;
    m.set("vertex_store.create_ms", create);
    m.set("vertex_store.load_ms", load);
    m.set("vertex_store.write_ms", write);

    // The same queries under each update mode: regret and per-iteration
    // wrong choices. Frontiers match across modes, so iterations pair up.
    let (mut regrets, mut wrong) = (Vec::new(), 0u64);
    for k in 0..job.len().min(2) {
        let (h, _) = tracer.span("engine.run.hybrid", || job.run(g, k, UpdateMode::Hybrid, None));
        let (r, _) =
            tracer.span("engine.run.force_rop", || job.run(g, k, UpdateMode::ForceRop, None));
        let (c, _) =
            tracer.span("engine.run.force_cop", || job.run(g, k, UpdateMode::ForceCop, None));
        let (regret, w) = probes::predictor_audit(&h?, &r?, &c?);
        regrets.push(regret);
        wrong += w;
        report.attempted += 3;
    }
    let m = &mut report.per_layer;
    m.set("predict.regret", median(&regrets));
    m.set("predict.wrong_iters", wrong as f64 / regrets.len().max(1) as f64);
    let (r, one) =
        tracer.span("engine.run.one_thread", || job.run(g, 0, UpdateMode::Hybrid, Some(1)));
    r?;
    report.attempted += 1;
    // Speed-up against the default thread count on the same query.
    let (r, many) = tracer.span("engine.run.hybrid", || job.run(g, 0, UpdateMode::Hybrid, None));
    r?;
    report.attempted += 1;
    report.per_layer.set("engine.speedup", one.as_secs_f64() / many.as_secs_f64());
    Ok(())
}
