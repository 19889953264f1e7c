//! `serve_ingest`: an in-process `hus_serve` daemon answering open-loop
//! lookups while a writer ingests through `DynamicGraph` and asks for
//! PageRank.
//!
//! Two load threads, one connection each:
//! * the lookup thread sends 45% `degree`, 45% `neighbors` and 10%
//!   `khop` depth 2 at a few fixed offered rates, timing each request
//!   from when it was due;
//! * the writer loops over a seeded insert/delete batch (sources only in
//!   the upper half of V), a `flush`, a `snapshot` read-back, a
//!   `compact` every few flushes, and a `pagerank` request.
//!
//! Lookups touch only lower-half vertices (and k-hop roots whose whole
//! 2-hop ball stays in the lower half), which the writer never changes,
//! so every answer is checked against the generated edge list. The
//! final PageRank hash is checked against a rebuild of the acknowledged
//! edge set.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use hus_codec::Codec;
use hus_core::{DynamicGraph, Engine, HusGraph, RunConfig};
use hus_gen::{Csr, Edge, EdgeList};
use hus_serve::client::{error_code, field_u64, is_ok};
use hus_serve::{Client, ServeConfig, Server};
use hus_storage::StorageDir;

use crate::probes::{self, Built};
use crate::sys::{CpuTimes, HostTicks, RssSampler};
use crate::trace::Tracer;
use crate::{
    at_zero_steal, batch::SETUP_REPS, ctx, derive_seed, expect_eq, fingerprint, histogram_delta,
    median, obs_counter, obs_histogram, quantile, BenchError, Opts, Report, Result, Size,
};

/// Share of `--seconds` spent at the lowest offered rate.
const LOWEST_STEP_SHARE: f64 = 0.75;
/// Length of the windows whose `neighbors` medians, each paired with
/// the window's host steal, give `query_ms`.
const WINDOW_SECS: f64 = 0.5;
/// Lookup latency limit behind `serve.lookup_max_qps`.
const LOOKUP_LIMIT_US: f64 = 1000.0;
/// Requests on the idle daemon for `serve.idle_rtt_us`.
const IDLE_REQUESTS: usize = 300;
/// Lookup vertices (and k-hop roots) the request mix draws from.
const POOL: usize = 2048;
/// Bytes a user submits per ingested edge: source, destination, weight.
const USER_RECORD_BYTES: f64 = 12.0;

struct Shape {
    vertices: u32,
    draws: usize,
    p: u32,
    /// Offered lookup rates, requests per second, lowest first.
    rates: &'static [f64],
    /// Ingest operations between flushes.
    batch: usize,
    /// Flushes between compactions.
    compact_every: usize,
    /// Writer cycle period: one batch, flush, snapshot and PageRank
    /// request is offered per period.
    cycle_ms: u64,
    /// PageRank iterations per analytics request.
    pr_iters: usize,
}

const CODEC: Codec = Codec::DeltaVarint;

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            vertices: 1 << 17,
            draws: 1_500_000,
            p: 8,
            rates: &[2_000.0, 5_000.0],
            batch: 2_000,
            compact_every: 4,
            cycle_ms: 500,
            pr_iters: 3,
        },
        Size::Tiny => Shape {
            vertices: 1 << 11,
            draws: 15_000,
            p: 4,
            rates: &[500.0, 1_000.0],
            batch: 200,
            compact_every: 2,
            cycle_ms: 50,
            pr_iters: 3,
        },
    }
}

/// Span name of each lookup op, indexed by [`Lookup::op`].
const LOOKUP_SPANS: [&str; 3] =
    ["serve.client.degree", "serve.client.neighbors", "serve.client.khop"];

/// One lookup with the answer fields it must carry.
struct Lookup {
    line: String,
    /// The vertex looked up (the root, for `khop`).
    v: u32,
    /// 0 = degree, 1 = neighbors, 2 = khop.
    op: usize,
    /// `(field, value)` pairs the response must contain.
    want: Vec<(&'static str, u64)>,
}

/// The request mix: lookup vertices and k-hop roots with their truth.
struct Plan {
    degree: Vec<Lookup>,
    neighbors: Vec<Lookup>,
    khop: Vec<Lookup>,
}

fn sorted_hash(ids: &mut [u32]) -> u64 {
    ids.sort_unstable();
    hus_serve::fnv1a64(hus_storage::pod::as_bytes(ids))
}

fn plan(csr: &Csr, lower: u32, seed: u64, plant: bool) -> Plan {
    let mut x = seed;
    let mut next = || {
        x = hus_gen::types::splitmix64(x);
        x
    };
    let mut plan = Plan { degree: Vec::new(), neighbors: Vec::new(), khop: Vec::new() };
    for _ in 0..POOL * 8 {
        if plan.degree.len() >= POOL {
            break;
        }
        let v = (next() % u64::from(lower)) as u32;
        let deg = csr.out_degree(v);
        if deg == 0 {
            continue;
        }
        let mut nbrs = csr.out_neighbors(v).to_vec();
        let hash = sorted_hash(&mut nbrs);
        plan.degree.push(Lookup {
            line: format!("{{\"op\":\"degree\",\"v\":{v}}}"),
            v,
            op: 0,
            want: vec![("degree", u64::from(deg))],
        });
        plan.neighbors.push(Lookup {
            line: format!("{{\"op\":\"neighbors\",\"v\":{v}}}"),
            v,
            op: 1,
            want: vec![("count", u64::from(deg)), ("hash", hash)],
        });
    }
    // K-hop roots whose 2-hop ball never leaves the lower half.
    for _ in 0..POOL * 64 {
        if plan.khop.len() >= POOL / 4 {
            break;
        }
        let v = (next() % u64::from(lower)) as u32;
        let hop1 = csr.out_neighbors(v);
        if hop1.is_empty() || hop1.iter().any(|&u| u >= lower) {
            continue;
        }
        let mut ball: Vec<u32> = std::iter::once(v)
            .chain(hop1.iter().copied())
            .chain(hop1.iter().flat_map(|&u| csr.out_neighbors(u).iter().copied()))
            .collect();
        ball.sort_unstable();
        ball.dedup();
        let count = ball.len() as u64;
        plan.khop.push(Lookup {
            line: format!("{{\"op\":\"khop\",\"v\":{v},\"depth\":2}}"),
            v,
            op: 2,
            want: vec![("count", count), ("hash", sorted_hash(&mut ball))],
        });
    }
    if plant {
        plan.degree[0].want[0].1 += 1;
        plan.neighbors[0].want[0].1 += 1;
        if let Some(k) = plan.khop.first_mut() {
            k.want[0].1 += 1;
        }
    }
    plan
}

impl Plan {
    /// The 45/45/10 mix.
    fn pick(&self, r: u64) -> &Lookup {
        let roll = r % 100;
        let pool = if roll < 45 || self.khop.is_empty() && roll >= 90 {
            &self.degree
        } else if roll < 90 {
            &self.neighbors
        } else {
            &self.khop
        };
        &pool[(r >> 8) as usize % pool.len()]
    }
}

/// Parse a response line.
fn parse(resp: &str) -> Result<serde_json::Value> {
    ctx(serde_json::parse_value_str(resp), "parse a response")
}

/// What happened to one request.
enum Outcome {
    Ok,
    /// Typed refusal (busy, deadline, budget) or internal error.
    Failed,
}

/// Check one response against its lookup. A wrong answer is an error.
fn check(resp: &str, lookup: &Lookup) -> Result<Outcome> {
    let v = parse(resp)?;
    if !is_ok(&v) {
        if error_code(&v).is_some() {
            return Ok(Outcome::Failed);
        }
        return Err(BenchError::Failed(format!("malformed response to {}: {resp}", lookup.line)));
    }
    for &(key, want) in &lookup.want {
        let got = field_u64(&v, key);
        expect_eq(got == Some(want), || {
            format!("{} answered {key}={got:?}, truth {want}", lookup.line)
        })?;
    }
    Ok(Outcome::Ok)
}

/// Latencies of one offered-rate step.
#[derive(Default)]
struct Step {
    rate: f64,
    latency_us: Vec<f64>,
    /// Latencies split by op: degree, neighbors, khop.
    by_op: [Vec<f64>; 3],
    /// `neighbors` latencies split by [`WINDOW_SECS`] windows of due
    /// time, with the host steal share measured over each window.
    windows: Vec<(Vec<f64>, f64)>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Step {
    fn meets_limit(&self) -> bool {
        // No growing backlog: the last request went out on time.
        let last_late = self.late_ms.last().copied().unwrap_or(0.0);
        quantile(&self.latency_us, 0.99) <= LOOKUP_LIMIT_US && last_late <= LOOKUP_LIMIT_US / 1e3
    }
}

/// Send `rate` lookups per second for `secs` seconds on `client`, each
/// timed from its due time.
fn open_loop(
    tracer: &Tracer,
    client: &mut Client,
    plan: &Plan,
    rate: f64,
    secs: f64,
    seed: u64,
) -> Result<Step> {
    let n = ((rate * secs) as usize).max(1);
    let mut step = Step { rate, ..Step::default() };
    let mut x = seed;
    let start = Instant::now() + Duration::from_millis(1);
    let per_window = ((rate * WINDOW_SECS) as usize).max(1);
    let mut mark = HostTicks::now();
    for k in 0..n {
        if k % per_window == 0 {
            if let Some(w) = step.windows.last_mut() {
                let now = HostTicks::now();
                w.1 = now.steal_pct_since(&mark);
                mark = now;
            }
            step.windows.push((Vec::new(), 0.0));
        }
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        let now = Instant::now();
        if due > now + Duration::from_micros(200) {
            std::thread::sleep(due - now - Duration::from_micros(100));
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        x = hus_gen::types::splitmix64(x);
        let lookup = plan.pick(x);
        let sent = Instant::now();
        let (resp, _) = tracer.span(LOOKUP_SPANS[lookup.op], || client.request_raw(&lookup.line));
        let done = Instant::now();
        let resp = ctx(resp, "lookup request")?;
        step.attempted += 1;
        if let Outcome::Failed = check(&resp, lookup)? {
            step.failed += 1;
        }
        let us = (done - due).as_secs_f64() * 1e6;
        step.latency_us.push(us);
        step.by_op[lookup.op].push(us);
        if lookup.op == 1 {
            step.windows.last_mut().expect("window opened").0.push(us);
        }
        step.late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
    }
    step.windows.last_mut().expect("window opened").1 = HostTicks::now().steal_pct_since(&mark);
    Ok(step)
}

/// What the writer thread measured.
#[derive(Default)]
struct Writer {
    acked: BTreeMap<(u32, u32), bool>,
    ops: u64,
    rejected: u64,
    op_ns: Vec<f64>,
    flush_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    analytics_ms: Vec<f64>,
    analytics_failed: u64,
    written_bytes: u64,
    ingest_s: f64,
}

/// Degree of `src` after the acknowledged updates, from the base graph.
fn expected_degree(csr: &Csr, acked: &BTreeMap<(u32, u32), bool>, src: u32) -> u64 {
    let mut base = csr.out_neighbors(src).to_vec();
    base.sort_unstable();
    let mut deg = base.len() as i64;
    for (&(_, d), &present) in acked.range((src, 0)..=(src, u32::MAX)) {
        let in_base = base.binary_search(&d).is_ok();
        deg += i64::from(present && !in_base) - i64::from(!present && in_base);
    }
    deg as u64
}

#[allow(clippy::too_many_arguments)]
fn writer_loop(
    tracer: &Tracer,
    root: &Path,
    client: &mut Client,
    csr: &Csr,
    sh: &Shape,
    seed: u64,
    stop: &AtomicBool,
) -> Result<Writer> {
    let n = csr.num_vertices;
    let lower = n / 2;
    let mut dg =
        ctx(DynamicGraph::open(ctx(StorageDir::open(root), "open the graph")?), "open for ingest")?;
    let base_upper: Vec<(u32, u32)> =
        (lower..n).flat_map(|s| csr.out_neighbors(s).iter().map(move |&d| (s, d))).collect();
    let mut w = Writer::default();
    let mut x = seed;
    let pagerank = format!("{{\"op\":\"pagerank\",\"iters\":{}}}", sh.pr_iters);
    let period = Duration::from_millis(sh.cycle_ms);
    let start = Instant::now();
    for cycle in 0u32.. {
        // Offered ingest: one cycle per period, started on schedule.
        let due = start + period * cycle;
        while Instant::now() < due && !stop.load(Ordering::SeqCst) {
            std::thread::sleep((due - Instant::now()).min(Duration::from_millis(5)));
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let mut touched = lower;
        for _ in 0..sh.batch {
            x = hus_gen::types::splitmix64(x);
            let deleting = x.is_multiple_of(5) && !base_upper.is_empty();
            let (src, dst) = if deleting {
                base_upper[(x >> 8) as usize % base_upper.len()]
            } else {
                let s = lower + ((x >> 8) % u64::from(n - lower)) as u32;
                let d = ((x >> 32) % u64::from(n)) as u32;
                (s, if d == s { (d + 1) % n } else { d })
            };
            let (r, d) = if deleting {
                tracer.span("delta.delete_edge", || dg.delete_edge(src, dst))
            } else {
                tracer.span("delta.insert_edge", || dg.insert_edge(src, dst, 1.0))
            };
            w.op_ns.push(d.as_secs_f64() * 1e9);
            w.ingest_s += d.as_secs_f64();
            if r.is_ok() {
                w.acked.insert((src, dst), !deleting);
                w.ops += 1;
                touched = src;
            } else {
                w.rejected += 1;
            }
        }
        let (run, d) = tracer.span("delta.flush", || dg.flush());
        w.flush_ms.push(d.as_secs_f64() * 1e3);
        w.ingest_s += d.as_secs_f64();
        if let Some(name) = ctx(run, "flush")? {
            w.written_bytes += ctx(dg.dir().file_len(&name), "size a delta run")?;
        }
        let (deg, d) = tracer
            .span("delta.snapshot", || dg.snapshot().map(|g| g.out_degrees()[touched as usize]));
        w.snapshot_ms.push(d.as_secs_f64() * 1e3);
        let deg = u64::from(ctx(deg, "snapshot")?);
        let want = expected_degree(csr, &w.acked, touched);
        expect_eq(deg == want, || {
            format!("writer snapshot: degree of {touched} is {deg}, acked updates give {want}")
        })?;
        if (cycle as usize + 1).is_multiple_of(sh.compact_every) {
            let (r, d) = tracer.span("delta.compact", || dg.compact());
            w.compact_ms.push(d.as_secs_f64() * 1e3);
            w.ingest_s += d.as_secs_f64();
            ctx(r, "compact")?;
            w.written_bytes += ctx(dg.dir().disk_footprint(), "size the compacted graph")?;
        }
        let (resp, d) = tracer.span("serve.client.pagerank", || client.request_raw(&pagerank));
        let resp = ctx(resp, "pagerank request")?;
        if is_ok(&parse(&resp)?) {
            w.analytics_ms.push(d.as_secs_f64() * 1e3);
        } else {
            w.analytics_failed += 1;
        }
    }
    Ok(w)
}

/// PageRank hash of the acknowledged edge set, rebuilt from scratch and
/// run the way the daemon runs analytics.
fn reference_hash(root: &Path, base: &EdgeList, w: &Writer, sh: &Shape) -> Result<u64> {
    let mut keys: std::collections::BTreeSet<(u32, u32)> =
        base.edges.iter().map(|e| (e.src, e.dst)).collect();
    for (&k, &present) in &w.acked {
        if present {
            keys.insert(k);
        } else {
            keys.remove(&k);
        }
    }
    let el = EdgeList {
        num_vertices: base.num_vertices,
        edges: keys.into_iter().map(|(s, d)| Edge::new(s, d)).collect(),
        weights: None,
    };
    let dir = ctx(StorageDir::create(root), "create the reference directory")?;
    let g = ctx(
        HusGraph::build_into(&el, &dir, &hus_core::BuildConfig::with_p_codec(sh.p, CODEC)),
        "build the reference",
    )?;
    let program = hus_algos::PageRank::new(el.num_vertices);
    let config = RunConfig { threads: 1, max_iterations: sh.pr_iters, ..RunConfig::default() };
    let (ranks, _) = ctx(Engine::new(&g, &program, config).run(), "reference PageRank")?;
    Ok(hus_serve::fnv1a64(hus_storage::pod::as_bytes(&ranks)))
}

fn start_daemon(root: &Path) -> Result<(Server, Client)> {
    let config = ServeConfig { addr: "127.0.0.1:0".into(), ..ServeConfig::from_env() };
    let server = ctx(
        hus_serve::serve(ctx(StorageDir::open(root), "open the graph")?, config),
        "start the daemon",
    )?;
    let mut client = ctx(Client::connect(&server.addr().to_string()), "connect")?;
    let status = ctx(client.request_raw("{\"op\":\"status\"}"), "status request")?;
    expect_eq(is_ok(&parse(&status)?), || format!("daemon status: {status}"))?;
    Ok((server, client))
}

/// Run `serve_ingest`.
pub fn run(opts: &Opts, work: &Path) -> Result<Report> {
    let tracer = Tracer::new(opts.trace);
    let mut report = Report::new();
    let sh = shape(opts.size);
    let gen_seed = derive_seed(opts.seed, 1);
    let memtable = std::env::var("HUS_MEMTABLE_BYTES")
        .unwrap_or_else(|_| hus_core::delta::DEFAULT_MEMTABLE_BYTES.to_string());
    report.note(fingerprint(
        opts,
        CODEC,
        &[
            ("graph", format!("rmat v={} draws={} p={}", sh.vertices, sh.draws, sh.p)),
            ("gen_seed", gen_seed.to_string()),
            (
                "flush_policy",
                format!(
                    "flush every {} ops, one flush per {} ms, compact every {} flushes, memtable_bytes {memtable}",
                    sh.batch, sh.cycle_ms, sh.compact_every
                ),
            ),
            ("load", "2 threads, 2 connections".into()),
        ],
    ));

    // Set-up: generate, build, start the daemon.
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut current: Option<(Built, Server, Client)> = None;
    for k in 0..reps {
        if let Some((prev, mut server, client)) = current.take() {
            drop(client);
            server.shutdown();
            let root = prev.graph.dir().root().to_path_buf();
            drop(prev);
            let _ = std::fs::remove_dir_all(root);
        }
        let root = work.join(format!("g{k}"));
        let b = probes::generate_and_build(
            &tracer,
            &root,
            sh.vertices,
            sh.draws,
            gen_seed,
            sh.p,
            CODEC,
        )?;
        let (daemon, d) = tracer.span("serve.start", || start_daemon(&root));
        let (server, client) = daemon?;
        setups.push(b.gen_s + b.build_s + d.as_secs_f64());
        current = Some((b, server, client));
    }
    let (built, mut server, mut lookups) = current.expect("at least one set-up ran");
    report.end_to_end.set("setup_s", median(&setups));
    probes::setup_layers(&mut report.per_layer, &built)?;
    report.note(format!("setup_s {} s (median of {reps})", median(&setups)));
    let root = built.graph.dir().root().to_path_buf();
    let Built { graph, edges, .. } = built;
    drop(graph);
    let csr = Csr::from_edge_list(&edges);
    let lower = csr.num_vertices / 2;
    let plan = plan(&csr, lower, derive_seed(opts.seed, 2), opts.plant_wrong_truth);

    // Idle round trips, then a warm-up pass over the lookup pool.
    let mut attempted = 0u64;
    let mut idle = Vec::new();
    for k in 0..IDLE_REQUESTS {
        let l = &plan.degree[k % plan.degree.len()];
        let (resp, d) = tracer.span("serve.client.degree", || lookups.request_raw(&l.line));
        check(&ctx(resp, "idle lookup")?, l)?;
        idle.push(d.as_secs_f64() * 1e6);
        attempted += 1;
    }
    report.per_layer.set("serve.idle_rtt_us", median(&idle));
    for l in plan.degree.iter().chain(&plan.neighbors).chain(&plan.khop) {
        check(&ctx(lookups.request_raw(&l.line), "warm-up lookup")?, l)?;
        attempted += 1;
    }
    let lowest = sh.rates[0];
    // The lowest rate carries the end-to-end figure, so it gets the
    // largest share of the run; the higher rates split the rest.
    let step_secs = |k: usize| {
        let share = if k == 0 {
            LOWEST_STEP_SHARE
        } else {
            (1.0 - LOWEST_STEP_SHARE) / (sh.rates.len() - 1) as f64
        };
        opts.seconds * share
    };
    if opts.trace {
        // Tracing overhead at the lowest rate, without the writer.
        let quiet = Tracer::new(false);
        let secs = (step_secs(1) / 2.0).min(1.0);
        hus_obs::set_enabled(false);
        let off = open_loop(&quiet, &mut lookups, &plan, lowest, secs, derive_seed(opts.seed, 4))?;
        hus_obs::set_enabled(true);
        let on = open_loop(&tracer, &mut lookups, &plan, lowest, secs, derive_seed(opts.seed, 4))?;
        attempted += off.attempted + on.attempted;
        let pct = (median(&on.by_op[1]) / median(&off.by_op[1]) - 1.0) * 100.0;
        report.per_layer.set("obs.trace_overhead_pct", pct);
    }

    // Timed phase: the lookup steps on this thread, the writer beside it.
    let hits0 = obs_counter("storage.codec.cache_hits");
    let misses0 = obs_counter("storage.codec.cache_misses");
    let wait0 = obs_histogram("cop.queue_wait_ns");
    let server_lat0 = obs_histogram("serve.latency_lookup_ns");
    let stop = AtomicBool::new(false);
    let rss = RssSampler::start();
    let cpu0 = CpuTimes::now();
    let host0 = HostTicks::now();
    let t0 = Instant::now();
    let mut writer_client = ctx(Client::connect(&server.addr().to_string()), "connect the writer")?;
    let (steps, writer) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let seed = derive_seed(opts.seed, 5);
            writer_loop(&tracer, &root, &mut writer_client, &csr, &sh, seed, &stop)
        });
        let mut steps = Vec::new();
        for (k, &rate) in sh.rates.iter().enumerate() {
            let step = open_loop(
                &tracer,
                &mut lookups,
                &plan,
                rate,
                step_secs(k),
                derive_seed(opts.seed, 10 + k as u64),
            );
            let failed = step.is_err();
            steps.push(step);
            if failed {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        (steps, writer.join().expect("the writer thread does not panic"))
    });
    let wall = t0.elapsed().as_secs_f64();
    let cpu = CpuTimes::now().since(&cpu0);
    let steal = HostTicks::now().steal_pct_since(&host0);
    let peak = rss.finish();
    let steps: Vec<Step> = steps.into_iter().collect::<Result<_>>()?;
    let writer = writer?;

    // The final analytics answer must match a rebuild of the acked set.
    ctx(server.snapshots().refresh(), "refresh the daemon snapshot")?;
    let resp = ctx(
        writer_client.request_raw(&format!("{{\"op\":\"pagerank\",\"iters\":{}}}", sh.pr_iters)),
        "final pagerank",
    )?;
    let mut want = reference_hash(&work.join("reference"), &edges, &writer, &sh)?;
    if opts.plant_wrong_truth {
        want ^= 1;
    }
    let got = field_u64(&parse(&resp)?, "hash");
    expect_eq(got == Some(want), || {
        format!("final PageRank hash {got:?}, rebuild of the acked edge set gives {want}")
    })?;
    drop(writer_client);
    drop(lookups);
    server.shutdown();

    // Results.
    let first = &steps[0];
    let p50 = median(&first.latency_us);
    let p99 = quantile(&first.latency_us, 0.99);
    let max_qps = steps.iter().filter(|s| s.meets_limit()).map(|s| s.rate).fold(0.0, f64::max);
    let lookups_attempted: u64 = steps.iter().map(|s| s.attempted).sum();
    let lookups_failed: u64 = steps.iter().map(|s| s.failed).sum();
    let analytics = median(&writer.analytics_ms);
    let ingest_rate = writer.ops as f64 / writer.ingest_s.max(1e-9);
    // The mix's median sits where the cheap `degree` group (45%) meets
    // the `neighbors` group, so it jumps between the two from run to
    // run; the `neighbors` median is the steady read-path latency.
    let neighbors_p50 = median(&first.by_op[1]);
    // Taken per window, paired with the window's host steal.
    let windows: Vec<(f64, f64)> =
        first.windows.iter().filter(|w| !w.0.is_empty()).map(|w| (w.1, median(&w.0))).collect();
    let (neighbors_us, per_point) = at_zero_steal(&windows);
    report.end_to_end.set("query_ms", neighbors_us / 1e3);
    report.end_to_end.set("peak_rss_mb", peak);
    report.attempted = attempted
        + lookups_attempted
        + writer.ops
        + writer.rejected
        + writer.analytics_ms.len() as u64
        + writer.analytics_failed
        + 1;
    report.failed = lookups_failed + writer.rejected + writer.analytics_failed;
    for s in &steps {
        report.note(format!(
            "step offered={} /s p50_us={:.1} p99_us={:.1} p50_by_op_us degree={:.1} neighbors={:.1} khop={:.1} gen_late_p99_ms={:.3} samples={} meets_1ms={}",
            s.rate,
            median(&s.latency_us),
            quantile(&s.latency_us, 0.99),
            median(&s.by_op[0]),
            median(&s.by_op[1]),
            median(&s.by_op[2]),
            quantile(&s.late_ms, 0.99),
            s.latency_us.len(),
            s.meets_limit()
        ));
    }
    report.note(format!(
        "lookup_p50_us {p50} us (offered {lowest} /s, {} samples)",
        first.latency_us.len()
    ));
    report.note(format!(
        "neighbors_p50_us {neighbors_p50} us (offered {lowest} /s, {} samples)",
        first.by_op[1].len()
    ));
    report.note(format!(
        "neighbors_us {neighbors_us} us (at zero host steal, from {} windows of {WINDOW_SECS} s; +{per_point}% per steal point)",
        windows.len()
    ));
    report.note(format!("lookup_p99_us {p99} us"));
    report.note(format!("lookup_max_qps {max_qps} 1/s (p99 <= {LOOKUP_LIMIT_US} us, no backlog)"));
    report.note(format!("analytics_ms {analytics} ms (median of {})", writer.analytics_ms.len()));
    report.note(format!(
        "ingest_ops_per_s {ingest_rate} 1/s ({} ops, {} flushes, {} compactions)",
        writer.ops,
        writer.flush_ms.len(),
        writer.compact_ms.len()
    ));
    report.note(format!("peak_rss_mb {peak} MB"));
    report.note(format!("host_steal_pct {steal} % (timed phase)"));

    let m = &mut report.per_layer;
    m.set("obs.host_steal_pct", steal);
    m.set("obs.samples", first.latency_us.len() as f64);
    m.set("serve.lookup_p50_us", p50);
    m.set("serve.lookup_p99_us", p99);
    m.set("serve.lookup_max_qps", max_qps);
    m.set("serve.analytics_ms", analytics);
    m.set("serve.busy_frac", lookups_failed as f64 / lookups_attempted.max(1) as f64);
    let late: Vec<f64> = steps.iter().flat_map(|s| s.late_ms.iter().copied()).collect();
    m.set("serve.gen_late_ms", quantile(&late, 0.99));
    let server_lat = histogram_delta(&obs_histogram("serve.latency_lookup_ns"), &server_lat0);
    m.set("serve.server_lookup_p99_us", server_lat.quantile(0.99) as f64 / 1e3);
    m.set("delta.insert_ns", median(&writer.op_ns));
    m.set("delta.flush_ms", median(&writer.flush_ms));
    m.set("delta.compact_ms", median(&writer.compact_ms));
    m.set("delta.snapshot_ms", median(&writer.snapshot_ms));
    m.set(
        "delta.write_amp",
        writer.written_bytes as f64 / (writer.ops.max(1) as f64 * USER_RECORD_BYTES),
    );
    m.set("delta.ingest_ops_per_s", ingest_rate);
    m.set("engine.cpu_util", cpu.total() / wall);
    m.set("engine.sys_share", cpu.system / cpu.total().max(1e-9));
    let hits = obs_counter("storage.codec.cache_hits") - hits0;
    let misses = obs_counter("storage.codec.cache_misses") - misses0;
    m.set("codec.cache_hit_rate", hits as f64 / (hits + misses).max(1) as f64);
    let wait = histogram_delta(&obs_histogram("cop.queue_wait_ns"), &wait0);
    m.set("cop.queue_wait_ms", wait.sum as f64 / 1e6 / writer.analytics_ms.len().max(1) as f64);

    if opts.trace {
        // Storage, codec and vertex-store probes on the ingested graph,
        // now that the daemon is down. Range reads sample lower-half
        // vertices, whose edges the writer never changed.
        let g = ctx(
            HusGraph::open(ctx(StorageDir::open(&root), "reopen the graph")?),
            "reopen the graph",
        )?;
        let m = &mut report.per_layer;
        m.set("storage.stream_sweep_ms", probes::stream_sweep_ms(&tracer, &g)?);
        let sample: Vec<u32> = plan.degree.iter().take(64).map(|l| l.v).collect();
        m.set("storage.range_read_us", probes::range_read_us(&tracer, &g, &csr, &sample)?);
        m.set("codec.decode_ms", probes::decode_ms(&tracer, &g)?);
        m.set("codec.ratio", g.meta().compression_ratio());
        let (create, load, write) = probes::vertex_store_ms(&tracer, &g)?;
        m.set("vertex_store.create_ms", create);
        m.set("vertex_store.load_ms", load);
        m.set("vertex_store.write_ms", write);
        report.notes.extend(tracer.summary_lines());
    }
    Ok(report)
}
