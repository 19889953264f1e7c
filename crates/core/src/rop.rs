//! Row-oriented Push (paper §3.3, Algorithm 2).
//!
//! Processing row `i`: load `S_i`; for every out-block `(i, j)` load the
//! out-index and `D_j`, selectively fetch each active vertex's out-edge
//! range (random I/O — the whole point of ROP is to pay random access in
//! exchange for touching only active edges), push messages into `D_j`,
//! and write `D_j` back. Out-blocks of a row have disjoint destination
//! intervals, so they are processed in parallel (§3.5) with no write
//! conflicts and no atomics on vertex values.

use crate::active::ActiveSet;
use crate::graph::HusGraph;
use crate::meta::{INDEX_ENTRY_BYTES, INDEX_PROBE_BYTES};
use crate::program::{EdgeCtx, VertexProgram};
use crate::vertex_store::VertexStore;
use crate::VertexId;
use hus_storage::{Access, Result};
use parking_lot::Mutex;
use rayon::prelude::*;

/// Sizes (in edges) of the selectively-fetched per-vertex ranges — the
/// distribution behind ROP's random-I/O bill.
static RANGE_EDGES: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("rop.range_edges");
/// Blocks processed with one coalesced (elevator) sweep.
static COALESCED_SWEEPS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("rop.coalesced_sweeps");
/// Blocks processed with per-vertex selective fetches.
static SELECTIVE_BLOCKS: hus_obs::LazyCounter = hus_obs::LazyCounter::new("rop.selective_blocks");
/// Ranges per coalesced multi-range run (runs of length 1 stay random
/// reads and are not recorded here).
static MERGED_RUN_RANGES: hus_obs::LazyHistogram =
    hus_obs::LazyHistogram::new("rop.merged_run_ranges");

/// Shared read-only state for one iteration's workers.
pub struct IterCtx<'a, Pr: VertexProgram> {
    /// The graph being processed.
    pub graph: &'a HusGraph,
    /// The user program.
    pub program: &'a Pr,
    /// This iteration's frontier (read-only).
    pub active: &'a ActiveSet,
    /// Whether `active` holds every vertex, so per-edge membership
    /// tests can be skipped.
    pub frontier_full: bool,
    /// Next iteration's frontier (written concurrently).
    pub next_active: &'a ActiveSet,
    /// `T_batched / T_random` of the device: per-vertex selective
    /// fetches are used only while they are predicted cheaper than one
    /// coalesced sweep of the block (see [`push_block_into`]).
    pub coalesce_ratio: f64,
    /// `T_sequential / T_random` of the device: per-vertex index *entry*
    /// fetches are used only while they are predicted cheaper than
    /// loading the block's whole CSR offset array.
    pub index_ratio: f64,
    /// Maximum byte gap between two selective edge ranges that are still
    /// merged into one batched multi-range read
    /// ([`RunConfig::range_merge_slack`](crate::engine::RunConfig)).
    /// Merging is disabled whenever `coalesce_ratio <= 1.0` — if batched
    /// transfers are no faster than random ones there is nothing to win.
    pub merge_slack: u64,
    /// Cooperative deadline
    /// ([`RunConfig::deadline`](crate::engine::RunConfig)), checked at
    /// every block boundary of the ROP/COP loops.
    pub deadline: Option<crate::engine::Deadline>,
}

impl<Pr: VertexProgram> IterCtx<'_, Pr> {
    fn scatter_ctx(&self, src: VertexId, dst: VertexId, weight: f32) -> EdgeCtx {
        EdgeCtx { src, dst, weight, src_out_degree: self.graph.out_degrees()[src as usize] }
    }
}

/// Load (or initialize) interval `j`'s in-progress `D_j` buffer.
///
/// The first touch of an interval in an iteration starts from
/// `reset(S_j)`; later touches continue from the partially-updated next
/// buffer. `access` reflects the caller's I/O pattern for billing.
pub fn load_d<Pr: VertexProgram>(
    program: &Pr,
    store: &VertexStore<Pr::Value>,
    j: usize,
    touched: bool,
    access: Access,
) -> Result<Vec<Pr::Value>> {
    if touched {
        store.load_next(j, access)
    } else {
        let base = store.interval_start(j);
        let s = store.load_current(j, access)?;
        Ok(s.iter().enumerate().map(|(k, v)| program.reset(base + k as u32, v)).collect())
    }
}

/// Iteration-resident destination buffers, loaded lazily on first touch.
///
/// A ROP iteration keeps touched `D_j` buffers in memory: the paper's
/// per-row parallelism has every touched `D_j` resident simultaneously
/// anyway, so reloading them per row would bill phantom traffic. An
/// interval no active vertex pushes into is never loaded (and never
/// swapped — its current values stay valid), which is what makes ROP
/// cheap on wavefront workloads that touch a couple of intervals per
/// iteration.
pub type DBuffers<V> = Vec<Mutex<Option<Vec<V>>>>;

/// Empty (unloaded) destination buffers for one iteration.
pub fn d_buffers<Pr: VertexProgram>(store: &VertexStore<Pr::Value>) -> DBuffers<Pr::Value> {
    (0..store.num_intervals()).map(|_| Mutex::new(None)).collect()
}

/// Write back every *touched* `D_j` buffer (one tracked write per
/// touched interval) at the end of a ROP iteration; returns which
/// intervals must be committed.
pub fn store_touched<Pr: VertexProgram>(
    store: &VertexStore<Pr::Value>,
    d_all: DBuffers<Pr::Value>,
) -> Result<Vec<bool>> {
    let mut touched = vec![false; d_all.len()];
    for (j, d) in d_all.into_iter().enumerate() {
        if let Some(values) = d.into_inner() {
            store.write_next(j, &values)?;
            touched[j] = true;
        }
    }
    Ok(touched)
}

/// Process row `i` under ROP, pushing into the iteration-resident `D`
/// buffers. Returns the number of edges pushed.
pub fn run_row<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    store: &VertexStore<Pr::Value>,
    row: usize,
    d_all: &DBuffers<Pr::Value>,
) -> Result<u64> {
    let meta = ctx.graph.meta();
    let base = meta.interval_start(row);
    let end = meta.interval_starts[row + 1];
    let actives: Vec<VertexId> = ctx.active.iter_range(base, end).collect();
    if actives.is_empty() {
        return Ok(0);
    }
    // S_i: read-only source values for the whole row. Interval value and
    // index transfers are contiguous, so they are billed sequential; only
    // the per-vertex edge-range fetches below are random.
    let s_row = store.load_current(row, Access::Sequential)?;

    // Out-blocks (row, 0..P) in parallel: disjoint destination intervals,
    // so each worker owns its D_j lock without contention.
    let edge_counts: Vec<u64> = (0..ctx.graph.p())
        .into_par_iter()
        .map(|j| {
            if ctx.graph.out_block_len(row, j) == 0 {
                return Ok(0);
            }
            crate::engine::check_deadline(ctx.deadline.as_ref())?;
            let mut slot = d_all[j].lock();
            if slot.is_none() {
                *slot = Some(load_d(ctx.program, store, j, false, Access::Sequential)?);
            }
            let d_j = slot.as_mut().expect("just loaded");
            push_block_into(ctx, row, j, base, &actives, &s_row, d_j)
        })
        .collect::<Result<Vec<u64>>>()?;
    Ok(edge_counts.iter().sum())
}

/// Whether a frontier of `active_count` sources in an interval of
/// `interval_len` vertices should probe each vertex's two delimiting CSR
/// offsets individually ([`INDEX_PROBE_BYTES`] random bytes each) rather
/// than stream the block's whole `interval_len + 1`-entry offset array.
///
/// The crossover is a byte-cost comparison at the device's
/// `T_sequential / T_random` ratio (`index_ratio`):
/// `active_count * INDEX_PROBE_BYTES * index_ratio <
///  (interval_len + 1) * INDEX_ENTRY_BYTES`.
pub fn selective_index_probe(active_count: usize, interval_len: usize, index_ratio: f64) -> bool {
    active_count as f64 * INDEX_PROBE_BYTES as f64 * index_ratio
        < (interval_len + 1) as f64 * INDEX_ENTRY_BYTES as f64
}

/// Group sorted disjoint `(vertex, lo, hi)` edge ranges into coalesced
/// runs: consecutive ranges whose byte gap is at most `slack_bytes`
/// share a run (issued as one batched multi-range read). `None` disables
/// merging — every range becomes its own singleton run.
///
/// The plan must be sorted by record offset (it is built by an ascending
/// vertex walk, and vertex order equals offset order within a block) —
/// that is what makes each merged run a valid sorted batch for
/// [`ReadBackend::read_ranges`](hus_storage::ReadBackend::read_ranges),
/// which asserts sortedness in debug builds.
fn merge_runs(
    plan: &[(VertexId, u32, u32)],
    record_bytes: u64,
    slack_bytes: Option<u64>,
) -> Vec<std::ops::Range<usize>> {
    debug_assert!(
        plan.windows(2).all(|w| w[0].1 <= w[1].1),
        "selective ROP plan must be sorted by record offset"
    );
    if plan.is_empty() {
        return Vec::new();
    }
    let Some(slack) = slack_bytes else {
        return (0..plan.len()).map(|k| k..k + 1).collect();
    };
    let mut runs = Vec::new();
    let mut start = 0usize;
    for k in 1..plan.len() {
        let gap_records = plan[k].1.saturating_sub(plan[k - 1].2) as u64;
        if gap_records * record_bytes > slack {
            runs.push(start..k);
            start = k;
        }
    }
    runs.push(start..plan.len());
    runs
}

/// The in-memory push of one out-block into an already-loaded `D_j`.
///
/// Per block, ROP chooses between two fetch plans with the same cost
/// model the predictor uses: fetching the active vertices' ranges
/// selectively costs `requested_bytes / T_random`; one coalesced
/// ascending sweep of the whole block costs `block_bytes / T_batched`.
/// The cheaper plan is taken, so a dense frontier gracefully degrades to
/// an elevator sweep instead of a seek storm. Within the selective plan,
/// ranges whose gaps fit under [`IterCtx::merge_slack`] are additionally
/// merged into batched multi-range runs (fewer operations, identical
/// bytes).
pub fn push_block_into<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    row: usize,
    j: usize,
    row_base: VertexId,
    actives: &[VertexId],
    s_row: &[Pr::Value],
    d_j: &mut [Pr::Value],
) -> Result<u64> {
    // The whole per-block push runs under (row, j)'s attribution scope:
    // index probes, selective fetches, and sweeps all land on one cell.
    hus_obs::attr::with_block(row as u32, j as u32, || {
        push_block_inner(ctx, row, j, row_base, actives, s_row, d_j)
    })
}

fn push_block_inner<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    row: usize,
    j: usize,
    row_base: VertexId,
    actives: &[VertexId],
    s_row: &[Pr::Value],
    d_j: &mut [Pr::Value],
) -> Result<u64> {
    let meta = ctx.graph.meta();
    let block_edges = ctx.graph.out_block_len(row, j);
    if block_edges == 0 {
        return Ok(0);
    }
    let dst_base = meta.interval_start(j);
    let mut pushed = 0u64;

    let mut push_range = |v: VertexId, recs: &crate::graph::EdgeRecords, lo: usize, hi: usize| {
        let src_val = &s_row[(v - row_base) as usize];
        for k in lo..hi {
            let dst = recs.neighbor(k);
            let ectx = ctx.scatter_ctx(v, dst, recs.weight(k));
            if let Some(msg) = ctx.program.scatter(src_val, &ectx) {
                if ctx.program.combine(&mut d_j[(dst - dst_base) as usize], msg) {
                    ctx.next_active.set(dst);
                }
            }
        }
        pushed += (hi - lo) as u64;
    };

    // Tiny frontiers fetch each vertex's two CSR offsets individually
    // instead of streaming the block's whole offset array — the same
    // cost logic as every other fetch choice here.
    let len = meta.interval_len(row) as usize;
    let plan: Vec<(VertexId, u32, u32)> =
        if selective_index_probe(actives.len(), len, ctx.index_ratio) {
            SELECTIVE_BLOCKS.incr();
            let mut probed = Vec::with_capacity(actives.len());
            for &v in actives {
                let local = (v - row_base) as usize;
                let (lo, hi) = ctx.graph.load_out_index_entry(row, j, local)?;
                if lo < hi {
                    probed.push((v, lo, hi));
                }
            }
            probed
        } else {
            let index = ctx.graph.load_out_index(row, j, Access::Sequential)?;
            let requested: u64 = actives
                .iter()
                .map(|&v| {
                    let local = (v - row_base) as usize;
                    (index[local + 1] - index[local]) as u64
                })
                .sum();
            if requested == 0 {
                return Ok(0);
            }

            if requested as f64 * ctx.coalesce_ratio >= block_edges as f64 {
                // Dense in this block: one coalesced sweep.
                COALESCED_SWEEPS.incr();
                let recs = ctx.graph.load_out_block_batch(row, j)?;
                for &v in actives {
                    let local = (v - row_base) as usize;
                    push_range(v, &recs, index[local] as usize, index[local + 1] as usize);
                }
                return Ok(pushed);
            }
            // Sparse: selective fetch of each vertex's edge range
            // (`LoadOutEdges` in Algorithm 2).
            SELECTIVE_BLOCKS.incr();
            actives
                .iter()
                .filter_map(|&v| {
                    let local = (v - row_base) as usize;
                    let (lo, hi) = (index[local], index[local + 1]);
                    (lo < hi).then_some((v, lo, hi))
                })
                .collect()
        };

    // Execute the selective plan. Ranges arrive sorted by vertex, which
    // is ascending file order in a CSR block, so nearby actives form
    // mergeable runs: each multi-range run is one batched operation
    // billing exactly the requested bytes, singletons stay random reads.
    let record_bytes = meta.edge_record_bytes();
    let slack = (ctx.coalesce_ratio > 1.0).then_some(ctx.merge_slack);
    for run_at in merge_runs(&plan, record_bytes, slack) {
        let run = &plan[run_at];
        if let [(v, lo, hi)] = *run {
            RANGE_EDGES.record((hi - lo) as u64);
            let recs = ctx.graph.load_out_records(row, j, lo, hi)?;
            push_range(v, &recs, 0, recs.len());
        } else {
            MERGED_RUN_RANGES.record(run.len() as u64);
            let ranges: Vec<(u32, u32)> = run.iter().map(|&(_, lo, hi)| (lo, hi)).collect();
            let fetched = ctx.graph.load_out_record_ranges(row, j, &ranges)?;
            for (recs, &(v, lo, hi)) in fetched.iter().zip(run) {
                RANGE_EDGES.record((hi - lo) as u64);
                push_range(v, recs, 0, recs.len());
            }
        }
    }
    Ok(pushed)
}

/// Per-column push (the `PerColumn` hybrid schedule): for a column `j`
/// that the predictor assigned to push, walk every source interval `i`
/// and push only the active vertices' edges of out-block `(i, j)` into a
/// single `D_j` buffer.
pub fn run_push_column<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    store: &VertexStore<Pr::Value>,
    col: usize,
    touched_col: bool,
) -> Result<u64> {
    let meta = ctx.graph.meta();
    let mut d_col = load_d(ctx.program, store, col, touched_col, Access::Sequential)?;
    let mut pushed = 0u64;
    for i in 0..ctx.graph.p() {
        let base = meta.interval_start(i);
        let end = meta.interval_starts[i + 1];
        let actives: Vec<VertexId> = ctx.active.iter_range(base, end).collect();
        if actives.is_empty() {
            continue;
        }
        crate::engine::check_deadline(ctx.deadline.as_ref())?;
        let s_row = store.load_current(i, Access::Sequential)?;
        pushed += push_block_into(ctx, i, col, base, &actives, &s_row, &mut d_col)?;
    }
    store.write_next(col, &d_col)?;
    Ok(pushed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression: the selective-index crossover is pinned to the
    /// on-disk layout constants. If the record layout changes (e.g. u64
    /// CSR offsets), these exact boundaries move and this test must be
    /// updated together with [`crate::meta::INDEX_ENTRY_BYTES`].
    #[test]
    fn selective_index_crossover_is_pinned_to_layout() {
        // index_ratio 3.0, interval of 600 vertices: the full offset
        // array costs (600 + 1) * 4 = 2404 sequential bytes; one probe
        // costs 8 * 3.0 = 24 random-byte equivalents. Crossover at
        // 2404 / 24 = 100.17 actives.
        assert!(selective_index_probe(100, 600, 3.0));
        assert!(!selective_index_probe(101, 600, 3.0));
        // index_ratio 1.0 degenerates to "probe while fewer than half
        // the offsets are needed": (99 + 1) * 4 / 8 = 50.
        assert!(selective_index_probe(49, 99, 1.0));
        assert!(!selective_index_probe(50, 99, 1.0));
        // An empty frontier always probes (vacuously cheap).
        assert!(selective_index_probe(0, 1_000_000, 100.0));
    }

    #[test]
    fn merge_runs_groups_by_byte_gap() {
        // Ranges in records; record_bytes 4 → byte gap = 4 * record gap.
        let plan: Vec<(VertexId, u32, u32)> =
            vec![(0, 0, 10), (1, 10, 12), (2, 14, 20), (3, 100, 101)];
        // Slack 8 bytes = 2 records: gaps are 0, 2, and 80 records.
        let runs = merge_runs(&plan, 4, Some(8));
        assert_eq!(runs, vec![0..3, 3..4]);
        // Slack 0 still merges directly adjacent ranges.
        assert_eq!(merge_runs(&plan, 4, Some(0)), vec![0..2, 2..3, 3..4]);
        // Disabled merging yields singletons.
        assert_eq!(merge_runs(&plan, 4, None), vec![0..1, 1..2, 2..3, 3..4]);
        assert!(merge_runs(&[], 4, Some(64)).is_empty());
    }

    /// An out-of-order plan is a logic error upstream (the vertex walk
    /// is ascending); debug builds must refuse to batch it.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sorted by record offset")]
    fn merge_runs_rejects_unsorted_plan_in_debug() {
        let plan: Vec<(VertexId, u32, u32)> = vec![(0, 10, 12), (1, 0, 4)];
        let _ = merge_runs(&plan, 4, Some(8));
    }
}
