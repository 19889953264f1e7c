//! Column-oriented Pull (paper §3.3, Algorithm 3).
//!
//! Processing column `i`: load `D_i` once; stream in-blocks
//! `(0, i)..(P-1, i)` in order, loading `S_j` and the in-index per
//! block; every destination vertex of interval `i` locates its own
//! in-edge range and pulls from active in-neighbors.
//!
//! Parallelism follows §3.5. The columns of a synchronous iteration
//! write disjoint `D_i`, so [`run_columns`] hands whole columns to the
//! worker pool: each worker fetches, decodes and pulls its column's
//! blocks in order, then writes `D_i` back, holding one `D` interval and
//! one block at a time. The ordered schedules (Gauss-Seidel, per-column
//! hybrid) must finish a column before the next one starts, so
//! [`run_column`] fetches inline and spreads each block's pull over the
//! pool by destination vertex (each owns a disjoint `D` slot). Either
//! way every destination combines its in-edges in the serial walk's
//! order, so results are bit-identical at any thread count.

use crate::graph::EdgeRecords;
use crate::program::VertexProgram;
use crate::rop::{load_d, IterCtx};
use crate::vertex_store::VertexStore;
use hus_obs::span;
use hus_storage::{Access, Result};
use rayon::prelude::*;

/// Sizes (in edge records) of the streamed in-blocks — the distribution
/// behind COP's sequential-I/O bill.
static BLOCK_EDGES: hus_obs::LazyHistogram = hus_obs::LazyHistogram::new("cop.block_edges");

/// One fetched in-block, ready to process.
struct FetchedBlock<V> {
    /// Source interval of the block.
    src_interval: usize,
    /// `S_j`: the source interval's current values.
    s_block: Vec<V>,
    /// Per-destination CSR offsets.
    index: Vec<u32>,
    /// The block's edge records.
    records: EdgeRecords,
}

/// Pull every non-empty in-block of column `col` into a fresh `D_col`,
/// fetching each block inline; `parallel_pull` spreads each block's pull
/// over the pool. Returns `D_col` (not yet written back) and the number
/// of edge records streamed (COP pays for every in-edge of the column,
/// active or not — that is its trade).
fn process_column<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    store: &VertexStore<Pr::Value>,
    col: usize,
    parallel_pull: bool,
) -> Result<(Vec<Pr::Value>, u64)> {
    let mut d_col = load_d(ctx.program, store, col, false, Access::Sequential)?;
    let dst_base = ctx.graph.meta().interval_start(col);
    let mut streamed = 0u64;
    for i in (0..ctx.graph.p()).filter(|&i| ctx.graph.in_block_len(i, col) > 0) {
        crate::engine::check_deadline(ctx.deadline.as_ref())?;
        // The whole fetch (vertex chunk + index + edge stream) runs
        // under block (i, col)'s attribution scope, so the heatmap sees
        // the column's vertex-value traffic too, not just edge bytes.
        let block = hus_obs::attr::with_block(i as u32, col as u32, || -> Result<_> {
            Ok(FetchedBlock {
                src_interval: i,
                s_block: store.load_current(i, Access::Sequential)?,
                index: ctx.graph.load_in_index(i, col, Access::Sequential)?,
                records: ctx.graph.stream_in_block(i, col)?,
            })
        })?;
        BLOCK_EDGES.record(block.records.len() as u64);
        streamed += block.records.len() as u64;
        pull_block(ctx, &block, dst_base, &mut d_col, parallel_pull);
    }
    Ok((d_col, streamed))
}

/// Process column `col` under COP and write `D_col` back. Used by the
/// Gauss-Seidel and per-column schedules, whose visibility rules need
/// the write (and commit) to happen before the next unit; the pull of
/// each block runs on the pool.
pub fn run_column<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    store: &VertexStore<Pr::Value>,
    col: usize,
) -> Result<u64> {
    let (d_col, streamed) = process_column(ctx, store, col, true)?;
    store.write_next(col, &d_col)?;
    Ok(streamed)
}

/// Process all `P` columns of a synchronous COP iteration, one whole
/// column per pool worker (commits happen together afterwards, so
/// visibility is unchanged). Columns are claimed heaviest-first by
/// in-edge count, so a heavy column is never the last one started.
/// Returns the total edge records streamed.
pub fn run_columns<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    store: &VertexStore<Pr::Value>,
) -> Result<u64> {
    let p = ctx.graph.p();
    let mut cols: Vec<usize> = (0..p).collect();
    cols.sort_by_cached_key(|&col| {
        std::cmp::Reverse((0..p).map(|i| ctx.graph.in_block_len(i, col)).sum::<u64>())
    });
    let streamed = cols
        .into_par_iter()
        .map(|col| {
            let _s = span!("cop.column", interval = col);
            let (d_col, n) = process_column(ctx, store, col, false)?;
            store.write_next(col, &d_col)?;
            Ok(n)
        })
        .collect::<Result<Vec<u64>>>()?;
    Ok(streamed.iter().sum())
}

/// The in-memory pull of one fetched block into `D_col`, per destination
/// vertex (each owns a disjoint slot of `D_col` and a disjoint record
/// range), on the pool when `parallel`.
fn pull_block<Pr: VertexProgram>(
    ctx: &IterCtx<'_, Pr>,
    block: &FetchedBlock<Pr::Value>,
    dst_base: u32,
    d_col: &mut [Pr::Value],
    parallel: bool,
) {
    let src_base = ctx.graph.meta().interval_start(block.src_interval);
    // A full frontier needs no per-edge membership test, and an
    // always-active program's next frontier starts full, so marking it
    // would be a no-op read-modify-write per destination.
    let check_active = !ctx.frontier_full;
    let mark_next = !ctx.program.always_active();
    let pull = |(local, dst_val): (usize, &mut Pr::Value)| {
        let (lo, hi) = (block.index[local] as usize, block.index[local + 1] as usize);
        if lo == hi {
            return;
        }
        let dst = dst_base + local as u32;
        let mut changed = false;
        for k in lo..hi {
            let src = block.records.neighbor(k);
            if check_active && !ctx.active.get(src) {
                continue;
            }
            let src_val = &block.s_block[(src - src_base) as usize];
            let ectx = crate::program::EdgeCtx {
                src,
                dst,
                weight: block.records.weight(k),
                src_out_degree: ctx.graph.out_degrees()[src as usize],
            };
            if let Some(msg) = ctx.program.scatter(src_val, &ectx) {
                changed |= ctx.program.combine(dst_val, msg);
            }
        }
        if changed && mark_next {
            ctx.next_active.set(dst);
        }
    };
    if parallel {
        d_col.par_iter_mut().enumerate().for_each(pull);
    } else {
        d_col.iter_mut().enumerate().for_each(pull);
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::BuildConfig;
    use crate::engine::{Deadline, Engine, RunConfig, Synchrony, UpdateMode};
    use crate::graph::HusGraph;
    use crate::meta::GraphMeta;
    use crate::program::{EdgeCtx, VertexProgram};
    use hus_storage::StorageDir;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct MinLabel;

    impl VertexProgram for MinLabel {
        type Value = u32;
        fn init(&self, v: u32) -> u32 {
            v
        }
        fn initially_active(&self, _v: u32) -> bool {
            true
        }
        fn scatter(&self, s: &u32, _c: &EdgeCtx) -> Option<u32> {
            Some(*s)
        }
        fn combine(&self, d: &mut u32, m: u32) -> bool {
            if m < *d {
                *d = m;
                true
            } else {
                false
            }
        }
    }

    /// A mid-stream fetch failure must surface as an error to the caller
    /// (not hang, not panic a worker) under every COP schedule. The
    /// in-edges shard is truncated *after* open, so `FileBackend`'s
    /// cached length admits the read and the underlying `pread` fails
    /// mid-column.
    #[test]
    fn mid_stream_storage_error_surfaces_not_hangs() {
        let el = hus_gen::rmat(300, 3000, 5, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g =
            std::sync::Arc::new(HusGraph::build_into(&el, &dir, &BuildConfig::with_p(8)).unwrap());

        // Corrupt column 2's in-edge shard under the open graph.
        let victim = dir.path(&GraphMeta::in_edges_file(2));
        let orig_len = std::fs::metadata(&victim).unwrap().len();
        assert!(orig_len > 8);
        let f = std::fs::OpenOptions::new().write(true).open(&victim).unwrap();
        f.set_len(4).unwrap();
        drop(f);

        for synchrony in [Synchrony::Synchronous, Synchrony::GaussSeidel] {
            let cfg = RunConfig {
                mode: UpdateMode::ForceCop,
                synchrony,
                threads: 4,
                ..Default::default()
            };
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let g = std::sync::Arc::clone(&g);
            let handle = std::thread::spawn(move || {
                let result = Engine::new(&g, &MinLabel, cfg).run();
                done_tx.send(result.is_err()).unwrap();
            });
            // The run must finish promptly with an error; a deadlock
            // would leave the channel empty.
            let failed = done_rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .unwrap_or_else(|_| panic!("{synchrony:?} COP run hung on a storage error"));
            assert!(failed, "{synchrony:?}: truncated shard must surface a StorageError");
            handle.join().unwrap();
        }
    }

    /// The thread count must not change results or modeled I/O bytes:
    /// every column is pulled in the serial walk's block order.
    #[test]
    fn column_parallel_matches_serial_bit_for_bit() {
        let el = hus_gen::rmat(400, 4000, 21, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(6)).unwrap();
        let run = |threads: usize| {
            g.dir().tracker().reset();
            let cfg = RunConfig { mode: UpdateMode::ForceCop, threads, ..Default::default() };
            let (values, stats) = Engine::new(&g, &MinLabel, cfg).run().unwrap();
            (values, stats.total_io.total_bytes())
        };
        let (serial_vals, serial_bytes) = run(1);
        let (par_vals, par_bytes) = run(4);
        assert_eq!(serial_vals, par_vals);
        assert_eq!(serial_bytes, par_bytes, "thread count must not change modeled I/O");
    }

    /// A deadline crossed while the columns are in flight aborts the run
    /// with the typed error. Every scatter sleeps, so one iteration far
    /// outlasts the budget; the scatter count proves the cutoff landed
    /// mid-iteration rather than at the check before it.
    #[test]
    fn deadline_crossed_mid_iteration_returns_the_typed_error() {
        struct SlowLabel(AtomicUsize);
        impl VertexProgram for SlowLabel {
            type Value = u32;
            fn init(&self, v: u32) -> u32 {
                v
            }
            fn initially_active(&self, _v: u32) -> bool {
                true
            }
            fn scatter(&self, s: &u32, _c: &EdgeCtx) -> Option<u32> {
                self.0.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_micros(200));
                Some(*s)
            }
            fn combine(&self, d: &mut u32, m: u32) -> bool {
                MinLabel.combine(d, m)
            }
        }

        let el = hus_gen::rmat(300, 3000, 8, Default::default());
        let tmp = tempfile::tempdir().unwrap();
        let dir = StorageDir::create(tmp.path().join("g")).unwrap();
        let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(4)).unwrap();
        let program = SlowLabel(AtomicUsize::new(0));
        let cfg = RunConfig {
            mode: UpdateMode::ForceCop,
            threads: 2,
            deadline: Deadline::after_ms(200),
            ..Default::default()
        };
        let err = Engine::new(&g, &program, cfg).run().unwrap_err();
        assert!(err.is_deadline(), "{err}");
        let scattered = program.0.load(Ordering::Relaxed) as u64;
        assert!(
            scattered > 0 && scattered < g.num_edges(),
            "cutoff must land inside the first iteration ({scattered} of {} edges)",
            g.num_edges()
        );
    }
}
