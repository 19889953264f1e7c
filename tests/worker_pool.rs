//! Per-process engine resources are created once, not per run: pool
//! threads are spawned once per process (not per block, column or run),
//! and unnamed runs reuse one scratch directory. This file holds a
//! single test so that no other test in its process grows the pool or
//! takes a scratch slot while it counts.

use husgraph::algos::PageRank;
use husgraph::core::checkpoint::CheckpointManager;
use husgraph::core::{ActiveSet, BuildConfig, Engine, HusGraph, RunConfig, UpdateMode};
use husgraph::storage::StorageDir;

#[test]
fn engine_reuses_pool_threads_and_scratch_across_runs() {
    husgraph::obs::set_enabled(true);
    let el = husgraph::gen::rmat(2000, 20_000, 3, Default::default());
    let tmp = tempfile::tempdir().unwrap();
    let dir = StorageDir::create(tmp.path().join("g")).unwrap();
    let g = HusGraph::build_into(&el, &dir, &BuildConfig::with_p(8)).unwrap();
    let n = g.meta().num_vertices;
    let threads = 4;
    let run = |checkpoint_every: u32| {
        let cfg = RunConfig {
            mode: UpdateMode::ForceCop,
            threads,
            max_iterations: 5,
            checkpoint_every,
            ..RunConfig::with_mode(UpdateMode::ForceCop)
        };
        let (ranks, stats) = Engine::new(&g, &PageRank::new(n), cfg).run().unwrap();
        assert_eq!(stats.num_iterations(), 5);
        (ranks, stats)
    };
    let spawned = || husgraph::obs::metrics::global().counter("pool.threads_spawned").get();

    let (ranks, _) = run(0);
    let first = spawned();
    assert!(
        (1..=threads as u64).contains(&first),
        "a 5-iteration P = 8 COP run at {threads} threads spawned {first} pool threads"
    );
    assert_eq!(first, rayon::threads_spawned() as u64, "counter mirrors the pool");

    run(0);
    assert_eq!(spawned(), first, "a second run must reuse the pool's workers");
    let scratch: Vec<String> = std::fs::read_dir(dir.root())
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.starts_with("scratch_"))
        .collect();
    assert_eq!(scratch.len(), 1, "sequential unnamed runs share one scratch dir: {scratch:?}");

    // A checkpoint left in the shared slot belongs to some earlier run;
    // a later unnamed run must not resume from it.
    let mut stale = CheckpointManager::new(dir.subdir(&scratch[0]).unwrap(), n);
    stale.save(3, &vec![0.0f32; n as usize], &ActiveSet::new(n)).unwrap();
    let (again, stats) = run(2);
    assert_eq!(stats.checkpoints.resumed_from, None);
    assert_eq!(again, ranks);
}
