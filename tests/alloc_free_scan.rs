//! Counting-allocator proof that the scan hot path is allocation-free.
//!
//! A global counting allocator wraps `System` and counts every
//! allocation (and growing reallocation). The single test in this file
//! (one `#[test]` only — concurrent tests would pollute the counter)
//! asserts two things:
//!
//! 1. `Model::similarity_scratch` performs **zero** heap allocations
//!    after warm-up — the whole forward pass lives in the
//!    `InferenceScratch` arena;
//! 2. the steady-state scan loop — the one loop every serving path
//!    runs, measured for a single query and for a batch of eight —
//!    allocates **zero** per scored feature: doubling the database size
//!    does not grow a pass's allocation count beyond the fixed
//!    shard-plan/sorter overhead (a strict differential bound — an
//!    allocating path would add several allocations per extra feature,
//!    i.e. hundreds here).

use deepstore_core::config::DeepStoreConfig;
use deepstore_core::engine::{DbId, Engine};
use deepstore_nn::{zoo, InferenceScratch, Model, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Builds a sealed single-worker engine over `n` textqa features.
fn engine_with(n: u64) -> (Engine, Model, DbId) {
    let model = zoo::textqa().seeded(7);
    let mut engine = Engine::new(DeepStoreConfig::small().with_parallelism(1));
    let features: Vec<Tensor> = (0..n).map(|i| model.random_feature(i)).collect();
    let db = engine.write_db(&features).unwrap();
    engine.seal_db(db).unwrap();
    (engine, model, db)
}

/// Allocations performed by one scan pass serving `probes`.
fn scan_allocations(engine: &Engine, model: &Model, db: DbId, probes: &[Tensor], k: usize) -> u64 {
    let requests: Vec<(&Model, &Tensor, usize)> = probes.iter().map(|p| (model, p, k)).collect();
    let before = allocations();
    let tops = engine.scan_top_k_batch(db, &requests).unwrap();
    let after = allocations();
    assert!(tops.len() == probes.len() && tops.iter().all(|top| top.len() == k));
    after - before
}

#[test]
fn scan_hot_path_is_allocation_free() {
    // Part 1: a warmed-up scratch inference allocates nothing at all.
    let model = zoo::textqa().seeded(1);
    let mut scratch = InferenceScratch::for_model(&model);
    let q = model.random_feature(1);
    let items: Vec<Tensor> = (2..12).map(|i| model.random_feature(i)).collect();
    let warmup = model
        .similarity_scratch(&q, items[0].data(), &mut scratch)
        .unwrap();
    assert!(warmup.is_finite());

    // The counter is process-global, so a harness thread allocating
    // concurrently can pollute a single measurement; the steady-state
    // claim holds if any attempt observes zero, so take the minimum.
    let mut steady_state = u64::MAX;
    for _ in 0..5 {
        let before = allocations();
        for item in &items {
            model
                .similarity_scratch(&q, item.data(), &mut scratch)
                .unwrap();
        }
        steady_state = steady_state.min(allocations() - before);
        if steady_state == 0 {
            break;
        }
    }
    assert_eq!(
        steady_state, 0,
        "similarity_scratch allocated on the steady-state path"
    );

    // Part 2: zero allocations per scored feature in the scan loop.
    // Doubling the feature count adds 256 extra scored features; if the
    // per-feature loop allocated even once per feature, the difference
    // would be >= 256. The allowed slack covers the fixed per-scan
    // overhead only (shard-plan growth, sorter, per-shard scratch).
    let (small_engine, model, small_db) = engine_with(256);
    let (large_engine, _, large_db) = engine_with(512);
    let probes: Vec<Tensor> = (0..8).map(|i| model.random_feature(9_999 + i)).collect();

    for batch in [1, 8] {
        let probes = &probes[..batch];
        // Warm both scans once (thread-local / lazy one-time init).
        scan_allocations(&small_engine, &model, small_db, probes, 8);
        scan_allocations(&large_engine, &model, large_db, probes, 8);

        let small = scan_allocations(&small_engine, &model, small_db, probes, 8);
        let large = scan_allocations(&large_engine, &model, large_db, probes, 8);
        assert!(
            large <= small + 64,
            "batch of {batch}: scan allocations grew with database size: {small} allocs \
             at 256 features vs {large} at 512 — the per-feature loop is allocating"
        );
        // And the per-feature budget is (amortized) zero: even the whole
        // 512-feature scan stays under a small constant. Single query
        // only — the fixed per-pass set-up (one sorter per request per
        // shard, the fused scorer's lane buffers) grows with the batch,
        // so for eight requests the differential bound above is the
        // proof and an absolute count would only restate the batch size.
        if batch == 1 {
            let per_feature = large as f64 / 512.0;
            assert!(
                per_feature < 0.25,
                "scan performed {large} allocations for 512 features ({per_feature:.2}/feature)"
            );
        }
    }
}
