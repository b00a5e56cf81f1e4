//! Zero steady-state allocations per feature on the mmap read path.
//!
//! `MmapStore::page` hands out slices borrowed straight from the
//! mapping, so a scan's allocation count is a per-query constant
//! (scratch arenas, the top-K heap, thread plumbing) and must not grow
//! with database size. This binary installs a counting global
//! allocator and holds exactly one test, so the measurement window sees
//! no other test's allocations.

mod common;

use common::Backend;
use deepstore::core::{DeepStore, DeepStoreConfig, QueryRequest};
use deepstore::nn::{zoo, ModelGraph, Tensor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAllocator;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations during one warmed-up scan of a store.
fn measure(store: &mut DeepStore, req: &QueryRequest) -> u64 {
    // Warm-up: scratch arenas and quant sidecar buffers get sized here.
    let ids = store.query_batch(std::slice::from_ref(req)).unwrap();
    store.results(ids[0]).unwrap();

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let ids = store.query_batch(std::slice::from_ref(req)).unwrap();
    ARMED.store(false, Ordering::SeqCst);
    store.results(ids[0]).unwrap();
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn mmap_scan_allocations_do_not_scale_with_db_size() {
    let model = zoo::tir().seeded_metric(5);
    let cfg = DeepStoreConfig::small().with_parallelism(1);
    let build = |n: u64| -> DeepStore {
        let mut s = Backend::Mmap.store(cfg.clone());
        s.disable_qc();
        let fs: Vec<Tensor> = (0..n).map(|i| model.random_feature(i)).collect();
        s.write_db(&fs).unwrap();
        s.load_model(&ModelGraph::from_model(&model)).unwrap();
        s
    };
    let mut small = build(64);
    let mut large = build(512);

    let req = |n: u64| {
        QueryRequest::new(
            model.random_feature(9999),
            deepstore::core::ModelId(1),
            deepstore::core::DbId(1),
        )
        .k(n as usize)
    };
    let small_allocs = measure(&mut small, &req(4));
    let large_allocs = measure(&mut large, &req(4));

    // 8× the features must not mean 8× the allocations: the read path
    // borrows pages from the mapping and reuses its scratch space, so
    // the per-query constant dominates. Generous slack absorbs jitter
    // (hash-map resizes, result publication) without letting a
    // per-feature allocation (≥ 448 extra here) slip through.
    assert!(
        large_allocs <= small_allocs * 2 + 64,
        "scan allocations scale with db size: {small_allocs} for 64 \
         features vs {large_allocs} for 512"
    );
}
