//! Equivalence harness for the batched multi-query scan.
//!
//! `DeepStore::query_batch` amortizes one page-sequential flash pass
//! over many queries, but its contract is purely about wall-clock and
//! flash traffic: with the query cache disabled, the ranked results of a
//! batch must be bit-identical to the same requests issued one at a
//! time through `DeepStore::query`, at every parallelism setting, for
//! every zoo model shape, on both page stores, and in the presence of
//! injected read faults.
//! A deterministic companion test pins the flash-traffic claim itself:
//! a batch of B queries issues exactly the page reads of one scan, not
//! B scans.

mod common;

use common::{backends, Backend, Ranked};
use deepstore::core::{AcceleratorLevel, DeepStore, DeepStoreConfig, QueryRequest};
use deepstore::flash::fault::FaultPlan;
use deepstore::nn::{zoo, ModelGraph, Tensor};
use proptest::prelude::*;

/// Worker counts exercised against the serial baseline. `0` means "one
/// worker per host core".
const WORKER_COUNTS: [usize; 4] = [2, 4, 8, 0];

const APPS: [&str; 3] = ["textqa", "tir", "mir"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `query_batch` is bit-identical to sequential `query` calls with
    /// the cache disabled — per request, at every parallelism setting,
    /// with and without injected flash faults.
    #[test]
    fn query_batch_matches_sequential_at_every_parallelism(
        (app_idx, model_seed, n, k, batch, level_idx, faulted, fault_seed) in (
            0usize..3,
            0u64..1_000_000,
            16u64..48,
            1usize..6,
            2usize..6,
            0usize..2,
            any::<bool>(),
            0u64..1_000_000,
        ),
        backend in backends(),
    ) {
        let level = [AcceleratorLevel::Ssd, AcceleratorLevel::Channel][level_idx];
        let run = |workers: usize| -> (Vec<Ranked>, Vec<Ranked>) {
            let model = zoo::by_name(APPS[app_idx])
                .expect("known app")
                .seeded_metric(model_seed);
            let mut store = backend.store(DeepStoreConfig::small().with_parallelism(workers));
            store.disable_qc();
            let features: Vec<Tensor> = (0..n).map(|i| model.random_feature(i)).collect();
            let db = store.write_db(&features).unwrap();
            let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
            if faulted {
                let geometry = store.config().ssd.geometry;
                store.inject_faults(FaultPlan::random(&geometry, 0.10, fault_seed));
            }
            let requests: Vec<QueryRequest> = (0..batch as u64)
                .map(|i| {
                    QueryRequest::new(model.random_feature(10_000 + i), mid, db)
                        .k(k)
                        .level(level)
                })
                .collect();

            let ranked = |store: &mut DeepStore, qid| -> Ranked {
                store
                    .results(qid)
                    .unwrap()
                    .top_k
                    .iter()
                    .map(|h| (h.feature_index, h.score.to_bits()))
                    .collect()
            };
            let sequential: Vec<Ranked> = requests
                .iter()
                .map(|r| {
                    let qid = store.query(r.clone()).unwrap();
                    ranked(&mut store, qid)
                })
                .collect();
            let batched: Vec<Ranked> = store
                .query_batch(&requests)
                .unwrap()
                .into_iter()
                .map(|qid| ranked(&mut store, qid))
                .collect();
            (sequential, batched)
        };

        let (seq_baseline, batch_baseline) = run(1);
        prop_assert_eq!(&seq_baseline, &batch_baseline);
        for workers in WORKER_COUNTS {
            let (sequential, batched) = run(workers);
            prop_assert_eq!(&seq_baseline, &sequential);
            prop_assert_eq!(&sequential, &batched);
        }
    }
}

/// A batch of B queries issues exactly one page-sequential flash pass:
/// the same page reads as a single query, while B sequential queries
/// cost B passes. tir's 2 KB features divide the 16 KB page evenly, so
/// page reads are exactly countable.
#[test]
fn batched_query_reads_each_page_once() {
    for backend in Backend::ALL {
        const BATCH: usize = 8;
        let model = zoo::tir().seeded_metric(11);
        let mut store = backend.store(DeepStoreConfig::small());
        store.disable_qc();
        let features: Vec<Tensor> = (0..64).map(|i| model.random_feature(i)).collect();
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        let requests: Vec<QueryRequest> = (0..BATCH as u64)
            .map(|i| QueryRequest::new(model.random_feature(5_000 + i), mid, db).k(4))
            .collect();

        let r0 = store.flash_op_counts().reads;
        store.query(requests[0].clone()).unwrap();
        let r1 = store.flash_op_counts().reads;
        let single_pass = r1 - r0;
        assert!(single_pass > 0, "a scan must read flash pages");

        let qids = store.query_batch(&requests).unwrap();
        let r2 = store.flash_op_counts().reads;
        assert_eq!(
            r2 - r1,
            single_pass,
            "a batch of {BATCH} must cost exactly one pass"
        );
        assert_eq!(qids.len(), BATCH);

        for r in &requests {
            store.query(r.clone()).unwrap();
        }
        let r3 = store.flash_op_counts().reads;
        assert_eq!(
            r3 - r2,
            BATCH as u64 * single_pass,
            "sequential queries re-read the database every time"
        );
    }
}
