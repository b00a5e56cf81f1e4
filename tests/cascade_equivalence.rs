//! Equivalence harness for the int8 bound-then-refine pruning cascade.
//!
//! The cascade's contract has two halves, and both are checked here
//! with randomized inputs:
//!
//! * **Bound soundness.** For any linear-foldable model, query and
//!   feature, the int8 upper bound is ≥ the exact f32 similarity —
//!   always, not statistically. This is what makes recall@K exactly
//!   1.0 by construction: a feature is pruned only when its bound
//!   (hence its score) falls strictly below the running K-th best, or
//!   below the database-wide floor (the K-th largest lower bound).
//! * **Bit-identity.** The cascade's ranked top-K — ids, scores,
//!   order — equals the exact path's bit-for-bit, at every
//!   `parallelism` setting (1/2/4/auto), with and without armed fault
//!   plans degrading coverage. So do the fault counts: pruned
//!   features still stream their flash pages.
//!
//! Two fixed cases pin the floor: it is wired (fault-free scans prune
//! against the whole database) and it is gated (an armed fault plan
//! can hide its witnesses, so it is not trusted then).
//!
//! The engine-level properties draw the page store (heap or mmap image)
//! as their last argument; the API test runs on both.
//!
//! Run with `DEEPSTORE_FORCE_SCALAR=1` to exercise the scalar kernel
//! dispatch arm; CI runs both.

mod common;

use common::{backends, engine_with, Backend};
use deepstore_core::config::DeepStoreConfig;
use deepstore_core::engine::{DbId, Engine};
use deepstore_core::{DeepStoreError, QueryRequest};
use deepstore_flash::fault::FaultPlan;
use deepstore_flash::FlashError;
use deepstore_nn::{
    quantize_feature, zoo, Activation, BoundScorer, ElementWiseOp, MergeOp, Model, ModelBuilder,
    ModelGraph, Tensor,
};
use deepstore_systolic::topk::TopKSorter;
use proptest::prelude::*;

/// Worker counts exercised against the serial cascade. `0` means "one
/// worker per host core".
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 0];

const MERGES: [MergeOp; 4] = [
    MergeOp::Concat,
    MergeOp::ElementWise(ElementWiseOp::Add),
    MergeOp::ElementWise(ElementWiseOp::Sub),
    MergeOp::ElementWise(ElementWiseOp::Mul),
];

/// A random linear-foldable similarity model: any merge, a stack of
/// identity-activated dense layers.
fn linear_model(merge: MergeOp, dims: &[usize], seed: u64) -> Model {
    let mut b = ModelBuilder::new("lin", dims[0]).merge(merge);
    let mut inp = match merge {
        MergeOp::Concat => dims[0] * 2,
        MergeOp::ElementWise(_) => dims[0],
    };
    for &out in &dims[1..] {
        b = b.dense(inp, out, Activation::Identity);
        inp = out;
    }
    b.build().seeded(seed)
}

/// Page reads of a fault-free cascade scan that visits exactly the
/// features `keep` selects, computed from the database layout alone:
/// the distinct pages those features touch, per shard. A feature
/// belongs to the channel shard of its first page, and each shard reads
/// a page once however many of its features touch it; a page touched
/// from two shards (a block-boundary straddler's second page) is read
/// by each.
fn pages_touched(engine: &Engine, db: DbId, keep: impl Fn(u64) -> bool) -> u64 {
    let meta = engine.db_meta(db).unwrap();
    let page_bytes = engine.config().ssd.geometry.page_bytes as u64;
    let fb = meta.feature_bytes as u64;
    let mut touched = std::collections::BTreeSet::new();
    for idx in (0..meta.num_features).filter(|&i| keep(i)) {
        let (first, last) = (idx * fb / page_bytes, ((idx + 1) * fb - 1) / page_bytes);
        let shard = meta.pages[first as usize].channel;
        touched.extend((first..=last).map(|page| (shard, page)));
    }
    touched.len() as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Bound soundness over random linear models: merge type, depth,
    /// weights, query and features are all randomized, and the int8
    /// upper bound must dominate the exact score every time.
    #[test]
    fn int8_bound_dominates_exact_score(
        (merge_idx, dims_idx, model_seed, q_seed) in (
            0usize..4,
            0usize..3,
            0u64..1_000_000,
            0u64..1_000_000,
        )
    ) {
        let dims: &[usize] = [&[24usize, 6][..], &[16, 12, 5], &[10, 8, 8, 1]][dims_idx];
        let model = linear_model(MERGES[merge_idx], dims, model_seed);
        let query = model.random_feature(q_seed);
        let bs = BoundScorer::new(&model, &query).expect("linear models fold");
        for fi in 0..24u64 {
            let item = model.random_feature(q_seed ^ (0xF00D + fi));
            let fq = quantize_feature(item.data());
            let exact = model.similarity(&query, &item).unwrap();
            let ub = bs.upper_bound(&fq);
            prop_assert!(
                ub >= exact,
                "bound {} < exact {} (merge {:?}, dims {:?}, feature {})",
                ub, exact, MERGES[merge_idx], dims, fi
            );
        }
    }

    /// The cascade's top-K is bit-identical to the exact path at every
    /// parallelism setting, and its prune/rescore counts are identical
    /// across worker counts too (they are sums over the physically
    /// determined shard plan).
    #[test]
    fn cascade_topk_matches_exact_bitwise(
        (model_seed, n, k, q_seed) in (
            0u64..1_000_000,
            1u64..96,
            0usize..12,
            0u64..1_000_000,
        ),
        backend in backends(),
    ) {
        let (mut engine, model, db) = engine_with("textqa", model_seed, n, 1, backend);
        let probe = model.random_feature(q_seed ^ 0x5EED);
        let (exact, exact_faults, exact_stats) = engine
            .scan_top_k_with(db, &model, &probe, k, true)
            .unwrap();
        // The exact path never consults the bound.
        prop_assert_eq!(exact_stats.pruned, 0);
        prop_assert_eq!(exact_stats.rescored, 0);

        let mut baseline_stats = None;
        for workers in WORKER_COUNTS {
            engine.set_parallelism(workers);
            let (cascade, faults, stats) = engine
                .scan_top_k_with(db, &model, &probe, k, false)
                .unwrap();
            prop_assert_eq!(&exact, &cascade, "ranking diverged at parallelism {}", workers);
            prop_assert_eq!(&exact_faults, &faults);
            match baseline_stats {
                None => baseline_stats = Some(stats),
                Some(b) => prop_assert_eq!(
                    b, stats,
                    "cascade stats diverged at parallelism {}", workers
                ),
            }
        }
    }

    /// Non-foldable models (tir has ReLU tails) fall back to the exact
    /// path: identical results, zero cascade decisions.
    #[test]
    fn non_foldable_models_fall_back_to_exact(
        (model_seed, n, q_seed) in (0u64..1_000_000, 1u64..32, 0u64..1_000_000),
        backend in backends(),
    ) {
        let (engine, model, db) = engine_with("tir", model_seed, n, 1, backend);
        let probe = model.random_feature(q_seed ^ 0x7E57);
        let (exact, _, _) = engine.scan_top_k_with(db, &model, &probe, 4, true).unwrap();
        let (cascade, _, stats) = engine.scan_top_k_with(db, &model, &probe, 4, false).unwrap();
        prop_assert_eq!(&exact, &cascade);
        prop_assert_eq!(stats.pruned, 0);
        prop_assert_eq!(stats.rescored, 0);
    }

    /// Armed fault plans: with uncorrectable reads degrading coverage,
    /// the cascade still matches the exact path bit-for-bit — pruned
    /// features stream their pages, so the skip accounting is shared —
    /// at every worker count.
    #[test]
    fn cascade_matches_exact_under_armed_faults(
        (model_seed, n, fault_seed) in (0u64..1_000_000, 16u64..96, 0u64..1_000_000),
        backend in backends(),
    ) {
        let scan_at = |workers: usize, exact: bool| {
            let (mut engine, model, db) = engine_with("textqa", model_seed, n, workers, backend);
            let geometry = engine.config().ssd.geometry;
            engine.inject_faults(FaultPlan::random(&geometry, 0.10, fault_seed));
            let probe = model.random_feature(model_seed ^ 0xFA017);
            let (top, faults, stats) = engine
                .scan_top_k_with(db, &model, &probe, 6, exact)
                .unwrap();
            (top, faults, stats, engine.unreadable_skipped())
        };

        let (exact_top, exact_faults, _, exact_skipped) = scan_at(1, true);
        let mut baseline_stats = None;
        for workers in WORKER_COUNTS {
            let (top, faults, stats, skipped) = scan_at(workers, false);
            prop_assert_eq!(&exact_top, &top, "ranking diverged at parallelism {}", workers);
            prop_assert_eq!(&exact_faults, &faults);
            prop_assert_eq!(exact_skipped, skipped);
            match baseline_stats {
                None => baseline_stats = Some(stats),
                Some(b) => prop_assert_eq!(b, stats),
            }
        }
    }
}

/// The floor is wired: on a fault-free, multi-channel database every
/// feature gets an admission decision from the first one on, a request
/// rescores no feature whose upper bound sits below the K-th largest
/// lower bound of the *whole* database (computed here from
/// `BoundScorer::bounds`, independently of the engine), the counts do
/// not depend on the worker count, and the scan reads only the pages
/// of features with `ub ≥ floor`.
#[test]
fn floor_prunes_against_the_whole_database() {
    const K: usize = 10;
    let n = 2_000u64;
    let (mut engine, model, db) = engine_with("textqa", 5, n, 1, Backend::Heap);
    let meta = engine.db_meta(db).unwrap();
    assert!(
        meta.pages
            .iter()
            .any(|p| p.channel != meta.pages[0].channel),
        "test premise: the database spans several channel shards"
    );
    let probe = model.random_feature(0xF1002);
    let scorer = BoundScorer::new(&model, &probe).expect("textqa folds");
    let bounds: Vec<(f32, f32)> = (0..n)
        .map(|i| {
            scorer.bounds(&quantize_feature(
                engine.read_feature(db, i).unwrap().data(),
            ))
        })
        .collect();
    let mut lower: Vec<f32> = bounds.iter().map(|&(lb, _)| lb).collect();
    lower.sort_by(|a, b| b.total_cmp(a));
    let floor = lower[K - 1];
    let admissible = bounds.iter().filter(|&&(_, ub)| ub >= floor).count() as u64;
    let candidate_reads = pages_touched(&engine, db, |i| bounds[i as usize].1 >= floor);

    let reads = engine.flash_op_counts().reads;
    let (exact, _, _) = engine.scan_top_k_with(db, &model, &probe, K, true).unwrap();
    let exact_reads = engine.flash_op_counts().reads - reads;
    let mut baseline = None;
    for workers in WORKER_COUNTS {
        engine.set_parallelism(workers);
        let reads = engine.flash_op_counts().reads;
        let (cascade, _, stats) = engine
            .scan_top_k_with(db, &model, &probe, K, false)
            .unwrap();
        assert_eq!(engine.flash_op_counts().reads - reads, candidate_reads);
        assert!(candidate_reads < exact_reads);
        assert_eq!(cascade, exact, "ranking diverged at parallelism {workers}");
        assert_eq!(stats.pruned + stats.rescored, n);
        assert!(
            stats.rescored <= admissible,
            "rescored {} features, but only {admissible} have ub >= floor {floor}",
            stats.rescored
        );
        assert_eq!(
            *baseline.get_or_insert(stats),
            stats,
            "parallelism {workers}"
        );
    }
}

/// The candidate walk's read contract on a database large enough for
/// the floor to prune nearly everything. Fault-free, a cascade scan
/// reads only the pages its candidates touch — exactly the pages of
/// `{ub ≥ floor}` (bounds computed here, outside the engine) and at
/// most a fifth of what the exact scan reads. With a fault plan armed
/// the floor is not trusted, every feature is walked, and the cascade
/// reads exactly what the exact scan reads. Either way the ranking is
/// the exact one and the cascade stats agree at every parallelism.
#[test]
fn fault_free_cascade_reads_only_candidate_pages() {
    const K: usize = 10;
    let n = 20_000u64;
    let (mut engine, model, db) = engine_with("textqa", 17, n, 1, Backend::Heap);
    let probe = model.random_feature(0xC0DE);
    let scorer = BoundScorer::new(&model, &probe).expect("textqa folds");
    let bounds: Vec<(f32, f32)> = (0..n)
        .map(|i| scorer.bounds(&quantize_feature(model.random_feature(i).data())))
        .collect();
    let mut lower: Vec<f32> = bounds.iter().map(|&(lb, _)| lb).collect();
    lower.sort_by(|a, b| b.total_cmp(a));
    let floor = lower[K - 1];
    let candidate_reads = pages_touched(&engine, db, |i| bounds[i as usize].1 >= floor);

    for armed in [false, true] {
        if armed {
            engine.inject_faults(FaultPlan::none().transient(0.5, 41));
        }
        engine.set_parallelism(1);
        let reads = engine.flash_op_counts().reads;
        let (exact, exact_faults, _) = engine.scan_top_k_with(db, &model, &probe, K, true).unwrap();
        let exact_reads = engine.flash_op_counts().reads - reads;
        let mut baseline = None;
        for workers in WORKER_COUNTS {
            engine.set_parallelism(workers);
            let reads = engine.flash_op_counts().reads;
            let (cascade, faults, stats) = engine
                .scan_top_k_with(db, &model, &probe, K, false)
                .unwrap();
            let cascade_reads = engine.flash_op_counts().reads - reads;
            if armed {
                assert!(faults.reads.total_retries() > 0, "faults actually fired");
                assert_eq!(cascade_reads, exact_reads, "parallelism {workers}");
            } else {
                assert_eq!(cascade_reads, candidate_reads, "parallelism {workers}");
                assert_eq!(
                    stats.pruned + stats.rescored,
                    n,
                    "the floor decides every feature"
                );
                assert!(
                    cascade_reads * 5 <= exact_reads,
                    "{cascade_reads} cascade reads vs {exact_reads} exact"
                );
            }
            assert_eq!(cascade, exact, "armed {armed}, parallelism {workers}");
            assert_eq!(faults, exact_faults, "armed {armed}, parallelism {workers}");
            assert_eq!(
                *baseline.get_or_insert(stats),
                stats,
                "armed {armed}, parallelism {workers}"
            );
        }
    }
}

/// The floor is a proof that needs K *readable* witnesses. Plant the K
/// best of a large pool on the database's first page, followed by the
/// pool's worst, and fail that page permanently. An ungated floor would
/// prune every survivor against the lost witnesses (the premise below
/// checks that); the scan must instead rank the survivors exactly as
/// brute force over the readable features does.
#[test]
fn floor_is_not_trusted_when_its_witnesses_are_unreadable() {
    const K: usize = 8;
    let model = zoo::textqa().seeded_metric(3);
    let probe = model.random_feature(0xF1001);
    let mut pool: Vec<(f32, Tensor)> = (0..4_000u64)
        .map(|i| {
            let f = model.random_feature(i);
            (model.similarity(&probe, &f).unwrap(), f)
        })
        .collect();
    pool.sort_by(|a, b| b.0.total_cmp(&a.0));
    // A 16 KB page holds twenty whole 800 B features: the K best all
    // sit on page 0.
    let features: Vec<Tensor> = pool[..K]
        .iter()
        .chain(&pool[pool.len() - 300..])
        .map(|(_, f)| f.clone())
        .collect();
    let n = features.len() as u64;
    let mut engine = Engine::new(DeepStoreConfig::small());
    let db = engine.write_db(&features).unwrap();
    engine.seal_db(db).unwrap();
    let geometry = engine.config().ssd.geometry;
    let first_page = engine.db_meta(db).unwrap().pages[0];
    engine.inject_faults(FaultPlan::none().fail_page(&geometry, first_page));

    let mut expected = TopKSorter::new(K);
    let mut survivors = Vec::new();
    for idx in 0..n {
        match engine.read_feature(db, idx) {
            Ok(f) => {
                expected.offer(model.similarity(&probe, &f).unwrap(), idx);
                survivors.push(f);
            }
            Err(DeepStoreError::Flash(FlashError::UncorrectableEcc(_))) => {}
            Err(e) => panic!("unexpected read error: {e}"),
        }
    }
    let coverage = survivors.len() as f64 / n as f64;
    assert!(coverage < 1.0, "the fault plan hides features");

    let scorer = BoundScorer::new(&model, &probe).expect("textqa folds");
    let ungated_floor = features[..K]
        .iter()
        .map(|f| scorer.bounds(&quantize_feature(f.data())).0)
        .fold(f32::INFINITY, f32::min);
    assert!(
        survivors
            .iter()
            .all(|f| scorer.bounds(&quantize_feature(f.data())).1 < ungated_floor),
        "test premise: a floor over the lost witnesses would prune every survivor"
    );

    for workers in WORKER_COUNTS {
        engine.set_parallelism(workers);
        let (top, faults, _) = engine
            .scan_top_k_with(db, &model, &probe, K, false)
            .unwrap();
        assert_eq!(faults.skipped, n - survivors.len() as u64);
        assert_eq!(top, expected.ranked(), "parallelism {workers}");
    }
}

/// End-to-end through the public API: `QueryRequest::exact()` and the
/// default cascade return identical hits, batches mix freely, and the
/// device's stats surface the pruning it actually did.
#[test]
fn api_exact_and_cascade_requests_agree() {
    for backend in Backend::ALL {
        let model = zoo::textqa().seeded_metric(7);
        let mut store = backend.store(DeepStoreConfig::small());
        store.disable_qc();
        let features: Vec<Tensor> = (0..256).map(|i| model.random_feature(i)).collect();
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();

        for probe_seed in [900u64, 901, 902] {
            let probe = model.random_feature(probe_seed);
            let reqs = vec![
                QueryRequest::new(probe.clone(), mid, db).k(8),
                QueryRequest::new(probe.clone(), mid, db).k(8).exact(),
            ];
            let ids = store.query_batch(&reqs).unwrap();
            let cascade = store.results(ids[0]).unwrap();
            let exact = store.results(ids[1]).unwrap();
            assert_eq!(cascade.top_k, exact.top_k, "probe {probe_seed} diverged");
        }

        let stats = store.stats();
        // A 256-feature db at k=8 must have pruned something.
        assert!(
            stats.pruned_features > 0,
            "cascade pruned nothing on a 256-feature db"
        );
        assert!(stats.rescored_features > 0 || stats.pruned_features > 0);
    }
}
