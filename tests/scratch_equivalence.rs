//! Bit-identity harness for the allocation-free inference path.
//!
//! `Model::similarity_scratch` and the page-sequential scan built on it
//! are rewrites of the hot path, not of the semantics: they must return
//! results bit-identical to the allocating reference path
//! (`Model::similarity` over `Engine::read_feature`). Both paths share
//! the kernels in `deepstore-nn`, so equality is structural — these
//! property tests drive that claim over random model architectures
//! (merge ops, layer widths, activations, conv stacks), random zoo
//! models, faulted scans at every parallelism setting, and a fused
//! multi-query batch against the same brute-force reference.

use deepstore_core::config::DeepStoreConfig;
use deepstore_core::engine::{DbId, Engine};
use deepstore_core::DeepStoreError;
use deepstore_flash::fault::FaultPlan;
use deepstore_flash::FlashError;
use deepstore_nn::{
    zoo, Activation, ElementWiseOp, InferenceScratch, MergeOp, Model, ModelBuilder, Tensor,
};
use deepstore_systolic::topk::{ScoredFeature, TopKSorter};
use proptest::prelude::*;

const ACTIVATIONS: [Activation; 4] = [
    Activation::Identity,
    Activation::Relu,
    Activation::Sigmoid,
    Activation::Tanh,
];

const MERGES: [MergeOp; 4] = [
    MergeOp::Concat,
    MergeOp::ElementWise(ElementWiseOp::Add),
    MergeOp::ElementWise(ElementWiseOp::Sub),
    MergeOp::ElementWise(ElementWiseOp::Mul),
];

/// Builds a random dense model: merge op, 1–3 hidden layers of varied
/// width/activation, and a head of width 1–5 (exercising the `first
/// element` and `mean` reductions).
fn dense_model(
    feature_len: usize,
    merge_idx: usize,
    widths: &[usize],
    act_idx: usize,
    head: usize,
    seed: u64,
) -> Model {
    let merge = MERGES[merge_idx % MERGES.len()];
    let mut b = ModelBuilder::new("prop", feature_len).merge(merge);
    let mut inp = match merge {
        MergeOp::Concat => feature_len * 2,
        MergeOp::ElementWise(_) => feature_len,
    };
    for (i, &w) in widths.iter().enumerate() {
        b = b.dense(inp, w, ACTIVATIONS[(act_idx + i) % ACTIVATIONS.len()]);
        inp = w;
    }
    b = b.dense(inp, head, Activation::Sigmoid);
    b.build().seeded(seed)
}

/// A small two-branch conv model: elementwise merge into a `[2, 4, 4]`
/// grid, a strided conv, then a dense head.
fn conv_model(merge_idx: usize, op_seed: u64, head: usize) -> Model {
    let ew = [ElementWiseOp::Add, ElementWiseOp::Sub, ElementWiseOp::Mul];
    ModelBuilder::new("prop-conv", 32)
        .merge(MergeOp::ElementWise(ew[merge_idx % ew.len()]))
        .conv2d(2, 3, 4, 4, 3, (2, 1), 1, Activation::Relu)
        .dense(3 * 2 * 4, head, Activation::Sigmoid)
        .build()
        .seeded(op_seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random dense architectures: the scratch path equals the
    /// allocating path bit for bit, with the scratch reused across
    /// comparisons (state from one inference must not leak into the
    /// next).
    #[test]
    fn scratch_matches_reference_on_random_dense_models(
        (feature_len, merge_idx, w0, w1, act_idx, head, seed) in (
            1usize..33,
            0usize..4,
            1usize..48,
            1usize..24,
            0usize..4,
            1usize..6,
            0u64..1_000_000,
        )
    ) {
        let model = dense_model(feature_len, merge_idx, &[w0, w1], act_idx, head, seed);
        let mut scratch = InferenceScratch::for_model(&model);
        let q = model.random_feature(seed ^ 0xABCD);
        for i in 0..4u64 {
            let d = model.random_feature(seed.wrapping_add(i));
            let fast = model.similarity_scratch(&q, d.data(), &mut scratch).unwrap();
            let reference = model.similarity(&q, &d).unwrap();
            prop_assert_eq!(fast.to_bits(), reference.to_bits());
        }
    }

    /// Conv stacks run through the same shared kernels: bit-identical
    /// too, including the no-reshape flat-slice conv arm.
    #[test]
    fn scratch_matches_reference_on_conv_models(
        (merge_idx, seed, head) in (0usize..3, 0u64..1_000_000, 1usize..4)
    ) {
        let model = conv_model(merge_idx, seed, head);
        let mut scratch = InferenceScratch::for_model(&model);
        let q = model.random_feature(seed ^ 0x1234);
        for i in 0..3u64 {
            let d = model.random_feature(seed.wrapping_add(100 + i));
            let fast = model.similarity_scratch(&q, d.data(), &mut scratch).unwrap();
            let reference = model.similarity(&q, &d).unwrap();
            prop_assert_eq!(fast.to_bits(), reference.to_bits());
        }
    }

    /// Random zoo models (the paper's actual workloads, conv included)
    /// with random feature counts, through the full engine: every scan
    /// score equals the reference read-then-score path bit for bit.
    #[test]
    fn scan_scores_match_reference_path_on_zoo_models(
        (app_idx, model_seed, n, q_seed) in (
            0usize..4,
            0u64..1_000_000,
            1u64..24,
            0u64..1_000_000,
        )
    ) {
        let app = ["textqa", "tir", "mir", "reid"][app_idx];
        let model = zoo::by_name(app).unwrap().seeded(model_seed);
        let mut engine = Engine::new(DeepStoreConfig::small());
        let features: Vec<Tensor> = (0..n).map(|i| model.random_feature(i)).collect();
        let db = engine.write_db(&features).unwrap();
        engine.seal_db(db).unwrap();
        let probe = model.random_feature(q_seed ^ 0x5EED);

        let top = engine.scan_top_k(db, &model, &probe, n as usize).unwrap();
        prop_assert_eq!(top.len(), n as usize);
        for hit in &top {
            let f = engine.read_feature(db, hit.feature_id).unwrap();
            let reference = model.similarity(&probe, &f).unwrap();
            prop_assert_eq!(hit.score.to_bits(), reference.to_bits());
        }
    }

    /// Faulted reads: the page-sequential scan skips exactly the features
    /// whose reads fail and ranks the survivors bit-identically to a
    /// reference built from per-feature reads — at every parallelism
    /// setting.
    #[test]
    fn faulted_scan_matches_reference_at_every_parallelism(
        (model_seed, n, k, fault_seed) in (
            0u64..1_000_000,
            8u64..48,
            1usize..10,
            0u64..1_000_000,
        )
    ) {
        let build = |workers: usize| -> (Engine, Model, DbId) {
            let model = zoo::textqa().seeded(model_seed);
            let mut engine =
                Engine::new(DeepStoreConfig::small().with_parallelism(workers));
            let features: Vec<Tensor> = (0..n).map(|i| model.random_feature(i)).collect();
            let db = engine.write_db(&features).unwrap();
            engine.seal_db(db).unwrap();
            let geometry = engine.config().ssd.geometry;
            engine.inject_faults(FaultPlan::random(&geometry, 0.15, fault_seed));
            (engine, model, db)
        };

        // Reference: per-feature reads through the allocating path, with
        // the same skip-on-ECC policy, ranked by the same sorter.
        let (engine, model, db) = build(1);
        let probe = model.random_feature(model_seed ^ 0xFA017);
        let mut sorter = TopKSorter::new(k);
        let mut skipped = 0u64;
        for idx in 0..n {
            match engine.read_feature(db, idx) {
                Ok(f) => {
                    sorter.offer(model.similarity(&probe, &f).unwrap(), idx);
                }
                Err(DeepStoreError::Flash(FlashError::UncorrectableEcc(_))) => skipped += 1,
                Err(e) => panic!("unexpected read error: {e}"),
            }
        }
        let expected = sorter.ranked();

        for workers in [1usize, 2, 4, 8, 0] {
            let (engine, model, db) = build(workers);
            let top = engine.scan_top_k(db, &model, &probe, k).unwrap();
            prop_assert_eq!(&expected, &top);
            prop_assert_eq!(engine.unreadable_skipped(), skipped);
        }
    }

    /// The fused multi-query path against code it shares nothing with:
    /// a mixed batch of nine — two models by identity (so two scorer
    /// groups, whose sizes sweep the full-block, padded-block and
    /// tail-path shapes), differing `k`, one request opted out of the
    /// cascade — must rank every request bit-identically to per-feature
    /// reads scored by the allocating reference path, at every
    /// parallelism setting, with and without an armed fault plan.
    #[test]
    fn fused_batch_matches_brute_force_reference(
        (model_seed, n, split, fault_seed) in (
            0u64..1_000_000,
            8u64..48,
            4usize..9,
            0u64..1_000_000,
        )
    ) {
        let models = [
            zoo::textqa().seeded(model_seed),
            zoo::textqa().seeded(model_seed + 1),
        ];
        let probes: Vec<Tensor> = (0..9u64)
            .map(|i| models[0].random_feature(model_seed ^ (0xBA7C0 + i)))
            .collect();
        // Request `i` as (model, probe, k, exact). `2 * i % 9` permutes
        // 0..9, so exactly `split` requests use the first model and the
        // two groups interleave in request order.
        let requests: Vec<(&Model, &Tensor, usize, bool)> = (0..9)
            .map(|i| {
                let model = &models[usize::from(2 * i % 9 >= split)];
                (model, &probes[i], 1 + i % 5, i == 2)
            })
            .collect();
        let features: Vec<Tensor> = (0..n).map(|i| models[0].random_feature(i)).collect();

        for armed in [false, true] {
            let build = |workers: usize| -> (Engine, DbId) {
                let mut engine =
                    Engine::new(DeepStoreConfig::small().with_parallelism(workers));
                let db = engine.write_db(&features).unwrap();
                engine.seal_db(db).unwrap();
                if armed {
                    let geometry = engine.config().ssd.geometry;
                    engine.inject_faults(FaultPlan::random(&geometry, 0.15, fault_seed));
                }
                (engine, db)
            };

            // Reference: per-feature reads with the skip-on-ECC policy,
            // scored by `Model::similarity`, ranked by a plain sorter.
            let (engine, db) = build(1);
            let stored: Vec<Option<Tensor>> = (0..n)
                .map(|idx| match engine.read_feature(db, idx) {
                    Ok(f) => Some(f),
                    Err(DeepStoreError::Flash(FlashError::UncorrectableEcc(_))) => None,
                    Err(e) => panic!("unexpected read error: {e}"),
                })
                .collect();
            let skipped = stored.iter().filter(|f| f.is_none()).count() as u64;
            let expected: Vec<Vec<ScoredFeature>> = requests
                .iter()
                .map(|&(model, probe, k, _)| {
                    let mut sorter = TopKSorter::new(k);
                    for (idx, f) in stored.iter().enumerate() {
                        if let Some(f) = f {
                            sorter.offer(model.similarity(probe, f).unwrap(), idx as u64);
                        }
                    }
                    sorter.ranked()
                })
                .collect();

            for workers in [1usize, 2, 4, 0] {
                let (engine, db) = build(workers);
                let (ranked, faults, _) = engine.scan_top_k_batch_with(db, &requests).unwrap();
                prop_assert_eq!(&ranked, &expected);
                prop_assert_eq!(faults.skipped, skipped);
            }
        }
    }
}
