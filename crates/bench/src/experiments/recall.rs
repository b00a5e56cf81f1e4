//! Extension experiment: retrieval recall under read faults.
//!
//! The premise behind the Query Cache (§4.6) is that DNN-based queries
//! "have already tolerated a certain level of errors". This experiment
//! quantifies that on the *functional* engine: a clustered gallery, a
//! probe per cluster, recall@K measured against brute-force ground truth,
//! while the flash array suffers increasing uncorrectable-read rates
//! (scans skip unreadable features). Recall degrades roughly linearly
//! with the fault rate — graceful, as the error-tolerance argument
//! predicts.

use crate::report::{num, Report, Table};
use deepstore_core::engine::Engine;
use deepstore_core::DeepStoreConfig;
use deepstore_flash::fault::FaultPlan;
use deepstore_nn::zoo;
use deepstore_workloads::gen::FeatureGen;

const IDENTITIES: usize = 16;
const SIGHTINGS: u64 = 4;
const K: usize = 4;

fn recall_at_fault_rate(rate: f64) -> (f64, u64) {
    let model = zoo::reid().seeded_metric(31);
    let gen = FeatureGen::new(model.feature_len(), IDENTITIES, 0.05, 5);
    let gallery = gen.features(IDENTITIES as u64 * SIGHTINGS);

    let mut engine = Engine::new(DeepStoreConfig::small());
    let db = engine.write_db(&gallery).unwrap();
    engine.seal_db(db).unwrap();
    let geometry = engine.config().ssd.geometry;
    engine.inject_faults(FaultPlan::random(&geometry, rate, 77));

    let mut correct = 0usize;
    for identity in 0..IDENTITIES {
        let probe = gen.feature(identity as u64 + 10_000 * IDENTITIES as u64);
        let top = engine.scan_top_k(db, &model, &probe, K).unwrap();
        correct += top
            .iter()
            .filter(|hit| (hit.feature_id % IDENTITIES as u64) as usize == identity)
            .count();
    }
    (
        correct as f64 / (IDENTITIES * K) as f64,
        engine.unreadable_skipped(),
    )
}

pub fn run() -> Vec<Report> {
    let mut table = Table::new(&["fault_rate_pct", "recall_at_4", "features_skipped"]);
    for rate in [0.0, 0.01, 0.02, 0.05, 0.10, 0.20] {
        let (recall, skipped) = recall_at_fault_rate(rate);
        table.row(&[num(rate * 100.0, 0), num(recall, 3), skipped.to_string()]);
    }
    vec![Report {
        name: "recall".into(),
        title: "Extension: ReId recall@4 vs uncorrectable-read rate (functional engine)".into(),
        table,
    }]
}
