//! Equivalence harness for the channel-sharded parallel scan.
//!
//! The scan's contract is that `parallelism` is purely a host wall-clock
//! knob: for any database, query and `k`, the ranked results — ids,
//! scores and order — are bit-identical at every worker count, and so
//! are the simulated latencies the serve engine's simulated-clock
//! driver derives from them. These tests drive that contract with
//! randomized inputs (property tests over models, database sizes, `k`,
//! worker counts and, drawn last, the page store), with injected read
//! faults, and through `serve::simulate`'s schedule and flight recorder.

mod common;

use common::{backends, engine_with};
use deepstore_core::config::DeepStoreConfig;
use deepstore_core::proto::Command;
use deepstore_core::serve::{simulate, ServeConfig};
use deepstore_core::{AcceleratorLevel, DeepStore};
use deepstore_flash::fault::FaultPlan;
use deepstore_nn::{zoo, ModelGraph, Tensor};
use proptest::prelude::*;

/// Worker counts exercised against the serial baseline. `0` means "one
/// worker per host core", so it also covers whatever this machine has.
const WORKER_COUNTS: [usize; 4] = [2, 4, 8, 0];

const APPS: [&str; 3] = ["textqa", "tir", "mir"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random model, database size, query and `k`: every parallel worker
    /// count returns bit-identical ranked results to the serial scan.
    #[test]
    fn parallel_scan_matches_serial(
        (app_idx, model_seed, n, k, q_seed) in (
            0usize..3,
            0u64..1_000_000,
            1u64..48,
            0usize..10,
            0u64..1_000_000,
        ),
        backend in backends(),
    ) {
        let (mut engine, model, db) = engine_with(APPS[app_idx], model_seed, n, 1, backend);
        let probe = model.random_feature(q_seed ^ 0x5EED);
        let baseline = engine.scan_top_k(db, &model, &probe, k).unwrap();
        prop_assert_eq!(baseline.len(), k.min(n as usize));

        for workers in WORKER_COUNTS {
            engine.set_parallelism(workers);
            let parallel = engine.scan_top_k(db, &model, &probe, k).unwrap();
            prop_assert_eq!(&baseline, &parallel);
        }
    }

    /// Fault tolerance is part of the contract too: with uncorrectable
    /// reads injected, every worker count skips the same features and
    /// ranks the same survivors.
    #[test]
    fn parallel_scan_matches_serial_under_faults(
        (model_seed, n, fault_seed) in (0u64..1_000_000, 8u64..48, 0u64..1_000_000),
        backend in backends(),
    ) {
        let scan_at = |workers: usize| {
            let (mut engine, model, db) = engine_with("textqa", model_seed, n, workers, backend);
            let geometry = engine.config().ssd.geometry;
            engine.inject_faults(FaultPlan::random(&geometry, 0.10, fault_seed));
            let probe = model.random_feature(model_seed ^ 0xFA017);
            let top = engine.scan_top_k(db, &model, &probe, 6).unwrap();
            (top, engine.unreadable_skipped())
        };

        let (baseline, baseline_skipped) = scan_at(1);
        for workers in WORKER_COUNTS {
            let (parallel, skipped) = scan_at(workers);
            prop_assert_eq!(&baseline, &parallel);
            prop_assert_eq!(baseline_skipped, skipped);
        }
    }
}

/// Regression for the simulated-clock driver: each job's `(arrival,
/// start, done)` and the flight-recorder dump come from the simulated
/// timing model, so they must be identical at every parallelism setting.
#[test]
fn runtime_latencies_identical_across_parallelism() {
    let run_at = |parallelism: usize| {
        let model = zoo::textqa().seeded(3);
        let mut store =
            DeepStore::in_memory(DeepStoreConfig::small().with_parallelism(parallelism));
        store.disable_qc();
        let features: Vec<Tensor> = (0..64).map(|i| model.random_feature(i)).collect();
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        let arrivals = (0..20u64)
            .map(|i| {
                let query = Command::Query {
                    qfv: model.random_feature(1_000 + i),
                    k: 5,
                    model: mid,
                    db,
                    level: AcceleratorLevel::Channel,
                    exact: false,
                    request_id: 0,
                    sched_lag_ns: 0,
                };
                (i * 50_000, query)
            })
            .collect();
        let sim = simulate(store, ServeConfig::default(), arrivals);
        (sim.times, sim.obs.explicit_dump())
    };

    let (baseline_times, baseline_dump) = run_at(1);
    for workers in WORKER_COUNTS {
        let (times, dump) = run_at(workers);
        assert_eq!(
            baseline_times, times,
            "schedule diverged at parallelism {workers}"
        );
        assert_eq!(
            baseline_dump, dump,
            "flight-recorder dump diverged at parallelism {workers}"
        );
    }
}
