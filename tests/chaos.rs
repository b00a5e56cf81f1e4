//! Deterministic chaos harness for the layered fault model and the
//! retry/remap/degrade pipeline.
//!
//! Each property draws a random scenario — SSD geometry (channels ×
//! chips × pages-per-block), zoo model, database size, query batch, a
//! layered [`FaultPlan`] (permanent page faults, transient ECC faults,
//! whole-channel/chip outages, wear-out) and, last, the page store (heap
//! or mmap image) — and pins the fault-tolerance contract across
//! parallelism 1/2/4/auto:
//!
//! * no panic: every batch either answers or returns
//!   [`DeepStoreError::InsufficientCoverage`] (only when a
//!   `min_coverage` policy demands it);
//! * accounting is exact: `coverage == (n - skipped) / n`,
//!   `degraded == (coverage < 1.0)`, and the top-K length is
//!   `min(k, survivors)`;
//! * degraded answers are honest: the degraded top-K equals the top-K
//!   of the fault-free scores restricted to the surviving features — a
//!   subset of the fault-free ranking, never an invented hit;
//! * transient faults plus the default retry ladder are invisible:
//!   results are bit-identical to the fault-free run;
//! * results are bit-identical at every parallelism setting.
//!
//! The proptest shim derives every case deterministically from the
//! property name and case index, so a red run reproduces exactly. There
//! is no shrinking; instead, the full failing scenario (the nearest
//! thing to a minimized seed) is appended to
//! `target/chaos-seeds/<property>.txt`, which CI uploads as an artifact
//! on failure.

mod common;

use std::collections::HashSet;
use std::fmt::Write as _;

use common::{backends, chaos_seed_dir, check, record_failing_case, run_recorded, Backend, Ranked};
use deepstore::core::{
    AcceleratorLevel, DeepStore, DeepStoreConfig, DeepStoreError, ModelId, QueryRequest,
};
use deepstore::flash::fault::FaultPlan;
use deepstore::nn::{zoo, Model, ModelGraph, Tensor};
use deepstore_core::engine::DbId;
use proptest::prelude::*;

/// Parallelism settings exercised per scenario. `0` means "one worker
/// per host core" (auto).
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 0];

const APPS: [&str; 3] = ["textqa", "tir", "mir"];

const LEVELS: [AcceleratorLevel; 2] = [AcceleratorLevel::Ssd, AcceleratorLevel::Channel];

/// One query's observable outcome, reduced to exactly comparable bits.
#[derive(Debug, Clone, PartialEq)]
struct Snap {
    ranked: Ranked,
    skipped: u64,
    coverage_bits: u64,
    degraded: bool,
}

impl Snap {
    fn coverage(&self) -> f64 {
        f64::from_bits(self.coverage_bits)
    }
}

/// A fully-derived chaos case: everything needed to replay it by hand.
#[derive(Debug)]
struct Scenario {
    app: &'static str,
    model_seed: u64,
    n: u64,
    k: usize,
    batch: usize,
    level: AcceleratorLevel,
    channels: usize,
    chips_per_channel: usize,
    pages_per_block: usize,
    plan: FaultPlan,
    /// `min_coverage` policy exercised by the last phase of the case.
    required: f64,
    backend: Backend,
}

fn store_config(scn: &Scenario, workers: usize) -> DeepStoreConfig {
    let mut cfg = DeepStoreConfig::small().with_parallelism(workers);
    cfg.ssd.geometry.channels = scn.channels;
    cfg.ssd.geometry.chips_per_channel = scn.chips_per_channel;
    cfg.ssd.geometry.pages_per_block = scn.pages_per_block;
    cfg
}

/// Builds a store with the scenario's geometry, writes the database,
/// loads the model, and (when `faulted`) arms the scenario's plan.
fn fresh_store(scn: &Scenario, workers: usize, faulted: bool) -> (DeepStore, Model, ModelId, DbId) {
    let model = zoo::by_name(scn.app)
        .expect("known app")
        .seeded_metric(scn.model_seed);
    let mut store = scn.backend.store(store_config(scn, workers));
    store.disable_qc();
    let features: Vec<Tensor> = (0..scn.n).map(|i| model.random_feature(i)).collect();
    let db = store.write_db(&features).expect("write db");
    let mid = store
        .load_model(&ModelGraph::from_model(&model))
        .expect("load model");
    if faulted {
        store.inject_faults(scn.plan.clone());
    }
    (store, model, mid, db)
}

fn build_requests(
    scn: &Scenario,
    model: &Model,
    mid: ModelId,
    db: DbId,
    k: usize,
    min_coverage: Option<f64>,
) -> Vec<QueryRequest> {
    (0..scn.batch as u64)
        .map(|i| {
            let mut req = QueryRequest::new(model.random_feature(10_000 + i), mid, db)
                .k(k)
                .level(scn.level);
            if let Some(f) = min_coverage {
                req = req.min_coverage(f);
            }
            req
        })
        .collect()
}

/// One full batch through a fresh store; returns per-query snapshots.
fn run_batch(
    scn: &Scenario,
    workers: usize,
    k: usize,
    faulted: bool,
    min_coverage: Option<f64>,
) -> Result<Vec<Snap>, DeepStoreError> {
    let (mut store, model, mid, db) = fresh_store(scn, workers, faulted);
    let requests = build_requests(scn, &model, mid, db, k, min_coverage);
    let qids = store.query_batch(&requests)?;
    Ok(qids
        .into_iter()
        .map(|qid| {
            let r = store.results(qid).expect("published result");
            Snap {
                ranked: r
                    .top_k
                    .iter()
                    .map(|h| (h.feature_index, h.score.to_bits()))
                    .collect(),
                skipped: r.skipped,
                coverage_bits: r.coverage.to_bits(),
                degraded: r.degraded,
            }
        })
        .collect())
}

/// Accounting invariants every answered query must satisfy, fault plan
/// or not.
fn verify_accounting(scn: &Scenario, snaps: &[Snap]) -> Result<(), String> {
    check!(
        snaps.len() == scn.batch,
        "batch of {} produced {} results",
        scn.batch,
        snaps.len()
    );
    for (i, s) in snaps.iter().enumerate() {
        let cov = s.coverage();
        check!(
            s.skipped <= scn.n,
            "query {i}: skipped {} exceeds db size {}",
            s.skipped,
            scn.n
        );
        let expect_cov = (scn.n - s.skipped) as f64 / scn.n as f64;
        check!(
            s.coverage_bits == expect_cov.to_bits(),
            "query {i}: coverage {cov} != (n - skipped)/n = {expect_cov} (skipped {})",
            s.skipped
        );
        check!(
            s.degraded == (cov < 1.0),
            "query {i}: degraded flag {} disagrees with coverage {cov}",
            s.degraded
        );
        let survivors = (scn.n - s.skipped) as usize;
        check!(
            s.ranked.len() == scn.k.min(survivors),
            "query {i}: top-K length {} != min(k={}, survivors={survivors})",
            s.ranked.len(),
            scn.k
        );
        let sorted = s
            .ranked
            .windows(2)
            .all(|w| f32::from_bits(w[0].1) >= f32::from_bits(w[1].1));
        check!(sorted, "query {i}: top-K scores are not non-increasing");
    }
    Ok(())
}

/// The full chaos case: accounting + cross-parallelism determinism +
/// honest-degradation subset checks + `min_coverage` policy.
fn chaos_case(scn: &Scenario) -> Result<(), String> {
    // Phase 1: the faulted batch answers identically at every
    // parallelism and keeps its books straight.
    let mut baseline: Option<Vec<Snap>> = None;
    for workers in WORKER_COUNTS {
        let snaps = run_batch(scn, workers, scn.k, true, None)
            .map_err(|e| format!("workers {workers}: batch failed: {e}"))?;
        verify_accounting(scn, &snaps)?;
        match &baseline {
            None => baseline = Some(snaps),
            Some(base) => check!(
                base == &snaps,
                "workers {workers}: results differ from the serial run"
            ),
        }
    }
    let degraded = baseline.expect("at least one worker count ran");

    // Phase 2: honest degradation. Rank the *whole* database fault-free
    // and faulted (k = n): the faulted full ranking is the fault-free
    // ranking restricted to surviving features, and the degraded top-K
    // is its prefix.
    let clean_full = run_batch(scn, 1, scn.n as usize, false, None)
        .map_err(|e| format!("fault-free full ranking failed: {e}"))?;
    let faulted_full = run_batch(scn, 1, scn.n as usize, true, None)
        .map_err(|e| format!("faulted full ranking failed: {e}"))?;
    for i in 0..scn.batch {
        let full = &clean_full[i].ranked;
        let survivors = &faulted_full[i].ranked;
        check!(
            full.len() == scn.n as usize,
            "query {i}: fault-free full ranking has {} of {} features",
            full.len(),
            scn.n
        );
        check!(
            survivors.len() as u64 == scn.n - faulted_full[i].skipped,
            "query {i}: {} survivors but {} skipped of {}",
            survivors.len(),
            faulted_full[i].skipped,
            scn.n
        );
        check!(
            faulted_full[i].skipped == degraded[i].skipped,
            "query {i}: skipped differs between k={} and k={} passes",
            scn.n,
            scn.k
        );
        let full_pairs: HashSet<(u64, u32)> = full.iter().copied().collect();
        for &hit in survivors {
            check!(
                full_pairs.contains(&hit),
                "query {i}: degraded hit {hit:?} is absent from the fault-free ranking"
            );
        }
        let survivor_ids: HashSet<u64> = survivors.iter().map(|&(id, _)| id).collect();
        let expected: Ranked = full
            .iter()
            .copied()
            .filter(|(id, _)| survivor_ids.contains(id))
            .collect();
        check!(
            &expected == survivors,
            "query {i}: surviving features are not ranked in fault-free order"
        );
        let k_len = degraded[i].ranked.len();
        check!(
            degraded[i].ranked[..] == expected[..k_len],
            "query {i}: degraded top-K is not the prefix of the surviving ranking"
        );
    }

    // Phase 3: the min_coverage policy refuses exactly when some query
    // in the batch falls below the bar, and is invisible otherwise.
    let starved = degraded.iter().any(|s| s.coverage() < scn.required);
    match run_batch(scn, 1, scn.k, true, Some(scn.required)) {
        Ok(snaps) => {
            check!(
                !starved,
                "min_coverage {} accepted a batch with coverage below it",
                scn.required
            );
            check!(
                snaps == degraded,
                "min_coverage {} changed the answers of an accepted batch",
                scn.required
            );
        }
        Err(DeepStoreError::InsufficientCoverage { required, achieved }) => {
            check!(
                starved,
                "min_coverage {} rejected a batch that meets it",
                scn.required
            );
            check!(
                required.to_bits() == scn.required.to_bits(),
                "error echoes required {required}, policy was {}",
                scn.required
            );
            let under_bar = achieved < required;
            check!(
                under_bar,
                "rejection reports achieved {achieved} >= required {required}"
            );
        }
        Err(e) => check!(false, "min_coverage run failed with unexpected error: {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random geometry × random layered fault plan × random query
    /// batch: accounting exact, degradation honest, answers identical
    /// at parallelism 1/2/4/auto, `min_coverage` enforced.
    #[test]
    fn chaos_scan_invariants(
        (app_idx, model_seed, n, k, batch, level_idx) in
            (0usize..3, 0u64..1_000_000, 16u64..64, 1usize..7, 1usize..5, 0usize..2),
        (channels, chips_per_channel, ppb_sel) in (2usize..=4, 1usize..=2, 0usize..2),
        (perm_pct, transient_on, tr_pct, t_seed, outage_sel, p_seed) in
            (0u32..=15, any::<bool>(), 0u32..=50, 0u64..1_000_000, 0u32..4, 0u64..1_000_000),
        req_pct in 0u32..=100,
        backend in backends(),
    ) {
        let mut scn = Scenario {
            app: APPS[app_idx],
            model_seed,
            n,
            k,
            batch,
            level: LEVELS[level_idx],
            channels,
            chips_per_channel,
            pages_per_block: [8, 16][ppb_sel],
            plan: FaultPlan::none(),
            required: f64::from(req_pct) / 100.0,
            backend,
        };
        let geometry = store_config(&scn, 1).ssd.geometry;
        let mut plan = FaultPlan::random(&geometry, f64::from(perm_pct) / 100.0, p_seed);
        if transient_on {
            // max_fail <= 3 stays within the default 4-attempt retry
            // ladder, so the transient layer never costs coverage.
            plan = plan
                .transient(f64::from(tr_pct) / 100.0, t_seed)
                .transient_max_failures(1 + (t_seed % 3) as u32);
        }
        plan = match outage_sel {
            1 => plan.dead_channel((p_seed % channels as u64) as usize),
            2 => plan.dead_chip(
                (p_seed % channels as u64) as usize,
                ((p_seed >> 8) % chips_per_channel as u64) as usize,
            ),
            3 => plan.wear_threshold(1 + p_seed % 2),
            _ => plan,
        };
        scn.plan = plan;

        let desc = format!("{scn:#?}");
        run_recorded("chaos_scan_invariants", &desc, || chaos_case(&scn));
    }

    /// Transient-only fault plans, with the default retry ladder, are
    /// bit-invisible: every query matches the fault-free run exactly,
    /// with full coverage, at every parallelism setting.
    #[test]
    fn transient_faults_with_retries_are_invisible(
        (app_idx, model_seed, n, k, batch) in
            (0usize..3, 0u64..1_000_000, 16u64..48, 1usize..6, 1usize..4),
        (rate_pct, t_seed, max_fail) in (1u32..=100, 0u64..1_000_000, 1u32..=3),
        backend in backends(),
    ) {
        let scn = Scenario {
            app: APPS[app_idx],
            model_seed,
            n,
            k,
            batch,
            level: AcceleratorLevel::Ssd,
            channels: 4,
            chips_per_channel: 2,
            pages_per_block: 16,
            plan: FaultPlan::none()
                .transient(f64::from(rate_pct) / 100.0, t_seed)
                .transient_max_failures(max_fail),
            required: 1.0,
            backend,
        };
        let desc = format!("{scn:#?}");
        run_recorded("transient_faults_with_retries_are_invisible", &desc, || {
            let clean = run_batch(&scn, 1, scn.k, false, None)
                .map_err(|e| format!("fault-free run failed: {e}"))?;
            verify_accounting(&scn, &clean)?;
            for workers in WORKER_COUNTS {
                let faulted = run_batch(&scn, workers, scn.k, true, None)
                    .map_err(|e| format!("workers {workers}: transient run failed: {e}"))?;
                check!(
                    faulted == clean,
                    "workers {workers}: transient faults changed the answer"
                );
                for (i, s) in faulted.iter().enumerate() {
                    check!(
                        s.skipped == 0 && !s.degraded && s.coverage() == 1.0,
                        "workers {workers} query {i}: transient faults cost coverage \
                         (skipped {}, coverage {})",
                        s.skipped,
                        s.coverage()
                    );
                }
                // A transient plan must still satisfy any coverage bar.
                run_batch(&scn, workers, scn.k, true, Some(1.0))
                    .map_err(|e| format!("workers {workers}: min_coverage(1.0) rejected a \
                                          fully-recovered batch: {e}"))?;
            }
            Ok(())
        });
    }
}

/// Transient faults on every page recover within the retry ladder:
/// identical answers, strictly more simulated latency (the escalating
/// retry cost), and retry/recovery counters that account for the work.
#[test]
fn transient_retries_charge_latency_but_not_answers() {
    for backend in Backend::ALL {
        let model = zoo::textqa().seeded_metric(41);
        let features: Vec<Tensor> = (0..32).map(|i| model.random_feature(i)).collect();
        let probe = model.random_feature(9_001);

        let run = |faulted: bool| {
            let mut store = backend.store(DeepStoreConfig::small());
            store.disable_qc();
            let db = store.write_db(&features).unwrap();
            let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
            if faulted {
                // Every page transient-faults its first two read attempts;
                // the default 4-attempt ladder recovers all of them.
                store.inject_faults(
                    FaultPlan::none()
                        .transient(1.0, 7)
                        .transient_max_failures(2),
                );
            }
            let qid = store
                .query(QueryRequest::new(probe.clone(), mid, db).k(5))
                .unwrap();
            let r = store.results(qid).unwrap();
            (r, store.stats())
        };

        let (clean, _) = run(false);
        let (faulted, stats) = run(true);

        let pairs = |r: &deepstore::core::QueryResult| -> Ranked {
            r.top_k
                .iter()
                .map(|h| (h.feature_index, h.score.to_bits()))
                .collect()
        };
        assert_eq!(pairs(&clean), pairs(&faulted), "answers must be identical");
        assert_eq!(faulted.skipped, 0);
        assert_eq!(faulted.coverage, 1.0);
        assert!(!faulted.degraded);
        assert!(
            faulted.elapsed > clean.elapsed,
            "the retry ladder must charge simulated latency: {:?} !> {:?}",
            faulted.elapsed,
            clean.elapsed
        );
        assert!(stats.flash.read_retries > 0, "retries were counted");
        assert!(stats.flash.reads_recovered > 0, "recoveries were counted");
        assert!(stats.flash.read_retry_ns > 0, "retry stall was counted");
        assert_eq!(stats.flash.lost_pages, 0);
    }
}

/// Permanent page faults degrade answers until `recover_faults` remaps
/// the retired pages. The random plan faults pages device-wide, so a
/// remap destination can itself be faulty — each query→recover round
/// retires what the scan just tripped over, and the drive converges to
/// full coverage, bit-identical to a never-faulted store.
#[test]
fn permanent_faults_heal_after_explicit_recovery() {
    for backend in Backend::ALL {
        let model = zoo::textqa().seeded_metric(23);
        let features: Vec<Tensor> = (0..48).map(|i| model.random_feature(i)).collect();
        let probe = model.random_feature(8_101);

        let mut clean = backend.store(DeepStoreConfig::small());
        clean.disable_qc();
        let cdb = clean.write_db(&features).unwrap();
        let cmid = clean.load_model(&ModelGraph::from_model(&model)).unwrap();
        let cq = clean
            .query(QueryRequest::new(probe.clone(), cmid, cdb).k(6))
            .unwrap();
        let reference = clean.results(cq).unwrap();

        let mut store = backend.store(DeepStoreConfig::small());
        store.disable_qc();
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        let geometry = store.config().ssd.geometry;
        store.inject_faults(FaultPlan::random(&geometry, 0.25, 11));

        let q1 = store
            .query(QueryRequest::new(probe.clone(), mid, db).k(6))
            .unwrap();
        let before = store.results(q1).unwrap();
        assert!(before.degraded, "the permanent-fault plan must degrade");
        assert!(before.coverage < 1.0);

        // Recovery is explicit — a maintenance op, like GC. It only drains
        // what reads have queued, so healing is iterative: recover, re-scan
        // (which trips any faulty remap destinations), recover again.
        let mut remapped_total = 0;
        let mut healed = None;
        for _ in 0..16 {
            let report = store.recover_faults();
            assert_eq!(report.pages_lost, 0, "remappable faults lose nothing");
            remapped_total += report.pages_remapped;
            let q = store
                .query(QueryRequest::new(probe.clone(), mid, db).k(6))
                .unwrap();
            let r = store.results(q).unwrap();
            if !r.degraded {
                healed = Some(r);
                break;
            }
        }
        let after = healed.expect("recovery converges to full coverage");
        assert!(remapped_total > 0, "remap path must fire");
        assert_eq!(after.coverage, 1.0);
        let pairs = |r: &deepstore::core::QueryResult| -> Ranked {
            r.top_k
                .iter()
                .map(|h| (h.feature_index, h.score.to_bits()))
                .collect()
        };
        assert_eq!(
            pairs(&after),
            pairs(&reference),
            "healed store answers bit-identically to a never-faulted one"
        );
    }
}

/// A dead channel is an outage domain: no remap source exists, the data
/// is lost, and recovery cannot restore coverage — the store keeps
/// serving honest degraded answers instead.
#[test]
fn dead_channel_outage_stays_degraded_after_recovery() {
    for backend in Backend::ALL {
        // 256 tir features fill two blocks, so the database spans two
        // channels and a dead channel loses exactly half of it.
        let model = zoo::tir().seeded_metric(5);
        let features: Vec<Tensor> = (0..256).map(|i| model.random_feature(i)).collect();
        let mut store = backend.store(DeepStoreConfig::small());
        store.disable_qc();
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        store.inject_faults(FaultPlan::none().dead_channel(0));

        let probe = model.random_feature(7_777);
        let q1 = store
            .query(QueryRequest::new(probe.clone(), mid, db).k(8))
            .unwrap();
        let before = store.results(q1).unwrap();
        assert!(before.degraded);
        assert!(before.coverage > 0.0 && before.coverage < 1.0);

        // Outage pages have no remap source, so they never enter the
        // retirement queue: recovery is a no-op, not a resurrection.
        let report = store.recover_faults();
        assert!(report.is_empty(), "an outage has nothing to recover");

        let q2 = store.query(QueryRequest::new(probe, mid, db).k(8)).unwrap();
        let after = store.results(q2).unwrap();
        assert_eq!(
            after.coverage.to_bits(),
            before.coverage.to_bits(),
            "recovery cannot resurrect an outage domain"
        );
        assert!(after.degraded);
        assert!(store.stats().degraded_queries >= 2);
    }
}

/// Sanity for the artifact plumbing itself: a recorded case lands in
/// the chaos-seed directory with the scenario and the violation.
#[test]
fn failing_cases_are_recorded_for_ci_artifacts() {
    let dir = chaos_seed_dir();
    let path = dir.join("__plumbing_check__.txt");
    std::fs::remove_file(&path).ok();
    record_failing_case(
        "__plumbing_check__",
        "scenario { n: 42 }",
        "coverage off by one",
    );
    let recorded = std::fs::read_to_string(&path).expect("seed file written");
    assert!(recorded.contains("scenario { n: 42 }"));
    assert!(recorded.contains("coverage off by one"));
    std::fs::remove_file(&path).ok();
    let mut roundtrip = String::new();
    let _ = write!(roundtrip, "{}", dir.display());
    assert!(roundtrip.ends_with("chaos-seeds"));
}
