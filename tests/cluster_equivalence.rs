//! Scatter-gather equivalence: a replicated cluster is a layout
//! choice, not a semantic one.
//!
//! The property pinned here is the cluster's core contract: for any
//! drive count N, replication factor R, accelerator level, and
//! write-then-append history, the cluster's merged top-K — global
//! indices and score bits — is **bit-identical** to a single device
//! scanning the same features in the same order. That holds with the
//! int8 pruning cascade engaged (the default) and on the exact path.
//! The page store is a test argument: each property draws it last, so
//! a case's cluster runs on heap drives or on mmap images, and the
//! single-device reference is always a heap drive — every mmap case
//! checks heap ≡ mmap too.
//!
//! A plain test closes the loop on durability: a cluster built with
//! `create_persistent`, flushed, and reopened with `open_persistent`
//! answers bit-identically to its pre-reopen self and to the
//! single-device reference — including after losing a drive, since
//! replication survives the image round-trip too. A second pins
//! Figure 10b: N = 4 drives keep ≥ 0.7 of ideal scaling on the
//! simulated clock, with the same answers at every N.

mod common;

use common::{backends, single_device_ranking, Backend, Ranked, TempPath};
use deepstore::core::{AcceleratorLevel, ClusterQueryRequest, DeepStoreCluster, DeepStoreConfig};
use deepstore::nn::{zoo, Model, ModelGraph, Tensor};
use proptest::prelude::*;

const APPS: [&str; 3] = ["textqa", "tir", "mir"];

const LEVELS: [AcceleratorLevel; 2] = [AcceleratorLevel::Ssd, AcceleratorLevel::Channel];

#[derive(Debug, Clone)]
struct Case {
    app: &'static str,
    model_seed: u64,
    /// Features in the initial `write_db`.
    n: u64,
    /// Features appended afterwards, so partitions hold extra extents.
    appended: u64,
    k: usize,
    drives: usize,
    replicas: usize,
    level: AcceleratorLevel,
    q_seed: u64,
}

fn features_for(model: &Model, case: &Case) -> (Vec<Tensor>, Vec<Tensor>) {
    let written = (0..case.n).map(|i| model.random_feature(i)).collect();
    let appended = (0..case.appended)
        .map(|i| model.random_feature(case.n + i))
        .collect();
    (written, appended)
}

fn probe(model: &Model, case: &Case) -> Tensor {
    model.random_feature(0xE0_0000 + case.q_seed)
}

/// Single-device top-K of the same write-then-append history, as
/// comparable bits.
fn single_device_topk(case: &Case, exact: bool) -> Ranked {
    let model = zoo::by_name(case.app)
        .expect("known app")
        .seeded_metric(case.model_seed);
    let (written, appended) = features_for(&model, case);
    let mut ranked = single_device_ranking(
        DeepStoreConfig::small(),
        &model,
        (&written, &appended),
        &[probe(&model, case)],
        |req| {
            let req = req.k(case.k).level(case.level);
            if exact {
                req.exact()
            } else {
                req
            }
        },
    );
    ranked.remove(0)
}

/// Cluster top-K of the same history on `backend` drives, as
/// comparable bits keyed by the metadata-derived `global_index`.
fn cluster_topk(case: &Case, exact: bool, backend: Backend) -> Ranked {
    let model = zoo::by_name(case.app)
        .expect("known app")
        .seeded_metric(case.model_seed);
    let mut cluster = backend.cluster(case.drives, case.replicas, DeepStoreConfig::small());
    let (written, appended) = features_for(&model, case);
    let db = cluster.write_db(&written).expect("write db");
    cluster.append_db(db, &appended).expect("append db");
    let mid = cluster
        .load_model(&ModelGraph::from_model(&model))
        .expect("load model");
    let r = cluster
        .query(
            ClusterQueryRequest::new(probe(&model, case), mid, db)
                .k(case.k)
                .level(case.level)
                .exact(exact),
        )
        .expect("cluster query");
    assert_eq!(r.coverage, 1.0, "healthy cluster must cover everything");
    assert!(!r.degraded);
    r.top_k
        .iter()
        .map(|h| (h.global_index, h.hit.score.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// cluster(N, R) ≡ single device, bit for bit, on both the cascade
    /// and the exact path.
    #[test]
    fn cluster_topk_matches_single_device_bitwise(
        (app_idx, model_seed, n, appended, k, q_seed) in
            (0usize..3, 0u64..1_000_000, 1u64..80, 0u64..20, 1usize..10, 0u64..1_000_000),
        (drives, replica_sel, level_idx) in (1usize..=4, 0usize..4, 0usize..2),
        backend in backends(),
    ) {
        let case = Case {
            app: APPS[app_idx],
            model_seed,
            n: n.max(drives as u64),
            appended,
            k,
            drives,
            replicas: 1 + replica_sel % drives,
            level: LEVELS[level_idx],
            q_seed,
        };
        for exact in [false, true] {
            let reference = single_device_topk(&case, exact);
            let clustered = cluster_topk(&case, exact, backend);
            prop_assert_eq!(
                &clustered,
                &reference,
                "cluster(N={}, R={}) diverged from the single device (exact={}, case {:?})",
                case.drives,
                case.replicas,
                exact,
                case
            );
        }
    }

    /// The cascade path through the cluster equals the exact path
    /// through the cluster — pruning composes with scatter-gather.
    #[test]
    fn cluster_cascade_matches_cluster_exact(
        (model_seed, n, k, drives, q_seed) in
            (0u64..1_000_000, 4u64..64, 1usize..8, 2usize..=4, 0u64..1_000_000),
        backend in backends(),
    ) {
        let case = Case {
            app: "textqa",
            model_seed,
            n,
            appended: n / 3,
            k,
            drives,
            replicas: 2.min(drives),
            level: AcceleratorLevel::Channel,
            q_seed,
        };
        prop_assert_eq!(cluster_topk(&case, false, backend), cluster_topk(&case, true, backend));
    }
}

/// `create_persistent` → populate → `flush` → drop → `open_persistent`
/// answers bit-identically, before and after losing a drive.
#[test]
fn persistent_cluster_reopens_bit_identically() {
    let case = Case {
        app: "textqa",
        model_seed: 77,
        n: 41,
        appended: 13,
        k: 7,
        drives: 3,
        replicas: 2,
        level: AcceleratorLevel::Channel,
        q_seed: 5,
    };
    let reference = single_device_topk(&case, false);
    let dir = TempPath::new("cluster-reopen");

    let model = zoo::by_name(case.app)
        .unwrap()
        .seeded_metric(case.model_seed);
    let (written, appended) = features_for(&model, &case);
    let before = {
        let mut cluster = DeepStoreCluster::create_persistent(
            &dir,
            case.drives,
            case.replicas,
            DeepStoreConfig::small(),
        )
        .expect("create persistent cluster");
        let db = cluster.write_db(&written).unwrap();
        cluster.append_db(db, &appended).unwrap();
        let mid = cluster.load_model(&ModelGraph::from_model(&model)).unwrap();
        let r = cluster
            .query(
                ClusterQueryRequest::new(probe(&model, &case), mid, db)
                    .k(case.k)
                    .level(case.level),
            )
            .unwrap();
        cluster.flush().expect("flush cluster");
        r.top_k
            .iter()
            .map(|h| (h.global_index, h.hit.score.to_bits()))
            .collect::<Ranked>()
    };
    assert_eq!(before, reference, "persistent cluster diverged pre-reopen");

    let mut reopened = DeepStoreCluster::open_persistent(&dir).expect("reopen cluster");
    assert_eq!(reopened.drives(), case.drives);
    // Handles are dense indices, restored in manifest order: the one
    // database and one model created above come back as id 0.
    let db = deepstore::core::ClusterDbId(0);
    let mid = deepstore::core::ClusterModelId(0);
    assert_eq!(reopened.partitions(db).unwrap(), case.drives);
    assert_eq!(reopened.db_features(db).unwrap(), case.n + case.appended);
    let run = |cluster: &mut DeepStoreCluster| -> Ranked {
        let r = cluster
            .query(
                ClusterQueryRequest::new(probe(&model, &case), mid, db)
                    .k(case.k)
                    .level(case.level),
            )
            .unwrap();
        assert_eq!(r.coverage, 1.0);
        r.top_k
            .iter()
            .map(|h| (h.global_index, h.hit.score.to_bits()))
            .collect()
    };
    assert_eq!(run(&mut reopened), reference, "reopened cluster diverged");

    // Replication survives the image round-trip: kill a drive and the
    // reopened cluster still answers in full, bit-identically.
    reopened.kill_drive(0);
    assert_eq!(
        run(&mut reopened),
        reference,
        "reopened cluster lost coverage after one drive of two replicas"
    );
}

/// Figure 10b on the simulated clock: partitioning one database over N
/// drives changes no answer and divides the scan time. Drives run
/// concurrently and the cluster's `elapsed` is its slowest shard, so
/// the efficiency `t1 / (N · tN)` is deterministic and host-independent.
#[test]
fn four_drives_scale_simulated_scan_time() {
    for backend in Backend::ALL {
        let model = zoo::textqa().seeded_metric(7);
        let features: Vec<Tensor> = (0..512).map(|i| model.random_feature(i)).collect();
        let probes: Vec<Tensor> = (0..8).map(|i| model.random_feature(10_000 + i)).collect();
        let sweep = |drives: usize| -> (Ranked, u64) {
            let mut cluster = backend.cluster(drives, 1, DeepStoreConfig::small());
            let db = cluster.write_db(&features).unwrap();
            let mid = cluster.load_model(&ModelGraph::from_model(&model)).unwrap();
            let mut ranked = Ranked::new();
            let mut sim_ns = 0;
            for probe in &probes {
                let r = cluster
                    .query(ClusterQueryRequest::new(probe.clone(), mid, db).k(10))
                    .unwrap();
                assert_eq!(r.coverage, 1.0, "healthy cluster must cover everything");
                sim_ns += r.elapsed.as_nanos();
                ranked.extend(
                    r.top_k
                        .iter()
                        .map(|h| (h.global_index, h.hit.score.to_bits())),
                );
            }
            (ranked, sim_ns)
        };
        let (one, t1) = sweep(1);
        let (two, _) = sweep(2);
        let (four, t4) = sweep(4);
        assert_eq!(two, one, "N=2 diverged from N=1");
        assert_eq!(four, one, "N=4 diverged from N=1");
        let efficiency = t1 as f64 / (4 * t4) as f64;
        assert!(
            efficiency >= 0.7,
            "N=4 scaling efficiency {efficiency:.3} ({t1} vs {t4} sim-ns) below the 0.7 floor"
        );
    }
}
