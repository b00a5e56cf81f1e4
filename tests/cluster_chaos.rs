//! Deterministic chaos harness for the replicated multi-drive cluster —
//! the `tests/chaos.rs` machinery lifted one level up, from a single
//! drive's fault pipeline to scatter-gather across a fleet.
//!
//! Each property draws a random cluster scenario — SSD geometry, zoo
//! model, database size (written, then *appended*, so partitions hold
//! multiple extents), drive count N, replication factor R, and a
//! layered fault plan on a victim drive (permanent page faults,
//! retry-safe transients fleet-wide, dead channel/chip, a whole-device
//! outage, or an administrative kill) and, last, the drives' page store
//! (heap or mmap images) — and pins the cluster contract:
//!
//! * scatter-gather answers are bit-identical at parallelism 1/2/4/auto
//!   and, at full coverage, bit-identical to a single heap device
//!   scanning the same write order (global indices and score bits);
//! * coverage accounting is exact: per-partition `covered + skipped`
//!   sums to the database size and `coverage == covered / total`;
//! * coverage stays 1.0 while fewer than R replicas of any partition
//!   are lost — one dead device never degrades an R >= 2 cluster;
//! * `rebalance()` drops dead replicas, re-replicates from surviving
//!   copies onto healthy drives, and restores the replication factor
//!   whenever a healthy non-hosting drive exists.
//!
//! Failing scenarios are appended to `target/chaos-seeds/<property>.txt`
//! (no shrinking; cases are small by construction) for CI artifact
//! upload, exactly like the single-drive chaos suite.

mod common;

use common::{backends, check, run_recorded, single_device_ranking, Backend, Ranked};
use deepstore::core::{
    AcceleratorLevel, ClusterDbId, ClusterModelId, ClusterQueryRequest, ClusterQueryResult,
    DeepStoreCluster, DeepStoreConfig,
};
use deepstore::flash::fault::FaultPlan;
use deepstore::nn::{zoo, Model, ModelGraph, Tensor};
use proptest::prelude::*;

/// Parallelism settings exercised per scenario. `0` means "one worker
/// per host core" (auto).
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 0];

const APPS: [&str; 3] = ["textqa", "tir", "mir"];

const LEVELS: [AcceleratorLevel; 2] = [AcceleratorLevel::Ssd, AcceleratorLevel::Channel];

/// How the scenario damages the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outage {
    /// No damage beyond the optional transient layer.
    None,
    /// Administrative kill: queries skip the drive without probing.
    Kill,
    /// Every channel dead — the device answers probes with failures.
    DeadDevice,
    /// One channel dead on the victim.
    DeadChannel,
    /// One chip dead on the victim.
    DeadChip,
    /// Random permanent page faults on the victim (remappable).
    Permanent,
}

/// A fully-derived cluster chaos case.
#[derive(Debug)]
struct Scenario {
    app: &'static str,
    model_seed: u64,
    /// Features in the initial `write_db`.
    n: u64,
    /// Features appended afterwards (multi-extent partitions).
    appended: u64,
    k: usize,
    drives: usize,
    replicas: usize,
    level: AcceleratorLevel,
    channels: usize,
    chips_per_channel: usize,
    pages_per_block: usize,
    victim: usize,
    outage: Outage,
    /// Fleet-wide retry-safe transient layer.
    transient: Option<(f64, u64, u32)>,
    perm_seed: u64,
    backend: Backend,
}

impl Scenario {
    fn total(&self) -> u64 {
        self.n + self.appended
    }
}

fn store_config(scn: &Scenario, workers: usize) -> DeepStoreConfig {
    let mut cfg = DeepStoreConfig::small().with_parallelism(workers);
    cfg.ssd.geometry.channels = scn.channels;
    cfg.ssd.geometry.chips_per_channel = scn.chips_per_channel;
    cfg.ssd.geometry.pages_per_block = scn.pages_per_block;
    cfg
}

fn features_for(model: &Model, scn: &Scenario) -> (Vec<Tensor>, Vec<Tensor>) {
    let written = (0..scn.n).map(|i| model.random_feature(i)).collect();
    let appended = (0..scn.appended)
        .map(|i| model.random_feature(scn.n + i))
        .collect();
    (written, appended)
}

/// Builds the cluster (write + append so partitions straddle), loads
/// the model, then applies the scenario's damage.
fn fresh_cluster(
    scn: &Scenario,
    workers: usize,
    damaged: bool,
) -> (DeepStoreCluster, Model, ClusterModelId, ClusterDbId) {
    let model = zoo::by_name(scn.app)
        .expect("known app")
        .seeded_metric(scn.model_seed);
    let mut cluster = scn
        .backend
        .cluster(scn.drives, scn.replicas, store_config(scn, workers));
    let (written, appended) = features_for(&model, scn);
    let db = cluster.write_db(&written).expect("write db");
    cluster.append_db(db, &appended).expect("append db");
    let mid = cluster
        .load_model(&ModelGraph::from_model(&model))
        .expect("load model");
    if damaged {
        apply_damage(&mut cluster, scn);
    }
    (cluster, model, mid, db)
}

fn apply_damage(cluster: &mut DeepStoreCluster, scn: &Scenario) {
    let geometry = store_config(scn, 1).ssd.geometry;
    if let Some((rate, seed, max_fail)) = scn.transient {
        // Retry-safe (max_fail <= 3 within the default 4-attempt
        // ladder): costs latency, never coverage — on every drive.
        for d in 0..scn.drives {
            cluster.inject_faults(
                d,
                FaultPlan::none()
                    .transient(rate, seed ^ d as u64)
                    .transient_max_failures(max_fail),
            );
        }
    }
    match scn.outage {
        Outage::None => {}
        Outage::Kill => cluster.kill_drive(scn.victim),
        Outage::DeadDevice => {
            cluster.inject_faults(scn.victim, FaultPlan::dead_device(&geometry));
        }
        Outage::DeadChannel => {
            cluster.inject_faults(
                scn.victim,
                FaultPlan::none().dead_channel(scn.perm_seed as usize % scn.channels),
            );
        }
        Outage::DeadChip => {
            cluster.inject_faults(
                scn.victim,
                FaultPlan::none().dead_chip(
                    scn.perm_seed as usize % scn.channels,
                    (scn.perm_seed >> 8) as usize % scn.chips_per_channel,
                ),
            );
        }
        Outage::Permanent => {
            cluster.inject_faults(scn.victim, FaultPlan::random(&geometry, 0.2, scn.perm_seed));
        }
    }
}

fn probe(model: &Model, i: u64) -> Tensor {
    model.random_feature(50_000 + i)
}

/// One cluster query's outcome, reduced to exactly comparable bits.
#[derive(Debug, Clone, PartialEq)]
struct Snap {
    ranked: Ranked,
    coverage_bits: u64,
    degraded: bool,
    /// Per partition: `(serving drive, covered, skipped, failovers)`.
    parts: Vec<(Option<usize>, u64, u64, u32)>,
}

impl Snap {
    fn coverage(&self) -> f64 {
        f64::from_bits(self.coverage_bits)
    }

    fn of(r: &ClusterQueryResult) -> Snap {
        Snap {
            ranked: r
                .top_k
                .iter()
                .map(|h| (h.global_index, h.hit.score.to_bits()))
                .collect(),
            coverage_bits: r.coverage.to_bits(),
            degraded: r.degraded,
            parts: r
                .partitions
                .iter()
                .map(|p| (p.drive, p.covered, p.skipped, p.failovers))
                .collect(),
        }
    }
}

fn run_cluster_batch(
    scn: &Scenario,
    workers: usize,
    damaged: bool,
    batch: u64,
) -> Result<Vec<Snap>, String> {
    let (mut cluster, model, mid, db) = fresh_cluster(scn, workers, damaged);
    let requests: Vec<ClusterQueryRequest> = (0..batch)
        .map(|i| {
            ClusterQueryRequest::new(probe(&model, i), mid, db)
                .k(scn.k)
                .level(scn.level)
        })
        .collect();
    let results = cluster
        .query_batch(&requests)
        .map_err(|e| format!("workers {workers}: cluster batch failed: {e}"))?;
    Ok(results.iter().map(Snap::of).collect())
}

/// The single-device reference: same model, same write order, one
/// drive. Returns the full ranking (k = total) as comparable bits.
fn single_device_full_ranking(scn: &Scenario, batch: u64) -> Vec<Ranked> {
    let model = zoo::by_name(scn.app)
        .expect("known app")
        .seeded_metric(scn.model_seed);
    let (written, appended) = features_for(&model, scn);
    let probes: Vec<Tensor> = (0..batch).map(|i| probe(&model, i)).collect();
    single_device_ranking(
        store_config(scn, 1),
        &model,
        (&written, &appended),
        &probes,
        |req| req.k(scn.total() as usize).level(scn.level),
    )
}

/// Per-partition lengths implied by the contiguous-chunk split of the
/// write followed by the append.
fn partition_lens(scn: &Scenario) -> Vec<u64> {
    let chunk = |m: u64, p: u64| m / scn.drives as u64 + u64::from(p < m % scn.drives as u64);
    (0..scn.drives as u64)
        .map(|p| chunk(scn.n, p) + chunk(scn.appended, p))
        .collect()
}

/// Accounting invariants every answered cluster query must satisfy.
fn verify_accounting(scn: &Scenario, snaps: &[Snap], reference: &[Ranked]) -> Result<(), String> {
    let lens = partition_lens(scn);
    for (qi, s) in snaps.iter().enumerate() {
        check!(
            s.parts.len() == scn.drives,
            "query {qi}: {} partition scans for {} partitions",
            s.parts.len(),
            scn.drives
        );
        let mut covered_total = 0u64;
        let mut offerable = 0u64;
        for (pi, &(drive, covered, skipped, _failovers)) in s.parts.iter().enumerate() {
            check!(
                covered + skipped == lens[pi],
                "query {qi} partition {pi}: covered {covered} + skipped {skipped} != len {}",
                lens[pi]
            );
            check!(
                drive.is_some() || covered == 0,
                "query {qi} partition {pi}: no serving drive but covered {covered}"
            );
            covered_total += covered;
            offerable += covered.min(scn.k as u64);
        }
        let cov = covered_total as f64 / scn.total() as f64;
        check!(
            s.coverage_bits == cov.to_bits(),
            "query {qi}: coverage {} != covered/total = {cov}",
            s.coverage()
        );
        check!(
            s.degraded == (covered_total < scn.total()),
            "query {qi}: degraded flag {} disagrees with covered {covered_total}/{}",
            s.degraded,
            scn.total()
        );
        check!(
            s.ranked.len() as u64 == offerable.min(scn.k as u64),
            "query {qi}: top-K length {} != min(k={}, offerable={offerable})",
            s.ranked.len(),
            scn.k
        );
        // Total order: score descending, global index ascending on ties.
        let sorted = s.ranked.windows(2).all(|w| {
            let (a, b) = (f32::from_bits(w[0].1), f32::from_bits(w[1].1));
            a > b || (a == b && w[0].0 < w[1].0)
        });
        check!(sorted, "query {qi}: merged top-K violates the total order");
        // Honest hits: every merged hit appears in the single-device
        // full ranking with the same score bits at the same global
        // index — never an invented or re-keyed hit.
        let full: std::collections::HashSet<(u64, u32)> = reference[qi].iter().copied().collect();
        for &hit in &s.ranked {
            check!(
                full.contains(&hit),
                "query {qi}: cluster hit {hit:?} absent from the single-device ranking"
            );
        }
        // Full coverage means the answer IS the single-device top-K.
        if s.coverage() == 1.0 {
            check!(
                s.ranked[..] == reference[qi][..s.ranked.len()],
                "query {qi}: full-coverage answer differs from the single-device scan"
            );
        }
    }
    Ok(())
}

/// Failovers a single whole-device outage must cause per query:
/// replicas are tried in order and the first full-coverage scan wins,
/// so only the partition whose *primary* replica (drive `p`) is the
/// victim ever routes around it — partitions where the victim holds a
/// secondary copy never probe it.
fn expected_failovers(scn: &Scenario, p: usize) -> usize {
    usize::from(p == scn.victim)
}

/// The full cluster chaos case.
fn cluster_case(scn: &Scenario) -> Result<(), String> {
    let batch = 2u64;
    let reference = single_device_full_ranking(scn, batch);

    // Phase 1: the healthy cluster equals the single-device scan,
    // bit-identically, at every parallelism.
    let mut healthy: Option<Vec<Snap>> = None;
    for workers in WORKER_COUNTS {
        let snaps = run_cluster_batch(scn, workers, false, batch)?;
        verify_accounting(scn, &snaps, &reference)?;
        for (qi, s) in snaps.iter().enumerate() {
            check!(
                s.coverage() == 1.0 && !s.degraded,
                "query {qi}: healthy cluster below full coverage ({})",
                s.coverage()
            );
        }
        match &healthy {
            None => healthy = Some(snaps),
            Some(base) => check!(
                base == &snaps,
                "workers {workers}: healthy results differ from the serial run"
            ),
        }
    }

    // Phase 2: the damaged cluster keeps its books straight, answers
    // identically at every parallelism, and — while fewer than R
    // replicas of every partition are lost — stays at coverage 1.0
    // with the exact single-device answer.
    let mut damaged: Option<Vec<Snap>> = None;
    for workers in WORKER_COUNTS {
        let snaps = run_cluster_batch(scn, workers, true, batch)?;
        verify_accounting(scn, &snaps, &reference)?;
        match &damaged {
            None => damaged = Some(snaps),
            Some(base) => check!(
                base == &snaps,
                "workers {workers}: damaged results differ from the serial run"
            ),
        }
    }
    let damaged = damaged.expect("at least one worker count ran");
    let whole_device = matches!(scn.outage, Outage::Kill | Outage::DeadDevice);
    if whole_device && scn.replicas >= 2 {
        for (qi, s) in damaged.iter().enumerate() {
            check!(
                s.coverage() == 1.0 && !s.degraded,
                "query {qi}: lost 1 < R = {} replicas but coverage fell to {}",
                scn.replicas,
                s.coverage()
            );
            check!(
                s.ranked[..] == reference[qi][..s.ranked.len()],
                "query {qi}: failover changed the answer"
            );
            let failovers: u32 = s.parts.iter().map(|&(_, _, _, f)| f).sum();
            let expected: usize = (0..scn.drives).map(|p| expected_failovers(scn, p)).sum();
            check!(
                failovers as usize == expected,
                "query {qi}: {failovers} failovers, expected {expected}"
            );
            for (pi, &(drive, _, _, _)) in s.parts.iter().enumerate() {
                check!(
                    drive != Some(scn.victim),
                    "query {qi} partition {pi}: still served by the dead drive"
                );
            }
        }
    }
    if scn.outage == Outage::None && scn.transient.is_some() {
        // Retry-safe transients are invisible at the cluster level too.
        check!(
            damaged == healthy.expect("phase 1 ran"),
            "retry-safe transient faults changed the cluster's answers"
        );
    }

    // Phase 3: rebalance drops dead replicas, re-replicates, and the
    // cluster answers identically across parallelism afterwards —
    // bit-identical to the single-device scan when replication
    // recovered fully.
    let (mut cluster, model, mid, db) = fresh_cluster(scn, 1, true);
    let report = cluster
        .rebalance()
        .map_err(|e| format!("rebalance failed: {e}"))?;
    check!(
        report.partitions == scn.drives as u64,
        "rebalance saw {} partitions, cluster has {}",
        report.partitions,
        scn.drives
    );
    check!(
        report.min_replication <= report.max_replication,
        "rebalance reports min {} > max {}",
        report.min_replication,
        report.max_replication
    );
    check!(
        report.re_replicated == 0 || report.moved_bytes > 0,
        "{} re-replications moved no bytes",
        report.re_replicated
    );
    if whole_device && scn.drives > scn.replicas {
        // A healthy non-hosting drive exists for every partition the
        // victim held: replication must come back to R.
        check!(
            report.fully_replicated(scn.replicas),
            "rebalance left replication at {} (target {}): {report:?}",
            report.min_replication,
            scn.replicas
        );
        let replication = cluster
            .replication(db)
            .map_err(|e| format!("replication query failed: {e}"))?;
        check!(
            replication.iter().all(|&r| r == scn.replicas),
            "per-partition replication {replication:?} != {} everywhere",
            scn.replicas
        );
    }
    if report.fully_replicated(scn.replicas) {
        let requests: Vec<ClusterQueryRequest> = (0..batch)
            .map(|i| {
                ClusterQueryRequest::new(probe(&model, i), mid, db)
                    .k(scn.k)
                    .level(scn.level)
            })
            .collect();
        let results = cluster
            .query_batch(&requests)
            .map_err(|e| format!("post-rebalance batch failed: {e}"))?;
        let snaps: Vec<Snap> = results.iter().map(Snap::of).collect();
        verify_accounting(scn, &snaps, &reference)?;
        for (qi, s) in snaps.iter().enumerate() {
            check!(
                s.coverage() == 1.0,
                "query {qi}: coverage {} after a full rebalance",
                s.coverage()
            );
            check!(
                s.ranked[..] == reference[qi][..s.ranked.len()],
                "query {qi}: post-rebalance answer differs from the single-device scan"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random geometry × N drives × R replicas × layered fault plans:
    /// exact coverage accounting, bit-identical scatter-gather at
    /// parallelism 1/2/4/auto, coverage 1.0 while fewer than R replicas
    /// are lost, and post-rebalance restoration of the replication
    /// factor.
    #[test]
    fn cluster_chaos_invariants(
        (app_idx, model_seed, n, appended, k, level_idx) in
            (0usize..3, 0u64..1_000_000, 12u64..40, 0u64..14, 1usize..7, 0usize..2),
        (drives, replica_sel, channels, chips_per_channel, ppb_sel) in
            (2usize..=4, 0usize..3, 2usize..=4, 1usize..=2, 0usize..2),
        (victim_sel, outage_sel, transient_on, tr_pct, t_seed, perm_seed) in
            (0usize..4, 0usize..6, any::<bool>(), 1u32..=40, 0u64..1_000_000, 0u64..1_000_000),
        backend in backends(),
    ) {
        let replicas = 1 + replica_sel % drives.min(3);
        let scn = Scenario {
            app: APPS[app_idx],
            model_seed,
            n: n.max(drives as u64),
            appended,
            k,
            drives,
            replicas,
            level: LEVELS[level_idx],
            channels,
            chips_per_channel,
            pages_per_block: [8, 16][ppb_sel],
            victim: victim_sel % drives,
            outage: [
                Outage::None,
                Outage::Kill,
                Outage::DeadDevice,
                Outage::DeadChannel,
                Outage::DeadChip,
                Outage::Permanent,
            ][outage_sel],
            transient: transient_on
                .then(|| (f64::from(tr_pct) / 100.0, t_seed, 1 + (t_seed % 3) as u32)),
            perm_seed,
            backend,
        };
        let desc = format!("{scn:#?}");
        run_recorded("cluster_chaos_invariants", &desc, || cluster_case(&scn));
    }
}

/// The acceptance scenario, pinned as a plain test: a 4-drive, 2-way
/// replicated cluster survives a *full* device outage with coverage 1.0
/// and a bit-identical top-K at parallelism 1, 2, 4 and auto, and
/// `rebalance()` restores 2x replication.
#[test]
fn four_drive_cluster_survives_dead_device_at_full_coverage() {
    for backend in Backend::ALL {
        let scn = Scenario {
            app: "textqa",
            model_seed: 4242,
            n: 37,
            appended: 11,
            k: 6,
            drives: 4,
            replicas: 2,
            level: AcceleratorLevel::Channel,
            channels: 4,
            chips_per_channel: 2,
            pages_per_block: 16,
            victim: 1,
            outage: Outage::DeadDevice,
            transient: None,
            perm_seed: 7,
            backend,
        };
        let desc = format!("{scn:#?}");
        run_recorded(
            "four_drive_cluster_survives_dead_device_at_full_coverage",
            &desc,
            || {
                let reference = single_device_full_ranking(&scn, 2);
                let mut base: Option<Vec<Snap>> = None;
                for workers in WORKER_COUNTS {
                    let snaps = run_cluster_batch(&scn, workers, true, 2)?;
                    verify_accounting(&scn, &snaps, &reference)?;
                    for (qi, s) in snaps.iter().enumerate() {
                        check!(
                            s.coverage() == 1.0 && !s.degraded,
                            "query {qi} workers {workers}: coverage {} after losing one of two \
                             replicas",
                            s.coverage()
                        );
                        check!(
                            s.ranked[..] == reference[qi][..s.ranked.len()],
                            "query {qi} workers {workers}: answer differs from the single-device scan"
                        );
                    }
                    match &base {
                        None => base = Some(snaps),
                        Some(b) => check!(b == &snaps, "workers {workers}: answers differ"),
                    }
                }
                // The administrative-kill flavor of the same outage behaves
                // identically (same coverage, same bits, same failovers).
                let kill_scn = Scenario {
                    outage: Outage::Kill,
                    ..scn
                };
                let killed = run_cluster_batch(&kill_scn, 1, true, 2)?;
                check!(
                    Some(&killed) == base.as_ref(),
                    "kill_drive and a dead-device fault plan disagree"
                );

                let (mut cluster, _, _, db) = fresh_cluster(&scn, 1, true);
                let report = cluster.rebalance().map_err(|e| format!("rebalance: {e}"))?;
                check!(
                    report.dropped_replicas == 2 && report.re_replicated == 2,
                    "dead device drops and re-replicates its 2 hosted replicas, got {report:?}"
                );
                check!(
                    report.fully_replicated(2),
                    "replication not restored to 2: {report:?}"
                );
                check!(report.moved_bytes > 0, "re-replication moved no bytes");
                let replication = cluster.replication(db).map_err(|e| e.to_string())?;
                check!(
                    replication == vec![2; 4],
                    "per-partition replication {replication:?} != 2 everywhere"
                );
                Ok(())
            },
        );
    }
}

/// Coverage semantics when R replicas ARE lost: killing both drives
/// that hold a partition's copies degrades honestly — exact coverage,
/// a `None` serving drive for the dead partition, and the surviving
/// features ranked in single-device order.
#[test]
fn losing_all_replicas_of_a_partition_degrades_honestly() {
    for backend in Backend::ALL {
        let scn = Scenario {
            app: "tir",
            model_seed: 99,
            n: 30,
            appended: 9,
            k: 5,
            drives: 3,
            replicas: 2,
            level: AcceleratorLevel::Ssd,
            channels: 2,
            chips_per_channel: 2,
            pages_per_block: 8,
            victim: 0,
            outage: Outage::Kill,
            transient: None,
            perm_seed: 0,
            backend,
        };
        let desc = format!("{scn:#?}");
        run_recorded(
            "losing_all_replicas_of_a_partition_degrades_honestly",
            &desc,
            || {
                let reference = single_device_full_ranking(&scn, 1);
                let (mut cluster, model, mid, db) = fresh_cluster(&scn, 1, true);
                // Partition 0's replicas live on drives 0 and 1; killing
                // both loses it entirely. Partitions 1 (drives 1, 2) and 2
                // (drives 2, 0) keep their copies on drive 2.
                cluster.kill_drive(1);
                let r = cluster
                    .query(
                        ClusterQueryRequest::new(probe(&model, 0), mid, db)
                            .k(scn.k)
                            .level(scn.level),
                    )
                    .map_err(|e| e.to_string())?;
                let s = Snap::of(&r);
                verify_accounting(&scn, std::slice::from_ref(&s), &reference)?;
                let lens = partition_lens(&scn);
                let expect_cov = (scn.total() - lens[0]) as f64 / scn.total() as f64;
                check!(
                    s.coverage_bits == expect_cov.to_bits(),
                    "coverage {} != (total - partition 0)/total = {expect_cov}",
                    s.coverage()
                );
                check!(s.degraded, "losing a whole partition must degrade");
                check!(
                    s.parts[0].0.is_none() && s.parts[0].2 == lens[0],
                    "dead partition must report no serving drive and all features skipped: {:?}",
                    s.parts[0]
                );
                // Rebalance cannot resurrect it — and says so.
                let report = cluster.rebalance().map_err(|e| e.to_string())?;
                check!(
                    report.unrecoverable == 1,
                    "exactly partition 0 is unrecoverable: {report:?}"
                );
                check!(
                    !report.fully_replicated(scn.replicas),
                    "a lost partition cannot count as fully replicated"
                );
                Ok(())
            },
        );
    }
}

/// Cluster telemetry counts what actually happened (obs builds only).
#[test]
fn cluster_metrics_account_for_failovers_and_rebalance() {
    for backend in Backend::ALL {
        let scn = Scenario {
            app: "textqa",
            model_seed: 11,
            n: 24,
            appended: 6,
            k: 4,
            drives: 3,
            replicas: 2,
            level: AcceleratorLevel::Channel,
            channels: 2,
            chips_per_channel: 1,
            pages_per_block: 8,
            victim: 2,
            outage: Outage::Kill,
            transient: None,
            perm_seed: 0,
            backend,
        };
        let (mut cluster, model, mid, db) = fresh_cluster(&scn, 1, true);
        let r = cluster
            .query(
                ClusterQueryRequest::new(probe(&model, 0), mid, db)
                    .k(scn.k)
                    .level(scn.level),
            )
            .unwrap();
        assert_eq!(r.coverage, 1.0);
        let report = cluster.rebalance().unwrap();
        assert!(report.fully_replicated(2));
        let snap = cluster.metrics_snapshot();
        let counter = |name: &str| snap.counter(name).unwrap_or(0);
        assert_eq!(counter("cluster.queries"), 1);
        assert!(counter("cluster.replica_failovers") >= 1);
        assert_eq!(counter("cluster.rebalances"), 1);
        assert!(counter("cluster.rebalance.moved_bytes") > 0);
        // Fleet metrics fold per-drive engine counters on top.
        let fleet = cluster.fleet_metrics();
        assert!(fleet.counters.len() >= snap.counters.len());
    }
}
