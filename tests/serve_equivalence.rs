//! Concurrency-equivalence property for the serving front end.
//!
//! N clients hammer one served [`DeepStore`] over the in-process
//! channel transport, each issuing its own sequence of query batches.
//! The server is free to interleave and merge co-pending requests from
//! different clients into shared flash passes — and the property says
//! none of that is observable: every client's every query answers
//! **bit-identically** to the same request issued sequentially through
//! `DeepStore::query_batch` on a fresh store, at parallelism 1/2/4/auto
//! and with layered fault plans armed.
//!
//! Why this should hold (the argument DESIGN.md §9 spells out):
//! `query_batch` validates up front, groups by `(db, model, level)`
//! internally, and answers each request exactly as if issued alone;
//! fault outcomes are deterministic per page read; and the query cache
//! is disabled, so no cross-query state survives. Merging other
//! clients' requests into the same engine pass therefore cannot change
//! anyone's bits. (Wear-out plans are excluded — they read erase
//! counts, and nothing in the engine erases, so they would add only
//! fault-free cases; everything else in the fault model is fair game.)
//!
//! Scenario recording mirrors `tests/chaos.rs`: a failing case appends
//! its full scenario to `target/chaos-seeds/<property>.txt`.

mod common;

use common::{check, run_recorded};
use deepstore::core::serve::{channel_transport, serve, ServeConfig};
use deepstore::core::{AcceleratorLevel, DeepStore, DeepStoreConfig, ModelId, QueryRequest};
use deepstore::flash::fault::FaultPlan;
use deepstore::nn::{zoo, Model, ModelGraph, Tensor};
use deepstore_core::engine::DbId;
use deepstore_core::proto::HostClient;
use proptest::prelude::*;
use std::time::Duration;

/// Parallelism settings exercised per scenario (0 = one worker per
/// host core).
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 0];

const APPS: [&str; 3] = ["textqa", "tir", "mir"];

const LEVELS: [AcceleratorLevel; 2] = [AcceleratorLevel::Ssd, AcceleratorLevel::Channel];

/// One query's outcome reduced to exactly comparable bits.
#[derive(Debug, Clone, PartialEq)]
struct Snap {
    ranked: Vec<(u64, u32)>,
    skipped: u64,
    coverage_bits: u64,
    degraded: bool,
}

fn snap(r: &deepstore::core::QueryResult) -> Snap {
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
}

#[derive(Debug)]
struct Scenario {
    app: &'static str,
    model_seed: u64,
    n: u64,
    k: usize,
    level: AcceleratorLevel,
    clients: usize,
    batches_per_client: usize,
    reqs_per_batch: usize,
    batch_window: bool,
    plan: FaultPlan,
}

/// Builds a store with the scenario's data and (faulted) plan. Query
/// cache disabled: similarity-based caching is legitimately
/// interleaving-sensitive, so equivalence is stated for the uncached
/// engine.
fn fresh_store(scn: &Scenario, workers: usize) -> (DeepStore, Model, ModelId, DbId) {
    let model = zoo::by_name(scn.app)
        .expect("known app")
        .seeded_metric(scn.model_seed);
    let mut store = DeepStore::in_memory(DeepStoreConfig::small().with_parallelism(workers));
    store.disable_qc();
    let features: Vec<Tensor> = (0..scn.n).map(|i| model.random_feature(i)).collect();
    let db = store.write_db(&features).expect("write db");
    let mid = store
        .load_model(&ModelGraph::from_model(&model))
        .expect("load model");
    store.inject_faults(scn.plan.clone());
    (store, model, mid, db)
}

/// Deterministic probe for (client, batch, request).
fn probe(model: &Model, client: usize, batch: usize, req: usize) -> Tensor {
    model.random_feature(10_000 + (client as u64) * 1_000 + (batch as u64) * 100 + req as u64)
}

/// The requests client `c` issues, batch by batch.
fn client_requests(
    scn: &Scenario,
    model: &Model,
    mid: ModelId,
    db: DbId,
    c: usize,
) -> Vec<Vec<QueryRequest>> {
    (0..scn.batches_per_client)
        .map(|b| {
            (0..scn.reqs_per_batch)
                .map(|r| {
                    QueryRequest::new(probe(model, c, b, r), mid, db)
                        .k(scn.k)
                        .level(scn.level)
                })
                .collect()
        })
        .collect()
}

/// Sequential reference: every client's batches through the direct
/// API, one at a time, on a fresh store.
fn sequential_reference(scn: &Scenario) -> Result<Vec<Vec<Vec<Snap>>>, String> {
    let (mut store, model, mid, db) = fresh_store(scn, 1);
    let mut all = Vec::with_capacity(scn.clients);
    for c in 0..scn.clients {
        let mut batches = Vec::with_capacity(scn.batches_per_client);
        for reqs in client_requests(scn, &model, mid, db, c) {
            let qids = store
                .query_batch(&reqs)
                .map_err(|e| format!("reference batch failed for client {c}: {e}"))?;
            batches.push(
                qids.iter()
                    .map(|&qid| snap(&store.results(qid).expect("published result")))
                    .collect::<Vec<Snap>>(),
            );
        }
        all.push(batches);
    }
    Ok(all)
}

/// Concurrent run: the same requests, but N real client threads over
/// the served channel transport, merged at the server's discretion.
fn concurrent_run(scn: &Scenario, workers: usize) -> Result<Vec<Vec<Vec<Snap>>>, String> {
    let (store, model, mid, db) = fresh_store(scn, workers);
    let (transport, connector) = channel_transport();
    let handle = serve(
        transport,
        store,
        ServeConfig {
            // Slow the engine slightly and (sometimes) hold a batch
            // window so co-pending requests really do get merged.
            engine_delay: Some(Duration::from_millis(1)),
            batch_window: scn.batch_window.then(|| Duration::from_millis(2)),
            ..ServeConfig::default()
        },
    );
    let outcome: Result<Vec<Vec<Vec<Snap>>>, String> = std::thread::scope(|scope| {
        let mut joins = Vec::with_capacity(scn.clients);
        for c in 0..scn.clients {
            let conn = connector.connect().map_err(|e| format!("connect: {e}"))?;
            let batches = client_requests(scn, &model, mid, db, c);
            joins.push(scope.spawn(move || -> Result<Vec<Vec<Snap>>, String> {
                let mut host = HostClient::over(conn);
                host.hello(&format!("client-{c}"))
                    .map_err(|e| format!("client {c}: hello failed: {e}"))?;
                let mut out = Vec::with_capacity(batches.len());
                for (b, reqs) in batches.iter().enumerate() {
                    // Single-request batches go through the scalar
                    // `query` opcode so both wire paths are exercised.
                    let qids = if reqs.len() == 1 {
                        let r = &reqs[0];
                        vec![host
                            .query(&r.qfv, r.k, r.model, r.db, r.level, r.exact)
                            .map_err(|e| format!("client {c} batch {b}: query failed: {e}"))?]
                    } else {
                        host.query_batch(reqs)
                            .map_err(|e| format!("client {c} batch {b}: batch failed: {e}"))?
                    };
                    let mut snaps = Vec::with_capacity(qids.len());
                    for qid in qids {
                        let r = host
                            .get_results(qid)
                            .map_err(|e| format!("client {c} batch {b}: results failed: {e}"))?;
                        snaps.push(snap(&r));
                    }
                    out.push(snaps);
                }
                Ok(out)
            }));
        }
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .collect()
    });
    let (_store, stats) = handle.shutdown();
    let result = outcome?;
    if stats.queries_admitted != (scn.clients * scn.batches_per_client * scn.reqs_per_batch) as u64
    {
        return Err(format!(
            "server admitted {} queries, expected {}",
            stats.queries_admitted,
            scn.clients * scn.batches_per_client * scn.reqs_per_batch
        ));
    }
    Ok(result)
}

fn equivalence_case(scn: &Scenario) -> Result<(), String> {
    let reference = sequential_reference(scn)?;
    for workers in WORKER_COUNTS {
        let concurrent = concurrent_run(scn, workers)?;
        for c in 0..scn.clients {
            for b in 0..scn.batches_per_client {
                check!(
                    concurrent[c][b] == reference[c][b],
                    "workers {workers}: client {c} batch {b} differs from the \
                     sequential reference\n  sequential: {:?}\n  concurrent: {:?}",
                    reference[c][b],
                    concurrent[c][b]
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// N concurrent clients over the channel transport answer
    /// bit-identically to sequential `query_batch`, at parallelism
    /// 1/2/4/auto, with and without armed fault plans.
    #[test]
    fn concurrent_clients_match_sequential_batches(
        (app_idx, model_seed, n, k, level_idx) in
            (0usize..3, 0u64..1_000_000, 16u64..48, 1usize..6, 0usize..2),
        (clients, batches_per_client, reqs_per_batch, window) in
            (2usize..5, 1usize..3, 1usize..4, any::<bool>()),
        (perm_pct, transient_on, tr_pct, t_seed, outage_sel, p_seed) in
            (0u32..=10, any::<bool>(), 0u32..=50, 0u64..1_000_000, 0u32..3, 0u64..1_000_000),
    ) {
        let mut scn = Scenario {
            app: APPS[app_idx],
            model_seed,
            n,
            k,
            level: LEVELS[level_idx],
            clients,
            batches_per_client,
            reqs_per_batch,
            batch_window: window,
            plan: FaultPlan::none(),
        };
        let geometry = DeepStoreConfig::small().ssd.geometry;
        let mut plan = FaultPlan::random(&geometry, f64::from(perm_pct) / 100.0, p_seed);
        if transient_on {
            // max_fail <= 3 stays within the default retry ladder, so
            // transient faults recover identically however requests
            // are grouped into flash passes.
            plan = plan
                .transient(f64::from(tr_pct) / 100.0, t_seed)
                .transient_max_failures(1 + (t_seed % 3) as u32);
        }
        plan = match outage_sel {
            1 => plan.dead_channel((p_seed % geometry.channels as u64) as usize),
            2 => plan.dead_chip(
                (p_seed % geometry.channels as u64) as usize,
                ((p_seed >> 8) % geometry.chips_per_channel as u64) as usize,
            ),
            _ => plan,
        };
        scn.plan = plan;

        let desc = format!("{scn:#?}");
        run_recorded("concurrent_clients_match_sequential_batches", &desc, || {
            equivalence_case(&scn)
        });
    }
}

/// Fault-free pinned case (fast, non-property): two clients, merged
/// windows, every parallelism — a smoke version of the property that
/// always runs even if the proptest case budget shrinks.
#[test]
fn two_client_equivalence_fault_free() {
    let scn = Scenario {
        app: "textqa",
        model_seed: 9,
        n: 32,
        k: 4,
        level: AcceleratorLevel::Ssd,
        clients: 2,
        batches_per_client: 2,
        reqs_per_batch: 3,
        batch_window: true,
        plan: FaultPlan::none(),
    };
    let desc = format!("{scn:#?}");
    run_recorded("two_client_equivalence_fault_free", &desc, || {
        equivalence_case(&scn)
    });
}
