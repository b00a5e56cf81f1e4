//! Integration tests for the wire protocol and the serve engine's
//! scheduler on a simulated clock.

use deepstore::core::proto::{
    decode_command, decode_response, encode_command, Command, CommandChannel, Device, HostClient,
    ProtoError, Response, PROTOCOL_VERSION,
};
use deepstore::core::serve::{
    channel_transport, serve, simulate, QuotaConfig, ServeClock, ServeConfig, Simulation,
};
use deepstore::core::{
    AcceleratorLevel, DbId, DeepStore, DeepStoreConfig, DeepStoreError, ModelId, QueryCacheConfig,
    QueryId, QueryRequest,
};
use deepstore::flash::fault::FaultPlan;
use deepstore::flash::FlashError;
use deepstore::nn::{zoo, ModelGraph, Tensor};
use proptest::prelude::*;
use std::time::Duration;

#[test]
fn full_session_over_the_wire_matches_direct_api() {
    let model = zoo::tir().seeded_metric(12);
    let features: Vec<Tensor> = (0..48).map(|i| model.random_feature(i)).collect();
    let probe = model.random_feature(7); // duplicate of feature 7

    // Direct API.
    let mut direct = DeepStore::in_memory(DeepStoreConfig::small());
    direct.disable_qc();
    let db = direct.write_db(&features).unwrap();
    let mid = direct.load_model(&ModelGraph::from_model(&model)).unwrap();
    let qid = direct
        .query(QueryRequest::new(probe.clone(), mid, db).k(5))
        .unwrap();
    let direct_result = direct.results(qid).unwrap();

    // Wire protocol.
    let mut device = Device::new(DeepStoreConfig::small());
    device.store_mut().disable_qc();
    let mut host = HostClient::new(&mut device);
    let wdb = host.write_db(&features).unwrap();
    let wmid = host.load_model(&ModelGraph::from_model(&model)).unwrap();
    let wqid = host
        .query(&probe, 5, wmid, wdb, AcceleratorLevel::Channel, false)
        .unwrap();
    let wire_result = host.get_results(wqid).unwrap();

    let direct_ids: Vec<u64> = direct_result
        .top_k
        .iter()
        .map(|h| h.feature_index)
        .collect();
    let wire_ids: Vec<u64> = wire_result.top_k.iter().map(|h| h.feature_index).collect();
    assert_eq!(direct_ids, wire_ids);
    assert_eq!(direct_result.elapsed, wire_result.elapsed);
}

/// One failing Table 2 call, issued alike through the local API and
/// through a [`HostClient`].
enum Call {
    ReadDb(DbId),
    Query(QueryRequest),
    GetResults(QueryId),
}

impl Call {
    fn local(&self, store: &mut DeepStore) -> DeepStoreError {
        match self {
            Call::ReadDb(db) => store.read_db(*db, 0, 1).map(drop),
            Call::Query(req) => store.query_batch(std::slice::from_ref(req)).map(drop),
            Call::GetResults(id) => store.results(*id).map(drop),
        }
        .unwrap_err()
    }

    fn wire<C: CommandChannel>(&self, host: &mut HostClient<C>) -> ProtoError {
        match self {
            Call::ReadDb(db) => host.read_db(*db, 0, 1).map(drop),
            Call::Query(req) => host.query_batch(std::slice::from_ref(req)).map(drop),
            Call::GetResults(id) => host.get_results(*id).map(drop),
        }
        .unwrap_err()
    }
}

/// Whether a failing call returned the error its table row names.
type Expect = fn(&DeepStoreError) -> bool;

/// A store holding a textqa database on a dead channel 0 (so full
/// coverage is out of reach) and a reid database, both models loaded,
/// plus one call per failure the local API can return, each with the
/// error it must produce.
fn failing_calls() -> (DeepStore, Vec<(Call, Expect)>) {
    let textqa = zoo::textqa().seeded_metric(5);
    let reid = zoo::reid().seeded(3);
    let mut store = DeepStore::in_memory(DeepStoreConfig::small());
    store.disable_qc();
    let features: Vec<Tensor> = (0..24).map(|i| textqa.random_feature(i)).collect();
    let db = store.write_db(&features).unwrap();
    let features: Vec<Tensor> = (0..4).map(|i| reid.random_feature(i)).collect();
    let reid_db = store.write_db(&features).unwrap();
    let mid = store.load_model(&ModelGraph::from_model(&textqa)).unwrap();
    let reid_mid = store.load_model(&ModelGraph::from_model(&reid)).unwrap();
    store.inject_faults(FaultPlan::none().dead_channel(0));
    let calls: Vec<(Call, Expect)> = vec![
        (Call::ReadDb(DbId(99)), |e| {
            *e == DeepStoreError::Flash(FlashError::UnknownDb(99))
        }),
        (
            Call::Query(QueryRequest::new(
                textqa.random_feature(1),
                ModelId(999),
                db,
            )),
            |e| *e == DeepStoreError::UnknownModel(ModelId(999)),
        ),
        (Call::GetResults(QueryId(77)), |e| {
            *e == DeepStoreError::UnknownQuery(QueryId(77))
        }),
        (
            Call::Query(QueryRequest::new(Tensor::random(vec![7], 1.0, 0), mid, db)),
            |e| {
                matches!(
                    e,
                    DeepStoreError::Flash(FlashError::SizeMismatch { found: 28, .. })
                )
            },
        ),
        (
            Call::Query(
                QueryRequest::new(reid.random_feature(0), reid_mid, reid_db)
                    .level(AcceleratorLevel::Chip),
            ),
            |e| matches!(e, DeepStoreError::LevelUnsupported { model, .. } if model == "reid"),
        ),
        (
            Call::Query(QueryRequest::new(textqa.random_feature(900), mid, db).min_coverage(1.0)),
            |e| {
                matches!(e, DeepStoreError::InsufficientCoverage { required, achieved }
                if *required == 1.0 && *achieved < 1.0)
            },
        ),
    ];
    (store, calls)
}

/// Every failure the local API can return comes back over the wire as
/// an equal `DeepStoreError`, through a direct device and through a
/// served connection; a served connection's admission rejections and a
/// skewed `hello` come back typed too.
#[test]
fn wire_errors_equal_local_errors() {
    let (mut store, calls) = failing_calls();
    let mut device = Device::with_store(failing_calls().0);
    let mut direct = HostClient::new(&mut device);
    let (transport, connector) = channel_transport();
    let handle = serve(transport, failing_calls().0, ServeConfig::default());
    let mut served = HostClient::over(connector.connect().unwrap());
    for (call, is_expected) in &calls {
        let local = call.local(&mut store);
        assert!(is_expected(&local), "unexpected local error {local:?}");
        for err in [call.wire(&mut direct), call.wire(&mut served)] {
            assert!(!err.is_rejection());
            assert_eq!(err.device_error().as_ref(), Some(&local));
        }
    }

    // A skewed `hello` is refused by a bare device and a server alike.
    let skewed = encode_command(&Command::Hello {
        client: "t".into(),
        version: PROTOCOL_VERSION + 1,
    });
    let skew = Response::Error(DeepStoreError::VersionMismatch {
        expected: PROTOCOL_VERSION,
        found: PROTOCOL_VERSION + 1,
    });
    assert_eq!(decode_response(&device.handle(&skewed)).unwrap(), skew);
    let mut conn = connector.connect().unwrap();
    assert_eq!(
        decode_response(&conn.exchange(&skewed).unwrap()).unwrap(),
        skew
    );
    drop((served, conn));
    handle.shutdown();

    // An empty token bucket that never refills: the second query is
    // refused for the tenant's quota.
    let (clock, _time) = ServeClock::manual();
    let quota = QuotaConfig {
        burst: 1.0,
        refill_per_sec: 0.0,
    };
    let (transport, connector) = channel_transport();
    let handle = serve(
        transport,
        failing_calls().0,
        ServeConfig {
            quota: Some(quota),
            clock,
            ..ServeConfig::default()
        },
    );
    let mut host = HostClient::over(connector.connect().unwrap());
    host.hello("tenant-q").unwrap();
    let probe = [QueryRequest::new(
        zoo::textqa().seeded_metric(5).random_feature(900),
        ModelId(1),
        DbId(1),
    )];
    host.query_batch(&probe).unwrap();
    let err = host.query_batch(&probe).unwrap_err();
    assert!(err.is_rejection());
    assert_eq!(
        err.device_error(),
        Some(DeepStoreError::QuotaExceeded {
            client: "tenant-q".into()
        })
    );
    drop(host);
    handle.shutdown();

    // A one-slot queue behind a slow engine: concurrent clients beyond
    // the slot are refused as overloaded.
    let (transport, connector) = channel_transport();
    let handle = serve(
        transport,
        failing_calls().0,
        ServeConfig {
            queue_depth: 1,
            engine_delay: Some(Duration::from_millis(100)),
            ..ServeConfig::default()
        },
    );
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let mut host = HostClient::over(connector.connect().unwrap());
            std::thread::spawn(move || host.stats().err())
        })
        .collect();
    let refused: Vec<ProtoError> = clients
        .into_iter()
        .filter_map(|c| c.join().unwrap())
        .collect();
    assert!(!refused.is_empty(), "a one-slot queue must refuse someone");
    for err in refused {
        assert!(err.is_rejection());
        assert_eq!(
            err.device_error(),
            Some(DeepStoreError::Overloaded { queue_depth: 1 })
        );
    }
    handle.shutdown();
}

#[test]
fn device_survives_command_reordering_and_bad_handles() {
    let mut device = Device::new(DeepStoreConfig::small());
    let mut host = HostClient::new(&mut device);
    // getResults before any query.
    assert!(matches!(
        host.get_results(deepstore::core::QueryId(1)),
        Err(ProtoError::Device(_))
    ));
    // query before loadModel.
    let model = zoo::textqa().seeded(1);
    let db = host.write_db(&[model.random_feature(0)]).unwrap();
    assert!(matches!(
        host.query(
            &model.random_feature(1),
            1,
            deepstore::core::ModelId(9),
            db,
            AcceleratorLevel::Ssd,
            false
        ),
        Err(ProtoError::Device(_))
    ));
    // append to a foreign id.
    assert!(host
        .append_db(DbId(1234), &[model.random_feature(2)])
        .is_err());
}

/// Replays a trace of 12 queries over 4 distinct QFVs, `gap_ns` apart,
/// against a cached 32-feature textqa store.
fn replay_trace(gap_ns: u64) -> Simulation {
    let model = zoo::textqa().seeded(5);
    let mut store = DeepStore::in_memory(DeepStoreConfig::small());
    store.set_qc(QueryCacheConfig {
        capacity: 8,
        threshold: 0.10,
        qcn_accuracy: 1.0,
    });
    let features: Vec<Tensor> = (0..32).map(|i| model.random_feature(i)).collect();
    let db = store.write_db(&features).unwrap();
    let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
    let arrivals = (0..12u64)
        .map(|i| {
            let query = Command::Query {
                qfv: model.random_feature(i % 4),
                k: 3,
                model: mid,
                db,
                level: AcceleratorLevel::Channel,
                exact: false,
                request_id: 0,
                sched_lag_ns: 0,
            };
            (i * gap_ns, query)
        })
        .collect();
    simulate(store, ServeConfig::default(), arrivals)
}

fn cache_hits(sim: &Simulation) -> usize {
    sim.responses
        .iter()
        .filter(|resp| match resp {
            Response::QuerySubmitted { id, .. } => sim.store.peek_results(*id).unwrap().cache_hit,
            other => panic!("query failed: {other:?}"),
        })
        .count()
}

#[test]
fn runtime_trace_replay_produces_consistent_stats() {
    // A bursty trace, 5 µs apart: q0 runs alone, q1–q11 arrive during
    // its pass and share the next one, so only q0's repeats (q4, q8)
    // find it cached.
    let burst = replay_trace(5_000);
    assert_eq!(burst.times.len(), 12);
    assert_eq!(cache_hits(&burst), 2);
    assert_eq!(burst.stats.engine_batches, 2);
    // The same trace spaced beyond one pass's service time runs
    // serially: every repeat of a QFV hits.
    let spaced = replay_trace(1_000_000);
    assert_eq!(spaced.times.len(), 12);
    let hits = cache_hits(&spaced);
    assert!(hits >= 8, "hits = {hits}");
    for sim in [&burst, &spaced] {
        // Every record is internally consistent.
        for &(arrival, start, done) in &sim.times {
            assert!(start >= arrival);
            assert!(done > start);
            assert_eq!(done - arrival, (start - arrival) + (done - start));
        }
        // Passes are serially ordered on the fabric: a job starts with
        // its pass-mates or after the previous job completes.
        for w in sim.times.windows(2) {
            assert!(w[1].1 == w[0].1 || w[1].1 >= w[0].2);
        }
    }
    // Serial jobs: each starts after the previous one completes.
    for w in spaced.times.windows(2) {
        assert!(w[1].1 >= w[0].2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary bytes never crash the device; it always answers with a
    /// well-formed response frame.
    #[test]
    fn device_is_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut device = Device::new(DeepStoreConfig::small());
        let resp = device.handle(&bytes);
        let parsed = decode_response(&resp).unwrap();
        prop_assert!(matches!(parsed, Response::Error(_)));
    }

    /// Command frames round-trip for arbitrary read ranges.
    #[test]
    fn read_db_commands_roundtrip(db in 0u64..1000, start in 0u64..1000, num in 0u64..1000) {
        let cmd = Command::ReadDb { db: DbId(db), start, num };
        let decoded = decode_command(&encode_command(&cmd)).unwrap();
        prop_assert_eq!(decoded, cmd);
    }
}
