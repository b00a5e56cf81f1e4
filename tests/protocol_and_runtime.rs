//! Integration tests for the wire protocol and the serve engine's
//! scheduler on a simulated clock.

use deepstore::core::proto::{
    decode_command, decode_response, encode_command, Command, Device, HostClient, ProtoError,
    Response,
};
use deepstore::core::serve::{simulate, ServeConfig, Simulation};
use deepstore::core::{
    AcceleratorLevel, DbId, DeepStore, DeepStoreConfig, QueryCacheConfig, QueryRequest,
};
use deepstore::nn::{zoo, ModelGraph, Tensor};
use proptest::prelude::*;

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
