//! End-to-end observability contract for the serving front end.
//!
//! One TCP request must be joinable across every layer: the request id
//! assigned at admission comes back in the response frame, tags the
//! engine's Chrome trace spans, shows up in the per-tenant Prometheus
//! exposition, and survives in the flight recorder's dump. The
//! recorder itself is deterministic under the simulated serve clock —
//! byte-identical dumps at every engine `parallelism` setting — and
//! its error / SLO-breach auto-dump triggers fire exactly once per
//! episode.

use deepstore_core::config::{AcceleratorLevel, DeepStoreConfig};
use deepstore_core::proto::HostClient;
use deepstore_core::serve::{
    channel_transport, serve, ServeClock, ServeConfig, TcpClient, TcpTransport, Transport,
};
use deepstore_core::{DbId, DeepStore, ModelId};
use deepstore_nn::{zoo, ModelGraph, Tensor};
use deepstore_obs::{FlightDump, RequestOutcome};

/// Builds a small in-memory store preloaded with one feature DB and the
/// TextQA similarity model (handles `DbId(1)` / `ModelId(1)`).
fn seeded_store(n: usize, parallelism: usize) -> DeepStore {
    let model = zoo::textqa().seeded(3);
    let features: Vec<Tensor> = (0..n).map(|i| model.random_feature(i as u64)).collect();
    let mut store = DeepStore::in_memory(DeepStoreConfig::small().with_parallelism(parallelism));
    store.disable_qc();
    store.write_db(&features).unwrap();
    store.load_model(&ModelGraph::from_model(&model)).unwrap();
    store
}

fn probe(i: u64) -> Tensor {
    zoo::textqa().seeded(3).random_feature(10_000 + i)
}

/// The ISSUE's tentpole contract: follow one TCP request end to end.
/// The admission-assigned request id is echoed in the response frame,
/// tags the engine trace spans, and appears in the per-tenant metrics
/// page, the server stats, and the flight-recorder dump.
#[test]
fn tcp_request_is_joinable_end_to_end() {
    let mut store = seeded_store(32, 1);
    store.enable_tracing();
    let transport = TcpTransport::bind("127.0.0.1:0").unwrap();
    let addr = transport.endpoint();
    let handle = serve(transport, store, ServeConfig::default());

    let mut host = HostClient::over(TcpClient::connect(&addr).unwrap());
    host.hello("tenant-a").unwrap();
    let (mid, db) = (ModelId(1), DbId(1));

    // A frame sent with request_id 0 gets one assigned at admission —
    // and the assignment is echoed back in the response frame.
    let (qid, rid) = host
        .query_traced(&probe(0), 3, mid, db, AcceleratorLevel::Ssd, false, 0, 0)
        .unwrap();
    assert_ne!(rid, 0, "admission must assign a nonzero request id");
    let results = host.get_results(qid).unwrap();
    assert_eq!(results.top_k.len(), 3);

    // A frame that brings its own id keeps it.
    let (qid2, rid2) = host
        .query_traced(&probe(1), 3, mid, db, AcceleratorLevel::Ssd, false, 777, 0)
        .unwrap();
    assert_eq!(rid2, 777, "caller-supplied request ids pass through");
    host.get_results(qid2).unwrap();

    // The Prometheus page carries admission counters and the tenant's
    // labeled series.
    let page = host.metrics().unwrap();
    assert!(page.contains("# TYPE deepstore_serve_queries_admitted counter"));
    assert!(page.contains("deepstore_serve_queries_admitted 2"));
    assert!(page.contains("deepstore_serve_tenant_accepted{tenant=\"tenant-a\"} 2"));
    assert!(page.contains("# TYPE deepstore_serve_e2e_ns histogram"));
    assert!(page.contains("deepstore_serve_tenant_e2e_ns_count{tenant=\"tenant-a\"} 2"));
    // The device half of the page is appended to the serve half.
    assert!(page.contains("deepstore_api_queries 2"));
    assert!(page.contains("deepstore_api_tagged_requests 2"));

    // Serve-layer stats ride the same Stats frame as the device's.
    let (device_stats, server) = host.stats_full().unwrap();
    assert_eq!(device_stats.queries, 2);
    let server = server.expect("a served Stats frame carries ServerStats");
    assert_eq!(server.queries_admitted, 2);
    assert_eq!(server.per_tenant.len(), 1);
    assert_eq!(server.per_tenant[0].client, "tenant-a");
    assert_eq!(server.per_tenant[0].accepted, 2);

    // The flight recorder saw both requests, tagged with their ids.
    let dump: FlightDump = serde_json::from_str(&host.dump().unwrap()).unwrap();
    assert_eq!(dump.reason, "explicit");
    assert_eq!(dump.total, 2);
    let rids: Vec<u64> = dump.entries.iter().map(|e| e.request_id).collect();
    assert_eq!(rids, vec![rid, 777]);
    assert!(dump
        .entries
        .iter()
        .all(|e| e.tenant == "tenant-a" && e.outcome == RequestOutcome::Ok && e.queries == 1));

    drop(host);
    let (store, stats) = handle.shutdown();
    assert_eq!(stats.queries_admitted, 2);

    // The engine trace is joinable on the same ids: per-request spans
    // carry `request_id`, the coalesced scan group lists them.
    let trace = store.trace_json().expect("tracing stayed enabled");
    assert!(trace.contains(&format!("\"request_id\":{rid}")));
    assert!(trace.contains("\"request_id\":777"));
    assert!(trace.contains("\"request_ids\""));
}

/// Satellite (d): under a simulated serve clock the recorder is fully
/// deterministic — the dump is byte-identical at every engine
/// parallelism setting (1, 2, 4, auto).
#[test]
fn dump_is_byte_identical_across_parallelism() {
    let mut dumps = Vec::new();
    for parallelism in [1usize, 2, 4, 0] {
        let store = seeded_store(32, parallelism);
        let (clock, _time) = ServeClock::manual();
        let (transport, connector) = channel_transport();
        let handle = serve(
            transport,
            store,
            ServeConfig {
                clock,
                ..ServeConfig::default()
            },
        );
        let mut host = HostClient::over(connector.connect().unwrap());
        host.hello("tenant-a").unwrap();
        let (mid, db) = (ModelId(1), DbId(1));
        for i in 0..5 {
            let (qid, _rid) = host
                .query_traced(&probe(i), 3, mid, db, AcceleratorLevel::Ssd, false, 0, 0)
                .unwrap();
            host.get_results(qid).unwrap();
        }
        dumps.push(host.dump().unwrap());
        drop(host);
        handle.shutdown();
    }
    assert!(
        dumps.iter().all(|d| d == &dumps[0]),
        "flight-recorder dumps must be byte-identical across parallelism"
    );
    let dump: FlightDump = serde_json::from_str(&dumps[0]).unwrap();
    assert_eq!(dump.total, 5);
    assert_eq!(dump.entries.len(), 5);
    // Manual clock pinned at 0: every recorded latency is exactly 0.
    assert!(dump
        .entries
        .iter()
        .all(|e| e.queue_ns == 0 && e.service_ns == 0 && e.e2e_ns == 0));
}

/// Satellite (d): crossing the configured e2e p99 SLO takes exactly one
/// `slo_breach` auto-dump — the latch keeps a sustained breach from
/// dumping per request.
#[test]
fn slo_breach_takes_one_auto_dump() {
    let store = seeded_store(32, 1);
    let (clock, _time) = ServeClock::manual();
    let (transport, connector) = channel_transport();
    let handle = serve(
        transport,
        store,
        ServeConfig {
            clock,
            slo_p99_us: Some(1_000),
            ..ServeConfig::default()
        },
    );
    let mut host = HostClient::over(connector.connect().unwrap());
    host.hello("tenant-a").unwrap();
    let (mid, db) = (ModelId(1), DbId(1));

    // The serve clock is pinned at 0, so e2e latency is exactly the
    // scheduled-arrival lag the client reports. 10 ms >> the 1 ms SLO.
    for i in 0..3 {
        let (qid, _rid) = host
            .query_traced(
                &probe(i),
                3,
                mid,
                db,
                AcceleratorLevel::Ssd,
                false,
                0,
                10_000_000,
            )
            .unwrap();
        host.get_results(qid).unwrap();
    }
    drop(host);

    let dumps = handle.obs().auto_dumps();
    let breaches: Vec<&(String, String)> = dumps
        .iter()
        .filter(|(reason, _)| reason == "slo_breach")
        .collect();
    assert_eq!(
        breaches.len(),
        1,
        "a sustained breach dumps once, not per request"
    );
    let dump: FlightDump = serde_json::from_str(&breaches[0].1).unwrap();
    assert_eq!(dump.reason, "slo_breach");
    assert!(dump.entries.iter().all(|e| e.e2e_ns == 10_000_000));
    handle.shutdown();
}

/// Satellite (d): an error response triggers an automatic `error` dump
/// whose entries record the failed request's outcome.
#[test]
fn error_response_takes_auto_dump() {
    let store = seeded_store(16, 1);
    let (clock, _time) = ServeClock::manual();
    let (transport, connector) = channel_transport();
    let handle = serve(
        transport,
        store,
        ServeConfig {
            clock,
            ..ServeConfig::default()
        },
    );
    let mut host = HostClient::over(connector.connect().unwrap());
    host.hello("tenant-a").unwrap();

    // Unknown model handle: the engine answers with a typed error frame.
    let err = host
        .query_traced(
            &probe(0),
            3,
            ModelId(99),
            DbId(1),
            AcceleratorLevel::Ssd,
            false,
            0,
            0,
        )
        .unwrap_err();
    assert!(format!("{err}").contains("model"));
    drop(host);

    let dumps = handle.obs().auto_dumps();
    assert_eq!(dumps.len(), 1);
    assert_eq!(dumps[0].0, "error");
    let dump: FlightDump = serde_json::from_str(&dumps[0].1).unwrap();
    assert_eq!(dump.reason, "error");
    assert_eq!(dump.entries.len(), 1);
    assert_eq!(dump.entries[0].outcome, RequestOutcome::Error);
    assert_eq!(dump.entries[0].tenant, "tenant-a");

    let stats = handle.shutdown().1;
    assert_eq!(stats.per_tenant.len(), 1);
    assert_eq!(stats.per_tenant[0].errors, 1);
}

/// Satellite (d): the recorder is a fixed-size ring — once `total`
/// passes `recorder_capacity`, a dump holds exactly the newest
/// `capacity` summaries, oldest first.
#[test]
fn recorder_ring_wraps_at_capacity() {
    let store = seeded_store(32, 1);
    let (clock, _time) = ServeClock::manual();
    let (transport, connector) = channel_transport();
    let handle = serve(
        transport,
        store,
        ServeConfig {
            clock,
            recorder_capacity: 4,
            ..ServeConfig::default()
        },
    );
    let mut host = HostClient::over(connector.connect().unwrap());
    host.hello("tenant-a").unwrap();
    let (mid, db) = (ModelId(1), DbId(1));
    for i in 0..6 {
        let (qid, _rid) = host
            .query_traced(&probe(i), 3, mid, db, AcceleratorLevel::Ssd, false, 0, 0)
            .unwrap();
        host.get_results(qid).unwrap();
    }
    let dump: FlightDump = serde_json::from_str(&host.dump().unwrap()).unwrap();
    assert_eq!(dump.capacity, 4);
    assert_eq!(dump.total, 6);
    assert_eq!(
        dump.entries.len(),
        4,
        "the ring keeps only the newest capacity entries"
    );
    let seqs: Vec<u64> = dump.entries.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, vec![2, 3, 4, 5], "oldest first, oldest two evicted");
    drop(host);
    handle.shutdown();
}
