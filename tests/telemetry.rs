//! Determinism contract for the telemetry layer.
//!
//! Metrics are recorded from worker threads with relaxed atomics, but
//! every operation is a commutative `fetch_add`/`fetch_max` and the
//! shard plan is fixed by physical placement — so a post-workload
//! [`MetricsSnapshot`] (counters, histogram buckets, flash event
//! counts) must be identical at every `parallelism` setting, with and
//! without injected read faults. Trace timelines are driven by the
//! simulated clock, so they must be byte-identical across runs too,
//! with spans on each lane properly nested.

use deepstore_core::config::{AcceleratorLevel, DeepStoreConfig};
use deepstore_core::proto::{Command, Response};
use deepstore_core::serve::{simulate, ServeConfig, ServerStats};
use deepstore_core::{
    ClusterQueryRequest, DeepStore, DeepStoreCluster, DeviceStats, QueryCacheConfig, QueryRequest,
};
use deepstore_flash::fault::FaultPlan;
use deepstore_nn::{zoo, ModelGraph, Tensor};
use deepstore_obs::MetricsSnapshot;
use proptest::prelude::*;
use serde::Value;

const WORKER_COUNTS: [usize; 3] = [2, 4, 0];

const APPS: [&str; 3] = ["textqa", "tir", "mir"];

/// Per-query `(feature_index, formatted_score)` rankings.
type Rankings = Vec<Vec<(u64, String)>>;

/// Runs a mixed workload (one single query, one batch of three) and
/// returns everything observable: device stats, result rankings and
/// per-query skip counts.
fn run_workload(
    app: &str,
    model_seed: u64,
    n: u64,
    parallelism: usize,
    fault_seed: Option<u64>,
) -> (deepstore_core::DeviceStats, Rankings, Vec<u64>) {
    let model = zoo::by_name(app)
        .expect("known app")
        .seeded_metric(model_seed);
    let mut store = DeepStore::in_memory(DeepStoreConfig::small().with_parallelism(parallelism));
    if let Some(seed) = fault_seed {
        let geometry = store.config().ssd.geometry;
        store.inject_faults(FaultPlan::random(&geometry, 0.10, seed));
    }
    let features: Vec<Tensor> = (0..n).map(|i| model.random_feature(i)).collect();
    let db = store.write_db(&features).unwrap();
    let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();

    let single = store
        .query(QueryRequest::new(model.random_feature(5_000), mid, db).k(4))
        .unwrap();
    let batch: Vec<QueryRequest> = (0..3)
        .map(|i| QueryRequest::new(model.random_feature(6_000 + i), mid, db).k(4))
        .collect();
    let ids = store.query_batch(&batch).unwrap();

    let mut rankings = Vec::new();
    let mut skips = Vec::new();
    for id in std::iter::once(single).chain(ids) {
        let r = store.results(id).unwrap();
        skips.push(r.skipped);
        rankings.push(
            r.top_k
                .iter()
                .map(|h| (h.feature_index, format!("{:.6}", h.score)))
                .collect(),
        );
    }
    (store.stats(), rankings, skips)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full metrics snapshot — counters, histogram buckets, flash
    /// page-read counts — is identical at every parallelism setting.
    #[test]
    fn metrics_identical_across_parallelism(
        (app_idx, model_seed, n) in (0usize..3, 0u64..1_000_000, 8u64..48)
    ) {
        let (baseline, base_ranked, base_skips) =
            run_workload(APPS[app_idx], model_seed, n, 1, None);
        for workers in WORKER_COUNTS {
            let (stats, ranked, skips) =
                run_workload(APPS[app_idx], model_seed, n, workers, None);
            prop_assert_eq!(&baseline, &stats,
                "stats diverged at parallelism {}", workers);
            prop_assert_eq!(&base_ranked, &ranked);
            prop_assert_eq!(&base_skips, &skips);
        }
    }

    /// Fault injection changes the counts — but still deterministically:
    /// the same fault plan yields the same snapshot at every worker
    /// count, and per-query skip counts sum to the device-wide total.
    #[test]
    fn metrics_identical_across_parallelism_under_faults(
        (model_seed, n, fault_seed) in (0u64..1_000_000, 8u64..48, 0u64..1_000_000)
    ) {
        let (baseline, base_ranked, base_skips) =
            run_workload("textqa", model_seed, n, 1, Some(fault_seed));
        // The single query and the batch each run one flash pass, so the
        // device-wide skip total is the sum over distinct passes: the
        // single query's count plus the batch group's (shared by its
        // members) counted once.
        let passes_total = base_skips[0] + base_skips[1];
        prop_assert_eq!(baseline.unreadable_skipped, passes_total);
        for workers in WORKER_COUNTS {
            let (stats, ranked, skips) =
                run_workload("textqa", model_seed, n, workers, Some(fault_seed));
            prop_assert_eq!(&baseline, &stats,
                "faulted stats diverged at parallelism {}", workers);
            prop_assert_eq!(&base_ranked, &ranked);
            prop_assert_eq!(&base_skips, &skips);
        }
    }
}

/// Runs a traced two-batch workload and returns the trace JSON.
fn traced_run(parallelism: usize) -> String {
    let model = zoo::textqa().seeded_metric(9);
    let mut store = DeepStore::in_memory(DeepStoreConfig::small().with_parallelism(parallelism));
    store.enable_tracing();
    let features: Vec<Tensor> = (0..32).map(|i| model.random_feature(i)).collect();
    let db = store.write_db(&features).unwrap();
    let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
    let reqs: Vec<QueryRequest> = (0..3)
        .map(|i| QueryRequest::new(model.random_feature(100 + i), mid, db).k(2))
        .collect();
    store.query_batch(&reqs).unwrap();
    store
        .query(QueryRequest::new(model.random_feature(200), mid, db).k(2))
        .unwrap();
    store.trace_json().expect("tracing enabled")
}

fn num_field(obj: &[(String, Value)], key: &str) -> f64 {
    match obj.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
        Some(Value::F64(f)) => *f,
        Some(Value::U64(u)) => *u as f64,
        Some(Value::I64(i)) => *i as f64,
        other => panic!("field {key}: expected number, got {other:?}"),
    }
}

fn str_field<'a>(obj: &'a [(String, Value)], key: &str) -> &'a str {
    obj.iter()
        .find(|(k, _)| k == key)
        .and_then(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("field {key} missing"))
}

/// The emitted trace is valid Chrome trace-event JSON: a `traceEvents`
/// array of `X`/`i` events with `ts`/`dur`/`tid`, and on any one lane
/// spans are properly nested (each starts within every still-open
/// enclosing span and ends no later than it).
#[test]
fn trace_is_valid_chrome_json_with_nested_spans() {
    let json = traced_run(1);
    let value = serde::parse_value(json.as_bytes()).expect("trace parses as JSON");
    let root = value.as_object().expect("trace root is an object");
    let events = root
        .iter()
        .find(|(k, _)| k == "traceEvents")
        .and_then(|(_, v)| match v {
            Value::Arr(items) => Some(items),
            _ => None,
        })
        .expect("traceEvents array");
    assert!(!events.is_empty());

    // Group complete spans by lane, preserving emission order.
    let mut lanes: Vec<(f64, Vec<(f64, f64)>)> = Vec::new();
    let mut names = Vec::new();
    for event in events {
        let obj = event.as_object().expect("event is an object");
        names.push(str_field(obj, "name").to_string());
        let ph = str_field(obj, "ph");
        assert!(ph == "X" || ph == "i", "unexpected phase {ph}");
        let ts = num_field(obj, "ts");
        let tid = num_field(obj, "tid");
        if ph == "X" {
            let dur = num_field(obj, "dur");
            assert!(dur >= 0.0);
            match lanes.iter_mut().find(|(t, _)| *t == tid) {
                Some((_, spans)) => spans.push((ts, ts + dur)),
                None => lanes.push((tid, vec![(ts, ts + dur)])),
            }
        }
    }
    for marker in ["batch", "validate", "scan-group formation", "merge"] {
        assert!(
            names.iter().any(|n| n == marker),
            "pipeline marker `{marker}` missing"
        );
    }
    assert!(names.iter().any(|n| n == "query"));
    assert!(names.iter().any(|n| n == "scan"));
    assert!(names.iter().any(|n| n.starts_with("flash[")));

    // Emission order puts enclosing spans first, so a stack check
    // verifies proper nesting per lane.
    for (tid, spans) in &lanes {
        let mut stack: Vec<(f64, f64)> = Vec::new();
        for &(start, end) in spans {
            while let Some(&(_, open_end)) = stack.last() {
                if start >= open_end {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(open_start, open_end)) = stack.last() {
                assert!(
                    start >= open_start && end <= open_end,
                    "lane {tid}: span [{start}, {end}] not nested in [{open_start}, {open_end}]"
                );
            }
            stack.push((start, end));
        }
    }
}

/// Traces are reproducible: byte-identical across runs and across
/// parallelism settings (timestamps come from the simulated clock).
#[test]
fn trace_is_byte_identical_across_runs_and_parallelism() {
    let baseline = traced_run(1);
    assert_eq!(baseline, traced_run(1), "trace not reproducible");
    for workers in WORKER_COUNTS {
        assert_eq!(
            baseline,
            traced_run(workers),
            "trace diverged at parallelism {workers}"
        );
    }
}

/// A snapshot round-trips through its JSON serialization.
#[test]
fn snapshot_roundtrips_through_json() {
    let (stats, _, _) = run_workload("textqa", 7, 24, 1, None);
    let json = serde_json::to_string(&stats.metrics).unwrap();
    let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(stats.metrics, back);
}

/// Histogram min/max are tracked exactly, not reconstructed from
/// bucket edges: each sits inside its histogram's first/last non-empty
/// power-of-two bucket, and every percentile estimate is clamped into
/// `[min, max]`.
#[test]
fn histogram_min_max_are_exact_and_bracket_percentiles() {
    let (stats, _, _) = run_workload("textqa", 11, 32, 1, None);
    let mut populated = 0;
    for h in &stats.metrics.histograms {
        if h.count == 0 {
            assert_eq!(
                (h.min, h.max),
                (0, 0),
                "{}: empty histogram min/max",
                h.name
            );
            continue;
        }
        populated += 1;
        assert!(h.min <= h.max, "{}: min {} > max {}", h.name, h.min, h.max);
        let (lo, hi) = deepstore_obs::histo::bucket_range(h.buckets.first().unwrap().0);
        assert!(
            (lo..=hi).contains(&h.min),
            "{}: min {} outside first bucket",
            h.name,
            h.min
        );
        let (lo, hi) = deepstore_obs::histo::bucket_range(h.buckets.last().unwrap().0);
        assert!(
            (lo..=hi).contains(&h.max),
            "{}: max {} outside last bucket",
            h.name,
            h.max
        );
        for q in [0.0, 50.0, 99.0, 100.0] {
            let p = deepstore_obs::percentile(h, q);
            assert!(
                (h.min..=h.max).contains(&p),
                "{}: p{q} = {p} escapes [{}, {}]",
                h.name,
                h.min,
                h.max
            );
        }
    }
    assert!(
        populated > 0,
        "the workload must populate at least one histogram"
    );
}

// ---------------------------------------------------------------------------
// Golden surfaces
// ---------------------------------------------------------------------------

/// Compares `actual` with the golden file `tests/golden/<name>`. On a
/// mismatch the actual text is written to the test's target tmp dir so
/// it can be inspected (and, for a deliberate change, copied over the
/// golden).
fn assert_golden(name: &str, golden: &str, actual: &str) {
    if golden != actual {
        let out = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&out, actual).unwrap();
        panic!(
            "{name} differs from tests/golden/{name}; actual written to {}",
            out.display()
        );
    }
}

/// The golden serve workload: one `serve::simulate` run on a small
/// store with an armed transient fault plan. Single queries, a batch
/// that coalesces with them, a repeated vector (a query-cache hit),
/// then `Metrics` and `Stats`. Returns the metrics page, the device
/// stats JSON and the server stats JSON.
fn golden_serve_surfaces() -> (String, DeviceStats, ServerStats) {
    let model = zoo::textqa().seeded_metric(21);
    let mut store = DeepStore::in_memory(DeepStoreConfig::small());
    store.set_qc(QueryCacheConfig {
        capacity: 4,
        threshold: 0.10,
        qcn_accuracy: 1.0,
    });
    let features: Vec<Tensor> = (0..96).map(|i| model.random_feature(i)).collect();
    let db = store.write_db(&features).unwrap();
    let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
    store.inject_faults(
        FaultPlan::none()
            .transient(0.3, 17)
            .transient_max_failures(1),
    );

    let query = |seed: u64| Command::Query {
        qfv: model.random_feature(seed),
        k: 3,
        model: mid,
        db,
        level: AcceleratorLevel::Channel,
        exact: false,
        request_id: 0,
        sched_lag_ns: 0,
    };
    let batch = Command::QueryBatch {
        requests: (0..2)
            .map(|i| QueryRequest::new(model.random_feature(2_000 + i), mid, db).k(3))
            .collect(),
        request_id: 0,
        sched_lag_ns: 0,
    };
    const S: u64 = 1_000_000_000;
    let arrivals = vec![
        (0, query(1_000)),
        (0, batch),
        (S, query(1_000)),
        (2 * S, query(3_000)),
        (3 * S, Command::Metrics),
        (4 * S, Command::Stats),
    ];
    let sim = simulate(store, ServeConfig::default(), arrivals);
    let Response::Metrics { text } = &sim.responses[4] else {
        panic!("metrics response expected, got {:?}", sim.responses[4]);
    };
    let Response::Stats { device, server } = &sim.responses[5] else {
        panic!("stats response expected, got {:?}", sim.responses[5]);
    };
    (
        text.clone(),
        (**device).clone(),
        server.clone().expect("serve fills the server stats"),
    )
}

/// A 2-drive cluster's fleet-wide metrics after one query and one
/// rebalance.
fn golden_fleet_metrics() -> MetricsSnapshot {
    let model = zoo::textqa().seeded_metric(4);
    let mut c = DeepStoreCluster::with_replication(2, 2, DeepStoreConfig::small());
    let features: Vec<Tensor> = (0..60).map(|i| model.random_feature(i)).collect();
    let db = c.write_db(&features).unwrap();
    let mid = c.load_model(&ModelGraph::from_model(&model)).unwrap();
    let req = ClusterQueryRequest::new(model.random_feature(23), mid, db)
        .k(5)
        .level(AcceleratorLevel::Channel);
    c.query(req).unwrap();
    c.rebalance().unwrap();
    c.fleet_metrics()
}

/// Every telemetry surface, byte for byte: the metrics page, the device
/// and server stats JSON of `Command::Stats`, and the cluster's fleet
/// metrics.
#[test]
fn every_telemetry_surface_matches_its_golden() {
    let golden_page = include_str!("golden/metrics_page.txt");
    let golden_device = include_str!("golden/device_stats.json");
    let golden_server = include_str!("golden/server_stats.json");
    let golden_fleet = include_str!("golden/fleet_metrics.json");
    let (page, device, server) = golden_serve_surfaces();
    let fleet = golden_fleet_metrics();
    let server_json = serde_json::to_string(&server).unwrap() + "\n";
    assert_golden("server_stats.json", golden_server, &server_json);
    assert_golden("metrics_page.txt", golden_page, &page);
    let device_json = serde_json::to_string(&device).unwrap() + "\n";
    assert_golden("device_stats.json", golden_device, &device_json);
    let fleet_json = serde_json::to_string(&fleet).unwrap() + "\n";
    assert_golden("fleet_metrics.json", golden_fleet, &fleet_json);
}
