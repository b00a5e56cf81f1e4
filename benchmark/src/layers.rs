//! Per-layer numbers, timed from outside the program.
//!
//! The traced run replays the stages of a query over a fixed sample of
//! the workload's own data in blocks of [`spec::REPLAY_BLOCK`] features —
//! page read, `read_db` decode, int8 bound, exact similarity, fused
//! multi-query similarity, top-K offer, frame encode/decode — and probes
//! every service layer (engine scans, API, query cache, serving front
//! end, cluster, persistence) on that sample through its public calls.
//! Every call into a layer is wrapped in a span, so the trace shows the
//! same stages the metrics summarise.
//!
//! Service-level probes hold the scan at the cost of a 4 096-feature
//! textqa scan (a heavier model gets proportionally fewer features), so
//! the layer under test and not the kernel dominates what they time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use deepstore_core::engine::Engine;
use deepstore_core::proto::{
    decode_command, decode_response, encode_command, encode_response, Command, HostClient, Response,
};
use deepstore_core::serve::{channel_transport, serve};
use deepstore_core::{
    AcceleratorLevel, DeepStore, DeepStoreCluster, ImageManifest, QueryCache, QueryCacheConfig,
    QueryRequest, QueryResult, ServeConfig,
};
use deepstore_flash::array::FlashArray;
use deepstore_flash::fault::ReadFaultStats;
use deepstore_flash::{MmapStore, PageAddr};
use deepstore_nn::{
    quantize_feature, BoundScorer, InferenceScratch, Model, ModelGraph, MultiQueryScorer, Tensor,
};
use deepstore_systolic::topk::TopKSorter;
use deepstore_workloads::loadgen::Offered;

use crate::span::Recorder;
use crate::workloads::cluster_scatter::request as cluster_request;
use crate::workloads::{device_config, image_config, image_geometry};
use crate::{inputs, spec, stats};

/// The workload's own data the probes run on.
pub struct ProbeData<'a> {
    /// The run's seed, for seed-derived probe streams.
    pub seed: u64,
    /// The workload's model.
    pub model: &'a Model,
    /// The workload's features; the probes take a prefix.
    pub features: &'a [Tensor],
    /// The workload's queries.
    pub queries: &'a [Tensor],
}

/// Features in the replay sample (a whole number of replay blocks).
const SAMPLE_FEATURES: usize = 4 * spec::REPLAY_BLOCK;
/// Multiply-accumulates of one service-level probe scan: 4 096 textqa
/// features.
const SERVICE_SCAN_MACS: u64 = 4096 * 200 * 200;

/// Cost of one `Instant::now()` pair, ns.
pub fn timer_ns() -> f64 {
    let n = 100_000u32;
    let start = Instant::now();
    let mut acc = Duration::ZERO;
    for _ in 0..n {
        acc += Instant::now().elapsed();
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64 / f64::from(n)
}

/// Calls `f` back to back until `budget` has passed (at least 3 times)
/// and returns the median seconds per call.
fn median_s(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}

/// Calls every function of `fs` in turn, round after round, until
/// `budget` has passed (at least 3 rounds) and returns each one's median
/// seconds per call. Interleaving puts figures that will be subtracted
/// from each other under the same machine noise.
fn interleaved_median_s(budget: Duration, fs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let start = Instant::now();
    let mut samples = vec![Vec::new(); fs.len()];
    while samples[0].len() < 3 || start.elapsed() < budget {
        for (f, s) in fs.iter_mut().zip(&mut samples) {
            let t = Instant::now();
            f();
            s.push(t.elapsed().as_secs_f64());
        }
    }
    samples.iter().map(|s| stats::median(s)).collect()
}

struct Probes<'a> {
    data: &'a ProbeData<'a>,
    /// Replay sample: the first blocks of the workload's features.
    sample: &'a [Tensor],
    /// Service-level sample (see the module docs).
    service: &'a [Tensor],
    graph: ModelGraph,
    /// Time one small probe may take.
    unit: Duration,
    dir: &'a Path,
    rec: &'a mut Recorder,
    out: &'a mut BTreeMap<&'static str, f64>,
    failures: Vec<String>,
    op: u64,
}

/// Runs every layer probe within roughly `budget`, records the per-layer
/// metrics in `out` and returns what failed, followed by one line saying
/// how long each probe took.
pub fn run_all(
    data: &ProbeData<'_>,
    budget: Duration,
    dir: &Path,
    rec: &mut Recorder,
    out: &mut BTreeMap<&'static str, f64>,
) -> (Vec<String>, String) {
    let blocks = (data.features.len().min(SAMPLE_FEATURES) / spec::REPLAY_BLOCK).max(1);
    let sample = &data.features[..(blocks * spec::REPLAY_BLOCK).min(data.features.len())];
    let service_n = (SERVICE_SCAN_MACS / data.model.total_macs().max(1)) as usize;
    let service = &sample[..service_n.clamp(64.min(sample.len()), sample.len())];
    let mut p = Probes {
        data,
        sample,
        service,
        graph: ModelGraph::from_model(data.model),
        unit: budget / 24,
        dir,
        rec,
        out,
        failures: Vec::new(),
        op: 1 << 32,
    };
    let mut took = Vec::new();
    let mut lap = |name: &str, since: Instant| {
        took.push(format!("{name} {:.2} s", since.elapsed().as_secs_f64()))
    };
    let t = Instant::now();
    p.replay();
    lap("replay", t);
    let t = Instant::now();
    let result = p.engine_and_api();
    p.proto(result);
    lap("engine+api+proto", t);
    let t = Instant::now();
    p.qcache_and_serve();
    lap("qcache+serve", t);
    let t = Instant::now();
    p.cluster();
    lap("cluster", t);
    let t = Instant::now();
    p.persist();
    lap("persist", t);
    (p.failures, format!("layer probes: {}", took.join(", ")))
}

impl Probes<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.out.insert(name, value);
    }

    fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        self.failures.push(format!("layer probe {what}: {why}"));
    }

    /// Runs `f` inside a span and returns its result and duration.
    fn timed<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        self.rec.enter(layer, name, self.op);
        let t = Instant::now();
        let value = f();
        let s = t.elapsed().as_secs_f64();
        self.rec.exit();
        (value, s)
    }

    /// The stage replay: page read -> decode -> bound -> similarity ->
    /// fused similarity -> top-K offer, block by block.
    fn replay(&mut self) {
        let model = self.data.model;
        // Both standalone arrays have the image geometry, so that a page
        // has the same address on either backend.
        let geometry = image_geometry();
        let page_bytes = geometry.page_bytes;
        let bytes: Vec<u8> = self
            .sample
            .iter()
            .flat_map(|f| f.data().iter().flat_map(|x| x.to_le_bytes()))
            .collect();
        let pages: Vec<&[u8]> = bytes.chunks(page_bytes).collect();
        let addrs: Vec<PageAddr> = (0..pages.len() as u64)
            .map(|i| geometry.page_from_index(i))
            .collect();

        // Standalone arrays holding the sample, one per backend.
        let mut heap = FlashArray::new(geometry);
        let (_, program_s) = self.timed("flash", "FlashArray::program", || {
            for (addr, page) in addrs.iter().zip(&pages) {
                heap.program(*addr, page).expect("program heap page");
            }
        });
        self.put(
            "flash.page_program_ns",
            program_s * 1e9 / pages.len() as f64,
        );
        let image = self.dir.join("layers_flash.img");
        let mmap = MmapStore::create(&image, geometry).map(|store| {
            let mut array = FlashArray::with_store(geometry, Box::new(store));
            for (addr, page) in addrs.iter().zip(&pages) {
                array.program(*addr, page).expect("program mmap page");
            }
            array
        });

        let mut engine = Engine::new(device_config(0));
        let db = engine.write_db(self.sample).expect("replay write_db");
        engine.seal_db(db).expect("replay seal_db");

        let query = &self.data.queries[0];
        let batch = &self.data.queries[..spec::BATCH_SIZE];
        let bound = BoundScorer::new(model, query);
        let mut multi = MultiQueryScorer::new(model, batch).expect("multi-query scorer");
        let mut scratch = InferenceScratch::for_model(model);

        let pages_per_block = pages.len().div_ceil(self.sample.len() / spec::REPLAY_BLOCK);
        let block = spec::REPLAY_BLOCK as f64;
        // ns per unit of every stage, one sample per block and pass.
        let mut ns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut inserts = Vec::new();
        let start = Instant::now();
        let budget = self.unit * 6;
        let mut pass = 0;
        while pass == 0 || start.elapsed() < budget {
            pass += 1;
            for (b, features) in self.sample.chunks(spec::REPLAY_BLOCK).enumerate() {
                self.op += 1;
                self.rec.enter("harness", "replay block", self.op);
                let first = b * pages_per_block;
                let block_addrs = &addrs[first..(first + pages_per_block).min(addrs.len())];
                let block_pages = block_addrs.len() as f64;
                let mut faults = ReadFaultStats::new();
                let (_, s) = self.timed("flash", "FlashArray::read_with_stats (heap)", || {
                    for addr in block_addrs {
                        std::hint::black_box(
                            heap.read_with_stats(*addr, &mut faults).expect("read"),
                        );
                    }
                });
                ns.entry("flash.page_read_ns_heap")
                    .or_default()
                    .push(s * 1e9 / block_pages);
                if let Ok(array) = &mmap {
                    let (_, s) = self.timed("flash", "FlashArray::read_with_stats (mmap)", || {
                        for addr in block_addrs {
                            std::hint::black_box(
                                array.read_with_stats(*addr, &mut faults).expect("read"),
                            );
                        }
                    });
                    ns.entry("flash.page_read_ns_mmap")
                        .or_default()
                        .push(s * 1e9 / block_pages);
                }
                let base = (b * spec::REPLAY_BLOCK) as u64;
                let (_, s) = self.timed("engine", "Engine::read_feature", || {
                    for i in 0..features.len() as u64 {
                        std::hint::black_box(
                            engine.read_feature(db, base + i).expect("read_feature"),
                        );
                    }
                });
                ns.entry("engine.read_decode_ns_per_feature")
                    .or_default()
                    .push(s * 1e9 / block);
                let (quants, s) = self.timed("nn", "quantize_feature", || {
                    features
                        .iter()
                        .map(|f| quantize_feature(f.data()))
                        .collect::<Vec<_>>()
                });
                ns.entry("nn.quantize_ns_per_feature")
                    .or_default()
                    .push(s * 1e9 / block);
                if let Some(bs) = &bound {
                    let (_, s) = self.timed("nn", "BoundScorer::upper_bound", || {
                        for q in &quants {
                            std::hint::black_box(bs.upper_bound(q));
                        }
                    });
                    ns.entry("nn.bound_ns_per_feature")
                        .or_default()
                        .push(s * 1e9 / block);
                }
                let (scores, s) = self.timed("nn", "Model::similarity_scratch", || {
                    features
                        .iter()
                        .map(|f| {
                            model
                                .similarity_scratch(query, f.data(), &mut scratch)
                                .expect("similarity_scratch")
                        })
                        .collect::<Vec<f32>>()
                });
                ns.entry("nn.similarity_ns_per_feature")
                    .or_default()
                    .push(s * 1e9 / block);
                let mut lane_scores = Vec::with_capacity(spec::BATCH_SIZE);
                let (_, s) = self.timed("nn", "MultiQueryScorer::score_into", || {
                    for f in features {
                        multi
                            .score_into(model, f.data(), &mut lane_scores)
                            .expect("score_into");
                    }
                });
                ns.entry("nn.multi8_ns_per_feature_query")
                    .or_default()
                    .push(s * 1e9 / (block * spec::BATCH_SIZE as f64));
                let mut sorter = TopKSorter::new(spec::K);
                let (_, s) = self.timed("systolic", "TopKSorter::offer", || {
                    for (i, score) in scores.iter().enumerate() {
                        sorter.offer(*score, base + i as u64);
                    }
                });
                ns.entry("systolic.topk_offer_ns")
                    .or_default()
                    .push(s * 1e9 / block);
                inserts.push(sorter.inserts() as f64);
                self.rec.exit();
            }
        }
        drop(mmap);
        let _ = std::fs::remove_file(&image);

        if !ns.contains_key("flash.page_read_ns_mmap") {
            self.fail("flash", "no mmap image could be created");
            self.put("flash.page_read_ns_mmap", 0.0);
        }
        // A model whose stack does not fold to a linear functional has no
        // bound scorer: the cascade never runs and the stage costs nothing.
        self.put("nn.bound_ns_per_feature", 0.0);
        for (metric, samples) in &ns {
            self.put(metric, stats::median(samples));
        }
        let macs = model.total_macs() as f64;
        self.put("nn.macs_per_feature", macs);
        self.put(
            "nn.gflops_computed",
            2.0 * macs / stats::median(&ns["nn.similarity_ns_per_feature"]),
        );
        // Per scan the sorter sees every block: inserts add up over them.
        let blocks = (self.sample.len() / spec::REPLAY_BLOCK) as f64;
        self.put(
            "systolic.topk_inserts_per_query",
            inserts.iter().sum::<f64>() / inserts.len() as f64 * blocks,
        );
    }

    /// Engine scans on the replay sample, then `DeepStore` on the service
    /// sample: what the API adds on top of the scan it wraps. Returns a
    /// real answer for the frame probes.
    fn engine_and_api(&mut self) -> Option<QueryResult> {
        let model = self.data.model;
        let n = self.sample.len() as f64;
        let mut engine = Engine::new(device_config(0));
        let half = self.sample.len() / 2;
        let (db, write_s) = self.timed("engine", "Engine::write_db", || {
            engine.write_db(&self.sample[..half]).expect("write_db")
        });
        let (_, append_s) = self.timed("engine", "Engine::append_db", || {
            engine
                .append_db(db, &self.sample[half..])
                .expect("append_db");
        });
        let (_, seal_s) = self.timed("engine", "Engine::seal_db", || {
            engine.seal_db(db).expect("seal_db");
        });
        let ingested_mb = (self.sample.len() * model.feature_bytes()) as f64 / 1e6;
        self.put("engine.append_mb_per_s", ingested_mb / (write_s + append_s));
        self.put("engine.seal_ms", seal_s * 1e3);
        self.put("flash.programs", engine.flash_op_counts().programs as f64);

        let queries = self.data.queries;
        let (mut pruned, mut rescored, mut scans) = (0u64, 0u64, 0u64);
        let reads0 = engine.flash_op_counts().reads;
        let mut i = 0;
        let unit = self.unit;
        let scan_s = median_s(unit * 2, || {
            self.rec.enter("engine", "Engine::scan_top_k_with", self.op);
            let (_, _, cascade) = engine
                .scan_top_k_with(db, model, &queries[i % queries.len()], spec::K, false)
                .expect("scan");
            self.rec.exit();
            pruned += cascade.pruned;
            rescored += cascade.rescored;
            scans += 1;
            i += 1;
        });
        let reads = engine.flash_op_counts().reads - reads0;
        self.put("engine.scan_ns_per_feature", scan_s * 1e9 / n);
        self.put("engine.pruned_share", pruned as f64 / (scans as f64 * n));
        self.put(
            "engine.rescored_share",
            rescored as f64 / (scans as f64 * n),
        );
        self.put("engine.pages_read_per_query", reads as f64 / scans as f64);
        let exact_s = median_s(unit * 2, || {
            self.rec
                .enter("engine", "Engine::scan_top_k_with (exact)", self.op);
            engine
                .scan_top_k_with(db, model, &queries[i % queries.len()], spec::K, true)
                .expect("exact scan");
            self.rec.exit();
            i += 1;
        });
        self.put("engine.exact_ns_per_feature", exact_s * 1e9 / n);
        let batch: Vec<(&Model, &Tensor, usize)> = queries[..spec::BATCH_SIZE]
            .iter()
            .map(|q| (model, q, spec::K))
            .collect();
        let batch_s = median_s(unit * 2, || {
            self.rec
                .enter("engine", "Engine::scan_top_k_batch", self.op);
            engine.scan_top_k_batch(db, &batch).expect("batch scan");
            self.rec.exit();
        });
        self.put(
            "engine.batch8_ns_per_feature_query",
            batch_s * 1e9 / (n * spec::BATCH_SIZE as f64),
        );
        // One pass of each scan kind: a batch of 8 must read each page once,
        // not once per query.
        let reads0 = engine.flash_op_counts().reads;
        engine
            .scan_top_k_with(db, model, &queries[0], spec::K, false)
            .expect("scan");
        engine
            .scan_top_k_with(db, model, &queries[0], spec::K, true)
            .expect("exact scan");
        engine.scan_top_k_batch(db, &batch).expect("batch scan");
        self.put(
            "flash.reads",
            (engine.flash_op_counts().reads - reads0) as f64,
        );
        engine.set_parallelism(2);
        let par2_s = median_s(unit * 2, || {
            engine
                .scan_top_k_with(db, model, &queries[i % queries.len()], spec::K, false)
                .expect("parallel scan");
            i += 1;
        });
        self.put("engine.par2_speedup", scan_s / par2_s);
        drop(engine);

        // The API on the service sample, against the engine alone on the
        // same database.
        let service = self.service;
        let mut bare = Engine::new(device_config(0));
        let bare_db = bare.write_db(service).expect("write_db");
        bare.seal_db(bare_db).expect("seal_db");
        let mut store = DeepStore::in_memory(device_config(0));
        let db = store.write_db(service).expect("write_db");
        let mid = store.load_model(&self.graph).expect("load_model");
        let (mut j, mut k) = (0, 0);
        let mut last = None;
        let (rec, op) = (&mut *self.rec, self.op);
        let timed = interleaved_median_s(
            unit * 2,
            &mut [
                &mut || {
                    bare.scan_top_k_with(
                        bare_db,
                        model,
                        &queries[j % queries.len()],
                        spec::K,
                        false,
                    )
                    .expect("scan");
                    j += 1;
                },
                &mut || {
                    rec.enter("api", "DeepStore::query + results", op);
                    let req =
                        QueryRequest::new(queries[k % queries.len()].clone(), mid, db).k(spec::K);
                    last = store.query(req).and_then(|id| store.results(id)).ok();
                    rec.exit();
                    k += 1;
                },
            ],
        );
        self.put("api.query_overhead_us", (timed[1] - timed[0]) * 1e6);
        if last.is_none() {
            self.fail("api", "DeepStore::query failed on the service sample");
        }
        let stages = store.stats().stages;
        let scan_ns = stages.scan_ns.max(1) as f64;
        self.put("accel.sim_flash_share", stages.flash_ns as f64 / scan_ns);
        self.put(
            "accel.sim_compute_share",
            stages.compute_ns as f64 / scan_ns,
        );
        last
    }

    /// Encode and decode of the real frames: a query of this model's
    /// width and a K-hit answer.
    fn proto(&mut self, result: Option<QueryResult>) {
        let command = Command::Query {
            qfv: self.data.queries[0].clone(),
            k: spec::K,
            model: deepstore_core::ModelId(1),
            db: deepstore_core::DbId(1),
            level: AcceleratorLevel::Channel,
            exact: false,
            request_id: 0,
            sched_lag_ns: 0,
        };
        let Some(result) = result else {
            for name in [
                "proto.encode_query_ns",
                "proto.decode_query_ns",
                "proto.encode_result_ns",
                "proto.decode_result_ns",
                "proto.query_frame_bytes",
            ] {
                self.put(name, 0.0);
            }
            return;
        };
        let response = Response::Results(Box::new(result));
        let query_frame = encode_command(&command);
        let result_frame = encode_response(&response);
        let unit = self.unit / 2;
        let time = |p: &mut Self, name: &'static str, metric: &'static str, f: &mut dyn FnMut()| {
            p.rec.enter("proto", name, p.op);
            let s = median_s(unit, f);
            p.rec.exit();
            p.put(metric, s * 1e9);
        };
        time(self, "encode_command", "proto.encode_query_ns", &mut || {
            std::hint::black_box(encode_command(&command));
        });
        time(self, "decode_command", "proto.decode_query_ns", &mut || {
            std::hint::black_box(decode_command(&query_frame).expect("decode query frame"));
        });
        time(
            self,
            "encode_response",
            "proto.encode_result_ns",
            &mut || {
                std::hint::black_box(encode_response(&response));
            },
        );
        time(
            self,
            "decode_response",
            "proto.decode_result_ns",
            &mut || {
                std::hint::black_box(decode_response(&result_frame).expect("decode result frame"));
            },
        );
        self.put("proto.query_frame_bytes", query_frame.len() as f64);
    }

    /// The Zipf stream through a standalone `QueryCache`, then through the
    /// serving front end: closed loop on two connections, then open loop
    /// at a fixed Poisson rate timed from the scheduled arrival.
    fn qcache_and_serve(&mut self) {
        let plan = inputs::zipf_plan(self.data.model, self.data.seed, 6_000, spec::OPEN_LOOP_QPS);

        let mut cache = QueryCache::new(QueryCacheConfig {
            capacity: spec::SERVE_QC_CAPACITY,
            ..QueryCacheConfig::paper_default()
        });
        let (mut lookups, mut inserts) = (Vec::new(), Vec::new());
        let start = Instant::now();
        self.rec.enter(
            "qcache",
            "QueryCache::lookup + insert, Zipf stream",
            self.op,
        );
        for item in &plan {
            if lookups.len() >= 2000 && start.elapsed() >= self.unit * 2 {
                break;
            }
            let t = Instant::now();
            let hit = cache.lookup(&item.qfv);
            lookups.push(t.elapsed().as_secs_f64() * 1e9);
            if hit.is_none() {
                let t = Instant::now();
                cache.insert(item.qfv.clone(), Vec::new());
                inserts.push(t.elapsed().as_secs_f64() * 1e9);
            }
        }
        self.rec.exit();
        let qc = cache.stats();
        self.put(
            "qcache.hit_share",
            qc.hits as f64 / qc.lookups.max(1) as f64,
        );
        self.put("qcache.evictions", qc.evictions as f64);
        self.put("qcache.lookup_ns", stats::median(&lookups));
        self.put("qcache.insert_ns", stats::median(&inserts));

        let mut store = DeepStore::in_memory(device_config(spec::SERVE_QC_CAPACITY));
        let db = store.write_db(self.service).expect("write_db");
        let mid = store.load_model(&self.graph).expect("load_model");
        let (transport, connector) = channel_transport();
        let handle = serve(transport, store, ServeConfig::default());
        let window = self.unit * 3;
        let run = |open_loop: bool, slice: &[Offered]| -> Vec<(f64, f64)> {
            // (latency ms, generator lag ms) per completed query.
            let epoch = Instant::now();
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..spec::SERVE_CONNECTIONS)
                    .map(|lane| {
                        let connector = &connector;
                        scope.spawn(move || {
                            let mut client =
                                HostClient::over(connector.connect().expect("connect"));
                            let mut done = Vec::new();
                            for item in slice.iter().skip(lane).step_by(spec::SERVE_CONNECTIONS) {
                                let due = item.at - slice[0].at;
                                if open_loop {
                                    if due > window {
                                        break;
                                    }
                                    std::thread::sleep(due.saturating_sub(epoch.elapsed()));
                                } else if epoch.elapsed() > window {
                                    break;
                                }
                                let sent = epoch.elapsed();
                                let from = if open_loop { due } else { sent };
                                let lag_ns = sent.saturating_sub(from).as_nanos() as u64;
                                let answered = client
                                    .query_traced(
                                        &item.qfv,
                                        spec::K,
                                        mid,
                                        db,
                                        AcceleratorLevel::Channel,
                                        false,
                                        0,
                                        lag_ns,
                                    )
                                    .and_then(|(id, _)| client.get_results(id));
                                if answered.is_ok() {
                                    let latency = epoch.elapsed().saturating_sub(from);
                                    done.push((latency.as_secs_f64() * 1e3, lag_ns as f64 / 1e6));
                                }
                            }
                            done
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("serve probe client panicked"))
                    .collect()
            })
        };
        self.rec
            .enter("serve", "closed loop, 2 connections", self.op);
        let closed = run(false, &plan[..plan.len() / 2]);
        self.rec.exit();
        let closed_stats = handle.stats();
        let stages = handle.obs().stage_percentiles();
        self.rec.enter("serve", "open loop, 300 q/s", self.op);
        let open = run(true, &plan[plan.len() / 2..]);
        self.rec.exit();
        let (_, all_stats) = handle.shutdown();

        if closed.is_empty() || open.is_empty() {
            self.fail("serve", "a serve segment completed no query");
        }
        let column = |rows: &[(f64, f64)], lag: bool| -> Vec<f64> {
            if rows.is_empty() {
                return vec![0.0];
            }
            stats::sorted(
                &rows
                    .iter()
                    .map(|r| if lag { r.1 } else { r.0 })
                    .collect::<Vec<_>>(),
            )
        };
        let closed_p50_us = stats::quantile_sorted(&column(&closed, false), 0.5) * 1e3;
        let queue_us = stages.queue_p50_ns as f64 / 1e3;
        let service_us = stages.service_p50_ns as f64 / 1e3;
        self.put("serve.queue_wait_p50_us", queue_us);
        self.put("serve.queue_wait_p99_us", stages.queue_p99_ns as f64 / 1e3);
        self.put("serve.service_p50_us", service_us);
        self.put("serve.service_p99_us", stages.service_p99_ns as f64 / 1e3);
        self.put(
            "serve.wire_overhead_us",
            closed_p50_us - queue_us - service_us,
        );
        self.put("serve.engine_batches", closed_stats.engine_batches as f64);
        self.put(
            "serve.coalesced_share",
            closed_stats.coalesced_queries as f64 / closed_stats.queries_admitted.max(1) as f64,
        );
        let rejected = (all_stats.rejected_overloaded + all_stats.rejected_quota) as f64;
        self.put(
            "serve.rejected_share",
            rejected / (rejected + all_stats.queries_admitted as f64).max(1.0),
        );
        let open_latency = column(&open, false);
        self.put(
            "serve.open_loop_p50_ms",
            stats::quantile_sorted(&open_latency, 0.5),
        );
        self.put(
            "serve.open_loop_p99_ms",
            stats::quantile_sorted(&open_latency, 0.99),
        );
        self.put(
            "serve.generator_lag_p99_ms",
            stats::quantile_sorted(&column(&open, true), 0.99),
        );
    }

    /// A 4-drive, 2-replica cluster on the service sample against the
    /// same partitions on standalone drives and the whole sample on one
    /// drive; then a dead drive and the rebalance that heals it.
    fn cluster(&mut self) {
        let queries = self.data.queries;
        let service = self.service;
        let mut cluster = DeepStoreCluster::with_replication(
            spec::CLUSTER_DRIVES,
            spec::CLUSTER_REPLICAS,
            device_config(0),
        );
        let cdb = cluster.write_db(service).expect("cluster write_db");
        let cmid = cluster.load_model(&self.graph).expect("cluster load_model");

        let drive = |features: &[Tensor], graph: &ModelGraph| {
            let mut store = DeepStore::in_memory(device_config(0));
            let db = store.write_db(features).expect("write_db");
            let mid = store.load_model(graph).expect("load_model");
            (store, mid, db)
        };
        let mut single = drive(service, &self.graph);
        let per = service.len().div_ceil(spec::CLUSTER_DRIVES);
        let mut parts: Vec<_> = service.chunks(per).map(|c| drive(c, &self.graph)).collect();
        let unit = self.unit;
        // The same query on the single drive, on every partition drive and
        // on the cluster, round after round.
        let query_drive = |(store, mid, db): &mut (DeepStore, _, _), q: &Tensor| {
            let req = QueryRequest::new(q.clone(), *mid, *db).k(spec::K);
            let r = store
                .query(req)
                .and_then(|id| store.results(id))
                .expect("drive query");
            r.elapsed.as_nanos()
        };
        let round = std::cell::Cell::new(0usize);
        let (mut partitions, mut sim_ns, mut single_sim_ns) = (0, 0, 0);
        let (rec, op) = (&mut *self.rec, self.op);
        let timed = interleaved_median_s(
            unit * 4,
            &mut [
                &mut || {
                    single_sim_ns = query_drive(&mut single, &queries[round.get() % queries.len()])
                },
                &mut || {
                    for part in &mut parts {
                        query_drive(part, &queries[round.get() % queries.len()]);
                    }
                },
                &mut || {
                    rec.enter("cluster", "DeepStoreCluster::query", op);
                    let r = cluster
                        .query(cluster_request(
                            &queries[round.get() % queries.len()],
                            cmid,
                            cdb,
                            false,
                        ))
                        .expect("cluster query");
                    rec.exit();
                    partitions = r.partitions.len();
                    sim_ns = r.elapsed.as_nanos();
                    round.set(round.get() + 1);
                },
            ],
        );
        let (single_s, parts_s, cluster_s) = (timed[0], timed[1], timed[2]);
        let mut j = round.get();
        self.put("cluster.scatter_overhead_ms", (cluster_s - parts_s) * 1e3);
        self.put("cluster.wall_scaling_efficiency", single_s / cluster_s);
        self.put(
            "cluster.sim_scaling_efficiency",
            single_sim_ns as f64 / sim_ns.max(1) as f64,
        );
        self.put("cluster.partitions_per_query", partitions as f64);

        cluster.kill_drive(1);
        let (mut failovers, mut degraded, mut runs) = (0u64, 0u64, 0u64);
        let failover_s = median_s(unit * 2, || {
            self.rec
                .enter("cluster", "DeepStoreCluster::query (drive 1 dead)", self.op);
            let r = cluster
                .query(cluster_request(
                    &queries[j % queries.len()],
                    cmid,
                    cdb,
                    false,
                ))
                .expect("cluster query after kill_drive");
            self.rec.exit();
            failovers += r
                .partitions
                .iter()
                .map(|p| u64::from(p.failovers))
                .sum::<u64>();
            degraded += u64::from(r.degraded);
            runs += 1;
            j += 1;
        });
        if degraded > 0 {
            self.fail("cluster", "answers degraded with one of two replicas alive");
        }
        self.put(
            "cluster.failovers_per_query",
            failovers as f64 / runs as f64,
        );
        self.put("cluster.failover_latency_p50_ms", failover_s * 1e3);
        let (report, rebalance_s) = self.timed("cluster", "DeepStoreCluster::rebalance", || {
            cluster.rebalance()
        });
        match report {
            Ok(report) => {
                self.put("cluster.rebalance_s", rebalance_s);
                self.put(
                    "cluster.rebalance_moved_mb",
                    report.moved_bytes as f64 / 1e6,
                );
                if !report.fully_replicated(spec::CLUSTER_REPLICAS) {
                    self.fail(
                        "cluster",
                        format!("not fully replicated after rebalance: {report:?}"),
                    );
                }
            }
            Err(e) => {
                self.put("cluster.rebalance_s", 0.0);
                self.put("cluster.rebalance_moved_mb", 0.0);
                self.fail("cluster", e);
            }
        }
    }

    /// The commit path on an image holding the service sample: flush,
    /// close, open, and the manifest's own encode / decode.
    fn persist(&mut self) {
        let path = self.dir.join("layers_persist.img");
        let mut store = DeepStore::create(&path, image_config(0)).expect("create image");
        let db = store.write_db(self.service).expect("write_db");
        store.load_model(&self.graph).expect("load_model");
        store.flush().expect("flush");

        // One ingest_restart-sized durable append.
        let chunk_len = (spec::INGEST_CHUNK as usize).min(self.sample.len());
        let chunk = &self.sample[..chunk_len];
        let (_, append_s) = self.timed("engine", "DeepStore::append_db", || {
            store.append_db(db, chunk).expect("append_db");
        });
        let (_, flush_s) = self.timed("persist", "DeepStore::flush", || {
            store.flush().expect("flush");
        });
        self.put("persist.flush_ms", flush_s * 1e3);
        self.put(
            "persist.flush_share_of_append",
            flush_s / (append_s + flush_s),
        );
        // One restart: close, open, and the close after it.
        let (_, close_s) = self.timed("persist", "DeepStore::close", || {
            store.close().expect("close")
        });
        let mut closes = vec![close_s];
        let (opened, open_s) = self.timed("persist", "DeepStore::open", || DeepStore::open(&path));
        match opened {
            Ok(reopened) => {
                let (closed, s) = self.timed("persist", "DeepStore::close", || reopened.close());
                closes.push(s);
                if let Err(e) = closed {
                    self.fail("persist", e);
                }
            }
            Err(e) => self.fail("persist", e),
        }
        self.put("persist.close_ms", stats::median(&closes) * 1e3);
        self.put("persist.open_ms", open_s * 1e3);

        let manifest = MmapStore::open(&path).map(|(_, bytes, _)| bytes);
        let _ = std::fs::remove_file(&path);
        let (mut bytes_len, mut encode_ms, mut decode_ms) = (0.0, 0.0, 0.0);
        match manifest {
            Ok(bytes) => {
                bytes_len = bytes.len() as f64;
                let (decoded, s) = self.timed("persist", "ImageManifest::decode", || {
                    ImageManifest::decode(&bytes)
                });
                decode_ms = s * 1e3;
                match decoded {
                    Ok(manifest) => {
                        let (encoded, s) =
                            self.timed("persist", "ImageManifest::encode", || manifest.encode());
                        encode_ms = s * 1e3;
                        if encoded != bytes {
                            self.fail(
                                "persist",
                                "manifest does not re-encode to the committed bytes",
                            );
                        }
                    }
                    Err(e) => self.fail("persist", e),
                }
            }
            Err(e) => self.fail("persist", e),
        }
        self.put("persist.manifest_bytes", bytes_len);
        self.put("persist.manifest_encode_ms", encode_ms);
        self.put("persist.manifest_decode_ms", decode_ms);
    }
}
