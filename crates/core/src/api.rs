//! The DeepStore programming API (Table 2).
//!
//! [`DeepStore`] bundles the functional engine, the query cache and the
//! timing model behind the paper's interface:
//!
//! | Paper API    | Here                                              |
//! |--------------|---------------------------------------------------|
//! | `readDB`     | [`DeepStore::read_db`]                            |
//! | `writeDB`    | [`DeepStore::write_db`]                           |
//! | `appendDB`   | [`DeepStore::append_db`]                          |
//! | `loadModel`  | [`DeepStore::load_model`]                         |
//! | `query`      | [`DeepStore::query`] / [`DeepStore::query_batch`] |
//! | `getResults` | [`DeepStore::results`] / [`DeepStore::peek_results`] |
//! | `setQC`      | [`DeepStore::set_qc`]                             |
//!
//! Queries execute functionally (real flash pages, real similarity
//! scores, a real top-K sorter) and every result carries the simulated
//! elapsed time from the in-storage accelerator timing model.
//!
//! # Requests
//!
//! A query is described by a [`QueryRequest`] built with a fluent
//! builder — `QueryRequest::new(qfv, model, db)` defaults to `k = 1`
//! and the channel-level accelerators, and `.k(..)` / `.level(..)`
//! override them:
//!
//! ```no_run
//! # use deepstore_core::{DeepStore, DeepStoreConfig, QueryRequest, AcceleratorLevel};
//! # use deepstore_nn::{zoo, ModelGraph};
//! # let mut store = DeepStore::in_memory(DeepStoreConfig::small());
//! # let model = zoo::textqa().seeded(9);
//! # let db = store.write_db(&[model.random_feature(0)]).unwrap();
//! # let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
//! let req = QueryRequest::new(model.random_feature(99), mid, db)
//!     .k(5)
//!     .level(AcceleratorLevel::Channel);
//! let qid = store.query(req).unwrap();
//! ```
//!
//! [`DeepStore::query_batch`] submits many requests at once; co-batched
//! requests against the same `(db, model, level)` share a single flash
//! pass (every page is streamed and every feature decoded exactly once
//! for the whole group), which is how the device amortizes its dominant
//! cost — flash streaming — across concurrent queries. Batched results
//! are bit-identical to issuing the same requests sequentially.
//!
//! # Errors
//!
//! Errors arrive as [`DeepStoreError`], which separates device-API
//! misuse ([`DeepStoreError::UnknownModel`],
//! [`DeepStoreError::UnknownQuery`], [`DeepStoreError::LevelUnsupported`])
//! from genuine flash failures ([`DeepStoreError::Flash`]).
//!
//! # Observability
//!
//! The device keeps lock-free telemetry on the whole query pipeline
//! (see [`crate::telemetry`]): [`DeepStore::stats`] reports pipeline
//! counters, per-stage simulated-latency totals and flash event counts,
//! and [`DeepStore::enable_tracing`] records a per-query span timeline
//! that [`DeepStore::trace_json`] renders as Chrome trace-event JSON.
//! Both are driven entirely by the simulated clock, so repeated runs of
//! the same workload produce identical stats and byte-identical traces.

use crate::accel::{scan as timing_scan, scan_batch, shard_timings, ScanWorkload};
use crate::config::{AcceleratorLevel, DeepStoreConfig};
use crate::engine::{check_request_shape, CascadeStats, DbId, Engine, ObjectId};
use crate::error::{DeepStoreError, Result};
use crate::persist::{model_bytes, read_model, ImageManifest, StoredModel, MANIFEST_VERSION};
use crate::qcache::{lookup_time_for, QueryCache, QueryCacheConfig};
use crate::telemetry::{ApiTelemetry, DeviceStats, StageTotals};
use deepstore_flash::layout::DbLayout;
use deepstore_flash::stream::retry_stall;
use deepstore_flash::{FlashError, FlashOpCounts, ImageExtent, MmapStore, SimDuration};
use deepstore_nn::{Model, ModelGraph, Tensor};
use deepstore_obs::TraceRecorder;
use deepstore_systolic::topk::ScoredFeature;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::Path;

/// Identifies a loaded similarity model (returned by `loadModel`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ModelId(pub u64);

/// Identifies a submitted query (returned by `query`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct QueryId(pub u64);

/// A similarity query: the query feature vector plus everything the
/// device needs to rank it.
///
/// Built with a fluent builder; [`QueryRequest::new`] defaults to
/// `k = 1` and [`AcceleratorLevel::Channel`] (the level the paper finds
/// fastest for every workload, §6.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryRequest {
    /// The query feature vector.
    pub qfv: Tensor,
    /// The similarity model to score with.
    pub model: ModelId,
    /// The database to scan.
    pub db: DbId,
    /// How many top results to keep.
    pub k: usize,
    /// Which accelerator placement serves the scan.
    pub level: AcceleratorLevel,
    /// Minimum fraction of the database the scan must cover for the
    /// query to succeed. `None` (the default) accepts any partial
    /// answer: intelligent queries tolerate approximation, so a scan
    /// that lost features to uncorrectable reads still returns its
    /// degraded top-K. `Some(f)` makes the whole batch fail with
    /// [`DeepStoreError::InsufficientCoverage`] when coverage drops
    /// below `f`.
    pub min_coverage: Option<f64>,
    /// Opt out of the int8 pruning cascade and score every feature
    /// through the exact f32 path. `false` (the default) lets the scan
    /// skip exact scoring for features whose quantized score upper
    /// bound provably cannot reach the top-K. Results are
    /// **bit-identical** either way (the cascade's recall is exactly
    /// 1.0 by construction); the flag exists for performance studies
    /// and as a belt-and-braces production escape hatch.
    pub exact: bool,
}

impl QueryRequest {
    /// A request for the top-1 match at the channel level.
    pub fn new(qfv: Tensor, model: ModelId, db: DbId) -> Self {
        QueryRequest {
            qfv,
            model,
            db,
            k: 1,
            level: AcceleratorLevel::Channel,
            min_coverage: None,
            exact: false,
        }
    }

    /// Sets how many results to retrieve.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the accelerator level that serves the scan.
    pub fn level(mut self, level: AcceleratorLevel) -> Self {
        self.level = level;
        self
    }

    /// Requires the scan to cover at least `fraction` of the database
    /// (`0.0 ..= 1.0`) or fail with
    /// [`DeepStoreError::InsufficientCoverage`].
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `[0, 1]`.
    pub fn min_coverage(mut self, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "min_coverage must be in [0, 1]"
        );
        self.min_coverage = Some(fraction);
        self
    }

    /// Disables the pruning cascade for this request: every feature is
    /// scored through the exact f32 path. The ranking is identical
    /// either way; only the amount of compute skipped changes.
    pub fn exact(mut self) -> Self {
        self.exact = true;
        self
    }
}

/// One ranked answer: similarity score, feature index, and the feature's
/// physical address (`ObjectID`) for fetching the raw content.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryHit {
    /// Similarity score.
    pub score: f32,
    /// Index of the feature within its database.
    pub feature_index: u64,
    /// Physical address of the feature vector.
    pub object_id: ObjectId,
}

/// A completed query's results and provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryResult {
    /// The query's id.
    pub query_id: QueryId,
    /// Ranked hits, best first.
    pub top_k: Vec<QueryHit>,
    /// Whether the query was answered from the query cache.
    pub cache_hit: bool,
    /// Simulated end-to-end latency inside the SSD.
    pub elapsed: SimDuration,
    /// Accelerator level that served (or would have served) the scan.
    pub level: AcceleratorLevel,
    /// Features the query's scan pass skipped because their flash pages
    /// failed ECC (0 for cache hits — no scan ran). Members of one
    /// batched scan group share the pass, so they report the same
    /// count; the engine-global [`DeepStore::unreadable_skipped`] total
    /// is the sum over passes, not over queries.
    pub skipped: u64,
    /// Fraction of the database's features the scan actually scored
    /// (`1.0` for cache hits and fault-free scans). The top-K was
    /// ranked over exactly this fraction; the rest was unreadable even
    /// after read retries.
    pub coverage: f64,
    /// True when `coverage < 1.0`: the answer is approximate beyond
    /// the model's own approximation, because part of the database
    /// could not be read. Degraded results are never inserted into the
    /// query cache, so cache hits always carry full coverage.
    pub degraded: bool,
}

/// The DeepStore device facade.
#[derive(Debug)]
pub struct DeepStore {
    engine: Engine,
    models: HashMap<ModelId, Model>,
    /// Where each model's bytes sit in the image once written: the
    /// first commit after `load_model` writes them, no later one does.
    model_extents: HashMap<ModelId, ImageExtent>,
    qc: Option<QueryCache>,
    results: HashMap<QueryId, QueryResult>,
    next_model: u64,
    next_query: u64,
    /// API-level telemetry (queries, batches, stage totals).
    telemetry: ApiTelemetry,
    /// Trace recorder, present while tracing is enabled.
    tracer: Option<TraceRecorder>,
    /// Simulated trace clock: successive batches lay out back-to-back
    /// on one reproducible timeline.
    trace_clock_ns: u64,
    /// True when `open` found the image missing its clean-shutdown
    /// marker (the owning process died between commits); state is the
    /// last successful commit.
    opened_dirty: bool,
}

impl DeepStore {
    /// Creates a volatile DeepStore device: page payloads live on the
    /// heap and vanish with the process. [`DeepStore::flush`] and
    /// [`DeepStore::close`] are no-ops.
    ///
    /// The page store is chosen by the constructor, never by the
    /// environment: this one is always the heap. For the same device
    /// over an mmap image use [`DeepStore::create`] (a test that wants
    /// the image gone afterwards can unlink the path at once — the
    /// mapping keeps it alive).
    pub fn in_memory(cfg: DeepStoreConfig) -> Self {
        Self::from_engine(Engine::new(cfg))
    }

    /// Creates a persistent DeepStore device backed by a new single-file
    /// mmap image at `path`, and commits an initial (empty) manifest so
    /// the image is immediately openable.
    ///
    /// The file is sized sparsely to the configured geometry (a 1 TiB
    /// drive costs no disk until pages are programmed).
    ///
    /// # Errors
    ///
    /// Returns [`DeepStoreError::Flash`] wrapping [`FlashError::Image`]
    /// if `path` already exists or the image cannot be created/mapped.
    pub fn create(path: impl AsRef<Path>, cfg: DeepStoreConfig) -> Result<Self> {
        let store =
            MmapStore::create(path.as_ref(), cfg.ssd.geometry).map_err(DeepStoreError::from)?;
        let mut store = Self::from_engine(Engine::with_store(cfg, Box::new(store)));
        store.flush()?;
        Ok(store)
    }

    /// Opens a persistent DeepStore device from an image previously
    /// built by [`DeepStore::create`]: maps the page region, restores
    /// the device state recorded by the last successful commit
    /// (databases, models, FTL and flash counters, id counters), and
    /// rebuilds the int8 cascade sidecars by decoding features straight
    /// from the mapping. The query cache starts cold. The image is
    /// marked in-use (dirty) until [`DeepStore::close`]; an image whose
    /// manifest still carries an FTL free list (versions 1 and 2) or its
    /// models inline (version 1) is rewritten as version 3 by that same
    /// commit.
    ///
    /// Check [`DeepStore::opened_dirty`] to learn whether the previous
    /// owner exited without a clean close — state is then the last
    /// commit, and later uncommitted writes are gone.
    ///
    /// # Errors
    ///
    /// * [`DeepStoreError::VersionMismatch`] if the image or its
    ///   manifest was written by a different format version.
    /// * [`DeepStoreError::Flash`] wrapping [`FlashError::Image`] for a
    ///   missing/corrupt image, including a model extent that is out of
    ///   bounds or fails its CRC (the message names the model id).
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let (mut image, manifest_bytes, clean) =
            MmapStore::open(path.as_ref()).map_err(DeepStoreError::from)?;
        let manifest = ImageManifest::decode(&manifest_bytes)?;
        let mut models = HashMap::new();
        let mut model_extents = HashMap::new();
        for (id, stored) in manifest.models {
            let model = match stored {
                StoredModel::Inline(model) => model,
                StoredModel::Extent(extent) => {
                    let model = read_model(&image, id, &extent)?;
                    model_extents.insert(ModelId(id), extent);
                    model
                }
            };
            models.insert(ModelId(id), model);
        }
        image.set_live_extents(model_extents.values().copied().collect());
        let qc = Self::fresh_qc(&manifest.cfg);
        let engine = Engine::restore(
            manifest.cfg,
            Box::new(image),
            &manifest.flash,
            &manifest.ftl,
            manifest.dbs,
            manifest.write_buffers,
            manifest.next_db,
        );
        let mut store = DeepStore {
            engine,
            models,
            model_extents,
            qc,
            results: HashMap::new(),
            next_model: manifest.next_model,
            next_query: manifest.next_query,
            telemetry: ApiTelemetry::new(),
            tracer: None,
            trace_clock_ns: 0,
            opened_dirty: !clean,
        };
        // Mark the image in-use: a crash from here on is detected as a
        // dirty open next time (the committed state stays authoritative
        // either way).
        store.flush()?;
        Ok(store)
    }

    /// Commits all device state to the backing image with the
    /// crash-safe ordering of [`deepstore_flash::image`]: models loaded
    /// since the last commit are written once into their own extents,
    /// page payloads are synced, the manifest is written beside the live
    /// one, and the header generation advances only after all of them
    /// are durable. A crash at any point leaves the previous commit
    /// intact. No-op `Ok` on a volatile (heap) device.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStoreError::Flash`] wrapping [`FlashError::Image`]
    /// if the commit fails; the previous commit stays authoritative.
    pub fn flush(&mut self) -> Result<()> {
        self.commit(false)
    }

    /// Flushes and marks the image cleanly closed, consuming the
    /// device. The next [`DeepStore::open`] reports
    /// `opened_dirty() == false`. No-op `Ok` on a volatile device.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeepStore::flush`].
    pub fn close(mut self) -> Result<()> {
        self.commit(true)
    }

    fn commit(&mut self, clean: bool) -> Result<()> {
        if !self.engine.is_persistent() {
            return Ok(());
        }
        // Extents before the manifest that references them: the
        // commit's sync makes both durable before its header publishes.
        // Id order, so the image layout repeats run to run.
        let mut unwritten: Vec<ModelId> = self
            .models
            .keys()
            .filter(|id| !self.model_extents.contains_key(id))
            .copied()
            .collect();
        unwritten.sort_by_key(|id| id.0);
        for id in unwritten {
            let extent = self.engine.write_extent(&model_bytes(&self.models[&id]))?;
            self.model_extents.insert(id, extent);
        }
        let manifest = self.build_manifest().encode();
        self.engine.commit(&manifest, clean)?;
        Ok(())
    }

    /// Which storage backend holds the page payloads (`"heap"` or
    /// `"mmap"`).
    pub fn backend(&self) -> &'static str {
        self.engine.backend()
    }

    /// Whether committed state survives process exit.
    pub fn is_persistent(&self) -> bool {
        self.engine.is_persistent()
    }

    /// True when [`DeepStore::open`] found no clean-shutdown marker:
    /// the previous owner crashed (or skipped [`DeepStore::close`]) and
    /// the restored state is its last successful commit.
    pub fn opened_dirty(&self) -> bool {
        self.opened_dirty
    }

    fn fresh_qc(cfg: &DeepStoreConfig) -> Option<QueryCache> {
        (cfg.qc_capacity > 0).then(|| {
            QueryCache::new(QueryCacheConfig {
                capacity: cfg.qc_capacity,
                ..QueryCacheConfig::paper_default()
            })
        })
    }

    fn from_engine(engine: Engine) -> Self {
        let qc = Self::fresh_qc(engine.config());
        DeepStore {
            engine,
            models: HashMap::new(),
            model_extents: HashMap::new(),
            qc,
            results: HashMap::new(),
            next_model: 1,
            next_query: 1,
            telemetry: ApiTelemetry::new(),
            tracer: None,
            trace_clock_ns: 0,
            opened_dirty: false,
        }
    }

    /// Snapshots the device into the manifest a commit persists (every
    /// model already has its extent).
    fn build_manifest(&self) -> ImageManifest {
        let mut models: Vec<(u64, StoredModel)> = self
            .model_extents
            .iter()
            .map(|(id, &extent)| (id.0, StoredModel::Extent(extent)))
            .collect();
        models.sort_by_key(|(id, _)| *id);
        ImageManifest {
            manifest_version: MANIFEST_VERSION,
            cfg: self.engine.config().clone(),
            flash: self.engine.flash_snapshot(),
            ftl: self.engine.ftl_snapshot(),
            dbs: self.engine.db_metas(),
            write_buffers: self.engine.write_buffer_snapshot(),
            next_db: self.engine.next_db_raw(),
            models,
            next_model: self.next_model,
            next_query: self.next_query,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DeepStoreConfig {
        self.engine.config()
    }

    /// Sets the scan worker count (`0` = one worker per available host
    /// core). Purely a host wall-clock knob: query results and simulated
    /// latencies are bit-identical at every setting.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.engine.set_parallelism(workers);
    }

    /// `writeDB`: creates a feature database, returning its id. The
    /// database is sealed (all buffered pages flushed) before returning.
    ///
    /// # Errors
    ///
    /// See [`Engine::write_db`].
    pub fn write_db(&mut self, features: &[Tensor]) -> Result<DbId> {
        let db = self.engine.write_db(features)?;
        self.engine.seal_db(db)?;
        if let Some(qc) = &mut self.qc {
            qc.invalidate_all();
        }
        Ok(db)
    }

    /// `appendDB`: appends features to a database and reseals it.
    ///
    /// # Errors
    ///
    /// See [`Engine::append_db`].
    pub fn append_db(&mut self, db: DbId, features: &[Tensor]) -> Result<()> {
        self.engine.append_db(db, features)?;
        self.engine.seal_db(db)?;
        if let Some(qc) = &mut self.qc {
            qc.invalidate_all();
        }
        Ok(())
    }

    /// `readDB`: reads `num` features starting at index `start`.
    ///
    /// Reading never mutates device state, so this takes `&self`.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStoreError::Flash`] wrapping
    /// [`FlashError::UnknownDb`] or [`FlashError::AddressOutOfRange`]
    /// for bad ids/ranges, including a range whose end overflows `u64`.
    pub fn read_db(&self, db: DbId, start: u64, num: u64) -> Result<Vec<Tensor>> {
        let total = self.engine.db_meta(db)?.num_features;
        match start.checked_add(num) {
            Some(end) if end <= total => (start..end)
                .map(|i| self.engine.read_feature(db, i))
                .collect(),
            _ => Err(FlashError::AddressOutOfRange(format!(
                "features {start}..+{num} of {total} in db {}",
                db.0
            ))
            .into()),
        }
    }

    /// `loadModel`: registers a similarity model shipped as a serialized
    /// graph, returning its id.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::SizeMismatch`] if the graph's model has no
    /// materialized weights (an unweighted graph cannot score anything).
    pub fn load_model(&mut self, graph: &ModelGraph) -> Result<ModelId> {
        let model = graph.model().clone();
        if !model.is_seeded() {
            return Err(FlashError::SizeMismatch {
                expected: model.weight_bytes() as usize,
                found: 0,
            }
            .into());
        }
        let id = ModelId(self.next_model);
        self.next_model += 1;
        self.models.insert(id, model);
        Ok(id)
    }

    /// `setQC`: configures (or reconfigures) the query cache.
    pub fn set_qc(&mut self, config: QueryCacheConfig) {
        self.qc = Some(QueryCache::new(config));
    }

    /// Disables the query cache.
    pub fn disable_qc(&mut self) {
        self.qc = None;
    }

    /// Query-cache statistics, if the cache is enabled.
    pub fn qc_stats(&self) -> Option<crate::qcache::QcStats> {
        self.qc.as_ref().map(|q| q.stats())
    }

    /// Features skipped by scans so far because their flash pages failed
    /// ECC (intelligent queries degrade gracefully instead of failing).
    pub fn unreadable_skipped(&self) -> u64 {
        self.engine.unreadable_skipped()
    }

    /// Scrub probe: how many of `db`'s features are currently readable
    /// through the retried read path. See
    /// [`Engine::probe_db`](crate::engine::Engine::probe_db).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::UnknownDb`] for unknown ids.
    pub fn probe_db(&self, db: DbId) -> Result<crate::engine::DbProbe> {
        self.engine.probe_db(db)
    }

    /// The armed fault plan's outage domains (dead channels/chips) and
    /// how much of the address space they cover. Used by the cluster
    /// layer to tell a partially degraded drive from a dead one.
    pub fn outage_summary(&self) -> deepstore_flash::OutageSummary {
        self.engine.outage_summary()
    }

    /// Flash operation counters — useful for asserting how many page
    /// reads a scan issued. On a persistent device the counters resume
    /// across close/open exactly where they left off.
    pub fn flash_op_counts(&self) -> FlashOpCounts {
        self.engine.flash_op_counts()
    }

    /// Injects a flash fault plan (reliability experiments): subsequent
    /// page reads consult the plan and scans skip features whose pages
    /// fail ECC.
    pub fn inject_faults(&mut self, faults: deepstore_flash::fault::FaultPlan) {
        self.engine.inject_faults(faults);
    }

    /// Runs the recovery (scrub) pipeline: soft-decodes data out of
    /// permanently-failing blocks observed by earlier scans, remaps it
    /// into fresh blocks and retires the bad blocks from the FTL. The
    /// next scan reads the remapped copies at full coverage.
    ///
    /// Recovery is an explicit maintenance operation — it is never run
    /// implicitly by the query path, so a sequence of queries observes
    /// one consistent (possibly degraded) view of the database
    /// regardless of batching or parallelism. See
    /// [`Engine::recover_faults`](crate::engine::Engine::recover_faults).
    pub fn recover_faults(&mut self) -> crate::engine::RecoveryReport {
        let recovery = self.engine.recover_faults();
        if !recovery.is_empty() {
            self.telemetry
                .recovery_pages_remapped
                .add(recovery.pages_remapped);
            self.telemetry.recovery_pages_lost.add(recovery.pages_lost);
            if let Some(t) = &mut self.tracer {
                t.instant("recovery", "fault", self.trace_clock_ns, 0)
                    .arg_u64("blocks_retired", recovery.blocks_retired)
                    .arg_u64("pages_remapped", recovery.pages_remapped)
                    .arg_u64("pages_lost", recovery.pages_lost);
            }
        }
        recovery
    }

    /// Blocks the FTL has retired (taken out of allocation) so far.
    pub fn retired_block_count(&self) -> usize {
        self.engine.retired_block_count()
    }

    /// `query`: submits one [`QueryRequest`], returning the query id for
    /// [`DeepStore::results`].
    ///
    /// Equivalent to `query_batch(&[request])` — single queries are just
    /// batches of one.
    ///
    /// # Errors
    ///
    /// * [`DeepStoreError::UnknownModel`] for an unloaded model id.
    /// * [`DeepStoreError::LevelUnsupported`] if the requested level
    ///   cannot execute the model (chip level vs ReId).
    /// * [`DeepStoreError::Flash`] for unknown databases, or a query
    ///   vector that does not match the model or a model that does not
    ///   match the database's feature size
    ///   ([`FlashError::SizeMismatch`], raised before any flash traffic).
    pub fn query(&mut self, request: QueryRequest) -> Result<QueryId> {
        let ids = self.query_batch(std::slice::from_ref(&request))?;
        Ok(ids[0])
    }

    /// Submits a batch of queries, returning one [`QueryId`] per request
    /// in request order.
    ///
    /// Requests that miss the query cache are grouped by
    /// `(db, model, level)`; each group shares a **single flash pass** —
    /// every page is streamed and every feature decoded once, and the
    /// fused multi-query scorer evaluates all of the group's query
    /// vectors against each feature. Per-request rankings are
    /// bit-identical to issuing the same requests sequentially.
    ///
    /// Timing: each request is charged its own query-cache lookup, and
    /// every member of a scan group is charged the group's batched scan
    /// latency (flash streaming and weight distribution amortized across
    /// the group, compute scaled by its size — see
    /// [`crate::accel::scan_batch`]). Cache lookups happen for the whole
    /// batch before any scan fills the cache, so duplicate query vectors
    /// within one batch all miss together.
    ///
    /// The whole batch is validated before any scan runs: one bad
    /// request fails the batch without issuing queries.
    ///
    /// # Errors
    ///
    /// See [`DeepStore::query`].
    pub fn query_batch(&mut self, requests: &[QueryRequest]) -> Result<Vec<QueryId>> {
        self.query_batch_tagged(requests, &[])
    }

    /// [`DeepStore::query_batch`] with end-to-end request ids.
    ///
    /// `request_ids[i]` tags request `i`'s trace spans (its per-request
    /// `query` span and its scan group's `scan` span) and the
    /// `api.tagged_requests` counter, joining the engine-side trace to
    /// the serve-layer request that carried it. An empty slice or a
    /// zero id leaves the request untagged; rankings, timing, and all
    /// other telemetry are identical either way.
    ///
    /// # Errors
    ///
    /// See [`DeepStore::query`].
    pub fn query_batch_tagged(
        &mut self,
        requests: &[QueryRequest],
        request_ids: &[u64],
    ) -> Result<Vec<QueryId>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let rid_of = |i: usize| request_ids.get(i).copied().unwrap_or(0);
        let cfg = self.engine.config();
        let base = self.trace_clock_ns;
        if let Some(t) = &mut self.tracer {
            t.instant("batch", "pipeline", base, 0)
                .arg_u64("requests", requests.len() as u64);
        }

        // Validate everything up front: model ids, databases, request
        // shapes, level support. `scan_top_k_batch_with` runs on
        // `&Engine`, so models, metadata and config are all borrowed —
        // no per-query clones of weight tensors or page tables.
        let mut preps: Vec<(&Model, ScanWorkload)> = Vec::with_capacity(requests.len());
        for req in requests {
            let model_ref = self
                .models
                .get(&req.model)
                .ok_or(DeepStoreError::UnknownModel(req.model))?;
            let meta = self.engine.db_meta(req.db)?;
            check_request_shape(meta, model_ref, &req.qfv)?;
            let layout = DbLayout::new(
                meta.feature_bytes,
                meta.num_features,
                cfg.ssd.geometry.page_bytes,
                cfg.placement,
            );
            let workload = ScanWorkload {
                shapes: model_ref.layer_shapes(),
                weight_bytes: model_ref.weight_bytes(),
                feature_bytes: meta.feature_bytes,
                layout,
            };
            if timing_scan(req.level, &workload, cfg).is_none() {
                return Err(DeepStoreError::LevelUnsupported {
                    model: model_ref.name().to_string(),
                    level: req.level,
                });
            }
            preps.push((model_ref, workload));
        }
        if let Some(t) = &mut self.tracer {
            t.instant("validate", "pipeline", base, 0);
        }

        // Query-cache lookups (Algorithm 1), timed on the channel-level
        // accelerators. All lookups precede all fills.
        let mut elapsed = vec![SimDuration::ZERO; requests.len()];
        let mut cache_hit = vec![false; requests.len()];
        let mut ranked: Vec<Option<Vec<ScoredFeature>>> = vec![None; requests.len()];
        let mut qc_ns = vec![0u64; requests.len()];
        if let Some(qc) = &mut self.qc {
            for (i, req) in requests.iter().enumerate() {
                let lookup = lookup_time_for(
                    qc.len(),
                    &preps[i].1.shapes,
                    cfg.ssd.geometry.channels,
                    cfg.controller_overhead_cycles,
                );
                elapsed[i] += lookup;
                qc_ns[i] = lookup.as_nanos();
                self.telemetry.stage_qc_lookup_ns.add(lookup.as_nanos());
                self.telemetry.qc_lookup_ns.record(lookup.as_nanos());
                if let Some(hit) = qc.lookup(&req.qfv) {
                    cache_hit[i] = true;
                    ranked[i] = Some(hit);
                }
            }
        }

        // Group the misses by (db, model, level): each group shares one
        // flash pass. Vec-of-groups (not a HashMap) keeps group order
        // deterministic — first-miss order.
        let mut groups: Vec<((DbId, ModelId, AcceleratorLevel), Vec<usize>)> = Vec::new();
        for (i, req) in requests.iter().enumerate() {
            if ranked[i].is_some() {
                continue;
            }
            let key = (req.db, req.model, req.level);
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, members)) => members.push(i),
                None => groups.push((key, vec![i])),
            }
        }
        if let Some(t) = &mut self.tracer {
            t.instant("scan-group formation", "pipeline", base, 0)
                .arg_u64("groups", groups.len() as u64);
        }

        let mut skipped = vec![0u64; requests.len()];
        let mut coverage = vec![1.0f64; requests.len()];
        for (g, ((db, _, level), members)) in groups.iter().enumerate() {
            let batch: Vec<(&Model, &Tensor, usize, bool)> = members
                .iter()
                .map(|&i| {
                    (
                        preps[i].0,
                        &requests[i].qfv,
                        requests[i].k,
                        requests[i].exact,
                    )
                })
                .collect();
            let workload = &preps[members[0]].1;
            let timing = scan_batch(*level, workload, cfg, members.len())
                .expect("level support was validated above");
            let (group_results, group_faults, group_cascade) =
                self.engine.scan_top_k_batch_with(*db, &batch)?;
            let group_skipped = group_faults.skipped;
            let num_features = self.engine.db_meta(*db)?.num_features;
            let group_coverage = if num_features == 0 {
                1.0
            } else {
                (num_features - group_skipped) as f64 / num_features as f64
            };
            // Read retries stall the flash stream: charge the escalating
            // ladder cost to the group's simulated latency.
            let stall = retry_stall(&cfg.ssd.timing, &group_faults.reads.retries_by_round);
            self.engine
                .flash_metrics()
                .read_retry_ns
                .add(stall.as_nanos());

            // Per-shard page-walk detail: stream time and channel-bus
            // arbitration waits from the flash sim's timing model.
            let shards = shard_timings(*level, workload, cfg);
            let bus_wait: u64 = shards.iter().map(|s| s.bus_wait.as_nanos()).sum();
            let transfers: u64 = shards.iter().map(|s| s.pages).sum();
            self.engine.flash_metrics().bus_wait_ns.add(bus_wait);
            self.engine.flash_metrics().bus_transfers.add(transfers);
            let m = &self.telemetry;
            m.scan_groups.incr();
            m.unreadable_skipped.add(group_skipped);
            m.stage_flash_ns.add(timing.flash.as_nanos());
            m.stage_compute_ns.add(timing.compute.as_nanos());
            m.stage_weights_ns.add(timing.weights.as_nanos());
            m.stage_scan_ns.add(timing.elapsed.as_nanos());
            m.scan_group_members.record(members.len() as u64);
            if let Some(t) = &mut self.tracer {
                // Each group gets a private block of trace lanes so its
                // spans never interleave with another group's: the
                // group-level scan/compute/weights lanes, then one lane
                // per shard. 512 lanes per block covers any geometry.
                let lane = 2000 + (g as u32) * 512;
                let scan_ns = timing.elapsed.as_nanos();
                let span = t
                    .span("scan", "scan-group", base, scan_ns, lane)
                    .arg_u64("members", members.len() as u64)
                    .arg_u64("skipped", group_skipped)
                    .arg_u64("retries", group_faults.reads.total_retries())
                    .arg_u64("recovered", group_faults.reads.recovered)
                    .arg_u64("lost_reads", group_faults.reads.lost)
                    .arg_str("level", format!("{level:?}"));
                // Join the group pass back to the serve-layer requests
                // that rode it: the comma-joined list of member ids (in
                // member order) makes the shared flash pass greppable
                // by any one request's id.
                if members.iter().any(|&i| rid_of(i) != 0) {
                    let joined = members
                        .iter()
                        .map(|&i| rid_of(i).to_string())
                        .collect::<Vec<_>>()
                        .join(",");
                    span.arg_str("request_ids", joined);
                }
                // One span per retry round on a lane near the top of the
                // group's block: duration = that round's ladder cost
                // summed over its retries, laid back-to-back so the lane
                // reads as the total retry stall.
                let mut retry_at = base + scan_ns;
                for (round, &n) in group_faults.reads.retries_by_round.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    let cost = (cfg.ssd.timing.read_retry.cost_of(round as u32 + 1) * n).as_nanos();
                    t.span(
                        format!("read-retry r{}", round + 1),
                        "fault",
                        retry_at,
                        cost,
                        lane + 500,
                    )
                    .arg_u64("retries", n);
                    retry_at += cost;
                }
                t.span(
                    "compute",
                    "scan-group",
                    base,
                    timing.compute.as_nanos(),
                    lane + 1,
                );
                // Cascade effectiveness for this group's pass, on its
                // own lane inside the group block: how many per-request
                // feature decisions skipped exact scoring vs were
                // rescored. Zero-width counters would vanish in the
                // viewer, so the span covers the compute window.
                if group_cascade != CascadeStats::default() {
                    t.span(
                        "prune",
                        "cascade",
                        base,
                        timing.compute.as_nanos(),
                        lane + 400,
                    )
                    .arg_u64("pruned", group_cascade.pruned)
                    .arg_u64("rescored", group_cascade.rescored);
                }
                let weights_ns = timing.weights.as_nanos();
                t.span(
                    "weights",
                    "scan-group",
                    base + scan_ns.saturating_sub(weights_ns),
                    weights_ns,
                    lane + 2,
                );
                for shard in &shards {
                    t.span(
                        format!("flash[{}]", shard.unit),
                        "flash",
                        base,
                        shard.stream.as_nanos(),
                        lane + 3 + shard.unit as u32,
                    )
                    .arg_u64("pages", shard.pages)
                    .arg_u64("bus_wait_ns", shard.bus_wait.as_nanos());
                }
            }
            for (&i, r) in members.iter().zip(group_results) {
                elapsed[i] += timing.elapsed + stall;
                skipped[i] = group_skipped;
                coverage[i] = group_coverage;
                ranked[i] = Some(r);
            }
        }

        // Coverage policy: enforced for the whole batch after all scans
        // and before any result is published — one starved request fails
        // the batch, and no query ids are handed out.
        for (i, req) in requests.iter().enumerate() {
            if let Some(required) = req.min_coverage {
                if coverage[i] < required {
                    return Err(DeepStoreError::InsufficientCoverage {
                        required,
                        achieved: coverage[i],
                    });
                }
            }
        }

        // Cache fills, in scan order, only now that the batch is known
        // to publish: a refused batch leaves the cache as it found it.
        // Degraded answers never enter the cache: a later hit would
        // replay the partial top-K as if it covered the whole database.
        if let Some(qc) = &mut self.qc {
            for &i in groups.iter().flat_map(|(_, members)| members) {
                if skipped[i] == 0 {
                    let r = ranked[i].clone().expect("group members were scored");
                    qc.insert(requests[i].qfv.clone(), r);
                }
            }
        }

        let qc_enabled = self.qc.is_some();
        let mut ids = Vec::with_capacity(requests.len());
        for (i, req) in requests.iter().enumerate() {
            let r = ranked[i].take().expect("request was scored or cache-hit");
            let top_k: Vec<QueryHit> = r
                .iter()
                .map(|e| {
                    Ok(QueryHit {
                        score: e.score,
                        feature_index: e.feature_id,
                        object_id: self.engine.object_id(req.db, e.feature_id)?,
                    })
                })
                .collect::<Result<_>>()?;
            let id = QueryId(self.next_query);
            self.next_query += 1;
            let degraded = coverage[i] < 1.0;
            let m = &self.telemetry;
            m.queries.incr();
            if cache_hit[i] {
                m.cache_hits.incr();
            } else {
                m.cache_misses.incr();
            }
            m.stage_total_ns.add(elapsed[i].as_nanos());
            m.query_ns.record(elapsed[i].as_nanos());
            if degraded {
                m.degraded_queries.incr();
            }
            if let Some(t) = &mut self.tracer {
                // One lane per request: the query span covers lookup
                // through merge, with the cache probe nested inside it.
                let lane = 10 + i as u32;
                let span = t
                    .span("query", "query", base, elapsed[i].as_nanos(), lane)
                    .arg_u64("id", id.0)
                    .arg_u64("k", req.k as u64)
                    .arg_u64("skipped", skipped[i])
                    .arg_str("coverage", format!("{:.4}", coverage[i]))
                    .arg_str("cache", if cache_hit[i] { "hit" } else { "miss" });
                if rid_of(i) != 0 {
                    span.arg_u64("request_id", rid_of(i));
                }
                if qc_enabled {
                    t.span("qc_lookup", "qcache", base, qc_ns[i], lane);
                }
            }
            self.results.insert(
                id,
                QueryResult {
                    query_id: id,
                    top_k,
                    cache_hit: cache_hit[i],
                    elapsed: elapsed[i],
                    level: req.level,
                    skipped: skipped[i],
                    coverage: coverage[i],
                    degraded,
                },
            );
            ids.push(id);
        }
        // Counted only once the batch has published: a refused batch
        // is not a served one.
        self.telemetry.batches.incr();
        self.telemetry
            .tagged_requests
            .add(request_ids.iter().filter(|&&r| r != 0).count() as u64);
        let batch_ns = elapsed.iter().map(|e| e.as_nanos()).max().unwrap_or(0);
        if let Some(t) = &mut self.tracer {
            t.instant("merge", "pipeline", base + batch_ns, 0);
        }
        // Advance the trace clock past this batch so the next batch's
        // spans start on a fresh, non-overlapping timestamp range.
        self.trace_clock_ns = base + batch_ns + 1;
        Ok(ids)
    }

    /// Inspects a completed query's results without consuming them.
    ///
    /// Returns `None` for unknown (or already-consumed) query ids.
    pub fn peek_results(&self, query: QueryId) -> Option<&QueryResult> {
        self.results.get(&query)
    }

    /// `getResults`: retrieves (and removes) a completed query's results.
    ///
    /// # Errors
    ///
    /// Returns [`DeepStoreError::UnknownQuery`] for unknown query ids.
    pub fn results(&mut self, query: QueryId) -> Result<QueryResult> {
        self.results
            .remove(&query)
            .ok_or(DeepStoreError::UnknownQuery(query))
    }

    /// Device-wide telemetry: query/batch/cache counters, per-stage
    /// simulated-time totals, flash event counts and the full metrics
    /// snapshot (the engine's table followed by the API's).
    ///
    /// The snapshot is deterministic: all counters are driven by the
    /// simulated timing model and physical data placement, so the same
    /// request sequence yields byte-identical stats at any
    /// `parallelism` setting.
    #[must_use]
    pub fn stats(&self) -> DeviceStats {
        let (scan, t) = (self.engine.metrics(), &self.telemetry);
        let mut metrics = scan.snapshot();
        metrics.merge(&t.snapshot());
        DeviceStats {
            queries: t.queries.get(),
            batches: t.batches.get(),
            cache_hits: t.cache_hits.get(),
            cache_misses: t.cache_misses.get(),
            scan_groups: t.scan_groups.get(),
            unreadable_skipped: self.engine.unreadable_skipped(),
            pruned_features: scan.features_pruned.get(),
            rescored_features: scan.features_rescored.get(),
            degraded_queries: t.degraded_queries.get(),
            stages: StageTotals {
                qc_lookup_ns: t.stage_qc_lookup_ns.get(),
                flash_ns: t.stage_flash_ns.get(),
                compute_ns: t.stage_compute_ns.get(),
                weights_ns: t.stage_weights_ns.get(),
                scan_ns: t.stage_scan_ns.get(),
                total_ns: t.stage_total_ns.get(),
            },
            flash: self.engine.flash_event_counts(),
            metrics,
        }
    }

    /// Starts recording a per-query trace timeline. Subsequent batches
    /// append spans; [`DeepStore::trace_json`] renders the accumulated
    /// timeline as Chrome trace-event JSON (load it in
    /// `chrome://tracing` or Perfetto).
    ///
    /// Timestamps are simulated nanoseconds, not wall-clock time, so a
    /// trace of the same request sequence is byte-identical across runs
    /// and `parallelism` settings.
    pub fn enable_tracing(&mut self) {
        if self.tracer.is_none() {
            self.tracer = Some(TraceRecorder::new());
        }
    }

    /// Renders the recorded trace as Chrome trace-event JSON, or `None`
    /// if [`DeepStore::enable_tracing`] was never called.
    #[must_use]
    pub fn trace_json(&self) -> Option<String> {
        self.tracer.as_ref().map(TraceRecorder::to_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepstore_nn::zoo;

    fn setup(app: &str, n: u64) -> (DeepStore, Model, DbId, ModelId) {
        let mut store = DeepStore::in_memory(DeepStoreConfig::small());
        let model = zoo::by_name(app).unwrap().seeded(42);
        let features: Vec<Tensor> = (0..n).map(|i| model.random_feature(i)).collect();
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        (store, model, db, mid)
    }

    #[test]
    fn request_builder_defaults() {
        let (_, model, db, mid) = setup("tir", 1);
        let req = QueryRequest::new(model.random_feature(0), mid, db);
        assert_eq!(req.k, 1);
        assert_eq!(req.level, AcceleratorLevel::Channel);
        let req = req.k(9).level(AcceleratorLevel::Ssd);
        assert_eq!(req.k, 9);
        assert_eq!(req.level, AcceleratorLevel::Ssd);
    }

    #[test]
    fn end_to_end_query_returns_ranked_results() {
        let (mut store, model, db, mid) = setup("tir", 64);
        let q = model.random_feature(1000);
        let qid = store.query(QueryRequest::new(q, mid, db).k(5)).unwrap();
        let r = store.results(qid).unwrap();
        assert_eq!(r.top_k.len(), 5);
        assert!(!r.cache_hit);
        assert!(r.elapsed > SimDuration::ZERO);
        // Scores are sorted descending.
        for w in r.top_k.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        // Results are consumed.
        assert_eq!(store.results(qid), Err(DeepStoreError::UnknownQuery(qid)));
    }

    #[test]
    fn peek_does_not_consume_results() {
        let (mut store, model, db, mid) = setup("tir", 16);
        let qid = store
            .query(QueryRequest::new(model.random_feature(7), mid, db).k(3))
            .unwrap();
        assert_eq!(store.peek_results(qid).unwrap().top_k.len(), 3);
        // Peeking twice still works; consuming then peeking does not.
        let peeked = store.peek_results(qid).unwrap().clone();
        let consumed = store.results(qid).unwrap();
        assert_eq!(peeked, consumed);
        assert!(store.peek_results(qid).is_none());
    }

    #[test]
    fn unknown_ids_get_dedicated_errors() {
        let (mut store, model, db, mid) = setup("tir", 4);
        let q = model.random_feature(0);
        assert_eq!(
            store.query(QueryRequest::new(q.clone(), ModelId(999), db)),
            Err(DeepStoreError::UnknownModel(ModelId(999)))
        );
        assert!(matches!(
            store.query(QueryRequest::new(q, mid, DbId(999))),
            Err(DeepStoreError::Flash(FlashError::UnknownDb(999)))
        ));
        assert_eq!(
            store.results(QueryId(777)),
            Err(DeepStoreError::UnknownQuery(QueryId(777)))
        );
    }

    #[test]
    fn repeated_builder_queries_are_deterministic() {
        let (mut store, model, db, mid) = setup("textqa", 32);
        store.disable_qc();
        let q = model.random_feature(5);
        let q1 = store
            .query(QueryRequest::new(q.clone(), mid, db).k(4))
            .unwrap();
        let q2 = store.query(QueryRequest::new(q, mid, db).k(4)).unwrap();
        let r1 = store.results(q1).unwrap();
        let r2 = store.results(q2).unwrap();
        assert_eq!(r1.top_k, r2.top_k);
        assert_eq!(r1.elapsed, r2.elapsed);
        assert_eq!(r1.skipped, r2.skipped);
    }

    #[test]
    fn stats_reports_stage_totals_and_flash_counts() {
        let (mut store, model, db, mid) = setup("textqa", 48);
        let q1 = store
            .query(QueryRequest::new(model.random_feature(5), mid, db).k(3))
            .unwrap();
        let reqs: Vec<_> = (0..3)
            .map(|i| QueryRequest::new(model.random_feature(100 + i), mid, db).k(3))
            .collect();
        let ids = store.query_batch(&reqs).unwrap();
        let _ = store.results(q1).unwrap();
        for id in ids {
            let _ = store.results(id).unwrap();
        }
        let stats = store.stats();
        assert_eq!(stats.queries, 4);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.cache_hits + stats.cache_misses, 4);
        assert!(stats.scan_groups >= 1);
        assert!(stats.stages.scan_ns > 0);
        assert!(stats.stages.total_ns >= stats.stages.scan_ns);
        assert!(stats.flash.page_reads > 0);
        assert!(stats.metrics.counter("api.queries").is_some());
        // Every scan group is exactly one flash pass.
        assert_eq!(
            stats.metrics.counter("engine.batch_scans"),
            Some(stats.scan_groups)
        );
    }

    #[test]
    fn trace_json_is_emitted_and_reproducible() {
        let run = || {
            let (mut store, model, db, mid) = setup("textqa", 32);
            store.enable_tracing();
            let reqs: Vec<_> = (0..2)
                .map(|i| QueryRequest::new(model.random_feature(i), mid, db).k(2))
                .collect();
            store.query_batch(&reqs).unwrap();
            store.trace_json().expect("tracing enabled")
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "trace must be byte-identical across runs");
        assert!(a.contains("\"traceEvents\""));
        assert!(a.contains("scan-group formation"));
        assert!(a.contains("qc_lookup"));
    }

    #[test]
    fn repeated_query_hits_cache_and_is_faster() {
        let (mut store, model, db, mid) = setup("textqa", 64);
        let q = model.random_feature(7);
        let q1 = store
            .query(QueryRequest::new(q.clone(), mid, db).k(3))
            .unwrap();
        let r1 = store.results(q1).unwrap();
        let q2 = store.query(QueryRequest::new(q, mid, db).k(3)).unwrap();
        let r2 = store.results(q2).unwrap();
        assert!(!r1.cache_hit);
        assert!(r2.cache_hit);
        assert!(r2.elapsed < r1.elapsed, "{} !< {}", r2.elapsed, r1.elapsed);
        // Same answers.
        let ids1: Vec<u64> = r1.top_k.iter().map(|h| h.feature_index).collect();
        let ids2: Vec<u64> = r2.top_k.iter().map(|h| h.feature_index).collect();
        assert_eq!(ids1, ids2);
    }

    #[test]
    fn write_db_invalidates_cache() {
        let (mut store, model, db, mid) = setup("textqa", 32);
        let q = model.random_feature(7);
        let _ = store
            .query(QueryRequest::new(q.clone(), mid, db).k(3))
            .unwrap();
        store.append_db(db, &[model.random_feature(999)]).unwrap();
        let q2 = store.query(QueryRequest::new(q, mid, db).k(3)).unwrap();
        assert!(!store.results(q2).unwrap().cache_hit);
    }

    #[test]
    fn read_db_returns_original_features() {
        let (store, model, db, _) = setup("mir", 20);
        // `read_db` takes `&self`: no mutable borrow needed.
        let got = store.read_db(db, 5, 3).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], model.random_feature(5));
        assert!(store.read_db(db, 18, 5).is_err());
    }

    #[test]
    fn unweighted_model_rejected() {
        let mut store = DeepStore::in_memory(DeepStoreConfig::small());
        let graph = ModelGraph::from_model(&zoo::tir());
        assert!(store.load_model(&graph).is_err());
    }

    #[test]
    fn chip_level_rejects_reid_queries() {
        let (mut store, model, db, mid) = setup("reid", 4);
        let q = model.random_feature(0);
        let err = store
            .query(
                QueryRequest::new(q.clone(), mid, db)
                    .k(2)
                    .level(AcceleratorLevel::Chip),
            )
            .unwrap_err();
        assert_eq!(
            err,
            DeepStoreError::LevelUnsupported {
                model: "reid".into(),
                level: AcceleratorLevel::Chip,
            }
        );
        // Channel level works.
        assert!(store.query(QueryRequest::new(q, mid, db).k(2)).is_ok());
    }

    #[test]
    fn wrong_query_length_is_rejected() {
        let (mut store, _, db, mid) = setup("tir", 8);
        let bad = Tensor::random(vec![7], 1.0, 0);
        assert!(store.query(QueryRequest::new(bad, mid, db).k(2)).is_err());
    }

    #[test]
    fn qc_can_be_reconfigured_and_disabled() {
        let (mut store, model, db, mid) = setup("textqa", 16);
        store.set_qc(QueryCacheConfig {
            capacity: 2,
            threshold: 0.0,
            qcn_accuracy: 1.0,
        });
        let q = model.random_feature(3);
        let _ = store
            .query(QueryRequest::new(q.clone(), mid, db).k(2))
            .unwrap();
        let q2 = store
            .query(QueryRequest::new(q.clone(), mid, db).k(2))
            .unwrap();
        assert!(store.results(q2).unwrap().cache_hit);
        store.disable_qc();
        assert!(store.qc_stats().is_none());
        let q3 = store.query(QueryRequest::new(q, mid, db).k(2)).unwrap();
        assert!(!store.results(q3).unwrap().cache_hit);
    }

    #[test]
    fn levels_order_query_latency() {
        let (mut store, model, db, mid) = setup("mir", 32);
        store.disable_qc();
        let q = model.random_feature(5);
        let mut elapsed = Vec::new();
        for level in [
            AcceleratorLevel::Ssd,
            AcceleratorLevel::Channel,
            AcceleratorLevel::Chip,
        ] {
            let qid = store
                .query(QueryRequest::new(q.clone(), mid, db).k(3).level(level))
                .unwrap();
            elapsed.push(store.results(qid).unwrap().elapsed);
        }
        // Channel is fastest on this tiny DB too (same model ordering).
        assert!(elapsed[1] <= elapsed[0]);
        assert!(elapsed[1] <= elapsed[2]);
    }

    #[test]
    fn object_ids_resolve_to_real_features() {
        let (mut store, model, db, mid) = setup("textqa", 48);
        store.disable_qc();
        let q = model.random_feature(123);
        let qid = store
            .query(QueryRequest::new(q.clone(), mid, db).k(4))
            .unwrap();
        let r = store.results(qid).unwrap();
        for hit in &r.top_k {
            let f = store.read_db(db, hit.feature_index, 1).unwrap();
            let score = model.similarity(&q, &f[0]).unwrap();
            assert!((score - hit.score).abs() < 1e-6);
        }
    }

    #[test]
    fn create_close_open_roundtrips_device_state() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "deepstore-api-lifecycle-{}-{}.img",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        let _cleanup = Cleanup(path.clone());

        let mut cfg = DeepStoreConfig::small();
        cfg.qc_capacity = 0; // cold cache on both sides of the reopen
        let model = zoo::textqa().seeded(42);
        let features: Vec<Tensor> = (0..48).map(|i| model.random_feature(i)).collect();
        let q = model.random_feature(1000);

        let mut store = DeepStore::create(&path, cfg.clone()).unwrap();
        assert_eq!(store.backend(), "mmap");
        assert!(store.is_persistent() && !store.opened_dirty());
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        let qid = store
            .query(QueryRequest::new(q.clone(), mid, db).k(5))
            .unwrap();
        let expected = store.results(qid).unwrap();
        let counts = store.flash_op_counts();
        store.close().unwrap();

        let mut back = DeepStore::open(&path).unwrap();
        assert!(!back.opened_dirty(), "closed cleanly");
        assert_eq!(back.flash_op_counts(), counts);
        // Same ids keep working; the ranked answer is bit-identical.
        let qid = back.query(QueryRequest::new(q, mid, db).k(5)).unwrap();
        let again = back.results(qid).unwrap();
        assert_eq!(again.top_k, expected.top_k);
        assert_eq!(again.elapsed, expected.elapsed);
        // Creating over an existing image is refused.
        assert!(matches!(
            DeepStore::create(&path, cfg),
            Err(DeepStoreError::Flash(FlashError::Image(_)))
        ));
        back.close().unwrap();
    }

    /// A unique image path under the temp dir, removed when the guard
    /// drops.
    fn temp_image(tag: &str) -> (std::path::PathBuf, impl Drop) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        let path = std::env::temp_dir().join(format!(
            "deepstore-api-{tag}-{}-{}.img",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        (path.clone(), Cleanup(path))
    }

    fn persistent_cfg() -> DeepStoreConfig {
        let mut cfg = DeepStoreConfig::small();
        cfg.qc_capacity = 0;
        cfg
    }

    /// Top-K and simulated latency of one probe per model, in model
    /// order.
    fn answers(store: &mut DeepStore, db: DbId, models: &[(ModelId, &Model)]) -> Vec<QueryResult> {
        models
            .iter()
            .map(|&(mid, model)| {
                let req = QueryRequest::new(model.random_feature(4242), mid, db).k(5);
                let qid = store.query(req).unwrap();
                let mut r = store.results(qid).unwrap();
                r.query_id = QueryId(0);
                r
            })
            .collect()
    }

    #[test]
    fn load_model_adds_at_most_256_bytes_to_the_manifest() {
        let (path, _cleanup) = temp_image("manifest-bytes");
        let mut store = DeepStore::create(&path, persistent_cfg()).unwrap();
        for model in [zoo::textqa().seeded(2), zoo::tir().seeded(1)] {
            store.flush().unwrap();
            let before = store.build_manifest().encode().len();
            store.load_model(&ModelGraph::from_model(&model)).unwrap();
            store.flush().unwrap();
            let after = store.build_manifest().encode().len();
            assert!(
                after - before <= 256,
                "{}: {before} -> {after} B for {} B of weights",
                model.name(),
                model.weight_bytes()
            );
        }
    }

    #[test]
    fn a_model_is_written_once_across_flushes_and_reopen() {
        let (path, _cleanup) = temp_image("write-once");
        let cfg = persistent_cfg();
        let model = zoo::textqa().seeded(42);
        let features: Vec<Tensor> = (0..48).map(|i| model.random_feature(i)).collect();
        let mut store = DeepStore::create(&path, cfg.clone()).unwrap();
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        for _ in 0..10 {
            store.flush().unwrap();
        }
        let extent = store.model_extents[&mid];
        store.close().unwrap();
        let mut back = DeepStore::open(&path).unwrap();
        back.flush().unwrap();
        assert_eq!(back.model_extents[&mid], extent);
        assert_eq!(back.models[&mid], model);
        back.append_db(db, &features[..8]).unwrap();
        back.close().unwrap();

        // Past the page region the file holds the model's bytes exactly
        // once: in its extent, and in none of the manifests.
        let image = std::fs::read(&path).unwrap();
        let tail = &image[4096 + cfg.ssd.geometry.total_bytes() as usize..];
        let needle = model_bytes(&model);
        let copies = (0..=tail.len().saturating_sub(needle.len()))
            .filter(|&at| tail[at] == needle[0] && tail[at..].starts_with(&needle))
            .count();
        assert_eq!(copies, 1);
    }

    #[test]
    fn empty_paper_default_manifest_is_a_few_kilobytes() {
        // Built in memory: a paper-default image file is 1 TiB long.
        let store = DeepStore::from_engine(Engine::new(DeepStoreConfig::paper_default()));
        let bytes = store.build_manifest().encode().len();
        assert!(bytes <= 64 * 1024, "{bytes} B");
    }

    #[test]
    fn version_2_image_opens_bit_identically_and_flushes_as_version_3() {
        use deepstore_flash::fault::FaultPlan;
        use deepstore_flash::ftl::PhysicalBlock;
        let model = zoo::textqa().seeded(42);
        let features: Vec<Tensor> = (0..48).map(|i| model.random_feature(i)).collect();
        for faulted in [false, true] {
            let (path, _cleanup) = temp_image("v2");
            let mut store = DeepStore::create(&path, persistent_cfg()).unwrap();
            let db = store.write_db(&features).unwrap();
            let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
            if faulted {
                // A scan trips permanent faults; recovery remaps their
                // pages into fresh blocks and retires the failing ones.
                let geometry = store.config().ssd.geometry;
                store.inject_faults(FaultPlan::random(&geometry, 0.25, 11));
                answers(&mut store, db, &[(mid, &model)]);
                assert!(store.recover_faults().blocks_retired > 0);
                store.inject_faults(FaultPlan::none());
            }
            store.flush().unwrap();
            let manifest = store.build_manifest();
            assert_eq!(manifest.ftl.retired.is_empty(), !faulted);
            let expected = answers(&mut store, db, &[(mid, &model)]);
            let v2 = crate::persist::encode_v2(&manifest);
            store.engine.commit(&v2, true).unwrap();
            drop(store);

            let mut back = DeepStore::open(&path).unwrap();
            assert_eq!(answers(&mut back, db, &[(mid, &model)]), expected);
            back.close().unwrap();
            let (_, bytes, _) = MmapStore::open(&path).unwrap();
            let reopened = ImageManifest::decode(&bytes).unwrap();
            assert_eq!(reopened.manifest_version, MANIFEST_VERSION);
            // Everything but the counters the probes moved is unchanged.
            assert_eq!(
                ImageManifest {
                    flash: manifest.flash.clone(),
                    next_query: manifest.next_query,
                    ..reopened
                },
                manifest
            );

            // A free list that is not the stripe order past its first
            // block, or that leaves blocks to a garbage collector, is
            // refused typed.
            let text = String::from_utf8(v2).unwrap();
            let block = |block| {
                serde_json::to_string(&PhysicalBlock {
                    channel: 0,
                    chip: 0,
                    plane: 0,
                    block,
                })
                .unwrap()
            };
            let outside = manifest.cfg.ssd.geometry.blocks_per_plane;
            for hostile in [
                text.replacen("\"free\":[", &format!("\"free\":[{},", block(1)), 1),
                text.replacen("\"free\":[", &format!("\"free\":[{},", block(outside)), 1),
                text.replacen(
                    "\"invalidated\":[]",
                    &format!("\"invalidated\":[{}]", block(0)),
                    1,
                ),
            ] {
                assert_ne!(hostile, text);
                assert!(matches!(
                    ImageManifest::decode(hostile.as_bytes()),
                    Err(DeepStoreError::Flash(FlashError::Image(_)))
                ));
            }
        }
    }

    #[test]
    fn version_1_image_opens_bit_identically_and_flushes_as_version_3() {
        let (path, _cleanup) = temp_image("v1");
        let cfg = persistent_cfg();
        let model = zoo::textqa().seeded(42);
        let features: Vec<Tensor> = (0..48).map(|i| model.random_feature(i)).collect();
        let mut reference = DeepStore::in_memory(cfg.clone());
        let db = reference.write_db(&features).unwrap();
        let mid = reference
            .load_model(&ModelGraph::from_model(&model))
            .unwrap();
        let expected = answers(&mut reference, db, &[(mid, &model)]);

        // A version-1 image: same state, the model inline in the manifest
        // and no extent anywhere.
        let mut store = DeepStore::create(&path, cfg).unwrap();
        assert_eq!(store.write_db(&features).unwrap(), db);
        let mut manifest = store.build_manifest();
        manifest.next_model = mid.0 + 1;
        let v1 = crate::persist::encode_v1(&manifest, &[(mid.0, model.clone())]);
        store.engine.commit(&v1, true).unwrap();
        drop(store);

        let mut back = DeepStore::open(&path).unwrap();
        assert_eq!(answers(&mut back, db, &[(mid, &model)]), expected);
        back.close().unwrap();
        let (_, bytes, _) = MmapStore::open(&path).unwrap();
        let reopened = ImageManifest::decode(&bytes).unwrap();
        assert_eq!(reopened.manifest_version, MANIFEST_VERSION);
        assert!(matches!(
            reopened.models.as_slice(),
            [(id, StoredModel::Extent(_))] if *id == mid.0
        ));
        let mut again = DeepStore::open(&path).unwrap();
        assert_eq!(answers(&mut again, db, &[(mid, &model)]), expected);
    }

    #[test]
    fn torn_commit_of_a_model_leaves_reusable_space() {
        let (path, _cleanup) = temp_image("orphan");
        let cfg = persistent_cfg();
        let first = zoo::textqa().seeded(42);
        let second = zoo::textqa().seeded(7);
        let features: Vec<Tensor> = (0..48).map(|i| first.random_feature(i)).collect();
        let mut reference = DeepStore::in_memory(cfg.clone());
        let db = reference.write_db(&features).unwrap();
        let ids =
            [&first, &second].map(|m| reference.load_model(&ModelGraph::from_model(m)).unwrap());
        let expected = answers(&mut reference, db, &[(ids[0], &first), (ids[1], &second)]);

        let mut store = DeepStore::create(&path, cfg).unwrap();
        store.write_db(&features).unwrap();
        store.flush().unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&first)).unwrap();
        store.flush().unwrap();
        let orphan = store.model_extents[&mid];
        let len_before = std::fs::metadata(&path).unwrap().len();
        drop(store);

        // Tear the newest header slot: open falls back to the commit
        // before `load_model`, which knows no model.
        let mut image = std::fs::read(&path).unwrap();
        let generation = |slot: usize| {
            u64::from_le_bytes(image[slot * 512 + 16..slot * 512 + 24].try_into().unwrap())
        };
        let newest = if generation(0) > generation(1) { 0 } else { 1 };
        image[newest * 512 + 20] ^= 0xFF;
        std::fs::write(&path, &image).unwrap();
        drop(image);
        let mut back = DeepStore::open(&path).unwrap();
        assert!(back.opened_dirty());
        assert!(back.models.is_empty());

        for model in [&first, &second] {
            back.load_model(&ModelGraph::from_model(model)).unwrap();
        }
        back.flush().unwrap();
        let reused = back.model_extents[&ids[0]];
        assert!(
            reused.offset < orphan.offset + orphan.len
                && orphan.offset < reused.offset + reused.len,
            "{reused:?} does not reuse {orphan:?}"
        );
        let grown = std::fs::metadata(&path).unwrap().len() - len_before;
        assert!(grown < 2 * orphan.len, "file grew {grown} B for two models");
        back.close().unwrap();

        let mut again = DeepStore::open(&path).unwrap();
        assert_eq!(
            answers(&mut again, db, &[(ids[0], &first), (ids[1], &second)]),
            expected
        );
    }

    #[test]
    fn in_memory_flush_and_close_are_noops() {
        let (mut store, model, db, mid) = setup("tir", 8);
        assert_eq!(store.backend(), "heap");
        assert!(!store.is_persistent());
        store.flush().unwrap();
        let qid = store
            .query(QueryRequest::new(model.random_feature(1), mid, db).k(2))
            .unwrap();
        assert!(store.results(qid).is_ok());
        store.close().unwrap();
    }

    #[test]
    fn batch_matches_sequential_and_amortizes_latency() {
        let (mut store, model, db, mid) = setup("tir", 48);
        store.disable_qc();
        let queries: Vec<Tensor> = (500..508).map(|i| model.random_feature(i)).collect();

        // Sequential baseline.
        let mut seq = Vec::new();
        for q in &queries {
            let qid = store
                .query(QueryRequest::new(q.clone(), mid, db).k(5))
                .unwrap();
            seq.push(store.results(qid).unwrap());
        }

        let reqs: Vec<QueryRequest> = queries
            .iter()
            .map(|q| QueryRequest::new(q.clone(), mid, db).k(5))
            .collect();
        let ids = store.query_batch(&reqs).unwrap();
        assert_eq!(ids.len(), 8);
        let total_seq: SimDuration = seq.iter().map(|s| s.elapsed).sum();
        for (id, s) in ids.iter().zip(&seq) {
            let b = store.results(*id).unwrap();
            assert_eq!(b.top_k, s.top_k, "batched ranking must be bit-identical");
            // The shared pass costs less than running the whole batch
            // back-to-back (one member's latency can exceed a lone
            // query's on a compute-bound micro-DB, but never the sum).
            assert!(
                b.elapsed < total_seq,
                "batched pass {} !< sequential total {}",
                b.elapsed,
                total_seq
            );
            assert!(
                b.elapsed >= s.elapsed,
                "a batch member never beats a lone query"
            );
        }
    }

    #[test]
    fn batch_groups_by_db_model_and_level() {
        let (mut store, model, db, mid) = setup("tir", 24);
        store.disable_qc();
        let other = zoo::tir().seeded(7);
        let features: Vec<Tensor> = (0..24).map(|i| other.random_feature(100 + i)).collect();
        let db2 = store.write_db(&features).unwrap();
        let mid2 = store.load_model(&ModelGraph::from_model(&other)).unwrap();

        // Interleave requests against two (db, model) pairs; each pair
        // still resolves correctly and in request order.
        let reqs: Vec<QueryRequest> = (0..6)
            .map(|i| {
                if i % 2 == 0 {
                    QueryRequest::new(model.random_feature(900 + i), mid, db).k(3)
                } else {
                    QueryRequest::new(other.random_feature(900 + i), mid2, db2).k(3)
                }
            })
            .collect();
        let ids = store.query_batch(&reqs).unwrap();
        for (id, req) in ids.iter().zip(&reqs) {
            let r = store.results(*id).unwrap();
            assert_eq!(r.top_k.len(), 3);
            // Recompute the best hit against the right database.
            let best = store.read_db(req.db, r.top_k[0].feature_index, 1).unwrap();
            let m = if req.model == mid { &model } else { &other };
            let score = m.similarity(&req.qfv, &best[0]).unwrap();
            assert!((score - r.top_k[0].score).abs() < 1e-6);
        }
    }

    #[test]
    fn batch_cache_lookups_precede_fills() {
        let (mut store, model, db, mid) = setup("textqa", 16);
        let q = model.random_feature(3);
        // Two identical queries in one batch: both miss (lookups happen
        // before any fill), then a later query hits.
        let reqs = vec![
            QueryRequest::new(q.clone(), mid, db).k(2),
            QueryRequest::new(q.clone(), mid, db).k(2),
        ];
        let ids = store.query_batch(&reqs).unwrap();
        assert!(!store.results(ids[0]).unwrap().cache_hit);
        assert!(!store.results(ids[1]).unwrap().cache_hit);
        let later = store.query(QueryRequest::new(q, mid, db).k(2)).unwrap();
        assert!(store.results(later).unwrap().cache_hit);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let (mut store, _, _, _) = setup("tir", 4);
        assert_eq!(store.query_batch(&[]).unwrap(), Vec::<QueryId>::new());
    }

    #[test]
    fn bad_request_fails_whole_batch_without_side_effects() {
        let (mut store, model, db, mid) = setup("tir", 8);
        store.disable_qc();
        let reads_before = store.flash_op_counts().reads;
        let reqs = vec![
            QueryRequest::new(model.random_feature(0), mid, db).k(2),
            QueryRequest::new(model.random_feature(1), ModelId(42), db).k(2),
        ];
        assert_eq!(
            store.query_batch(&reqs),
            Err(DeepStoreError::UnknownModel(ModelId(42)))
        );
        // Validation rejected the batch before any scan ran.
        let reads_after = store.flash_op_counts().reads;
        assert_eq!(reads_before, reads_after);
    }

    #[test]
    fn malformed_query_fails_whole_batch_before_any_flash_traffic() {
        // Regression: a wrong-length query used to be noticed inside the
        // scan loop of its own group — after earlier groups had scanned
        // and filled the query cache — and reported the database's
        // feature size in both error fields.
        let (mut store, model, db, mid) = setup("tir", 8);
        let features: Vec<Tensor> = (0..8).map(|i| model.random_feature(100 + i)).collect();
        let db2 = store.write_db(&features).unwrap();
        let good = QueryRequest::new(model.random_feature(0), mid, db).k(2);
        let bad = QueryRequest::new(Tensor::random(vec![7], 1.0, 0), mid, db2).k(2);
        let reads_before = store.flash_op_counts().reads;
        assert_eq!(
            store.query_batch(&[good.clone(), bad]),
            Err(DeepStoreError::Flash(FlashError::SizeMismatch {
                expected: model.feature_bytes(),
                found: 28,
            }))
        );
        assert_eq!(store.flash_op_counts().reads, reads_before);
        assert_eq!(store.qc_stats().unwrap().inserts, 0);
        // The good request was never scanned, so its replay is a miss.
        let replay = store.query(good).unwrap();
        assert!(!store.results(replay).unwrap().cache_hit);
    }

    #[test]
    fn coverage_refused_batch_leaves_query_cache_untouched() {
        // Regression: the healthy group's rankings used to be inserted
        // into the query cache before `min_coverage` refused the batch.
        // 24 textqa features fill one page, so the first database sits
        // wholly on channel 0 and the second wholly off it.
        let (mut store, model, db, mid) = setup("textqa", 24);
        let features: Vec<Tensor> = (0..24).map(|i| model.random_feature(100 + i)).collect();
        let db2 = store.write_db(&features).unwrap();
        store.inject_faults(deepstore_flash::fault::FaultPlan::none().dead_channel(0));
        let good = QueryRequest::new(model.random_feature(0), mid, db2).k(2);
        let starved = QueryRequest::new(model.random_feature(1), mid, db)
            .k(2)
            .min_coverage(1.0);
        assert_eq!(
            store.query_batch(&[good.clone(), starved]),
            Err(DeepStoreError::InsufficientCoverage {
                required: 1.0,
                achieved: 0.0,
            })
        );
        assert_eq!(store.qc_stats().unwrap().inserts, 0);
        // Nothing was published or cached, so the replay scans afresh.
        let replay = store.query(good).unwrap();
        let r = store.results(replay).unwrap();
        assert!(!r.cache_hit);
        assert_eq!(r.coverage, 1.0);
    }
}
