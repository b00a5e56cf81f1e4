//! The functional in-storage query engine (§4.7.1).
//!
//! This is the software that runs on the SSD's embedded cores: it persists
//! feature databases into the (simulated) flash array through the FTL,
//! keeps their metadata cached in controller DRAM, and executes queries
//! with the map-reduce model — the similarity network is mapped over the
//! per-channel shards of the database, each shard keeps its own top-K
//! sorter, and the engine merges (reduces) the per-shard results into the
//! final top-K.
//!
//! Everything here moves real bytes and computes real similarity scores;
//! the timing model lives in [`crate::accel`] and is attached to query
//! results by [`crate::api::DeepStore`].

use crate::config::DeepStoreConfig;
use crate::error::{DeepStoreError, Result};
use crate::telemetry::ScanMetrics;
use deepstore_flash::array::FlashArray;
use deepstore_flash::fault::ReadFaultStats;
use deepstore_flash::ftl::{BlockFtl, FtlSnapshot, PhysicalBlock};
use deepstore_flash::geometry::PageAddr;
use deepstore_flash::layout::Placement;
use deepstore_flash::obs::{FlashEventCounts, FlashMetrics};
use deepstore_flash::{
    FlashError, FlashOpCounts, FlashStateSnapshot, HeapStore, PageStore, Result as FlashResult,
};
use deepstore_nn::{quantize_feature, BoundScorer, FeatureQuant, Model, MultiQueryScorer, Tensor};
use deepstore_obs::MetricsSnapshot;
use deepstore_systolic::topk::{ScoredFeature, TopKSorter};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies a feature database (returned by `writeDB`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DbId(pub u64);

/// A feature's physical location: the paper's `ObjectID` ("physical
/// address of the feature vector") packed as page-index × page-size +
/// offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ObjectId(pub u64);

/// Per-database metadata (§4.4: "32-byte metadata that includes a db_id,
/// starting physical address, size of each feature, and the number of
/// features"), cached in SSD DRAM and persisted in a reserved block.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DbMeta {
    /// Database id.
    pub db_id: DbId,
    /// Bytes per feature.
    pub feature_bytes: usize,
    /// Feature count.
    pub num_features: u64,
    /// The database's pages in **logical** order: entry `i` holds bytes
    /// `[i * page_bytes, (i+1) * page_bytes)` of the packed feature
    /// stream. Physical addresses need not be contiguous — resealing a
    /// packed database abandons its partial tail page, and the
    /// replacement lives in the next free slot.
    pub pages: Vec<PageAddr>,
    /// Next physical page slot to program, when the database's current
    /// block still has room. `None` means the next flush allocates a
    /// fresh block. Tracked explicitly (not derived from `pages.len()`)
    /// because abandoned tail pages consume physical slots without
    /// appearing in `pages` — deriving the cursor would re-program them,
    /// which NAND forbids ([`FlashError::ProgramWithoutErase`]). Missing
    /// in older manifests; decodes as `None` (allocate fresh).
    pub cursor: Option<PageAddr>,
}

/// Fault-path outcome of one scan pass, aggregated across its shards in
/// channel order. The counts are functional (identical with `obs` on and
/// off): the retry histogram drives the timing model's retry stall and
/// the per-query trace spans.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScanFaults {
    /// Features skipped because a page stayed unreadable after retries.
    pub skipped: u64,
    /// Per-read retry/recovery/remap/lost statistics.
    pub reads: ReadFaultStats,
}

/// Cascade outcome of one scan pass, summed across its shards in
/// channel order (the counts are commutative sums over the physically
/// determined shard plan, so they are identical at every `parallelism`
/// setting). One unit is one per-request, per-feature admission
/// decision: `pruned` decisions skipped the exact f32 path because the
/// feature's int8 score upper bound fell *strictly* below that
/// request's running top-K threshold; `rescored` decisions cleared (or
/// tied) the bound check and went through exact scoring. Features
/// scored before a request's sorter fills (no threshold yet), and
/// requests the cascade does not apply to (exact opt-out, non-foldable
/// model), count as neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CascadeStats {
    /// Per-request feature decisions that skipped exact scoring.
    pub pruned: u64,
    /// Per-request feature decisions that passed the bound check and
    /// were rescored exactly.
    pub rescored: u64,
}

impl CascadeStats {
    fn merge(&mut self, other: &CascadeStats) {
        self.pruned += other.pruned;
        self.rescored += other.rescored;
    }
}

/// What one [`Engine::recover_faults`] pass accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Failing blocks retired from the FTL's allocation pool.
    pub blocks_retired: u64,
    /// Database pages soft-decoded and rewritten into fresh blocks.
    pub pages_remapped: u64,
    /// Database pages with no remap source (data is gone).
    pub pages_lost: u64,
}

impl RecoveryReport {
    /// True if the pass did nothing (no blocks were pending).
    pub fn is_empty(&self) -> bool {
        *self == RecoveryReport::default()
    }
}

/// What an [`Engine::probe_db`] scrub pass observed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbProbe {
    /// Features readable through the retried read path right now.
    pub readable: u64,
    /// Features whose backing pages fail every read attempt.
    pub unreadable: u64,
}

impl DbProbe {
    /// True when every feature of the database is readable.
    pub fn healthy(&self) -> bool {
        self.unreadable == 0
    }
}

/// The in-storage engine state.
#[derive(Debug)]
pub struct Engine {
    cfg: DeepStoreConfig,
    array: FlashArray,
    ftl: BlockFtl,
    dbs: HashMap<DbId, DbMeta>,
    next_db: u64,
    /// Write buffer per open database (packed placement buffers partial
    /// pages until they fill or the database is sealed; §4.7.2:
    /// "DeepStore buffers writes to ensure the alignment criteria").
    write_buffers: HashMap<DbId, Vec<u8>>,
    /// Per-database int8 quantized sidecar, built at append time, one
    /// entry per feature (§: pruning cascade). Kept in controller DRAM
    /// next to [`DbMeta`]; scans use it to compute cheap score upper
    /// bounds. Invariant: `quant[db].len() == dbs[db].num_features`,
    /// maintained even through partial (out-of-space) appends.
    quant: HashMap<DbId, Vec<FeatureQuant>>,
    /// Features skipped during scans because their pages failed ECC.
    /// Atomic so scans can run on `&self` (queries are read-only).
    /// Kept as the derived sum over all passes; per-pass attribution is
    /// the [`ScanFaults`] every scan returns.
    unreadable_skipped: AtomicU64,
    /// Scan-path telemetry, recorded once per flash pass.
    metrics: ScanMetrics,
}

impl Engine {
    /// Creates an engine over a fresh, volatile (heap-backed) flash
    /// array.
    pub fn new(cfg: DeepStoreConfig) -> Self {
        let page_bytes = cfg.ssd.geometry.page_bytes;
        Engine::with_store(cfg, Box::new(HeapStore::new(page_bytes)))
    }

    /// Creates an engine over a fresh flash array whose page payloads
    /// live in `store` — the storage-backend seam: a [`HeapStore`] gives
    /// the classic volatile device, a
    /// [`deepstore_flash::MmapStore`] a persistent single-file image.
    /// The store must be empty (freshly created); use
    /// [`Engine::restore`] to resurrect an engine from a previously
    /// committed image.
    pub fn with_store(cfg: DeepStoreConfig, store: Box<dyn PageStore>) -> Self {
        let geometry = cfg.ssd.geometry;
        let mut array = FlashArray::with_store(geometry, store);
        array.set_read_retry(cfg.ssd.timing.read_retry.clone());
        Engine {
            cfg,
            array,
            ftl: BlockFtl::new(geometry),
            dbs: HashMap::new(),
            next_db: 1,
            write_buffers: HashMap::new(),
            quant: HashMap::new(),
            unreadable_skipped: AtomicU64::new(0),
            metrics: ScanMetrics::new(),
        }
    }

    /// Resurrects an engine from persisted state: `store` supplies the
    /// page payloads (typically a just-opened
    /// [`deepstore_flash::MmapStore`]) and the snapshots supply the
    /// semantic state a manifest recorded at commit time. The read-retry
    /// policy is re-derived from `cfg`; int8 quantized sidecars are
    /// rebuilt by decoding every database's features straight out of the
    /// store (via the counter-free peek path, so
    /// [`Engine::flash_op_counts`] resumes exactly where the persisted
    /// counters left off).
    pub fn restore(
        cfg: DeepStoreConfig,
        store: Box<dyn PageStore>,
        flash: &FlashStateSnapshot,
        ftl: &FtlSnapshot,
        dbs: Vec<DbMeta>,
        write_buffers: Vec<(u64, Vec<u8>)>,
        next_db: u64,
    ) -> Self {
        let geometry = cfg.ssd.geometry;
        let mut array = FlashArray::with_store(geometry, store);
        array.set_read_retry(cfg.ssd.timing.read_retry.clone());
        array.restore_state(flash);
        let ftl = BlockFtl::from_snapshot(geometry, ftl);
        let mut engine = Engine {
            cfg,
            array,
            ftl,
            dbs: dbs.into_iter().map(|m| (m.db_id, m)).collect(),
            next_db,
            write_buffers: write_buffers
                .into_iter()
                .map(|(id, buf)| (DbId(id), buf))
                .collect(),
            quant: HashMap::new(),
            unreadable_skipped: AtomicU64::new(0),
            metrics: ScanMetrics::new(),
        };
        engine.rebuild_quant();
        engine
    }

    /// Rebuilds every database's int8 quantized sidecar from the bytes
    /// actually durable in the store (plus any unsealed write-buffer
    /// tail), in ascending database order. Uses the counter-free
    /// [`FlashArray::peek_page`] path so flash op counts don't move. A
    /// database whose features cannot all be decoded (a page missing
    /// from the programmed set) gets no sidecar — the scan's
    /// `quant.len() == num_features` guard then simply disables the
    /// cascade for it.
    fn rebuild_quant(&mut self) {
        let page_bytes = self.cfg.ssd.geometry.page_bytes;
        let mut ids: Vec<DbId> = self.dbs.keys().copied().collect();
        ids.sort_unstable();
        let empty = Vec::new();
        let mut rebuilt: Vec<(DbId, Vec<FeatureQuant>)> = Vec::with_capacity(ids.len());
        for db in ids {
            let meta = &self.dbs[&db];
            let fb = meta.feature_bytes;
            let buf = self.write_buffers.get(&db).unwrap_or(&empty);
            // Logical byte stream: the durable pages in order, then the
            // buffered tail (exactly where a seal would flush it).
            let durable = meta.pages.len() * page_bytes;
            let ppf = fb.div_ceil(page_bytes);
            let mut bytes = vec![0u8; fb];
            let mut floats = vec![0f32; fb / 4];
            let mut quants = Vec::with_capacity(meta.num_features as usize);
            'features: for idx in 0..meta.num_features {
                let start = match self.cfg.placement {
                    Placement::Packed => idx as usize * fb,
                    Placement::PageAligned => idx as usize * ppf * page_bytes,
                };
                let mut off = 0usize;
                while off < fb {
                    let pos = start + off;
                    if pos < durable {
                        let in_page = pos % page_bytes;
                        let take = (fb - off).min(page_bytes - in_page);
                        let page = meta
                            .pages
                            .get(pos / page_bytes)
                            .and_then(|&a| self.array.peek_page(a));
                        match page {
                            Some(p) => {
                                bytes[off..off + take].copy_from_slice(&p[in_page..in_page + take]);
                            }
                            None => break 'features,
                        }
                        off += take;
                    } else {
                        let tail = pos - durable;
                        let take = fb - off;
                        if tail + take > buf.len() {
                            break 'features;
                        }
                        bytes[off..off + take].copy_from_slice(&buf[tail..tail + take]);
                        off += take;
                    }
                }
                for (chunk, f) in bytes.chunks_exact(4).zip(&mut floats) {
                    *f = f32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                }
                quants.push(quantize_feature(&floats));
            }
            if quants.len() as u64 == meta.num_features {
                rebuilt.push((db, quants));
            }
        }
        self.quant = rebuilt.into_iter().collect();
    }

    /// Installs a read-fault plan on the underlying flash array (testing
    /// and reliability studies).
    pub fn inject_faults(&mut self, faults: deepstore_flash::fault::FaultPlan) {
        self.array.inject_faults(faults);
    }

    /// Blocks that failed permanently during reads and await
    /// [`Engine::recover_faults`].
    pub fn pending_retirements(&self) -> usize {
        self.array.pending_retirements()
    }

    /// Blocks the FTL has retired (removed from allocation) so far.
    pub fn retired_block_count(&self) -> usize {
        self.ftl.retired_blocks()
    }

    /// The recovery pipeline: drains the queue of permanently-failing
    /// blocks, soft-decodes every database page still living in them
    /// (the last-gasp read), rewrites the recovered pages into freshly
    /// allocated blocks, repoints the database metadata, and retires the
    /// bad blocks from the FTL's allocation pool.
    ///
    /// Data is lost only when a page has no remap source (outage-domain
    /// pages never enter the queue, so in practice: when the drive is
    /// out of replacement blocks). Blocks whose pages could not all be
    /// remapped stay un-repointed so later reads keep reporting the ECC
    /// failure honestly.
    ///
    /// Runs on `&mut self` between query batches — never during a scan.
    pub fn recover_faults(&mut self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let geometry = self.cfg.ssd.geometry;
        let ppb = geometry.pages_per_block as u64;
        for block_idx in self.array.take_pending_retirements() {
            let base = geometry.page_from_index(block_idx * ppb);
            let old = PhysicalBlock {
                channel: base.channel,
                chip: base.chip,
                plane: base.plane,
                block: base.block,
            };
            // Gather every database page living in the failing block, in
            // deterministic (db, position) order — the db map iterates in
            // hash order.
            let mut victims: Vec<(DbId, usize)> = Vec::new();
            for (db, meta) in &self.dbs {
                for (pos, addr) in meta.pages.iter().enumerate() {
                    if geometry.page_index(*addr) / ppb == block_idx {
                        victims.push((*db, pos));
                    }
                }
            }
            victims.sort_unstable();
            // Last-gasp soft-decode before touching the FTL: if any page
            // has no remap source the whole block's data stays put (the
            // block is still retired so the allocator never reuses it).
            let mut recovered: Vec<(DbId, usize, usize, Vec<u8>)> = Vec::new();
            let mut lost = 0u64;
            for &(db, pos) in &victims {
                let addr = self.dbs[&db].pages[pos];
                match self.array.recover_page_bytes(addr) {
                    Some(bytes) => recovered.push((db, pos, addr.page, bytes)),
                    None => lost += 1,
                }
            }
            let replacement = if lost == 0 && !recovered.is_empty() {
                self.ftl.allocate(&mut self.array).ok()
            } else {
                None
            };
            match replacement {
                Some((_, fresh)) => {
                    let remapped = recovered.len() as u64;
                    for (db, pos, page, bytes) in recovered {
                        let new_addr = fresh.page(page);
                        self.array
                            .program(new_addr, &bytes)
                            .expect("replacement block is freshly erased");
                        self.dbs.get_mut(&db).expect("victim db exists").pages[pos] = new_addr;
                    }
                    report.pages_remapped += remapped;
                    self.array.metrics().on_remap(remapped);
                }
                None => {
                    // No remap source or no spare capacity: every victim
                    // page of this block is lost.
                    lost += recovered.len() as u64;
                }
            }
            if lost > 0 {
                report.pages_lost += lost;
                self.array.metrics().on_lost(lost);
            }
            self.ftl.retire(old);
            report.blocks_retired += 1;
        }
        report
    }

    /// Features skipped by scans due to uncorrectable reads so far.
    /// Intelligent queries tolerate approximation, so a scan skips
    /// unreadable features (slightly reducing recall) instead of failing.
    pub fn unreadable_skipped(&self) -> u64 {
        self.unreadable_skipped.load(Ordering::Relaxed)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DeepStoreConfig {
        &self.cfg
    }

    /// Sets the scan worker count (`0` = one worker per available host
    /// core). Purely a host wall-clock knob; results and simulated
    /// timing are unchanged.
    pub fn set_parallelism(&mut self, workers: usize) {
        self.cfg.parallelism = workers;
    }

    /// Metadata for a database.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::UnknownDb`] for unknown ids.
    pub fn db_meta(&self, db: DbId) -> Result<&DbMeta> {
        self.dbs
            .get(&db)
            .ok_or(DeepStoreError::Flash(FlashError::UnknownDb(db.0)))
    }

    /// Operation counters issued to the flash array so far. `reads`
    /// counts one per page access — the batched scan's
    /// one-pass-per-shard guarantee is asserted against this counter.
    pub fn flash_op_counts(&self) -> FlashOpCounts {
        self.array.op_counts()
    }

    /// Scrub probe: attempts to read every feature of `db` through the
    /// normal retried read path and reports how many are currently
    /// readable. Transient faults that the retry ladder recovers count
    /// as readable — the probe sees exactly the coverage a scan would —
    /// while permanent and outage-domain failures count as unreadable.
    /// Used by cluster rebalancing to decide whether a replica still
    /// holds its full partition.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::UnknownDb`] for unknown ids.
    pub fn probe_db(&self, db: DbId) -> Result<DbProbe> {
        let meta = self.db_meta(db)?;
        let mut probe = DbProbe::default();
        for idx in 0..meta.num_features {
            if self.read_feature_with(meta, idx).is_ok() {
                probe.readable += 1;
            } else {
                probe.unreadable += 1;
            }
        }
        Ok(probe)
    }

    /// A summary of the flash array's outage domains (dead channels and
    /// chips) under the currently armed fault plan. Surfaces the fault
    /// topology to the cluster layer, which must distinguish "this
    /// drive lost a channel" (route around the holes) from "this drive
    /// is gone" (stop placing replicas on it).
    pub fn outage_summary(&self) -> deepstore_flash::OutageSummary {
        self.array.faults().outage_summary(&self.cfg.ssd.geometry)
    }

    /// Which storage backend holds the page payloads (`"heap"` or
    /// `"mmap"`).
    pub fn backend(&self) -> &'static str {
        self.array.backend()
    }

    /// Whether committed device state survives process exit.
    pub fn is_persistent(&self) -> bool {
        self.array.is_persistent()
    }

    /// Commits `manifest` to the persistent backend with the crash-safe
    /// ordering documented in [`deepstore_flash::image`]. `clean` marks
    /// the image cleanly closed.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Image`] if the backend is volatile or the
    /// commit fails (the previous commit stays authoritative).
    pub fn commit(&mut self, manifest: &[u8], clean: bool) -> FlashResult<()> {
        self.array.commit(manifest, clean)
    }

    /// Writes `bytes` once into a fresh extent of the backing image for
    /// the next [`Engine::commit`]'s manifest to reference.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Image`] if the backend is volatile or the
    /// write fails.
    pub fn write_extent(&mut self, bytes: &[u8]) -> FlashResult<deepstore_flash::ImageExtent> {
        self.array.write_extent(bytes)
    }

    /// Flash-array semantic state for a manifest.
    pub fn flash_snapshot(&self) -> FlashStateSnapshot {
        self.array.state_snapshot()
    }

    /// FTL allocation state for a manifest.
    pub fn ftl_snapshot(&self) -> FtlSnapshot {
        self.ftl.snapshot()
    }

    /// Every database's metadata, sorted by database id.
    pub fn db_metas(&self) -> Vec<DbMeta> {
        let mut metas: Vec<DbMeta> = self.dbs.values().cloned().collect();
        metas.sort_by_key(|m| m.db_id);
        metas
    }

    /// Non-empty unsealed write buffers as sorted `(db_id, bytes)`
    /// pairs.
    pub fn write_buffer_snapshot(&self) -> Vec<(u64, Vec<u8>)> {
        let mut bufs: Vec<(u64, Vec<u8>)> = self
            .write_buffers
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(db, b)| (db.0, b.clone()))
            .collect();
        bufs.sort_by_key(|(id, _)| *id);
        bufs
    }

    /// The next database id the engine would hand out.
    pub fn next_db_raw(&self) -> u64 {
        self.next_db
    }

    /// The flash array's telemetry hooks (ECC failures, GC, bus waits).
    pub fn flash_metrics(&self) -> &FlashMetrics {
        self.array.metrics()
    }

    /// A snapshot of every flash event count.
    pub fn flash_event_counts(&self) -> FlashEventCounts {
        self.array.event_counts()
    }

    /// A deterministic snapshot of the engine's scan counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Creates a database from feature vectors (the `writeDB` API).
    ///
    /// # Errors
    ///
    /// * [`FlashError::SizeMismatch`] if the features differ in length or
    ///   are empty.
    /// * [`FlashError::OutOfSpace`] if the drive fills up.
    pub fn write_db(&mut self, features: &[Tensor]) -> Result<DbId> {
        let first = features.first().ok_or(FlashError::SizeMismatch {
            expected: 1,
            found: 0,
        })?;
        let feature_bytes = first.len() * 4;
        let db = DbId(self.next_db);
        self.next_db += 1;
        self.dbs.insert(
            db,
            DbMeta {
                db_id: db,
                feature_bytes,
                num_features: 0,
                pages: Vec::new(),
                cursor: None,
            },
        );
        self.write_buffers.insert(db, Vec::new());
        self.quant.insert(db, Vec::new());
        self.append_db(db, features)?;
        Ok(db)
    }

    /// Appends features to an existing database (the `appendDB` API).
    ///
    /// # Errors
    ///
    /// * [`FlashError::UnknownDb`] for unknown ids.
    /// * [`FlashError::SizeMismatch`] if a feature has the wrong length.
    /// * [`FlashError::OutOfSpace`] if the drive fills up.
    pub fn append_db(&mut self, db: DbId, features: &[Tensor]) -> Result<()> {
        let feature_bytes = self.db_meta(db)?.feature_bytes;
        let page_bytes = self.cfg.ssd.geometry.page_bytes;
        match self.cfg.placement {
            Placement::Packed => {
                // Take the write buffer out of the map once (one lookup
                // per append, not per feature) and flush full pages by
                // advancing a cursor; draining the flushed prefix once at
                // the end replaces the per-page front-drain that shifted
                // the whole tail each time (O(n·page) in the old code).
                let mut buf = self.write_buffers.remove(&db).unwrap_or_default();
                // Un-seal: if the database was sealed with a partial tail
                // page, pull those bytes back into the write buffer and
                // abandon the tail page, so the packed byte stream stays
                // dense across the logical `pages` vector. The abandoned
                // slot is never reused — `flush_page`'s physical cursor
                // already points past it.
                if buf.is_empty() {
                    let meta = self.dbs.get(&db).expect("checked above");
                    let tail =
                        (meta.num_features * feature_bytes as u64 % page_bytes as u64) as usize;
                    if tail != 0 && !meta.pages.is_empty() {
                        let addr = *meta.pages.last().expect("non-empty");
                        let page = self
                            .array
                            .peek_page(addr)
                            .expect("sealed tail page is programmed");
                        buf.extend_from_slice(&page[..tail]);
                        self.dbs.get_mut(&db).expect("checked above").pages.pop();
                    }
                }
                let mut cursor = 0usize;
                let mut append = || -> Result<()> {
                    for f in features {
                        if f.len() * 4 != feature_bytes {
                            return Err(FlashError::SizeMismatch {
                                expected: feature_bytes,
                                found: f.len() * 4,
                            }
                            .into());
                        }
                        for v in f.data() {
                            buf.extend_from_slice(&v.to_le_bytes());
                        }
                        while buf.len() - cursor >= page_bytes {
                            let start = cursor;
                            cursor += page_bytes;
                            self.flush_page(db, &buf[start..cursor])?;
                        }
                        self.dbs.get_mut(&db).expect("checked above").num_features += 1;
                        self.quant
                            .entry(db)
                            .or_default()
                            .push(quantize_feature(f.data()));
                    }
                    Ok(())
                };
                let result = append();
                buf.drain(..cursor);
                self.write_buffers.insert(db, buf);
                result
            }
            Placement::PageAligned => {
                let mut bytes = Vec::with_capacity(feature_bytes);
                for f in features {
                    if f.len() * 4 != feature_bytes {
                        return Err(FlashError::SizeMismatch {
                            expected: feature_bytes,
                            found: f.len() * 4,
                        }
                        .into());
                    }
                    bytes.clear();
                    for v in f.data() {
                        bytes.extend_from_slice(&v.to_le_bytes());
                    }
                    for chunk in bytes.chunks(page_bytes) {
                        self.flush_page(db, chunk)?;
                    }
                    self.dbs.get_mut(&db).expect("checked above").num_features += 1;
                    self.quant
                        .entry(db)
                        .or_default()
                        .push(quantize_feature(f.data()));
                }
                Ok(())
            }
        }
    }

    /// Seals a database: flushes any partial write buffer so every feature
    /// is durable and readable.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::OutOfSpace`] if the final page cannot be
    /// allocated, or [`FlashError::UnknownDb`] for unknown ids.
    pub fn seal_db(&mut self, db: DbId) -> Result<()> {
        self.db_meta(db)?;
        if let Some(buf) = self.write_buffers.get_mut(&db) {
            let rest: Vec<u8> = std::mem::take(buf);
            if !rest.is_empty() {
                self.flush_page(db, &rest)?;
            }
        }
        Ok(())
    }

    fn flush_page(&mut self, db: DbId, data: &[u8]) -> FlashResult<()> {
        // Allocate a fresh page in stripe order. The FTL allocates whole
        // blocks striped across channels; within a database we cycle
        // through blocks page-by-page via an explicit physical cursor
        // stored in the metadata. The cursor cannot be derived from
        // `pages` — resealing a packed database abandons partial tail
        // pages, so programmed slots exist that `pages` no longer lists.
        let pages_per_block = self.cfg.ssd.geometry.pages_per_block;
        let addr = match self.dbs.get(&db).expect("caller verified db").cursor {
            Some(addr) => addr,
            None => {
                let (_, phys) = self.ftl.allocate(&mut self.array)?;
                phys.page(0)
            }
        };
        self.array.program(addr, data)?;
        let meta = self.dbs.get_mut(&db).expect("caller verified db");
        meta.pages.push(addr);
        meta.cursor = if addr.page + 1 < pages_per_block {
            Some(PageAddr {
                page: addr.page + 1,
                ..addr
            })
        } else {
            None
        };
        Ok(())
    }

    /// Reads feature `idx` of a database back as a tensor (the `readDB`
    /// API reads ranges; this is the single-feature primitive).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::UnknownDb`] / [`FlashError::AddressOutOfRange`]
    /// for bad ids or indices, or [`FlashError::ReadUnwritten`] when a
    /// partial page has not been sealed yet.
    pub fn read_feature(&self, db: DbId, idx: u64) -> Result<Tensor> {
        let meta = self.db_meta(db)?;
        if idx >= meta.num_features {
            return Err(FlashError::AddressOutOfRange(format!(
                "feature {idx} of {} in db {}",
                meta.num_features, meta.db_id.0
            ))
            .into());
        }
        Ok(self.read_feature_with(meta, idx)?)
    }

    /// Reads feature `idx` given already-resolved metadata (the scan's
    /// per-shard hot path; avoids a metadata lookup per feature).
    fn read_feature_with(&self, meta: &DbMeta, idx: u64) -> FlashResult<Tensor> {
        let bytes = self.read_feature_bytes(meta, idx)?;
        let floats: Vec<f32> = bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        Tensor::from_vec(vec![floats.len()], floats)
            .map_err(|e| FlashError::AddressOutOfRange(e.to_string()))
    }

    fn read_feature_bytes(&self, meta: &DbMeta, idx: u64) -> FlashResult<Vec<u8>> {
        let page_bytes = self.cfg.ssd.geometry.page_bytes;
        let (start_page, mut offset) = self.feature_location(meta, idx);
        let mut out = Vec::with_capacity(meta.feature_bytes);
        let mut page_idx = start_page;
        while out.len() < meta.feature_bytes {
            let addr = *meta.pages.get(page_idx).ok_or_else(|| {
                FlashError::AddressOutOfRange(format!("page {page_idx} of db {}", meta.db_id.0))
            })?;
            let page = self.array.read(addr)?;
            let take = (meta.feature_bytes - out.len()).min(page_bytes - offset);
            out.extend_from_slice(&page[offset..offset + take]);
            offset = 0;
            page_idx += 1;
        }
        Ok(out)
    }

    /// Decodes feature `idx` straight out of borrowed flash pages into a
    /// reusable `f32` buffer — the scan's page-sequential fast path. No
    /// intermediate `Vec<u8>` and no `Tensor` are materialized: each page
    /// is read once via [`FlashArray::read`]'s borrowed slice, kept in
    /// `cached_page` so consecutive features resident in the same page
    /// reuse it, and an f32 whose four bytes straddle a page boundary is
    /// assembled through a small carry buffer.
    ///
    /// A page that fails ECC is not cached (the next feature touching it
    /// re-reads and re-fails, matching the per-feature read semantics of
    /// [`Engine::read_feature`]).
    fn decode_feature_into<'a>(
        &'a self,
        meta: &DbMeta,
        idx: u64,
        cached_page: &mut Option<(usize, &'a [u8])>,
        out: &mut Vec<f32>,
        faults: &mut ReadFaultStats,
    ) -> FlashResult<()> {
        let page_bytes = self.cfg.ssd.geometry.page_bytes;
        let (mut page_idx, mut offset) = self.feature_location(meta, idx);
        out.clear();
        out.reserve(meta.feature_bytes / 4);
        let mut carry = [0u8; 4];
        let mut carry_len = 0usize;
        let mut remaining = meta.feature_bytes;
        while remaining > 0 {
            let page: &[u8] = match cached_page {
                Some((cached_idx, data)) if *cached_idx == page_idx => data,
                _ => {
                    let addr = *meta.pages.get(page_idx).ok_or_else(|| {
                        FlashError::AddressOutOfRange(format!(
                            "page {page_idx} of db {}",
                            meta.db_id.0
                        ))
                    })?;
                    let data = self.array.read_with_stats(addr, faults)?;
                    *cached_page = Some((page_idx, data));
                    data
                }
            };
            let take = remaining.min(page_bytes - offset);
            let mut chunk = &page[offset..offset + take];
            if carry_len > 0 {
                // Finish the f32 whose bytes straddled the previous page.
                let need = (4 - carry_len).min(chunk.len());
                carry[carry_len..carry_len + need].copy_from_slice(&chunk[..need]);
                carry_len += need;
                chunk = &chunk[need..];
                if carry_len == 4 {
                    out.push(f32::from_le_bytes(carry));
                    carry_len = 0;
                }
            }
            if carry_len == 0 {
                let mut quads = chunk.chunks_exact(4);
                for q in &mut quads {
                    out.push(f32::from_le_bytes([q[0], q[1], q[2], q[3]]));
                }
                let tail = quads.remainder();
                carry[..tail.len()].copy_from_slice(tail);
                carry_len = tail.len();
            }
            remaining -= take;
            offset = 0;
            page_idx += 1;
        }
        debug_assert_eq!(carry_len, 0, "feature sizes are f32-aligned");
        Ok(())
    }

    /// (page index within the db, byte offset) where feature `idx` starts.
    fn feature_location(&self, meta: &DbMeta, idx: u64) -> (usize, usize) {
        let page_bytes = self.cfg.ssd.geometry.page_bytes;
        match self.cfg.placement {
            Placement::Packed => {
                let byte = idx * meta.feature_bytes as u64;
                (
                    (byte / page_bytes as u64) as usize,
                    (byte % page_bytes as u64) as usize,
                )
            }
            Placement::PageAligned => {
                let ppf = meta.feature_bytes.div_ceil(page_bytes);
                ((idx as usize) * ppf, 0)
            }
        }
    }

    /// The `ObjectID` of feature `idx`: its physical byte address.
    pub fn object_id(&self, db: DbId, idx: u64) -> Result<ObjectId> {
        let meta = self.db_meta(db)?;
        let (page_idx, offset) = self.feature_location(meta, idx);
        let addr = *meta
            .pages
            .get(page_idx)
            .ok_or_else(|| FlashError::AddressOutOfRange(format!("feature {idx}")))?;
        let page_lin = self.cfg.ssd.geometry.page_index(addr);
        Ok(ObjectId(
            page_lin * self.cfg.ssd.geometry.page_bytes as u64 + offset as u64,
        ))
    }

    /// Single-query scan with the cascade on, keeping only the ranking:
    /// [`Engine::scan_top_k_with`] minus its fault and cascade outcome.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::scan_top_k_batch_with`].
    pub fn scan_top_k(
        &self,
        db: DbId,
        model: &Model,
        query: &Tensor,
        k: usize,
    ) -> Result<Vec<ScoredFeature>> {
        self.scan_top_k_with(db, model, query, k, false)
            .map(|(ranked, _, _)| ranked)
    }

    /// The n = 1 case of [`Engine::scan_top_k_batch_with`]: one request
    /// (`exact` is its cascade opt-out) through the same loop, returning
    /// its ranking with the pass's [`ScanFaults`] and [`CascadeStats`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::scan_top_k_batch_with`].
    pub fn scan_top_k_with(
        &self,
        db: DbId,
        model: &Model,
        query: &Tensor,
        k: usize,
        exact: bool,
    ) -> Result<(Vec<ScoredFeature>, ScanFaults, CascadeStats)> {
        let (mut ranked, faults, cascade) =
            self.scan_top_k_batch_with(db, &[(model, query, k, exact)])?;
        let ranked = ranked.pop().expect("one ranking per request");
        Ok((ranked, faults, cascade))
    }

    /// [`Engine::scan_top_k_batch_with`] with the cascade on for every
    /// request, keeping only the rankings.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::scan_top_k_batch_with`].
    pub fn scan_top_k_batch(
        &self,
        db: DbId,
        requests: &[(&Model, &Tensor, usize)],
    ) -> Result<Vec<Vec<ScoredFeature>>> {
        let with: Vec<(&Model, &Tensor, usize, bool)> =
            requests.iter().map(|&(m, q, k)| (m, q, k, false)).collect();
        self.scan_top_k_batch_with(db, &with)
            .map(|(ranked, _, _)| ranked)
    }

    /// The map-reduce scan (§4.7.1), and the engine's only scan loop:
    /// walks each channel shard's pages **once**, scores every decoded
    /// feature against all `(model, query, k, exact)` requests of the
    /// batch with a per-request, per-shard top-K sorter (map), and
    /// merges the shard sorters in channel order (reduce). Returns one
    /// ranked top-K per request, in request order, with the pass's
    /// [`ScanFaults`] and [`CascadeStats`]. A single query is a batch of
    /// one.
    ///
    /// **Parallelism.** The map step runs on up to
    /// [`DeepStoreConfig::parallelism`] worker threads, each scoring
    /// whole channel shards. Results are bit-identical at every
    /// setting: shards are fixed by physical placement (not by worker
    /// count), each shard's top-K is a function of its own features
    /// alone, and the reduce merge uses the sorter's total order (score
    /// desc, feature id asc).
    ///
    /// **Batching.** Requests sharing a `&Model` (by reference identity)
    /// are scored together through a [`MultiQueryScorer`], which streams
    /// each dense weight row once for up to eight queries — the batch's
    /// compute-side win on top of the shared flash pass. Every query's
    /// scores replay the single-query kernel order and every request
    /// keeps its own sorter fed in the same per-shard feature order, so
    /// a request's ranking is **bit-identical** whatever else shares
    /// its pass.
    ///
    /// **Faults.** A feature whose pages fail ECC beyond the retry
    /// budget is skipped once per pass, not once per request, so the
    /// returned [`ScanFaults`] (the skip count and the retry/remap/lost
    /// read statistics behind it) is per *pass*, shared by every request
    /// of the batch. [`Engine::unreadable_skipped`] advances by the same
    /// skip count — it is the derived sum over all passes — but only the
    /// per-pass value can attribute faults to a query when scans run
    /// concurrently.
    ///
    /// **Cascade.** `exact = true` forces every feature through the
    /// exact f32 path for that request; `exact = false` lets the int8
    /// bound-then-refine cascade skip exact scoring for features that
    /// provably cannot enter its top-K. Per decoded feature, each
    /// request with an applicable bound and a full sorter makes an
    /// admission decision; a model group runs its fused exact scorer
    /// iff **any** member admits the feature (members whose bound
    /// stayed below their threshold are still offered the exact score,
    /// which their sorter rejects by construction — score ≤ bound <
    /// threshold). The ranking is bit-identical in both modes, and a
    /// pruned feature's flash pages are still decoded, so fault
    /// accounting is identical too. The cascade applies only when the
    /// model folds to a linear functional of the feature (see
    /// [`deepstore_nn::BoundScorer`]) and the int8 sidecar covers the
    /// database (it always does for databases written through
    /// [`Engine::write_db`]); otherwise every feature is rescored and
    /// the stats stay zero.
    ///
    /// # Errors
    ///
    /// * [`FlashError::UnknownDb`] for unknown ids.
    /// * [`FlashError::SizeMismatch`] — checked for every request
    ///   before the shard plan is built or any page is read — if a
    ///   query's length differs from its model's feature length, or the
    ///   model's feature size differs from the database's; also how a
    ///   model without weights is reported.
    /// * Flash read errors other than uncorrectable ECC; the
    ///   lowest-channel error is surfaced deterministically.
    pub fn scan_top_k_batch_with(
        &self,
        db: DbId,
        requests: &[(&Model, &Tensor, usize, bool)],
    ) -> Result<(Vec<Vec<ScoredFeature>>, ScanFaults, CascadeStats)> {
        let meta = self.db_meta(db)?;
        for &(model, query, _, _) in requests {
            check_request_shape(meta, model, query)?;
        }
        if requests.is_empty() {
            return Ok((Vec::new(), ScanFaults::default(), CascadeStats::default()));
        }
        let shards = self.shard_plan(meta);
        let workers = effective_workers(self.cfg.parallelism, shards.len());

        // Group requests by model identity; each group shares one fused
        // scorer. Linear scan: batches are small (tens of queries).
        let mut groups: Vec<(&Model, Vec<usize>)> = Vec::new();
        for (i, (model, _, _, _)) in requests.iter().enumerate() {
            match groups.iter_mut().find(|(m, _)| std::ptr::eq(*m, *model)) {
                Some((_, ix)) => ix.push(i),
                None => groups.push((model, vec![i])),
            }
        }

        // Cascade inputs, built once per pass and shared (read-only)
        // across worker shards: the per-db int8 sidecar plus one folded
        // bound scorer per applicable request.
        let quants: Option<&[FeatureQuant]> = self
            .quant
            .get(&db)
            .filter(|q| q.len() as u64 == meta.num_features)
            .map(Vec::as_slice);
        let bounds: Vec<Option<BoundScorer>> = requests
            .iter()
            .map(|&(model, query, _, exact)| {
                if exact || quants.is_none() {
                    None
                } else {
                    BoundScorer::new(model, query)
                }
            })
            .collect();

        // Map: each worker owns its scorers (one scratch arena per model
        // group) and one feature buffer, decodes features
        // page-sequentially out of borrowed flash pages (each page is
        // read once per shard, with a carry buffer for values straddling
        // page boundaries), and scores them with the allocation-free
        // scratch path. After the first feature of a shard, the loop
        // performs zero heap allocations.
        //
        // The cascade check sits between decode and score: a pruned
        // feature still costs its flash reads (the pass is
        // page-sequential anyway, and identical fault accounting is
        // part of the bit-identity contract) but skips the f32
        // inference, which dominates scan compute.
        let scan_one = |shard: &[u64]| -> FlashResult<(Vec<TopKSorter>, ScanFaults, CascadeStats)> {
            let mut sorters: Vec<TopKSorter> = requests
                .iter()
                .map(|&(_, _, k, _)| TopKSorter::new(k))
                .collect();
            let mut faults = ScanFaults::default();
            let mut cascade = CascadeStats::default();
            let mut scorers: Vec<MultiQueryScorer> = groups
                .iter()
                .map(|(model, ix)| {
                    let queries: Vec<Tensor> = ix.iter().map(|&i| requests[i].1.clone()).collect();
                    MultiQueryScorer::new(model, &queries).expect("request shapes checked above")
                })
                .collect();
            let mut scores: Vec<f32> = Vec::with_capacity(requests.len());
            let mut feature: Vec<f32> = Vec::with_capacity(meta.feature_bytes / 4);
            let mut cached_page: Option<(usize, &[u8])> = None;
            for &idx in shard {
                match self.decode_feature_into(
                    meta,
                    idx,
                    &mut cached_page,
                    &mut feature,
                    &mut faults.reads,
                ) {
                    Ok(()) => {}
                    Err(FlashError::UncorrectableEcc(_)) => {
                        // Degrade gracefully: skip the unreadable feature.
                        faults.skipped += 1;
                        continue;
                    }
                    Err(e) => return Err(e),
                }
                for ((model, ix), scorer) in groups.iter().zip(&mut scorers) {
                    // Admission: run the group's fused exact scorer iff
                    // any member admits the feature. Every member's
                    // decision is evaluated (no short-circuit) so the
                    // cascade counters are a function of the offered
                    // set alone, like the sorter contents.
                    let mut admit = false;
                    for &req_i in ix {
                        match (&bounds[req_i], sorters[req_i].threshold(), quants) {
                            (Some(bs), Some(thr), Some(q)) => {
                                if bs.upper_bound(&q[idx as usize]) < thr {
                                    cascade.pruned += 1;
                                } else {
                                    cascade.rescored += 1;
                                    admit = true;
                                }
                            }
                            _ => admit = true,
                        }
                    }
                    if !admit {
                        continue;
                    }
                    // Shapes were checked up front; what a scorer can
                    // still refuse is a model without weights.
                    scorer
                        .score_into(model, &feature, &mut scores)
                        .map_err(|_| FlashError::SizeMismatch {
                            expected: model.feature_bytes(),
                            found: meta.feature_bytes,
                        })?;
                    for (&req_i, &score) in ix.iter().zip(&scores) {
                        sorters[req_i].offer(score, idx);
                    }
                }
            }
            Ok((sorters, faults, cascade))
        };
        let per_shard = run_sharded(&shards, workers, &scan_one);

        // Reduce: merge in channel order (the total order in `offer`
        // makes any order equivalent, but canonical is free), surfacing
        // the lowest-channel error deterministically.
        let mut merged: Vec<TopKSorter> = requests
            .iter()
            .map(|&(_, _, k, _)| TopKSorter::new(k))
            .collect();
        let mut faults = ScanFaults::default();
        let mut cascade = CascadeStats::default();
        for shard_result in per_shard {
            let (sorters, shard_faults, shard_cascade) = shard_result?;
            for (m, s) in merged.iter_mut().zip(&sorters) {
                m.merge(s);
            }
            faults.skipped += shard_faults.skipped;
            faults.reads.merge(&shard_faults.reads);
            cascade.merge(&shard_cascade);
        }
        self.unreadable_skipped
            .fetch_add(faults.skipped, Ordering::Relaxed);
        self.metrics
            .on_batch_scan(requests.len() as u64, meta.num_features, faults.skipped);
        self.metrics.on_cascade(cascade.pruned, cascade.rescored);
        Ok((
            merged.into_iter().map(|m| m.ranked()).collect(),
            faults,
            cascade,
        ))
    }

    /// Shard plan of a scan pass: each feature belongs to the channel
    /// its first page lives on. Unsealed features whose pages are not
    /// allocated yet fall into shard 0, where the read reports the
    /// proper error. Within a shard the indices stay ascending, so the
    /// page-sequential decoder touches each flash page exactly once.
    ///
    /// Assigning by *first* page also makes the fault accounting exact
    /// by construction: a feature straddling a block boundary spans
    /// pages on two different channels, but it still lives in exactly
    /// one shard, so a fault on its boundary page skips it exactly once
    /// (pinned by `boundary_page_fault_skips_straddler_exactly_once`).
    fn shard_plan(&self, meta: &DbMeta) -> Vec<Vec<u64>> {
        let channels = self.cfg.ssd.geometry.channels;
        let mut shards: Vec<Vec<u64>> = vec![Vec::new(); channels];
        for idx in 0..meta.num_features {
            let (page_idx, _) = self.feature_location(meta, idx);
            let channel = meta.pages.get(page_idx).map_or(0, |p| p.channel);
            shards[channel].push(idx);
        }
        shards
    }
}

/// Request-shape validation, shared by the scan core and the API's
/// up-front pass: the query must have the model's feature length, and
/// the model must consume features of the database's size.
pub(crate) fn check_request_shape(meta: &DbMeta, model: &Model, query: &Tensor) -> FlashResult<()> {
    let expected = model.feature_bytes();
    for found in [4 * query.len(), meta.feature_bytes] {
        if found != expected {
            return Err(FlashError::SizeMismatch { expected, found });
        }
    }
    Ok(())
}

/// Runs a per-shard map step over the shard plan, returning one result
/// per channel, in channel order. Channel shards are distributed
/// round-robin over the workers; every worker owns disjoint channels, so
/// slots are written once and results are independent of the worker
/// count.
fn run_sharded<T: Send>(
    shards: &[Vec<u64>],
    workers: usize,
    scan_one: &(impl Fn(&[u64]) -> T + Sync),
) -> Vec<T> {
    if workers <= 1 {
        return shards.iter().map(|s| scan_one(s)).collect();
    }
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(shards.len()).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                scope.spawn(move || {
                    shards
                        .iter()
                        .enumerate()
                        .filter(|(c, _)| c % workers == w)
                        .map(|(c, shard)| (c, scan_one(shard)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (c, r) in handle.join().expect("scan worker panicked") {
                slots[c] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|s| s.expect("every channel scanned"))
        .collect()
}

/// Resolves the configured parallelism to a concrete worker count:
/// `0` means one worker per available host core, and there is never a
/// point in more workers than channel shards.
fn effective_workers(requested: usize, shards: usize) -> usize {
    let workers = if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    workers.min(shards.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepstore_nn::zoo;

    fn small_engine() -> Engine {
        Engine::new(DeepStoreConfig::small())
    }

    fn features(model: &Model, n: u64) -> Vec<Tensor> {
        (0..n).map(|i| model.random_feature(i)).collect()
    }

    #[test]
    fn write_then_read_roundtrips() {
        let mut e = small_engine();
        let model = zoo::textqa().seeded(1);
        let fs = features(&model, 50);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        for (i, f) in fs.iter().enumerate() {
            let back = e.read_feature(db, i as u64).unwrap();
            assert_eq!(&back, f, "feature {i}");
        }
    }

    #[test]
    fn unsealed_tail_requires_seal() {
        let mut e = small_engine();
        let model = zoo::textqa().seeded(1);
        // 3 x 800 B features: less than one 16 KB page, so everything sits
        // in the write buffer until sealed.
        let fs = features(&model, 3);
        let db = e.write_db(&fs).unwrap();
        assert!(e.read_feature(db, 0).is_err());
        e.seal_db(db).unwrap();
        assert!(e.read_feature(db, 0).is_ok());
    }

    #[test]
    fn append_extends_db() {
        let mut e = small_engine();
        let model = zoo::textqa().seeded(1);
        let db = e.write_db(&features(&model, 10)).unwrap();
        e.append_db(db, &features(&model, 5)).unwrap();
        e.seal_db(db).unwrap();
        assert_eq!(e.db_meta(db).unwrap().num_features, 15);
        assert!(e.read_feature(db, 14).is_ok());
        assert!(e.read_feature(db, 15).is_err());
    }

    #[test]
    fn append_after_seal_keeps_packed_stream_dense() {
        // Regression test: sealing a packed database flushes a partial
        // tail page; a later append must not leave that short page in
        // the middle of the byte stream, or `feature_location`'s dense
        // arithmetic reads zero padding for every later feature. Seal
        // repeatedly between appends so multiple tails get abandoned.
        let mut e = small_engine();
        let model = zoo::textqa().seeded(7);
        // 800 B features over 16 KB pages: no append count page-aligns.
        let mut fs = features(&model, 3);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        for round in 0..3u64 {
            let more = features(&model, 5 + round);
            e.append_db(db, &more).unwrap();
            e.seal_db(db).unwrap();
            fs.extend(more);
            for (i, f) in fs.iter().enumerate() {
                assert_eq!(
                    &e.read_feature(db, i as u64).unwrap(),
                    f,
                    "feature {i} after append round {round}"
                );
            }
        }
    }

    #[test]
    fn mismatched_feature_size_rejected() {
        let mut e = small_engine();
        let model = zoo::textqa().seeded(1);
        let db = e.write_db(&features(&model, 2)).unwrap();
        let wrong = Tensor::random(vec![100], 1.0, 9);
        assert!(matches!(
            e.append_db(db, &[wrong]),
            Err(DeepStoreError::Flash(FlashError::SizeMismatch { .. }))
        ));
    }

    #[test]
    fn unknown_db_is_error() {
        let e = small_engine();
        assert!(matches!(
            e.read_feature(DbId(42), 0),
            Err(DeepStoreError::Flash(FlashError::UnknownDb(42)))
        ));
        assert!(e.db_meta(DbId(42)).is_err());
    }

    #[test]
    fn multi_page_features_roundtrip() {
        // ReId features span 2.75 pages each.
        let mut e = small_engine();
        let model = zoo::reid().seeded(2);
        let fs = features(&model, 4);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        for (i, f) in fs.iter().enumerate() {
            assert_eq!(&e.read_feature(db, i as u64).unwrap(), f);
        }
    }

    #[test]
    fn scan_scores_planted_duplicate_like_host() {
        let mut e = small_engine();
        let model = zoo::tir().seeded(3);
        let mut fs = features(&model, 40);
        let query = model.random_feature(1000);
        fs[17] = query.clone(); // plant an exact duplicate
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        let top = e.scan_top_k(db, &model, &query, 40).unwrap();
        assert_eq!(top.len(), 40);
        // The duplicate's in-storage score equals the host-side
        // self-similarity bit for bit (the flash roundtrip is lossless).
        let dup = top.iter().find(|e| e.feature_id == 17).unwrap();
        assert_eq!(dup.score, model.similarity(&query, &query).unwrap());
    }

    #[test]
    fn scan_matches_host_side_reference() {
        let mut e = small_engine();
        let model = zoo::textqa().seeded(4);
        let fs = features(&model, 64);
        let query = model.random_feature(77);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        let top = e.scan_top_k(db, &model, &query, 8).unwrap();
        // Reference: score on the host from the original tensors.
        let mut reference: Vec<(f32, u64)> = fs
            .iter()
            .enumerate()
            .map(|(i, f)| (model.similarity(&query, f).unwrap(), i as u64))
            .collect();
        reference.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        let expected: Vec<u64> = reference[..8].iter().map(|(_, i)| *i).collect();
        let got: Vec<u64> = top.iter().map(|e| e.feature_id).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn object_ids_are_unique_and_stable() {
        let mut e = small_engine();
        let model = zoo::textqa().seeded(5);
        let db = e.write_db(&features(&model, 30)).unwrap();
        e.seal_db(db).unwrap();
        let mut ids: Vec<u64> = (0..30).map(|i| e.object_id(db, i).unwrap().0).collect();
        let before = ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 30);
        // Stable across calls.
        let again: Vec<u64> = (0..30).map(|i| e.object_id(db, i).unwrap().0).collect();
        assert_eq!(again, before);
    }

    #[test]
    fn scan_degrades_gracefully_under_read_faults() {
        use deepstore_flash::fault::FaultPlan;
        let mut e = small_engine();
        let model = zoo::textqa().seeded(8);
        // 40 features of 800 B: 2 features share each 16 KB page... in
        // fact 20 per page, so failing the first page drops features 0-19.
        let fs = features(&model, 40);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        let first_page = e.db_meta(db).unwrap().pages[0];
        let geometry = e.config().ssd.geometry;
        e.inject_faults(FaultPlan::none().fail_page(&geometry, first_page));

        let q = model.random_feature(999);
        let top = e.scan_top_k(db, &model, &q, 40).unwrap();
        // 16 KB / 800 B = 20.48 features per page: features 0-19 live on
        // the failed page and feature 20 straddles into it, so 21 reads
        // fail and the scan skips them all.
        assert_eq!(e.unreadable_skipped(), 21);
        assert_eq!(top.len(), 19);
        assert!(top.iter().all(|h| h.feature_id >= 21));
        // Direct reads of affected features surface the ECC error.
        assert!(matches!(
            e.read_feature(db, 0),
            Err(DeepStoreError::Flash(FlashError::UncorrectableEcc(_)))
        ));
        assert!(e.read_feature(db, 25).is_ok());
    }

    #[test]
    fn page_sequential_scan_matches_per_feature_reads() {
        // 700 packed textqa features (800 B each) span several blocks:
        // feature 20 straddles the first page boundary and feature 327
        // straddles the first block boundary (16 pages x 16 KB / 800 B).
        let mut e = small_engine();
        let model = zoo::textqa().seeded(12);
        let n = 700u64;
        let fs = features(&model, n);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();

        let meta = e.db_meta(db).unwrap();
        let fb = meta.feature_bytes;
        let pb = e.config().ssd.geometry.page_bytes;
        let ppb = e.config().ssd.geometry.pages_per_block;
        // Page straddle: feature 20 starts in page 0 and ends in page 1.
        assert!((20 * fb) % pb + fb > pb, "test premise: page straddle");
        // Block straddle: the feature crossing the first block boundary
        // spans two pages on *different channels* (blocks are striped).
        let block_straddler = (pb * ppb / fb) as u64;
        let (p, off) = e.feature_location(meta, block_straddler);
        assert!(off + fb > pb, "test premise: block straddle");
        assert_ne!(meta.pages[p].channel, meta.pages[p + 1].channel);

        // The page-sequential scan scores every feature bit-identically
        // to the per-feature read + reference similarity path. `&e`
        // proves the scan runs on a shared reference.
        let q = model.random_feature(4242);
        let shared: &Engine = &e;
        let top = shared.scan_top_k(db, &model, &q, n as usize).unwrap();
        assert_eq!(top.len(), n as usize);
        for hit in &top {
            let f = e.read_feature(db, hit.feature_id).unwrap();
            let reference = model.similarity(&q, &f).unwrap();
            assert_eq!(
                hit.score.to_bits(),
                reference.to_bits(),
                "feature {}",
                hit.feature_id
            );
        }
    }

    #[test]
    fn carry_buffer_reassembles_f32_across_odd_page_boundaries() {
        // A 30-byte page is not a multiple of 4, so packed f32s straddle
        // page boundaries mid-value and the decoder's carry buffer must
        // reassemble them (feature 3 occupies bytes 24..32; its second
        // f32 splits 2+2 across pages 0 and 1).
        let mut cfg = DeepStoreConfig::small();
        cfg.ssd.geometry.page_bytes = 30;
        let mut e = Engine::new(cfg);
        let fs: Vec<Tensor> = (0..12).map(|i| Tensor::random(vec![2], 1.0, i)).collect();
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        let meta = e.db_meta(db).unwrap();
        let mut cached = None;
        let mut out = Vec::new();
        let mut stats = ReadFaultStats::new();
        for (i, f) in fs.iter().enumerate() {
            e.decode_feature_into(meta, i as u64, &mut cached, &mut out, &mut stats)
                .unwrap();
            assert_eq!(out, f.data(), "feature {i}");
        }
        assert_eq!(stats, ReadFaultStats::new());
    }

    #[test]
    fn batch_scan_matches_sequential_and_reads_each_page_once() {
        let mut e = small_engine();
        let model = zoo::tir().seeded(7);
        // 2 KB tir features divide the 16 KB page evenly: no feature
        // straddles a page, so page reads are exactly countable.
        let fs = features(&model, 60);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        let queries: Vec<Tensor> = (0..5u64).map(|i| model.random_feature(1000 + i)).collect();

        let r0 = e.flash_op_counts().reads;
        let reqs: Vec<(&Model, &Tensor, usize)> = queries.iter().map(|q| (&model, q, 7)).collect();
        let batch = e.scan_top_k_batch(db, &reqs).unwrap();
        let r1 = e.flash_op_counts().reads;
        let batch_reads = r1 - r0;

        // Bit-identical to sequential single-query scans, per request.
        for (q, got) in queries.iter().zip(&batch) {
            let single = e.scan_top_k(db, &model, q, 7).unwrap();
            assert_eq!(got, &single);
        }
        let r2 = e.flash_op_counts().reads;

        // The batched pass touches each database page exactly once; the
        // five sequential scans above re-read everything five times.
        assert_eq!(batch_reads as usize, e.db_meta(db).unwrap().pages.len());
        assert_eq!(r2 - r1, 5 * batch_reads);
    }

    #[test]
    fn batch_scan_handles_mixed_models_and_empty_batch() {
        let mut e = small_engine();
        let tir = zoo::tir().seeded(7);
        let other = zoo::tir().seeded(8); // same shapes, different weights
        let fs = features(&tir, 24);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        let q1 = tir.random_feature(501);
        let q2 = tir.random_feature(502);

        assert!(e.scan_top_k_batch(db, &[]).unwrap().is_empty());

        let batch = e
            .scan_top_k_batch(db, &[(&tir, &q1, 4), (&other, &q2, 6), (&tir, &q2, 4)])
            .unwrap();
        assert_eq!(batch[0], e.scan_top_k(db, &tir, &q1, 4).unwrap());
        assert_eq!(batch[1], e.scan_top_k(db, &other, &q2, 6).unwrap());
        assert_eq!(batch[2], e.scan_top_k(db, &tir, &q2, 4).unwrap());
    }

    #[test]
    fn malformed_request_is_refused_before_any_page_read() {
        let mut e = small_engine();
        let tir = zoo::tir().seeded(7);
        let db = e.write_db(&features(&tir, 24)).unwrap();
        e.seal_db(db).unwrap();
        let good = tir.random_feature(501);
        let short = Tensor::random(vec![7], 1.0, 0);
        let textqa = zoo::textqa().seeded(1);
        let foreign = textqa.random_feature(0);
        let reads = e.flash_op_counts().reads;
        // Query length vs model, then model feature size vs database;
        // the good request ahead of each must not scan either.
        for (model, query, found) in [(&tir, &short, 28), (&textqa, &foreign, 2048)] {
            assert_eq!(
                e.scan_top_k_batch(db, &[(&tir, &good, 4), (model, query, 4)]),
                Err(DeepStoreError::Flash(FlashError::SizeMismatch {
                    expected: model.feature_bytes(),
                    found,
                }))
            );
        }
        assert_eq!(e.flash_op_counts().reads, reads);
    }

    #[test]
    fn boundary_page_fault_skips_straddler_exactly_once() {
        // Regression: a feature straddling a block boundary spans two
        // pages on *different channels*. Fault the boundary (second)
        // page: the straddler must be counted skipped exactly once — in
        // its first page's shard — never once per touching shard.
        use deepstore_flash::fault::FaultPlan;
        let mut e = small_engine();
        let model = zoo::textqa().seeded(12);
        let n = 700u64;
        let fs = features(&model, n);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();

        let meta = e.db_meta(db).unwrap();
        let fb = meta.feature_bytes;
        let pb = e.config().ssd.geometry.page_bytes;
        let ppb = e.config().ssd.geometry.pages_per_block;
        let straddler = (pb * ppb / fb) as u64;
        let (p, off) = e.feature_location(meta, straddler);
        assert!(off + fb > pb, "test premise: block straddle");
        let boundary_page = meta.pages[p + 1];
        assert_ne!(
            meta.pages[p].channel, boundary_page.channel,
            "test premise: cross-channel straddle"
        );
        // How many features start on the boundary page itself.
        let starting_there = (0..n)
            .filter(|&i| e.feature_location(meta, i).0 == p + 1)
            .count() as u64;
        let geometry = e.config().ssd.geometry;
        e.inject_faults(FaultPlan::none().fail_page(&geometry, boundary_page));

        let q = model.random_feature(31);
        // Exactly the straddler plus every feature starting on the
        // faulted page is skipped — at every parallelism.
        let expected = 1 + starting_there;
        for workers in [1usize, 2, 4] {
            e.set_parallelism(workers);
            let (top, faults, _) = e
                .scan_top_k_with(db, &model, &q, n as usize, false)
                .unwrap();
            assert_eq!(faults.skipped, expected, "workers = {workers}");
            assert_eq!(top.len(), (n - expected) as usize);
        }
    }

    #[test]
    fn permanent_fault_remaps_and_restores_full_coverage() {
        use deepstore_flash::fault::FaultPlan;
        let mut e = small_engine();
        let model = zoo::tir().seeded(9);
        // 2 KB features divide pages evenly: exact accounting.
        let fs = features(&model, 64);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        let bad_page = e.db_meta(db).unwrap().pages[0];
        let geometry = e.config().ssd.geometry;
        e.inject_faults(FaultPlan::none().fail_page(&geometry, bad_page));

        let q = model.random_feature(500);
        let clean = {
            let mut pristine = small_engine();
            let db2 = pristine.write_db(&fs).unwrap();
            pristine.seal_db(db2).unwrap();
            pristine.scan_top_k(db2, &model, &q, 64).unwrap()
        };

        // Degraded scan: the 8 features of the failing page are skipped
        // and the block queues for retirement.
        let (degraded, faults, _) = e.scan_top_k_with(db, &model, &q, 64, false).unwrap();
        assert_eq!(faults.skipped, 8);
        // Each skipped feature re-read (and re-failed) the bad page.
        assert_eq!(faults.reads.remappable, 8);
        assert_eq!(e.pending_retirements(), 1);
        // The degraded top-K is the fault-free ranking minus the lost
        // features.
        let alive: Vec<_> = clean
            .iter()
            .filter(|h| h.feature_id >= 8)
            .cloned()
            .collect();
        assert_eq!(degraded, alive);

        // Recovery remaps the whole block and retires it.
        let report = e.recover_faults();
        assert_eq!(report.blocks_retired, 1);
        // All 8 database pages lived in the failing block.
        assert_eq!(report.pages_remapped, 8);
        assert_eq!(report.pages_lost, 0);
        assert_eq!(e.pending_retirements(), 0);
        assert_eq!(e.retired_block_count(), 1);
        assert!(e.recover_faults().is_empty(), "queue drained");

        // Full coverage is back, bit-identical to the fault-free run.
        let (healed, faults, _) = e.scan_top_k_with(db, &model, &q, 64, false).unwrap();
        assert_eq!(faults, ScanFaults::default());
        assert_eq!(healed, clean);
        assert!(e.read_feature(db, 0).is_ok());
    }

    #[test]
    fn outage_domain_loses_data_without_retirement() {
        use deepstore_flash::fault::FaultPlan;
        let mut e = small_engine();
        let model = zoo::tir().seeded(10);
        let fs = features(&model, 64);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        let dead = e.db_meta(db).unwrap().pages[0].channel;
        e.inject_faults(FaultPlan::none().dead_channel(dead));

        let q = model.random_feature(501);
        let (top, faults, _) = e.scan_top_k_with(db, &model, &q, 64, false).unwrap();
        assert!(faults.skipped > 0);
        assert_eq!(faults.reads.remappable, 0);
        assert!(faults.reads.lost > 0);
        // Outage domains have no remap source: nothing queues, recovery
        // is a no-op, and the data stays lost.
        assert_eq!(e.pending_retirements(), 0);
        assert!(e.recover_faults().is_empty());
        let (again, _, _) = e.scan_top_k_with(db, &model, &q, 64, false).unwrap();
        assert_eq!(top, again);
    }

    #[test]
    fn transient_faults_with_retries_match_fault_free_scan() {
        use deepstore_flash::fault::FaultPlan;
        let mut e = small_engine();
        let model = zoo::textqa().seeded(13);
        let fs = features(&model, 120);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        let q = model.random_feature(77);
        let clean = e.scan_top_k(db, &model, &q, 120).unwrap();

        // Every page transient-faulty, failing at most 3 attempts: the
        // default 4-attempt ladder always recovers, so the scan result
        // is bit-identical and nothing is skipped.
        e.inject_faults(FaultPlan::none().transient(0.8, 99));
        let (faulty, faults, _) = e.scan_top_k_with(db, &model, &q, 120, false).unwrap();
        assert_eq!(faulty, clean);
        assert_eq!(faults.skipped, 0);
        assert!(faults.reads.total_retries() > 0, "faults actually fired");
        assert!(faults.reads.recovered > 0);
        assert_eq!((faults.reads.remappable, faults.reads.lost), (0, 0));
    }

    #[test]
    fn restore_from_image_resumes_counters_and_results() {
        use deepstore_flash::MmapStore;
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "deepstore-engine-restore-{}-{}.img",
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

        let cfg = DeepStoreConfig::small();
        let store = MmapStore::create(&path, cfg.ssd.geometry).unwrap();
        let mut e = Engine::with_store(cfg.clone(), Box::new(store));
        let model = zoo::textqa().seeded(21);
        let fs = features(&model, 120);
        let db = e.write_db(&fs).unwrap();
        e.seal_db(db).unwrap();
        let q = model.random_feature(9);
        let expected = e.scan_top_k(db, &model, &q, 10).unwrap();
        let counts = e.flash_op_counts();
        let flash = e.flash_snapshot();
        let ftl = e.ftl_snapshot();
        let dbs = e.db_metas();
        let bufs = e.write_buffer_snapshot();
        assert!(bufs.is_empty(), "sealed db leaves no buffered bytes");
        let next_db = e.next_db_raw();
        e.commit(b"engine-level-manifest", false).unwrap();
        drop(e);

        let (store, manifest, clean) = MmapStore::open(&path).unwrap();
        assert_eq!(manifest, b"engine-level-manifest");
        assert!(!clean);
        let e2 = Engine::restore(cfg, Box::new(store), &flash, &ftl, dbs, bufs, next_db);
        // The counter-free quant rebuild leaves op counts exactly where
        // the snapshot recorded them.
        assert_eq!(e2.flash_op_counts(), counts);
        assert_eq!(e2.next_db_raw(), next_db);
        // Bit-identical scan, including cascade decisions, after reopen.
        let (again, _, _) = e2.scan_top_k_with(db, &model, &q, 10, false).unwrap();
        assert_eq!(again, expected);
        assert_eq!(e2.backend(), "mmap");
        assert!(e2.is_persistent());
    }

    #[test]
    fn databases_stripe_across_channels() {
        let mut e = small_engine();
        let model = zoo::tir().seeded(6);
        // Enough features to span several blocks.
        let db = e.write_db(&features(&model, 200)).unwrap();
        e.seal_db(db).unwrap();
        let meta = e.db_meta(db).unwrap();
        let mut channels: Vec<usize> = meta.pages.iter().map(|p| p.channel).collect();
        channels.sort_unstable();
        channels.dedup();
        assert!(channels.len() > 1, "db occupies only channels {channels:?}");
    }
}
