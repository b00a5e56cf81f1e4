//! Multi-drive DeepStore: replicated scatter-gather across devices.
//!
//! Figure 10b shows that "the compute capability of all DeepStore designs
//! scales linearly with the number of SSDs": a feature database
//! partitioned over N drives is scanned by all of them concurrently, and
//! the host merges the per-drive top-K — the same map-reduce shape the
//! engine uses internally across channels (§4.7.1), lifted one level up.
//!
//! [`DeepStoreCluster`] makes that real rather than analytic:
//!
//! * **Partitioning** — `writeDB` splits each call's features into N
//!   contiguous chunks, one per partition. Every partition records the
//!   global index range of each chunk it received ([`Extent`]s), so the
//!   local→global index mapping is *metadata*, not arithmetic: appends
//!   that straddle partition boundaries keep resolving exactly.
//! * **R-way replication** — each partition's chunk is written to R
//!   distinct drives (placement never co-locates two copies). Queries
//!   scan **one live replica per partition**; replicas are pure
//!   redundancy, not extra work.
//! * **Deterministic merge** — per-replica top-K hits are re-keyed to
//!   global indices and merged with [`TopKSorter`]'s total order
//!   (score desc, global index asc). Local order within a partition is
//!   global order restricted to it, so the merged top-K is bit-identical
//!   to a single-device scan of the same write order, at any N, R, and
//!   scan parallelism.
//! * **Failure routing** — a replica that cannot answer at full
//!   coverage (dead channel/chip outage, unrecoverable page loss, or a
//!   whole dead drive) triggers failover to the next replica in
//!   placement order. Coverage stays 1.0 until *all* R copies of some
//!   partition are damaged; after that the best surviving replica
//!   answers and the result is marked degraded.
//! * **Rebalancing** — [`DeepStoreCluster::rebalance`] is the explicit
//!   maintenance op: per-drive fault recovery first, then a scrub probe
//!   of every replica, dropping the dead ones and re-replicating from a
//!   healthy copy onto the least-loaded healthy drive. The pass reports
//!   moved bytes and the post-state replication factor, and records both
//!   through `crates/obs`.
//!
//! The simulated latency of a cluster query is the slowest drive's total
//! (drives run concurrently; scans on one drive serialize).

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::api::{DeepStore, ModelId, QueryHit, QueryRequest};
use crate::config::{AcceleratorLevel, DeepStoreConfig};
use crate::engine::DbId;
use crate::error::{DeepStoreError, Result};
use crate::telemetry::ClusterTelemetry;
use deepstore_flash::fault::FaultPlan;
use deepstore_flash::{FlashError, SimDuration};
use deepstore_nn::{ModelGraph, Tensor};
use deepstore_obs::MetricsSnapshot;
use deepstore_systolic::topk::TopKSorter;
use serde::{Deserialize, Serialize};

/// A database partitioned (and replicated) across the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterDbId(pub u64);

/// A model registered on every drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClusterModelId(pub u64);

/// One contiguous run of global indices held by a partition. A
/// partition's local feature order is the concatenation of its extents
/// in the order they were appended; extents are strictly increasing in
/// `global_start`, so local order is global order restricted to the
/// partition — the property the deterministic merge relies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Extent {
    /// Global index of the extent's first feature.
    pub global_start: u64,
    /// Features in the extent.
    pub len: u64,
}

/// One physical copy of a partition: a single-drive database on one
/// drive of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Replica {
    /// Drive hosting the copy.
    pub drive: usize,
    /// The per-drive database id of the copy.
    pub db: DbId,
}

#[derive(Debug, Clone)]
struct Partition {
    extents: Vec<Extent>,
    replicas: Vec<Replica>,
}

impl Partition {
    fn len(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Resolves a local feature index to its global index by walking
    /// the extent metadata (NOT round-robin arithmetic: after appends a
    /// partition's local space is a concatenation of disjoint global
    /// ranges).
    fn global_of(&self, mut local: u64) -> u64 {
        for e in &self.extents {
            if local < e.len {
                return e.global_start + local;
            }
            local -= e.len;
        }
        unreachable!("local index {local} beyond partition extents")
    }
}

#[derive(Debug, Clone)]
struct PartitionedDb {
    partitions: Vec<Partition>,
    total_features: u64,
    feature_bytes: u64,
}

struct ClusterModel {
    per_drive: Vec<ModelId>,
}

/// A hit annotated with the drive and global index it resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterHit {
    /// Index of the drive whose replica served the hit.
    pub drive: usize,
    /// The per-drive hit. `hit.feature_index` is the index *within the
    /// serving replica's local database*.
    pub hit: QueryHit,
    /// The feature's global index in the original write order, derived
    /// from partition extent metadata.
    pub global_index: u64,
}

/// Per-partition routing outcome of one cluster query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PartitionScan {
    /// Partition index.
    pub partition: usize,
    /// Drive whose replica served the partition; `None` when every
    /// replica was unavailable (all hosting drives down).
    pub drive: Option<usize>,
    /// Features of this partition covered by the serving replica.
    pub covered: u64,
    /// Features of this partition the serving replica could not read.
    pub skipped: u64,
    /// Replicas tried (or skipped as down) before settling.
    pub failovers: u32,
}

/// Result of a cluster-wide query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterQueryResult {
    /// Ranked hits, best first — bit-identical to a single-device scan
    /// of the same write order while coverage is 1.0.
    pub top_k: Vec<ClusterHit>,
    /// Simulated latency: the slowest drive's total for this query
    /// (drives run concurrently; failover attempts charge the drive
    /// that served them).
    pub elapsed: SimDuration,
    /// Fraction of the database's features covered by the chosen
    /// replicas, in `[0, 1]`. Stays 1.0 until all R copies of some
    /// partition are damaged.
    pub coverage: f64,
    /// True when `coverage < 1.0`.
    pub degraded: bool,
    /// Per-partition routing: which replica served, at what coverage,
    /// after how many failovers.
    pub partitions: Vec<PartitionScan>,
}

/// A query against the cluster. Mirrors [`QueryRequest`] one level up.
#[derive(Debug, Clone)]
pub struct ClusterQueryRequest {
    /// Query feature vector.
    pub qfv: Tensor,
    /// Model to score with (registered on every drive).
    pub model: ClusterModelId,
    /// Partitioned database to scan.
    pub db: ClusterDbId,
    /// Results to return.
    pub k: usize,
    /// Accelerator placement level.
    pub level: AcceleratorLevel,
    /// Bypass the int8 pruning cascade (results are bit-identical
    /// either way; this is a perf-debugging knob).
    pub exact: bool,
}

impl ClusterQueryRequest {
    /// A request with `k = 1`, SSD level, cascade enabled.
    #[must_use]
    pub fn new(qfv: Tensor, model: ClusterModelId, db: ClusterDbId) -> Self {
        ClusterQueryRequest {
            qfv,
            model,
            db,
            k: 1,
            level: AcceleratorLevel::Ssd,
            exact: false,
        }
    }

    /// Sets the number of results.
    #[must_use]
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the accelerator level.
    #[must_use]
    pub fn level(mut self, level: AcceleratorLevel) -> Self {
        self.level = level;
        self
    }

    /// Bypasses the pruning cascade.
    #[must_use]
    pub fn exact(mut self, exact: bool) -> Self {
        self.exact = exact;
        self
    }
}

/// What one [`DeepStoreCluster::rebalance`] pass accomplished.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RebalanceReport {
    /// Partitions examined (across all databases).
    pub partitions: u64,
    /// Partitions found holding fewer than R healthy replicas.
    pub under_replicated: u64,
    /// New replicas created from a healthy copy.
    pub re_replicated: u64,
    /// Dead replicas dropped from partition membership.
    pub dropped_replicas: u64,
    /// Feature bytes copied drive-to-drive while re-replicating.
    pub moved_bytes: u64,
    /// Pages healed by per-drive fault recovery (remapped out of
    /// retiring blocks) during the pass.
    pub pages_remapped: u64,
    /// Pages lost with no remap source during per-drive recovery.
    pub pages_lost: u64,
    /// Blocks retired by per-drive recovery.
    pub blocks_retired: u64,
    /// Partitions with *zero* healthy replicas: the data is gone until
    /// the host rewrites it, and re-replication has no source.
    pub unrecoverable: u64,
    /// Smallest per-partition replica count after the pass.
    pub min_replication: u64,
    /// Largest per-partition replica count after the pass.
    pub max_replication: u64,
}

impl RebalanceReport {
    /// True when every partition ended the pass at the target
    /// replication factor `r`.
    #[must_use]
    pub fn fully_replicated(&self, r: usize) -> bool {
        self.unrecoverable == 0 && self.min_replication >= r as u64
    }
}

/// A group of DeepStore drives behaving as one logical store.
pub struct DeepStoreCluster {
    drives: Vec<DeepStore>,
    /// Drives administratively marked down ([`DeepStoreCluster::kill_drive`]):
    /// queries skip their replicas without probing, and rebalancing
    /// never targets them.
    down: Vec<bool>,
    /// Feature bytes each drive hosts (replica placement balances this).
    hosted_bytes: Vec<u64>,
    replicas: usize,
    dbs: Vec<PartitionedDb>,
    models: Vec<ClusterModel>,
    telemetry: ClusterTelemetry,
    /// Directory of per-drive images when the cluster is persistent.
    image_dir: Option<PathBuf>,
}

impl std::fmt::Debug for DeepStoreCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeepStoreCluster")
            .field("drives", &self.drives.len())
            .field("replicas", &self.replicas)
            .field("dbs", &self.dbs.len())
            .field("models", &self.models.len())
            .finish()
    }
}

impl DeepStoreCluster {
    /// Creates an unreplicated (R = 1) cluster of `n` identical
    /// in-memory drives.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, cfg: DeepStoreConfig) -> Self {
        Self::with_replication(n, 1, cfg)
    }

    /// Creates a cluster of `n` identical in-memory drives with `r`-way
    /// replication. Every partition is stored on `r` distinct drives,
    /// so `r` must not exceed `n`.
    ///
    /// The per-drive query cache is disabled: a cached answer predating
    /// fault injection would claim full coverage for data that is now
    /// unreadable, corrupting failover decisions.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `r == 0`, or `r > n`.
    pub fn with_replication(n: usize, r: usize, cfg: DeepStoreConfig) -> Self {
        Self::build(n, r, cfg, None).expect("heap drives are infallible")
    }

    /// Creates a persistent cluster: `n` single-file flash images named
    /// `drive-<i>.img` under `dir`, plus a `cluster.json` layout
    /// manifest written by [`DeepStoreCluster::flush`].
    ///
    /// # Errors
    ///
    /// Propagates image-creation failures.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `r == 0`, or `r > n`.
    pub fn create_persistent(
        dir: impl AsRef<Path>,
        n: usize,
        r: usize,
        cfg: DeepStoreConfig,
    ) -> Result<Self> {
        Self::build(n, r, cfg, Some(dir.as_ref()))
    }

    /// The one door of both fresh-cluster constructors: checks the
    /// shape, turns the per-drive query cache off, and builds `n` empty
    /// drives — images under `image_dir` when given, heap drives
    /// otherwise.
    fn build(n: usize, r: usize, cfg: DeepStoreConfig, image_dir: Option<&Path>) -> Result<Self> {
        assert!(n > 0, "cluster needs at least one drive");
        assert!(r > 0, "replication factor must be at least 1");
        assert!(
            r <= n,
            "cannot place {r} replicas on {n} drives without co-location"
        );
        let mut drive_cfg = cfg;
        drive_cfg.qc_capacity = 0;
        if let Some(dir) = image_dir {
            std::fs::create_dir_all(dir)
                .map_err(|e| FlashError::Image(format!("create cluster dir: {e}")))?;
        }
        let drives = (0..n)
            .map(|d| match image_dir {
                Some(dir) => DeepStore::create(Self::drive_image_path(dir, d), drive_cfg.clone()),
                None => Ok(DeepStore::in_memory(drive_cfg.clone())),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(DeepStoreCluster {
            drives,
            down: vec![false; n],
            hosted_bytes: vec![0; n],
            replicas: r,
            dbs: Vec::new(),
            models: Vec::new(),
            telemetry: ClusterTelemetry::new(),
            image_dir: image_dir.map(Path::to_path_buf),
        })
    }

    /// Reopens a persistent cluster from its directory: the layout
    /// manifest plus every per-drive image.
    ///
    /// # Errors
    ///
    /// Propagates manifest and image-open failures;
    /// [`FlashError::VersionMismatch`] (wrapped) for a manifest written
    /// by a different encoding version.
    pub fn open_persistent(dir: impl AsRef<Path>) -> Result<Self> {
        let dir = dir.as_ref();
        let bytes = std::fs::read(Self::manifest_path(dir))
            .map_err(|e| FlashError::Image(format!("read cluster manifest: {e}")))?;
        let manifest = crate::persist::ClusterManifest::decode(&bytes)?;
        let n = manifest.drives as usize;
        let mut drives = Vec::with_capacity(n);
        for d in 0..n {
            drives.push(DeepStore::open(Self::drive_image_path(dir, d))?);
        }
        let mut hosted_bytes = vec![0u64; n];
        let dbs: Vec<PartitionedDb> = manifest
            .dbs
            .iter()
            .map(|db| {
                let partitions: Vec<Partition> = db
                    .partitions
                    .iter()
                    .map(|p| Partition {
                        extents: p
                            .extents
                            .iter()
                            .map(|&(global_start, len)| Extent { global_start, len })
                            .collect(),
                        replicas: p
                            .replicas
                            .iter()
                            .map(|&(drive, db_id)| Replica {
                                drive: drive as usize,
                                db: DbId(db_id),
                            })
                            .collect(),
                    })
                    .collect();
                for p in &partitions {
                    for rep in &p.replicas {
                        hosted_bytes[rep.drive] += p.len() * db.feature_bytes;
                    }
                }
                PartitionedDb {
                    total_features: partitions.iter().map(Partition::len).sum(),
                    feature_bytes: db.feature_bytes,
                    partitions,
                }
            })
            .collect();
        Ok(DeepStoreCluster {
            drives,
            down: manifest.down.clone(),
            hosted_bytes,
            replicas: manifest.replicas as usize,
            dbs,
            models: manifest
                .models
                .iter()
                .map(|per_drive| ClusterModel {
                    per_drive: per_drive.iter().map(|&m| ModelId(m)).collect(),
                })
                .collect(),
            telemetry: ClusterTelemetry::new(),
            image_dir: Some(dir.to_path_buf()),
        })
    }

    fn drive_image_path(dir: &Path, d: usize) -> PathBuf {
        dir.join(format!("drive-{d}.img"))
    }

    fn manifest_path(dir: &Path) -> PathBuf {
        dir.join("cluster.json")
    }

    /// Flushes every drive's image and commits the cluster layout
    /// manifest (write-to-temp, fsync, rename, fsync the directory, so
    /// a crash leaves the previous manifest authoritative). No-op on an
    /// in-memory cluster.
    ///
    /// # Errors
    ///
    /// Propagates per-drive flush and manifest I/O failures.
    pub fn flush(&mut self) -> Result<()> {
        let Some(dir) = self.image_dir.clone() else {
            return Ok(());
        };
        for drive in &mut self.drives {
            drive.flush()?;
        }
        let manifest = crate::persist::ClusterManifest {
            manifest_version: crate::persist::CLUSTER_MANIFEST_VERSION,
            drives: self.drives.len() as u32,
            replicas: self.replicas as u32,
            down: self.down.clone(),
            dbs: self
                .dbs
                .iter()
                .map(|db| crate::persist::ClusterDbLayout {
                    feature_bytes: db.feature_bytes,
                    partitions: db
                        .partitions
                        .iter()
                        .map(|p| crate::persist::PartitionLayout {
                            extents: p.extents.iter().map(|e| (e.global_start, e.len)).collect(),
                            replicas: p
                                .replicas
                                .iter()
                                .map(|r| (r.drive as u32, r.db.0))
                                .collect(),
                        })
                        .collect(),
                })
                .collect(),
            models: self
                .models
                .iter()
                .map(|m| m.per_drive.iter().map(|id| id.0).collect())
                .collect(),
        };
        // Bytes durable before the rename can publish them, and the
        // rename durable before flush returns: otherwise a power loss can
        // leave `cluster.json` renamed into place but empty.
        let path = Self::manifest_path(&dir);
        let tmp = path.with_extension("json.tmp");
        let io = |what: &str, e: std::io::Error| FlashError::Image(format!("{what}: {e}"));
        std::fs::File::create(&tmp)
            .and_then(|mut file| {
                std::io::Write::write_all(&mut file, &manifest.encode())?;
                file.sync_all()
            })
            .map_err(|e| io("write cluster manifest", e))?;
        std::fs::rename(&tmp, &path).map_err(|e| io("commit cluster manifest", e))?;
        std::fs::File::open(&dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io("sync cluster directory", e))?;
        Ok(())
    }

    /// Drive count.
    pub fn drives(&self) -> usize {
        self.drives.len()
    }

    /// Target replication factor.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Which storage backend holds the drives' page payloads (`"heap"`
    /// or `"mmap"`); every drive of a cluster has the same one.
    pub fn backend(&self) -> &'static str {
        self.drives[0].backend()
    }

    /// Whether the drives' committed state survives process exit.
    pub fn is_persistent(&self) -> bool {
        self.drives[0].is_persistent()
    }

    /// Partition count of a database (always the drive count).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::UnknownDb`] (wrapped) for a bad handle.
    pub fn partitions(&self, db: ClusterDbId) -> Result<usize> {
        Ok(self.db(db)?.partitions.len())
    }

    /// Total features in a database.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::UnknownDb`] (wrapped) for a bad handle.
    pub fn db_features(&self, db: ClusterDbId) -> Result<u64> {
        Ok(self.db(db)?.total_features)
    }

    /// Per-partition replica counts for a database, in partition order.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::UnknownDb`] (wrapped) for a bad handle.
    pub fn replication(&self, db: ClusterDbId) -> Result<Vec<usize>> {
        Ok(self
            .db(db)?
            .partitions
            .iter()
            .map(|p| p.replicas.len())
            .collect())
    }

    /// Sets every drive's scan worker count (`0` = one worker per
    /// available host core). Purely a host wall-clock knob; results and
    /// simulated timing are unchanged.
    pub fn set_parallelism(&mut self, workers: usize) {
        for drive in &mut self.drives {
            drive.set_parallelism(workers);
        }
    }

    /// Arms a fault plan on one drive (replacing any previous plan).
    ///
    /// # Panics
    ///
    /// Panics if `drive` is out of range.
    pub fn inject_faults(&mut self, drive: usize, plan: FaultPlan) {
        self.drives[drive].inject_faults(plan);
    }

    /// Kills a whole drive: every channel becomes an outage domain
    /// (every read fails, no remap source) and the drive is marked down
    /// so queries skip its replicas without probing and rebalancing
    /// never targets it.
    ///
    /// # Panics
    ///
    /// Panics if `drive` is out of range.
    pub fn kill_drive(&mut self, drive: usize) {
        let geometry = self.drives[drive].config().ssd.geometry;
        self.drives[drive].inject_faults(FaultPlan::dead_device(&geometry));
        self.down[drive] = true;
    }

    /// Whether a drive is administratively down.
    pub fn is_down(&self, drive: usize) -> bool {
        self.down[drive]
    }

    /// Cluster-level metrics (scatter-gather, failover, rebalance).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.telemetry.snapshot()
    }

    /// Cluster metrics plus every drive's engine/API metrics folded
    /// together with [`MetricsSnapshot::merge`] (same-name drive
    /// counters sum across the fleet).
    pub fn fleet_metrics(&self) -> MetricsSnapshot {
        let mut merged = self.telemetry.snapshot();
        for drive in &self.drives {
            merged.merge(&drive.stats().metrics);
        }
        merged
    }

    fn db(&self, db: ClusterDbId) -> Result<&PartitionedDb> {
        self.dbs
            .get(db.0 as usize)
            .ok_or(DeepStoreError::Flash(FlashError::UnknownDb(db.0)))
    }

    fn model(&self, model: ClusterModelId) -> Result<&ClusterModel> {
        self.models
            .get(model.0 as usize)
            .ok_or(DeepStoreError::UnknownModel(ModelId(model.0)))
    }

    /// Splits `m` features into `parts` contiguous chunk lengths,
    /// balanced to within one feature (earlier partitions take the
    /// remainder).
    fn chunk_lens(m: usize, parts: usize) -> Vec<u64> {
        (0..parts)
            .map(|p| (m / parts + usize::from(p < m % parts)) as u64)
            .collect()
    }

    /// `writeDB`: partitions a feature database across the drives with
    /// R-way replication.
    ///
    /// Each call's features are split into N contiguous chunks; chunk
    /// `p` lands on partition `p`, whose replicas live on drives
    /// `p, p+1, …, p+R-1 (mod N)` — R distinct drives, so losing one
    /// device costs at most one copy of any partition.
    ///
    /// # Errors
    ///
    /// Requires at least one feature per partition
    /// ([`FlashError::SizeMismatch`], wrapped) so every partition
    /// exists; propagates the first drive failure.
    pub fn write_db(&mut self, features: &[Tensor]) -> Result<ClusterDbId> {
        let n = self.drives.len();
        if features.len() < n {
            return Err(FlashError::SizeMismatch {
                expected: n,
                found: features.len(),
            }
            .into());
        }
        let feature_bytes = features.first().map_or(0, |t| 4 * t.len() as u64);
        let lens = Self::chunk_lens(features.len(), n);
        let mut partitions = Vec::with_capacity(n);
        let mut start = 0u64;
        for (p, &len) in lens.iter().enumerate() {
            let chunk = &features[start as usize..(start + len) as usize];
            let mut replicas = Vec::with_capacity(self.replicas);
            for j in 0..self.replicas {
                let drive = (p + j) % n;
                let db = self.drives[drive].write_db(chunk)?;
                self.hosted_bytes[drive] += len * feature_bytes;
                replicas.push(Replica { drive, db });
            }
            partitions.push(Partition {
                extents: vec![Extent {
                    global_start: start,
                    len,
                }],
                replicas,
            });
            start += len;
        }
        let id = ClusterDbId(self.dbs.len() as u64);
        self.dbs.push(PartitionedDb {
            partitions,
            total_features: features.len() as u64,
            feature_bytes,
        });
        Ok(id)
    }

    /// `appendDB`: appends features to a partitioned database. The new
    /// features are split into N contiguous chunks exactly like
    /// `writeDB`, so a partition's local space becomes a concatenation
    /// of disjoint global ranges — which is why the global-index
    /// mapping reads extent metadata instead of doing arithmetic.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::UnknownDb`] (wrapped) for a bad handle;
    /// propagates the first drive failure.
    pub fn append_db(&mut self, db: ClusterDbId, features: &[Tensor]) -> Result<()> {
        self.db(db)?;
        if features.is_empty() {
            return Ok(());
        }
        let n = self.drives.len();
        let base = self.dbs[db.0 as usize].total_features;
        let feature_bytes = self.dbs[db.0 as usize].feature_bytes;
        let lens = Self::chunk_lens(features.len(), n);
        let mut start = 0u64;
        for (p, &len) in lens.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let chunk = &features[start as usize..(start + len) as usize];
            let replicas = self.dbs[db.0 as usize].partitions[p].replicas.clone();
            for rep in &replicas {
                self.drives[rep.drive].append_db(rep.db, chunk)?;
                self.hosted_bytes[rep.drive] += len * feature_bytes;
            }
            self.dbs[db.0 as usize].partitions[p].extents.push(Extent {
                global_start: base + start,
                len,
            });
            start += len;
        }
        self.dbs[db.0 as usize].total_features += features.len() as u64;
        Ok(())
    }

    /// Registers a model on every drive.
    ///
    /// # Errors
    ///
    /// Propagates the first drive failure.
    pub fn load_model(&mut self, graph: &ModelGraph) -> Result<ClusterModelId> {
        let mut per_drive = Vec::with_capacity(self.drives.len());
        for drive in &mut self.drives {
            per_drive.push(drive.load_model(graph)?);
        }
        let id = ClusterModelId(self.models.len() as u64);
        self.models.push(ClusterModel { per_drive });
        Ok(id)
    }

    /// Scatter-gather query: one live replica per partition scans its
    /// chunk; the host re-keys hits to global indices and merges with
    /// the total-order top-K sorter. See the module docs for the
    /// determinism and failover contract.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::UnknownDb`] (wrapped) for a bad cluster
    /// database handle, [`DeepStoreError::UnknownModel`] for a bad
    /// cluster model handle, and propagates drive errors.
    pub fn query(&mut self, request: ClusterQueryRequest) -> Result<ClusterQueryResult> {
        let mut results = self.query_batch(std::slice::from_ref(&request))?;
        Ok(results.pop().expect("one request yields one result"))
    }

    /// Batched scatter-gather: validates every request up front
    /// (batch-wide, mirroring the single-drive API), then routes each
    /// through one live replica per partition.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeepStoreCluster::query`]; no request is
    /// executed if any fails validation.
    pub fn query_batch(
        &mut self,
        requests: &[ClusterQueryRequest],
    ) -> Result<Vec<ClusterQueryResult>> {
        for req in requests {
            self.db(req.db)?;
            self.model(req.model)?;
        }
        requests.iter().map(|req| self.run_one(req)).collect()
    }

    fn run_one(&mut self, req: &ClusterQueryRequest) -> Result<ClusterQueryResult> {
        let n = self.drives.len();
        let per_drive_model = self.model(req.model)?.per_drive.clone();
        let partitions = self.db(req.db)?.partitions.clone();
        let total = self.db(req.db)?.total_features;
        let mut merged = TopKSorter::new(req.k);
        let mut by_global: HashMap<u64, (usize, QueryHit)> = HashMap::new();
        let mut drive_ns = vec![SimDuration::ZERO; n];
        let mut scans = Vec::with_capacity(partitions.len());
        let mut covered_total = 0u64;
        let mut failovers_total = 0u64;
        for (pi, part) in partitions.iter().enumerate() {
            let part_len = part.len();
            let mut failovers = 0u32;
            // (skipped, replica order) — lower is better, earliest
            // replica wins ties; integer comparison, no float laundering.
            let mut best: Option<(u64, usize, crate::api::QueryResult)> = None;
            for (ri, rep) in part.replicas.iter().enumerate() {
                if self.down[rep.drive] {
                    failovers += 1;
                    continue;
                }
                let drive = &mut self.drives[rep.drive];
                let mut dreq =
                    QueryRequest::new(req.qfv.clone(), per_drive_model[rep.drive], rep.db)
                        .k(req.k)
                        .level(req.level);
                if req.exact {
                    dreq = dreq.exact();
                }
                let qid = drive.query(dreq)?;
                let res = drive.results(qid)?;
                drive_ns[rep.drive] += res.elapsed;
                let full = res.skipped == 0;
                if best.as_ref().is_none_or(|(s, _, _)| res.skipped < *s) {
                    best = Some((res.skipped, ri, res));
                }
                if full {
                    break;
                }
                failovers += 1;
            }
            match best {
                Some((skipped, ri, res)) => {
                    let drive = part.replicas[ri].drive;
                    covered_total += part_len - skipped;
                    for h in &res.top_k {
                        let global = part.global_of(h.feature_index);
                        merged.offer(h.score, global);
                        by_global.insert(global, (drive, *h));
                    }
                    scans.push(PartitionScan {
                        partition: pi,
                        drive: Some(drive),
                        covered: part_len - skipped,
                        skipped,
                        failovers,
                    });
                }
                None => {
                    // Every replica down: the partition contributes
                    // nothing.
                    scans.push(PartitionScan {
                        partition: pi,
                        drive: None,
                        covered: 0,
                        skipped: part_len,
                        failovers,
                    });
                }
            }
            failovers_total += u64::from(failovers);
        }
        let elapsed = drive_ns
            .iter()
            .copied()
            .fold(SimDuration::ZERO, SimDuration::max);
        let coverage = if total == 0 {
            1.0
        } else {
            covered_total as f64 / total as f64
        };
        let degraded = covered_total < total;
        let m = &self.telemetry;
        m.queries.incr();
        m.partitions_scanned.add(partitions.len() as u64);
        m.replica_failovers.add(failovers_total);
        if degraded {
            m.degraded_queries.incr();
        }
        m.query_ns.record(elapsed.as_nanos());
        let top_k = merged
            .ranked()
            .into_iter()
            .map(|e| {
                let (drive, hit) = by_global[&e.feature_id];
                ClusterHit {
                    drive,
                    hit,
                    global_index: e.feature_id,
                }
            })
            .collect();
        Ok(ClusterQueryResult {
            top_k,
            elapsed,
            coverage,
            degraded,
            partitions: scans,
        })
    }

    /// Explicit maintenance: recover per-drive faults, scrub every
    /// replica, drop the dead ones, and re-replicate under-replicated
    /// partitions onto healthy drives (least hosted bytes first, never
    /// a drive already holding a copy, never a down drive). Each new
    /// replica is scrub-verified before it counts; a copy that lands on
    /// damaged flash is discarded and the next candidate drive is
    /// tried.
    ///
    /// # Errors
    ///
    /// Propagates unexpected drive errors (bad handles, I/O). Fault
    /// outcomes are *not* errors — they are the report's content.
    pub fn rebalance(&mut self) -> Result<RebalanceReport> {
        let mut report = RebalanceReport::default();
        for drive in &mut self.drives {
            let rec = drive.recover_faults();
            report.pages_remapped += rec.pages_remapped;
            report.pages_lost += rec.pages_lost;
            report.blocks_retired += rec.blocks_retired;
        }
        let target = self.replicas;
        let mut min_rep = u64::MAX;
        let mut max_rep = 0u64;
        for dbi in 0..self.dbs.len() {
            for pi in 0..self.dbs[dbi].partitions.len() {
                report.partitions += 1;
                let part_bytes = {
                    let db = &self.dbs[dbi];
                    db.partitions[pi].len() * db.feature_bytes
                };
                let mut moved_for_partition = 0u64;
                // Scrub: which replicas still hold the whole chunk?
                let replicas = self.dbs[dbi].partitions[pi].replicas.clone();
                let mut healthy = Vec::new();
                let mut dead = Vec::new();
                for rep in replicas {
                    let ok =
                        !self.down[rep.drive] && self.drives[rep.drive].probe_db(rep.db)?.healthy();
                    if ok {
                        healthy.push(rep);
                    } else {
                        dead.push(rep);
                    }
                }
                if !dead.is_empty() {
                    for rep in &dead {
                        self.hosted_bytes[rep.drive] =
                            self.hosted_bytes[rep.drive].saturating_sub(part_bytes);
                    }
                    report.dropped_replicas += dead.len() as u64;
                }
                if healthy.len() < target {
                    report.under_replicated += 1;
                }
                if healthy.is_empty() {
                    report.unrecoverable += 1;
                    self.dbs[dbi].partitions[pi].replicas = healthy;
                    min_rep = 0;
                    self.telemetry.partition_replication.record(0);
                    self.telemetry.moved_bytes_per_partition.record(0);
                    continue;
                }
                // Re-replicate from the first healthy copy onto the
                // least-loaded healthy drives not already hosting one.
                while healthy.len() < target {
                    let source = healthy[0];
                    let mut candidates: Vec<usize> = (0..self.drives.len())
                        .filter(|&d| !self.down[d] && healthy.iter().all(|r| r.drive != d))
                        .collect();
                    candidates.sort_by_key(|&d| (self.hosted_bytes[d], d));
                    let chunk_len = self.dbs[dbi].partitions[pi].len();
                    let chunk = self.drives[source.drive].read_db(source.db, 0, chunk_len)?;
                    let mut placed = false;
                    for cand in candidates {
                        let new_db = self.drives[cand].write_db(&chunk)?;
                        if self.drives[cand].probe_db(new_db)?.healthy() {
                            self.hosted_bytes[cand] += part_bytes;
                            healthy.push(Replica {
                                drive: cand,
                                db: new_db,
                            });
                            report.re_replicated += 1;
                            report.moved_bytes += part_bytes;
                            moved_for_partition += part_bytes;
                            placed = true;
                            break;
                        }
                        // The copy landed on damaged flash: orphan it
                        // and try the next candidate.
                    }
                    if !placed {
                        break;
                    }
                }
                min_rep = min_rep.min(healthy.len() as u64);
                max_rep = max_rep.max(healthy.len() as u64);
                self.telemetry
                    .partition_replication
                    .record(healthy.len() as u64);
                self.telemetry
                    .moved_bytes_per_partition
                    .record(moved_for_partition);
                self.dbs[dbi].partitions[pi].replicas = healthy;
            }
        }
        report.min_replication = if min_rep == u64::MAX { 0 } else { min_rep };
        report.max_replication = max_rep;
        self.telemetry.rebalances.incr();
        self.telemetry.moved_bytes.add(report.moved_bytes);
        self.telemetry.re_replicated.add(report.re_replicated);
        self.telemetry.dropped_replicas.add(report.dropped_replicas);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepstore_nn::zoo;

    fn cluster(
        n: usize,
        r: usize,
    ) -> (
        DeepStoreCluster,
        deepstore_nn::Model,
        ClusterDbId,
        ClusterModelId,
    ) {
        let model = zoo::textqa().seeded_metric(4);
        let mut c = DeepStoreCluster::with_replication(n, r, DeepStoreConfig::small());
        let features: Vec<Tensor> = (0..60).map(|i| model.random_feature(i)).collect();
        let db = c.write_db(&features).unwrap();
        let mid = c.load_model(&ModelGraph::from_model(&model)).unwrap();
        (c, model, db, mid)
    }

    fn req(q: &Tensor, k: usize, mid: ClusterModelId, db: ClusterDbId) -> ClusterQueryRequest {
        ClusterQueryRequest::new(q.clone(), mid, db)
            .k(k)
            .level(AcceleratorLevel::Channel)
    }

    #[test]
    fn cluster_query_matches_single_drive_results() {
        let probe_seed = 23; // duplicate of feature 23
        let (mut single, model, sdb, smid) = cluster(1, 1);
        let (mut multi, _, mdb, mmid) = cluster(4, 1);
        let q = model.random_feature(probe_seed);
        let rs = single.query(req(&q, 5, smid, sdb)).unwrap();
        let rm = multi.query(req(&q, 5, mmid, mdb)).unwrap();
        let ids_single: Vec<u64> = rs.top_k.iter().map(|h| h.global_index).collect();
        let ids_multi: Vec<u64> = rm.top_k.iter().map(|h| h.global_index).collect();
        assert_eq!(ids_single, ids_multi);
        // Bit-identical scores, not just the same ids.
        for (a, b) in rs.top_k.iter().zip(&rm.top_k) {
            assert_eq!(a.hit.score.to_bits(), b.hit.score.to_bits());
        }
        assert_eq!(ids_multi[0], probe_seed);
        assert_eq!(rm.coverage, 1.0);
        assert!(!rm.degraded);
    }

    #[test]
    fn replication_does_not_change_results_or_cost_extra_scans() {
        let (mut r1, model, db1, m1) = cluster(4, 1);
        let (mut r3, _, db3, m3) = cluster(4, 3);
        let q = model.random_feature(7);
        let a = r1.query(req(&q, 6, m1, db1)).unwrap();
        let b = r3.query(req(&q, 6, m3, db3)).unwrap();
        assert_eq!(
            a.top_k.iter().map(|h| h.global_index).collect::<Vec<_>>(),
            b.top_k.iter().map(|h| h.global_index).collect::<Vec<_>>()
        );
        // One replica serves each partition: no failovers, 4 scans.
        assert!(b.partitions.iter().all(|p| p.failovers == 0));
        assert_eq!(b.partitions.len(), 4);
    }

    #[test]
    fn cluster_latency_is_slowest_shard_not_sum() {
        // Large enough that streaming dominates the fixed costs: 2048
        // TextQA features = ~1.6 MB = ~100 pages.
        let model = zoo::textqa().seeded(4);
        let features: Vec<Tensor> = (0..2048).map(|i| model.random_feature(i)).collect();
        let graph = ModelGraph::from_model(&model);
        let mut single = DeepStoreCluster::new(1, DeepStoreConfig::small());
        let sdb = single.write_db(&features).unwrap();
        let smid = single.load_model(&graph).unwrap();
        let mut multi = DeepStoreCluster::new(4, DeepStoreConfig::small());
        let mdb = multi.write_db(&features).unwrap();
        let mmid = multi.load_model(&graph).unwrap();
        let q = model.random_feature(9999);
        let t1 = single.query(req(&q, 3, smid, sdb)).unwrap().elapsed;
        let t4 = multi.query(req(&q, 3, mmid, mdb)).unwrap().elapsed;
        // Four drives each scan a quarter of the data: faster than one.
        assert!(t4 < t1, "4-drive {t4} !< 1-drive {t1}");
    }

    #[test]
    fn global_indices_resolve_to_original_features() {
        let (mut c, model, db, mid) = cluster(3, 2);
        let q = model.random_feature(700);
        let r = c.query(req(&q, 6, mid, db)).unwrap();
        for h in &r.top_k {
            assert!(h.global_index < 60);
            // Contiguous chunking: global 0..20 → partition 0 (drive 0
            // serves, replica 0), 20..40 → partition 1, 40..60 → 2.
            assert_eq!(h.drive, (h.global_index / 20) as usize);
        }
        // All distinct.
        let mut idx: Vec<u64> = r.top_k.iter().map(|h| h.global_index).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 6);
    }

    #[test]
    fn appends_straddling_partition_boundaries_keep_global_indices_exact() {
        // Regression test for the old round-robin arithmetic
        // (global = local * n + drive): after an append the partition's
        // local space concatenates two disjoint global ranges, and only
        // extent metadata resolves it.
        let model = zoo::textqa().seeded_metric(4);
        let mut c = DeepStoreCluster::with_replication(3, 2, DeepStoreConfig::small());
        // 7 features → chunks of 3/2/2; the append of 5 more (global
        // 7..12) → chunks of 2/2/1 grafted onto each partition.
        let features: Vec<Tensor> = (0..7).map(|i| model.random_feature(i)).collect();
        let db = c.write_db(&features).unwrap();
        let appended: Vec<Tensor> = (7..12).map(|i| model.random_feature(i)).collect();
        c.append_db(db, &appended).unwrap();
        let mid = c.load_model(&ModelGraph::from_model(&model)).unwrap();
        assert_eq!(c.db_features(db).unwrap(), 12);
        // Every feature must be findable at its exact global index:
        // probe with duplicates of each write-order feature.
        for g in 0..12u64 {
            let q = model.random_feature(g);
            let r = c.query(req(&q, 1, mid, db)).unwrap();
            assert_eq!(
                r.top_k[0].global_index, g,
                "feature written at global index {g} resolved to {}",
                r.top_k[0].global_index
            );
        }
        // And the whole ranking matches a single-drive store of the
        // same write order.
        let mut one = DeepStoreCluster::new(1, DeepStoreConfig::small());
        let all: Vec<Tensor> = (0..12).map(|i| model.random_feature(i)).collect();
        let odb = one.write_db(&all).unwrap();
        let omid = one.load_model(&ModelGraph::from_model(&model)).unwrap();
        let q = model.random_feature(777);
        let a = one.query(req(&q, 12, omid, odb)).unwrap();
        let b = c.query(req(&q, 12, mid, db)).unwrap();
        assert_eq!(
            a.top_k.iter().map(|h| h.global_index).collect::<Vec<_>>(),
            b.top_k.iter().map(|h| h.global_index).collect::<Vec<_>>()
        );
    }

    #[test]
    fn dead_drive_fails_over_at_full_coverage_with_r2() {
        let (mut c, model, db, mid) = cluster(4, 2);
        let q = model.random_feature(23);
        let before = c.query(req(&q, 5, mid, db)).unwrap();
        c.kill_drive(1);
        let after = c.query(req(&q, 5, mid, db)).unwrap();
        assert_eq!(after.coverage, 1.0);
        assert!(!after.degraded);
        assert_eq!(
            before
                .top_k
                .iter()
                .map(|h| h.global_index)
                .collect::<Vec<_>>(),
            after
                .top_k
                .iter()
                .map(|h| h.global_index)
                .collect::<Vec<_>>()
        );
        // Partition 1's primary was drive 1; its surviving replica on
        // drive 2 served.
        let p1 = after.partitions[1];
        assert_eq!(p1.drive, Some(2));
        assert_eq!(p1.failovers, 1);
        assert!(c.is_down(1));
    }

    #[test]
    fn losing_all_replicas_degrades_honestly() {
        let (mut c, model, db, mid) = cluster(3, 1);
        c.kill_drive(0);
        let q = model.random_feature(5);
        let r = c.query(req(&q, 60, mid, db)).unwrap();
        // Partition 0 (global 0..20) had its only copy on drive 0.
        assert!(r.degraded);
        assert!((r.coverage - 40.0 / 60.0).abs() < 1e-12);
        assert!(r.top_k.iter().all(|h| h.global_index >= 20));
        assert_eq!(r.partitions[0].drive, None);
        assert_eq!(r.partitions[0].covered, 0);
    }

    #[test]
    fn rebalance_restores_replication_after_drive_loss() {
        let (mut c, model, db, mid) = cluster(4, 2);
        c.kill_drive(1);
        let report = c.rebalance().unwrap();
        // Drive 1 held replicas of partitions 0 and 1.
        assert_eq!(report.dropped_replicas, 2);
        assert_eq!(report.re_replicated, 2);
        assert_eq!(report.under_replicated, 2);
        assert_eq!(report.unrecoverable, 0);
        assert!(report.fully_replicated(2));
        assert!(report.moved_bytes > 0);
        // No replica lives on the dead drive, and no partition
        // co-locates two copies.
        for (p, count) in c.replication(db).unwrap().iter().enumerate() {
            assert_eq!(*count, 2, "partition {p}");
        }
        // Queries are whole again without touching drive 1.
        let q = model.random_feature(23);
        let r = c.query(req(&q, 5, mid, db)).unwrap();
        assert_eq!(r.coverage, 1.0);
        assert!(r.partitions.iter().all(|p| p.drive != Some(1)));
        // Telemetry saw the move.
        let snap = c.metrics_snapshot();
        assert_eq!(
            snap.counter("cluster.rebalance.moved_bytes"),
            Some(report.moved_bytes)
        );
        assert_eq!(snap.counter("cluster.rebalances"), Some(1));
    }

    #[test]
    fn rebalance_with_no_healthy_copy_reports_unrecoverable() {
        let (mut c, _, db, _) = cluster(3, 1);
        c.kill_drive(2);
        let report = c.rebalance().unwrap();
        assert_eq!(report.unrecoverable, 1);
        assert_eq!(report.min_replication, 0);
        assert!(!report.fully_replicated(1));
        assert_eq!(c.replication(db).unwrap()[2], 0);
    }

    #[test]
    fn bad_handles_are_rejected() {
        let (mut c, model, _, mid) = cluster(2, 1);
        let q = model.random_feature(0);
        assert!(c.query(req(&q, 1, mid, ClusterDbId(9))).is_err());
        let (mut c2, _, db2, _) = cluster(2, 1);
        assert!(c2.query(req(&q, 1, ClusterModelId(9), db2)).is_err());
        assert!(c2.append_db(ClusterDbId(9), &[]).is_err());
        assert!(c2.replication(ClusterDbId(9)).is_err());
    }

    #[test]
    fn too_few_features_for_sharding_is_error() {
        let model = zoo::textqa().seeded(1);
        let mut c = DeepStoreCluster::new(4, DeepStoreConfig::small());
        let features: Vec<Tensor> = (0..2).map(|i| model.random_feature(i)).collect();
        assert!(matches!(
            c.write_db(&features),
            Err(DeepStoreError::Flash(FlashError::SizeMismatch { .. }))
        ));
    }

    #[test]
    #[should_panic(expected = "at least one drive")]
    fn empty_cluster_panics() {
        let _ = DeepStoreCluster::new(0, DeepStoreConfig::small());
    }

    #[test]
    #[should_panic(expected = "without co-location")]
    fn over_replication_panics() {
        let _ = DeepStoreCluster::with_replication(2, 3, DeepStoreConfig::small());
    }

    #[test]
    fn replica_placement_never_co_locates() {
        let (c, _, db, _) = cluster(4, 3);
        for p in &c.dbs[db.0 as usize].partitions {
            let mut drives: Vec<usize> = p.replicas.iter().map(|r| r.drive).collect();
            drives.sort_unstable();
            drives.dedup();
            assert_eq!(drives.len(), 3);
        }
    }
}
