//! Helpers the integration suites share, each written once: the page
//! store as a test argument ([`Backend`]) with its store, engine and
//! cluster builders; a temp-path guard; the chaos seed recorder; a
//! sealed-engine builder; and the single-device ranking reference.
//!
//! A suite pulls this in with `mod common;`. No suite uses every
//! helper, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use deepstore::core::engine::{DbId, Engine};
use deepstore::core::{DeepStore, DeepStoreCluster, DeepStoreConfig, QueryRequest};
use deepstore::flash::MmapStore;
use deepstore::nn::{zoo, Model, ModelGraph, Tensor};
use proptest::prelude::*;

/// Ranked hits reduced to exactly comparable bits: `(index, score bits)`.
pub type Ranked = Vec<(u64, u32)>;

/// The page store a device's payloads live in. Tests name it as an
/// argument; properties draw it with [`backends`] as their last
/// argument, after every draw that shapes the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Page payloads on the heap, gone with the process.
    Heap,
    /// Page payloads in a single-file mmap image, unlinked as soon as
    /// it is mapped: the mapping keeps it alive and nothing is left
    /// behind.
    Mmap,
}

impl Backend {
    /// Both page stores, for plain tests that loop over the axis.
    pub const ALL: [Backend; 2] = [Backend::Heap, Backend::Mmap];

    /// A device over this page store.
    pub fn store(self, cfg: DeepStoreConfig) -> DeepStore {
        let store = match self {
            Backend::Heap => DeepStore::in_memory(cfg),
            Backend::Mmap => DeepStore::create(TempPath::new("store"), cfg).expect("create image"),
        };
        self.assert_is(store.backend(), store.is_persistent());
        store
    }

    /// A bare engine over this page store.
    pub fn engine(self, cfg: DeepStoreConfig) -> Engine {
        let engine = match self {
            Backend::Heap => Engine::new(cfg),
            Backend::Mmap => {
                let image = MmapStore::create(&TempPath::new("engine"), cfg.ssd.geometry)
                    .expect("create image");
                Engine::with_store(cfg, Box::new(image))
            }
        };
        self.assert_is(engine.backend(), engine.is_persistent());
        engine
    }

    /// An `n`-drive, `r`-way replicated cluster whose drives all use
    /// this page store. An mmap cluster's image directory is removed
    /// once its drives are mapped, so it cannot `flush` its layout
    /// manifest; durability tests build their own with a [`TempPath`].
    pub fn cluster(self, n: usize, r: usize, cfg: DeepStoreConfig) -> DeepStoreCluster {
        let cluster = match self {
            Backend::Heap => DeepStoreCluster::with_replication(n, r, cfg),
            Backend::Mmap => {
                DeepStoreCluster::create_persistent(TempPath::new("cluster"), n, r, cfg)
                    .expect("create cluster images")
            }
        };
        self.assert_is(cluster.backend(), cluster.is_persistent());
        cluster
    }

    /// Fails the test if a builder fell back to another page store.
    fn assert_is(self, backend: &str, persistent: bool) {
        let (name, durable) = match self {
            Backend::Heap => ("heap", false),
            Backend::Mmap => ("mmap", true),
        };
        assert_eq!(backend, name, "asked for the {self:?} page store");
        assert_eq!(persistent, durable, "{self:?} page store persistence");
    }
}

/// A property's page-store draw: heap or mmap, one `u64` from the case
/// generator.
pub fn backends() -> impl Strategy<Value = Backend> {
    any::<bool>().prop_map(|mmap| if mmap { Backend::Mmap } else { Backend::Heap })
}

/// A unique path under the system temp directory, removed (as a file
/// or a directory tree) when the guard drops. Unique per process and
/// call, with no clock or RNG.
#[derive(Debug)]
pub struct TempPath(PathBuf);

impl TempPath {
    /// A fresh path tagged `tag`; nothing is created on disk.
    pub fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        TempPath(std::env::temp_dir().join(format!(
            "deepstore-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        )))
    }
}

impl AsRef<Path> for TempPath {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl std::ops::Deref for TempPath {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Early-return check used by chaos case runners, so that a violated
/// invariant reports the whole scenario instead of panicking mid-case.
#[allow(unused_macros)]
macro_rules! check {
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err(format!($($fmt)*));
        }
    };
}
#[allow(unused_imports)]
pub(crate) use check;

/// Where failing chaos scenarios are recorded: `target/chaos-seeds/`.
pub fn chaos_seed_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    PathBuf::from(target).join("chaos-seeds")
}

/// Appends the failing scenario to `target/chaos-seeds/<property>.txt`
/// so CI can upload it as an artifact. The proptest shim has no
/// shrinking, so the recorded scenario (already small by construction)
/// is the reproduction recipe.
pub fn record_failing_case(property: &str, case: &str, msg: &str) {
    use std::io::Write;
    let dir = chaos_seed_dir();
    std::fs::create_dir_all(&dir).ok();
    let path = dir.join(format!("{property}.txt"));
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = writeln!(f, "== failing case ==\n{case}\n-- violation --\n{msg}\n");
    }
}

/// Runs `case`, recording the scenario to the seed directory on either
/// an invariant violation or a panic, then failing the test.
pub fn run_recorded(property: &str, case_desc: &str, case: impl FnOnce() -> Result<(), String>) {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(case)) {
        Ok(Ok(())) => {}
        Ok(Err(msg)) => {
            record_failing_case(property, case_desc, &msg);
            panic!("{property}: {msg}\n(scenario recorded under target/chaos-seeds/)");
        }
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            record_failing_case(property, case_desc, &format!("panic: {msg}"));
            std::panic::resume_unwind(payload);
        }
    }
}

/// A sealed engine over `backend` holding `n` random features of
/// `app`'s model.
pub fn engine_with(
    app: &str,
    model_seed: u64,
    n: u64,
    parallelism: usize,
    backend: Backend,
) -> (Engine, Model, DbId) {
    let model = zoo::by_name(app)
        .expect("known app")
        .seeded_metric(model_seed);
    let mut engine = backend.engine(DeepStoreConfig::small().with_parallelism(parallelism));
    let features: Vec<Tensor> = (0..n).map(|i| model.random_feature(i)).collect();
    let db = engine.write_db(&features).unwrap();
    engine.seal_db(db).unwrap();
    (engine, model, db)
}

/// The reference a cluster must equal bit for bit: one heap drive
/// holding `written` then `appended` (in that order) answers each probe
/// with the request `shape` makes of it.
pub fn single_device_ranking(
    cfg: DeepStoreConfig,
    model: &Model,
    (written, appended): (&[Tensor], &[Tensor]),
    probes: &[Tensor],
    shape: impl Fn(QueryRequest) -> QueryRequest,
) -> Vec<Ranked> {
    let mut store = DeepStore::in_memory(cfg);
    store.disable_qc();
    let db = store.write_db(written).expect("write db");
    store.append_db(db, appended).expect("append db");
    let mid = store
        .load_model(&ModelGraph::from_model(model))
        .expect("load model");
    probes
        .iter()
        .map(|probe| {
            let qid = store
                .query(shape(QueryRequest::new(probe.clone(), mid, db)))
                .expect("reference query");
            store
                .results(qid)
                .expect("reference result")
                .top_k
                .iter()
                .map(|h| (h.feature_index, h.score.to_bits()))
                .collect()
        })
        .collect()
}
