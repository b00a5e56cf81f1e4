//! The five workloads. Each is a [`crate::harness::Workload`]: inputs
//! made from the seed, a repeatable set-up, a closed-loop measured phase
//! whose every answer is checked, and a final probe verification.

pub mod batch_tir;
pub mod cluster_scatter;
pub mod ingest_restart;
pub mod scan_textqa;
pub mod serve_zipf;

use deepstore_core::{DbId, DeepStore, DeepStoreConfig, ModelId, QueryHit, QueryRequest};
use deepstore_flash::SsdGeometry;
use deepstore_nn::{Model, ModelGraph, Tensor};

use crate::harness::ProbeAnswer;
use crate::inputs::{self, Stream};
use crate::layers::ProbeData;
use crate::reference::Ranked;
use crate::spec;

/// `paper_default()` geometry, engine parallelism 1, query cache sized
/// as given (0 = off).
pub fn device_config(qc_capacity: usize) -> DeepStoreConfig {
    let mut cfg = DeepStoreConfig::paper_default();
    cfg.parallelism = 1;
    cfg.qc_capacity = qc_capacity;
    cfg
}

/// [`device_config`] for a drive kept in an image file: the paper's
/// channels, chips, planes and page size with fewer, shorter blocks, so
/// that the file is 128 MiB long and not the paper drive's 1 TiB (sparse,
/// but `RLIMIT_FSIZE` counts length: the driver's limit kills the
/// process with `SIGXFSZ` when the image is created).
pub fn image_config(qc_capacity: usize) -> DeepStoreConfig {
    let mut cfg = device_config(qc_capacity);
    cfg.ssd.geometry = image_geometry();
    cfg
}

/// The geometry of [`image_config`].
pub fn image_geometry() -> SsdGeometry {
    SsdGeometry {
        blocks_per_plane: spec::IMAGE_BLOCKS_PER_PLANE,
        pages_per_block: spec::IMAGE_PAGES_PER_BLOCK,
        ..SsdGeometry::paper_default()
    }
}

/// A program answer in the reference's terms.
pub fn ranked(hits: &[QueryHit]) -> Vec<Ranked> {
    hits.iter().map(|h| (h.score, h.feature_index)).collect()
}

/// Answers a probe on a single drive: the query cache must be off, so
/// the answer is the scan's own.
pub fn store_probe(
    store: &mut DeepStore,
    model: ModelId,
    db: DbId,
) -> impl FnMut(&Tensor, bool) -> Result<ProbeAnswer, String> + '_ {
    move |probe, exact| {
        let mut req = QueryRequest::new(probe.clone(), model, db).k(spec::K);
        if exact {
            req = req.exact();
        }
        let id = store.query(req).map_err(|e| e.to_string())?;
        let r = store.results(id).map_err(|e| e.to_string())?;
        Ok((ranked(&r.top_k), r.coverage, r.elapsed.as_nanos()))
    }
}

/// Bytes of user feature data in `n` features of `model`.
pub fn user_bytes(model: &Model, n: u64) -> f64 {
    (n * model.feature_bytes() as u64) as f64
}

/// Inputs of a query-only workload: one model, one database, a pool of
/// measured-phase queries (reused round-robin: the query cache is off or
/// the stream is long enough) and the fixed probes.
pub struct QueryInputs {
    /// The seed the inputs came from (for seed-derived probe streams).
    pub seed: u64,
    /// The similarity model with seed-derived weights.
    pub model: Model,
    /// The model as shipped to `load_model`.
    pub graph: ModelGraph,
    /// The harness's own copy of the database.
    pub features: Vec<Tensor>,
    /// Measured-phase queries.
    pub queries: Vec<Tensor>,
    /// Probe queries verified against the brute-force reference.
    pub probes: Vec<Tensor>,
}

impl QueryInputs {
    /// Generates a database of `features` features and `queries` queries
    /// for the zoo architecture `base`.
    pub fn generate(base: Model, seed: u64, features: u64, queries: u64) -> Self {
        let model = inputs::model(base);
        QueryInputs {
            seed,
            graph: ModelGraph::from_model(&model),
            features: inputs::tensors(&model, seed, Stream::Features, 0, features),
            queries: inputs::tensors(&model, seed, Stream::Queries, 0, queries),
            probes: inputs::tensors(&model, seed, Stream::Probes, 0, spec::PROBES as u64),
            model,
        }
    }

    /// The data the layer probes replay.
    pub fn probe_data(&self) -> ProbeData<'_> {
        ProbeData {
            seed: self.seed,
            model: &self.model,
            features: &self.features,
            queries: &self.queries,
        }
    }
}
