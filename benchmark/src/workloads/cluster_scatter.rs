//! `cluster_scatter`: closed loop, one caller,
//! `DeepStoreCluster::with_replication(4, 2, ..)::query` on the heap
//! backend over the same 120 000 textqa features as `scan_textqa`, all
//! drives healthy. Same scan work behind scatter / failover checks /
//! merge, so the cluster layer's overhead shows here and nowhere else.

use std::path::Path;

use deepstore_core::{
    AcceleratorLevel, ClusterDbId, ClusterHit, ClusterModelId, ClusterQueryRequest,
    DeepStoreCluster,
};
use deepstore_nn::{zoo, Tensor};

use super::{device_config, user_bytes, QueryInputs};
use crate::harness::{closed_loop, verify_probes, Finish, Samples, Workload};
use crate::layers::ProbeData;
use crate::reference::{self, Ranked};
use crate::span::Recorder;
use crate::spec;

/// The workload.
pub struct ClusterScatter;

/// A ready cluster.
pub struct State {
    cluster: DeepStoreCluster,
    model: ClusterModelId,
    db: ClusterDbId,
    next: usize,
}

/// Cluster hits in the reference's terms (global feature indices).
pub fn ranked_global(hits: &[ClusterHit]) -> Vec<Ranked> {
    hits.iter().map(|h| (h.hit.score, h.global_index)).collect()
}

/// A cluster query at the channel level, like every single-drive query.
pub fn request(
    qfv: &Tensor,
    model: ClusterModelId,
    db: ClusterDbId,
    exact: bool,
) -> ClusterQueryRequest {
    ClusterQueryRequest::new(qfv.clone(), model, db)
        .k(spec::K)
        .level(AcceleratorLevel::Channel)
        .exact(exact)
}

impl Workload for ClusterScatter {
    type Inputs = QueryInputs;
    type State = State;
    const WARMUP: usize = spec::SCAN_WARMUP;
    const MEASURED: usize = spec::CLUSTER_MEASURED;

    fn generate(seed: u64, measured: usize) -> QueryInputs {
        let queries = (Self::WARMUP + measured) as u64;
        QueryInputs::generate(zoo::textqa(), seed, spec::SCAN_FEATURES, queries)
    }

    fn setup(inputs: &QueryInputs, _dir: &Path) -> State {
        let mut cluster = DeepStoreCluster::with_replication(
            spec::CLUSTER_DRIVES,
            spec::CLUSTER_REPLICAS,
            device_config(0),
        );
        let db = cluster.write_db(&inputs.features).expect("write_db");
        let model = cluster.load_model(&inputs.graph).expect("load_model");
        State {
            cluster,
            model,
            db,
            next: 0,
        }
    }

    fn measure(
        state: &mut State,
        inputs: &QueryInputs,
        samples: usize,
        rec: &mut Recorder,
    ) -> Samples {
        closed_loop(samples, 1, |_| query_once(state, inputs, rec))
    }

    fn finish(mut state: State, inputs: &QueryInputs, _dir: &Path) -> Finish {
        let mut finish = Finish::default();
        let (model, db) = (state.model, state.db);
        let mut partition_features: Vec<u64> = Vec::new();
        verify_probes(
            &mut finish,
            &inputs.model,
            &inputs.probes,
            &inputs.features,
            |probe, exact| {
                let r = state
                    .cluster
                    .query(request(probe, model, db, exact))
                    .map_err(|e| e.to_string())?;
                partition_features = r.partitions.iter().map(|p| p.covered).collect();
                Ok((ranked_global(&r.top_k), r.coverage, r.elapsed.as_nanos()))
            },
        );
        // The cluster API exposes no per-drive flash counters, so stored
        // bytes come from the layout the program reports: every replica
        // of every partition, in whole pages.
        let page_bytes = device_config(0).ssd.geometry.page_bytes as u64;
        let feature_bytes = inputs.model.feature_bytes() as u64;
        let replicas = state.cluster.replication(db).unwrap_or_default();
        let stored: u64 = partition_features
            .iter()
            .zip(&replicas)
            .map(|(&n, &r)| (n * feature_bytes).div_ceil(page_bytes) * page_bytes * r as u64)
            .sum();
        finish.stored_ratio = stored as f64 / user_bytes(&inputs.model, spec::SCAN_FEATURES);
        finish.notes.push(format!(
            "cluster: {} drives, replicas per partition {replicas:?}, features per partition {partition_features:?}; stored_bytes_per_user_byte is computed from this layout, not measured",
            state.cluster.drives()
        ));
        finish
    }

    fn probe_data(inputs: &QueryInputs) -> ProbeData<'_> {
        inputs.probe_data()
    }
}

/// One operation: a scatter-gather query, its answer checked.
fn query_once(state: &mut State, inputs: &QueryInputs, rec: &mut Recorder) -> Result<(), String> {
    let op = state.next as u64;
    let qfv = &inputs.queries[state.next % inputs.queries.len()];
    state.next += 1;
    rec.enter("harness", "operation", op);
    rec.enter("cluster", "DeepStoreCluster::query", op);
    let result = state
        .cluster
        .query(request(qfv, state.model, state.db, false));
    rec.exit();
    rec.exit();
    let r = result.map_err(|e| e.to_string())?;
    if r.partitions.len() != spec::CLUSTER_DRIVES || r.partitions.iter().any(|p| p.failovers > 0) {
        return Err(format!("unexpected routing {:?}", r.partitions));
    }
    reference::check_shape(
        &ranked_global(&r.top_k),
        spec::K,
        r.coverage,
        spec::SCAN_FEATURES,
    )
}
