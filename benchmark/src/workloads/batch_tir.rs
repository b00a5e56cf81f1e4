//! `batch_tir`: closed loop, one caller, `DeepStore::query_batch` of 8
//! distinct queries per call on the heap backend over 1 024 tir features
//! (2 MB, cache-resident on purpose), query cache off. 0.79 MFLOP per
//! comparison behind a non-foldable ReLU stack: the fused multi-query
//! kernels do nearly all the work. A batch completes 8 operations that
//! share its latency.

use std::path::Path;

use deepstore_core::{DbId, DeepStore, ModelId, QueryRequest};
use deepstore_nn::zoo;

use super::{device_config, ranked, store_probe, user_bytes, QueryInputs};
use crate::harness::{closed_loop, verify_probes, Finish, Samples, Workload};
use crate::layers::ProbeData;
use crate::span::Recorder;
use crate::{reference, spec};

/// The workload.
pub struct BatchTir;

/// A ready heap-backed store.
pub struct State {
    store: DeepStore,
    model: ModelId,
    db: DbId,
    next: usize,
}

impl Workload for BatchTir {
    type Inputs = QueryInputs;
    type State = State;
    const WARMUP: usize = spec::BATCH_WARMUP;
    const MEASURED: usize = spec::BATCH_MEASURED;

    fn generate(seed: u64, measured: usize) -> QueryInputs {
        let queries = ((Self::WARMUP + measured) * spec::BATCH_SIZE) as u64;
        QueryInputs::generate(zoo::tir(), seed, spec::BATCH_FEATURES, queries)
    }

    fn setup(inputs: &QueryInputs, _dir: &Path) -> State {
        let mut store = DeepStore::in_memory(device_config(0));
        let db = store.write_db(&inputs.features).expect("write_db");
        let model = store.load_model(&inputs.graph).expect("load_model");
        State {
            store,
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
        closed_loop(samples, spec::BATCH_SIZE as u64, |_| {
            batch_once(state, inputs, rec)
        })
    }

    fn finish(mut state: State, inputs: &QueryInputs, _dir: &Path) -> Finish {
        let page_bytes = state.store.config().ssd.geometry.page_bytes as u64;
        let mut finish = Finish {
            stored_ratio: (state.store.flash_op_counts().programs * page_bytes) as f64
                / user_bytes(&inputs.model, spec::BATCH_FEATURES),
            ..Finish::default()
        };
        verify_probes(
            &mut finish,
            &inputs.model,
            &inputs.probes,
            &inputs.features,
            store_probe(&mut state.store, state.model, state.db),
        );
        finish
    }

    fn probe_data(inputs: &QueryInputs) -> ProbeData<'_> {
        inputs.probe_data()
    }
}

/// One sample: a batch of 8 distinct queries, every answer fetched and
/// checked.
fn batch_once(state: &mut State, inputs: &QueryInputs, rec: &mut Recorder) -> Result<(), String> {
    let op = state.next as u64;
    let requests: Vec<QueryRequest> = (0..spec::BATCH_SIZE)
        .map(|j| {
            let q = (state.next * spec::BATCH_SIZE + j) % inputs.queries.len();
            QueryRequest::new(inputs.queries[q].clone(), state.model, state.db).k(spec::K)
        })
        .collect();
    state.next += 1;
    rec.enter("harness", "operation", op);
    rec.enter("api", "DeepStore::query_batch", op);
    let ids = state.store.query_batch(&requests);
    rec.exit();
    rec.enter("api", "DeepStore::results", op);
    let results = ids.and_then(|ids| {
        ids.into_iter()
            .map(|id| state.store.results(id))
            .collect::<Result<Vec<_>, _>>()
    });
    rec.exit();
    rec.exit();
    let results = results.map_err(|e| e.to_string())?;
    if results.len() != spec::BATCH_SIZE {
        return Err(format!("{} answers to a batch of 8", results.len()));
    }
    results.iter().try_for_each(|r| {
        reference::check_shape(&ranked(&r.top_k), spec::K, r.coverage, spec::BATCH_FEATURES)
    })
}
