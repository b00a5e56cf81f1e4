//! `scan_textqa`: closed loop, one caller, `DeepStore::query` + `results`
//! on a persistent mmap image holding 120 000 textqa features (96 MB),
//! query cache off, cascade on. Light model, big database: flash page
//! reads, f32 decode and the int8 bound check do most of the work.

use std::path::{Path, PathBuf};

use deepstore_core::{DbId, DeepStore, ModelId, QueryRequest};
use deepstore_nn::zoo;

use super::{image_config, ranked, store_probe, user_bytes, QueryInputs};
use crate::harness::{closed_loop, verify_probes, Finish, Samples, Workload};
use crate::layers::ProbeData;
use crate::span::Recorder;
use crate::{reference, spec, sys};

/// The workload.
pub struct ScanTextqa;

/// A ready image-backed store.
pub struct State {
    store: DeepStore,
    path: PathBuf,
    model: ModelId,
    db: DbId,
    next: usize,
}

impl Workload for ScanTextqa {
    type Inputs = QueryInputs;
    type State = State;
    const WARMUP: usize = spec::SCAN_WARMUP;
    const MEASURED: usize = spec::SCAN_MEASURED;

    fn generate(seed: u64, measured: usize) -> QueryInputs {
        let queries = (Self::WARMUP + measured) as u64;
        QueryInputs::generate(zoo::textqa(), seed, spec::SCAN_FEATURES, queries)
    }

    fn setup(inputs: &QueryInputs, dir: &Path) -> State {
        let path = dir.join("scan_textqa.img");
        // A previous set-up of this run left its image behind.
        let _ = std::fs::remove_file(&path);
        let mut store = DeepStore::create(&path, image_config(0)).expect("create image");
        let db = store.write_db(&inputs.features).expect("write_db");
        let model = store.load_model(&inputs.graph).expect("load_model");
        store.flush().expect("flush");
        State {
            store,
            path,
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
        let mut finish = Finish {
            stored_ratio: sys::allocated_bytes(&state.path) as f64
                / user_bytes(&inputs.model, spec::SCAN_FEATURES),
            ..Finish::default()
        };
        verify_probes(
            &mut finish,
            &inputs.model,
            &inputs.probes,
            &inputs.features,
            store_probe(&mut state.store, state.model, state.db),
        );
        finish.check("close", state.store.close().map_err(|e| e.to_string()));
        finish
    }

    fn probe_data(inputs: &QueryInputs) -> ProbeData<'_> {
        inputs.probe_data()
    }
}

/// One operation: submit the next query, fetch and check its answer.
fn query_once(state: &mut State, inputs: &QueryInputs, rec: &mut Recorder) -> Result<(), String> {
    let op = state.next as u64;
    let qfv = inputs.queries[state.next % inputs.queries.len()].clone();
    state.next += 1;
    rec.enter("harness", "operation", op);
    rec.enter("api", "DeepStore::query", op);
    let id = state
        .store
        .query(QueryRequest::new(qfv, state.model, state.db).k(spec::K));
    rec.exit();
    rec.enter("api", "DeepStore::results", op);
    let result = id.and_then(|id| state.store.results(id));
    rec.exit();
    rec.exit();
    let r = result.map_err(|e| e.to_string())?;
    if r.cache_hit {
        return Err("cache hit with the query cache off".into());
    }
    reference::check_shape(&ranked(&r.top_k), spec::K, r.coverage, spec::SCAN_FEATURES)
}
