//! `ingest_restart`: the write path beside the reads. A persistent mmap
//! image holding 32 768 textqa features; an operation is one **durable
//! append** = `append_db` of 256 features (0.2 MB) + `flush()`; every
//! 5th operation first waits for a restart (`close()` ->
//! `DeepStore::open()`), counted in that operation's latency. After the
//! measured phase the workload appends once more *without* flush, drops
//! the store without `close`, reopens, and requires a dirty open, exactly
//! the acknowledged features byte for byte, and correct probe answers.

use std::path::{Path, PathBuf};

use deepstore_core::{DbId, DeepStore, ModelId};
use deepstore_nn::{zoo, Model, ModelGraph, Tensor};

use super::{image_config, store_probe, user_bytes};
use crate::harness::{closed_loop, verify_probes, Finish, Samples, Workload};
use crate::inputs::{self, Stream};
use crate::layers::ProbeData;
use crate::span::Recorder;
use crate::{spec, sys};

/// The workload.
pub struct IngestRestart;

/// Model, every feature the run writes (initial database first, then
/// the append chunks back to back, the last one for the crash check) and
/// the probes.
pub struct Inputs {
    seed: u64,
    model: Model,
    graph: ModelGraph,
    features: Vec<Tensor>,
    probes: Vec<Tensor>,
    queries: Vec<Tensor>,
}

impl Inputs {
    /// The features of durable append `chunk`.
    fn chunk(&self, chunk: usize) -> &[Tensor] {
        let start = (spec::INGEST_INITIAL + chunk as u64 * spec::INGEST_CHUNK) as usize;
        &self.features[start..start + spec::INGEST_CHUNK as usize]
    }
}

/// An open image and how much of the input it has acknowledged.
pub struct State {
    store: Option<DeepStore>,
    path: PathBuf,
    model: ModelId,
    db: DbId,
    /// Durable appends acknowledged (flushed) so far; also the index of
    /// the next operation.
    appended: usize,
}

impl Workload for IngestRestart {
    type Inputs = Inputs;
    type State = State;
    const WARMUP: usize = spec::INGEST_WARMUP;
    const MEASURED: usize = spec::INGEST_MEASURED;

    fn generate(seed: u64, measured: usize) -> Inputs {
        let model = inputs::model(zoo::textqa());
        let chunks = (Self::WARMUP + measured + 1) as u64;
        let total = spec::INGEST_INITIAL + chunks * spec::INGEST_CHUNK;
        Inputs {
            seed,
            graph: ModelGraph::from_model(&model),
            features: inputs::tensors(&model, seed, Stream::Features, 0, total),
            probes: inputs::tensors(&model, seed, Stream::Probes, 0, spec::INGEST_PROBES as u64),
            queries: inputs::tensors(&model, seed, Stream::Queries, 0, 64),
            model,
        }
    }

    fn setup(inputs: &Inputs, dir: &Path) -> State {
        let path = dir.join("ingest_restart.img");
        // A previous set-up of this run left its image behind.
        let _ = std::fs::remove_file(&path);
        let mut store = DeepStore::create(&path, image_config(0)).expect("create image");
        let db = store
            .write_db(&inputs.features[..spec::INGEST_INITIAL as usize])
            .expect("write_db");
        let model = store.load_model(&inputs.graph).expect("load_model");
        store.flush().expect("flush");
        State {
            store: Some(store),
            path,
            model,
            db,
            appended: 0,
        }
    }

    fn measure(state: &mut State, inputs: &Inputs, samples: usize, rec: &mut Recorder) -> Samples {
        closed_loop(samples, 1, |_| append_once(state, inputs, rec))
    }

    fn finish(mut state: State, inputs: &Inputs, _dir: &Path) -> Finish {
        let acknowledged = spec::INGEST_INITIAL + state.appended as u64 * spec::INGEST_CHUNK;
        let mut finish = Finish {
            stored_ratio: sys::allocated_bytes(&state.path) as f64
                / user_bytes(&inputs.model, acknowledged),
            ..Finish::default()
        };
        finish.notes.push(format!(
            "{} durable appends acknowledged, {acknowledged} features",
            state.appended
        ));

        // Crash: one more append that is never flushed, then the store is
        // dropped without `close`.
        let mut store = state.store.take().expect("store is open");
        finish.check(
            "unflushed append",
            store
                .append_db(state.db, inputs.chunk(state.appended))
                .map_err(|e| e.to_string()),
        );
        drop(store);
        let reopened = DeepStore::open(&state.path).map_err(|e| e.to_string());
        finish.check(
            "reopen after crash",
            reopened.as_ref().map(|_| ()).map_err(Clone::clone),
        );
        if let Ok(mut store) = reopened {
            finish.check(
                "dirty open",
                if store.opened_dirty() {
                    Ok(())
                } else {
                    Err("image reopened clean after a drop without close".into())
                },
            );
            finish.check(
                "acknowledged feature count",
                store
                    .probe_db(state.db)
                    .map_err(|e| e.to_string())
                    .and_then(|p| {
                        if p.readable == acknowledged && p.unreadable == 0 {
                            Ok(())
                        } else {
                            Err(format!("{p:?}, acknowledged {acknowledged}"))
                        }
                    }),
            );
            let durable = &inputs.features[..acknowledged as usize];
            finish.check(
                "byte-equal read_db",
                store
                    .read_db(state.db, 0, acknowledged)
                    .map_err(|e| e.to_string())
                    .and_then(|read| {
                        match read.iter().zip(durable).position(|(a, b)| !bit_equal(a, b)) {
                            None if read.len() == durable.len() => Ok(()),
                            None => Err(format!("read {} features", read.len())),
                            Some(i) => Err(format!("feature {i} differs from what was appended")),
                        }
                    }),
            );
            verify_probes(
                &mut finish,
                &inputs.model,
                &inputs.probes,
                durable,
                store_probe(&mut store, state.model, state.db),
            );
            finish.check("close", store.close().map_err(|e| e.to_string()));
        }
        finish
    }

    fn probe_data(inputs: &Inputs) -> ProbeData<'_> {
        ProbeData {
            seed: inputs.seed,
            model: &inputs.model,
            features: &inputs.features,
            queries: &inputs.queries,
        }
    }
}

fn bit_equal(a: &Tensor, b: &Tensor) -> bool {
    a.len() == b.len()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// One operation: a durable append; every 5th one first waits for a
/// restart of the device.
fn append_once(state: &mut State, inputs: &Inputs, rec: &mut Recorder) -> Result<(), String> {
    let index = state.appended;
    let op = index as u64;
    rec.enter("harness", "operation", op);
    let outcome = (|| {
        if index.is_multiple_of(spec::INGEST_RESTART_EVERY) {
            rec.enter("persist", "DeepStore::close", op);
            let closed = state.store.take().expect("store is open").close();
            rec.exit();
            closed.map_err(|e| e.to_string())?;
            rec.enter("persist", "DeepStore::open", op);
            let opened = DeepStore::open(&state.path);
            rec.exit();
            let store = opened.map_err(|e| e.to_string())?;
            if store.opened_dirty() {
                return Err("dirty open after a clean close".to_string());
            }
            state.store = Some(store);
        }
        let store = state
            .store
            .as_mut()
            .ok_or("store lost to a failed restart")?;
        rec.enter("engine", "DeepStore::append_db", op);
        let appended = store.append_db(state.db, inputs.chunk(index));
        rec.exit();
        appended.map_err(|e| e.to_string())?;
        rec.enter("persist", "DeepStore::flush", op);
        let flushed = store.flush();
        rec.exit();
        flushed.map_err(|e| e.to_string())
    })();
    rec.exit();
    if outcome.is_ok() {
        state.appended += 1;
    }
    outcome
}
