//! `serve_zipf`: closed loop, 2 client connections over the in-process
//! channel transport into `serve()` with `ServeConfig::default()`, each
//! `HostClient::query` -> `get_results`; heap backend, 4 096 textqa
//! features, query cache on at capacity 1000, queries from a Zipf
//! (alpha 0.7) stream over a 256-query pool with 20% noisy duplicates.
//! The scan is short and most lookups hit, so the wire protocol,
//! admission/coalescing and the query cache set p50 while misses set
//! the tail.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use deepstore_core::proto::HostClient;
use deepstore_core::serve::{channel_transport, serve, ChannelClient, ChannelConnector};
use deepstore_core::{AcceleratorLevel, DbId, DeepStore, ModelId, ServeConfig, ServerHandle};
use deepstore_nn::{zoo, Model, ModelGraph, Tensor};
use deepstore_workloads::loadgen::Offered;

use super::{device_config, ranked, store_probe, user_bytes};
use crate::harness::{verify_probes, Finish, Samples, Workload};
use crate::inputs::{self, Stream};
use crate::layers::ProbeData;
use crate::span::Recorder;
use crate::{reference, spec, sys};

/// The workload.
pub struct ServeZipf;

/// Model, database, the planned query stream and the probes.
pub struct Inputs {
    seed: u64,
    model: Model,
    graph: ModelGraph,
    features: Vec<Tensor>,
    plan: Vec<Offered>,
    probes: Vec<Tensor>,
    /// The plan's query vectors, for the layer probes.
    queries: Vec<Tensor>,
}

/// A running server with its connected clients.
pub struct State {
    // Dropped in this order: the clients hang up before the server stops.
    clients: Vec<HostClient<ChannelClient>>,
    _connector: ChannelConnector,
    handle: ServerHandle,
    model: ModelId,
    db: DbId,
    next: usize,
}

impl Workload for ServeZipf {
    type Inputs = Inputs;
    type State = State;
    const WARMUP: usize = spec::SERVE_WARMUP;
    const MEASURED: usize = spec::SERVE_MEASURED;

    fn generate(seed: u64, measured: usize) -> Inputs {
        let model = inputs::model(zoo::textqa());
        let planned = Self::WARMUP + measured;
        let plan = inputs::zipf_plan(&model, seed, planned, spec::OPEN_LOOP_QPS);
        Inputs {
            seed,
            graph: ModelGraph::from_model(&model),
            features: inputs::tensors(&model, seed, Stream::Features, 0, spec::SERVE_FEATURES),
            probes: inputs::tensors(&model, seed, Stream::Probes, 0, spec::PROBES as u64),
            queries: plan.iter().take(1024).map(|o| o.qfv.clone()).collect(),
            plan,
            model,
        }
    }

    fn setup(inputs: &Inputs, _dir: &Path) -> State {
        let mut store = DeepStore::in_memory(device_config(spec::SERVE_QC_CAPACITY));
        let db = store.write_db(&inputs.features).expect("write_db");
        let model = store.load_model(&inputs.graph).expect("load_model");
        let (transport, connector) = channel_transport();
        let handle = serve(transport, store, ServeConfig::default());
        let clients = (0..spec::SERVE_CONNECTIONS)
            .map(|_| HostClient::over(connector.connect().expect("connect")))
            .collect();
        State {
            handle,
            _connector: connector,
            clients,
            model,
            db,
            next: 0,
        }
    }

    fn measure(state: &mut State, inputs: &Inputs, samples: usize, rec: &mut Recorder) -> Samples {
        run_clients(state, inputs, samples, rec)
    }

    fn finish(state: State, inputs: &Inputs, _dir: &Path) -> Finish {
        drop(state.clients);
        let (mut store, stats) = state.handle.shutdown();
        let page_bytes = store.config().ssd.geometry.page_bytes as u64;
        let mut finish = Finish {
            stored_ratio: (store.flash_op_counts().programs * page_bytes) as f64
                / user_bytes(&inputs.model, spec::SERVE_FEATURES),
            ..Finish::default()
        };
        let device = store.stats();
        finish.notes.push(format!(
            "server: {} queries admitted, {} engine passes, {} coalesced, {} rejected; cache hit share {:.4}",
            stats.queries_admitted,
            stats.engine_batches,
            stats.coalesced_queries,
            stats.rejected_overloaded + stats.rejected_quota,
            device.cache_hits as f64 / device.queries.max(1) as f64
        ));
        // A cache hit legitimately returns a neighbour's answer, so the
        // probes run with the cache off.
        store.disable_qc();
        verify_probes(
            &mut finish,
            &inputs.model,
            &inputs.probes,
            &inputs.features,
            store_probe(&mut store, state.model, state.db),
        );
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

/// Runs every client connection on its own thread, each taking the next
/// unissued query of the plan until `samples` more have been issued.
fn run_clients(state: &mut State, inputs: &Inputs, samples: usize, rec: &mut Recorder) -> Samples {
    let next = AtomicUsize::new(state.next);
    let last = state.next + samples;
    assert!(
        last <= inputs.plan.len(),
        "the plan is shorter than the run"
    );
    let (model, db) = (state.model, state.db);
    let cpu0 = sys::process_cpu_s();
    let start = Instant::now();
    let parts: Vec<(Samples, Recorder)> = std::thread::scope(|scope| {
        let handles: Vec<_> = state
            .clients
            .iter_mut()
            .enumerate()
            .map(|(lane, client)| {
                let mut rec = rec.sibling(lane as u32 + 1);
                let next = &next;
                scope.spawn(move || {
                    let mut s = Samples::default();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= last {
                            break;
                        }
                        let t = Instant::now();
                        let outcome =
                            query_once(client, &inputs.plan[i].qfv, model, db, i, &mut rec);
                        s.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        s.attempted += 1;
                        if let Err(why) = outcome {
                            s.fail(1, why);
                        }
                    }
                    (s, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut total = Samples {
        ops_per_sample: 1,
        ..Samples::default()
    };
    for (s, r) in parts {
        total.merge(s);
        rec.absorb(r);
    }
    total.wall_s = start.elapsed().as_secs_f64();
    total.cpu_s = sys::process_cpu_s() - cpu0;
    state.next = last;
    total
}

/// One operation: `query` then `get_results` over the wire, the answer
/// matched to its request and checked.
fn query_once(
    client: &mut HostClient<ChannelClient>,
    qfv: &Tensor,
    model: ModelId,
    db: DbId,
    index: usize,
    rec: &mut Recorder,
) -> Result<(), String> {
    let op = index as u64;
    rec.enter("harness", "operation", op);
    rec.enter("serve", "HostClient::query", op);
    let id = client.query(qfv, spec::K, model, db, AcceleratorLevel::Channel, false);
    rec.exit();
    rec.enter("serve", "HostClient::get_results", op);
    let result = id.and_then(|id| client.get_results(id).map(|r| (id, r)));
    rec.exit();
    rec.exit();
    let (id, r) = result.map_err(|e| e.to_string())?;
    if r.query_id != id {
        return Err(format!("answer for {:?} to request {id:?}", r.query_id));
    }
    reference::check_shape(&ranked(&r.top_k), spec::K, r.coverage, spec::SERVE_FEATURES)
}
