//! The host↔device command protocol.
//!
//! The Table 2 APIs "internally use new NVMe commands to interact with the
//! query engine" (§4.7.2). This module defines that command set as framed,
//! serialized messages: a fixed header (magic, version, opcode, payload
//! length) followed by a JSON payload — the vendor-specific-command shape
//! an NVMe driver would carry in practice. [`Device`] is the in-storage
//! endpoint that parses command frames and dispatches to the
//! [`DeepStore`] engine; [`HostClient`] is the host-side convenience
//! wrapper that speaks bytes to a device.
//!
//! A command that fails answers [`Response::Error`], which carries the
//! [`DeepStoreError`] itself: a host on the wire gets back the very
//! value the local API returns for the same call, and a serving front
//! end's admission rejections are two of its variants
//! ([`DeepStoreError::Overloaded`], [`DeepStoreError::QuotaExceeded`]).
//!
//! # Example
//!
//! ```
//! use deepstore_core::proto::{Device, HostClient};
//! use deepstore_core::{AcceleratorLevel, DeepStoreConfig};
//! use deepstore_nn::{zoo, ModelGraph};
//!
//! let mut device = Device::new(DeepStoreConfig::small());
//! let mut host = HostClient::new(&mut device);
//! let model = zoo::textqa().seeded(1);
//! let db = host.write_db(&(0..16).map(|i| model.random_feature(i)).collect::<Vec<_>>()).unwrap();
//! let mid = host.load_model(&ModelGraph::from_model(&model)).unwrap();
//! let qid = host.query(&model.random_feature(99), 3, mid, db, AcceleratorLevel::Channel, false).unwrap();
//! let results = host.get_results(qid).unwrap();
//! assert_eq!(results.top_k.len(), 3);
//! ```

use crate::api::{DeepStore, ModelId, QueryId, QueryRequest, QueryResult};
use crate::config::{AcceleratorLevel, DeepStoreConfig};
use crate::engine::DbId;
use crate::error::DeepStoreError;
use crate::qcache::QueryCacheConfig;
use crate::telemetry::DeviceStats;
use deepstore_nn::{ModelGraph, Tensor};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::io::{Read, Write};

/// Protocol magic ("DSTR").
pub const MAGIC: [u8; 4] = *b"DSTR";
/// Protocol version carried in every frame header.
pub const VERSION: u8 = 1;
/// Application-level protocol version negotiated by the `hello`
/// handshake ([`Command::Hello`]/[`Response::HelloAck`]). Independent of
/// the frame-header [`VERSION`]: the header byte gates frame *parsing*,
/// this gates command *semantics*. A peer announcing a different value
/// is rejected with [`DeepStoreError::VersionMismatch`].
///
/// Version 3 made error frames carry [`DeepStoreError`] as is: flash
/// errors travel structured instead of as text, and admission
/// rejections became error frames, so a version-2 peer would misparse
/// them.
pub const PROTOCOL_VERSION: u32 = 3;
/// Frame header length: magic(4) + version(1) + opcode(1) + len(4).
pub const HEADER_LEN: usize = 10;
/// Largest payload a peer may declare. A stream reader that trusted the
/// length prefix verbatim could be made to allocate 4 GiB by a single
/// corrupt header; anything above this cap is rejected as
/// [`ProtoError::FrameTooLarge`] before allocation.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Errors produced by the protocol layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoError {
    /// The frame was shorter than its header or declared length.
    Truncated,
    /// Bad magic bytes.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown opcode byte.
    UnknownOpcode(u8),
    /// The payload failed to deserialize, or bytes follow it past the
    /// length its header declared.
    BadPayload(String),
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared payload length.
        len: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// The peer disconnected: at a frame boundary after a request was
    /// sent, or mid-frame at any time.
    ConnectionClosed,
    /// A transport-level I/O failure.
    Io(String),
    /// The device rejected the command with the error the local API
    /// returns for it.
    Device(DeepStoreError),
}

impl ProtoError {
    /// The structured device-side error, when this is a device
    /// rejection. Lets callers that think in engine terms (load
    /// generators, retry loops) recover a [`DeepStoreError`] from a
    /// wire-level failure.
    pub fn device_error(&self) -> Option<DeepStoreError> {
        match self {
            ProtoError::Device(e) => Some(e.clone()),
            _ => None,
        }
    }

    /// Whether this is an admission-control rejection (overload or
    /// quota) — transient by design, safe to retry after backoff.
    pub fn is_rejection(&self) -> bool {
        matches!(
            self,
            ProtoError::Device(
                DeepStoreError::Overloaded { .. } | DeepStoreError::QuotaExceeded { .. }
            )
        )
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadMagic => write!(f, "bad magic"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#x}"),
            ProtoError::BadPayload(e) => write!(f, "bad payload: {e}"),
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            ProtoError::ConnectionClosed => write!(f, "connection closed"),
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// Host→device commands (the Table 2 call set).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Command {
    /// `writeDB`: create a database from feature vectors.
    WriteDb {
        /// The features to persist.
        features: Vec<Tensor>,
    },
    /// `appendDB`: extend an existing database.
    AppendDb {
        /// Target database.
        db: DbId,
        /// Features to append.
        features: Vec<Tensor>,
    },
    /// `readDB`: read a feature range back.
    ReadDb {
        /// Source database.
        db: DbId,
        /// First feature index.
        start: u64,
        /// Feature count.
        num: u64,
    },
    /// `loadModel`: register a serialized model graph.
    LoadModel {
        /// The ONNX-like graph bytes (see
        /// [`ModelGraph::to_bytes`]).
        graph: Vec<u8>,
    },
    /// `setQC`: configure the query cache.
    SetQc {
        /// New cache configuration.
        config: QueryCacheConfig,
    },
    /// `query`: submit a query feature vector.
    Query {
        /// Query feature vector.
        qfv: Tensor,
        /// Results to retrieve.
        k: usize,
        /// Registered model.
        model: ModelId,
        /// Target database.
        db: DbId,
        /// Accelerator level to use (`accel_level`).
        level: AcceleratorLevel,
        /// Bypass the pruning cascade (score every feature exactly).
        /// The cascade is bit-identical to the exact path, so this only
        /// trades compute for nothing — it exists as a measurement and
        /// escape-hatch knob.
        exact: bool,
        /// End-to-end trace id. 0 means "unassigned": the serving front
        /// end assigns a fresh id at admission and echoes it in
        /// [`Response::QuerySubmitted`]; a non-zero id supplied by the
        /// client is kept, so a caller can stamp its own correlation id.
        request_id: u64,
        /// Nanoseconds between this request's *scheduled* arrival (open
        /// loop) and the moment it was actually sent. The server folds
        /// this into the end-to-end latency histogram so coordinated
        /// omission does not flatter the tail. 0 for closed-loop callers.
        sched_lag_ns: u64,
    },
    /// `getResults`: fetch a completed query's results.
    GetResults {
        /// The query handle.
        query: QueryId,
    },
    /// `query` (batched): submit several queries in one command; the
    /// device coalesces same-`(db, model, level)` requests into shared
    /// flash passes.
    QueryBatch {
        /// The batched requests, answered in order.
        requests: Vec<QueryRequest>,
        /// End-to-end trace id for the whole batch (see
        /// [`Command::Query::request_id`]); echoed in
        /// [`Response::BatchSubmitted`].
        request_id: u64,
        /// Scheduled-arrival lag for the batch (see
        /// [`Command::Query::sched_lag_ns`]).
        sched_lag_ns: u64,
    },
    /// `getStats`: fetch the device's telemetry snapshot (pipeline
    /// counters, per-stage latency totals, flash event counts).
    Stats,
    /// `hello`: the serving handshake. Identifies the tenant for
    /// per-client quota accounting and announces the client's
    /// [`PROTOCOL_VERSION`]; a mismatched version is answered with a
    /// [`Response::Error`] carrying [`DeepStoreError::VersionMismatch`],
    /// by a bare device and a serving front end alike. Connections that
    /// skip the handshake are billed to a per-connection anonymous id.
    Hello {
        /// The client/tenant id to bill subsequent queries to.
        client: String,
        /// The application protocol version the client speaks.
        version: u32,
    },
    /// `metrics`: fetch the server's metrics in Prometheus text
    /// exposition format. Against a bare device this renders the engine
    /// registries; a serving front end appends its serve-layer page
    /// (per-stage and per-tenant latency histograms, admission
    /// counters).
    Metrics,
    /// `dump`: the SIGUSR1-style explicit flight-recorder dump — the
    /// serving front end answers with its ring of recent request
    /// summaries as deterministic JSON. A bare device (no serving
    /// layer, no recorder) answers with an empty dump.
    Dump,
}

impl Command {
    fn opcode(&self) -> u8 {
        match self {
            Command::WriteDb { .. } => 0x01,
            Command::AppendDb { .. } => 0x02,
            Command::ReadDb { .. } => 0x03,
            Command::LoadModel { .. } => 0x04,
            Command::SetQc { .. } => 0x05,
            Command::Query { .. } => 0x06,
            Command::GetResults { .. } => 0x07,
            Command::QueryBatch { .. } => 0x08,
            Command::Stats => 0x09,
            Command::Hello { .. } => 0x0A,
            Command::Metrics => 0x0B,
            Command::Dump => 0x0C,
        }
    }

    /// How many queries this command admits (the admission-control
    /// cost; non-query commands are free).
    pub fn query_cost(&self) -> u64 {
        match self {
            Command::Query { .. } => 1,
            Command::QueryBatch { requests, .. } => requests.len() as u64,
            _ => 0,
        }
    }

    /// The request id carried by a query command (`None` for non-query
    /// commands, which are not traced).
    #[must_use]
    pub fn request_id(&self) -> Option<u64> {
        match self {
            Command::Query { request_id, .. } | Command::QueryBatch { request_id, .. } => {
                Some(*request_id)
            }
            _ => None,
        }
    }

    /// Stamps a request id onto a query command (no-op for non-query
    /// commands). The serving front end uses this at admission to
    /// assign ids to commands that arrived with `request_id == 0`.
    pub fn set_request_id(&mut self, id: u64) {
        match self {
            Command::Query { request_id, .. } | Command::QueryBatch { request_id, .. } => {
                *request_id = id;
            }
            _ => {}
        }
    }

    /// The scheduled-arrival lag carried by a query command (0 for
    /// non-query commands and closed-loop callers).
    #[must_use]
    pub fn sched_lag_ns(&self) -> u64 {
        match self {
            Command::Query { sched_lag_ns, .. } | Command::QueryBatch { sched_lag_ns, .. } => {
                *sched_lag_ns
            }
            _ => 0,
        }
    }
}

/// Device→host responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// `writeDB` succeeded.
    DbCreated(DbId),
    /// `appendDB` succeeded.
    Appended,
    /// `readDB` payload.
    Features(Vec<Tensor>),
    /// `loadModel` succeeded.
    ModelLoaded(ModelId),
    /// `setQC` succeeded.
    QcConfigured,
    /// `query` accepted; poll with `getResults`.
    QuerySubmitted {
        /// The query handle.
        id: QueryId,
        /// The request id the query ran under (client-supplied, or
        /// assigned at admission). 0 from a bare device with an
        /// untagged command.
        request_id: u64,
    },
    /// `query` batch accepted; one handle per request, in order.
    BatchSubmitted {
        /// One handle per request, in request order.
        ids: Vec<QueryId>,
        /// The request id the batch ran under (see
        /// [`Response::QuerySubmitted::request_id`]).
        request_id: u64,
    },
    /// `getResults` payload.
    Results(Box<QueryResult>),
    /// `getStats` payload: the engine snapshot, plus the serving
    /// layer's stats when the command was answered by a running server
    /// (`None` from a bare device).
    Stats {
        /// Device/engine telemetry.
        device: Box<DeviceStats>,
        /// Serve-layer counters and per-tenant breakdowns; `None` when
        /// no serving front end handled the command.
        server: Option<crate::serve::ServerStats>,
    },
    /// `metrics` payload: a Prometheus text exposition page.
    Metrics {
        /// The rendered exposition page.
        text: String,
    },
    /// `dump` payload: a flight-recorder dump as deterministic JSON
    /// (see [`deepstore_obs::FlightDump`]).
    Dump {
        /// The serialized dump.
        json: String,
    },
    /// `hello` accepted; echoes the registered client id and the
    /// server's [`PROTOCOL_VERSION`].
    HelloAck {
        /// The client id quota accounting will bill.
        client: String,
        /// The application protocol version the server speaks.
        version: u32,
    },
    /// The command failed: the error the local API returns for it, a
    /// malformed frame ([`DeepStoreError::Malformed`]), or a serving
    /// front end's admission rejection ([`DeepStoreError::Overloaded`],
    /// [`DeepStoreError::QuotaExceeded`]; the request was not enqueued,
    /// retry after backing off).
    Error(DeepStoreError),
}

fn frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(opcode);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Checks a frame header (magic, version, the [`MAX_FRAME_LEN`] cap)
/// and returns its opcode and declared payload length.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(u8, usize), ProtoError> {
    if header[..4] != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    if header[4] != VERSION {
        return Err(ProtoError::BadVersion(header[4]));
    }
    let len = u32::from_le_bytes([header[6], header[7], header[8], header[9]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtoError::FrameTooLarge {
            len: len as u64,
            max: MAX_FRAME_LEN as u64,
        });
    }
    Ok((header[5], len))
}

/// Splits one whole frame into its opcode and payload. The payload must
/// end exactly where the header says: a message holding more than one
/// frame is refused, not answered once.
fn unframe(bytes: &[u8]) -> Result<(u8, &[u8]), ProtoError> {
    let (header, payload) = bytes
        .split_first_chunk::<HEADER_LEN>()
        .ok_or(ProtoError::Truncated)?;
    let (opcode, len) = parse_header(header)?;
    match payload.len().cmp(&len) {
        std::cmp::Ordering::Less => Err(ProtoError::Truncated),
        std::cmp::Ordering::Equal => Ok((opcode, payload)),
        std::cmp::Ordering::Greater => Err(ProtoError::BadPayload(format!(
            "{} bytes follow the declared {len}-byte payload",
            payload.len() - len
        ))),
    }
}

fn io_err(e: std::io::Error) -> ProtoError {
    ProtoError::Io(e.to_string())
}

fn read_exact_frame(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ProtoError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ProtoError::ConnectionClosed
        } else {
            io_err(e)
        }
    })
}

/// Completes a frame whose first header byte has already been read
/// (transports poll for the first byte with a short timeout, then
/// commit to the whole frame).
pub(crate) fn read_frame_after(first: u8, r: &mut impl Read) -> Result<Vec<u8>, ProtoError> {
    let mut header = [0u8; HEADER_LEN];
    header[0] = first;
    read_exact_frame(r, &mut header[1..])?;
    let (_, len) = parse_header(&header)?;
    let mut out = vec![0u8; HEADER_LEN + len];
    out[..HEADER_LEN].copy_from_slice(&header);
    read_exact_frame(r, &mut out[HEADER_LEN..])?;
    Ok(out)
}

/// Reads one whole frame from a byte stream, validating the header and
/// the [`MAX_FRAME_LEN`] cap before allocating the payload.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary; a
/// disconnect mid-frame is [`ProtoError::ConnectionClosed`].
///
/// # Errors
///
/// Any framing violation ([`ProtoError::BadMagic`],
/// [`ProtoError::BadVersion`], [`ProtoError::FrameTooLarge`]), a
/// mid-frame EOF, or a transport failure ([`ProtoError::Io`]).
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtoError> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(e)),
        }
    }
    read_frame_after(first[0], r).map(Some)
}

/// Writes one frame to a byte stream and flushes it.
///
/// # Errors
///
/// Returns [`ProtoError::Io`] on any transport failure.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> Result<(), ProtoError> {
    w.write_all(frame).map_err(io_err)?;
    w.flush().map_err(io_err)
}

/// Serializes a command into a wire frame.
pub fn encode_command(cmd: &Command) -> Vec<u8> {
    let payload = serde_json::to_vec(cmd).expect("commands always serialize");
    frame(cmd.opcode(), &payload)
}

/// Parses a command frame.
///
/// # Errors
///
/// Returns a [`ProtoError`] describing any framing or payload problem.
pub fn decode_command(bytes: &[u8]) -> Result<Command, ProtoError> {
    let (opcode, payload) = unframe(bytes)?;
    if !(0x01..=0x0C).contains(&opcode) {
        return Err(ProtoError::UnknownOpcode(opcode));
    }
    let cmd: Command =
        serde_json::from_slice(payload).map_err(|e| ProtoError::BadPayload(e.to_string()))?;
    if cmd.opcode() != opcode {
        return Err(ProtoError::BadPayload(format!(
            "opcode {opcode:#x} does not match payload variant"
        )));
    }
    Ok(cmd)
}

/// Serializes a response into a wire frame (opcode 0x80).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let payload = serde_json::to_vec(resp).expect("responses always serialize");
    frame(0x80, &payload)
}

/// Parses a response frame.
///
/// # Errors
///
/// Returns a [`ProtoError`] describing any framing or payload problem.
pub fn decode_response(bytes: &[u8]) -> Result<Response, ProtoError> {
    let (opcode, payload) = unframe(bytes)?;
    if opcode != 0x80 {
        return Err(ProtoError::UnknownOpcode(opcode));
    }
    serde_json::from_slice(payload).map_err(|e| ProtoError::BadPayload(e.to_string()))
}

/// The device-side endpoint: a [`DeepStore`] behind the wire protocol.
#[derive(Debug)]
pub struct Device {
    store: DeepStore,
    frames_handled: u64,
}

impl Device {
    /// Creates a device.
    pub fn new(cfg: DeepStoreConfig) -> Self {
        Device::with_store(DeepStore::in_memory(cfg))
    }

    /// Wraps an already-populated store (the serving front end builds
    /// the store first, then puts the protocol in front of it).
    pub fn with_store(store: DeepStore) -> Self {
        Device {
            store,
            frames_handled: 0,
        }
    }

    /// Read access to the underlying store (the serve layer peeks
    /// query results for flight-recorder outcome classification).
    pub fn store(&self) -> &DeepStore {
        &self.store
    }

    /// Direct access to the underlying store (diagnostics/tests).
    pub fn store_mut(&mut self) -> &mut DeepStore {
        &mut self.store
    }

    /// Unwraps the device back into its store (post-shutdown
    /// inspection).
    pub fn into_store(self) -> DeepStore {
        self.store
    }

    /// Command frames processed so far.
    pub fn frames_handled(&self) -> u64 {
        self.frames_handled
    }

    /// Handles one command frame, returning a response frame. Malformed
    /// frames and engine failures become [`Response::Error`] frames rather
    /// than device panics.
    pub fn handle(&mut self, frame_bytes: &[u8]) -> Vec<u8> {
        self.frames_handled += 1;
        let resp = match decode_command(frame_bytes) {
            Ok(cmd) => self.dispatch(cmd),
            Err(e) => Response::Error(DeepStoreError::Malformed(e.to_string())),
        };
        encode_response(&resp)
    }

    pub(crate) fn dispatch(&mut self, cmd: Command) -> Response {
        let result = match cmd {
            Command::WriteDb { features } => {
                self.store.write_db(&features).map(Response::DbCreated)
            }
            Command::AppendDb { db, features } => self
                .store
                .append_db(db, &features)
                .map(|()| Response::Appended),
            Command::ReadDb { db, start, num } => {
                self.store.read_db(db, start, num).map(Response::Features)
            }
            Command::LoadModel { graph } => match ModelGraph::from_bytes(&graph) {
                Ok(g) => self.store.load_model(&g).map(Response::ModelLoaded),
                Err(e) => Err(DeepStoreError::Remote(e.to_string())),
            },
            // `QueryCache::new` asserts these; a frame must not reach it.
            Command::SetQc { config } if config.capacity == 0 => Err(DeepStoreError::Malformed(
                "query-cache capacity must be positive".to_string(),
            )),
            Command::SetQc { config } if !(0.0..=1.0).contains(&config.threshold) => {
                Err(DeepStoreError::Malformed(format!(
                    "query-cache threshold {} is outside [0, 1]",
                    config.threshold
                )))
            }
            Command::SetQc { config } => {
                self.store.set_qc(config);
                Ok(Response::QcConfigured)
            }
            Command::Query {
                qfv,
                k,
                model,
                db,
                level,
                exact,
                request_id,
                ..
            } => {
                let mut req = QueryRequest::new(qfv, model, db).k(k).level(level);
                if exact {
                    req = req.exact();
                }
                self.store
                    .query_batch_tagged(std::slice::from_ref(&req), &[request_id])
                    .map(|ids| Response::QuerySubmitted {
                        id: ids[0],
                        request_id,
                    })
            }
            Command::QueryBatch {
                requests,
                request_id,
                ..
            } => {
                let rids = vec![request_id; requests.len()];
                self.store
                    .query_batch_tagged(&requests, &rids)
                    .map(|ids| Response::BatchSubmitted { ids, request_id })
            }
            Command::GetResults { query } => self
                .store
                .results(query)
                .map(|r| Response::Results(Box::new(r))),
            Command::Stats => Ok(Response::Stats {
                device: Box::new(self.store.stats()),
                server: None,
            }),
            Command::Metrics => Ok(Response::Metrics {
                text: deepstore_obs::render_text(&self.store.stats().metrics, "deepstore_"),
            }),
            // A bare device has no serving layer and therefore no
            // flight recorder: answer with an empty dump rather than an
            // error so tooling can issue `dump` without knowing which
            // endpoint it reached.
            Command::Dump => Ok(Response::Dump {
                json: serde_json::to_string(&deepstore_obs::FlightDump {
                    reason: "device".to_string(),
                    total: 0,
                    capacity: 0,
                    entries: Vec::new(),
                })
                .expect("dumps always serialize"),
            }),
            // A bare device accepts any tenant; the serving front end
            // intercepts `hello` for quota accounting before dispatch.
            Command::Hello { client, version } => return answer_hello(client, version),
        };
        result.unwrap_or_else(Response::Error)
    }
}

/// The answer to `hello`, from a bare device and a serving front end
/// alike: an ack when the client speaks this build's
/// [`PROTOCOL_VERSION`], a typed version mismatch otherwise.
pub(crate) fn answer_hello(client: String, version: u32) -> Response {
    if version == PROTOCOL_VERSION {
        Response::HelloAck { client, version }
    } else {
        Response::Error(DeepStoreError::VersionMismatch {
            expected: PROTOCOL_VERSION,
            found: version,
        })
    }
}

/// How a [`HostClient`] moves frames: directly into a borrowed
/// [`Device`], or across a real transport (the serving front end's
/// channel and TCP clients in [`mod@crate::serve`] implement this too).
pub trait CommandChannel {
    /// Sends one command frame and returns the matching response frame.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtoError`] if the transport fails before a
    /// response frame arrives.
    fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, ProtoError>;
}

/// The in-process channel: commands dispatch synchronously on a
/// borrowed [`Device`] (the pre-serving, single-caller shape).
#[derive(Debug)]
pub struct DirectChannel<'a> {
    device: &'a mut Device,
}

impl CommandChannel for DirectChannel<'_> {
    fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, ProtoError> {
        Ok(self.device.handle(frame))
    }
}

/// Host-side wrapper: the Table 2 API expressed over the wire protocol,
/// generic over how frames reach the device ([`CommandChannel`]).
#[derive(Debug)]
pub struct HostClient<C: CommandChannel> {
    chan: C,
}

impl<'a> HostClient<DirectChannel<'a>> {
    /// Attaches directly to an in-process device.
    pub fn new(device: &'a mut Device) -> Self {
        HostClient {
            chan: DirectChannel { device },
        }
    }

    /// The borrowed device.
    #[cfg(test)]
    pub(crate) fn device_mut(&mut self) -> &mut Device {
        self.chan.device
    }
}

impl<C: CommandChannel> HostClient<C> {
    /// Wraps an arbitrary command channel (a served connection).
    pub fn over(chan: C) -> Self {
        HostClient { chan }
    }

    fn round_trip(&mut self, cmd: &Command) -> Result<Response, ProtoError> {
        let resp_bytes = self.chan.exchange(&encode_command(cmd))?;
        match decode_response(&resp_bytes)? {
            Response::Error(e) => Err(ProtoError::Device(e)),
            other => Ok(other),
        }
    }

    /// The serving handshake: registers `client` as the tenant id for
    /// quota accounting on this connection and negotiates
    /// [`PROTOCOL_VERSION`].
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] if the server rejects the
    /// handshake — [`DeepStoreError::VersionMismatch`] when the two
    /// sides speak different protocol versions.
    pub fn hello(&mut self, client: &str) -> Result<(), ProtoError> {
        match self.round_trip(&Command::Hello {
            client: client.to_string(),
            version: PROTOCOL_VERSION,
        })? {
            Response::HelloAck { version, .. } if version == PROTOCOL_VERSION => Ok(()),
            Response::HelloAck { version, .. } => {
                Err(ProtoError::Device(DeepStoreError::VersionMismatch {
                    expected: PROTOCOL_VERSION,
                    found: version,
                }))
            }
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }

    /// `writeDB` over the wire.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] if the engine rejects the write.
    pub fn write_db(&mut self, features: &[Tensor]) -> Result<DbId, ProtoError> {
        match self.round_trip(&Command::WriteDb {
            features: features.to_vec(),
        })? {
            Response::DbCreated(db) => Ok(db),
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }

    /// `appendDB` over the wire.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] if the engine rejects the append.
    pub fn append_db(&mut self, db: DbId, features: &[Tensor]) -> Result<(), ProtoError> {
        match self.round_trip(&Command::AppendDb {
            db,
            features: features.to_vec(),
        })? {
            Response::Appended => Ok(()),
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }

    /// `readDB` over the wire.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] for bad ids/ranges.
    pub fn read_db(&mut self, db: DbId, start: u64, num: u64) -> Result<Vec<Tensor>, ProtoError> {
        match self.round_trip(&Command::ReadDb { db, start, num })? {
            Response::Features(f) => Ok(f),
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }

    /// `loadModel` over the wire.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] for unweighted or malformed graphs.
    pub fn load_model(&mut self, graph: &ModelGraph) -> Result<ModelId, ProtoError> {
        let bytes = graph
            .to_bytes()
            .map_err(|e| ProtoError::BadPayload(e.to_string()))?;
        match self.round_trip(&Command::LoadModel { graph: bytes })? {
            Response::ModelLoaded(m) => Ok(m),
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }

    /// `setQC` over the wire.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] on rejection.
    pub fn set_qc(&mut self, config: QueryCacheConfig) -> Result<(), ProtoError> {
        match self.round_trip(&Command::SetQc { config })? {
            Response::QcConfigured => Ok(()),
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }

    /// `query` over the wire.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] for bad handles or unsupported
    /// levels.
    pub fn query(
        &mut self,
        qfv: &Tensor,
        k: usize,
        model: ModelId,
        db: DbId,
        level: AcceleratorLevel,
        exact: bool,
    ) -> Result<QueryId, ProtoError> {
        self.query_traced(qfv, k, model, db, level, exact, 0, 0)
            .map(|(id, _)| id)
    }

    /// `query` over the wire, carrying an explicit request id and
    /// scheduled-arrival lag. Passing `request_id == 0` asks the server
    /// to assign one at admission; either way the id the query ran
    /// under comes back alongside the handle.
    ///
    /// # Errors
    ///
    /// See [`HostClient::query`].
    #[allow(clippy::too_many_arguments)]
    pub fn query_traced(
        &mut self,
        qfv: &Tensor,
        k: usize,
        model: ModelId,
        db: DbId,
        level: AcceleratorLevel,
        exact: bool,
        request_id: u64,
        sched_lag_ns: u64,
    ) -> Result<(QueryId, u64), ProtoError> {
        match self.round_trip(&Command::Query {
            qfv: qfv.clone(),
            k,
            model,
            db,
            level,
            exact,
            request_id,
            sched_lag_ns,
        })? {
            Response::QuerySubmitted { id, request_id } => Ok((id, request_id)),
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }

    /// Batched `query` over the wire: one command, one flash pass per
    /// coalesced `(db, model, level)` group on the device.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] for bad handles or unsupported
    /// levels (the whole batch is rejected before any scan runs).
    pub fn query_batch(&mut self, requests: &[QueryRequest]) -> Result<Vec<QueryId>, ProtoError> {
        // Request id 0: the server assigns one at admission.
        match self.round_trip(&Command::QueryBatch {
            requests: requests.to_vec(),
            request_id: 0,
            sched_lag_ns: 0,
        })? {
            Response::BatchSubmitted { ids, .. } => Ok(ids),
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }

    /// `getResults` over the wire.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] for unknown query handles.
    pub fn get_results(&mut self, query: QueryId) -> Result<QueryResult, ProtoError> {
        match self.round_trip(&Command::GetResults { query })? {
            Response::Results(r) => Ok(*r),
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }

    /// `getStats` over the wire: the device's telemetry snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] if the device rejects the command.
    pub fn stats(&mut self) -> Result<DeviceStats, ProtoError> {
        self.stats_full().map(|(device, _)| device)
    }

    /// `getStats` over the wire, keeping the serve-layer half of the
    /// response: the device snapshot plus [`crate::serve::ServerStats`]
    /// when a serving front end answered (a bare device returns `None`).
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] if the device rejects the command.
    pub fn stats_full(
        &mut self,
    ) -> Result<(DeviceStats, Option<crate::serve::ServerStats>), ProtoError> {
        match self.round_trip(&Command::Stats)? {
            Response::Stats { device, server } => Ok((*device, server)),
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }

    /// `metrics` over the wire: the Prometheus text exposition page.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] if the device rejects the command.
    pub fn metrics(&mut self) -> Result<String, ProtoError> {
        match self.round_trip(&Command::Metrics)? {
            Response::Metrics { text } => Ok(text),
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }

    /// `dump` over the wire: the flight recorder's recent-request ring
    /// as deterministic JSON.
    ///
    /// # Errors
    ///
    /// Returns [`ProtoError::Device`] if the device rejects the command.
    pub fn dump(&mut self) -> Result<String, ProtoError> {
        match self.round_trip(&Command::Dump)? {
            Response::Dump { json } => Ok(json),
            other => Err(ProtoError::BadPayload(format!("unexpected {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepstore_nn::zoo;

    #[test]
    fn command_frames_roundtrip() {
        let model = zoo::textqa().seeded(1);
        let cmds = vec![
            Command::WriteDb {
                features: vec![model.random_feature(0)],
            },
            Command::ReadDb {
                db: DbId(1),
                start: 0,
                num: 4,
            },
            Command::SetQc {
                config: QueryCacheConfig::paper_default(),
            },
            Command::GetResults { query: QueryId(7) },
            Command::Stats,
            Command::Metrics,
            Command::Dump,
        ];
        for cmd in cmds {
            let bytes = encode_command(&cmd);
            assert_eq!(decode_command(&bytes).unwrap(), cmd);
        }
    }

    #[test]
    fn request_id_and_lag_roundtrip_on_query_frames() {
        let model = zoo::textqa().seeded(1);
        let mut cmd = Command::Query {
            qfv: model.random_feature(0),
            k: 3,
            model: ModelId(1),
            db: DbId(1),
            level: AcceleratorLevel::Channel,
            exact: false,
            request_id: 77,
            sched_lag_ns: 1234,
        };
        assert_eq!(decode_command(&encode_command(&cmd)).unwrap(), cmd);
        assert_eq!(cmd.request_id(), Some(77));
        assert_eq!(cmd.sched_lag_ns(), 1234);
        cmd.set_request_id(99);
        assert_eq!(cmd.request_id(), Some(99));

        let batch = Command::QueryBatch {
            requests: vec![QueryRequest::new(model.random_feature(1), ModelId(1), DbId(1)).k(2)],
            request_id: 501,
            sched_lag_ns: 9,
        };
        assert_eq!(decode_command(&encode_command(&batch)).unwrap(), batch);
        assert_eq!(batch.request_id(), Some(501));
        // Non-query commands carry no request id and ignore stamping.
        let mut stats = Command::Stats;
        assert_eq!(stats.request_id(), None);
        stats.set_request_id(5);
        assert_eq!(stats.request_id(), None);
        assert_eq!(stats.sched_lag_ns(), 0);
    }

    #[test]
    fn metrics_and_dump_frames_roundtrip_and_answer() {
        // New opcodes sit where the old decoder's range check ended.
        assert_eq!(encode_command(&Command::Metrics)[5], 0x0B);
        assert_eq!(encode_command(&Command::Dump)[5], 0x0C);

        // Response shapes round-trip, including the widened Stats.
        let frames = vec![
            Response::Metrics {
                text: "# TYPE deepstore_api_queries counter\ndeepstore_api_queries 1\n".into(),
            },
            Response::Dump {
                json: "{\"reason\":\"explicit\"}".into(),
            },
            Response::QuerySubmitted {
                id: QueryId(4),
                request_id: 99,
            },
            Response::BatchSubmitted {
                ids: vec![QueryId(4), QueryId(5)],
                request_id: 100,
            },
        ];
        for resp in frames {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }

        // A bare device answers both: metrics as a valid exposition
        // page over the engine registries, dump as an empty recorder.
        let mut device = Device::new(DeepStoreConfig::small());
        let mut host = HostClient::new(&mut device);
        let page = host.metrics().unwrap();
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(
                !name.is_empty() && value.parse::<f64>().is_ok(),
                "bad line {line}"
            );
        }
        let dump: deepstore_obs::FlightDump = serde_json::from_str(&host.dump().unwrap()).unwrap();
        assert_eq!(dump.reason, "device");
        assert!(dump.entries.is_empty());
    }

    #[test]
    fn exact_flag_roundtrips_on_both_query_commands() {
        let model = zoo::textqa().seeded(1);
        // The bit survives encode/decode in both states, on the single
        // query command and inside a batched request.
        for exact in [false, true] {
            let cmd = Command::Query {
                qfv: model.random_feature(0),
                k: 3,
                model: ModelId(1),
                db: DbId(1),
                level: AcceleratorLevel::Channel,
                exact,
                request_id: 0,
                sched_lag_ns: 0,
            };
            let decoded = decode_command(&encode_command(&cmd)).unwrap();
            assert_eq!(decoded, cmd);

            let mut req = QueryRequest::new(model.random_feature(1), ModelId(1), DbId(1)).k(2);
            if exact {
                req = req.exact();
            }
            assert_eq!(req.exact, exact);
            let cmd = Command::QueryBatch {
                requests: vec![req],
                request_id: 0,
                sched_lag_ns: 0,
            };
            assert_eq!(decode_command(&encode_command(&cmd)).unwrap(), cmd);
        }
    }

    #[test]
    fn corrupt_frames_are_rejected() {
        let cmd = Command::GetResults { query: QueryId(1) };
        let good = encode_command(&cmd);
        // Truncated.
        assert_eq!(decode_command(&good[..5]), Err(ProtoError::Truncated));
        assert_eq!(
            decode_command(&good[..good.len() - 1]),
            Err(ProtoError::Truncated)
        );
        // Bad magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(decode_command(&bad), Err(ProtoError::BadMagic));
        // Bad version.
        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(decode_command(&bad), Err(ProtoError::BadVersion(99)));
        // Unknown opcode.
        let mut bad = good.clone();
        bad[5] = 0x7F;
        assert!(matches!(
            decode_command(&bad),
            Err(ProtoError::UnknownOpcode(0x7F))
        ));
        // Garbage payload.
        let mut bad = good;
        let n = bad.len();
        bad[n - 1] ^= 0xFF;
        assert!(matches!(
            decode_command(&bad),
            Err(ProtoError::BadPayload(_))
        ));
    }

    #[test]
    fn opcode_must_match_variant() {
        let cmd = Command::GetResults { query: QueryId(1) };
        let mut bytes = encode_command(&cmd);
        bytes[5] = 0x01; // claims WriteDb
        assert!(matches!(
            decode_command(&bytes),
            Err(ProtoError::BadPayload(_))
        ));
    }

    #[test]
    fn device_full_session_over_the_wire() {
        let mut device = Device::new(DeepStoreConfig::small());
        let mut host = HostClient::new(&mut device);
        let model = zoo::tir().seeded_metric(5);
        let features: Vec<Tensor> = (0..32).map(|i| model.random_feature(i)).collect();
        let db = host.write_db(&features).unwrap();
        host.append_db(db, &[model.random_feature(500)]).unwrap();
        let back = host.read_db(db, 32, 1).unwrap();
        assert_eq!(back[0], model.random_feature(500));
        let mid = host.load_model(&ModelGraph::from_model(&model)).unwrap();
        let q = model.random_feature(0); // exact duplicate of feature 0
        let qid = host
            .query(&q, 1, mid, db, AcceleratorLevel::Channel, false)
            .unwrap();
        let r = host.get_results(qid).unwrap();
        assert_eq!(r.top_k[0].feature_index, 0);
        assert!(device.frames_handled() >= 6);
    }

    #[test]
    fn batched_queries_roundtrip_over_the_wire() {
        let mut device = Device::new(DeepStoreConfig::small());
        device.store_mut().disable_qc();
        let mut host = HostClient::new(&mut device);
        let model = zoo::textqa().seeded_metric(5);
        let features: Vec<Tensor> = (0..24).map(|i| model.random_feature(i)).collect();
        let db = host.write_db(&features).unwrap();
        let mid = host.load_model(&ModelGraph::from_model(&model)).unwrap();
        // Probes 3 and 11 are exact duplicates of features 3 and 11.
        let reqs: Vec<QueryRequest> = [3u64, 11]
            .iter()
            .map(|&s| QueryRequest::new(model.random_feature(s), mid, db).k(2))
            .collect();
        let ids = host.query_batch(&reqs).unwrap();
        assert_eq!(ids.len(), 2);
        assert_eq!(host.get_results(ids[0]).unwrap().top_k[0].feature_index, 3);
        assert_eq!(host.get_results(ids[1]).unwrap().top_k[0].feature_index, 11);
    }

    #[test]
    fn stats_roundtrip_over_the_wire() {
        let mut device = Device::new(DeepStoreConfig::small());
        let mut host = HostClient::new(&mut device);
        let model = zoo::textqa().seeded_metric(5);
        let features: Vec<Tensor> = (0..24).map(|i| model.random_feature(i)).collect();
        let db = host.write_db(&features).unwrap();
        let mid = host.load_model(&ModelGraph::from_model(&model)).unwrap();
        let qid = host
            .query(
                &model.random_feature(3),
                2,
                mid,
                db,
                AcceleratorLevel::Channel,
                false,
            )
            .unwrap();
        let _ = host.get_results(qid).unwrap();
        // A bare device has no serving layer: the widened frame carries
        // `server: None`.
        let (stats, server) = host.stats_full().unwrap();
        assert!(server.is_none());
        assert!(stats.flash.page_reads > 0);
        assert_eq!(stats.queries, 1);
        assert!(stats.stages.total_ns > 0);
    }

    #[test]
    fn min_coverage_and_degraded_results_roundtrip_over_the_wire() {
        use deepstore_flash::fault::FaultPlan;
        let mut device = Device::new(DeepStoreConfig::small());
        device.store_mut().disable_qc();
        let mut host = HostClient::new(&mut device);
        let model = zoo::tir().seeded_metric(5);
        // 256 tir features fill two blocks, so the database spans two
        // channels and a single dead channel loses only half of it.
        let features: Vec<Tensor> = (0..256).map(|i| model.random_feature(i)).collect();
        let db = host.write_db(&features).unwrap();
        let mid = host.load_model(&ModelGraph::from_model(&model)).unwrap();

        // `min_coverage` survives command encode/decode exactly.
        let req = QueryRequest::new(model.random_feature(900), mid, db)
            .k(2)
            .min_coverage(0.75);
        let cmd = Command::QueryBatch {
            requests: vec![req],
            request_id: 0,
            sched_lag_ns: 0,
        };
        assert_eq!(decode_command(&encode_command(&cmd)).unwrap(), cmd);

        // Kill one channel: part of the database becomes unreadable and
        // results come back degraded, with coverage on the wire.
        host.device_mut()
            .store_mut()
            .inject_faults(FaultPlan::none().dead_channel(0));
        let reqs = vec![QueryRequest::new(model.random_feature(901), mid, db).k(2)];
        let ids = host.query_batch(&reqs).unwrap();
        let r = host.get_results(ids[0]).unwrap();
        assert!(r.degraded, "a dead channel must degrade the answer");
        assert!(r.coverage > 0.0 && r.coverage < 1.0);
        assert!(!r.top_k.is_empty());

        // The response frame round-trips the new fields bit-exactly.
        let resp = Response::Results(Box::new(r));
        assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
    }

    #[test]
    fn insufficient_coverage_surfaces_as_device_error() {
        use deepstore_flash::fault::FaultPlan;
        let mut device = Device::new(DeepStoreConfig::small());
        device.store_mut().disable_qc();
        let mut host = HostClient::new(&mut device);
        let model = zoo::textqa().seeded_metric(5);
        let features: Vec<Tensor> = (0..24).map(|i| model.random_feature(i)).collect();
        let db = host.write_db(&features).unwrap();
        let mid = host.load_model(&ModelGraph::from_model(&model)).unwrap();
        host.device_mut()
            .store_mut()
            .inject_faults(FaultPlan::none().dead_channel(0));
        let reqs = vec![QueryRequest::new(model.random_feature(902), mid, db)
            .k(2)
            .min_coverage(1.0)];
        let err = host.query_batch(&reqs).unwrap_err();
        match &err {
            ProtoError::Device(DeepStoreError::InsufficientCoverage { required, achieved }) => {
                assert_eq!(*required, 1.0);
                assert!(*achieved < 1.0);
            }
            other => panic!("expected a typed coverage error, got {other:?}"),
        }
        assert!(matches!(
            err.device_error(),
            Some(DeepStoreError::InsufficientCoverage { required, .. }) if required == 1.0
        ));
        // The rejected batch published nothing.
        let err = host.get_results(QueryId(0)).unwrap_err();
        assert!(matches!(err, ProtoError::Device(_)));
    }

    #[test]
    fn device_errors_are_frames_not_panics() {
        let mut device = Device::new(DeepStoreConfig::small());
        // Unknown database.
        let resp = device.handle(&encode_command(&Command::ReadDb {
            db: DbId(99),
            start: 0,
            num: 1,
        }));
        assert!(matches!(
            decode_response(&resp).unwrap(),
            Response::Error(_)
        ));
        // Garbage bytes.
        let resp = device.handle(b"not a frame");
        assert!(matches!(
            decode_response(&resp).unwrap(),
            Response::Error(_)
        ));
    }

    #[test]
    fn host_client_surfaces_device_errors() {
        let mut device = Device::new(DeepStoreConfig::small());
        let mut host = HostClient::new(&mut device);
        let err = host.read_db(DbId(42), 0, 1).unwrap_err();
        assert!(matches!(err, ProtoError::Device(_)));
        assert_eq!(
            err.device_error(),
            Some(DeepStoreError::Flash(
                deepstore_flash::FlashError::UnknownDb(42)
            ))
        );
        assert!(!err.is_rejection());
        // Unweighted model rejected through the wire too.
        let err = host
            .load_model(&ModelGraph::from_model(&zoo::tir()))
            .unwrap_err();
        assert!(matches!(err, ProtoError::Device(_)));
        // Structured errors come back as their engine variants, not prose.
        let err = host.get_results(QueryId(77)).unwrap_err();
        assert_eq!(
            err.device_error(),
            Some(DeepStoreError::UnknownQuery(QueryId(77)))
        );
    }

    #[test]
    fn hello_handshake_roundtrips() {
        let mut device = Device::new(DeepStoreConfig::small());
        let mut host = HostClient::new(&mut device);
        host.hello("tenant-a").unwrap();
        let cmd = Command::Hello {
            client: "tenant-a".into(),
            version: PROTOCOL_VERSION,
        };
        let bytes = encode_command(&cmd);
        assert_eq!(bytes[5], 0x0A);
        assert_eq!(decode_command(&bytes).unwrap(), cmd);
    }

    #[test]
    fn hello_version_skew_is_rejected_typed() {
        // A device rejects a mismatched hello with the structured error.
        let mut device = Device::new(DeepStoreConfig::small());
        let resp = device.dispatch(Command::Hello {
            client: "t".into(),
            version: PROTOCOL_VERSION + 1,
        });
        assert_eq!(
            resp,
            Response::Error(DeepStoreError::VersionMismatch {
                expected: PROTOCOL_VERSION,
                found: PROTOCOL_VERSION + 1,
            })
        );

        // A client rejects an ack that announces a different version.
        struct Canned(Vec<u8>);
        impl CommandChannel for Canned {
            fn exchange(&mut self, _frame: &[u8]) -> Result<Vec<u8>, ProtoError> {
                Ok(self.0.clone())
            }
        }
        let stale_ack = encode_response(&Response::HelloAck {
            client: "t".into(),
            version: PROTOCOL_VERSION + 9,
        });
        let mut host = HostClient::over(Canned(stale_ack));
        let err = host.hello("t").unwrap_err();
        assert_eq!(
            err.device_error(),
            Some(DeepStoreError::VersionMismatch {
                expected: PROTOCOL_VERSION,
                found: PROTOCOL_VERSION + 9,
            })
        );
    }

    #[test]
    fn rejection_frames_roundtrip_and_surface_typed() {
        let frames = vec![
            Response::HelloAck {
                client: "t".into(),
                version: PROTOCOL_VERSION,
            },
            Response::Error(DeepStoreError::Overloaded { queue_depth: 4 }),
            Response::Error(DeepStoreError::QuotaExceeded { client: "t".into() }),
            Response::Error(DeepStoreError::InsufficientCoverage {
                required: 0.9,
                achieved: 0.25,
            }),
            Response::Error(DeepStoreError::Malformed("bad magic".into())),
        ];
        for resp in frames {
            assert_eq!(decode_response(&encode_response(&resp)).unwrap(), resp);
        }
        // A rejection frame surfaces as a typed, retryable error with a
        // structured engine-side equivalent.
        struct Canned(Vec<u8>);
        impl CommandChannel for Canned {
            fn exchange(&mut self, _frame: &[u8]) -> Result<Vec<u8>, ProtoError> {
                Ok(self.0.clone())
            }
        }
        let overloaded = encode_response(&Response::Error(DeepStoreError::Overloaded {
            queue_depth: 8,
        }));
        let mut host = HostClient::over(Canned(overloaded));
        let err = host.stats().unwrap_err();
        assert!(err.is_rejection());
        assert_eq!(
            err.device_error(),
            Some(DeepStoreError::Overloaded { queue_depth: 8 })
        );
    }

    #[test]
    fn stream_framing_reads_and_caps() {
        use std::io::Cursor;
        let frame = encode_command(&Command::Stats);
        // Two frames back to back, then clean EOF.
        let mut stream = Cursor::new([frame.clone(), frame.clone()].concat());
        assert_eq!(proto_read(&mut stream), Some(frame.clone()));
        assert_eq!(proto_read(&mut stream), Some(frame.clone()));
        assert_eq!(read_frame(&mut stream).unwrap(), None);
        // Mid-frame EOF at every split point is a typed disconnect.
        for cut in 1..frame.len() {
            let mut partial = Cursor::new(frame[..cut].to_vec());
            assert_eq!(
                read_frame(&mut partial).unwrap_err(),
                ProtoError::ConnectionClosed,
                "cut at {cut}"
            );
        }
        // An oversized length prefix is rejected before allocation.
        let mut huge = frame.clone();
        huge[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut stream = Cursor::new(huge);
        assert!(matches!(
            read_frame(&mut stream),
            Err(ProtoError::FrameTooLarge { .. })
        ));
        // write_frame + read_frame round-trip through a buffer.
        let mut buf = Vec::new();
        write_frame(&mut buf, &frame).unwrap();
        assert_eq!(read_frame(&mut Cursor::new(buf)).unwrap(), Some(frame));
    }

    fn proto_read(stream: &mut impl std::io::Read) -> Option<Vec<u8>> {
        read_frame(stream).unwrap()
    }
}
