//! Concurrent serving front end: many clients, one engine.
//!
//! Everything below [`proto`](crate::proto) is single-threaded by
//! design — the embedded cores run one command at a time. This module
//! adds the host-side piece the paper assumes but never shows: a server
//! that multiplexes many independent client connections onto one
//! [`DeepStore`] engine. Three ideas carry the design:
//!
//! * **Transport trait.** Connections arrive through a [`Transport`]
//!   that yields [`Connection`]s. Two implementations ship: an
//!   in-process channel pair ([`channel_transport`]) used by the
//!   deterministic equivalence tests, and a real TCP listener
//!   ([`TcpTransport`]) used by `deepstore serve` and the serving
//!   benchmark. The server code is identical over both.
//!
//! * **The server owns the batch window.** Query commands from
//!   different clients that are co-pending in the job queue are merged
//!   into one [`DeepStore::query_batch`] call, which shares a single
//!   flash pass per `(db, model, level)` group. Because `query_batch`
//!   guarantees per-request results identical to sequential issuance
//!   regardless of grouping, merging arbitrary clients' requests
//!   preserves bit-identical answers — the property
//!   `tests/serve_equivalence.rs` checks against armed fault plans.
//!   That one engine pass has two drivers: the threaded [`serve`], and
//!   [`simulate`], which runs timestamped commands through it on a
//!   simulated clock (the paper's query engine scheduling work on the
//!   accelerators, §4.7.1).
//!
//! * **Admission control before the queue.** A bounded pending queue
//!   rejects with a [`DeepStoreError::Overloaded`] error frame when full
//!   (backpressure, never a hang), and optional per-tenant token
//!   buckets — keyed by the client id from the `hello` handshake —
//!   reject with [`DeepStoreError::QuotaExceeded`]. Buckets refill on
//!   a [`ServeClock`] that tests can drive manually, making refill
//!   deterministic on simulated time.

use crate::api::{DeepStore, QueryId, QueryRequest};
use crate::error::DeepStoreError;
use crate::proto::{
    answer_hello, decode_command, encode_response, read_frame, read_frame_after, write_frame,
    Command, Device, ProtoError, Response,
};
use deepstore_obs::{
    metrics, render_text, sanitize_name, FlightRecorder, MetricsSnapshot, RequestOutcome,
    RequestSummary, DEFAULT_RECORDER_CAPACITY,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Transport abstraction
// ---------------------------------------------------------------------------

/// One accepted client connection, as seen by the server.
///
/// Implementations move whole protocol frames; framing errors surface
/// as typed [`ProtoError`]s so the connection loop can answer with a
/// `Malformed` frame instead of wedging.
pub trait Connection: Send + 'static {
    /// Wait up to `timeout` for the next frame. `Ok(None)` means no
    /// frame arrived yet (poll again); `Err(ProtoError::ConnectionClosed)`
    /// means the peer went away at a frame boundary.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ProtoError>;
    /// Send one complete frame to the peer.
    fn send(&mut self, frame: &[u8]) -> Result<(), ProtoError>;
    /// A human-readable peer label, used as the client id until the
    /// peer introduces itself with `hello`.
    fn peer(&self) -> String;
}

/// A listener that yields [`Connection`]s.
pub trait Transport: Send + 'static {
    /// The connection type this transport accepts.
    type Conn: Connection;
    /// Wait up to `timeout` for the next incoming connection.
    /// `Ok(None)` means none arrived yet.
    fn accept_timeout(&mut self, timeout: Duration) -> Result<Option<Self::Conn>, ProtoError>;
    /// Where this transport listens (e.g. `127.0.0.1:4096` or
    /// `channel`).
    fn endpoint(&self) -> String;
}

// ---------------------------------------------------------------------------
// In-process channel transport
// ---------------------------------------------------------------------------

/// Server side of the in-process transport: a stream of freshly
/// connected [`ChannelServerConn`]s.
pub struct ChannelTransport {
    rx: Receiver<ChannelServerConn>,
}

/// Client-side connector for the in-process transport. Cloneable;
/// each [`connect`](ChannelConnector::connect) yields an independent
/// full-duplex connection.
#[derive(Clone)]
pub struct ChannelConnector {
    tx: Sender<ChannelServerConn>,
    next: Arc<AtomicU64>,
}

/// The server half of one in-process connection.
pub struct ChannelServerConn {
    rx: Receiver<Vec<u8>>,
    tx: Sender<Vec<u8>>,
    peer: String,
}

/// The client half of one in-process connection. Implements
/// [`CommandChannel`](crate::proto::CommandChannel), so it plugs
/// straight into [`HostClient::over`](crate::proto::HostClient::over).
pub struct ChannelClient {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Create a paired in-process transport: the [`ChannelTransport`] goes
/// to [`serve`], the [`ChannelConnector`] to clients.
pub fn channel_transport() -> (ChannelTransport, ChannelConnector) {
    let (tx, rx) = mpsc::channel();
    (
        ChannelTransport { rx },
        ChannelConnector {
            tx,
            next: Arc::new(AtomicU64::new(0)),
        },
    )
}

impl ChannelConnector {
    /// Open a new connection to the server. Fails with
    /// [`ProtoError::ConnectionClosed`] if the server is gone.
    pub fn connect(&self) -> Result<ChannelClient, ProtoError> {
        let (c2s_tx, c2s_rx) = mpsc::channel();
        let (s2c_tx, s2c_rx) = mpsc::channel();
        let n = self.next.fetch_add(1, Ordering::SeqCst);
        self.tx
            .send(ChannelServerConn {
                rx: c2s_rx,
                tx: s2c_tx,
                peer: format!("chan-{n}"),
            })
            .map_err(|_| ProtoError::ConnectionClosed)?;
        Ok(ChannelClient {
            tx: c2s_tx,
            rx: s2c_rx,
        })
    }
}

impl ChannelClient {
    /// Send a raw frame without waiting for a reply. Exists so the
    /// protocol fuzz tests can deliver deliberately malformed bytes.
    pub fn send_frame(&self, frame: &[u8]) -> Result<(), ProtoError> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| ProtoError::ConnectionClosed)
    }

    /// Receive the next raw response frame.
    pub fn recv_frame(&self) -> Result<Vec<u8>, ProtoError> {
        self.rx.recv().map_err(|_| ProtoError::ConnectionClosed)
    }
}

impl crate::proto::CommandChannel for ChannelClient {
    fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, ProtoError> {
        self.send_frame(frame)?;
        self.recv_frame()
    }
}

impl Connection for ChannelServerConn {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ProtoError> {
        match self.rx.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(ProtoError::ConnectionClosed),
        }
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), ProtoError> {
        self.tx
            .send(frame.to_vec())
            .map_err(|_| ProtoError::ConnectionClosed)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

impl Transport for ChannelTransport {
    type Conn = ChannelServerConn;

    fn accept_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<ChannelServerConn>, ProtoError> {
        match self.rx.recv_timeout(timeout) {
            Ok(conn) => Ok(Some(conn)),
            // Disconnected just means every connector was dropped; keep
            // polling so the server stays up until shutdown.
            Err(_) => Ok(None),
        }
    }

    fn endpoint(&self) -> String {
        "channel".to_string()
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// A real TCP listener transport for [`serve`].
pub struct TcpTransport {
    listener: TcpListener,
    endpoint: String,
}

/// The server half of one accepted TCP connection.
pub struct TcpServerConn {
    stream: TcpStream,
    peer: String,
}

/// A blocking TCP client channel. Implements
/// [`CommandChannel`](crate::proto::CommandChannel) for use with
/// [`HostClient::over`](crate::proto::HostClient::over).
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpTransport {
    /// Bind a listener. Use port `0` to let the OS pick; the chosen
    /// address is reported by [`endpoint`](Transport::endpoint).
    pub fn bind(addr: &str) -> Result<Self, ProtoError> {
        let listener = TcpListener::bind(addr).map_err(io_proto)?;
        listener.set_nonblocking(true).map_err(io_proto)?;
        let endpoint = listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.to_string());
        Ok(TcpTransport { listener, endpoint })
    }
}

fn io_proto(e: std::io::Error) -> ProtoError {
    ProtoError::Io(e.to_string())
}

impl Transport for TcpTransport {
    type Conn = TcpServerConn;

    fn accept_timeout(&mut self, timeout: Duration) -> Result<Option<TcpServerConn>, ProtoError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    // Accepted sockets may inherit the listener's
                    // non-blocking mode; connection I/O is blocking
                    // with explicit read timeouts. Nagle off: the
                    // protocol is small request/reply frames, and
                    // batching them behind delayed ACKs costs tens of
                    // milliseconds of artificial tail latency.
                    stream.set_nonblocking(false).map_err(io_proto)?;
                    stream.set_nodelay(true).map_err(io_proto)?;
                    return Ok(Some(TcpServerConn {
                        stream,
                        peer: peer.to_string(),
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(io_proto(e)),
            }
        }
    }

    fn endpoint(&self) -> String {
        self.endpoint.clone()
    }
}

impl Connection for TcpServerConn {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Vec<u8>>, ProtoError> {
        // Poll for the first byte with a short timeout, then allow the
        // rest of the frame a generous one: a slow sender mid-frame is
        // not the same as an idle connection.
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(io_proto)?;
        let mut first = [0u8; 1];
        match self.stream.read(&mut first) {
            Ok(0) => return Err(ProtoError::ConnectionClosed),
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Ok(None)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => return Ok(None),
            Err(e) => return Err(io_proto(e)),
        }
        self.stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .map_err(io_proto)?;
        read_frame_after(first[0], &mut self.stream).map(Some)
    }

    fn send(&mut self, frame: &[u8]) -> Result<(), ProtoError> {
        write_frame(&mut self.stream, frame)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

impl TcpClient {
    /// Connect to a serving endpoint (`host:port`).
    pub fn connect(addr: &str) -> Result<Self, ProtoError> {
        let stream = TcpStream::connect(addr).map_err(io_proto)?;
        stream.set_nodelay(true).map_err(io_proto)?;
        Ok(TcpClient { stream })
    }
}

impl crate::proto::CommandChannel for TcpClient {
    fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, ProtoError> {
        write_frame(&mut self.stream, frame)?;
        match read_frame(&mut self.stream)? {
            Some(resp) => Ok(resp),
            None => Err(ProtoError::ConnectionClosed),
        }
    }
}

// ---------------------------------------------------------------------------
// Clock and per-tenant token buckets
// ---------------------------------------------------------------------------

/// The clock quota refill runs on. It also drives the batch window's
/// deadline and the latency stamps (queue wait, service, end to end)
/// that the histograms and the flight recorder hold. Production uses
/// wall time; tests and [`simulate`] use a manually advanced counter,
/// so refill, which jobs share a pass, and every recorded latency are
/// deterministic.
#[derive(Debug, Clone)]
pub enum ServeClock {
    /// Wall-clock time measured from the given epoch.
    Wall(Instant),
    /// Simulated time: a shared nanosecond counter the test advances.
    Manual(Arc<AtomicU64>),
}

impl ServeClock {
    /// A wall clock starting now.
    pub fn wall() -> Self {
        ServeClock::Wall(Instant::now())
    }

    /// A manual clock plus the handle that advances it (store
    /// nanoseconds with `SeqCst`).
    pub fn manual() -> (Self, Arc<AtomicU64>) {
        let handle = Arc::new(AtomicU64::new(0));
        (ServeClock::Manual(handle.clone()), handle)
    }

    /// Current time in nanoseconds since the clock's epoch.
    pub fn now_ns(&self) -> u64 {
        match self {
            ServeClock::Wall(epoch) => epoch.elapsed().as_nanos() as u64,
            ServeClock::Manual(t) => t.load(Ordering::SeqCst),
        }
    }
}

/// Per-tenant quota: every client id gets a token bucket holding up to
/// `burst` tokens, refilled continuously at `refill_per_sec`. Each
/// query costs one token (a batch of n costs n); non-query commands
/// are free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaConfig {
    /// Bucket capacity: the largest burst a tenant can issue at once.
    pub burst: f64,
    /// Continuous refill rate, tokens per second.
    pub refill_per_sec: f64,
}

/// One tenant's token bucket. It starts full, and a charge first
/// refills it for the time elapsed on the serve clock, capped at
/// `burst`, so a bucket made when its tenant registers behaves exactly
/// like one made at the tenant's first charge.
#[derive(Debug)]
struct TokenBucket {
    cfg: QuotaConfig,
    tokens: f64,
    last_ns: u64,
}

impl TokenBucket {
    fn new(cfg: QuotaConfig) -> Self {
        TokenBucket {
            cfg,
            tokens: cfg.burst,
            last_ns: 0,
        }
    }

    /// Try to charge `cost` tokens at time `now_ns`. Refills the bucket
    /// for the elapsed time first. Returns whether the charge
    /// succeeded; a failed charge takes nothing.
    fn try_take(&mut self, cost: u64, now_ns: u64) -> bool {
        let dt = now_ns.saturating_sub(self.last_ns) as f64 / 1e9;
        self.tokens = (self.tokens + dt * self.cfg.refill_per_sec).min(self.cfg.burst);
        self.last_ns = now_ns;
        let cost = cost as f64;
        if self.tokens + 1e-9 >= cost {
            self.tokens -= cost;
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Server configuration and statistics
// ---------------------------------------------------------------------------

/// Configuration for [`serve`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Capacity of the bounded pending-job queue. A full queue rejects
    /// with `Overloaded` instead of blocking the connection thread.
    pub queue_depth: usize,
    /// How long, on [`ServeConfig::clock`], the engine holds the first
    /// job of a batch open to let co-pending queries join the same
    /// flash pass. `None` coalesces only jobs that are already queued.
    pub batch_window: Option<Duration>,
    /// Per-tenant quotas; `None` admits everyone.
    pub quota: Option<QuotaConfig>,
    /// Poll interval for idle connections and the accept loop; bounds
    /// shutdown latency.
    pub poll: Duration,
    /// Artificial per-engine-pass service delay. Test-only knob that
    /// makes backpressure deterministic by slowing the consumer.
    pub engine_delay: Option<Duration>,
    /// The clock quota refill, the batch window and the latency stamps
    /// run on.
    pub clock: ServeClock,
    /// End-to-end p99 SLO in microseconds. When set, every completed
    /// query re-estimates the e2e p99; the first request that pushes it
    /// over the threshold triggers one flight-recorder dump (reason
    /// `slo_breach`), latched until the estimate recovers. `None`
    /// disables the check.
    pub slo_p99_us: Option<u64>,
    /// Flight-recorder ring capacity (recent request summaries).
    pub recorder_capacity: usize,
    /// Directory for automatic flight-recorder dumps (error responses
    /// and SLO breaches). `None` keeps dumps in memory only
    /// ([`ServeObs::auto_dumps`]).
    pub dump_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_depth: 64,
            batch_window: None,
            quota: None,
            poll: Duration::from_millis(2),
            engine_delay: None,
            clock: ServeClock::wall(),
            slo_p99_us: None,
            recorder_capacity: DEFAULT_RECORDER_CAPACITY,
            dump_dir: None,
        }
    }
}

metrics! {
    /// The serve layer's unlabelled metrics: admission control, engine
    /// passes and errors as counters, and the per-stage latency
    /// histograms.
    pub struct ServeMetrics {
        connections: Counter = "serve.connections",
        frames: Counter = "serve.frames",
        queries_admitted: Counter = "serve.queries_admitted",
        rejected_overloaded: Counter = "serve.rejected_overloaded",
        rejected_quota: Counter = "serve.rejected_quota",
        malformed_frames: Counter = "serve.malformed_frames",
        engine_batches: Counter = "serve.engine_batches",
        coalesced_queries: Counter = "serve.coalesced_queries",
        errors: Counter = "serve.errors",
        degraded_queries: Counter = "serve.degraded_queries",
        queue_ns: Histogram = "serve.queue_ns",
        service_ns: Histogram = "serve.service_ns",
        e2e_ns: Histogram = "serve.e2e_ns",
    }
}

/// A snapshot of the server's counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Connections accepted over the transport.
    pub connections: u64,
    /// Frames received across all connections.
    pub frames: u64,
    /// Individual queries admitted past admission control.
    pub queries_admitted: u64,
    /// Commands rejected because the pending queue was full.
    pub rejected_overloaded: u64,
    /// Commands rejected by per-tenant quota.
    pub rejected_quota: u64,
    /// Frames that failed to decode (answered with `Malformed`).
    pub malformed_frames: u64,
    /// Engine passes executed (each drains one job batch).
    pub engine_batches: u64,
    /// Queries that ran inside a merged multi-client flash pass.
    pub coalesced_queries: u64,
    /// Per-tenant admission breakdowns, sorted by client id (so equal
    /// workloads produce equal snapshots). Empty when the stats came
    /// from a context with no serving observability.
    pub per_tenant: Vec<TenantStats>,
}

/// Percentile summary of the serve layer's global stage histograms,
/// all in nanoseconds (recorded values are simulated-or-wall clock
/// depending on [`ServeConfig::clock`]).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StagePercentiles {
    /// Median admission-to-engine-pickup wait.
    pub queue_p50_ns: u64,
    /// p99 queue wait.
    pub queue_p99_ns: u64,
    /// Median engine service time.
    pub service_p50_ns: u64,
    /// p99 service time.
    pub service_p99_ns: u64,
    /// Median end-to-end latency from scheduled arrival.
    pub e2e_p50_ns: u64,
    /// p99 end-to-end latency.
    pub e2e_p99_ns: u64,
    /// Observations in the end-to-end histogram.
    pub samples: u64,
}

/// One tenant's admission-control counters inside [`ServerStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// The client id from the `hello` handshake (or the transport peer
    /// label for connections that never said hello).
    pub client: String,
    /// Queries admitted past admission control (a batch of n counts n).
    pub accepted: u64,
    /// Commands rejected because the pending queue was full.
    pub rejected_overloaded: u64,
    /// Commands rejected by this tenant's token bucket.
    pub rejected_quota: u64,
    /// Query commands answered with an error response.
    pub errors: u64,
    /// Queries answered with less than full coverage.
    pub degraded: u64,
}

// ---------------------------------------------------------------------------
// Serve-layer observability
// ---------------------------------------------------------------------------

metrics! {
    /// One tenant's serve metrics, rendered with a `{tenant="…"}` label.
    /// The counters are functional and written directly; the stage
    /// histograms go through `record`.
    struct TenantMetrics {
        accepted: Counter = "serve.tenant_accepted",
        rejected_overloaded: Counter = "serve.tenant_rejected_overloaded",
        rejected_quota: Counter = "serve.tenant_rejected_quota",
        errors: Counter = "serve.tenant_errors",
        degraded: Counter = "serve.tenant_degraded",
        queue_ns: Histogram = "serve.tenant_queue_ns",
        service_ns: Histogram = "serve.tenant_service_ns",
        e2e_ns: Histogram = "serve.tenant_e2e_ns",
    }
}

/// One tenant, registered under its client id in [`ServeObs`]: its
/// metric table and, under a [`ServeConfig::quota`], its token bucket.
/// Connections cache the `Arc`, so admission reaches both without a
/// lookup.
#[derive(Debug)]
struct Tenant {
    name: String,
    metrics: TenantMetrics,
    bucket: Option<Mutex<TokenBucket>>,
}

impl Tenant {
    /// Whether this tenant has ever had a query admitted or rejected.
    /// Connections register at hello time (or under their peer
    /// address before it), so purely administrative clients — `cli
    /// metrics` scrapers, stats pollers — would otherwise clutter every
    /// per-tenant listing with all-zero rows.
    fn has_admissions(&self) -> bool {
        let m = &self.metrics;
        m.accepted.get() + m.rejected_overloaded.get() + m.rejected_quota.get() > 0
    }

    fn stats(&self) -> TenantStats {
        let m = &self.metrics;
        TenantStats {
            client: self.name.clone(),
            accepted: m.accepted.get(),
            rejected_overloaded: m.rejected_overloaded.get(),
            rejected_quota: m.rejected_quota.get(),
            errors: m.errors.get(),
            degraded: m.degraded.get(),
        }
    }
}

/// The server's observability state: the serve metric table, the
/// tenant registry, the flight recorder, the request-id allocator,
/// and the SLO breach latch.
#[derive(Debug)]
pub struct ServeObs {
    metrics: ServeMetrics,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
    /// The quota each newly registered tenant's bucket starts with.
    quota: Option<QuotaConfig>,
    recorder: FlightRecorder,
    next_request_id: AtomicU64,
    slo_p99_ns: Option<u64>,
    slo_breached: AtomicBool,
    /// Recent automatic dumps, newest last: `(reason, json)`.
    dumps: Mutex<Vec<(String, String)>>,
    dump_dir: Option<PathBuf>,
    dump_seq: AtomicU64,
}

/// In-memory automatic dumps kept per server (oldest evicted first).
const MAX_AUTO_DUMPS: usize = 8;

impl ServeObs {
    fn new(cfg: &ServeConfig) -> Self {
        ServeObs {
            metrics: ServeMetrics::new(),
            tenants: Mutex::new(BTreeMap::new()),
            quota: cfg.quota,
            recorder: FlightRecorder::new(cfg.recorder_capacity),
            next_request_id: AtomicU64::new(0),
            slo_p99_ns: cfg.slo_p99_us.map(|us| us.saturating_mul(1000)),
            slo_breached: AtomicBool::new(false),
            dumps: Mutex::new(Vec::new()),
            dump_dir: cfg.dump_dir.clone(),
            dump_seq: AtomicU64::new(0),
        }
    }

    /// A fresh, non-zero request id (0 on the wire means "unassigned").
    fn assign_request_id(&self) -> u64 {
        self.next_request_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The tenant registered under `name`, registering it on first
    /// use. Takes the registry lock; callers cache the handle per
    /// connection, so this runs at hello time, not per request.
    fn tenant(&self, name: &str) -> Arc<Tenant> {
        let mut map = self.tenants.lock().expect("tenant map lock poisoned");
        map.entry(name.to_string())
            .or_insert_with(|| {
                Arc::new(Tenant {
                    name: name.to_string(),
                    metrics: TenantMetrics::new(),
                    bucket: self.quota.map(|q| Mutex::new(TokenBucket::new(q))),
                })
            })
            .clone()
    }

    /// Records an admission-control rejection of a query command.
    fn record_rejection(
        &self,
        tenant: &Tenant,
        outcome: RequestOutcome,
        request_id: u64,
        queries: u64,
        sched_lag_ns: u64,
    ) {
        self.remember(RequestSummary {
            seq: 0,
            request_id,
            tenant: tenant.name.clone(),
            queries,
            queue_ns: 0,
            service_ns: 0,
            e2e_ns: sched_lag_ns,
            coverage_milli: 0,
            outcome,
        });
    }

    /// Records a completed query pass: latency histograms (global and
    /// per-tenant), error/degraded counters, the flight-recorder entry,
    /// and the error/SLO dump triggers.
    #[allow(clippy::too_many_arguments)]
    fn record_done(
        &self,
        tenant: &Tenant,
        request_id: u64,
        queries: u64,
        queue_ns: u64,
        service_ns: u64,
        e2e_ns: u64,
        coverage_milli: u64,
        outcome: RequestOutcome,
    ) {
        match outcome {
            RequestOutcome::Error => {
                self.metrics.errors.incr();
                tenant.metrics.errors.incr();
            }
            RequestOutcome::Degraded => {
                self.metrics.degraded_queries.add(queries);
                tenant.metrics.degraded.add(queries);
            }
            _ => {}
        }
        self.metrics.queue_ns.record(queue_ns);
        self.metrics.service_ns.record(service_ns);
        self.metrics.e2e_ns.record(e2e_ns);
        tenant.metrics.queue_ns.record(queue_ns);
        tenant.metrics.service_ns.record(service_ns);
        tenant.metrics.e2e_ns.record(e2e_ns);
        self.remember(RequestSummary {
            seq: 0,
            request_id,
            tenant: tenant.name.clone(),
            queries,
            queue_ns,
            service_ns,
            e2e_ns,
            coverage_milli,
            outcome,
        });
    }

    /// Writes one request summary to the flight recorder, then fires
    /// the dump triggers: an error dumps, and a completed request
    /// re-checks the SLO.
    fn remember(&self, summary: RequestSummary) {
        let outcome = summary.outcome;
        self.recorder.record(summary);
        match outcome {
            RequestOutcome::Error => {
                self.auto_dump("error");
                self.check_slo();
            }
            RequestOutcome::Ok | RequestOutcome::Degraded => self.check_slo(),
            RequestOutcome::Overloaded | RequestOutcome::QuotaExceeded => {}
        }
    }

    /// Re-estimates the end-to-end p99 and latches a one-shot
    /// `slo_breach` dump when it crosses the configured threshold. The
    /// latch re-arms once the estimate recovers, so a sustained breach
    /// dumps once, not per request.
    fn check_slo(&self) {
        let Some(slo_ns) = self.slo_p99_ns else {
            return;
        };
        let p99 = self.metrics.e2e_ns.percentile(99.0);
        if p99 > slo_ns {
            if !self.slo_breached.swap(true, Ordering::Relaxed) {
                self.auto_dump("slo_breach");
            }
        } else {
            self.slo_breached.store(false, Ordering::Relaxed);
        }
    }

    /// Takes a dump and retains it (memory-capped; optionally a file
    /// under [`ServeConfig::dump_dir`]).
    fn auto_dump(&self, reason: &str) {
        let json = self.recorder.dump(reason);
        if let Some(dir) = &self.dump_dir {
            let seq = self.dump_seq.fetch_add(1, Ordering::Relaxed);
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(
                dir.join(format!("flightdump-{seq:03}-{reason}.json")),
                &json,
            );
        }
        let mut dumps = self.dumps.lock().expect("dump store lock poisoned");
        if dumps.len() >= MAX_AUTO_DUMPS {
            dumps.remove(0);
        }
        dumps.push((reason.to_string(), json));
    }

    /// The flight recorder's current ring as deterministic JSON
    /// (the explicit, SIGUSR1-style dump).
    #[must_use]
    pub fn explicit_dump(&self) -> String {
        self.recorder.dump("explicit")
    }

    /// Automatic dumps taken so far (error responses and SLO breaches),
    /// oldest first: `(reason, json)` pairs.
    #[must_use]
    pub fn auto_dumps(&self) -> Vec<(String, String)> {
        self.dumps.lock().expect("dump store lock poisoned").clone()
    }

    /// Percentile summary of the per-stage histograms.
    #[must_use]
    pub fn stage_percentiles(&self) -> StagePercentiles {
        let m = &self.metrics;
        StagePercentiles {
            queue_p50_ns: m.queue_ns.percentile(50.0),
            queue_p99_ns: m.queue_ns.percentile(99.0),
            service_p50_ns: m.service_ns.percentile(50.0),
            service_p99_ns: m.service_ns.percentile(99.0),
            e2e_p50_ns: m.e2e_ns.percentile(50.0),
            e2e_p99_ns: m.e2e_ns.percentile(99.0),
            samples: m.e2e_ns.count(),
        }
    }

    fn tenant_list(&self) -> Vec<Arc<Tenant>> {
        self.tenants
            .lock()
            .expect("tenant map lock poisoned")
            .values()
            .filter(|t| t.has_admissions())
            .cloned()
            .collect()
    }

    fn server_stats(&self) -> ServerStats {
        let m = &self.metrics;
        ServerStats {
            connections: m.connections.get(),
            frames: m.frames.get(),
            queries_admitted: m.queries_admitted.get(),
            rejected_overloaded: m.rejected_overloaded.get(),
            rejected_quota: m.rejected_quota.get(),
            malformed_frames: m.malformed_frames.get(),
            engine_batches: m.engine_batches.get(),
            coalesced_queries: m.coalesced_queries.get(),
            per_tenant: self.tenant_list().iter().map(|t| t.stats()).collect(),
        }
    }

    /// Renders the serve-layer half of the Prometheus exposition page:
    /// the serve metric table, then each row of the tenant table as one
    /// series per tenant under a single `# TYPE` header. Deterministic
    /// for equal workloads (tenants render in client-id order).
    fn render_exposition(&self) -> String {
        let mut out = render_text(&self.metrics.snapshot(), "deepstore_");
        let tenants: Vec<(String, MetricsSnapshot)> = self
            .tenant_list()
            .iter()
            .map(|t| {
                let label = format!("tenant=\"{}\"", label_escape(&t.name));
                (label, t.metrics.snapshot())
            })
            .collect();
        let Some((_, rows)) = tenants.first() else {
            return out;
        };
        let full = |name: &str| format!("deepstore_{}", sanitize_name(name));
        for (i, row) in rows.counters.iter().enumerate() {
            let full = full(&row.name);
            out.push_str(&format!("# TYPE {full} counter\n"));
            for (label, snap) in &tenants {
                out.push_str(&format!("{full}{{{label}}} {}\n", snap.counters[i].value));
            }
        }
        for (i, row) in rows.histograms.iter().enumerate() {
            let full = full(&row.name);
            out.push_str(&format!("# TYPE {full} histogram\n"));
            for (label, snap) in &tenants {
                deepstore_obs::histo::render_histogram_series(
                    &mut out,
                    &full,
                    label,
                    &snap.histograms[i],
                );
            }
        }
        out
    }
}

/// Escapes a string for use inside a Prometheus label value.
fn label_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

struct Job {
    cmd: Command,
    reply: Sender<Response>,
    /// The end-to-end trace id (assigned at admission when the frame
    /// arrived with 0).
    request_id: u64,
    /// The issuing tenant.
    tenant: Arc<Tenant>,
    /// Admission timestamp on the serve clock ([`ServeClock::now_ns`]).
    admitted_ns: u64,
    /// Scheduled-arrival lag carried in the frame.
    sched_lag_ns: u64,
}

impl Job {
    /// A job for `cmd`, admitted at `admitted_ns`, plus the receiver its
    /// response arrives on. A query that arrived without a request id
    /// gets one here, so every query pass is joinable across the
    /// response frame, the engine trace, and the flight recorder.
    fn new(
        mut cmd: Command,
        obs: &ServeObs,
        tenant: Arc<Tenant>,
        admitted_ns: u64,
    ) -> (Job, Receiver<Response>) {
        if cmd.request_id() == Some(0) {
            cmd.set_request_id(obs.assign_request_id());
        }
        let (reply, rx) = mpsc::channel();
        let job = Job {
            request_id: cmd.request_id().unwrap_or(0),
            sched_lag_ns: cmd.sched_lag_ns(),
            cmd,
            reply,
            tenant,
            admitted_ns,
        };
        (job, rx)
    }
}

struct Shared {
    jobs: SyncSender<Job>,
    clock: ServeClock,
    obs: Arc<ServeObs>,
    shutdown: Arc<AtomicBool>,
    poll: Duration,
    queue_depth: usize,
}

impl Shared {
    /// Run admission control and enqueue; on rejection, the error to
    /// answer with instead.
    fn admit(&self, job: Job) -> Result<(), DeepStoreError> {
        let cost = job.cmd.query_cost();
        let tenant = job.tenant.clone();
        if cost > 0 {
            if let Some(bucket) = &tenant.bucket {
                let now = self.clock.now_ns();
                if !bucket
                    .lock()
                    .expect("quota lock poisoned")
                    .try_take(cost, now)
                {
                    self.obs.metrics.rejected_quota.incr();
                    tenant.metrics.rejected_quota.incr();
                    self.obs.record_rejection(
                        &tenant,
                        RequestOutcome::QuotaExceeded,
                        job.request_id,
                        cost,
                        job.sched_lag_ns,
                    );
                    return Err(DeepStoreError::QuotaExceeded {
                        client: tenant.name.clone(),
                    });
                }
            }
        }
        let (request_id, sched_lag_ns) = (job.request_id, job.sched_lag_ns);
        match self.jobs.try_send(job) {
            Ok(()) => {
                self.obs.metrics.queries_admitted.add(cost);
                tenant.metrics.accepted.add(cost);
                Ok(())
            }
            Err(TrySendError::Full(_)) => {
                self.obs.metrics.rejected_overloaded.incr();
                tenant.metrics.rejected_overloaded.incr();
                if cost > 0 {
                    self.obs.record_rejection(
                        &tenant,
                        RequestOutcome::Overloaded,
                        request_id,
                        cost,
                        sched_lag_ns,
                    );
                }
                Err(DeepStoreError::Overloaded {
                    queue_depth: self.queue_depth as u64,
                })
            }
            Err(TrySendError::Disconnected(_)) => Err(DeepStoreError::Remote(
                "server is shutting down".to_string(),
            )),
        }
    }
}

fn conn_loop<C: Connection>(mut conn: C, shared: Arc<Shared>) {
    let mut tenant = shared.obs.tenant(&conn.peer());
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let frame = match conn.recv_timeout(shared.poll) {
            Ok(None) => continue,
            Ok(Some(frame)) => frame,
            Err(ProtoError::ConnectionClosed) => return,
            Err(e) => {
                // A framing error mid-stream leaves the byte stream
                // unsynchronized: answer with a typed error, then hang
                // up rather than misparse everything that follows.
                shared.obs.metrics.malformed_frames.incr();
                let resp = Response::Error(DeepStoreError::Malformed(e.to_string()));
                let _ = conn.send(&encode_response(&resp));
                return;
            }
        };
        shared.obs.metrics.frames.incr();
        let resp = match decode_command(&frame) {
            Err(e) => {
                shared.obs.metrics.malformed_frames.incr();
                Response::Error(DeepStoreError::Malformed(e.to_string()))
            }
            Ok(Command::Hello { client, version }) => {
                let resp = answer_hello(client, version);
                if let Response::HelloAck { client, .. } = &resp {
                    tenant = shared.obs.tenant(client);
                }
                resp
            }
            Ok(cmd) => {
                let now = shared.clock.now_ns();
                let (job, reply) = Job::new(cmd, &shared.obs, tenant.clone(), now);
                match shared.admit(job) {
                    Err(rejection) => Response::Error(rejection),
                    Ok(()) => reply.recv().unwrap_or_else(|_| {
                        Response::Error(DeepStoreError::Remote(
                            "server dropped the request".to_string(),
                        ))
                    }),
                }
            }
        };
        if conn.send(&encode_response(&resp)).is_err() {
            return;
        }
    }
}

/// The threaded driver: drain the job queue until every sender is
/// gone, one [`engine_pass`] per batch. Returns the device so the
/// caller can recover the store after shutdown.
///
/// A pass takes the head job plus every job already queued, then, with
/// a [`ServeConfig::batch_window`], every job admitted before the
/// window's deadline on [`ServeConfig::clock`]. A wall clock sleeps to
/// the deadline; a manual clock only moves when its driver advances
/// it, so the deadline is re-checked every [`ServeConfig::poll`].
fn engine_loop(
    rx: Receiver<Job>,
    mut device: Device,
    cfg: ServeConfig,
    obs: Arc<ServeObs>,
) -> Device {
    let window_ns = cfg.batch_window.map(duration_ns);
    while let Ok(first) = rx.recv() {
        let mut jobs = vec![first];
        while let Ok(job) = rx.try_recv() {
            jobs.push(job);
        }
        if let Some(window_ns) = window_ns {
            let deadline = cfg.clock.now_ns().saturating_add(window_ns);
            while let Some(left) = deadline.checked_sub(cfg.clock.now_ns()).filter(|&l| l > 0) {
                let wait = match cfg.clock {
                    ServeClock::Wall(_) => Duration::from_nanos(left),
                    ServeClock::Manual(_) => cfg.poll,
                };
                match rx.recv_timeout(wait) {
                    Ok(job) => jobs.push(job),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        }
        if let Some(delay) = cfg.engine_delay {
            thread::sleep(delay);
        }
        // Queue wait ends here for every job in the batch; service time
        // starts. One stamp per batch keeps merged jobs comparable.
        let picked_ns = cfg.clock.now_ns();
        engine_pass(jobs, &mut device, &obs, picked_ns, |_, _| {
            cfg.clock.now_ns()
        });
    }
    device
}

/// One engine pass, shared by [`serve`] and [`simulate`]: merge the
/// co-pending query jobs into one engine batch, answer every job on its
/// reply channel, and record each query job into `obs`. `picked_ns` is
/// the pass's start on the serve clock; `stamp_done` stamps each job's
/// completion, in job order, just before it is recorded.
fn engine_pass(
    jobs: Vec<Job>,
    device: &mut Device,
    obs: &ServeObs,
    picked_ns: u64,
    mut stamp_done: impl FnMut(&Device, &Response) -> u64,
) {
    obs.metrics.engine_batches.incr();

    let mut replies: Vec<Option<Response>> = (0..jobs.len()).map(|_| None).collect();
    let query_jobs: Vec<usize> = jobs
        .iter()
        .enumerate()
        .filter(|(_, j)| j.cmd.query_cost() > 0)
        .map(|(i, _)| i)
        .collect();
    if query_jobs.len() >= 2 {
        // Merge every co-pending query into one engine batch; the
        // engine groups by (db, model, level) internally and
        // answers each request exactly as if issued alone. Request
        // ids ride along so the merged trace stays joinable per
        // originating frame.
        let mut all: Vec<QueryRequest> = Vec::new();
        let mut rids: Vec<u64> = Vec::new();
        let mut spans: Vec<(usize, usize, usize, bool)> = Vec::new();
        for &i in &query_jobs {
            match &jobs[i].cmd {
                Command::Query {
                    qfv,
                    k,
                    model,
                    db,
                    level,
                    exact,
                    ..
                } => {
                    spans.push((i, all.len(), 1, true));
                    let mut req = QueryRequest::new(qfv.clone(), *model, *db)
                        .k(*k)
                        .level(*level);
                    req.exact = *exact;
                    all.push(req);
                    rids.push(jobs[i].request_id);
                }
                Command::QueryBatch { requests, .. } => {
                    spans.push((i, all.len(), requests.len(), false));
                    all.extend(requests.iter().cloned());
                    rids.extend(std::iter::repeat_n(jobs[i].request_id, requests.len()));
                }
                _ => unreachable!("query_cost > 0 only for query commands"),
            }
        }
        if let Ok(ids) = device.store_mut().query_batch_tagged(&all, &rids) {
            obs.metrics.coalesced_queries.add(all.len() as u64);
            for (i, start, len, single) in spans {
                replies[i] = Some(if single {
                    Response::QuerySubmitted {
                        id: ids[start],
                        request_id: jobs[i].request_id,
                    }
                } else {
                    Response::BatchSubmitted {
                        ids: ids[start..start + len].to_vec(),
                        request_id: jobs[i].request_id,
                    }
                });
            }
        }
        // On a merged-batch error fall through: each job is
        // dispatched alone below, so only the offending client
        // sees its (typed) error.
    }
    for (i, job) in jobs.into_iter().enumerate() {
        let Job {
            cmd,
            reply,
            request_id,
            tenant,
            admitted_ns,
            sched_lag_ns,
        } = job;
        let queries = cmd.query_cost();
        let mut resp = match replies[i].take() {
            Some(resp) => resp,
            None => match cmd {
                // The flight recorder lives at the serve layer, so
                // answer dump requests here rather than in the
                // (recorder-less) device dispatch.
                Command::Dump => Response::Dump {
                    json: obs.explicit_dump(),
                },
                cmd => device.dispatch(cmd),
            },
        };
        match &mut resp {
            Response::Stats { server, .. } => *server = Some(obs.server_stats()),
            Response::Metrics { text } => text.push_str(&obs.render_exposition()),
            _ => {}
        }
        let done_ns = stamp_done(device, &resp);
        if queries > 0 {
            let (outcome, coverage_milli) = query_outcome(device, &resp);
            obs.record_done(
                &tenant,
                request_id,
                queries,
                picked_ns.saturating_sub(admitted_ns),
                done_ns.saturating_sub(picked_ns),
                sched_lag_ns.saturating_add(done_ns.saturating_sub(admitted_ns)),
                coverage_milli,
                outcome,
            );
        }
        let _ = reply.send(resp);
    }
}

/// A duration in whole nanoseconds, saturating.
fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The query ids a query job's response carries: none for an error.
fn submitted_ids(resp: &Response) -> &[QueryId] {
    match resp {
        Response::QuerySubmitted { id, .. } => std::slice::from_ref(id),
        Response::BatchSubmitted { ids, .. } => ids,
        _ => &[],
    }
}

/// Classifies a query job's response for the flight recorder: the
/// outcome plus the worst per-query coverage in milli-units (1000 =
/// full coverage).
fn query_outcome(device: &Device, resp: &Response) -> (RequestOutcome, u64) {
    let ids = submitted_ids(resp);
    if ids.is_empty() {
        return (RequestOutcome::Error, 0);
    }
    let mut worst = 1000u64;
    let mut degraded = false;
    for id in ids {
        if let Some(r) = device.store().peek_results(*id) {
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let milli = (r.coverage * 1000.0).round() as u64;
            worst = worst.min(milli);
            degraded |= r.degraded;
        }
    }
    if degraded {
        (RequestOutcome::Degraded, worst)
    } else {
        (RequestOutcome::Ok, worst)
    }
}

/// A running server. Dropping the handle shuts the server down;
/// [`shutdown`](ServerHandle::shutdown) does so explicitly and hands
/// back the engine.
pub struct ServerHandle {
    shutdown: Arc<AtomicBool>,
    accept: Option<thread::JoinHandle<()>>,
    engine: Option<thread::JoinHandle<Device>>,
    obs: Arc<ServeObs>,
    endpoint: String,
}

impl ServerHandle {
    /// Where the server listens (e.g. `127.0.0.1:43017`).
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// A live snapshot of the server counters, including per-tenant
    /// admission breakdowns.
    pub fn stats(&self) -> ServerStats {
        self.obs.server_stats()
    }

    /// The serve-layer observability sink: stage histograms, per-tenant
    /// counters, and the flight recorder.
    pub fn obs(&self) -> &ServeObs {
        &self.obs
    }

    /// Stop accepting, let in-flight jobs drain (every admitted job is
    /// answered before its connection closes), and recover the store.
    pub fn shutdown(mut self) -> (DeepStore, ServerStats) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let device = self
            .engine
            .take()
            .expect("engine thread taken twice")
            .join()
            .expect("engine thread panicked");
        (device.into_store(), self.obs.server_stats())
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        if let Some(engine) = self.engine.take() {
            let _ = engine.join();
        }
    }
}

/// Start serving `store` over `transport`.
///
/// Each accepted connection gets its own thread running a
/// receive/decode/admit/reply loop; one engine thread owns the
/// [`Device`] and executes admitted jobs, merging co-pending queries
/// into shared flash passes. Shutdown order guarantees draining: the
/// flag stops connection threads at a frame boundary (after their
/// in-flight reply), the accept thread joins them, and only then do
/// the queue's senders drop — so the engine sees and answers every
/// admitted job before exiting.
pub fn serve<T: Transport>(mut transport: T, store: DeepStore, cfg: ServeConfig) -> ServerHandle {
    let obs = Arc::new(ServeObs::new(&cfg));
    let shutdown = Arc::new(AtomicBool::new(false));
    let endpoint = transport.endpoint();
    let (jobs_tx, jobs_rx) = mpsc::sync_channel(cfg.queue_depth);

    let engine_obs = obs.clone();
    let engine_cfg = cfg.clone();
    let device = Device::with_store(store);
    let engine = thread::spawn(move || engine_loop(jobs_rx, device, engine_cfg, engine_obs));

    let shared = Arc::new(Shared {
        jobs: jobs_tx,
        clock: cfg.clock.clone(),
        obs: obs.clone(),
        shutdown: shutdown.clone(),
        poll: cfg.poll,
        queue_depth: cfg.queue_depth,
    });
    let accept_shutdown = shutdown.clone();
    let accept = thread::spawn(move || {
        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        while !accept_shutdown.load(Ordering::SeqCst) {
            match transport.accept_timeout(shared.poll) {
                Ok(Some(conn)) => {
                    shared.obs.metrics.connections.incr();
                    let conn_shared = shared.clone();
                    conns.push(thread::spawn(move || conn_loop(conn, conn_shared)));
                }
                Ok(None) => {}
                Err(_) => break,
            }
        }
        drop(transport);
        drop(shared);
        for conn in conns {
            let _ = conn.join();
        }
    });

    ServerHandle {
        shutdown,
        accept: Some(accept),
        engine: Some(engine),
        obs,
        endpoint,
    }
}

/// What [`simulate`] hands back.
#[derive(Debug)]
pub struct Simulation {
    /// The store, after the last pass.
    pub store: DeepStore,
    /// Each job's response, in arrival order.
    pub responses: Vec<Response>,
    /// Each job's `(arrival, start, done)` in simulated ns, in arrival
    /// order: when it arrived, when its pass started, when it completed.
    pub times: Vec<(u64, u64, u64)>,
    /// The server counters (engine passes, coalesced queries, ...).
    pub stats: ServerStats,
    /// Stage histograms and the flight recorder, in simulated ns.
    pub obs: ServeObs,
}

/// Run `arrivals`, `(arrival_ns, command)` pairs in non-decreasing
/// order, through the serve engine's own pass on a simulated clock, on
/// the calling thread: the discrete-event twin of [`serve`].
///
/// A pass starts at `max(fabric_free, head arrival) + batch_window` and
/// takes every job that has arrived by then. A query job completes at
/// that start plus its result's simulated `elapsed` (the slowest, for a
/// batch); any other job completes at the start. The fabric frees at
/// the pass's latest completion, so a regular `readDB`/`appendDB`
/// arriving mid-pass starts when the pass ends: the §4.5 busy signal.
///
/// `cfg.clock` is replaced by a manual clock set to each pass's start
/// and then to each job's completion before that job is recorded, so
/// the run is deterministic. Every job is admitted, as the tenant
/// `simulate`; queue depth, quotas and `engine_delay` do not apply.
///
/// # Panics
///
/// Panics if the arrivals are out of order.
pub fn simulate(
    store: DeepStore,
    mut cfg: ServeConfig,
    arrivals: Vec<(u64, Command)>,
) -> Simulation {
    assert!(
        arrivals.windows(2).all(|w| w[0].0 <= w[1].0),
        "arrivals must be in non-decreasing order"
    );
    let (clock, now) = ServeClock::manual();
    cfg.clock = clock;
    let window_ns = cfg.batch_window.map_or(0, duration_ns);
    let obs = ServeObs::new(&cfg);
    let tenant = obs.tenant("simulate");
    let mut device = Device::with_store(store);
    let (mut responses, mut times) = (Vec::new(), Vec::new());
    let mut fabric_free = 0;
    let mut arrivals = arrivals.into_iter().peekable();
    while let Some(&(head_ns, _)) = arrivals.peek() {
        let start = fabric_free.max(head_ns).saturating_add(window_ns);
        now.store(start, Ordering::SeqCst);
        let (mut jobs, mut replies) = (Vec::new(), Vec::new());
        while let Some((arrival, cmd)) = arrivals.next_if(|(a, _)| *a <= start) {
            let cost = cmd.query_cost();
            obs.metrics.queries_admitted.add(cost);
            tenant.metrics.accepted.add(cost);
            let (job, reply) = Job::new(cmd, &obs, tenant.clone(), arrival);
            jobs.push(job);
            replies.push((arrival, reply));
        }
        let mut dones = Vec::with_capacity(jobs.len());
        engine_pass(jobs, &mut device, &obs, start, |device, resp| {
            let done = submitted_ids(resp)
                .iter()
                .filter_map(|id| device.store().peek_results(*id))
                .map(|r| start + r.elapsed.as_nanos())
                .fold(start, u64::max);
            now.store(done, Ordering::SeqCst);
            dones.push(done);
            done
        });
        for ((arrival, reply), done) in replies.into_iter().zip(dones) {
            fabric_free = fabric_free.max(done);
            times.push((arrival, start, done));
            responses.push(reply.recv().expect("every job is answered in its pass"));
        }
    }
    Simulation {
        store: device.into_store(),
        responses,
        times,
        stats: obs.server_stats(),
        obs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::QueryId;
    use crate::config::{AcceleratorLevel, DeepStoreConfig};
    use crate::proto::HostClient;
    use deepstore_nn::{zoo, ModelGraph, Tensor};

    fn seeded_store(n: usize) -> (DeepStore, Vec<Tensor>) {
        let model = zoo::textqa().seeded(3);
        let features: Vec<Tensor> = (0..n).map(|i| model.random_feature(i as u64)).collect();
        let mut store = DeepStore::in_memory(DeepStoreConfig::small());
        store.disable_qc();
        store.write_db(&features).unwrap();
        store.load_model(&ModelGraph::from_model(&model)).unwrap();
        (store, features)
    }

    fn probe(i: u64) -> Tensor {
        zoo::textqa().seeded(3).random_feature(10_000 + i)
    }

    #[test]
    fn token_bucket_refill_is_deterministic_on_simulated_time() {
        let obs = ServeObs::new(&ServeConfig {
            quota: Some(QuotaConfig {
                burst: 2.0,
                refill_per_sec: 1.0,
            }),
            ..ServeConfig::default()
        });
        let try_take = |client: &str, cost: u64, now_ns: u64| {
            let bucket = obs
                .tenant(client)
                .bucket
                .as_ref()
                .map(|b| b.lock().unwrap().try_take(cost, now_ns));
            bucket.expect("a quota gives every tenant a bucket")
        };
        // Burst of 2 at t=0, third rejected.
        assert!(try_take("a", 1, 0));
        assert!(try_take("a", 1, 0));
        assert!(!try_take("a", 1, 0));
        // Half a second refills half a token: still rejected.
        assert!(!try_take("a", 1, 500_000_000));
        // The next half second completes the token — and the sequence
        // is identical every run because time is simulated.
        assert!(try_take("a", 1, 1_000_000_000));
        assert!(!try_take("a", 1, 1_000_000_000));
        // Refill caps at burst: a long sleep does not bank extra.
        assert!(try_take("a", 2, 60_000_000_000));
        assert!(!try_take("a", 1, 60_000_000_000));
        // Tenants are independent.
        assert!(try_take("b", 2, 60_000_000_000));
    }

    #[test]
    fn a_tenant_name_maps_to_one_record() {
        let obs = ServeObs::new(&ServeConfig::default());
        let a = obs.tenant("a");
        assert!(Arc::ptr_eq(&a, &obs.tenant("a")));
        assert!(!Arc::ptr_eq(&a, &obs.tenant("b")));
        assert!(a.bucket.is_none(), "no quota, no bucket");
    }

    #[test]
    fn queue_full_returns_overloaded_not_a_hang() {
        let (jobs, _rx) = mpsc::sync_channel(1);
        let obs = Arc::new(ServeObs::new(&ServeConfig::default()));
        let tenant = obs.tenant("a");
        let shared = Shared {
            jobs,
            clock: ServeClock::wall(),
            obs,
            shutdown: Arc::new(AtomicBool::new(false)),
            poll: Duration::from_millis(1),
            queue_depth: 1,
        };
        let job = |cmd: Command| {
            let (tx, _rx2) = mpsc::channel();
            Job {
                cmd,
                reply: tx,
                request_id: 0,
                tenant: tenant.clone(),
                admitted_ns: 0,
                sched_lag_ns: 0,
            }
        };
        // _rx never drains, so the second admit must reject — not block.
        assert!(shared.admit(job(Command::Stats)).is_ok());
        match shared.admit(job(Command::Stats)) {
            Err(DeepStoreError::Overloaded { queue_depth }) => assert_eq!(queue_depth, 1),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(shared.obs.server_stats().rejected_overloaded, 1);
    }

    #[test]
    fn quota_rejection_over_the_wire_is_deterministic() {
        let (store, _) = seeded_store(16);
        let (clock, _time) = ServeClock::manual();
        let (transport, connector) = channel_transport();
        let handle = serve(
            transport,
            store,
            ServeConfig {
                quota: Some(QuotaConfig {
                    burst: 2.0,
                    refill_per_sec: 0.0,
                }),
                clock,
                ..ServeConfig::default()
            },
        );

        let mut host = HostClient::over(connector.connect().unwrap());
        host.hello("tenant-a").unwrap();
        // A second connection under the same tenant shares its bucket:
        // one query from each spends the burst of 2.
        let mut again = HostClient::over(connector.connect().unwrap());
        again.hello("tenant-a").unwrap();
        let (mid, db) = (crate::api::ModelId(1), crate::engine::DbId(1));
        for (i, client) in [&mut host, &mut again].into_iter().enumerate() {
            client
                .query(&probe(i as u64), 3, mid, db, AcceleratorLevel::Ssd, false)
                .unwrap();
        }
        // Third query: bucket empty, refill zero — always rejected.
        let err = host
            .query(&probe(2), 3, mid, db, AcceleratorLevel::Ssd, false)
            .unwrap_err();
        assert!(err.is_rejection());
        assert_eq!(
            err.device_error(),
            Some(crate::error::DeepStoreError::QuotaExceeded {
                client: "tenant-a".to_string()
            })
        );
        // A different tenant still has its full burst.
        let mut other = HostClient::over(connector.connect().unwrap());
        other.hello("tenant-b").unwrap();
        other
            .query(&probe(3), 3, mid, db, AcceleratorLevel::Ssd, false)
            .unwrap();

        let (_store, stats) = handle.shutdown();
        assert_eq!(stats.rejected_quota, 1);
        assert_eq!(stats.queries_admitted, 3);
        // Both `tenant-a` connections count in one `per_tenant` row.
        let rows: Vec<(&str, u64, u64)> = stats
            .per_tenant
            .iter()
            .map(|t| (t.client.as_str(), t.accepted, t.rejected_quota))
            .collect();
        assert_eq!(rows, [("tenant-a", 2, 1), ("tenant-b", 1, 0)]);
    }

    #[test]
    fn overload_backpressure_answers_every_request() {
        let (store, _) = seeded_store(16);
        let (transport, connector) = channel_transport();
        let handle = serve(
            transport,
            store,
            ServeConfig {
                queue_depth: 1,
                engine_delay: Some(Duration::from_millis(40)),
                ..ServeConfig::default()
            },
        );
        let (mid, db) = (crate::api::ModelId(1), crate::engine::DbId(1));
        let mut workers = Vec::new();
        for c in 0..4u64 {
            let conn = connector.connect().unwrap();
            workers.push(thread::spawn(move || {
                let mut host = HostClient::over(conn);
                host.hello(&format!("t{c}")).unwrap();
                let mut ok = 0u64;
                let mut rejected = 0u64;
                for i in 0..4u64 {
                    match host.query(&probe(c * 10 + i), 2, mid, db, AcceleratorLevel::Ssd, false) {
                        Ok(_) => ok += 1,
                        Err(e) => {
                            assert!(e.is_rejection(), "unexpected error: {e:?}");
                            rejected += 1;
                        }
                    }
                }
                (ok, rejected)
            }));
        }
        let mut total_ok = 0;
        let mut total_rejected = 0;
        for w in workers {
            let (ok, rejected) = w.join().unwrap();
            total_ok += ok;
            total_rejected += rejected;
        }
        // Every request was answered — success or a typed rejection,
        // never a hang — and the slow engine forced real backpressure.
        assert_eq!(total_ok + total_rejected, 16);
        let (_store, stats) = handle.shutdown();
        assert!(
            stats.rejected_overloaded >= 1,
            "expected backpressure, stats = {stats:?}"
        );
        assert_eq!(stats.rejected_overloaded, total_rejected);
    }

    #[test]
    fn shutdown_drains_in_flight_requests() {
        let (store, _) = seeded_store(16);
        let (transport, connector) = channel_transport();
        let handle = serve(
            transport,
            store,
            ServeConfig {
                engine_delay: Some(Duration::from_millis(30)),
                ..ServeConfig::default()
            },
        );
        let conn = connector.connect().unwrap();
        let (mid, db) = (crate::api::ModelId(1), crate::engine::DbId(1));
        let client = thread::spawn(move || {
            let mut host = HostClient::over(conn);
            host.query(&probe(0), 3, mid, db, AcceleratorLevel::Ssd, false)
                .unwrap()
        });
        // Give the query time to be admitted, then shut down while the
        // engine is still sleeping on it.
        thread::sleep(Duration::from_millis(10));
        let (mut store, stats) = handle.shutdown();
        let qid: QueryId = client.join().unwrap();
        assert_eq!(stats.queries_admitted, 1);
        // The drained job really ran: its results are in the store.
        let result = store.results(qid).unwrap();
        assert_eq!(result.top_k.len(), 3);
    }

    #[test]
    fn channel_transport_serves_a_full_session() {
        let model = zoo::textqa().seeded(3);
        let mut store = DeepStore::in_memory(DeepStoreConfig::small());
        store.disable_qc();
        let (transport, connector) = channel_transport();
        let handle = serve(transport, store, ServeConfig::default());
        assert_eq!(handle.endpoint(), "channel");

        let mut host = HostClient::over(connector.connect().unwrap());
        host.hello("session").unwrap();
        let features: Vec<Tensor> = (0..24).map(|i| model.random_feature(i)).collect();
        let db = host.write_db(&features).unwrap();
        let mid = host.load_model(&ModelGraph::from_model(&model)).unwrap();
        let qid = host
            .query(&probe(1), 4, mid, db, AcceleratorLevel::Channel, false)
            .unwrap();
        let result = host.get_results(qid).unwrap();
        assert_eq!(result.top_k.len(), 4);

        let (_store, stats) = handle.shutdown();
        assert_eq!(stats.connections, 1);
        assert!(stats.frames >= 5);
    }

    #[test]
    fn tcp_transport_serves_a_full_session() {
        let model = zoo::textqa().seeded(3);
        let mut store = DeepStore::in_memory(DeepStoreConfig::small());
        store.disable_qc();
        let transport = TcpTransport::bind("127.0.0.1:0").unwrap();
        let handle = serve(transport, store, ServeConfig::default());
        let endpoint = handle.endpoint().to_string();

        let mut host = HostClient::over(TcpClient::connect(&endpoint).unwrap());
        host.hello("tcp-session").unwrap();
        let features: Vec<Tensor> = (0..24).map(|i| model.random_feature(i)).collect();
        let db = host.write_db(&features).unwrap();
        let mid = host.load_model(&ModelGraph::from_model(&model)).unwrap();
        let qid = host
            .query(&probe(1), 4, mid, db, AcceleratorLevel::Ssd, false)
            .unwrap();
        let result = host.get_results(qid).unwrap();
        assert_eq!(result.top_k.len(), 4);
        drop(host);

        let (_store, stats) = handle.shutdown();
        assert_eq!(stats.connections, 1);
    }

    #[test]
    fn merged_batch_failure_only_fails_the_offending_client() {
        use crate::api::ModelId;
        use crate::engine::DbId;
        use crate::error::DeepStoreError;
        use crate::qcache::QueryCacheConfig;
        let (mid, db) = (ModelId(1), DbId(1));
        // (query cache on, the offending frame, whether it demands full
        // coverage of a dead-channel database, the error its sender sees)
        let cases = [
            // Unknown model in the good client's own scan group.
            (
                false,
                (probe(1), ModelId(999), AcceleratorLevel::Ssd),
                false,
                DeepStoreError::UnknownModel(ModelId(999)),
            ),
            // Wrong-length vector in a *different* scan group, cache on:
            // the good client's group must not have scanned (and filled
            // the cache) by the time the merged batch is refused.
            (
                true,
                (
                    Tensor::random(vec![7], 1.0, 0),
                    mid,
                    AcceleratorLevel::Channel,
                ),
                false,
                DeepStoreError::Flash(deepstore_flash::FlashError::SizeMismatch {
                    expected: 4 * probe(0).len(),
                    found: 28,
                }),
            ),
            // Coverage refusal, cache on: the good client's group *has*
            // scanned by then, and must not have been cached.
            (
                true,
                (probe(1), mid, AcceleratorLevel::Ssd),
                true,
                DeepStoreError::InsufficientCoverage {
                    required: 1.0,
                    achieved: 0.0,
                },
            ),
        ];
        for (qc_on, (bad_qfv, bad_model, bad_level), starved, expected) in cases {
            let store = || {
                let (mut store, features) = seeded_store(16);
                if qc_on {
                    store.set_qc(QueryCacheConfig::paper_default());
                }
                if starved {
                    // A second database, alone on channel 1, which dies.
                    store.write_db(&features).unwrap();
                    store.inject_faults(deepstore_flash::fault::FaultPlan::none().dead_channel(1));
                }
                store
            };
            // What the good client's query answers when it runs alone.
            let mut alone = store();
            let request = QueryRequest::new(probe(0), mid, db)
                .k(3)
                .level(AcceleratorLevel::Ssd);
            let qid = alone.query(request).unwrap();
            let solo = alone.results(qid).unwrap();

            let (transport, connector) = channel_transport();
            let handle = serve(
                transport,
                store(),
                ServeConfig {
                    // A window long enough that both clients' queries
                    // land in the same engine pass.
                    batch_window: Some(Duration::from_millis(50)),
                    ..ServeConfig::default()
                },
            );
            let good_conn = connector.connect().unwrap();
            let bad_conn = connector.connect().unwrap();
            let good = thread::spawn(move || {
                let mut host = HostClient::over(good_conn);
                let qid = host.query(&probe(0), 3, mid, db, AcceleratorLevel::Ssd, false)?;
                host.get_results(qid)
            });
            let bad = thread::spawn(move || {
                let mut host = HostClient::over(bad_conn);
                // Poisons the merged batch, which must fall back to
                // per-client dispatch.
                if starved {
                    // `min_coverage` travels only in a `queryBatch` frame.
                    let req = QueryRequest::new(bad_qfv, bad_model, DbId(2)).min_coverage(1.0);
                    return host.query_batch(&[req.k(3).level(bad_level)]).map(drop);
                }
                host.query(&bad_qfv, 3, bad_model, db, bad_level, false)
                    .map(drop)
            });
            let good_result = good.join().unwrap().expect("good client failed");
            let bad_result = bad.join().unwrap();
            assert_eq!(bad_result.unwrap_err().device_error(), Some(expected));
            assert!(!good_result.cache_hit);
            assert_eq!(good_result.elapsed, solo.elapsed);
            assert_eq!(good_result.top_k, solo.top_k);
            // Only the good client's batch was served: the refused
            // merged batch and the bad client's own are not counted.
            let stats = handle.shutdown().0.stats();
            assert_eq!(stats.batches, 1);
            assert_eq!(stats.metrics.counter("api.tagged_requests"), Some(1));
        }
    }

    /// The threaded batch window runs on the serve clock: on a manual
    /// clock, which jobs share a pass depends on the clock alone.
    #[test]
    fn batch_window_runs_on_the_serve_clock() {
        let start = |clock| {
            let (store, _) = seeded_store(16);
            let (transport, connector) = channel_transport();
            let cfg = ServeConfig {
                batch_window: Some(Duration::from_secs(1)),
                clock,
                ..ServeConfig::default()
            };
            (serve(transport, store, cfg), connector)
        };
        let send = |connector: &ChannelConnector, i: u64| {
            let mut host = HostClient::over(connector.connect().unwrap());
            let (mid, db) = (crate::api::ModelId(1), crate::engine::DbId(1));
            thread::spawn(move || {
                host.query(&probe(i), 3, mid, db, AcceleratorLevel::Ssd, false)
                    .unwrap()
            })
        };
        // Polls `done` for well under the window's wall length, so a
        // window timed on the wall clock cannot pass.
        let wait_for = |what: &str, done: &dyn Fn() -> bool| {
            let t0 = Instant::now();
            while !done() {
                assert!(t0.elapsed() < Duration::from_millis(750), "no {what}");
                thread::sleep(Duration::from_millis(1));
            }
        };
        // Each step passes any deadline the engine can have set.
        let step = |time: &AtomicU64| time.fetch_add(2_000_000_000, Ordering::SeqCst);

        // Advancing the clock past A's deadline closes its window, so B,
        // admitted after that, runs in a pass of its own.
        let (clock, time) = ServeClock::manual();
        let (handle, connector) = start(clock);
        let a = send(&connector, 0);
        wait_for("admission", &|| handle.stats().queries_admitted == 1);
        wait_for("pass for A", &|| {
            step(&time);
            handle.stats().engine_batches == 1
        });
        let b = send(&connector, 1);
        wait_for("pass for B", &|| {
            step(&time);
            handle.stats().engine_batches == 2
        });
        a.join().unwrap();
        b.join().unwrap();
        let (_, stats) = handle.shutdown();
        assert_eq!(stats.engine_batches, 2);
        assert_eq!(stats.coalesced_queries, 0);

        // Without advancing, two jobs admitted inside the window share
        // one pass.
        let (clock, time) = ServeClock::manual();
        let (handle, connector) = start(clock);
        let (a, b) = (send(&connector, 0), send(&connector, 1));
        wait_for("admissions", &|| handle.stats().queries_admitted == 2);
        wait_for("shared pass", &|| {
            step(&time);
            handle.stats().engine_batches == 1
        });
        a.join().unwrap();
        b.join().unwrap();
        let (_, stats) = handle.shutdown();
        assert_eq!(stats.engine_batches, 1);
        assert_eq!(stats.coalesced_queries, 2);
    }

    /// A single textqa query against [`seeded_store`]'s database.
    fn query(qfv: Tensor, k: usize) -> Command {
        Command::Query {
            qfv,
            k,
            model: crate::api::ModelId(1),
            db: crate::engine::DbId(1),
            level: AcceleratorLevel::Channel,
            exact: false,
            request_id: 0,
            sched_lag_ns: 0,
        }
    }

    /// The results each query response of a simulation points at.
    fn sim_results(sim: &Simulation) -> Vec<&crate::api::QueryResult> {
        sim.responses
            .iter()
            .flat_map(submitted_ids)
            .map(|id| sim.store.peek_results(*id).unwrap())
            .collect()
    }

    #[test]
    fn idle_arrivals_do_not_queue() {
        let (store, _) = seeded_store(32);
        let arrivals = vec![(0, query(probe(1), 2)), (100_000_000, query(probe(2), 2))];
        let sim = simulate(store, ServeConfig::default(), arrivals);
        let (arrival, start, _) = sim.times[1];
        assert_eq!(start, arrival);
        assert_eq!(sim.stats.engine_batches, 2);
    }

    #[test]
    fn batch_window_coalesces_co_pending_queries() {
        let window = 50_000;
        // Serial baseline: the same four queries, a second apart.
        let arrivals = |gap: u64| {
            (0..4)
                .map(|i| (i * gap, query(probe(300 + i), 3)))
                .collect()
        };
        let (store, _) = seeded_store(32);
        let serial = simulate(store, ServeConfig::default(), arrivals(1_000_000_000));
        let serial_fabric: u64 = serial
            .times
            .iter()
            .map(|&(_, start, done)| done - start)
            .sum();

        let (store, _) = seeded_store(32);
        let cfg = ServeConfig {
            batch_window: Some(Duration::from_nanos(window)),
            ..ServeConfig::default()
        };
        let sim = simulate(store, cfg, arrivals(1_000));
        // All four joined one pass starting a window after the lead's
        // arrival.
        assert_eq!(sim.stats.engine_batches, 1);
        assert_eq!(sim.stats.coalesced_queries, 4);
        assert!(sim.times.iter().all(|&(_, start, _)| start == window));
        // The shared pass occupies the fabric for less time than four
        // back-to-back scans (the window itself is added latency, so
        // compare fabric time, not makespan).
        let batch_fabric = sim.times.iter().map(|t| t.2).max().unwrap() - window;
        assert!(
            batch_fabric < serial_fabric,
            "batched fabric time {batch_fabric} !< serial {serial_fabric}"
        );
    }

    /// §4.5: regular I/O arriving while a query's pass holds the engine
    /// sees the busy signal and starts when that pass ends; I/O after it
    /// passes straight through.
    #[test]
    fn busy_signal_defers_regular_io() {
        let (store, features) = seeded_store(16);
        let solo = simulate(store, ServeConfig::default(), vec![(0, query(probe(9), 2))]);
        let busy_until = solo.times[0].2;
        let db = crate::engine::DbId(1);
        let read = || Command::ReadDb {
            db,
            start: 0,
            num: 2,
        };
        let append = Command::AppendDb {
            db,
            features: features[..2].to_vec(),
        };
        let (store, _) = seeded_store(16);
        let arrivals = vec![
            (0, query(probe(9), 2)),
            (busy_until / 2, read()),
            (busy_until / 2, append),
            (busy_until + 1_000, read()),
        ];
        let sim = simulate(store, ServeConfig::default(), arrivals);
        assert_eq!(sim.times[0].2, busy_until);
        assert_eq!(sim.times[1].1, busy_until);
        assert_eq!(sim.times[2].1, busy_until);
        assert_eq!(sim.times[3].1, busy_until + 1_000);
        assert!(matches!(sim.responses[1], Response::Features(_)));
        assert!(matches!(sim.responses[2], Response::Appended));
    }

    #[test]
    fn device_stats_cover_scheduled_queries() {
        let (store, _) = seeded_store(16);
        let arrivals = (0..3)
            .map(|i| (i * 1_000, query(probe(600 + i), 2)))
            .collect();
        let sim = simulate(store, ServeConfig::default(), arrivals);
        // q0 runs alone; q1 and q2 arrive during its pass and share the
        // next one.
        assert_eq!(sim.stats.engine_batches, 2);
        let ds = sim.store.stats();
        assert!(ds.flash.page_reads > 0);
        assert_eq!(ds.queries, 3);
        assert_eq!(ds.batches, 2);
        assert!(ds.stages.scan_ns > 0);
    }

    #[test]
    fn degraded_queries_are_recorded_in_schedule_stats() {
        let model = zoo::tir().seeded(3);
        let mut store = DeepStore::in_memory(DeepStoreConfig::small());
        store.disable_qc();
        // Two blocks on two channels: one dead channel halves coverage.
        let features: Vec<Tensor> = (0..256).map(|i| model.random_feature(i)).collect();
        store.write_db(&features).unwrap();
        store.load_model(&ModelGraph::from_model(&model)).unwrap();
        store.inject_faults(deepstore_flash::fault::FaultPlan::none().dead_channel(0));
        let arrivals = (0..3)
            .map(|i| (i * 1_000, query(model.random_feature(700 + i), 2)))
            .collect();
        let sim = simulate(store, ServeConfig::default(), arrivals);
        assert!(sim_results(&sim).iter().all(|r| r.degraded));
        assert_eq!(sim.stats.per_tenant[0].degraded, 3);
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn out_of_order_arrivals_panic() {
        let (store, _) = seeded_store(4);
        let arrivals = vec![(10_000, query(probe(0), 1)), (0, query(probe(1), 1))];
        simulate(store, ServeConfig::default(), arrivals);
    }

    #[test]
    fn cache_hits_recorded_in_stats() {
        let (mut store, _) = seeded_store(16);
        store.set_qc(crate::qcache::QueryCacheConfig {
            capacity: 4,
            threshold: 0.10,
            qcn_accuracy: 1.0,
        });
        let arrivals = (0..3).map(|i| (i * 1_000, query(probe(5), 2))).collect();
        let sim = simulate(store, ServeConfig::default(), arrivals);
        let results = sim_results(&sim);
        assert_eq!(results.len(), 3);
        assert_eq!(results.iter().filter(|r| r.cache_hit).count(), 2);
    }

    /// CPU ns this thread has run, by the scheduler's accounting (`None`
    /// where the kernel offers none). The counter advances only at ticks
    /// and context switches, so a minimal sleep forces one before the read.
    fn thread_cpu_ns() -> Option<u64> {
        thread::sleep(Duration::from_nanos(1));
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
        stat.split_whitespace().next()?.parse().ok()
    }

    /// The serve observability budget (DESIGN.md §12): a request's trip
    /// through the recording hot path costs at most 2% of the CPU of a
    /// directly dispatched query — a conservative denominator, since a
    /// served query costs more. Both loops run on this thread, so CPU
    /// accounting charges neither for a neighbour's cycles.
    #[test]
    fn recording_hot_path_costs_under_two_percent_of_a_query() {
        const REQUESTS: u64 = 100_000;
        const QUERIES: u64 = 16;
        // Worst case: the SLO estimator is armed, so every request
        // re-estimates the e2e p99, but unreachable, so no dump fires.
        let obs = ServeObs::new(&ServeConfig {
            slo_p99_us: Some(u64::MAX / 2_000),
            ..ServeConfig::default()
        });
        let tenant = obs.tenant("budget");
        let (mut store, _) = seeded_store(128);
        let (mid, db) = (crate::api::ModelId(1), crate::engine::DbId(1));

        let t0 = thread_cpu_ns();
        for i in 0..REQUESTS {
            // Queue and service ns vary so branch history and bucket
            // choice stay realistic.
            let (q, s) = (5_000 + i % 1_021, 250_000 + i % 17_001);
            let rid = obs.assign_request_id();
            obs.record_done(&tenant, rid, 1, q, s, q + s, 1_000, RequestOutcome::Ok);
        }
        let t1 = thread_cpu_ns();
        for i in 0..QUERIES {
            let qid = store.query(QueryRequest::new(probe(i), mid, db).k(4));
            store.results(qid.unwrap()).unwrap();
        }
        let t2 = thread_cpu_ns();

        let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) else {
            return; // no scheduler accounting on this platform
        };
        let hot_ns = (t1 - t0) as f64 / REQUESTS as f64;
        let query_ns = (t2 - t1) as f64 / QUERIES as f64;
        assert!(
            hot_ns <= 0.02 * query_ns,
            "recording hot path {hot_ns:.0} ns/request exceeds 2% of a {query_ns:.0} ns query"
        );
    }
}
