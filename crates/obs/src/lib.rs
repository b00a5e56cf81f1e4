//! Telemetry substrate for the DeepStore workspace.
//!
//! Four pieces, all built for *deterministic* observability of a
//! simulated device:
//!
//! * [`metrics`](mod@metrics) — atomic counters, fixed power-of-two-bucket
//!   histograms, and the [`metrics!`] table that declares one layer's
//!   set of them once: field, kind and metric name per row. Every
//!   mutation is a single commutative atomic RMW, so a
//!   [`MetricsSnapshot`] taken after a workload is bit-identical
//!   regardless of how many host worker threads interleaved while
//!   producing it.
//! * [`trace`] — a span-based trace recorder emitting Chrome
//!   trace-event JSON (`chrome://tracing` / Perfetto). Timestamps are
//!   *simulated* nanoseconds from the device timing model, never host
//!   wall-clock, so two runs of the same query produce byte-identical
//!   trace files.
//! * [`histo`] — percentile estimation over the power-of-two bucket
//!   histograms plus a Prometheus text-exposition renderer for
//!   snapshots.
//! * [`recorder`] — a fixed-capacity, mutex-guarded flight-recorder
//!   ring of recent request summaries, dumped to deterministic JSON on
//!   error, SLO breach, or explicit request.
//!
//! The crate is dependency-light (serde shims only). There is one
//! build: every layer records into its table unconditionally.

pub mod histo;
pub mod metrics;
pub mod recorder;
pub mod trace;

pub use histo::{
    percentile, render_histogram, render_histogram_series, render_text, sanitize_name,
};
pub use metrics::{Counter, CounterSample, Histogram, HistogramSample, Metric, MetricsSnapshot};
pub use recorder::{
    FlightDump, FlightRecorder, RequestOutcome, RequestSummary, DEFAULT_RECORDER_CAPACITY,
};
pub use trace::{TraceEvent, TraceRecorder};
