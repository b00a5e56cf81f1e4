//! The in-storage runtime: multi-query scheduling on a simulated clock.
//!
//! The query engine "is responsible for consuming queries, managing the
//! QC, scheduling work on the DeepStore accelerators, and aggregating the
//! results" (§4.7.1). This module adds the scheduling dimension on top of
//! [`crate::api::DeepStore`]: queries arrive at timestamps, are queued,
//! and execute on the accelerator fabric (one batch owns all the
//! accelerators of its level — the paper's map-reduce model parallelizes
//! *within* a scan, not across scans). Regular block I/O issued while
//! a query holds the read path sees the §4.5 busy behaviour: "the SSD
//! controller responds to regular read/write operations with a busy
//! signal", modelled as queueing delay.
//!
//! # Batching window
//!
//! With [`Runtime::set_batch_window`] enabled, the scheduler holds the
//! fabric for `window` after a batch's nominal start and lets co-pending
//! queries against the same `(db, model, level)` join the same flash
//! pass via [`DeepStore::query_batch`] — trading a bounded added latency
//! on the lead query for amortized flash streaming across the group.
//! `None` (the default) preserves the serial one-query-at-a-time
//! schedule exactly.
//!
//! The runtime produces per-query latency records (arrival, start,
//! completion, queueing) and aggregate statistics (throughput, mean/p50/
//! p95/p99 latency) that `deepstore-cli replay` reports.

use crate::api::{DeepStore, QueryRequest};
use crate::error::Result;
use deepstore_flash::{FlashError, SimDuration};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A query waiting to run.
#[derive(Debug, Clone)]
struct PendingQuery {
    arrival: SimDuration,
    request: QueryRequest,
}

/// Completion record for one query.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryRecord {
    /// When the query arrived (simulated).
    pub arrival: SimDuration,
    /// When it started executing.
    pub start: SimDuration,
    /// When its results were ready.
    pub completion: SimDuration,
    /// Whether the query cache served it.
    pub cache_hit: bool,
    /// Whether the answer was degraded (scan coverage below 1.0).
    pub degraded: bool,
    /// How many queries shared the batch that served it.
    pub batch_size: usize,
}

impl QueryRecord {
    /// Time spent waiting behind other queries.
    pub fn queueing(&self) -> SimDuration {
        self.start - self.arrival
    }

    /// End-to-end latency (arrival to completion).
    pub fn latency(&self) -> SimDuration {
        self.completion - self.arrival
    }

    /// Service time alone.
    pub fn service(&self) -> SimDuration {
        self.completion - self.start
    }
}

/// Aggregate latency/throughput statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeStats {
    /// Completed queries.
    pub completed: u64,
    /// Cache hits among them.
    pub cache_hits: u64,
    /// Queries answered with degraded (partial-coverage) results.
    pub degraded: u64,
    /// Makespan: first arrival to last completion.
    pub makespan: SimDuration,
    /// Queries per second over the makespan.
    pub throughput_qps: f64,
    /// Mean end-to-end latency.
    pub mean_latency: SimDuration,
    /// Median latency.
    pub p50_latency: SimDuration,
    /// 95th-percentile latency.
    pub p95_latency: SimDuration,
    /// 99th-percentile latency.
    pub p99_latency: SimDuration,
}

/// Query scheduler over a [`DeepStore`] device.
#[derive(Debug)]
pub struct Runtime {
    store: DeepStore,
    queue: VecDeque<PendingQuery>,
    /// When the accelerator fabric frees up.
    fabric_free: SimDuration,
    /// Batching window (`None` = serial execution).
    batch_window: Option<SimDuration>,
    records: Vec<QueryRecord>,
    /// Regular (non-query) I/O requests deferred by the busy signal.
    deferred_io: u64,
}

impl Runtime {
    /// Wraps a device in a scheduler.
    pub fn new(store: DeepStore) -> Self {
        Runtime {
            store,
            queue: VecDeque::new(),
            fabric_free: SimDuration::ZERO,
            batch_window: None,
            records: Vec::new(),
            deferred_io: 0,
        }
    }

    /// The wrapped device.
    pub fn store_mut(&mut self) -> &mut DeepStore {
        &mut self.store
    }

    /// Read-only view of the wrapped device (stats, config).
    pub fn store(&self) -> &DeepStore {
        &self.store
    }

    /// The wrapped device's telemetry snapshot (pipeline counters,
    /// per-stage latency totals, flash event counts) — distinct from
    /// [`Runtime::stats`], which summarizes the *schedule* (queueing,
    /// latency percentiles) rather than the device pipeline.
    #[must_use]
    pub fn device_stats(&self) -> crate::telemetry::DeviceStats {
        self.store.stats()
    }

    /// Sets the batching window: when `Some(w)`, a batch nominally
    /// starting at `t` also admits queued queries against the same
    /// `(db, model, level)` whose arrival is at most `t + w`, and the
    /// whole group executes as one [`DeepStore::query_batch`] starting
    /// at `t + w`. `None` (the default) runs queries one at a time.
    pub fn set_batch_window(&mut self, window: Option<SimDuration>) {
        self.batch_window = window;
    }

    /// The configured batching window.
    pub fn batch_window(&self) -> Option<SimDuration> {
        self.batch_window
    }

    /// Queued (not yet executed) queries.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Regular I/O operations that hit the busy signal so far.
    pub fn deferred_io(&self) -> u64 {
        self.deferred_io
    }

    /// Completion records so far.
    pub fn records(&self) -> &[QueryRecord] {
        &self.records
    }

    /// Enqueues a query arriving at simulated time `arrival`.
    ///
    /// Arrivals must be non-decreasing (the runtime is fed from a trace).
    ///
    /// # Panics
    ///
    /// Panics if `arrival` precedes the previous arrival.
    pub fn submit_at(&mut self, arrival: SimDuration, request: QueryRequest) {
        if let Some(last) = self.queue.back() {
            assert!(arrival >= last.arrival, "arrivals must be ordered");
        }
        self.queue.push_back(PendingQuery { arrival, request });
    }

    /// A regular block read arriving at `now`: if a query holds the read
    /// path, the host sees a busy signal and the read is serviced when the
    /// fabric frees (§4.5). Returns the time the read can start.
    pub fn regular_read_at(&mut self, now: SimDuration) -> SimDuration {
        if now < self.fabric_free {
            self.deferred_io += 1;
            self.fabric_free
        } else {
            now
        }
    }

    /// Drains the queue, executing every pending query in arrival order
    /// (coalescing same-`(db, model, level)` neighbours when a batching
    /// window is set).
    ///
    /// # Errors
    ///
    /// Propagates engine errors (unknown handles, unsupported levels);
    /// queries before the failing batch remain recorded.
    pub fn run_to_completion(&mut self) -> Result<()> {
        while let Some(front) = self.queue.pop_front() {
            let nominal_start = front.arrival.max(self.fabric_free);
            let (batch_start, members) = match self.batch_window {
                None => (nominal_start, vec![front]),
                Some(window) => {
                    let batch_start = nominal_start + window;
                    let key = (front.request.db, front.request.model, front.request.level);
                    let mut members = vec![front];
                    // The queue is arrival-ordered, so stop at the first
                    // arrival past the window; non-matching queries keep
                    // their place in line.
                    let mut i = 0;
                    while i < self.queue.len() {
                        let p = &self.queue[i];
                        if p.arrival > batch_start {
                            break;
                        }
                        if (p.request.db, p.request.model, p.request.level) == key {
                            members.push(self.queue.remove(i).expect("index in bounds"));
                        } else {
                            i += 1;
                        }
                    }
                    (batch_start, members)
                }
            };

            let requests: Vec<QueryRequest> = members.iter().map(|m| m.request.clone()).collect();
            let ids = self.store.query_batch(&requests)?;
            let mut fabric_free = self.fabric_free;
            for (m, id) in members.iter().zip(ids) {
                let result = self.store.results(id)?;
                let completion = batch_start + result.elapsed;
                fabric_free = fabric_free.max(completion);
                self.records.push(QueryRecord {
                    arrival: m.arrival,
                    start: batch_start,
                    completion,
                    cache_hit: result.cache_hit,
                    degraded: result.degraded,
                    batch_size: members.len(),
                });
            }
            self.fabric_free = fabric_free;
        }
        Ok(())
    }

    /// Aggregate statistics over the completed queries.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::SizeMismatch`] if no queries have completed.
    pub fn stats(&self) -> Result<RuntimeStats> {
        if self.records.is_empty() {
            return Err(FlashError::SizeMismatch {
                expected: 1,
                found: 0,
            }
            .into());
        }
        let mut latencies: Vec<SimDuration> = self.records.iter().map(|r| r.latency()).collect();
        latencies.sort_unstable();
        let pct = |p: f64| {
            let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
            latencies[idx]
        };
        let first = self
            .records
            .iter()
            .map(|r| r.arrival)
            .min()
            .expect("non-empty");
        let last = self
            .records
            .iter()
            .map(|r| r.completion)
            .max()
            .expect("non-empty");
        let makespan = last - first;
        let total: SimDuration = latencies.iter().copied().sum();
        Ok(RuntimeStats {
            completed: self.records.len() as u64,
            cache_hits: self.records.iter().filter(|r| r.cache_hit).count() as u64,
            degraded: self.records.iter().filter(|r| r.degraded).count() as u64,
            makespan,
            throughput_qps: self.records.len() as f64 / makespan.as_secs_f64().max(1e-12),
            mean_latency: SimDuration::from_nanos(total.as_nanos() / latencies.len() as u64),
            p50_latency: pct(0.50),
            p95_latency: pct(0.95),
            p99_latency: pct(0.99),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::ModelId;
    use crate::config::DeepStoreConfig;
    use crate::engine::DbId;
    use deepstore_nn::{zoo, ModelGraph, Tensor};

    fn runtime_with(n: u64) -> (Runtime, deepstore_nn::Model, DbId, ModelId) {
        let model = zoo::textqa().seeded(3);
        let mut store = DeepStore::in_memory(DeepStoreConfig::small());
        store.disable_qc();
        let features: Vec<Tensor> = (0..n).map(|i| model.random_feature(i)).collect();
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        (Runtime::new(store), model, db, mid)
    }

    fn req(
        model: &deepstore_nn::Model,
        seed: u64,
        mid: ModelId,
        db: DbId,
        k: usize,
    ) -> QueryRequest {
        QueryRequest::new(model.random_feature(seed), mid, db).k(k)
    }

    #[test]
    fn serial_queries_queue_behind_each_other() {
        let (mut rt, model, db, mid) = runtime_with(32);
        // Two queries arriving at the same instant: the second queues.
        for i in 0..2 {
            rt.submit_at(SimDuration::ZERO, req(&model, 100 + i, mid, db, 3));
        }
        rt.run_to_completion().unwrap();
        let r = rt.records();
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].queueing(), SimDuration::ZERO);
        assert_eq!(r[1].start, r[0].completion);
        assert!(r[1].queueing() > SimDuration::ZERO);
        assert!(r.iter().all(|rec| rec.batch_size == 1));
    }

    #[test]
    fn idle_arrivals_do_not_queue() {
        let (mut rt, model, db, mid) = runtime_with(32);
        rt.submit_at(SimDuration::ZERO, req(&model, 1, mid, db, 2));
        // Long after the first finishes.
        rt.submit_at(SimDuration::from_millis(100), req(&model, 2, mid, db, 2));
        rt.run_to_completion().unwrap();
        assert_eq!(rt.records()[1].queueing(), SimDuration::ZERO);
    }

    #[test]
    fn batch_window_coalesces_co_pending_queries() {
        let window = SimDuration::from_micros(50);
        // Serial baseline.
        let (mut serial, model, db, mid) = runtime_with(32);
        for i in 0..4 {
            serial.submit_at(
                SimDuration::from_micros(i),
                req(&model, 300 + i, mid, db, 3),
            );
        }
        serial.run_to_completion().unwrap();

        let (mut rt, model, db, mid) = runtime_with(32);
        rt.set_batch_window(Some(window));
        for i in 0..4 {
            rt.submit_at(
                SimDuration::from_micros(i),
                req(&model, 300 + i, mid, db, 3),
            );
        }
        rt.run_to_completion().unwrap();
        let r = rt.records();
        assert_eq!(r.len(), 4);
        // All four joined one batch starting window after the lead's
        // arrival.
        assert!(r.iter().all(|rec| rec.batch_size == 4));
        assert!(r.iter().all(|rec| rec.start == window));
        // The shared pass occupies the fabric for less time than four
        // back-to-back scans (the window itself is added latency, so
        // compare fabric time, not wall-clock makespan).
        let batch_last = r.iter().map(|rec| rec.completion).max().unwrap();
        let batch_fabric = batch_last - window;
        let serial_last = serial
            .records()
            .iter()
            .map(|rec| rec.completion)
            .max()
            .unwrap();
        assert!(
            batch_fabric < serial_last,
            "batched fabric time {batch_fabric} !< serial {serial_last}"
        );
        // Ranking equality between batched and sequential execution is
        // covered by the api-level batch tests; this test checks the
        // schedule.
    }

    #[test]
    fn batch_window_respects_grouping_key() {
        let (mut rt, model, db, mid) = runtime_with(24);
        // A second database: same model, different db → different group.
        let features: Vec<Tensor> = (50..74).map(|i| model.random_feature(i)).collect();
        let db2 = rt.store_mut().write_db(&features).unwrap();
        rt.set_batch_window(Some(SimDuration::from_micros(100)));
        rt.submit_at(SimDuration::ZERO, req(&model, 400, mid, db, 2));
        rt.submit_at(SimDuration::ZERO, req(&model, 401, mid, db2, 2));
        rt.submit_at(SimDuration::from_micros(1), req(&model, 402, mid, db, 2));
        rt.run_to_completion().unwrap();
        let r = rt.records();
        assert_eq!(r.len(), 3);
        // Queries 0 and 2 coalesce (same db); query 1 runs alone after.
        let sizes: Vec<usize> = r.iter().map(|rec| rec.batch_size).collect();
        assert_eq!(sizes.iter().filter(|&&s| s == 2).count(), 2);
        assert_eq!(sizes.iter().filter(|&&s| s == 1).count(), 1);
    }

    #[test]
    fn disabled_window_matches_serial_schedule() {
        let (mut rt, model, db, mid) = runtime_with(16);
        assert_eq!(rt.batch_window(), None);
        for i in 0..3 {
            rt.submit_at(SimDuration::ZERO, req(&model, 500 + i, mid, db, 2));
        }
        rt.run_to_completion().unwrap();
        let r = rt.records();
        // Strictly serial: each starts when the previous completes.
        assert_eq!(r[1].start, r[0].completion);
        assert_eq!(r[2].start, r[1].completion);
    }

    #[test]
    fn busy_signal_defers_regular_io() {
        let (mut rt, model, db, mid) = runtime_with(16);
        rt.submit_at(SimDuration::ZERO, req(&model, 9, mid, db, 2));
        rt.run_to_completion().unwrap();
        let busy_until = rt.records()[0].completion;
        // A regular read mid-query is deferred to completion.
        let mid_query = SimDuration::from_nanos(busy_until.as_nanos() / 2);
        assert_eq!(rt.regular_read_at(mid_query), busy_until);
        assert_eq!(rt.deferred_io(), 1);
        // After the query, reads pass through.
        let later = busy_until + SimDuration::from_micros(1);
        assert_eq!(rt.regular_read_at(later), later);
        assert_eq!(rt.deferred_io(), 1);
    }

    #[test]
    fn stats_summarize_latencies() {
        let (mut rt, model, db, mid) = runtime_with(32);
        for i in 0..8 {
            rt.submit_at(
                SimDuration::from_micros(i * 10),
                req(&model, 200 + i, mid, db, 2),
            );
        }
        rt.run_to_completion().unwrap();
        let s = rt.stats().unwrap();
        assert_eq!(s.completed, 8);
        assert!(s.throughput_qps > 0.0);
        assert!(s.p50_latency <= s.p95_latency);
        assert!(s.p95_latency <= s.p99_latency);
        assert!(s.mean_latency >= rt.records()[0].latency().min(s.p50_latency));
        assert!(s.makespan >= s.p99_latency);
    }

    #[test]
    fn device_stats_cover_scheduled_queries() {
        let (mut rt, model, db, mid) = runtime_with(16);
        for i in 0..3 {
            rt.submit_at(
                SimDuration::from_micros(i),
                req(&model, 600 + i, mid, db, 2),
            );
        }
        rt.run_to_completion().unwrap();
        let ds = rt.device_stats();
        assert!(ds.flash.page_reads > 0);
        if cfg!(feature = "obs") {
            assert_eq!(ds.queries, 3);
            assert_eq!(ds.batches, 3);
            assert!(ds.stages.scan_ns > 0);
        }
    }

    #[test]
    fn degraded_queries_are_recorded_in_schedule_stats() {
        use deepstore_flash::fault::FaultPlan;
        let model = zoo::tir().seeded(3);
        let mut store = DeepStore::in_memory(DeepStoreConfig::small());
        store.disable_qc();
        // Two blocks on two channels: one dead channel halves coverage.
        let features: Vec<Tensor> = (0..256).map(|i| model.random_feature(i)).collect();
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        store.inject_faults(FaultPlan::none().dead_channel(0));
        let mut rt = Runtime::new(store);
        for i in 0..3 {
            rt.submit_at(
                SimDuration::from_micros(i),
                req(&model, 700 + i, mid, db, 2),
            );
        }
        rt.run_to_completion().unwrap();
        assert!(rt.records().iter().all(|r| r.degraded));
        assert_eq!(rt.stats().unwrap().degraded, 3);
    }

    #[test]
    fn empty_stats_is_error() {
        let (rt, ..) = runtime_with(4);
        assert!(rt.stats().is_err());
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn out_of_order_arrivals_panic() {
        let (mut rt, model, db, mid) = runtime_with(4);
        rt.submit_at(SimDuration::from_micros(10), req(&model, 0, mid, db, 1));
        rt.submit_at(SimDuration::ZERO, req(&model, 1, mid, db, 1));
    }

    #[test]
    fn cache_hits_recorded_in_stats() {
        let (mut rt, model, db, mid) = runtime_with(16);
        rt.store_mut().set_qc(crate::qcache::QueryCacheConfig {
            capacity: 4,
            threshold: 0.10,
            qcn_accuracy: 1.0,
        });
        let q = model.random_feature(5);
        for i in 0..3 {
            rt.submit_at(
                SimDuration::from_micros(i),
                QueryRequest::new(q.clone(), mid, db).k(2),
            );
        }
        rt.run_to_completion().unwrap();
        let s = rt.stats().unwrap();
        assert_eq!(s.completed, 3);
        assert_eq!(s.cache_hits, 2);
    }
}
