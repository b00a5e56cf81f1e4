//! Core-layer telemetry: query/scan metrics and the device stats surface.
//!
//! Two recording structs sit on the query pipeline:
//!
//! * [`ScanMetrics`] — owned by [`crate::engine::Engine`]; counts flash
//!   passes (`engine.batch_scans`), the requests that rode them
//!   (`engine.batch_queries` — a single query is a pass of one),
//!   features scored and features skipped, recorded once per pass
//!   (never per feature, so the hot path stays clean).
//! * [`ApiTelemetry`] — owned by [`crate::api::DeepStore`]; counts
//!   queries, batches and cache hits, and accumulates per-stage
//!   simulated-time totals (query-cache lookup, flash streaming,
//!   kernel/scoring, weight distribution) from the timing model.
//!
//! Every recording method's body is compiled out when the `obs` cargo
//! feature is off; the types, snapshots and [`DeviceStats`] stay
//! available (reporting zeros) so the API surface is identical in both
//! configurations. All storage is `deepstore_obs` counters/histograms,
//! so snapshots are deterministic under any `parallelism` setting —
//! every mutation is a commutative atomic add and every recorded
//! quantity is derived from the physically-determined shard plan or the
//! deterministic timing model, never from host wall-clock.

use deepstore_flash::FlashEventCounts;
use deepstore_obs::{CounterId, HistogramId, MetricsRegistry, MetricsSnapshot};
use serde::{Deserialize, Serialize};

/// Per-stage simulated-time totals, in nanoseconds, accumulated across
/// every query served since the device was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTotals {
    /// Query-cache lookup time (Algorithm 1 probe, charged per query).
    pub qc_lookup_ns: u64,
    /// Flash streaming time of the slowest shard, summed per scan group.
    pub flash_ns: u64,
    /// Kernel/scoring (SCN compute) time, summed per scan group.
    pub compute_ns: u64,
    /// Weight distribution time, summed per scan group.
    pub weights_ns: u64,
    /// End-to-end scan time, summed per scan group.
    pub scan_ns: u64,
    /// End-to-end query latency, summed per query.
    pub total_ns: u64,
}

/// A point-in-time summary of everything the device has observed:
/// pipeline counters, per-stage latency totals, flash event counts, and
/// the full metrics snapshot for programmatic consumers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Queries served (cache hits included).
    pub queries: u64,
    /// `query_batch` calls served.
    pub batches: u64,
    /// Queries answered from the query cache.
    pub cache_hits: u64,
    /// Queries that required a scan.
    pub cache_misses: u64,
    /// Scan groups executed (each is one shared flash pass).
    pub scan_groups: u64,
    /// Features skipped across all scans because their pages failed ECC.
    pub unreadable_skipped: u64,
    /// Features the pruning cascade skipped exact scoring for (their
    /// int8 upper bound fell strictly below the running top-K
    /// threshold).
    pub pruned_features: u64,
    /// Features whose bound cleared (or tied) the threshold and were
    /// rescored through the exact f32 path.
    pub rescored_features: u64,
    /// Queries answered with less than full coverage (degraded top-K).
    pub degraded_queries: u64,
    /// Per-stage simulated-time totals.
    pub stages: StageTotals,
    /// Flash event counts (page reads, programs, erases, ECC, bus waits,
    /// retries, remaps).
    pub flash: FlashEventCounts,
    /// The full engine + API metrics snapshot.
    pub metrics: MetricsSnapshot,
}

/// Scan-path counters owned by the engine.
// With `obs` off the recording bodies compile out, so the counter ids
// are registered but never read.
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
#[derive(Debug)]
pub struct ScanMetrics {
    registry: MetricsRegistry,
    batch_scans: CounterId,
    batch_queries: CounterId,
    features_scanned: CounterId,
    features_skipped: CounterId,
    features_pruned: CounterId,
    features_rescored: CounterId,
    scan_features: HistogramId,
}

impl Default for ScanMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ScanMetrics {
    /// Fresh counters, all zero.
    #[must_use]
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        ScanMetrics {
            batch_scans: registry.counter("engine.batch_scans"),
            batch_queries: registry.counter("engine.batch_queries"),
            features_scanned: registry.counter("engine.features_scanned"),
            features_skipped: registry.counter("engine.features_skipped"),
            features_pruned: registry.counter("scan.pruned_features"),
            features_rescored: registry.counter("scan.rescored_features"),
            scan_features: registry.histogram("engine.scan_features"),
            registry,
        }
    }

    /// One scan pass finished: `queries` requests (one for a single
    /// query) shared the pass over `features` features, with `skipped`
    /// dropped once per pass. `engine.batch_scans` therefore counts
    /// flash passes and `engine.batch_queries` the requests they served.
    #[inline]
    pub fn on_batch_scan(&self, queries: u64, features: u64, skipped: u64) {
        #[cfg(feature = "obs")]
        {
            self.registry.incr(self.batch_scans);
            self.registry.add(self.batch_queries, queries);
            self.registry.add(self.features_scanned, features - skipped);
            self.registry.add(self.features_skipped, skipped);
            self.registry.record(self.scan_features, features);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (queries, features, skipped);
    }

    /// One scan pass's cascade outcome: `pruned` per-query feature
    /// decisions skipped exact scoring, `rescored` cleared the bound
    /// check and took the exact path. Recorded once per pass (the
    /// engine sums per-shard counts first), keeping the hot path free
    /// of telemetry.
    #[inline]
    pub fn on_cascade(&self, pruned: u64, rescored: u64) {
        #[cfg(feature = "obs")]
        {
            self.registry.add(self.features_pruned, pruned);
            self.registry.add(self.features_rescored, rescored);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (pruned, rescored);
    }

    /// A deterministic snapshot of the engine's scan counters.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Query-path counters and stage totals owned by the API facade.
// With `obs` off the histogram ids are registered but never read.
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
#[derive(Debug)]
pub struct ApiTelemetry {
    registry: MetricsRegistry,
    queries: CounterId,
    batches: CounterId,
    cache_hits: CounterId,
    cache_misses: CounterId,
    scan_groups: CounterId,
    skipped: CounterId,
    degraded: CounterId,
    tagged: CounterId,
    recovery_remapped: CounterId,
    recovery_lost: CounterId,
    st_qc_lookup_ns: CounterId,
    st_flash_ns: CounterId,
    st_compute_ns: CounterId,
    st_weights_ns: CounterId,
    st_scan_ns: CounterId,
    st_total_ns: CounterId,
    h_query_ns: HistogramId,
    h_qc_lookup_ns: HistogramId,
    h_group_members: HistogramId,
}

impl Default for ApiTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl ApiTelemetry {
    /// Fresh telemetry, all zero.
    #[must_use]
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        ApiTelemetry {
            queries: registry.counter("api.queries"),
            batches: registry.counter("api.batches"),
            cache_hits: registry.counter("api.cache_hits"),
            cache_misses: registry.counter("api.cache_misses"),
            scan_groups: registry.counter("api.scan_groups"),
            skipped: registry.counter("api.unreadable_skipped"),
            degraded: registry.counter("api.degraded_queries"),
            tagged: registry.counter("api.tagged_requests"),
            recovery_remapped: registry.counter("api.recovery.pages_remapped"),
            recovery_lost: registry.counter("api.recovery.pages_lost"),
            st_qc_lookup_ns: registry.counter("api.stage.qc_lookup_ns"),
            st_flash_ns: registry.counter("api.stage.flash_ns"),
            st_compute_ns: registry.counter("api.stage.compute_ns"),
            st_weights_ns: registry.counter("api.stage.weights_ns"),
            st_scan_ns: registry.counter("api.stage.scan_ns"),
            st_total_ns: registry.counter("api.stage.total_ns"),
            h_query_ns: registry.histogram("api.query_ns"),
            h_qc_lookup_ns: registry.histogram("api.qc_lookup_ns"),
            h_group_members: registry.histogram("api.scan_group_members"),
            registry,
        }
    }

    /// One `query_batch` call accepted.
    #[inline]
    pub fn on_batch(&self) {
        #[cfg(feature = "obs")]
        self.registry.incr(self.batches);
    }

    /// One query-cache lookup was charged `ns` of simulated time.
    #[inline]
    pub fn on_qc_lookup(&self, ns: u64) {
        #[cfg(feature = "obs")]
        {
            self.registry.add(self.st_qc_lookup_ns, ns);
            self.registry.record(self.h_qc_lookup_ns, ns);
        }
        #[cfg(not(feature = "obs"))]
        let _ = ns;
    }

    /// One scan group (shared flash pass) completed, with the timing
    /// model's stage breakdown and the pass's skip count.
    #[inline]
    pub fn on_scan_group(
        &self,
        members: u64,
        skipped: u64,
        flash_ns: u64,
        compute_ns: u64,
        weights_ns: u64,
        scan_ns: u64,
    ) {
        #[cfg(feature = "obs")]
        {
            self.registry.incr(self.scan_groups);
            self.registry.add(self.skipped, skipped);
            self.registry.add(self.st_flash_ns, flash_ns);
            self.registry.add(self.st_compute_ns, compute_ns);
            self.registry.add(self.st_weights_ns, weights_ns);
            self.registry.add(self.st_scan_ns, scan_ns);
            self.registry.record(self.h_group_members, members);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (members, skipped, flash_ns, compute_ns, weights_ns, scan_ns);
    }

    /// One query completed with simulated latency `elapsed_ns`.
    #[inline]
    pub fn on_query(&self, elapsed_ns: u64, cache_hit: bool) {
        #[cfg(feature = "obs")]
        {
            self.registry.incr(self.queries);
            self.registry.incr(if cache_hit {
                self.cache_hits
            } else {
                self.cache_misses
            });
            self.registry.add(self.st_total_ns, elapsed_ns);
            self.registry.record(self.h_query_ns, elapsed_ns);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (elapsed_ns, cache_hit);
    }

    /// One query was answered with less than full coverage.
    #[inline]
    pub fn on_degraded(&self) {
        #[cfg(feature = "obs")]
        self.registry.incr(self.degraded);
    }

    /// `n` requests in a batch carried a non-zero end-to-end
    /// `request_id` (a serve-layer admission tagged them, or the caller
    /// stamped its own correlation id).
    #[inline]
    pub fn on_tagged(&self, n: u64) {
        #[cfg(feature = "obs")]
        self.registry.add(self.tagged, n);
        #[cfg(not(feature = "obs"))]
        let _ = n;
    }

    /// A post-batch recovery pass remapped and/or lost pages while
    /// retiring permanently-failed blocks.
    #[inline]
    pub fn on_recovery(&self, pages_remapped: u64, pages_lost: u64) {
        #[cfg(feature = "obs")]
        {
            self.registry.add(self.recovery_remapped, pages_remapped);
            self.registry.add(self.recovery_lost, pages_lost);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (pages_remapped, pages_lost);
    }

    /// Queries served so far.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.registry.counter_value(self.queries)
    }

    /// Batches served so far.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.registry.counter_value(self.batches)
    }

    /// Cache hits so far.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.registry.counter_value(self.cache_hits)
    }

    /// Cache misses so far.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.registry.counter_value(self.cache_misses)
    }

    /// Scan groups executed so far.
    #[must_use]
    pub fn scan_groups(&self) -> u64 {
        self.registry.counter_value(self.scan_groups)
    }

    /// Features skipped (as attributed to queries) so far.
    #[must_use]
    pub fn skipped(&self) -> u64 {
        self.registry.counter_value(self.skipped)
    }

    /// Queries answered degraded (coverage < 1) so far.
    #[must_use]
    pub fn degraded_queries(&self) -> u64 {
        self.registry.counter_value(self.degraded)
    }

    /// The per-stage simulated-time totals.
    #[must_use]
    pub fn stage_totals(&self) -> StageTotals {
        StageTotals {
            qc_lookup_ns: self.registry.counter_value(self.st_qc_lookup_ns),
            flash_ns: self.registry.counter_value(self.st_flash_ns),
            compute_ns: self.registry.counter_value(self.st_compute_ns),
            weights_ns: self.registry.counter_value(self.st_weights_ns),
            scan_ns: self.registry.counter_value(self.st_scan_ns),
            total_ns: self.registry.counter_value(self.st_total_ns),
        }
    }

    /// A deterministic snapshot of the API-level metrics.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Cluster-level counters and histograms owned by
/// [`DeepStoreCluster`](crate::cluster::DeepStoreCluster): scatter-gather
/// fan-out, replica failovers, and rebalance outcomes (moved bytes and
/// the replication-factor distribution). Per-drive engine/API metrics
/// stay on the drives; the cluster rolls everything up with
/// [`MetricsSnapshot::merge`].
// With `obs` off the recording bodies compile out, so the ids are
// registered but never read.
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
#[derive(Debug)]
pub struct ClusterTelemetry {
    registry: MetricsRegistry,
    queries: CounterId,
    partitions_scanned: CounterId,
    failovers: CounterId,
    degraded: CounterId,
    rebalances: CounterId,
    moved_bytes: CounterId,
    re_replicated: CounterId,
    dropped_replicas: CounterId,
    h_query_ns: HistogramId,
    h_replication: HistogramId,
    h_moved_bytes: HistogramId,
}

impl Default for ClusterTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterTelemetry {
    /// Fresh counters, all zero.
    #[must_use]
    pub fn new() -> Self {
        let mut registry = MetricsRegistry::new();
        ClusterTelemetry {
            queries: registry.counter("cluster.queries"),
            partitions_scanned: registry.counter("cluster.partitions_scanned"),
            failovers: registry.counter("cluster.replica_failovers"),
            degraded: registry.counter("cluster.degraded_queries"),
            rebalances: registry.counter("cluster.rebalances"),
            moved_bytes: registry.counter("cluster.rebalance.moved_bytes"),
            re_replicated: registry.counter("cluster.rebalance.re_replicated"),
            dropped_replicas: registry.counter("cluster.rebalance.dropped_replicas"),
            h_query_ns: registry.histogram("cluster.query_ns"),
            h_replication: registry.histogram("cluster.partition_replication"),
            h_moved_bytes: registry.histogram("cluster.rebalance.moved_bytes_per_partition"),
            registry,
        }
    }

    /// One cluster query finished: it scanned `partitions` partitions,
    /// failed over `failovers` times, and took `elapsed_ns` of
    /// simulated time end to end.
    #[inline]
    pub fn on_query(&self, partitions: u64, failovers: u64, elapsed_ns: u64, degraded: bool) {
        #[cfg(feature = "obs")]
        {
            self.registry.incr(self.queries);
            self.registry.add(self.partitions_scanned, partitions);
            self.registry.add(self.failovers, failovers);
            if degraded {
                self.registry.incr(self.degraded);
            }
            self.registry.record(self.h_query_ns, elapsed_ns);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (partitions, failovers, elapsed_ns, degraded);
    }

    /// One `rebalance()` pass finished.
    #[inline]
    pub fn on_rebalance(&self, moved_bytes: u64, re_replicated: u64, dropped: u64) {
        #[cfg(feature = "obs")]
        {
            self.registry.incr(self.rebalances);
            self.registry.add(self.moved_bytes, moved_bytes);
            self.registry.add(self.re_replicated, re_replicated);
            self.registry.add(self.dropped_replicas, dropped);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (moved_bytes, re_replicated, dropped);
    }

    /// Records one partition's state after a rebalance pass: its
    /// replication factor and the bytes moved on its behalf.
    #[inline]
    pub fn on_partition_rebalanced(&self, replication: u64, moved_bytes: u64) {
        #[cfg(feature = "obs")]
        {
            self.registry.record(self.h_replication, replication);
            self.registry.record(self.h_moved_bytes, moved_bytes);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (replication, moved_bytes);
    }

    /// Cluster queries served so far.
    #[must_use]
    pub fn queries(&self) -> u64 {
        self.registry.counter_value(self.queries)
    }

    /// Replica failovers so far.
    #[must_use]
    pub fn failovers(&self) -> u64 {
        self.registry.counter_value(self.failovers)
    }

    /// A deterministic snapshot of the cluster-level metrics.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// Concatenates metric snapshots (registration order within each part
/// is preserved; names are namespaced by their owners, e.g. `engine.*`
/// and `api.*`, so concatenation cannot collide).
#[must_use]
pub fn merge_snapshots(parts: Vec<MetricsSnapshot>) -> MetricsSnapshot {
    let mut merged = MetricsSnapshot::empty();
    for part in parts {
        merged.counters.extend(part.counters);
        merged.histograms.extend(part.histograms);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_totals_accumulate() {
        let t = ApiTelemetry::new();
        t.on_batch();
        t.on_qc_lookup(100);
        t.on_scan_group(2, 1, 50, 30, 20, 80);
        t.on_query(180, false);
        t.on_query(100, true);
        if cfg!(feature = "obs") {
            assert_eq!(t.queries(), 2);
            assert_eq!(t.cache_hits(), 1);
            assert_eq!(t.cache_misses(), 1);
            assert_eq!(t.scan_groups(), 1);
            assert_eq!(t.skipped(), 1);
            let s = t.stage_totals();
            assert_eq!(s.qc_lookup_ns, 100);
            assert_eq!(s.flash_ns, 50);
            assert_eq!(s.compute_ns, 30);
            assert_eq!(s.weights_ns, 20);
            assert_eq!(s.scan_ns, 80);
            assert_eq!(s.total_ns, 280);
        } else {
            assert_eq!(t.queries(), 0);
            assert_eq!(t.stage_totals(), StageTotals::default());
        }
    }

    #[test]
    fn fault_hooks_count_degraded_queries_and_recovery() {
        let t = ApiTelemetry::new();
        t.on_degraded();
        t.on_degraded();
        t.on_recovery(8, 3);
        t.on_recovery(0, 1);
        if cfg!(feature = "obs") {
            assert_eq!(t.degraded_queries(), 2);
            let snap = t.snapshot();
            assert_eq!(snap.counter("api.degraded_queries"), Some(2));
            assert_eq!(snap.counter("api.recovery.pages_remapped"), Some(8));
            assert_eq!(snap.counter("api.recovery.pages_lost"), Some(4));
        } else {
            assert_eq!(t.degraded_queries(), 0);
        }
    }

    #[test]
    fn merged_snapshot_keeps_namespaced_parts() {
        let e = ScanMetrics::new();
        let a = ApiTelemetry::new();
        e.on_batch_scan(1, 10, 2);
        a.on_query(5, false);
        let merged = merge_snapshots(vec![e.snapshot(), a.snapshot()]);
        let expected = if cfg!(feature = "obs") { 8 } else { 0 };
        assert_eq!(merged.counter("engine.features_scanned"), Some(expected));
        assert!(merged.counter("api.queries").is_some());
        assert!(merged.histogram("engine.scan_features").is_some());
    }

    #[test]
    fn device_stats_roundtrips_through_json() {
        let stats = DeviceStats {
            queries: 3,
            stages: StageTotals {
                total_ns: 99,
                ..StageTotals::default()
            },
            ..DeviceStats::default()
        };
        let json = serde_json::to_string(&stats).unwrap();
        let back: DeviceStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }
}
