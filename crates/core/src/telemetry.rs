//! Core-layer telemetry: the engine, API and cluster metric tables and
//! the device stats surface.
//!
//! Each layer declares its metrics once, as a [`deepstore_obs::metrics!`]
//! table of field, kind and metric name:
//!
//! * [`ScanMetrics`] — owned by [`crate::engine::Engine`]; counts flash
//!   passes (`engine.batch_scans`), the requests that rode them
//!   (`engine.batch_queries` — a single query is a pass of one),
//!   features scored, skipped, pruned and rescored, recorded once per
//!   pass (never per feature, so the hot path stays clean).
//! * [`ApiTelemetry`] — owned by [`crate::api::DeepStore`]; counts
//!   queries, batches and cache hits, and accumulates per-stage
//!   simulated-time totals (query-cache lookup, flash streaming,
//!   kernel/scoring, weight distribution) from the timing model.
//! * [`ClusterTelemetry`] — owned by
//!   [`DeepStoreCluster`](crate::cluster::DeepStoreCluster); counts
//!   scatter-gather fan-out, replica failovers and rebalance outcomes.
//!
//! Snapshots are deterministic under any `parallelism`
//! setting — every mutation is a commutative atomic add and every
//! recorded quantity is derived from the physically-determined shard
//! plan or the deterministic timing model, never from host wall-clock.

use deepstore_flash::FlashEventCounts;
use deepstore_obs::{metrics, MetricsSnapshot};
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

metrics! {
    /// Scan-path counters owned by the engine, recorded once per pass.
    pub struct ScanMetrics {
        batch_scans: Counter = "engine.batch_scans",
        batch_queries: Counter = "engine.batch_queries",
        features_scanned: Counter = "engine.features_scanned",
        features_skipped: Counter = "engine.features_skipped",
        features_pruned: Counter = "scan.pruned_features",
        features_rescored: Counter = "scan.rescored_features",
        scan_features: Histogram = "engine.scan_features",
    }
}

metrics! {
    /// Query-path counters and stage totals owned by the API facade.
    pub struct ApiTelemetry {
        queries: Counter = "api.queries",
        batches: Counter = "api.batches",
        cache_hits: Counter = "api.cache_hits",
        cache_misses: Counter = "api.cache_misses",
        scan_groups: Counter = "api.scan_groups",
        unreadable_skipped: Counter = "api.unreadable_skipped",
        degraded_queries: Counter = "api.degraded_queries",
        tagged_requests: Counter = "api.tagged_requests",
        recovery_pages_remapped: Counter = "api.recovery.pages_remapped",
        recovery_pages_lost: Counter = "api.recovery.pages_lost",
        stage_qc_lookup_ns: Counter = "api.stage.qc_lookup_ns",
        stage_flash_ns: Counter = "api.stage.flash_ns",
        stage_compute_ns: Counter = "api.stage.compute_ns",
        stage_weights_ns: Counter = "api.stage.weights_ns",
        stage_scan_ns: Counter = "api.stage.scan_ns",
        stage_total_ns: Counter = "api.stage.total_ns",
        query_ns: Histogram = "api.query_ns",
        qc_lookup_ns: Histogram = "api.qc_lookup_ns",
        scan_group_members: Histogram = "api.scan_group_members",
    }
}

metrics! {
    /// Cluster-level counters and histograms: scatter-gather fan-out,
    /// replica failovers, and rebalance outcomes (moved bytes and the
    /// replication-factor distribution). Per-drive engine/API metrics
    /// stay on the drives; the cluster rolls everything up with
    /// [`MetricsSnapshot::merge`].
    pub struct ClusterTelemetry {
        queries: Counter = "cluster.queries",
        partitions_scanned: Counter = "cluster.partitions_scanned",
        replica_failovers: Counter = "cluster.replica_failovers",
        degraded_queries: Counter = "cluster.degraded_queries",
        rebalances: Counter = "cluster.rebalances",
        moved_bytes: Counter = "cluster.rebalance.moved_bytes",
        re_replicated: Counter = "cluster.rebalance.re_replicated",
        dropped_replicas: Counter = "cluster.rebalance.dropped_replicas",
        query_ns: Histogram = "cluster.query_ns",
        partition_replication: Histogram = "cluster.partition_replication",
        moved_bytes_per_partition: Histogram = "cluster.rebalance.moved_bytes_per_partition",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_totals_accumulate() {
        let t = ApiTelemetry::new();
        t.batches.incr();
        t.stage_qc_lookup_ns.add(100);
        t.scan_groups.incr();
        t.unreadable_skipped.add(1);
        t.stage_flash_ns.add(50);
        t.stage_compute_ns.add(30);
        t.stage_weights_ns.add(20);
        t.stage_scan_ns.add(80);
        for (ns, hit) in [(180, false), (100, true)] {
            t.queries.incr();
            (if hit { &t.cache_hits } else { &t.cache_misses }).incr();
            t.stage_total_ns.add(ns);
            t.query_ns.record(ns);
        }
        let got = [
            t.queries.get(),
            t.cache_hits.get(),
            t.cache_misses.get(),
            t.scan_groups.get(),
            t.unreadable_skipped.get(),
            t.stage_qc_lookup_ns.get(),
            t.stage_flash_ns.get(),
            t.stage_compute_ns.get(),
            t.stage_weights_ns.get(),
            t.stage_scan_ns.get(),
            t.stage_total_ns.get(),
        ];
        assert_eq!(got, [2, 1, 1, 1, 1, 100, 50, 30, 20, 80, 280]);
        assert_eq!(t.query_ns.count(), 2);
    }

    #[test]
    fn degraded_queries_and_recovery_accumulate() {
        let t = ApiTelemetry::new();
        t.degraded_queries.incr();
        t.degraded_queries.incr();
        for (remapped, lost) in [(8, 3), (0, 1)] {
            t.recovery_pages_remapped.add(remapped);
            t.recovery_pages_lost.add(lost);
        }
        let snap = t.snapshot();
        assert_eq!(t.degraded_queries.get(), 2);
        assert_eq!(snap.counter("api.degraded_queries"), Some(2));
        assert_eq!(snap.counter("api.recovery.pages_remapped"), Some(8));
        assert_eq!(snap.counter("api.recovery.pages_lost"), Some(4));
    }

    #[test]
    fn merged_snapshot_keeps_namespaced_parts() {
        let e = ScanMetrics::new();
        let a = ApiTelemetry::new();
        e.features_scanned.add(8);
        e.scan_features.record(10);
        a.queries.incr();
        let mut merged = e.snapshot();
        merged.merge(&a.snapshot());
        assert_eq!(merged.counter("engine.features_scanned"), Some(8));
        assert!(merged.counter("api.queries").is_some());
        assert!(merged.histogram("engine.scan_features").is_some());
        // The disjoint tables concatenate: engine rows, then API rows.
        let names: Vec<&str> = merged.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names.len(), 6 + 16);
        assert_eq!(names[..2], ["engine.batch_scans", "engine.batch_queries"]);
        assert_eq!(names[6], "api.queries");
        assert_eq!(names[21], "api.stage.total_ns");
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
