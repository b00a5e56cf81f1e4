//! Query-cache experiment harness (§6.5, Figures 13–14).
//!
//! The paper evaluates the Query Cache on TIR scaled to 100 M images
//! (192 GB of feature vectors) with 100 K queries sampled uniformly or
//! Zipfian(0.7) from a pool with semantic near-duplicates. We reproduce
//! the structure with a 100 K-entry base-query pool grouped into semantic
//! clusters (see `deepstore_workloads::trace`), run the *functional*
//! query cache over the stream to measure miss rates, and combine the
//! measured miss rate with the timing models to produce the speedup
//! curves.

use deepstore_baseline::{GpuSsdSystem, ScanSpec};
use deepstore_core::accel::{channel_level_scan, ScanWorkload};
use deepstore_core::config::DeepStoreConfig;
use deepstore_core::qcache::{lookup_time_for, QueryCache, QueryCacheConfig, ReplacementPolicy};
use deepstore_nn::zoo;
use deepstore_systolic::topk::ScoredFeature;
use deepstore_workloads::{QueryStream, TraceDistribution};

/// The §6.5 database: 100 M images × 2 KB TIR features = ~192 GB.
pub const QC_DB_BYTES: u64 = 100_000_000 * 2048;
/// Base-query pool size.
pub const POOL_SIZE: usize = 100_000;
/// Semantic cluster count (~25 near-duplicate variants per concept).
pub const CLUSTERS: usize = 4_000;

/// Parameters of one query-cache run.
#[derive(Debug, Clone, Copy)]
pub struct QcRunConfig {
    /// Cache capacity in entries.
    pub capacity: usize,
    /// Error threshold (0.0–0.2 in Figure 13).
    pub threshold: f64,
    /// Query distribution.
    pub distribution: TraceDistribution,
    /// Queries used to warm the cache before measuring.
    pub warmup: usize,
    /// Queries measured.
    pub measured: usize,
    /// RNG seed.
    pub seed: u64,
}

impl QcRunConfig {
    /// The Figure 13 defaults at a given threshold and distribution.
    pub fn fig13(threshold: f64, distribution: TraceDistribution) -> Self {
        QcRunConfig {
            capacity: 1000,
            threshold,
            distribution,
            warmup: 2_000,
            measured: 6_000,
            seed: 20190612,
        }
    }
}

/// Outcome of one run: measured miss rate plus modeled timings.
#[derive(Debug, Clone, Copy)]
pub struct QcRunResult {
    /// Measured miss rate over the measurement window.
    pub miss_rate: f64,
    /// Mean DeepStore+QC query time, seconds.
    pub deepstore_qc_s: f64,
    /// Mean Traditional+QC query time, seconds.
    pub traditional_qc_s: f64,
    /// DeepStore (channel level, no QC) scan time, seconds.
    pub deepstore_scan_s: f64,
    /// Traditional (GPU+SSD, no QC) scan time, seconds.
    pub traditional_scan_s: f64,
}

impl QcRunResult {
    /// Speedup of Traditional+QC over Traditional.
    pub fn traditional_qc_speedup(&self) -> f64 {
        self.traditional_scan_s / self.traditional_qc_s
    }

    /// Speedup of DeepStore (no QC) over Traditional.
    pub fn deepstore_speedup(&self) -> f64 {
        self.traditional_scan_s / self.deepstore_scan_s
    }

    /// Speedup of DeepStore+QC over Traditional.
    pub fn deepstore_qc_speedup(&self) -> f64 {
        self.traditional_scan_s / self.deepstore_qc_s
    }
}

/// Runs the functional cache, evicting by `policy`, over the stream and
/// measures the miss rate in the measurement window.
pub fn measure_miss_rate(run: &QcRunConfig, policy: ReplacementPolicy) -> f64 {
    let tir = zoo::tir();
    let mut stream = QueryStream::new(
        tir.feature_len(),
        POOL_SIZE,
        CLUSTERS,
        run.distribution,
        run.seed,
    );
    let mut cache = QueryCache::new(QueryCacheConfig {
        capacity: run.capacity,
        threshold: run.threshold,
        // The RBF QCN's scores already encode confidence; the stream's
        // perturbations were calibrated against accuracy 1.0 (DESIGN.md).
        qcn_accuracy: 1.0,
    })
    .with_policy(policy);
    let dummy: Vec<ScoredFeature> = vec![ScoredFeature {
        score: 1.0,
        feature_id: 0,
    }];
    let mut misses = 0u64;
    for i in 0..(run.warmup + run.measured) {
        let (_, q) = stream.next_query();
        let hit = cache.lookup(&q).is_some();
        if !hit {
            cache.insert(q, dummy.clone());
        }
        if i >= run.warmup && !hit {
            misses += 1;
        }
    }
    misses as f64 / run.measured as f64
}

/// Full run: measured miss rate combined with the timing models.
pub fn run(runc: &QcRunConfig) -> QcRunResult {
    let miss_rate = measure_miss_rate(runc, ReplacementPolicy::Lru);
    let tir = zoo::tir();
    let cfg = DeepStoreConfig::paper_default();

    // Scan times for the 192 GB database.
    let workload = ScanWorkload::from_model(&tir, QC_DB_BYTES, &cfg);
    let deepstore_scan_s = channel_level_scan(&workload, &cfg).elapsed.as_secs_f64();
    let spec = ScanSpec::from_model(&tir, QC_DB_BYTES);
    let traditional_scan_s = GpuSsdSystem::paper_default("tir").query(&spec).total_secs;

    // Per-query service times. A hit re-runs the SCN over the K cached
    // entries (negligible) after the QCN pass over the cache.
    let lookup_s = lookup_time_for(
        runc.capacity,
        &tir.layer_shapes(),
        cfg.ssd.geometry.channels,
        cfg.controller_overhead_cycles,
    )
    .as_secs_f64();
    let deepstore_qc_s = lookup_s + miss_rate * deepstore_scan_s;
    // The traditional system evaluates the QCN on the GPU; comparable
    // per-entry cost, then a miss scans over PCIe.
    let traditional_qc_s = lookup_s + miss_rate * traditional_scan_s;

    QcRunResult {
        miss_rate,
        deepstore_qc_s,
        traditional_qc_s,
        deepstore_scan_s,
        traditional_scan_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(threshold: f64, dist: TraceDistribution, capacity: usize) -> f64 {
        let run = QcRunConfig {
            capacity: capacity.min(400),
            threshold,
            distribution: dist,
            warmup: 200,
            measured: 600,
            seed: 7,
        };
        measure_miss_rate(&run, ReplacementPolicy::Lru)
    }

    #[test]
    fn zipf_misses_less_than_uniform() {
        let u = quick(0.10, TraceDistribution::Uniform, 1000);
        let z = quick(0.10, TraceDistribution::Zipfian { alpha: 0.7 }, 1000);
        assert!(z < u, "zipf {z} !< uniform {u}");
    }

    #[test]
    fn looser_threshold_misses_less() {
        let tight = quick(0.02, TraceDistribution::Zipfian { alpha: 0.7 }, 1000);
        let loose = quick(0.20, TraceDistribution::Zipfian { alpha: 0.7 }, 1000);
        assert!(loose < tight, "loose {loose} !< tight {tight}");
    }

    #[test]
    fn bigger_cache_misses_less() {
        let small = quick(0.10, TraceDistribution::Zipfian { alpha: 0.7 }, 100);
        let big = quick(0.10, TraceDistribution::Zipfian { alpha: 0.7 }, 1000);
        assert!(big <= small, "big {big} !<= small {small}");
    }

    #[test]
    fn speedups_follow_miss_rate() {
        let r = QcRunResult {
            miss_rate: 0.5,
            deepstore_qc_s: 0.5,
            traditional_qc_s: 5.0,
            deepstore_scan_s: 1.0,
            traditional_scan_s: 10.0,
        };
        assert!((r.deepstore_speedup() - 10.0).abs() < 1e-12);
        assert!((r.deepstore_qc_speedup() - 20.0).abs() < 1e-12);
        assert!((r.traditional_qc_speedup() - 2.0).abs() < 1e-12);
    }
}
