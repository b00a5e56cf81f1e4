//! The benchmark's fixed definition: workloads with their sizes, the nine
//! end-to-end metrics, and every per-layer metric with the end-to-end
//! metric and workload it is expected to move. `BENCHMARK.json` at the
//! repository root lists the same names (a unit test holds the two
//! together); sizes live here because that file's schema has no room
//! for them.

/// `run_seconds` of `BENCHMARK.json`: the measured-phase counts below
/// are sized to take about this long on a quiet host; `--seconds`
/// scales them.
pub const RUN_SECONDS: f64 = 10.0;
/// Top-K size of every query.
pub const K: usize = 10;
/// Probe queries verified against the brute-force reference per run.
pub const PROBES: usize = 8;
/// How many of the probes are also answered with `.exact()` (an exact
/// scan of the large database costs ten cascade scans).
pub const EXACT_PROBES: usize = 1;
/// Generator / reference threads the harness may use (`nproc` here).
pub const HARNESS_THREADS: usize = 2;
/// Block size of the from-outside stage replay, features.
pub const REPLAY_BLOCK: usize = 1024;

/// Features in the large textqa database (96 MB: far beyond the 2 MiB
/// per-core L2 and the engine's one-page cache).
pub const SCAN_FEATURES: u64 = 120_000;
/// Warm-up queries on the large-database workloads.
pub const SCAN_WARMUP: usize = 40;
/// Measured queries of `scan_textqa`.
pub const SCAN_MEASURED: usize = 170;
/// Measured queries of `cluster_scatter`.
pub const CLUSTER_MEASURED: usize = 150;
/// Features in the tir database (2 MB, cache-resident on purpose).
pub const BATCH_FEATURES: u64 = 1024;
/// Queries per `query_batch` call.
pub const BATCH_SIZE: usize = 8;
/// Warm-up batches.
pub const BATCH_WARMUP: usize = 14;
/// Measured batches.
pub const BATCH_MEASURED: usize = 100;
/// Features behind the serving front end (3.3 MB).
pub const SERVE_FEATURES: u64 = 4096;
/// Client connections (closed loop, one caller each).
pub const SERVE_CONNECTIONS: usize = 2;
/// Query-cache capacity, entries.
pub const SERVE_QC_CAPACITY: usize = 1000;
/// Base-query pool of the Zipf stream.
pub const SERVE_POOL: usize = 256;
/// Semantic clusters in the pool.
pub const SERVE_CLUSTERS: usize = 16;
/// Zipf exponent.
pub const SERVE_ALPHA: f64 = 0.7;
/// Share of noisy near-duplicates in the stream.
pub const SERVE_DUPLICATES: f64 = 0.2;
/// Warm-up queries (fill the cache to its capacity).
pub const SERVE_WARMUP: usize = 5000;
/// Measured queries.
pub const SERVE_MEASURED: usize = 9000;
/// Open-loop rate of the traced serve segment, queries/s (Poisson).
pub const OPEN_LOOP_QPS: f64 = 300.0;
/// Drives in the cluster.
pub const CLUSTER_DRIVES: usize = 4;
/// Copies of every partition.
pub const CLUSTER_REPLICAS: usize = 2;
/// Features written before the first durable append (26 MB).
pub const INGEST_INITIAL: u64 = 32768;
/// Features per durable append (0.2 MB: the whole run, 361 appends, has
/// to fit the 128 MiB image).
pub const INGEST_CHUNK: u64 = 256;
/// Every this-many-th durable append first waits for a restart.
pub const INGEST_RESTART_EVERY: usize = 5;
/// Warm-up durable appends (two restarts).
pub const INGEST_WARMUP: usize = 10;
/// Probes of the crash check: its database is the largest (125 000
/// features), and the brute-force reference costs probes x features.
pub const INGEST_PROBES: usize = 4;
/// Measured durable appends: 70 of them restart-bearing, so that the
/// tail (>= 10 samples beyond) is always an append + restart.
pub const INGEST_MEASURED: usize = 350;

/// Blocks per plane of a drive kept in an image file: with the paper's
/// 1 024 planes and 16 KiB pages, 1 x 8 pages per plane is 128 MiB.
pub const IMAGE_BLOCKS_PER_PLANE: usize = 1;
/// Pages per block of a drive kept in an image file.
pub const IMAGE_PAGES_PER_BLOCK: usize = 8;

/// A workload and why it exists.
pub struct WorkloadSpec {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which layer it loads or bypasses.
    pub why: &'static str,
}

/// The five workloads.
pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "scan_textqa",
        why: "light model, 96 MB database on an mmap image: flash page reads, f32 decode and the int8 bound check do the work, nn kernels little",
    },
    WorkloadSpec {
        name: "batch_tir",
        why: "0.79 MFLOP per comparison, batches of 8 on a cache-resident database: the fused nn kernels do >95% of the work, flash and decode almost none",
    },
    WorkloadSpec {
        name: "serve_zipf",
        why: "2 connections into serve() with the query cache on over a Zipf stream: proto, admission/coalescing and qcache set p50, misses set the tail",
    },
    WorkloadSpec {
        name: "cluster_scatter",
        why: "the scan_textqa database behind 4 drives x 2 replicas: scatter, failover checks and merge overhead show here and nowhere else",
    },
    WorkloadSpec {
        name: "ingest_restart",
        why: "durable appends with a close/open restart before every 5th: persist commit, flash programs, int8 sidecars and open do all the work, the scan none",
    },
];

/// An end-to-end metric.
pub struct EndToEndSpec {
    /// Metric name.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which clock the number is on.
    pub clock: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

const fn e(
    name: &'static str,
    unit: &'static str,
    clock: &'static str,
    better: &'static str,
    bound: f64,
) -> EndToEndSpec {
    EndToEndSpec {
        name,
        unit,
        clock,
        better,
        bound,
    }
}

/// The nine end-to-end metrics every workload reports. The timing bounds
/// are the largest the driver allows, because the host's own speed is
/// not steady: across ten seeds the timings of one commit spread by
/// 1-17% of their median in an ordinary hour (see the README, *Host
/// speed*), and a bound should be three times the spread.
pub const END_TO_END: [EndToEndSpec; 9] = [
    e("setup_s", "s", "wall", "lower", 0.25),
    e("latency_p50_ms", "ms", "wall", "lower", 0.25),
    e("latency_tail_ms", "ms", "wall", "lower", 0.25),
    e("throughput_ops_s", "1/s", "wall", "higher", 0.25),
    e("cpu_ms_per_op", "ms", "process CPU", "lower", 0.25),
    e("ok_share", "ratio", "none", "higher", 0.001),
    e("peak_rss_mb", "MiB", "none", "lower", 0.05),
    e("stored_bytes_per_user_byte", "ratio", "none", "lower", 0.01),
    e(
        "sim_probe_latency_us",
        "sim_us",
        "simulated",
        "lower",
        0.001,
    ),
];

/// A per-layer metric of the traced run.
pub struct LayerSpec {
    /// Metric name, `<layer>.<what>`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The end-to-end metric and workload it should move; elsewhere the
    /// prediction is no change.
    pub moves: &'static str,
}

impl LayerSpec {
    /// The layer (module) the metric belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("layer prefix")
    }

    /// Which clock the number is on.
    pub fn clock(&self) -> &'static str {
        if self.layer() == "accel" || self.name == "cluster.sim_scaling_efficiency" {
            "simulated"
        } else if matches!(self.unit, "count" | "bytes" | "MB")
            || (self.unit == "ratio"
                && !self.name.ends_with("_efficiency")
                && !self.name.ends_with("_speedup"))
        {
            "none"
        } else {
            "wall"
        }
    }
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> LayerSpec {
    LayerSpec {
        name,
        unit,
        better,
        moves,
    }
}

const SERVE_P50: &str = "latency_p50_ms, cpu_ms_per_op on serve_zipf";
const SERVE_TAIL: &str = "latency_tail_ms, throughput_ops_s on serve_zipf";
const SCAN_P50: &str = "latency_p50_ms, throughput_ops_s on scan_textqa and cluster_scatter";
const INGEST_P50: &str = "latency_p50_ms on ingest_restart";
const BATCH_P50: &str = "latency_p50_ms, cpu_ms_per_op on batch_tir";
const CLUSTER_P50: &str = "latency_p50_ms, throughput_ops_s on cluster_scatter";
const INGEST_TAIL: &str = "latency_tail_ms on ingest_restart (append + restart)";
const NONE: &str = "none (bookkeeping)";

/// Every per-layer metric, in report order.
pub const PER_LAYER: &[LayerSpec] = &[
    l("proto.encode_query_ns", "ns", "lower", SERVE_P50),
    l("proto.decode_query_ns", "ns", "lower", SERVE_P50),
    l("proto.encode_result_ns", "ns", "lower", SERVE_P50),
    l("proto.decode_result_ns", "ns", "lower", SERVE_P50),
    l("proto.query_frame_bytes", "bytes", "lower", SERVE_P50),
    l("serve.queue_wait_p50_us", "us", "lower", SERVE_TAIL),
    l("serve.queue_wait_p99_us", "us", "lower", SERVE_TAIL),
    l("serve.service_p50_us", "us", "lower", SERVE_TAIL),
    l("serve.service_p99_us", "us", "lower", SERVE_TAIL),
    l("serve.wire_overhead_us", "us", "lower", SERVE_P50),
    l("serve.engine_batches", "count", "lower", SERVE_TAIL),
    l("serve.coalesced_share", "ratio", "higher", SERVE_TAIL),
    l("serve.rejected_share", "ratio", "lower", SERVE_TAIL),
    l(
        "serve.open_loop_p50_ms",
        "ms",
        "lower",
        "reported, not gated (open loop at 300 q/s)",
    ),
    l(
        "serve.open_loop_p99_ms",
        "ms",
        "lower",
        "reported, not gated (open loop at 300 q/s)",
    ),
    l("serve.generator_lag_p99_ms", "ms", "lower", NONE),
    l(
        "qcache.hit_share",
        "ratio",
        "higher",
        "latency_p50_ms on serve_zipf",
    ),
    l(
        "qcache.evictions",
        "count",
        "lower",
        "latency_p50_ms on serve_zipf",
    ),
    l(
        "qcache.lookup_ns",
        "ns",
        "lower",
        "latency_p50_ms on serve_zipf",
    ),
    l(
        "qcache.insert_ns",
        "ns",
        "lower",
        "latency_tail_ms on serve_zipf",
    ),
    l(
        "api.query_overhead_us",
        "us",
        "lower",
        "latency_p50_ms on serve_zipf",
    ),
    l("engine.scan_ns_per_feature", "ns", "lower", SCAN_P50),
    l("engine.exact_ns_per_feature", "ns", "lower", SCAN_P50),
    l("engine.pruned_share", "ratio", "higher", SCAN_P50),
    l("engine.rescored_share", "ratio", "lower", SCAN_P50),
    l("engine.pages_read_per_query", "count", "lower", SCAN_P50),
    l("engine.read_decode_ns_per_feature", "ns", "lower", SCAN_P50),
    l(
        "engine.batch8_ns_per_feature_query",
        "ns",
        "lower",
        BATCH_P50,
    ),
    l(
        "engine.par2_speedup",
        "ratio",
        "higher",
        "none at parallelism 1 (every workload)",
    ),
    l("engine.append_mb_per_s", "MB/s", "higher", INGEST_P50),
    l("engine.seal_ms", "ms", "lower", INGEST_P50),
    l(
        "flash.page_read_ns_heap",
        "ns",
        "lower",
        "latency_p50_ms on cluster_scatter",
    ),
    l(
        "flash.page_read_ns_mmap",
        "ns",
        "lower",
        "latency_p50_ms on scan_textqa",
    ),
    l("flash.page_program_ns", "ns", "lower", INGEST_P50),
    l(
        "flash.reads",
        "count",
        "lower",
        "latency_p50_ms on scan_textqa",
    ),
    l("flash.programs", "count", "lower", INGEST_P50),
    l("nn.similarity_ns_per_feature", "ns", "lower", BATCH_P50),
    l("nn.multi8_ns_per_feature_query", "ns", "lower", BATCH_P50),
    l("nn.bound_ns_per_feature", "ns", "lower", SCAN_P50),
    l("nn.quantize_ns_per_feature", "ns", "lower", INGEST_TAIL),
    l("nn.macs_per_feature", "count", "lower", BATCH_P50),
    l("nn.gflops_computed", "GFLOP/s", "higher", BATCH_P50),
    l(
        "systolic.topk_offer_ns",
        "ns",
        "lower",
        "small share everywhere",
    ),
    l(
        "systolic.topk_inserts_per_query",
        "count",
        "lower",
        "small share everywhere",
    ),
    l("cluster.scatter_overhead_ms", "ms", "lower", CLUSTER_P50),
    l(
        "cluster.wall_scaling_efficiency",
        "ratio",
        "higher",
        CLUSTER_P50,
    ),
    l(
        "cluster.sim_scaling_efficiency",
        "ratio",
        "higher",
        "sim_probe_latency_us on cluster_scatter",
    ),
    l(
        "cluster.partitions_per_query",
        "count",
        "lower",
        CLUSTER_P50,
    ),
    l(
        "cluster.failovers_per_query",
        "count",
        "lower",
        "none while all drives are healthy",
    ),
    l(
        "cluster.failover_latency_p50_ms",
        "ms",
        "lower",
        "none while all drives are healthy",
    ),
    l(
        "cluster.rebalance_s",
        "s",
        "lower",
        "none while all drives are healthy",
    ),
    l(
        "cluster.rebalance_moved_mb",
        "MB",
        "lower",
        "none while all drives are healthy",
    ),
    l("persist.flush_ms", "ms", "lower", INGEST_P50),
    l("persist.close_ms", "ms", "lower", INGEST_TAIL),
    l("persist.open_ms", "ms", "lower", INGEST_TAIL),
    l("persist.manifest_bytes", "bytes", "lower", INGEST_P50),
    l("persist.manifest_encode_ms", "ms", "lower", INGEST_P50),
    l("persist.manifest_decode_ms", "ms", "lower", INGEST_TAIL),
    l(
        "persist.flush_share_of_append",
        "ratio",
        "lower",
        INGEST_P50,
    ),
    l(
        "accel.sim_flash_share",
        "ratio",
        "lower",
        "sim_probe_latency_us",
    ),
    l(
        "accel.sim_compute_share",
        "ratio",
        "lower",
        "sim_probe_latency_us",
    ),
    l("harness.gen_s", "s", "lower", NONE),
    l("harness.reference_s", "s", "lower", NONE),
    l("harness.timer_ns", "ns", "lower", NONE),
    l("harness.trace_overhead_share", "ratio", "lower", NONE),
    l("harness.trace_coverage_share", "ratio", "higher", NONE),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "<x>"` in a JSON text, in order.
    fn names_in(json: &str) -> Vec<String> {
        json.split("\"name\"")
            .skip(1)
            .filter_map(|rest| {
                let rest = rest.trim_start().strip_prefix(':')?.trim_start();
                let rest = rest.strip_prefix('"')?;
                Some(rest[..rest.find('"')?].to_string())
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_spec_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let want: Vec<String> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .map(str::to_string)
            .collect();
        assert_eq!(names_in(&json), want);
        assert!(json.contains(&format!("\"run_seconds\": {RUN_SECONDS},")));
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for m in PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &WORKLOADS {
            assert!(
                json.contains(&format!("\"why\": \"{}\"", w.why)),
                "{}",
                w.name
            );
            assert!(w.why.len() <= 200);
        }
    }

    #[test]
    fn names_are_unique_and_layers_are_module_names() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64);
        }
        const LAYERS: [&str; 12] = [
            "proto", "serve", "qcache", "api", "engine", "cluster", "persist", "flash", "nn",
            "systolic", "accel", "harness",
        ];
        for m in PER_LAYER {
            assert!(LAYERS.contains(&m.layer()), "{} has no layer", m.name);
        }
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }
}
