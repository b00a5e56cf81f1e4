//! CLI subcommands.

use crate::args::{ArgError, Flags};
use deepstore_baseline::GpuSsdSystem;
use deepstore_core::accel::scan;
use deepstore_core::config::{AcceleratorLevel, DeepStoreConfig};
use deepstore_core::proto::{Command, Device, HostClient, Response};
use deepstore_core::serve::{serve, simulate, QuotaConfig, ServeConfig, TcpClient, TcpTransport};
use deepstore_core::{
    ClusterQueryRequest, DbId, DeepStore, DeepStoreCluster, ModelId, QueryRequest, ScanWorkload,
};
use deepstore_flash::SimDuration;
use deepstore_nn::{zoo, Model, ModelGraph};
use deepstore_workloads::loadgen::{
    plan, run_open_loop, ArrivalProcess, LoadPlanConfig, LoadTarget,
};
use deepstore_workloads::replay::QueryTrace;
use deepstore_workloads::{QueryStream, TraceDistribution, APP_NAMES};
use std::error::Error;
use std::fmt::Write as _;
use std::time::Duration;

/// Usage text printed on errors.
pub const USAGE: &str = "\
usage: deepstore-cli <command> [flags]

commands:
  zoo                                     Table 1 model summary
  scan-time  --app <name> [--db-gib N]    timing model at paper scale
  create     --image <path> [--app <name>] [--features N] [--seed S]
             [--parallelism P]            build a persistent drive image:
                                          write the app's database, load its
                                          model, flush and close cleanly
  open       --image <path> [--app <name>] [--k K] [--probe-seed S]
             [--level ssd|channel|chip] [--db N] [--model N]
                                          reopen a drive image in a fresh
                                          process and run a probe query
  query      --app <name> [--features N] [--k K] [--level ssd|channel|chip]
             [--parallelism P] [--batch-file <file>] [--trace <out.json>]
             [--min-coverage F] [--dead-channel C] [--exact]
             [--image <path> [--db N] [--model N]]
                                          functional query on a small drive
  stats      [--app <name>] [--features N] [--k K] [--parallelism P]
             [--addr H:P | --addr-file <file>]
                                          device telemetry after a mixed
                                          workload (single/parallel/batch),
                                          or a live server's device + serve
                                          stats with --addr/--addr-file
  metrics    (--addr H:P | --addr-file <file>)
                                          scrape a running server's
                                          Prometheus exposition page
  dump       (--addr H:P | --addr-file <file>) [--out <file>]
                                          pull the server's flight-recorder
                                          ring as JSON
  trace      [--queries N] [--qps F] [--seed S] --out <file>
                                          generate a Poisson query trace
  replay     --trace <file> [--features N] [--parallelism P]
             [--batch-window-us W]        replay a trace through the serve
                                          engine on a simulated clock
  serve      [--app <name>] [--features N] [--port P] [--addr-file <file>]
             [--duration-ms MS] [--queue-depth D] [--quota-qps F]
             [--quota-burst F] [--batch-window-us W] [--parallelism P]
             [--seed S] [--image <path>]
             [--slo-p99-us US] [--dump-dir <dir>] [--recorder-capacity N]
                                          serve a store over loopback TCP
  loadgen    (--addr H:P | --addr-file <file>) [--app <name>] [--qps F]
             [--queries N] [--arrivals poisson|fixed] [--connections C]
             [--alpha F] [--dup-rate F] [--k K] [--db N] [--model N]
             [--level ssd|channel|chip] [--seed S]
                                          open-loop load against a server
  cluster    [--drives N] [--replicas R] [--app <name>] [--features N]
             [--k K] [--level ssd|channel|chip] [--seed S]
             [--parallelism P] [--kill-drive D] [--rebalance] [--exact]
                                          scatter-gather a database across
                                          N simulated drives with R-way
                                          replication; optionally kill a
                                          drive, fail over, and rebalance

`--parallelism` sets the scan worker-thread count (0 = one per host
core). It changes host wall-clock time only; results and simulated
latencies are identical at every setting.

`create` builds a single-file drive image at `--image` (the file must
not already exist), populates it with `--features` vectors from the
app's model, registers the model, flushes everything and closes the
image cleanly. `open` reopens that image — in a different process,
typically — reports whether the previous close was clean, and serves a
probe query against the persisted database and model (ids default to 1,
the ids `create` assigns). `query --image`/`serve --image` run those
commands against a persisted image instead of building an in-memory
drive; on a bounded `serve --image` run the image is closed cleanly at
shutdown.
`query --batch-file` reads whitespace-separated probe seeds and submits
them as one batch: the device scores every probe in a single flash pass.
`query --trace` writes the pipeline timeline as Chrome trace-event JSON
(open in chrome://tracing or Perfetto); timestamps are simulated ns, so
the file is byte-identical across runs.
`query --exact` disables the int8 pruning cascade and scores every
feature through the exact f32 path (results are bit-identical either
way; the flag exists for perf comparisons).
`query --dead-channel` injects a whole-channel outage before querying;
features on the dead channel are skipped and results come back degraded
with their coverage fraction. `query --min-coverage` (0..=1) rejects the
batch with an insufficient-coverage error instead of returning partial
top-K when the scan cannot reach the requested fraction.
`stats` drives the same mixed workload over the wire protocol and prints
the device's telemetry snapshot (`getStats`, opcode 0x09), including the
fault path: read retries, recovered reads, remapped/lost pages, retired
blocks and degraded queries. With `--addr`/`--addr-file` it instead
queries a *running* server and also prints the serve layer: admission
counters, stage latency percentiles, and the per-tenant breakdown.
`metrics` scrapes the server's Prometheus text exposition page (serve
counters, stage histograms, per-tenant series) over the wire protocol
(`getMetrics`, opcode 0x0B). `dump` pulls the flight recorder — a ring
of the most recent request summaries with per-stage timings — as JSON
(`getDump`, opcode 0x0C); the server also dumps automatically on error
responses and on p99 SLO breach when `serve --slo-p99-us` is set
(`--dump-dir` writes those dumps to disk, `--recorder-capacity` sizes
the ring).
`replay` runs the trace through the same engine pass `serve` uses, on
a simulated clock: queries that arrive while a pass runs share the
next one, and `--batch-window-us` also holds each pass open that long
for later arrivals (0 or omitted = no window).
`serve` builds a drive from the app's model, binds a TCP listener
(`--port 0` picks a free port; `--addr-file` writes the bound address)
and serves concurrent clients, coalescing co-pending queries into
shared flash passes. `--duration-ms 0` serves until killed. Admission
control: `--queue-depth` bounds the pending queue (full = typed
Overloaded rejection), `--quota-qps`/`--quota-burst` arm per-tenant
token buckets keyed by the hello client id.
`loadgen` offers an open-loop arrival schedule (latency is measured
from each query's *scheduled* arrival, so queueing under overload
counts) and prints p50/p99/p999 plus rejection counts; it fails if any
query errored (typed rejections are not errors). `--db`/`--model`
default to 1: the ids `serve` assigns to its first database and model.
`cluster` partitions the app's database across `--drives` simulated
devices with `--replicas`-way replication and answers a probe query by
scatter-gather: one live replica per partition, per-drive top-K merged
deterministically (results are bit-identical to a single-device scan).
`--kill-drive` takes a whole device down before the second query —
with R >= 2 the affected partitions fail over to surviving replicas at
full coverage; with R == 1 the answer degrades honestly and reports
its coverage. `--rebalance` then re-replicates under-replicated
partitions onto healthy drives and reports moved bytes and the
restored replication factor.
";

type CmdResult = Result<(), Box<dyn Error>>;

/// Dispatches a command line.
///
/// # Errors
///
/// Returns a description of any parse or execution failure.
pub fn run(argv: &[String]) -> CmdResult {
    let (cmd, rest) = argv
        .split_first()
        .ok_or_else(|| ArgError("no command given".into()))?;
    match cmd.as_str() {
        "zoo" => cmd_zoo(rest),
        "scan-time" => cmd_scan_time(rest),
        "create" => cmd_create(rest),
        "open" => cmd_open(rest),
        "query" => cmd_query(rest),
        "stats" => cmd_stats(rest),
        "metrics" => cmd_metrics(rest),
        "dump" => cmd_dump(rest),
        "trace" => cmd_trace(rest),
        "replay" => cmd_replay(rest),
        "serve" => cmd_serve(rest),
        "loadgen" => cmd_loadgen(rest),
        "cluster" => cmd_cluster(rest),
        other => Err(ArgError(format!("unknown command `{other}`")).into()),
    }
}

fn parse_level(name: &str) -> Result<AcceleratorLevel, ArgError> {
    match name {
        "ssd" => Ok(AcceleratorLevel::Ssd),
        "channel" => Ok(AcceleratorLevel::Channel),
        "chip" => Ok(AcceleratorLevel::Chip),
        other => Err(ArgError(format!(
            "unknown level `{other}` (expected ssd|channel|chip)"
        ))),
    }
}

fn cmd_zoo(args: &[String]) -> CmdResult {
    Flags::parse(args)?.expect_only(&[])?;
    println!(
        "{:<8} {:>10} {:>6} {:>4} {:>4} {:>9} {:>10}",
        "app", "feature_b", "conv", "fc", "ew", "mflops", "weights_mb"
    );
    for m in zoo::all() {
        println!(
            "{:<8} {:>10} {:>6} {:>4} {:>4} {:>9.3} {:>10.3}",
            m.name(),
            m.feature_bytes(),
            m.conv_layer_count(),
            m.fc_layer_count(),
            m.element_wise_layer_count(),
            m.total_flops() as f64 / 1e6,
            m.weight_bytes() as f64 / (1024.0 * 1024.0),
        );
    }
    Ok(())
}

fn cmd_scan_time(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    flags.expect_only(&["app", "db-gib"])?;
    let app_name = flags.required("app")?;
    if !APP_NAMES.contains(&app_name) {
        return Err(ArgError(format!("unknown app `{app_name}`")).into());
    }
    let db_gib: u64 = flags.num_or("db-gib", 25)?;
    let db_bytes = db_gib * (1 << 30);

    let cfg = DeepStoreConfig::paper_default();
    let model = zoo::by_name(app_name).expect("validated above");
    let workload = ScanWorkload::from_model(&model, db_bytes, &cfg);
    let spec = deepstore_baseline::ScanSpec::from_model(&model, db_bytes);
    let gpu = GpuSsdSystem::paper_default(app_name).query(&spec);

    println!(
        "{app_name}: scanning {} features ({db_gib} GiB)",
        spec.num_features
    );
    println!("  gpu+ssd baseline: {:8.3} s", gpu.total_secs);
    for level in AcceleratorLevel::ALL {
        match scan(level, &workload, &cfg) {
            Some(t) => println!(
                "  {:7}-level   : {:8.3} s  ({:5.2}x; compute {}, flash {})",
                level.to_string(),
                t.elapsed.as_secs_f64(),
                gpu.total_secs / t.elapsed.as_secs_f64(),
                t.compute,
                t.flash,
            ),
            None => println!("  {:7}-level   : unsupported", level.to_string()),
        }
    }
    Ok(())
}

fn cmd_create(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    flags.expect_only(&["image", "app", "features", "seed", "parallelism"])?;
    let image = flags.required("image")?;
    let app_name = flags.str_or("app", "textqa");
    let features: u64 = flags.num_or("features", 128)?;
    let seed: u64 = flags.num_or("seed", 42)?;
    let parallelism: usize = flags.num_or("parallelism", 1)?;

    let model = zoo::by_name(app_name)
        .ok_or_else(|| ArgError(format!("unknown app `{app_name}`")))?
        .seeded_metric(seed);
    let mut store = DeepStore::create(
        std::path::Path::new(image),
        DeepStoreConfig::small().with_parallelism(parallelism),
    )?;
    let fs: Vec<_> = (0..features).map(|i| model.random_feature(i)).collect();
    let db = store.write_db(&fs)?;
    let mid = store.load_model(&ModelGraph::from_model(&model))?;
    store.flush()?;
    let counts = store.flash_op_counts();
    println!(
        "created image {image}: db {} ({features} `{app_name}` features), model {}",
        db.0, mid.0
    );
    println!(
        "  flash ops  : {} reads, {} programs, {} erases",
        counts.reads, counts.programs, counts.erases
    );
    store.close()?;
    println!("  closed cleanly; reopen with `open --image {image}`");
    Ok(())
}

fn cmd_open(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    flags.expect_only(&["image", "app", "k", "probe-seed", "level", "db", "model"])?;
    let image = flags.required("image")?;
    let app_name = flags.str_or("app", "textqa");
    let k: usize = flags.num_or("k", 5)?;
    let probe_seed: u64 = flags.num_or("probe-seed", 42 ^ 0xBEEF)?;
    let level = parse_level(flags.str_or("level", "channel"))?;
    let db: u64 = flags.num_or("db", 1)?;
    let model_id: u64 = flags.num_or("model", 1)?;

    let model = zoo::by_name(app_name)
        .ok_or_else(|| ArgError(format!("unknown app `{app_name}`")))?
        .seeded_metric(42);
    let mut store = DeepStore::open(std::path::Path::new(image))?;
    let counts = store.flash_op_counts();
    println!(
        "opened image {image} ({} backend, previous close {})",
        store.backend(),
        if store.opened_dirty() {
            "interrupted — recovered last commit"
        } else {
            "clean"
        }
    );
    println!(
        "  flash ops  : {} reads, {} programs, {} erases (resumed)",
        counts.reads, counts.programs, counts.erases
    );
    let req = QueryRequest::new(
        model.random_feature(probe_seed),
        ModelId(model_id),
        DbId(db),
    )
    .k(k)
    .level(level);
    let qid = store.query(req)?;
    let r = store.results(qid)?;
    println!(
        "probe {probe_seed}: top-{k} at the {level} level (simulated {}):",
        r.elapsed
    );
    for (rank, hit) in r.top_k.iter().enumerate() {
        println!(
            "  #{rank}: feature {:>5}  score {:>9.4}  ObjectID 0x{:x}",
            hit.feature_index, hit.score, hit.object_id.0
        );
    }
    store.close()?;
    Ok(())
}

fn cmd_query(args: &[String]) -> CmdResult {
    let flags = Flags::parse_with_switches(args, &["exact"])?;
    flags.expect_only(&[
        "app",
        "features",
        "k",
        "level",
        "seed",
        "parallelism",
        "batch-file",
        "trace",
        "min-coverage",
        "dead-channel",
        "exact",
        "image",
        "db",
        "model",
    ])?;
    let exact = flags.switch("exact");
    let app_name = flags.required("app")?;
    let features: u64 = flags.num_or("features", 128)?;
    let k: usize = flags.num_or("k", 5)?;
    let level = parse_level(flags.str_or("level", "channel"))?;
    let seed: u64 = flags.num_or("seed", 42)?;
    let parallelism: usize = flags.num_or("parallelism", 1)?;
    let min_coverage: Option<f64> = match flags.opt("min-coverage") {
        Some(v) => {
            let f: f64 = v
                .parse()
                .map_err(|_| ArgError(format!("flag --min-coverage: cannot parse `{v}`")))?;
            if !(0.0..=1.0).contains(&f) {
                return Err(
                    ArgError(format!("flag --min-coverage: `{v}` is not in [0, 1]")).into(),
                );
            }
            Some(f)
        }
        None => None,
    };

    let model = zoo::by_name(app_name)
        .ok_or_else(|| ArgError(format!("unknown app `{app_name}`")))?
        .seeded_metric(seed);
    // Either reopen a persisted image (db/model ids default to the ones
    // `create` assigns) or build a throwaway in-memory drive.
    let (mut store, db, mid) = match flags.opt("image") {
        Some(image) => {
            let store = DeepStore::open(std::path::Path::new(image))?;
            let db = DbId(flags.num_or("db", 1)?);
            let mid = ModelId(flags.num_or("model", 1)?);
            (store, db, mid)
        }
        None => in_memory_store(&model, features, parallelism)?,
    };
    if flags.opt("trace").is_some() {
        store.enable_tracing();
    }
    if let Some(channel) = flags.opt("dead-channel") {
        let channel: usize = channel
            .parse()
            .map_err(|_| ArgError(format!("flag --dead-channel: cannot parse `{channel}`")))?;
        let channels = store.config().ssd.geometry.channels;
        if channel >= channels {
            return Err(ArgError(format!(
                "flag --dead-channel: channel {channel} out of range (drive has {channels})"
            ))
            .into());
        }
        store.inject_faults(deepstore_flash::fault::FaultPlan::none().dead_channel(channel));
        println!("(injected outage: channel {channel} is dead)");
    }

    // Probe seeds: one ad-hoc probe, or a whole batch from --batch-file.
    let probe_seeds: Vec<u64> = match flags.opt("batch-file") {
        Some(path) => std::fs::read_to_string(path)?
            .split_whitespace()
            .map(|s| {
                s.parse::<u64>()
                    .map_err(|_| ArgError(format!("bad probe seed `{s}` in batch file")))
            })
            .collect::<Result<_, _>>()?,
        None => vec![seed ^ 0xBEEF],
    };
    if probe_seeds.is_empty() {
        return Err(ArgError("batch file contains no probe seeds".into()).into());
    }

    let requests: Vec<QueryRequest> = probe_seeds
        .iter()
        .map(|&s| {
            let mut req = QueryRequest::new(model.random_feature(s), mid, db)
                .k(k)
                .level(level);
            if let Some(f) = min_coverage {
                req = req.min_coverage(f);
            }
            if exact {
                req = req.exact();
            }
            req
        })
        .collect();
    let source = match flags.opt("image") {
        Some(image) => format!("image {image}"),
        None => format!("{features} features"),
    };
    let ids = store.query_batch(&requests)?;
    for (qid, probe_seed) in ids.iter().zip(&probe_seeds) {
        let r = store.results(*qid)?;
        println!(
            "probe {probe_seed}: top-{k} of {source} at the {level} level (simulated {}):",
            r.elapsed
        );
        if r.degraded {
            println!(
                "  (degraded: scan covered {:.1}% of the database)",
                r.coverage * 100.0
            );
        }
        for (rank, hit) in r.top_k.iter().enumerate() {
            println!(
                "  #{rank}: feature {:>5}  score {:>9.4}  ObjectID 0x{:x}",
                hit.feature_index, hit.score, hit.object_id.0
            );
        }
    }
    if probe_seeds.len() > 1 {
        println!(
            "({} probes scored in one flash pass per shard)",
            probe_seeds.len()
        );
    }
    let skipped = store.unreadable_skipped();
    if skipped > 0 {
        println!("  ({skipped} features skipped: uncorrectable reads)");
    }
    if let Some(path) = flags.opt("trace") {
        let json = store.trace_json().expect("tracing was enabled");
        std::fs::write(path, &json)?;
        println!("wrote pipeline trace to {path} (chrome://tracing)");
    }
    Ok(())
}

fn format_ns(ns: u64) -> String {
    SimDuration::from_nanos(ns).to_string()
}

/// Resolves a server address from `--addr` / `--addr-file`.
fn resolve_addr(flags: &Flags) -> Result<String, Box<dyn Error>> {
    match (flags.opt("addr"), flags.opt("addr-file")) {
        (Some(a), _) => Ok(a.to_string()),
        (None, Some(path)) => Ok(std::fs::read_to_string(path)?.trim().to_string()),
        (None, None) => Err(ArgError("need --addr or --addr-file".into()).into()),
    }
}

fn print_server_stats(s: &deepstore_core::serve::ServerStats) {
    println!("serve layer:");
    println!(
        "  admission  : {} connections, {} frames, {} queries admitted",
        s.connections, s.frames, s.queries_admitted
    );
    println!(
        "  rejected   : {} overloaded, {} over quota, {} malformed frames",
        s.rejected_overloaded, s.rejected_quota, s.malformed_frames
    );
    println!(
        "  coalescing : {} queries shared {} engine passes",
        s.coalesced_queries, s.engine_batches
    );
    if !s.per_tenant.is_empty() {
        println!(
            "  {:<14} {:>9} {:>11} {:>7} {:>7} {:>9}",
            "tenant", "accepted", "overloaded", "quota", "errors", "degraded"
        );
        for t in &s.per_tenant {
            println!(
                "  {:<14} {:>9} {:>11} {:>7} {:>7} {:>9}",
                t.client, t.accepted, t.rejected_overloaded, t.rejected_quota, t.errors, t.degraded
            );
        }
    }
}

fn cmd_stats(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    flags.expect_only(&["app", "features", "k", "parallelism", "addr", "addr-file"])?;
    let app_name = flags.str_or("app", "textqa");
    let features: u64 = flags.num_or("features", 64)?;
    let k: usize = flags.num_or("k", 3)?;
    let parallelism: usize = flags.num_or("parallelism", 1)?;

    // Against a running server: fetch its device + serve-layer stats
    // instead of driving the local synthetic workload.
    if flags.opt("addr").is_some() || flags.opt("addr-file").is_some() {
        let addr = resolve_addr(&flags)?;
        let mut host = HostClient::over(TcpClient::connect(&addr)?);
        host.hello("cli-stats")?;
        let (s, server) = host.stats_full()?;
        println!("device stats from {addr}:");
        print_device_stats(&s);
        match server {
            Some(server) => print_server_stats(&server),
            None => println!("(server returned no serve-layer stats)"),
        }
        return Ok(());
    }

    let model = zoo::by_name(app_name)
        .ok_or_else(|| ArgError(format!("unknown app `{app_name}`")))?
        .seeded_metric(11);
    let mut device = Device::new(DeepStoreConfig::small().with_parallelism(parallelism));
    let mut host = HostClient::new(&mut device);
    let fs: Vec<_> = (0..features).map(|i| model.random_feature(i)).collect();
    let db = host.write_db(&fs)?;
    let mid = host.load_model(&ModelGraph::from_model(&model))?;

    // A mixed workload: one single query, one repeat (query-cache hit
    // at the device's default QC), and one 4-probe batch sharing a
    // flash pass — all over the wire.
    let probe = model.random_feature(1000);
    let qid = host.query(&probe, k, mid, db, AcceleratorLevel::Channel, false)?;
    host.get_results(qid)?;
    let qid = host.query(&probe, k, mid, db, AcceleratorLevel::Channel, false)?;
    host.get_results(qid)?;
    let reqs: Vec<QueryRequest> = (0..4)
        .map(|i| QueryRequest::new(model.random_feature(2000 + i), mid, db).k(k))
        .collect();
    for id in host.query_batch(&reqs)? {
        host.get_results(id)?;
    }

    let s = host.stats()?;
    println!("device stats for `{app_name}` ({features} features, parallelism {parallelism}):");
    print_device_stats(&s);
    Ok(())
}

fn print_device_stats(s: &deepstore_core::DeviceStats) {
    println!(
        "  queries    : {} in {} batches ({} cache hits, {} misses, {} scan groups)",
        s.queries, s.batches, s.cache_hits, s.cache_misses, s.scan_groups
    );
    println!("  stage totals (simulated):");
    println!("    qc lookup: {}", format_ns(s.stages.qc_lookup_ns));
    println!("    flash    : {}", format_ns(s.stages.flash_ns));
    println!("    compute  : {}", format_ns(s.stages.compute_ns));
    println!("    weights  : {}", format_ns(s.stages.weights_ns));
    println!("    scan     : {}", format_ns(s.stages.scan_ns));
    println!("    total    : {}", format_ns(s.stages.total_ns));
    println!(
        "  flash      : {} page reads, {} programs, {} erases",
        s.flash.page_reads, s.flash.programs, s.flash.erases
    );
    println!(
        "  flash bus  : {} waited across {} transfers",
        format_ns(s.flash.bus_wait_ns),
        s.flash.bus_transfers
    );
    println!(
        "  reliability: {} ecc failures, {} features skipped",
        s.flash.ecc_failures, s.unreadable_skipped
    );
    println!(
        "  cascade    : {} feature decisions pruned, {} rescored",
        s.pruned_features, s.rescored_features
    );
    println!(
        "  fault path : {} read retries ({} stalled), {} reads recovered",
        s.flash.read_retries,
        format_ns(s.flash.read_retry_ns),
        s.flash.reads_recovered
    );
    println!(
        "  recovery   : {} pages remapped, {} blocks retired, {} pages lost, {} degraded queries",
        s.flash.remapped_pages, s.flash.retired_blocks, s.flash.lost_pages, s.degraded_queries
    );
    println!(
        "  registry   : {} counters, {} histograms",
        s.metrics.counters.len(),
        s.metrics.histograms.len()
    );
}

fn cmd_metrics(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    flags.expect_only(&["addr", "addr-file"])?;
    let addr = resolve_addr(&flags)?;
    let mut host = HostClient::over(TcpClient::connect(&addr)?);
    host.hello("cli-metrics")?;
    print!("{}", host.metrics()?);
    Ok(())
}

fn cmd_dump(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    flags.expect_only(&["addr", "addr-file", "out"])?;
    let addr = resolve_addr(&flags)?;
    let mut host = HostClient::over(TcpClient::connect(&addr)?);
    host.hello("cli-dump")?;
    let json = host.dump()?;
    match flags.opt("out") {
        Some(path) => {
            std::fs::write(path, &json)?;
            println!("wrote flight-recorder dump to {path}");
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// An in-memory drive holding `features` random features of `model`,
/// with `model` loaded: the database and model ids.
fn in_memory_store(
    model: &Model,
    features: u64,
    parallelism: usize,
) -> Result<(DeepStore, DbId, ModelId), Box<dyn Error>> {
    let mut store = DeepStore::in_memory(DeepStoreConfig::small().with_parallelism(parallelism));
    let fs: Vec<_> = (0..features).map(|i| model.random_feature(i)).collect();
    let db = store.write_db(&fs)?;
    let mid = store.load_model(&ModelGraph::from_model(model))?;
    Ok((store, db, mid))
}

fn cmd_trace(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    flags.expect_only(&["queries", "qps", "seed", "out"])?;
    let queries: usize = flags.num_or("queries", 100)?;
    let qps: f64 = flags.num_or("qps", 10.0)?;
    let seed: u64 = flags.num_or("seed", 1)?;
    let out = flags.required("out")?;

    let mut stream = QueryStream::new(
        zoo::textqa().feature_len(),
        10_000,
        2_000,
        TraceDistribution::Zipfian { alpha: 0.7 },
        seed,
    );
    let trace = QueryTrace::generate(&mut stream, queries, qps, seed);
    std::fs::write(out, trace.to_bytes())?;
    println!("wrote {queries} queries over {} to {out}", trace.duration());
    Ok(())
}

fn cmd_replay(args: &[String]) -> CmdResult {
    print!("{}", replay_report(args)?);
    Ok(())
}

/// What `replay` prints: the trace replayed through the serve engine's
/// pass on a simulated clock ([`simulate`]).
fn replay_report(args: &[String]) -> Result<String, Box<dyn Error>> {
    let flags = Flags::parse(args)?;
    flags.expect_only(&[
        "trace",
        "features",
        "k",
        "level",
        "parallelism",
        "batch-window-us",
    ])?;
    let path = flags.required("trace")?;
    let features: u64 = flags.num_or("features", 128)?;
    let k: usize = flags.num_or("k", 5)?;
    let level = parse_level(flags.str_or("level", "channel"))?;
    let parallelism: usize = flags.num_or("parallelism", 1)?;
    let batch_window_us: u64 = flags.num_or("batch-window-us", 0)?;

    let trace = QueryTrace::from_bytes(&std::fs::read(path)?).map_err(ArgError)?;
    let dim = trace
        .entries
        .first()
        .ok_or_else(|| ArgError("trace is empty".into()))?
        .qfv
        .len();
    let model = zoo::all()
        .into_iter()
        .find(|m| m.feature_len() == dim)
        .ok_or_else(|| ArgError(format!("no zoo model with feature length {dim}")))?
        .seeded(7);

    let (store, db, mid) = in_memory_store(&model, features, parallelism)?;
    let arrivals = trace
        .entries
        .iter()
        .map(|e| {
            let query = Command::Query {
                qfv: e.qfv.clone(),
                k,
                model: mid,
                db,
                level,
                exact: false,
                request_id: 0,
                sched_lag_ns: 0,
            };
            (e.arrival.as_nanos(), query)
        })
        .collect();
    let cfg = ServeConfig {
        batch_window: (batch_window_us > 0).then(|| Duration::from_micros(batch_window_us)),
        ..ServeConfig::default()
    };
    let sim = simulate(store, cfg, arrivals);
    let mut cache_hits = 0;
    for resp in &sim.responses {
        let Response::QuerySubmitted { id, .. } = resp else {
            return Err(format!("replayed query failed: {resp:?}").into());
        };
        cache_hits += u64::from(sim.store.peek_results(*id).is_some_and(|r| r.cache_hit));
    }
    let completed = sim.times.len();
    let mut out = format!(
        "replayed {completed} queries ({} offered qps) against model `{}`:\n",
        trace.offered_qps,
        model.name()
    );
    if batch_window_us > 0 {
        writeln!(
            out,
            "  batching   : {} window, {}/{completed} queries coalesced",
            SimDuration::from_micros(batch_window_us),
            sim.stats.coalesced_queries
        )?;
    }
    let (qps, [mean, p50, p95, p99]) = latency_summary(&sim.times);
    writeln!(
        out,
        "  cache hits : {cache_hits}/{completed}\n  \
         throughput : {qps:.2} qps (simulated)\n  \
         latency    : mean {mean}  p50 {p50}  p95 {p95}  p99 {p99}"
    )?;
    let skipped = sim.store.unreadable_skipped();
    if skipped > 0 {
        writeln!(out, "  skipped    : {skipped} unreadable features")?;
    }
    Ok(out)
}

/// A replay's simulated throughput — queries per second from the first
/// arrival to the last completion — and its mean, p50, p95 and p99
/// end-to-end latency, from the `(arrival, start, done)` ns of a
/// non-empty, arrival-ordered run.
fn latency_summary(times: &[(u64, u64, u64)]) -> (f64, [SimDuration; 4]) {
    let mut latencies: Vec<u64> = times
        .iter()
        .map(|&(arrival, _, done)| done - arrival)
        .collect();
    latencies.sort_unstable();
    let pct = |p: f64| {
        let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
        SimDuration::from_nanos(latencies[idx])
    };
    let last = times.iter().map(|t| t.2).max().unwrap_or(0);
    let makespan = SimDuration::from_nanos(last - times[0].0);
    let qps = times.len() as f64 / makespan.as_secs_f64().max(1e-12);
    let mean = SimDuration::from_nanos(latencies.iter().sum::<u64>() / latencies.len() as u64);
    (qps, [mean, pct(0.50), pct(0.95), pct(0.99)])
}

fn cmd_serve(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    flags.expect_only(&[
        "app",
        "features",
        "port",
        "addr-file",
        "duration-ms",
        "queue-depth",
        "quota-qps",
        "quota-burst",
        "batch-window-us",
        "parallelism",
        "seed",
        "image",
        "slo-p99-us",
        "dump-dir",
        "recorder-capacity",
    ])?;
    let app_name = flags.str_or("app", "textqa");
    let features: u64 = flags.num_or("features", 64)?;
    let port: u16 = flags.num_or("port", 0)?;
    let duration_ms: u64 = flags.num_or("duration-ms", 0)?;
    let queue_depth: usize = flags.num_or("queue-depth", 64)?;
    let quota_qps: f64 = flags.num_or("quota-qps", 0.0)?;
    let quota_burst: f64 = flags.num_or("quota-burst", 0.0)?;
    let batch_window_us: u64 = flags.num_or("batch-window-us", 0)?;
    let parallelism: usize = flags.num_or("parallelism", 1)?;
    let seed: u64 = flags.num_or("seed", 42)?;
    let slo_p99_us: u64 = flags.num_or("slo-p99-us", 0)?;
    let recorder_capacity: usize = flags.num_or(
        "recorder-capacity",
        ServeConfig::default().recorder_capacity,
    )?;

    let model = zoo::by_name(app_name)
        .ok_or_else(|| ArgError(format!("unknown app `{app_name}`")))?
        .seeded_metric(seed);
    // Serve either a persisted image (db/model 1 are the ones `create`
    // assigns) or a freshly-built in-memory drive.
    let (store, db, mid) = match flags.opt("image") {
        Some(image) => (
            DeepStore::open(std::path::Path::new(image))?,
            DbId(1),
            ModelId(1),
        ),
        None => in_memory_store(&model, features, parallelism)?,
    };

    let cfg = ServeConfig {
        queue_depth,
        batch_window: (batch_window_us > 0).then(|| Duration::from_micros(batch_window_us)),
        quota: (quota_qps > 0.0).then(|| QuotaConfig {
            burst: if quota_burst > 0.0 {
                quota_burst
            } else {
                quota_qps.max(1.0)
            },
            refill_per_sec: quota_qps,
        }),
        slo_p99_us: (slo_p99_us > 0).then_some(slo_p99_us),
        recorder_capacity,
        dump_dir: flags.opt("dump-dir").map(std::path::PathBuf::from),
        ..ServeConfig::default()
    };
    let source = match flags.opt("image") {
        Some(image) => format!("image {image}"),
        None => format!("`{app_name}` ({features} features)"),
    };
    let transport = TcpTransport::bind(&format!("127.0.0.1:{port}"))
        .map_err(|e| ArgError(format!("cannot bind port {port}: {e}")))?;
    let handle = serve(transport, store, cfg);
    println!(
        "serving {source} (db {}, model {}) on {}",
        db.0,
        mid.0,
        handle.endpoint()
    );
    if let Some(path) = flags.opt("addr-file") {
        std::fs::write(path, handle.endpoint())?;
    }
    if duration_ms == 0 {
        println!("(serving until killed; pass --duration-ms to bound)");
        loop {
            std::thread::sleep(Duration::from_secs(3600));
        }
    }
    std::thread::sleep(Duration::from_millis(duration_ms));
    let (store, stats) = handle.shutdown();
    if store.is_persistent() {
        store.close()?;
        println!("(image closed cleanly)");
    }
    print_server_stats(&stats);
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> CmdResult {
    let flags = Flags::parse(args)?;
    flags.expect_only(&[
        "addr",
        "addr-file",
        "app",
        "qps",
        "queries",
        "arrivals",
        "connections",
        "alpha",
        "dup-rate",
        "k",
        "db",
        "model",
        "level",
        "seed",
    ])?;
    let addr = resolve_addr(&flags)?;
    let app_name = flags.str_or("app", "textqa");
    let qps: f64 = flags.num_or("qps", 100.0)?;
    let queries: usize = flags.num_or("queries", 200)?;
    let arrivals = match flags.str_or("arrivals", "poisson") {
        "poisson" => ArrivalProcess::Poisson,
        "fixed" => ArrivalProcess::Fixed,
        other => {
            return Err(ArgError(format!(
                "unknown arrival process `{other}` (expected poisson|fixed)"
            ))
            .into())
        }
    };
    let connections: usize = flags.num_or("connections", 4)?;
    let alpha: f64 = flags.num_or("alpha", 0.7)?;
    let dup_rate: f64 = flags.num_or("dup-rate", 0.2)?;
    let k: usize = flags.num_or("k", 5)?;
    let db: u64 = flags.num_or("db", 1)?;
    let model_id: u64 = flags.num_or("model", 1)?;
    let level = parse_level(flags.str_or("level", "ssd"))?;
    let seed: u64 = flags.num_or("seed", 42)?;

    let model =
        zoo::by_name(app_name).ok_or_else(|| ArgError(format!("unknown app `{app_name}`")))?;
    let offered = plan(&LoadPlanConfig {
        queries,
        qps,
        arrivals,
        dim: model.feature_len(),
        pool_size: 32,
        clusters: 8,
        distribution: TraceDistribution::Zipfian { alpha },
        duplicate_rate: dup_rate,
        seed,
    });
    let report = run_open_loop(
        || TcpClient::connect(&addr),
        connections,
        &offered,
        LoadTarget {
            model: ModelId(model_id),
            db: DbId(db),
            k,
            level,
        },
    )
    .map_err(|e| ArgError(format!("load generation against {addr} failed: {e}")))?;
    println!(
        "offered {} `{app_name}` queries at {:.0} q/s over {connections} connections to {addr}:",
        report.offered, report.offered_qps
    );
    println!(
        "  completed  : {} ({:.0} q/s achieved over {:.2} s)",
        report.completed, report.achieved_qps, report.duration_secs
    );
    println!(
        "  rejected   : {} overloaded, {} over quota, {} errors",
        report.rejected_overloaded, report.rejected_quota, report.errors
    );
    println!(
        "  latency    : mean {:.3} ms  p50 {:.3} ms  p99 {:.3} ms  p999 {:.3} ms  max {:.3} ms",
        report.mean_ms, report.p50_ms, report.p99_ms, report.p999_ms, report.max_ms
    );
    // Typed rejections are answers; an error is a query that never got one.
    if report.errors > 0 {
        let (bad, all) = (report.errors, report.offered);
        return Err(ArgError(format!("{bad} of {all} offered queries failed")).into());
    }
    Ok(())
}

fn print_cluster_query(
    cluster: &mut DeepStoreCluster,
    req: ClusterQueryRequest,
    label: &str,
) -> CmdResult {
    let r = cluster.query(req)?;
    let failovers: u32 = r.partitions.iter().map(|p| p.failovers).sum();
    println!(
        "{label}: coverage {:.4}{}, {failovers} failovers, simulated {}",
        r.coverage,
        if r.degraded { " (degraded)" } else { "" },
        r.elapsed
    );
    for (rank, hit) in r.top_k.iter().enumerate() {
        println!(
            "  #{rank}: feature {:>5} (drive {})  score {:>9.4}  ObjectID 0x{:x}",
            hit.global_index, hit.drive, hit.hit.score, hit.hit.object_id.0
        );
    }
    Ok(())
}

fn cmd_cluster(args: &[String]) -> CmdResult {
    let flags = Flags::parse_with_switches(args, &["rebalance", "exact"])?;
    flags.expect_only(&[
        "drives",
        "replicas",
        "app",
        "features",
        "k",
        "level",
        "seed",
        "parallelism",
        "kill-drive",
        "rebalance",
        "exact",
    ])?;
    let drives: usize = flags.num_or("drives", 4)?;
    let replicas: usize = flags.num_or("replicas", 2)?;
    if drives == 0 {
        return Err(ArgError("--drives must be at least 1".into()).into());
    }
    if replicas == 0 || replicas > drives {
        return Err(ArgError(format!(
            "--replicas must be in 1..={drives} (one copy per distinct drive)"
        ))
        .into());
    }
    let app_name = flags.str_or("app", "textqa");
    let features: u64 = flags.num_or("features", 96)?;
    let k: usize = flags.num_or("k", 5)?;
    let level = parse_level(flags.str_or("level", "channel"))?;
    let seed: u64 = flags.num_or("seed", 42)?;
    let parallelism: usize = flags.num_or("parallelism", 1)?;
    let kill: Option<usize> = match flags.opt("kill-drive") {
        None => None,
        Some(v) => {
            let d: usize = v
                .parse()
                .map_err(|_| ArgError(format!("flag --kill-drive: cannot parse `{v}`")))?;
            if d >= drives {
                return Err(ArgError(format!(
                    "--kill-drive {d} is out of range for {drives} drives"
                ))
                .into());
            }
            Some(d)
        }
    };

    let model = zoo::by_name(app_name)
        .ok_or_else(|| ArgError(format!("unknown app `{app_name}`")))?
        .seeded_metric(seed);
    let mut cluster = DeepStoreCluster::with_replication(
        drives,
        replicas,
        DeepStoreConfig::small().with_parallelism(parallelism),
    );
    let fs: Vec<_> = (0..features).map(|i| model.random_feature(i)).collect();
    let db = cluster.write_db(&fs)?;
    let mid = cluster.load_model(&ModelGraph::from_model(&model))?;
    println!(
        "cluster: {features} `{app_name}` features over {drives} drives \
         ({} partitions, {replicas}x replication)",
        cluster.partitions(db)?
    );

    let probe = model.random_feature(seed ^ 0xBEEF);
    let req = ClusterQueryRequest::new(probe.clone(), mid, db)
        .k(k)
        .level(level)
        .exact(flags.switch("exact"));
    print_cluster_query(&mut cluster, req.clone(), "baseline")?;

    if let Some(d) = kill {
        cluster.kill_drive(d);
        println!("killed drive {d} (whole-device outage)");
        print_cluster_query(&mut cluster, req.clone(), "after outage")?;
    }

    if flags.switch("rebalance") {
        let report = cluster.rebalance()?;
        println!(
            "rebalance: {} partitions, {} under-replicated, {} re-replicated, \
             {} dead replicas dropped",
            report.partitions,
            report.under_replicated,
            report.re_replicated,
            report.dropped_replicas
        );
        println!(
            "  moved      : {} bytes drive-to-drive; {} pages remapped, \
             {} lost, {} blocks retired",
            report.moved_bytes, report.pages_remapped, report.pages_lost, report.blocks_retired
        );
        println!(
            "  replication: min {} max {} ({} unrecoverable partitions){}",
            report.min_replication,
            report.max_replication,
            report.unrecoverable,
            if report.fully_replicated(replicas) {
                " — fully replicated"
            } else {
                ""
            }
        );
        print_cluster_query(&mut cluster, req, "after rebalance")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn zoo_and_scan_time_run() {
        run(&argv(&["zoo"])).unwrap();
        run(&argv(&["scan-time", "--app", "mir", "--db-gib", "1"])).unwrap();
    }

    #[test]
    fn query_runs_at_each_supported_level() {
        for level in ["ssd", "channel", "chip"] {
            run(&argv(&[
                "query",
                "--app",
                "textqa",
                "--features",
                "32",
                "--k",
                "3",
                "--level",
                level,
            ]))
            .unwrap();
        }
    }

    #[test]
    fn query_accepts_parallelism_knob() {
        for workers in ["0", "1", "4"] {
            run(&argv(&[
                "query",
                "--app",
                "textqa",
                "--features",
                "32",
                "--k",
                "3",
                "--parallelism",
                workers,
            ]))
            .unwrap();
        }
        assert!(run(&argv(&[
            "query",
            "--app",
            "textqa",
            "--parallelism",
            "lots",
        ]))
        .is_err());
    }

    #[test]
    fn query_batch_file_submits_all_probes() {
        let path = std::env::temp_dir().join("deepstore_cli_test_batch.txt");
        std::fs::write(&path, "100 101\n102\n").unwrap();
        run(&argv(&[
            "query",
            "--app",
            "tir",
            "--features",
            "24",
            "--k",
            "2",
            "--batch-file",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        // Malformed seeds are rejected.
        std::fs::write(&path, "100 nope\n").unwrap();
        assert!(run(&argv(&[
            "query",
            "--app",
            "tir",
            "--features",
            "24",
            "--batch-file",
            path.to_str().unwrap(),
        ]))
        .is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn query_dead_channel_degrades_and_min_coverage_rejects() {
        // A dead channel degrades the answer but the query still runs.
        run(&argv(&[
            "query",
            "--app",
            "textqa",
            "--features",
            "32",
            "--k",
            "3",
            "--dead-channel",
            "0",
        ]))
        .unwrap();
        // Demanding full coverage on a degraded drive fails the batch.
        let err = run(&argv(&[
            "query",
            "--app",
            "textqa",
            "--features",
            "32",
            "--k",
            "3",
            "--dead-channel",
            "0",
            "--min-coverage",
            "0.99",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("insufficient coverage"));
        // A healthy drive satisfies any coverage floor.
        run(&argv(&[
            "query",
            "--app",
            "textqa",
            "--features",
            "32",
            "--min-coverage",
            "1.0",
        ]))
        .unwrap();
        // Bad flag values are rejected.
        assert!(run(&argv(&[
            "query",
            "--app",
            "textqa",
            "--min-coverage",
            "1.5"
        ]))
        .is_err());
        assert!(run(&argv(&[
            "query",
            "--app",
            "textqa",
            "--min-coverage",
            "nope"
        ]))
        .is_err());
        assert!(run(&argv(&["query", "--app", "textqa", "--dead-channel", "64"])).is_err());
    }

    #[test]
    fn stats_command_runs() {
        run(&argv(&["stats", "--features", "32", "--k", "2"])).unwrap();
        run(&argv(&[
            "stats",
            "--app",
            "tir",
            "--features",
            "24",
            "--parallelism",
            "2",
        ]))
        .unwrap();
        assert!(run(&argv(&["stats", "--app", "nope"])).is_err());
    }

    #[test]
    fn query_trace_flag_writes_chrome_json() {
        let path = std::env::temp_dir().join("deepstore_cli_test_query_trace.json");
        let path_s = path.to_str().unwrap();
        run(&argv(&[
            "query",
            "--app",
            "textqa",
            "--features",
            "32",
            "--k",
            "2",
            "--trace",
            path_s,
        ]))
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        let value = serde::parse_value(json.as_bytes()).unwrap();
        let obj = value.as_object().unwrap();
        assert!(obj.iter().any(|(k, _)| k == "traceEvents"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_then_replay_roundtrips() {
        let path = std::env::temp_dir().join("deepstore_cli_test_trace.json");
        let path_s = path.to_str().unwrap();
        run(&argv(&[
            "trace",
            "--queries",
            "12",
            "--qps",
            "50",
            "--out",
            path_s,
        ]))
        .unwrap();
        let replay = |extra: &[&str]| {
            let mut args = argv(&["--trace", path_s, "--features", "32"]);
            args.extend(argv(extra));
            replay_report(&args).unwrap()
        };
        // The simulated clock makes a replay's output reproducible, and
        // parallelism only changes host wall-clock time.
        let first = replay(&[]);
        assert!(first.starts_with("replayed 12 queries"), "{first}");
        assert_eq!(first, replay(&[]));
        assert_eq!(first, replay(&["--parallelism", "4"]));
        // With a batching window the replay still completes.
        let windowed = replay(&["--batch-window-us", "500"]);
        assert!(windowed.contains("500.000us window"), "{windowed}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn replay_rejects_out_of_order_trace() {
        let path = std::env::temp_dir().join("deepstore_cli_test_unordered_trace.json");
        let path_s = path.to_str().unwrap();
        run(&argv(&["trace", "--queries", "4", "--out", path_s])).unwrap();
        let mut trace = QueryTrace::from_bytes(&std::fs::read(&path).unwrap()).unwrap();
        trace.entries.swap(0, 1);
        std::fs::write(&path, trace.to_bytes()).unwrap();
        assert!(run(&argv(&["replay", "--trace", path_s, "--features", "16"])).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn latency_summary_is_exact() {
        // Latencies 100, 290 and 300 ns over a 320 ns makespan.
        let times = [(0, 0, 100), (10, 100, 300), (20, 300, 320)];
        let (qps, [mean, p50, p95, p99]) = latency_summary(&times);
        assert_eq!(qps, 3.0 / 320e-9);
        assert_eq!(mean, SimDuration::from_nanos(230));
        assert_eq!(p50, SimDuration::from_nanos(290));
        assert_eq!(p95, SimDuration::from_nanos(300));
        assert_eq!(p99, SimDuration::from_nanos(300));
    }

    #[test]
    fn serve_then_loadgen_over_loopback() {
        let addr_file = std::env::temp_dir().join("deepstore_cli_test_serve_addr.txt");
        std::fs::remove_file(&addr_file).ok();
        let addr_s = addr_file.to_str().unwrap().to_string();
        let server_args = argv(&[
            "serve",
            "--app",
            "textqa",
            "--features",
            "32",
            "--port",
            "0",
            "--addr-file",
            &addr_s,
            "--duration-ms",
            "4000",
            "--slo-p99-us",
            "1000000",
        ]);
        let server = std::thread::spawn(move || run(&server_args).map_err(|e| e.to_string()));
        // Wait for the server to publish its bound address.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !addr_file.exists() {
            assert!(
                std::time::Instant::now() < deadline,
                "server never published its address"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        run(&argv(&[
            "loadgen",
            "--addr-file",
            &addr_s,
            "--qps",
            "400",
            "--queries",
            "20",
            "--connections",
            "2",
            "--k",
            "3",
        ]))
        .unwrap();
        // Fixed arrivals against an explicit --addr work too.
        let addr = std::fs::read_to_string(&addr_file).unwrap();
        run(&argv(&[
            "loadgen",
            "--addr",
            addr.trim(),
            "--qps",
            "400",
            "--queries",
            "10",
            "--arrivals",
            "fixed",
        ]))
        .unwrap();
        // Queries that error (a model the server never loaded) fail the command.
        let args = [
            "loadgen",
            "--addr",
            addr.trim(),
            "--queries",
            "4",
            "--model",
            "9",
        ];
        let failed = run(&argv(&args)).unwrap_err();
        assert_eq!(failed.to_string(), "4 of 4 offered queries failed");
        // Observability against the live server: serve-layer stats,
        // the exposition page, and a flight-recorder dump.
        run(&argv(&["stats", "--addr", addr.trim()])).unwrap();
        run(&argv(&["metrics", "--addr-file", &addr_s])).unwrap();
        let dump_file = std::env::temp_dir().join("deepstore_cli_test_dump.json");
        let dump_s = dump_file.to_str().unwrap().to_string();
        run(&argv(&["dump", "--addr", addr.trim(), "--out", &dump_s])).unwrap();
        let dump = std::fs::read_to_string(&dump_file).unwrap();
        assert!(dump.contains("\"reason\""), "dump missing reason: {dump}");
        std::fs::remove_file(&dump_file).ok();
        server.join().unwrap().unwrap();
        std::fs::remove_file(&addr_file).ok();
    }

    #[test]
    fn cluster_kill_and_rebalance_flow_runs() {
        run(&argv(&[
            "cluster",
            "--drives",
            "3",
            "--replicas",
            "2",
            "--features",
            "48",
            "--k",
            "3",
            "--kill-drive",
            "1",
            "--rebalance",
        ]))
        .unwrap();
        // Exact-path single-drive degenerate cluster still answers.
        run(&argv(&[
            "cluster",
            "--drives",
            "1",
            "--replicas",
            "1",
            "--features",
            "16",
            "--exact",
        ]))
        .unwrap();
    }

    #[test]
    fn cluster_flag_validation() {
        assert!(run(&argv(&["cluster", "--replicas", "9"])).is_err());
        assert!(run(&argv(&["cluster", "--replicas", "0"])).is_err());
        assert!(run(&argv(&["cluster", "--drives", "0"])).is_err());
        assert!(run(&argv(&["cluster", "--kill-drive", "7"])).is_err());
        assert!(run(&argv(&["cluster", "--app", "nope"])).is_err());
        assert!(run(&argv(&["cluster", "--level", "galaxy"])).is_err());
    }

    #[test]
    fn loadgen_flag_validation() {
        assert!(run(&argv(&["loadgen"])).is_err()); // no addr
        assert!(run(&argv(&["metrics"])).is_err()); // no addr
        assert!(run(&argv(&["dump"])).is_err()); // no addr
        assert!(run(&argv(&[
            "loadgen",
            "--addr",
            "127.0.0.1:1",
            "--arrivals",
            "bursty"
        ]))
        .is_err());
        assert!(run(&argv(&["serve", "--app", "nope"])).is_err());
    }

    #[test]
    fn create_open_query_image_roundtrip() {
        let path = std::env::temp_dir().join(format!(
            "deepstore_cli_test_image_{}.img",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let path_s = path.to_str().unwrap().to_string();
        run(&argv(&[
            "create",
            "--image",
            &path_s,
            "--app",
            "textqa",
            "--features",
            "48",
        ]))
        .unwrap();
        // Creating over an existing image is refused.
        assert!(run(&argv(&["create", "--image", &path_s])).is_err());
        // Reopen and probe the persisted database.
        run(&argv(&["open", "--image", &path_s, "--k", "3"])).unwrap();
        // `query --image` serves from the image instead of building a drive.
        run(&argv(&[
            "query", "--image", &path_s, "--app", "textqa", "--k", "2",
        ]))
        .unwrap();
        // Opening a missing image fails cleanly.
        assert!(run(&argv(&["open", "--image", "/nonexistent/img"])).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_invocations_error() {
        assert!(run(&argv(&[])).is_err());
        assert!(run(&argv(&["frobnicate"])).is_err());
        assert!(run(&argv(&["scan-time"])).is_err()); // missing --app
        assert!(run(&argv(&["scan-time", "--app", "nope"])).is_err());
        assert!(run(&argv(&["query", "--app", "tir", "--level", "gpu"])).is_err());
        assert!(run(&argv(&["zoo", "--bogus", "1"])).is_err());
    }
}
