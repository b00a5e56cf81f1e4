//! Open-loop load generation for the serving front end.
//!
//! A closed-loop client (issue, wait, issue) measures only its own
//! patience: when the server slows down, the client slows down with it
//! and the tail disappears from the data. Serving benchmarks therefore
//! use *open-loop* arrivals — query i is offered at a scheduled time
//! drawn from an arrival process, whether or not earlier queries have
//! completed — and report latency against the *scheduled* arrival, so
//! queueing delay under overload is visible in p99/p999.
//!
//! [`plan`] materializes a deterministic offered-load schedule
//! (Poisson or fixed-rate arrivals over a Zipfian/uniform
//! [`QueryStream`] mix, with a configurable rate of noisy duplicates
//! to exercise the query cache). [`run_open_loop`] replays a schedule
//! against any [`CommandChannel`] — the in-process channel transport
//! in tests, TCP in `deepstore loadgen` — over a pool of connections,
//! and reduces completions into a [`LoadReport`] with p50/p99/p999.

use crate::trace::{QueryStream, TraceDistribution};
use deepstore_core::error::DeepStoreError;
use deepstore_core::proto::{CommandChannel, HostClient, ProtoError};
use deepstore_core::{AcceleratorLevel, DbId, ModelId};
use deepstore_nn::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// The inter-arrival process of the offered load.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Exponential gaps (memoryless arrivals): the standard open-loop
    /// model for independent users.
    Poisson,
    /// Constant gaps of exactly `1/qps`: useful for reproducible
    /// saturation sweeps.
    Fixed,
}

/// Configuration for [`plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadPlanConfig {
    /// Number of queries to offer.
    pub queries: usize,
    /// Target offered rate, queries per second.
    pub qps: f64,
    /// Arrival process shaping the gaps.
    pub arrivals: ArrivalProcess,
    /// Query feature-vector dimensionality (match the model).
    pub dim: usize,
    /// Distinct base queries in the pool.
    pub pool_size: usize,
    /// Semantic clusters in the pool.
    pub clusters: usize,
    /// Popularity distribution over the pool.
    pub distribution: TraceDistribution,
    /// Probability that a query is a noisy near-duplicate of a recent
    /// one (drives query-cache hits).
    pub duplicate_rate: f64,
    /// Seed for the whole schedule; same seed, same schedule.
    pub seed: u64,
}

impl Default for LoadPlanConfig {
    fn default() -> Self {
        LoadPlanConfig {
            queries: 64,
            qps: 100.0,
            arrivals: ArrivalProcess::Poisson,
            dim: 32,
            pool_size: 32,
            clusters: 8,
            distribution: TraceDistribution::Zipfian { alpha: 0.7 },
            duplicate_rate: 0.2,
            seed: 42,
        }
    }
}

/// One scheduled query in an offered-load plan.
#[derive(Debug, Clone)]
pub struct Offered {
    /// Scheduled arrival, relative to the run's epoch.
    pub at: Duration,
    /// The query feature vector to submit.
    pub qfv: Tensor,
    /// Ground-truth base-query rank (for cache-hit analysis).
    pub rank: usize,
    /// Whether this is a noisy re-emission of an earlier query.
    pub duplicate: bool,
}

/// Materialize a deterministic offered-load schedule.
///
/// # Panics
///
/// Panics if `qps` is not positive or `queries` is zero.
pub fn plan(cfg: &LoadPlanConfig) -> Vec<Offered> {
    assert!(cfg.qps > 0.0, "offered rate must be positive");
    assert!(cfg.queries > 0, "empty plan");
    let mut stream = QueryStream::new(
        cfg.dim,
        cfg.pool_size,
        cfg.clusters,
        cfg.distribution,
        cfg.seed,
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xA11C_E5ED);
    let mut at = 0.0f64;
    let mut history: Vec<(usize, Tensor)> = Vec::new();
    let mut out = Vec::with_capacity(cfg.queries);
    for _ in 0..cfg.queries {
        let gap = match cfg.arrivals {
            ArrivalProcess::Fixed => 1.0 / cfg.qps,
            ArrivalProcess::Poisson => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -u.ln() / cfg.qps
            }
        };
        at += gap;
        let is_dup = !history.is_empty() && rng.gen::<f64>() < cfg.duplicate_rate;
        let (rank, qfv) = if is_dup {
            // Re-emit a recent query with a tiny perturbation: close
            // enough that the query-cache QCN scores it a duplicate.
            let (rank, base) = &history[rng.gen_range(0..history.len())];
            let noise = Tensor::random(vec![base.len()], 0.01, rng.gen::<u64>());
            (*rank, base.add(&noise).expect("same dims"))
        } else {
            stream.next_query()
        };
        if !is_dup {
            history.push((rank, qfv.clone()));
            if history.len() > 64 {
                history.remove(0);
            }
        }
        out.push(Offered {
            at: Duration::from_secs_f64(at),
            qfv,
            rank,
            duplicate: is_dup,
        });
    }
    out
}

/// What each offered query is submitted against.
#[derive(Debug, Clone, Copy)]
pub struct LoadTarget {
    /// The registered model to score with.
    pub model: ModelId,
    /// The database to scan.
    pub db: DbId,
    /// Top-K size per query.
    pub k: usize,
    /// Accelerator placement.
    pub level: AcceleratorLevel,
}

/// Aggregated outcome of one open-loop run. Latency percentiles are in
/// milliseconds, measured from each query's *scheduled* arrival to its
/// completion (results fetched), so queueing under overload counts.
/// Percentile fields are `-1.0` when no query completed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadReport {
    /// The rate the schedule targeted.
    pub offered_qps: f64,
    /// Completions per second of wall time actually achieved.
    pub achieved_qps: f64,
    /// Wall-clock duration of the run, seconds.
    pub duration_secs: f64,
    /// Queries in the schedule.
    pub offered: u64,
    /// Queries that completed (results fetched).
    pub completed: u64,
    /// Queries rejected with `Overloaded`.
    pub rejected_overloaded: u64,
    /// Queries rejected with `QuotaExceeded`.
    pub rejected_quota: u64,
    /// Queries that failed for any other reason.
    pub errors: u64,
    /// Mean completion latency, ms.
    pub mean_ms: f64,
    /// Median completion latency, ms.
    pub p50_ms: f64,
    /// 99th-percentile completion latency, ms.
    pub p99_ms: f64,
    /// 99.9th-percentile completion latency, ms.
    pub p999_ms: f64,
    /// Worst completion latency, ms.
    pub max_ms: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return -1.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct WorkerOutcome {
    latencies_ms: Vec<f64>,
    rejected_overloaded: u64,
    rejected_quota: u64,
    errors: u64,
}

/// Replay `offered` against a server over `connections` parallel
/// client connections.
///
/// Queries are assigned round-robin; each worker sleeps until a
/// query's scheduled arrival and then submits it. With enough
/// connections this approximates a true open loop — a slow reply only
/// delays the queries assigned to that one connection, and their
/// latency is still charged from the scheduled arrival.
///
/// `connect` is called once per worker to open its connection (worker
/// `i` introduces itself as client `lg-{i}`).
pub fn run_open_loop<C, F>(
    connect: F,
    connections: usize,
    offered: &[Offered],
    target: LoadTarget,
) -> Result<LoadReport, ProtoError>
where
    C: CommandChannel,
    F: Fn() -> Result<C, ProtoError> + Sync,
{
    assert!(connections > 0, "need at least one connection");
    assert!(!offered.is_empty(), "empty schedule");
    let offered_secs = offered.last().expect("non-empty").at.as_secs_f64();
    let offered_qps = offered.len() as f64 / offered_secs.max(1e-9);
    let epoch = Instant::now();
    let outcomes: Vec<Result<WorkerOutcome, ProtoError>> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(connections);
        for w in 0..connections {
            let connect = &connect;
            handles.push(scope.spawn(move || -> Result<WorkerOutcome, ProtoError> {
                let mut host = HostClient::over(connect()?);
                host.hello(&format!("lg-{w}"))?;
                let mut outcome = WorkerOutcome {
                    latencies_ms: Vec::new(),
                    rejected_overloaded: 0,
                    rejected_quota: 0,
                    errors: 0,
                };
                let mut schedule = offered.iter().skip(w).step_by(connections);
                for item in schedule.by_ref() {
                    let elapsed = epoch.elapsed();
                    if item.at > elapsed {
                        std::thread::sleep(item.at - elapsed);
                    }
                    // Carry the lag past the scheduled arrival in the
                    // frame so the server's end-to-end histogram charges
                    // queueing under overload to the offered schedule
                    // (coordinated-omission-honest), and let the server
                    // assign the request id (0 = unassigned).
                    #[allow(clippy::cast_possible_truncation)]
                    let sched_lag_ns = epoch.elapsed().saturating_sub(item.at).as_nanos() as u64;
                    let submitted = host.query_traced(
                        &item.qfv,
                        target.k,
                        target.model,
                        target.db,
                        target.level,
                        false,
                        0,
                        sched_lag_ns,
                    );
                    let done = submitted.and_then(|(qid, _rid)| host.get_results(qid));
                    match done {
                        Ok(_) => {
                            let latency = epoch.elapsed().saturating_sub(item.at);
                            outcome.latencies_ms.push(latency.as_secs_f64() * 1e3);
                        }
                        Err(e) => match e.device_error() {
                            Some(DeepStoreError::Overloaded { .. }) => {
                                outcome.rejected_overloaded += 1
                            }
                            Some(DeepStoreError::QuotaExceeded { .. }) => {
                                outcome.rejected_quota += 1
                            }
                            // A transport-level failure means the
                            // connection is gone; count what's left of
                            // this worker's schedule as errors.
                            _ if e.device_error().is_none() => {
                                outcome.errors += 1;
                                break;
                            }
                            _ => outcome.errors += 1,
                        },
                    }
                }
                // Non-empty only after the break: offered, never answered.
                outcome.errors += schedule.count() as u64;
                Ok(outcome)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("load-gen worker panicked"))
            .collect()
    });
    let duration_secs = epoch.elapsed().as_secs_f64();

    let mut latencies = Vec::new();
    let (mut rejected_overloaded, mut rejected_quota, mut errors) = (0u64, 0u64, 0u64);
    for outcome in outcomes {
        let outcome = outcome?;
        latencies.extend(outcome.latencies_ms);
        rejected_overloaded += outcome.rejected_overloaded;
        rejected_quota += outcome.rejected_quota;
        errors += outcome.errors;
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let completed = latencies.len() as u64;
    let mean_ms = if latencies.is_empty() {
        -1.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    Ok(LoadReport {
        offered_qps,
        achieved_qps: completed as f64 / duration_secs.max(1e-9),
        duration_secs,
        offered: offered.len() as u64,
        completed,
        rejected_overloaded,
        rejected_quota,
        errors,
        mean_ms,
        p50_ms: percentile(&latencies, 50.0),
        p99_ms: percentile(&latencies, 99.0),
        p999_ms: percentile(&latencies, 99.9),
        max_ms: latencies.last().copied().unwrap_or(-1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepstore_core::serve::{
        channel_transport, serve, ChannelConnector, ServeConfig, ServerHandle,
    };
    use deepstore_core::{DeepStore, DeepStoreConfig};
    use deepstore_nn::{zoo, ModelGraph};

    fn small_plan(arrivals: ArrivalProcess, seed: u64) -> Vec<Offered> {
        plan(&LoadPlanConfig {
            queries: 40,
            qps: 2_000.0,
            arrivals,
            seed,
            ..LoadPlanConfig::default()
        })
    }

    #[test]
    fn plans_are_deterministic_and_monotonic() {
        for arrivals in [ArrivalProcess::Poisson, ArrivalProcess::Fixed] {
            let a = small_plan(arrivals, 7);
            let b = small_plan(arrivals, 7);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.at, y.at);
                assert_eq!(x.rank, y.rank);
                assert_eq!(x.qfv.data(), y.qfv.data());
            }
            for w in a.windows(2) {
                assert!(w[1].at > w[0].at, "arrivals must be strictly increasing");
            }
        }
        let c = small_plan(ArrivalProcess::Poisson, 8);
        assert!(small_plan(ArrivalProcess::Poisson, 7)
            .iter()
            .zip(&c)
            .any(|(x, y)| x.at != y.at));
    }

    #[test]
    fn fixed_arrivals_hit_the_target_rate_exactly() {
        let p = small_plan(ArrivalProcess::Fixed, 1);
        let gap = Duration::from_secs_f64(1.0 / 2_000.0);
        for (i, item) in p.iter().enumerate() {
            let want = gap * (i as u32 + 1);
            let diff = item.at.abs_diff(want);
            assert!(
                diff < Duration::from_micros(2),
                "gap drift at {i}: {diff:?}"
            );
        }
    }

    #[test]
    fn poisson_mean_gap_approximates_rate() {
        let p = plan(&LoadPlanConfig {
            queries: 4_000,
            qps: 1_000.0,
            arrivals: ArrivalProcess::Poisson,
            ..LoadPlanConfig::default()
        });
        let total = p.last().unwrap().at.as_secs_f64();
        let mean_gap = total / p.len() as f64;
        assert!((mean_gap - 1e-3).abs() < 2e-4, "mean gap {mean_gap}");
    }

    #[test]
    #[should_panic(expected = "offered rate must be positive")]
    fn zero_rate_panics() {
        let _ = plan(&LoadPlanConfig {
            qps: 0.0,
            ..LoadPlanConfig::default()
        });
    }

    #[test]
    fn duplicate_rate_controls_noisy_duplicates() {
        let none = plan(&LoadPlanConfig {
            duplicate_rate: 0.0,
            ..LoadPlanConfig::default()
        });
        assert!(none.iter().all(|o| !o.duplicate));
        let most = plan(&LoadPlanConfig {
            queries: 200,
            duplicate_rate: 0.9,
            ..LoadPlanConfig::default()
        });
        let dups = most.iter().filter(|o| o.duplicate).count();
        assert!(dups > 120, "only {dups}/200 duplicates at rate 0.9");
    }

    #[test]
    fn percentiles_handle_edges() {
        assert_eq!(percentile(&[], 99.0), -1.0);
        assert_eq!(percentile(&[5.0], 99.9), 5.0);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
    }

    /// A served 32-feature textqa store and 24 queries offered to it.
    fn served() -> (ServerHandle, ChannelConnector, Vec<Offered>, LoadTarget) {
        let model = zoo::textqa().seeded(11);
        let mut store = DeepStore::in_memory(DeepStoreConfig::small());
        let features: Vec<_> = (0..32).map(|i| model.random_feature(i)).collect();
        let db = store.write_db(&features).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        let (transport, connector) = channel_transport();
        let handle = serve(transport, store, ServeConfig::default());

        let offered = plan(&LoadPlanConfig {
            queries: 24,
            qps: 3_000.0,
            dim: model.feature_len(),
            ..LoadPlanConfig::default()
        });
        let target = LoadTarget {
            model: mid,
            db,
            k: 3,
            level: AcceleratorLevel::Ssd,
        };
        (handle, connector, offered, target)
    }

    #[test]
    fn open_loop_run_against_a_served_store() {
        let (handle, connector, offered, target) = served();
        let report = run_open_loop(|| connector.connect(), 3, &offered, target).unwrap();
        assert_eq!(report.offered, 24);
        assert_eq!(report.completed, 24);
        assert_eq!(report.rejected_overloaded + report.rejected_quota, 0);
        assert_eq!(report.errors, 0);
        // Every offered query ends in exactly one bucket of the report.
        let answered = report.completed + report.rejected_overloaded + report.rejected_quota;
        assert_eq!(report.offered, answered + report.errors);
        assert!(report.p50_ms >= 0.0 && report.p50_ms.is_finite());
        assert!(report.p999_ms >= report.p50_ms);
        assert!(report.max_ms >= report.p999_ms);
        assert!(report.achieved_qps > 0.0);
        let (_store, stats) = handle.shutdown();
        assert_eq!(stats.queries_admitted, 24);
        // Each worker shows up as its own tenant in the breakdown.
        assert_eq!(stats.per_tenant.len(), 3);
        assert!(stats.per_tenant.iter().all(|t| t.client.starts_with("lg-")));
        assert_eq!(stats.per_tenant.iter().map(|t| t.accepted).sum::<u64>(), 24);
    }

    /// A connection that dies after `.1` more exchanges.
    struct Dying<C>(C, usize);

    impl<C: CommandChannel> CommandChannel for Dying<C> {
        fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, ProtoError> {
            if self.1 == 0 {
                return Err(ProtoError::ConnectionClosed);
            }
            self.1 -= 1;
            self.0.exchange(frame)
        }
    }

    #[test]
    fn lost_connection_charges_the_rest_of_its_schedule_as_errors() {
        // Regression: the queries still scheduled on a connection that
        // closed used to vanish from the report (errors == 1).
        let (_handle, connector, offered, target) = served();
        // hello, then five query + getResults round trips.
        let dying = || Ok(Dying(connector.connect()?, 1 + 2 * 5));
        let report = run_open_loop(dying, 1, &offered, target).unwrap();
        assert_eq!(report.completed, 5);
        assert_eq!(report.rejected_overloaded + report.rejected_quota, 0);
        assert_eq!(report.errors, report.offered - report.completed);
    }
}
