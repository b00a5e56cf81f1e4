//! The measurement core shared by every workload: the closed loop, the
//! repeated set-up, the probe verification and the two kinds of run —
//! the gated run (tracing off, end-to-end metrics) and the traced run
//! (spans, stage replay, per-layer metrics).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::layers::{self, ProbeData};
use crate::reference::{self, Ranked};
use crate::span::{self, Recorder};
use crate::{spec, stats, sys};

/// Latency samples of one measured phase.
#[derive(Debug, Default)]
pub struct Samples {
    /// One latency per sample, ms. A batch sample completes
    /// `ops_per_sample` operations that share its latency.
    pub lat_ms: Vec<f64>,
    /// Operations completed by one sample.
    pub ops_per_sample: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or did not verify.
    pub failed: u64,
    /// The first failure, for the report.
    pub failure: Option<String>,
    /// Wall time of the phase, s.
    pub wall_s: f64,
    /// Process CPU time of the phase (all threads), s.
    pub cpu_s: f64,
}

impl Samples {
    /// Records a failure, keeping the first message.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failure.get_or_insert(why);
    }

    /// Verified operations per second of wall time.
    pub fn throughput(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.wall_s
    }

    /// Folds another thread's samples of the same phase into this one
    /// (wall and CPU time are the phase's, set by the caller).
    pub fn merge(&mut self, other: Samples) {
        self.lat_ms.extend(other.lat_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.failure.is_none() {
            self.failure = other.failure;
        }
    }
}

/// One caller issuing `op(i)` back to back for `samples` samples: the
/// work of a phase is fixed, not its duration.
pub fn closed_loop(
    samples: usize,
    ops_per_sample: u64,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Samples {
    let mut s = Samples {
        ops_per_sample,
        lat_ms: Vec::with_capacity(samples),
        ..Samples::default()
    };
    let cpu0 = sys::process_cpu_s();
    let start = Instant::now();
    for i in 0..samples {
        let t = Instant::now();
        let outcome = op(i);
        s.lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        s.attempted += ops_per_sample;
        if let Err(why) = outcome {
            s.fail(ops_per_sample, why);
        }
    }
    s.wall_s = start.elapsed().as_secs_f64();
    s.cpu_s = sys::process_cpu_s() - cpu0;
    s
}

/// What a workload reports after its measured phase.
#[derive(Debug, Default)]
pub struct Finish {
    /// Median simulated latency of the probe queries, us.
    pub sim_probe_us: f64,
    /// Stored bytes per user feature byte.
    pub stored_ratio: f64,
    /// Checks attempted (probe answers, crash check).
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first failure.
    pub failure: Option<String>,
    /// Harness time spent on the brute-force reference, s.
    pub reference_s: f64,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Finish {
    /// Records the outcome of one check.
    pub fn check(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failure.get_or_insert(format!("{what}: {why}"));
        }
    }
}

/// One program answer to a probe: hits, coverage, simulated latency ns.
pub type ProbeAnswer = (Vec<Ranked>, f64, u64);

/// Runs every probe with the cascade on, and the first
/// [`spec::EXACT_PROBES`] also with `.exact()`; requires every answer to
/// equal the brute-force reference over `features`, and records the
/// median simulated latency of the cascade answers.
pub fn verify_probes(
    finish: &mut Finish,
    model: &deepstore_nn::Model,
    probes: &[deepstore_nn::Tensor],
    features: &[deepstore_nn::Tensor],
    mut run: impl FnMut(&deepstore_nn::Tensor, bool) -> Result<ProbeAnswer, String>,
) {
    let t = Instant::now();
    let refs = reference::brute_force_all(model, probes, features, spec::K, spec::HARNESS_THREADS);
    finish.reference_s += t.elapsed().as_secs_f64();
    let mut sim_us = Vec::with_capacity(probes.len());
    for (i, (probe, want)) in probes.iter().zip(&refs).enumerate() {
        for exact in [false, true] {
            if exact && i >= spec::EXACT_PROBES {
                continue;
            }
            let outcome = run(probe, exact).and_then(|(hits, coverage, sim_ns)| {
                if !exact {
                    sim_us.push(sim_ns as f64 / 1e3);
                }
                reference::check_shape(&hits, spec::K, coverage, features.len() as u64)?;
                reference::check_equals(&hits, want)
            });
            let what = format!("probe {i}{}", if exact { " (exact)" } else { "" });
            finish.check(&what, outcome);
        }
    }
    finish.sim_probe_us = if sim_us.is_empty() {
        0.0
    } else {
        stats::median(&sim_us)
    };
}

/// A benchmark workload: seed-derived inputs, a repeatable set-up, a
/// measured phase and a final verification.
pub trait Workload {
    /// Harness-side inputs (model, features, queries).
    type Inputs;
    /// The program under test, ready to take operations. Dropping it
    /// stops what it started; images are removed with the run's
    /// directory.
    type State;

    /// Samples issued before the measured phase: the first one ends the
    /// set-up (see [`ready`]), the rest are the single warm-up.
    const WARMUP: usize;
    /// Samples of the measured phase of a run of [`spec::RUN_SECONDS`],
    /// sized to take about that long on a quiet host.
    const MEASURED: usize;

    /// Generates the inputs of a run that measures `measured` samples
    /// from the seed (harness time).
    fn generate(seed: u64, measured: usize) -> Self::Inputs;
    /// Everything inside program calls until the program can take
    /// operations: create, ingest, `load_model`, flush, `serve` start.
    fn setup(inputs: &Self::Inputs, dir: &Path) -> Self::State;
    /// Issues the next `samples` samples, continuing where the previous
    /// phase on this state stopped.
    fn measure(
        state: &mut Self::State,
        inputs: &Self::Inputs,
        samples: usize,
        rec: &mut Recorder,
    ) -> Samples;
    /// Verifies the probes (and whatever else the workload promises) and
    /// reports the run-constant figures.
    fn finish(state: Self::State, inputs: &Self::Inputs, dir: &Path) -> Finish;
    /// The workload's own data the layer probes replay.
    fn probe_data(inputs: &Self::Inputs) -> ProbeData<'_>;
}

/// Samples the measured phase issues when asked to measure for
/// `seconds`: [`Workload::MEASURED`] scaled from [`spec::RUN_SECONDS`].
pub fn measured_samples<W: Workload>(seconds: f64) -> usize {
    ((W::MEASURED as f64 * seconds / spec::RUN_SECONDS).round() as usize).max(1)
}

/// A named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`spec`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit from [`spec`].
    pub unit: &'static str,
}

/// The result of one run.
#[derive(Debug)]
pub struct Report {
    /// Every answer verified and no operation failed.
    pub correct: bool,
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// The metrics of the run kind, in [`spec`] order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Closes a run's account: a metric that is not a finite number (a
    /// 0/0 or x/0 somewhere) is a failed check, never a best-possible 0.
    fn seal(
        metrics: Vec<Metric>,
        attempted: u64,
        mut failed: u64,
        mut notes: Vec<String>,
    ) -> Report {
        let mut checks = 0;
        for m in metrics.iter().filter(|m| !m.value.is_finite()) {
            checks += 1;
            failed += 1;
            notes.push(format!("FAILED {} is {}, not a number", m.name, m.value));
        }
        Report {
            correct: failed == 0,
            attempted: attempted + checks,
            failed,
            metrics,
            notes,
        }
    }
}

/// Where a run keeps its images and traces.
pub struct Dirs {
    /// `benchmark/out`: traces stay here.
    pub out: PathBuf,
    /// A per-process directory under `out` for images; removed on drop.
    pub images: PathBuf,
}

impl Dirs {
    /// Creates the directories.
    pub fn create(out: PathBuf) -> std::io::Result<Dirs> {
        let images = out.join(format!("images-{}", std::process::id()));
        std::fs::create_dir_all(&images)?;
        Ok(Dirs { out, images })
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.images);
    }
}

fn where_note(dirs: &Dirs) -> String {
    format!(
        "images under {} ({})",
        dirs.images.display(),
        sys::filesystem_of(&dirs.images)
    )
}

/// The spread of a measured phase's latencies, for the notes.
fn latency_note(lat_ms: &[f64]) -> String {
    let sorted = stats::sorted(lat_ms);
    let q = |p: f64| stats::quantile_sorted(&sorted, p);
    format!(
        "latency ms: min {:.3} p25 {:.3} p50 {:.3} p75 {:.3} p90 {:.3} p99 {:.3} max {:.3}",
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(0.9),
        q(0.99),
        q(1.0)
    )
}

/// Set-ups of a run. A single set-up is a single-shot timing, so it is
/// repeated and `setup_s` is the median; three is what the large
/// workloads can afford, and more server starts and stops in one
/// process make the peak resident size of `serve_zipf` wander.
const SETUPS: usize = 3;

/// Sets the workload up until it has answered its first operation.
/// Returns the ready state and how long that took, s.
fn ready<W: Workload>(inputs: &W::Inputs, dirs: &Dirs) -> (W::State, f64) {
    let t = Instant::now();
    let mut state = W::setup(inputs, &dirs.images);
    let first = W::measure(&mut state, inputs, 1, &mut Recorder::off());
    let took = t.elapsed().as_secs_f64();
    assert_eq!(first.failed, 0, "first operation: {:?}", first.failure);
    (state, took)
}

/// [`ready`], [`SETUPS`] times over, one after the other; each state is
/// dropped before the next set-up and the last one is returned with
/// every set-up's time.
fn set_up<W: Workload>(inputs: &W::Inputs, dirs: &Dirs) -> (W::State, Vec<f64>) {
    let mut times: Vec<f64> = (1..SETUPS).map(|_| ready::<W>(inputs, dirs).1).collect();
    let (state, took) = ready::<W>(inputs, dirs);
    times.push(took);
    (state, times)
}

/// The rest of the warm-up after [`ready`]'s first operation.
fn warm_up<W: Workload>(state: &mut W::State, inputs: &W::Inputs) {
    let warm = W::measure(state, inputs, W::WARMUP - 1, &mut Recorder::off());
    assert_eq!(warm.failed, 0, "warm-up failed: {:?}", warm.failure);
}

/// The gated run: repeated set-up, one warm-up, the measured phase
/// (tracing off, a fixed number of samples), then verification.
pub fn run_gated<W: Workload>(seed: u64, seconds: f64, dirs: &Dirs) -> Report {
    let measured = measured_samples::<W>(seconds);
    let t = Instant::now();
    let inputs = W::generate(seed, measured);
    let gen_s = t.elapsed().as_secs_f64();
    let (mut state, setup_s) = set_up::<W>(&inputs, dirs);
    let t = Instant::now();
    warm_up::<W>(&mut state, &inputs);
    let warm_s = t.elapsed().as_secs_f64();
    let samples = W::measure(&mut state, &inputs, measured, &mut Recorder::off());
    let t = Instant::now();
    let finish = W::finish(state, &inputs, &dirs.images);
    let finish_s = t.elapsed().as_secs_f64();

    let tail = stats::tail(&samples.lat_ms);
    let attempted = samples.attempted + finish.attempted;
    let failed = samples.failed + finish.failed;
    let values = [
        stats::median(&setup_s),
        stats::median(&samples.lat_ms),
        tail.value,
        samples.throughput(),
        samples.cpu_s * 1e3 / samples.attempted as f64,
        (attempted - failed) as f64 / attempted as f64,
        sys::peak_rss_mib(),
        finish.stored_ratio,
        finish.sim_probe_us,
    ];
    let mut notes = vec![
        where_note(dirs),
        format!("kernel backend {}", deepstore_nn::kernel_backend()),
        format!(
            "{} set-ups {setup_s:.3?} s; warm-up of {} samples {warm_s:.3} s",
            setup_s.len(),
            W::WARMUP
        ),
        format!(
            "{} latency samples x {} operation(s) in {:.3} s; tail is p{:.2} with {} samples beyond it",
            samples.lat_ms.len(),
            samples.ops_per_sample,
            samples.wall_s,
            tail.percentile,
            tail.beyond
        ),
        latency_note(&samples.lat_ms),
        format!(
            "harness: gen {gen_s:.3} s, verification {finish_s:.3} s of which reference {:.3} s",
            finish.reference_s
        ),
    ];
    notes.extend(finish.notes);
    notes.extend(
        samples
            .failure
            .iter()
            .chain(&finish.failure)
            .map(|f| format!("FAILED {f}")),
    );
    let metrics = spec::END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric {
            name: m.name,
            value,
            unit: m.unit,
        })
        .collect();
    Report::seal(metrics, attempted, failed, notes)
}

/// The traced run: one set-up and warm-up, an untraced and a traced
/// segment of a quarter of the measured phase each (their throughput
/// difference is the tracing overhead), verification, then the layer
/// probes and stage replay over the workload's own data for about half
/// of `seconds`. Writes `trace_<name>.json` under `dirs.out`.
pub fn run_traced<W: Workload>(name: &str, seed: u64, seconds: f64, dirs: &Dirs) -> Report {
    let segment = measured_samples::<W>(seconds).div_ceil(4);
    let t = Instant::now();
    let inputs = W::generate(seed, 2 * segment);
    let gen_s = t.elapsed().as_secs_f64();
    let (mut state, _) = ready::<W>(&inputs, dirs);
    warm_up::<W>(&mut state, &inputs);
    let plain = W::measure(&mut state, &inputs, segment, &mut Recorder::off());
    let mut rec = Recorder::on(Instant::now(), 0);
    let traced = W::measure(&mut state, &inputs, segment, &mut rec);
    let finish = W::finish(state, &inputs, &dirs.images);

    // Coverage: time attributed to a layer inside the operations, over
    // the operations' end-to-end time (the harness-layer root spans).
    let by_layer = span::layer_self_ns(rec.spans());
    let e2e_ns: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let layer_ns: u64 = by_layer
        .iter()
        .filter(|(layer, _)| **layer != "harness")
        .map(|(_, ns)| ns)
        .sum();

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let data = W::probe_data(&inputs);
    let (probe_failures, probes_took) = layers::run_all(
        &data,
        Duration::from_secs_f64(seconds / 2.0),
        &dirs.images,
        &mut rec,
        &mut values,
    );
    values.insert("harness.gen_s", gen_s);
    values.insert("harness.reference_s", finish.reference_s);
    values.insert("harness.timer_ns", layers::timer_ns());
    values.insert(
        "harness.trace_overhead_share",
        1.0 - traced.throughput() / plain.throughput(),
    );
    values.insert(
        "harness.trace_coverage_share",
        layer_ns as f64 / e2e_ns.max(1) as f64,
    );

    let trace_path = dirs.out.join(format!("trace_{name}.json"));
    let trace_written = std::fs::write(&trace_path, span::chrome_trace_json(rec.spans()));

    // Beyond the operations and checks: the trace file, and one check per
    // layer probe that failed (the ones that passed are not counted).
    let probes_failed = probe_failures.len() as u64;
    let attempted = plain.attempted + traced.attempted + finish.attempted + 1 + probes_failed;
    let mut failed = plain.failed + traced.failed + finish.failed + probes_failed;
    let mut notes = vec![
        where_note(dirs),
        format!("kernel backend {}", deepstore_nn::kernel_backend()),
        format!(
            "segments of {segment} samples: untraced {:.3} ops/s, traced {:.3} ops/s, {} spans",
            plain.throughput(),
            traced.throughput(),
            rec.spans().len()
        ),
        format!("layer self time in operations, ns: {by_layer:?}"),
        probes_took,
    ];
    match trace_written {
        Ok(()) => notes.push(format!("trace written to {}", trace_path.display())),
        Err(e) => {
            failed += 1;
            notes.push(format!("FAILED writing {}: {e}", trace_path.display()));
        }
    }
    notes.extend(finish.notes);
    let failures = [plain.failure, traced.failure, finish.failure];
    notes.extend(
        failures
            .iter()
            .flatten()
            .chain(&probe_failures)
            .map(|f| format!("FAILED {f}")),
    );
    let metrics: Vec<Metric> = spec::PER_LAYER
        .iter()
        .map(|m| Metric {
            name: m.name,
            value: *values
                .get(m.name)
                .unwrap_or_else(|| panic!("traced run produced no {}", m.name)),
            unit: m.unit,
        })
        .collect();
    Report::seal(metrics, attempted, failed, notes)
}

/// Renders the last line of standard output: one JSON object with
/// exactly `correct`, `attempted`, `failed` and `metrics`.
pub fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN; `Report::seal` has failed such a run.
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_issues_a_fixed_number_of_samples_and_counts_failures() {
        let s = closed_loop(5, 8, |i| {
            if i == 3 {
                Err("bad answer".into())
            } else {
                Ok(())
            }
        });
        assert_eq!(s.lat_ms.len(), 5);
        assert_eq!((s.attempted, s.failed), (40, 8));
        assert_eq!(s.failure.as_deref(), Some("bad answer"));
        assert!(s.wall_s > 0.0 && s.throughput() > 0.0);
    }

    #[test]
    fn result_json_has_exactly_the_contract_keys_and_fails_a_non_finite_metric() {
        let report = Report::seal(
            vec![
                Metric {
                    name: "latency_p50_ms",
                    value: 1.25,
                    unit: "ms",
                },
                Metric {
                    name: "ok_share",
                    value: f64::NAN,
                    unit: "ratio",
                },
            ],
            3,
            0,
            Vec::new(),
        );
        assert_eq!(
            result_json(&report),
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, \"metrics\": {\
             \"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"ok_share\": {\"value\": null, \"unit\": \"ratio\"}}}"
        );
        assert!(report.notes[0].contains("ok_share is NaN"));
    }
}
