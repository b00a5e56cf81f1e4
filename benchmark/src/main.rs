//! The repository benchmark.
//!
//! `deepstore-benchmark --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload in this process, verifies every
//! answer, prints every metric by name with its unit and clock, and ends
//! its standard output with one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`). `--trace 0` is the gated run: tracing off, the
//! nine end-to-end metrics. `--trace 1` is the traced run: spans, stage
//! replay and every per-layer metric. See `benchmark/README.md`.

mod harness;
mod inputs;
mod layers;
mod reference;
mod span;
mod spec;
mod stats;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{Dirs, Report};

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: spec::RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value("--workload")?,
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                // `--trace 0|1`; a bare `--trace` means 1.
                parsed.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !spec::WORKLOADS.iter().any(|w| w.name == parsed.workload) {
        let names: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "--workload must be one of {names:?}, got {:?}",
            parsed.workload
        ));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn run<W: harness::Workload>(args: &Args, dirs: &Dirs) -> Report {
    if args.trace {
        harness::run_traced::<W>(&args.workload, args.seed, args.seconds, dirs)
    } else {
        harness::run_gated::<W>(args.seed, args.seconds, dirs)
    }
}

fn dispatch(args: &Args, dirs: &Dirs) -> Report {
    match args.workload.as_str() {
        "scan_textqa" => run::<workloads::scan_textqa::ScanTextqa>(args, dirs),
        "batch_tir" => run::<workloads::batch_tir::BatchTir>(args, dirs),
        "serve_zipf" => run::<workloads::serve_zipf::ServeZipf>(args, dirs),
        "cluster_scatter" => run::<workloads::cluster_scatter::ClusterScatter>(args, dirs),
        "ingest_restart" => run::<workloads::ingest_restart::IngestRestart>(args, dirs),
        other => unreachable!("parse_args admitted workload {other}"),
    }
}

/// Prints the report; the JSON result is the last line of standard output.
fn print_report(args: &Args, report: &Report) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    if let Some(w) = spec::WORKLOADS.iter().find(|w| w.name == args.workload) {
        println!("# why: {}", w.why);
    }
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        // A per-layer metric with the end-to-end metric and workload it
        // should move, or an end-to-end one with its worse-by bound.
        let (clock, rest) = match spec::PER_LAYER.iter().find(|l| l.name == m.name) {
            Some(l) => (l.clock(), format!("{} is better -> {}", l.better, l.moves)),
            None => {
                let e = spec::END_TO_END
                    .iter()
                    .find(|e| e.name == m.name)
                    .expect("a metric is per-layer or end-to-end");
                (
                    e.clock,
                    format!("{} is better, bound {}", e.better, e.bound),
                )
            }
        };
        println!(
            "{:<36} {:>22} {:<8} [{clock}] {rest}",
            m.name, m.value, m.unit
        );
    }
    println!("{}", harness::result_json(report));
}

/// 0 only when every operation succeeded and every answer verified.
fn exit_code(report: &Report) -> u8 {
    u8::from(!report.correct)
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to report: built with debug_assertions; build with --release");
        return ExitCode::from(2);
    }
    let fixed_layout = sys::fix_address_layout();
    sys::report_file_size_limit();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("error: {why}");
            eprintln!("usage: --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]");
            return ExitCode::from(2);
        }
    };
    let out = std::env::var_os("DEEPSTORE_BENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from);
    let dirs = match Dirs::create(out) {
        Ok(dirs) => dirs,
        Err(e) => {
            eprintln!("error: cannot create the output directory: {e}");
            return ExitCode::from(2);
        }
    };
    // `dirs` removes the images on drop: on return and while a panic
    // unwinds through `main`.
    let mut report = dispatch(&args, &dirs);
    drop(dirs);
    if let Err(why) = fixed_layout {
        report
            .notes
            .insert(0, format!("address-space randomisation is ON: {why}"));
    }
    print_report(&args, &report);
    ExitCode::from(exit_code(&report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{closed_loop, Finish, Samples, Workload};
    use crate::layers::ProbeData;
    use crate::span::Recorder;
    use std::path::Path;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload serve_zipf --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "serve_zipf".into(),
                seed: 7,
                seconds: 3.0,
                trace: true
            }
        );
        assert!(
            !parse_args(&argv("--workload batch_tir --trace 0"))
                .unwrap()
                .trace
        );
        assert!(
            parse_args(&argv("--workload batch_tir --trace"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload batch_tir --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload batch_tir --bogus")).is_err());
    }

    /// A stand-in workload whose program can be told to corrupt an answer.
    struct Toy<const CORRUPT: bool>;

    impl<const CORRUPT: bool> Workload for Toy<CORRUPT> {
        type Inputs = Vec<u64>;
        type State = usize;
        const WARMUP: usize = 2;
        const MEASURED: usize = 38;

        fn generate(seed: u64, measured: usize) -> Vec<u64> {
            (0..(Self::WARMUP + measured) as u64)
                .map(|i| seed + i)
                .collect()
        }
        fn setup(_inputs: &Vec<u64>, _dir: &Path) -> usize {
            0
        }
        fn measure(
            state: &mut usize,
            inputs: &Vec<u64>,
            samples: usize,
            _rec: &mut Recorder,
        ) -> Samples {
            closed_loop(samples, 1, |_| {
                let i = *state;
                *state += 1;
                let want = inputs[i] * 2;
                let got = if CORRUPT && i == 19 { want + 1 } else { want };
                if got == want {
                    Ok(())
                } else {
                    Err(format!("answer {got}, reference {want}"))
                }
            })
        }
        fn finish(_state: usize, _inputs: &Vec<u64>, _dir: &Path) -> Finish {
            let mut finish = Finish {
                stored_ratio: 1.0,
                sim_probe_us: 1.0,
                ..Finish::default()
            };
            finish.check("probe", Ok(()));
            finish
        }
        fn probe_data(_inputs: &Vec<u64>) -> ProbeData<'_> {
            unreachable!("the toy workload has no traced run")
        }
    }

    fn gated<const CORRUPT: bool>() -> Report {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-{}-{CORRUPT}", std::process::id()));
        let dirs = Dirs::create(out.clone()).unwrap();
        let report = harness::run_gated::<Toy<CORRUPT>>(5, spec::RUN_SECONDS, &dirs);
        drop(dirs);
        let _ = std::fs::remove_dir_all(out);
        report
    }

    fn ok_share(report: &Report) -> f64 {
        report
            .metrics
            .iter()
            .find(|m| m.name == "ok_share")
            .unwrap()
            .value
    }

    #[test]
    fn a_corrupted_answer_lowers_ok_share_and_fails_the_run() {
        let good = gated::<false>();
        assert!(good.correct);
        assert_eq!(ok_share(&good), 1.0);
        assert_eq!(exit_code(&good), 0);
        assert_eq!(good.metrics.len(), spec::END_TO_END.len());

        let bad = gated::<true>();
        assert!(!bad.correct);
        assert_eq!((bad.attempted, bad.failed), (39, 1));
        assert!(ok_share(&bad) < 1.0);
        assert_ne!(exit_code(&bad), 0);
        assert!(harness::result_json(&bad)
            .starts_with("{\"correct\": false, \"attempted\": 39, \"failed\": 1,"));
        assert!(bad.notes.iter().any(|n| n.contains("FAILED answer")));
    }
}
