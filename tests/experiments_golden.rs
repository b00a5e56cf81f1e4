//! Golden test: the experiments regenerate the committed `results/*.csv`
//! byte for byte, and every committed CSV is written by exactly one entry
//! of `deepstore_bench::EXPERIMENTS`. Everything runs on simulated clocks
//! from fixed seeds, so any difference is a change in the code.
//!
//! The suite is split by cost, as measured on a 2-vCPU host:
//!
//! - **Always on:** `table1`, `fig2`, `fig6`, `table3`, `fig8`–`fig12`,
//!   the three non-query-cache ablations and `throughput`, about 18 s
//!   together in a debug build.
//! - **`#[ignore]`d:** `fig13` (54 s), `fig14` (49 s), `ablation_qc_policy`
//!   (18 s) and `recall` (27 s), about 150 s in release (95 s on two
//!   threads) and far too slow for a debug run. CI runs them with
//!   `cargo test --release -q --test experiments_golden -- --ignored`.
//!
//! A deliberate change to a figure regenerates the CSVs with
//! `cargo run --release -p deepstore-bench` and commits them with the code.

use deepstore_bench::{Experiment, EXPERIMENTS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The slow experiments and the CSVs each writes, so that the always-on
/// test can account for every committed file without running them.
const SLOW: [(&str, &[&str]); 4] = [
    ("fig13", &["fig13_uniform", "fig13_zipf07"]),
    ("fig14", &["fig14"]),
    ("ablation_qc_policy", &["ablation_qc_policy"]),
    ("recall", &["recall"]),
];

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Runs one experiment, asserts that each of its reports equals the
/// committed CSV, and returns the CSV names it wrote.
fn regenerate(name: &str, experiment: Experiment) -> Vec<String> {
    experiment()
        .into_iter()
        .map(|report| {
            let path = results_dir().join(format!("{}.csv", report.name));
            let committed = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                report.table.to_csv(),
                committed,
                "`{name}` no longer regenerates {}",
                path.display()
            );
            report.name
        })
        .collect()
}

fn experiment(name: &str) -> Experiment {
    EXPERIMENTS
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("`{name}` is not in EXPERIMENTS"))
        .1
}

#[test]
fn fast_experiments_regenerate_committed_csvs() {
    let mut writers: BTreeMap<String, Vec<&str>> = BTreeMap::new();
    for &(name, run) in EXPERIMENTS {
        let csvs = match SLOW.iter().find(|(slow, _)| *slow == name) {
            Some((_, csvs)) => csvs.iter().map(|c| c.to_string()).collect(),
            None => regenerate(name, run),
        };
        for csv in csvs {
            writers.entry(csv).or_default().push(name);
        }
    }
    for (slow, _) in SLOW {
        experiment(slow);
    }

    let mut committed: Vec<String> = std::fs::read_dir(results_dir())
        .expect("results/ is committed")
        .map(|entry| entry.expect("readable results/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    committed.sort();
    assert_eq!(
        writers.keys().cloned().collect::<Vec<_>>(),
        committed,
        "results/*.csv and the CSVs the experiments write differ"
    );
    for (csv, names) in &writers {
        assert_eq!(names.len(), 1, "{csv}.csv is written by {names:?}");
    }
}

#[test]
#[ignore = "about 150 s in release; CI runs it with --ignored"]
fn slow_experiments_regenerate_committed_csvs() {
    std::thread::scope(|scope| {
        for (name, csvs) in SLOW {
            scope.spawn(move || {
                assert_eq!(
                    regenerate(name, experiment(name)),
                    csvs,
                    "`{name}` writes other CSVs than SLOW lists"
                );
            });
        }
    });
}
