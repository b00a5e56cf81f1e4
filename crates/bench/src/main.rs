//! Regenerates the paper's tables and figures: prints each experiment's
//! tables and writes them to `results/<name>.csv`.
//!
//! ```sh
//! cargo run --release -p deepstore-bench            # every experiment
//! cargo run --release -p deepstore-bench -- fig8    # just these
//! ```

use deepstore_bench::EXPERIMENTS;
use std::path::Path;
use std::process::ExitCode;

const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let valid: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    if let Some(unknown) = names.iter().find(|a| !valid.contains(&a.as_str())) {
        eprintln!(
            "error: unknown experiment `{unknown}`; valid: {}",
            valid.join(" ")
        );
        return ExitCode::FAILURE;
    }
    let selected = EXPERIMENTS
        .iter()
        .filter(|(n, _)| names.is_empty() || names.iter().any(|a| a == n));
    for (_, experiment) in selected {
        for report in experiment() {
            println!("== {} ==\n{}", report.title, report.table.render());
            let path = Path::new(RESULTS_DIR).join(format!("{}.csv", report.name));
            if let Err(e) = std::fs::write(&path, report.table.to_csv()) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            println!("[written results/{}.csv]\n", report.name);
        }
    }
    ExitCode::SUCCESS
}
