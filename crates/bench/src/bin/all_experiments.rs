//! Regenerates every table and figure of the paper's evaluation in one
//! run, writing CSVs under `results/`.

use std::process::Command;

const EXPERIMENTS: [&str; 17] = [
    "table1",
    "fig2",
    "fig6",
    "table3",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "ablation_layout",
    "ablation_dataflow",
    "ablation_prefetch",
    "ablation_qc_policy",
    "throughput",
    "recall",
];

fn main() {
    let exe = std::env::current_exe().expect("own path");
    let dir = exe.parent().expect("bin dir");
    for name in EXPERIMENTS {
        println!("##### {name} #####");
        let status = Command::new(dir.join(name))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
        assert!(status.success(), "{name} failed");
    }
    println!("All experiments regenerated; CSVs in results/.");
}
