//! Figure 13: Query Cache performance vs error threshold.
//!
//! For both query distributions (uniform and Zipfian alpha=0.7), sweeps
//! the error threshold 0–20% and reports the measured miss rate plus the
//! three speedup series of the paper: Traditional+QCache over
//! Traditional, DeepStore over Traditional, and DeepStore+QCache over
//! Traditional.

use crate::qc::{self, QcRunConfig};
use crate::report::{num, Report, Table};
use deepstore_workloads::TraceDistribution;

const THRESHOLDS: [f64; 9] = [0.0, 0.02, 0.05, 0.08, 0.10, 0.12, 0.15, 0.18, 0.20];

pub fn run() -> Vec<Report> {
    [
        ("uniform", TraceDistribution::Uniform),
        ("zipf07", TraceDistribution::Zipfian { alpha: 0.7 }),
    ]
    .into_iter()
    .map(|(tag, dist)| {
        let mut table = Table::new(&[
            "threshold_pct",
            "miss_rate_pct",
            "traditional_qc_x",
            "deepstore_x",
            "deepstore_qc_x",
        ]);
        for &t in &THRESHOLDS {
            let r = qc::run(&QcRunConfig::fig13(t, dist));
            table.row(&[
                num(t * 100.0, 0),
                num(r.miss_rate * 100.0, 1),
                num(r.traditional_qc_speedup(), 2),
                num(r.deepstore_speedup(), 2),
                num(r.deepstore_qc_speedup(), 2),
            ]);
        }
        Report {
            name: format!("fig13_{tag}"),
            title: format!("Figure 13 ({tag}): Query Cache speedup & miss rate vs threshold"),
            table,
        }
    })
    .collect()
}
