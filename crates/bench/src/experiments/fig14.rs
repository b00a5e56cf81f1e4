//! Figure 14: Query Cache miss rate vs cache size.
//!
//! At the 10% threshold, sweeps the cache capacity 100–1000 entries for
//! the uniform, Zipf(0.7) and Zipf(0.8) distributions. The paper's
//! finding: miss rate falls with capacity, but for distributions with
//! locality the benefit of larger caches shrinks — a small (~22 MB for
//! TIR) in-DRAM cache suffices.

use crate::qc::{measure_miss_rate, QcRunConfig};
use crate::report::{num, Report, Table};
use deepstore_core::qcache::ReplacementPolicy;
use deepstore_workloads::TraceDistribution;

pub fn run() -> Vec<Report> {
    let mut table = Table::new(&["entries", "uniform_pct", "zipf07_pct", "zipf08_pct"]);
    for capacity in (100..=1000).step_by(100) {
        let miss = |dist| {
            let cfg = QcRunConfig {
                capacity,
                ..QcRunConfig::fig13(0.10, dist)
            };
            measure_miss_rate(&cfg, ReplacementPolicy::Lru) * 100.0
        };
        table.row(&[
            capacity.to_string(),
            num(miss(TraceDistribution::Uniform), 1),
            num(miss(TraceDistribution::Zipfian { alpha: 0.7 }), 1),
            num(miss(TraceDistribution::Zipfian { alpha: 0.8 }), 1),
        ]);
    }
    vec![Report {
        name: "fig14".into(),
        title: "Figure 14: Query Cache miss rate vs cache size (threshold 10%)".into(),
        table,
    }]
}
