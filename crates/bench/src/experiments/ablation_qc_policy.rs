//! Ablation: query-cache replacement policy.
//!
//! The paper uses LRU (§4.6). This ablation compares LRU against FIFO and
//! random replacement on the Figure 13 workload at the 10% threshold,
//! under both distributions.

use crate::qc::{measure_miss_rate, QcRunConfig};
use crate::report::{num, Report, Table};
use deepstore_core::qcache::ReplacementPolicy;
use deepstore_workloads::TraceDistribution;

pub fn run() -> Vec<Report> {
    let miss_pct = |policy, distribution| {
        let run = QcRunConfig {
            seed: 77,
            ..QcRunConfig::fig13(0.10, distribution)
        };
        num(100.0 * measure_miss_rate(&run, policy), 1)
    };
    let mut table = Table::new(&["policy", "uniform_miss_pct", "zipf07_miss_pct"]);
    for (name, policy) in [
        ("lru", ReplacementPolicy::Lru),
        ("fifo", ReplacementPolicy::Fifo),
        ("random", ReplacementPolicy::Random),
    ] {
        table.row(&[
            name.to_string(),
            miss_pct(policy, TraceDistribution::Uniform),
            miss_pct(policy, TraceDistribution::Zipfian { alpha: 0.7 }),
        ]);
    }
    vec![Report {
        name: "ablation_qc_policy".into(),
        title: "Ablation: query-cache replacement policy (1K entries, threshold 10%)".into(),
        table,
    }]
}
