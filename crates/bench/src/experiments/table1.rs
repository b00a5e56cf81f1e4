//! Table 1: intelligent-query applications and their characteristics.
//!
//! Prints the reconstructed models' feature sizes, layer counts, FLOPs
//! and weight sizes next to the paper's published values, with the
//! relative deviation of each reconstruction.

use crate::report::{num, Report, Table};
use deepstore_nn::zoo;

pub fn run() -> Vec<Report> {
    let mut table = Table::new(&[
        "app",
        "feature_kb",
        "paper_kb",
        "conv",
        "fc",
        "ew",
        "mflops",
        "paper_mflops",
        "flops_dev%",
        "weight_mb",
        "paper_mb",
        "weight_dev%",
    ]);
    for row in zoo::paper_table1() {
        let m = zoo::by_name(row.name).expect("zoo covers table 1");
        let feature_kb = m.feature_bytes() as f64 / 1024.0;
        let mflops = m.total_flops() as f64 / 1e6;
        let weight_mb = m.weight_bytes() as f64 / (1024.0 * 1024.0);
        table.row(&[
            row.name.to_string(),
            num(feature_kb, 1),
            num(row.feature_kb, 1),
            m.conv_layer_count().to_string(),
            m.fc_layer_count().to_string(),
            m.element_wise_layer_count().to_string(),
            num(mflops, 3),
            num(row.mflops, 2),
            num(100.0 * (mflops - row.mflops) / row.mflops, 1),
            num(weight_mb, 3),
            num(row.weight_mb, 2),
            num(100.0 * (weight_mb - row.weight_mb) / row.weight_mb, 1),
        ]);
    }
    vec![Report {
        name: "table1".into(),
        title: "Table 1: application characteristics (reconstructed vs paper)".into(),
        table,
    }]
}
