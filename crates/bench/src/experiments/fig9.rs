//! Figure 9: sensitivity to flash page-read latency.
//!
//! Sweeps the flash array read latency across ratios 1:8 through 4:1 of
//! the 53 µs default, for the traditional GPU+SSD system and all three
//! DeepStore levels, normalized to each system's 1:1 performance. The
//! paper's finding: channel- and chip-level accelerators lose only
//! ~10% / ~4% at 4x latency (plane-level parallelism hides the reads),
//! and the traditional / SSD-level systems are insensitive (bounded by
//! the external link and compute, respectively).

use crate::report::{num, Report, Table};
use deepstore_baseline::GpuSsdSystem;
use deepstore_core::accel::scan;
use deepstore_core::config::{AcceleratorLevel, DeepStoreConfig};
use deepstore_workloads::App;

const RATIOS: [(u64, u64); 6] = [(1, 8), (1, 4), (1, 2), (1, 1), (2, 1), (4, 1)];

pub fn run() -> Vec<Report> {
    let mut table = Table::new(&["app", "system", "1:8", "1:4", "1:2", "1:1", "2:1", "4:1"]);
    for app in App::all() {
        let spec = app.scan_spec();

        // Traditional system.
        let times: Vec<f64> = RATIOS
            .iter()
            .map(|&(n, d)| {
                let mut cfg = deepstore_flash::SsdConfig::paper_default();
                cfg.timing = cfg.timing.with_read_latency_ratio(n, d);
                GpuSsdSystem::paper_default(&app.name)
                    .with_ssd_config(cfg)
                    .query(&spec)
                    .total_secs
            })
            .collect();
        push_normalized(&mut table, &app.name, "traditional", &times);

        // DeepStore levels.
        for level in AcceleratorLevel::ALL {
            let times: Vec<Option<f64>> = RATIOS
                .iter()
                .map(|&(n, d)| {
                    let mut cfg = DeepStoreConfig::paper_default();
                    cfg.ssd.timing = cfg.ssd.timing.with_read_latency_ratio(n, d);
                    let workload = app.scan_workload(&cfg);
                    scan(level, &workload, &cfg).map(|t| t.elapsed.as_secs_f64())
                })
                .collect();
            if times.iter().all(|t| t.is_some()) {
                let times: Vec<f64> = times.into_iter().map(|t| t.expect("checked")).collect();
                push_normalized(&mut table, &app.name, level.name(), &times);
            }
        }
    }
    vec![Report {
        name: "fig9".into(),
        title: "Figure 9: speedup vs flash read latency (normalized to 53us = 1:1)".into(),
        table,
    }]
}

fn push_normalized(table: &mut Table, app: &str, system: &str, times: &[f64]) {
    let base = times[3]; // the 1:1 point
    let mut row = vec![app.to_string(), system.to_string()];
    row.extend(times.iter().map(|t| num(base / t, 3)));
    table.row(&row);
}
