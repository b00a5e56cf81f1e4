//! Figure 10: internal and external bandwidth scaling (MIR).
//!
//! (a) sweeps the channel count 4–64: the traditional system saturates at
//! its external link beyond 8 channels and the SSD-level accelerator at
//! its compute, while the channel- and chip-level designs scale linearly.
//! (b) sweeps the SSD count 1–8: the traditional system improves
//! sub-linearly (compute constant) while all DeepStore levels scale
//! linearly. All values are normalized to the traditional system with one
//! 32-channel SSD.

use crate::report::{num, Report, Table};
use deepstore_baseline::GpuSsdSystem;
use deepstore_core::accel::scan;
use deepstore_core::config::{AcceleratorLevel, DeepStoreConfig};
use deepstore_workloads::App;

pub fn run() -> Vec<Report> {
    let app = App::new("mir");
    let spec = app.scan_spec();
    let baseline_s = GpuSsdSystem::paper_default(&app.name)
        .query(&spec)
        .total_secs;

    // (a) Channel sweep.
    let mut table_a = Table::new(&["channels", "traditional", "ssd", "channel", "chip"]);
    for channels in [4usize, 8, 16, 32, 64] {
        let mut flash_cfg = deepstore_flash::SsdConfig::paper_default();
        flash_cfg.geometry.channels = channels;
        let trad = GpuSsdSystem::paper_default(&app.name)
            .with_ssd_config(flash_cfg.clone())
            .query(&spec)
            .total_secs;
        let mut ds_cfg = DeepStoreConfig::paper_default();
        ds_cfg.ssd = flash_cfg;
        let workload = app.scan_workload(&ds_cfg);
        let level_speedup = |level| {
            scan(level, &workload, &ds_cfg)
                .map(|t| baseline_s / t.elapsed.as_secs_f64())
                .unwrap_or(f64::NAN)
        };
        table_a.row(&[
            channels.to_string(),
            num(baseline_s / trad, 2),
            num(level_speedup(AcceleratorLevel::Ssd), 2),
            num(level_speedup(AcceleratorLevel::Channel), 2),
            num(level_speedup(AcceleratorLevel::Chip), 2),
        ]);
    }
    let report_a = Report {
        name: "fig10a".into(),
        title: "Figure 10a: speedup vs channel count (MIR, normalized to traditional @ 32ch)"
            .into(),
        table: table_a,
    };

    // (b) SSD sweep: DeepStore scales linearly with drives (each drive
    // scans its shard independently); the traditional system aggregates
    // I/O bandwidth only.
    let cfg = DeepStoreConfig::paper_default();
    let workload = app.scan_workload(&cfg);
    let mut table_b = Table::new(&["ssds", "traditional", "ssd", "channel", "chip"]);
    for ssds in [1usize, 2, 4, 8] {
        let trad = GpuSsdSystem::paper_default(&app.name)
            .with_ssds(ssds)
            .query(&spec)
            .total_secs;
        let level_speedup = |level| {
            scan(level, &workload, &cfg)
                .map(|t| baseline_s / (t.elapsed.as_secs_f64() / ssds as f64))
                .unwrap_or(f64::NAN)
        };
        table_b.row(&[
            ssds.to_string(),
            num(baseline_s / trad, 2),
            num(level_speedup(AcceleratorLevel::Ssd), 2),
            num(level_speedup(AcceleratorLevel::Channel), 2),
            num(level_speedup(AcceleratorLevel::Chip), 2),
        ]);
    }
    let report_b = Report {
        name: "fig10b".into(),
        title: "Figure 10b: speedup vs SSD count (MIR, normalized to traditional @ 1 SSD)".into(),
        table: table_b,
    };
    vec![report_a, report_b]
}
