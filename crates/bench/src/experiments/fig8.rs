//! Figure 8 / Table 4 (speedup half): performance of wimpy cores and the
//! SSD-, channel- and chip-level DeepStore accelerators, normalized to
//! the GPU+SSD baseline, for all five applications.

use crate::evaluate_app;
use crate::report::{num, Report, Table};
use deepstore_core::config::AcceleratorLevel;
use deepstore_workloads::App;

pub fn run() -> Vec<Report> {
    let mut table = Table::new(&[
        "app",
        "gpu_s",
        "wimpy_x",
        "ssd_x",
        "paper_ssd",
        "channel_x",
        "paper_channel",
        "chip_x",
        "paper_chip",
    ]);
    for app in App::all() {
        let e = evaluate_app(&app);
        let (p_ssd, p_ch, p_chip) = app.paper_speedups();
        let speedup = |level| {
            e.level(level)
                .map(|l: &crate::LevelEvaluation| l.speedup)
                .unwrap_or(f64::NAN)
        };
        table.row(&[
            app.name.clone(),
            num(e.gpu_time_s, 2),
            num(e.wimpy_speedup, 3),
            num(speedup(AcceleratorLevel::Ssd), 2),
            num(p_ssd, 2),
            num(speedup(AcceleratorLevel::Channel), 2),
            num(p_ch, 2),
            num(speedup(AcceleratorLevel::Chip), 2),
            p_chip.map(|v| num(v, 2)).unwrap_or_else(|| "-".into()),
        ]);
    }
    vec![Report {
        name: "fig8".into(),
        title: "Figure 8 / Table 4: speedup over the GPU+SSD baseline".into(),
        table,
    }]
}
