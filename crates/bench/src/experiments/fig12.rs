//! Figure 12: power-consumption breakdown of DeepStore (compute / memory
//! / flash) for the SSD-level (S), channel-level (C) and chip-level (CP)
//! accelerators on each application.

use crate::evaluate_app;
use crate::report::{num, Report, Table};
use deepstore_core::config::AcceleratorLevel;
use deepstore_workloads::App;

pub fn run() -> Vec<Report> {
    let mut table = Table::new(&[
        "app",
        "level",
        "compute_pct",
        "memory_pct",
        "flash_pct",
        "total_j",
    ]);
    for app in App::all() {
        let e = evaluate_app(&app);
        for level in AcceleratorLevel::ALL {
            let Some(l) = e.level(level) else {
                table.row(&[
                    app.name.clone(),
                    level.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]);
                continue;
            };
            let (c, m, f) = l.breakdown.percentages();
            table.row(&[
                app.name.clone(),
                level.to_string(),
                num(c, 1),
                num(m, 1),
                num(f, 1),
                num(l.breakdown.total_j(), 1),
            ]);
        }
    }
    vec![Report {
        name: "fig12".into(),
        title: "Figure 12: dynamic energy breakdown by category (S / C / CP)".into(),
        table,
    }]
}
