//! Figure 11 / Table 4 (energy half): energy efficiency (perf/W) of the
//! three DeepStore levels normalized to the Volta GPU.

use crate::evaluate_app;
use crate::report::{num, Report, Table};
use deepstore_core::config::AcceleratorLevel;
use deepstore_workloads::App;

pub fn run() -> Vec<Report> {
    let mut table = Table::new(&[
        "app",
        "gpu_energy_j",
        "ssd_eff",
        "paper_ssd",
        "channel_eff",
        "paper_channel",
        "chip_eff",
        "paper_chip",
    ]);
    for app in App::all() {
        let e = evaluate_app(&app);
        let (p_ssd, p_ch, p_chip) = app.paper_energy_eff();
        let eff = |level| {
            e.level(level)
                .map(|l: &crate::LevelEvaluation| l.energy_eff)
                .unwrap_or(f64::NAN)
        };
        table.row(&[
            app.name.clone(),
            num(e.gpu_energy_j, 0),
            num(eff(AcceleratorLevel::Ssd), 1),
            num(p_ssd, 1),
            num(eff(AcceleratorLevel::Channel), 1),
            num(p_ch, 1),
            num(eff(AcceleratorLevel::Chip), 1),
            p_chip.map(|v| num(v, 1)).unwrap_or_else(|| "-".into()),
        ]);
    }
    vec![Report {
        name: "fig11".into(),
        title: "Figure 11 / Table 4: energy efficiency normalized to the Volta GPU".into(),
        table,
    }]
}
