//! Ablation: packed vs page-aligned feature placement (§4.4).
//!
//! The paper page-aligns every feature vector for O(1) offset arithmetic;
//! this ablation quantifies what that costs: small features waste flash
//! bandwidth (8x read amplification for TIR's 2 KB features on 16 KB
//! pages), so the flash-bound channel-level scans slow down by exactly
//! the amplification factor, while ReId's 44 KB features barely notice.

use crate::report::{num, Report, Table};
use deepstore_core::accel::channel_level_scan;
use deepstore_core::config::DeepStoreConfig;
use deepstore_flash::layout::Placement;
use deepstore_workloads::App;

pub fn run() -> Vec<Report> {
    let mut table = Table::new(&["app", "read_amp", "packed_s", "aligned_s", "slowdown"]);
    for app in App::all() {
        let mut packed_cfg = DeepStoreConfig::paper_default();
        packed_cfg.placement = Placement::Packed;
        let mut aligned_cfg = DeepStoreConfig::paper_default();
        aligned_cfg.placement = Placement::PageAligned;

        let packed = channel_level_scan(&app.scan_workload(&packed_cfg), &packed_cfg);
        let aligned_w = app.scan_workload(&aligned_cfg);
        let aligned = channel_level_scan(&aligned_w, &aligned_cfg);
        table.row(&[
            app.name.clone(),
            num(aligned_w.layout.read_amplification(), 2),
            num(packed.elapsed.as_secs_f64(), 3),
            num(aligned.elapsed.as_secs_f64(), 3),
            num(
                aligned.elapsed.as_secs_f64() / packed.elapsed.as_secs_f64(),
                2,
            ),
        ]);
    }
    vec![Report {
        name: "ablation_layout".into(),
        title: "Ablation: feature placement (channel-level scan, 25 GiB payload)".into(),
        table,
    }]
}
