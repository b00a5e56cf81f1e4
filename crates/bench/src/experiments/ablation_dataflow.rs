//! Ablation: dataflow choice per level (§4.5).
//!
//! The paper asserts output-stationary for the SSD- and channel-level
//! accelerators and weight-stationary for the chip level; this ablation
//! swaps each level's dataflow and reports the per-feature SCN cycles,
//! plus the weight traffic the chip level would push over the channel bus
//! under each choice.

use crate::report::{num, Report, Table};
use deepstore_core::config::{AcceleratorConfig, AcceleratorLevel};
use deepstore_nn::zoo;
use deepstore_systolic::cycles::{scn_cycles_per_feature, ws_plan, ws_tile_cycles_per_feature};
use deepstore_systolic::Dataflow;

pub fn run() -> Vec<Report> {
    let mut table = Table::new(&[
        "app",
        "level",
        "os_cycles",
        "ws_cycles",
        "chosen",
        "ws_weight_resident",
    ]);
    for model in zoo::all() {
        let shapes = model.layer_shapes();
        for level in AcceleratorLevel::ALL {
            let chosen = AcceleratorConfig::for_level(level).array;
            let mut os = chosen;
            os.dataflow = Dataflow::OutputStationary;
            let mut ws = chosen;
            ws.dataflow = Dataflow::WeightStationary;
            let os_cycles = scn_cycles_per_feature(&shapes, &os);
            let ws_cycles = ws_tile_cycles_per_feature(&shapes, &ws);
            let plan = ws_plan(model.weight_bytes(), model.feature_bytes() as u64, &ws);
            table.row(&[
                model.name().to_string(),
                level.to_string(),
                os_cycles.to_string(),
                ws_cycles
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "-".into()),
                match chosen.dataflow {
                    Dataflow::OutputStationary => "OS".to_string(),
                    Dataflow::WeightStationary => "WS".to_string(),
                },
                num(if plan.weights_resident { 1.0 } else { 0.0 }, 0),
            ]);
        }
    }
    vec![Report {
        name: "ablation_dataflow".into(),
        title: "Ablation: OS vs WS per level (per-feature SCN cycles)".into(),
        table,
    }]
}
