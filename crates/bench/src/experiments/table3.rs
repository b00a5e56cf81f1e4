//! Table 3: DeepStore accelerator configurations, with the constrained
//! design-space exploration verdict at each level (power estimate, area
//! estimate, and the largest PE budget that fits the level's power+area
//! envelope).

use crate::report::{num, Report, Table};
use deepstore_core::config::AcceleratorLevel;
use deepstore_core::dse::{estimate_area_mm2, evaluate};
use deepstore_nn::zoo;
use deepstore_systolic::Dataflow;

pub fn run() -> Vec<Report> {
    let models = zoo::all();
    let mut table = Table::new(&[
        "level",
        "pes",
        "aspect",
        "dataflow",
        "freq_mhz",
        "scratchpad_kb",
        "power_w",
        "budget_w",
        "area_mm2",
        "paper_area",
        "max_feasible_pes",
        "mix_cycles",
    ]);
    for level in AcceleratorLevel::ALL {
        let v = evaluate(level, &models);
        let arr = v.chosen.array;
        let dataflow = match arr.dataflow {
            Dataflow::OutputStationary => "OS",
            Dataflow::WeightStationary => "WS",
        };
        table.row(&[
            level.to_string(),
            arr.pes().to_string(),
            format!("{}x{}", arr.rows, arr.cols),
            dataflow.to_string(),
            num(arr.freq_hz / 1e6, 0),
            (arr.scratchpad_bytes / 1024).to_string(),
            num(v.power_w, 2),
            num(v.chosen.power_budget_w, 2),
            num(estimate_area_mm2(&arr), 2),
            num(v.chosen.area_mm2, 1),
            v.max_feasible_pes.to_string(),
            num(v.mix_cycles, 0),
        ]);
    }
    vec![Report {
        name: "table3".into(),
        title: "Table 3: accelerator configurations and DSE verdicts".into(),
        table,
    }]
}
