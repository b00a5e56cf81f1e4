//! Figure 6: systolic-array performance vs PE count.
//!
//! Sweeps the PE budget from 128 to 32768, taking the best aspect ratio
//! at each point, for the largest fully-connected and convolutional
//! layers of the studied applications. Reproduces the saturation points
//! of §4.5: FC gains nothing beyond 512 PEs, convolution nothing beyond
//! 1024.

use crate::report::{num, Report, Table};
use deepstore_nn::zoo;
use deepstore_systolic::dse::{largest_conv, largest_fc, pe_sweep};

const BUDGETS: [usize; 9] = [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

pub fn run() -> Vec<Report> {
    let models = zoo::all();
    let fc = largest_fc(&models).expect("zoo has FC layers");
    let conv = largest_conv(&models).expect("zoo has conv layers");

    let mut table = Table::new(&[
        "pes",
        "fc_speedup",
        "fc_best_aspect",
        "conv_speedup",
        "conv_best_aspect",
    ]);
    let fc_sweep = pe_sweep(&fc, &BUDGETS, 800e6);
    let conv_sweep = pe_sweep(&conv, &BUDGETS, 800e6);
    for ((fp, fs), (cp, cs)) in fc_sweep.iter().zip(conv_sweep.iter()) {
        table.row(&[
            fp.pes.to_string(),
            num(*fs, 2),
            format!("{}x{}", fp.best_aspect.0, fp.best_aspect.1),
            num(*cs, 2),
            format!("{}x{}", cp.best_aspect.0, cp.best_aspect.1),
        ]);
    }
    vec![Report {
        name: "fig6".into(),
        title:
            "Figure 6: speedup vs PE count (best aspect ratio; FC saturates at 512, conv at 1024)"
                .into(),
        table,
    }]
}
