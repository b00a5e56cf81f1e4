//! The paper's evaluation: [`EXPERIMENTS`] lists every experiment
//! (`table1`, `fig2`, ..., `fig14`, ablations, extensions) with the
//! function computing its tables, which the `deepstore-bench` binary
//! writes to `results/` and `tests/experiments_golden.rs` checks against
//! them. [`eval`] computes, for one application, the GPU+SSD baseline, the
//! wimpy-core baseline, and the three DeepStore levels — times, speedups,
//! energies and energy breakdowns — exactly as §6 reports them.

pub mod eval;
pub mod qc;
pub mod report;

mod experiments {
    pub mod ablation_dataflow;
    pub mod ablation_layout;
    pub mod ablation_prefetch;
    pub mod ablation_qc_policy;
    pub mod fig10;
    pub mod fig11;
    pub mod fig12;
    pub mod fig13;
    pub mod fig14;
    pub mod fig2;
    pub mod fig6;
    pub mod fig8;
    pub mod fig9;
    pub mod recall;
    pub mod table1;
    pub mod table3;
    pub mod throughput;
}

pub use eval::{evaluate_app, AppEvaluation, LevelEvaluation};
pub use report::Report;

use experiments::*;

/// Computes one experiment's reports, one per CSV.
pub type Experiment = fn() -> Vec<Report>;

/// Every experiment, in the paper's order, by name (the argument the
/// binary takes).
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("table1", table1::run),
    ("fig2", fig2::run),
    ("fig6", fig6::run),
    ("table3", table3::run),
    ("fig8", fig8::run),
    ("fig9", fig9::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("fig12", fig12::run),
    ("fig13", fig13::run),
    ("fig14", fig14::run),
    ("ablation_layout", ablation_layout::run),
    ("ablation_dataflow", ablation_dataflow::run),
    ("ablation_prefetch", ablation_prefetch::run),
    ("ablation_qc_policy", ablation_qc_policy::run),
    ("throughput", throughput::run),
    ("recall", recall::run),
];
