//! Shared evaluation harness for the figure/table regeneration binaries.
//!
//! Every experiment binary (`table1`, `fig2`, ..., `fig14`) builds on the
//! same evaluation core: [`eval`] computes, for one application, the
//! GPU+SSD baseline, the wimpy-core baseline, and the three DeepStore
//! levels — times, speedups, energies and energy breakdowns — exactly as
//! §6 reports them. [`report`] renders aligned text tables and writes CSV
//! rows under `results/`.

pub mod eval;
pub mod qc;
pub mod report;

pub use eval::{evaluate_app, AppEvaluation, LevelEvaluation};
