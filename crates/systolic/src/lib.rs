//! Systolic-array accelerator simulator for the DeepStore reproduction.
//!
//! This is the SCALE-Sim half of the paper's simulation platform (§5),
//! rebuilt from scratch and extended exactly as the paper extends
//! SCALE-Sim: element-wise layers via per-row input injection (§4.3), and a
//! multi-level scratchpad hierarchy (§4.5).
//!
//! * [`ArrayConfig`] — a rectangular PE array with an output-stationary
//!   (OS) or weight-stationary (WS) dataflow, a clock, and a scratchpad.
//! * [`cycles`] — the cycle model: per-feature-vector SCN execution time
//!   for each layer family, including WS weight-tile reloads when a model
//!   does not fit the scratchpad.
//! * [`counts`] — access counting (MACs, SRAM/DRAM/bus traffic) feeding the
//!   energy model.
//! * [`topk`] — the controller's top-K priority queue, implemented as the
//!   paper describes (§4.3): a sorted tag array plus a mapping table,
//!   searched by binary search, with a cycle-cost model.
//! * [`dse`] — the PE-count / aspect-ratio sweep of Figure 6.
//!
//! # Example
//!
//! ```
//! use deepstore_systolic::{ArrayConfig, Dataflow, cycles::scn_cycles_per_feature};
//! use deepstore_nn::zoo;
//!
//! // The paper's channel-level accelerator: 16x64 PEs, OS dataflow.
//! let arr = ArrayConfig::new(16, 64, 800e6, Dataflow::OutputStationary, 512 * 1024);
//! let cycles = scn_cycles_per_feature(&zoo::tir().layer_shapes(), &arr);
//! assert!(cycles > 0);
//! ```

pub mod counts;
pub mod cycles;
pub mod dse;
pub mod schedule;
pub mod topk;

pub use counts::AccessCounts;

use serde::{Deserialize, Serialize};

/// Systolic-array dataflow (§4.5).
///
/// DeepStore uses output-stationary for the SSD- and channel-level
/// accelerators (maximizes partial-sum reuse for FC layers) and
/// weight-stationary for the chip-level accelerators (maximizes weight
/// reuse, minimizing traffic over the shared channel bus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// Each PE accumulates one output element; weights and inputs stream.
    OutputStationary,
    /// Each PE holds one weight; inputs stream, partial sums move.
    WeightStationary,
}

/// A rectangular systolic array with its scratchpad.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArrayConfig {
    /// PE rows.
    pub rows: usize,
    /// PE columns.
    pub cols: usize,
    /// Clock frequency in Hz.
    pub freq_hz: f64,
    /// Dataflow.
    pub dataflow: Dataflow,
    /// Local scratchpad capacity in bytes.
    pub scratchpad_bytes: usize,
}

impl ArrayConfig {
    /// Creates an array configuration.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or the frequency is zero.
    pub fn new(
        rows: usize,
        cols: usize,
        freq_hz: f64,
        dataflow: Dataflow,
        scratchpad_bytes: usize,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "array must be non-empty");
        assert!(freq_hz > 0.0, "frequency must be positive");
        ArrayConfig {
            rows,
            cols,
            freq_hz,
            dataflow,
            scratchpad_bytes,
        }
    }

    /// Total PE count.
    pub fn pes(&self) -> usize {
        self.rows * self.cols
    }

    /// Pipeline fill cycles of the array (data ripples across rows+cols).
    pub fn fill_cycles(&self) -> u64 {
        (self.rows + self.cols - 2) as u64
    }

    /// Converts a cycle count to seconds at this array's clock.
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pes_and_fill() {
        let a = ArrayConfig::new(16, 64, 800e6, Dataflow::OutputStationary, 1 << 19);
        assert_eq!(a.pes(), 1024);
        assert_eq!(a.fill_cycles(), 78);
        assert!((a.cycles_to_secs(800_000_000) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_rows_panics() {
        let _ = ArrayConfig::new(0, 64, 800e6, Dataflow::OutputStationary, 1);
    }

    #[test]
    #[should_panic(expected = "frequency")]
    fn zero_freq_panics() {
        let _ = ArrayConfig::new(1, 1, 0.0, Dataflow::WeightStationary, 1);
    }
}
