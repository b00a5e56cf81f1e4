//! Power- and bandwidth-constrained design-space exploration (§4.5).
//!
//! The paper sizes each accelerator level by (1) sweeping PE counts and
//! aspect ratios under an infinite-bandwidth assumption (Figure 6 — see
//! `deepstore_systolic::dse`), then (2) re-introducing the memory
//! bandwidth constraints and eliminating every candidate that exceeds the
//! level's power budget. This module implements step (2): a simple power
//! estimator for a candidate array and the budget-constrained search that
//! lands on the Table 3 configurations.

use crate::config::{AcceleratorConfig, AcceleratorLevel};
use deepstore_energy::sram::SramMacro;
use deepstore_energy::{sram_pj_per_byte, SramVariant};
use deepstore_nn::Model;
use deepstore_systolic::cycles::scn_cycles_per_feature;
use deepstore_systolic::ArrayConfig;

/// Estimated sustained power of an accelerator candidate, watts.
///
/// Dynamic power = PEs × frequency × (energy per PE-cycle at a typical
/// ~40% switching utilization) plus scratchpad access power and leakage.
pub fn estimate_power_w(array: &ArrayConfig, sram: SramVariant) -> f64 {
    const PE_PJ_PER_CYCLE: f64 = 1.6; // 4 pJ/MAC x ~0.4 utilization
    let dynamic = array.pes() as f64 * array.freq_hz * PE_PJ_PER_CYCLE * 1e-12;
    // Scratchpad: assume ~8 bytes/cycle of sustained access.
    let sram_access = 8.0 * array.freq_hz * sram_pj_per_byte(array.scratchpad_bytes, sram) * 1e-12;
    // Leakage scales with SRAM capacity (dominant leaker).
    let leakage = SramMacro::with_default_banking(array.scratchpad_bytes, sram).leakage_w();
    dynamic + sram_access + leakage
}

/// Estimated die area of an accelerator candidate at 32 nm, mm².
///
/// Calibrated against the three Table 3 configurations (which it
/// reproduces to within 0.2 mm²): ~5.5e-3 mm² per PE (fp32 MAC + control),
/// ~2.5 mm² per MB of scratchpad, plus a fixed ~0.55 mm² controller.
pub fn estimate_area_mm2(array: &ArrayConfig) -> f64 {
    const MM2_PER_PE: f64 = 5.47e-3;
    const MM2_PER_MB: f64 = 2.49;
    const CONTROLLER_MM2: f64 = 0.55;
    array.pes() as f64 * MM2_PER_PE
        + array.scratchpad_bytes as f64 / (1024.0 * 1024.0) * MM2_PER_MB
        + CONTROLLER_MM2
}

/// The SRAM flavor each level uses (§6.1).
pub fn sram_variant(level: AcceleratorLevel) -> SramVariant {
    match level {
        AcceleratorLevel::Chip => SramVariant::ItrsLow,
        _ => SramVariant::ItrsHp,
    }
}

/// Whether a candidate array fits a level's per-accelerator power *and*
/// area budgets (§4.1: "the SSD controllers have limited power budget,
/// memory capacity, and area sizes"). The Table 3 areas serve as each
/// level's area allowance; area turns out to be the binding constraint at
/// every level.
pub fn fits_budget(level: AcceleratorLevel, array: &ArrayConfig) -> bool {
    let reference = AcceleratorConfig::for_level(level);
    estimate_power_w(array, sram_variant(level)) <= reference.power_budget_w
        && estimate_area_mm2(array) <= reference.area_mm2 * 1.01
}

/// One step of the constrained search: the largest power-of-two PE count
/// (at the level's frequency/scratchpad) that fits the budget.
pub fn max_feasible_pes(level: AcceleratorLevel) -> usize {
    let reference = AcceleratorConfig::for_level(level).array;
    let mut best = 0;
    let mut pes = 32;
    while pes <= 32_768 {
        // Evaluate at the widest aspect (aspect does not change power in
        // this model).
        let candidate = ArrayConfig::new(
            1,
            pes,
            reference.freq_hz,
            reference.dataflow,
            reference.scratchpad_bytes,
        );
        if fits_budget(level, &candidate) {
            best = pes;
        }
        pes *= 2;
    }
    best
}

/// Mean per-feature SCN cycles across a model mix — the metric the search
/// optimizes (lower is better).
pub fn mix_cycles(models: &[Model], array: &ArrayConfig) -> f64 {
    let total: u64 = models
        .iter()
        .map(|m| scn_cycles_per_feature(&m.layer_shapes(), array))
        .sum();
    total as f64 / models.len().max(1) as f64
}

/// Verdict of the constrained DSE for one level.
#[derive(Debug, Clone, PartialEq)]
pub struct DseVerdict {
    /// The Table 3 configuration.
    pub chosen: AcceleratorConfig,
    /// Estimated power of the chosen config, watts.
    pub power_w: f64,
    /// Largest feasible power-of-two PE count under the budget.
    pub max_feasible_pes: usize,
    /// Mean per-feature cycles of the chosen config on the Table 1 mix.
    pub mix_cycles: f64,
}

/// Runs the constrained check for a level against the Table 1 model mix.
pub fn evaluate(level: AcceleratorLevel, models: &[Model]) -> DseVerdict {
    let chosen = AcceleratorConfig::for_level(level);
    DseVerdict {
        power_w: estimate_power_w(&chosen.array, sram_variant(level)),
        max_feasible_pes: max_feasible_pes(level),
        mix_cycles: mix_cycles(models, &chosen.array),
        chosen,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepstore_nn::zoo;
    use deepstore_systolic::Dataflow;

    #[test]
    fn table3_configs_fit_their_budgets() {
        for level in AcceleratorLevel::ALL {
            let cfg = AcceleratorConfig::for_level(level);
            assert!(
                fits_budget(level, &cfg.array),
                "{level}: {} W > {} W",
                estimate_power_w(&cfg.array, sram_variant(level)),
                cfg.power_budget_w
            );
        }
    }

    #[test]
    fn channel_budget_rejects_doubling() {
        // 2048 PEs exceed both the 1.71 W power budget and the 7.4 mm2
        // area allowance of a channel-level accelerator.
        let double = ArrayConfig::new(32, 64, 800e6, Dataflow::OutputStationary, 512 * 1024);
        assert!(!fits_budget(AcceleratorLevel::Channel, &double));
    }

    #[test]
    fn chip_budget_rejects_doubling() {
        let double = ArrayConfig::new(8, 32, 400e6, Dataflow::WeightStationary, 512 * 1024);
        assert!(!fits_budget(AcceleratorLevel::Chip, &double));
    }

    #[test]
    fn area_model_reproduces_table3() {
        for level in AcceleratorLevel::ALL {
            let cfg = AcceleratorConfig::for_level(level);
            let est = estimate_area_mm2(&cfg.array);
            assert!(
                (est - cfg.area_mm2).abs() < 0.3,
                "{level}: {est} vs {}",
                cfg.area_mm2
            );
        }
    }

    #[test]
    fn feasible_pe_ceilings_equal_table3() {
        // Under the combined power+area budgets, the largest feasible
        // power-of-two PE count at each level is exactly the Table 3
        // choice.
        assert_eq!(max_feasible_pes(AcceleratorLevel::Ssd), 2048);
        assert_eq!(max_feasible_pes(AcceleratorLevel::Channel), 1024);
        assert_eq!(max_feasible_pes(AcceleratorLevel::Chip), 128);
    }

    #[test]
    fn verdicts_are_consistent() {
        let models = zoo::all();
        for level in AcceleratorLevel::ALL {
            let v = evaluate(level, &models);
            assert!(v.power_w <= v.chosen.power_budget_w);
            assert!(v.mix_cycles > 0.0);
            assert!(v.max_feasible_pes >= v.chosen.array.pes());
        }
    }

    #[test]
    fn itrs_low_buys_power_headroom() {
        let arr = AcceleratorConfig::chip_level().array;
        let hp = estimate_power_w(&arr, SramVariant::ItrsHp);
        let low = estimate_power_w(&arr, SramVariant::ItrsLow);
        assert!(low < hp);
    }
}
