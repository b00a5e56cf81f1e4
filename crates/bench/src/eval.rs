//! Per-application evaluation: baselines vs. the three DeepStore levels.
//!
//! Reproduces the §6.2/§6.4 methodology: the GPU+SSD baseline's query
//! time and board energy, the wimpy-core time, and — for each accelerator
//! level — the scan time from the timing model plus the linear energy
//! model over the counted events, with per-instance static power and the
//! controller power charged for the scan duration.

use deepstore_baseline::{GpuSsdSystem, ScanSpec, WimpyCores};
use deepstore_core::accel::{scan, ScanTiming};
use deepstore_core::config::{AcceleratorConfig, AcceleratorLevel, DeepStoreConfig};
use deepstore_core::dse::sram_variant;
use deepstore_energy::{EnergyBreakdown, EnergyModel};
use deepstore_workloads::App;

/// Evaluation of one accelerator level on one application.
#[derive(Debug, Clone)]
pub struct LevelEvaluation {
    /// The level.
    pub level: AcceleratorLevel,
    /// End-to-end scan time, seconds.
    pub time_s: f64,
    /// Speedup over the GPU+SSD baseline (>1 = DeepStore faster).
    pub speedup: f64,
    /// Dynamic energy breakdown (compute / memory / flash).
    pub breakdown: EnergyBreakdown,
    /// Total energy including static + controller power, joules.
    pub energy_j: f64,
    /// Energy-efficiency improvement over the GPU (perf/W ratio).
    pub energy_eff: f64,
    /// Raw timing detail.
    pub timing: ScanTiming,
}

/// Evaluation of one application across all systems.
#[derive(Debug, Clone)]
pub struct AppEvaluation {
    /// Application name.
    pub app: String,
    /// GPU+SSD query time, seconds.
    pub gpu_time_s: f64,
    /// GPU board energy, joules.
    pub gpu_energy_j: f64,
    /// Wimpy-core query time, seconds.
    pub wimpy_time_s: f64,
    /// Wimpy speedup over the GPU baseline (< 1).
    pub wimpy_speedup: f64,
    /// Per-level evaluations; `None` where the level cannot run the model
    /// (chip level vs ReId).
    pub levels: Vec<Option<LevelEvaluation>>,
}

impl AppEvaluation {
    /// The evaluation for a given level, if supported.
    pub fn level(&self, level: AcceleratorLevel) -> Option<&LevelEvaluation> {
        self.levels.iter().flatten().find(|l| l.level == level)
    }
}

/// Total energy of a DeepStore scan: dynamic events plus static and
/// controller power over the scan duration.
pub fn deepstore_energy_j(
    level: AcceleratorLevel,
    timing: &ScanTiming,
    cfg: &DeepStoreConfig,
) -> (EnergyBreakdown, f64) {
    let acc = AcceleratorConfig::for_level(level);
    let model = EnergyModel::for_scratchpad(acc.array.scratchpad_bytes, sram_variant(level));
    let dynamic = model.energy(&timing.counts);
    let secs = timing.elapsed.as_secs_f64();
    let static_j = acc.static_power_w * timing.accelerators as f64 * secs;
    let controller_j = cfg.controller_power_w * secs;
    (dynamic, dynamic.total_j() + static_j + controller_j)
}

/// Runs the full §6.2/§6.4 evaluation for one application.
pub fn evaluate_app(app: &App) -> AppEvaluation {
    let cfg = DeepStoreConfig::paper_default();
    let spec: ScanSpec = app.scan_spec();
    let workload = app.scan_workload(&cfg);

    let gpu = GpuSsdSystem::paper_default(&app.name);
    let gpu_time_s = gpu.query(&spec).total_secs;
    let gpu_energy_j = gpu.query_energy_j(&spec);

    let wimpy_time_s = WimpyCores::arm_a57_octa().query_time(&spec).as_secs_f64();

    let levels = AcceleratorLevel::ALL
        .iter()
        .map(|&level| {
            scan(level, &workload, &cfg).map(|timing| {
                let time_s = timing.elapsed.as_secs_f64();
                let (breakdown, energy_j) = deepstore_energy_j(level, &timing, &cfg);
                LevelEvaluation {
                    level,
                    time_s,
                    speedup: gpu_time_s / time_s,
                    breakdown,
                    energy_j,
                    energy_eff: gpu_energy_j / energy_j,
                    timing,
                }
            })
        })
        .collect();

    AppEvaluation {
        app: app.name.clone(),
        gpu_time_s,
        gpu_energy_j,
        wimpy_time_s,
        wimpy_speedup: gpu_time_s / wimpy_time_s,
        levels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(name: &str) -> AppEvaluation {
        evaluate_app(&App::new(name))
    }

    #[test]
    fn channel_level_beats_gpu_for_every_app() {
        for name in deepstore_workloads::APP_NAMES {
            let e = eval(name);
            let ch = e.level(AcceleratorLevel::Channel).unwrap();
            assert!(ch.speedup > 1.0, "{name}: {}", ch.speedup);
            assert!(ch.energy_eff > 1.0, "{name}: {}", ch.energy_eff);
        }
    }

    #[test]
    fn ssd_level_is_slower_than_gpu() {
        for name in deepstore_workloads::APP_NAMES {
            let e = eval(name);
            let ssd = e.level(AcceleratorLevel::Ssd).unwrap();
            assert!(ssd.speedup < 1.0, "{name}: {}", ssd.speedup);
        }
    }

    #[test]
    fn level_ordering_matches_paper() {
        // Channel > chip > SSD in speedup wherever chip runs.
        for name in deepstore_workloads::APP_NAMES {
            let e = eval(name);
            let ch = e.level(AcceleratorLevel::Channel).unwrap().speedup;
            let ssd = e.level(AcceleratorLevel::Ssd).unwrap().speedup;
            assert!(ch > ssd, "{name}");
            if let Some(chip) = e.level(AcceleratorLevel::Chip) {
                assert!(ch > chip.speedup && chip.speedup > ssd, "{name}");
            }
        }
    }

    #[test]
    fn chip_unsupported_only_for_reid() {
        for name in deepstore_workloads::APP_NAMES {
            let e = eval(name);
            assert_eq!(
                e.level(AcceleratorLevel::Chip).is_none(),
                name == "reid",
                "{name}"
            );
        }
    }

    #[test]
    fn wimpy_cores_are_much_slower() {
        for name in deepstore_workloads::APP_NAMES {
            let e = eval(name);
            assert!(e.wimpy_speedup < 0.25, "{name}: {}", e.wimpy_speedup);
        }
    }

    #[test]
    fn channel_speedups_land_near_paper() {
        // Table 4 channel-level speedups, with a 2x tolerance band (the
        // band EXPERIMENTS.md reports precisely).
        for name in deepstore_workloads::APP_NAMES {
            let app = App::new(name);
            let (_, paper, _) = app.paper_speedups();
            let got = eval(name).level(AcceleratorLevel::Channel).unwrap().speedup;
            assert!(
                got > paper / 2.0 && got < paper * 2.0,
                "{name}: got {got:.2}, paper {paper}"
            );
        }
    }

    #[test]
    fn textqa_has_best_channel_speedup_reid_worst() {
        let speedup = |n: &str| eval(n).level(AcceleratorLevel::Channel).unwrap().speedup;
        let all: Vec<f64> = deepstore_workloads::APP_NAMES
            .iter()
            .map(|n| speedup(n))
            .collect();
        let textqa = speedup("textqa");
        let reid = speedup("reid");
        assert!(all.iter().all(|&s| s <= textqa + 1e-9));
        assert!(all.iter().all(|&s| s >= reid - 1e-9));
    }

    #[test]
    fn energy_total_exceeds_dynamic() {
        let e = eval("mir");
        let ch = e.level(AcceleratorLevel::Channel).unwrap();
        assert!(ch.energy_j > ch.breakdown.total_j());
    }
}
