//! Integration tests pinning the paper's headline claims.
//!
//! Each test cites the claim it reproduces; the quantitative bands are
//! deliberately generous (the substrate is a reimplemented simulator, not
//! the authors' testbed) but the *shape* — who wins, by roughly what
//! factor, where the crossovers fall — must hold.

use deepstore::baseline::{GpuSsdSystem, WimpyCores};
use deepstore::core::accel::scan;
use deepstore::core::AcceleratorLevel;
use deepstore::core::DeepStoreConfig;
use deepstore::nn::zoo;
use deepstore::workloads::{App, APP_NAMES};
use std::collections::BTreeMap;
use std::path::Path;

/// §3 / Figure 2: storage I/O is 56–90% of query execution time.
#[test]
fn claim_storage_io_dominates() {
    for name in APP_NAMES {
        let app = App::new(name);
        let sys = GpuSsdSystem::paper_default(name);
        let b = sys.query_batched(&app.scan_spec(), app.eval_batch);
        let (io, _, _) = b.percentages();
        assert!((56.0..=90.0).contains(&io), "{name}: io = {io:.1}%");
    }
}

/// Abstract: "DeepStore improves the query performance by up to 17.7x".
#[test]
fn claim_peak_speedup_up_to_17x() {
    let mut best = 0.0f64;
    for name in APP_NAMES {
        let app = App::new(name);
        let cfg = DeepStoreConfig::paper_default();
        let gpu = GpuSsdSystem::paper_default(name)
            .query(&app.scan_spec())
            .total_secs;
        let t = scan(AcceleratorLevel::Channel, &app.scan_workload(&cfg), &cfg)
            .unwrap()
            .elapsed
            .as_secs_f64();
        best = best.max(gpu / t);
    }
    assert!(
        (14.0..=22.0).contains(&best),
        "peak channel speedup = {best:.1}"
    );
}

/// §6.2: "channel-level accelerators perform 3.9–17.7x better than the
/// GPU+SSD baseline".
#[test]
fn claim_channel_speedup_band() {
    for name in APP_NAMES {
        let app = App::new(name);
        let cfg = DeepStoreConfig::paper_default();
        let gpu = GpuSsdSystem::paper_default(name)
            .query(&app.scan_spec())
            .total_secs;
        let t = scan(AcceleratorLevel::Channel, &app.scan_workload(&cfg), &cfg)
            .unwrap()
            .elapsed
            .as_secs_f64();
        let speedup = gpu / t;
        assert!(
            (3.0..=22.0).contains(&speedup),
            "{name}: channel speedup = {speedup:.2}"
        );
    }
}

/// §6.2: the wimpy embedded cores are 4.5–22.8x slower than GPU+SSD.
#[test]
fn claim_wimpy_cores_are_slower() {
    for name in APP_NAMES {
        let app = App::new(name);
        let gpu = GpuSsdSystem::paper_default(name)
            .query(&app.scan_spec())
            .total_secs;
        let wimpy = WimpyCores::arm_a57_octa()
            .query_time(&app.scan_spec())
            .as_secs_f64();
        let slowdown = wimpy / gpu;
        assert!((4.0..=110.0).contains(&slowdown), "{name}: {slowdown:.1}");
    }
}

/// §6.2 conclusion: "DeepStore's channel-level accelerator design
/// achieves the best performance" — at every level ordering: channel >
/// chip > ssd, and SSD level is slower than the GPU.
#[test]
fn claim_level_ordering() {
    let cfg = DeepStoreConfig::paper_default();
    for name in APP_NAMES {
        let app = App::new(name);
        let w = app.scan_workload(&cfg);
        let gpu = GpuSsdSystem::paper_default(name)
            .query(&app.scan_spec())
            .total_secs;
        let t = |level| scan(level, &w, &cfg).map(|s| s.elapsed.as_secs_f64());
        let ssd = t(AcceleratorLevel::Ssd).unwrap();
        let ch = t(AcceleratorLevel::Channel).unwrap();
        assert!(ch < ssd, "{name}");
        assert!(ssd > gpu, "{name}: SSD level should lose to the GPU");
        if let Some(chip) = t(AcceleratorLevel::Chip) {
            assert!(ch < chip && chip < ssd, "{name}");
        }
    }
}

/// §6.3 / Figure 9: quadrupling the flash read latency to 212us costs the
/// channel level only ~10% and the chip level ~4%.
#[test]
fn claim_latency_insensitivity() {
    let cfg = DeepStoreConfig::paper_default();
    let mut slow = DeepStoreConfig::paper_default();
    slow.ssd.timing = slow.ssd.timing.with_read_latency_ratio(4, 1);
    for name in APP_NAMES {
        let app = App::new(name);
        for level in [AcceleratorLevel::Channel, AcceleratorLevel::Chip] {
            let (Some(base), Some(degraded)) = (
                scan(level, &app.scan_workload(&cfg), &cfg),
                scan(level, &app.scan_workload(&slow), &slow),
            ) else {
                continue;
            };
            let loss = degraded.elapsed.as_secs_f64() / base.elapsed.as_secs_f64() - 1.0;
            assert!(loss < 0.15, "{name}/{level}: {:.1}% loss", loss * 100.0);
        }
    }
}

/// §6.3 / Figure 10a: channel- and chip-level performance scales linearly
/// with the channel count; the traditional system saturates beyond 8.
#[test]
fn claim_internal_bandwidth_scaling() {
    let app = App::new("mir");
    let time_at = |channels: usize, level: AcceleratorLevel| {
        let mut cfg = DeepStoreConfig::paper_default();
        cfg.ssd.geometry.channels = channels;
        scan(level, &app.scan_workload(&cfg), &cfg)
            .unwrap()
            .elapsed
            .as_secs_f64()
    };
    for level in [AcceleratorLevel::Channel, AcceleratorLevel::Chip] {
        let t8 = time_at(8, level);
        let t64 = time_at(64, level);
        let scaling = t8 / t64;
        assert!((6.0..=9.0).contains(&scaling), "{level}: {scaling:.2}");
    }
    // Traditional saturates.
    let trad_at = |channels: usize| {
        let mut c = deepstore::flash::SsdConfig::paper_default();
        c.geometry.channels = channels;
        GpuSsdSystem::paper_default("mir")
            .with_ssd_config(c)
            .query(&app.scan_spec())
            .total_secs
    };
    assert!((trad_at(8) / trad_at(64) - 1.0).abs() < 0.05);
}

/// §6.2 note 1: ReId cannot run on the chip-level accelerator; everything
/// else can.
#[test]
fn claim_chip_level_reid_gap() {
    let cfg = DeepStoreConfig::paper_default();
    for name in APP_NAMES {
        let app = App::new(name);
        let supported = scan(AcceleratorLevel::Chip, &app.scan_workload(&cfg), &cfg).is_some();
        assert_eq!(supported, name != "reid", "{name}");
    }
}

/// §4.5 / Figure 6: FC layers saturate at 512 PEs, convolutions at 1024.
#[test]
fn claim_figure6_saturation() {
    use deepstore::systolic::dse::{largest_conv, largest_fc, pe_sweep};
    let models = zoo::all();
    let budgets = [128usize, 256, 512, 1024, 2048];
    let fc = pe_sweep(&largest_fc(&models).unwrap(), &budgets, 800e6);
    assert_eq!(fc[2].1, fc[4].1, "FC gains beyond 512 PEs");
    assert!(fc[2].1 > fc[1].1);
    let conv = pe_sweep(&largest_conv(&models).unwrap(), &budgets, 800e6);
    assert_eq!(conv[3].1, conv[4].1, "conv gains beyond 1024 PEs");
    assert!(conv[3].1 > conv[2].1);
}

/// Abstract: energy efficiency improves "by up to 78.6x". Our model lands
/// the peak in the tens, at the channel level, on TextQA.
#[test]
fn claim_peak_energy_efficiency() {
    use deepstore_bench::evaluate_app;
    let mut best = ("", 0.0f64);
    for name in APP_NAMES {
        let e = evaluate_app(&App::new(name));
        if let Some(l) = e.level(AcceleratorLevel::Channel) {
            if l.energy_eff > best.1 {
                best = (name, l.energy_eff);
            }
        }
    }
    assert_eq!(best.0, "textqa");
    assert!((40.0..=150.0).contains(&best.1), "peak eff = {:.1}", best.1);
}

/// A committed `results/<name>.csv` as named numeric columns. The
/// query-cache claims below read these instead of re-running the
/// simulation: `tests/experiments_golden.rs` ties the files to the code.
fn results_csv(name: &str) -> BTreeMap<String, Vec<f64>> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results")
        .join(format!("{name}.csv"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("CSV header").split(',').collect();
    let mut columns: BTreeMap<String, Vec<f64>> =
        header.iter().map(|h| (h.to_string(), Vec::new())).collect();
    for line in lines {
        for (h, cell) in header.iter().zip(line.split(',')) {
            let value = cell
                .parse()
                .unwrap_or_else(|e| panic!("{name}: {cell}: {e}"));
            columns.get_mut(*h).expect("header column").push(value);
        }
    }
    columns
}

fn non_increasing(series: &[f64]) -> bool {
    series.windows(2).all(|w| w[1] <= w[0])
}

/// §6.5 / Figure 13: relaxing the error threshold never raises the miss
/// rate, and Zipf(0.7) queries miss less than uniform ones at every
/// threshold above 0.
#[test]
fn claim_query_cache_threshold_sweep() {
    let uniform = results_csv("fig13_uniform");
    let zipf = results_csv("fig13_zipf07");
    assert_eq!(uniform["threshold_pct"], zipf["threshold_pct"]);
    let (u, z) = (&uniform["miss_rate_pct"], &zipf["miss_rate_pct"]);
    assert!(non_increasing(u), "uniform: {u:?}");
    assert!(non_increasing(z), "zipf07: {z:?}");
    for (i, threshold) in uniform["threshold_pct"].iter().enumerate() {
        if *threshold > 0.0 {
            assert!(
                z[i] < u[i],
                "{threshold}%: zipf {} !< uniform {}",
                z[i],
                u[i]
            );
        }
    }
}

/// §6.5 / Figure 14: a larger cache never misses more, and more skew
/// misses less: Zipf(0.8) <= Zipf(0.7) <= uniform at every capacity.
#[test]
fn claim_query_cache_capacity_sweep() {
    let fig14 = results_csv("fig14");
    let (u, z7, z8) = (
        &fig14["uniform_pct"],
        &fig14["zipf07_pct"],
        &fig14["zipf08_pct"],
    );
    for series in [u, z7, z8] {
        assert!(non_increasing(series), "{series:?}");
    }
    for (i, entries) in fig14["entries"].iter().enumerate() {
        assert!(
            z8[i] <= z7[i] && z7[i] <= u[i],
            "{entries} entries: {} / {} / {}",
            z8[i],
            z7[i],
            u[i]
        );
    }
}

/// §6.5: "DeepStore benefits 10x more because of the significantly lower
/// miss penalty" — at the 20% threshold, DeepStore+QC's speedup is within
/// 0.7-1.5x of ten times Traditional+QC's, under both distributions.
#[test]
fn claim_query_cache_benefits_deepstore_10x_more() {
    for name in ["fig13_uniform", "fig13_zipf07"] {
        let fig13 = results_csv(name);
        let at = fig13["threshold_pct"]
            .iter()
            .position(|&t| t == 20.0)
            .expect("20% row");
        let ratio = fig13["deepstore_qc_x"][at] / fig13["traditional_qc_x"][at];
        assert!((7.0..=15.0).contains(&ratio), "{name}: {ratio:.2}x");
    }
}
