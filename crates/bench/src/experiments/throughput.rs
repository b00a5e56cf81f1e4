//! Extension experiment: sustained query throughput and tail latency.
//!
//! The paper evaluates single-query latency; a deployed drive serves
//! query *streams*. This experiment is an analytic M/D/1 queueing model
//! over the per-query service times at paper scale (25 GiB TIR database):
//! it reports the maximum throughput and the mean and p99 latency at 50%
//! and 90% utilization per accelerator level, with and without the query
//! cache. It runs no scheduler; `deepstore-cli replay` drives the serve
//! engine on a simulated clock.

use crate::report::{num, Report, Table};
use deepstore_core::accel::scan;
use deepstore_core::config::{AcceleratorLevel, DeepStoreConfig};
use deepstore_core::qcache::lookup_time_for;
use deepstore_nn::zoo;
use deepstore_workloads::App;

/// M/D/1 queueing summary at a given utilization.
fn queueing_latency(service_s: f64, utilization: f64) -> (f64, f64) {
    // Mean wait for M/D/1: rho * s / (2 (1 - rho)); p99 approximated via
    // the exponential tail of the waiting distribution.
    let wait = utilization * service_s / (2.0 * (1.0 - utilization));
    let p99 = wait * 4.6 / 1.0_f64.max(1e-9) + service_s; // -ln(0.01) ~ 4.6
    (wait + service_s, p99)
}

pub fn run() -> Vec<Report> {
    let app = App::new("tir");
    let cfg = DeepStoreConfig::paper_default();
    let workload = app.scan_workload(&cfg);
    let qc_lookup = lookup_time_for(
        1000,
        &zoo::tir().layer_shapes(),
        cfg.ssd.geometry.channels,
        cfg.controller_overhead_cycles,
    );

    let mut table = Table::new(&[
        "level",
        "qc",
        "service_s",
        "max_qps",
        "lat_at_50pct_s",
        "p99_at_50pct_s",
        "lat_at_90pct_s",
    ]);
    for level in AcceleratorLevel::ALL {
        let Some(t) = scan(level, &workload, &cfg) else {
            continue;
        };
        for (qc, miss_rate) in [("off", 1.0f64), ("on(0.80 miss)", 0.80)] {
            let service = if qc == "off" {
                t.elapsed.as_secs_f64()
            } else {
                qc_lookup.as_secs_f64() + miss_rate * t.elapsed.as_secs_f64()
            };
            let max_qps = 1.0 / service;
            let (l50, p99_50) = queueing_latency(service, 0.5);
            let (l90, _) = queueing_latency(service, 0.9);
            table.row(&[
                level.to_string(),
                qc.to_string(),
                num(service, 3),
                num(max_qps, 3),
                num(l50, 3),
                num(p99_50, 3),
                num(l90, 3),
            ]);
        }
    }
    vec![Report {
        name: "throughput".into(),
        title: "Extension: sustained TIR query throughput & latency (25 GiB DB, M/D/1)".into(),
        table,
    }]
}
