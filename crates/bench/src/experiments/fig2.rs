//! Figure 2: GPU+SSD time breakdown per application and batch size.
//!
//! For each application and batch size (two GPU generations), reports the
//! percentage split between SSD read / cudaMemcpy / GPU compute and the
//! pipelined total — reproducing the paper's finding that storage I/O is
//! 56–90% of the execution time and that the Volta GPU's 33%-faster
//! compute leaves the total unchanged.

use crate::report::{num, Report, Table};
use deepstore_baseline::{GpuSpec, GpuSsdSystem};
use deepstore_workloads::App;

pub fn run() -> Vec<Report> {
    let mut table = Table::new(&[
        "app",
        "gpu",
        "batch",
        "ssd_read_s",
        "memcpy_s",
        "compute_s",
        "total_s",
        "io_pct",
        "memcpy_pct",
        "compute_pct",
    ]);
    for app in App::all() {
        let spec = app.scan_spec();
        for (gpu_name, gpu) in [
            ("pascal", GpuSpec::titan_xp()),
            ("volta", GpuSpec::titan_v()),
        ] {
            for &batch in &app.batch_sweep {
                let sys = GpuSsdSystem::paper_default(&app.name).with_gpu(gpu.clone());
                let b = sys.query_batched(&spec, batch);
                let (io, mc, cp) = b.percentages();
                table.row(&[
                    app.name.clone(),
                    gpu_name.to_string(),
                    batch.to_string(),
                    num(b.ssd_read_secs, 3),
                    num(b.memcpy_secs, 3),
                    num(b.compute_secs, 3),
                    num(b.total_secs, 3),
                    num(io, 1),
                    num(mc, 1),
                    num(cp, 1),
                ]);
            }
        }
    }
    vec![Report {
        name: "fig2".into(),
        title: "Figure 2: GPU+SSD breakdown vs batch size (paper band: I/O is 56-90%)".into(),
        table,
    }]
}
