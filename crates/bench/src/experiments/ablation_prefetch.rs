//! Ablation: FLASH_DFV prefetch-queue depth (§4.4, Figure 5).
//!
//! The queue isolates flash reads from SCN compute; its depth bounds how
//! far reads run ahead. This ablation sweeps the depth at the default and
//! quadrupled flash latencies, showing where the channel stream becomes
//! latency-bound (the Figure 9 sensitivity knob).

use crate::report::{num, Report, Table};
use deepstore_flash::stream::ChannelStream;
use deepstore_flash::SsdConfig;

pub fn run() -> Vec<Report> {
    let pages = 50_000; // one channel's share of a 25 GiB scan
    let mut table = Table::new(&["queue_depth", "t_53us_s", "t_212us_s", "loss_at_4x"]);
    for depth in [1usize, 2, 4, 8, 10, 16, 32, 64] {
        let base_cfg = SsdConfig::paper_default();
        let mut slow_cfg = SsdConfig::paper_default();
        slow_cfg.timing = slow_cfg.timing.with_read_latency_ratio(4, 1);
        let base = ChannelStream::new(&base_cfg)
            .with_dfv_queue(depth)
            .stream_pages(pages)
            .as_secs_f64();
        let slow = ChannelStream::new(&slow_cfg)
            .with_dfv_queue(depth)
            .stream_pages(pages)
            .as_secs_f64();
        table.row(&[
            depth.to_string(),
            num(base, 3),
            num(slow, 3),
            num(slow / base - 1.0, 3),
        ]);
    }
    vec![Report {
        name: "ablation_prefetch".into(),
        title: "Ablation: FLASH_DFV queue depth vs flash-latency sensitivity (50K pages/channel)"
            .into(),
        table,
    }]
}
