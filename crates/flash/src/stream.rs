//! Event-driven streaming page reads.
//!
//! The decisive property of in-storage computing is that the *internal*
//! flash bandwidth (channels × 800 MB/s) far exceeds the *external* PCIe
//! bandwidth (§2.2, §6.3). This module models the internal side: a channel
//! streams pages from its chips, with
//!
//! * concurrent array reads across chips **and** planes (each plane has its
//!   own page buffer, §2.2),
//! * serialized transfers over the shared channel bus (flash channel
//!   arbitration),
//! * single-buffered planes: a plane starts its next array read once its
//!   buffer has been drained over the bus.
//!
//! The same machinery produces both the total stream time and per-page
//! completion timestamps (used by the FLASH_DFV prefetch-queue model of
//! §4.4).

use crate::timing::{FlashTiming, SimDuration};
use crate::SsdConfig;

/// Detailed outcome of streaming one shard's pages: the total stream
/// time plus the bus-arbitration wait the event loop observed (the time
/// pages sat in plane buffers with their array read done, waiting for
/// the shared channel bus). Feeds the telemetry layer's per-shard trace
/// spans and bus-wait counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Pages streamed.
    pub pages: u64,
    /// Total stream time.
    pub total: SimDuration,
    /// Summed bus-arbitration wait across all pages.
    pub bus_wait: SimDuration,
}

/// Internal result of the event loop.
struct RunOutcome {
    watched: SimDuration,
    last: SimDuration,
    bus_wait: SimDuration,
}

/// Event-driven model of one channel streaming pages in striped order.
#[derive(Debug, Clone)]
pub struct ChannelStream {
    planes: usize,
    array_read: SimDuration,
    page_transfer: SimDuration,
    /// Maximum outstanding page requests (prefetch window). `usize::MAX`
    /// models a host-side NVMe queue; an in-storage consumer is bounded by
    /// its FLASH_DFV queue capacity (§4.4, Figure 5).
    queue_depth: usize,
}

impl ChannelStream {
    /// Builds a stream model for one channel of `cfg` with an unbounded
    /// prefetch window (host-style deep queues).
    pub fn new(cfg: &SsdConfig) -> Self {
        ChannelStream {
            planes: cfg.geometry.planes_per_channel(),
            array_read: cfg.timing.array_read,
            page_transfer: cfg.timing.page_transfer(cfg.geometry.page_bytes),
            queue_depth: usize::MAX,
        }
    }

    /// Bounds the prefetch window to `depth` outstanding pages — the
    /// FLASH_DFV queue capacity of an in-storage accelerator. Page `i`'s
    /// array read cannot begin until page `i - depth` has been drained.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn with_dfv_queue(mut self, depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        self.queue_depth = depth;
        self
    }

    /// Builds a stream model for a chip-level accelerator that drains its
    /// own chip *directly* (§4.5: chip-level accelerators are interfaced
    /// to the NAND flash chips, so regular page reads bypass the shared
    /// channel bus and flow at the chip-interface rate).
    pub fn for_chip_direct(cfg: &SsdConfig) -> Self {
        ChannelStream {
            planes: cfg.geometry.planes_per_chip,
            array_read: cfg.timing.array_read,
            page_transfer: SimDuration::for_transfer(
                cfg.geometry.page_bytes as u64,
                cfg.timing.chip_interface_bytes_per_sec,
            ) + cfg.timing.bus_command_overhead,
            queue_depth: usize::MAX,
        }
    }

    /// Time for the channel to deliver `pages` pages, streamed round-robin
    /// across the channel's planes.
    pub fn stream_pages(&self, pages: u64) -> SimDuration {
        self.finish_times(pages).1
    }

    /// Like [`ChannelStream::stream_pages`], but also reports the summed
    /// bus-arbitration wait the event loop observed — the telemetry
    /// layer's window into channel-bus contention.
    pub fn stream_pages_detailed(&self, pages: u64) -> StreamStats {
        let sim = self.run(pages, None);
        StreamStats {
            pages,
            total: sim.last,
            bus_wait: sim.bus_wait,
        }
    }

    /// Time for the channel to *program* `pages` pages (the `writeDB`
    /// path): data moves over the bus into plane buffers, then the cell
    /// program (~600 µs) runs per plane, overlapped across the channel's
    /// planes exactly like reads — but with the order of bus and array
    /// phases swapped.
    pub fn program_pages(&self, pages: u64, program: SimDuration) -> SimDuration {
        if pages == 0 {
            return SimDuration::ZERO;
        }
        let mut plane_free = vec![SimDuration::ZERO; self.planes];
        let mut bus_free = SimDuration::ZERO;
        let mut last = SimDuration::ZERO;
        for i in 0..pages {
            let plane = (i % self.planes as u64) as usize;
            // Bus transfer into the plane's page buffer, then cell program.
            let xfer_start = bus_free.max(plane_free[plane]);
            let xfer_done = xfer_start + self.page_transfer;
            bus_free = xfer_done;
            let done = xfer_done + program;
            plane_free[plane] = done;
            last = done;
        }
        last
    }

    /// Time until the `n`-th page (1-based) is delivered, plus the total.
    /// Returns `(time_of_nth, total)`. `n` is clamped to `pages`.
    pub fn nth_and_total(&self, n: u64, pages: u64) -> (SimDuration, SimDuration) {
        let n = n.clamp(1, pages.max(1));
        let sim = self.run(pages, Some(n));
        (sim.watched, self.finish_times(pages).1)
    }

    /// Steady-state per-page service time of this stream (the larger of the
    /// bus transfer time and the per-plane array-read share).
    pub fn steady_state_per_page(&self) -> SimDuration {
        // Each plane cycles through (array read, wait-for-bus, transfer).
        // With P planes the array reads overlap P-wide, so the sustainable
        // rate is one page per max(transfer, (read + transfer)/P).
        let per_plane_cycle = self.array_read + self.page_transfer;
        let array_limited =
            SimDuration::from_nanos(per_plane_cycle.as_nanos() / self.planes.max(1) as u64);
        self.page_transfer.max(array_limited)
    }

    /// Effective sustained bandwidth in bytes/s for a given page size.
    pub fn effective_bandwidth(&self, page_bytes: usize) -> f64 {
        let per_page = self.steady_state_per_page();
        page_bytes as f64 / per_page.as_secs_f64()
    }

    fn finish_times(&self, pages: u64) -> (SimDuration, SimDuration) {
        let sim = self.run(pages, None);
        (sim.watched, sim.last)
    }

    /// Runs the event loop; if `watch` is Some(n), `watched` in the
    /// returned outcome is the delivery time of the n-th page, otherwise
    /// it equals the total. `bus_wait` accumulates, per page, the gap
    /// between its array read completing and the shared bus picking it
    /// up — the channel-bus arbitration cost.
    fn run(&self, pages: u64, watch: Option<u64>) -> RunOutcome {
        if pages == 0 {
            return RunOutcome {
                watched: SimDuration::ZERO,
                last: SimDuration::ZERO,
                bus_wait: SimDuration::ZERO,
            };
        }
        // plane_free[i]: when plane i can *start* its next array read
        // (single page buffer: freed when the bus drains it).
        let mut plane_free = vec![SimDuration::ZERO; self.planes];
        let mut bus_free = SimDuration::ZERO;
        let mut watched = SimDuration::ZERO;
        let mut last = SimDuration::ZERO;
        let mut bus_wait = SimDuration::ZERO;
        // Completion ring for the prefetch-window constraint.
        let window = self.queue_depth.min(pages as usize);
        let mut ring = vec![SimDuration::ZERO; window];
        for i in 0..pages {
            let plane = (i % self.planes as u64) as usize;
            // Page i may not start until page i - queue_depth has drained.
            let window_gate = if self.queue_depth != usize::MAX && i >= self.queue_depth as u64 {
                ring[(i % window as u64) as usize]
            } else {
                SimDuration::ZERO
            };
            let read_start = plane_free[plane].max(window_gate);
            let read_done = read_start + self.array_read;
            let xfer_start = read_done.max(bus_free);
            bus_wait += xfer_start - read_done;
            let done = xfer_start + self.page_transfer;
            bus_free = done;
            plane_free[plane] = done;
            if self.queue_depth != usize::MAX {
                ring[(i % window as u64) as usize] = done;
            }
            last = done;
            if watch == Some(i + 1) {
                watched = done;
            }
        }
        if watch.is_none() {
            watched = last;
        }
        RunOutcome {
            watched,
            last,
            bus_wait,
        }
    }
}

/// Aggregate stream across all channels of the drive: each channel streams
/// its share concurrently; the result is the slowest channel.
///
/// `pages_per_channel` gives each channel's page count (databases are
/// striped, §4.4, so counts differ by at most one page).
pub fn all_channels_stream(cfg: &SsdConfig, pages_per_channel: &[u64]) -> SimDuration {
    let model = ChannelStream::new(cfg);
    pages_per_channel
        .iter()
        .map(|&p| model.stream_pages(p))
        .fold(SimDuration::ZERO, SimDuration::max)
}

/// Simulated stall a scan pass pays for its read retries.
///
/// `retries_by_round[r]` counts reads whose round-`r` attempt (0-based)
/// failed and went another round; retry `r+1` costs
/// [`crate::timing::ReadRetryPolicy::cost_of`]`(r + 1)`. Retries on
/// different planes could in principle overlap, but a retrying read
/// monopolizes its plane's page buffer, so charging the full serial cost
/// models the §2.2 single-buffered-plane constraint conservatively.
pub fn retry_stall(timing: &FlashTiming, retries_by_round: &[u64]) -> SimDuration {
    retries_by_round
        .iter()
        .enumerate()
        .map(|(r, &n)| timing.read_retry.cost_of(r as u32 + 1) * n)
        .sum()
}

/// Splits `total_pages` evenly over `channels` channels (striped layout).
pub fn stripe_pages(total_pages: u64, channels: usize) -> Vec<u64> {
    let base = total_pages / channels as u64;
    let extra = (total_pages % channels as u64) as usize;
    (0..channels).map(|c| base + u64::from(c < extra)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SsdConfig {
        SsdConfig::paper_default()
    }

    #[test]
    fn steady_state_is_bus_bound_at_default_latency() {
        // 32 planes per channel: (53us + ~20.7us)/32 = 2.3us << 20.7us.
        let s = ChannelStream::new(&cfg());
        let per_page = s.steady_state_per_page();
        assert_eq!(per_page, cfg().timing.page_transfer(16 * 1024));
    }

    #[test]
    fn effective_bandwidth_near_channel_bus_rate() {
        let s = ChannelStream::new(&cfg());
        let bw = s.effective_bandwidth(16 * 1024);
        assert!(bw > 750e6 && bw <= 800e6, "bw = {bw}");
    }

    #[test]
    fn event_loop_matches_steady_state_for_long_streams() {
        let s = ChannelStream::new(&cfg());
        let pages = 10_000;
        let total = s.stream_pages(pages);
        let steady = s.steady_state_per_page() * pages;
        // Startup adds one array read; otherwise they agree closely.
        let slack = total.as_nanos() as f64 / steady.as_nanos() as f64;
        assert!((1.0..1.01).contains(&slack), "slack = {slack}");
    }

    #[test]
    fn quadrupled_latency_barely_hurts_throughput() {
        // Figure 9c: channel-level performance drops ~10% at 212us reads.
        let base = ChannelStream::new(&cfg()).stream_pages(10_000);
        let mut slow_cfg = cfg();
        slow_cfg.timing = slow_cfg.timing.with_read_latency_ratio(4, 1);
        let slow = ChannelStream::new(&slow_cfg).stream_pages(10_000);
        let ratio = slow.as_nanos() as f64 / base.as_nanos() as f64;
        assert!(ratio < 1.15, "ratio = {ratio}");
    }

    #[test]
    fn dfv_queue_depth_exposes_latency() {
        // An in-storage consumer with a 10-page FLASH_DFV queue keeps full
        // throughput at the default 53us latency but loses ~10-15% when
        // the latency quadruples (Figure 9c).
        let deep = ChannelStream::new(&cfg()).stream_pages(10_000);
        let queued = ChannelStream::new(&cfg())
            .with_dfv_queue(10)
            .stream_pages(10_000);
        let ratio = queued.as_nanos() as f64 / deep.as_nanos() as f64;
        assert!(ratio < 1.01, "baseline hurt by queue: {ratio}");

        let mut slow_cfg = cfg();
        slow_cfg.timing = slow_cfg.timing.with_read_latency_ratio(4, 1);
        let slow = ChannelStream::new(&slow_cfg)
            .with_dfv_queue(10)
            .stream_pages(10_000);
        let loss = slow.as_nanos() as f64 / queued.as_nanos() as f64;
        assert!((1.05..1.20).contains(&loss), "loss = {loss}");
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn zero_queue_depth_panics() {
        let _ = ChannelStream::new(&cfg()).with_dfv_queue(0);
    }

    #[test]
    fn very_high_latency_becomes_array_bound() {
        let mut slow_cfg = cfg();
        slow_cfg.timing.array_read = SimDuration::from_millis(10);
        let s = ChannelStream::new(&slow_cfg);
        // (10ms + 20.7us) / 32 planes > 20.7us: array-limited now.
        assert!(s.steady_state_per_page() > slow_cfg.timing.page_transfer(16 * 1024));
    }

    #[test]
    fn zero_pages_is_zero_time() {
        assert_eq!(
            ChannelStream::new(&cfg()).stream_pages(0),
            SimDuration::ZERO
        );
    }

    #[test]
    fn nth_page_time_is_monotonic() {
        let s = ChannelStream::new(&cfg());
        let (t1, total) = s.nth_and_total(1, 100);
        let (t50, _) = s.nth_and_total(50, 100);
        let (t100, _) = s.nth_and_total(100, 100);
        assert!(t1 < t50 && t50 < t100);
        assert_eq!(t100, total);
        // First page needs one array read plus one transfer.
        assert!(t1 >= cfg().timing.array_read);
    }

    #[test]
    fn program_throughput_is_plane_overlapped() {
        let c = cfg();
        let s = ChannelStream::new(&c);
        let t = s.program_pages(1000, c.timing.program);
        // With 32 planes, the 600 us program overlaps: the bus transfer
        // (20.7 us/page) dominates in steady state.
        let per_page = t.as_nanos() as f64 / 1000.0;
        assert!(per_page < 45_000.0, "per-page program = {per_page} ns");
        // But a single page pays the full program latency.
        let one = s.program_pages(1, c.timing.program);
        assert!(one >= c.timing.program);
        assert_eq!(s.program_pages(0, c.timing.program), SimDuration::ZERO);
    }

    #[test]
    fn program_is_monotone_in_pages() {
        let c = cfg();
        let s = ChannelStream::new(&c);
        let a = s.program_pages(10, c.timing.program);
        let b = s.program_pages(11, c.timing.program);
        assert!(b >= a);
    }

    #[test]
    fn detailed_stream_matches_plain_and_reports_bus_waits() {
        let s = ChannelStream::new(&cfg());
        for pages in [0, 1, 7, 1000] {
            let d = s.stream_pages_detailed(pages);
            assert_eq!(d.total, s.stream_pages(pages), "pages = {pages}");
            assert_eq!(d.pages, pages);
        }
        // The default config is bus-bound in steady state, so pages pile
        // up behind the shared bus and the wait is substantial.
        let d = s.stream_pages_detailed(1000);
        assert!(d.bus_wait > SimDuration::ZERO, "{d:?}");
        // A single page never waits for the bus.
        assert_eq!(s.stream_pages_detailed(1).bus_wait, SimDuration::ZERO);
    }

    #[test]
    fn retry_stall_charges_the_escalating_ladder() {
        let t = cfg().timing;
        assert_eq!(retry_stall(&t, &[]), SimDuration::ZERO);
        assert_eq!(retry_stall(&t, &[0, 0, 0]), SimDuration::ZERO);
        // 3 first-round retries at 60us + 1 second-round at 80us.
        assert_eq!(
            retry_stall(&t, &[3, 1]),
            SimDuration::from_micros(3 * 60 + 80)
        );
        let mut off = cfg().timing;
        off.read_retry = crate::timing::ReadRetryPolicy::disabled();
        assert_eq!(retry_stall(&off, &[5, 5]), SimDuration::ZERO);
    }

    #[test]
    fn stripe_distributes_remainder() {
        assert_eq!(stripe_pages(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(stripe_pages(8, 4), vec![2, 2, 2, 2]);
        let total: u64 = stripe_pages(1_000_003, 32).iter().sum();
        assert_eq!(total, 1_000_003);
    }

    #[test]
    fn all_channels_is_max_of_channels() {
        let c = cfg();
        let per = stripe_pages(320, c.geometry.channels);
        let t = all_channels_stream(&c, &per);
        let single = ChannelStream::new(&c).stream_pages(10);
        assert_eq!(t, single);
    }
}
