//! Timing parameters and simulated-time types.
//!
//! Defaults follow the paper's experimental setup (§6.1): 53 µs flash array
//! access latency (swept 7–212 µs in Figure 9), 800 MB/s per-channel bus
//! bandwidth, 3.2 GB/s measured external SSD bandwidth, and 20 GB/s SSD
//! controller DRAM bandwidth (§4.5).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A duration in simulated time, stored as integer nanoseconds.
///
/// A dedicated newtype (C-NEWTYPE) keeps simulated time from mixing with
/// wall-clock `std::time::Duration` and gives the simulators saturating
/// arithmetic.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Constructs from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Constructs from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Constructs from (possibly fractional) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Time to move `bytes` bytes at `bytes_per_sec`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn for_transfer(bytes: u64, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "zero bandwidth");
        Self::from_secs_f64(bytes as f64 / bytes_per_sec)
    }

    /// Nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as f64.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// The larger of two durations.
    pub fn max(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.max(rhs.0))
    }

    /// The smaller of two durations.
    pub fn min(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.min(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// The read-retry ladder: how many attempts a page read gets and what
/// each retry costs in simulated time.
///
/// NAND read-retry re-senses the page at shifted reference voltages;
/// each successive retry tries a more aggressive (and slower) recovery
/// mode, so the ladder's cost escalates linearly: retry `k` (1-based)
/// costs `first_retry + step × (k − 1)` on top of the normal page read.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadRetryPolicy {
    /// Total attempts a read gets (1 = no retries).
    pub max_attempts: u32,
    /// Simulated cost of the first retry.
    pub first_retry: SimDuration,
    /// Additional cost of each subsequent retry.
    pub step: SimDuration,
}

impl ReadRetryPolicy {
    /// Default ladder: 4 attempts, 60 µs for the first retry, 20 µs
    /// steeper per round (roughly an extra array read plus transfer at
    /// each shifted-voltage re-sense).
    pub fn paper_default() -> Self {
        ReadRetryPolicy {
            max_attempts: 4,
            first_retry: SimDuration::from_micros(60),
            step: SimDuration::from_micros(20),
        }
    }

    /// A policy with retries disabled (single attempt).
    pub fn disabled() -> Self {
        ReadRetryPolicy {
            max_attempts: 1,
            first_retry: SimDuration::ZERO,
            step: SimDuration::ZERO,
        }
    }

    /// Simulated cost of retry `k` (1-based). `k = 0` costs nothing
    /// (the initial attempt is part of the normal read).
    pub fn cost_of(&self, k: u32) -> SimDuration {
        if k == 0 {
            return SimDuration::ZERO;
        }
        self.first_retry + self.step * u64::from(k - 1)
    }
}

impl Default for ReadRetryPolicy {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Flash and interconnect timing parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashTiming {
    /// Flash array read latency (cell array → plane page buffer).
    pub array_read: SimDuration,
    /// Flash page program latency.
    pub program: SimDuration,
    /// Block erase latency.
    pub erase: SimDuration,
    /// Per-channel bus bandwidth in bytes/s (ONFI-class, 800 MB/s).
    pub channel_bus_bytes_per_sec: f64,
    /// Per-chip interface bandwidth in bytes/s (ONFI 4.x NV-DDR3,
    /// 1.2 GB/s [§4.4]): the rate at which a chip-level accelerator can
    /// drain its own chip's page buffers without touching the channel bus.
    pub chip_interface_bytes_per_sec: f64,
    /// External (PCIe/NVMe) bandwidth in bytes/s (measured 3.2 GB/s on the
    /// baseline Intel DC P4500).
    pub external_bytes_per_sec: f64,
    /// SSD controller DRAM bandwidth in bytes/s (§4.5: 15–26 GB/s; we use
    /// the paper's 20 GB/s budget figure).
    pub dram_bytes_per_sec: f64,
    /// Fixed per-command overhead on the channel bus (command/address
    /// cycles), applied once per page transfer.
    pub bus_command_overhead: SimDuration,
    /// The read-retry ladder for ECC failures.
    pub read_retry: ReadRetryPolicy,
}

impl FlashTiming {
    /// Paper defaults (§6.1, §4.5).
    pub fn paper_default() -> Self {
        FlashTiming {
            array_read: SimDuration::from_micros(53),
            program: SimDuration::from_micros(600),
            erase: SimDuration::from_millis(3),
            channel_bus_bytes_per_sec: 800e6,
            chip_interface_bytes_per_sec: 1.2e9,
            external_bytes_per_sec: 3.2e9,
            dram_bytes_per_sec: 20e9,
            bus_command_overhead: SimDuration::from_nanos(200),
            read_retry: ReadRetryPolicy::paper_default(),
        }
    }

    /// Returns a copy with the array read latency scaled by `num/den`
    /// (Figure 9 sweeps ratios 1:8 through 4:1 of the 53 µs default).
    pub fn with_read_latency_ratio(&self, num: u64, den: u64) -> Self {
        let mut t = self.clone();
        t.array_read = SimDuration::from_nanos(self.array_read.as_nanos() * num / den);
        t
    }

    /// Time to move one page of `page_bytes` over the channel bus.
    pub fn page_transfer(&self, page_bytes: usize) -> SimDuration {
        SimDuration::for_transfer(page_bytes as u64, self.channel_bus_bytes_per_sec)
            + self.bus_command_overhead
    }
}

impl Default for FlashTiming {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_nanos(100);
        let b = SimDuration::from_nanos(40);
        assert_eq!((a + b).as_nanos(), 140);
        assert_eq!((a - b).as_nanos(), 60);
        assert_eq!((b - a).as_nanos(), 0); // saturating
        assert_eq!((a * 3).as_nanos(), 300);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let total: SimDuration = [a, b].into_iter().sum();
        assert_eq!(total.as_nanos(), 140);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        // 16 KB at 800 MB/s = 20.48 us.
        let t = SimDuration::for_transfer(16 * 1024, 800e6);
        assert!((t.as_secs_f64() - 20.48e-6).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "zero bandwidth")]
    fn transfer_rejects_zero_bandwidth() {
        let _ = SimDuration::for_transfer(1, 0.0);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_nanos(5).to_string(), "5ns");
        assert!(SimDuration::from_micros(5).to_string().ends_with("us"));
        assert!(SimDuration::from_millis(5).to_string().ends_with("ms"));
        assert!(SimDuration::from_secs_f64(5.0).to_string().ends_with('s'));
    }

    #[test]
    fn latency_ratio_scales() {
        let t = FlashTiming::paper_default();
        assert_eq!(
            t.with_read_latency_ratio(4, 1).array_read,
            SimDuration::from_micros(212)
        );
        assert_eq!(
            t.with_read_latency_ratio(1, 8).array_read,
            SimDuration::from_nanos(53_000 / 8)
        );
    }

    #[test]
    fn retry_ladder_escalates() {
        let p = ReadRetryPolicy::paper_default();
        assert_eq!(p.cost_of(0), SimDuration::ZERO);
        assert_eq!(p.cost_of(1), SimDuration::from_micros(60));
        assert_eq!(p.cost_of(2), SimDuration::from_micros(80));
        assert_eq!(p.cost_of(3), SimDuration::from_micros(100));
        let off = ReadRetryPolicy::disabled();
        assert_eq!(off.max_attempts, 1);
        assert_eq!(off.cost_of(1), SimDuration::ZERO);
    }

    #[test]
    fn page_transfer_includes_command_overhead() {
        let t = FlashTiming::paper_default();
        let xfer = t.page_transfer(16 * 1024);
        assert!(xfer > SimDuration::from_micros(20));
        assert!(xfer < SimDuration::from_micros(22));
    }
}
