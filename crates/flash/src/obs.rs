//! Flash-layer telemetry: the flash metric table and its event counts.
//!
//! [`FlashMetrics`] is a [`deepstore_obs::metrics!`] table of the flash
//! events that the [`crate::array::FlashArray`] operation counters do
//! not cover: uncorrectable-ECC failures, channel-bus arbitration waits
//! from the timing model, read retries and the recovery pipeline's
//! remaps; [`FlashEventCounts`] is its plain-data copy.
//!
//! All storage is [`deepstore_obs::Counter`] (single relaxed atomic
//! adds), so counts are deterministic under any host thread
//! interleaving — see `crates/obs` for the argument.

use deepstore_obs::metrics;
use serde::{Deserialize, Serialize};

metrics! {
    /// Lock-free event counters for one flash array. A clone holds the
    /// current counts.
    #[derive(Clone)]
    pub struct FlashMetrics {
        ecc_failures: Counter = "flash.ecc_failures",
        bus_wait_ns: Counter = "flash.bus_wait_ns",
        bus_transfers: Counter = "flash.bus_transfers",
        read_retries: Counter = "flash.read_retries",
        read_retry_ns: Counter = "flash.read_retry_ns",
        reads_recovered: Counter = "flash.reads_recovered",
        remapped_pages: Counter = "flash.remapped_pages",
        retired_blocks: Counter = "flash.retired_blocks",
        lost_pages: Counter = "flash.lost_pages",
    }
}

/// A point-in-time copy of every flash event count, combining the
/// array's operation counters with the [`FlashMetrics`] table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashEventCounts {
    /// Page reads served.
    pub page_reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Reads that failed ECC.
    pub ecc_failures: u64,
    /// Simulated channel-bus arbitration wait, in nanoseconds.
    pub bus_wait_ns: u64,
    /// Page transfers covered by the bus-wait total.
    pub bus_transfers: u64,
    /// Read-retry attempts issued.
    pub read_retries: u64,
    /// Simulated read-retry stall, in nanoseconds.
    pub read_retry_ns: u64,
    /// Reads that succeeded after at least one retry.
    pub reads_recovered: u64,
    /// Pages remapped out of retired blocks.
    pub remapped_pages: u64,
    /// Blocks retired (removed from allocation).
    pub retired_blocks: u64,
    /// Pages declared lost (no remap source).
    pub lost_pages: u64,
}
