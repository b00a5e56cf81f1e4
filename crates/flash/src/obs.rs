//! Flash-layer telemetry: event hooks and their snapshot.
//!
//! [`FlashMetrics`] is the collection point for flash events that the
//! pre-existing [`crate::array::FlashArray`] operation counters do not
//! cover: uncorrectable-ECC failures, channel-bus arbitration waits from
//! the timing model, read retries and the recovery pipeline's remaps.
//! Every hook body is compiled out when the `obs` cargo feature is off —
//! the type, its accessors and [`FlashEventCounts`] stay available
//! (reporting zeros) so no API surface changes between configurations.
//!
//! All storage is [`deepstore_obs::Counter`] (single relaxed atomic
//! adds), so counts are deterministic under any host thread
//! interleaving — see `crates/obs` for the argument.

use deepstore_obs::Counter;
use serde::{Deserialize, Serialize};

/// Lock-free event counters for one flash array.
#[derive(Debug, Default)]
pub struct FlashMetrics {
    ecc_failures: Counter,
    bus_wait_ns: Counter,
    bus_transfers: Counter,
    read_retries: Counter,
    read_retry_ns: Counter,
    reads_recovered: Counter,
    remapped_pages: Counter,
    retired_blocks: Counter,
    lost_pages: Counter,
}

impl Clone for FlashMetrics {
    fn clone(&self) -> Self {
        let copy = FlashMetrics::default();
        copy.ecc_failures.add(self.ecc_failures.get());
        copy.bus_wait_ns.add(self.bus_wait_ns.get());
        copy.bus_transfers.add(self.bus_transfers.get());
        copy.read_retries.add(self.read_retries.get());
        copy.read_retry_ns.add(self.read_retry_ns.get());
        copy.reads_recovered.add(self.reads_recovered.get());
        copy.remapped_pages.add(self.remapped_pages.get());
        copy.retired_blocks.add(self.retired_blocks.get());
        copy.lost_pages.add(self.lost_pages.get());
        copy
    }
}

impl FlashMetrics {
    /// Fresh metrics, all zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A page read failed ECC.
    #[inline]
    pub fn on_ecc_failure(&self) {
        #[cfg(feature = "obs")]
        self.ecc_failures.incr();
    }

    /// The timing model charged `wait_ns` of channel-bus arbitration
    /// wait across `transfers` page transfers.
    #[inline]
    pub fn on_bus_wait(&self, wait_ns: u64, transfers: u64) {
        #[cfg(feature = "obs")]
        {
            self.bus_wait_ns.add(wait_ns);
            self.bus_transfers.add(transfers);
        }
        #[cfg(not(feature = "obs"))]
        let _ = (wait_ns, transfers);
    }

    /// A read issued `retries` retry attempts (counting each round,
    /// whether or not it eventually recovered).
    #[inline]
    pub fn on_read_retries(&self, retries: u64) {
        #[cfg(feature = "obs")]
        self.read_retries.add(retries);
        #[cfg(not(feature = "obs"))]
        let _ = retries;
    }

    /// The timing model charged `stall_ns` of simulated read-retry
    /// stall to a scan pass.
    #[inline]
    pub fn on_retry_stall(&self, stall_ns: u64) {
        #[cfg(feature = "obs")]
        self.read_retry_ns.add(stall_ns);
        #[cfg(not(feature = "obs"))]
        let _ = stall_ns;
    }

    /// A read recovered (succeeded after at least one retry).
    #[inline]
    pub fn on_read_recovered(&self) {
        #[cfg(feature = "obs")]
        self.reads_recovered.incr();
    }

    /// The recovery pipeline remapped `pages` pages out of a failing
    /// block and retired the block.
    #[inline]
    pub fn on_remap(&self, pages: u64) {
        #[cfg(feature = "obs")]
        {
            self.remapped_pages.add(pages);
            self.retired_blocks.incr();
        }
        #[cfg(not(feature = "obs"))]
        let _ = pages;
    }

    /// `pages` pages were declared lost (no remap source).
    #[inline]
    pub fn on_lost(&self, pages: u64) {
        #[cfg(feature = "obs")]
        self.lost_pages.add(pages);
        #[cfg(not(feature = "obs"))]
        let _ = pages;
    }

    /// ECC failures observed so far.
    #[must_use]
    pub fn ecc_failures(&self) -> u64 {
        self.ecc_failures.get()
    }

    /// Total simulated bus-arbitration wait (ns) charged so far.
    #[must_use]
    pub fn bus_wait_ns(&self) -> u64 {
        self.bus_wait_ns.get()
    }

    /// Page transfers the bus-wait total covers.
    #[must_use]
    pub fn bus_transfers(&self) -> u64 {
        self.bus_transfers.get()
    }

    /// Read-retry attempts issued so far.
    #[must_use]
    pub fn read_retries(&self) -> u64 {
        self.read_retries.get()
    }

    /// Simulated read-retry stall (ns) charged so far.
    #[must_use]
    pub fn read_retry_ns(&self) -> u64 {
        self.read_retry_ns.get()
    }

    /// Reads that succeeded after at least one retry.
    #[must_use]
    pub fn reads_recovered(&self) -> u64 {
        self.reads_recovered.get()
    }

    /// Pages remapped out of retired blocks so far.
    #[must_use]
    pub fn remapped_pages(&self) -> u64 {
        self.remapped_pages.get()
    }

    /// Blocks retired (taken out of allocation) so far.
    #[must_use]
    pub fn retired_blocks(&self) -> u64 {
        self.retired_blocks.get()
    }

    /// Pages declared lost (no remap source) so far.
    #[must_use]
    pub fn lost_pages(&self) -> u64 {
        self.lost_pages.get()
    }
}

/// A point-in-time copy of every flash event count, combining the
/// array's operation counters with the [`FlashMetrics`] hooks.
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
