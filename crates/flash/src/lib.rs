//! SSD simulator substrate for the DeepStore reproduction.
//!
//! The paper validates DeepStore with a simulator built on SSD-Sim and
//! SCALE-Sim (§5). This crate is the SSD-Sim half, rebuilt from scratch:
//!
//! * [`geometry`] — the flash hierarchy of §2.2 (channels → chips → planes →
//!   blocks → pages) and physical page addressing.
//! * [`timing`] — flash array / channel-bus / PCIe / DRAM timing parameters
//!   (paper defaults: 53 µs array reads, 800 MB/s channel buses, 16 KB
//!   pages, 32 channels × 4 chips × 8 planes, 3.2 GB/s external bandwidth).
//! * [`mod@array`] — a functional flash array that stores real bytes with
//!   erase-before-program semantics.
//! * [`ftl`] — a block-level flash translation layer: a cursor over the
//!   channel stripe plus the set of retired bad blocks (§2.2, §4.4).
//! * [`layout`] — feature-database striping across channels and chips
//!   (§4.4) in either packed or page-aligned-per-feature form.
//! * [`stream`] — an event-driven model of streaming page reads with
//!   channel-bus arbitration and plane-level page buffers; this is what
//!   gives DeepStore its internal-bandwidth advantage (§6.3).
//! * [`host`] — the external (PCIe/NVMe block I/O) read path used by the
//!   GPU+SSD baseline.
//!
//! # Example
//!
//! ```
//! use deepstore_flash::{SsdConfig, stream::ChannelStream};
//!
//! let cfg = SsdConfig::paper_default();
//! // Stream 1000 pages from one channel (round-robin over chips/planes).
//! let t = ChannelStream::new(&cfg).stream_pages(1000);
//! // Steady state is bus-bound: ~20 us per 16 KB page at 800 MB/s.
//! assert!(t.as_nanos() > 1000 * 19_000);
//! ```

pub mod array;
pub mod fault;
pub mod ftl;
pub mod geometry;
pub mod host;
pub mod image;
pub mod layout;
pub mod obs;
pub mod store;
pub mod stream;
pub mod timing;

pub use array::{FlashOpCounts, FlashStateSnapshot};
pub use fault::{FaultOutcome, FaultPlan, OutageSummary};
pub use geometry::{PageAddr, SsdGeometry};
pub use image::{ImageExtent, MmapStore, IMAGE_FORMAT_VERSION};
pub use obs::{FlashEventCounts, FlashMetrics};
pub use store::{HeapStore, PageStore};
pub use timing::{FlashTiming, ReadRetryPolicy, SimDuration};

use serde::{Deserialize, Serialize};
use std::fmt;

/// Full SSD configuration: geometry plus timing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Physical organization of the flash.
    pub geometry: SsdGeometry,
    /// Timing parameters.
    pub timing: FlashTiming,
}

impl SsdConfig {
    /// The paper's evaluated configuration (§6.1): 32 channels, 4 chips per
    /// channel, 8 planes per chip, 512 blocks per plane, 128 pages per
    /// block, 16 KB pages, 53 µs array reads, 800 MB/s channel buses.
    pub fn paper_default() -> Self {
        SsdConfig {
            geometry: SsdGeometry::paper_default(),
            timing: FlashTiming::paper_default(),
        }
    }

    /// A scaled-down configuration for functional tests and examples
    /// (4 channels × 2 chips × 2 planes × 16 blocks × 16 pages of 16 KB
    /// ≈ 32 MB), with paper timing.
    pub fn small() -> Self {
        SsdConfig {
            geometry: SsdGeometry {
                channels: 4,
                chips_per_channel: 2,
                planes_per_chip: 2,
                blocks_per_plane: 16,
                pages_per_block: 16,
                page_bytes: 16 * 1024,
            },
            timing: FlashTiming::paper_default(),
        }
    }
}

impl Default for SsdConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Errors produced by the SSD simulator.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlashError {
    /// A physical address fell outside the configured geometry.
    AddressOutOfRange(String),
    /// A page was programmed without an intervening erase.
    ProgramWithoutErase(PageAddr),
    /// A read hit a page that was never programmed.
    ReadUnwritten(PageAddr),
    /// A read failed ECC correction (injected fault; see
    /// [`fault::FaultPlan`]).
    UncorrectableEcc(PageAddr),
    /// The drive (or a region of it) is out of free blocks.
    OutOfSpace,
    /// A database id was not found in the metadata store.
    UnknownDb(u64),
    /// Data length did not match the expected record size.
    SizeMismatch {
        /// Expected byte count.
        expected: usize,
        /// Provided byte count.
        found: usize,
    },
    /// A persistent image operation failed (I/O error, corrupt image,
    /// or an operation unsupported by the backend).
    Image(String),
    /// A persisted image (or peer) speaks a different format version.
    VersionMismatch {
        /// The version this build understands.
        expected: u32,
        /// The version found on disk (or on the wire).
        found: u32,
    },
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlashError::AddressOutOfRange(s) => write!(f, "address out of range: {s}"),
            FlashError::ProgramWithoutErase(a) => {
                write!(f, "program without erase at {a:?}")
            }
            FlashError::ReadUnwritten(a) => write!(f, "read of unwritten page {a:?}"),
            FlashError::UncorrectableEcc(a) => {
                write!(f, "uncorrectable ECC error reading {a:?}")
            }
            FlashError::OutOfSpace => write!(f, "out of free blocks"),
            FlashError::UnknownDb(id) => write!(f, "unknown database id {id}"),
            FlashError::SizeMismatch { expected, found } => {
                write!(f, "size mismatch: expected {expected} bytes, found {found}")
            }
            FlashError::Image(s) => write!(f, "image error: {s}"),
            FlashError::VersionMismatch { expected, found } => {
                write!(
                    f,
                    "format version mismatch: expected {expected}, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for FlashError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, FlashError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_capacity_is_terabyte_class() {
        let g = SsdConfig::paper_default().geometry;
        let bytes = g.total_bytes();
        // 32 * 4 * 8 * 512 * 128 * 16 KiB = 1 TiB.
        assert_eq!(bytes, 1024u64 * 1024 * 1024 * 1024);
    }

    #[test]
    fn small_config_is_small() {
        let g = SsdConfig::small().geometry;
        assert!(g.total_bytes() <= 64 * 1024 * 1024);
    }

    #[test]
    fn errors_display() {
        assert!(FlashError::OutOfSpace.to_string().contains("free blocks"));
        assert!(FlashError::UnknownDb(3).to_string().contains('3'));
    }
}
