//! Feature-database layout: striping across channels and chips.
//!
//! "To exploit the internal parallelisms of SSDs, DeepStore stripes the
//! feature database of each application across channels and chips. Each of
//! the feature vectors is page aligned." (§4.4). DeepStore stores a 32-byte
//! metadata record per database (db_id, starting physical address, feature
//! size, feature count) in a reserved flash block, cached in SSD DRAM.
//!
//! We support two placements:
//!
//! * [`Placement::PageAligned`] — the paper's layout: every feature starts
//!   on a page boundary (a 2 KB feature still occupies a 16 KB page). Fast
//!   offset arithmetic, but small features waste flash bandwidth.
//! * [`Placement::Packed`] — features are packed densely into pages
//!   (features never straddle a page only if they divide the page size).
//!   This is the layout used for the headline experiments so that a
//!   "25 GB feature database" means 25 GB of feature payload; the
//!   `ablation_layout` bench quantifies the difference.

use serde::{Deserialize, Serialize};

/// How feature vectors are packed into flash pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Placement {
    /// Every feature vector starts on a page boundary (§4.4).
    PageAligned,
    /// Features are packed densely; a feature may span page boundaries.
    Packed,
}

/// Layout descriptor for one feature database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DbLayout {
    /// Bytes per feature vector.
    pub feature_bytes: usize,
    /// Number of feature vectors.
    pub num_features: u64,
    /// Page size of the drive.
    pub page_bytes: usize,
    /// Packing policy.
    pub placement: Placement,
}

impl DbLayout {
    /// Creates a layout.
    ///
    /// # Panics
    ///
    /// Panics if `feature_bytes` or `page_bytes` is zero (construction-time
    /// programmer error).
    pub fn new(
        feature_bytes: usize,
        num_features: u64,
        page_bytes: usize,
        placement: Placement,
    ) -> Self {
        assert!(feature_bytes > 0 && page_bytes > 0);
        DbLayout {
            feature_bytes,
            num_features,
            page_bytes,
            placement,
        }
    }

    /// Total flash pages the database occupies.
    pub fn total_pages(&self) -> u64 {
        match self.placement {
            Placement::PageAligned => {
                self.num_features * self.feature_bytes.div_ceil(self.page_bytes) as u64
            }
            Placement::Packed => {
                (self.num_features * self.feature_bytes as u64).div_ceil(self.page_bytes as u64)
            }
        }
    }

    /// Total payload bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.num_features * self.feature_bytes as u64
    }

    /// Flash footprint in bytes (pages × page size).
    pub fn footprint_bytes(&self) -> u64 {
        self.total_pages() * self.page_bytes as u64
    }

    /// Read amplification of the layout: flash bytes read per payload byte.
    pub fn read_amplification(&self) -> f64 {
        if self.payload_bytes() == 0 {
            1.0
        } else {
            self.footprint_bytes() as f64 / self.payload_bytes() as f64
        }
    }

    /// Features whose pages land on a given channel when the database is
    /// striped page-round-robin over `channels` channels.
    pub fn features_on_channel(&self, channel: usize, channels: usize) -> u64 {
        let pages = crate::stream::stripe_pages(self.total_pages(), channels);
        let share = pages[channel.min(channels - 1)] as f64 / self.total_pages().max(1) as f64;
        (self.num_features as f64 * share).round() as u64
    }

    /// Pages per channel under page-round-robin striping.
    pub fn pages_per_channel(&self, channels: usize) -> Vec<u64> {
        crate::stream::stripe_pages(self.total_pages(), channels)
    }

    /// Builds a layout holding `total_bytes` of payload (the paper's
    /// "25 GB of feature vectors" databases).
    pub fn for_payload(
        feature_bytes: usize,
        total_bytes: u64,
        page_bytes: usize,
        placement: Placement,
    ) -> Self {
        let num_features = total_bytes / feature_bytes as u64;
        Self::new(feature_bytes, num_features, page_bytes, placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE: usize = 16 * 1024;

    #[test]
    fn page_aligned_small_features_amplify() {
        // TIR: 2 KB features on 16 KB pages -> 8x read amplification.
        let l = DbLayout::new(2048, 1000, PAGE, Placement::PageAligned);
        assert_eq!(l.total_pages(), 1000);
        assert!((l.read_amplification() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn packed_small_features_do_not_amplify() {
        let l = DbLayout::new(2048, 1000, PAGE, Placement::Packed);
        assert_eq!(l.total_pages(), 125); // 8 features per page
        assert!((l.read_amplification() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multi_page_features() {
        // ReId: 44 KB features -> 3 pages each when aligned.
        let l = DbLayout::new(44 * 1024, 10, PAGE, Placement::PageAligned);
        assert_eq!(l.total_pages(), 30);
        let p = DbLayout::new(44 * 1024, 10, PAGE, Placement::Packed);
        assert_eq!(p.total_pages(), 28); // ceil(440 KB / 16 KB)
    }

    #[test]
    fn for_payload_computes_feature_count() {
        let l = DbLayout::for_payload(2048, 25 * 1024 * 1024 * 1024, PAGE, Placement::Packed);
        assert_eq!(l.num_features, 25 * 1024 * 1024 * 1024 / 2048);
        assert_eq!(l.payload_bytes(), 25 * 1024 * 1024 * 1024);
    }

    #[test]
    fn striping_balances_channels() {
        let l = DbLayout::new(2048, 80_000, PAGE, Placement::Packed);
        let per = l.pages_per_channel(32);
        let max = *per.iter().max().unwrap();
        let min = *per.iter().min().unwrap();
        assert!(max - min <= 1);
        assert_eq!(per.iter().sum::<u64>(), l.total_pages());
    }

    #[test]
    fn features_on_channel_sums_close_to_total() {
        let l = DbLayout::new(2048, 10_000, PAGE, Placement::Packed);
        let sum: u64 = (0..32).map(|c| l.features_on_channel(c, 32)).sum();
        let dev = (sum as i64 - 10_000i64).unsigned_abs();
        assert!(dev <= 32, "sum = {sum}");
    }

    #[test]
    fn zero_features_edge_case() {
        let l = DbLayout::new(2048, 0, PAGE, Placement::Packed);
        assert_eq!(l.total_pages(), 0);
        assert_eq!(l.read_amplification(), 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_feature_bytes_panics() {
        let _ = DbLayout::new(0, 1, PAGE, Placement::Packed);
    }
}
