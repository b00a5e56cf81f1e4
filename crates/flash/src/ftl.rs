//! Block-level flash translation layer.
//!
//! DeepStore "employs a regular block-level FTL, and uses the FTL to get a
//! starting physical address for the database" (§4.4): feature databases
//! are written once, append-only and striped, and then queried many times
//! (§4.7.2). Nothing is ever deleted, so the FTL needs no mapping table
//! and no garbage collector: it is a cursor over one fixed stripe order
//! plus the set of bad blocks taken out of service.

use crate::geometry::{PageAddr, SsdGeometry};
use crate::{FlashError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// A physical block location: (channel, chip, plane, block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PhysicalBlock {
    /// Channel index.
    pub channel: usize,
    /// Chip index within the channel.
    pub chip: usize,
    /// Plane index within the chip.
    pub plane: usize,
    /// Block index within the plane.
    pub block: usize,
}

impl PhysicalBlock {
    /// Address of a page inside this block.
    pub fn page(self, page: usize) -> PageAddr {
        PageAddr {
            channel: self.channel,
            chip: self.chip,
            plane: self.plane,
            block: self.block,
            page,
        }
    }
}

/// Serializable snapshot of an FTL's full state, for the persistent
/// image manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FtlSnapshot {
    /// Stripe position of the next block to hand out.
    pub next: u64,
    /// Retired (out-of-service) blocks, ascending.
    pub retired: Vec<PhysicalBlock>,
}

/// Block-level FTL: a cursor over the stripe order that skips retired
/// blocks.
///
/// The stripe order puts the block index outermost, then plane, then
/// chip, with channel innermost, so consecutive allocations land on
/// consecutive channels, then chips, then planes — the layout §4.4
/// relies on for internal parallelism — and block 0 of every plane comes
/// before block 1 of any plane.
#[derive(Debug)]
pub struct BlockFtl {
    geometry: SsdGeometry,
    /// Stripe position of the next block to hand out.
    next: u64,
    /// Bad blocks taken out of service: never handed out again.
    retired: BTreeSet<PhysicalBlock>,
}

impl BlockFtl {
    /// Creates an FTL managing every block of the geometry.
    pub fn new(geometry: SsdGeometry) -> Self {
        BlockFtl {
            geometry,
            next: 0,
            retired: BTreeSet::new(),
        }
    }

    /// Number of positions in the stripe order: every block of the
    /// geometry (saturating, so a nonsensical geometry cannot overflow).
    pub fn stripe_len(&self) -> u64 {
        let g = &self.geometry;
        [
            g.channels,
            g.chips_per_channel,
            g.planes_per_chip,
            g.blocks_per_plane,
        ]
        .into_iter()
        .fold(1, |n: u64, d| n.saturating_mul(d as u64))
    }

    /// The block at stripe position `pos` (`pos` < [`Self::stripe_len`]).
    fn stripe_block(&self, pos: u64) -> PhysicalBlock {
        let g = &self.geometry;
        let pos = pos as usize;
        let (channel, rest) = (pos % g.channels, pos / g.channels);
        let (chip, rest) = (rest % g.chips_per_channel, rest / g.chips_per_channel);
        PhysicalBlock {
            channel,
            chip,
            plane: rest % g.planes_per_chip,
            block: rest / g.planes_per_chip,
        }
    }

    /// The stripe position of `block`, or `None` if it lies outside the
    /// geometry.
    pub fn stripe_position(&self, block: PhysicalBlock) -> Option<u64> {
        let g = &self.geometry;
        let inside = block.channel < g.channels
            && block.chip < g.chips_per_channel
            && block.plane < g.planes_per_chip
            && block.block < g.blocks_per_plane;
        if !inside {
            return None;
        }
        let nest = |outer: u64, dim: usize, inner: usize| {
            outer.checked_mul(dim as u64)?.checked_add(inner as u64)
        };
        let pos = nest(block.block as u64, g.planes_per_chip, block.plane)?;
        let pos = nest(pos, g.chips_per_channel, block.chip)?;
        nest(pos, g.channels, block.channel)
    }

    /// Allocates the next block in stripe order that is not retired.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::OutOfSpace`] once the stripe order is used
    /// up.
    pub fn allocate(&mut self) -> Result<PhysicalBlock> {
        while self.next < self.stripe_len() {
            let block = self.stripe_block(self.next);
            self.next += 1;
            if !self.retired.contains(&block) {
                return Ok(block);
            }
        }
        Err(FlashError::OutOfSpace)
    }

    /// Retires a bad block: [`BlockFtl::allocate`] never hands it out
    /// again, whether or not it was already allocated.
    pub fn retire(&mut self, block: PhysicalBlock) {
        self.retired.insert(block);
    }

    /// Number of blocks retired so far.
    pub fn retired_blocks(&self) -> usize {
        self.retired.len()
    }

    /// Captures the FTL's full state for an image manifest.
    pub fn snapshot(&self) -> FtlSnapshot {
        FtlSnapshot {
            next: self.next,
            retired: self.retired.iter().copied().collect(),
        }
    }

    /// Rebuilds an FTL from a snapshot (inverse of [`BlockFtl::snapshot`]).
    pub fn from_snapshot(geometry: SsdGeometry, snap: &FtlSnapshot) -> Self {
        BlockFtl {
            geometry,
            next: snap.next,
            retired: snap.retired.iter().copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SsdConfig;

    /// The stripe order, written out as the nested loops it is defined
    /// by: block outermost, channel innermost.
    fn stripe(g: &SsdGeometry) -> Vec<PhysicalBlock> {
        let mut order = Vec::new();
        for block in 0..g.blocks_per_plane {
            for plane in 0..g.planes_per_chip {
                for chip in 0..g.chips_per_channel {
                    for channel in 0..g.channels {
                        order.push(PhysicalBlock {
                            channel,
                            chip,
                            plane,
                            block,
                        });
                    }
                }
            }
        }
        order
    }

    #[test]
    fn allocation_walks_the_stripe_skipping_retired_blocks() {
        let g = SsdConfig::small().geometry;
        let order = stripe(&g);
        let mut ftl = BlockFtl::new(g);
        for (pos, &block) in order.iter().enumerate() {
            assert_eq!(ftl.stripe_position(block), Some(pos as u64));
        }
        let outside = PhysicalBlock {
            block: g.blocks_per_plane,
            ..order[0]
        };
        assert_eq!(ftl.stripe_position(outside), None);

        // Retire one block after it is allocated and one while it is
        // still free; the walk skips only the second.
        let half = order.len() / 2;
        let (allocated, free) = (order[3], order[half + 5]);
        let mut got = Vec::new();
        for _ in 0..half {
            got.push(ftl.allocate().unwrap());
        }
        ftl.retire(allocated);
        ftl.retire(free);
        assert_eq!(ftl.retired_blocks(), 2);

        // Halfway through, a snapshot round trip continues with the
        // same blocks.
        let snap = ftl.snapshot();
        let json = serde_json::to_vec(&snap).unwrap();
        let decoded: FtlSnapshot = serde_json::from_slice(&json).unwrap();
        assert_eq!(decoded, snap);
        let mut restored = BlockFtl::from_snapshot(g, &decoded);
        while let Ok(block) = ftl.allocate() {
            assert_eq!(restored.allocate(), Ok(block));
            got.push(block);
        }
        assert_eq!(restored.allocate(), Err(FlashError::OutOfSpace));
        assert_eq!(ftl.allocate(), Err(FlashError::OutOfSpace));

        let expected: Vec<PhysicalBlock> = order.into_iter().filter(|&b| b != free).collect();
        assert_eq!(got, expected);
    }
}
