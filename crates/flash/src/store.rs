//! Pluggable page-payload backends for the functional flash array.
//!
//! [`crate::array::FlashArray`] owns the NAND *semantics* — erase-before-
//! program enforcement, the programmed-page set, per-block erase counts,
//! fault injection and the retry ladder — while the raw page payloads
//! live behind the [`PageStore`] trait. Two backends implement it:
//!
//! * [`HeapStore`] — the original sparse in-memory store (a hash map of
//!   page payloads). Fast, volatile, bounded by RAM.
//! * [`crate::image::MmapStore`] — a single-file mmap-backed image whose
//!   reads borrow straight out of the mapping (zero-copy) and whose
//!   state survives process exit via a crash-safe manifest commit.
//!
//! Both backends must be bit-identical under the array's semantics: a
//! program writes the payload zero-padded to the page size, and reads of
//! a programmed page return exactly those `page_bytes` bytes.

use crate::image::ImageExtent;
use crate::Result;
use std::collections::HashMap;
use std::fmt::Debug;

/// Raw page-payload storage behind [`crate::array::FlashArray`].
///
/// The array guarantees it only calls [`PageStore::page`] for pages it
/// has programmed and not since erased, so implementations may treat a
/// lookup of an unprogrammed page as a logic error.
pub trait PageStore: Send + Sync + Debug {
    /// Borrows the payload of a programmed page (exactly the backing
    /// page size long). Reads take `&self` so concurrent scan shards can
    /// stream different channels of one store simultaneously.
    ///
    /// # Panics
    ///
    /// May panic if the page was never programmed (the array checks its
    /// programmed-page set first).
    fn page(&self, idx: u64) -> &[u8];

    /// Stores a page payload, zero-padded to the page size. The array
    /// has already validated the address and the erase-before-program
    /// rule; `data` never exceeds the page size.
    fn program(&mut self, idx: u64, data: &[u8]);

    /// Erases `count` consecutive pages starting at `first` (one block:
    /// the dense page index is block-contiguous). NAND erase pulls every
    /// cell to the all-ones state, so persistent backends 0xFF-fill the
    /// range; the heap backend simply drops the payloads.
    fn erase(&mut self, first: u64, count: u64);

    /// Forces buffered page payloads to durable storage (msync for the
    /// mmap backend). No-op for volatile backends.
    ///
    /// # Errors
    ///
    /// Returns [`crate::FlashError::Image`] when the backing file cannot
    /// be synced.
    fn flush(&mut self) -> Result<()>;

    /// Commits a device manifest alongside the page payloads: sync the
    /// pages, write the manifest, then publish it with a new header
    /// generation (see [`crate::image`] for the ordering argument).
    /// `clean` records whether the device is being closed cleanly.
    ///
    /// # Errors
    ///
    /// Returns [`crate::FlashError::Image`] if the backend is not
    /// persistent or the commit fails.
    fn commit(&mut self, manifest: &[u8], clean: bool) -> Result<()>;

    /// Writes `bytes` once into a fresh extent of the image, where no
    /// live manifest or extent lies, for the next manifest to reference.
    /// The next [`PageStore::commit`] makes it durable (see
    /// [`crate::image`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::FlashError::Image`] if the backend is not
    /// persistent or the write fails.
    fn write_extent(&mut self, bytes: &[u8]) -> Result<ImageExtent>;

    /// Reads back an extent a manifest references, checking its bounds
    /// and CRC.
    ///
    /// # Errors
    ///
    /// Returns [`crate::FlashError::Image`] if the backend is not
    /// persistent or the extent is out of bounds or corrupt.
    fn read_extent(&self, extent: &ImageExtent) -> Result<Vec<u8>>;

    /// Whether commits survive process exit.
    fn is_persistent(&self) -> bool;

    /// Short backend name for diagnostics ("heap" / "mmap").
    fn backend(&self) -> &'static str;
}

fn no_image(what: &str) -> crate::FlashError {
    crate::FlashError::Image(format!("the in-memory backend cannot {what}"))
}

/// The in-memory backend: sparse page payloads on the heap.
#[derive(Debug, Clone)]
pub struct HeapStore {
    page_bytes: usize,
    data: HashMap<u64, Vec<u8>>,
}

impl HeapStore {
    /// Creates an empty heap store for pages of `page_bytes` bytes.
    pub fn new(page_bytes: usize) -> Self {
        HeapStore {
            page_bytes,
            data: HashMap::new(),
        }
    }
}

impl PageStore for HeapStore {
    fn page(&self, idx: u64) -> &[u8] {
        self.data.get(&idx).expect("programmed page has a payload")
    }

    fn program(&mut self, idx: u64, data: &[u8]) {
        let mut page = data.to_vec();
        page.resize(self.page_bytes, 0);
        self.data.insert(idx, page);
    }

    fn erase(&mut self, first: u64, count: u64) {
        for idx in first..first + count {
            self.data.remove(&idx);
        }
    }

    fn flush(&mut self) -> Result<()> {
        Ok(())
    }

    fn commit(&mut self, _manifest: &[u8], _clean: bool) -> Result<()> {
        Err(no_image("commit an image"))
    }

    fn write_extent(&mut self, _bytes: &[u8]) -> Result<ImageExtent> {
        Err(no_image("write an image extent"))
    }

    fn read_extent(&self, _extent: &ImageExtent) -> Result<Vec<u8>> {
        Err(no_image("read an image extent"))
    }

    fn is_persistent(&self) -> bool {
        false
    }

    fn backend(&self) -> &'static str {
        "heap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_store_pads_and_roundtrips() {
        let mut s = HeapStore::new(8);
        s.program(3, b"abc");
        assert_eq!(s.page(3), b"abc\0\0\0\0\0");
        s.program(4, b"");
        assert_eq!(s.page(4), &[0u8; 8]);
    }

    #[test]
    fn heap_store_erase_drops_range() {
        let mut s = HeapStore::new(4);
        for idx in 0..6 {
            s.program(idx, &[idx as u8]);
        }
        s.erase(1, 3);
        assert_eq!(s.page(0), &[0, 0, 0, 0]);
        assert_eq!(s.page(4), &[4, 0, 0, 0]);
        assert_eq!(s.page(5), &[5, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "programmed page")]
    fn heap_store_panics_on_unprogrammed_lookup() {
        let s = HeapStore::new(4);
        let _ = s.page(0);
    }

    #[test]
    fn heap_store_is_not_persistent() {
        let mut s = HeapStore::new(4);
        assert!(!s.is_persistent());
        assert_eq!(s.backend(), "heap");
        assert!(s.flush().is_ok());
        assert!(s.commit(b"{}", true).is_err());
        assert!(s.write_extent(b"model").is_err());
        let extent = ImageExtent {
            offset: 0,
            len: 0,
            crc: 0,
        };
        assert!(s.read_extent(&extent).is_err());
    }
}
