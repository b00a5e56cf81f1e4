//! Single-file persistent flash image with zero-copy mmap reads.
//!
//! The whole simulated device lives in one file:
//!
//! ```text
//! offset 0      header slot A (512 bytes, CRC-protected)
//! offset 512    header slot B (512 bytes, CRC-protected)
//! offset 4096   page region: total_pages × page_bytes, mmap'ed
//!               PROT_READ|PROT_WRITE, MAP_SHARED (sparse on disk)
//! after pages   extent area: the engine's serialized manifest, relocated
//!               on every commit so the live copy is never overwritten in
//!               place, and write-once extents (the loaded models) that
//!               the manifest references by offset, length and CRC
//! ```
//!
//! Everything past the page region is placed by one first-fit rule
//! ([`MmapStore::write_extent`] and [`MmapStore::commit`] share it): the
//! lowest offset where the bytes overlap neither the live manifest nor
//! any live extent. The live extents are those the committed manifest
//! references (the engine hands them down after decoding it, see
//! [`MmapStore::set_live_extents`]) plus every extent written since.
//!
//! # Commit protocol (crash safety)
//!
//! A commit publishes a consistent snapshot with write-ahead ordering:
//!
//! 0. Extents the new manifest is the first to reference were written
//!    before the commit started (nothing is synced yet).
//! 1. `msync` the page region (all page payloads reach the file).
//! 2. Write the new manifest at an offset that overlaps neither the
//!    currently-referenced manifest nor a live extent, then `fsync` —
//!    which also makes step 0's extents durable, so they cost no fsync
//!    of their own.
//! 3. Write the *inactive* header slot (slots alternate by generation
//!    parity) with the new generation, manifest pointer, manifest CRC
//!    and a header CRC, then `fsync`.
//!
//! A crash before step 3 leaves the old header (and its intact
//! manifest) authoritative; a torn header write fails its CRC and the
//! other slot wins. [`MmapStore::open`] validates both slots and uses
//! the highest-generation slot whose header *and* manifest CRCs check
//! out, so recovery is simply "state = last committed manifest". An
//! extent written for a commit that never published is referenced by
//! no manifest, so after the reopen its bytes are free space again.
//!
//! The `clean` header flag records whether the device was closed with
//! [`clean == true`]; an open that finds `clean == false` reports a
//! recovery (the process died with the image open — committed state is
//! still exact, anything after the last commit is discarded).
//!
//! # Zero-copy reads
//!
//! [`MmapStore::page`] returns a slice borrowed directly from the
//! mapping: the page-sequential scan decodes features straight out of
//! the file's page cache into the existing scratch arenas, with zero
//! steady-state allocations — the property `tests/persist_alloc.rs`
//! enforces.
//!
//! # Why committed payloads cannot tear
//!
//! Page payloads written after a commit land only in blocks that were
//! *not* live at commit time: the FTL hands out fresh or GC-reclaimed
//! blocks, and a block referenced by a committed database is erased
//! only after the database is dropped (invalidated) or the block is
//! retired — both of which remove it from the committed live set at
//! the next commit. So the byte ranges a committed manifest references
//! are never mutated until that manifest has been superseded.

use crate::geometry::SsdGeometry;
use crate::store::PageStore;
use crate::{FlashError, Result};
use serde::{Deserialize, Serialize};
use std::fs::{File, OpenOptions};
use std::path::Path;

/// On-disk image format version (checked by [`MmapStore::open`]).
pub const IMAGE_FORMAT_VERSION: u32 = 1;

const MAGIC: [u8; 8] = *b"DPSTIMG\0";
const HEADER_SLOT_BYTES: usize = 512;
/// Header fields occupy this prefix of a slot; the header CRC covers it.
const HEADER_USED_BYTES: usize = 112;
/// Page region start: one OS page past the header slots (mmap offsets
/// must be page-aligned).
const PAGE_REGION_OFFSET: u64 = 4096;

fn align4k(x: u64) -> u64 {
    (x + 4095) & !4095
}

/// The CRC-32 lookup table, built at compile time.
const CRC32_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[i] = c;
        i += 1;
    }
    t
}

/// CRC-32 (IEEE 802.3 polynomial, reflected) over `bytes`.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Platform shims: raw mmap/msync plus positional file I/O. The
/// simulator links no libc crate; on unix these call straight into the
/// C library the standard library already links.
#[cfg(unix)]
mod sys {
    use std::ffi::c_void;
    use std::fs::File;
    use std::io;
    use std::os::unix::fs::FileExt;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_SHARED: i32 = 1;
    const MS_SYNC: i32 = 4;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, length: usize) -> i32;
        fn msync(addr: *mut c_void, length: usize, flags: i32) -> i32;
    }

    pub fn map_shared(file: &File, offset: u64, len: usize) -> io::Result<*mut u8> {
        let offset = i64::try_from(offset)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "mmap offset overflow"))?;
        // SAFETY: len > 0, fd is a valid open file, offset is
        // page-aligned by construction (PAGE_REGION_OFFSET).
        let ptr = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                offset,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(ptr.cast())
    }

    pub fn unmap(ptr: *mut u8, len: usize) {
        if !ptr.is_null() && len > 0 {
            // SAFETY: (ptr, len) came from a successful map_shared call.
            unsafe { munmap(ptr.cast(), len) };
        }
    }

    pub fn sync_region(ptr: *mut u8, len: usize) -> io::Result<()> {
        if ptr.is_null() || len == 0 {
            return Ok(());
        }
        // SAFETY: (ptr, len) came from a successful map_shared call.
        if unsafe { msync(ptr.cast(), len, MS_SYNC) } != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn write_all_at(file: &File, buf: &[u8], offset: u64) -> io::Result<()> {
        FileExt::write_all_at(file, buf, offset)
    }

    pub fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
        FileExt::read_exact_at(file, buf, offset)
    }
}

#[cfg(not(unix))]
mod sys {
    use std::fs::File;
    use std::io;

    fn unsupported() -> io::Error {
        io::Error::new(
            io::ErrorKind::Unsupported,
            "persistent flash images require a unix platform",
        )
    }

    pub fn map_shared(_file: &File, _offset: u64, _len: usize) -> io::Result<*mut u8> {
        Err(unsupported())
    }

    pub fn unmap(_ptr: *mut u8, _len: usize) {}

    pub fn sync_region(_ptr: *mut u8, _len: usize) -> io::Result<()> {
        Err(unsupported())
    }

    pub fn write_all_at(_file: &File, _buf: &[u8], _offset: u64) -> io::Result<()> {
        Err(unsupported())
    }

    pub fn read_exact_at(_file: &File, _buf: &mut [u8], _offset: u64) -> io::Result<()> {
        Err(unsupported())
    }
}

fn io_err(context: &str, e: std::io::Error) -> FlashError {
    FlashError::Image(format!("{context}: {e}"))
}

/// The mmap'ed page region. Unmapped on drop.
#[derive(Debug)]
struct MapRegion {
    ptr: *mut u8,
    len: usize,
}

// SAFETY: the region is uniquely owned by one MmapStore; shared (&self)
// access only reads, mutation goes through &mut self.
unsafe impl Send for MapRegion {}
unsafe impl Sync for MapRegion {}

impl Drop for MapRegion {
    fn drop(&mut self) {
        sys::unmap(self.ptr, self.len);
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Header {
    format_version: u32,
    clean: bool,
    generation: u64,
    geometry: SsdGeometry,
    page_region_offset: u64,
    page_region_len: u64,
    manifest_offset: u64,
    manifest_len: u64,
    manifest_crc: u32,
}

impl Header {
    fn encode(&self) -> [u8; HEADER_SLOT_BYTES] {
        let mut slot = [0u8; HEADER_SLOT_BYTES];
        slot[0..8].copy_from_slice(&MAGIC);
        slot[8..12].copy_from_slice(&self.format_version.to_le_bytes());
        slot[12..16].copy_from_slice(&u32::from(self.clean).to_le_bytes());
        slot[16..24].copy_from_slice(&self.generation.to_le_bytes());
        let g = &self.geometry;
        for (i, v) in [
            g.channels,
            g.chips_per_channel,
            g.planes_per_chip,
            g.blocks_per_plane,
            g.pages_per_block,
            g.page_bytes,
        ]
        .into_iter()
        .enumerate()
        {
            let at = 24 + i * 8;
            slot[at..at + 8].copy_from_slice(&(v as u64).to_le_bytes());
        }
        slot[72..80].copy_from_slice(&self.page_region_offset.to_le_bytes());
        slot[80..88].copy_from_slice(&self.page_region_len.to_le_bytes());
        slot[88..96].copy_from_slice(&self.manifest_offset.to_le_bytes());
        slot[96..104].copy_from_slice(&self.manifest_len.to_le_bytes());
        slot[104..108].copy_from_slice(&self.manifest_crc.to_le_bytes());
        // 108..112 reserved (zero).
        let crc = crc32(&slot[..HEADER_USED_BYTES]);
        slot[HEADER_USED_BYTES..HEADER_USED_BYTES + 4].copy_from_slice(&crc.to_le_bytes());
        slot
    }

    /// Decodes and validates one header slot. Distinguishes "not a
    /// valid slot" (None) from "valid slot of an unsupported format
    /// version" (the error), so open can surface a typed
    /// [`FlashError::VersionMismatch`].
    fn decode(slot: &[u8]) -> Result<Option<Header>> {
        let u32_at = |at: usize| u32::from_le_bytes(slot[at..at + 4].try_into().expect("4 bytes"));
        let u64_at = |at: usize| u64::from_le_bytes(slot[at..at + 8].try_into().expect("8 bytes"));
        if slot.len() < HEADER_SLOT_BYTES || slot[0..8] != MAGIC {
            return Ok(None);
        }
        let stored_crc = u32_at(HEADER_USED_BYTES);
        if crc32(&slot[..HEADER_USED_BYTES]) != stored_crc {
            return Ok(None);
        }
        let format_version = u32_at(8);
        if format_version != IMAGE_FORMAT_VERSION {
            return Err(FlashError::VersionMismatch {
                expected: IMAGE_FORMAT_VERSION,
                found: format_version,
            });
        }
        let geometry = SsdGeometry {
            channels: u64_at(24) as usize,
            chips_per_channel: u64_at(32) as usize,
            planes_per_chip: u64_at(40) as usize,
            blocks_per_plane: u64_at(48) as usize,
            pages_per_block: u64_at(56) as usize,
            page_bytes: u64_at(64) as usize,
        };
        Ok(Some(Header {
            format_version,
            clean: u32_at(12) != 0,
            generation: u64_at(16),
            geometry,
            page_region_offset: u64_at(72),
            page_region_len: u64_at(80),
            manifest_offset: u64_at(88),
            manifest_len: u64_at(96),
            manifest_crc: u32_at(104),
        }))
    }
}

/// A write-once byte range of the image past the page region, holding
/// an immutable object (a loaded model) that manifests reference instead
/// of re-encoding it on every commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ImageExtent {
    /// Byte offset in the image file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// CRC-32 of the extent's bytes.
    pub crc: u32,
}

/// The persistent [`PageStore`] backend: a single-file device image
/// whose page payloads live directly in its mmap'ed page region. See
/// the module docs for the format and the commit protocol.
#[derive(Debug)]
pub struct MmapStore {
    file: File,
    geometry: SsdGeometry,
    map: MapRegion,
    page_region_len: u64,
    generation: u64,
    manifest_offset: u64,
    manifest_len: u64,
    /// Extents no write may overlap: the committed manifest's plus
    /// every extent written since (the next manifest references them).
    extents: Vec<ImageExtent>,
}

impl MmapStore {
    /// Creates a fresh image file for `geometry`. Fails if `path`
    /// already exists (images are opened, not silently overwritten).
    /// The page region is a sparse hole, so a terabyte-scale geometry
    /// costs no disk until pages are programmed.
    ///
    /// The new image carries no committed manifest yet: the first
    /// [`MmapStore::commit`] publishes generation 2. Opening an image
    /// that was never committed fails (creation did not complete).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Image`] on any I/O failure, including a
    /// pre-existing file at `path`.
    pub fn create(path: &Path, geometry: SsdGeometry) -> Result<Self> {
        let page_region_len = geometry.total_bytes();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| io_err(&format!("create image {}", path.display()), e))?;
        file.set_len(PAGE_REGION_OFFSET + page_region_len)
            .map_err(|e| io_err("size image", e))?;
        let header = Header {
            format_version: IMAGE_FORMAT_VERSION,
            clean: false,
            generation: 1,
            geometry,
            page_region_offset: PAGE_REGION_OFFSET,
            page_region_len,
            manifest_offset: PAGE_REGION_OFFSET + page_region_len,
            manifest_len: 0,
            manifest_crc: 0,
        };
        let slot = 1u64; // generation 1 → slot 1; commits alternate.
        sys::write_all_at(&file, &header.encode(), slot * HEADER_SLOT_BYTES as u64)
            .map_err(|e| io_err("write image header", e))?;
        file.sync_all().map_err(|e| io_err("sync image", e))?;
        let ptr = map_page_region(&file, page_region_len)?;
        Ok(MmapStore {
            file,
            geometry,
            map: MapRegion {
                ptr,
                len: page_region_len as usize,
            },
            page_region_len,
            generation: 1,
            manifest_offset: PAGE_REGION_OFFSET + page_region_len,
            manifest_len: 0,
            extents: Vec::new(),
        })
    }

    /// Opens an existing image, returning the image, the last committed
    /// manifest bytes, and whether the image was closed cleanly. The
    /// image knows no live extents until the caller, having decoded the
    /// manifest, hands them down with [`MmapStore::set_live_extents`].
    ///
    /// Both header slots are validated (magic, CRC, format version) and
    /// the highest-generation slot whose manifest also passes its CRC
    /// wins — a torn commit falls back to the previous generation.
    ///
    /// # Errors
    ///
    /// * [`FlashError::VersionMismatch`] if the image was written by a
    ///   different format version.
    /// * [`FlashError::Image`] for I/O failures, corrupt headers, or an
    ///   image that was never committed.
    pub fn open(path: &Path) -> Result<(Self, Vec<u8>, bool)> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(&format!("open image {}", path.display()), e))?;
        let mut slots = [0u8; 2 * HEADER_SLOT_BYTES];
        sys::read_exact_at(&file, &mut slots, 0).map_err(|e| io_err("read image headers", e))?;
        let mut version_mismatch = None;
        let mut candidates: Vec<Header> = Vec::new();
        for slot in [&slots[..HEADER_SLOT_BYTES], &slots[HEADER_SLOT_BYTES..]] {
            match Header::decode(slot) {
                Ok(Some(h)) => candidates.push(h),
                Ok(None) => {}
                Err(e) => version_mismatch = Some(e),
            }
        }
        candidates.sort_by_key(|h| std::cmp::Reverse(h.generation));
        if candidates.is_empty() {
            return Err(version_mismatch.unwrap_or_else(|| {
                FlashError::Image(format!("{}: no valid image header", path.display()))
            }));
        }
        for header in candidates {
            if header.manifest_len == 0 {
                continue; // created but never committed
            }
            let mut manifest = vec![
                0u8;
                usize::try_from(header.manifest_len).map_err(|_| {
                    FlashError::Image("manifest too large".into())
                })?
            ];
            if sys::read_exact_at(&file, &mut manifest, header.manifest_offset).is_err() {
                continue;
            }
            if crc32(&manifest) != header.manifest_crc {
                continue;
            }
            let ptr = map_page_region(&file, header.page_region_len)?;
            let store = MmapStore {
                file,
                geometry: header.geometry,
                map: MapRegion {
                    ptr,
                    len: header.page_region_len as usize,
                },
                page_region_len: header.page_region_len,
                generation: header.generation,
                manifest_offset: header.manifest_offset,
                manifest_len: header.manifest_len,
                extents: Vec::new(),
            };
            return Ok((store, manifest, header.clean));
        }
        Err(FlashError::Image(format!(
            "{}: image holds no committed state (creation or every commit was interrupted)",
            path.display()
        )))
    }

    /// The image's geometry (from the committed header).
    pub fn geometry(&self) -> SsdGeometry {
        self.geometry
    }

    fn page_region_end(&self) -> u64 {
        PAGE_REGION_OFFSET + self.page_region_len
    }

    /// First-fit placement past the page region: the lowest offset at
    /// which `len` bytes overlap neither the live manifest nor a live
    /// extent. A candidate that collides moves to the next 4 KiB
    /// boundary after the occupied range.
    fn place(&self, len: u64) -> u64 {
        let mut taken: Vec<(u64, u64)> = self
            .extents
            .iter()
            .map(|e| (e.offset, e.len))
            .chain([(self.manifest_offset, self.manifest_len)])
            .filter(|&(_, n)| n > 0)
            .collect();
        taken.sort_unstable();
        let mut at = self.page_region_end();
        for (start, n) in taken {
            if at + len <= start {
                break;
            }
            at = at.max(align4k(start + n));
        }
        at
    }

    /// Declares the extents the committed manifest references, so that
    /// no later extent or manifest write lands on them. The caller
    /// decodes the manifest [`MmapStore::open`] returned and hands its
    /// extents down before writing anything; any other bytes past the
    /// page region (an extent whose commit never published) are free.
    pub fn set_live_extents(&mut self, extents: Vec<ImageExtent>) {
        self.extents = extents;
    }

    fn page_range(&self, idx: u64, count: u64) -> std::ops::Range<usize> {
        let page_bytes = self.geometry.page_bytes as u64;
        let start = idx * page_bytes;
        let end = start + count * page_bytes;
        assert!(
            end <= self.page_region_len,
            "page index {idx} (+{count}) outside the image's page region"
        );
        start as usize..end as usize
    }

    fn pages(&self) -> &[u8] {
        if self.map.len == 0 {
            return &[];
        }
        // SAFETY: the mapping is valid for map.len bytes and uniquely
        // owned; &self access is read-only.
        unsafe { std::slice::from_raw_parts(self.map.ptr, self.map.len) }
    }

    fn pages_mut(&mut self) -> &mut [u8] {
        if self.map.len == 0 {
            return &mut [];
        }
        // SAFETY: the mapping is valid for map.len bytes and uniquely
        // owned; &mut self guarantees exclusive access.
        unsafe { std::slice::from_raw_parts_mut(self.map.ptr, self.map.len) }
    }
}

fn map_page_region(file: &File, len: u64) -> Result<*mut u8> {
    if len == 0 {
        return Ok(std::ptr::null_mut());
    }
    let len =
        usize::try_from(len).map_err(|_| FlashError::Image("page region too large".into()))?;
    sys::map_shared(file, PAGE_REGION_OFFSET, len).map_err(|e| io_err("mmap page region", e))
}

impl PageStore for MmapStore {
    fn page(&self, idx: u64) -> &[u8] {
        let range = self.page_range(idx, 1);
        &self.pages()[range]
    }

    fn program(&mut self, idx: u64, data: &[u8]) {
        let range = self.page_range(idx, 1);
        let page = &mut self.pages_mut()[range];
        page[..data.len()].copy_from_slice(data);
        page[data.len()..].fill(0);
    }

    fn erase(&mut self, first: u64, count: u64) {
        // NAND erase drives every cell to the all-ones state.
        let range = self.page_range(first, count);
        self.pages_mut()[range].fill(0xFF);
    }

    /// Syncs the page region to the file (step 1 of the commit
    /// protocol).
    fn flush(&mut self) -> Result<()> {
        sys::sync_region(self.map.ptr, self.map.len).map_err(|e| io_err("msync page region", e))
    }

    /// Commits `manifest` with the full ordering described in the
    /// module docs. `clean` marks a clean close.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Image`] on any I/O failure; the previous
    /// commit stays authoritative in that case.
    fn commit(&mut self, manifest: &[u8], clean: bool) -> Result<()> {
        // 1. Page payloads reach the file before anything references them.
        self.flush()?;
        // 2. Write the manifest somewhere that overlaps neither the live
        //    one nor a live extent, so a crash mid-write cannot corrupt
        //    committed state. The sync also covers extents written since
        //    the last commit.
        let manifest_len = manifest.len() as u64;
        let offset = self.place(manifest_len);
        sys::write_all_at(&self.file, manifest, offset).map_err(|e| io_err("write manifest", e))?;
        self.file
            .sync_all()
            .map_err(|e| io_err("sync manifest", e))?;
        // 3. Publish: bump the generation in the inactive header slot.
        let generation = self.generation + 1;
        let header = Header {
            format_version: IMAGE_FORMAT_VERSION,
            clean,
            generation,
            geometry: self.geometry,
            page_region_offset: PAGE_REGION_OFFSET,
            page_region_len: self.page_region_len,
            manifest_offset: offset,
            manifest_len,
            manifest_crc: crc32(manifest),
        };
        let slot = generation % 2;
        sys::write_all_at(
            &self.file,
            &header.encode(),
            slot * HEADER_SLOT_BYTES as u64,
        )
        .map_err(|e| io_err("write image header", e))?;
        self.file.sync_all().map_err(|e| io_err("sync header", e))?;
        self.generation = generation;
        self.manifest_offset = offset;
        self.manifest_len = manifest_len;
        Ok(())
    }

    /// Writes `bytes` once into a fresh extent, placed by the module's
    /// first-fit rule, and returns where it landed. Nothing is synced: the
    /// next [`MmapStore::commit`]'s fsync makes the extent durable
    /// before its header publishes a manifest that references it.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Image`] if the write fails.
    fn write_extent(&mut self, bytes: &[u8]) -> Result<ImageExtent> {
        let extent = ImageExtent {
            offset: self.place(bytes.len() as u64),
            len: bytes.len() as u64,
            crc: crc32(bytes),
        };
        sys::write_all_at(&self.file, bytes, extent.offset)
            .map_err(|e| io_err("write extent", e))?;
        self.extents.push(extent);
        Ok(extent)
    }

    /// Reads an extent back.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Image`] if the extent reaches into the
    /// header or page region, runs past the end of the file, or fails
    /// its CRC.
    fn read_extent(&self, extent: &ImageExtent) -> Result<Vec<u8>> {
        let ImageExtent { offset, len, crc } = *extent;
        let describe = || format!("extent {offset}+{len}");
        if offset < self.page_region_end() {
            return Err(FlashError::Image(format!(
                "{} starts inside the header or page region (which ends at {})",
                describe(),
                self.page_region_end()
            )));
        }
        let file_len = self
            .file
            .metadata()
            .map_err(|e| io_err("stat image", e))?
            .len();
        // Checked before allocating, so a corrupt length cannot ask for
        // more memory than the file holds.
        if offset.checked_add(len).is_none_or(|end| end > file_len) {
            return Err(FlashError::Image(format!(
                "{} runs past the end of the {file_len}-byte image",
                describe()
            )));
        }
        let len = usize::try_from(len)
            .map_err(|_| FlashError::Image(format!("{} is too large", describe())))?;
        let mut bytes = vec![0u8; len];
        sys::read_exact_at(&self.file, &mut bytes, offset).map_err(|e| io_err("read extent", e))?;
        if crc32(&bytes) != crc {
            return Err(FlashError::Image(format!("{} fails its CRC", describe())));
        }
        Ok(bytes)
    }

    fn is_persistent(&self) -> bool {
        true
    }

    fn backend(&self) -> &'static str {
        "mmap"
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::SsdConfig;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Unique temp path per test without wall-clock or RNG use.
    fn temp_image(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "deepstore-image-test-{}-{tag}-{n}.img",
            std::process::id()
        ))
    }

    struct Cleanup(PathBuf);
    impl Drop for Cleanup {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn create_commit_reopen_roundtrips_pages_and_manifest() {
        let path = temp_image("roundtrip");
        let _guard = Cleanup(path.clone());
        let g = SsdConfig::small().geometry;
        {
            let mut store = MmapStore::create(&path, g).unwrap();
            store.program(0, b"page zero");
            store.program(7, b"page seven");
            store.commit(b"manifest-v1", false).unwrap();
        }
        let (store, manifest, clean) = MmapStore::open(&path).unwrap();
        assert_eq!(manifest, b"manifest-v1");
        assert!(!clean);
        assert_eq!(&store.page(0)[..9], b"page zero");
        assert_eq!(&store.page(7)[..10], b"page seven");
        assert_eq!(store.page(0).len(), g.page_bytes);
        assert_eq!(store.geometry(), g);
        assert!(store.is_persistent());
        assert_eq!(store.backend(), "mmap");
    }

    #[test]
    fn clean_flag_tracks_close() {
        let path = temp_image("clean");
        let _guard = Cleanup(path.clone());
        let g = SsdConfig::small().geometry;
        {
            let mut store = MmapStore::create(&path, g).unwrap();
            store.commit(b"m", true).unwrap();
        }
        let (_, _, clean) = MmapStore::open(&path).unwrap();
        assert!(clean);
    }

    #[test]
    fn erase_fills_with_ones_and_program_zero_pads() {
        let path = temp_image("erase");
        let _guard = Cleanup(path.clone());
        let g = SsdConfig::small().geometry;
        let mut store = MmapStore::create(&path, g).unwrap();
        store.program(3, b"abc");
        assert_eq!(&store.page(3)[..4], b"abc\0");
        store.erase(0, g.pages_per_block as u64);
        assert!(store.page(3).iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn open_missing_or_uncommitted_image_fails() {
        let path = temp_image("uncommitted");
        let _guard = Cleanup(path.clone());
        assert!(matches!(MmapStore::open(&path), Err(FlashError::Image(_))));
        let g = SsdConfig::small().geometry;
        drop(MmapStore::create(&path, g).unwrap());
        // Created but never committed: open refuses.
        assert!(matches!(MmapStore::open(&path), Err(FlashError::Image(_))));
    }

    #[test]
    fn create_refuses_existing_file() {
        let path = temp_image("exists");
        let _guard = Cleanup(path.clone());
        std::fs::write(&path, b"junk").unwrap();
        let g = SsdConfig::small().geometry;
        assert!(matches!(
            MmapStore::create(&path, g),
            Err(FlashError::Image(_))
        ));
    }

    #[test]
    fn torn_header_falls_back_to_previous_generation() {
        let path = temp_image("torn");
        let _guard = Cleanup(path.clone());
        let g = SsdConfig::small().geometry;
        {
            let mut store = MmapStore::create(&path, g).unwrap();
            store.program(0, b"gen2 data");
            store.commit(b"gen2", false).unwrap(); // generation 2 → slot 0
            store.commit(b"gen3", true).unwrap(); // generation 3 → slot 1
        }
        // Corrupt slot 1 (the generation-3 header) as a torn write would.
        {
            use std::os::unix::fs::FileExt;
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.write_all_at(&[0xAA; 16], HEADER_SLOT_BYTES as u64 + 20)
                .unwrap();
        }
        let (_, manifest, clean) = MmapStore::open(&path).unwrap();
        assert_eq!(manifest, b"gen2");
        assert!(!clean);
    }

    #[test]
    fn future_format_version_is_a_typed_mismatch() {
        let path = temp_image("version");
        let _guard = Cleanup(path.clone());
        let g = SsdConfig::small().geometry;
        {
            let mut store = MmapStore::create(&path, g).unwrap();
            store.commit(b"m", true).unwrap();
        }
        // Rewrite both slots with a bumped format version (valid CRCs).
        {
            let f = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .unwrap();
            let mut slots = [0u8; 2 * HEADER_SLOT_BYTES];
            sys::read_exact_at(&f, &mut slots, 0).unwrap();
            for s in 0..2 {
                let slot = &mut slots[s * HEADER_SLOT_BYTES..(s + 1) * HEADER_SLOT_BYTES];
                if slot[0..8] != MAGIC {
                    continue;
                }
                slot[8..12].copy_from_slice(&99u32.to_le_bytes());
                let crc = crc32(&slot[..HEADER_USED_BYTES]);
                slot[HEADER_USED_BYTES..HEADER_USED_BYTES + 4].copy_from_slice(&crc.to_le_bytes());
            }
            sys::write_all_at(&f, &slots, 0).unwrap();
        }
        assert!(matches!(
            MmapStore::open(&path),
            Err(FlashError::VersionMismatch {
                expected: IMAGE_FORMAT_VERSION,
                found: 99,
            })
        ));
    }

    #[test]
    fn repeated_commits_alternate_and_stay_bounded() {
        let path = temp_image("alternate");
        let _guard = Cleanup(path.clone());
        let g = SsdConfig::small().geometry;
        let mut store = MmapStore::create(&path, g).unwrap();
        for i in 0..8u32 {
            store
                .commit(format!("manifest-{i}").as_bytes(), false)
                .unwrap();
        }
        let len = std::fs::metadata(&path).unwrap().len();
        // Manifests ping-pong near the page-region end instead of
        // growing the file unboundedly.
        assert!(len <= PAGE_REGION_OFFSET + g.total_bytes() + 3 * 4096);
        drop(store);
        let (_, manifest, _) = MmapStore::open(&path).unwrap();
        assert_eq!(manifest, b"manifest-7");
    }

    fn overlaps(a: (u64, u64), b: (u64, u64)) -> bool {
        a.0 < b.0 + b.1 && b.0 < a.0 + a.1
    }

    #[test]
    fn extents_roundtrip_and_never_overlap_live_bytes() {
        let path = temp_image("extents");
        let _guard = Cleanup(path.clone());
        let g = SsdConfig::small().geometry;
        let (first, second) = {
            let mut store = MmapStore::create(&path, g).unwrap();
            store.commit(b"empty", false).unwrap();
            let first = store.write_extent(&[7u8; 5000]).unwrap();
            let second = store.write_extent(b"second").unwrap();
            for i in 0..6u32 {
                store
                    .commit(format!("manifest-{i}").as_bytes(), i == 5)
                    .unwrap();
                let live = (store.manifest_offset, store.manifest_len);
                for e in [first, second] {
                    assert!(!overlaps(live, (e.offset, e.len)), "commit {i}");
                }
            }
            assert!(!overlaps(
                (first.offset, first.len),
                (second.offset, second.len)
            ));
            assert!(first.offset >= PAGE_REGION_OFFSET + g.total_bytes());
            (first, second)
        };
        let (mut store, manifest, clean) = MmapStore::open(&path).unwrap();
        assert_eq!((manifest.as_slice(), clean), (&b"manifest-5"[..], true));
        store.set_live_extents(vec![first, second]);
        assert_eq!(store.read_extent(&first).unwrap(), vec![7u8; 5000]);
        assert_eq!(store.read_extent(&second).unwrap(), b"second");
        let third = store.write_extent(b"third").unwrap();
        for e in [first, second] {
            assert!(!overlaps((third.offset, third.len), (e.offset, e.len)));
        }
    }

    #[test]
    fn extent_of_an_unpublished_commit_is_free_space_after_reopen() {
        let path = temp_image("orphan");
        let _guard = Cleanup(path.clone());
        let g = SsdConfig::small().geometry;
        let orphan = {
            let mut store = MmapStore::create(&path, g).unwrap();
            store.commit(b"gen2", false).unwrap();
            // Written, but the process dies before a commit publishes it.
            store.write_extent(&[1u8; 9000]).unwrap()
        };
        let (mut store, _, _) = MmapStore::open(&path).unwrap();
        store.set_live_extents(Vec::new());
        let reused = store.write_extent(&[2u8; 9000]).unwrap();
        assert_eq!(reused.offset, orphan.offset);
    }

    #[test]
    fn corrupt_extents_are_typed_errors() {
        let path = temp_image("bad-extent");
        let _guard = Cleanup(path.clone());
        let g = SsdConfig::small().geometry;
        let mut store = MmapStore::create(&path, g).unwrap();
        let good = store.write_extent(b"payload").unwrap();
        store.commit(b"m", false).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len();
        for bad in [
            ImageExtent { offset: 0, ..good },
            ImageExtent {
                offset: PAGE_REGION_OFFSET,
                ..good
            },
            ImageExtent {
                len: file_len,
                ..good
            },
            ImageExtent {
                len: u64::MAX,
                ..good
            },
            ImageExtent {
                crc: good.crc ^ 1,
                ..good
            },
        ] {
            assert!(
                matches!(store.read_extent(&bad), Err(FlashError::Image(_))),
                "{bad:?}"
            );
        }
        assert_eq!(store.read_extent(&good).unwrap(), b"payload");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
