//! Functional flash array: stores real bytes with NAND semantics.
//!
//! The functional layer of the simulator keeps actual page contents so that
//! end-to-end queries return real results. NAND semantics are enforced:
//! pages must be erased (at block granularity) before being programmed, and
//! each block tracks an erase count for wear-leveling statistics.
//!
//! Page *payloads* live behind the pluggable [`PageStore`] trait (heap or
//! a persistent mmap image — see [`crate::store`] and [`crate::image`]);
//! the array owns the NAND *semantics*: the programmed-page set, the
//! erase-before-program rule, erase counts, fault injection and the
//! read-retry ladder. [`FlashArray::state_snapshot`] captures exactly that
//! semantic state so a persistent backend can round-trip it through the
//! image manifest.

use crate::fault::{FaultOutcome, FaultPlan, ReadFaultStats};
use crate::geometry::{PageAddr, SsdGeometry};
use crate::obs::{FlashEventCounts, FlashMetrics};
use crate::store::{HeapStore, PageStore};
use crate::timing::ReadRetryPolicy;
use crate::{FlashError, Result};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Flash operation counters: how many page reads, page programs and
/// block erases the array has served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashOpCounts {
    /// Successful page reads (failed retry attempts do not count — only
    /// a successful read moves data over the bus).
    pub reads: u64,
    /// Page programs.
    pub programs: u64,
    /// Block erases.
    pub erases: u64,
}

/// The array's semantic state, serializable into an image manifest and
/// restorable on reopen: everything [`FlashArray`] tracks *besides* the
/// page payloads (which the persistent backend keeps in the page region)
/// and the injected fault/retry configuration (which is runtime config,
/// re-injected by the caller).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlashStateSnapshot {
    /// Programmed pages as sorted `(first_index, run_length)` runs —
    /// feature databases program dense page ranges, so runs compress the
    /// set by orders of magnitude versus one entry per page.
    pub programmed_runs: Vec<(u64, u64)>,
    /// Non-zero per-block erase counts as sorted `(block_index, count)`.
    pub erase_counts: Vec<(u64, u64)>,
    /// Blocks queued for retirement, ascending.
    pub pending_retire: Vec<u64>,
    /// Operation counters at snapshot time.
    pub op_counts: FlashOpCounts,
}

fn runs_from_set(set: &HashSet<u64>) -> Vec<(u64, u64)> {
    let mut sorted: Vec<u64> = set.iter().copied().collect();
    sorted.sort_unstable();
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for idx in sorted {
        match runs.last_mut() {
            Some((start, len)) if *start + *len == idx => *len += 1,
            _ => runs.push((idx, 1)),
        }
    }
    runs
}

fn set_from_runs(runs: &[(u64, u64)]) -> HashSet<u64> {
    let mut set = HashSet::new();
    for &(start, len) in runs {
        for idx in start..start + len {
            set.insert(idx);
        }
    }
    set
}

/// A functional flash array.
///
/// Pages are stored sparsely, so a terabyte-scale geometry costs nothing
/// until data is written (the mmap backend's page region is a sparse
/// file hole for the same reason).
///
/// Reads take `&self`: independent flash channels serve page reads
/// concurrently, so the parallel query scan shares one array across its
/// shard workers. The read counter is atomic for exactly that reason.
#[derive(Debug)]
pub struct FlashArray {
    geometry: SsdGeometry,
    /// Page payloads, behind the pluggable backend.
    store: Box<dyn PageStore>,
    /// Programmed pages by dense page index; absent = erased (fresh).
    programmed: HashSet<u64>,
    /// Erase counts per (dense) block index.
    erase_counts: HashMap<u64, u64>,
    /// Injected read faults.
    faults: FaultPlan,
    /// Read-retry ladder consulted when a read fails ECC transiently.
    retry: ReadRetryPolicy,
    /// Blocks (dense block index) whose pages failed permanently with a
    /// remap source, awaiting retirement by the recovery pipeline.
    /// A `BTreeSet` under a mutex: reads run on `&self` from concurrent
    /// shard workers, and the ordered set keeps the drain order
    /// deterministic regardless of which worker recorded the failure.
    pending_retire: Mutex<BTreeSet<u64>>,
    /// Statistics.
    reads: AtomicU64,
    programs: u64,
    erases: u64,
    /// Metrics for events the operation counters do not cover.
    metrics: FlashMetrics,
}

impl Clone for FlashArray {
    /// Deep-copies the array into a fresh heap backend (cloning is a
    /// test/tooling convenience; a persistent image has exactly one
    /// owner, so its clone is a volatile snapshot of the same bytes).
    fn clone(&self) -> Self {
        let mut store = HeapStore::new(self.geometry.page_bytes);
        for &idx in &self.programmed {
            store.program(idx, self.store.page(idx));
        }
        FlashArray {
            geometry: self.geometry,
            store: Box::new(store),
            programmed: self.programmed.clone(),
            erase_counts: self.erase_counts.clone(),
            faults: self.faults.clone(),
            retry: self.retry.clone(),
            pending_retire: Mutex::new(
                self.pending_retire
                    .lock()
                    .expect("pending-retire lock poisoned")
                    .clone(),
            ),
            reads: AtomicU64::new(self.reads.load(Ordering::Relaxed)),
            programs: self.programs,
            erases: self.erases,
            metrics: self.metrics.clone(),
        }
    }
}

impl FlashArray {
    /// Creates an empty (fully erased) array on the heap backend.
    pub fn new(geometry: SsdGeometry) -> Self {
        Self::with_store(geometry, Box::new(HeapStore::new(geometry.page_bytes)))
    }

    /// Creates an empty array over an explicit page-payload backend.
    pub fn with_store(geometry: SsdGeometry, store: Box<dyn PageStore>) -> Self {
        FlashArray {
            geometry,
            store,
            programmed: HashSet::new(),
            erase_counts: HashMap::new(),
            faults: FaultPlan::none(),
            retry: ReadRetryPolicy::paper_default(),
            pending_retire: Mutex::new(BTreeSet::new()),
            reads: AtomicU64::new(0),
            programs: 0,
            erases: 0,
            metrics: FlashMetrics::new(),
        }
    }

    /// The array's geometry.
    pub fn geometry(&self) -> &SsdGeometry {
        &self.geometry
    }

    /// Short name of the page-payload backend ("heap" / "mmap").
    pub fn backend(&self) -> &'static str {
        self.store.backend()
    }

    /// Whether committed state survives process exit.
    pub fn is_persistent(&self) -> bool {
        self.store.is_persistent()
    }

    /// Commits `manifest` to the persistent backend with the crash-safe
    /// ordering documented in [`crate::image`].
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Image`] if the backend is volatile or the
    /// commit fails (the previous commit stays authoritative).
    pub fn commit(&mut self, manifest: &[u8], clean: bool) -> Result<()> {
        self.store.commit(manifest, clean)
    }

    /// Writes `bytes` once into a fresh extent of the persistent
    /// backend, for the next [`FlashArray::commit`]'s manifest to
    /// reference (see [`crate::image`]).
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::Image`] if the backend is volatile or the
    /// write fails.
    pub fn write_extent(&mut self, bytes: &[u8]) -> Result<crate::ImageExtent> {
        self.store.write_extent(bytes)
    }

    /// Captures the semantic state (programmed set, erase counts,
    /// retirement queue, operation counters) for an image manifest.
    pub fn state_snapshot(&self) -> FlashStateSnapshot {
        let mut erase_counts: Vec<(u64, u64)> = self
            .erase_counts
            .iter()
            .map(|(&b, &c)| (b, c))
            .filter(|&(_, c)| c > 0)
            .collect();
        erase_counts.sort_unstable();
        FlashStateSnapshot {
            programmed_runs: runs_from_set(&self.programmed),
            erase_counts,
            pending_retire: self
                .pending_retire
                .lock()
                .expect("pending-retire lock poisoned")
                .iter()
                .copied()
                .collect(),
            op_counts: self.op_counts(),
        }
    }

    /// Restores semantic state from a snapshot (the page payloads are
    /// the backend's concern — for a reopened image they are already in
    /// the page region). Fault plans and retry policies are runtime
    /// configuration and are *not* part of the snapshot; re-inject them
    /// after restoring.
    pub fn restore_state(&mut self, snap: &FlashStateSnapshot) {
        self.programmed = set_from_runs(&snap.programmed_runs);
        self.erase_counts = snap.erase_counts.iter().copied().collect();
        *self
            .pending_retire
            .lock()
            .expect("pending-retire lock poisoned") = snap.pending_retire.iter().copied().collect();
        self.reads = AtomicU64::new(snap.op_counts.reads);
        self.programs = snap.op_counts.programs;
        self.erases = snap.op_counts.erases;
    }

    /// Programs a page with `data` (padded with zeros to the page size).
    ///
    /// # Errors
    ///
    /// * [`FlashError::AddressOutOfRange`] for an invalid address.
    /// * [`FlashError::ProgramWithoutErase`] if the page is already
    ///   programmed.
    /// * [`FlashError::SizeMismatch`] if `data` exceeds the page size.
    pub fn program(&mut self, addr: PageAddr, data: &[u8]) -> Result<()> {
        self.geometry.check(addr)?;
        if data.len() > self.geometry.page_bytes {
            return Err(FlashError::SizeMismatch {
                expected: self.geometry.page_bytes,
                found: data.len(),
            });
        }
        let idx = self.geometry.page_index(addr);
        if self.programmed.contains(&idx) {
            return Err(FlashError::ProgramWithoutErase(addr));
        }
        self.store.program(idx, data);
        self.programmed.insert(idx);
        self.programs += 1;
        Ok(())
    }

    /// Installs a fault plan; subsequent reads consult its layers.
    /// Transient faults are recovered by the read-retry ladder; pages
    /// that fail permanently return [`FlashError::UncorrectableEcc`].
    pub fn inject_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The installed fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Sets the read-retry ladder (how many attempts a read gets).
    pub fn set_read_retry(&mut self, retry: ReadRetryPolicy) {
        self.retry = retry;
    }

    /// The active read-retry ladder.
    pub fn read_retry(&self) -> &ReadRetryPolicy {
        &self.retry
    }

    /// Reads a programmed page. Takes `&self` so concurrent shard workers
    /// can read different channels of one array simultaneously.
    ///
    /// Equivalent to [`FlashArray::read_with_stats`] with the fault
    /// statistics discarded: retries still run (and still count in the
    /// [`FlashMetrics`] table), the caller just doesn't attribute them.
    ///
    /// # Errors
    ///
    /// * [`FlashError::AddressOutOfRange`] for an invalid address.
    /// * [`FlashError::ReadUnwritten`] if the page was never programmed.
    /// * [`FlashError::UncorrectableEcc`] if the fault plan fails the
    ///   page beyond the retry budget.
    pub fn read(&self, addr: PageAddr) -> Result<&[u8]> {
        let mut stats = ReadFaultStats::new();
        self.read_with_stats(addr, &mut stats)
    }

    /// [`FlashArray::read`] with per-read fault attribution: retry
    /// rounds, recoveries and permanent failures are recorded into
    /// `stats`.
    ///
    /// The layered fault pipeline, per attempt `a` (0-based):
    ///
    /// 1. [`FaultPlan::outcome`] decides `Ok` / `Transient` / `Permanent`
    ///    deterministically from `(plan, page, a, block wear)`.
    /// 2. `Transient` burns one retry from the [`ReadRetryPolicy`]
    ///    budget; the caller charges the escalating ladder cost via
    ///    [`crate::stream::retry_stall`].
    /// 3. `Permanent` aborts the ladder immediately (the controller
    ///    recognizes a hard-failure signature — retrying cannot help).
    ///    If the page is *not* in an outage domain its block is queued
    ///    for retirement: the recovery pipeline will remap the data and
    ///    retire the block. Outage-domain pages have no remap source
    ///    and count as lost.
    ///
    /// Failed attempts never advance the page-read operation counter —
    /// only a successful read moves data over the bus.
    ///
    /// The returned slice borrows straight from the backend: on the
    /// mmap backend that is the file mapping itself (zero-copy).
    ///
    /// # Errors
    ///
    /// Same conditions as [`FlashArray::read`].
    pub fn read_with_stats(&self, addr: PageAddr, stats: &mut ReadFaultStats) -> Result<&[u8]> {
        self.geometry.check(addr)?;
        let mut attempt = 0u32;
        if !self.faults.is_empty() {
            let wear = self.erase_count(addr);
            let max_attempts = self.retry.max_attempts.max(1);
            loop {
                match self.faults.outcome(&self.geometry, addr, attempt, wear) {
                    FaultOutcome::Ok => break,
                    FaultOutcome::Transient => {
                        self.metrics.ecc_failures.incr();
                        if attempt + 1 >= max_attempts {
                            // Retry budget exhausted. The fault is still
                            // transient, so the block is NOT retired — a
                            // later read (or a bigger budget) may recover.
                            return Err(FlashError::UncorrectableEcc(addr));
                        }
                        stats.on_retry(attempt as usize);
                        self.metrics.read_retries.incr();
                        attempt += 1;
                    }
                    FaultOutcome::Permanent => {
                        self.metrics.ecc_failures.incr();
                        if self.faults.in_outage_domain(addr) {
                            stats.lost += 1;
                        } else {
                            stats.remappable += 1;
                            let block = self.geometry.page_index(addr)
                                / self.geometry.pages_per_block as u64;
                            self.pending_retire
                                .lock()
                                .expect("pending-retire lock poisoned")
                                .insert(block);
                        }
                        return Err(FlashError::UncorrectableEcc(addr));
                    }
                }
            }
        }
        let idx = self.geometry.page_index(addr);
        if !self.programmed.contains(&idx) {
            return Err(FlashError::ReadUnwritten(addr));
        }
        if attempt > 0 {
            stats.recovered += 1;
            self.metrics.reads_recovered.incr();
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        Ok(self.store.page(idx))
    }

    /// Borrows a programmed page's payload *without* advancing any
    /// operation counter and without consulting the fault plan. This is
    /// the maintenance/rebuild path (e.g. re-deriving quantized sidecars
    /// after reopening an image): it must leave the functional counters
    /// bit-identical to a run that never went through persistence.
    pub fn peek_page(&self, addr: PageAddr) -> Option<&[u8]> {
        self.geometry.check(addr).ok()?;
        let idx = self.geometry.page_index(addr);
        if !self.programmed.contains(&idx) {
            return None;
        }
        Some(self.store.page(idx))
    }

    /// The last-gasp soft-decode path: recovers a permanently-failing
    /// page's bytes for remapping. Real controllers run a much slower
    /// soft-decision LDPC decode that usually succeeds exactly once;
    /// functionally the bytes are the array's stored payload. Returns
    /// `None` when there is no remap source: the page sits in an outage
    /// domain (the die cannot be addressed at all) or was never
    /// programmed.
    pub fn recover_page_bytes(&self, addr: PageAddr) -> Option<Vec<u8>> {
        if self.geometry.check(addr).is_err() || self.faults.in_outage_domain(addr) {
            return None;
        }
        let idx = self.geometry.page_index(addr);
        if !self.programmed.contains(&idx) {
            return None;
        }
        Some(self.store.page(idx).to_vec())
    }

    /// Drains the queue of blocks awaiting retirement, in ascending
    /// dense-block-index order (deterministic regardless of which scan
    /// worker observed the failure first).
    pub fn take_pending_retirements(&mut self) -> Vec<u64> {
        let mut queue = self
            .pending_retire
            .lock()
            .expect("pending-retire lock poisoned");
        let drained: Vec<u64> = queue.iter().copied().collect();
        queue.clear();
        drained
    }

    /// Number of blocks currently awaiting retirement.
    pub fn pending_retirements(&self) -> usize {
        self.pending_retire
            .lock()
            .expect("pending-retire lock poisoned")
            .len()
    }

    /// True if the page is currently programmed.
    pub fn is_programmed(&self, addr: PageAddr) -> bool {
        self.geometry
            .check(addr)
            .ok()
            .map(|()| self.programmed.contains(&self.geometry.page_index(addr)))
            .unwrap_or(false)
    }

    /// Erases a whole block, freeing all of its pages.
    ///
    /// # Errors
    ///
    /// Returns [`FlashError::AddressOutOfRange`] for an invalid address
    /// (the `page` field of `block_addr` is ignored).
    pub fn erase_block(&mut self, block_addr: PageAddr) -> Result<()> {
        let base = PageAddr {
            page: 0,
            ..block_addr
        };
        self.geometry.check(base)?;
        let first = self.geometry.page_index(base);
        let count = self.geometry.pages_per_block as u64;
        // NAND erase: the backend pulls every cell to all-ones (the heap
        // backend just drops payloads), and the pages leave the
        // programmed set.
        self.store.erase(first, count);
        for idx in first..first + count {
            self.programmed.remove(&idx);
        }
        let block_idx = first / count;
        *self.erase_counts.entry(block_idx).or_insert(0) += 1;
        self.erases += 1;
        Ok(())
    }

    /// Erase count of the block containing `addr`.
    pub fn erase_count(&self, addr: PageAddr) -> u64 {
        let base = PageAddr { page: 0, ..addr };
        let block_idx = self.geometry.page_index(base) / self.geometry.pages_per_block as u64;
        self.erase_counts.get(&block_idx).copied().unwrap_or(0)
    }

    /// The operation counters (reads, programs, erases) so far.
    pub fn op_counts(&self) -> FlashOpCounts {
        FlashOpCounts {
            reads: self.reads.load(Ordering::Relaxed),
            programs: self.programs,
            erases: self.erases,
        }
    }

    /// The array's metric table (ECC failures, bus waits, retries).
    pub fn metrics(&self) -> &FlashMetrics {
        &self.metrics
    }

    /// A snapshot of every flash event count: the operation counters
    /// plus the [`FlashMetrics`] table's totals.
    pub fn event_counts(&self) -> FlashEventCounts {
        let (ops, m) = (self.op_counts(), &self.metrics);
        FlashEventCounts {
            page_reads: ops.reads,
            programs: ops.programs,
            erases: ops.erases,
            ecc_failures: m.ecc_failures.get(),
            bus_wait_ns: m.bus_wait_ns.get(),
            bus_transfers: m.bus_transfers.get(),
            read_retries: m.read_retries.get(),
            read_retry_ns: m.read_retry_ns.get(),
            reads_recovered: m.reads_recovered.get(),
            remapped_pages: m.remapped_pages.get(),
            retired_blocks: m.retired_blocks.get(),
            lost_pages: m.lost_pages.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SsdConfig;

    fn array() -> FlashArray {
        FlashArray::new(SsdConfig::small().geometry)
    }

    fn counts(reads: u64, programs: u64, erases: u64) -> FlashOpCounts {
        FlashOpCounts {
            reads,
            programs,
            erases,
        }
    }

    #[test]
    fn program_then_read_roundtrips() {
        let mut a = array();
        let addr = PageAddr::zero();
        a.program(addr, b"hello flash").unwrap();
        let page = a.read(addr).unwrap();
        assert_eq!(&page[..11], b"hello flash");
        assert_eq!(page.len(), a.geometry().page_bytes); // zero-padded
    }

    #[test]
    fn read_unwritten_fails() {
        let a = array();
        assert!(matches!(
            a.read(PageAddr::zero()),
            Err(FlashError::ReadUnwritten(_))
        ));
    }

    #[test]
    fn double_program_fails_until_erase() {
        let mut a = array();
        let addr = PageAddr::zero();
        a.program(addr, b"one").unwrap();
        assert!(matches!(
            a.program(addr, b"two"),
            Err(FlashError::ProgramWithoutErase(_))
        ));
        a.erase_block(addr).unwrap();
        a.program(addr, b"two").unwrap();
        assert_eq!(&a.read(addr).unwrap()[..3], b"two");
    }

    #[test]
    fn erase_clears_whole_block() {
        let mut a = array();
        let g = *a.geometry();
        for page in 0..g.pages_per_block {
            a.program(
                PageAddr {
                    page,
                    ..PageAddr::zero()
                },
                &[1],
            )
            .unwrap();
        }
        a.erase_block(PageAddr::zero()).unwrap();
        for page in 0..g.pages_per_block {
            assert!(!a.is_programmed(PageAddr {
                page,
                ..PageAddr::zero()
            }));
        }
    }

    #[test]
    fn erase_counts_accumulate() {
        let mut a = array();
        assert_eq!(a.erase_count(PageAddr::zero()), 0);
        a.erase_block(PageAddr::zero()).unwrap();
        a.erase_block(PageAddr::zero()).unwrap();
        assert_eq!(a.erase_count(PageAddr::zero()), 2);
        // Another block is unaffected.
        let other = PageAddr {
            block: 1,
            ..PageAddr::zero()
        };
        assert_eq!(a.erase_count(other), 0);
    }

    #[test]
    fn oversized_program_fails() {
        let mut a = array();
        let too_big = vec![0u8; a.geometry().page_bytes + 1];
        assert!(matches!(
            a.program(PageAddr::zero(), &too_big),
            Err(FlashError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_is_rejected_everywhere() {
        let mut a = array();
        let bad = PageAddr {
            channel: 99,
            ..PageAddr::zero()
        };
        assert!(a.program(bad, &[0]).is_err());
        assert!(a.read(bad).is_err());
        assert!(a.erase_block(bad).is_err());
        assert!(!a.is_programmed(bad));
        assert!(a.peek_page(bad).is_none());
    }

    #[test]
    fn op_counts_track_operations() {
        let mut a = array();
        a.program(PageAddr::zero(), &[9]).unwrap();
        let _ = a.read(PageAddr::zero()).unwrap();
        a.erase_block(PageAddr::zero()).unwrap();
        assert_eq!(a.op_counts(), counts(1, 1, 1));
    }

    #[test]
    fn peek_page_reads_without_counting() {
        let mut a = array();
        a.program(PageAddr::zero(), b"quiet").unwrap();
        assert_eq!(&a.peek_page(PageAddr::zero()).unwrap()[..5], b"quiet");
        assert!(a
            .peek_page(PageAddr {
                page: 1,
                ..PageAddr::zero()
            })
            .is_none());
        assert_eq!(a.op_counts(), counts(0, 1, 0));
    }

    #[test]
    fn snapshot_roundtrips_semantic_state() {
        let mut a = array();
        let g = *a.geometry();
        for page in 0..3 {
            a.program(
                PageAddr {
                    page,
                    ..PageAddr::zero()
                },
                &[page as u8],
            )
            .unwrap();
        }
        let far = PageAddr {
            channel: 2,
            block: 5,
            ..PageAddr::zero()
        };
        a.program(far, b"far").unwrap();
        let _ = a.read(PageAddr::zero()).unwrap();
        let wear = PageAddr {
            block: 7,
            ..PageAddr::zero()
        };
        a.erase_block(wear).unwrap();
        a.erase_block(wear).unwrap();
        a.inject_faults(FaultPlan::none().fail_page(&g, far));
        let _ = a.read(far);
        let snap = a.state_snapshot();
        // Dense pages collapse into one run; the far page is its own run.
        assert!(snap.programmed_runs.contains(&(0, 3)));
        assert_eq!(snap.programmed_runs.len(), 2);
        assert_eq!(snap.pending_retire.len(), 1);
        assert_eq!(snap.op_counts, counts(1, 4, 2));

        let mut b = FlashArray::new(g);
        // Payloads move via the backend; here the heap copy suffices.
        for &(start, len) in &snap.programmed_runs {
            for idx in start..start + len {
                let addr = g.page_from_index(idx);
                b.program(addr, a.peek_page(addr).unwrap()).unwrap();
            }
        }
        b.restore_state(&snap);
        assert_eq!(b.state_snapshot(), snap);
        assert_eq!(b.op_counts(), counts(1, 4, 2));
        assert_eq!(b.erase_count(wear), 2);
        assert_eq!(&b.read(PageAddr::zero()).unwrap()[..1], &[0]);
    }

    #[test]
    fn clone_is_an_independent_heap_copy() {
        let mut a = array();
        a.program(PageAddr::zero(), b"original").unwrap();
        let mut c = a.clone();
        assert_eq!(c.backend(), "heap");
        c.erase_block(PageAddr::zero()).unwrap();
        assert!(!c.is_programmed(PageAddr::zero()));
        assert!(a.is_programmed(PageAddr::zero()));
        assert_eq!(&a.read(PageAddr::zero()).unwrap()[..8], b"original");
    }

    /// A fault plan where every page is transient-faulty and fails
    /// exactly one attempt: deterministic retry behaviour everywhere.
    fn all_transient_once() -> FaultPlan {
        FaultPlan::none()
            .transient(1.0, 5)
            .transient_max_failures(1)
    }

    #[test]
    fn transient_fault_recovers_via_retry() {
        let mut a = array();
        a.program(PageAddr::zero(), b"wobbly bits").unwrap();
        a.inject_faults(all_transient_once());
        let mut stats = ReadFaultStats::new();
        let page = a.read_with_stats(PageAddr::zero(), &mut stats).unwrap();
        assert_eq!(&page[..11], b"wobbly bits");
        assert_eq!(stats.retries_by_round, vec![1]);
        assert_eq!(stats.recovered, 1);
        assert_eq!((stats.remappable, stats.lost), (0, 0));
        // Failed attempts do not advance the page-read counter.
        assert_eq!(a.op_counts().reads, 1);
        let m = a.metrics();
        assert_eq!(m.read_retries.get(), 1);
        assert_eq!(m.reads_recovered.get(), 1);
        assert_eq!(m.ecc_failures.get(), 1);
    }

    #[test]
    fn transient_fault_exhausts_budget_without_retirement() {
        let mut a = array();
        a.program(PageAddr::zero(), &[1]).unwrap();
        a.inject_faults(all_transient_once());
        a.set_read_retry(ReadRetryPolicy::disabled());
        let mut stats = ReadFaultStats::new();
        assert!(matches!(
            a.read_with_stats(PageAddr::zero(), &mut stats),
            Err(FlashError::UncorrectableEcc(_))
        ));
        // Transient exhaustion is not a permanent failure: nothing
        // queues for retirement and nothing counts as remappable.
        assert_eq!(stats.total_retries(), 0);
        assert_eq!((stats.remappable, stats.lost), (0, 0));
        assert_eq!(a.pending_retirements(), 0);
        // Restoring the budget recovers the read.
        a.set_read_retry(ReadRetryPolicy::paper_default());
        assert!(a.read(PageAddr::zero()).is_ok());
    }

    #[test]
    fn permanent_fault_queues_block_for_retirement() {
        let mut a = array();
        let g = *a.geometry();
        a.program(PageAddr::zero(), b"doomed").unwrap();
        a.inject_faults(FaultPlan::none().fail_page(&g, PageAddr::zero()));
        let mut stats = ReadFaultStats::new();
        assert!(a.read_with_stats(PageAddr::zero(), &mut stats).is_err());
        assert_eq!(stats.remappable, 1);
        assert_eq!(a.pending_retirements(), 1);
        // The last-gasp path still recovers the bytes for remapping.
        let bytes = a.recover_page_bytes(PageAddr::zero()).unwrap();
        assert_eq!(&bytes[..6], b"doomed");
        // Draining is deterministic and idempotent.
        assert_eq!(a.take_pending_retirements(), vec![0]);
        assert!(a.take_pending_retirements().is_empty());
    }

    #[test]
    fn outage_fault_is_lost_not_remappable() {
        let mut a = array();
        a.program(PageAddr::zero(), &[7]).unwrap();
        a.inject_faults(FaultPlan::none().dead_channel(0));
        let mut stats = ReadFaultStats::new();
        assert!(matches!(
            a.read_with_stats(PageAddr::zero(), &mut stats),
            Err(FlashError::UncorrectableEcc(_))
        ));
        assert_eq!((stats.remappable, stats.lost), (0, 1));
        assert_eq!(a.pending_retirements(), 0);
        assert!(a.recover_page_bytes(PageAddr::zero()).is_none());
    }

    #[test]
    fn wear_threshold_fails_cycled_blocks() {
        let mut a = array();
        a.inject_faults(FaultPlan::none().wear_threshold(2));
        a.program(PageAddr::zero(), &[1]).unwrap();
        assert!(a.read(PageAddr::zero()).is_ok());
        a.erase_block(PageAddr::zero()).unwrap();
        a.erase_block(PageAddr::zero()).unwrap();
        a.program(PageAddr::zero(), &[2]).unwrap();
        let mut stats = ReadFaultStats::new();
        assert!(a.read_with_stats(PageAddr::zero(), &mut stats).is_err());
        assert_eq!(stats.remappable, 1);
        assert_eq!(a.pending_retirements(), 1);
        // A fresh block is unaffected by the wear layer.
        let fresh = PageAddr {
            block: 3,
            ..PageAddr::zero()
        };
        a.program(fresh, &[3]).unwrap();
        assert!(a.read(fresh).is_ok());
    }

    #[test]
    fn mmap_backed_array_matches_heap_semantics() {
        use std::sync::atomic::AtomicU64 as Counter;
        static N: Counter = Counter::new(0);
        let path = std::env::temp_dir().join(format!(
            "deepstore-array-test-{}-{}.img",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        struct Cleanup(std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        let _guard = Cleanup(path.clone());
        let g = SsdConfig::small().geometry;
        let store = crate::image::MmapStore::create(&path, g).unwrap();
        let mut m = FlashArray::with_store(g, Box::new(store));
        assert_eq!(m.backend(), "mmap");
        assert!(m.is_persistent());
        let mut h = FlashArray::new(g);
        for (page, payload) in [(0usize, &b"alpha"[..]), (1, b"beta"), (2, b"gamma")] {
            let addr = PageAddr {
                page,
                ..PageAddr::zero()
            };
            m.program(addr, payload).unwrap();
            h.program(addr, payload).unwrap();
            assert_eq!(m.read(addr).unwrap(), h.read(addr).unwrap());
        }
        m.erase_block(PageAddr::zero()).unwrap();
        h.erase_block(PageAddr::zero()).unwrap();
        assert_eq!(m.op_counts(), h.op_counts());
        assert!(matches!(
            m.read(PageAddr::zero()),
            Err(FlashError::ReadUnwritten(_))
        ));
        // Erase-before-program semantics hold on the image too.
        m.program(PageAddr::zero(), b"fresh").unwrap();
        assert!(matches!(
            m.program(PageAddr::zero(), b"again"),
            Err(FlashError::ProgramWithoutErase(_))
        ));
    }
}
