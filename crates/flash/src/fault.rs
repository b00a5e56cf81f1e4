//! Fault injection: a layered model of NAND read failures.
//!
//! Real NAND does not fail as a static list of bad pages. Failures come
//! in layers with very different recovery stories (§2.2 background;
//! reliability behaviour follows standard NAND practice):
//!
//! * **Transient ECC failures** — a read trips the ECC decoder, but a
//!   *read-retry* at a shifted sense voltage usually succeeds. The
//!   simulator models this as a deterministic per-page *fail count*: a
//!   transient-faulty page fails its first `fail_count` read attempts
//!   and succeeds on every attempt after that. Replays are exactly
//!   reproducible, and a retry budget larger than the plan's
//!   `max_fail_attempts` is *guaranteed* to recover every transient
//!   page — which is what lets the chaos harness pin "transient-only
//!   faults + retries ⇒ bit-identical results".
//! * **Permanent page failures** — the page fails every attempt. The
//!   data is still recoverable once through the slow soft-decode
//!   "last-gasp" path, so the FTL can remap the block and retire it.
//! * **Wear-coupled failures** — a page becomes permanently unreadable
//!   once its block's erase count crosses a threshold (program/erase
//!   cycling wears out cells). Same recovery story as permanent pages.
//! * **Outage domains** — a whole channel or chip drops off the bus
//!   (firmware hang, broken TSV). There is no remap source: reads fail
//!   every attempt and the data is *lost* until re-written by the host.
//!
//! A [`FaultPlan`] composes any subset of these layers, and
//! [`FaultPlan::outcome`] answers "what happens to attempt `n` of a
//! read of this page?" deterministically — same plan, same answer, on
//! every replay and at every scan parallelism.

use crate::geometry::{PageAddr, SsdGeometry};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// What happens to one read attempt of one page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The attempt succeeds.
    Ok,
    /// The attempt fails ECC, but a retry may succeed.
    Transient,
    /// The attempt fails ECC and no number of retries will help.
    Permanent,
}

/// The transient-fault layer: a deterministic fraction of pages fail
/// their first few read attempts and then recover.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransientFaults {
    /// Fraction of pages affected, in `[0, 1]`.
    pub rate: f64,
    /// Seed for the page-selection and fail-count hashes.
    pub seed: u64,
    /// Upper bound on any page's fail count (each affected page fails
    /// a deterministic `1..=max_fail_attempts` attempts, then recovers).
    pub max_fail_attempts: u32,
}

/// A deterministic, layered plan of NAND read faults.
///
/// The plan is pure configuration: it owns no clock and no RNG state,
/// so the same plan produces the same outcome for the same
/// `(page, attempt)` on every replay.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Pages that fail every read attempt (remappable: the bytes are
    /// still recoverable once via the soft-decode path).
    permanent: HashSet<u64>,
    /// Transient layer, if armed. `Some` with `rate == 0.0` still
    /// counts as armed: every read consults the layer.
    transient: Option<TransientFaults>,
    /// Blocks whose erase count reaches this threshold fail
    /// permanently (remappable).
    wear_threshold: Option<u64>,
    /// Channels that dropped off the bus entirely (no remap source).
    dead_channels: HashSet<u64>,
    /// `(channel, chip)` pairs that dropped off the bus (no remap
    /// source).
    dead_chips: HashSet<(u64, u64)>,
}

/// splitmix64 of `seed ^ f(idx)` — the repo-wide deterministic hash.
fn splitmix(seed: u64, idx: u64) -> u64 {
    let mut z = seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Marks a specific page as permanently unreadable.
    pub fn fail_page(mut self, geometry: &SsdGeometry, addr: PageAddr) -> Self {
        self.permanent.insert(geometry.page_index(addr));
        self
    }

    /// Permanently fails an (approximately) `rate` fraction of all
    /// pages, deterministically derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn random(geometry: &SsdGeometry, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        let mut permanent = HashSet::new();
        let threshold = (rate * u64::MAX as f64) as u64;
        for idx in 0..geometry.total_pages() {
            if splitmix(seed, idx) < threshold {
                permanent.insert(idx);
            }
        }
        FaultPlan {
            permanent,
            ..FaultPlan::default()
        }
    }

    /// Arms the transient layer: an (approximately) `rate` fraction of
    /// pages fail their first 1–3 read attempts and then recover.
    /// Use [`FaultPlan::transient_max_failures`] to change the bound.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn transient(mut self, rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        let max_fail_attempts = self.transient.as_ref().map_or(3, |t| t.max_fail_attempts);
        self.transient = Some(TransientFaults {
            rate,
            seed,
            max_fail_attempts,
        });
        self
    }

    /// Caps every transient page's fail count at `n` attempts (a retry
    /// budget of more than `n` attempts is then guaranteed to recover
    /// every transient page).
    ///
    /// # Panics
    ///
    /// Panics if the transient layer is not armed or `n` is zero.
    pub fn transient_max_failures(mut self, n: u32) -> Self {
        assert!(n >= 1, "a transient page fails at least one attempt");
        let t = self
            .transient
            .as_mut()
            .expect("arm the transient layer first");
        t.max_fail_attempts = n;
        self
    }

    /// Pages of blocks whose erase count reaches `erases` fail
    /// permanently (wear-out).
    pub fn wear_threshold(mut self, erases: u64) -> Self {
        self.wear_threshold = Some(erases);
        self
    }

    /// Marks a whole channel as dead: every read on it fails and there
    /// is no remap source (the data is lost).
    pub fn dead_channel(mut self, channel: usize) -> Self {
        self.dead_channels.insert(channel as u64);
        self
    }

    /// Marks one chip as dead: every read on it fails and there is no
    /// remap source (the data is lost).
    pub fn dead_chip(mut self, channel: usize, chip: usize) -> Self {
        self.dead_chips.insert((channel as u64, chip as u64));
        self
    }

    /// A plan that kills the whole device: every channel is an outage
    /// domain, so every read fails permanently with no remap source.
    /// This is how a cluster simulates losing an entire drive.
    pub fn dead_device(geometry: &SsdGeometry) -> Self {
        let mut plan = FaultPlan::none();
        for ch in 0..geometry.channels {
            plan = plan.dead_channel(ch);
        }
        plan
    }

    /// The dead channels, sorted. Surfaces the outage topology so
    /// higher layers (cluster replica placement, rebalancing) can
    /// reason about which fault domains a drive has lost.
    pub fn dead_channel_list(&self) -> Vec<usize> {
        let mut chs: Vec<usize> = self.dead_channels.iter().map(|&c| c as usize).collect();
        chs.sort_unstable();
        chs
    }

    /// The dead `(channel, chip)` pairs, sorted.
    pub fn dead_chip_list(&self) -> Vec<(usize, usize)> {
        let mut chips: Vec<(usize, usize)> = self
            .dead_chips
            .iter()
            .map(|&(c, ch)| (c as usize, ch as usize))
            .collect();
        chips.sort_unstable();
        chips
    }

    /// Summarizes the plan's outage domains against a geometry: how
    /// much of the address space is lossy with no remap source.
    pub fn outage_summary(&self, geometry: &SsdGeometry) -> OutageSummary {
        let pages_per_chip = (geometry.planes_per_chip
            * geometry.blocks_per_plane
            * geometry.pages_per_block) as u64;
        let pages_per_channel = geometry.chips_per_channel as u64 * pages_per_chip;
        let channel_pages = self.dead_channels.len() as u64 * pages_per_channel;
        // Chips inside an already-dead channel must not be double
        // counted.
        let extra_chip_pages = self
            .dead_chips
            .iter()
            .filter(|(c, _)| !self.dead_channels.contains(c))
            .count() as u64
            * pages_per_chip;
        OutageSummary {
            dead_channels: self.dead_channel_list(),
            dead_chips: self.dead_chip_list(),
            outage_pages: channel_pages + extra_chip_pages,
            total_pages: geometry.total_pages(),
        }
    }

    /// How many attempts a transient-faulty page fails before it
    /// recovers: a deterministic value in `1..=max_fail_attempts`.
    /// `0` for pages the transient layer does not affect.
    fn transient_fail_count(&self, idx: u64) -> u32 {
        let Some(t) = &self.transient else { return 0 };
        let threshold = (t.rate * u64::MAX as f64) as u64;
        // Domain-separate the selection hash from the fail-count hash
        // so the fail count is independent of how close the page was
        // to the selection threshold.
        if splitmix(t.seed, idx) >= threshold {
            return 0;
        }
        let max = t.max_fail_attempts.max(1);
        1 + (splitmix(t.seed ^ 0x5EED_C0DE_F417_0001, idx) % u64::from(max)) as u32
    }

    /// True when `addr` sits in a dead channel or dead chip: the read
    /// fails every attempt *and* there is no remap source.
    pub fn in_outage_domain(&self, addr: PageAddr) -> bool {
        self.dead_channels.contains(&(addr.channel as u64))
            || self
                .dead_chips
                .contains(&(addr.channel as u64, addr.chip as u64))
    }

    /// The outcome of read attempt `attempt` (0-based) of `addr`, given
    /// the current erase count of the page's block.
    ///
    /// Deterministic: depends only on the plan, the address, the
    /// attempt index and `block_erases` — never on wall-clock state.
    pub fn outcome(
        &self,
        geometry: &SsdGeometry,
        addr: PageAddr,
        attempt: u32,
        block_erases: u64,
    ) -> FaultOutcome {
        if self.in_outage_domain(addr) {
            return FaultOutcome::Permanent;
        }
        let idx = geometry.page_index(addr);
        if self.permanent.contains(&idx) {
            return FaultOutcome::Permanent;
        }
        if let Some(limit) = self.wear_threshold {
            if block_erases >= limit {
                return FaultOutcome::Permanent;
            }
        }
        if attempt < self.transient_fail_count(idx) {
            return FaultOutcome::Transient;
        }
        FaultOutcome::Ok
    }

    /// Whether a single-attempt read of the page fails for a
    /// *non-transient* reason (the pre-retry notion of "this page is
    /// bad"; transient pages are not reported here because a retry
    /// recovers them).
    pub fn fails(&self, geometry: &SsdGeometry, addr: PageAddr) -> bool {
        self.in_outage_domain(addr) || self.permanent.contains(&geometry.page_index(addr))
    }

    /// Number of permanently failing pages (outage domains and the
    /// wear layer are address-space-sized and not counted here).
    pub fn len(&self) -> usize {
        self.permanent.len()
    }

    /// True when no fault layer is armed. A transient layer with
    /// `rate == 0` still counts as armed: reads consult it.
    pub fn is_empty(&self) -> bool {
        self.permanent.is_empty()
            && self.transient.is_none()
            && self.wear_threshold.is_none()
            && self.dead_channels.is_empty()
            && self.dead_chips.is_empty()
    }
}

/// A fault plan's outage topology against a concrete geometry: which
/// fault domains are gone, and how much of the address space they
/// cover. Produced by [`FaultPlan::outage_summary`]; the cluster layer
/// uses it to decide whether a drive is partially degraded (route
/// around the affected partitions) or fully dead (stop placing
/// replicas on it).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageSummary {
    /// Dead channels, sorted.
    pub dead_channels: Vec<usize>,
    /// Dead `(channel, chip)` pairs, sorted.
    pub dead_chips: Vec<(usize, usize)>,
    /// Pages inside an outage domain (unreadable, no remap source).
    pub outage_pages: u64,
    /// Total pages in the geometry.
    pub total_pages: u64,
}

impl OutageSummary {
    /// True when every page of the device is inside an outage domain.
    pub fn device_dead(&self) -> bool {
        self.total_pages > 0 && self.outage_pages == self.total_pages
    }

    /// Fraction of the address space inside outage domains, in `[0, 1]`.
    pub fn outage_fraction(&self) -> f64 {
        if self.total_pages == 0 {
            0.0
        } else {
            self.outage_pages as f64 / self.total_pages as f64
        }
    }
}

/// Per-scan read-fault statistics.
///
/// Retry counts feed the timing model (each retry round has an
/// escalating simulated cost) and the per-retry trace spans.
/// Deterministic by construction: every count is derived from the fault
/// plan and the read order, which are fixed per scan shard.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReadFaultStats {
    /// `retries_by_round[r]` counts issued retry number `r + 1` across
    /// all reads (a read that needed three attempts contributes to
    /// rounds 0 and 1). The index is the input to the escalating
    /// retry-latency ladder.
    pub retries_by_round: Vec<u64>,
    /// Reads that succeeded after at least one retry.
    pub recovered: u64,
    /// Reads that failed permanently but have a remap source (page or
    /// wear faults: the FTL will retire the block and remap the data).
    pub remappable: u64,
    /// Reads that failed with no remap source (outage domains): the
    /// data is lost until rewritten.
    pub lost: u64,
}

impl ReadFaultStats {
    /// Fresh, all-zero stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that retry round `round` (0-based) was issued.
    pub fn on_retry(&mut self, round: usize) {
        if self.retries_by_round.len() <= round {
            self.retries_by_round.resize(round + 1, 0);
        }
        self.retries_by_round[round] += 1;
    }

    /// Total retries issued.
    pub fn total_retries(&self) -> u64 {
        self.retries_by_round.iter().sum()
    }

    /// Folds another shard's stats into this one. Merging is
    /// commutative and associative, so any deterministic merge order
    /// (the engine uses channel order) yields identical totals.
    pub fn merge(&mut self, other: &ReadFaultStats) {
        if self.retries_by_round.len() < other.retries_by_round.len() {
            self.retries_by_round
                .resize(other.retries_by_round.len(), 0);
        }
        for (mine, theirs) in self
            .retries_by_round
            .iter_mut()
            .zip(&other.retries_by_round)
        {
            *mine += theirs;
        }
        self.recovered += other.recovered;
        self.remappable += other.remappable;
        self.lost += other.lost;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SsdConfig;

    #[test]
    fn explicit_page_fails() {
        let g = SsdConfig::small().geometry;
        let plan = FaultPlan::none().fail_page(&g, PageAddr::zero());
        assert!(plan.fails(&g, PageAddr::zero()));
        let other = PageAddr {
            block: 1,
            ..PageAddr::zero()
        };
        assert!(!plan.fails(&g, other));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn random_plan_hits_roughly_the_rate() {
        let g = SsdConfig::small().geometry;
        let plan = FaultPlan::random(&g, 0.1, 42);
        let total = g.total_pages() as f64;
        let frac = plan.len() as f64 / total;
        assert!((frac - 0.1).abs() < 0.03, "frac = {frac}");
    }

    #[test]
    fn random_plan_is_deterministic() {
        let g = SsdConfig::small().geometry;
        assert_eq!(
            FaultPlan::random(&g, 0.05, 7),
            FaultPlan::random(&g, 0.05, 7)
        );
        assert_ne!(
            FaultPlan::random(&g, 0.05, 7),
            FaultPlan::random(&g, 0.05, 8)
        );
    }

    #[test]
    fn zero_rate_is_empty() {
        let g = SsdConfig::small().geometry;
        assert!(FaultPlan::random(&g, 0.0, 1).is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn bad_rate_panics() {
        let g = SsdConfig::small().geometry;
        let _ = FaultPlan::random(&g, 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "rate")]
    fn bad_transient_rate_panics() {
        let _ = FaultPlan::none().transient(-0.5, 0);
    }

    #[test]
    fn armed_zero_rate_transient_is_not_empty() {
        // A rate-0 transient layer still forces reads through the
        // layered outcome path.
        let plan = FaultPlan::none().transient(0.0, 1);
        assert!(!plan.is_empty());
        let g = SsdConfig::small().geometry;
        assert_eq!(plan.outcome(&g, PageAddr::zero(), 0, 0), FaultOutcome::Ok);
    }

    #[test]
    fn transient_pages_recover_within_the_bound() {
        let g = SsdConfig::small().geometry;
        let plan = FaultPlan::none()
            .transient(0.3, 11)
            .transient_max_failures(3);
        let mut affected = 0u64;
        for idx in 0..g.total_pages() {
            let addr = g.page_from_index(idx);
            let mut fails = 0u32;
            for attempt in 0.. {
                match plan.outcome(&g, addr, attempt, 0) {
                    FaultOutcome::Transient => fails += 1,
                    FaultOutcome::Ok => break,
                    FaultOutcome::Permanent => panic!("transient-only plan"),
                }
                assert!(attempt < 8, "page {idx} never recovered");
            }
            // Outcomes are monotone: once a page recovers it stays
            // recovered (attempt >= fail count), and the fail count is
            // bounded by the configured maximum.
            assert!(fails <= 3, "page {idx} failed {fails} attempts");
            if fails > 0 {
                affected += 1;
                assert_eq!(plan.outcome(&g, addr, fails, 0), FaultOutcome::Ok);
                assert_eq!(plan.outcome(&g, addr, fails + 7, 0), FaultOutcome::Ok);
            }
        }
        let frac = affected as f64 / g.total_pages() as f64;
        assert!((frac - 0.3).abs() < 0.05, "frac = {frac}");
        // `fails` (the pre-retry probe) does not report transient pages.
        assert!(!plan.fails(&g, PageAddr::zero()) || !plan.is_empty());
    }

    #[test]
    fn wear_threshold_trips_permanent() {
        let g = SsdConfig::small().geometry;
        let plan = FaultPlan::none().wear_threshold(5);
        let addr = PageAddr::zero();
        assert_eq!(plan.outcome(&g, addr, 0, 4), FaultOutcome::Ok);
        assert_eq!(plan.outcome(&g, addr, 0, 5), FaultOutcome::Permanent);
        assert_eq!(plan.outcome(&g, addr, 3, 9), FaultOutcome::Permanent);
        assert!(!plan.is_empty());
    }

    #[test]
    fn outage_domains_fail_whole_units() {
        let g = SsdConfig::small().geometry;
        let plan = FaultPlan::none().dead_channel(1).dead_chip(2, 1);
        let on_dead_channel = PageAddr {
            channel: 1,
            ..PageAddr::zero()
        };
        let on_dead_chip = PageAddr {
            channel: 2,
            chip: 1,
            ..PageAddr::zero()
        };
        let healthy = PageAddr {
            channel: 2,
            ..PageAddr::zero()
        };
        for attempt in 0..4 {
            assert_eq!(
                plan.outcome(&g, on_dead_channel, attempt, 0),
                FaultOutcome::Permanent
            );
            assert_eq!(
                plan.outcome(&g, on_dead_chip, attempt, 0),
                FaultOutcome::Permanent
            );
            assert_eq!(plan.outcome(&g, healthy, attempt, 0), FaultOutcome::Ok);
        }
        assert!(plan.in_outage_domain(on_dead_channel));
        assert!(plan.in_outage_domain(on_dead_chip));
        assert!(!plan.in_outage_domain(healthy));
        // Outage faults are visible to the pre-retry probe but are not
        // "permanent pages" (there is no page-granular remap source).
        assert!(plan.fails(&g, on_dead_channel));
        assert_eq!(plan.len(), 0);
    }

    #[test]
    fn layers_serialize_roundtrip() {
        let g = SsdConfig::small().geometry;
        let plan = FaultPlan::random(&g, 0.02, 3)
            .transient(0.1, 9)
            .transient_max_failures(2)
            .wear_threshold(100)
            .dead_channel(3)
            .dead_chip(0, 1);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn outage_summary_counts_domains_once() {
        let g = SsdConfig::small().geometry;
        let pages_per_chip = (g.planes_per_chip * g.blocks_per_plane * g.pages_per_block) as u64;
        // A dead chip inside a dead channel must not double count.
        let plan = FaultPlan::none()
            .dead_channel(1)
            .dead_chip(1, 0)
            .dead_chip(2, 1);
        let s = plan.outage_summary(&g);
        assert_eq!(s.dead_channels, vec![1]);
        assert_eq!(s.dead_chips, vec![(1, 0), (2, 1)]);
        assert_eq!(
            s.outage_pages,
            g.chips_per_channel as u64 * pages_per_chip + pages_per_chip
        );
        assert!(!s.device_dead());
        assert!(s.outage_fraction() > 0.0 && s.outage_fraction() < 1.0);
    }

    #[test]
    fn dead_device_covers_every_page() {
        let g = SsdConfig::small().geometry;
        let plan = FaultPlan::dead_device(&g);
        let s = plan.outage_summary(&g);
        assert!(s.device_dead());
        assert_eq!(s.outage_pages, g.total_pages());
        assert_eq!(s.outage_fraction(), 1.0);
        assert_eq!(s.dead_channels.len(), g.channels);
        // Every address is in an outage domain.
        let addr = PageAddr {
            channel: g.channels - 1,
            chip: 0,
            plane: 0,
            block: 0,
            page: 0,
        };
        assert!(plan.in_outage_domain(addr));
    }

    #[test]
    fn read_fault_stats_merge_is_exact() {
        let mut a = ReadFaultStats::new();
        a.on_retry(0);
        a.on_retry(0);
        a.on_retry(1);
        a.recovered = 2;
        let mut b = ReadFaultStats::new();
        b.on_retry(0);
        b.on_retry(2);
        b.remappable = 1;
        b.lost = 3;
        a.merge(&b);
        assert_eq!(a.retries_by_round, vec![3, 1, 1]);
        assert_eq!(a.total_retries(), 5);
        assert_eq!((a.recovered, a.remappable, a.lost), (2, 1, 3));
    }
}
