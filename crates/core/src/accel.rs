//! In-storage accelerator timing and access-count models.
//!
//! For each accelerator placement (§4.5) this module computes the time and
//! the event counts of a full-database scan:
//!
//! * **SSD-level** — one 32×64 OS accelerator beside the controller. It
//!   enjoys the full internal bandwidth (flash stream capped by the
//!   20 GB/s DRAM path) but processes one feature vector at a time, so it
//!   is limited by single-vector SCN latency and "the lack of parallelism"
//!   (§6.2).
//! * **Channel-level** — one 16×64 OS accelerator per channel, fed by its
//!   own 800 MB/s channel stream through the FLASH_DFV prefetch queue
//!   (§4.4), with model weights multicast from the shared 8 MB SSD-level
//!   scratchpad (the "32× weight reuse" of §6.2).
//! * **Chip-level** — one 4×32 WS accelerator per chip, draining its own
//!   chip directly; the channel-level hierarchy broadcasts weight tiles
//!   over the channel bus in lockstep across the chips (§4.5), so models
//!   whose weights do not stay resident pay a per-pass broadcast.
//!
//! The compute side uses the single-feature cycle models of
//! `deepstore_systolic::cycles`; prefetching overlaps flash streaming with
//! compute, so each shard's time is the max of its compute and stream
//! terms (§4.4: "the FLASH_DFV queue isolates the computation in the
//! accelerator and the data loading from the flash chip").

use crate::config::{AcceleratorConfig, AcceleratorLevel, DeepStoreConfig};
use deepstore_flash::layout::DbLayout;
use deepstore_flash::stream::{stripe_pages, ChannelStream};
use deepstore_flash::SimDuration;
use deepstore_nn::{LayerShape, Model};
use deepstore_systolic::counts::scn_counts_per_feature;
use deepstore_systolic::cycles::{scn_cycles_per_feature, ws_plan, ws_tile_cycles_per_feature};
use deepstore_systolic::AccessCounts;
use serde::{Deserialize, Serialize};

/// FLASH_DFV prefetch-queue capacity in pages (§4.4, Figure 5): the
/// channel accelerator's 512 KB scratchpad reserves ~160 KB (ten 16 KB
/// pages) for the DFV staging region, bounding how far flash reads can
/// run ahead of the SCN. This is what gives the channel level its mild
/// (~10% at 4x) sensitivity to flash read latency in Figure 9c.
pub const DFV_QUEUE_PAGES: usize = 10;

/// A full-database scan workload, as seen by the in-storage accelerators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanWorkload {
    /// SCN layer shapes (including the element-wise merge pseudo-layer).
    pub shapes: Vec<LayerShape>,
    /// Total SCN weight bytes.
    pub weight_bytes: u64,
    /// Bytes per feature vector.
    pub feature_bytes: usize,
    /// Database layout on flash.
    pub layout: DbLayout,
}

impl ScanWorkload {
    /// Builds the workload for scanning `db_bytes` of features with a
    /// model, using the configuration's placement and page size.
    pub fn from_model(model: &Model, db_bytes: u64, cfg: &DeepStoreConfig) -> Self {
        let layout = DbLayout::for_payload(
            model.feature_bytes(),
            db_bytes,
            cfg.ssd.geometry.page_bytes,
            cfg.placement,
        );
        ScanWorkload {
            shapes: model.layer_shapes(),
            weight_bytes: model.weight_bytes(),
            feature_bytes: model.feature_bytes(),
            layout,
        }
    }

    /// Feature vectors in the database.
    pub fn num_features(&self) -> u64 {
        self.layout.num_features
    }

    /// MACs per comparison.
    pub fn macs_per_cmp(&self) -> u64 {
        self.shapes.iter().map(|s| s.macs()).sum()
    }
}

/// Result of the scan timing model for one accelerator level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScanTiming {
    /// End-to-end scan time.
    pub elapsed: SimDuration,
    /// Compute time of the slowest accelerator shard.
    pub compute: SimDuration,
    /// Flash streaming time of the slowest shard.
    pub flash: SimDuration,
    /// Weight distribution time (DRAM load, L2 multicast or channel-bus
    /// broadcast, depending on the level).
    pub weights: SimDuration,
    /// Total event counts across all accelerators (for the energy model).
    pub counts: AccessCounts,
    /// Accelerator instances participating.
    pub accelerators: usize,
}

/// Per-shard flash timing detail: how long one parallel unit (channel,
/// or chip at the chip level) streams its share of the scan, and how
/// much of that its pages spent waiting for the shared channel bus.
/// Recomputed from the same deterministic stream model as [`scan`], so
/// trace timelines built from it agree with the scan's `flash` term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTiming {
    /// Channel index (or chip index at the chip level).
    pub unit: usize,
    /// Pages this unit streams.
    pub pages: u64,
    /// Total stream time for this unit.
    pub stream: SimDuration,
    /// Summed channel-bus arbitration wait across this unit's pages.
    pub bus_wait: SimDuration,
}

/// Per-shard flash stream timings for a scan at `level`: one entry per
/// parallel unit, in unit order. The maximum `stream` over all entries
/// equals the `flash` term of [`scan`]'s [`ScanTiming`] at the channel
/// and chip levels; at the SSD level it equals the internal-stream
/// component (the `flash` term also folds in the controller DRAM path).
pub fn shard_timings(
    level: AcceleratorLevel,
    workload: &ScanWorkload,
    cfg: &DeepStoreConfig,
) -> Vec<ShardTiming> {
    let pages = workload.layout.total_pages();
    let (per_unit, model) = match level {
        AcceleratorLevel::Ssd => (
            stripe_pages(pages, cfg.ssd.geometry.channels),
            ChannelStream::new(&cfg.ssd),
        ),
        AcceleratorLevel::Channel => (
            stripe_pages(pages, cfg.ssd.geometry.channels),
            ChannelStream::new(&cfg.ssd).with_dfv_queue(DFV_QUEUE_PAGES),
        ),
        AcceleratorLevel::Chip => (
            stripe_pages(pages, cfg.ssd.geometry.total_chips()),
            ChannelStream::for_chip_direct(&cfg.ssd),
        ),
    };
    per_unit
        .iter()
        .enumerate()
        .map(|(unit, &p)| {
            let stats = model.stream_pages_detailed(p);
            ShardTiming {
                unit,
                pages: p,
                stream: stats.total,
                bus_wait: stats.bus_wait,
            }
        })
        .collect()
}

/// Computes the scan timing at a given level.
///
/// Returns `None` when the level cannot execute the workload — the paper's
/// chip-level accelerator "can not execute ReId due to limited compute and
/// on-chip memory resources" (Table 4, note 1).
pub fn scan(
    level: AcceleratorLevel,
    workload: &ScanWorkload,
    cfg: &DeepStoreConfig,
) -> Option<ScanTiming> {
    match level {
        AcceleratorLevel::Ssd => Some(ssd_level_scan(workload, cfg)),
        AcceleratorLevel::Channel => Some(channel_level_scan(workload, cfg)),
        AcceleratorLevel::Chip => chip_level_scan(workload, cfg),
    }
}

fn per_feature_counts(shapes: &[LayerShape], acc: &AcceleratorConfig) -> AccessCounts {
    scn_counts_per_feature(shapes, &acc.array)
}

/// Computes the scan timing for a batch of queries sharing one flash pass.
///
/// A batched scan streams the database and distributes the model weights
/// exactly once while scoring every feature against all `batch` query
/// feature vectors, so the compute term scales with the batch while the
/// flash and weight terms do not. For flash-bound workloads the batch
/// rides along for free until compute catches up with the stream.
/// `scan_batch(level, w, cfg, 1)` is identical to `scan(level, w, cfg)`.
///
/// Returns `None` exactly when [`scan`] does (no mapping at this level).
pub fn scan_batch(
    level: AcceleratorLevel,
    workload: &ScanWorkload,
    cfg: &DeepStoreConfig,
    batch: usize,
) -> Option<ScanTiming> {
    let single = scan(level, workload, cfg)?;
    if batch <= 1 {
        return Some(single);
    }
    let acc = AcceleratorConfig::for_level(level);
    let compute = SimDuration::from_secs_f64(single.compute.as_secs_f64() * batch as f64);
    // The extra batch members re-run the SCN on every feature but add no
    // flash-page or weight-distribution traffic.
    let extra = per_feature_counts(&workload.shapes, &acc)
        .scaled(workload.num_features() * (batch as u64 - 1));
    let elapsed = match level {
        AcceleratorLevel::Ssd | AcceleratorLevel::Channel => {
            compute.max(single.flash) + single.weights
        }
        // The chip-level lockstep pipeline is paced by the slowest of
        // compute, flash and broadcast, plus the trailing bus transfer
        // (same composition as `chip_level_scan`).
        AcceleratorLevel::Chip => {
            compute.max(single.flash).max(single.weights)
                + SimDuration::for_transfer(
                    workload.weight_bytes,
                    cfg.ssd.timing.channel_bus_bytes_per_sec,
                )
        }
    };
    Some(ScanTiming {
        elapsed,
        compute,
        counts: single.counts + extra,
        ..single
    })
}

/// SSD-level scan: one accelerator, full internal bandwidth through DRAM.
pub fn ssd_level_scan(workload: &ScanWorkload, cfg: &DeepStoreConfig) -> ScanTiming {
    let acc = AcceleratorConfig::ssd_level();
    let n = workload.num_features();
    let cycles_per_feature =
        scn_cycles_per_feature(&workload.shapes, &acc.array) + cfg.controller_overhead_cycles;
    let compute =
        SimDuration::from_secs_f64(acc.array.cycles_to_secs(cycles_per_feature) * n as f64);

    // Flash streams from all channels; the single accelerator ingests via
    // the controller DRAM path.
    let pages = workload.layout.total_pages();
    let per_channel = stripe_pages(pages, cfg.ssd.geometry.channels);
    let internal = deepstore_flash::stream::all_channels_stream(&cfg.ssd, &per_channel);
    let dram_path = SimDuration::for_transfer(
        pages * cfg.ssd.geometry.page_bytes as u64,
        cfg.ssd.timing.dram_bytes_per_sec,
    );
    let flash = internal.max(dram_path);

    // Weights: loaded from DRAM; if they do not fit the 8 MB scratchpad
    // the stream repeats per feature batch, fully pipelined with compute
    // (§4.5: "fetching weights in DRAM and computing ... can be fully
    // pipelined"), so it costs bandwidth/energy but only one load of
    // latency.
    let plan = ws_plan(
        workload.weight_bytes,
        workload.feature_bytes as u64,
        &acc.array,
    );
    let weight_passes = if plan.weights_resident {
        1
    } else {
        n.div_ceil(plan.batch_per_pass).max(1)
    };
    let weights =
        SimDuration::for_transfer(workload.weight_bytes, cfg.ssd.timing.dram_bytes_per_sec);

    let mut counts = per_feature_counts(&workload.shapes, &acc).scaled(n);
    counts.flash_pages += pages;
    counts.dram_bytes +=
        workload.weight_bytes * weight_passes + pages * cfg.ssd.geometry.page_bytes as u64; // DFVs staged via DRAM

    ScanTiming {
        elapsed: compute.max(flash) + weights,
        compute,
        flash,
        weights,
        counts,
        accelerators: 1,
    }
}

/// Channel-level scan: one accelerator per channel, weights multicast from
/// the shared L2.
pub fn channel_level_scan(workload: &ScanWorkload, cfg: &DeepStoreConfig) -> ScanTiming {
    let acc = AcceleratorConfig::channel_level();
    let channels = cfg.ssd.geometry.channels;
    let n = workload.num_features();
    let shard = n.div_ceil(channels as u64);
    let cycles_per_feature =
        scn_cycles_per_feature(&workload.shapes, &acc.array) + cfg.controller_overhead_cycles;
    let compute =
        SimDuration::from_secs_f64(acc.array.cycles_to_secs(cycles_per_feature) * shard as f64);

    let pages = workload.layout.total_pages();
    let per_channel = stripe_pages(pages, channels);
    let stream = ChannelStream::new(&cfg.ssd).with_dfv_queue(DFV_QUEUE_PAGES);
    let flash = per_channel
        .iter()
        .map(|&p| stream.stream_pages(p))
        .fold(SimDuration::ZERO, SimDuration::max);

    // Weights: DRAM -> L2 once, then multicast to the channel accelerators
    // over the internal bus, re-streamed once per feature batch.
    let plan = ws_plan(
        workload.weight_bytes,
        workload.feature_bytes as u64,
        &acc.array,
    );
    let passes = if plan.weights_resident {
        1
    } else {
        shard.div_ceil(plan.batch_per_pass).max(1)
    };
    let weights =
        SimDuration::for_transfer(workload.weight_bytes, cfg.ssd.timing.dram_bytes_per_sec);

    let mut counts = per_feature_counts(&workload.shapes, &acc).scaled(n);
    counts.flash_pages += pages;
    counts.dram_bytes += workload.weight_bytes;
    // One L2 read per multicast pass; the broadcast reaches `channels`
    // accelerators over the NoC.
    counts.l2_read_bytes += workload.weight_bytes * passes;
    counts.noc_bytes += workload.weight_bytes * passes * channels as u64;

    ScanTiming {
        elapsed: compute.max(flash) + weights,
        compute,
        flash,
        weights,
        counts,
        accelerators: channels,
    }
}

/// Chip-level scan: one WS accelerator per chip, weight tiles broadcast in
/// lockstep over each channel bus.
///
/// Returns `None` when the model has no chip-level mapping (convolutions
/// whose reduction exceeds the 128-PE array — ReId).
pub fn chip_level_scan(workload: &ScanWorkload, cfg: &DeepStoreConfig) -> Option<ScanTiming> {
    let acc = AcceleratorConfig::chip_level();
    let chips = cfg.ssd.geometry.total_chips();
    let n = workload.num_features();
    let shard = n.div_ceil(chips as u64);
    let cycles_per_feature =
        ws_tile_cycles_per_feature(&workload.shapes, &acc.array)? + cfg.controller_overhead_cycles;
    let compute =
        SimDuration::from_secs_f64(acc.array.cycles_to_secs(cycles_per_feature) * shard as f64);

    // Each chip drains its own planes directly (no channel-bus contention
    // for DFVs).
    let pages = workload.layout.total_pages();
    let pages_per_chip = stripe_pages(pages, chips);
    let chip_stream = ChannelStream::for_chip_direct(&cfg.ssd);
    let flash = pages_per_chip
        .iter()
        .map(|&p| chip_stream.stream_pages(p))
        .fold(SimDuration::ZERO, SimDuration::max);

    // Weight-tile broadcast over the channel bus, shared by the channel's
    // chips in lockstep (§4.5). Non-resident models re-broadcast the whole
    // weight set once per feature batch.
    let plan = ws_plan(
        workload.weight_bytes,
        workload.feature_bytes as u64,
        &acc.array,
    );
    let passes = if plan.weights_resident {
        1
    } else {
        shard.div_ceil(plan.batch_per_pass).max(1)
    };
    let broadcast = SimDuration::for_transfer(
        workload.weight_bytes * passes,
        cfg.ssd.timing.channel_bus_bytes_per_sec,
    );

    let mut counts = per_feature_counts(&workload.shapes, &acc).scaled(n);
    counts.flash_pages += pages;
    counts.dram_bytes += workload.weight_bytes * passes;
    counts.noc_bytes += workload.weight_bytes * passes * cfg.ssd.geometry.channels as u64;

    Some(ScanTiming {
        // The broadcast paces the lockstep pipeline: it overlaps compute
        // only up to the slower of the two.
        elapsed: compute.max(flash).max(broadcast)
            + SimDuration::for_transfer(
                workload.weight_bytes,
                cfg.ssd.timing.channel_bus_bytes_per_sec,
            ),
        compute,
        flash,
        weights: broadcast,
        counts,
        accelerators: chips,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepstore_nn::zoo;

    const DB: u64 = 25 * (1 << 30);

    fn cfg() -> DeepStoreConfig {
        DeepStoreConfig::paper_default()
    }

    fn workload(app: &str) -> ScanWorkload {
        ScanWorkload::from_model(&zoo::by_name(app).unwrap(), DB, &cfg())
    }

    #[test]
    fn channel_level_is_fastest_for_every_app() {
        for app in ["reid", "mir", "estp", "tir", "textqa"] {
            let w = workload(app);
            let ssd = scan(AcceleratorLevel::Ssd, &w, &cfg()).unwrap();
            let ch = scan(AcceleratorLevel::Channel, &w, &cfg()).unwrap();
            assert!(
                ch.elapsed < ssd.elapsed,
                "{app}: channel {} !< ssd {}",
                ch.elapsed,
                ssd.elapsed
            );
            if let Some(chip) = scan(AcceleratorLevel::Chip, &w, &cfg()) {
                assert!(ch.elapsed < chip.elapsed, "{app}: channel !< chip");
            }
        }
    }

    #[test]
    fn shard_timings_agree_with_scan_flash_term() {
        let w = workload("textqa");
        for level in [AcceleratorLevel::Channel, AcceleratorLevel::Chip] {
            let timing = scan(level, &w, &cfg()).unwrap();
            let shards = shard_timings(level, &w, &cfg());
            let units = match level {
                AcceleratorLevel::Chip => cfg().ssd.geometry.total_chips(),
                _ => cfg().ssd.geometry.channels,
            };
            assert_eq!(shards.len(), units);
            assert_eq!(
                shards.iter().map(|s| s.pages).sum::<u64>(),
                w.layout.total_pages(),
                "{level:?}: shard pages must cover the whole database"
            );
            let slowest = shards
                .iter()
                .map(|s| s.stream)
                .fold(SimDuration::ZERO, SimDuration::max);
            assert_eq!(
                slowest, timing.flash,
                "{level:?}: slowest shard stream must equal the scan flash term"
            );
        }
        // SSD level: the scan's flash term folds in the controller DRAM
        // path, so the slowest shard only bounds it from below.
        let ssd = scan(AcceleratorLevel::Ssd, &w, &cfg()).unwrap();
        let shards = shard_timings(AcceleratorLevel::Ssd, &w, &cfg());
        let slowest = shards
            .iter()
            .map(|s| s.stream)
            .fold(SimDuration::ZERO, SimDuration::max);
        assert!(slowest <= ssd.flash);
        // Pages contending for a shared channel bus must report waits.
        assert!(shards.iter().any(|s| s.bus_wait > SimDuration::ZERO));
    }

    #[test]
    fn chip_level_rejects_reid() {
        // Table 4, note 1.
        assert!(scan(AcceleratorLevel::Chip, &workload("reid"), &cfg()).is_none());
        assert!(scan(AcceleratorLevel::Chip, &workload("mir"), &cfg()).is_some());
    }

    #[test]
    fn small_models_are_flash_bound_at_channel_level() {
        // §4.5: "for applications with smaller layers, such as TextQA, the
        // flash channel bandwidth becomes the bottleneck".
        let t = channel_level_scan(&workload("textqa"), &cfg());
        assert!(t.flash > t.compute, "{t:?}");
        // 25 GiB over 32 channels at ~775 MB/s effective: ~1.0-1.1 s.
        assert!(t.elapsed.as_secs_f64() > 0.9 && t.elapsed.as_secs_f64() < 1.3);
    }

    #[test]
    fn reid_is_compute_bound_at_channel_level() {
        // §6.2: the channel-level accelerator is "limited by the
        // performance of executing SCN with one input feature vector" for
        // large models like ReId.
        let t = channel_level_scan(&workload("reid"), &cfg());
        assert!(t.compute > t.flash, "{t:?}");
    }

    #[test]
    fn ssd_level_is_compute_bound_everywhere() {
        for app in ["reid", "mir", "estp", "tir", "textqa"] {
            let t = ssd_level_scan(&workload(app), &cfg());
            assert!(t.compute > t.flash, "{app}: {t:?}");
        }
    }

    #[test]
    fn counts_cover_all_macs_and_pages() {
        let w = workload("tir");
        let t = channel_level_scan(&w, &cfg());
        assert_eq!(t.counts.macs, w.num_features() * w.macs_per_cmp());
        assert_eq!(t.counts.flash_pages, w.layout.total_pages());
        assert!(t.counts.l2_read_bytes > 0);
    }

    #[test]
    fn chip_level_textqa_weights_stay_resident() {
        // TextQA's 0.157 MB of weights fit the 512 KB chip scratchpad, so
        // the broadcast happens once — one reason TextQA gets the best
        // chip-level speedup (§6.2).
        let t = chip_level_scan(&workload("textqa"), &cfg()).unwrap();
        assert!(t.weights.as_secs_f64() < 0.01, "{}", t.weights);
        let mir = chip_level_scan(&workload("mir"), &cfg()).unwrap();
        assert!(mir.weights > t.weights);
    }

    #[test]
    fn scan_times_match_calibration_targets() {
        // Derived in DESIGN.md §3: channel-level times of ~1.04 s for
        // flash-bound apps and ~3.3 s for compute-bound ReId.
        let ch_mir = channel_level_scan(&workload("mir"), &cfg())
            .elapsed
            .as_secs_f64();
        assert!((0.9..1.3).contains(&ch_mir), "mir channel = {ch_mir}");
        let ch_reid = channel_level_scan(&workload("reid"), &cfg())
            .elapsed
            .as_secs_f64();
        assert!((2.5..4.5).contains(&ch_reid), "reid channel = {ch_reid}");
    }

    #[test]
    fn batch_of_one_is_the_single_query_scan() {
        for app in ["reid", "tir", "textqa"] {
            let w = workload(app);
            for level in [
                AcceleratorLevel::Ssd,
                AcceleratorLevel::Channel,
                AcceleratorLevel::Chip,
            ] {
                assert_eq!(scan_batch(level, &w, &cfg(), 1), scan(level, &w, &cfg()));
            }
        }
    }

    #[test]
    fn batched_scan_amortizes_flash_and_weights() {
        let w = workload("tir");
        let one = scan(AcceleratorLevel::Channel, &w, &cfg()).unwrap();
        let eight = scan_batch(AcceleratorLevel::Channel, &w, &cfg(), 8).unwrap();
        // Flash and weight terms are shared across the batch; only compute
        // (and its counts) scale.
        assert_eq!(eight.flash, one.flash);
        assert_eq!(eight.weights, one.weights);
        assert_eq!(eight.counts.flash_pages, one.counts.flash_pages);
        assert_eq!(eight.counts.macs, one.counts.macs * 8);
        assert!((eight.compute.as_secs_f64() / one.compute.as_secs_f64() - 8.0).abs() < 1e-9);
        // Sharing the pass beats eight sequential scans.
        assert!(eight.elapsed.as_secs_f64() < 8.0 * one.elapsed.as_secs_f64());
        // For flash-bound TIR at channel level, a small batch rides the
        // stream almost for free.
        let two = scan_batch(AcceleratorLevel::Channel, &w, &cfg(), 2).unwrap();
        if 2.0 * one.compute.as_secs_f64() <= one.flash.as_secs_f64() {
            assert_eq!(two.elapsed, one.elapsed);
        }
    }

    #[test]
    fn batched_scan_respects_level_support() {
        assert!(scan_batch(AcceleratorLevel::Chip, &workload("reid"), &cfg(), 4).is_none());
        assert!(scan_batch(AcceleratorLevel::Channel, &workload("reid"), &cfg(), 4).is_some());
    }

    #[test]
    fn accelerator_counts_match_level() {
        let w = workload("mir");
        assert_eq!(ssd_level_scan(&w, &cfg()).accelerators, 1);
        assert_eq!(channel_level_scan(&w, &cfg()).accelerators, 32);
        assert_eq!(chip_level_scan(&w, &cfg()).unwrap().accelerators, 128);
    }
}
