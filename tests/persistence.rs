//! Reopen round-trip equivalence for the persistent single-file image.
//!
//! The contract under test: a device created, populated and flushed
//! into an mmap image behaves **bit-identically** after `close()` +
//! `open()` to an uninterrupted in-memory run of the same workload —
//! ranked top-K (indices, scores, ObjectIDs), coverage, simulated
//! latency, flash op counters and erase counts — at every parallelism
//! setting, with and without armed fault plans. Crash recovery is
//! exercised for real: a child process aborts between `flush()` and
//! `close()` and the parent recovers the last committed state.

mod common;

use common::TempPath;
use deepstore::core::{DeepStore, DeepStoreConfig, DeepStoreError, QueryRequest, QueryResult};
use deepstore::flash::fault::FaultPlan;
use deepstore::flash::FlashOpCounts;
use deepstore::nn::{zoo, Model, ModelGraph, Tensor};
use proptest::prelude::*;

fn features(model: &Model, n: u64) -> Vec<Tensor> {
    (0..n).map(|i| model.random_feature(i)).collect()
}

fn probes(
    model: &Model,
    mid: deepstore::core::ModelId,
    db: deepstore::core::DbId,
    seeds: &[u64],
    k: usize,
) -> Vec<QueryRequest> {
    seeds
        .iter()
        .map(|&s| QueryRequest::new(model.random_feature(s), mid, db).k(k))
        .collect()
}

struct Outcome {
    results: Vec<QueryResult>,
    counts: FlashOpCounts,
    erases: u64,
}

fn run_queries(store: &mut DeepStore, reqs: &[QueryRequest]) -> Outcome {
    let ids = store.query_batch(reqs).unwrap();
    let results = ids.iter().map(|&q| store.results(q).unwrap()).collect();
    Outcome {
        results,
        counts: store.flash_op_counts(),
        erases: store.stats().flash.erases,
    }
}

/// One workload, twice: uninterrupted on the heap backend, and split
/// across a flush/close/open cycle on the mmap backend. `faults` is
/// re-injected after open (fault plans are per-session, never
/// persisted).
fn assert_reopen_equivalent(
    parallelism: usize,
    initial: u64,
    appended: u64,
    probe_seeds: &[u64],
    faults: Option<&FaultPlan>,
) {
    let cfg = DeepStoreConfig::small().with_parallelism(parallelism);
    let model = zoo::tir().seeded_metric(5);
    let k = 4;

    // Uninterrupted in-memory reference run.
    let mut mem = DeepStore::in_memory(cfg.clone());
    mem.disable_qc();
    let db = mem.write_db(&features(&model, initial)).unwrap();
    if appended > 0 {
        mem.append_db(db, &features(&model, appended)).unwrap();
    }
    let mid = mem.load_model(&ModelGraph::from_model(&model)).unwrap();
    if let Some(plan) = faults {
        mem.inject_faults(plan.clone());
    }
    let reqs = probes(&model, mid, db, probe_seeds, k);
    let expected = run_queries(&mut mem, &reqs);

    // Same workload split across a persistence cycle.
    let path = TempPath::new("persist-equiv");
    let mut store = DeepStore::create(&path, cfg).unwrap();
    store.disable_qc();
    let pdb = store.write_db(&features(&model, initial)).unwrap();
    if appended > 0 {
        store.append_db(pdb, &features(&model, appended)).unwrap();
    }
    let pmid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
    assert_eq!((pdb, pmid), (db, mid), "id counters must line up");
    store.flush().unwrap();
    store.close().unwrap();

    let mut back = DeepStore::open(&path).unwrap();
    back.disable_qc();
    assert!(!back.opened_dirty(), "clean close must reopen clean");
    assert_eq!(back.backend(), "mmap");
    if let Some(plan) = faults {
        back.inject_faults(plan.clone());
    }
    let got = run_queries(&mut back, &reqs);

    assert_eq!(
        got.results, expected.results,
        "top-K, coverage and latency must be bit-identical after reopen \
         (parallelism {parallelism}, {initial}+{appended} features)"
    );
    assert_eq!(
        got.counts, expected.counts,
        "flash op counters must resume exactly"
    );
    assert_eq!(got.erases, expected.erases, "erase counts must match");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Write + append + query equivalence across a reopen, at every
    /// parallelism setting. Feature counts stay page-aligned (tir's
    /// 2 KiB features pack 8 to a page) so append-time and rebuilt
    /// cascade sidecars agree.
    #[test]
    fn reopen_roundtrip_is_bit_identical(
        initial in (2u64..=14).prop_map(|n| n * 8),
        appended in (0u64..=6).prop_map(|n| n * 8),
        seeds in proptest::collection::vec(1000u64..9000, 1..=3),
    ) {
        for parallelism in [1usize, 2, 4, 0] {
            assert_reopen_equivalent(parallelism, initial, appended, &seeds, None);
        }
    }
}

#[test]
fn reopen_roundtrip_with_armed_fault_plans() {
    // Transient faults under the retry ladder: recovered reads, same
    // ranked answers on both sides of the persistence cycle.
    let transient = FaultPlan::none().transient(0.8, 99);
    assert_reopen_equivalent(1, 96, 16, &[2000, 2001], Some(&transient));
    assert_reopen_equivalent(2, 96, 16, &[2000, 2001], Some(&transient));

    // A dead channel degrades coverage identically in both runs.
    let dead = FaultPlan::none().dead_channel(0);
    for parallelism in [1usize, 4, 0] {
        assert_reopen_equivalent(parallelism, 256, 0, &[3000], Some(&dead));
    }
}

/// The equivalence harness also proves heap-vs-mmap backend parity:
/// every `assert_reopen_equivalent` call above compares a heap run to an
/// mmap run. This test pins the cheap invariants directly.
#[test]
fn backend_identities() {
    let cfg = DeepStoreConfig::small();
    let mem = DeepStore::in_memory(cfg.clone());
    assert_eq!(mem.backend(), "heap");
    assert!(!mem.is_persistent());

    let path = TempPath::new("persist-ident");
    let store = DeepStore::create(&path, cfg).unwrap();
    assert_eq!(store.backend(), "mmap");
    assert!(store.is_persistent());
    assert!(!store.opened_dirty());
    store.close().unwrap();

    // Create refuses to clobber an existing image.
    let err = DeepStore::create(&path, DeepStoreConfig::small()).unwrap_err();
    assert!(matches!(err, DeepStoreError::Flash(_)));
}

/// A writer process dies between `flush()` and `close()`: the reopen
/// reports a dirty close and serves exactly the flushed state. The
/// child role runs in a separate process (`std::process::abort`), so
/// this is a true cross-process recovery, not a simulated one.
#[test]
fn crash_between_flush_and_close_recovers_flushed_state() {
    const ENV: &str = "DEEPSTORE_CRASH_WRITER";
    // The parent hands the child its image path, and with it its role.
    #[allow(clippy::disallowed_methods)]
    let child = std::env::var(ENV);
    if let Ok(path) = child {
        // Child role: create, populate, flush — then die without close.
        let model = zoo::tir().seeded_metric(5);
        let mut store = DeepStore::create(&path, DeepStoreConfig::small()).unwrap();
        let db = store.write_db(&features(&model, 64)).unwrap();
        let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();
        store.flush().unwrap();
        // Post-flush work that must NOT survive: it is never committed.
        store.append_db(db, &features(&model, 8)).unwrap();
        let _ = (db, mid);
        std::process::abort();
    }

    let path = TempPath::new("persist-crash");
    let exe = std::env::current_exe().unwrap();
    let status = std::process::Command::new(exe)
        .args([
            "--exact",
            "crash_between_flush_and_close_recovers_flushed_state",
            "--nocapture",
        ])
        .env(ENV, path.to_str().unwrap())
        .status()
        .unwrap();
    assert!(!status.success(), "the writer must die by abort");

    let mut store = DeepStore::open(&path).unwrap();
    assert!(store.opened_dirty(), "an aborted writer must reopen dirty");
    // The flushed 64-feature database answers queries; the uncommitted
    // post-flush append is gone.
    let model = zoo::tir().seeded_metric(5);
    let reqs = probes(
        &model,
        deepstore::core::ModelId(1),
        deepstore::core::DbId(1),
        &[0],
        3,
    );
    let ids = store.query_batch(&reqs).unwrap();
    let r = store.results(ids[0]).unwrap();
    // Probe seed 0 duplicates feature 0 exactly: rank 0 must find it.
    assert_eq!(r.top_k[0].feature_index, 0);
    assert_eq!(r.top_k.len(), 3);

    // A crash while merely *open* (dirty flag armed, nothing broken) is
    // also detected on the next open.
    drop(store);
    let store = DeepStore::open(&path).unwrap();
    assert!(
        store.opened_dirty(),
        "open marks the image dirty until closed cleanly"
    );
    store.close().unwrap();
    let store = DeepStore::open(&path).unwrap();
    assert!(!store.opened_dirty(), "clean close clears the dirty flag");
    store.close().unwrap();
}

/// A header rewritten by a future format version is rejected with the
/// typed error, not a parse failure. Both slots get a valid CRC, so the
/// only objection left is the version itself.
#[test]
fn future_image_format_version_is_rejected_typed() {
    fn crc32(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, t) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *t = c;
        }
        !bytes.iter().fold(0xFFFF_FFFFu32, |c, &b| {
            table[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8)
        })
    }

    let path = TempPath::new("persist-version");
    let store = DeepStore::create(&path, DeepStoreConfig::small()).unwrap();
    store.close().unwrap();

    // Rewrite both 512-byte header slots: bump the format version
    // (bytes 8..12) and restore a valid CRC over the first 112 bytes at
    // offset 112.
    let mut img = std::fs::read(&path).unwrap();
    for slot in 0..2 {
        let at = slot * 512;
        if &img[at..at + 8] != b"DPSTIMG\0" {
            continue;
        }
        img[at + 8..at + 12].copy_from_slice(&99u32.to_le_bytes());
        let crc = crc32(&img[at..at + 112]);
        img[at + 112..at + 116].copy_from_slice(&crc.to_le_bytes());
    }
    std::fs::write(&path, &img).unwrap();

    let err = DeepStore::open(&path).unwrap_err();
    assert_eq!(
        err,
        DeepStoreError::VersionMismatch {
            expected: deepstore::flash::IMAGE_FORMAT_VERSION,
            found: 99,
        }
    );
}

/// Acceptance-scale round trip: a multi-GiB image built in chunks,
/// flushed, closed and reopened; ranked top-K is bit-identical to the
/// answer computed before the close. Run explicitly (CI persistence
/// job): `cargo test --release -- --ignored multi_gb`.
#[test]
#[ignore = "multi-GiB image; run explicitly with --release -- --ignored"]
fn multi_gb_image_reopen_bit_identical() {
    let mut cfg = DeepStoreConfig::small().with_parallelism(0);
    cfg.qc_capacity = 0;
    // 4 ch × 2 chips × 2 planes × 512 blocks × 64 pages × 16 KiB = 8 GiB.
    cfg.ssd.geometry.blocks_per_plane = 512;
    cfg.ssd.geometry.pages_per_block = 64;

    let path = TempPath::new("persist-multigb");
    let model = zoo::tir().seeded_metric(5);
    let mut store = DeepStore::create(&path, cfg).unwrap();

    // ~1.25 GiB of 2 KiB features, appended in 64 MiB chunks.
    const TOTAL: u64 = 640_000;
    const CHUNK: u64 = 32_768;
    let db = store.write_db(&features(&model, CHUNK)).unwrap();
    let mut written = CHUNK;
    while written < TOTAL {
        let n = CHUNK.min(TOTAL - written);
        let chunk: Vec<Tensor> = (written..written + n)
            .map(|i| model.random_feature(i))
            .collect();
        store.append_db(db, &chunk).unwrap();
        written += n;
    }
    let mid = store.load_model(&ModelGraph::from_model(&model)).unwrap();

    // Query ids are session handles: the persisted `next_query` counter
    // resumes past the pre-close queries (no id reuse), so strip them
    // before comparing the device's actual answers.
    let strip = |mut rs: Vec<QueryResult>| {
        for r in &mut rs {
            r.query_id = deepstore::core::QueryId(0);
        }
        rs
    };
    let reqs = probes(&model, mid, db, &[123_456, 7], 10);
    let ids = store.query_batch(&reqs).unwrap();
    let expected: Vec<QueryResult> = ids.iter().map(|&q| store.results(q).unwrap()).collect();
    let counts = store.flash_op_counts();
    store.flush().unwrap();
    store.close().unwrap();

    let len = std::fs::metadata(&path).unwrap().len();
    assert!(len > 4 << 30, "image must be multi-GiB, got {len} bytes");

    let mut back = DeepStore::open(&path).unwrap();
    assert!(!back.opened_dirty());
    assert_eq!(back.flash_op_counts(), counts);
    let ids = back.query_batch(&reqs).unwrap();
    assert_eq!(
        ids,
        [deepstore::core::QueryId(3), deepstore::core::QueryId(4)]
    );
    let got: Vec<QueryResult> = ids.iter().map(|&q| back.results(q).unwrap()).collect();
    assert_eq!(
        strip(got),
        strip(expected),
        "multi-GiB reopen must be bit-identical"
    );
    back.close().unwrap();
}
