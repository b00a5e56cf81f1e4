//! Robustness of the durable formats against hostile bytes: the twin of
//! `proto_fuzz` for what a device leaves on disk.
//!
//! The contract under attack: an image manifest (version 3, a version-2
//! one with its FTL as a free list, or a version-1 one that also has its
//! models inline) or a cluster manifest that is
//! truncated, corrupted or stamped with a future version decodes to a
//! typed error — [`DeepStoreError::VersionMismatch`] or
//! [`FlashError::Image`] — and never panics; and [`DeepStore::open`] on
//! an image whose model extent runs past the end of the file, fails its
//! CRC, or points into the header or page region refuses with a
//! [`FlashError::Image`] that names the model. Extents are read with
//! positional reads, never through the mapping, so no case can raise
//! `SIGBUS`.

mod common;

use common::TempPath;
use deepstore::core::persist::ClusterManifest;
use deepstore::core::{
    DeepStore, DeepStoreCluster, DeepStoreConfig, DeepStoreError, ImageManifest, StoredModel,
    MANIFEST_VERSION,
};
use deepstore::flash::ftl::{BlockFtl, PhysicalBlock};
use deepstore::flash::{FlashError, ImageExtent, MmapStore, PageStore};
use deepstore::nn::{Activation, Model, ModelBuilder, ModelGraph, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;

/// A small model keeps every-prefix truncation affordable.
fn tiny_model() -> Model {
    ModelBuilder::new("fuzz", 8)
        .dense(16, 4, Activation::Relu)
        .dense(4, 1, Activation::Identity)
        .build()
        .seeded(5)
}

fn features(seed: u64, n: u64) -> Vec<Tensor> {
    (0..n)
        .map(|i| Tensor::random(vec![8], 1.0, seed + i))
        .collect()
}

fn config() -> DeepStoreConfig {
    let mut cfg = DeepStoreConfig::small();
    cfg.qc_capacity = 0;
    cfg
}

/// A closed image holding one model and two databases.
fn real_image(tag: &str) -> TempPath {
    let path = TempPath::new(&format!("manifest-fuzz-{tag}"));
    let mut store = DeepStore::create(&path, config()).unwrap();
    store.write_db(&features(0, 40)).unwrap();
    store.write_db(&features(100, 24)).unwrap();
    store
        .load_model(&ModelGraph::from_model(&tiny_model()))
        .unwrap();
    store.close().unwrap();
    path
}

fn committed_manifest(path: &Path) -> Vec<u8> {
    MmapStore::open(path).unwrap().1
}

/// `manifest` encoded with its FTL as versions 1 and 2 wrote it: the
/// free list its cursor would hand out, nothing invalidated, and the
/// retired set. Those versions also carried a logical map, a wear table
/// and counters; decoding never reads them, so they are left out.
fn with_free_list(manifest: &ImageManifest) -> String {
    let mut cursor = BlockFtl::from_snapshot(manifest.cfg.ssd.geometry, &manifest.ftl);
    let free: Vec<PhysicalBlock> = std::iter::from_fn(|| cursor.allocate().ok()).collect();
    let free_list = format!(
        "\"ftl\":{{\"free\":{},\"invalidated\":[],\"retired\":{}}}",
        serde_json::to_string(&free).unwrap(),
        serde_json::to_string(&manifest.ftl.retired).unwrap(),
    );
    let cursor = format!("\"ftl\":{}", serde_json::to_string(&manifest.ftl).unwrap());
    String::from_utf8(manifest.encode())
        .unwrap()
        .replacen(&cursor, &free_list, 1)
}

/// `manifest` as version 2 wrote it: the FTL as a free list.
fn as_version_2(manifest: &ImageManifest) -> Vec<u8> {
    with_free_list(&ImageManifest {
        manifest_version: 2,
        ..manifest.clone()
    })
    .into_bytes()
}

/// `manifest` as version 1 wrote it: the FTL as a free list, `models`
/// inline.
fn as_version_1(manifest: &ImageManifest, models: &[(u64, Model)]) -> Vec<u8> {
    let stripped = ImageManifest {
        manifest_version: 1,
        models: Vec::new(),
        ..manifest.clone()
    };
    let inline = format!("\"models\":{}", serde_json::to_string(models).unwrap());
    with_free_list(&stripped)
        .replacen("\"models\":[]", &inline, 1)
        .into_bytes()
}

/// The v3 manifest of a real image and its version-2 and version-1
/// twins.
fn image_manifests() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
    let path = real_image("manifests");
    let v3 = committed_manifest(&path);
    let manifest = ImageManifest::decode(&v3).unwrap();
    assert_eq!(manifest.manifest_version, MANIFEST_VERSION);
    assert_eq!(manifest.dbs.len(), 2);
    assert!(matches!(
        manifest.models.as_slice(),
        [(1, StoredModel::Extent(_))]
    ));
    assert_eq!(manifest.encode(), v3, "decode must re-encode identically");
    let v2 = as_version_2(&manifest);
    let back = ImageManifest::decode(&v2).unwrap();
    assert_eq!(
        ImageManifest {
            manifest_version: MANIFEST_VERSION,
            ..back
        },
        manifest
    );
    let v1 = as_version_1(&manifest, &[(1, tiny_model())]);
    let back = ImageManifest::decode(&v1).unwrap();
    assert_eq!(back.models, vec![(1, StoredModel::Inline(tiny_model()))]);
    (v3, v2, v1)
}

/// The layout manifest of a real three-drive, two-replica cluster.
fn cluster_manifest() -> Vec<u8> {
    let dir = TempPath::new("manifest-fuzz-cluster");
    let mut cluster = DeepStoreCluster::create_persistent(&dir, 3, 2, config()).unwrap();
    cluster.write_db(&features(0, 30)).unwrap();
    cluster
        .load_model(&ModelGraph::from_model(&tiny_model()))
        .unwrap();
    cluster.flush().unwrap();
    let bytes = std::fs::read(dir.join("cluster.json")).unwrap();
    ClusterManifest::decode(&bytes).unwrap();
    bytes
}

fn is_typed<T: std::fmt::Debug>(result: &Result<T, DeepStoreError>) -> bool {
    matches!(
        result,
        Err(DeepStoreError::VersionMismatch { .. } | DeepStoreError::Flash(FlashError::Image(_)))
    )
}

/// Every proper prefix fails typed; seeded single-byte flips decode or
/// fail typed, and never panic.
fn attack<T: std::fmt::Debug>(bytes: &[u8], decode: impl Fn(&[u8]) -> Result<T, DeepStoreError>) {
    for cut in 0..bytes.len() {
        let got = decode(&bytes[..cut]);
        assert!(is_typed(&got), "cut at {cut}: {got:?}");
    }
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..1000 {
        let mut corrupted = bytes.to_vec();
        let at = rng.gen_range(0..bytes.len());
        corrupted[at] ^= rng.gen_range(1..=255u8);
        let got = decode(&corrupted);
        assert!(got.is_ok() || is_typed(&got), "flip at {at}: {got:?}");
    }
}

#[test]
fn image_manifests_survive_truncation_and_corruption() {
    let (v3, v2, v1) = image_manifests();
    attack(&v3, ImageManifest::decode);
    attack(&v2, ImageManifest::decode);
    attack(&v1, ImageManifest::decode);
}

#[test]
fn cluster_manifest_survives_truncation_and_corruption() {
    attack(&cluster_manifest(), ClusterManifest::decode);
}

#[test]
fn future_versions_are_typed_mismatches() {
    let (v3, v2, v1) = image_manifests();
    for (bytes, from) in [(&v3, MANIFEST_VERSION), (&v2, 2), (&v1, 1)] {
        let text = String::from_utf8(bytes.clone()).unwrap();
        for found in [0, MANIFEST_VERSION + 1, 99, u32::MAX] {
            let stamped = text.replacen(
                &format!("\"manifest_version\":{from}"),
                &format!("\"manifest_version\":{found}"),
                1,
            );
            assert_eq!(
                ImageManifest::decode(stamped.as_bytes()).unwrap_err(),
                DeepStoreError::VersionMismatch {
                    expected: MANIFEST_VERSION,
                    found,
                }
            );
        }
    }
    let mut cluster = ClusterManifest::decode(&cluster_manifest()).unwrap();
    cluster.manifest_version += 1;
    assert!(matches!(
        ClusterManifest::decode(&cluster.encode()),
        Err(DeepStoreError::VersionMismatch { .. })
    ));
}

/// Damages the image at a path, returning the extent its manifest is to
/// reference instead of the model's real one.
type Damage = fn(&Path, ImageExtent) -> ImageExtent;

/// Opens a real image after `damage` rewrote its committed state, and
/// returns the error message `DeepStore::open` refused with.
fn open_damaged(tag: &str, damage: Damage) -> String {
    let path = real_image(tag);
    let (mut store, bytes, _) = MmapStore::open(&path).unwrap();
    let mut manifest = ImageManifest::decode(&bytes).unwrap();
    let StoredModel::Extent(extent) = manifest.models[0].1 else {
        panic!("a version-3 manifest references its model");
    };
    store.set_live_extents(vec![extent]);
    manifest.models[0].1 = StoredModel::Extent(damage(&path, extent));
    store.commit(&manifest.encode(), true).unwrap();
    drop(store);
    match DeepStore::open(&path) {
        Err(DeepStoreError::Flash(FlashError::Image(message))) => message,
        other => panic!("{tag}: expected an image error, got {other:?}"),
    }
}

#[test]
fn damaged_model_extents_refuse_to_open_naming_the_model() {
    let cases: [(&str, Damage); 5] = [
        ("past-eof", |path, e| ImageExtent {
            len: std::fs::metadata(path).unwrap().len(),
            ..e
        }),
        ("huge-len", |_, e| ImageExtent {
            len: u64::MAX - 1,
            ..e
        }),
        ("bad-crc", |path, e| {
            use std::os::unix::fs::FileExt;
            let file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
            file.write_all_at(b"#", e.offset + e.len / 2).unwrap();
            e
        }),
        ("in-header", |_, e| ImageExtent { offset: 0, ..e }),
        ("in-page-region", |_, e| ImageExtent {
            offset: 4096 + config().ssd.geometry.total_bytes() - e.len,
            ..e
        }),
    ];
    for (tag, damage) in cases {
        let message = open_damaged(tag, damage);
        assert!(message.contains("model 1"), "{tag}: {message}");
    }
}
