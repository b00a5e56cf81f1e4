//! The device manifest persisted inside a single-file flash image.
//!
//! A persistent DeepStore device lives in one file (see
//! [`deepstore_flash::image`]): a versioned header, the raw page region
//! (the flash array's payload bytes, memory-mapped at runtime), and this
//! manifest — everything *semantic* the device needs to come back after
//! a reopen with bit-identical behavior: the configuration, the flash
//! array's programmed-page/erase-count/op-counter state, the FTL's
//! stripe cursor and retired blocks, every database's metadata and
//! unsealed write buffer, where each loaded model is stored, and the id
//! counters.
//!
//! The manifest is serialized as JSON. All map-like state is encoded as
//! sorted `Vec<(key, value)>` pairs, which keeps the encoding
//! deterministic (two flushes of the same state produce byte-identical
//! manifests) and the format self-describing.
//!
//! Models are written once. A model never changes after `loadModel`, so
//! the first commit after it writes the model's serde encoding into a
//! write-once image extent, and every manifest from then on carries only
//! the extent's offset, length and CRC — a few dozen bytes in place of
//! the weights as decimal text. Version-1 manifests, which carried every
//! model inline, still decode.
//!
//! The FTL is a cursor. Versions 1 and 2 persisted the free list of a
//! garbage-collecting allocator — one JSON object per free block, 23.8 MB
//! on the paper's geometry — although nothing ever freed a block, so the
//! list was always the stripe order from some position on, minus the
//! retired blocks. Version 3 persists that position and the retired set;
//! older manifests are checked to have that shape and converted on
//! decode, and the first commit after opening one rewrites it as
//! version 3.
//!
//! What is deliberately **not** persisted:
//!
//! * int8 quantized sidecars — rebuilt on open by decoding features
//!   straight from the mapped page region ([`crate::engine`]'s restore
//!   path), which costs one pass over the database and no flash-counter
//!   movement.
//! * the query cache — it starts cold; cached answers are a pure
//!   performance artifact.
//! * pending query results and telemetry — results are consumed by
//!   `getResults` within a session; counters restart at zero except the
//!   flash op counters, which are part of the flash state proper.
//! * fault plans and retry policy — injected faults are a per-session
//!   experiment; the retry policy is re-derived from the persisted
//!   configuration.

use crate::config::DeepStoreConfig;
use crate::engine::DbMeta;
use crate::error::Result;
use deepstore_flash::ftl::{BlockFtl, FtlSnapshot, PhysicalBlock};
use deepstore_flash::{FlashError, FlashStateSnapshot, ImageExtent, PageStore};
use deepstore_nn::Model;
use serde::{Deserialize, Serialize, Value};

/// Version of the manifest encoding. Bumped on any incompatible change;
/// [`ImageManifest::decode`] rejects other versions — except versions 1
/// and 2, which it still reads — with
/// [`crate::DeepStoreError::VersionMismatch`]. Independent of the image
/// *container* version ([`deepstore_flash::IMAGE_FORMAT_VERSION`]),
/// which covers the header/page-region layout underneath.
pub const MANIFEST_VERSION: u32 = 3;

/// How a manifest holds one loaded model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StoredModel {
    /// The model's serde encoding in a write-once image extent: what
    /// every commit since version 2 writes.
    Extent(ImageExtent),
    /// The model itself, inline: how a version-1 manifest held it.
    Inline(Model),
}

/// Everything the device persists besides raw page payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImageManifest {
    /// Encoding version ([`MANIFEST_VERSION`]).
    pub manifest_version: u32,
    /// The device configuration the image was created with.
    pub cfg: DeepStoreConfig,
    /// Flash-array semantic state (programmed pages, erase counts,
    /// retirement queue, op counters).
    pub flash: FlashStateSnapshot,
    /// FTL allocation state (stripe cursor and retired blocks).
    pub ftl: FtlSnapshot,
    /// Per-database metadata, sorted by database id.
    pub dbs: Vec<DbMeta>,
    /// Unsealed per-database write buffers as sorted
    /// `(db_id, buffered_bytes)` pairs; empty buffers are omitted.
    pub write_buffers: Vec<(u64, Vec<u8>)>,
    /// Next database id to hand out.
    pub next_db: u64,
    /// Loaded models as sorted `(model_id, stored model)` pairs.
    pub models: Vec<(u64, StoredModel)>,
    /// Next model id to hand out.
    pub next_model: u64,
    /// Next query id to hand out.
    pub next_query: u64,
}

impl ImageManifest {
    /// Serializes the manifest for [`deepstore_flash::PageStore::commit`].
    ///
    /// Deterministic: the same device state always encodes to the same
    /// bytes (all collections are pre-sorted and structs serialize in
    /// field order).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("manifest types serialize infallibly")
    }

    /// Parses a manifest previously produced by [`ImageManifest::encode`],
    /// or by version 1 or 2. Their FTL free list comes back as the
    /// equivalent cursor, and a version-1 manifest's models come back as
    /// [`StoredModel::Inline`]; the version field keeps the old number.
    ///
    /// # Errors
    ///
    /// * [`crate::DeepStoreError::VersionMismatch`] if the manifest was
    ///   written by an encoding version other than 1, 2 or 3.
    /// * [`crate::DeepStoreError::Flash`] wrapping [`FlashError::Image`]
    ///   if the bytes do not parse, or a version-1/2 free list is not the
    ///   stripe order from its first block on minus the retired blocks.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let parse_err = |e: serde::DeError| FlashError::Image(format!("manifest parse: {e}"));
        let mut value = serde::parse_value(bytes).map_err(parse_err)?;
        let version = value
            .as_object()
            .map(|fields| u32::from_value(serde::field(fields, "manifest_version")));
        match version {
            Some(Ok(MANIFEST_VERSION)) => {}
            Some(Ok(2)) => cursor_from_free_list(&mut value)?,
            Some(Ok(1)) => {
                cursor_from_free_list(&mut value)?;
                inline_v1_models(&mut value);
            }
            Some(Ok(found)) => {
                return Err(FlashError::VersionMismatch {
                    expected: MANIFEST_VERSION,
                    found,
                }
                .into())
            }
            // Not an object, or no usable version: the full parse below
            // names what is wrong.
            _ => {}
        }
        Ok(Self::from_value(&value).map_err(parse_err)?)
    }
}

/// Version 1's `models` pairs hold `[id, model]` where later versions
/// hold `[id, stored model]`: wrap each model as
/// [`StoredModel::Inline`]. Anything shaped otherwise is left for the
/// full parse to reject.
fn inline_v1_models(manifest: &mut Value) {
    let Value::Obj(fields) = manifest else {
        return;
    };
    let Some((_, Value::Arr(pairs))) = fields.iter_mut().find(|(name, _)| name == "models") else {
        return;
    };
    for pair in pairs {
        if let Value::Arr(items) = pair {
            if let [_, model] = items.as_mut_slice() {
                let inline = std::mem::replace(model, Value::Null);
                *model = Value::Obj(vec![("Inline".to_string(), inline)]);
            }
        }
    }
}

/// Versions 1 and 2 persisted the FTL as a free list in allocation
/// order, beside a logical map, wear and GC counters. An engine that
/// never frees a block can only have left that list as the stripe order
/// from its first block on, minus the retired blocks, with nothing
/// invalidated: check exactly that, and rewrite the `ftl` field as the
/// cursor at the first free block (or the end of the stripe if none is
/// free) plus the same retired set. The map, wear and counters carry
/// nothing the cursor needs.
///
/// # Errors
///
/// Returns [`FlashError::Image`] for any other shape.
fn cursor_from_free_list(manifest: &mut Value) -> std::result::Result<(), FlashError> {
    let bad = |what: String| FlashError::Image(format!("free-list FTL state: {what}"));
    let Value::Obj(fields) = manifest else {
        return Err(bad("the manifest is not an object".into()));
    };
    let geometry = DeepStoreConfig::from_value(serde::field(fields, "cfg"))
        .map_err(|e| bad(format!("cfg: {e}")))?
        .ssd
        .geometry;
    let Some((_, ftl)) = fields.iter_mut().find(|(name, _)| name == "ftl") else {
        return Err(bad("missing".into()));
    };
    let old = ftl
        .as_object()
        .ok_or_else(|| bad(format!("expected an object, got {}", ftl.kind())))?;
    let blocks = |name: &str| {
        Vec::<PhysicalBlock>::from_value(serde::field(old, name))
            .map_err(|e| bad(format!("{name}: {e}")))
    };
    let (free, invalidated, retired) =
        (blocks("free")?, blocks("invalidated")?, blocks("retired")?);
    if !invalidated.is_empty() {
        return Err(bad(format!(
            "{} invalidated blocks await garbage collection",
            invalidated.len()
        )));
    }
    let stripe = BlockFtl::new(geometry);
    let next = match free.first() {
        Some(&first) => stripe
            .stripe_position(first)
            .ok_or_else(|| bad(format!("free block {first:?} lies outside {geometry:?}")))?,
        None => stripe.stripe_len(),
    };
    let snapshot = FtlSnapshot { next, retired };
    let mut cursor = BlockFtl::from_snapshot(geometry, &snapshot);
    if !(free.iter().all(|&block| cursor.allocate() == Ok(block)) && cursor.allocate().is_err()) {
        return Err(bad(
            "the free list is not the stripe order from its first block on minus the retired blocks"
                .into(),
        ));
    }
    let retired = serde::field(old, "retired").clone();
    *ftl = Value::Obj(vec![
        ("next".to_string(), Value::U64(next)),
        ("retired".to_string(), retired),
    ]);
    Ok(())
}

/// The bytes a model's extent holds: the model's serde encoding, the
/// same bytes a version-1 manifest carried inline.
pub(crate) fn model_bytes(model: &Model) -> Vec<u8> {
    serde_json::to_vec(model).expect("models serialize infallibly")
}

/// Reads model `id` back from its extent.
///
/// # Errors
///
/// Returns [`FlashError::Image`] naming the model if the extent is out
/// of bounds, fails its CRC, or does not decode as a model.
pub(crate) fn read_model(store: &dyn PageStore, id: u64, extent: &ImageExtent) -> Result<Model> {
    let named = |what: String| FlashError::Image(format!("model {id}: {what}"));
    let bytes = store.read_extent(extent).map_err(|e| match e {
        FlashError::Image(what) => named(what),
        other => other,
    })?;
    Ok(
        serde_json::from_slice(&bytes)
            .map_err(|e| named(format!("extent does not decode: {e}")))?,
    )
}

/// Encodes `manifest` as version 2 wrote it: the FTL as a free list.
#[cfg(test)]
pub(crate) fn encode_v2(manifest: &ImageManifest) -> Vec<u8> {
    encode_free_list(&ImageManifest {
        manifest_version: 2,
        ..manifest.clone()
    })
    .into_bytes()
}

/// Encodes `manifest` as version 1 wrote it: the FTL as a free list and
/// `models` inline.
#[cfg(test)]
pub(crate) fn encode_v1(manifest: &ImageManifest, models: &[(u64, Model)]) -> Vec<u8> {
    let v1 = ImageManifest {
        manifest_version: 1,
        models: Vec::new(),
        ..manifest.clone()
    };
    let inline = format!("\"models\":{}", serde_json::to_string(models).unwrap());
    encode_free_list(&v1)
        .replacen("\"models\":[]", &inline, 1)
        .into_bytes()
}

/// `manifest` encoded with its FTL as versions 1 and 2 wrote it: the
/// free list its cursor would hand out, nothing invalidated, and the
/// retired set. Those versions also carried a logical map, a wear table
/// and counters; decoding never reads them, so they are left out.
#[cfg(test)]
fn encode_free_list(manifest: &ImageManifest) -> String {
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

/// Version of the cluster layout encoding. Bumped on any incompatible
/// change; [`ClusterManifest::decode`] rejects other versions.
pub const CLUSTER_MANIFEST_VERSION: u32 = 1;

/// One partition's layout inside a [`ClusterDbLayout`]: the global
/// index ranges it holds (in local append order) and the drives
/// hosting its replicas.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionLayout {
    /// `(global_start, len)` extents in local order.
    pub extents: Vec<(u64, u64)>,
    /// `(drive index, per-drive db id)` replicas in placement order.
    pub replicas: Vec<(u32, u64)>,
}

/// One partitioned database's layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterDbLayout {
    /// Bytes per feature (for hosted-bytes accounting on reopen).
    pub feature_bytes: u64,
    /// Partitions in index order.
    pub partitions: Vec<PartitionLayout>,
}

/// The cluster-level layout manifest, stored as `cluster.json` next to
/// the per-drive images. Everything the cluster needs *above* the
/// drives: partition extents (the global-index mapping), replica
/// placement, model-id fan-out, and which drives are administratively
/// down. Per-drive state lives in each drive's own image manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterManifest {
    /// Encoding version ([`CLUSTER_MANIFEST_VERSION`]).
    pub manifest_version: u32,
    /// Drive count; images are `drive-0.img … drive-{n-1}.img`.
    pub drives: u32,
    /// Target replication factor.
    pub replicas: u32,
    /// Administrative down flags, one per drive.
    pub down: Vec<bool>,
    /// Databases in cluster-id order.
    pub dbs: Vec<ClusterDbLayout>,
    /// Per cluster model: the per-drive model ids, in drive order.
    pub models: Vec<Vec<u64>>,
}

impl ClusterManifest {
    /// Serializes the manifest. Deterministic: same layout, same bytes.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("manifest types serialize infallibly")
    }

    /// Parses a manifest previously produced by
    /// [`ClusterManifest::encode`].
    ///
    /// # Errors
    ///
    /// * [`crate::DeepStoreError::Flash`] wrapping
    ///   [`FlashError::VersionMismatch`] for a different encoding
    ///   version.
    /// * [`crate::DeepStoreError::Flash`] wrapping [`FlashError::Image`]
    ///   if the bytes do not parse or the layout is inconsistent.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        let manifest: ClusterManifest = serde_json::from_slice(bytes)
            .map_err(|e| FlashError::Image(format!("cluster manifest parse: {e}")))?;
        if manifest.manifest_version != CLUSTER_MANIFEST_VERSION {
            return Err(FlashError::VersionMismatch {
                expected: CLUSTER_MANIFEST_VERSION,
                found: manifest.manifest_version,
            }
            .into());
        }
        if manifest.down.len() != manifest.drives as usize {
            return Err(FlashError::Image(format!(
                "cluster manifest lists {} down flags for {} drives",
                manifest.down.len(),
                manifest.drives
            ))
            .into());
        }
        for (dbi, db) in manifest.dbs.iter().enumerate() {
            for (pi, p) in db.partitions.iter().enumerate() {
                if let Some(&(drive, _)) = p.replicas.iter().find(|&&(d, _)| d >= manifest.drives) {
                    return Err(FlashError::Image(format!(
                        "db {dbi} partition {pi} places a replica on drive {drive} of {}",
                        manifest.drives
                    ))
                    .into());
                }
            }
        }
        Ok(manifest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DeepStoreError;
    use deepstore_flash::FlashOpCounts;

    fn sample() -> ImageManifest {
        ImageManifest {
            manifest_version: MANIFEST_VERSION,
            cfg: DeepStoreConfig::small(),
            flash: FlashStateSnapshot {
                programmed_runs: vec![(0, 16), (64, 8)],
                erase_counts: vec![(0, 1), (4, 2)],
                pending_retire: vec![7],
                op_counts: FlashOpCounts {
                    reads: 10,
                    programs: 24,
                    erases: 3,
                },
            },
            ftl: FtlSnapshot {
                next: 5,
                retired: Vec::new(),
            },
            dbs: Vec::new(),
            write_buffers: vec![(1, vec![1, 2, 3])],
            next_db: 2,
            models: Vec::new(),
            next_model: 1,
            next_query: 9,
        }
    }

    #[test]
    fn roundtrips_losslessly_and_deterministically() {
        let m = sample();
        let bytes = m.encode();
        assert_eq!(bytes, m.encode(), "encoding must be deterministic");
        let back = ImageManifest::decode(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn rejects_future_versions_with_typed_error() {
        let mut m = sample();
        m.manifest_version = MANIFEST_VERSION + 7;
        let err = ImageManifest::decode(&m.encode()).unwrap_err();
        assert_eq!(
            err,
            DeepStoreError::VersionMismatch {
                expected: MANIFEST_VERSION,
                found: MANIFEST_VERSION + 7,
            }
        );
    }

    #[test]
    fn rejects_garbage_with_image_error() {
        let err = ImageManifest::decode(b"not json at all").unwrap_err();
        assert!(matches!(err, DeepStoreError::Flash(FlashError::Image(_))));
    }

    #[test]
    fn version_1_models_decode_inline_and_version_2_holds_references() {
        let model = deepstore_nn::zoo::textqa().seeded(3);
        let v1 = encode_v1(&sample(), &[(4, model.clone())]);
        let back = ImageManifest::decode(&v1).unwrap();
        assert_eq!(back.manifest_version, 1);
        assert_eq!(back.models, vec![(4, StoredModel::Inline(model.clone()))]);
        assert_eq!(
            ImageManifest {
                models: Vec::new(),
                ..back
            },
            ImageManifest {
                manifest_version: 1,
                ..sample()
            }
        );
        // The extent holds exactly the bytes version 1 inlined.
        let text = String::from_utf8(v1).unwrap();
        assert!(text.contains(std::str::from_utf8(&model_bytes(&model)).unwrap()));

        let mut m = sample();
        let extent = ImageExtent {
            offset: u64::MAX,
            len: u64::MAX,
            crc: u32::MAX,
        };
        m.models = vec![(u64::MAX, StoredModel::Extent(extent))];
        let bytes = m.encode();
        assert!(
            bytes.len() - sample().encode().len() <= 256,
            "{}",
            bytes.len()
        );
        assert_eq!(ImageManifest::decode(&bytes).unwrap(), m);
    }

    fn cluster_sample() -> ClusterManifest {
        ClusterManifest {
            manifest_version: CLUSTER_MANIFEST_VERSION,
            drives: 3,
            replicas: 2,
            down: vec![false, true, false],
            dbs: vec![ClusterDbLayout {
                feature_bytes: 3072,
                partitions: vec![
                    PartitionLayout {
                        extents: vec![(0, 3), (7, 2)],
                        replicas: vec![(0, 0), (1, 0)],
                    },
                    PartitionLayout {
                        extents: vec![(3, 2), (9, 2)],
                        replicas: vec![(1, 1), (2, 0)],
                    },
                    PartitionLayout {
                        extents: vec![(5, 2), (11, 1)],
                        replicas: vec![(2, 1), (0, 1)],
                    },
                ],
            }],
            models: vec![vec![0, 0, 0]],
        }
    }

    #[test]
    fn cluster_manifest_roundtrips_deterministically() {
        let m = cluster_sample();
        let bytes = m.encode();
        assert_eq!(bytes, m.encode(), "encoding must be deterministic");
        assert_eq!(ClusterManifest::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn cluster_manifest_rejects_bad_versions_and_layouts() {
        let mut m = cluster_sample();
        m.manifest_version = CLUSTER_MANIFEST_VERSION + 1;
        assert!(matches!(
            ClusterManifest::decode(&m.encode()).unwrap_err(),
            DeepStoreError::VersionMismatch { .. }
        ));
        let mut m = cluster_sample();
        m.down.pop();
        assert!(matches!(
            ClusterManifest::decode(&m.encode()).unwrap_err(),
            DeepStoreError::Flash(FlashError::Image(_))
        ));
        let mut m = cluster_sample();
        m.dbs[0].partitions[0].replicas[0].0 = 9;
        assert!(matches!(
            ClusterManifest::decode(&m.encode()).unwrap_err(),
            DeepStoreError::Flash(FlashError::Image(_))
        ));
    }
}
