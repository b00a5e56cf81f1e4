//! The crate-wide error type for DeepStore device operations.
//!
//! Device-level failures used to be smuggled through
//! [`FlashError`] — an unknown model id surfaced as
//! `FlashError::UnknownDb`, an accelerator level that cannot run a
//! model as `FlashError::AddressOutOfRange` with a prose payload.
//! [`DeepStoreError`] gives each failure its own variant so callers can
//! match on what actually went wrong, and wraps genuine flash/FTL
//! failures as [`DeepStoreError::Flash`] (with a `From` impl, so `?`
//! propagates them unchanged through the device layers).
//!
//! The same type is the wire's error: a `Response::Error` frame of the
//! command protocol ([`crate::proto`]) carries a [`DeepStoreError`]
//! as is, so a remote host gets back exactly the value the local API
//! would have returned.

use crate::api::{ModelId, QueryId};
use crate::config::AcceleratorLevel;
use deepstore_flash::FlashError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors surfaced by the DeepStore device API, locally and over the
/// wire.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeepStoreError {
    /// A [`ModelId`] that was never returned by `loadModel` (or whose
    /// model was since unloaded).
    UnknownModel(ModelId),
    /// A [`QueryId`] that was never issued, or whose results were
    /// already consumed by `getResults`.
    UnknownQuery(QueryId),
    /// The requested accelerator level cannot execute the model (e.g.
    /// chip-level accelerators lack the on-chip SRAM for ReId's
    /// convolutional working set, §4.5).
    LevelUnsupported {
        /// Name of the model that has no mapping at this level.
        model: String,
        /// The accelerator level that was requested.
        level: AcceleratorLevel,
    },
    /// A scan could not read enough of the database to satisfy the
    /// request's `min_coverage` policy: too many features were lost to
    /// uncorrectable reads even after retry and remap.
    InsufficientCoverage {
        /// The coverage fraction the request demanded.
        required: f64,
        /// The coverage fraction the scan actually achieved.
        achieved: f64,
    },
    /// A flash/FTL-level failure (bad address, ECC, capacity, …).
    Flash(FlashError),
    /// A persisted image or a wire peer speaks a different
    /// format/protocol version than this build. Surfaced by
    /// `DeepStore::open` for on-disk images and by the `hello`
    /// handshake for remote connections; promoted out of
    /// [`FlashError::VersionMismatch`] by the `From` impl so callers
    /// match one variant for both paths.
    VersionMismatch {
        /// The version this build understands.
        expected: u32,
        /// The version found on disk or announced by the peer.
        found: u32,
    },
    /// The serving front end's bounded pending queue was full; the
    /// request was rejected without being enqueued. Retry after
    /// backing off.
    Overloaded {
        /// Capacity of the pending queue that was full.
        queue_depth: u64,
    },
    /// The per-tenant token bucket for `client` had no tokens left;
    /// the request was rejected before admission.
    QuotaExceeded {
        /// The client id (from the `hello` handshake) whose quota ran
        /// out.
        client: String,
    },
    /// A command frame the device could not parse (framing or
    /// payload); carries the [`crate::proto::ProtoError`] text.
    Malformed(String),
    /// A failure reported over the wire that has no structured type: a
    /// model graph that does not parse, a server that is shutting down,
    /// or a server that dropped the request.
    Remote(String),
}

impl fmt::Display for DeepStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeepStoreError::UnknownModel(id) => write!(f, "unknown model id {}", id.0),
            DeepStoreError::UnknownQuery(id) => write!(f, "unknown query id {}", id.0),
            DeepStoreError::LevelUnsupported { model, level } => {
                write!(f, "model `{model}` has no {level}-level mapping")
            }
            DeepStoreError::InsufficientCoverage { required, achieved } => {
                write!(
                    f,
                    "insufficient coverage: scan reached {achieved:.4} of the \
                     database, request requires {required:.4}"
                )
            }
            DeepStoreError::Flash(e) => write!(f, "{e}"),
            DeepStoreError::VersionMismatch { expected, found } => {
                write!(f, "version mismatch: expected {expected}, found {found}")
            }
            DeepStoreError::Overloaded { queue_depth } => {
                write!(
                    f,
                    "server overloaded: pending queue (depth {queue_depth}) is full"
                )
            }
            DeepStoreError::QuotaExceeded { client } => {
                write!(f, "quota exceeded for client `{client}`")
            }
            DeepStoreError::Malformed(e) => write!(f, "malformed request: {e}"),
            DeepStoreError::Remote(e) => write!(f, "remote device error: {e}"),
        }
    }
}

impl std::error::Error for DeepStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeepStoreError::Flash(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FlashError> for DeepStoreError {
    fn from(e: FlashError) -> Self {
        match e {
            // Promote version skew to the device-level variant so image
            // and wire mismatches are matched uniformly.
            FlashError::VersionMismatch { expected, found } => {
                DeepStoreError::VersionMismatch { expected, found }
            }
            e => DeepStoreError::Flash(e),
        }
    }
}

/// Convenient result alias for the device API.
pub type Result<T> = std::result::Result<T, DeepStoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_distinguishable_and_display() {
        let m = DeepStoreError::UnknownModel(ModelId(3));
        let q = DeepStoreError::UnknownQuery(QueryId(3));
        assert_ne!(m, q);
        assert!(m.to_string().contains("model id 3"));
        assert!(q.to_string().contains("query id 3"));
        let l = DeepStoreError::LevelUnsupported {
            model: "reid".into(),
            level: AcceleratorLevel::Chip,
        };
        assert!(l.to_string().contains("reid"));
        let c = DeepStoreError::InsufficientCoverage {
            required: 0.9,
            achieved: 0.5,
        };
        assert!(c.to_string().contains("insufficient coverage"));
        assert!(c.to_string().contains("0.9"));
        assert!(c.to_string().contains("0.5"));
        assert_ne!(
            c,
            DeepStoreError::InsufficientCoverage {
                required: 0.9,
                achieved: 0.6,
            }
        );
    }

    #[test]
    fn flash_errors_convert_and_chain() {
        use std::error::Error;
        let e: DeepStoreError = FlashError::UnknownDb(9).into();
        assert_eq!(e, DeepStoreError::Flash(FlashError::UnknownDb(9)));
        assert!(e.source().is_some());
        assert!(DeepStoreError::UnknownQuery(QueryId(1)).source().is_none());
    }

    #[test]
    fn version_mismatch_promotes_from_flash() {
        let e: DeepStoreError = FlashError::VersionMismatch {
            expected: 1,
            found: 3,
        }
        .into();
        assert_eq!(
            e,
            DeepStoreError::VersionMismatch {
                expected: 1,
                found: 3,
            }
        );
        assert!(e.to_string().contains("expected 1"));
        assert!(e.to_string().contains("found 3"));
    }

    #[test]
    fn serving_rejections_display() {
        let o = DeepStoreError::Overloaded { queue_depth: 8 };
        assert!(o.to_string().contains("overloaded"));
        assert!(o.to_string().contains('8'));
        let q = DeepStoreError::QuotaExceeded {
            client: "tenant-a".into(),
        };
        assert!(q.to_string().contains("tenant-a"));
        let r = DeepStoreError::Remote("ecc storm".into());
        assert!(r.to_string().contains("ecc storm"));
        assert_ne!(o, q);
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DeepStoreError>();
    }
}
