//! Query-trace recording and replay.
//!
//! §5: "we collect the query traces from the applications running on the
//! baseline GPU+SSD system, and pass them as input to the query engine in
//! our simulator" — the simulator is trace-driven. This module provides
//! that plumbing: a serializable [`QueryTrace`] of timestamped query
//! feature vectors, recorded from a [`loadgen::plan`] schedule, and
//! save/load to JSON so traces can be captured once and replayed across
//! experiments.

use crate::loadgen::{self, LoadPlanConfig};
use deepstore_flash::SimDuration;
use deepstore_nn::Tensor;
use serde::{Deserialize, Serialize};

/// One timestamped trace entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Arrival time.
    pub arrival: SimDuration,
    /// Base-query rank the emission came from (ground truth for cache
    /// studies).
    pub rank: usize,
    /// The query feature vector.
    pub qfv: Tensor,
}

/// A recorded query trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryTrace {
    /// Format version.
    pub version: u32,
    /// Mean offered load the trace was generated at, queries/second.
    pub offered_qps: f64,
    /// Entries in arrival order.
    pub entries: Vec<TraceEntry>,
}

impl QueryTrace {
    /// Current trace format version.
    pub const VERSION: u32 = 1;

    /// Records the offered-load schedule [`loadgen::plan`] draws for
    /// `cfg` as a trace.
    ///
    /// # Panics
    ///
    /// As [`loadgen::plan`]: if `cfg.qps` is not positive or
    /// `cfg.queries` is zero.
    pub fn from_plan(cfg: &LoadPlanConfig) -> QueryTrace {
        let entries = loadgen::plan(cfg)
            .into_iter()
            .map(|o| TraceEntry {
                arrival: SimDuration::from_nanos(o.at.as_nanos() as u64),
                rank: o.rank,
                qfv: o.qfv,
            })
            .collect();
        QueryTrace {
            version: Self::VERSION,
            offered_qps: cfg.qps,
            entries,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Trace duration (last arrival).
    pub fn duration(&self) -> SimDuration {
        self.entries
            .last()
            .map(|e| e.arrival)
            .unwrap_or(SimDuration::ZERO)
    }

    /// Serializes to JSON bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("traces always serialize")
    }

    /// Deserializes from JSON bytes.
    ///
    /// # Errors
    ///
    /// Returns a description of the parse failure, a version mismatch,
    /// or the first entry that arrives before its predecessor.
    pub fn from_bytes(bytes: &[u8]) -> Result<QueryTrace, String> {
        let t: QueryTrace = serde_json::from_slice(bytes).map_err(|e| e.to_string())?;
        if t.version != Self::VERSION {
            return Err(format!("unsupported trace version {}", t.version));
        }
        if let Some(i) = t
            .entries
            .windows(2)
            .position(|w| w[1].arrival < w[0].arrival)
        {
            return Err(format!(
                "trace entry {} arrives at {}, before entry {} at {}",
                i + 1,
                t.entries[i + 1].arrival,
                i,
                t.entries[i].arrival
            ));
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(queries: usize) -> QueryTrace {
        QueryTrace::from_plan(&LoadPlanConfig {
            queries,
            ..LoadPlanConfig::default()
        })
    }

    #[test]
    fn serialization_roundtrips() {
        let t = trace(20);
        let back = QueryTrace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut t = trace(5);
        t.version = 9;
        assert!(QueryTrace::from_bytes(&t.to_bytes()).is_err());
        assert!(QueryTrace::from_bytes(b"junk").is_err());
    }

    #[test]
    fn out_of_order_arrivals_rejected() {
        let mut t = trace(5);
        t.entries.swap(1, 2);
        let err = QueryTrace::from_bytes(&t.to_bytes()).unwrap_err();
        assert!(err.contains("entry 2"), "{err}");
    }

    #[test]
    fn empty_trace_duration_is_zero() {
        let t = QueryTrace {
            version: QueryTrace::VERSION,
            offered_qps: 1.0,
            entries: Vec::new(),
        };
        assert!(t.is_empty());
        assert_eq!(t.duration(), SimDuration::ZERO);
    }
}
