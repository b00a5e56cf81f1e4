//! Query-trace recording and replay.
//!
//! §5: "we collect the query traces from the applications running on the
//! baseline GPU+SSD system, and pass them as input to the query engine in
//! our simulator" — the simulator is trace-driven. This module provides
//! that plumbing: a serializable [`QueryTrace`] of timestamped query
//! feature vectors, a generator that samples arrival times from a seeded
//! Poisson process over a [`QueryStream`], and save/load to JSON so traces
//! can be captured once and replayed across experiments.

use crate::trace::QueryStream;
use deepstore_flash::SimDuration;
use deepstore_nn::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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

    /// Generates a trace of `n` queries: content from a [`QueryStream`],
    /// arrivals from a Poisson process at `offered_qps` (exponential
    /// inter-arrival times, deterministically seeded).
    ///
    /// # Panics
    ///
    /// Panics if `offered_qps` is not positive.
    pub fn generate(stream: &mut QueryStream, n: usize, offered_qps: f64, seed: u64) -> QueryTrace {
        assert!(offered_qps > 0.0, "offered load must be positive");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA11C_E5ED);
        let mut clock = SimDuration::ZERO;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            let gap = -u.ln() / offered_qps;
            clock += SimDuration::from_secs_f64(gap);
            let (rank, qfv) = stream.next_query();
            entries.push(TraceEntry {
                arrival: clock,
                rank,
                qfv,
            });
        }
        QueryTrace {
            version: Self::VERSION,
            offered_qps,
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
    use crate::trace::TraceDistribution;

    fn stream() -> QueryStream {
        QueryStream::new(16, 100, 10, TraceDistribution::Uniform, 3)
    }

    #[test]
    fn arrivals_are_ordered_and_poisson_scaled() {
        let t = QueryTrace::generate(&mut stream(), 500, 100.0, 1);
        assert_eq!(t.len(), 500);
        for w in t.entries.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        // 500 queries at 100 qps take ~5 s (generously banded).
        let d = t.duration().as_secs_f64();
        assert!((3.0..8.0).contains(&d), "duration = {d}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = QueryTrace::generate(&mut stream(), 50, 10.0, 7);
        let b = QueryTrace::generate(&mut stream(), 50, 10.0, 7);
        assert_eq!(a, b);
        let c = QueryTrace::generate(&mut stream(), 50, 10.0, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn serialization_roundtrips() {
        let t = QueryTrace::generate(&mut stream(), 20, 10.0, 7);
        let back = QueryTrace::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut t = QueryTrace::generate(&mut stream(), 5, 10.0, 7);
        t.version = 9;
        assert!(QueryTrace::from_bytes(&t.to_bytes()).is_err());
        assert!(QueryTrace::from_bytes(b"junk").is_err());
    }

    #[test]
    fn out_of_order_arrivals_rejected() {
        let mut t = QueryTrace::generate(&mut stream(), 5, 10.0, 7);
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

    #[test]
    #[should_panic(expected = "offered load")]
    fn zero_load_panics() {
        let _ = QueryTrace::generate(&mut stream(), 1, 0.0, 0);
    }
}
