//! Always-on flight recorder: a fixed-capacity ring of recent request
//! summaries behind one mutex.
//!
//! The serving layer records one [`RequestSummary`] per finished (or
//! rejected) request, and the ring keeps the last `capacity` of them.
//! A write is a short critical section: stamp the sequence number,
//! evict the oldest entry if full, append. Writes come from the one
//! engine thread (answered queries) and from connection threads only
//! on rejection, so the lock is uncontended in steady state; a reader
//! (a dump) holds it for one copy of the ring and never sees a
//! half-written entry.
//!
//! `dump` serializes the surviving summaries — in recording order — to
//! JSON. All timestamps come from the caller's clock (the serving
//! layer's `ServeClock`), so under a simulated clock two identical runs
//! produce byte-identical dumps, which the test suite asserts.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

use serde::{Deserialize, Serialize};

/// Default ring capacity used by the serving layer.
pub const DEFAULT_RECORDER_CAPACITY: usize = 256;

/// How a recorded request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestOutcome {
    /// Completed normally.
    Ok,
    /// Completed with degraded coverage.
    Degraded,
    /// The engine returned an error response.
    Error,
    /// Rejected at admission: queue full.
    Overloaded,
    /// Rejected at admission: tenant over quota.
    QuotaExceeded,
}

/// One request's life, summarized for the ring.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestSummary {
    /// Recording sequence number (0-based, monotonic): the order the
    /// summary entered the ring.
    pub seq: u64,
    /// The request id carried in (or assigned to) the wire frame.
    pub request_id: u64,
    /// Hello client id of the issuing connection.
    pub tenant: String,
    /// Queries in the frame (1 for `query`, N for `queryBatch`).
    pub queries: u64,
    /// Time spent waiting in the admission queue, ns.
    pub queue_ns: u64,
    /// Time spent in the engine (service time), ns.
    pub service_ns: u64,
    /// End-to-end latency from scheduled arrival, ns.
    pub e2e_ns: u64,
    /// Worst scan coverage across the frame's queries, in 1/1000.
    pub coverage_milli: u64,
    /// How the request ended.
    pub outcome: RequestOutcome,
}

/// The JSON document `dump` produces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Why the dump was taken: `"error"`, `"slo_breach"`, or
    /// `"explicit"`.
    pub reason: String,
    /// Total requests ever recorded (entries hold the newest of these).
    pub total: u64,
    /// Ring capacity.
    pub capacity: u64,
    /// Surviving summaries, oldest first.
    pub entries: Vec<RequestSummary>,
}

/// The ring itself: the newest `capacity` summaries, oldest first.
#[derive(Debug)]
struct Ring {
    entries: VecDeque<RequestSummary>,
    /// Summaries ever recorded; the next one's `seq`.
    total: u64,
}

/// Fixed-capacity ring of recent [`RequestSummary`]s behind one mutex.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<Ring>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` requests
    /// (`capacity >= 1`).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: Mutex::new(Ring {
                entries: VecDeque::with_capacity(capacity),
                total: 0,
            }),
        }
    }

    fn ring(&self) -> MutexGuard<'_, Ring> {
        self.ring.lock().expect("flight recorder poisoned")
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total requests ever recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.ring().total
    }

    /// Records one request summary, stamping its `seq` with the next
    /// sequence number and evicting the oldest entry when full.
    pub fn record(&self, mut summary: RequestSummary) {
        let mut ring = self.ring();
        summary.seq = ring.total;
        ring.total += 1;
        if ring.entries.len() == self.capacity {
            ring.entries.pop_front();
        }
        ring.entries.push_back(summary);
    }

    /// The surviving summaries, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<RequestSummary> {
        self.ring().entries.iter().cloned().collect()
    }

    /// Serializes the ring to a deterministic JSON document.
    #[must_use]
    pub fn dump(&self, reason: &str) -> String {
        let ring = self.ring();
        let dump = FlightDump {
            reason: reason.to_string(),
            total: ring.total,
            capacity: self.capacity as u64,
            entries: ring.entries.iter().cloned().collect(),
        };
        drop(ring);
        serde_json::to_string(&dump).expect("flight dump serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(request_id: u64, tenant: &str) -> RequestSummary {
        RequestSummary {
            seq: 0,
            request_id,
            tenant: tenant.to_string(),
            queries: 1,
            queue_ns: 10 * request_id,
            service_ns: 100,
            e2e_ns: 100 + 10 * request_id,
            coverage_milli: 1000,
            outcome: RequestOutcome::Ok,
        }
    }

    #[test]
    fn ring_keeps_the_newest_entries_on_wraparound() {
        let r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(rec(i, "cli"));
        }
        assert_eq!(r.total(), 10);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 4);
        let seqs: Vec<u64> = snap.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        assert!(snap.iter().all(|e| e.tenant == "cli"));
        assert_eq!(snap[0].request_id, 6);
    }

    #[test]
    fn dump_is_deterministic_json() {
        let build = || {
            let r = FlightRecorder::new(8);
            for i in 0..5 {
                r.record(rec(i, "lg-0"));
            }
            r.dump("explicit")
        };
        let a = build();
        assert_eq!(a, build());
        let back: FlightDump = serde_json::from_str(&a).unwrap();
        assert_eq!(back.reason, "explicit");
        assert_eq!(back.total, 5);
        assert_eq!(back.capacity, 8);
        assert_eq!(back.entries.len(), 5);
        assert_eq!(back.entries[4].request_id, 4);
    }

    #[test]
    fn a_recorded_summary_reads_back_unchanged() {
        let r = FlightRecorder::new(2);
        let mut q = rec(1, "x");
        q.outcome = RequestOutcome::QuotaExceeded;
        q.coverage_milli = 875;
        r.record(q);
        let snap = r.snapshot();
        assert_eq!(snap[0].outcome, RequestOutcome::QuotaExceeded);
        assert_eq!(snap[0].coverage_milli, 875);
    }

    /// Capacities 1 and 2 make every write contend for one or two
    /// slots, the case a per-slot seqlock tears under.
    #[test]
    fn concurrent_writers_never_tear_a_read() {
        for capacity in [1, 2, 16] {
            let r = FlightRecorder::new(capacity);
            std::thread::scope(|s| {
                for w in 0..4 {
                    let r = &r;
                    s.spawn(move || {
                        for i in 0..500 {
                            r.record(rec(w * 1000 + i, "w"));
                        }
                    });
                }
                for _ in 0..50 {
                    // Every visible entry is internally consistent.
                    for e in r.snapshot() {
                        assert_eq!(e.e2e_ns, 100 + 10 * e.request_id, "capacity {capacity}");
                    }
                }
            });
            assert_eq!(r.total(), 2000);
            assert_eq!(r.snapshot().len(), capacity);
        }
    }
}
