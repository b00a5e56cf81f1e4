//! Lock-free counters and histograms, and the [`metrics!`](crate::metrics!)
//! table that declares a layer's set of them.
//!
//! Determinism is the design driver: every write is one atomic
//! `fetch_add` / `fetch_max`, which are commutative and associative, so
//! the final value of every cell is independent of thread interleaving.
//! Combined with DeepStore's physically-determined shard plan this
//! makes a post-workload [`MetricsSnapshot`] identical for any
//! `parallelism` setting — a property the telemetry test suite asserts.

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

/// A monotonically increasing event counter.
///
/// `add` is a `Release` RMW and `get` an `Acquire` load, so a reader
/// that sees a count also sees what the writer did before counting: the
/// serve layer counts an admission after queueing the job, and a reader
/// of `serve.queries_admitted` may rely on the job being queued. On
/// x86-64 both compile to the same instructions as `Relaxed`.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Clone for Counter {
    /// A new counter holding this one's current value.
    fn clone(&self) -> Self {
        Self {
            value: AtomicU64::new(self.get()),
        }
    }
}

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Release);
    }

    /// Adds one to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current value.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }
}

/// Number of buckets in a [`Histogram`]: bucket 0 holds exact zeros,
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed power-of-two-bucket histogram.
///
/// The bucket layout is static (no resizing, no locking): recording is
/// one `fetch_add` on the bucket plus three more for count/sum/max.
/// Power-of-two buckets cover the full `u64` range, which is plenty of
/// resolution for latency-in-nanoseconds and bytes-moved style metrics.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index for `value`.
    #[inline]
    #[must_use]
    pub fn bucket_of(value: u64) -> usize {
        64 - value.leading_zeros() as usize
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[Self::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded observations (wrapping on overflow).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded observation, tracked exactly (power-of-two
    /// buckets alone would only bound it). 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        let v = self.min.load(Ordering::Relaxed);
        if v == u64::MAX && self.count() == 0 {
            0
        } else {
            v
        }
    }

    /// Largest recorded observation (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time [`HistogramSample`] of this histogram under
    /// `name` (a table snapshots through this; standalone histograms —
    /// e.g. the serve layer's per-tenant latencies — use it directly
    /// for exposition).
    #[must_use]
    pub fn sample(&self, name: &str) -> HistogramSample {
        HistogramSample {
            name: name.to_string(),
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| b.load(Ordering::Relaxed) != 0)
                .map(|(i, b)| (i as u32, b.load(Ordering::Relaxed)))
                .collect(),
        }
    }

    /// Estimates the `q`-th percentile of the observations so far (see
    /// [`crate::percentile`]).
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        crate::histo::percentile(&self.sample(""), q)
    }
}

/// A metric a [`metrics!`](crate::metrics!) table can hold: it appends
/// its point-in-time sample to a snapshot under its table name.
pub trait Metric {
    /// Appends this metric's sample, named `name`, to `snap`.
    fn sample_into(&self, name: &str, snap: &mut MetricsSnapshot);
}

impl Metric for Counter {
    fn sample_into(&self, name: &str, snap: &mut MetricsSnapshot) {
        snap.counters.push(CounterSample {
            name: name.to_string(),
            value: self.get(),
        });
    }
}

impl Metric for Histogram {
    fn sample_into(&self, name: &str, snap: &mut MetricsSnapshot) {
        snap.histograms.push(self.sample(name));
    }
}

/// Declares one layer's metrics as a table: one row per metric, giving
/// its field, its kind ([`Counter`] or [`Histogram`]) and its metric
/// name, in the order snapshots list them.
///
/// ```ignore
/// deepstore_obs::metrics! {
///     /// One layer's metrics.
///     pub struct LayerMetrics {
///         passes: Counter = "layer.passes",
///         pass_ns: Histogram = "layer.pass_ns",
///     }
/// }
///
/// layer_metrics.passes.incr();
/// layer_metrics.pass_ns.record(elapsed_ns);
/// ```
///
/// The table expands to a struct with one public field per row, plus:
///
/// * `new()` — every metric at zero;
/// * `snapshot()` — a [`MetricsSnapshot`] whose counters, then
///   histograms, appear in table order under their row names, which
///   is the only place a name is spelled.
///
/// A layer records by writing its fields directly; there is one build,
/// and every table records in it.
#[macro_export]
macro_rules! metrics {
    (
        $(#[$attr:meta])*
        $vis:vis struct $table:ident {
            $( $field:ident: $kind:ident = $name:literal, )+
        }
    ) => {
        $(#[$attr])*
        #[derive(Debug, Default)]
        $vis struct $table {
            $( #[doc = concat!("`", $name, "`")] pub $field: $crate::$kind, )+
        }

        impl $table {
            /// Every metric at zero.
            #[must_use]
            pub fn new() -> Self {
                Self::default()
            }

            /// A deterministic snapshot of every metric, in table order.
            #[must_use]
            pub fn snapshot(&self) -> $crate::MetricsSnapshot {
                let mut snap = $crate::MetricsSnapshot::empty();
                $( $crate::Metric::sample_into(&self.$field, $name, &mut snap); )+
                snap
            }
        }
    };
}

/// One counter's value in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// One histogram's state in a snapshot. `buckets` is sparse: only
/// non-empty `(bucket_index, count)` pairs, in ascending index order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation, tracked exactly (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty `(bucket_index, count)` pairs.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSample {
    /// Merges another sample of the *same logical metric* into this
    /// one: counts and sums add, the sparse buckets union with
    /// per-bucket addition, and min/max tighten. An empty side leaves
    /// min untouched (its reported 0 is "no observations", not an
    /// observation of zero).
    pub fn merge(&mut self, other: &HistogramSample) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        for &(idx, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (idx, n)),
            }
        }
    }
}

/// A deterministic copy of a layer's metrics at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// All counters, in table order.
    pub counters: Vec<CounterSample>,
    /// All histograms, in table order.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            counters: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Looks up a counter value by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a histogram sample by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSample> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Folds `other` into this snapshot: same-name counters add, same-name
    /// histograms merge bucket-wise (count/sum add, min/max tighten),
    /// and names only present in `other` are appended in their original
    /// order. Two layers' disjoint tables (`engine.*`, `api.*`) thus
    /// concatenate, and N per-drive snapshots merge into one
    /// device-fleet view: because every operation is commutative over
    /// equal name sets, merging drives in any order yields the same
    /// totals.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for oc in &other.counters {
            match self.counters.iter_mut().find(|c| c.name == oc.name) {
                Some(c) => c.value += oc.value,
                None => self.counters.push(oc.clone()),
            }
        }
        for oh in &other.histograms {
            match self.histograms.iter_mut().find(|h| h.name == oh.name) {
                Some(h) => h.merge(oh),
                None => self.histograms.push(oh.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot of one counter `c` and one histogram `h`.
    fn snapshot_of(c: (&str, &Counter), h: (&str, &Histogram)) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::empty();
        c.1.sample_into(c.0, &mut snap);
        h.1.sample_into(h.0, &mut snap);
        snap
    }

    /// A counter at `c_val` and a histogram of `h_vals`.
    fn filled(c_val: u64, h_vals: &[u64]) -> (Counter, Histogram) {
        let (c, h) = (Counter::new(), Histogram::new());
        c.add(c_val);
        for &v in h_vals {
            h.record(v);
        }
        (c, h)
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
    }

    #[test]
    fn histogram_aggregates() {
        let h = Histogram::new();
        for v in [0, 1, 3, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 107);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 100);
    }

    #[test]
    fn min_is_exact_not_bucket_bounded() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0, "empty histogram reports min 0");
        // 100 and 75 land in the same power-of-two bucket [64, 128);
        // only exact tracking can distinguish them.
        h.record(100);
        h.record(75);
        assert_eq!(h.min(), 75);
        assert_eq!(h.max(), 100);
        h.record(3);
        assert_eq!(h.min(), 3);
    }

    #[test]
    fn a_clone_holds_the_current_count() {
        let c = Counter::new();
        c.add(4);
        let copy = c.clone();
        c.incr();
        assert_eq!((c.get(), copy.get()), (5, 4));
    }

    #[test]
    fn snapshot_is_interleaving_independent() {
        // The same multiset of operations applied in two different
        // orders (and thread splits) yields the same snapshot.
        let build = |rev: bool| {
            let (c, h) = (Counter::new(), Histogram::new());
            let mut vals: Vec<u64> = (0..100).map(|i| i * 37 % 1000).collect();
            if rev {
                vals.reverse();
            }
            std::thread::scope(|s| {
                let (a, b) = vals.split_at(if rev { 13 } else { 61 });
                let (c, h) = (&c, &h);
                s.spawn(move || {
                    for &v in a {
                        c.add(v);
                        h.record(v);
                    }
                });
                for &v in b {
                    c.add(v);
                    h.record(v);
                }
            });
            snapshot_of(("ops", &c), ("latency", &h))
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn snapshot_merge_is_order_independent() {
        let build = |c_val: u64, h_vals: &[u64]| {
            let (c, h) = filled(c_val, h_vals);
            snapshot_of(("ops", &c), ("latency", &h))
        };
        let a = build(3, &[100, 75]);
        let b = build(9, &[3]);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("ops"), Some(12));
        let h = ab.histogram("latency").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 178);
        assert_eq!(h.min, 3);
        assert_eq!(h.max, 100);
        // Merging the same multiset through one histogram gives the
        // identical sample.
        let direct = build(12, &[100, 75, 3]);
        assert_eq!(ab.histogram("latency"), direct.histogram("latency"));
    }

    #[test]
    fn merging_an_empty_histogram_keeps_min_honest() {
        let h = Histogram::new();
        h.record(7);
        let mut snap = MetricsSnapshot::empty();
        h.sample_into("ns", &mut snap);
        let mut with_name = MetricsSnapshot::empty();
        Histogram::new().sample_into("ns", &mut with_name);
        snap.merge(&MetricsSnapshot::empty());
        snap.merge(&with_name);
        let s = snap.histogram("ns").unwrap();
        assert_eq!((s.count, s.min, s.max), (1, 7, 7));
        // And the other direction: empty absorbs the observation's min.
        let mut base = with_name;
        base.merge(&snap);
        let s = base.histogram("ns").unwrap();
        assert_eq!((s.count, s.min, s.max), (1, 7, 7));
    }

    #[test]
    fn merge_appends_unknown_names() {
        let mut merged = MetricsSnapshot::empty();
        filled(1, &[]).0.sample_into("a", &mut merged);
        let (cb, hb) = filled(2, &[5]);
        merged.merge(&snapshot_of(("b", &cb), ("hb", &hb)));
        assert_eq!(merged.counter("a"), Some(1));
        assert_eq!(merged.counter("b"), Some(2));
        assert_eq!(merged.histogram("hb").unwrap().count, 1);
    }

    #[test]
    fn merge_of_disjoint_tables_is_concatenation() {
        let (c1, h1) = filled(1, &[10]);
        let (c2, h2) = filled(2, &[20]);
        let first = snapshot_of(("engine.ops", &c1), ("engine.ns", &h1));
        let second = snapshot_of(("api.ops", &c2), ("api.ns", &h2));
        let mut merged = first.clone();
        merged.merge(&second);
        let mut concatenated = first;
        concatenated.counters.extend(second.counters);
        concatenated.histograms.extend(second.histograms);
        assert_eq!(merged, concatenated);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let (c, h) = filled(42, &[9]);
        let snap = snapshot_of(("reads", &c), ("ns", &h));
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(snap, back);
    }
}
