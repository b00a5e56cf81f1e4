//! Percentile estimation and Prometheus-format text exposition over
//! [`MetricsSnapshot`] data.
//!
//! The power-of-two-bucket [`Histogram`](crate::Histogram) records
//! cheaply (four atomic RMWs) but only keeps bucket counts, so
//! percentiles are *estimates*: the estimator interpolates linearly
//! inside the bucket that contains the requested rank, then clamps to
//! the exact `[min, max]` the histogram tracks. For SLO checks this
//! errs on the side of the bucket's upper half, never above the true
//! maximum.
//!
//! `render_text` turns a snapshot into the Prometheus text exposition
//! format (`# TYPE` comments, `_bucket{le="..."}` cumulative series,
//! `_sum`/`_count`, plus `_min`/`_max` gauges), deterministically:
//! metrics render in table order with no timestamps, so equal
//! snapshots yield byte-identical pages.

use crate::metrics::{HistogramSample, MetricsSnapshot, HISTOGRAM_BUCKETS};

/// Inclusive value range covered by bucket `i` of a power-of-two
/// histogram: bucket 0 holds exact zeros, bucket `i >= 1` holds
/// `[2^(i-1), 2^i - 1]`.
#[must_use]
pub fn bucket_range(i: u32) -> (u64, u64) {
    match i {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        _ => (1 << (i - 1), (1 << i) - 1),
    }
}

/// Estimates the `q`-th percentile (`q` in `[0, 100]`) of a sampled
/// histogram.
///
/// Walks the sparse buckets to the one containing the requested rank
/// and interpolates linearly within it, then clamps to the exact
/// `[min, max]` tracked alongside the buckets. Returns 0 for an empty
/// histogram.
#[must_use]
pub fn percentile(h: &HistogramSample, q: f64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 100.0);
    // 1-based rank of the requested observation.
    #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
    let rank = ((q / 100.0 * h.count as f64).ceil() as u64).clamp(1, h.count);
    let mut cum = 0u64;
    for &(i, n) in &h.buckets {
        debug_assert!((i as usize) < HISTOGRAM_BUCKETS);
        if cum + n >= rank {
            let (lo, hi) = bucket_range(i);
            // Position of the rank within this bucket, in (0, 1].
            let frac = (rank - cum) as f64 / n as f64;
            let span = (hi - lo) as f64;
            #[allow(clippy::cast_sign_loss, clippy::cast_possible_truncation)]
            let est = lo + (span * frac) as u64;
            return est.clamp(h.min, h.max);
        }
        cum += n;
    }
    h.max
}

/// Appends `c` if it is valid in a Prometheus metric name, else `_`.
fn sanitize_into(out: &mut String, name: &str) {
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
}

/// A metric name sanitized for the Prometheus exposition format
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`); dots and other separators become `_`.
#[must_use]
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    sanitize_into(&mut out, name);
    out
}

/// Renders one counter in exposition format.
pub fn render_counter(out: &mut String, prefix: &str, name: &str, value: u64) {
    let full = format!("{prefix}{}", sanitize_name(name));
    out.push_str(&format!("# TYPE {full} counter\n{full} {value}\n"));
}

/// Renders one histogram's series lines (cumulative `_bucket`s, `_sum`,
/// `_count`) without any `# TYPE` headers. `full` is the already
/// prefixed/sanitized metric name. Use this to emit several labeled
/// series (e.g. one per tenant) under a single `# TYPE` header —
/// repeating the header per series would be invalid exposition.
pub fn render_histogram_series(out: &mut String, full: &str, labels: &str, h: &HistogramSample) {
    let label = |extra: &str| -> String {
        match (labels.is_empty(), extra.is_empty()) {
            (true, true) => String::new(),
            (true, false) => format!("{{{extra}}}"),
            (false, true) => format!("{{{labels}}}"),
            (false, false) => format!("{{{labels},{extra}}}"),
        }
    };
    let mut cum = 0u64;
    for &(i, n) in &h.buckets {
        cum += n;
        let (_, hi) = bucket_range(i);
        out.push_str(&format!(
            "{full}_bucket{} {cum}\n",
            label(&format!("le=\"{hi}\""))
        ));
    }
    out.push_str(&format!(
        "{full}_bucket{} {}\n",
        label("le=\"+Inf\""),
        h.count
    ));
    out.push_str(&format!("{full}_sum{} {}\n", label(""), h.sum));
    out.push_str(&format!("{full}_count{} {}\n", label(""), h.count));
}

/// Renders one histogram in exposition format, with optional extra
/// labels (e.g. `tenant="lg-0"`) applied to every series.
pub fn render_histogram(
    out: &mut String,
    prefix: &str,
    name: &str,
    labels: &str,
    h: &HistogramSample,
) {
    let full = format!("{prefix}{}", sanitize_name(name));
    let label = if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    };
    out.push_str(&format!("# TYPE {full} histogram\n"));
    render_histogram_series(out, &full, labels, h);
    out.push_str(&format!(
        "# TYPE {full}_min gauge\n{full}_min{label} {}\n",
        h.min
    ));
    out.push_str(&format!(
        "# TYPE {full}_max gauge\n{full}_max{label} {}\n",
        h.max
    ));
}

/// Renders a whole snapshot as a Prometheus text exposition page.
///
/// `prefix` is prepended to every metric name (conventionally
/// `"deepstore_"`). Counters render before histograms, each in
/// table order, so the page is deterministic for equal
/// snapshots.
#[must_use]
pub fn render_text(snap: &MetricsSnapshot, prefix: &str) -> String {
    let mut out = String::new();
    for c in &snap.counters {
        render_counter(&mut out, prefix, &c.name, c.value);
    }
    for h in &snap.histograms {
        render_histogram(&mut out, prefix, &h.name, "", h);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Histogram, Metric};

    fn sample_of(values: &[u64]) -> HistogramSample {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.sample("t")
    }

    #[test]
    fn empty_percentile_is_zero() {
        assert_eq!(percentile(&sample_of(&[]), 99.0), 0);
    }

    #[test]
    fn percentiles_are_bracketed_by_min_and_max() {
        let vals: Vec<u64> = (0..500).map(|i| i * 97 % 10_000).collect();
        let s = sample_of(&vals);
        for q in [0.0, 50.0, 90.0, 99.0, 100.0] {
            let p = percentile(&s, q);
            assert!(
                p >= s.min && p <= s.max,
                "p{q} = {p} outside [{}, {}]",
                s.min,
                s.max
            );
        }
        assert_eq!(percentile(&s, 100.0), s.max);
    }

    #[test]
    fn live_percentile_matches_the_sampled_one() {
        let h = Histogram::new();
        for v in (0..300).map(|i| i * 31 % 5_000) {
            h.record(v);
        }
        for q in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(q), percentile(&h.sample("t"), q));
        }
    }

    #[test]
    fn single_value_percentiles_are_exact() {
        let s = sample_of(&[777]);
        for q in [0.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&s, q), 777);
        }
    }

    #[test]
    fn percentile_is_within_one_bucket_of_truth() {
        let mut vals: Vec<u64> = (1..=1000).map(|i| i * 13).collect();
        vals.sort_unstable();
        let s = sample_of(&vals);
        let true_p99 = vals[(0.99f64 * 1000.0).ceil() as usize - 1];
        let est = percentile(&s, 99.0);
        let b = Histogram::bucket_of(true_p99) as u32;
        let (lo, hi) = bucket_range(b);
        assert!(
            est >= lo && est <= hi,
            "p99 estimate {est} outside bucket [{lo}, {hi}]"
        );
    }

    #[test]
    fn render_text_is_valid_and_deterministic() {
        let (c, h) = (Counter::new(), Histogram::new());
        c.add(3);
        h.record(100);
        h.record(900);
        let mut snap = MetricsSnapshot::empty();
        c.sample_into("serve.accepted", &mut snap);
        h.sample_into("serve.e2e_ns", &mut snap);
        let page = render_text(&snap, "deepstore_");
        assert_eq!(page, render_text(&snap.clone(), "deepstore_"));
        assert!(page.contains("# TYPE deepstore_serve_accepted counter"));
        assert!(page.contains("deepstore_serve_accepted 3"));
        assert!(page.contains("# TYPE deepstore_serve_e2e_ns histogram"));
        assert!(page.contains("deepstore_serve_e2e_ns_bucket{le=\"+Inf\"} 2"));
        assert!(page.contains("deepstore_serve_e2e_ns_sum 1000"));
        assert!(page.contains("deepstore_serve_e2e_ns_count 2"));
        assert!(page.contains("deepstore_serve_e2e_ns_min 100"));
        assert!(page.contains("deepstore_serve_e2e_ns_max 900"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in page.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(
                !name.is_empty() && value.parse::<f64>().is_ok(),
                "bad line {line}"
            );
        }
    }

    #[test]
    fn labeled_histogram_series_carry_the_label() {
        let s = sample_of(&[5, 9]);
        let mut out = String::new();
        render_histogram(
            &mut out,
            "deepstore_",
            "serve.queue_ns",
            "tenant=\"lg-0\"",
            &s,
        );
        assert!(out.contains("deepstore_serve_queue_ns_bucket{tenant=\"lg-0\",le=\"+Inf\"} 2"));
        assert!(out.contains("deepstore_serve_queue_ns_count{tenant=\"lg-0\"} 2"));
        assert!(out.contains("deepstore_serve_queue_ns_min{tenant=\"lg-0\"} 5"));
    }

    #[test]
    fn names_are_sanitized() {
        assert_eq!(sanitize_name("api.query_ns"), "api_query_ns");
        assert_eq!(sanitize_name("9lives"), "_lives");
        assert_eq!(sanitize_name("a-b c"), "a_b_c");
    }
}
