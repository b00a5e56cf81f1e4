//! Spans recorded by the harness around every call it makes into a layer.
//!
//! The traced run keeps spans in memory and writes them out as Chrome
//! trace-event JSON when the run ends. A span's *self time* is its
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call that was timed (`DeepStore::query`, `flash.read`, ...).
    pub name: &'static str,
    /// The layer the call enters (a module name from the README).
    pub layer: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
    /// Thread lane in the trace viewer.
    pub lane: u32,
}

/// An in-memory span recorder for one thread. A recorder built with
/// [`Recorder::off`] ignores every call, so the gated run pays one
/// predictable branch per call site.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            lane: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recording recorder; threads of one run share `epoch`.
    pub fn on(epoch: Instant, lane: u32) -> Self {
        Recorder {
            enabled: true,
            epoch,
            lane,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A recorder for another thread of the same run.
    pub fn sibling(&self, lane: u32) -> Self {
        Recorder {
            enabled: self.enabled,
            epoch: self.epoch,
            lane,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open span; close it with
    /// [`Recorder::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &'static str, op: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
            lane: self.lane,
        });
        self.stack.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let idx = self.stack.pop().expect("exit without enter");
        self.spans[idx].end_ns = now;
    }

    /// Moves another thread's spans into this recorder, keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Self time summed per layer, nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// Renders spans as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): complete events, microsecond timestamps, one thread lane
/// per recorder, layer as the category.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
            s.name,
            s.layer,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.lane,
            s.op,
            i,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
            parent,
            op: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_covered_child_interval() {
        // Children [10,40) and [30,60) overlap: they cover [10,60) = 50
        // of the parent's 100; the grandchild only reduces its own parent.
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 22, 30, 8]);
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer["root"], 50);
        assert_eq!(by_layer["child"], 60);
    }

    #[test]
    fn a_child_overhanging_its_parent_is_clipped() {
        let spans = vec![span(10, 20, None), span(5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn recorder_nests_merges_and_renders() {
        let mut rec = Recorder::on(Instant::now(), 1);
        rec.enter("harness", "op", 7);
        rec.enter("api", "DeepStore::query", 7);
        rec.exit();
        rec.exit();
        let mut other = rec.sibling(2);
        other.enter("harness", "op", 8);
        other.enter("api", "DeepStore::query", 8);
        other.exit();
        other.exit();
        rec.absorb(other);
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let json = chrome_trace_json(spans);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
        assert!(json.contains("\"cat\":\"api\""));

        let mut off = Recorder::off();
        off.enter("api", "x", 0);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
