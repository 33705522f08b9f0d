//! In-memory spans the traced run records around its own calls into each
//! layer, and the per-layer self time computed from them.

use pcmax_core::json::{object, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call: a name (`layer.stage`), start and end since the trace
/// origin, the span it ran inside, and the request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.stage`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer the span measures.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span recorder for one thread. Spans nest: a span opened while another
/// is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Time spent in one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of the layer.
    pub spans: u64,
    /// Σ span durations, in milliseconds.
    pub total_ms: f64,
    /// Σ span durations minus the time their child spans cover, in ms.
    pub self_ms: f64,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens span `name` for `request` inside the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// The instant timestamps count from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Closes span `id` and returns its duration. Spans opened inside it and
    /// left open (an error path returned early) stay open-ended.
    pub fn exit(&mut self, id: usize) -> Duration {
        if let Some(pos) = self.open.iter().rposition(|&open| open == id) {
            self.open.truncate(pos);
        }
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        Duration::from_nanos(span.duration_ns())
    }

    /// Runs `f` inside span `name` and returns its result and duration.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.enter(name, request);
        let out = f();
        (out, self.exit(id))
    }

    /// Appends the closed spans of another tracer with the same origin.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Total and self time per layer.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, child_ns) in self.spans.iter().zip(covered) {
            let t = out.entry(s.layer()).or_default();
            t.spans += 1;
            t.total_ms += s.duration_ns() as f64 / 1e6;
            t.self_ms += s.duration_ns().saturating_sub(child_ns) as f64 / 1e6;
        }
        out
    }

    /// Every span as JSON, for the trace file.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    object(vec![
                        ("name", Value::Str(s.name.into())),
                        ("start_ns", Value::UInt(s.start_ns)),
                        ("end_ns", Value::UInt(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                        ),
                        ("request", Value::UInt(s.request)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.enter("client.request", 7);
        let ((), child) = t.time("wire.encode", 7, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let total = t.exit(root);
        let layers = t.layers();
        let client = layers["client"];
        assert_eq!(client.spans, 1);
        assert!((client.total_ms - total.as_secs_f64() * 1e3).abs() < 1e-6);
        assert!((client.self_ms - (total - child).as_secs_f64() * 1e3).abs() < 1e-6);
        assert_eq!(layers["wire"].spans, 1);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, 7);
    }
}
