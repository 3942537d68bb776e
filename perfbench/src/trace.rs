//! Harness-side spans: one around every call the harness makes into a
//! product layer. Spans live in memory and are written out as JSON
//! lines when the run ends; a disabled tracer costs one branch per call.
//!
//! The harness only sees layer *boundaries*, so a layer's self time is
//! its span minus the child spans the harness itself opened; what
//! happens inside a single product call is reached by replaying the
//! same inputs against the inner layer's public entry point and
//! subtracting (see `layers.rs`).

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::error::Result;
use crate::json::Json;

/// Handle of an open span (index into the span table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<u32>);

impl SpanId {
    /// "No parent".
    pub const ROOT: SpanId = SpanId(None);
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `dist.query_knn`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while still open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Identifier shared by every span of one request.
    pub request: u64,
}

impl Span {
    /// Wall time between open and close.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What all spans of one name add up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    /// The span name.
    pub name: &'static str,
    /// Summed durations minus summed direct-child durations.
    pub self_ns: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Spans of this name.
    pub count: u64,
}

/// The in-memory span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// A recording tracer.
    #[must_use]
    pub fn enabled() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Switch recording on or off (the traced run alternates passes to
    /// measure its own overhead).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under `parent` for request `request`.
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let Ok(id) = u32::try_from(self.spans.len()) else {
            return SpanId(None);
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: parent.0,
            request,
        });
        SpanId(Some(id))
    }

    /// Close a span opened by [`open`](Self::open); returns its
    /// duration in nanoseconds (0 when tracing is off).
    pub fn close(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        match id.0.and_then(|i| self.spans.get_mut(i as usize)) {
            Some(span) => {
                span.end_ns = now;
                span.duration_ns()
            }
            None => 0,
        }
    }

    /// Time `body` as a span and hand back its result and duration in
    /// seconds. Unlike [`open`](Self::open) this measures even when the
    /// tracer is disabled, so probes can use it unconditionally.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        body: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent, 0);
        let start = Instant::now();
        let out = body();
        let secs = start.elapsed().as_secs_f64();
        self.close(id);
        (out, secs)
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name, sorted by name so the output repeats: self time
    /// (each span's duration minus the durations of the spans it
    /// directly caused), total duration, and span count.
    #[must_use]
    pub fn by_name(&self) -> Vec<NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(slot) = span.parent.and_then(|p| child_ns.get_mut(p as usize)) {
                *slot += span.duration_ns();
            }
        }
        let mut by_name: std::collections::BTreeMap<&'static str, NameTotals> =
            std::collections::BTreeMap::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let entry = by_name.entry(span.name).or_insert(NameTotals {
                name: span.name,
                self_ns: 0,
                total_ns: 0,
                count: 0,
            });
            entry.self_ns += span.duration_ns().saturating_sub(*children);
            entry.total_ns += span.duration_ns();
            entry.count += 1;
        }
        by_name.into_values().collect()
    }

    /// Write every span as one JSON line to `path`.
    ///
    /// # Errors
    /// Fails when the file cannot be created or written.
    pub fn write_jsonl(&self, path: &Path) -> Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
                ("request", Json::Num(span.request as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let mut t = Tracer::disabled();
        let id = t.open("x", SpanId::ROOT, 1);
        assert_eq!(t.close(id), 0);
        let (v, secs) = t.timed("y", SpanId::ROOT, || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::enabled();
        let op = t.open("op", SpanId::ROOT, 9);
        let call = t.open("layer.call", op, 9);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let call_ns = t.close(call);
        let op_ns = t.close(op);
        assert!(op_ns >= call_ns && call_ns >= 2_000_000);
        let table = t.by_name();
        assert_eq!(table.len(), 2);
        assert_eq!((table[0].name, table[0].count), ("layer.call", 1));
        assert_eq!(table[0].self_ns, call_ns);
        assert_eq!(table[1].name, "op");
        assert_eq!(table[1].self_ns, op_ns - call_ns);
        assert_eq!(table[1].total_ns, op_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 9);
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut t = Tracer::enabled();
        let a = t.open("a", SpanId::ROOT, 1);
        let b = t.open("b", a, 1);
        t.close(b);
        t.close(a);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let second = Json::parse(lines[1]).unwrap();
        assert_eq!(second.get("name").and_then(Json::as_str), Some("b"));
        assert_eq!(second.get("parent").and_then(Json::as_f64), Some(0.0));
        let _ = std::fs::remove_dir_all(dir);
    }
}
