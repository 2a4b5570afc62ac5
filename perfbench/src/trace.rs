//! Spans recorded by the benchmark around its calls into each crate.
//!
//! A span has a name (`layer.call`), a start and end on a clock shared
//! by the whole run, the span that was open when it began, and the run
//! id that every span of one workload run shares. Spans stay in memory
//! and are written as JSON lines when the run ends. A layer's self time
//! is the time its spans cover minus the time their child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The span recorder; records nothing unless enabled, so the untraced
/// run pays one branch per call.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool, run_id: u64) -> Self {
        Tracer {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turn recording on or off (untraced comparison passes of a traced
    /// run switch it off).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span opened by [`Tracer::begin`] (and any child left open).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Time `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in seconds per layer (the span name up to its first
    /// `.`): each span's duration minus its children's.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(child);
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += own as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON line.
    ///
    /// # Errors
    /// The file cannot be written.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"run\": {}, \"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                self.run_id, s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, 7);
        let outer = t.begin("sweep.run");
        t.time("core.run", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.end(outer);
        let by_layer = t.self_time_by_layer();
        assert!(by_layer["core"] >= 0.02);
        assert!(by_layer["sweep"] < by_layer["core"]);
        assert_eq!(t.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, 1);
        t.time("core.run", || ());
        assert!(t.spans().is_empty());
    }
}
