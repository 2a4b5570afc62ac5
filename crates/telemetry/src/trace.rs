//! Chrome trace-event building: turn the [`pp_core::PipeEvent`] stream
//! into a timeline loadable by `chrome://tracing` / Perfetto.
//!
//! Mapping: one trace *thread* (`tid`) per CTX-table path slot, one
//! complete-event ("X") span per pipeline stage an instruction occupied,
//! and instant events ("i") for the micro-architectural punctuation —
//! divergences, kills, mispredict resolutions, recovery redirects. One
//! simulated cycle is one microsecond of trace time, so Perfetto's
//! duration labels read directly as cycle counts.
//!
//! An instruction's stages come from its [`InstSpan`] through one
//! mapping, [`ChromeTrace::lifecycle`], whichever observer kept the span:
//! [`crate::TelemetryObserver`] at retirement, or
//! [`ChromeTrace::from_pipeview`] over a finished [`PipeView`].

use pp_core::{InstSpan, PipeView};

/// The span's instruction as trace names print it (`?` before fetch).
pub(crate) fn op_name(s: &InstSpan) -> String {
    s.op.map_or_else(|| "?".to_string(), |o| o.to_string())
}

/// One trace event, pre-flattened to the fields the JSON needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Phase: `'X'` complete (has `dur`), `'i'` instant, `'M'` metadata.
    pub ph: char,
    /// Display name.
    pub name: String,
    /// Category string (stage name or event kind).
    pub cat: &'static str,
    /// Start time in µs (= cycle).
    pub ts: u64,
    /// Duration in µs (complete events only).
    pub dur: u64,
    /// Trace thread: the path slot index.
    pub tid: u32,
    /// Extra `args` entries as key → already-rendered JSON value.
    pub args: Vec<(&'static str, String)>,
}

/// Accumulates [`TraceEvent`]s with a hard cap so a long run cannot
/// balloon the artifact; drops (and counts) events past the cap.
#[derive(Debug)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
    max_events: usize,
    dropped: u64,
}

/// Default event cap: enough for a few hundred thousand instructions'
/// stages, ~100 MB of JSON at the upper end.
pub const DEFAULT_MAX_TRACE_EVENTS: usize = 200_000;

impl Default for ChromeTrace {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_MAX_TRACE_EVENTS)
    }
}

impl ChromeTrace {
    /// Trace with the default event cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Trace that keeps at most `max_events` non-metadata events.
    pub fn with_capacity(max_events: usize) -> Self {
        ChromeTrace {
            events: Vec::new(),
            max_events,
            dropped: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.events.len() < self.max_events {
            self.events.push(ev);
        } else {
            self.dropped += 1;
        }
    }

    /// A complete ("X") span covering `[start, end]` cycles on `tid`.
    pub fn span(
        &mut self,
        name: String,
        cat: &'static str,
        tid: u32,
        start: u64,
        end: u64,
        args: Vec<(&'static str, String)>,
    ) {
        self.push(TraceEvent {
            ph: 'X',
            name,
            cat,
            ts: start,
            dur: end.saturating_sub(start).max(1),
            tid,
            args,
        });
    }

    /// An instant ("i") event at `cycle` on `tid`.
    pub fn instant(&mut self, name: String, cat: &'static str, tid: u32, cycle: u64) {
        self.push(TraceEvent {
            ph: 'i',
            name,
            cat,
            ts: cycle,
            dur: 0,
            tid,
            args: Vec::new(),
        });
    }

    /// Append one instruction's lifecycle: a span per stage it occupied
    /// (`fetch` → `window` → `exec` → `retire-wait`, the last only when
    /// it lasts a cycle or more), named `{stage} {op} @{pc}` and carrying
    /// an `outcome` arg (plus `ctx` when the span has a CTX tag), and a
    /// `kill` instant for a killed instruction. A span still in flight
    /// ends at `end_of_run`.
    pub fn lifecycle(&mut self, s: &InstSpan, end_of_run: u64) {
        let op = op_name(s);
        let name = |stage: &str| format!("{stage} {op} @{}", s.pc);
        let mut args = vec![("outcome", format!("\"{}\"", s.outcome()))];
        if let Some(c) = s.ctx {
            args.push(("ctx", format!("\"{}\"", c.annotate())));
        }
        let end = s.retired().unwrap_or(end_of_run);
        let mut stage = |stage: &'static str, start: u64, stop: Option<u64>| {
            let stop = stop.unwrap_or(end);
            self.span(name(stage), stage, s.path, start, stop, args.clone());
        };
        stage("fetch", s.fetched, s.dispatched);
        if let Some(d) = s.dispatched {
            stage("window", d, s.issued);
        }
        if let Some(i) = s.issued {
            stage("exec", i, s.completed);
        }
        if let Some(c) = s.completed {
            if end > c {
                stage("retire-wait", c, None);
            }
        }
        if let Some(k) = s.killed {
            self.instant(name("kill"), "kill", s.path, k);
        }
    }

    /// The Chrome trace of every span a [`PipeView`] kept, capped at
    /// `max_events` (see [`DEFAULT_MAX_TRACE_EVENTS`]); spans still in
    /// flight end one cycle after the last observed event.
    pub fn from_pipeview(view: &PipeView, max_events: usize) -> Self {
        let mut t = Self::with_capacity(max_events);
        for s in view.iter() {
            t.lifecycle(s, view.last_cycle() + 1);
        }
        t
    }

    /// Events recorded so far (metadata not included; the exporter
    /// synthesizes thread names from the tids it sees).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events discarded because the cap was hit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Distinct tids referenced, sorted (for thread-name metadata).
    pub fn tids(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.events.iter().map(|e| e.tid).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_have_min_duration_one() {
        let mut t = ChromeTrace::new();
        t.span("nop @0".into(), "exec", 0, 5, 5, vec![]);
        assert_eq!(t.events()[0].dur, 1);
        t.span("nop @4".into(), "exec", 0, 5, 9, vec![]);
        assert_eq!(t.events()[1].dur, 4);
    }

    #[test]
    fn cap_drops_and_counts() {
        let mut t = ChromeTrace::with_capacity(2);
        for i in 0..5 {
            t.instant(format!("e{i}"), "kill", 0, i);
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn tids_are_sorted_and_deduped() {
        let mut t = ChromeTrace::new();
        t.instant("a".into(), "kill", 3, 0);
        t.instant("b".into(), "kill", 1, 0);
        t.instant("c".into(), "kill", 3, 0);
        assert_eq!(t.tids(), vec![1, 3]);
    }
}
