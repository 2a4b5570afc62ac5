//! Artifact writers: JSON Lines metrics, CSV time series, Chrome trace
//! JSON. All JSON is emitted by hand (the workspace carries no
//! serialization dependency); everything writes through `io::Write` so
//! tests can target byte buffers and the harness can target files.
//!
//! Every writer returns the number of *records* it wrote (metric lines,
//! CSV data rows, trace events — headers and metadata don't count) and
//! fails a zero-record export with [`EmptyExportError`]: an artifact
//! that parses but carries no data means the instrument was never
//! populated, and silently shipping it hides the wiring bug.

use std::io::{self, Write};

/// A writer produced a structurally valid artifact containing zero
/// records. Surfaced as the inner error of an
/// [`io::ErrorKind::InvalidData`] error so it threads through the
/// existing `io::Result` plumbing; callers that care which artifact came
/// up empty can `get_ref().downcast_ref::<EmptyExportError>()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmptyExportError {
    /// Which artifact came up empty (`"metrics.jsonl"`, …).
    pub artifact: &'static str,
}

impl std::fmt::Display for EmptyExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} export wrote zero records (instrument never populated?)",
            self.artifact
        )
    }
}

impl std::error::Error for EmptyExportError {}

/// `Ok(records)` unless the export was empty.
fn nonempty(artifact: &'static str, records: usize) -> io::Result<usize> {
    if records == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            EmptyExportError { artifact },
        ));
    }
    Ok(records)
}

use pp_core::{HostProfile, SimStats};

use crate::attribution::{BranchTable, PathTable, TimeSeries};
use crate::registry::{Histogram, Registry};
use crate::trace::ChromeTrace;

/// Escape `s` for inclusion inside a JSON string literal (the
/// workspace's one escaper, [`pp_core::json::escape`]).
pub use pp_core::json::escape as json_escape;

/// Render an `f64` as a JSON number (non-finite values become `null`,
/// which JSON has no other spelling for).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn hist_json(h: &Histogram) -> String {
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .map(|(lo, hi, n)| format!("[{lo},{hi},{n}]"))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50_ub\":{},\"p99_ub\":{},\"buckets\":[{}]}}",
        h.count(),
        h.sum(),
        h.min(),
        h.max(),
        json_f64(h.mean()),
        h.quantile_ub(0.5),
        h.quantile_ub(0.99),
        buckets.join(","),
    )
}

/// Write just a [`Registry`]'s instruments as JSON Lines: one
/// `counter` / `gauge` / `histogram` object per line. This is the
/// export path for registries that live outside a simulation — e.g. the
/// sweep engine's progress metrics — where no [`SimStats`] exists.
/// Returns the number of lines written; an empty registry is an error
/// (there was nothing to export, so the artifact would be a lie).
pub fn write_registry_jsonl<W: Write>(w: &mut W, registry: &Registry) -> io::Result<usize> {
    let n = registry_lines(w, registry)?;
    nonempty("registry.jsonl", n)
}

/// The registry body shared by [`write_registry_jsonl`] and
/// [`write_metrics_jsonl`]. No empty guard here: embedded in the
/// metrics artifact an empty registry is fine (the derived lines carry
/// the export).
fn registry_lines<W: Write>(w: &mut W, registry: &Registry) -> io::Result<usize> {
    let mut n = 0;
    for (name, v) in registry.counters() {
        writeln!(
            w,
            "{{\"kind\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
            json_escape(name)
        )?;
        n += 1;
    }
    for (name, v) in registry.gauges() {
        writeln!(
            w,
            "{{\"kind\":\"gauge\",\"name\":\"{}\",\"value\":{}}}",
            json_escape(name),
            json_f64(v)
        )?;
        n += 1;
    }
    for (name, h) in registry.hists() {
        writeln!(
            w,
            "{{\"kind\":\"histogram\",\"name\":\"{}\",\"value\":{}}}",
            json_escape(name),
            hist_json(h)
        )?;
        n += 1;
    }
    Ok(n)
}

/// Write the metrics artifact: one self-describing JSON object per line.
///
/// Line kinds: `counter`, `gauge`, `histogram` (registry instruments),
/// `derived` (the [`SimStats`] metric methods), `branch_pc` (one line per
/// static branch site), `path_hist` (lifetime / kill-depth), and `host`
/// (self-profiling) when available. Returns the number of lines written.
pub fn write_metrics_jsonl<W: Write>(
    w: &mut W,
    stats: &SimStats,
    host: Option<&HostProfile>,
    registry: &Registry,
    branches: &BranchTable,
    paths: &PathTable,
) -> io::Result<usize> {
    let mut n = 0;
    // Derived metrics: the paper's evaluation numbers, computed by the
    // shared SimStats helpers so every consumer agrees on the formulas.
    let derived: [(&str, f64); 9] = [
        ("ipc", stats.ipc()),
        ("mispredict_rate", stats.mispredict_rate()),
        ("pvn", stats.pvn()),
        ("sensitivity", stats.sensitivity()),
        ("mean_active_paths", stats.mean_active_paths()),
        ("mean_window_occupancy", stats.mean_window_occupancy()),
        ("fetched_per_committed", stats.fetched_per_committed()),
        ("dcache_miss_rate", stats.dcache_miss_rate()),
        ("useless_instructions", stats.useless_instructions() as f64),
    ];
    for (name, v) in derived {
        writeln!(
            w,
            "{{\"kind\":\"derived\",\"name\":\"{name}\",\"value\":{}}}",
            json_f64(v)
        )?;
        n += 1;
    }
    let raw: [(&str, u64); 8] = [
        ("cycles", stats.cycles),
        ("committed_instructions", stats.committed_instructions),
        ("fetched_instructions", stats.fetched_instructions),
        ("killed_instructions", stats.killed_instructions),
        ("committed_branches", stats.committed_branches),
        ("mispredicted_branches", stats.mispredicted_branches),
        ("divergences", stats.divergences),
        ("recoveries", stats.recoveries),
    ];
    for (name, v) in raw {
        writeln!(
            w,
            "{{\"kind\":\"counter\",\"name\":\"{name}\",\"value\":{v}}}"
        )?;
        n += 1;
    }

    n += registry_lines(w, registry)?;

    writeln!(
        w,
        "{{\"kind\":\"path_hist\",\"name\":\"path_lifetime_cycles\",\"value\":{}}}",
        hist_json(&paths.lifetime)
    )?;
    writeln!(
        w,
        "{{\"kind\":\"path_hist\",\"name\":\"path_kill_depth\",\"value\":{}}}",
        hist_json(&paths.kill_depth)
    )?;
    n += 2;

    for (pc, s) in branches.sorted() {
        writeln!(
            w,
            "{{\"kind\":\"branch_pc\",\"pc\":{pc},\"resolved\":{},\"mispredicted\":{},\
             \"diverged\":{},\"forked\":{},\"low_incorrect\":{},\"low_correct\":{},\
             \"high_incorrect\":{},\"high_correct\":{},\"mispredict_rate\":{},\"pvn\":{}}}",
            s.resolved,
            s.mispredicted,
            s.diverged,
            s.forked,
            s.low_incorrect,
            s.low_correct,
            s.high_incorrect,
            s.high_correct,
            json_f64(s.mispredict_rate()),
            json_f64(s.pvn()),
        )?;
        n += 1;
    }

    if let Some(p) = host {
        // A sub-resolution wall time has no KIPS figure; omit the row
        // rather than emit a poisoned 0.0 into downstream aggregation.
        if let Some(kips) = p.kips() {
            writeln!(
                w,
                "{{\"kind\":\"host\",\"name\":\"kips\",\"value\":{}}}",
                json_f64(kips)
            )?;
            n += 1;
        }
        writeln!(
            w,
            "{{\"kind\":\"host\",\"name\":\"wall_seconds\",\"value\":{}}}",
            json_f64(p.wall.as_secs_f64())
        )?;
        n += 1;
        for (name, d) in p.phases() {
            writeln!(
                w,
                "{{\"kind\":\"host\",\"name\":\"phase_{name}_seconds\",\"value\":{}}}",
                json_f64(d.as_secs_f64())
            )?;
            n += 1;
        }
    }
    nonempty("metrics.jsonl", n)
}

/// Write the cycle-sampled machine-state time series as CSV. Returns
/// the number of data rows (the header doesn't count — a header-only
/// CSV is an empty export and errors).
pub fn write_timeseries_csv<W: Write>(w: &mut W, ts: &TimeSeries) -> io::Result<usize> {
    writeln!(
        w,
        "cycle,live_paths,fetching_paths,window_occupancy,frontend_occupancy"
    )?;
    let mut n = 0;
    for r in ts.rows() {
        writeln!(
            w,
            "{},{},{},{},{}",
            r.cycle, r.live_paths, r.fetching_paths, r.window_occupancy, r.frontend_occupancy
        )?;
        n += 1;
    }
    nonempty("timeseries.csv", n)
}

/// Write the Chrome trace-event artifact
/// (`chrome://tracing` / Perfetto "load trace file" format). Returns
/// the number of trace events written (process/thread metadata doesn't
/// count, so an event-free trace is an empty export and errors).
pub fn write_chrome_trace<W: Write>(w: &mut W, trace: &ChromeTrace) -> io::Result<usize> {
    nonempty("trace.json", trace.events().len())?;
    write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    let sep = |w: &mut W, first: &mut bool| -> io::Result<()> {
        if !*first {
            write!(w, ",")?;
        }
        *first = false;
        Ok(())
    };

    // Metadata: name the process and one thread per path slot.
    sep(w, &mut first)?;
    write!(
        w,
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\
         \"args\":{{\"name\":\"polypath-sim\"}}}}"
    )?;
    for tid in trace.tids() {
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"path {tid}\"}}}}"
        )?;
    }

    for e in trace.events() {
        sep(w, &mut first)?;
        write!(
            w,
            "{{\"ph\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"cat\":\"{}\",\"name\":\"{}\"",
            e.ph,
            e.tid,
            e.ts,
            json_escape(e.cat),
            json_escape(&e.name),
        )?;
        if e.ph == 'X' {
            write!(w, ",\"dur\":{}", e.dur)?;
        }
        if e.ph == 'i' {
            // Thread-scoped instant.
            write!(w, ",\"s\":\"t\"")?;
        }
        if !e.args.is_empty() {
            write!(w, ",\"args\":{{")?;
            for (i, (k, v)) in e.args.iter().enumerate() {
                if i > 0 {
                    write!(w, ",")?;
                }
                write!(w, "\"{}\":{v}", json_escape(k))?;
            }
            write!(w, "}}")?;
        }
        write!(w, "}}")?;
    }
    writeln!(w, "]}}")?;
    Ok(trace.events().len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(2.5), "2.5");
    }

    #[test]
    fn metrics_jsonl_lines_are_json_objects() {
        let mut reg = Registry::new();
        let c = reg.counter("telemetry_events");
        reg.inc(c, 7);
        let h = reg.histogram("h");
        reg.observe(h, 3);
        let mut branches = BranchTable::new();
        branches.record_resolution(64, true, true, true);
        let paths = PathTable::new();
        let stats = SimStats {
            cycles: 10,
            committed_instructions: 20,
            ..Default::default()
        };

        let mut buf = Vec::new();
        let n = write_metrics_jsonl(&mut buf, &stats, None, &reg, &branches, &paths).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(!text.is_empty());
        assert_eq!(n, text.lines().count(), "returned count = lines written");
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "bad line: {line}"
            );
            // Balanced braces and quotes — cheap structural sanity.
            let braces = line.matches('{').count() == line.matches('}').count();
            assert!(braces, "unbalanced: {line}");
            assert_eq!(
                line.matches('"').count() % 2,
                0,
                "unbalanced quotes: {line}"
            );
        }
        assert!(text.contains("\"name\":\"ipc\",\"value\":2"));
        assert!(text.contains("\"name\":\"telemetry_events\",\"value\":7"));
        assert!(text.contains("\"kind\":\"branch_pc\",\"pc\":64"));
        assert!(text.contains("path_kill_depth"));
    }

    #[test]
    fn timeseries_csv_shape() {
        use pp_core::CycleSample;
        let mut ts = TimeSeries::new(1);
        ts.offer(&CycleSample {
            cycle: 0,
            live_paths: 2,
            fetching_paths: 1,
            window_occupancy: 17,
            frontend_occupancy: 4,
            ..CycleSample::default()
        });
        let mut buf = Vec::new();
        assert_eq!(write_timeseries_csv(&mut buf, &ts).unwrap(), 1);
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "cycle,live_paths,fetching_paths,window_occupancy,frontend_occupancy"
        );
        assert_eq!(lines.next().unwrap(), "0,2,1,17,4");
    }

    #[test]
    fn zero_record_exports_are_named_errors() {
        let cases: [(&str, io::Result<usize>); 3] = [
            (
                "registry.jsonl",
                write_registry_jsonl(&mut Vec::new(), &Registry::new()),
            ),
            (
                "timeseries.csv",
                write_timeseries_csv(&mut Vec::new(), &TimeSeries::new(1)),
            ),
            (
                "trace.json",
                write_chrome_trace(&mut Vec::new(), &ChromeTrace::new()),
            ),
        ];
        for (artifact, res) in cases {
            let err = res.expect_err(artifact);
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{artifact}");
            let inner = err
                .get_ref()
                .and_then(|e| e.downcast_ref::<EmptyExportError>())
                .unwrap_or_else(|| panic!("{artifact}: not an EmptyExportError: {err}"));
            assert_eq!(inner.artifact, artifact);
            assert!(err.to_string().contains("zero records"), "{err}");
        }
        // But an empty registry embedded in the metrics artifact is fine:
        // the derived lines carry the export.
        let mut buf = Vec::new();
        let n = write_metrics_jsonl(
            &mut buf,
            &SimStats::default(),
            None,
            &Registry::new(),
            &BranchTable::new(),
            &PathTable::new(),
        )
        .expect("metrics always has derived lines");
        assert!(n >= 17, "derived + raw + path_hist lines, got {n}");
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let mut t = ChromeTrace::new();
        t.span("add @12".into(), "exec", 0, 3, 6, vec![("fid", "9".into())]);
        t.instant(|| "kill".into(), "kill", 2, 8);
        let mut buf = Vec::new();
        assert_eq!(write_chrome_trace(&mut buf, &t).unwrap(), 2);
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("{\"displayTimeUnit\""));
        assert!(text.trim_end().ends_with("]}"));
        assert!(text.contains("\"traceEvents\":["));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"dur\":3"));
        assert!(text.contains("\"ph\":\"i\""));
        assert!(text.contains("\"s\":\"t\""));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"args\":{\"fid\":9}"));
        assert_eq!(text.matches('{').count(), text.matches('}').count());
    }
}
