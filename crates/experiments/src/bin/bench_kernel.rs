//! Kernel throughput benchmark: simulated KIPS over the `sweep run all`
//! workload set, exported as `BENCH_kernel.json`.
//!
//! ```sh
//! cargo run --release -p pp-experiments --bin bench_kernel -- \
//!     [--out BENCH_kernel.json] [--baseline OLD.json] [--repeat N]
//! cargo run --release -p pp-experiments --bin bench_kernel -- \
//!     --validate BENCH_kernel.json
//! ```
//!
//! Runs every workload of the paper's evaluation under the named
//! configurations sequentially (no worker threads, so wall-clock numbers
//! are not distorted by core contention), and **appends** a timestamped
//! JSON report to the `--out` file's `"trajectory"` array: per-run KIPS
//! plus the per-pipeline-phase host-time breakdown, and an aggregate
//! over the whole set. Earlier captures are preserved, so the file *is*
//! the perf history of the kernel. With `--baseline`, the **latest**
//! aggregate of a previously captured trajectory is embedded and the
//! speedup computed: capture once before an optimization, re-run with
//! `--baseline` after it.
//!
//! `--validate PATH` runs no benchmark: it parses `PATH` with the
//! workspace's strict JSON reader ([`pp_core::json`]), checks the
//! trajectory shape,
//! and exits nonzero if the file is malformed — the CI smoke that an
//! append never corrupts the committed history.
//!
//! Each (workload, config) pair is run **twice**: once clean — no
//! observer, no self-profiling, wall time measured around `run()` — for
//! the KIPS figure, and once with host self-profiling enabled for the
//! phase attribution. The phase timers read the clock twice per phase,
//! five phases per cycle, which adds a per-cycle constant that would
//! otherwise dilute (or mask) kernel speedups; keeping the timing run
//! un-instrumented makes KIPS reflect the simulator alone. Baselines
//! must be captured with the same methodology to be comparable.
//!
//! Set-up is timed too: each timing run also measures `Simulator::new`
//! (loading the program's data segments into memory, building the
//! predictor tables), and the report carries the minimum as `new_s`
//! per run and its sum in the aggregate. `run()` wall time and KIPS
//! exclude it.
//!
//! `--repeat N` makes N timing passes over all the pairs, pass-major,
//! and keeps each pair's **minimum** wall time. Host-side noise
//! (frequency scaling, other tenants) only ever adds time, so min-of-N
//! estimates the undisturbed cost; and because a pair's samples are a
//! whole pass apart, a slowdown lasting seconds lands on one of its
//! samples, not on all N. The one attribution run per pair follows the
//! last pass. On shared machines use `--repeat 3` for both the baseline
//! capture and the comparison run, back to back. Samples at or below
//! the host timer's resolution (zero elapsed seconds) carry no rate
//! information and are skipped rather than allowed to win the min; a
//! pair with no valid sample reports `null` for `wall_s`/`kips`.
//!
//! Honours `PP_SCALE` like every other binary; the scale in use is
//! recorded in the report so baselines are only compared at like scale.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use pp_core::{json, SimStats, Simulator};
use pp_experiments::cli::{self, Arg, Flag};
use pp_experiments::experiments::BASELINE_HISTORY_BITS;
use pp_experiments::{named_config, Config};
use pp_isa::Program;
use pp_sweep::{scale_factor, scaled};
use pp_workloads::Workload;

/// The configurations benchmarked, in order. Monopath exercises the
/// single-path fast path, SEE/JRS the divergence machinery, dual-path
/// the bounded variant.
const BENCH_CONFIGS: [Config; 3] = [Config::Monopath, Config::SeeJrs, Config::DualJrs];

struct RunReport {
    workload: &'static str,
    config: &'static str,
    committed: u64,
    cycles: u64,
    /// Minimum wall time over the repeat runs, counting only samples
    /// above the host timer's resolution; `None` if no run registered.
    wall_s: Option<f64>,
    /// Simulated KIPS from the minimum valid wall time.
    kips: Option<f64>,
    /// Minimum `Simulator::new` time over the repeat runs.
    new_s: f64,
    phases: Vec<(&'static str, f64)>,
}

/// One (workload, config) pair and the fastest of its timing samples.
struct Cell<'p> {
    w: Workload,
    c: Config,
    program: &'p Program,
    /// Minimum `run()` wall time above the timer's resolution.
    wall: Option<Duration>,
    /// Minimum `Simulator::new` time.
    new: Option<Duration>,
    /// The stats of the first sample; every later one must match.
    stats: Option<SimStats>,
}

impl Cell<'_> {
    /// One timing run: nothing attached, wall clock measured from
    /// outside. A sample at or below the timer's resolution reads as
    /// zero seconds — it carries no rate information, and letting it
    /// win the min would turn KIPS into infinity/garbage — so
    /// sub-resolution samples are skipped.
    fn sample(&mut self) {
        let cfg = named_config(self.c, BASELINE_HISTORY_BITS);
        #[expect(clippy::disallowed_methods, reason = "wall time is what it measures")]
        let start = Instant::now();
        let mut sim = Simulator::new(self.program, cfg);
        let built = start.elapsed();
        self.new = Some(self.new.map_or(built, |n| n.min(built)));
        #[expect(clippy::disallowed_methods, reason = "wall time is what it measures")]
        let start = Instant::now();
        let s = sim.run();
        let elapsed = start.elapsed();
        if elapsed > Duration::ZERO {
            self.wall = Some(self.wall.map_or(elapsed, |w| w.min(elapsed)));
        }
        assert!(!s.hit_cycle_limit, "{} hit the cycle limit", self.w);
        match &self.stats {
            Some(prev) => assert_eq!(&s, prev, "{} repeat run diverged", self.w),
            None => self.stats = Some(s),
        }
    }

    /// The report: the timing samples plus one attribution run, the
    /// same simulation with the phase timers on.
    fn report(self) -> RunReport {
        let stats = self.stats.expect("repeat must be nonzero");
        let mut prof_sim =
            Simulator::new(self.program, named_config(self.c, BASELINE_HISTORY_BITS));
        prof_sim.enable_self_profiling();
        let prof_stats = prof_sim.run();
        assert_eq!(
            prof_stats.committed_instructions, stats.committed_instructions,
            "self-profiling must not perturb the simulation"
        );
        let host = prof_sim.host_profile().expect("profiling enabled").clone();
        RunReport {
            workload: self.w.name(),
            config: self.c.label(),
            committed: stats.committed_instructions,
            cycles: stats.cycles,
            wall_s: self.wall.map(|w| w.as_secs_f64()),
            kips: self
                .wall
                .map(|w| stats.committed_instructions as f64 / w.as_secs_f64() / 1e3),
            new_s: self.new.unwrap_or_default().as_secs_f64(),
            phases: host
                .phases()
                .iter()
                .map(|(n, d)| (*n, d.as_secs_f64()))
                .collect(),
        }
    }
}

/// `(--out, --baseline, --repeat, --validate)` from the process
/// arguments.
fn parse_args() -> Result<(String, Option<String>, usize, Option<String>), String> {
    const FLAGS: &[Flag] = &[
        Flag::value("--out", "a path"),
        Flag::value("--baseline", "a path"),
        Flag::value("--repeat", "a positive integer"),
        Flag::value("--validate", "a path"),
    ];
    let mut out = String::from("BENCH_kernel.json");
    let (mut baseline, mut repeat, mut validate) = (None, 1, None);
    for arg in cli::tokenize(cli::argv(), FLAGS)? {
        match arg {
            Arg::Value("--out", v) => out = v.raw,
            Arg::Value("--baseline", v) => baseline = Some(v.raw),
            Arg::Value("--repeat", v) => repeat = v.parse()?,
            Arg::Value("--validate", v) => validate = Some(v.raw),
            other => return Err(other.unexpected()),
        }
    }
    if repeat == 0 {
        return Err("--repeat count must be a positive integer".into());
    }
    Ok((out, baseline, repeat, validate))
}

fn main() {
    let (out, baseline, repeat, validate) = parse_args().unwrap_or_else(|m| cli::usage_error(m));

    if let Some(path) = validate {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| cli::fail(format_args!("reading {path}: {e}")));
        match validate_report(&text) {
            Ok(summary) => println!("{path}: OK — {summary}"),
            Err(e) => cli::fail(format_args!("{path}: INVALID — {e}")),
        }
        return;
    }

    // Every cell, workload-major, with its program built once.
    let programs: Vec<Program> = Workload::ALL.iter().map(|&w| w.build(scaled(w))).collect();
    let mut cells: Vec<Cell> = Workload::ALL
        .iter()
        .zip(&programs)
        .flat_map(|(&w, program)| {
            BENCH_CONFIGS.map(|c| Cell {
                w,
                c,
                program,
                wall: None,
                new: None,
                stats: None,
            })
        })
        .collect();
    // Pass-major: each pass times every cell once, so a host slowdown
    // lands on one sample of many cells, not on every sample of one.
    for _ in 0..repeat {
        cells.iter_mut().for_each(Cell::sample);
    }

    let mut runs = Vec::new();
    // Aggregate over runs that registered a valid (above-resolution)
    // wall time; untimeable runs are excluded from the rate, not
    // averaged in as zero.
    let mut total_committed = 0u64;
    let mut total_wall = 0.0f64;
    let mut total_new = 0.0f64;
    for cell in cells {
        let (w, c) = (cell.w, cell.c);
        let r = cell.report();
        total_new += r.new_s;
        match (r.kips, r.wall_s) {
            (Some(kips), Some(wall_s)) => {
                println!(
                    "{:>9} × {:<24} {:>8.1} KIPS  ({} committed in {:.2}s)",
                    w.name(),
                    c.label(),
                    kips,
                    r.committed,
                    wall_s
                );
                total_committed += r.committed;
                total_wall += wall_s;
            }
            _ => println!(
                "{:>9} × {:<24}      n/a  ({} committed; wall time below timer resolution)",
                w.name(),
                c.label(),
                r.committed
            ),
        }
        runs.push(r);
    }
    let aggregate_kips = (total_wall > 0.0).then(|| total_committed as f64 / total_wall / 1e3);
    match aggregate_kips {
        Some(k) => println!("aggregate: {k:.1} simulated KIPS over {} runs", runs.len()),
        None => println!("aggregate: n/a (no run registered a wall time)"),
    }
    println!(
        "set-up: {:.3} ms of Simulator::new over {} runs",
        total_new * 1e3,
        runs.len()
    );

    // Wall-clock capture time, so the trajectory orders and dates its
    // entries (host clock; never a simulation input).
    #[expect(clippy::disallowed_methods, reason = "dates the trajectory entry")]
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());

    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"benchmark\": \"kernel\",");
    let _ = writeln!(j, "  \"timestamp_unix_s\": {timestamp},");
    let _ = writeln!(
        j,
        "  \"unit\": \"simulated KIPS (committed kilo-instructions per host second)\","
    );
    let _ = writeln!(j, "  \"scale_factor\": {},", scale_factor());
    let _ = writeln!(j, "  \"timing_runs_min_of\": {repeat},");
    let _ = writeln!(j, "  \"history_bits\": {BASELINE_HISTORY_BITS},");
    let _ = writeln!(j, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let sep = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(j, "    {}{sep}", run_json(r));
    }
    let _ = writeln!(j, "  ],");
    let agg = aggregate_kips.map_or("null".to_string(), |v| format!("{v:.1}"));
    let _ = writeln!(
        j,
        "  \"aggregate\": {{\"committed\": {total_committed}, \"wall_s\": {total_wall:.6}, \"kips\": {agg}, \"new_s\": {total_new:.6}}}{}",
        if baseline.is_some() { "," } else { "" }
    );
    if let Some(bpath) = &baseline {
        let old = std::fs::read_to_string(bpath)
            .unwrap_or_else(|e| cli::fail(format_args!("reading baseline {bpath}: {e}")));
        let old_kips = extract_aggregate_kips(&old)
            .unwrap_or_else(|| cli::fail(format_args!("no aggregate kips in {bpath}")));
        let new_kips = aggregate_kips.unwrap_or_else(|| {
            cli::fail("cannot compare against a baseline: no run registered a wall time")
        });
        let _ = writeln!(j, "  \"baseline_kips\": {old_kips:.1},");
        let _ = writeln!(j, "  \"speedup_vs_baseline\": {:.3}", new_kips / old_kips);
        println!(
            "speedup vs baseline ({old_kips:.1} KIPS): {:.2}x",
            new_kips / old_kips
        );
    }
    let _ = writeln!(j, "}}");

    let existing = std::fs::read_to_string(&out).ok();
    let appended = existing.is_some();
    let text = append_trajectory(existing, &j);
    if let Err(e) = validate_report(&text) {
        cli::fail(format_args!(
            "refusing to write {out}: appended report fails validation — {e}"
        ));
    }
    std::fs::write(&out, text).unwrap_or_else(|e| cli::fail(format_args!("writing {out}: {e}")));
    println!("{} {out}", if appended { "appended to" } else { "wrote" });
}

/// One `"runs"` element. Untimeable runs carry JSON null for
/// `wall_s`/`kips`; consumers skip those samples.
fn run_json(r: &RunReport) -> String {
    let phases: Vec<String> = r
        .phases
        .iter()
        .map(|(n, s)| format!("\"{n}\": {s:.6}"))
        .collect();
    let wall_s = r.wall_s.map_or("null".to_string(), |v| format!("{v:.6}"));
    let kips = r.kips.map_or("null".to_string(), |v| format!("{v:.1}"));
    format!(
        "{{\"workload\": \"{}\", \"config\": \"{}\", \"committed\": {}, \"cycles\": {}, \"wall_s\": {}, \"kips\": {}, \"new_s\": {:.6}, \"phases_s\": {{{}}}}}",
        json::escape(r.workload),
        json::escape(r.config),
        r.committed,
        r.cycles,
        wall_s,
        kips,
        r.new_s,
        phases.join(", "),
    )
}

/// Opening of a trajectory file, up to (and including) the start of the
/// entry array.
const TRAJECTORY_HEADER: &str =
    "{\n  \"benchmark\": \"kernel\",\n  \"schema\": \"trajectory-v1\",\n  \"trajectory\": [\n";

/// Splice `entry` (one complete report object) into the trajectory in
/// `existing`, preserving prior entries. A non-empty file that holds no
/// trajectory is refused rather than overwritten.
fn append_trajectory(existing: Option<String>, entry: &str) -> String {
    let entry = entry.trim_end();
    match existing {
        Some(text) if text.contains("\"trajectory\"") => {
            let cut = text
                .rfind("  ]")
                .unwrap_or_else(|| cli::fail("existing trajectory file has no array close"));
            format!(
                "{},\n{entry}\n{}",
                text[..cut].trim_end(),
                &text[cut..].trim_start_matches(['\r', '\n'])
            )
        }
        Some(text) if !text.trim().is_empty() => {
            cli::fail("existing file holds no \"trajectory\"; refusing to overwrite it")
        }
        _ => format!("{TRAJECTORY_HEADER}{entry}\n  ]\n}}\n"),
    }
}

/// Check that `text` parses as JSON and has the shape consumers expect:
/// a `trajectory-v1` file, i.e. a non-empty `"trajectory"` array of
/// report objects, each with a `"runs"` array. A `new_s` set-up time,
/// where a run or aggregate carries one (older entries do not), must be
/// a non-negative number. Returns a one-line summary.
fn validate_report(text: &str) -> Result<String, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    if root.as_object().is_none() {
        return Err("top level is not an object".into());
    }
    let runs_of = |e: &json::Value| {
        e.get("runs")
            .and_then(json::Value::as_array)
            .map(<[_]>::len)
    };
    let entries = root
        .get("trajectory")
        .ok_or("no \"trajectory\" present")?
        .as_array()
        .ok_or("\"trajectory\" is not an array")?;
    if entries.is_empty() {
        return Err("\"trajectory\" is empty".into());
    }
    for (i, e) in entries.iter().enumerate() {
        if e.as_object().is_none() {
            return Err(format!("trajectory[{i}] is not an object"));
        }
        match runs_of(e) {
            None => return Err(format!("trajectory[{i}] has no \"runs\" array")),
            Some(0) => return Err(format!("trajectory[{i}] has zero runs")),
            Some(_) => {}
        }
        check_new_s(e).map_err(|m| format!("trajectory[{i}]: {m}"))?;
    }
    Ok(format!(
        "trajectory of {} report(s), latest with {} runs",
        entries.len(),
        entries.last().and_then(runs_of).unwrap_or(0),
    ))
}

/// The optional `new_s` of each run and of the aggregate in one report
/// is a non-negative number.
fn check_new_s(report: &json::Value) -> Result<(), String> {
    let runs = report.get("runs").and_then(json::Value::as_array);
    let holders = runs.into_iter().flatten().chain(report.get("aggregate"));
    for holder in holders {
        if let Some(v) = holder.get("new_s") {
            match v.as_f64() {
                Some(s) if s >= 0.0 => {}
                _ => return Err(format!("\"new_s\" is not a non-negative number: {v:?}")),
            }
        }
    }
    Ok(())
}

/// `aggregate.kips` of the newest capture, the last trajectory entry.
fn extract_aggregate_kips(text: &str) -> Option<f64> {
    let root = json::parse(text).ok()?;
    let latest = root.get("trajectory")?.as_array()?.last()?;
    latest.get("aggregate")?.get("kips")?.as_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENTRY: &str = "{\n  \"benchmark\": \"kernel\",\n  \"timestamp_unix_s\": 1,\n  \"runs\": [\n    {\"workload\": \"compress\", \"kips\": 5.0}\n  ],\n  \"aggregate\": {\"committed\": 10, \"wall_s\": 1.0, \"kips\": 5.0}\n}\n";

    #[test]
    fn fresh_file_becomes_a_one_entry_trajectory() {
        let text = append_trajectory(None, ENTRY);
        let summary = validate_report(&text).unwrap();
        assert!(summary.contains("1 report(s)"), "{summary}");
        assert_eq!(extract_aggregate_kips(&text), Some(5.0));
    }

    #[test]
    fn appending_preserves_prior_entries() {
        let one = append_trajectory(None, ENTRY);
        let newer = ENTRY.replace("\"kips\": 5.0", "\"kips\": 7.5");
        let two = append_trajectory(Some(one), &newer);
        let summary = validate_report(&two).unwrap();
        assert!(summary.contains("2 report(s)"), "{summary}");
        // --baseline reads the *latest* capture's aggregate.
        assert_eq!(extract_aggregate_kips(&two), Some(7.5));
        let three = append_trajectory(Some(two), ENTRY);
        assert!(validate_report(&three).unwrap().contains("3 report(s)"));
    }

    #[test]
    fn entries_with_set_up_time_validate() {
        let timed = ENTRY
            .replace(
                "\"kips\": 5.0}\n  ]",
                "\"kips\": 5.0, \"new_s\": 0.000042}\n  ]",
            )
            .replace(
                "\"kips\": 5.0}\n}",
                "\"kips\": 5.0, \"new_s\": 0.000061}\n}",
            );
        assert_eq!(timed.matches("new_s").count(), 2, "{timed}");
        // A v1 entry without `new_s` followed by one with it.
        let text = append_trajectory(Some(append_trajectory(None, ENTRY)), &timed);
        assert!(validate_report(&text).unwrap().contains("2 report(s)"));

        for bad in ["\"fast\"", "-0.5", "null"] {
            let broken = timed.replace("0.000042", bad);
            let text = append_trajectory(None, &broken);
            let err = validate_report(&text).unwrap_err();
            assert!(err.contains("new_s"), "{bad}: {err}");
        }
    }

    #[test]
    fn run_json_carries_set_up_time() {
        let r = RunReport {
            workload: "vortex",
            config: "gshare/JRS",
            committed: 10,
            cycles: 20,
            wall_s: Some(0.5),
            kips: Some(0.02),
            new_s: 0.000125,
            phases: vec![("fetch", 0.25)],
        };
        let run = json::parse(&run_json(&r)).unwrap();
        assert_eq!(
            run.get("new_s").and_then(json::Value::as_f64),
            Some(0.000125)
        );
    }

    #[test]
    fn validation_rejects_corruption() {
        let text = append_trajectory(None, ENTRY);
        assert!(validate_report(&text[..text.len() - 4]).is_err());
        assert!(validate_report("{\"trajectory\": []}").is_err());
        assert!(validate_report("{\"benchmark\": \"kernel\"}").is_err());
        // A bare report outside a trajectory is not a trajectory-v1 file.
        assert!(validate_report(ENTRY).is_err());
        assert_eq!(extract_aggregate_kips(ENTRY), None);
        assert!(validate_report("[1, 2").is_err());
    }

    #[test]
    fn committed_trajectory_round_trips_an_append() {
        // The writer self-validates before touching disk, but nothing
        // else pins the read-back path against the *committed* history:
        // append a capture to an in-memory copy of the real
        // BENCH_kernel.json, re-validate, and check the entry count and
        // timestamp monotonicity survive the round trip.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernel.json");
        let committed = std::fs::read_to_string(path).expect("committed BENCH_kernel.json");
        let before = trajectory_timestamps(&committed);
        assert!(!before.is_empty(), "committed trajectory is empty");

        let newest = ENTRY.replace(
            "\"timestamp_unix_s\": 1",
            "\"timestamp_unix_s\": 99999999999",
        );
        let appended = append_trajectory(Some(committed), &newest);
        let summary = validate_report(&appended).unwrap();
        assert!(
            summary.contains(&format!("{} report(s)", before.len() + 1)),
            "append did not grow the trajectory by one: {summary}"
        );

        let after = trajectory_timestamps(&appended);
        assert_eq!(
            &after[..before.len()],
            &before[..],
            "prior entries perturbed"
        );
        let stamped: Vec<f64> = after.iter().filter_map(|t| *t).collect();
        assert!(
            stamped.windows(2).all(|w| w[0] <= w[1]),
            "timestamps not monotone after append: {after:?}"
        );
    }

    /// `timestamp_unix_s` of each trajectory entry, in file order.
    /// `None` for an entry without one (the committed file's first
    /// entry predates the field).
    fn trajectory_timestamps(text: &str) -> Vec<Option<f64>> {
        let root = json::parse(text).unwrap();
        root.get("trajectory")
            .and_then(json::Value::as_array)
            .unwrap()
            .iter()
            .map(|e| {
                e.get("timestamp_unix_s").map(|t| {
                    t.as_f64()
                        .unwrap_or_else(|| panic!("non-numeric timestamp: {t:?}"))
                })
            })
            .collect()
    }

    #[test]
    fn control_characters_in_a_label_keep_the_entry_valid() {
        let r = RunReport {
            workload: "compress",
            config: "see\u{1}jrs\ttab\n\"q\"",
            committed: 10,
            cycles: 20,
            wall_s: None,
            kips: None,
            new_s: 0.0,
            phases: vec![("fetch", 0.5)],
        };
        let line = run_json(&r);
        let entry = ENTRY.replace("{\"workload\": \"compress\", \"kips\": 5.0}", &line);
        assert_ne!(entry, ENTRY);
        let text = append_trajectory(None, &entry);
        assert!(validate_report(&text).unwrap().contains("1 report(s)"));
        let run = &json::parse(&line).unwrap();
        assert_eq!(
            run.get("config").and_then(json::Value::as_str),
            Some(r.config)
        );
    }
}
