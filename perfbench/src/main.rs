//! `perfbench` — end-to-end and per-layer benchmark of the PolyPath
//! simulator.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <mono|eager|sweep|serve|all> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Run from the repository root. Inputs derive from `--seed`; each run
//! measures for about `--seconds`, checks every output, prints
//! human-readable lines, and ends with one JSON line: `correct`,
//! `attempted`, `failed` and the metrics — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1` (which also
//! writes its spans to `.perfbench/spans/`). A failed check exits 1;
//! bad arguments exit 2. `--workload all` runs the four workloads one
//! after another, each in its own process. See `perfbench/README.md`.

mod kernel;
mod layers;
mod report;
mod serve;
mod sweep;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{Metric, Report, END_TO_END, PASS_TIMES, PER_LAYER};
use trace::Tracer;
use util::Scratch;

/// The workloads `BENCHMARK.json` declares, in its order.
pub const WORKLOADS: &[&str] = &["mono", "eager"];
/// Workloads that run and check their outputs like the others but are
/// not declared in `BENCHMARK.json`: on a shared 2-core host their
/// two-thread host times spread by up to a fifth of their median from run
/// to run, and their medians moved by up to 38% between sets of runs, too
/// much to hold the declared bounds.
const UNDECLARED: &[&str] = &["sweep", "serve"];
/// Working files live under this directory of the current directory.
const WORK_DIR: &str = ".perfbench";
const USAGE: &str = "usage: perfbench --workload <mono|eager|sweep|serve|all> --seed N \
                     --seconds S --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let known = WORKLOADS.iter().chain(UNDECLARED).any(|w| *w == workload);
    if !(workload == "all" || known) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// State of one workload run: its budget, spans, scratch space, output
/// checks and metrics.
pub struct Run {
    pub seed: u64,
    pub budget: Duration,
    pub tracer: Tracer,
    pub scratch: Scratch,
    attempted: u64,
    failures: Vec<String>,
    metrics: Vec<Metric>,
}

impl Run {
    /// Count `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record one failed operation or check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// Whether `name` was already reported.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// Report a metric of [`END_TO_END`], [`PASS_TIMES`] or [`PER_LAYER`].
    ///
    /// # Panics
    /// On an undeclared or duplicate name, or a non-finite value: both
    /// are bugs in the benchmark.
    pub fn metric(&mut self, name: &str, value: f64) {
        let (_, unit) = END_TO_END
            .iter()
            .chain(PASS_TIMES)
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(!self.has(name), "metric {name} reported twice");
        assert!(value.is_finite(), "metric {name} is {value}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: (*unit).to_string(),
        });
    }
}

fn run_workload(args: &Args) -> Result<Report, String> {
    let base = PathBuf::from(WORK_DIR);
    let scratch = Scratch::create(&base).map_err(|e| format!("creating {WORK_DIR}: {e}"))?;
    let run_id = util::splitmix64(args.seed ^ u64::from(std::process::id()));
    let mut run = Run {
        seed: args.seed,
        budget: Duration::from_secs_f64(args.seconds),
        tracer: Tracer::new(args.trace, run_id),
        scratch,
        attempted: 0,
        failures: Vec::new(),
        metrics: Vec::new(),
    };
    match args.workload.as_str() {
        "mono" => kernel::run(&mut run, kernel::Kind::Mono),
        "eager" => kernel::run(&mut run, kernel::Kind::Eager),
        "sweep" => sweep::run(&mut run),
        _ => serve::run(&mut run),
    }
    if !args.trace && !run.has("peak_rss_mib") {
        run.metric("peak_rss_mib", util::peak_rss_mib());
    }

    let expected: Vec<&(&str, &str)> = if args.trace {
        PER_LAYER.iter().collect()
    } else if WORKLOADS.contains(&args.workload.as_str()) {
        END_TO_END.iter().collect()
    } else {
        END_TO_END.iter().chain(PASS_TIMES).collect()
    };
    let mut metrics = Vec::new();
    for (name, _) in expected {
        match run.metrics.iter().find(|m| m.name == *name) {
            Some(m) => metrics.push(m.clone()),
            None => run.fail(format!("no value for metric {name}")),
        }
    }

    if args.trace {
        for (layer, secs) in run.tracer.self_time_by_layer() {
            println!("self time {layer:<10} {secs:>10.4} s");
        }
        let path = base
            .join("spans")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match run.tracer.write_jsonl(&path) {
            Ok(()) => println!(
                "wrote {} spans to {}",
                run.tracer.spans().len(),
                path.display()
            ),
            Err(e) => run.fail(format!("writing {}: {e}", path.display())),
        }
    }
    for f in run.failures.iter().take(20) {
        eprintln!("perfbench: FAILED {f}");
    }
    let failed = run.failures.len() as u64;
    let attempted = run.attempted.max(failed).max(1);
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac {failed}/{attempted} = {}",
        failed as f64 / attempted as f64
    );
    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Run every workload, the undeclared ones too, in a child process of its own (so each reports
/// its own peak memory), passing the output through.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = 0;
    let all: Vec<&str> = WORKLOADS.iter().chain(UNDECLARED).copied().collect();
    for w in &all {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => ok += 1,
            Ok(s) => eprintln!("perfbench: workload {w} failed ({s})"),
            Err(e) => eprintln!("perfbench: workload {w} did not start: {e}"),
        }
    }
    println!("{ok}/{} workloads passed", all.len());
    if ok == all.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_workload(&args) {
        Ok(report) => {
            println!("{}", report.to_json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
