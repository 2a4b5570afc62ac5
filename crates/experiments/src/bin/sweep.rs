//! `sweep` — the one front door for every experiment in the registry.
//!
//! ```sh
//! sweep list
//! sweep run fig9 [fig10 ...]      # one or more experiments by name
//! sweep run all                   # the complete evaluation
//! sweep profile [WORKLOAD]        # hot-loop profiles, or one listing
//! sweep serve fig9 fig10          # lease the grids to remote workers
//! sweep work --addr HOST:PORT     # one such worker
//! ```
//!
//! `run` and `profile` take the flags of `cli::SweepOpts` (`--out-dir`
//! defaults to `results` for `run`). Each subcommand rejects the flags
//! of the others, and a bad flag is one `error:` line and exit status 2.
//! Honours `PP_SCALE`.
//!
//! Completed cells are cached under the cache dir keyed by (workload,
//! seed, scale, behavior revision, canonical config); an interrupted
//! `sweep run` picks up exactly where it stopped, and re-renders of
//! experiments that share cells (fig8/sec51/sec52) are free. `profile`
//! prints the workloads' hot loops from the functional emulator, or one
//! workload's annotated listing; an unknown workload exits 1.
//!
//! `serve` leases the grids' cells to `work` processes and stores their
//! stats in the result cache `sweep run` reads (EXPERIMENTS.md
//! "Distributed sweeps", DESIGN.md §3h). Its flags: `--addr HOST:PORT`
//! (default `127.0.0.1:0`), `--cache-dir DIR`, `--no-cache`,
//! `--max-clients N`, `--lease-timeout-ms MS`, `--linger` (serve `done`
//! to late workers until killed) and `--telemetry-out DIR`
//! (`serve.metrics.jsonl`). `serve` exits 0 when every cell completed;
//! `work` exits 0 after an orderly `done`; both exit 1 otherwise.

use std::time::Duration;

use pp_experiments::cli::{self, Arg, Flag, SweepOpts};
use pp_experiments::suite::{self, WorkloadProfileExp};
use pp_serve::{run_worker, ServeConfig, Server, WorkerConfig};
use pp_sweep::ResultStore;
use pp_workloads::Workload;

const USAGE: &str = "usage: sweep <list | run <name...|all> | profile [WORKLOAD] | \
serve <name...|all> | work --addr HOST:PORT> [flags]
run `sweep list` for the experiment names";

const SERVE_USAGE: &str = "usage: sweep serve <name...|all> [--addr HOST:PORT] [--cache-dir DIR] \
[--no-cache] [--max-clients N] [--lease-timeout-ms MS] [--linger] [--telemetry-out DIR]";

const WORK_USAGE: &str = "usage: sweep work --addr HOST:PORT [--client NAME]";

const ADDR: Flag = Flag::value("--addr", "an address (HOST:PORT)");

fn main() {
    let mut argv = cli::argv().into_iter();
    let sub = argv.next();
    let args: Vec<String> = argv.collect();
    match sub.as_deref() {
        Some("list") => list(args),
        Some("run") => run(args),
        Some("profile") => profile(args),
        Some("serve") => serve(args),
        Some("work") => work(args),
        Some(other) => cli::usage_error(format_args!("unknown subcommand {other:?}\n{USAGE}")),
        None => cli::usage_error(USAGE),
    }
}

fn sweep_opts(args: Vec<String>) -> (SweepOpts, Vec<String>) {
    SweepOpts::try_parse(args).unwrap_or_else(|m| cli::usage_error(m))
}

fn list(args: Vec<String>) {
    if let Some(extra) = args.first() {
        cli::usage_error(format_args!("list takes no arguments, got {extra:?}"));
    }
    let mut t = pp_experiments::Table::new(["name", "cells", "description"]);
    for exp in suite::registry() {
        t.row([
            exp.name().to_string(),
            exp.grid().len().to_string(),
            exp.description().to_string(),
        ]);
    }
    println!("{t}");
}

fn run(args: Vec<String>) {
    let (mut opts, names) = sweep_opts(args);
    if names.is_empty() {
        cli::usage_error("run needs at least one experiment name, or `all`");
    }
    let exps = suite::select(&names).unwrap_or_else(|m| cli::usage_error(m));
    // Artifacts land in `results` unless the caller says otherwise.
    opts.out_dir.get_or_insert_with(|| "results".into());
    if names[0] == "all" {
        if let Err(msg) = suite::run_all(&opts) {
            cli::fail(msg);
        }
        return;
    }
    for exp in &exps {
        if exps.len() > 1 {
            println!("== {}", exp.name());
        }
        if let Err(msg) = suite::run_one(exp.as_ref(), &opts) {
            cli::fail(msg);
        }
    }
}

fn profile(args: Vec<String>) {
    let (opts, positional) = sweep_opts(args);
    if let Some(extra) = positional.get(1) {
        cli::usage_error(format_args!("unexpected argument {extra:?}"));
    }
    let target = positional.first().map(|name| {
        *Workload::ALL
            .iter()
            .find(|w| w.name() == name.as_str())
            .unwrap_or_else(|| {
                cli::fail(format_args!(
                    "unknown workload `{name}`; expected one of: {}",
                    Workload::ALL.map(|w| w.name()).join(", ")
                ))
            })
    });
    if let Err(msg) = suite::run_one(&WorkloadProfileExp { target }, &opts) {
        cli::fail(msg);
    }
}

const SERVE_FLAGS: &[Flag] = &[
    ADDR,
    cli::CACHE_DIR,
    cli::NO_CACHE,
    Flag::value("--max-clients", "a client count"),
    Flag::value("--lease-timeout-ms", "milliseconds"),
    Flag::switch("--linger"),
    cli::TELEMETRY_OUT,
];

fn serve(args: Vec<String>) {
    let mut addr = "127.0.0.1:0".to_string();
    // The cache and telemetry flags are `run`'s.
    let mut store = SweepOpts::default();
    let (mut cfg, mut linger, mut names) = (ServeConfig::default(), false, Vec::new());
    let parsed = cli::tokenize(args, SERVE_FLAGS).and_then(|args| {
        for arg in args {
            match store.apply(arg)? {
                None => {}
                Some(Arg::Value("--addr", v)) => addr = v.raw,
                Some(Arg::Value("--max-clients", v)) => cfg.max_clients = v.parse()?,
                Some(Arg::Value("--lease-timeout-ms", v)) => {
                    cfg.lease_timeout = Duration::from_millis(v.parse()?);
                }
                Some(Arg::Switch("--linger")) => linger = true,
                Some(Arg::Positional(name)) => names.push(name),
                Some(other) => return Err(other.unexpected()),
            }
        }
        Ok(())
    });
    if let Err(msg) = parsed {
        cli::usage_error(msg);
    }
    if names.is_empty() {
        cli::usage_error(SERVE_USAGE);
    }
    let experiments: Vec<_> = suite::select(&names)
        .unwrap_or_else(|m| cli::usage_error(m))
        .iter()
        .map(|exp| (exp.name().to_string(), exp.grid()))
        .collect();
    let count = experiments.len();
    let cache = store.cache_dir.as_ref().map(ResultStore::new);
    let server = match Server::bind(&addr, experiments, cache, cfg) {
        Ok(s) => s,
        Err(e) => cli::fail(format_args!("binding {addr}: {e}")),
    };
    match server.local_addr() {
        Ok(addr) => println!("[pp-serve] listening on {addr} ({count} experiment(s))"),
        Err(e) => cli::fail(format_args!("no local address: {e}")),
    }
    let summary = server.run(!linger);
    println!("[pp-serve] {}", summary.summary());
    for e in &summary.errors {
        eprintln!("error: {e}");
    }
    if let Some(dir) = &store.telemetry.out_dir {
        if let Err(msg) = suite::write_metrics(dir, "serve", &summary.registry) {
            cli::fail(msg);
        }
    }
    std::process::exit(i32::from(!summary.all_complete()));
}

fn work(args: Vec<String>) {
    const FLAGS: &[Flag] = &[ADDR, Flag::value("--client", "a client name")];
    let mut addr = None;
    let mut cfg = WorkerConfig::default();
    for arg in cli::tokenize(args, FLAGS).unwrap_or_else(|m| cli::usage_error(m)) {
        match arg {
            Arg::Value("--addr", v) => addr = Some(v.raw),
            Arg::Value("--client", v) => cfg.client = v.raw,
            other => cli::usage_error(other.unexpected()),
        }
    }
    let Some(addr) = addr else {
        cli::usage_error(WORK_USAGE);
    };
    match run_worker(&addr, &cfg, |name| suite::find(name).map(|e| e.grid())) {
        Ok(report) => println!(
            "[pp-work] {}: {} simulated, {} redundant, {} failed",
            cfg.client, report.simulated, report.redundant, report.failed
        ),
        Err(e) => cli::fail(e),
    }
}
