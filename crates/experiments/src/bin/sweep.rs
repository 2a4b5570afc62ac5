//! `sweep` — the unified driver for every experiment in the registry.
//!
//! ```sh
//! sweep list
//! sweep run fig9 [fig10 ...]      # one or more experiments by name
//! sweep run all                   # the complete evaluation
//! ```
//!
//! Shared flags (all subcommands): `--workers N`, `--out-dir DIR`
//! (default `results`), `--cache-dir DIR` (default `results/cache`),
//! `--no-cache`, `--max-cells N`, `--quiet`,
//! `--telemetry-out DIR`, `--telemetry-sample-every N`. Honours
//! `PP_SCALE`.
//!
//! Completed cells are cached under the cache dir keyed by (workload,
//! seed, scale, behavior revision, canonical config); an interrupted
//! `sweep run` picks up exactly where it stopped, and re-renders of
//! experiments that share cells (fig8/sec51/sec52) are free.

use pp_experiments::cli::{self, SweepOpts};
use pp_experiments::suite;

const USAGE: &str = "usage: sweep <list | run <name...> | run all> [flags]
run `sweep list` for the experiment names and `--help` conventions";

fn main() {
    let (mut opts, positional) = SweepOpts::from_env();
    let mut pos = positional.into_iter();
    match pos.next().as_deref() {
        Some("list") => {
            if let Some(extra) = pos.next() {
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
        Some("run") => {
            let names: Vec<String> = pos.collect();
            if names.is_empty() {
                cli::usage_error("run needs at least one experiment name, or `all`");
            }
            // Artifacts land in `results` unless the caller says otherwise.
            if opts.out_dir.is_none() {
                opts.out_dir = Some("results".into());
            }
            if names.iter().any(|n| n == "all") {
                if names.len() > 1 {
                    cli::usage_error("`all` cannot be combined with other names");
                }
                if let Err(msg) = suite::run_all(&opts) {
                    cli::fail(msg);
                }
                return;
            }
            // Validate every name before running anything.
            for n in &names {
                if suite::find(n).is_none() {
                    cli::usage_error(format_args!(
                        "unknown experiment `{n}`; known: {}",
                        suite::names().join(", ")
                    ));
                }
            }
            for n in &names {
                if names.len() > 1 {
                    println!("== {n}");
                }
                if let Err(msg) = suite::run_by_name(n, &opts) {
                    cli::fail(msg);
                }
            }
        }
        Some(other) => cli::usage_error(format_args!("unknown subcommand {other:?}\n{USAGE}")),
        None => cli::usage_error(USAGE),
    }
}
