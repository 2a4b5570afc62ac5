//! `work` — a pp-serve worker over the experiment registry.
//!
//! ```sh
//! work --addr 127.0.0.1:7117
//! work --addr sim-host:7117 --client rack3-07
//! ```
//!
//! Connects to a `serve` daemon, rebuilds the advertised grid locally
//! from the registry names in the welcome frame, proves it identical
//! (cell count + grid signature — catching `PP_SCALE` or behavior-
//! revision skew before any work is accepted), then loops
//! lease → simulate → result until the server reports the grid done.
//! Cell execution is the standard [`pp_sweep::SweepCell::run`] path,
//! flight recorder included: a panicking cell ships the last recorded
//! cycles of machine history back to the daemon in the result message.
//!
//! Exits 0 after an orderly `done`, 1 on connection loss, protocol
//! fault, grid skew, or an admission queue that stays busy past the
//! retry budget.

use pp_experiments::cli;
use pp_experiments::suite;
use pp_serve::{run_worker, WorkerConfig};

const USAGE: &str = "usage: work --addr HOST:PORT [--client NAME]";

fn main() {
    let mut addr: Option<String> = None;
    let mut cfg = WorkerConfig::default();
    #[expect(clippy::disallowed_methods, reason = "CLI parsing its own argv")]
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (a.clone(), None),
        };
        let value =
            |flag: &str, inline: Option<String>, it: &mut dyn Iterator<Item = String>| match inline
                .or_else(|| it.next())
            {
                Some(v) => v,
                None => cli::usage_error(format_args!("{flag} needs a value")),
            };
        match flag.as_str() {
            "--addr" => addr = Some(value("--addr", inline, &mut it)),
            "--client" => cfg.client = value("--client", inline, &mut it),
            other => cli::usage_error(format_args!("unknown argument: {other}\n{USAGE}")),
        }
    }
    let Some(addr) = addr else {
        cli::usage_error(USAGE);
    };
    match run_worker(&addr, &cfg, |name| suite::find(name).map(|e| e.grid())) {
        Ok(report) => {
            println!(
                "[pp-work] {}: {} simulated, {} redundant, {} failed",
                cfg.client, report.simulated, report.redundant, report.failed
            );
        }
        Err(e) => cli::fail(e),
    }
}
