//! `serve` — stand up the pp-serve daemon over the experiment registry.
//!
//! ```sh
//! serve fig9 fig10            # serve two grids to remote workers
//! serve all                   # the complete evaluation
//! serve fig9 --addr 0.0.0.0:7117 --max-clients 16
//! ```
//!
//! The daemon leases sweep cells to `work` processes over line-framed
//! TCP/JSONL and collects their stats into the shared content-addressed
//! result cache (`--cache-dir`, default `results/cache`) — the same
//! cache `sweep run` reads, so a completed distributed sweep makes the
//! subsequent local render entirely cache-hits. Workers never receive
//! configurations over the wire; they rebuild the grid from the
//! registry and the handshake proves both sides agree (one `grid_sig`
//! equality covering every cell fingerprint).
//!
//! Flags: `--addr HOST:PORT` (default `127.0.0.1:0`, port printed on
//! startup), `--cache-dir DIR`, `--no-cache`, `--max-clients N`
//! (connected workers; each holds at most one lease),
//! `--lease-timeout-ms MS`, `--linger` (keep serving `done` to late
//! workers until killed), `--telemetry-out DIR` (export the `serve.*`
//! registry as JSONL on exit).
//!
//! Prints each failed cell as `sweep run` does (`error: …`). Exits 0
//! when every cell completed, 1 otherwise. Honours `PP_SCALE`
//! exactly like the local sweep (workers must run with the same value —
//! skew is caught by the handshake, not silently cached).

use std::path::PathBuf;
use std::time::Duration;

use pp_experiments::cli::{self, parse_value};
use pp_experiments::suite;
use pp_serve::{ServeConfig, Server};
use pp_sweep::{ResultStore, SweepCell, DEFAULT_CACHE_DIR};

const USAGE: &str = "usage: serve <name...|all> [--addr HOST:PORT] [--cache-dir DIR] [--no-cache] \
[--max-clients N] [--lease-timeout-ms MS] [--linger] [--telemetry-out DIR]";

struct Opts {
    addr: String,
    cache_dir: Option<PathBuf>,
    linger: bool,
    telemetry_out: Option<PathBuf>,
    cfg: ServeConfig,
}

fn parse() -> (Opts, Vec<String>) {
    let mut opts = Opts {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: Some(PathBuf::from(DEFAULT_CACHE_DIR)),
        linger: false,
        telemetry_out: None,
        cfg: ServeConfig::default(),
    };
    let mut names = Vec::new();
    #[expect(clippy::disallowed_methods, reason = "CLI parsing its own argv")]
    let mut it = std::env::args().skip(1);
    let value =
        |flag: &str, inline: Option<String>, it: &mut dyn Iterator<Item = String>| match inline
            .or_else(|| it.next())
        {
            Some(v) => v,
            None => cli::usage_error(format_args!("{flag} needs a value")),
        };
    while let Some(a) = it.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (a.clone(), None),
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("--addr", inline, &mut it),
            "--cache-dir" => {
                opts.cache_dir = Some(PathBuf::from(value("--cache-dir", inline, &mut it)));
            }
            "--no-cache" => opts.cache_dir = None,
            "--max-clients" => {
                let v = value("--max-clients", inline, &mut it);
                opts.cfg.max_clients = parse_value("--max-clients", &v, "a client count");
            }
            "--lease-timeout-ms" => {
                let v = value("--lease-timeout-ms", inline, &mut it);
                opts.cfg.lease_timeout =
                    Duration::from_millis(parse_value("--lease-timeout-ms", &v, "milliseconds"));
            }
            "--linger" => opts.linger = true,
            "--telemetry-out" => {
                opts.telemetry_out = Some(PathBuf::from(value("--telemetry-out", inline, &mut it)));
            }
            other if other.starts_with("--") => {
                cli::usage_error(format_args!("unknown argument: {other}\n{USAGE}"));
            }
            _ => names.push(a),
        }
    }
    (opts, names)
}

fn main() {
    let (opts, mut names) = parse();
    if names.is_empty() {
        cli::usage_error(USAGE);
    }
    if names.iter().any(|n| n == "all") {
        if names.len() > 1 {
            cli::usage_error("`all` cannot be combined with other names");
        }
        names = suite::names().iter().map(ToString::to_string).collect();
    }
    let mut experiments: Vec<(String, Vec<SweepCell>)> = Vec::new();
    for n in &names {
        match suite::find(n) {
            Some(exp) => experiments.push((n.clone(), exp.grid())),
            None => cli::usage_error(format_args!(
                "unknown experiment `{n}`; known: {}",
                suite::names().join(", ")
            )),
        }
    }
    let store = opts.cache_dir.as_ref().map(ResultStore::new);
    let server = match Server::bind(&opts.addr, experiments, store, opts.cfg) {
        Ok(s) => s,
        Err(e) => cli::fail(format_args!("binding {}: {e}", opts.addr)),
    };
    match server.local_addr() {
        Ok(addr) => println!(
            "[pp-serve] listening on {addr} ({} experiment(s))",
            names.len()
        ),
        Err(e) => cli::fail(format_args!("no local address: {e}")),
    }
    let summary = server.run(!opts.linger);
    println!("[pp-serve] {}", summary.summary());
    for e in &summary.errors {
        eprintln!("error: {e}");
    }
    if let Some(dir) = &opts.telemetry_out {
        let path = dir.join("serve.metrics.jsonl");
        let write = std::fs::create_dir_all(dir).and_then(|()| {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            pp_telemetry::write_registry_jsonl(&mut f, &summary.registry).map(|_| ())
        });
        match write {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => cli::fail(format_args!("writing {}: {e}", path.display())),
        }
    }
    std::process::exit(i32::from(!summary.all_complete()));
}
