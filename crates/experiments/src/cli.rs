//! Command-line parsing helpers shared by the experiment binaries.
//!
//! The binaries are plain `std::env::args` loops (no external argument
//! parser in this offline workspace). These helpers make the failure
//! paths uniform: a *usage* error (bad flag, missing or malformed value)
//! prints one actionable line to stderr and exits with status 2; a
//! *runtime* failure (can't write an artifact, missing baseline file)
//! exits with status 1. Neither produces a panic backtrace — those are
//! reserved for bugs.
//!
//! The `try_*` variants return `Result` so the message text is unit
//! testable; the panic-free process-exit behaviour itself is covered by
//! the negative-path integration tests in `tests/cli_negative.rs`,
//! which spawn the real binaries.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use crate::TelemetryOpts;

/// Print an actionable usage message and exit with status 2 (the
/// conventional bad-usage code; status 1 is for runtime failures).
pub fn usage_error(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Print a runtime failure and exit with status 1.
pub fn fail(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// The value following `flag`, or a usage error naming the flag and what
/// it expects (e.g. `--out needs a path`).
pub fn require_value(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    match args.next() {
        Some(v) => v,
        None => usage_error(format_args!("{flag} needs {what}")),
    }
}

/// Parse `raw` as a `T`, with a message naming the flag and the value.
pub fn try_parse_value<T: FromStr>(flag: &str, raw: &str, what: &str) -> Result<T, String>
where
    T::Err: Display,
{
    raw.parse()
        .map_err(|e| format!("{flag}: {raw:?} is not {what} ({e})"))
}

/// [`try_parse_value`], exiting with a usage error on failure.
pub fn parse_value<T: FromStr>(flag: &str, raw: &str, what: &str) -> T
where
    T::Err: Display,
{
    try_parse_value(flag, raw, what).unwrap_or_else(|m| usage_error(m))
}

/// Consume and parse the value following `flag` in one step.
pub fn parse_next<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> T
where
    T::Err: Display,
{
    let raw = require_value(args, flag, what);
    parse_value(flag, &raw, what)
}

/// Parse `raw` as a canonical policy token (see [`pp_core::Policy`]).
/// The error message lists every valid token for the axis, so a typo'd
/// `--fetch-policy` answers itself.
pub fn try_parse_policy<P: pp_core::Policy>(flag: &str, raw: &str) -> Result<P, String> {
    P::from_name(raw).ok_or_else(|| {
        format!(
            "{flag}: {raw:?} is not a {} (one of: {})",
            P::AXIS,
            P::tokens().join(", ")
        )
    })
}

/// [`try_parse_policy`], exiting with a usage error on failure.
pub fn parse_policy<P: pp_core::Policy>(flag: &str, raw: &str) -> P {
    try_parse_policy(flag, raw).unwrap_or_else(|m| usage_error(m))
}

// ---------------------------------------------------------------------
// Unified sweep flags
// ---------------------------------------------------------------------

/// The flag set every sweep-driven binary shares:
///
/// * `--workers N` — worker threads (default: one per core)
/// * `--out-dir DIR` — artifact directory (default: none for
///   `workload_profile`, `results` for `sweep`)
/// * `--cache-dir DIR` — result cache root (default `results/cache`)
/// * `--no-cache` — disable the result cache entirely
/// * `--resume` — explicit alias for the default cache-on behavior,
///   for scripts that want to state the intent
/// * `--max-cells N` — simulate at most N cells, skip the rest
///   (cache hits are free; this is the deterministic "interrupt")
/// * `--quiet` — suppress per-cell progress lines
/// * `--telemetry-out DIR` / `--telemetry-sample-every N` — as before
///
/// Every value flag accepts both `--flag VALUE` and `--flag=VALUE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOpts {
    /// Worker thread count; 0 = one per available core.
    pub workers: usize,
    /// Where rendered artifacts (CSVs etc.) are written; `None` prints
    /// to stdout only.
    pub out_dir: Option<PathBuf>,
    /// Result-cache root; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Cell budget for this run (`--max-cells`).
    pub max_cells: Option<usize>,
    /// Suppress progress output.
    pub quiet: bool,
    /// Telemetry artifact options.
    pub telemetry: TelemetryOpts,
}

impl Default for SweepOpts {
    fn default() -> Self {
        SweepOpts {
            workers: 0,
            out_dir: None,
            cache_dir: Some(PathBuf::from(pp_sweep::DEFAULT_CACHE_DIR)),
            max_cells: None,
            quiet: false,
            telemetry: TelemetryOpts::default(),
        }
    }
}

impl SweepOpts {
    /// Parse the unified flags out of `args`, returning the options and
    /// the remaining positional arguments (in order). Unknown `--flags`
    /// are an error so typos fail loudly instead of being treated as
    /// positionals.
    pub fn try_parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Self, Vec<String>), String> {
        let (telemetry, rest) = TelemetryOpts::try_parse(args)?;
        let mut opts = SweepOpts {
            telemetry,
            ..Default::default()
        };
        let mut positional = Vec::new();
        let mut it = rest.into_iter();
        let value = |flag: &str,
                     inline: Option<String>,
                     it: &mut dyn Iterator<Item = String>,
                     what: &str| {
            match inline {
                Some(v) => Ok(v),
                None => it.next().ok_or(format!("{flag} needs {what}")),
            }
        };
        while let Some(a) = it.next() {
            let (flag, inline) = match a.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
                _ => (a.clone(), None),
            };
            match flag.as_str() {
                "--workers" => {
                    let v = value("--workers", inline, &mut it, "a thread count")?;
                    opts.workers = try_parse_value("--workers", &v, "a thread count")?;
                }
                "--out-dir" => {
                    opts.out_dir = Some(PathBuf::from(value(
                        "--out-dir",
                        inline,
                        &mut it,
                        "a directory",
                    )?));
                }
                "--cache-dir" => {
                    opts.cache_dir = Some(PathBuf::from(value(
                        "--cache-dir",
                        inline,
                        &mut it,
                        "a directory",
                    )?));
                }
                "--no-cache" => opts.cache_dir = None,
                "--resume" => {
                    // Resuming is the default (the cache is on); the flag
                    // exists so invocations can state the intent.
                }
                "--max-cells" => {
                    let v = value("--max-cells", inline, &mut it, "a cell count")?;
                    opts.max_cells = Some(try_parse_value("--max-cells", &v, "a cell count")?);
                }
                "--quiet" => opts.quiet = true,
                other if other.starts_with("--") => {
                    return Err(format!("unknown argument: {other}"));
                }
                _ => positional.push(a),
            }
        }
        Ok((opts, positional))
    }

    /// [`Self::try_parse`], exiting with a usage error (status 2) on
    /// malformed input.
    pub fn parse(args: impl IntoIterator<Item = String>) -> (Self, Vec<String>) {
        Self::try_parse(args).unwrap_or_else(|m| usage_error(m))
    }

    /// Parse from the process arguments (skipping `argv[0]`).
    pub fn from_env() -> (Self, Vec<String>) {
        Self::parse(std::env::args().skip(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_parse_value_accepts_good_input() {
        assert_eq!(
            try_parse_value::<u64>("--repeat", "3", "a positive integer"),
            Ok(3)
        );
    }

    #[test]
    fn try_parse_value_message_names_flag_and_value() {
        let err = try_parse_value::<u64>("--repeat", "lots", "a positive integer").unwrap_err();
        assert!(err.contains("--repeat"), "{err}");
        assert!(err.contains("\"lots\""), "{err}");
        assert!(err.contains("a positive integer"), "{err}");
    }

    #[test]
    fn try_parse_value_rejects_negative_for_unsigned() {
        assert!(try_parse_value::<u64>("--count", "-1", "a count").is_err());
    }

    #[test]
    fn try_parse_policy_round_trips_canonical_tokens() {
        use pp_core::{FetchPolicy, Policy};
        for p in FetchPolicy::all() {
            let parsed: FetchPolicy = try_parse_policy("--fetch-policy", p.name()).unwrap();
            assert_eq!(parsed.name(), p.name());
        }
    }

    #[test]
    fn try_parse_policy_error_lists_the_tokens() {
        use pp_core::FetchPolicy;
        let err = try_parse_policy::<FetchPolicy>("--fetch-policy", "fastest").unwrap_err();
        assert!(err.contains("--fetch-policy"), "{err}");
        assert!(err.contains("\"fastest\""), "{err}");
        assert!(err.contains("fetch policy"), "{err}");
        assert!(err.contains("variable_rate"), "{err}");
        assert!(err.contains("exponential_by_age"), "{err}");
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(std::string::ToString::to_string).collect()
    }

    #[test]
    fn sweep_opts_defaults() {
        let (o, rest) = SweepOpts::try_parse(args(&["fig9"])).unwrap();
        assert_eq!(o.workers, 0);
        assert_eq!(o.out_dir, None);
        assert_eq!(o.cache_dir, Some(PathBuf::from("results/cache")));
        assert_eq!(o.max_cells, None);
        assert!(!o.quiet);
        assert_eq!(rest, args(&["fig9"]));
    }

    #[test]
    fn sweep_opts_parse_both_value_forms() {
        let (o, rest) = SweepOpts::try_parse(args(&[
            "run",
            "--workers=3",
            "--out-dir",
            "out",
            "--cache-dir=c",
            "--max-cells",
            "7",
            "--quiet",
            "--telemetry-out=t",
            "fig9",
        ]))
        .unwrap();
        assert_eq!(o.workers, 3);
        assert_eq!(o.out_dir, Some(PathBuf::from("out")));
        assert_eq!(o.cache_dir, Some(PathBuf::from("c")));
        assert_eq!(o.max_cells, Some(7));
        assert!(o.quiet);
        assert_eq!(o.telemetry.out_dir, Some(PathBuf::from("t")));
        assert_eq!(rest, args(&["run", "fig9"]));
    }

    #[test]
    fn sweep_opts_no_cache_and_resume() {
        let (o, _) = SweepOpts::try_parse(args(&["--no-cache"])).unwrap();
        assert_eq!(o.cache_dir, None);
        // --resume is the stated default; it must parse and change nothing.
        let (o, _) = SweepOpts::try_parse(args(&["--resume"])).unwrap();
        assert_eq!(o.cache_dir, Some(PathBuf::from("results/cache")));
    }

    #[test]
    fn sweep_opts_reject_unknown_flag() {
        let err = SweepOpts::try_parse(args(&["--frobnicate"])).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
        assert!(err.contains("--frobnicate"), "{err}");
    }

    #[test]
    fn sweep_opts_reject_dangling_and_malformed_values() {
        let err = SweepOpts::try_parse(args(&["--workers"])).unwrap_err();
        assert!(err.contains("--workers needs a thread count"), "{err}");
        let err = SweepOpts::try_parse(args(&["--max-cells", "many"])).unwrap_err();
        assert!(err.contains("--max-cells"), "{err}");
        assert!(err.contains("\"many\""), "{err}");
        let err = SweepOpts::try_parse(args(&["--out-dir"])).unwrap_err();
        assert!(err.contains("--out-dir needs a directory"), "{err}");
    }
}
