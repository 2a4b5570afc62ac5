//! The one command-line parser of the experiment binaries.
//!
//! Every command (`sweep`'s subcommands, `fuzz_check`, `bench_kernel`)
//! declares the [`Flag`]s it takes and reads its arguments through
//! [`tokenize`], which accepts `--flag VALUE`, `--flag=VALUE`, bare
//! switches and positionals (no external argument parser in this
//! offline workspace). A flag another command takes is "unknown" here,
//! so `sweep run --addr x` fails the same way as a typo.
//!
//! The failure paths are uniform: a *usage* error (unknown, dangling or
//! malformed flag) prints one actionable `error:` line to stderr and
//! exits with status 2; a *runtime* failure (can't write an artifact,
//! missing baseline file) exits with status 1. Neither produces a panic
//! backtrace — those are reserved for bugs.
//!
//! The parsers return `Result` so the message text is unit testable;
//! the panic-free process-exit behaviour itself is covered by the
//! negative-path integration tests in `tests/cli_negative.rs`, which
//! spawn the real binaries.

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

/// The process arguments, without `argv[0]`.
#[expect(clippy::disallowed_methods, reason = "CLI parsing its own argv")]
pub fn argv() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// A flag a command takes: a switch, or a value flag that names what
/// its value is (`--out-dir needs a directory`).
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    value: Option<&'static str>,
}

impl Flag {
    /// A flag followed by a value described as `what`.
    pub const fn value(name: &'static str, what: &'static str) -> Flag {
        Flag {
            name,
            value: Some(what),
        }
    }

    /// A bare switch.
    pub const fn switch(name: &'static str) -> Flag {
        Flag { name, value: None }
    }
}

/// The value given to a value flag.
#[derive(Debug)]
pub struct Value {
    flag: &'static str,
    what: &'static str,
    /// The value as typed.
    pub raw: String,
}

impl Value {
    /// The value parsed as a `T`; the message names the flag, the value
    /// and what was expected.
    pub fn parse<T: FromStr>(&self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let (flag, raw, what) = (self.flag, &self.raw, self.what);
        raw.parse()
            .map_err(|e| format!("{flag}: {raw:?} is not {what} ({e})"))
    }

    /// The value as a path.
    pub fn path(self) -> PathBuf {
        PathBuf::from(self.raw)
    }
}

/// One command-line argument, classified against a command's flags.
#[derive(Debug)]
pub enum Arg {
    /// A declared switch.
    Switch(&'static str),
    /// A declared value flag and its value.
    Value(&'static str, Value),
    /// Anything that does not start with `--`.
    Positional(String),
}

impl Arg {
    /// The usage error for an argument the command has no use for.
    pub fn unexpected(self) -> String {
        match self {
            Arg::Switch(name) | Arg::Value(name, _) => format!("unexpected argument: {name}"),
            Arg::Positional(p) => format!("unexpected argument {p:?}"),
        }
    }
}

/// Classify `args` against `flags`, in order. A value flag takes its
/// value from `--flag=VALUE` or from the next argument; an undeclared
/// `--flag`, a value flag with nothing after it, and a switch given
/// `=VALUE` are usage errors.
pub fn tokenize(
    args: impl IntoIterator<Item = String>,
    flags: &[Flag],
) -> Result<Vec<Arg>, String> {
    let mut out = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            out.push(Arg::Positional(a));
            continue;
        }
        let (name, inline) = match a.split_once('=') {
            Some((name, v)) => (name, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let Some(flag) = flags.iter().find(|f| f.name == name) else {
            return Err(format!("unknown argument: {name}"));
        };
        out.push(match (flag.value, inline) {
            (None, None) => Arg::Switch(flag.name),
            (None, Some(_)) => return Err(format!("{name} takes no value")),
            (Some(what), inline) => {
                let raw = inline
                    .or_else(|| it.next())
                    .ok_or_else(|| format!("{name} needs {what}"))?;
                Arg::Value(
                    flag.name,
                    Value {
                        flag: flag.name,
                        what,
                        raw,
                    },
                )
            }
        });
    }
    Ok(out)
}

/// `--cache-dir DIR`: the result cache root (default `results/cache`).
pub const CACHE_DIR: Flag = Flag::value("--cache-dir", "a directory");
/// `--no-cache`: disable the result cache entirely.
pub const NO_CACHE: Flag = Flag::switch("--no-cache");
/// `--telemetry-out DIR`: where telemetry artifacts and sweep metrics go.
pub const TELEMETRY_OUT: Flag = Flag::value("--telemetry-out", "a directory");

/// The options of the commands that run registry grids in process
/// (`sweep run`, `sweep profile`), one field per flag of [`Self::FLAGS`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepOpts {
    /// `--workers N`: worker threads; 0 (the default) = one per core.
    pub workers: usize,
    /// `--out-dir DIR`: where rendered artifacts (CSVs etc.) go; `None`
    /// prints to stdout only.
    pub out_dir: Option<PathBuf>,
    /// `--cache-dir DIR` (default `results/cache`); `--no-cache` = `None`.
    pub cache_dir: Option<PathBuf>,
    /// `--max-cells N`: simulate at most N cells and skip the rest
    /// (cache hits are free; this is the deterministic "interrupt").
    pub max_cells: Option<usize>,
    /// `--quiet`: no per-cell progress lines.
    pub quiet: bool,
    /// `--telemetry-out DIR` and `--telemetry-sample-every N`.
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
    /// The flags [`Self::apply`] understands.
    pub const FLAGS: &'static [Flag] = &[
        Flag::value("--workers", "a thread count"),
        Flag::value("--out-dir", "a directory"),
        CACHE_DIR,
        NO_CACHE,
        Flag::value("--max-cells", "a cell count"),
        Flag::switch("--quiet"),
        TELEMETRY_OUT,
        Flag::value("--telemetry-sample-every", "a cycle count"),
    ];

    /// Apply `arg` if it is one of [`Self::FLAGS`] and hand back any
    /// other argument. Later flags override earlier ones.
    pub fn apply(&mut self, arg: Arg) -> Result<Option<Arg>, String> {
        match arg {
            Arg::Value("--workers", v) => self.workers = v.parse()?,
            Arg::Value("--out-dir", v) => self.out_dir = Some(v.path()),
            Arg::Value("--cache-dir", v) => self.cache_dir = Some(v.path()),
            Arg::Switch("--no-cache") => self.cache_dir = None,
            Arg::Value("--max-cells", v) => self.max_cells = Some(v.parse()?),
            Arg::Switch("--quiet") => self.quiet = true,
            Arg::Value("--telemetry-out", v) => self.telemetry.out_dir = Some(v.path()),
            Arg::Value("--telemetry-sample-every", v) => self.telemetry.sample_every = v.parse()?,
            other => return Ok(Some(other)),
        }
        Ok(None)
    }

    /// Parse [`Self::FLAGS`] out of `args`, returning the options and
    /// the positional arguments in order.
    pub fn try_parse(
        args: impl IntoIterator<Item = String>,
    ) -> Result<(Self, Vec<String>), String> {
        let mut opts = SweepOpts::default();
        let mut positional = Vec::new();
        for arg in tokenize(args, Self::FLAGS)? {
            match opts.apply(arg)? {
                None => {}
                Some(Arg::Positional(p)) => positional.push(p),
                Some(other) => return Err(other.unexpected()),
            }
        }
        Ok((opts, positional))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(flag: &'static str, what: &'static str, raw: &str) -> Value {
        Value {
            flag,
            what,
            raw: raw.to_string(),
        }
    }

    #[test]
    fn value_parse_accepts_good_input() {
        let v = value("--repeat", "a positive integer", "3");
        assert_eq!(v.parse::<u64>(), Ok(3));
    }

    #[test]
    fn value_parse_message_names_flag_and_value() {
        let v = value("--repeat", "a positive integer", "lots");
        let err = v.parse::<u64>().unwrap_err();
        assert!(err.contains("--repeat"), "{err}");
        assert!(err.contains("\"lots\""), "{err}");
        assert!(err.contains("a positive integer"), "{err}");
    }

    #[test]
    fn value_parse_rejects_negative_for_unsigned() {
        assert!(value("--count", "a count", "-1").parse::<u64>().is_err());
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(std::string::ToString::to_string).collect()
    }

    const FLAGS: &[Flag] = &[Flag::value("--count", "a count"), Flag::switch("--dry")];

    #[test]
    fn tokenize_classifies_in_order() {
        let toks = tokenize(
            args(&["a", "--count=3", "--dry", "b", "--count", "4"]),
            FLAGS,
        );
        let values: Vec<String> = toks
            .unwrap()
            .into_iter()
            .map(|t| match t {
                Arg::Switch(n) => n.to_string(),
                Arg::Value(n, v) => format!("{n}={}", v.parse::<u64>().unwrap()),
                Arg::Positional(p) => p,
            })
            .collect();
        assert_eq!(values, args(&["a", "--count=3", "--dry", "b", "--count=4"]));
    }

    #[test]
    fn tokenize_keeps_dashes_and_equals_inside_values() {
        let toks = tokenize(args(&["--count", "-3", "--count=a=b"]), FLAGS).unwrap();
        let raw: Vec<&str> = toks
            .iter()
            .map(|t| match t {
                Arg::Value(_, v) => v.raw.as_str(),
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(raw, ["-3", "a=b"]);
    }

    #[test]
    fn tokenize_rejects_unknown_dangling_and_malformed_flags() {
        let err = tokenize(args(&["--frob=1"]), FLAGS).unwrap_err();
        assert_eq!(err, "unknown argument: --frob");
        let err = tokenize(args(&["x", "--count"]), FLAGS).unwrap_err();
        assert_eq!(err, "--count needs a count");
        let err = tokenize(args(&["--dry=yes"]), FLAGS).unwrap_err();
        assert_eq!(err, "--dry takes no value");
    }

    #[test]
    fn unexpected_names_the_argument() {
        assert_eq!(
            Arg::Positional("x".into()).unexpected(),
            "unexpected argument \"x\""
        );
        assert_eq!(
            Arg::Switch("--dry").unexpected(),
            "unexpected argument: --dry"
        );
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
    fn sweep_opts_no_cache() {
        let (o, _) = SweepOpts::try_parse(args(&["--no-cache"])).unwrap();
        assert_eq!(o.cache_dir, None);
        let (o, _) = SweepOpts::try_parse(args(&["--no-cache", "--cache-dir", "c"])).unwrap();
        assert_eq!(o.cache_dir, Some(PathBuf::from("c")));
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
        let err = SweepOpts::try_parse(args(&["--quiet=1"])).unwrap_err();
        assert!(err.contains("--quiet takes no value"), "{err}");
    }

    #[test]
    fn sweep_opts_parse_telemetry_flags_in_both_forms() {
        let (o, rest) = SweepOpts::try_parse(args(&["results"])).unwrap();
        assert_eq!(o.telemetry.out_dir, None);
        assert_eq!(o.telemetry.sample_every, 64);
        assert_eq!(rest, args(&["results"]));

        let (o, rest) = SweepOpts::try_parse(args(&[
            "--telemetry-out",
            "results/telemetry",
            "out",
            "--telemetry-sample-every=32",
        ]))
        .unwrap();
        assert_eq!(
            o.telemetry.out_dir,
            Some(PathBuf::from("results/telemetry"))
        );
        assert_eq!(o.telemetry.sample_every, 32);
        assert_eq!(rest, args(&["out"]));

        let (o, _) = SweepOpts::try_parse(args(&[
            "--telemetry-out=d",
            "--telemetry-sample-every",
            "128",
        ]))
        .unwrap();
        assert_eq!(o.telemetry.out_dir, Some(PathBuf::from("d")));
        assert_eq!(o.telemetry.sample_every, 128);
    }

    #[test]
    fn sweep_opts_reject_dangling_telemetry_flags() {
        let err = SweepOpts::try_parse(args(&["--telemetry-out"])).unwrap_err();
        assert!(err.contains("--telemetry-out needs a directory"), "{err}");
        let err = SweepOpts::try_parse(args(&["--telemetry-sample-every"])).unwrap_err();
        assert!(
            err.contains("--telemetry-sample-every needs a cycle count"),
            "{err}"
        );
    }

    #[test]
    fn sweep_opts_reject_bad_telemetry_interval() {
        for form in [
            args(&["--telemetry-sample-every=never"]),
            args(&["--telemetry-sample-every", "never"]),
        ] {
            let err = SweepOpts::try_parse(form).unwrap_err();
            assert!(err.contains("--telemetry-sample-every"), "{err}");
            assert!(err.contains("\"never\""), "{err}");
            assert!(err.contains("a cycle count"), "{err}");
        }
    }
}
