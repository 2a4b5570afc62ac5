//! `pp-analyze` CLI: `check` (exhaustive CTX-protocol model checking),
//! `lint` (workspace lint rules L2 and L5), and `cfg` (static CFG +
//! reconvergence analysis over the workload suite). All exit nonzero on
//! violation so CI can gate on them.

#![allow(clippy::disallowed_methods, reason = "CLI parsing its own argv")]

use std::process::ExitCode;

use pp_analyze::{lint, Mutation, Reconvergence, Scope};
use pp_workloads::Workload;

const USAGE: &str = "\
usage: pp-analyze <command> [options]

commands:
  check    exhaustively model-check the CTX protocol at small scope
             --positions N    history positions        (default 3)
             --path-slots N   live path slots          (default 3)
             --max-lazy N     lazy (window) entries    (default 2)
             --max-eager N    eager (store-buf) entries(default 1)
             --depth N        max trace length         (default 9)
             --mutation M     none | ignore-epoch-staleness |
                              skip-commit-broadcast | kill-ignores-direction |
                              skip-merge-resume
  lint     run the workspace lint rules that clippy cannot express (L2, L5)
  cfg      static CFG + post-dominator reconvergence analysis of the
           SPECint95-analog workloads (per-workload statistics table)
             --workload NAME  one analog (default: all eight)
             --vet            fail on irreducible control flow findings
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => run_check(&args[1..]),
        Some("lint") => run_lint(&args[1..]),
        Some("cfg") => run_cfg(&args[1..]),
        _ => {
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

fn run_check(args: &[String]) -> ExitCode {
    let mut scope = Scope::default();
    let mut mutation = Mutation::None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let (flag, inline) = match flag.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (flag.as_str(), None),
        };
        let mut value = || -> Result<String, ExitCode> {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        let parsed = match flag {
            "--positions" | "--path-slots" | "--max-lazy" | "--max-eager" | "--depth" => {
                match value() {
                    Ok(v) => match v.parse::<usize>() {
                        Ok(n) => Some(n),
                        Err(_) => return usage_error(&format!("{flag} wants a number, got {v}")),
                    },
                    Err(code) => return code,
                }
            }
            "--mutation" => {
                match value() {
                    Ok(v) => match Mutation::parse(&v) {
                        Some(m) => mutation = m,
                        None => return usage_error(&format!("unknown mutation `{v}`")),
                    },
                    Err(code) => return code,
                }
                None
            }
            other => return usage_error(&format!("unknown flag `{other}`")),
        };
        if let Some(n) = parsed {
            match flag {
                "--positions" => scope.positions = n,
                "--path-slots" => scope.path_slots = n,
                "--max-lazy" => scope.max_lazy = n,
                "--max-eager" => scope.max_eager = n,
                "--depth" => scope.depth = n,
                _ => unreachable!("matched above"),
            }
        }
    }
    let report = pp_analyze::check(scope, mutation);
    print!("{}", report.summary(scope, mutation));
    if report.violation.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_cfg(args: &[String]) -> ExitCode {
    let mut vet = false;
    let mut only: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--vet" => vet = true,
            "--workload" => match it.next() {
                Some(w) => only = Some(w.clone()),
                None => return usage_error("--workload needs a value"),
            },
            other => return usage_error(&format!("unknown flag `{other}`")),
        }
    }
    let selected: Vec<Workload> = match &only {
        None => Workload::ALL.to_vec(),
        Some(name) => match Workload::ALL.iter().find(|w| w.name() == name) {
            Some(w) => vec![*w],
            None => return usage_error(&format!("unknown workload `{name}`")),
        },
    };

    // CFG structure is scale-invariant (scale only changes immediates),
    // so analyze the cheapest build of each analog.
    println!(
        "{:<10} {:>7} {:>7} {:>9} {:>5} {:>5} {:>6} {:>6} {:>6} {:>7} {:>5}",
        "workload",
        "blocks",
        "edges",
        "branches",
        "fwd",
        "back",
        "multi",
        "irred",
        "noipd",
        "agree%",
        "nest"
    );
    let mut findings: Vec<(Workload, String)> = Vec::new();
    for w in selected {
        let program = w.build(1);
        let r = Reconvergence::analyze(&program);
        let s = r.stats();
        println!(
            "{:<10} {:>7} {:>7} {:>9} {:>5} {:>5} {:>6} {:>6} {:>6} {:>7.1} {:>5}",
            w.name(),
            s.blocks,
            s.edges,
            s.cond_branches,
            s.forward_hammock,
            s.backward_loop,
            s.multi_exit,
            s.irreducible,
            s.no_ipdom,
            s.agreement_percent(),
            s.max_fork_nesting
        );
        for f in r.vet_findings() {
            findings.push((w, f));
        }
    }
    if !vet {
        return ExitCode::SUCCESS;
    }
    if findings.is_empty() {
        println!("pp-analyze cfg --vet: all workloads vetted, 0 irreducible findings");
        ExitCode::SUCCESS
    } else {
        for (w, f) in &findings {
            println!("[{w}] {f}");
        }
        println!("pp-analyze cfg --vet: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

fn run_lint(args: &[String]) -> ExitCode {
    if let Some(flag) = args.first() {
        return usage_error(&format!("unknown flag `{flag}`"));
    }
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    match lint::run(&root) {
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Ok(findings) if findings.is_empty() => {
            println!("pp-analyze lint: no findings");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            println!("pp-analyze lint: {} finding(s)", findings.len());
            ExitCode::FAILURE
        }
    }
}
