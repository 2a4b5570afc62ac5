//! Differential fuzzing driver: random ISA programs through the
//! simulator with the lock-step oracle and the per-cycle sanitizer
//! armed, under monopath, SEE/JRS, and dual-path/JRS.
//!
//! ```sh
//! cargo run --release -p pp-experiments --bin fuzz_check -- \
//!     [--count N] [--seed S]
//! ```
//!
//! Runs `N` seeded random programs (default 1000, seeds `S..S+N`).
//! Every program is first validated to halt on the architectural
//! emulator, then simulated under all three configurations; any oracle
//! divergence, sanitizer violation, starvation, or deadlock fails the
//! run. The first failing case is minimized with delta debugging and
//! printed as a plan + disassembly listing that reproduces the failure,
//! and the process exits 1. CI runs a 1k-seed smoke; the acceptance bar
//! for simulator changes is a clean 10k run:
//!
//! ```sh
//! cargo run --release -p pp-experiments --bin fuzz_check -- --count 10000
//! ```
//!
//! `--dump-selftest PATH` instead provokes one deterministic checker
//! failure (a non-halting loop under commit checking) with the flight
//! recorder armed, writes the failure report plus the recorder dump to
//! `PATH`, and exits 0 iff the dump captured the pre-failure history —
//! CI uses this to pin the dump-on-failure path end to end.

use pp_check::{fuzz, listing, FUZZ_CONFIGS};
use pp_core::{SimConfig, Simulator};
use pp_experiments::cli::{self, Arg, Flag};
use pp_isa::{reg, Asm};

/// Deterministically trip the commit checker and return the failure
/// report with the flight-recorder dump appended, exactly as
/// `check_program` builds it for a real fuzz failure.
fn dump_selftest() -> String {
    let mut a = Asm::new();
    a.li(reg::T0, 0);
    let top = a.here();
    a.addi(reg::T0, reg::T0, 1);
    a.jmp(top);
    a.halt();
    let program = a.assemble().expect("selftest program assembles");

    let mut cfg = SimConfig::baseline().with_commit_checking();
    cfg.max_cycles = 400;
    // A checker that lets the truncated run pass leaves no dump, which
    // fails the selftest.
    let report = pp_core::run_with_flight_dump(
        || Simulator::new(&program, cfg),
        |sim| {
            sim.run();
            sim.finish_commit_check();
        },
    )
    .err()
    .unwrap_or_else(|| "the commit checker passed a non-halting run".to_string());
    format!("[selftest] {report}")
}

/// `(--count, --seed, --dump-selftest)` from the process arguments.
fn parse_args() -> Result<(u64, u64, Option<String>), String> {
    const FLAGS: &[Flag] = &[
        Flag::value("--count", "a number of programs"),
        Flag::value("--seed", "a 64-bit seed"),
        Flag::value("--dump-selftest", "an output path"),
    ];
    let (mut count, mut seed, mut selftest_path) = (1000, 0, None);
    for arg in cli::tokenize(cli::argv(), FLAGS)? {
        match arg {
            Arg::Value("--count", v) => count = v.parse()?,
            Arg::Value("--seed", v) => seed = v.parse()?,
            Arg::Value("--dump-selftest", v) => selftest_path = Some(v.raw),
            other => return Err(other.unexpected()),
        }
    }
    if count == 0 {
        return Err("--count must be at least 1".into());
    }
    Ok((count, seed, selftest_path))
}

/// Run `f` with the panic hook silenced: the checkers report by
/// panicking, so failing cases panic on purpose. The hook is restored
/// afterwards, so panics outside `f` still print.
fn without_panic_output<T>(f: impl FnOnce() -> T) -> T {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(default_hook);
    out
}

fn main() {
    let (count, seed, selftest_path) = parse_args().unwrap_or_else(|m| cli::usage_error(m));

    if let Some(path) = selftest_path {
        let report = without_panic_output(dump_selftest);
        std::fs::write(&path, &report)
            .unwrap_or_else(|e| cli::usage_error(format_args!("cannot write {path:?}: {e}")));
        let ok = report.contains("flight recorder:") && report.contains("cycle");
        println!(
            "fuzz_check: dump selftest wrote {} bytes to {path} ({})",
            report.len(),
            if ok { "dump present" } else { "DUMP MISSING" }
        );
        std::process::exit(i32::from(!ok));
    }

    println!(
        "fuzz_check: {count} programs from seed {seed}, configs {}, oracle + sanitizer armed",
        FUZZ_CONFIGS.join("/")
    );

    let outcome = without_panic_output(|| {
        fuzz(seed, count, |done| {
            eprintln!("  {done}/{count} clean");
        })
    });

    match outcome.failure {
        None => {
            println!(
                "fuzz_check: all {} programs clean (zero divergences, zero violations)",
                outcome.cases_run
            );
        }
        Some(f) => {
            eprintln!(
                "fuzz_check: seed {} FAILED after {} clean cases",
                f.seed,
                outcome.cases_run - 1
            );
            eprintln!("{}", f.report);
            eprintln!(
                "\nminimized plan ({} of {} ops) — reproduce with --seed {} --count 1:",
                f.minimized.len(),
                f.ops.len(),
                f.seed
            );
            for op in &f.minimized {
                eprintln!("  {op:?}");
            }
            eprintln!("\nassembled listing of the minimized program:");
            eprintln!("{}", listing(&f.minimized));
            std::process::exit(1);
        }
    }
}
