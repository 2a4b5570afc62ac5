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
use pp_core::{SimConfig, Simulator, DEFAULT_FLIGHT_DEPTH};
use pp_experiments::cli;
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
    let mut sim = Simulator::new(&program, cfg);
    sim.enable_flight_recorder(DEFAULT_FLIGHT_DEPTH);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let stats = sim.run();
        sim.finish_commit_check();
        stats
    }));
    let msg = match outcome {
        Ok(stats) => {
            assert!(
                stats.hit_cycle_limit,
                "selftest loop must starve the cycle limit"
            );
            "pipeline hit the cycle limit on a non-halting selftest program".to_string()
        }
        Err(payload) => payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string()),
    };
    format!("[selftest] {msg}\n{}", sim.flight_dump())
}

fn main() {
    let mut count: u64 = 1000;
    let mut seed: u64 = 0;
    let mut selftest_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--count" => {
                count = cli::parse_next(&mut args, "--count", "a number of programs");
                if count == 0 {
                    cli::usage_error("--count must be at least 1");
                }
            }
            "--seed" => seed = cli::parse_next(&mut args, "--seed", "a 64-bit seed"),
            "--dump-selftest" => match args.next() {
                Some(p) => selftest_path = Some(p),
                None => cli::usage_error("--dump-selftest needs an output path"),
            },
            other => cli::usage_error(format_args!(
                "unknown argument {other:?} (expected --count, --seed, or --dump-selftest)"
            )),
        }
    }

    if let Some(path) = selftest_path {
        // The intentional failure panics inside the checker; silence the
        // default hook's backtrace for it, as the fuzz loop below does.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = dump_selftest();
        std::panic::set_hook(default_hook);
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

    // Failing cases are *expected* to panic inside the checkers (that is
    // how the oracle and sanitizer report); silence the default hook's
    // per-panic backtrace spew while the driver catches and shrinks, and
    // restore it afterwards so driver bugs still print normally.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = fuzz(seed, count, |done| {
        eprintln!("  {done}/{count} clean");
    });
    std::panic::set_hook(default_hook);

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
