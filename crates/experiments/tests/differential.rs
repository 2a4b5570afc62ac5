//! Differential suite: the golden 8×3 workload × configuration matrix,
//! re-run with the lock-step oracle and the per-cycle sanitizer armed.
//!
//! Where the golden suite pins *what* the simulator computes (byte-exact
//! `SimStats`), this suite checks *that it computes it correctly*: every
//! committed instruction is compared against the architectural emulator
//! in lock step, and the machine's internal invariants (CTX tag
//! hierarchy, wakeup/completion bookkeeping, store-buffer filtering,
//! register conservation) are validated after every cycle. Any
//! divergence or violation panics with a cycle-stamped report. Each
//! checked run's `SimStats` must also equal the committed golden of its
//! cell byte for byte: armed checkers observe the machine and never
//! steer it. The goldens are only read here; the golden suite owns
//! them.
//!
//! Tier-2 like the golden suite: the sanitizer multiplies run time, so
//! the full matrix only runs under `--release` (CI's `check` job);
//! in debug builds each test is a fast no-op with a notice.

use pp_core::Simulator;
use pp_experiments::experiments::BASELINE_HISTORY_BITS;
use pp_experiments::{named_config, Config};
use pp_testutil::golden::{assert_golden, golden_dir, GOLDEN_SCALE};
use pp_workloads::Workload;

/// Golden-file key of each checked configuration (`golden.rs` names
/// the same cells).
fn golden_key(c: Config) -> &'static str {
    match c {
        Config::Monopath => "monopath",
        Config::SeeJrs => "see_jrs",
        Config::DualJrs => "dual_jrs",
        other => panic!("{other:?} has no golden cell in this suite"),
    }
}

fn check_config(c: Config) {
    if cfg!(debug_assertions) {
        eprintln!(
            "differential[{c:?}]: tier-2 suite, skipped in debug builds — run with --release"
        );
        return;
    }
    let cfg = named_config(c, BASELINE_HISTORY_BITS)
        .with_commit_checking()
        .with_sanitizer();
    for w in Workload::ALL {
        let program = w.build(GOLDEN_SCALE);
        let mut sim = Simulator::new(&program, cfg.clone());
        let stats = sim.run();
        // The oracle/sanitizer panic on any divergence or violation, so
        // reaching here means the run was clean; classify truncation too.
        sim.finish_commit_check();
        assert!(!stats.hit_cycle_limit, "{w} hit the cycle limit");
        assert!(stats.committed_instructions > 0, "{w} committed nothing");
        let golden = golden_dir().join(format!("{}_{}.json", w.name(), golden_key(c)));
        assert_golden(&golden, &stats.to_json());
    }
}

#[test]
fn differential_monopath() {
    check_config(Config::Monopath);
}

#[test]
fn differential_see_jrs() {
    check_config(Config::SeeJrs);
}

#[test]
fn differential_dual_jrs() {
    check_config(Config::DualJrs);
}

/// Merge mode over the full workload set: SEE/JRS with merge-point
/// prediction and variable-rate fetch, lock-step oracle and sanitizer
/// armed. Parking and resuming paths at reconvergence points must never
/// change what commits.
#[test]
fn differential_see_merge() {
    if cfg!(debug_assertions) {
        eprintln!(
            "differential[SeeMerge]: tier-2 suite, skipped in debug builds — run with --release"
        );
        return;
    }
    let cfg = named_config(Config::SeeJrs, BASELINE_HISTORY_BITS)
        .with_merge(pp_core::MergeConfig::paper_default())
        .with_fetch_policy(pp_core::FetchPolicy::VariableRate)
        .with_commit_checking()
        .with_sanitizer();
    for w in Workload::ALL {
        let program = w.build(GOLDEN_SCALE);
        let mut sim = Simulator::new(&program, cfg.clone());
        let stats = sim.run();
        sim.finish_commit_check();
        assert!(!stats.hit_cycle_limit, "{w} hit the cycle limit");
        assert!(
            sim.merge_stats().forks_tracked > 0,
            "{w}: merge mode tracked no forks — the axis under test never engaged"
        );
    }
}
