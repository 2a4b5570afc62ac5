//! Golden-equivalence suite: full [`SimStats`] snapshots for every seed
//! workload under three representative configurations.
//!
//! These snapshots pin the *exact* simulated behavior of the kernel —
//! every counter, byte for byte. Any optimization of the cycle loop must
//! leave all of them untouched; any intentional model change must
//! regenerate them (`PP_UPDATE_GOLDEN=1 cargo test -p pp-experiments
//! --test golden`) and justify the diff in review.
//!
//! Every workload is built at [`GOLDEN_SCALE`], deliberately
//! independent of `PP_SCALE`: the snapshots are committed files, so the
//! inputs that produce them must never vary with the environment.
//!
//! The suite is tier-2: it only compares under `--release` (a debug
//! sweep of 24 cells takes ~10 minutes and would dominate every
//! workspace test run — the simulated results themselves are identical
//! in both profiles, which `cargo test --release` CI verifies).
//! Regenerate with:
//!
//! ```sh
//! PP_UPDATE_GOLDEN=1 cargo test --release -p pp-experiments --test golden
//! ```

use pp_core::Simulator;
use pp_experiments::experiments::BASELINE_HISTORY_BITS;
use pp_experiments::{named_config, Config};
use pp_testutil::golden::{check_golden, golden_dir, GOLDEN_SCALE};
use pp_workloads::Workload;

/// Filename-safe key for a configuration (labels contain `/`).
fn config_key(c: Config) -> &'static str {
    match c {
        Config::Oracle => "oracle",
        Config::Monopath => "monopath",
        Config::SeeOracle => "see_oracle",
        Config::SeeJrs => "see_jrs",
        Config::DualOracle => "dual_oracle",
        Config::DualJrs => "dual_jrs",
    }
}

/// Run every workload under `c` and compare (or regenerate) snapshots.
fn check_config(c: Config) {
    if cfg!(debug_assertions) && !pp_testutil::golden::update_mode() {
        eprintln!(
            "golden[{}]: tier-2 suite, skipped in debug builds — \
             run with --release",
            config_key(c)
        );
        return;
    }
    let cfg = named_config(c, BASELINE_HISTORY_BITS);
    for w in Workload::ALL {
        let program = w.build(GOLDEN_SCALE);
        let stats = Simulator::new(&program, cfg.clone()).run();
        assert!(!stats.hit_cycle_limit, "{w} hit the cycle limit");
        let path = golden_dir().join(format!("{}_{}.json", w.name(), config_key(c)));
        check_golden(&path, &stats.to_json());
    }
}

// One test per configuration so the three run in parallel under the
// default libtest harness.

#[test]
fn golden_monopath() {
    check_config(Config::Monopath);
}

#[test]
fn golden_see_jrs() {
    check_config(Config::SeeJrs);
}

#[test]
fn golden_dual_jrs() {
    check_config(Config::DualJrs);
}
