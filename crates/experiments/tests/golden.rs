//! Golden-equivalence suite: full [`SimStats`] snapshots for every seed
//! workload under three representative configurations, plus SEE under
//! each confidence estimator beyond JRS (adaptive JRS, saturating,
//! oracle, H2P), so every estimator the cycle loop dispatches on is
//! pinned byte for byte.
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
//! build spends ~25 s per cell, over 20 minutes on all 56, which would
//! dominate every workspace test run — the simulated results themselves
//! are identical in both profiles, which `cargo test --release` CI
//! verifies).
//! Regenerate with:
//!
//! ```sh
//! PP_UPDATE_GOLDEN=1 cargo test --release -p pp-experiments --test golden
//! ```

use pp_core::{ConfidenceKind, Policy, PredictorKind, SimConfig, Simulator};
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

/// Run every workload under `cfg` and compare (or regenerate) the
/// snapshots `{workload}_{key}.json`.
fn check_config(key: &str, cfg: SimConfig) {
    if cfg!(debug_assertions) && !pp_testutil::golden::update_mode() {
        eprintln!("golden[{key}]: tier-2 suite, skipped in debug builds — run with --release");
        return;
    }
    for w in Workload::ALL {
        let program = w.build(GOLDEN_SCALE);
        let stats = Simulator::new(&program, cfg.clone()).run();
        assert!(!stats.hit_cycle_limit, "{w} hit the cycle limit");
        let path = golden_dir().join(format!("{}_{key}.json", w.name()));
        check_golden(&path, &stats.to_json());
    }
}

/// [`check_config`] for one of the named Fig. 8 configurations.
fn check_named(c: Config) {
    check_config(config_key(c), named_config(c, BASELINE_HISTORY_BITS));
}

/// [`check_config`] for SEE on the baseline gshare with the confidence
/// estimator whose [`Policy`] token is `token` (its representative
/// parameters), keyed `see_{token}`. For `oracle` this is exactly
/// [`Config::SeeOracle`].
fn check_estimator(token: &str) {
    let Some(kind) = ConfidenceKind::from_name(token) else {
        panic!("{token:?} is not a confidence-estimator token");
    };
    let cfg = SimConfig::baseline()
        .with_predictor(PredictorKind::Gshare {
            history_bits: BASELINE_HISTORY_BITS,
        })
        .with_confidence(kind);
    check_config(&format!("see_{token}"), cfg);
}

// One test per configuration so they run in parallel under the default
// libtest harness.

#[test]
fn golden_monopath() {
    check_named(Config::Monopath);
}

#[test]
fn golden_see_jrs() {
    check_named(Config::SeeJrs);
}

#[test]
fn golden_dual_jrs() {
    check_named(Config::DualJrs);
}

#[test]
fn golden_see_adaptive_jrs() {
    check_estimator("adaptive_jrs");
}

#[test]
fn golden_see_saturating() {
    check_estimator("saturating");
}

#[test]
fn golden_see_oracle() {
    check_estimator("oracle");
}

#[test]
fn golden_see_h2p() {
    check_estimator("h2p");
}
