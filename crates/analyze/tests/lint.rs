//! Acceptance tests for the workspace lint pass (rules L2 and L5): the
//! real workspace is clean, and each rule demonstrably fires on a
//! synthetic violation — so "no findings" means the rules ran, not that
//! they rotted.

use std::fs;
use std::path::{Path, PathBuf};

use pp_analyze::lint;

#[test]
fn real_workspace_has_no_findings() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let findings = lint::run(&root).expect("lint pass runs");
    assert!(
        findings.is_empty(),
        "workspace lint findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Build a minimal synthetic workspace tree under a fresh temp dir.
fn fresh_root(tag: &str) -> PathBuf {
    let dir = pp_testutil::scratch_dir(&format!("analyze-lint-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(root: &Path, rel: &str, content: &str) {
    let p = root.join(rel);
    fs::create_dir_all(p.parent().unwrap()).unwrap();
    fs::write(p, content).unwrap();
}

fn populate(root: &Path) {
    write(
        root,
        "crates/core/src/stats.rs",
        "pub struct SimStats {\n    pub cycles: u64,\n}\n",
    );
    write(
        root,
        "crates/core/src/stall.rs",
        "pub struct StallStack {\n    pub commit_slots: u64,\n}\n",
    );
    write(
        root,
        "crates/core/src/config.rs",
        "pub enum Flavor {\n    Mild,\n    Spicy,\n}\n\
         pub struct SimConfig {\n    pub mode: u64,\n    pub flavor: Flavor,\n}\n",
    );
    write(
        root,
        "crates/telemetry/src/lib.rs",
        "pub fn tamper(stats: &mut SimStats) {\n    stats.cycles += 1;\n}\n\
         pub fn observe(stats: &SimStats) -> bool {\n    stats.cycles == 0\n}\n\
         pub fn tamper_stall(st: &mut StallStack) {\n    st.commit_slots += 1;\n}\n\
         pub fn observe_stall(st: &StallStack) -> bool {\n    st.commit_slots == 0\n}\n",
    );
}

#[test]
fn each_rule_fires_on_a_synthetic_violation() {
    let root = fresh_root("fires");
    populate(&root);
    let findings = lint::run(&root).expect("lint pass runs");
    let with = |rule: &str| {
        findings
            .iter()
            .filter(|f| f.rule == rule)
            .collect::<Vec<_>>()
    };

    let l2 = with("L2-stats-encapsulation");
    assert_eq!(l2.len(), 2, "L2 findings: {l2:?}");
    assert!(l2.iter().all(|f| f.path == "crates/telemetry/src/lib.rs"));
    assert!(l2
        .iter()
        .any(|f| f.message.contains("SimStats field `cycles` mutated")));
    assert!(l2.iter().any(|f| f
        .message
        .contains("StallStack field `commit_slots` mutated")));

    let l5 = with("L5-policy-token-table");
    assert_eq!(l5.len(), 1, "L5 findings: {l5:?}");
    assert!(
        l5[0]
            .message
            .contains("enum `Flavor` is on the SimConfig canonical-JSON surface"),
        "{l5:?}"
    );
    assert_eq!(l5[0].path, "crates/core/src/config.rs");

    assert_eq!(findings.len(), 3, "unexpected extra findings: {findings:?}");

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn policy_impl_silences_l5() {
    let root = fresh_root("policy");
    populate(&root);
    // Give the synthetic `Flavor` enum its token table: the L5 finding
    // from `each_rule_fires_on_a_synthetic_violation` must disappear.
    write(
        &root,
        "crates/core/src/policy.rs",
        "impl Policy for Flavor {\n    const AXIS: &'static str = \"flavor\";\n}\n",
    );
    let findings = lint::run(&root).expect("lint pass runs");
    assert!(
        !findings.iter().any(|f| f.rule == "L5-policy-token-table"),
        "token table present, L5 must stay quiet: {findings:?}"
    );
    let _ = fs::remove_dir_all(&root);
}

/// L1 is clippy's: `sim.rs` denies the panic family module-wide, and the
/// fixture crate CI runs clippy on carries the same set. Every
/// `#[expect]` in `sim.rs` raises its lint by itself, so narrowing or
/// dropping this deny would leave clippy green; this pins it instead.
#[test]
fn sim_rs_denies_the_panic_family() {
    const DENY: &str = "#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]";
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for rel in ["../core/src/sim.rs", "lint-fixtures/src/lib.rs"] {
        let src = fs::read_to_string(manifest.join(rel)).unwrap();
        assert!(src.contains(DENY), "{rel} lost the L1 deny set:\n{DENY}");
    }
}
