//! Negative-path tests for the experiment binaries' command-line
//! handling: malformed user input must produce one actionable stderr
//! line and exit status 2 — never a panic backtrace.
//!
//! These spawn the real binaries (via the `CARGO_BIN_EXE_*` paths cargo
//! provides to integration tests), so they cover the actual `main`
//! wiring, not just the parsing helpers.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"))
}

fn assert_usage_error(out: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "expected usage-error exit 2, got {:?}; stderr: {stderr}",
        out.status.code()
    );
    for n in needles {
        assert!(stderr.contains(n), "stderr missing {n:?}: {stderr}");
    }
    assert!(
        !stderr.contains("panicked"),
        "usage error must not be a panic: {stderr}"
    );
}

#[test]
fn bench_kernel_rejects_zero_repeat() {
    let out = run(env!("CARGO_BIN_EXE_bench_kernel"), &["--repeat", "0"]);
    assert_usage_error(&out, &["--repeat", "positive integer"]);
}

#[test]
fn bench_kernel_rejects_non_numeric_repeat() {
    let out = run(env!("CARGO_BIN_EXE_bench_kernel"), &["--repeat", "lots"]);
    assert_usage_error(&out, &["--repeat", "\"lots\""]);
}

#[test]
fn bench_kernel_rejects_dangling_flag() {
    let out = run(env!("CARGO_BIN_EXE_bench_kernel"), &["--out"]);
    assert_usage_error(&out, &["--out needs a path"]);
}

#[test]
fn bench_kernel_rejects_unknown_argument() {
    let out = run(env!("CARGO_BIN_EXE_bench_kernel"), &["--frobnicate"]);
    assert_usage_error(&out, &["unknown argument", "--frobnicate"]);
}

#[test]
fn fuzz_check_rejects_bad_count() {
    let out = run(env!("CARGO_BIN_EXE_fuzz_check"), &["--count", "many"]);
    assert_usage_error(&out, &["--count", "\"many\""]);
}

#[test]
fn fuzz_check_rejects_zero_count() {
    let out = run(env!("CARGO_BIN_EXE_fuzz_check"), &["--count", "0"]);
    assert_usage_error(&out, &["--count must be at least 1"]);
}

#[test]
fn fuzz_check_rejects_negative_seed() {
    let out = run(env!("CARGO_BIN_EXE_fuzz_check"), &["--seed", "-3"]);
    assert_usage_error(&out, &["--seed", "\"-3\""]);
}

#[test]
fn sweep_run_all_rejects_dangling_telemetry_flag() {
    let out = run(
        env!("CARGO_BIN_EXE_sweep"),
        &["run", "all", "--telemetry-out"],
    );
    assert_usage_error(&out, &["--telemetry-out needs a directory"]);
}

#[test]
fn sweep_run_all_rejects_bad_sample_interval() {
    let out = run(
        env!("CARGO_BIN_EXE_sweep"),
        &["run", "all", "--telemetry-sample-every=sometimes"],
    );
    assert_usage_error(&out, &["--telemetry-sample-every", "\"sometimes\""]);
}

// --- the unified sweep flag set -------------------------------------

#[test]
fn sweep_without_subcommand_prints_usage() {
    let out = run(env!("CARGO_BIN_EXE_sweep"), &[]);
    assert_usage_error(&out, &["usage: sweep"]);
}

#[test]
fn sweep_rejects_unknown_subcommand() {
    let out = run(env!("CARGO_BIN_EXE_sweep"), &["frobnicate"]);
    assert_usage_error(&out, &["unknown subcommand", "frobnicate"]);
}

#[test]
fn sweep_run_rejects_unknown_experiment() {
    let out = run(env!("CARGO_BIN_EXE_sweep"), &["run", "fig99"]);
    assert_usage_error(&out, &["unknown experiment", "fig99", "fig9"]);
}

#[test]
fn sweep_run_without_names_is_a_usage_error() {
    let out = run(env!("CARGO_BIN_EXE_sweep"), &["run"]);
    assert_usage_error(&out, &["at least one experiment name"]);
}

#[test]
fn sweep_rejects_unknown_flag() {
    let out = run(
        env!("CARGO_BIN_EXE_sweep"),
        &["run", "fig9", "--frobnicate"],
    );
    assert_usage_error(&out, &["unknown argument", "--frobnicate"]);
}

#[test]
fn sweep_rejects_dangling_workers() {
    let out = run(env!("CARGO_BIN_EXE_sweep"), &["run", "fig9", "--workers"]);
    assert_usage_error(&out, &["--workers needs a thread count"]);
}

#[test]
fn sweep_rejects_bad_max_cells() {
    let out = run(
        env!("CARGO_BIN_EXE_sweep"),
        &["run", "fig9", "--max-cells=-1"],
    );
    assert_usage_error(&out, &["--max-cells", "\"-1\""]);
}

#[test]
fn sweep_rejects_dangling_telemetry_out() {
    let out = run(
        env!("CARGO_BIN_EXE_sweep"),
        &["run", "fig9", "--telemetry-out"],
    );
    assert_usage_error(&out, &["--telemetry-out needs a directory"]);
}

#[test]
fn sweep_run_rejects_unknown_flags_and_stray_names() {
    let out = run(env!("CARGO_BIN_EXE_sweep"), &["run", "all", "--frobnicate"]);
    assert_usage_error(&out, &["unknown argument", "--frobnicate"]);
    let out = run(env!("CARGO_BIN_EXE_sweep"), &["run", "table1", "extra"]);
    assert_usage_error(&out, &["unknown experiment", "extra"]);
}

#[test]
fn workload_profile_rejects_unknown_workload() {
    let out = run(env!("CARGO_BIN_EXE_workload_profile"), &["pascal"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("unknown workload `pascal`"), "{stderr}");
    assert!(stderr.contains("compress"), "{stderr}");
}

#[test]
fn serve_rejects_the_removed_lease_cap_flags() {
    for flag in [["--quota", "2"], ["--max-inflight", "4"]] {
        let args = ["table1", flag[0], flag[1]];
        let out = run(env!("CARGO_BIN_EXE_serve"), &args);
        assert_usage_error(&out, &["unknown argument", flag[0]]);
    }
}
