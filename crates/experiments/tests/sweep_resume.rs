//! Interrupt/resume golden test for the sweep engine, driven through
//! the real `sweep` binary (ISSUE acceptance: an interrupted sweep
//! resumed against the same cache recomputes nothing and produces
//! byte-identical merged outputs).
//!
//! The "interrupt" is the deterministic `--max-cells N` budget: the run
//! simulates N cells, persists them, and exits non-zero with the
//! remaining cells reported as skipped — exactly the state a Ctrl-C
//! between cells leaves behind, without the flakiness of killing a
//! process at a random instruction.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Workload scale multiplier: tiny, but identical across every run in
/// this test so cache fingerprints line up.
const SCALE: &str = "0.02";

struct Dirs {
    root: PathBuf,
}

impl Dirs {
    fn new(name: &str) -> Self {
        let root = pp_testutil::scratch_dir(&format!("sweep-resume-{name}"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Dirs { root }
    }
    fn path(&self, sub: &str) -> PathBuf {
        self.root.join(sub)
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn sweep(dirs: &Dirs, cache: &str, out: &str, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .arg("run")
        .arg("table1")
        .arg("--cache-dir")
        .arg(dirs.path(cache))
        .arg("--out-dir")
        .arg(dirs.path(out))
        .args(extra)
        .env("PP_SCALE", SCALE)
        .output()
        .expect("spawning sweep")
}

/// Every regular file under `dir`, keyed by relative path.
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).unwrap().display().to_string();
                out.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn interrupted_sweep_resumes_to_byte_identical_artifacts() {
    let dirs = Dirs::new("golden");

    // Control: one uninterrupted run against a fresh cache.
    let control = sweep(&dirs, "cache_control", "out_control", &[]);
    assert!(
        control.status.success(),
        "control run failed: {}",
        String::from_utf8_lossy(&control.stderr)
    );

    // "Interrupted" run: budget of 3 of table1's 8 cells, fresh cache.
    // It must exit non-zero (the experiment could not render) while
    // still persisting the 3 finished cells.
    let partial = sweep(&dirs, "cache", "out_partial", &["--max-cells", "3"]);
    let stderr = String::from_utf8_lossy(&partial.stderr);
    assert_eq!(
        partial.status.code(),
        Some(1),
        "partial run should fail rendering; stderr: {stderr}"
    );
    assert!(
        stderr.contains("5 skipped"),
        "partial-run summary should count the skipped cells: {stderr}"
    );
    assert!(
        !dirs.path("out_partial").exists() || tree(&dirs.path("out_partial")).is_empty(),
        "an incomplete sweep must not write partial artifacts"
    );

    // Resume against the same cache: the 3 finished cells are hits, the
    // remaining 5 simulate, and the merged artifacts are byte-identical
    // to the uninterrupted control run.
    let resumed = sweep(&dirs, "cache", "out_resumed", &[]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "resume failed: {stderr}");
    assert!(
        stderr.contains("5 simulated, 3 cached"),
        "resume should reuse exactly the interrupted run's cells: {stderr}"
    );
    assert_eq!(
        tree(&dirs.path("out_resumed")),
        tree(&dirs.path("out_control")),
        "resumed artifacts differ from the uninterrupted run"
    );
    // The stdout reports match too, modulo the `wrote <path>` lines
    // that name the (deliberately different) output directories.
    let rendered = |out: &Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("wrote "))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        rendered(&resumed),
        rendered(&control),
        "resumed stdout report differs from the uninterrupted run"
    );

    // A third run is pure cache: zero recomputation, still identical.
    let warm = sweep(&dirs, "cache", "out_warm", &[]);
    let stderr = String::from_utf8_lossy(&warm.stderr);
    assert!(warm.status.success(), "warm run failed: {stderr}");
    assert!(
        stderr.contains("0 simulated, 8 cached"),
        "warm rerun should be a 100% cache hit: {stderr}"
    );
    assert_eq!(
        tree(&dirs.path("out_warm")),
        tree(&dirs.path("out_control"))
    );
}

#[test]
fn max_cells_zero_simulates_nothing_but_persists_nothing_extra() {
    let dirs = Dirs::new("budget0");
    let out = sweep(&dirs, "cache", "out", &["--max-cells", "0"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("0 simulated"), "{stderr}");
    assert!(stderr.contains("8 skipped"), "{stderr}");
}
