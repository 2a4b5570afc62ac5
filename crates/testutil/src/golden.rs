//! Golden-file (snapshot) testing support.
//!
//! A golden test renders some deterministic artifact to text, then calls
//! [`check_golden`] against a committed file. On mismatch the test fails
//! with a line-level diff; setting `PP_UPDATE_GOLDEN=1` regenerates the
//! files instead (review the `git diff` before committing!).
//!
//! The workspace's snapshots live in `crates/testutil/golden/` (see
//! [`golden_dir`]) so that every crate's golden tests share one
//! reviewable directory. The machinery is dependency-free on purpose:
//! it must run in the offline tier-1 environment.

use std::path::{Path, PathBuf};

/// Dynamic scale every workload is built at for the golden `SimStats`
/// snapshots and for the suites that re-run exactly those cells (the
/// differential and trace-invisibility suites). One constant for all
/// eight workloads, independent of `PP_SCALE`, so the committed inputs
/// never vary with the environment. Against each workload's
/// `default_scale` (260 for perl to 2,400 for gcc) it runs from 0.83×
/// (gcc) to 7.7× (perl) of the paper-evaluation scale, so these cells
/// are full-size runs, not reduced ones.
pub const GOLDEN_SCALE: u64 = 2000;

/// Environment variable that switches [`check_golden`] from *compare*
/// mode into *regenerate* mode when set to `1`.
pub const UPDATE_ENV: &str = "PP_UPDATE_GOLDEN";

/// `true` when `PP_UPDATE_GOLDEN=1` — snapshots are rewritten, not
/// compared.
#[expect(clippy::disallowed_methods, reason = "golden regeneration switch")]
pub fn update_mode() -> bool {
    matches!(std::env::var(UPDATE_ENV).as_deref(), Ok("1"))
}

/// The workspace's shared snapshot directory,
/// `crates/testutil/golden/`.
pub fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("golden")
}

/// Compare `actual` against the committed snapshot at `path`
/// (regenerating it instead under `PP_UPDATE_GOLDEN=1`).
///
/// # Panics
/// Panics (failing the test) when the snapshot is missing or differs,
/// with a first-divergence diff and regeneration instructions.
pub fn check_golden(path: &Path, actual: &str) {
    if update_mode() {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        }
        // Skip the write when nothing changed so timestamps (and file
        // watchers) stay quiet on no-op regenerations.
        if std::fs::read_to_string(path).ok().as_deref() != Some(actual) {
            std::fs::write(path, actual)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!("golden: updated {}", path.display());
        }
        return;
    }
    assert_golden(path, actual);
}

/// Compare `actual` against the committed snapshot at `path`, in every
/// mode: for suites that re-run a cell another suite owns and must
/// never rewrite its snapshot.
///
/// # Panics
/// Panics (failing the test) when the snapshot is missing or differs,
/// with a first-divergence diff.
pub fn assert_golden(path: &Path, actual: &str) {
    let expected = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "golden file {} unreadable ({e}); run the test once with \
             {UPDATE_ENV}=1 to create it",
            path.display()
        )
    });
    if expected != actual {
        panic!("{}", diff_report(path, &expected, actual));
    }
}

/// Human-readable first-divergence report for a golden mismatch.
fn diff_report(path: &Path, expected: &str, actual: &str) -> String {
    use std::fmt::Write as _;
    let mut o = String::new();
    let _ = writeln!(o, "golden mismatch against {}", path.display());
    let exp_lines: Vec<&str> = expected.lines().collect();
    let act_lines: Vec<&str> = actual.lines().collect();
    if exp_lines.len() != act_lines.len() {
        let _ = writeln!(
            o,
            "  line count: expected {}, actual {}",
            exp_lines.len(),
            act_lines.len()
        );
    }
    let mut shown = 0;
    for i in 0..exp_lines.len().max(act_lines.len()) {
        let e = exp_lines.get(i).copied();
        let a = act_lines.get(i).copied();
        if e != a {
            let _ = writeln!(o, "  line {}:", i + 1);
            let _ = writeln!(o, "    expected: {}", e.unwrap_or("<missing>"));
            let _ = writeln!(o, "    actual:   {}", a.unwrap_or("<missing>"));
            shown += 1;
            if shown >= 8 {
                let _ = writeln!(o, "  … (further differences elided)");
                break;
            }
        }
    }
    let _ = writeln!(
        o,
        "  if the change is intended, regenerate with {UPDATE_ENV}=1 and \
         review the git diff"
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        crate::scratch_dir(&format!("golden-{name}"))
    }

    #[test]
    fn matching_snapshot_passes() {
        let p = tmp("match.txt");
        std::fs::write(&p, "a\nb\n").unwrap();
        check_golden(&p, "a\nb\n");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn mismatch_panics_with_line_diff() {
        let p = tmp("mismatch.txt");
        std::fs::write(&p, "a\nb\n").unwrap();
        let err = std::panic::catch_unwind(|| check_golden(&p, "a\nc\n"))
            .expect_err("must fail on drift");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("line 2"), "diff points at the line: {msg}");
        assert!(msg.contains("expected: b"), "{msg}");
        assert!(msg.contains("actual:   c"), "{msg}");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn missing_snapshot_mentions_update_env() {
        let p = tmp("missing.txt");
        std::fs::remove_file(&p).ok();
        let err =
            std::panic::catch_unwind(|| check_golden(&p, "x")).expect_err("must fail when missing");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains(UPDATE_ENV), "{msg}");
    }

    #[test]
    fn golden_dir_points_into_testutil() {
        assert!(golden_dir().ends_with("crates/testutil/golden"));
    }
}
