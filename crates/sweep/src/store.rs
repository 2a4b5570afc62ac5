//! Content-addressed on-disk store for completed cell results.
//!
//! Layout: `<root>/<first 2 hex>/<fingerprint>.cell`, one file per
//! completed cell. Each file carries the cell's full key material
//! (workload, seed, scale, behavior revision, canonical config JSON)
//! followed by the `SimStats` JSON:
//!
//! ```text
//! # pp-sweep cell v1
//! <key material…>
//! ---stats---
//! { …SimStats::to_json… }
//! ```
//!
//! Loads re-verify the stored key material against the requesting
//! cell's, so a fingerprint collision or a schema change degrades to a
//! cache miss — never a wrong result. Writes go through a same-
//! directory temp file and an atomic rename, so a sweep killed
//! mid-write leaves either a complete entry or no entry (the resume
//! protocol depends on this).

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use pp_core::SimStats;

use crate::cell::SweepCell;

/// File-format magic of a cell entry.
const MAGIC: &str = "# pp-sweep cell v1";
/// Separator between key material and stats JSON.
const SEPARATOR: &str = "\n---stats---\n";
/// Marker embedded in every in-flight temp-file name; the orphan sweep
/// keys on it.
const TMP_MARKER: &str = ".cell.tmp.";

/// Monotonic write counter appended to temp-file names. The PID alone
/// is not unique across hosts sharing one cache directory over a
/// network filesystem (the pp-serve scenario), and host time or
/// randomness would trip the determinism lint; a process-wide counter
/// keeps concurrent writers — including two stores in one process —
/// from clobbering each other's in-flight temp file.
static WRITE_NONCE: AtomicU64 = AtomicU64::new(0);

/// A content-addressed store of completed cell results under one root
/// directory.
#[derive(Debug, Clone)]
pub struct ResultStore {
    root: PathBuf,
}

impl ResultStore {
    /// A store rooted at `root` (created lazily on first save).
    ///
    /// Opening a store sweeps temp-file orphans left by writers that
    /// crashed between `write` and `rename` — without this they would
    /// accumulate forever, since the normal path only cleans up on
    /// rename *error*. Open stores before starting heavy concurrent
    /// writes: the sweep cannot tell a stale orphan from another
    /// process's in-flight write (a clobbered writer degrades to a
    /// save error and a rerun, never a wrong result).
    pub fn new(root: impl Into<PathBuf>) -> Self {
        let store = ResultStore { root: root.into() };
        store.sweep_orphans();
        store
    }

    /// Delete stale in-flight temp files under the store root,
    /// returning how many were removed. Best-effort: I/O errors are
    /// ignored (an unremovable orphan is wasted disk, not a
    /// correctness problem).
    pub fn sweep_orphans(&self) -> usize {
        let Ok(shards) = std::fs::read_dir(&self.root) else {
            return 0;
        };
        shards
            .filter_map(std::result::Result::ok)
            .filter_map(|d| std::fs::read_dir(d.path()).ok())
            .flatten()
            .filter_map(std::result::Result::ok)
            .filter(|f| {
                let name = f.file_name();
                let name = name.to_string_lossy();
                name.starts_with('.') && name.contains(TMP_MARKER)
            })
            .filter(|f| std::fs::remove_file(f.path()).is_ok())
            .count()
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The entry path for a cell.
    pub fn path_for(&self, cell: &SweepCell) -> PathBuf {
        let fp = cell.fingerprint();
        self.root.join(&fp[..2]).join(format!("{fp}.cell"))
    }

    /// Load the cached stats for `cell`, or `None` on any miss:
    /// no entry, unreadable entry, magic/schema mismatch, key-material
    /// mismatch (fingerprint collision), or unparsable stats. A
    /// corrupt entry is deleted so the rerun can overwrite it cleanly.
    pub fn load(&self, cell: &SweepCell) -> Option<SimStats> {
        let path = self.path_for(cell);
        let text = std::fs::read_to_string(&path).ok()?;
        match Self::parse_entry(&text, cell) {
            Some(stats) => Some(stats),
            None => {
                // Truncated write (pre-atomic-rename crash cannot cause
                // this, but disk corruption can) or stale schema:
                // clear it so the store self-heals.
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    fn parse_entry(text: &str, cell: &SweepCell) -> Option<SimStats> {
        let body = text.strip_prefix(MAGIC)?.strip_prefix('\n')?;
        let (key, stats_json) = body.split_once(SEPARATOR)?;
        if key != cell.key_material() {
            return None;
        }
        SimStats::from_json(stats_json).ok()
    }

    /// Persist a completed cell. Atomic: readers (including concurrent
    /// sweeps sharing the cache) see either the complete entry or
    /// nothing.
    pub fn save(&self, cell: &SweepCell, stats: &SimStats) -> io::Result<()> {
        let path = self.path_for(cell);
        let dir = path.parent().expect("entry path has a parent");
        std::fs::create_dir_all(dir)?;
        let entry = format!(
            "{MAGIC}\n{}{SEPARATOR}{}",
            cell.key_material(),
            stats.to_json()
        );
        let tmp = dir.join(format!(
            ".{}.tmp.{}.{}",
            path.file_name()
                .expect("entry path has a file name")
                .to_string_lossy(),
            std::process::id(),
            WRITE_NONCE.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&tmp, &entry)?;
        let renamed = std::fs::rename(&tmp, &path);
        if renamed.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        renamed
    }

    /// Number of entries currently in the store (a maintenance/debug
    /// helper; O(entries)).
    pub fn len(&self) -> usize {
        let Ok(shards) = std::fs::read_dir(&self.root) else {
            return 0;
        };
        shards
            .filter_map(std::result::Result::ok)
            .filter_map(|d| std::fs::read_dir(d.path()).ok())
            .flatten()
            .filter_map(std::result::Result::ok)
            .filter(|f| f.path().extension().is_some_and(|e| e == "cell"))
            .count()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::SimConfig;
    use pp_workloads::Workload;

    fn tmp_root(name: &str) -> PathBuf {
        pp_testutil::scratch_dir(&format!("sweep-store-{name}"))
    }

    fn cell() -> SweepCell {
        SweepCell {
            workload: Workload::Compress,
            seed: None,
            scale: 50,
            config: SimConfig::baseline(),
        }
    }

    fn stats() -> SimStats {
        SimStats {
            cycles: 42,
            committed_instructions: 100,
            ..Default::default()
        }
    }

    #[test]
    fn save_load_roundtrip_is_exact() {
        let root = tmp_root("roundtrip");
        let store = ResultStore::new(&root);
        let c = cell();
        assert!(store.load(&c).is_none());
        store.save(&c, &stats()).unwrap();
        let loaded = store.load(&c).expect("hit after save");
        assert_eq!(loaded, stats());
        assert_eq!(loaded.to_json(), stats().to_json());
        assert_eq!(store.len(), 1);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn key_material_mismatch_is_a_miss() {
        let root = tmp_root("mismatch");
        let store = ResultStore::new(&root);
        let c = cell();
        store.save(&c, &stats()).unwrap();
        // Forge a different cell's content into this cell's address —
        // the key-material comparison must reject it.
        let path = store.path_for(&c);
        let forged = std::fs::read_to_string(store.path_for(&c))
            .unwrap()
            .replace("scale: 50", "scale: 51");
        std::fs::write(&path, forged).unwrap();
        assert!(store.load(&c).is_none(), "forged entry must not load");
        // And the corrupt entry was cleared for self-healing.
        assert!(!path.exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn truncated_entry_is_a_miss_and_self_heals() {
        let root = tmp_root("truncated");
        let store = ResultStore::new(&root);
        let c = cell();
        store.save(&c, &stats()).unwrap();
        let path = store.path_for(&c);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.load(&c).is_none());
        assert!(!path.exists(), "corrupt entry should be removed");
        // A fresh save works again.
        store.save(&c, &stats()).unwrap();
        assert!(store.load(&c).is_some());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn open_sweeps_orphans_and_load_heals_truncation() {
        let root = tmp_root("crash");
        // A prior sweep completed one entry, left two temp orphans
        // (killed between write and rename), and a later fault
        // truncated a second entry.
        let setup = ResultStore::new(&root);
        let c = cell();
        setup.save(&c, &stats()).unwrap();
        let shard = setup.path_for(&c).parent().unwrap().to_path_buf();
        let orphan_a = shard.join(format!(".{}.cell.tmp.1234.0", c.fingerprint()));
        let orphan_b = shard.join(".deadbeef.cell.tmp.1234.1");
        std::fs::write(&orphan_a, "half-written").unwrap();
        std::fs::write(&orphan_b, "half-written").unwrap();
        let truncated = {
            let mut other = cell();
            other.scale = 51;
            setup.save(&other, &stats()).unwrap();
            let p = setup.path_for(&other);
            let full = std::fs::read_to_string(&p).unwrap();
            std::fs::write(&p, &full[..full.len() / 3]).unwrap();
            (other, p)
        };

        // Reopening the store heals the orphans…
        let store = ResultStore::new(&root);
        assert!(!orphan_a.exists(), "stale orphan must be swept on open");
        assert!(!orphan_b.exists(), "stale orphan must be swept on open");
        // …without touching the intact entry…
        assert_eq!(store.load(&c), Some(stats()));
        // …and the truncated entry heals on load.
        assert!(store.load(&truncated.0).is_none());
        assert!(!truncated.1.exists(), "truncated entry must self-heal");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn two_stores_racing_on_one_directory_never_clobber() {
        // Two stores over the same directory model two workers sharing
        // one cache (pp-serve); with a PID-only temp suffix their
        // in-flight temp files could collide, so one writer's rename
        // would publish the other's (possibly interleaved) bytes. The
        // write nonce keeps every in-flight temp file distinct.
        let root = tmp_root("race");
        let c = cell();
        // Open both stores up front: the orphan sweep on open cannot
        // distinguish a live writer's temp file from a stale one.
        let stores = [ResultStore::new(&root), ResultStore::new(&root)];
        let writers: Vec<_> = stores
            .into_iter()
            .map(|store| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        store.save(&c, &stats()).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let store = ResultStore::new(&root);
        assert_eq!(store.load(&c), Some(stats()));
        assert_eq!(store.len(), 1);
        assert_eq!(store.sweep_orphans(), 0, "no temp files may survive");
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn entries_are_sharded_by_fingerprint_prefix() {
        let store = ResultStore::new(tmp_root("shard"));
        let c = cell();
        let p = store.path_for(&c);
        let fp = c.fingerprint();
        assert!(p.ends_with(format!("{}/{fp}.cell", &fp[..2])));
    }
}
