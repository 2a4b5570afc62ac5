//! Small numeric and filesystem helpers shared by the workloads.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Lower quartile of `values`: the estimator for host times measured
/// many times over a run. The shared host alternates between a fast and
/// a slow state for seconds at a time, mostly fast; the lower quartile
/// of samples spread over the run lands in the fast state unless the
/// run was slow most of the time, where a median or mean moves with the
/// share of slow time.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

/// Linear-interpolated quantile `q` in `[0, 1]`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile with at least ten samples beyond it
/// (`1 - 10/n`), never below the median, and its value.
pub fn pmax(values: &[f64]) -> (f64, f64) {
    let q = (1.0 - 10.0 / values.len().max(1) as f64).max(0.5);
    (q, quantile(values, q))
}

/// Harmonic mean; 0 for an empty slice or any non-positive value.
pub fn hmean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

/// `num / den`, or 0 when the denominator is not positive.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run `f` until at least `min` host time has accumulated (and at least
/// once), returning the mean time per repetition and the last result.
pub fn repeat_for<T>(min: Duration, mut f: impl FnMut() -> T) -> (Duration, T) {
    let start = Instant::now();
    let mut reps = 0u32;
    loop {
        let out = f();
        reps += 1;
        let spent = start.elapsed();
        if spent >= min {
            return (spent / reps, out);
        }
    }
}

/// Seconds a fixed piece of the benchmark's own integer work takes: a
/// xorshift stream driving data-dependent branches over a 16 KiB table.
/// It calls no code of the simulator, so only the host's speed moves it.
pub fn host_probe() -> f64 {
    let t = Instant::now();
    let mut table = vec![0u32; 4096];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u32;
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize >> 3) & (table.len() - 1);
        if table[i] & 1 == 0 {
            table[i] = table[i].wrapping_add(x as u32);
            acc ^= table[i];
        } else {
            table[i] >>= 1;
            acc = acc.wrapping_add(1);
        }
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// The process's peak resident set size in MiB (`VmHWM`), or 0 where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Every regular file under `root` as `relative path → bytes`.
///
/// # Errors
/// Any I/O error while walking or reading the tree.
pub fn read_tree(root: &Path) -> std::io::Result<BTreeMap<PathBuf, Vec<u8>>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
                out.insert(rel, std::fs::read(&path)?);
            }
        }
    }
    Ok(out)
}

/// A private working directory under the checkout, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: u32,
}

impl Scratch {
    /// Create `<base>/tmp-<pid>` (stale contents from a crashed run
    /// with a recycled PID are cleared first).
    ///
    /// # Errors
    /// The directory cannot be created.
    pub fn create(base: &Path) -> std::io::Result<Scratch> {
        let root = base.join(format!("tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, not-yet-existing path under the scratch root.
    pub fn fresh(&mut self, what: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{what}-{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// SplitMix64: a bijective scrambler, used to turn the benchmark seed
/// into a salt for the registry's cell seeds.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(lower_quartile(&[5.0, 1.0, 4.0, 2.0, 3.0]), 2.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (q, x) = pmax(&v);
        assert!((q - 0.9).abs() < 1e-12);
        assert!((x - quantile(&v, 0.9)).abs() < 1e-12);
    }

    #[test]
    fn hmean_of_equal_values_is_the_value() {
        assert!((hmean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(hmean(&[1.0, 0.0]), 0.0);
    }
}
