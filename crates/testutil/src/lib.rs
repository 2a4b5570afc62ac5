//! # pp-testutil — dependency-free randomized-testing support
//!
//! The workspace's property-style tests originally used `proptest`, which
//! is an external crates.io dependency and therefore unavailable in the
//! offline environments where tier-1 verification runs. This crate
//! replaces the subset we actually use with ~100 lines of deterministic
//! machinery:
//!
//! * [`Rng`] — a seedable splitmix64/xorshift generator with the usual
//!   integer-range, boolean, and choice helpers,
//! * [`cases`] — runs a closure across `n` seeds and reports the failing
//!   seed on panic, so a red run is reproducible with [`cases_from`],
//! * [`shrink`] — delta-debugging (ddmin-style) list minimization for
//!   fuzz harnesses whose inputs are element lists (e.g. instruction
//!   sequences), reducing a failing case to a locally minimal one.
//!
//! The crate also hosts the workspace's golden-file layer (module
//! [`golden`]): snapshot comparison with a `PP_UPDATE_GOLDEN=1`
//! regeneration path, and the shared `crates/testutil/golden/`
//! snapshot directory.

pub mod golden;

/// A per-process scratch directory for tests: `temp_dir()/pp-<tag>-<pid>`.
/// Not created; callers clear or create it as they need.
#[expect(clippy::disallowed_methods, reason = "test scratch space only")]
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("pp-{tag}-{}", std::process::id()))
}

/// Deterministic 64-bit RNG (splitmix64 seeding + xorshift64* stream).
///
/// Not cryptographic; statistically plenty for test-case generation and
/// fully reproducible across platforms.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Generator seeded with `seed` (any value, including 0, is fine).
    pub fn new(seed: u64) -> Self {
        // splitmix64 scrambles dense seeds (0, 1, 2, …) into well-spread
        // starting states.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Rng {
            state: (z ^ (z >> 31)) | 1,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..bound`.
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be nonzero");
        self.next_u64() % bound
    }

    /// Uniform `usize` in `range` (half-open).
    ///
    /// # Panics
    /// Panics if the range is empty.
    pub fn in_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "empty range");
        range.start + self.below((range.end - range.start) as u64) as usize
    }

    /// Uniform `u8` over the full domain.
    pub fn any_u8(&mut self) -> u8 {
        self.next_u64() as u8
    }

    /// Uniform `u16` over the full domain.
    pub fn any_u16(&mut self) -> u16 {
        self.next_u64() as u16
    }

    /// Uniform `i8` over the full domain.
    pub fn any_i8(&mut self) -> i8 {
        self.next_u64() as i8
    }

    /// Uniform `i16` over the full domain.
    pub fn any_i16(&mut self) -> i16 {
        self.next_u64() as i16
    }

    /// Fair coin.
    pub fn flip(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.in_range(0..items.len())]
    }

    /// A `Vec` of `len in len_range` elements drawn from `gen`.
    pub fn vec_of<T>(
        &mut self,
        len_range: std::ops::Range<usize>,
        mut gen: impl FnMut(&mut Self) -> T,
    ) -> Vec<T> {
        let len = if len_range.start == 0 && len_range.end == 1 {
            0
        } else {
            self.in_range(len_range)
        };
        (0..len).map(|_| gen(self)).collect()
    }
}

/// Run `body` once per seed in `0..n`, panicking with the failing seed's
/// number on the first failure. `body` receives a fresh [`Rng`] per case.
pub fn cases(n: u64, body: impl Fn(&mut Rng)) {
    cases_from(0, n, body);
}

/// Like [`cases`] but starting at `first` — re-run a single failing seed
/// with `cases_from(seed, 1, …)` while debugging.
pub fn cases_from(first: u64, n: u64, body: impl Fn(&mut Rng)) {
    for seed in first..first + n {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut rng = Rng::new(seed);
            body(&mut rng);
        }));
        if let Err(payload) = result {
            eprintln!(
                "pp-testutil: case failed at seed {seed} (re-run with cases_from({seed}, 1, ...))"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

/// Delta-debugging list minimization (Zeller's ddmin, simplified): given
/// `items` for which `fails` returns `true`, find a subsequence that still
/// fails but from which no single contiguous chunk (down to single
/// elements) can be removed. Deterministic; calls `fails` O(n²) times in
/// the worst case, so keep the predicate cheap or the input modest.
///
/// Returns `items` unchanged if it does not fail in the first place.
pub fn shrink<T: Clone>(items: &[T], mut fails: impl FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current: Vec<T> = items.to_vec();
    if !fails(&current) {
        return current;
    }
    // Try removing chunks of decreasing size until nothing can go.
    let mut chunk = current.len().div_ceil(2).max(1);
    while chunk >= 1 && !current.is_empty() {
        let mut start = 0;
        let mut removed_any = false;
        while start < current.len() {
            let end = (start + chunk).min(current.len());
            let mut candidate = Vec::with_capacity(current.len() - (end - start));
            candidate.extend_from_slice(&current[..start]);
            candidate.extend_from_slice(&current[end..]);
            if (!candidate.is_empty() || chunk == current.len()) && fails(&candidate) {
                current = candidate;
                removed_any = true;
                // Re-test from the same offset: the next chunk slid
                // into this position.
                continue;
            }
            start += chunk;
        }
        if chunk == 1 && !removed_any {
            break;
        }
        if !removed_any {
            chunk /= 2;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        assert_ne!(Rng::new(1).next_u64(), Rng::new(2).next_u64());
        // Dense seeds stay well-spread (splitmix scrambling).
        assert_ne!(Rng::new(0).next_u64() >> 32, 0);
    }

    #[test]
    fn below_and_range_respect_bounds() {
        let mut r = Rng::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let v = r.in_range(5..9);
            assert!((5..9).contains(&v));
        }
    }

    #[test]
    fn vec_of_respects_len_range() {
        let mut r = Rng::new(11);
        for _ in 0..100 {
            let v = r.vec_of(2..7, super::Rng::flip);
            assert!((2..7).contains(&v.len()));
        }
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = Rng::new(9);
        let hits = (0..10_000).filter(|_| r.chance(1, 4)).count();
        assert!((2200..2800).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn cases_runs_all_seeds() {
        let counter = std::sync::atomic::AtomicU64::new(0);
        cases(25, |_| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 25);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn cases_propagates_failures() {
        cases(10, |rng| {
            if rng.flip() {
                panic!("boom");
            }
        });
    }

    #[test]
    fn shrink_finds_single_culprit() {
        let items: Vec<u32> = (0..100).collect();
        let minimal = shrink(&items, |xs| xs.contains(&73));
        assert_eq!(minimal, vec![73]);
    }

    #[test]
    fn shrink_keeps_interacting_pair() {
        // Failure needs both 10 and 90 — ddmin must keep exactly those.
        let items: Vec<u32> = (0..100).collect();
        let minimal = shrink(&items, |xs| xs.contains(&10) && xs.contains(&90));
        assert_eq!(minimal, vec![10, 90]);
    }

    #[test]
    fn shrink_returns_input_when_not_failing() {
        let items = vec![1, 2, 3];
        assert_eq!(shrink(&items, |_| false), items);
    }

    #[test]
    fn shrink_reaches_empty_when_everything_fails() {
        let items = vec![5, 6];
        assert_eq!(shrink(&items, |_| true), Vec::<i32>::new());
    }

    #[test]
    fn shrink_result_is_locally_minimal() {
        // Failure: sum of elements >= 50. Any locally minimal subsequence
        // cannot lose a single element and still fail.
        let items: Vec<u32> = vec![8; 20];
        let minimal = shrink(&items, |xs| xs.iter().sum::<u32>() >= 50);
        assert!(minimal.iter().sum::<u32>() >= 50);
        for i in 0..minimal.len() {
            let mut without: Vec<u32> = minimal.clone();
            without.remove(i);
            assert!(without.iter().sum::<u32>() < 50, "not minimal at {i}");
        }
    }
}
