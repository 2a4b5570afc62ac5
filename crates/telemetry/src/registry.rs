//! A typed metrics registry: counters, gauges, and log-bucketed
//! histograms behind static names.
//!
//! Instruments are registered once (getting back a copyable id) and
//! updated through the id — updates are a bounds-checked array index, no
//! hashing.

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// Power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `0` holds the value 0; bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)`. 65 buckets cover the whole `u64` range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for `v`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Inclusive-exclusive value range `[lo, hi)` covered by bucket `b`
    /// (bucket 0 is the single value 0; the top bucket's `hi` saturates).
    pub fn bucket_range(b: usize) -> (u64, u64) {
        match b {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (b - 1), 1 << b),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile (`q` in
    /// 0..=1). An upper bound — not an interpolation — so it is exact for
    /// distributions that land in one bucket and conservative otherwise.
    pub fn quantile_ub(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0;
        for (b, n) in self.buckets.iter().enumerate() {
            seen += n;
            if *n > 0 && seen >= rank {
                return Self::bucket_range(b).1.saturating_sub(1).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(lo, hi, count)` triples.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(b, n)| {
                let (lo, hi) = Self::bucket_range(b);
                (lo, hi, *n)
            })
    }
}

/// The registry proper. Instrument names must be unique per kind;
/// registering an existing name returns the existing id.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    hists: Vec<(&'static str, Histogram)>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or look up) a counter.
    pub fn counter(&mut self, name: &'static str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| *n == name) {
            return CounterId(i);
        }
        self.counters.push((name, 0));
        CounterId(self.counters.len() - 1)
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&mut self, name: &'static str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| *n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name, 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Register (or look up) a histogram.
    pub fn histogram(&mut self, name: &'static str) -> HistId {
        if let Some(i) = self.hists.iter().position(|(n, _)| *n == name) {
            return HistId(i);
        }
        self.hists.push((name, Histogram::new()));
        HistId(self.hists.len() - 1)
    }

    /// Add `by` to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        self.counters[id.0].1 += by;
    }

    /// Set a gauge to its latest value.
    #[inline]
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Record a histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistId, value: u64) {
        self.hists[id.0].1.record(value);
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> f64 {
        self.gauges[id.0].1
    }

    /// The histogram behind `id`.
    pub fn hist(&self, id: HistId) -> &Histogram {
        &self.hists[id.0].1
    }

    /// All counters as `(name, value)`.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().copied()
    }

    /// All gauges as `(name, value)`.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().copied()
    }

    /// All histograms as `(name, &Histogram)`.
    pub fn hists(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(n, h)| (*n, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_dedup() {
        let mut r = Registry::new();
        let a = r.counter("fetched");
        let b = r.counter("fetched");
        assert_eq!(a, b);
        r.inc(a, 3);
        r.inc(b, 2);
        assert_eq!(r.counter_value(a), 5);
        assert_eq!(r.counters().count(), 1);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_range(0), (0, 1));
        assert_eq!(Histogram::bucket_range(2), (2, 4));
        // Every value falls inside its bucket's range.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40] {
            let (lo, hi) = Histogram::bucket_range(Histogram::bucket_of(v));
            assert!(lo <= v && v < hi || v >= 1 << 63, "{v} in [{lo},{hi})");
        }
    }

    #[test]
    fn histogram_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 10, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 116);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 23.2).abs() < 1e-12);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert!(buckets.iter().all(|(_, _, n)| *n > 0));
        assert_eq!(buckets.iter().map(|(_, _, n)| n).sum::<u64>(), 5);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile_ub(0.5), 0);
    }

    #[test]
    fn quantile_upper_bound_is_conservative() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(4);
        }
        h.record(1000);
        let q50 = h.quantile_ub(0.5);
        assert!((4..=7).contains(&q50), "median ub {q50}");
        assert_eq!(h.quantile_ub(1.0), 1000);
    }
}
