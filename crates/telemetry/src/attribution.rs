//! Attribution tables: metrics keyed by *who caused them* — the static
//! branch (by PC) and the dynamic path (by CTX-table slot generation).
//!
//! The aggregate counters in [`pp_core::SimStats`] answer "how much"; the
//! tables here answer "which branch" and "which path": which PCs diverge,
//! whether the confidence estimator is right *per branch site*, how long
//! eager paths live before the kill bus reaps them, and how much work dies
//! with them.

use std::collections::HashMap;

use pp_core::CycleSample;
use pp_ctx::PathId;

use crate::registry::Histogram;

/// Per-static-branch (per-PC) outcome counts, from `Resolved` events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcStats {
    /// Times a branch at this PC resolved (any path).
    pub resolved: u64,
    /// Resolutions where the prediction was wrong.
    pub mispredicted: u64,
    /// Resolutions that had forked both successors at fetch.
    pub diverged: u64,
    /// Divergences forked at fetch — counted when the fork happens, so
    /// (unlike `diverged`) it includes branches killed before resolving
    /// and sums exactly to `SimStats::divergences`.
    pub forked: u64,
    /// Confidence truth table: estimated low (diffident) and wrong.
    pub low_incorrect: u64,
    /// Estimated low but right (wasted fork, §5.1's PVN denominator).
    pub low_correct: u64,
    /// Estimated high yet wrong (full misprediction penalty).
    pub high_incorrect: u64,
    /// Estimated high and right.
    pub high_correct: u64,
}

impl PcStats {
    /// Misprediction rate at this site.
    pub fn mispredict_rate(&self) -> f64 {
        if self.resolved == 0 {
            0.0
        } else {
            self.mispredicted as f64 / self.resolved as f64
        }
    }

    /// Predictive value of a negative (low-confidence) estimate at this
    /// site — the per-PC version of [`pp_core::SimStats::pvn`].
    pub fn pvn(&self) -> f64 {
        let low = self.low_incorrect + self.low_correct;
        if low == 0 {
            0.0
        } else {
            self.low_incorrect as f64 / low as f64
        }
    }
}

/// Divergence/misprediction attribution across branch PCs.
#[derive(Debug, Clone, Default)]
pub struct BranchTable {
    by_pc: HashMap<usize, PcStats>,
}

impl BranchTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one `Resolved` event for the branch at `pc`.
    pub fn record_resolution(
        &mut self,
        pc: usize,
        mispredicted: bool,
        diverged: bool,
        conf_low: bool,
    ) {
        let s = self.by_pc.entry(pc).or_default();
        s.resolved += 1;
        if mispredicted {
            s.mispredicted += 1;
        }
        if diverged {
            s.diverged += 1;
        }
        match (conf_low, mispredicted) {
            (true, true) => s.low_incorrect += 1,
            (true, false) => s.low_correct += 1,
            (false, true) => s.high_incorrect += 1,
            (false, false) => s.high_correct += 1,
        }
    }

    /// Record a divergence forked at fetch for the branch at `pc`.
    pub fn record_divergence(&mut self, pc: usize) {
        self.by_pc.entry(pc).or_default().forked += 1;
    }

    /// Stats for one PC, if any branch there resolved.
    pub fn get(&self, pc: usize) -> Option<&PcStats> {
        self.by_pc.get(&pc)
    }

    /// Number of distinct branch sites seen.
    pub fn len(&self) -> usize {
        self.by_pc.len()
    }

    /// `true` when no branch has resolved yet.
    pub fn is_empty(&self) -> bool {
        self.by_pc.is_empty()
    }

    /// Sum of per-PC fetch-time divergence counts: always equal to
    /// `SimStats::divergences` for the same run.
    pub fn total_diverged(&self) -> u64 {
        self.by_pc.values().map(|s| s.forked).sum()
    }

    /// All sites sorted by PC (deterministic export order).
    pub fn sorted(&self) -> Vec<(usize, PcStats)> {
        let mut v: Vec<_> = self.by_pc.iter().map(|(pc, s)| (*pc, *s)).collect();
        v.sort_unstable_by_key(|(pc, _)| *pc);
        v
    }

    /// The `n` sites with the most divergences, most-divergent first.
    pub fn hottest_diverging(&self, n: usize) -> Vec<(usize, PcStats)> {
        let mut v = self.sorted();
        v.sort_by_key(|(_, s)| std::cmp::Reverse(s.forked));
        v.truncate(n);
        v
    }
}

/// One path slot generation: a CTX-table slot from (re)allocation until
/// its subtree is killed or the run ends.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct OpenPath {
    first_cycle: u64,
    last_cycle: u64,
    fetched: u64,
    killed: u64,
}

/// Path-lifetime and kill-depth attribution across PathId generations.
///
/// `PathId`s are reused slot indices, so a "path" here is one
/// *generation* of a slot: it opens at the first event naming the slot
/// and closes when [`PathTable::close`] is called (the telemetry observer
/// does so when a `Diverged` event re-allocates the slot, and for all
/// still-open slots at the end of the run).
#[derive(Debug, Clone, Default)]
pub struct PathTable {
    open: HashMap<u32, OpenPath>,
    /// Histogram of generation lifetimes in cycles.
    pub lifetime: Histogram,
    /// Histogram of instructions killed per generation ("kill depth"):
    /// how much speculative work each reaped path carried.
    pub kill_depth: Histogram,
    generations: u64,
}

impl PathTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Note that `path` was active at `cycle` (opens a generation if the
    /// slot has none).
    pub fn touch(&mut self, path: PathId, cycle: u64) {
        self.touch_slot(path.index() as u32, cycle);
    }

    /// [`Self::touch`] by raw slot index (observers that only retained
    /// the index, e.g. from an earlier event, use this form).
    pub fn touch_slot(&mut self, slot: u32, cycle: u64) {
        let e = self.open.entry(slot).or_insert(OpenPath {
            first_cycle: cycle,
            last_cycle: cycle,
            ..Default::default()
        });
        e.last_cycle = e.last_cycle.max(cycle);
    }

    /// Note an instruction fetched on `path`.
    pub fn record_fetch(&mut self, path: PathId, cycle: u64) {
        self.touch(path, cycle);
        if let Some(e) = self.open.get_mut(&(path.index() as u32)) {
            e.fetched += 1;
        }
    }

    /// Note an instruction killed that was fetched on slot `slot`.
    pub fn record_kill_slot(&mut self, slot: u32, cycle: u64) {
        self.touch_slot(slot, cycle);
        if let Some(e) = self.open.get_mut(&slot) {
            e.killed += 1;
        }
    }

    /// Note an instruction killed that was fetched on `path`.
    pub fn record_kill(&mut self, path: PathId, cycle: u64) {
        self.record_kill_slot(path.index() as u32, cycle);
    }

    /// Close the open generation on `path` (slot reallocated or run
    /// over), folding it into the histograms. Lifetime is last touch
    /// minus first touch.
    pub fn close(&mut self, path: PathId) {
        if let Some(e) = self.open.remove(&(path.index() as u32)) {
            self.lifetime.record(e.last_cycle - e.first_cycle);
            self.kill_depth.record(e.killed);
            self.generations += 1;
        }
    }

    /// Close every open generation (end of run).
    pub fn close_all(&mut self) {
        let slots: Vec<u32> = self.open.keys().copied().collect();
        for s in slots {
            if let Some(e) = self.open.remove(&s) {
                self.lifetime.record(e.last_cycle - e.first_cycle);
                self.kill_depth.record(e.killed);
                self.generations += 1;
            }
        }
    }

    /// Completed generations folded into the histograms.
    pub fn generations(&self) -> u64 {
        self.generations
    }

    /// Generations still open.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }
}

/// A downsampled sequence of [`CycleSample`]s: one row every
/// `sample_every` cycles.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    sample_every: u64,
    rows: Vec<CycleSample>,
}

impl TimeSeries {
    /// Keep one sample every `sample_every` cycles (0 is treated as 1).
    pub fn new(sample_every: u64) -> Self {
        TimeSeries {
            sample_every: sample_every.max(1),
            rows: Vec::new(),
        }
    }

    /// The configured interval.
    pub fn interval(&self) -> u64 {
        self.sample_every
    }

    /// Offer a per-cycle sample; it is kept iff it falls on the interval.
    pub fn offer(&mut self, s: &CycleSample) {
        if s.cycle.is_multiple_of(self.sample_every) {
            self.rows.push(*s);
        }
    }

    /// The retained rows, in cycle order.
    pub fn rows(&self) -> &[CycleSample] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_ctx::PathTable as CtxPathTable;

    fn pids(n: usize) -> Vec<PathId> {
        let mut t: CtxPathTable<()> = CtxPathTable::new(n);
        (0..n).map(|_| t.allocate(()).unwrap()).collect()
    }

    #[test]
    fn branch_table_truth_table_and_sums() {
        let mut t = BranchTable::new();
        t.record_divergence(100);
        t.record_divergence(100);
        t.record_resolution(100, true, true, true);
        t.record_resolution(100, false, true, true);
        t.record_resolution(100, false, false, false);
        t.record_resolution(200, true, false, false);
        let s = t.get(100).unwrap();
        assert_eq!(s.resolved, 3);
        assert_eq!(s.mispredicted, 1);
        assert_eq!(s.diverged, 2);
        assert_eq!(s.low_incorrect, 1);
        assert_eq!(s.low_correct, 1);
        assert_eq!(s.high_correct, 1);
        assert!((s.pvn() - 0.5).abs() < 1e-12);
        assert_eq!(s.forked, 2);
        assert_eq!(t.get(200).unwrap().high_incorrect, 1);
        assert_eq!(t.total_diverged(), 2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.hottest_diverging(1)[0].0, 100);
    }

    #[test]
    fn path_generation_lifecycle() {
        let p = pids(2);
        let mut t = PathTable::new();
        t.record_fetch(p[0], 10);
        t.record_fetch(p[0], 14);
        t.record_kill(p[0], 20);
        t.close(p[0]);
        assert_eq!(t.generations(), 1);
        assert_eq!(t.lifetime.count(), 1);
        assert_eq!(t.lifetime.max(), 10); // 20 - 10
        assert_eq!(t.kill_depth.max(), 1);

        // Slot reuse opens a fresh generation.
        t.record_fetch(p[0], 30);
        t.close_all();
        assert_eq!(t.generations(), 2);
        assert_eq!(t.open_count(), 0);
    }

    #[test]
    fn close_without_open_is_a_noop() {
        let p = pids(1);
        let mut t = PathTable::new();
        t.close(p[0]);
        assert_eq!(t.generations(), 0);
    }

    #[test]
    fn timeseries_downsamples() {
        let mut ts = TimeSeries::new(10);
        for c in 0..35 {
            ts.offer(&CycleSample {
                cycle: c,
                live_paths: 1,
                fetching_paths: 1,
                window_occupancy: 0,
                frontend_occupancy: 0,
                ..CycleSample::default()
            });
        }
        let cycles: Vec<u64> = ts.rows().iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![0, 10, 20, 30]);
        assert_eq!(ts.interval(), 10);
        assert_eq!(TimeSeries::new(0).interval(), 1);
    }
}
