//! Per-PC execution profiling on the functional emulator.
//!
//! Used to characterize workloads (hot loops, per-branch bias) — the
//! `sweep profile` subcommand in `pp-experiments` prints annotated
//! listings from this.

use pp_isa::Program;

/// Execution counts and branch outcome tallies per static instruction.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    counts: Vec<u64>,
    taken: Vec<u64>,
}

impl Profile {
    /// A profile sized for `program`.
    pub fn new(program: &Program) -> Self {
        Profile {
            counts: vec![0; program.len()],
            taken: vec![0; program.len()],
        }
    }

    /// Record one execution of the instruction at `pc`.
    pub fn record(&mut self, pc: usize) {
        if let Some(c) = self.counts.get_mut(pc) {
            *c += 1;
        }
    }

    /// Record a conditional branch outcome at `pc`.
    pub fn record_branch(&mut self, pc: usize, taken: bool) {
        if taken {
            if let Some(t) = self.taken.get_mut(pc) {
                *t += 1;
            }
        }
    }

    /// Execution count of the instruction at `pc`.
    pub fn count(&self, pc: usize) -> u64 {
        self.counts.get(pc).copied().unwrap_or(0)
    }

    /// Taken-fraction of the conditional branch at `pc` (0 if never
    /// executed).
    pub fn taken_rate(&self, pc: usize) -> f64 {
        let n = self.count(pc);
        if n == 0 {
            0.0
        } else {
            self.taken.get(pc).copied().unwrap_or(0) as f64 / n as f64
        }
    }

    /// The `n` hottest instructions as `(pc, count)`, hottest first.
    pub fn hottest(&self, n: usize) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(pc, c)| (pc, *c))
            .collect();
        v.sort_by_key(|(pc, c)| (std::cmp::Reverse(*c), *pc));
        v.truncate(n);
        v
    }

    /// Total dynamic instructions recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// An annotated listing: per-line execution count, taken% for
    /// branches, and the disassembly.
    pub fn annotate(&self, program: &Program) -> String {
        use std::fmt::Write as _;
        let total = self.total().max(1);
        let mut out = String::new();
        let mut li = 0;
        for (pc, op) in program.code.iter().enumerate() {
            while li < program.labels.len() && program.labels[li].0 == pc {
                let _ = writeln!(out, "{}:", program.labels[li].1);
                li += 1;
            }
            let n = self.count(pc);
            let pct = 100.0 * n as f64 / total as f64;
            let branch = if op.is_cond_branch() && n > 0 {
                format!("  [taken {:5.1}%]", 100.0 * self.taken_rate(pc))
            } else {
                String::new()
            };
            let _ = writeln!(out, "{n:>12} ({pct:4.1}%)  {pc:5}  {op}{branch}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Emulator;
    use pp_isa::{reg, Asm, Operand};

    fn looped() -> Program {
        let mut a = Asm::new();
        a.li(reg::T0, 0);
        let top = a.here_named("top");
        a.addi(reg::T0, reg::T0, 1);
        a.blt(reg::T0, Operand::imm(10), top);
        a.halt();
        a.assemble().unwrap()
    }

    #[test]
    fn profile_counts_and_branch_bias() {
        let p = looped();
        let mut emu = Emulator::new(&p);
        let (_, profile) = emu.run_profiled(10_000).unwrap();
        assert_eq!(profile.count(0), 1, "li runs once");
        assert_eq!(profile.count(1), 10, "loop body runs 10×");
        assert_eq!(profile.count(2), 10);
        // 9 of 10 loop branches taken.
        assert!((profile.taken_rate(2) - 0.9).abs() < 1e-12);
        assert_eq!(profile.total(), 22); // 1 + 10 + 10 + halt
    }

    #[test]
    fn hottest_orders_by_count() {
        let p = looped();
        let mut emu = Emulator::new(&p);
        let (_, profile) = emu.run_profiled(10_000).unwrap();
        let hot = profile.hottest(2);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].1, 10);
        assert!(hot[0].0 == 1 || hot[0].0 == 2);
    }

    #[test]
    fn annotate_contains_counts_and_labels() {
        let p = looped();
        let mut emu = Emulator::new(&p);
        let (_, profile) = emu.run_profiled(10_000).unwrap();
        let listing = profile.annotate(&p);
        assert!(listing.contains("top:"));
        assert!(listing.contains("[taken  90.0%]"));
        assert!(listing.contains("halt"));
    }
}
