//! Lock-step differential oracle against the architectural emulator.
//!
//! The pipeline's commit stream ([`CommitRecord`]) must equal, instruction
//! for instruction, the functional emulator's [`StepEvent`] stream —
//! wrong paths are architecturally invisible, so eager execution changes
//! *when* things commit but never *what* commits. [`DiffOracle`] holds a
//! private [`Emulator`] and advances it one architectural step per
//! committed instruction, comparing PC, destination register + value, and
//! memory effect, and failing fast on the first mismatch with a
//! cycle-stamped, CTX-annotated report.
//!
//! A reference-side error is classified as a **workload bug**
//! ([`CheckFailure::WorkloadBug`]): the functional emulator executes only
//! the correct path, so [`pp_func::EmuError`] means the *program* is
//! broken (runs off its text section, never halts), not that the pipeline
//! diverged.

use std::fmt;

use pp_func::{EmuError, Emulator, StepEvent};
use pp_isa::Program;

use crate::observer::CommitRecord;

/// Which architectural effect mismatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The pipeline committed a different PC than the reference executed.
    Pc,
    /// The reference wrote a register; the pipeline committed no write.
    DestMissing,
    /// The pipeline committed a register write; the reference wrote none.
    DestUnexpected,
    /// Both wrote a register, but different logical registers.
    DestReg,
    /// Same destination register, different value.
    DestValue,
    /// The reference stored to memory; the pipeline committed no store.
    StoreMissing,
    /// The pipeline committed a store; the reference performed none.
    StoreUnexpected,
    /// Both stored, at different addresses.
    StoreAddr,
    /// Same store address, different data.
    StoreValue,
    /// Same store address, different access width.
    StoreWidth,
}

impl fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DivergenceKind::Pc => "committed PC mismatch",
            DivergenceKind::DestMissing => "reference wrote a register, pipeline did not",
            DivergenceKind::DestUnexpected => "pipeline wrote a register, reference did not",
            DivergenceKind::DestReg => "destination register mismatch",
            DivergenceKind::DestValue => "destination value mismatch",
            DivergenceKind::StoreMissing => "reference stored to memory, pipeline did not",
            DivergenceKind::StoreUnexpected => "pipeline stored to memory, reference did not",
            DivergenceKind::StoreAddr => "store address mismatch",
            DivergenceKind::StoreValue => "store data mismatch",
            DivergenceKind::StoreWidth => "store width mismatch",
        };
        f.write_str(s)
    }
}

/// Compare one committed instruction against one architectural step.
///
/// # Errors
/// The first mismatching effect, in PC → destination → store order.
pub fn compare(record: &CommitRecord, reference: &StepEvent) -> Result<(), DivergenceKind> {
    if record.pc != reference.pc {
        return Err(DivergenceKind::Pc);
    }
    match (record.dest, reference.dest) {
        (None, Some(_)) => return Err(DivergenceKind::DestMissing),
        (Some(_), None) => return Err(DivergenceKind::DestUnexpected),
        (Some((r, v)), Some((rr, rv))) => {
            if r != rr {
                return Err(DivergenceKind::DestReg);
            }
            if v != rv {
                return Err(DivergenceKind::DestValue);
            }
        }
        (None, None) => {}
    }
    match (record.store, reference.store) {
        (None, Some(_)) => return Err(DivergenceKind::StoreMissing),
        (Some(_), None) => return Err(DivergenceKind::StoreUnexpected),
        (Some((a, v, w)), Some((ra, rv, rw))) => {
            if a != ra {
                return Err(DivergenceKind::StoreAddr);
            }
            if w != rw {
                return Err(DivergenceKind::StoreWidth);
            }
            if v != rv {
                return Err(DivergenceKind::StoreValue);
            }
        }
        (None, None) => {}
    }
    Ok(())
}

/// A commit-stream mismatch: the full pipeline-side and reference-side
/// effects, for the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Zero-based index of the mismatching instruction in commit order.
    pub index: u64,
    /// What mismatched.
    pub kind: DivergenceKind,
    /// The pipeline's committed effects.
    pub record: CommitRecord,
    /// The reference emulator's architectural step.
    pub reference: StepEvent,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let r = &self.record;
        writeln!(
            f,
            "commit #{} diverged from the architectural emulator at cycle {}: {}",
            self.index, r.cycle, self.kind
        )?;
        writeln!(
            f,
            "  pipeline : pc={} op={} ctx={} fid={} seq={} dest={:?} store={:?}",
            r.pc, r.op, r.ctx, r.fid.0, r.seq, r.dest, r.store
        )?;
        write!(
            f,
            "  reference: pc={} op={} dest={:?} store={:?}",
            self.reference.pc, self.reference.op, self.reference.dest, self.reference.store
        )
    }
}

/// Terminal verdict of a differential run that did not stay clean.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckFailure {
    /// The pipeline committed something the architecture did not execute —
    /// a simulator bug.
    Divergence(Box<Divergence>),
    /// The reference emulator itself failed at commit index `index` — the
    /// *workload* is broken (runs off its text section / never halts),
    /// not the pipeline.
    WorkloadBug {
        /// Commit index at which the reference failed (== instructions
        /// successfully checked so far).
        index: u64,
        /// The reference-side error.
        error: EmuError,
    },
    /// The pipeline stopped committing while the architectural execution
    /// still has instructions left — a pipeline starvation/forward-progress
    /// bug, with the next instruction the reference would execute.
    Starvation {
        /// Instructions checked before the pipeline went quiet.
        committed: u64,
        /// The architectural step the pipeline never committed.
        next_reference: StepEvent,
    },
}

impl fmt::Display for CheckFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckFailure::Divergence(d) => d.fmt(f),
            CheckFailure::WorkloadBug { index, error } => write!(
                f,
                "workload bug (not a pipeline divergence): reference emulator \
                 failed after {index} instructions: {error}"
            ),
            CheckFailure::Starvation {
                committed,
                next_reference,
            } => write!(
                f,
                "pipeline starvation: {committed} instructions committed but the \
                 architectural execution continues at pc={} op={}",
                next_reference.pc, next_reference.op
            ),
        }
    }
}

/// The lock-step differential oracle.
///
/// Feed it every [`CommitRecord`] in commit order via
/// [`check`](Self::check). In panicking mode ([`new`](Self::new), what
/// [`crate::SimConfig::with_commit_checking`] uses internally) the first
/// failure panics with the full report; in recording mode
/// ([`recording`](Self::recording)) the failure is stored and all later
/// commits are ignored, for harnesses that collect rather than abort.
#[derive(Debug)]
pub struct DiffOracle {
    emu: Emulator,
    committed: u64,
    failure: Option<CheckFailure>,
    panic_on_failure: bool,
}

impl DiffOracle {
    /// Oracle that panics with the formatted report on the first failure.
    pub fn new(program: &Program) -> Self {
        DiffOracle {
            emu: Emulator::new(program),
            committed: 0,
            failure: None,
            panic_on_failure: true,
        }
    }

    /// Oracle that records the first failure instead of panicking.
    pub fn recording(program: &Program) -> Self {
        DiffOracle {
            panic_on_failure: false,
            ..Self::new(program)
        }
    }

    /// Instructions checked clean so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// The recorded failure, if the stream went bad (recording mode).
    pub fn failure(&self) -> Option<&CheckFailure> {
        self.failure.as_ref()
    }

    fn fail(&mut self, failure: CheckFailure) {
        if self.panic_on_failure {
            panic!("co-simulation: {failure}");
        }
        self.failure = Some(failure);
    }

    /// Check one committed instruction against the next architectural step.
    /// Sticky: after a failure, further commits are ignored.
    ///
    /// # Panics
    /// In panicking mode, panics with the report on the first failure.
    pub fn check(&mut self, record: &CommitRecord) {
        if self.failure.is_some() {
            return;
        }
        let reference = match self.emu.step() {
            Ok(ev) => ev,
            Err(error) => {
                self.fail(CheckFailure::WorkloadBug {
                    index: self.committed,
                    error,
                });
                return;
            }
        };
        if let Err(kind) = compare(record, &reference) {
            self.fail(CheckFailure::Divergence(Box::new(Divergence {
                index: self.committed,
                kind,
                record: record.clone(),
                reference,
            })));
            return;
        }
        self.committed += 1;
    }

    /// Close out the run. `halted` is whether the pipeline committed its
    /// `halt`; if it did not (cycle limit, wedge), probe the reference one
    /// step further to classify: a reference error is a workload bug, a
    /// successful step means the pipeline starved while architectural
    /// execution could continue.
    ///
    /// # Panics
    /// In panicking mode, panics with the report on a failure.
    pub fn finish(&mut self, halted: bool) {
        if self.failure.is_some() || halted {
            return;
        }
        match self.emu.step() {
            Err(error) => self.fail(CheckFailure::WorkloadBug {
                index: self.committed,
                error,
            }),
            Ok(next_reference) => self.fail(CheckFailure::Starvation {
                committed: self.committed,
                next_reference,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::FetchId;
    use pp_ctx::CtxTag;
    use pp_isa::{reg, Asm, Op, Width};

    fn record(pc: usize, op: Op) -> CommitRecord {
        CommitRecord {
            cycle: 10,
            fid: FetchId(0),
            seq: 0,
            pc,
            op,
            ctx: CtxTag::root(),
            dest: None,
            store: None,
        }
    }

    #[test]
    fn clean_stream_checks_out() {
        let mut a = Asm::new();
        a.li(reg::T0, 7);
        a.halt();
        let p = a.assemble().unwrap();
        let mut oracle = DiffOracle::recording(&p);
        let mut r = record(0, p.fetch(0).unwrap());
        r.dest = Some((reg::T0, 7));
        oracle.check(&r);
        oracle.check(&record(1, Op::Halt));
        oracle.finish(true);
        assert_eq!(oracle.committed(), 2);
        assert!(oracle.failure().is_none());
    }

    #[test]
    fn value_mismatch_is_a_divergence() {
        let mut a = Asm::new();
        a.li(reg::T0, 7);
        a.halt();
        let p = a.assemble().unwrap();
        let mut oracle = DiffOracle::recording(&p);
        let mut r = record(0, p.fetch(0).unwrap());
        r.dest = Some((reg::T0, 8)); // wrong value
        oracle.check(&r);
        match oracle.failure() {
            Some(CheckFailure::Divergence(d)) => {
                assert_eq!(d.kind, DivergenceKind::DestValue);
                assert_eq!(d.index, 0);
                let msg = d.to_string();
                assert!(msg.contains("cycle 10"), "{msg}");
                assert!(msg.contains("ctx="), "{msg}");
            }
            other => panic!("expected divergence, got {other:?}"),
        }
        // Sticky: later commits don't advance.
        oracle.check(&record(1, Op::Halt));
        assert_eq!(oracle.committed(), 0);
    }

    #[test]
    fn store_data_mismatch_is_caught() {
        let mut a = Asm::new();
        a.li(reg::T0, 7);
        a.st(reg::T0, reg::ZERO, 0x2000);
        a.halt();
        let p = a.assemble().unwrap();
        let mut oracle = DiffOracle::recording(&p);
        let mut r = record(0, p.fetch(0).unwrap());
        r.dest = Some((reg::T0, 7));
        oracle.check(&r);
        let mut s = record(1, p.fetch(1).unwrap());
        s.store = Some((0x2000, 99, Width::Word)); // wrong data
        oracle.check(&s);
        match oracle.failure() {
            Some(CheckFailure::Divergence(d)) => {
                assert_eq!(d.kind, DivergenceKind::StoreValue);
            }
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "co-simulation")]
    fn panicking_mode_fails_fast() {
        let mut a = Asm::new();
        a.halt();
        let p = a.assemble().unwrap();
        let mut oracle = DiffOracle::new(&p);
        oracle.check(&record(5, Op::Halt)); // wrong pc
    }

    #[test]
    fn reference_error_is_a_workload_bug_not_a_divergence() {
        // Program with no halt: the reference runs off the text section.
        let mut a = Asm::new();
        a.nop();
        let p = a.assemble().unwrap();
        let mut oracle = DiffOracle::recording(&p);
        oracle.check(&record(0, Op::Nop));
        assert!(oracle.failure().is_none(), "the nop itself is fine");
        oracle.finish(false);
        match oracle.failure() {
            Some(CheckFailure::WorkloadBug { index: 1, error }) => {
                assert_eq!(*error, EmuError::PcOutOfRange { pc: 1 });
            }
            other => panic!("expected workload bug, got {other:?}"),
        }
    }

    #[test]
    fn quiet_pipeline_with_live_reference_is_starvation() {
        let mut a = Asm::new();
        a.li(reg::T0, 1);
        a.halt();
        let p = a.assemble().unwrap();
        let mut oracle = DiffOracle::recording(&p);
        oracle.finish(false); // pipeline committed nothing
        match oracle.failure() {
            Some(CheckFailure::Starvation {
                committed: 0,
                next_reference,
            }) => assert_eq!(next_reference.pc, 0),
            other => panic!("expected starvation, got {other:?}"),
        }
    }

    #[test]
    fn both_emu_error_variants_render_as_workload_bugs() {
        // Whatever the reference emulator reports — off-the-text PC or a
        // blown step budget — the failure must be labelled a workload
        // bug, never phrased as a pipeline divergence.
        for error in [
            EmuError::PcOutOfRange { pc: 7 },
            EmuError::StepLimitExceeded { limit: 9 },
        ] {
            let text = CheckFailure::WorkloadBug { index: 3, error }.to_string();
            assert!(text.contains("workload bug"), "{text}");
            assert!(text.contains("not a pipeline divergence"), "{text}");
            assert!(text.contains(&error.to_string()), "{text}");
            assert!(!text.contains("diverged from"), "{text}");
        }
    }
}
