//! The architectural emulator.

use std::fmt;

use pp_isa::{alu_eval, cond_eval, fp_eval, reg, Op, Operand, Program, Reg, Width};
use pp_isa::{NUM_LOGICAL_REGS, STACK_TOP};

use crate::memory::Memory;
use crate::trace::BranchTrace;

/// Errors during functional execution.
///
/// The functional emulator executes only the correct path, so any of these
/// indicate a broken program (or an insufficient step budget), never an
/// expected speculative condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmuError {
    /// The PC left the text section without reaching `halt`.
    PcOutOfRange { pc: usize },
    /// The step budget given to [`Emulator::run`] was exhausted.
    StepLimitExceeded { limit: u64 },
}

impl fmt::Display for EmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmuError::PcOutOfRange { pc } => write!(f, "pc {pc} outside program text"),
            EmuError::StepLimitExceeded { limit } => {
                write!(f, "program did not halt within {limit} steps")
            }
        }
    }
}

impl std::error::Error for EmuError {}

/// What one architectural step did — used for lock-step co-simulation
/// against the pipeline's commit stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepEvent {
    /// PC of the executed instruction.
    pub pc: usize,
    /// The executed instruction.
    pub op: Op,
    /// Register write performed, if any.
    pub dest: Option<(Reg, i64)>,
    /// Store performed, if any: (address, value, width).
    pub store: Option<(u64, i64, Width)>,
    /// `true` once `halt` has executed.
    pub halted: bool,
}

/// Aggregate statistics of a completed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Dynamic instructions executed, including the final `halt`.
    pub instructions: u64,
    /// Dynamic conditional branches.
    pub cond_branches: u64,
    /// Dynamic taken conditional branches.
    pub taken_branches: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic calls (`call` instructions).
    pub calls: u64,
}

/// Architectural state: registers, PC, memory; executes one [`Program`].
#[derive(Debug, Clone)]
pub struct Emulator {
    program: Program,
    regs: [i64; NUM_LOGICAL_REGS],
    pc: usize,
    halted: bool,
    memory: Memory,
}

impl Emulator {
    /// Fresh architectural state for `program`: registers zero except
    /// `sp = STACK_TOP`, memory holding the program's data segments,
    /// `pc = program.entry`.
    pub fn new(program: &Program) -> Self {
        let mut regs = [0i64; NUM_LOGICAL_REGS];
        regs[reg::SP.index()] = STACK_TOP as i64;
        Emulator {
            regs,
            pc: program.entry,
            halted: false,
            memory: Memory::with_segments(&program.data),
            program: program.clone(),
        }
    }

    /// Current PC.
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// `true` once `halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Read an architectural register (r0 reads as zero).
    pub fn reg(&self, r: Reg) -> i64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Write an architectural register (writes to r0 are discarded).
    pub fn set_reg(&mut self, r: Reg, v: i64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// The architectural memory.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    fn operand(&self, o: Operand) -> i64 {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v,
        }
    }

    /// Execute one instruction.
    ///
    /// # Errors
    /// [`EmuError::PcOutOfRange`] if the PC is outside the text section.
    /// Calling `step` after `halt` returns the halt event again without
    /// advancing.
    pub fn step(&mut self) -> Result<StepEvent, EmuError> {
        if self.halted {
            return Ok(StepEvent {
                pc: self.pc,
                op: Op::Halt,
                dest: None,
                store: None,
                halted: true,
            });
        }
        let pc = self.pc;
        let op = self
            .program
            .fetch(pc)
            .ok_or(EmuError::PcOutOfRange { pc })?;
        let mut dest = None;
        let mut store = None;
        let mut next_pc = pc + 1;
        match op {
            Op::Alu {
                op: a,
                rd,
                rs1,
                src2,
            } => {
                let v = alu_eval(a, self.reg(rs1), self.operand(src2));
                self.set_reg(rd, v);
                if !rd.is_zero() {
                    dest = Some((rd, v));
                }
            }
            Op::Li { rd, imm } => {
                self.set_reg(rd, imm);
                if !rd.is_zero() {
                    dest = Some((rd, imm));
                }
            }
            Op::Load {
                rd,
                base,
                offset,
                width,
            } => {
                let addr = (self.reg(base) as u64).wrapping_add(offset as u64);
                let v = self.memory.read(addr, width);
                self.set_reg(rd, v);
                if !rd.is_zero() {
                    dest = Some((rd, v));
                }
            }
            Op::Store {
                src,
                base,
                offset,
                width,
            } => {
                let addr = (self.reg(base) as u64).wrapping_add(offset as u64);
                let v = self.reg(src);
                self.memory.write(addr, v, width);
                store = Some((addr, v, width));
            }
            Op::Branch {
                cond,
                rs1,
                src2,
                target,
            } => {
                if cond_eval(cond, self.reg(rs1), self.operand(src2)) {
                    next_pc = target;
                }
            }
            Op::Jump { target } => next_pc = target,
            Op::Call { target } => {
                let ra = (pc + 1) as i64;
                self.set_reg(reg::RA, ra);
                dest = Some((reg::RA, ra));
                next_pc = target;
            }
            Op::Ret => next_pc = self.reg(reg::RA) as usize,
            Op::Jr { rs } => next_pc = self.reg(rs) as usize,
            Op::Fp {
                op: f,
                fd,
                fs1,
                fs2,
            } => {
                let v = fp_eval(f, self.reg(fs1), self.reg(fs2));
                self.set_reg(fd, v);
                if !fd.is_zero() {
                    dest = Some((fd, v));
                }
            }
            Op::Halt => {
                self.halted = true;
            }
            Op::Nop => {}
        }
        if !self.halted {
            self.pc = next_pc;
        }
        Ok(StepEvent {
            pc,
            op,
            dest,
            store,
            halted: self.halted,
        })
    }

    /// Run until `halt`, collecting aggregate statistics.
    ///
    /// # Errors
    /// [`EmuError::StepLimitExceeded`] if the program does not halt within
    /// `max_steps` instructions, or [`EmuError::PcOutOfRange`] if it runs
    /// off the text section.
    pub fn run(&mut self, max_steps: u64) -> Result<RunSummary, EmuError> {
        self.run_inner(max_steps, None)
    }

    /// Run until `halt`, additionally recording the correct-path
    /// conditional-branch outcome trace for oracle predictors.
    ///
    /// # Errors
    /// Same as [`Emulator::run`].
    pub fn run_with_trace(
        &mut self,
        max_steps: u64,
    ) -> Result<(RunSummary, BranchTrace), EmuError> {
        let mut trace = BranchTrace::new();
        let summary = self.run_inner(max_steps, Some(&mut trace))?;
        Ok((summary, trace))
    }

    /// Run until `halt`, collecting a per-PC execution [`crate::Profile`].
    ///
    /// # Errors
    /// Same as [`Emulator::run`].
    pub fn run_profiled(
        &mut self,
        max_steps: u64,
    ) -> Result<(RunSummary, crate::profile::Profile), EmuError> {
        let mut profile = crate::profile::Profile::new(&self.program);
        let mut s = RunSummary::default();
        while !self.halted {
            if s.instructions >= max_steps {
                return Err(EmuError::StepLimitExceeded { limit: max_steps });
            }
            let before_pc = self.pc;
            let ev = self.step()?;
            profile.record(ev.pc);
            s.instructions += 1;
            match ev.op {
                Op::Branch { .. } => {
                    s.cond_branches += 1;
                    let taken = self.pc != before_pc + 1;
                    if taken {
                        s.taken_branches += 1;
                    }
                    profile.record_branch(ev.pc, taken);
                }
                Op::Load { .. } => s.loads += 1,
                Op::Store { .. } => s.stores += 1,
                Op::Call { .. } => s.calls += 1,
                _ => {}
            }
        }
        Ok((s, profile))
    }

    fn run_inner(
        &mut self,
        max_steps: u64,
        mut trace: Option<&mut BranchTrace>,
    ) -> Result<RunSummary, EmuError> {
        let mut s = RunSummary::default();
        while !self.halted {
            if s.instructions >= max_steps {
                return Err(EmuError::StepLimitExceeded { limit: max_steps });
            }
            let before_pc = self.pc;
            let ev = self.step()?;
            s.instructions += 1;
            match ev.op {
                Op::Branch { .. } => {
                    s.cond_branches += 1;
                    // The branch was taken iff the PC did not fall through.
                    let taken = self.pc != before_pc + 1;
                    if taken {
                        s.taken_branches += 1;
                    }
                    if let Some(t) = trace.as_deref_mut() {
                        t.push(ev.pc, taken);
                    }
                }
                Op::Load { .. } => s.loads += 1,
                Op::Store { .. } => s.stores += 1,
                Op::Call { .. } => s.calls += 1,
                _ => {}
            }
        }
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_isa::{Asm, Cond, FpOp, Operand};

    fn assemble(f: impl FnOnce(&mut Asm)) -> Program {
        let mut a = Asm::new();
        f(&mut a);
        a.assemble().expect("test program assembles")
    }

    #[test]
    fn arithmetic_and_halt() {
        let p = assemble(|a| {
            a.li(reg::T0, 6);
            a.li(reg::T1, 7);
            a.mul(reg::A0, reg::T0, reg::T1);
            a.halt();
        });
        let mut e = Emulator::new(&p);
        let s = e.run(100).unwrap();
        assert_eq!(e.reg(reg::A0), 42);
        assert_eq!(s.instructions, 4);
        assert!(e.halted());
    }

    #[test]
    fn loop_counts_branches() {
        let p = assemble(|a| {
            a.li(reg::T0, 0);
            let top = a.here();
            a.addi(reg::T0, reg::T0, 1);
            a.blt(reg::T0, Operand::imm(10), top);
            a.halt();
        });
        let mut e = Emulator::new(&p);
        let s = e.run(1000).unwrap();
        assert_eq!(e.reg(reg::T0), 10);
        assert_eq!(s.cond_branches, 10);
        assert_eq!(s.taken_branches, 9);
    }

    #[test]
    fn trace_matches_loop() {
        let p = assemble(|a| {
            a.li(reg::T0, 0);
            let top = a.here();
            a.addi(reg::T0, reg::T0, 1);
            a.blt(reg::T0, Operand::imm(3), top);
            a.halt();
        });
        let mut e = Emulator::new(&p);
        let (_, t) = e.run_with_trace(1000).unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.get(0).unwrap().taken);
        assert!(t.get(1).unwrap().taken);
        assert!(!t.get(2).unwrap().taken);
        assert_eq!(t.get(0).unwrap().pc, 2);
    }

    #[test]
    fn memory_load_store() {
        let p = assemble(|a| {
            let base = a.alloc_words(&[5, 11]);
            a.li(reg::GP, base as i64);
            a.ld(reg::T0, reg::GP, 0);
            a.ld(reg::T1, reg::GP, 8);
            a.add(reg::T2, reg::T0, reg::T1);
            a.st(reg::T2, reg::GP, 16);
            a.halt();
        });
        let mut e = Emulator::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.memory().read_u64(pp_isa::DATA_BASE + 16), 16);
    }

    #[test]
    fn call_and_ret() {
        let p = assemble(|a| {
            let f = a.new_label();
            a.li(reg::A0, 5);
            a.call(f);
            a.halt();
            a.bind(f).unwrap();
            a.addi(reg::A0, reg::A0, 100);
            a.ret();
        });
        let mut e = Emulator::new(&p);
        let s = e.run(100).unwrap();
        assert_eq!(e.reg(reg::A0), 105);
        assert_eq!(s.calls, 1);
    }

    #[test]
    fn nested_calls_with_stack() {
        let p = assemble(|a| {
            let f = a.new_label();
            let g = a.new_label();
            a.li(reg::A0, 1);
            a.call(f);
            a.halt();
            // f: saves ra, calls g, restores ra
            a.bind(f).unwrap();
            a.addi(reg::SP, reg::SP, -8);
            a.st(reg::RA, reg::SP, 0);
            a.addi(reg::A0, reg::A0, 10);
            a.call(g);
            a.ld(reg::RA, reg::SP, 0);
            a.addi(reg::SP, reg::SP, 8);
            a.ret();
            // g: leaf
            a.bind(g).unwrap();
            a.addi(reg::A0, reg::A0, 100);
            a.ret();
        });
        let mut e = Emulator::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.reg(reg::A0), 111);
        assert_eq!(e.reg(reg::SP), STACK_TOP as i64);
    }

    #[test]
    fn fp_ops_execute() {
        let p = assemble(|a| {
            a.li(reg::T0, 3);
            a.fp(FpOp::Itof, reg::F0, reg::T0, reg::ZERO);
            a.fp(FpOp::Add, reg::F1, reg::F0, reg::F0);
            a.fp(FpOp::Ftoi, reg::T1, reg::F1, reg::ZERO);
            a.halt();
        });
        let mut e = Emulator::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.reg(reg::T1), 6);
    }

    #[test]
    fn zero_register_is_immutable() {
        let p = assemble(|a| {
            a.li(reg::ZERO, 99);
            a.add(reg::T0, reg::ZERO, Operand::imm(1));
            a.halt();
        });
        let mut e = Emulator::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.reg(reg::ZERO), 0);
        assert_eq!(e.reg(reg::T0), 1);
    }

    #[test]
    fn step_limit_error() {
        let p = assemble(|a| {
            let top = a.here();
            a.jmp(top);
        });
        let mut e = Emulator::new(&p);
        assert_eq!(e.run(10), Err(EmuError::StepLimitExceeded { limit: 10 }));
    }

    #[test]
    fn pc_out_of_range_error() {
        let p = assemble(|a| {
            a.nop();
        });
        let mut e = Emulator::new(&p);
        e.step().unwrap();
        assert_eq!(e.step(), Err(EmuError::PcOutOfRange { pc: 1 }));
    }

    #[test]
    fn pc_out_of_range_error_through_run() {
        // A program that runs off the end of its text (no halt) surfaces
        // PcOutOfRange from `run`, not a bogus summary — the same
        // classification the differential oracle relies on to call this
        // a workload bug rather than a pipeline divergence.
        let p = assemble(|a| {
            a.li(reg::T0, 1);
            a.addi(reg::T0, reg::T0, 2);
        });
        let mut e = Emulator::new(&p);
        assert_eq!(e.run(100), Err(EmuError::PcOutOfRange { pc: 2 }));
        // Architectural state up to the fault is intact.
        assert_eq!(e.reg(reg::T0), 3);
    }

    #[test]
    fn step_limit_error_leaves_machine_resumable() {
        // StepLimitExceeded through `run` is a budget decision, not a
        // machine fault: raising the budget resumes and finishes.
        let p = assemble(|a| {
            a.li(reg::T0, 0);
            let top = a.here();
            a.addi(reg::T0, reg::T0, 1);
            a.br(Cond::Lt, reg::T0, Operand::imm(50), top);
            a.halt();
        });
        let mut e = Emulator::new(&p);
        assert_eq!(e.run(10), Err(EmuError::StepLimitExceeded { limit: 10 }));
        assert!(!e.halted());
        let summary = e.run(10_000).expect("resumes to completion");
        assert!(summary.instructions > 0);
        assert!(e.halted());
        assert_eq!(e.reg(reg::T0), 50);
    }

    #[test]
    fn step_after_halt_is_idempotent() {
        let p = assemble(pp_isa::Asm::halt);
        let mut e = Emulator::new(&p);
        let ev1 = e.step().unwrap();
        assert!(ev1.halted);
        let ev2 = e.step().unwrap();
        assert!(ev2.halted);
        assert_eq!(e.pc(), 0);
    }

    #[test]
    fn step_events_report_writes_and_stores() {
        let p = assemble(|a| {
            a.li(reg::T0, 7);
            a.st(reg::T0, reg::ZERO, 0x2000);
            a.halt();
        });
        let mut e = Emulator::new(&p);
        let ev = e.step().unwrap();
        assert_eq!(ev.dest, Some((reg::T0, 7)));
        let ev = e.step().unwrap();
        assert_eq!(ev.store, Some((0x2000, 7, Width::Word)));
    }

    #[test]
    fn byte_ops() {
        let p = assemble(|a| {
            let base = a.alloc_bytes(&[0xab, 0xcd]);
            a.li(reg::GP, base as i64);
            a.ldb(reg::T0, reg::GP, 1);
            a.stb(reg::T0, reg::GP, 4);
            a.ldb(reg::T1, reg::GP, 4);
            a.halt();
        });
        let mut e = Emulator::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.reg(reg::T0), 0xcd);
        assert_eq!(e.reg(reg::T1), 0xcd);
    }

    #[test]
    fn error_display() {
        assert!(EmuError::PcOutOfRange { pc: 9 }.to_string().contains("9"));
        assert!(EmuError::StepLimitExceeded { limit: 5 }
            .to_string()
            .contains("5"));
    }
}
