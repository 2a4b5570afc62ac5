//! # pp-check — randomized differential testing of the PolyPath simulator
//!
//! The pipeline's golden workloads exercise eight hand-written programs;
//! this crate closes the gap between "those 24 runs agree with the
//! architectural emulator" and "the machine is correct" by generating
//! *random* ISA programs and running each one under the four headline
//! configurations (monopath, SEE/JRS, dual-path/JRS, and SEE with
//! merge-point prediction plus variable-rate fetch) with both dynamic
//! checkers armed:
//!
//! * the **lock-step differential oracle** ([`pp_core::DiffOracle`],
//!   enabled via `SimConfig::with_commit_checking`), which compares every
//!   committed instruction against the functional emulator, and
//! * the **per-cycle sanitizer** (`SimConfig::with_sanitizer`), which
//!   validates the machine's internal invariants — CTX tag hierarchy,
//!   wakeup/completion bookkeeping, store-buffer filtering, register
//!   conservation, SoA mask/array coherence — after every cycle.
//!
//! ## Program generation
//!
//! Programs are generated as a flat list of [`GenOp`] "plan" ops and
//! assembled by [`build`]. The plan language is closed under element
//! deletion — *any* subsequence assembles to a valid, halting program —
//! which is exactly the property [`pp_testutil::shrink`] needs to
//! minimize a failing case by deleting plan ops. Halting is guaranteed
//! by construction:
//!
//! * loops are bounded by dedicated counter registers (`s1..s3`, nesting
//!   depth ≤ 3) counting down to a conditional back-edge,
//! * conditional branches otherwise only skip *forward*,
//! * calls target one of three fixed leaf functions that `ret`
//!   immediately, and
//! * memory traffic stays inside a zeroed 64-word arena addressed off
//!   `s0` (the plan encodes slot numbers, not raw addresses).
//!
//! Everything is seeded and deterministic: `generate(seed)` always
//! yields the same plan, and the machine itself is deterministic, so a
//! failing seed reproduces exactly.
//!
//! ## Driving it
//!
//! [`fuzz`] runs `count` seeds and stops at the first failure, returning
//! the ddmin-minimized plan plus the original cycle-stamped panic report.
//! `pp-experiments --bin fuzz_check` wraps this in a CLI; the tier-2
//! differential matrix test (`crates/experiments/tests/differential.rs`)
//! applies the same two checkers to the golden 8×3 workload matrix.

use std::fmt::Write as _;

use pp_core::{ConfidenceKind, ExecMode, PredictorKind, SimConfig, Simulator};
use pp_func::Emulator;
use pp_isa::{reg, AluOp, Asm, Cond, FpOp, Label, Operand, Program, Reg};
use pp_predictor::{AdaptiveConfig, H2pConfig, JrsConfig};
use pp_testutil::Rng;

/// Integer scratch registers the plan language reads and writes.
const DATA_REGS: [Reg; 8] = [
    reg::T0,
    reg::T1,
    reg::T2,
    reg::T3,
    reg::T4,
    reg::T5,
    reg::T6,
    reg::T7,
];

/// FP scratch registers (bit-pattern arithmetic; garbage is fine).
const FP_REGS: [Reg; 4] = [reg::F0, reg::F1, reg::F2, reg::F3];

/// Words in the zeroed data arena all loads/stores stay inside.
const ARENA_WORDS: usize = 64;

/// Step budget for the architectural pre-check that a generated program
/// halts. Plans are ≤ 64 ops with loop trip counts ≤ 6 and nesting ≤ 3,
/// so real dynamic lengths are a few thousand steps; a miss here means
/// the *generator* broke its own halting guarantee.
const PRECHECK_STEPS: u64 = 2_000_000;

/// ALU operations the generator draws from (all of them).
const ALU_OPS: [AluOp; 12] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Slt,
];

/// FP operations the generator draws from.
const FP_OPS: [FpOp; 6] = [
    FpOp::Add,
    FpOp::Sub,
    FpOp::Mul,
    FpOp::Div,
    FpOp::Itof,
    FpOp::Ftoi,
];

/// One element of a generated program plan.
///
/// Register fields are indices reduced modulo the relevant pool at build
/// time, so any `u8` is valid; structured ops (`SkipIf`, `Loop`) scope
/// over the *following* `len` plan ops, clamped to what remains. Both
/// properties keep the plan language closed under arbitrary element
/// deletion, which is what lets [`pp_testutil::shrink`] minimize plans
/// directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenOp {
    /// `rd = rs1 <op> (rs2 | imm)` over the data-register pool.
    Alu {
        op: AluOp,
        rd: u8,
        rs1: u8,
        rs2: Option<u8>,
        imm: i16,
    },
    /// Load an immediate into a data register.
    Li { rd: u8, imm: i16 },
    /// Load from the arena (`byte` selects `ldb` over `ld`).
    Load { rd: u8, slot: u8, byte: bool },
    /// Store to the arena (`byte` selects `stb` over `st`).
    Store { rs: u8, slot: u8, byte: bool },
    /// Conditionally skip the next `len` plan ops (forward branch).
    SkipIf {
        cond: Cond,
        rs1: u8,
        imm: i8,
        len: u8,
    },
    /// Repeat the next `len` plan ops `1 + count % 6` times via a
    /// dedicated down-counting register (ignored beyond nesting depth 3,
    /// where the body simply runs once).
    Loop { count: u8, len: u8 },
    /// Route a data register through one of the three leaf functions
    /// (`a0` in, `a0` out) — exercises call/ret and the RAS.
    Call { which: u8, arg: u8 },
    /// FP bit-pattern arithmetic over the FP pool.
    Fp { op: FpOp, fd: u8, fs1: u8, fs2: u8 },
}

fn data_reg(i: u8) -> Reg {
    DATA_REGS[i as usize % DATA_REGS.len()]
}

fn fp_reg(i: u8) -> Reg {
    FP_REGS[i as usize % FP_REGS.len()]
}

/// Generate the plan for `seed`: 4–64 ops, deterministic per seed.
pub fn generate(seed: u64) -> Vec<GenOp> {
    let mut rng = Rng::new(seed);
    let len = rng.in_range(4..64);
    (0..len).map(|_| random_op(&mut rng)).collect()
}

fn random_op(r: &mut Rng) -> GenOp {
    match r.below(100) {
        0..=29 => GenOp::Alu {
            op: *r.pick(&ALU_OPS),
            rd: r.any_u8(),
            rs1: r.any_u8(),
            rs2: if r.flip() { Some(r.any_u8()) } else { None },
            imm: r.any_i16(),
        },
        30..=37 => GenOp::Li {
            rd: r.any_u8(),
            imm: r.any_i16(),
        },
        38..=49 => GenOp::Load {
            rd: r.any_u8(),
            slot: r.any_u8(),
            byte: r.chance(1, 4),
        },
        50..=61 => GenOp::Store {
            rs: r.any_u8(),
            slot: r.any_u8(),
            byte: r.chance(1, 4),
        },
        62..=75 => GenOp::SkipIf {
            cond: *r.pick(&Cond::ALL),
            rs1: r.any_u8(),
            imm: r.any_i8(),
            len: 1 + r.below(6) as u8,
        },
        76..=87 => GenOp::Loop {
            count: r.any_u8(),
            len: 1 + r.below(8) as u8,
        },
        88..=93 => GenOp::Call {
            which: r.any_u8(),
            arg: r.any_u8(),
        },
        _ => GenOp::Fp {
            op: *r.pick(&FP_OPS),
            fd: r.any_u8(),
            fs1: r.any_u8(),
            fs2: r.any_u8(),
        },
    }
}

/// Assemble a plan into a runnable [`Program`].
///
/// # Panics
/// Panics only on generator bugs (label misuse); any plan — including
/// arbitrary subsequences produced by shrinking — assembles.
pub fn build(ops: &[GenOp]) -> Program {
    let mut a = Asm::new();

    // Three fixed leaf functions, before the entry point.
    let f0 = a.here_named("leaf_addi");
    a.addi(reg::A0, reg::A0, 17);
    a.ret();
    let f1 = a.here_named("leaf_mulx");
    a.mul(reg::A0, reg::A0, Operand::imm(3));
    a.xor(reg::A0, reg::A0, Operand::imm(0x55));
    a.ret();
    let f2 = a.here_named("leaf_mem");
    a.ld(reg::T9, reg::S0, 0);
    a.add(reg::A0, reg::A0, reg::T9);
    a.st(reg::A0, reg::S0, 8);
    a.ret();
    let funcs = [f0, f1, f2];

    let base = a.alloc_zeroed(ARENA_WORDS);
    a.set_entry_here();
    a.li(reg::S0, base as i64);
    // Distinct nonzero seeds so early branches and address math see
    // varied values before the plan's own writes land.
    for (i, r) in DATA_REGS.iter().enumerate() {
        a.li(*r, (i as i64 + 2) * 0x3d8f - 7 * i as i64 * i as i64);
    }
    let mut counters = vec![reg::S3, reg::S2, reg::S1];
    emit_seq(&mut a, ops, &funcs, &mut counters);
    a.halt();
    a.assemble().expect("generated plans always assemble")
}

fn emit_seq(a: &mut Asm, ops: &[GenOp], funcs: &[Label; 3], counters: &mut Vec<Reg>) {
    let mut i = 0;
    while i < ops.len() {
        let op = ops[i];
        i += 1;
        match op {
            GenOp::Alu {
                op,
                rd,
                rs1,
                rs2,
                imm,
            } => {
                let src2 = match rs2 {
                    Some(r) => Operand::from(data_reg(r)),
                    None => Operand::imm(imm as i64),
                };
                a.alu(op, data_reg(rd), data_reg(rs1), src2);
            }
            GenOp::Li { rd, imm } => a.li(data_reg(rd), imm as i64),
            GenOp::Load { rd, slot, byte } => {
                if byte {
                    let off = slot as i64 % (ARENA_WORDS as i64 * 8);
                    a.ldb(data_reg(rd), reg::S0, off);
                } else {
                    let off = (slot as usize % ARENA_WORDS) as i64 * 8;
                    a.ld(data_reg(rd), reg::S0, off);
                }
            }
            GenOp::Store { rs, slot, byte } => {
                if byte {
                    let off = slot as i64 % (ARENA_WORDS as i64 * 8);
                    a.stb(data_reg(rs), reg::S0, off);
                } else {
                    let off = (slot as usize % ARENA_WORDS) as i64 * 8;
                    a.st(data_reg(rs), reg::S0, off);
                }
            }
            GenOp::SkipIf {
                cond,
                rs1,
                imm,
                len,
            } => {
                let end = (i + len as usize).min(ops.len());
                let over = a.new_label();
                a.br(cond, data_reg(rs1), Operand::imm(imm as i64), over);
                emit_seq(a, &ops[i..end], funcs, counters);
                a.bind(over).expect("skip label bound exactly once");
                i = end;
            }
            GenOp::Loop { count, len } => {
                let end = (i + len as usize).min(ops.len());
                if let Some(ctr) = counters.pop() {
                    a.li(ctr, 1 + (count % 6) as i64);
                    let top = a.here();
                    emit_seq(a, &ops[i..end], funcs, counters);
                    a.addi(ctr, ctr, -1);
                    a.br(Cond::Gt, ctr, Operand::imm(0), top);
                    counters.push(ctr);
                } else {
                    // Nesting exhausted the counter pool: run the body once.
                    emit_seq(a, &ops[i..end], funcs, counters);
                }
                i = end;
            }
            GenOp::Call { which, arg } => {
                a.mov(reg::A0, data_reg(arg));
                a.call(funcs[which as usize % funcs.len()]);
                a.mov(data_reg(arg), reg::A0);
            }
            GenOp::Fp { op, fd, fs1, fs2 } => {
                a.fp(op, fp_reg(fd), fp_reg(fs1), fp_reg(fs2));
            }
        }
    }
}

/// The seven configurations every fuzz case runs under. Small predictor
/// and estimator tables (8 index bits) mispredict far more often than
/// the paper baseline, stressing kill/recovery paths on short programs;
/// `see_adaptive` and `see_h2p` are SEE under the adaptive-JRS and H2P
/// estimators instead of plain JRS; `see_merge` additionally arms merge-point prediction (paths park at
/// predicted reconvergence points and resume on resolution) and the
/// depth-weighted variable fetch rate; `see_ipdom` is the same machine
/// under the exact static-ipdom reconvergence oracle (DESIGN.md §3j),
/// so every generated CFG also exercises the post-dominator analysis.
pub const FUZZ_CONFIGS: [&str; 7] = [
    "monopath",
    "see_jrs",
    "see_adaptive",
    "see_h2p",
    "dual_jrs",
    "see_merge",
    "see_ipdom",
];

/// Build the named fuzz configuration with both checkers armed.
///
/// # Panics
/// Panics on a name outside [`FUZZ_CONFIGS`].
pub fn fuzz_config(name: &str) -> SimConfig {
    let bits = 8;
    let small_jrs = JrsConfig::paper_baseline().with_index_bits(bits);
    let jrs = ConfidenceKind::Jrs(small_jrs);
    let gshare = PredictorKind::Gshare { history_bits: bits };
    let see = |confidence| {
        SimConfig::baseline()
            .with_predictor(gshare)
            .with_confidence(confidence)
    };
    let base = match name {
        "monopath" => SimConfig::monopath_baseline().with_predictor(gshare),
        "see_jrs" => see(jrs),
        "see_adaptive" => see(ConfidenceKind::AdaptiveJrs(AdaptiveConfig {
            inner: small_jrs,
            ..AdaptiveConfig::paper_baseline()
        })),
        "see_h2p" => see(ConfidenceKind::H2p(H2pConfig {
            table_bits: bits,
            ..H2pConfig::bullseye_default()
        })),
        "dual_jrs" => see(jrs).with_mode(ExecMode::DualPath),
        "see_merge" => see(jrs)
            .with_merge(pp_core::MergeConfig::paper_default())
            .with_fetch_policy(pp_core::FetchPolicy::VariableRate),
        "see_ipdom" => see(jrs)
            .with_merge(pp_core::MergeConfig::paper_default().with_static_ipdom())
            .with_fetch_policy(pp_core::FetchPolicy::VariableRate),
        other => panic!("unknown fuzz configuration {other:?}"),
    };
    base.with_commit_checking().with_sanitizer()
}

/// A failed check: which configuration tripped, and the checker's own
/// cycle-stamped report (the oracle's divergence report or the
/// sanitizer's violation list).
#[derive(Debug, Clone)]
pub struct CheckReport {
    pub config: &'static str,
    pub report: String,
}

impl std::fmt::Display for CheckReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.config, self.report)
    }
}

/// Run `program` under every fuzz configuration with the oracle and
/// sanitizer armed; `Err` carries the first failure's report.
pub fn check_program(program: &Program) -> Result<(), CheckReport> {
    // Architectural pre-check: the plan language guarantees halting, so
    // an emulator that doesn't halt here is a generator bug, reported
    // distinctly from pipeline failures.
    if let Err(e) = Emulator::new(program).run(PRECHECK_STEPS) {
        return Err(CheckReport {
            config: "generator",
            report: format!("architectural pre-check failed: {e}"),
        });
    }
    // Static vetting: the plan language promises reducible control flow
    // (forward-only skips, counter-bounded loops, immediately-returning
    // leaf calls), which the reconvergence oracle's classification — and
    // so the `see_ipdom` machine below — relies on. An irreducible
    // finding here is a generator bug.
    let vet = pp_analyze::Reconvergence::analyze(program);
    if !vet.is_vetted() {
        return Err(CheckReport {
            config: "generator",
            report: format!("static vetting failed: {}", vet.vet_findings().join("; ")),
        });
    }
    for name in FUZZ_CONFIGS {
        // The recorder is byte-invisible to the stats (pinned by the
        // golden invisibility tests), so the checked run is still the
        // same machine — but a failure report now ends with the last
        // N cycles of history instead of just the panic line.
        pp_core::run_with_flight_dump(
            || Simulator::new(program, fuzz_config(name)),
            |sim| {
                let stats = sim.run();
                sim.finish_commit_check();
                if stats.hit_cycle_limit {
                    return Err(format!(
                        "pipeline hit the cycle limit on a halting program\n{}",
                        sim.flight_dump()
                    ));
                }
                Ok(())
            },
        )
        .and_then(std::convert::identity)
        .map_err(|report| CheckReport {
            config: name,
            report,
        })?;
    }
    Ok(())
}

/// Build and check a plan (the shrinking predicate's core).
pub fn check_ops(ops: &[GenOp]) -> Result<(), CheckReport> {
    check_program(&build(ops))
}

/// Disassembly listing of the program a plan assembles to — the "minimal
/// trace" printed for a shrunk failure.
pub fn listing(ops: &[GenOp]) -> String {
    let p = build(ops);
    let mut out = String::new();
    let _ = writeln!(out, "entry = {}", p.entry);
    for pc in 0..p.len() {
        if let Some(op) = p.fetch(pc) {
            let _ = writeln!(out, "{pc:4}: {op}");
        }
    }
    out
}

/// A minimized fuzz failure.
#[derive(Debug)]
pub struct FuzzFailure {
    /// Seed whose plan first failed.
    pub seed: u64,
    /// The failing checker report from the *minimized* plan.
    pub report: CheckReport,
    /// The original (unshrunk) plan.
    pub ops: Vec<GenOp>,
    /// ddmin-minimized plan that still fails.
    pub minimized: Vec<GenOp>,
}

/// Outcome of a fuzz run: how many seeds passed, and the first failure
/// (already shrunk), if any.
#[derive(Debug)]
pub struct FuzzOutcome {
    pub cases_run: u64,
    pub failure: Option<FuzzFailure>,
}

/// Run `count` seeds starting at `seed0`, stopping at the first failure
/// and minimizing it with [`pp_testutil::shrink`]. `progress` is called
/// with the number of cases completed (every 100 cases and at the end).
pub fn fuzz(seed0: u64, count: u64, progress: impl Fn(u64)) -> FuzzOutcome {
    for i in 0..count {
        let seed = seed0.wrapping_add(i);
        let ops = generate(seed);
        if let Err(first) = check_ops(&ops) {
            let minimized = pp_testutil::shrink(&ops, |xs| check_ops(xs).is_err());
            // Re-derive the report from the minimized plan so report and
            // trace describe the same failure (shrinking may surface a
            // different, simpler manifestation — that's fine, it still
            // reproduces).
            let report = check_ops(&minimized).err().unwrap_or(first);
            return FuzzOutcome {
                cases_run: i + 1,
                failure: Some(FuzzFailure {
                    seed,
                    report,
                    ops,
                    minimized,
                }),
            };
        }
        if (i + 1) % 100 == 0 {
            progress(i + 1);
        }
    }
    progress(count);
    FuzzOutcome {
        cases_run: count,
        failure: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        assert_eq!(generate(42), generate(42));
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn generated_programs_assemble_and_halt() {
        for seed in 0..60 {
            let p = build(&generate(seed));
            // `run` only returns Ok once the program halts; a
            // non-halting plan surfaces as StepLimitExceeded.
            let summary = Emulator::new(&p)
                .run(PRECHECK_STEPS)
                .unwrap_or_else(|e| panic!("seed {seed}: emulator error {e}"));
            assert!(summary.instructions > 0, "seed {seed} ran nothing");
        }
    }

    #[test]
    fn any_subsequence_still_assembles_and_halts() {
        // The shrinker relies on deletion-closure: drop every other op,
        // then the first half, and the program must stay valid.
        let ops = generate(7);
        let thinned: Vec<GenOp> = ops.iter().copied().step_by(2).collect();
        let tail: Vec<GenOp> = ops[ops.len() / 2..].to_vec();
        for plan in [&thinned, &tail] {
            let p = build(plan);
            assert!(Emulator::new(&p).run(PRECHECK_STEPS).is_ok());
        }
    }

    #[test]
    fn fuzz_smoke_is_clean() {
        // A small always-on smoke; the 10k run lives in the fuzz_check
        // bin and CI. Failure output includes the minimized listing.
        let outcome = fuzz(0, 10, |_| {});
        if let Some(f) = &outcome.failure {
            panic!(
                "seed {} failed: {}\nminimized plan: {:?}\n{}",
                f.seed,
                f.report,
                f.minimized,
                listing(&f.minimized)
            );
        }
        assert_eq!(outcome.cases_run, 10);
    }

    #[test]
    fn listing_renders_every_pc() {
        let ops = generate(3);
        let text = listing(&ops);
        assert!(text.starts_with("entry = "));
        assert!(text.lines().count() > build(&ops).len());
    }

    #[test]
    #[should_panic(expected = "unknown fuzz configuration")]
    fn unknown_config_is_rejected() {
        let _ = fuzz_config("oracle_of_delphi");
    }
    #[test]
    fn seed_1293_byte_forwarding_regression_stays_clean() {
        // This seed once diverged in every config: a byte store's
        // buffered word was forwarded un-narrowed to a byte load
        // (`stb` of 141488 read back as 141488 instead of 176). Pin
        // it clean so the store-buffer narrowing fix never regresses.
        let outcome = fuzz(1293, 1, |_| {});
        if let Some(f) = &outcome.failure {
            panic!(
                "seed 1293 regressed: {}\n{}",
                f.report,
                listing(&f.minimized)
            );
        }
    }
}
