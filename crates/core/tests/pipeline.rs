//! End-to-end pipeline tests with lock-step co-simulation against the
//! functional emulator: the committed instruction stream must be
//! architecturally identical in every execution mode — wrong paths must be
//! invisible.

use std::collections::HashSet;

use pp_core::{
    ConfidenceKind, ExecMode, FetchId, KillStage, MergeConfig, PipeEvent, PredictorKind, SimConfig,
    SimStats, Simulator, TraceLog,
};
use pp_func::Emulator;
use pp_isa::{reg, Asm, FpOp, Operand, Program};
use pp_predictor::JrsConfig;

fn assemble(f: impl FnOnce(&mut Asm)) -> Program {
    let mut a = Asm::new();
    f(&mut a);
    a.assemble().expect("test program assembles")
}

/// A program whose inner branch depends on pseudo-random data: roughly
/// half taken, badly predictable — the workload SEE is designed for.
fn random_branch_program(iters: i64) -> Program {
    assemble(|a| {
        // xorshift-ish data array.
        let mut x = 0x9e3779b97f4a7c15u64;
        let data: Vec<i64> = (0..256)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 1) as i64
            })
            .collect();
        let base = a.alloc_words(&data);

        a.li(reg::GP, base as i64);
        a.li(reg::S0, 0); // i
        a.li(reg::S1, 0); // acc
        let top = a.here();
        a.and(reg::T0, reg::S0, 255i64);
        a.sll(reg::T1, reg::T0, 3i64);
        a.add(reg::T1, reg::T1, reg::GP);
        a.ld(reg::T2, reg::T1, 0);
        let odd = a.new_label();
        let join = a.new_label();
        a.bne(reg::T2, 0i64, odd);
        a.addi(reg::S1, reg::S1, 1);
        a.jmp(join);
        a.bind(odd).unwrap();
        a.addi(reg::S1, reg::S1, 3);
        a.bind(join).unwrap();
        a.addi(reg::S0, reg::S0, 1);
        a.blt(reg::S0, Operand::imm(iters), top);
        a.st(reg::S1, reg::GP, -8);
        a.halt();
    })
}

fn run_checked(program: &Program, cfg: SimConfig) -> SimStats {
    let mut sim = Simulator::new(program, cfg.with_commit_checking());
    let stats = sim.run();
    assert!(!stats.hit_cycle_limit, "run hit the cycle limit");
    // Final memory must equal the functional emulator's.
    let mut emu = Emulator::new(program);
    emu.run(100_000_000).expect("reference run halts");
    assert!(
        sim.memory().same_contents(emu.memory()),
        "final memory differs from the functional reference"
    );
    stats
}

fn all_modes() -> Vec<(&'static str, SimConfig)> {
    vec![
        ("monopath", SimConfig::monopath_baseline()),
        ("see-jrs", SimConfig::baseline()),
        (
            "see-oracle-conf",
            SimConfig::baseline().with_confidence(ConfidenceKind::Oracle),
        ),
        (
            "dual-path",
            SimConfig::baseline().with_mode(ExecMode::DualPath),
        ),
        (
            "oracle-bp",
            SimConfig::monopath_baseline().with_predictor(PredictorKind::Oracle),
        ),
    ]
}

#[test]
fn straight_line_arithmetic_all_modes() {
    let p = assemble(|a| {
        a.li(reg::T0, 6);
        a.li(reg::T1, 7);
        a.mul(reg::T2, reg::T0, reg::T1);
        a.addi(reg::T3, reg::T2, -2);
        a.xor(reg::T4, reg::T3, reg::T2);
        a.st(reg::T4, reg::ZERO, 0x2000);
        a.halt();
    });
    for (name, cfg) in all_modes() {
        let s = run_checked(&p, cfg);
        assert_eq!(s.committed_instructions, 7, "{name}");
    }
}

#[test]
fn predictable_loop_all_modes() {
    let p = assemble(|a| {
        a.li(reg::T0, 0);
        let top = a.here();
        a.addi(reg::T0, reg::T0, 1);
        a.blt(reg::T0, Operand::imm(500), top);
        a.halt();
    });
    for (name, cfg) in all_modes() {
        let s = run_checked(&p, cfg);
        assert_eq!(s.committed_instructions, 1002, "{name}");
        assert_eq!(s.committed_branches, 500, "{name}");
        // A trained loop branch mispredicts only during table warm-up
        // (the first few dozen instances are in flight before the first
        // commit trains the counters).
        assert!(
            s.mispredicted_branches < 60,
            "{name}: {}",
            s.mispredicted_branches
        );
    }
}

#[test]
fn random_branches_all_modes_commit_identically() {
    let p = random_branch_program(400);
    let reference = run_checked(&p, SimConfig::monopath_baseline());
    for (name, cfg) in all_modes() {
        let s = run_checked(&p, cfg);
        assert_eq!(
            s.committed_instructions, reference.committed_instructions,
            "{name}: committed count must be architectural"
        );
        assert_eq!(s.committed_branches, reference.committed_branches, "{name}");
    }
}

#[test]
fn see_diverges_on_random_branches() {
    let p = random_branch_program(400);
    let s = run_checked(&p, SimConfig::baseline());
    assert!(s.divergences > 0, "SEE should diverge on random branches");
    assert!(s.max_live_paths >= 2);
}

#[test]
fn monopath_never_diverges() {
    let p = random_branch_program(200);
    let s = run_checked(&p, SimConfig::monopath_baseline());
    assert_eq!(s.divergences, 0);
    assert_eq!(s.max_live_paths, 1);
}

#[test]
fn dual_path_uses_at_most_three_paths() {
    let p = random_branch_program(400);
    let s = run_checked(&p, SimConfig::baseline().with_mode(ExecMode::DualPath));
    assert!(s.divergences > 0, "dual-path should still diverge");
    assert!(
        s.max_live_paths <= 3,
        "dual-path must be limited to 3 paths, saw {}",
        s.max_live_paths
    );
}

#[test]
fn oracle_prediction_beats_gshare_on_random_branches() {
    let p = random_branch_program(600);
    let gshare = run_checked(&p, SimConfig::monopath_baseline());
    let oracle = run_checked(
        &p,
        SimConfig::monopath_baseline().with_predictor(PredictorKind::Oracle),
    );
    assert_eq!(oracle.mispredicted_branches, 0, "oracle never mispredicts");
    assert!(
        oracle.cycles < gshare.cycles,
        "oracle ({}) should finish before gshare ({})",
        oracle.cycles,
        gshare.cycles
    );
}

#[test]
fn see_with_oracle_confidence_beats_monopath_on_random_branches() {
    let p = random_branch_program(600);
    let mono = run_checked(&p, SimConfig::monopath_baseline());
    let see = run_checked(
        &p,
        SimConfig::baseline().with_confidence(ConfidenceKind::Oracle),
    );
    assert!(
        see.cycles < mono.cycles,
        "SEE/oracle ({}) should beat monopath ({}) on unpredictable branches",
        see.cycles,
        mono.cycles
    );
}

#[test]
fn calls_and_returns_predict_via_ras() {
    let p = assemble(|a| {
        let f = a.new_label();
        a.li(reg::S0, 0);
        let top = a.here();
        a.call(f);
        a.addi(reg::S0, reg::S0, 1);
        a.blt(reg::S0, Operand::imm(100), top);
        a.halt();
        a.bind(f).unwrap();
        a.addi(reg::A0, reg::A0, 1);
        a.ret();
    });
    for (name, cfg) in all_modes() {
        let s = run_checked(&p, cfg);
        assert_eq!(
            s.mispredicted_returns, 0,
            "{name}: RAS should be perfect here"
        );
    }
}

#[test]
fn recursion_with_stack_all_modes() {
    // Recursive triangular-number computation: f(n) = n + f(n-1), f(0) = 0.
    let p = assemble(|a| {
        let f = a.new_label();
        let base_case = a.new_label();
        a.li(reg::A0, 30);
        a.call(f);
        a.st(reg::A1, reg::ZERO, 0x3000);
        a.halt();

        a.bind(f).unwrap();
        a.ble(reg::A0, 0i64, base_case);
        a.addi(reg::SP, reg::SP, -16);
        a.st(reg::RA, reg::SP, 0);
        a.st(reg::A0, reg::SP, 8);
        a.addi(reg::A0, reg::A0, -1);
        a.call(f);
        a.ld(reg::RA, reg::SP, 0);
        a.ld(reg::T0, reg::SP, 8);
        a.addi(reg::SP, reg::SP, 16);
        a.add(reg::A1, reg::A1, reg::T0);
        a.ret();
        a.bind(base_case).unwrap();
        a.li(reg::A1, 0);
        a.ret();
    });
    for (name, cfg) in all_modes() {
        let mut sim = Simulator::new(&p, cfg.with_commit_checking());
        let s = sim.run();
        assert!(!s.hit_cycle_limit, "{name}");
        assert_eq!(sim.memory().read_u64(0x3000), 465, "{name}: 1+..+30");
    }
}

#[test]
fn store_load_forwarding_chain() {
    // A tight store→load dependence through the same address.
    let p = assemble(|a| {
        let buf = a.alloc_zeroed(1);
        a.li(reg::GP, buf as i64);
        a.li(reg::T0, 0);
        a.li(reg::S0, 0);
        let top = a.here();
        a.st(reg::T0, reg::GP, 0);
        a.ld(reg::T1, reg::GP, 0);
        a.add(reg::T0, reg::T1, Operand::imm(1));
        a.addi(reg::S0, reg::S0, 1);
        a.blt(reg::S0, Operand::imm(50), top);
        a.halt();
    });
    for (name, cfg) in all_modes() {
        let mut sim = Simulator::new(&p, cfg.with_commit_checking());
        let s = sim.run();
        assert!(!s.hit_cycle_limit, "{name}");
        assert_eq!(sim.memory().read_u64(pp_isa::DATA_BASE), 49, "{name}");
    }
}

#[test]
fn fp_pipeline_executes() {
    let p = assemble(|a| {
        a.li(reg::T0, 10);
        a.fp(FpOp::Itof, reg::F0, reg::T0, reg::ZERO);
        a.fp(FpOp::Mul, reg::F1, reg::F0, reg::F0);
        a.fp(FpOp::Add, reg::F2, reg::F1, reg::F0);
        a.fp(FpOp::Ftoi, reg::T1, reg::F2, reg::ZERO);
        a.st(reg::T1, reg::ZERO, 0x4000);
        a.halt();
    });
    let mut sim = Simulator::new(&p, SimConfig::baseline().with_commit_checking());
    sim.run();
    assert_eq!(sim.memory().read_u64(0x4000), 110);
}

#[test]
fn stats_invariants_hold() {
    let p = random_branch_program(300);
    for (name, cfg) in all_modes() {
        let s = run_checked(&p, cfg);
        assert!(
            s.fetched_instructions >= s.dispatched_instructions,
            "{name}: fetched >= dispatched"
        );
        assert!(
            s.dispatched_instructions >= s.committed_instructions,
            "{name}: dispatched >= committed"
        );
        assert!(s.fetched_per_committed() >= 1.0, "{name}");
        let hist_cycles: u64 = s.path_cycles.iter().sum();
        assert_eq!(
            hist_cycles, s.cycles,
            "{name}: path histogram covers every cycle"
        );
        let conf_total =
            s.low_conf_correct + s.low_conf_incorrect + s.high_conf_correct + s.high_conf_incorrect;
        assert_eq!(
            conf_total, s.committed_branches,
            "{name}: confidence truth table"
        );
        assert_eq!(
            s.mispredicted_branches,
            s.low_conf_incorrect + s.high_conf_incorrect,
            "{name}"
        );
    }
}

#[test]
fn deeper_pipeline_costs_cycles_on_mispredictions() {
    let p = random_branch_program(500);
    let shallow = run_checked(&p, SimConfig::monopath_baseline().with_pipeline_depth(6));
    let deep = run_checked(&p, SimConfig::monopath_baseline().with_pipeline_depth(10));
    assert!(
        deep.cycles > shallow.cycles,
        "10-stage ({}) must be slower than 6-stage ({})",
        deep.cycles,
        shallow.cycles
    );
}

#[test]
fn smaller_window_costs_cycles() {
    let p = random_branch_program(500);
    let small = run_checked(&p, SimConfig::monopath_baseline().with_window_size(16));
    let large = run_checked(&p, SimConfig::monopath_baseline().with_window_size(256));
    assert!(
        small.cycles >= large.cycles,
        "16-entry window ({}) must not beat 256 ({})",
        small.cycles,
        large.cycles
    );
}

#[test]
fn jrs_confidence_truth_table_populates() {
    let p = random_branch_program(500);
    let s = run_checked(
        &p,
        SimConfig::baseline().with_confidence(ConfidenceKind::Jrs(JrsConfig::paper_baseline())),
    );
    assert!(
        s.low_conf_incorrect > 0,
        "some low-confidence mispredictions"
    );
    assert!(
        s.high_conf_correct > 0,
        "some high-confidence correct predictions"
    );
    assert!(s.pvn() > 0.0 && s.pvn() <= 1.0);
}

#[test]
fn window_occupancy_and_fu_accounting_sane() {
    let p = random_branch_program(300);
    let s = run_checked(&p, SimConfig::baseline());
    assert!(s.mean_window_occupancy() > 0.0);
    assert!(s.mean_window_occupancy() <= 256.0);
    for fu in [
        &s.fu_int0,
        &s.fu_int1,
        &s.fu_mem,
        &s.fu_fp_add,
        &s.fu_fp_mul,
    ] {
        let u = fu.utilization();
        assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
    }
}

#[test]
fn byte_memory_ops_all_modes() {
    let p = assemble(|a| {
        let src = a.alloc_bytes(b"polypath");
        let dst = a.alloc_zeroed(2);
        a.li(reg::GP, src as i64);
        a.li(reg::S2, dst as i64);
        a.li(reg::S0, 0);
        let top = a.here();
        a.add(reg::T0, reg::GP, reg::S0);
        a.ldb(reg::T1, reg::T0, 0);
        a.add(reg::T2, reg::S2, reg::S0);
        a.stb(reg::T1, reg::T2, 0);
        a.addi(reg::S0, reg::S0, 1);
        a.blt(reg::S0, Operand::imm(8), top);
        a.halt();
    });
    for (name, cfg) in all_modes() {
        let mut sim = Simulator::new(&p, cfg.with_commit_checking());
        sim.run();
        let dst = pp_isa::DATA_BASE + 8;
        let copied: Vec<u8> = (0..8).map(|i| sim.memory().read_u8(dst + i)).collect();
        assert_eq!(&copied, b"polypath", "{name}");
    }
}

#[test]
fn tiny_machine_configuration_works() {
    // 1 FU of each class, small window, shallow pipeline.
    let p = random_branch_program(200);
    let cfg = SimConfig {
        fus: pp_core::FuConfig::uniform(1),
        window_size: 32,
        ..SimConfig::baseline()
    };
    let s = run_checked(&p, cfg);
    assert!(s.committed_instructions > 0);
}

#[test]
fn fetched_exceeds_committed_under_mispredictions() {
    let p = random_branch_program(500);
    let s = run_checked(&p, SimConfig::monopath_baseline());
    // The paper reports 1.86× on SPECint95; any misprediction-heavy loop
    // must fetch strictly more than it commits.
    assert!(
        s.fetched_per_committed() > 1.05,
        "{}",
        s.fetched_per_committed()
    );
}

// -----------------------------------------------------------------------
// Extension features: adaptive confidence, fetch policies, commit-time
// resolution (the paper's future-work items).
// -----------------------------------------------------------------------

#[test]
fn adaptive_confidence_cosimulates_and_limits_waste() {
    use pp_predictor::AdaptiveConfig;
    let p = random_branch_program(600);
    let adaptive = run_checked(
        &p,
        SimConfig::baseline()
            .with_confidence(ConfidenceKind::AdaptiveJrs(AdaptiveConfig::paper_baseline())),
    );
    // Same architectural outcome as any other mode.
    let mono = run_checked(&p, SimConfig::monopath_baseline());
    assert_eq!(adaptive.committed_instructions, mono.committed_instructions);
    // The gate may close, but divergence on a random branch has high PVN,
    // so some divergences must happen.
    assert!(adaptive.divergences > 0);
}

#[test]
fn adaptive_gate_closes_on_predictable_code() {
    use pp_predictor::AdaptiveConfig;
    // A perfectly predictable loop: every low-confidence flag is wasted,
    // so the adaptive estimator must converge to (almost) no divergence.
    let p = assemble(|a| {
        a.li(reg::T0, 0);
        let top = a.here();
        a.addi(reg::T1, reg::T1, 2);
        a.addi(reg::T0, reg::T0, 1);
        a.blt(reg::T0, Operand::imm(30_000), top);
        a.halt();
    });
    let plain = run_checked(&p, SimConfig::baseline());
    let gated = run_checked(
        &p,
        SimConfig::baseline()
            .with_confidence(ConfidenceKind::AdaptiveJrs(AdaptiveConfig::paper_baseline())),
    );
    assert!(
        gated.divergences <= plain.divergences,
        "gated ({}) must not diverge more than plain JRS ({})",
        gated.divergences,
        plain.divergences
    );
}

#[test]
fn fetch_policies_all_cosimulate() {
    use pp_core::FetchPolicy;
    let p = random_branch_program(400);
    let reference = run_checked(&p, SimConfig::baseline());
    for policy in [
        FetchPolicy::ExponentialByAge,
        FetchPolicy::OldestFirst,
        FetchPolicy::RoundRobin,
    ] {
        let s = run_checked(&p, SimConfig::baseline().with_fetch_policy(policy));
        assert_eq!(
            s.committed_instructions, reference.committed_instructions,
            "{policy:?}"
        );
    }
}

#[test]
fn commit_time_resolution_cosimulates_and_costs_cycles() {
    let p = random_branch_program(500);
    let at_execute = run_checked(&p, SimConfig::monopath_baseline());
    let at_commit = run_checked(
        &p,
        SimConfig::monopath_baseline().with_commit_time_resolution(),
    );
    assert_eq!(
        at_commit.committed_instructions,
        at_execute.committed_instructions
    );
    // In-order resolution discovers mispredictions later: strictly slower
    // on misprediction-heavy code.
    assert!(
        at_commit.cycles > at_execute.cycles,
        "commit-time resolution ({}) must cost more cycles than execute-time ({})",
        at_commit.cycles,
        at_execute.cycles
    );
}

#[test]
fn commit_time_resolution_works_with_see() {
    let p = random_branch_program(300);
    let s = run_checked(&p, SimConfig::baseline().with_commit_time_resolution());
    assert!(s.divergences > 0);
}

#[test]
fn dcache_model_cosimulates_and_costs_cycles() {
    use pp_core::CacheConfig;
    // A loop striding far beyond 8 KiB so the modeled L1 keeps missing.
    let p = assemble(|a| {
        let base = a.alloc_zeroed(1);
        a.li(reg::GP, base as i64);
        a.li(reg::S0, 0);
        let top = a.here();
        a.sll(reg::T0, reg::S0, 8i64); // 256-byte stride
        a.and(reg::T0, reg::T0, 0xf_ffffi64);
        a.add(reg::T0, reg::T0, reg::GP);
        a.ld(reg::T1, reg::T0, 0);
        a.add(reg::S1, reg::S1, reg::T1);
        a.addi(reg::S0, reg::S0, 1);
        a.blt(reg::S0, Operand::imm(2_000), top);
        a.halt();
    });
    let ideal = run_checked(&p, SimConfig::monopath_baseline());
    let cached = run_checked(
        &p,
        SimConfig::monopath_baseline().with_dcache(CacheConfig::l1_8k()),
    );
    assert_eq!(ideal.committed_instructions, cached.committed_instructions);
    assert_eq!(ideal.dcache_misses, 0, "always-hit model records nothing");
    assert!(
        cached.dcache_misses > 1_000,
        "strided loads must miss, got {}",
        cached.dcache_misses
    );
    assert!(
        cached.cycles > ideal.cycles,
        "misses must cost cycles: {} vs {}",
        cached.cycles,
        ideal.cycles
    );
    assert!(cached.dcache_miss_rate() > 0.5);
}

#[test]
fn dcache_hits_on_resident_working_set() {
    use pp_core::CacheConfig;
    // A 64-word (512 B) working set fits the 8 KiB model: after warm-up
    // everything hits and timing converges to the always-hit model.
    let p = assemble(|a| {
        let base = a.alloc_zeroed(64);
        a.li(reg::GP, base as i64);
        a.li(reg::S0, 0);
        let top = a.here();
        a.and(reg::T0, reg::S0, 63i64);
        a.sll(reg::T0, reg::T0, 3i64);
        a.add(reg::T0, reg::T0, reg::GP);
        a.ld(reg::T1, reg::T0, 0);
        a.addi(reg::S0, reg::S0, 1);
        a.blt(reg::S0, Operand::imm(4_000), top);
        a.halt();
    });
    let cached = run_checked(
        &p,
        SimConfig::monopath_baseline().with_dcache(CacheConfig::l1_8k()),
    );
    assert!(
        cached.dcache_miss_rate() < 0.02,
        "resident set should hit, miss rate {}",
        cached.dcache_miss_rate()
    );
}

#[test]
fn saturating_confidence_cosimulates_and_diverges() {
    let p = random_branch_program(400);
    let s = run_checked(
        &p,
        SimConfig::baseline().with_confidence(ConfidenceKind::Saturating),
    );
    assert!(s.divergences > 0, "weak counters should trigger divergence");
    let mono = run_checked(&p, SimConfig::monopath_baseline());
    assert_eq!(s.committed_instructions, mono.committed_instructions);
}

#[test]
#[should_panic(expected = "gshare")]
fn saturating_confidence_requires_gshare() {
    let cfg = SimConfig::baseline()
        .with_predictor(PredictorKind::StaticTaken)
        .with_confidence(ConfidenceKind::Saturating);
    cfg.validate();
}

#[test]
fn ras_overflow_recovers_correctly() {
    // Recursion deeper than the 64-entry RAS: deep returns mispredict
    // (hardware-faithful) but execution stays architecturally correct.
    let p = assemble(|a| {
        let f = a.new_label();
        let base_case = a.new_label();
        a.li(reg::A0, 100); // depth 100 > RAS_DEPTH 64
        a.call(f);
        a.st(reg::A1, reg::ZERO, 0x3000);
        a.halt();
        a.bind(f).unwrap();
        a.ble(reg::A0, 0i64, base_case);
        a.addi(reg::SP, reg::SP, -8);
        a.st(reg::RA, reg::SP, 0);
        a.addi(reg::A0, reg::A0, -1);
        a.call(f);
        a.ld(reg::RA, reg::SP, 0);
        a.addi(reg::SP, reg::SP, 8);
        a.addi(reg::A1, reg::A1, 1);
        a.ret();
        a.bind(base_case).unwrap();
        a.ret();
    });
    for (name, cfg) in all_modes() {
        let mut sim = Simulator::new(&p, cfg.with_commit_checking());
        let s = sim.run();
        assert!(!s.hit_cycle_limit, "{name}");
        assert_eq!(sim.memory().read_u64(0x3000), 100, "{name}");
        if name == "monopath" {
            assert!(
                s.mispredicted_returns > 0,
                "{name}: RAS overflow must cause return mispredictions"
            );
        }
    }
}

#[test]
fn ctx_position_exhaustion_stalls_but_stays_correct() {
    // Only 4 history positions: fetch stalls constantly on branches, but
    // every mode completes, matches the reference and stays sane every
    // cycle. A kill frees its branches' positions at once, so a position
    // is often reallocated while the killed corpse of its previous owner
    // still sits in a latch or window slot: the corpse must never read
    // the branch record its stale position now names.
    let p = random_branch_program(200);
    let mut modes = all_modes();
    modes.push((
        "see-merge",
        SimConfig::baseline().with_merge(MergeConfig::paper_default()),
    ));
    for (name, cfg) in modes {
        let cfg = SimConfig {
            ctx_positions: 4,
            max_paths: 3,
            ..cfg
        };
        let s = run_checked(&p, cfg.with_sanitizer());
        assert!(s.fetch_stall_no_ctx > 0, "{name}: positions must run out");
    }
}

#[test]
fn tight_physical_register_file_stalls_dispatch() {
    let p = random_branch_program(150);
    let cfg = SimConfig {
        phys_regs: 256 + 64, // exact minimum for a 256-entry window
        window_size: 256,
        ..SimConfig::monopath_baseline()
    };
    let s = run_checked(&p, cfg);
    assert!(s.committed_instructions > 0);
}

#[test]
fn commit_width_one_machine_works() {
    let p = random_branch_program(100);
    let cfg = SimConfig {
        commit_width: 1,
        ..SimConfig::baseline()
    };
    let narrow = run_checked(&p, cfg);
    let wide = run_checked(&p, SimConfig::baseline());
    assert!(
        narrow.cycles >= wide.cycles,
        "1-wide commit cannot beat 8-wide"
    );
    assert!(narrow.ipc() <= 1.0 + 1e-9, "IPC cannot exceed commit width");
}

#[test]
fn indirect_jumps_predict_through_btb() {
    // A jump-table dispatch loop: jr hits the same few targets repeatedly,
    // so after BTB warm-up most predictions land.
    let p = assemble(|a| {
        // Jump table with 4 handler addresses, filled after layout below.
        let table = a.alloc_zeroed(4);
        let handlers_done = a.new_label();
        a.li(reg::GP, table as i64);
        a.li(reg::S0, 0);
        let top = a.here();
        // idx = i & 3 (periodic pattern: handler sequence repeats)
        a.and(reg::T0, reg::S0, 3i64);
        a.sll(reg::T0, reg::T0, 3i64);
        a.add(reg::T0, reg::T0, reg::GP);
        a.ld(reg::T1, reg::T0, 0);
        a.jr(reg::T1);
        // handlers: each adds a constant then jumps to the join.
        let join = a.new_label();
        let mut handler_pcs = Vec::new();
        for k in 0..4 {
            handler_pcs.push(a.pc());
            a.addi(reg::S1, reg::S1, k + 1);
            a.jmp(join);
        }
        a.bind(join).unwrap();
        a.addi(reg::S0, reg::S0, 1);
        a.blt(reg::S0, Operand::imm(500), top);
        a.jmp(handlers_done);
        a.bind(handlers_done).unwrap();
        a.st(reg::S1, reg::ZERO, 0x5000);
        a.halt();
        // Fill the jump table now that handler PCs are known.
        for (k, pc) in handler_pcs.iter().enumerate() {
            a.emit(pp_isa::Op::Nop); // keep code addresses stable (unused tail)
            let _ = k;
            let _ = pc;
        }
    });
    // The table contents must be set via data: rebuild with values.
    // (alloc_zeroed gave addresses; we patch by rebuilding the program with
    // the now-known handler PCs.)
    let mut a2 = Asm::new();
    let table = a2.alloc_words(&[7, 9, 11, 13]); // placeholder, patched below
    let _ = table;
    let _ = p;
    // Simpler, self-contained variant: handlers at fixed, pre-computed
    // positions using forward labels resolved by the assembler.
    let p = {
        let mut a = Asm::new();
        // Code layout: 0..6 header, handlers start at pc 7, stride 2.
        let table = a.alloc_words(&[7, 9, 11, 13]);
        a.li(reg::GP, table as i64); // 0
        a.li(reg::S0, 0); // 1
        let top = a.here(); // 2
        a.and(reg::T0, reg::S0, 3i64); // 2
        a.sll(reg::T0, reg::T0, 3i64); // 3
        a.add(reg::T0, reg::T0, reg::GP); // 4
        a.ld(reg::T1, reg::T0, 0); // 5
        a.jr(reg::T1); // 6
        let join = a.new_label();
        for k in 0..4 {
            assert_eq!(a.pc(), 7 + 2 * k, "jump table must match layout");
            a.addi(reg::S1, reg::S1, k as i64 + 1); // 7,9,11,13
            a.jmp(join); // 8,10,12,14
        }
        a.bind(join).unwrap(); // 15
        a.addi(reg::S0, reg::S0, 1);
        a.blt(reg::S0, Operand::imm(500), top);
        a.st(reg::S1, reg::ZERO, 0x5000);
        a.halt();
        a.assemble().unwrap()
    };
    for (name, cfg) in all_modes() {
        let mut sim = Simulator::new(&p, cfg.with_commit_checking());
        let s = sim.run();
        assert!(!s.hit_cycle_limit, "{name}");
        // sum over 500 iterations of (1,2,3,4 repeating) = 125 * 10
        assert_eq!(sim.memory().read_u64(0x5000), 1250, "{name}");
        // The periodic jr pattern alternates targets at one pc: a
        // direct-mapped BTB mispredicts most dispatches (realistic), but
        // some early ones must at least resolve without deadlock.
        assert!(
            s.mispredicted_returns > 0,
            "{name}: cold BTB must mispredict"
        );
    }
}

#[test]
fn jr_with_stable_target_stops_mispredicting() {
    // One jr always jumping to the same place: after one miss, the BTB
    // should predict it perfectly.
    let p = assemble(|a| {
        let target = a.new_label();
        a.li(reg::S0, 0); // pc 0
        let top = a.here();
        a.li(reg::T0, 3); // pc 1: loads the pc of `target`
        a.jr(reg::T0); // pc 2
        a.bind(target).unwrap();
        assert_eq!(a.pc(), 3, "layout assumption for the jr target");
        a.addi(reg::S0, reg::S0, 1);
        a.blt(reg::S0, Operand::imm(300), top);
        a.halt();
    });
    let s = run_checked(&p, SimConfig::monopath_baseline());
    assert!(
        s.mispredicted_returns <= 3,
        "stable jr target should train the BTB, got {} mispredictions",
        s.mispredicted_returns
    );
}

#[test]
fn all_extensions_together_cosimulate() {
    // Everything at once: SEE with the adaptive estimator, commit-time
    // resolution, round-robin fetch, a real D-cache, two-level local
    // prediction — the union of every extension must still commit the
    // architectural execution.
    use pp_core::{CacheConfig, FetchPolicy};
    use pp_predictor::AdaptiveConfig;
    let p = random_branch_program(300);
    let cfg = SimConfig::baseline()
        .with_predictor(PredictorKind::TwoLevelLocal {
            bht_bits: 10,
            history_bits: 10,
        })
        .with_confidence(ConfidenceKind::AdaptiveJrs(AdaptiveConfig::paper_baseline()))
        .with_fetch_policy(FetchPolicy::RoundRobin)
        .with_commit_time_resolution()
        .with_dcache(CacheConfig::l1_8k());
    let s = run_checked(&p, cfg);
    let reference = run_checked(&p, SimConfig::monopath_baseline());
    assert_eq!(s.committed_instructions, reference.committed_instructions);
}

#[test]
fn unaligned_words_straddling_a_page_boundary_all_modes() {
    // Data memory is paged (4 KiB): a word whose bytes lie in two pages
    // takes a different path from one that fits in a page. Eight unaligned
    // words at page offsets 4088..=4095 each straddle the boundary (except
    // the first, the last word that fits); each is loaded, stored, patched
    // with byte stores and read back. A plain byte-array model of the same
    // program pins the values independently of `pp_func::Memory`.
    const PAGE: u64 = 4096;
    let init: Vec<i64> = (1..=8i64)
        .map(|k| k.wrapping_mul(0x0123_4567_89ab_cdef) ^ (k << 56))
        .collect();
    let mut window_base = 0;
    let mut result = 0;
    let p = assemble(|a| {
        let cursor = a.alloc_zeroed(0);
        let boundary = (cursor + 16).next_multiple_of(PAGE);
        a.alloc_zeroed(((boundary - 16 - cursor) / 8) as usize);
        window_base = a.alloc_words(&init);
        assert_eq!(window_base, boundary - 16);
        result = a.alloc_zeroed(1);

        a.li(reg::GP, (boundary - 8) as i64); // page offset 4088
        a.li(reg::S0, 0); // i
        a.li(reg::S1, 0); // checksum
        let top = a.here();
        a.add(reg::T0, reg::GP, reg::S0); // page offset 4088 + i
        a.ld(reg::T1, reg::T0, 0);
        a.xor(reg::S1, reg::S1, reg::T1);
        a.mul(reg::T2, reg::T1, 3i64);
        a.add(reg::T2, reg::T2, reg::S0);
        a.st(reg::T2, reg::T0, 0);
        a.ld(reg::T3, reg::T0, 0);
        a.xor(reg::S1, reg::S1, reg::T3);
        a.stb(reg::S0, reg::T0, 7);
        a.stb(reg::S1, reg::T0, 3);
        a.ld(reg::T4, reg::T0, 0);
        a.add(reg::S1, reg::S1, reg::T4);
        a.ldb(reg::T5, reg::T0, 7);
        a.add(reg::S1, reg::S1, reg::T5);
        a.addi(reg::S0, reg::S0, 1);
        a.blt(reg::S0, Operand::imm(8), top);
        a.li(reg::A0, result as i64);
        a.st(reg::S1, reg::A0, 0);
        a.halt();
    });

    // Byte-array model over [window_base, result + 8).
    let mut bytes: Vec<u8> = init.iter().flat_map(|w| w.to_le_bytes()).collect();
    bytes.resize((result + 8 - window_base) as usize, 0);
    let ld = |b: &[u8], at: usize| i64::from_le_bytes(b[at..at + 8].try_into().unwrap());
    let mut s1 = 0i64;
    for i in 0..8usize {
        let at = 8 + i;
        let t1 = ld(&bytes, at);
        s1 ^= t1;
        let t2 = t1.wrapping_mul(3).wrapping_add(i as i64);
        bytes[at..at + 8].copy_from_slice(&t2.to_le_bytes());
        s1 ^= ld(&bytes, at);
        bytes[at + 7] = i as u8;
        bytes[at + 3] = s1 as u8;
        s1 = s1.wrapping_add(ld(&bytes, at));
        s1 = s1.wrapping_add(i64::from(bytes[at + 7]));
    }
    let n = bytes.len() - 8;
    bytes[n..].copy_from_slice(&s1.to_le_bytes());

    // `run_checked` holds every mode's final memory to the emulator's.
    let mut emu = Emulator::new(&p);
    emu.run(100_000).expect("reference run halts");
    let got: Vec<u8> = (0..bytes.len() as u64)
        .map(|k| emu.memory().read_u8(window_base + k))
        .collect();
    assert_eq!(got, bytes, "final bytes differ from the model");
    for (name, cfg) in all_modes() {
        let s = run_checked(&p, cfg);
        assert_eq!(s.committed_instructions, 6 + 8 * 16, "{name}");
    }
}

#[test]
fn byte_store_forwarded_to_byte_load_is_narrowed() {
    // Regression (fuzz_check seed 1293): a byte store's buffered word was
    // forwarded un-narrowed to a byte load. The forwarded value must look
    // exactly like a memory round-trip — truncated on store, zero-extended
    // on load — so `stb` of 141488 followed by `ldb` must read 176.
    let p = assemble(|a| {
        a.li(reg::T0, 141_488);
        a.stb(reg::T0, reg::ZERO, 0x2000);
        a.ldb(reg::T1, reg::ZERO, 0x2000);
        a.st(reg::T1, reg::ZERO, 0x2008);
        a.halt();
    });
    for (name, cfg) in all_modes() {
        let mut sim = Simulator::new(&p, cfg.with_commit_checking().with_sanitizer());
        let stats = sim.run();
        sim.finish_commit_check();
        assert!(!stats.hit_cycle_limit, "{name}");
        assert_eq!(
            sim.memory().read(0x2008, pp_isa::Width::Word),
            176,
            "{name}: forwarded byte load committed the wrong value"
        );
    }
}

#[test]
fn self_profiling_is_invisible_to_stats() {
    // Determinism guarantee behind the pp-sweep result cache: host-clock
    // reads exist in pp-core only for self-profiling (`selfprof::stamp`),
    // and their values must never leak into simulation results. Run the
    // same workload with and without profiling and demand bit-identical
    // SimStats across every mode.
    let p = random_branch_program(600);
    for (name, cfg) in all_modes() {
        let plain = Simulator::new(&p, cfg.clone()).run();
        let mut profiled_sim = Simulator::new(&p, cfg);
        profiled_sim.enable_self_profiling();
        let profiled = profiled_sim.run();
        assert_eq!(
            plain, profiled,
            "{name}: enabling self-profiling changed SimStats"
        );
        let host = profiled_sim.host_profile().expect("profiling was enabled");
        assert_eq!(host.cycles, profiled.cycles, "{name}: profile cycle count");
        assert_eq!(
            host.committed, profiled.committed_instructions,
            "{name}: profile commit count"
        );
    }
}

#[test]
fn stall_and_flight_are_invisible_to_stats() {
    // Byte-invisibility guarantee behind the golden snapshots and the
    // sweep cache (the same discipline `self_profiling_is_invisible_to_stats`
    // pins for the host profiler): stall accounting and the flight
    // recorder observe the machine but never steer it.
    let p = random_branch_program(600);
    for (name, cfg) in all_modes() {
        let plain = Simulator::new(&p, cfg.clone()).run();
        let mut instrumented = Simulator::new(&p, cfg);
        instrumented.enable_stall_accounting();
        instrumented.enable_flight_recorder(pp_core::DEFAULT_FLIGHT_DEPTH);
        let traced = instrumented.run();
        assert_eq!(
            plain, traced,
            "{name}: enabling stall accounting / flight recorder changed SimStats"
        );
        let fr = instrumented.flight_recorder().expect("recorder enabled");
        assert_eq!(fr.pushed(), traced.cycles, "{name}: one record per cycle");
    }
}

#[test]
fn stall_stack_conserves_commit_slots() {
    // The stall stack's defining invariant: every commit slot of every
    // cycle is charged exactly once — to a retirement or to one named
    // cause — so the account closes against SimStats totals.
    let p = random_branch_program(400);
    for (name, cfg) in all_modes() {
        let width = cfg.commit_width as u64;
        let mut sim = Simulator::new(&p, cfg);
        sim.enable_stall_accounting();
        let stats = sim.run();
        let st = *sim.stall_stack().expect("accounting enabled");
        assert_eq!(
            st.commit_slots, stats.committed_instructions,
            "{name}: commit slots must equal committed instructions"
        );
        assert_eq!(
            st.total_slots(),
            stats.cycles * width,
            "{name}: slot account must close against cycles x commit_width"
        );
        assert!(st.stalled_slots() > 0, "{name}: a real run has stalls");
    }
}

#[test]
fn flight_dump_contains_the_failing_cycle() {
    // A non-halting program truncated by a tiny cycle budget: with commit
    // checking on, `finish_commit_check` classifies the truncation as
    // pipeline starvation and panics — the failure shape the checking
    // harnesses wrap. The dump must cover the failing point: the last
    // recorded cycle plus the synthesized in-flight line.
    let p = assemble(|a| {
        a.li(reg::T0, 0);
        let top = a.here();
        a.addi(reg::T0, reg::T0, 1);
        a.jmp(top);
        a.halt();
    });
    let mut cfg = SimConfig::baseline().with_commit_checking();
    cfg.max_cycles = 400;
    let mut sim = Simulator::new(&p, cfg);
    sim.enable_flight_recorder(32);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let stats = sim.run();
        assert!(stats.hit_cycle_limit, "loop must hit the cycle budget");
        sim.finish_commit_check();
    }));
    assert!(
        outcome.is_err(),
        "truncated checked run must fail the commit check"
    );
    let dump = sim.flight_dump();
    let last_recorded = sim.stats().cycles - 1;
    assert!(
        dump.contains(&format!("cycle {last_recorded:>8}")),
        "dump must contain the final recorded cycle {last_recorded}:\n{dump}"
    );
    assert!(
        dump.contains(&format!("in-flight cycle {:>5}", sim.stats().cycles)),
        "dump must synthesize the in-flight state:\n{dump}"
    );
    assert!(
        dump.contains("ctx"),
        "dump lines carry CTX annotations:\n{dump}"
    );
}

/// Timing laws E1–E4, byte for byte on every workload: SEE and
/// dual-path under an estimator that is never diffident never diverge,
/// so they are monopath (E1, E2); with one path, fetch arbitration has
/// nothing to decide (E3); and under the oracle predictor the oracle
/// estimator is never diffident either, so SEE is oracle monopath (E4).
/// The lock-step oracle checks only *what* commits; these pin *when*.
#[test]
fn monopath_equivalence_laws_hold_byte_for_byte() {
    use pp_core::FetchPolicy;
    use pp_workloads::Workload;
    let always_high = |mode| {
        SimConfig::baseline()
            .with_mode(mode)
            .with_confidence(ConfidenceKind::AlwaysHigh)
    };
    let mut laws = vec![
        ("E1 SEE/always_high", always_high(ExecMode::See)),
        ("E2 dual-path/always_high", always_high(ExecMode::DualPath)),
    ];
    for policy in [
        FetchPolicy::ExponentialByAge,
        FetchPolicy::OldestFirst,
        FetchPolicy::RoundRobin,
        FetchPolicy::VariableRate,
    ] {
        laws.push((
            "E3 monopath fetch policy",
            SimConfig::monopath_baseline().with_fetch_policy(policy),
        ));
    }
    for w in Workload::ALL {
        let program = w.build(w.default_scale() / 20);
        let run = |cfg: SimConfig| Simulator::new(&program, cfg).run().to_json();
        let monopath = run(SimConfig::monopath_baseline());
        for (law, cfg) in &laws {
            let policy = cfg.fetch_policy;
            assert_eq!(
                run(cfg.clone()),
                monopath,
                "{law} ({policy:?}) on {}",
                w.name()
            );
        }
        let oracle = |cfg: SimConfig| run(cfg.with_predictor(PredictorKind::Oracle));
        assert_eq!(
            oracle(SimConfig::baseline().with_confidence(ConfidenceKind::Oracle)),
            oracle(SimConfig::monopath_baseline()),
            "E4 SEE/oracle on the oracle predictor on {}",
            w.name()
        );
    }
}

// ---------------------------------------------------------------------
// Memory-ordering wake timing
// ---------------------------------------------------------------------

/// The events of a traced run of `program` under `cfg`, asserting the
/// sanitizer-armed run emits exactly the same stream (the sanitizer
/// observes; it must never move an issue cycle).
fn traced_events(program: &Program, cfg: SimConfig) -> Vec<PipeEvent> {
    let run = |cfg: SimConfig| {
        let mut sim = Simulator::new(program, cfg.with_commit_checking());
        sim.set_observer(Box::new(TraceLog::new()));
        let stats = sim.run();
        sim.finish_commit_check();
        assert!(!stats.hit_cycle_limit, "run hit the cycle limit");
        let log = sim
            .take_observer()
            .expect("observer attached")
            .into_any()
            .downcast::<TraceLog>()
            .expect("a TraceLog was attached");
        log.events().to_vec()
    };
    let plain = run(cfg.clone());
    assert_eq!(run(cfg.with_sanitizer()), plain, "sanitizer moved an event");
    plain
}

/// Cycles of the events `pick` selects, for every fetched instance of
/// the instruction at `pc`, in event order.
fn cycles_at(events: &[PipeEvent], pc: usize, pick: fn(&PipeEvent) -> bool) -> Vec<u64> {
    let fids: HashSet<FetchId> = events
        .iter()
        .filter_map(|ev| match ev {
            PipeEvent::Fetched { fid, pc: p, .. } if *p == pc => Some(*fid),
            _ => None,
        })
        .collect();
    events
        .iter()
        .filter(|ev| pick(ev) && fids.contains(&ev.fid()))
        .map(PipeEvent::cycle)
        .collect()
}

fn issued(ev: &PipeEvent) -> bool {
    matches!(ev, PipeEvent::Issued { .. })
}

fn committed(ev: &PipeEvent) -> bool {
    matches!(ev, PipeEvent::Committed { .. })
}

fn dispatched(ev: &PipeEvent) -> bool {
    matches!(ev, PipeEvent::Dispatched { .. })
}

fn killed_in_window(ev: &PipeEvent) -> bool {
    matches!(
        ev,
        PipeEvent::Killed {
            stage: KillStage::Window,
            ..
        }
    )
}

#[test]
fn load_behind_an_unissued_store_issues_in_the_stores_cycle() {
    // The store's data comes from a multiply, so its address stays
    // unknown to the store buffer until the multiply writes back and the
    // store issues. The load (address ready at dispatch) is blocked until
    // then, and the store's issue lets it forward in the same scan.
    let p = assemble(|a| {
        a.li(reg::T0, 6);
        a.li(reg::T1, 7);
        a.mul(reg::T2, reg::T0, reg::T1);
        a.st(reg::T2, reg::ZERO, 0x2000);
        a.ld(reg::T3, reg::ZERO, 0x2000);
        a.st(reg::T3, reg::ZERO, 0x2008);
        a.halt();
    });
    let events = traced_events(&p, SimConfig::monopath_baseline());
    let (mul, store, load) = (
        cycles_at(&events, 2, issued),
        cycles_at(&events, 3, issued),
        cycles_at(&events, 4, issued),
    );
    assert_eq!(
        (mul, store.clone(), load.clone()),
        (vec![7], vec![15], vec![15])
    );
    assert_eq!(load, store, "the load issues in the cycle its blocker does");
}

#[test]
fn load_behind_a_partly_overlapping_store_issues_when_it_commits() {
    // A byte store inside the word the load reads cannot forward: the
    // load waits for the store to drain to memory at commit.
    let p = assemble(|a| {
        a.li(reg::T0, 0x41);
        a.stb(reg::T0, reg::ZERO, 0x2003);
        a.ld(reg::T1, reg::ZERO, 0x2000);
        a.st(reg::T1, reg::ZERO, 0x2008);
        a.halt();
    });
    let events = traced_events(&p, SimConfig::monopath_baseline());
    let (store_issue, store_commit, load) = (
        cycles_at(&events, 1, issued),
        cycles_at(&events, 1, committed),
        cycles_at(&events, 2, issued),
    );
    assert_eq!(
        (store_issue, store_commit.clone(), load.clone()),
        (vec![7], vec![9], vec![9])
    );
    assert_eq!(
        load, store_commit,
        "the load issues in its blocker's commit cycle"
    );
    // The head load waiting on the store is charged to the store buffer,
    // also in the cycles its issue scan skipped it (it sat parked).
    let mut sim = Simulator::new(&p, SimConfig::monopath_baseline());
    sim.enable_stall_accounting();
    sim.run();
    let st = sim.stall_stack().expect("accounting enabled");
    assert_eq!((st.store_buffer, st.operand_wait), (7, 46));
}

#[test]
fn load_blocked_on_a_killed_see_arm_dies_with_its_blocker() {
    // SEE diverges on the (cold, low-confidence) branch. Its not-taken
    // arm holds a store whose data waits on a long multiply chain and a
    // load the store blocks; the branch resolves taken first, so the
    // blocked load is killed with its blocker without ever issuing. The
    // taken arm's load of the same word never sees the sibling store.
    let p = assemble(|a| {
        a.li(reg::T0, 3);
        a.mul(reg::T1, reg::T0, reg::T0);
        a.mul(reg::T2, reg::T1, reg::T0);
        a.mul(reg::T2, reg::T2, reg::T0);
        a.mul(reg::T2, reg::T2, reg::T0);
        let taken = a.new_label();
        a.beq(reg::T1, 9i64, taken);
        a.st(reg::T2, reg::ZERO, 0x2000); // pc 6: wrong arm
        a.ld(reg::T3, reg::ZERO, 0x2000); // pc 7: wrong arm, blocked
        a.halt();
        a.bind(taken).unwrap();
        a.ld(reg::T4, reg::ZERO, 0x2000); // pc 9: correct arm
        a.st(reg::T4, reg::ZERO, 0x2008);
        a.halt();
    });
    let events = traced_events(&p, SimConfig::baseline());
    assert!(
        events
            .iter()
            .any(|ev| matches!(ev, PipeEvent::Diverged { .. })),
        "SEE must diverge on the cold branch"
    );
    assert!(
        cycles_at(&events, 6, issued).is_empty(),
        "wrong-arm store never issues"
    );
    assert!(
        cycles_at(&events, 7, issued).is_empty(),
        "blocked load never issues"
    );
    assert_eq!(
        (
            cycles_at(&events, 7, dispatched),
            cycles_at(&events, 7, killed_in_window),
            cycles_at(&events, 5, committed),
            cycles_at(&events, 9, issued),
            cycles_at(&events, 10, committed),
        ),
        (vec![6], vec![16], vec![40], vec![7], vec![40])
    );
}
