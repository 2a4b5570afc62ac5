//! Machine configuration (paper §4.2).
//!
//! [`SimConfig::baseline`] reproduces the paper's baseline: an 8-way
//! superscalar, out-of-order, in-order-commit machine with a 256-entry
//! central instruction window/reorder buffer, an 8-stage pipeline, Alpha
//! 21164-derived latencies, a 14-bit gshare predictor, and the modified
//! JRS confidence estimator.

use pp_predictor::{AdaptiveConfig, H2pConfig, JrsConfig, MergeConfig};

use crate::policy::Policy as _;

/// Execution model selector (paper §3, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Conventional speculative execution: one path, full misprediction
    /// penalty (the paper's baseline comparator).
    Monopath,
    /// Selective Eager Execution: diverge on low-confidence branches,
    /// arbitrarily many simultaneous divergence points (bounded by machine
    /// resources).
    #[default]
    See,
    /// Dual-path execution (paper §5.2): at most one unresolved divergence
    /// point — i.e. at most 3 simultaneous paths — mimicking Heil & Smith /
    /// Tyson–Lick–Farrens style proposals.
    DualPath,
}

/// Branch direction predictor selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorKind {
    /// gshare with `history_bits` of global history (baseline: 14).
    Gshare { history_bits: u32 },
    /// PC-indexed bimodal table (ablation).
    Bimodal { index_bits: u32 },
    /// Two-level local-history predictor (Yeh–Patt PAg; ablation).
    TwoLevelLocal { bht_bits: u32, history_bits: u32 },
    /// Agree predictor (Sprangle et al.; ablation).
    Agree { bias_bits: u32, history_bits: u32 },
    /// Perfect branch prediction from a pre-computed functional trace
    /// (the paper's "oracle" series).
    Oracle,
    /// Always predict taken (ablation).
    StaticTaken,
    /// Always predict not-taken (ablation).
    StaticNotTaken,
}

/// Confidence estimator selection (paper §3.2.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfidenceKind {
    /// Every prediction is high-confidence — never diverge. Combined with
    /// any predictor this degenerates to monopath behaviour.
    AlwaysHigh,
    /// The JRS resetting-counter estimator.
    Jrs(JrsConfig),
    /// JRS gated by its own recent PVN — the paper's §5.1 "lesson
    /// learned" (revert to monopath when the estimator errs too often),
    /// implemented as an extension.
    AdaptiveJrs(AdaptiveConfig),
    /// Zero-state confidence from the gshare counter itself (Grunwald et
    /// al., the paper's reference \[4\]): a prediction is diffident when its
    /// 2-bit counter is in a weak state. Requires a gshare predictor.
    Saturating,
    /// Perfect confidence: low exactly when the prediction is wrong
    /// (the paper's "gshare/oracle" series). Requires a functional trace.
    Oracle,
    /// Hard-to-predict-branch classifier (Bullseye/TAGE-flavoured tagged
    /// tables, post-paper extension): diffident only for branches with a
    /// recorded misprediction history, confident for everything else —
    /// the opposite cold-start bias to JRS. Requires a dynamic direction
    /// predictor to generate the mispredictions it classifies.
    H2p(H2pConfig),
}

/// Fetch bandwidth arbitration across live paths (paper §3.2.6 / §4.2;
/// the paper calls fetch policy "a topic of future work" — these variants
/// are the ablation space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FetchPolicy {
    /// The paper's stated policy: bandwidth decreases exponentially with
    /// a path's distance from the oldest branch, work-conserving.
    #[default]
    ExponentialByAge,
    /// Strict priority: the oldest path takes everything it can use;
    /// younger paths only get what it leaves.
    OldestFirst,
    /// One instruction per live path per round, oldest first.
    RoundRobin,
    /// Variable fetch rate by speculation depth (Ramachandran & Johnson
    /// flavoured, post-paper extension): a path's share halves with each
    /// unresolved fork on its ancestry — deeply speculative paths fetch
    /// slowly regardless of their age rank; work-conserving.
    VariableRate,
}

/// Functional unit counts (paper baseline: 4 of each type + 4 D-cache ports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuConfig {
    /// IntType0 ALUs (arithmetic/logic + the integer multiplier/divider,
    /// as on the 21164 E0 pipe).
    pub int0: usize,
    /// IntType1 ALUs (arithmetic/logic + branches/jumps, like 21164 E1).
    pub int1: usize,
    /// FP adder pipes.
    pub fp_add: usize,
    /// FP multiplier pipes (also execute FP division).
    pub fp_mul: usize,
    /// D-cache ports (loads and store address generation).
    pub mem_ports: usize,
}

impl FuConfig {
    /// The paper's baseline: 4 IntType0, 4 IntType1, 4 FPAdd, 4 FPMult,
    /// 4 memory ports.
    pub const fn baseline() -> Self {
        FuConfig {
            int0: 4,
            int1: 4,
            fp_add: 4,
            fp_mul: 4,
            mem_ports: 4,
        }
    }

    /// Fig. 11's uniform scaling: `n` units of each type and `n` ports.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "at least one functional unit of each type required");
        FuConfig {
            int0: n,
            int1: n,
            fp_add: n,
            fp_mul: n,
            mem_ports: n,
        }
    }
}

/// Operation latencies in cycles (derived from the Alpha 21164 hardware
/// reference manual, as the paper specifies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyConfig {
    /// Simple integer ops, branches, jumps, store address generation.
    pub int_alu: u32,
    /// Integer multiply.
    pub int_mul: u32,
    /// Integer divide (not pipelined).
    pub int_div: u32,
    /// Load-use latency (address computation + 1-cycle cache access).
    pub load: u32,
    /// FP add/subtract/convert.
    pub fp_add: u32,
    /// FP multiply.
    pub fp_mul: u32,
    /// FP divide (not pipelined).
    pub fp_div: u32,
}

impl LatencyConfig {
    /// 21164-flavoured latencies: int 1, mul 8, div 16, load 2, FP 4,
    /// FP div 16.
    pub const fn alpha21164() -> Self {
        LatencyConfig {
            int_alu: 1,
            int_mul: 8,
            int_div: 16,
            load: 2,
            fp_add: 4,
            fp_mul: 4,
            fp_div: 16,
        }
    }

    /// The largest configured operation latency (bounds how far into the
    /// future an issued instruction can schedule its writeback, before
    /// any cache-miss penalty is added).
    pub fn max_latency(&self) -> u32 {
        self.int_alu
            .max(self.int_mul)
            .max(self.int_div)
            .max(self.load)
            .max(self.fp_add)
            .max(self.fp_mul)
            .max(self.fp_div)
    }
}

/// Complete machine configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Execution model: monopath / SEE / dual-path.
    pub mode: ExecMode,
    /// Instructions fetched per cycle across all paths (baseline 8).
    pub fetch_width: usize,
    /// Instructions renamed/dispatched per cycle (baseline 8).
    pub dispatch_width: usize,
    /// Instructions committed per cycle (baseline 8).
    pub commit_width: usize,
    /// Central instruction window / reorder buffer entries (baseline 256).
    pub window_size: usize,
    /// Total pipeline depth in stages, 6..=12 (baseline 8). Depth is varied
    /// by changing the in-order front-end length, exactly as in Fig. 12.
    pub pipeline_depth: usize,
    /// Branch direction predictor.
    pub predictor: PredictorKind,
    /// Confidence estimator guiding SEE divergence.
    pub confidence: ConfidenceKind,
    /// Functional unit counts.
    pub fus: FuConfig,
    /// Operation latencies.
    pub latency: LatencyConfig,
    /// Fetch bandwidth arbitration policy.
    pub fetch_policy: FetchPolicy,
    /// Optional merge-point prediction (post-paper extension): forked
    /// paths park at the predicted reconvergence PC instead of racing
    /// their sibling to resolution, so post-merge instructions fetch
    /// once. `None` reproduces the paper's naive eager execution.
    pub merge: Option<MergeConfig>,
    /// Resolve branches at commit instead of at execute — the in-order
    /// resolution variant the paper attributes to the Pentium Pro (§3.1):
    /// simpler kill logic, longer misprediction penalty.
    pub resolve_at_commit: bool,
    /// Maximum simultaneous execution paths (CTX table entries).
    pub max_paths: usize,
    /// CTX tag history positions — bounds in-flight (uncommitted) branches.
    pub ctx_positions: usize,
    /// Physical registers. `0` means "window_size + 96" (always enough for
    /// every window entry to hold a result plus the committed map).
    pub phys_regs: usize,
    /// Hard cycle limit; the run aborts with `hit_cycle_limit` set.
    pub max_cycles: u64,
    /// Optional D-cache timing model (extension; `None` reproduces the
    /// paper's always-hit assumption).
    pub dcache: Option<crate::cache::CacheConfig>,
    /// Run the functional emulator in lock-step and assert that every
    /// committed instruction matches it (co-simulation).
    pub check_commits: bool,
    /// Run the per-cycle micro-architectural sanitizer: at the end of every
    /// cycle, re-derive the machine's structural invariants (CTX tag-index
    /// consistency, position ownership, wakeup/completion bookkeeping,
    /// store-buffer filtering, register free-list conservation) from
    /// scratch and panic on the first violation. Expensive — for debugging
    /// and fuzzing, not timing runs.
    pub sanitize: bool,
}

impl SimConfig {
    /// The paper's baseline machine with SEE enabled (gshare-14 + modified
    /// JRS estimator).
    pub fn baseline() -> Self {
        SimConfig {
            mode: ExecMode::See,
            fetch_width: 8,
            dispatch_width: 8,
            commit_width: 8,
            window_size: 256,
            pipeline_depth: 8,
            predictor: PredictorKind::Gshare { history_bits: 14 },
            confidence: ConfidenceKind::Jrs(JrsConfig::paper_baseline()),
            fus: FuConfig::baseline(),
            latency: LatencyConfig::alpha21164(),
            fetch_policy: FetchPolicy::ExponentialByAge,
            merge: None,
            resolve_at_commit: false,
            max_paths: 16,
            ctx_positions: 64,
            phys_regs: 0,
            max_cycles: 500_000_000,
            dcache: None,
            check_commits: false,
            sanitize: false,
        }
    }

    /// The paper's monopath comparator (gshare-14, no divergence).
    pub fn monopath_baseline() -> Self {
        SimConfig {
            mode: ExecMode::Monopath,
            confidence: ConfidenceKind::AlwaysHigh,
            ..Self::baseline()
        }
    }

    /// Builder-style: set the execution mode.
    ///
    /// This sets exactly what it names. A monopath machine ignores the
    /// confidence estimator, so `try_validate` rejects `Monopath`
    /// combined with anything but [`ConfidenceKind::AlwaysHigh`]
    /// ([`ConfigError::EstimatorUnusedInMonopath`]) instead of silently
    /// rewriting the estimator as earlier revisions did; start from
    /// [`Self::monopath_baseline`] for a valid monopath comparator.
    #[must_use]
    pub fn with_mode(mut self, mode: ExecMode) -> Self {
        self.mode = mode;
        self
    }

    /// Builder-style: set the window size.
    #[must_use]
    pub fn with_window_size(mut self, size: usize) -> Self {
        self.window_size = size;
        self
    }

    /// Builder-style: set the predictor.
    #[must_use]
    pub fn with_predictor(mut self, p: PredictorKind) -> Self {
        self.predictor = p;
        self
    }

    /// Builder-style: set the confidence estimator.
    #[must_use]
    pub fn with_confidence(mut self, c: ConfidenceKind) -> Self {
        self.confidence = c;
        self
    }

    /// Builder-style: set the functional unit configuration.
    #[must_use]
    pub fn with_fus(mut self, fus: FuConfig) -> Self {
        self.fus = fus;
        self
    }

    /// Builder-style: set the pipeline depth (6..=12 stages).
    #[must_use]
    pub fn with_pipeline_depth(mut self, depth: usize) -> Self {
        self.pipeline_depth = depth;
        self
    }

    /// Builder-style: enable lock-step co-simulation checking.
    #[must_use]
    pub fn with_commit_checking(mut self) -> Self {
        self.check_commits = true;
        self
    }

    /// Builder-style: enable the per-cycle micro-architectural sanitizer.
    #[must_use]
    pub fn with_sanitizer(mut self) -> Self {
        self.sanitize = true;
        self
    }

    /// Builder-style: set the fetch arbitration policy.
    #[must_use]
    pub fn with_fetch_policy(mut self, policy: FetchPolicy) -> Self {
        self.fetch_policy = policy;
        self
    }

    /// Builder-style: enable merge-point prediction (path reconvergence).
    #[must_use]
    pub fn with_merge(mut self, merge: MergeConfig) -> Self {
        self.merge = Some(merge);
        self
    }

    /// Builder-style: resolve branches at commit (in-order resolution).
    #[must_use]
    pub fn with_commit_time_resolution(mut self) -> Self {
        self.resolve_at_commit = true;
        self
    }

    /// Builder-style: enable the D-cache timing model.
    #[must_use]
    pub fn with_dcache(mut self, dcache: crate::cache::CacheConfig) -> Self {
        self.dcache = Some(dcache);
        self
    }

    /// Cycles spent in the in-order front-end between fetch and dispatch.
    ///
    /// The model charges 3 stages outside the front-end (window insert /
    /// issue, execute, commit), so an 8-stage pipeline has a 5-cycle
    /// front-end, and Fig. 12's 6–10 stage sweep maps to 3–7 cycles.
    pub fn frontend_latency(&self) -> u64 {
        (self.pipeline_depth.saturating_sub(3)).max(1) as u64
    }

    /// Effective physical register count (resolving the `0` default).
    pub fn effective_phys_regs(&self) -> usize {
        if self.phys_regs == 0 {
            self.window_size + 96
        } else {
            self.phys_regs
        }
    }

    /// Validate invariants, returning the first violation as a typed
    /// [`ConfigError`] instead of panicking.
    ///
    /// This is the machine-checkable path; [`Self::validate`] wraps it
    /// for call sites that treat a bad configuration as a caller bug.
    pub fn try_validate(&self) -> Result<(), ConfigError> {
        if self.fetch_width == 0 {
            return Err(ConfigError::ZeroWidth { stage: "fetch" });
        }
        if self.dispatch_width == 0 {
            return Err(ConfigError::ZeroWidth { stage: "dispatch" });
        }
        if self.commit_width == 0 {
            return Err(ConfigError::ZeroWidth { stage: "commit" });
        }
        if self.window_size < self.dispatch_width {
            return Err(ConfigError::WindowTooSmall {
                window: self.window_size,
                dispatch_width: self.dispatch_width,
            });
        }
        if !(4..=16).contains(&self.pipeline_depth) {
            return Err(ConfigError::PipelineDepthOutOfRange {
                depth: self.pipeline_depth,
            });
        }
        if self.max_paths < 1 {
            return Err(ConfigError::ZeroPaths);
        }
        if self.max_paths > 64 {
            return Err(ConfigError::TooManyPaths {
                max_paths: self.max_paths,
            });
        }
        if !(1..=pp_ctx::MAX_POSITIONS).contains(&self.ctx_positions) {
            return Err(ConfigError::CtxPositionsOutOfRange {
                positions: self.ctx_positions,
            });
        }
        if self.effective_phys_regs() < self.window_size + pp_isa::NUM_LOGICAL_REGS {
            return Err(ConfigError::TooFewPhysRegs {
                have: self.effective_phys_regs(),
                need: self.window_size + pp_isa::NUM_LOGICAL_REGS,
            });
        }
        if self.fus.int0 == 0 || self.fus.int1 == 0 || self.fus.mem_ports == 0 {
            return Err(ConfigError::MissingFunctionalUnits);
        }
        if self.confidence == ConfidenceKind::Saturating
            && !matches!(self.predictor, PredictorKind::Gshare { .. })
        {
            return Err(ConfigError::SaturatingNeedsGshare);
        }
        if self.mode == ExecMode::Monopath && self.confidence != ConfidenceKind::AlwaysHigh {
            return Err(ConfigError::EstimatorUnusedInMonopath);
        }
        if matches!(self.confidence, ConfidenceKind::H2p(_))
            && matches!(
                self.predictor,
                PredictorKind::Oracle | PredictorKind::StaticTaken | PredictorKind::StaticNotTaken
            )
        {
            return Err(ConfigError::H2pNeedsDynamicPredictor);
        }
        if self.merge.is_some() && self.mode == ExecMode::Monopath {
            return Err(ConfigError::MergeNeedsEagerMode);
        }
        if self.mode != ExecMode::Monopath
            && self.confidence != ConfidenceKind::AlwaysHigh
            && self.max_paths < 3
        {
            return Err(ConfigError::TooFewPathsForEager {
                max_paths: self.max_paths,
            });
        }
        Ok(())
    }

    /// Consume the builder chain, returning the validated configuration
    /// or the first [`ConfigError`]. The non-panicking finisher:
    ///
    /// ```
    /// use pp_core::SimConfig;
    /// let cfg = SimConfig::baseline().with_window_size(128).build().unwrap();
    /// assert!(SimConfig::baseline().with_pipeline_depth(2).build().is_err());
    /// ```
    pub fn build(self) -> Result<Self, ConfigError> {
        self.try_validate()?;
        Ok(self)
    }

    /// Validate invariants.
    ///
    /// # Panics
    /// Panics with a descriptive message on an inconsistent configuration
    /// (zero widths, window smaller than dispatch width, out-of-range
    /// pipeline depth, too few physical registers, etc.). Use
    /// [`Self::try_validate`] or [`Self::build`] when the configuration
    /// comes from user input rather than code.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// Canonical JSON rendering of the complete configuration: every
    /// field, in struct declaration order, integers/booleans/strings
    /// only — byte-stable across platforms and build profiles.
    ///
    /// Two configurations render identically iff they simulate
    /// identically, which makes this the configuration component of a
    /// sweep cell's cache fingerprint (`pp-sweep`); it is also written
    /// into each cache entry so a cached result remains auditable.
    pub fn to_canonical_json(&self) -> String {
        use std::fmt::Write as _;
        // Every config struct is destructured exhaustively (no `..`), so
        // a new field anywhere in the configuration is a compile error,
        // or an unused variable under `-D warnings`, until it is rendered
        // here (lint rule L4: the cache fingerprint stays complete).
        let SimConfig {
            mode,
            fetch_width,
            dispatch_width,
            commit_width,
            window_size,
            pipeline_depth,
            predictor,
            confidence,
            fus,
            latency,
            fetch_policy,
            merge,
            resolve_at_commit,
            max_paths,
            ctx_positions,
            phys_regs,
            max_cycles,
            dcache,
            check_commits,
            sanitize,
        } = self;
        // Every policy token comes from the one `policy` table per enum
        // (`Policy::name`), so a new variant cannot reach here with an
        // ad-hoc string.
        let pkind = predictor.name();
        let predictor = match *predictor {
            PredictorKind::Gshare { history_bits } => {
                format!("{{\"kind\": \"{pkind}\", \"history_bits\": {history_bits}}}")
            }
            PredictorKind::Bimodal { index_bits } => {
                format!("{{\"kind\": \"{pkind}\", \"index_bits\": {index_bits}}}")
            }
            PredictorKind::TwoLevelLocal {
                bht_bits,
                history_bits,
            } => format!(
                "{{\"kind\": \"{pkind}\", \"bht_bits\": {bht_bits}, \
                 \"history_bits\": {history_bits}}}"
            ),
            PredictorKind::Agree {
                bias_bits,
                history_bits,
            } => format!(
                "{{\"kind\": \"{pkind}\", \"bias_bits\": {bias_bits}, \
                 \"history_bits\": {history_bits}}}"
            ),
            PredictorKind::Oracle | PredictorKind::StaticTaken | PredictorKind::StaticNotTaken => {
                format!("{{\"kind\": \"{pkind}\"}}")
            }
        };
        let jrs = |&JrsConfig {
                       counter_bits,
                       threshold,
                       index_bits,
                       enhanced_index,
                   }: &JrsConfig| {
            format!(
                "\"counter_bits\": {counter_bits}, \"threshold\": {threshold}, \
                 \"index_bits\": {index_bits}, \"enhanced_index\": {enhanced_index}"
            )
        };
        let ckind = confidence.name();
        let confidence = match confidence {
            ConfidenceKind::AlwaysHigh | ConfidenceKind::Saturating | ConfidenceKind::Oracle => {
                format!("{{\"kind\": \"{ckind}\"}}")
            }
            ConfidenceKind::Jrs(j) => format!("{{\"kind\": \"{ckind}\", {}}}", jrs(j)),
            ConfidenceKind::AdaptiveJrs(AdaptiveConfig {
                inner,
                window,
                min_pvn_percent,
            }) => format!(
                "{{\"kind\": \"{ckind}\", {}, \"window\": {window}, \
                 \"min_pvn_percent\": {min_pvn_percent}}}",
                jrs(inner)
            ),
            ConfidenceKind::H2p(H2pConfig {
                table_bits,
                tag_bits,
                num_tables,
                counter_bits,
                threshold,
            }) => format!(
                "{{\"kind\": \"{ckind}\", \"table_bits\": {table_bits}, \"tag_bits\": {tag_bits}, \
                 \"num_tables\": {num_tables}, \"counter_bits\": {counter_bits}, \
                 \"threshold\": {threshold}}}"
            ),
        };
        let fus = {
            let FuConfig {
                int0,
                int1,
                fp_add,
                fp_mul,
                mem_ports,
            } = fus;
            format!(
                "{{\"int0\": {int0}, \"int1\": {int1}, \"fp_add\": {fp_add}, \"fp_mul\": {fp_mul}, \
                 \"mem_ports\": {mem_ports}}}"
            )
        };
        let latency = {
            let LatencyConfig {
                int_alu,
                int_mul,
                int_div,
                load,
                fp_add,
                fp_mul,
                fp_div,
            } = latency;
            format!(
                "{{\"int_alu\": {int_alu}, \"int_mul\": {int_mul}, \"int_div\": {int_div}, \
                 \"load\": {load}, \"fp_add\": {fp_add}, \"fp_mul\": {fp_mul}, \"fp_div\": {fp_div}}}"
            )
        };
        let merge = match merge {
            None => "null".to_string(),
            Some(MergeConfig {
                table_bits,
                tag_bits,
                counter_bits,
                threshold,
                hypothesis,
            }) => format!(
                "{{\"table_bits\": {table_bits}, \"tag_bits\": {tag_bits}, \
                 \"counter_bits\": {counter_bits}, \"threshold\": {threshold}, \
                 \"hypothesis\": \"{}\"}}",
                hypothesis.name()
            ),
        };
        let dcache = match dcache {
            None => "null".to_string(),
            Some(crate::cache::CacheConfig {
                sets_log2,
                ways,
                line_log2,
                miss_latency,
            }) => format!(
                "{{\"sets_log2\": {sets_log2}, \"ways\": {ways}, \"line_log2\": {line_log2}, \
                 \"miss_latency\": {miss_latency}}}"
            ),
        };
        let mut o = String::new();
        let _ = writeln!(o, "{{");
        let _ = writeln!(o, "  \"mode\": \"{}\",", mode.name());
        let _ = writeln!(o, "  \"fetch_width\": {fetch_width},");
        let _ = writeln!(o, "  \"dispatch_width\": {dispatch_width},");
        let _ = writeln!(o, "  \"commit_width\": {commit_width},");
        let _ = writeln!(o, "  \"window_size\": {window_size},");
        let _ = writeln!(o, "  \"pipeline_depth\": {pipeline_depth},");
        let _ = writeln!(o, "  \"predictor\": {predictor},");
        let _ = writeln!(o, "  \"confidence\": {confidence},");
        let _ = writeln!(o, "  \"fus\": {fus},");
        let _ = writeln!(o, "  \"latency\": {latency},");
        let _ = writeln!(o, "  \"fetch_policy\": \"{}\",", fetch_policy.name());
        let _ = writeln!(o, "  \"merge\": {merge},");
        let _ = writeln!(o, "  \"resolve_at_commit\": {resolve_at_commit},");
        let _ = writeln!(o, "  \"max_paths\": {max_paths},");
        let _ = writeln!(o, "  \"ctx_positions\": {ctx_positions},");
        let _ = writeln!(o, "  \"phys_regs\": {phys_regs},");
        let _ = writeln!(o, "  \"max_cycles\": {max_cycles},");
        let _ = writeln!(o, "  \"dcache\": {dcache},");
        let _ = writeln!(o, "  \"check_commits\": {check_commits},");
        let _ = writeln!(o, "  \"sanitize\": {sanitize}");
        let _ = writeln!(o, "}}");
        o
    }
}

/// A structural inconsistency in a [`SimConfig`], as found by
/// [`SimConfig::try_validate`].
///
/// The `Display` text of each variant is the message the panicking
/// [`SimConfig::validate`] path has always produced, so existing
/// `should_panic` expectations and log greps keep matching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A per-cycle width (`fetch_width`, `dispatch_width`,
    /// `commit_width`) is zero.
    ZeroWidth {
        /// Which stage's width is zero.
        stage: &'static str,
    },
    /// The window cannot hold one dispatch group.
    WindowTooSmall {
        /// Configured window entries.
        window: usize,
        /// Configured dispatch width.
        dispatch_width: usize,
    },
    /// `pipeline_depth` outside the modeled 4..=16 range.
    PipelineDepthOutOfRange {
        /// The rejected depth.
        depth: usize,
    },
    /// `max_paths` is zero.
    ZeroPaths,
    /// `max_paths` exceeds the 64 slots the CTX tag index can mask in
    /// one word.
    TooManyPaths {
        /// The rejected path count.
        max_paths: usize,
    },
    /// `ctx_positions` outside `1..=pp_ctx::MAX_POSITIONS`.
    CtxPositionsOutOfRange {
        /// The rejected position count.
        positions: usize,
    },
    /// Not enough physical registers for the window plus the committed
    /// map.
    TooFewPhysRegs {
        /// Effective physical registers configured.
        have: usize,
        /// Minimum required.
        need: usize,
    },
    /// A required functional-unit class (`int0`, `int1`, `mem_ports`)
    /// has zero units.
    MissingFunctionalUnits,
    /// `Saturating` confidence selected without a gshare predictor to
    /// read counters from.
    SaturatingNeedsGshare,
    /// A monopath machine configured with a confidence estimator it can
    /// never consult (earlier revisions silently rewrote the estimator
    /// to `AlwaysHigh`; now the contradiction is an error).
    EstimatorUnusedInMonopath,
    /// `H2p` classification selected with a predictor that produces no
    /// dynamic misprediction stream to classify (oracle/static).
    H2pNeedsDynamicPredictor,
    /// Merge-point prediction enabled in monopath mode, which never
    /// forks and so has nothing to merge.
    MergeNeedsEagerMode,
    /// An eager mode with a real estimator but fewer than 3 path slots.
    TooFewPathsForEager {
        /// The rejected path count.
        max_paths: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWidth { stage } => write!(f, "{stage} width must be nonzero"),
            ConfigError::WindowTooSmall {
                window,
                dispatch_width,
            } => write!(
                f,
                "window must hold at least one dispatch group \
                 ({window} entries < dispatch width {dispatch_width})"
            ),
            ConfigError::PipelineDepthOutOfRange { depth } => {
                write!(f, "pipeline depth must be in 4..=16 (got {depth})")
            }
            ConfigError::ZeroPaths => write!(f, "at least one path required"),
            ConfigError::TooManyPaths { max_paths } => write!(
                f,
                "at most 64 path slots (the CTX-table tag index uses one-word \
                 slot bitmasks; got {max_paths})"
            ),
            ConfigError::CtxPositionsOutOfRange { positions } => {
                write!(f, "ctx positions out of range (got {positions})")
            }
            ConfigError::TooFewPhysRegs { have, need } => write!(
                f,
                "need at least window_size + {} physical registers \
                 (have {have}, need {need})",
                pp_isa::NUM_LOGICAL_REGS
            ),
            ConfigError::MissingFunctionalUnits => write!(
                f,
                "need at least one of each integer unit and one memory port"
            ),
            ConfigError::SaturatingNeedsGshare => {
                write!(f, "saturating confidence reads the gshare counters")
            }
            ConfigError::EstimatorUnusedInMonopath => write!(
                f,
                "monopath never consults the confidence estimator; use \
                 always_high confidence (e.g. SimConfig::monopath_baseline())"
            ),
            ConfigError::H2pNeedsDynamicPredictor => write!(
                f,
                "h2p classification needs a dynamic direction predictor \
                 whose mispredictions it can learn"
            ),
            ConfigError::MergeNeedsEagerMode => write!(
                f,
                "merge-point prediction needs an eager execution mode \
                 (monopath never forks paths)"
            ),
            ConfigError::TooFewPathsForEager { max_paths } => write!(
                f,
                "eager execution needs at least 3 path slots (got {max_paths})"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

impl Default for SimConfig {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_paper() {
        let c = SimConfig::baseline();
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.window_size, 256);
        assert_eq!(c.pipeline_depth, 8);
        assert_eq!(c.fus, FuConfig::baseline());
        assert_eq!(c.predictor, PredictorKind::Gshare { history_bits: 14 });
        c.validate();
    }

    #[test]
    fn monopath_baseline_never_diverges() {
        let c = SimConfig::monopath_baseline();
        assert_eq!(c.mode, ExecMode::Monopath);
        assert_eq!(c.confidence, ConfidenceKind::AlwaysHigh);
        c.validate();
    }

    #[test]
    fn with_mode_no_longer_rewrites_the_estimator() {
        // The historic silent rewrite (Monopath forcing AlwaysHigh) is
        // gone: with_mode sets exactly what it names, and the
        // contradiction surfaces as a typed validation error instead.
        let c = SimConfig::baseline().with_mode(ExecMode::Monopath);
        assert_eq!(
            c.confidence,
            ConfidenceKind::Jrs(JrsConfig::paper_baseline())
        );
        assert_eq!(
            c.try_validate(),
            Err(ConfigError::EstimatorUnusedInMonopath)
        );
        // The explicit path stays valid.
        assert!(SimConfig::monopath_baseline().build().is_ok());
    }

    #[test]
    fn h2p_requires_a_dynamic_predictor() {
        let h2p = ConfidenceKind::H2p(H2pConfig::bullseye_default());
        assert_eq!(
            SimConfig::baseline()
                .with_confidence(h2p)
                .with_predictor(PredictorKind::Oracle)
                .build(),
            Err(ConfigError::H2pNeedsDynamicPredictor)
        );
        assert_eq!(
            SimConfig::baseline()
                .with_confidence(h2p)
                .with_predictor(PredictorKind::StaticTaken)
                .build(),
            Err(ConfigError::H2pNeedsDynamicPredictor)
        );
        assert!(SimConfig::baseline().with_confidence(h2p).build().is_ok());
    }

    #[test]
    fn merge_requires_an_eager_mode() {
        assert_eq!(
            SimConfig::monopath_baseline()
                .with_merge(MergeConfig::paper_default())
                .build(),
            Err(ConfigError::MergeNeedsEagerMode)
        );
        assert!(SimConfig::baseline()
            .with_merge(MergeConfig::paper_default())
            .build()
            .is_ok());
        assert!(SimConfig::baseline()
            .with_mode(ExecMode::DualPath)
            .with_merge(MergeConfig::paper_default())
            .build()
            .is_ok());
    }

    #[test]
    fn frontend_latency_tracks_depth() {
        assert_eq!(SimConfig::baseline().frontend_latency(), 5);
        assert_eq!(
            SimConfig::baseline()
                .with_pipeline_depth(6)
                .frontend_latency(),
            3
        );
        assert_eq!(
            SimConfig::baseline()
                .with_pipeline_depth(10)
                .frontend_latency(),
            7
        );
    }

    #[test]
    fn effective_phys_regs_default() {
        let c = SimConfig::baseline();
        assert_eq!(c.effective_phys_regs(), 256 + 96);
        let c = SimConfig {
            phys_regs: 512,
            ..SimConfig::baseline()
        };
        assert_eq!(c.effective_phys_regs(), 512);
    }

    #[test]
    fn uniform_fu_scaling() {
        let f = FuConfig::uniform(2);
        assert_eq!(f.int0, 2);
        assert_eq!(f.mem_ports, 2);
    }

    #[test]
    #[should_panic(expected = "pipeline depth")]
    fn validate_rejects_silly_depth() {
        SimConfig::baseline().with_pipeline_depth(2).validate();
    }

    #[test]
    #[should_panic(expected = "path slots")]
    fn validate_rejects_see_with_too_few_paths() {
        let c = SimConfig {
            max_paths: 2,
            ..SimConfig::baseline()
        };
        c.validate();
    }

    #[test]
    fn build_accepts_valid_and_types_errors() {
        assert!(SimConfig::baseline().build().is_ok());
        assert_eq!(
            SimConfig::baseline().with_pipeline_depth(2).build(),
            Err(ConfigError::PipelineDepthOutOfRange { depth: 2 })
        );
        assert_eq!(
            SimConfig {
                max_paths: 0,
                ..SimConfig::baseline()
            }
            .try_validate(),
            Err(ConfigError::ZeroPaths)
        );
        assert_eq!(
            SimConfig {
                max_paths: 65,
                ..SimConfig::baseline()
            }
            .try_validate(),
            Err(ConfigError::TooManyPaths { max_paths: 65 })
        );
        assert_eq!(
            SimConfig {
                fetch_width: 0,
                ..SimConfig::baseline()
            }
            .try_validate(),
            Err(ConfigError::ZeroWidth { stage: "fetch" })
        );
        assert_eq!(
            SimConfig {
                window_size: 4,
                ..SimConfig::baseline()
            }
            .try_validate(),
            Err(ConfigError::WindowTooSmall {
                window: 4,
                dispatch_width: 8
            })
        );
        assert_eq!(
            SimConfig::baseline()
                .with_confidence(ConfidenceKind::Saturating)
                .with_predictor(PredictorKind::Oracle)
                .build(),
            Err(ConfigError::SaturatingNeedsGshare)
        );
    }

    #[test]
    fn config_error_display_matches_historic_panics() {
        // The panicking validate() path produces these exact substrings;
        // downstream should_panic expectations depend on them.
        for (err, needle) in [
            (
                ConfigError::PipelineDepthOutOfRange { depth: 2 },
                "pipeline depth must be in 4..=16",
            ),
            (ConfigError::TooManyPaths { max_paths: 65 }, "path slots"),
            (
                ConfigError::TooFewPathsForEager { max_paths: 2 },
                "at least 3 path slots",
            ),
            (
                ConfigError::ZeroWidth { stage: "fetch" },
                "fetch width must be nonzero",
            ),
            (ConfigError::ZeroPaths, "at least one path required"),
            (
                ConfigError::EstimatorUnusedInMonopath,
                "monopath never consults the confidence estimator",
            ),
            (
                ConfigError::H2pNeedsDynamicPredictor,
                "dynamic direction predictor",
            ),
            (ConfigError::MergeNeedsEagerMode, "monopath never forks"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn canonical_json_is_stable_and_distinguishes_configs() {
        let a = SimConfig::baseline();
        assert_eq!(a.to_canonical_json(), a.clone().to_canonical_json());
        // Every named field appears.
        let j = a.to_canonical_json();
        for key in [
            "mode",
            "fetch_width",
            "dispatch_width",
            "commit_width",
            "window_size",
            "pipeline_depth",
            "predictor",
            "confidence",
            "fus",
            "latency",
            "fetch_policy",
            "merge",
            "resolve_at_commit",
            "max_paths",
            "ctx_positions",
            "phys_regs",
            "max_cycles",
            "dcache",
            "check_commits",
            "sanitize",
        ] {
            assert!(j.contains(&format!("\"{key}\":")), "missing {key} in {j}");
        }
        // Any field change must change the rendering (the sweep cache
        // fingerprints hang off this).
        let variants = [
            a.clone().with_window_size(128),
            a.clone().with_mode(ExecMode::Monopath),
            a.clone().with_pipeline_depth(10),
            a.clone()
                .with_predictor(PredictorKind::Bimodal { index_bits: 12 }),
            a.clone().with_confidence(ConfidenceKind::Oracle),
            a.clone()
                .with_confidence(ConfidenceKind::H2p(H2pConfig::bullseye_default())),
            a.clone().with_fetch_policy(FetchPolicy::RoundRobin),
            a.clone().with_fetch_policy(FetchPolicy::VariableRate),
            a.clone().with_merge(MergeConfig::paper_default()),
            a.clone()
                .with_merge(MergeConfig::paper_default().with_static_ipdom()),
            a.clone().with_commit_time_resolution(),
            a.clone().with_dcache(crate::cache::CacheConfig::l1_8k()),
            a.clone().with_fus(FuConfig::uniform(2)),
        ];
        for v in &variants {
            assert_ne!(v.to_canonical_json(), j, "{v:?} rendered like baseline");
        }
        // The hypothesis axis alone must separate two merge configs.
        let heur = a.clone().with_merge(MergeConfig::paper_default());
        let oracle = a
            .clone()
            .with_merge(MergeConfig::paper_default().with_static_ipdom());
        assert_ne!(heur.to_canonical_json(), oracle.to_canonical_json());
    }

    /// The sweep cache fingerprints hang off these bytes: the baseline,
    /// every policy token of every axis, and the optional sections.
    #[test]
    fn canonical_json_bytes_are_pinned() {
        fn render(out: &mut String, label: &str, c: &SimConfig) {
            out.push_str(&format!("## {label}\n{}", c.to_canonical_json()));
        }
        fn axis<P: crate::policy::Policy>(
            out: &mut String,
            set: impl Fn(SimConfig, P) -> SimConfig,
        ) {
            for p in P::all() {
                let label = format!("{}={}", P::AXIS, p.name());
                render(out, &label, &set(SimConfig::baseline(), p));
            }
        }
        let base = SimConfig::baseline();
        let mut out = String::new();
        render(&mut out, "baseline", &base);
        axis(&mut out, SimConfig::with_mode);
        axis(&mut out, SimConfig::with_fetch_policy);
        axis(&mut out, SimConfig::with_predictor);
        axis(&mut out, SimConfig::with_confidence);
        axis(&mut out, |c, hypothesis| {
            c.with_merge(MergeConfig {
                hypothesis,
                ..MergeConfig::paper_default()
            })
        });
        let l1 = crate::cache::CacheConfig::l1_8k();
        render(&mut out, "dcache=l1_8k", &base.clone().with_dcache(l1));
        let late = base.clone().with_commit_time_resolution();
        render(&mut out, "resolve_at_commit", &late);
        render(
            &mut out,
            "fus=uniform(2)",
            &base.with_fus(FuConfig::uniform(2)),
        );
        let path = pp_testutil::golden::golden_dir().join("canonical_json.txt");
        pp_testutil::golden::check_golden(&path, &out);
    }

    #[test]
    fn latencies_match_21164_table() {
        let l = LatencyConfig::alpha21164();
        assert_eq!(l.int_alu, 1);
        assert_eq!(l.int_mul, 8);
        assert_eq!(l.load, 2);
        assert_eq!(l.fp_add, 4);
    }
}
