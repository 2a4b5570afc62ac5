//! Simulation statistics and derived metrics.
//!
//! Everything the paper's evaluation section reports is computed from these
//! counters: IPC (all figures), misprediction rate (Table 1), fetched vs.
//! committed instructions and "useless" instructions (§3.1, §5.1), the
//! confidence-estimator truth table and PVN (§5.1), path utilization
//! (§5.2), functional unit utilization (§5.3.3), and window occupancy
//! (§5.3.2).

use crate::json;

/// Per-functional-unit-class busy accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuBusy {
    /// Issue slots used, summed over cycles.
    pub busy_cycles: u64,
    /// Issue slots available, summed over cycles (units × cycles).
    pub capacity_cycles: u64,
}

impl FuBusy {
    /// Utilization in 0..=1.
    pub fn utilization(&self) -> f64 {
        if self.capacity_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.capacity_cycles as f64
        }
    }
}

/// Counters collected by one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Cycles simulated until the `halt` committed (or the limit hit).
    pub cycles: u64,
    /// `true` if the run aborted at the configured cycle limit.
    pub hit_cycle_limit: bool,

    /// Instructions fetched into the front-end (all paths).
    pub fetched_instructions: u64,
    /// Instructions renamed and inserted into the window.
    pub dispatched_instructions: u64,
    /// Instructions retired architecturally.
    pub committed_instructions: u64,
    /// Instructions killed (wrong path), front-end + window.
    pub killed_instructions: u64,

    /// Committed conditional branches.
    pub committed_branches: u64,
    /// Committed conditional branches whose predicted direction was wrong.
    pub mispredicted_branches: u64,
    /// Committed indirect control transfers (`ret`/`jr`) whose predicted
    /// target (RAS / BTB) was wrong.
    pub mispredicted_returns: u64,
    /// Full misprediction-recovery events (resolution redirects of
    /// non-diverged branches and returns, correct path only … i.e. the
    /// recoveries that actually cost the machine cycles).
    pub recoveries: u64,

    /// Divergences created at fetch.
    pub divergences: u64,
    /// Confidence truth table over committed conditional branches:
    /// estimator said low and the prediction was incorrect (good divergence).
    pub low_conf_incorrect: u64,
    /// Estimator said low but the prediction was correct (wasted divergence).
    pub low_conf_correct: u64,
    /// Estimator said high and the prediction was incorrect (full penalty).
    pub high_conf_incorrect: u64,
    /// Estimator said high and the prediction was correct (ideal case).
    pub high_conf_correct: u64,

    /// `path_cycles[k]` = cycles during which exactly `k` paths were live
    /// (index 0 unused in practice; the vector grows as needed).
    pub path_cycles: Vec<u64>,
    /// Largest number of simultaneously live paths observed.
    pub max_live_paths: usize,

    /// Sum over cycles of live window entries (occupancy / cycles = mean).
    pub window_occupancy_sum: u64,

    /// IntType0 issue-slot busy accounting.
    pub fu_int0: FuBusy,
    /// IntType1 issue-slot busy accounting.
    pub fu_int1: FuBusy,
    /// FPAdd issue-slot busy accounting.
    pub fu_fp_add: FuBusy,
    /// FPMult issue-slot busy accounting.
    pub fu_fp_mul: FuBusy,
    /// D-cache port busy accounting.
    pub fu_mem: FuBusy,

    /// Cycles × missing fetch opportunities, by cause.
    pub fetch_stall_no_path: u64,
    /// Branch fetches delayed because no CTX position was free.
    pub fetch_stall_no_ctx: u64,
    /// Dispatch stalls because the window was full (cycle granularity).
    pub dispatch_stall_window_full: u64,

    /// D-cache model (when enabled): load hits.
    pub dcache_hits: u64,
    /// D-cache model (when enabled): load misses.
    pub dcache_misses: u64,
}

impl SimStats {
    /// Committed instructions per cycle — the paper's headline metric.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_instructions as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch misprediction rate over committed branches
    /// (Table 1's "Branch misprediction" column).
    pub fn mispredict_rate(&self) -> f64 {
        if self.committed_branches == 0 {
            0.0
        } else {
            self.mispredicted_branches as f64 / self.committed_branches as f64
        }
    }

    /// Ratio of fetched to committed instructions (§3.1 reports 1.86 for
    /// the monopath baseline).
    pub fn fetched_per_committed(&self) -> f64 {
        if self.committed_instructions == 0 {
            0.0
        } else {
            self.fetched_instructions as f64 / self.committed_instructions as f64
        }
    }

    /// "Useless" instructions (§5.1): fetched but never committed.
    pub fn useless_instructions(&self) -> u64 {
        self.fetched_instructions
            .saturating_sub(self.committed_instructions)
    }

    /// Predictive Value of a Negative test (paper footnote 1): the fraction
    /// of low-confidence estimates that were actually mispredictions.
    pub fn pvn(&self) -> f64 {
        let low = self.low_conf_incorrect + self.low_conf_correct;
        if low == 0 {
            0.0
        } else {
            self.low_conf_incorrect as f64 / low as f64
        }
    }

    /// Sensitivity (SPEC in the confidence literature): fraction of
    /// mispredictions that were flagged low-confidence.
    pub fn sensitivity(&self) -> f64 {
        let wrong = self.low_conf_incorrect + self.high_conf_incorrect;
        if wrong == 0 {
            0.0
        } else {
            self.low_conf_incorrect as f64 / wrong as f64
        }
    }

    /// Mean number of live paths per cycle (§5.2 reports 2.9 for SEE).
    pub fn mean_active_paths(&self) -> f64 {
        let cycles: u64 = self.path_cycles.iter().sum();
        if cycles == 0 {
            return 0.0;
        }
        let weighted: u64 = self
            .path_cycles
            .iter()
            .enumerate()
            .map(|(k, c)| k as u64 * c)
            .sum();
        weighted as f64 / cycles as f64
    }

    /// Fraction of cycles with at most `k` live paths (§5.2: ≤3 paths
    /// ~75% of the time).
    pub fn paths_at_most(&self, k: usize) -> f64 {
        let cycles: u64 = self.path_cycles.iter().sum();
        if cycles == 0 {
            return 0.0;
        }
        let within: u64 = self.path_cycles.iter().take(k + 1).sum();
        within as f64 / cycles as f64
    }

    /// D-cache miss rate over loads (0 when the model is disabled).
    pub fn dcache_miss_rate(&self) -> f64 {
        let total = self.dcache_hits + self.dcache_misses;
        if total == 0 {
            0.0
        } else {
            self.dcache_misses as f64 / total as f64
        }
    }

    /// Mean instruction window occupancy (§5.3.2: saturates ≈145 with
    /// gshare at baseline).
    pub fn mean_window_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.window_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// A multi-line human-readable report of the run — the numbers the
    /// paper's evaluation discusses, in one place.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::new();
        let _ = writeln!(o, "cycles                 {:>12}", self.cycles);
        let _ = writeln!(
            o,
            "committed              {:>12}",
            self.committed_instructions
        );
        let _ = writeln!(o, "IPC                    {:>12.3}", self.ipc());
        let _ = writeln!(
            o,
            "fetched                {:>12}  ({:.2}x committed)",
            self.fetched_instructions,
            self.fetched_per_committed()
        );
        let _ = writeln!(o, "killed (wrong path)    {:>12}", self.killed_instructions);
        let _ = writeln!(
            o,
            "branches               {:>12}  ({:.2}% mispredicted)",
            self.committed_branches,
            100.0 * self.mispredict_rate()
        );
        let _ = writeln!(o, "recoveries             {:>12}", self.recoveries);
        let _ = writeln!(o, "divergences            {:>12}", self.divergences);
        if self.low_conf_correct + self.low_conf_incorrect > 0 {
            let _ = writeln!(
                o,
                "confidence PVN         {:>11.1}%  (sensitivity {:.1}%)",
                100.0 * self.pvn(),
                100.0 * self.sensitivity()
            );
        }
        let _ = writeln!(
            o,
            "mean active paths      {:>12.2}  (max {})",
            self.mean_active_paths(),
            self.max_live_paths
        );
        let _ = writeln!(
            o,
            "mean window occupancy  {:>12.1}",
            self.mean_window_occupancy()
        );
        let _ = writeln!(
            o,
            "IntType0 utilization   {:>11.1}%",
            100.0 * self.fu_int0.utilization()
        );
        let _ = writeln!(
            o,
            "IntType1 utilization   {:>11.1}%",
            100.0 * self.fu_int1.utilization()
        );
        let _ = writeln!(
            o,
            "mem port utilization   {:>11.1}%",
            100.0 * self.fu_mem.utilization()
        );
        if self.dcache_hits + self.dcache_misses > 0 {
            let _ = writeln!(
                o,
                "D-cache miss rate      {:>11.1}%",
                100.0 * self.dcache_miss_rate()
            );
        }
        o
    }

    /// Canonical JSON rendering of every raw counter, one field per
    /// line, in struct declaration order.
    ///
    /// This is the golden-snapshot format: all fields are integers or
    /// booleans, so the text is bit-exact across platforms and build
    /// profiles — any behavioral change to the simulator shows up as a
    /// line-level diff. Derived metrics (IPC, rates) are deliberately
    /// excluded: they are pure functions of these counters.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let fu = |b: &FuBusy| {
            format!(
                "{{\"busy_cycles\": {}, \"capacity_cycles\": {}}}",
                b.busy_cycles, b.capacity_cycles
            )
        };
        let path_cycles: Vec<String> = self.path_cycles.iter().map(u64::to_string).collect();
        let mut o = String::new();
        let _ = writeln!(o, "{{");
        let _ = writeln!(o, "  \"cycles\": {},", self.cycles);
        let _ = writeln!(o, "  \"hit_cycle_limit\": {},", self.hit_cycle_limit);
        let _ = writeln!(
            o,
            "  \"fetched_instructions\": {},",
            self.fetched_instructions
        );
        let _ = writeln!(
            o,
            "  \"dispatched_instructions\": {},",
            self.dispatched_instructions
        );
        let _ = writeln!(
            o,
            "  \"committed_instructions\": {},",
            self.committed_instructions
        );
        let _ = writeln!(
            o,
            "  \"killed_instructions\": {},",
            self.killed_instructions
        );
        let _ = writeln!(o, "  \"committed_branches\": {},", self.committed_branches);
        let _ = writeln!(
            o,
            "  \"mispredicted_branches\": {},",
            self.mispredicted_branches
        );
        let _ = writeln!(
            o,
            "  \"mispredicted_returns\": {},",
            self.mispredicted_returns
        );
        let _ = writeln!(o, "  \"recoveries\": {},", self.recoveries);
        let _ = writeln!(o, "  \"divergences\": {},", self.divergences);
        let _ = writeln!(o, "  \"low_conf_incorrect\": {},", self.low_conf_incorrect);
        let _ = writeln!(o, "  \"low_conf_correct\": {},", self.low_conf_correct);
        let _ = writeln!(
            o,
            "  \"high_conf_incorrect\": {},",
            self.high_conf_incorrect
        );
        let _ = writeln!(o, "  \"high_conf_correct\": {},", self.high_conf_correct);
        let _ = writeln!(o, "  \"path_cycles\": [{}],", path_cycles.join(", "));
        let _ = writeln!(o, "  \"max_live_paths\": {},", self.max_live_paths);
        let _ = writeln!(
            o,
            "  \"window_occupancy_sum\": {},",
            self.window_occupancy_sum
        );
        let _ = writeln!(o, "  \"fu_int0\": {},", fu(&self.fu_int0));
        let _ = writeln!(o, "  \"fu_int1\": {},", fu(&self.fu_int1));
        let _ = writeln!(o, "  \"fu_fp_add\": {},", fu(&self.fu_fp_add));
        let _ = writeln!(o, "  \"fu_fp_mul\": {},", fu(&self.fu_fp_mul));
        let _ = writeln!(o, "  \"fu_mem\": {},", fu(&self.fu_mem));
        let _ = writeln!(
            o,
            "  \"fetch_stall_no_path\": {},",
            self.fetch_stall_no_path
        );
        let _ = writeln!(o, "  \"fetch_stall_no_ctx\": {},", self.fetch_stall_no_ctx);
        let _ = writeln!(
            o,
            "  \"dispatch_stall_window_full\": {},",
            self.dispatch_stall_window_full
        );
        let _ = writeln!(o, "  \"dcache_hits\": {},", self.dcache_hits);
        let _ = writeln!(o, "  \"dcache_misses\": {}", self.dcache_misses);
        let _ = writeln!(o, "}}");
        o
    }

    /// Parse the [`Self::to_json`] rendering back into a `SimStats`.
    ///
    /// The exact inverse of `to_json` — `from_json(&s.to_json()) == s` —
    /// which is what lets the sweep result cache (`pp-sweep`) hand back
    /// *byte-identical* merged outputs from cached cells. The parser is
    /// deliberately strict: an unknown or missing key is an error, so a
    /// cache entry written by a different stats schema fails to load
    /// (and the cell reruns) instead of resurrecting half a result.
    pub fn from_json(text: &str) -> Result<SimStats, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let members = root.as_object().ok_or("SimStats JSON is not an object")?;
        let mut s = SimStats::default();
        for (key, v) in members {
            let u = || {
                v.as_u64()
                    .ok_or_else(|| format!("SimStats field {key:?} is not an unsigned integer"))
            };
            match key.as_str() {
                "cycles" => s.cycles = u()?,
                "hit_cycle_limit" => {
                    s.hit_cycle_limit = v
                        .as_bool()
                        .ok_or("SimStats field \"hit_cycle_limit\" is not a boolean")?;
                }
                "fetched_instructions" => s.fetched_instructions = u()?,
                "dispatched_instructions" => s.dispatched_instructions = u()?,
                "committed_instructions" => s.committed_instructions = u()?,
                "killed_instructions" => s.killed_instructions = u()?,
                "committed_branches" => s.committed_branches = u()?,
                "mispredicted_branches" => s.mispredicted_branches = u()?,
                "mispredicted_returns" => s.mispredicted_returns = u()?,
                "recoveries" => s.recoveries = u()?,
                "divergences" => s.divergences = u()?,
                "low_conf_incorrect" => s.low_conf_incorrect = u()?,
                "low_conf_correct" => s.low_conf_correct = u()?,
                "high_conf_incorrect" => s.high_conf_incorrect = u()?,
                "high_conf_correct" => s.high_conf_correct = u()?,
                "path_cycles" => {
                    s.path_cycles = v
                        .as_array()
                        .and_then(|a| a.iter().map(json::Value::as_u64).collect())
                        .ok_or("SimStats field \"path_cycles\" is not an unsigned-integer array")?;
                }
                "max_live_paths" => {
                    s.max_live_paths = usize::try_from(u()?).map_err(|e| e.to_string())?;
                }
                "window_occupancy_sum" => s.window_occupancy_sum = u()?,
                "fu_int0" => s.fu_int0 = fu_busy(v)?,
                "fu_int1" => s.fu_int1 = fu_busy(v)?,
                "fu_fp_add" => s.fu_fp_add = fu_busy(v)?,
                "fu_fp_mul" => s.fu_fp_mul = fu_busy(v)?,
                "fu_mem" => s.fu_mem = fu_busy(v)?,
                "fetch_stall_no_path" => s.fetch_stall_no_path = u()?,
                "fetch_stall_no_ctx" => s.fetch_stall_no_ctx = u()?,
                "dispatch_stall_window_full" => s.dispatch_stall_window_full = u()?,
                "dcache_hits" => s.dcache_hits = u()?,
                "dcache_misses" => s.dcache_misses = u()?,
                other => return Err(format!("unknown SimStats field {other:?}")),
            }
        }
        // The reader already refused duplicate keys, and every key is
        // known, so a short count means a missing field.
        if members.len() != 28 {
            let seen: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
            return Err(format!(
                "expected 28 SimStats fields, found {} ({seen:?})",
                members.len()
            ));
        }
        Ok(s)
    }

    /// Record a cycle with `live` paths.
    pub fn record_path_count(&mut self, live: usize) {
        if self.path_cycles.len() <= live {
            self.path_cycles.resize(live + 1, 0);
        }
        self.path_cycles[live] += 1;
        self.max_live_paths = self.max_live_paths.max(live);
    }
}

/// A [`FuBusy`] object: exactly `busy_cycles` and `capacity_cycles`.
fn fu_busy(v: &json::Value) -> Result<FuBusy, String> {
    let members = v.as_object().ok_or("FuBusy is not an object")?;
    if let Some((other, _)) = members
        .iter()
        .find(|(k, _)| k != "busy_cycles" && k != "capacity_cycles")
    {
        return Err(format!("unknown FuBusy field {other:?}"));
    }
    match (
        v.get("busy_cycles").and_then(json::Value::as_u64),
        v.get("capacity_cycles").and_then(json::Value::as_u64),
    ) {
        (Some(busy_cycles), Some(capacity_cycles)) => Ok(FuBusy {
            busy_cycles,
            capacity_cycles,
        }),
        _ => Err("FuBusy missing busy_cycles or capacity_cycles".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_rates() {
        let s = SimStats {
            cycles: 100,
            committed_instructions: 250,
            fetched_instructions: 400,
            committed_branches: 50,
            mispredicted_branches: 5,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.mispredict_rate() - 0.1).abs() < 1e-12);
        assert!((s.fetched_per_committed() - 1.6).abs() < 1e-12);
        assert_eq!(s.useless_instructions(), 150);
    }

    #[test]
    fn zero_cycle_run_is_all_zeros() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_rate(), 0.0);
        assert_eq!(s.pvn(), 0.0);
        assert_eq!(s.mean_active_paths(), 0.0);
    }

    #[test]
    fn pvn_and_sensitivity() {
        let s = SimStats {
            low_conf_incorrect: 40,
            low_conf_correct: 60,
            high_conf_incorrect: 10,
            high_conf_correct: 890,
            ..Default::default()
        };
        assert!((s.pvn() - 0.4).abs() < 1e-12);
        assert!((s.sensitivity() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn path_histogram() {
        let mut s = SimStats::default();
        s.record_path_count(1);
        s.record_path_count(1);
        s.record_path_count(3);
        s.record_path_count(5);
        assert_eq!(s.max_live_paths, 5);
        assert!((s.mean_active_paths() - 2.5).abs() < 1e-12);
        assert!((s.paths_at_most(3) - 0.75).abs() < 1e-12);
        assert!((s.paths_at_most(0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn fu_utilization() {
        let b = FuBusy {
            busy_cycles: 75,
            capacity_cycles: 100,
        };
        assert!((b.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(FuBusy::default().utilization(), 0.0);
    }

    #[test]
    fn summary_contains_key_metrics() {
        let mut s = SimStats {
            cycles: 100,
            committed_instructions: 250,
            fetched_instructions: 400,
            committed_branches: 50,
            mispredicted_branches: 5,
            divergences: 7,
            low_conf_correct: 3,
            low_conf_incorrect: 2,
            ..Default::default()
        };
        s.record_path_count(2);
        let text = s.summary();
        assert!(text.contains("IPC"));
        assert!(text.contains("2.500"));
        assert!(text.contains("divergences"));
        assert!(text.contains("PVN"));
        // No D-cache line when the model is off.
        assert!(!text.contains("D-cache"));
        s.dcache_misses = 1;
        assert!(s.summary().contains("D-cache"));
    }

    #[test]
    fn to_json_covers_every_field_and_is_stable() {
        let mut s = SimStats {
            cycles: 100,
            committed_instructions: 250,
            fu_mem: FuBusy {
                busy_cycles: 7,
                capacity_cycles: 200,
            },
            ..Default::default()
        };
        s.record_path_count(2);
        let j = s.to_json();
        // One "key": line per struct field (FuBusy inlined as objects).
        for key in [
            "cycles",
            "hit_cycle_limit",
            "fetched_instructions",
            "dispatched_instructions",
            "committed_instructions",
            "killed_instructions",
            "committed_branches",
            "mispredicted_branches",
            "mispredicted_returns",
            "recoveries",
            "divergences",
            "low_conf_incorrect",
            "low_conf_correct",
            "high_conf_incorrect",
            "high_conf_correct",
            "path_cycles",
            "max_live_paths",
            "window_occupancy_sum",
            "fu_int0",
            "fu_int1",
            "fu_fp_add",
            "fu_fp_mul",
            "fu_mem",
            "fetch_stall_no_path",
            "fetch_stall_no_ctx",
            "dispatch_stall_window_full",
            "dcache_hits",
            "dcache_misses",
        ] {
            assert!(j.contains(&format!("\"{key}\":")), "missing {key} in {j}");
        }
        assert!(j.contains("\"path_cycles\": [0, 0, 1],"), "{j}");
        assert!(
            j.contains("{\"busy_cycles\": 7, \"capacity_cycles\": 200}"),
            "{j}"
        );
        // Identical stats render identically (byte-stable snapshots).
        assert_eq!(j, s.clone().to_json());
    }

    #[test]
    fn from_json_is_the_exact_inverse_of_to_json() {
        let mut s = SimStats {
            cycles: 123_456,
            hit_cycle_limit: true,
            fetched_instructions: 99,
            dispatched_instructions: 88,
            committed_instructions: 77,
            killed_instructions: 11,
            committed_branches: 10,
            mispredicted_branches: 3,
            mispredicted_returns: 1,
            recoveries: 2,
            divergences: 5,
            low_conf_incorrect: 4,
            low_conf_correct: 6,
            high_conf_incorrect: 1,
            high_conf_correct: 9,
            window_occupancy_sum: 1000,
            fu_int0: FuBusy {
                busy_cycles: 1,
                capacity_cycles: 2,
            },
            fu_mem: FuBusy {
                busy_cycles: 3,
                capacity_cycles: 4,
            },
            fetch_stall_no_path: 7,
            fetch_stall_no_ctx: 8,
            dispatch_stall_window_full: 9,
            dcache_hits: 20,
            dcache_misses: 21,
            ..Default::default()
        };
        s.record_path_count(3);
        s.record_path_count(1);
        let parsed = SimStats::from_json(&s.to_json()).expect("round trip");
        assert_eq!(parsed, s);
        // And re-rendering the parse is byte-identical — the cache's
        // byte-stability contract.
        assert_eq!(parsed.to_json(), s.to_json());
        // Default (empty path_cycles) round-trips too.
        let d = SimStats::default();
        assert_eq!(SimStats::from_json(&d.to_json()).unwrap(), d);
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        let good = SimStats::default().to_json();
        // Truncation.
        assert!(SimStats::from_json(&good[..good.len() / 2]).is_err());
        // Unknown field.
        let unknown = good.replace("\"cycles\"", "\"cylces\"");
        let err = SimStats::from_json(&unknown).unwrap_err();
        assert!(err.contains("cylces"), "{err}");
        // Missing field (drop one line).
        let missing: String = good
            .lines()
            .filter(|l| !l.contains("dcache_misses"))
            .collect::<Vec<_>>()
            .join("\n")
            .replace("\"dcache_hits\": 0,", "\"dcache_hits\": 0");
        let err = SimStats::from_json(&missing).unwrap_err();
        assert!(err.contains("27"), "{err}");
        // Duplicated field.
        let dup = good.replace(
            "\"recoveries\": 0,",
            "\"recoveries\": 0, \"recoveries\": 0,",
        );
        let err = SimStats::from_json(&dup).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
        // Trailing garbage.
        assert!(SimStats::from_json(&format!("{good} x")).is_err());
    }

    #[test]
    fn window_occupancy() {
        let s = SimStats {
            cycles: 10,
            window_occupancy_sum: 1450,
            ..Default::default()
        };
        assert!((s.mean_window_occupancy() - 145.0).abs() < 1e-12);
    }
}
