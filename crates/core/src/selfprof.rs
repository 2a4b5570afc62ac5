//! Host-side self-profiling: where does the *simulator's* wall-clock time
//! go, and how fast is it simulating?
//!
//! When enabled ([`crate::Simulator::enable_self_profiling`]), the
//! simulator wraps each pipeline phase of every cycle in a scoped timer
//! and accumulates the durations here. The headline number is
//! simulated-KIPS — thousands of *committed* instructions per host
//! second — the figure of merit the ROADMAP's "fast as the hardware
//! allows" goal is measured by.

use std::time::Duration;

/// An opaque monotonic host timestamp.
///
/// This is the *only* way the simulator reads the host clock: every
/// `Instant::now()` in `pp-core` lives in this module, behind
/// [`stamp`], the one site the determinism rule (L3, clippy's
/// `disallowed_methods` with the workspace `clippy.toml`) expects, so
/// host time never leaks into simulation results — timestamps are taken
/// only when self-profiling is enabled and flow only into
/// [`HostProfile`], never into `SimStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp(std::time::Instant);

/// Read the host's monotonic clock (see [`Stamp`]).
#[expect(clippy::disallowed_methods, reason = "the profiler's one clock read")]
pub(crate) fn stamp() -> Stamp {
    Stamp(std::time::Instant::now())
}

impl Stamp {
    /// Host time elapsed since this stamp was taken.
    pub(crate) fn elapsed(self) -> Duration {
        self.0.elapsed()
    }
}

impl std::ops::Sub for Stamp {
    type Output = Duration;

    /// `later - earlier`: the host time between two stamps.
    fn sub(self, earlier: Stamp) -> Duration {
        self.0.duration_since(earlier.0)
    }
}

/// Accumulated host-time breakdown of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostProfile {
    /// Time inside the commit stage.
    pub commit: Duration,
    /// Time inside writeback + branch resolution (including kill sweeps).
    pub writeback: Duration,
    /// Time inside the issue/execute stage.
    pub issue: Duration,
    /// Time inside rename/dispatch.
    pub dispatch: Duration,
    /// Time inside fetch (prediction, confidence, divergence).
    pub fetch: Duration,
    /// Wall-clock time of the whole [`crate::Simulator::run`] call
    /// (includes per-cycle accounting outside the five phases).
    pub wall: Duration,
    /// Cycles simulated while profiling.
    pub cycles: u64,
    /// Instructions committed while profiling.
    pub committed: u64,
}

impl HostProfile {
    /// Simulated KIPS: thousands of committed instructions per host
    /// second, or `None` when the run's wall time is below the host
    /// timer's resolution. A sub-resolution sample carries no rate
    /// information — reporting it as `0.0` (as an earlier version did)
    /// poisons any min/mean aggregation downstream, so callers must skip
    /// `None` samples instead.
    pub fn kips(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            None
        } else {
            Some(self.committed as f64 / secs / 1e3)
        }
    }

    /// Simulated cycles per host second; `None` under the same
    /// sub-resolution condition as [`Self::kips`].
    pub fn cycles_per_sec(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            None
        } else {
            Some(self.cycles as f64 / secs)
        }
    }

    /// Phases in display order with their labels.
    pub fn phases(&self) -> [(&'static str, Duration); 5] {
        [
            ("fetch", self.fetch),
            ("dispatch", self.dispatch),
            ("issue", self.issue),
            ("writeback", self.writeback),
            ("commit", self.commit),
        ]
    }

    /// Fraction of wall time spent in `phase` (0 when wall time is zero).
    pub fn fraction(&self, phase: Duration) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            0.0
        } else {
            phase.as_secs_f64() / wall
        }
    }

    /// A human-readable report.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut o = String::new();
        let rates = match (self.kips(), self.cycles_per_sec()) {
            (Some(k), Some(c)) => format!("{k:.1} KIPS, {c:.0} cycles/s"),
            _ => "rates n/a: wall time below timer resolution".to_string(),
        };
        let _ = writeln!(
            o,
            "host wall time      {:>10.3} s  ({rates})",
            self.wall.as_secs_f64(),
        );
        for (name, d) in self.phases() {
            let _ = writeln!(
                o,
                "  {name:<10} {:>10.3} s  ({:>4.1}%)",
                d.as_secs_f64(),
                100.0 * self.fraction(d),
            );
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kips_and_rates() {
        let p = HostProfile {
            wall: Duration::from_secs(2),
            committed: 500_000,
            cycles: 1_000_000,
            ..Default::default()
        };
        assert!((p.kips().unwrap() - 250.0).abs() < 1e-9);
        assert!((p.cycles_per_sec().unwrap() - 500_000.0).abs() < 1e-9);
    }

    #[test]
    fn sub_resolution_wall_has_no_rates() {
        // A wall time of zero means the clock never ticked during the
        // run; there is no rate to report, not a rate of zero.
        let p = HostProfile {
            committed: 1000,
            cycles: 2000,
            ..Default::default()
        };
        assert_eq!(p.kips(), None);
        assert_eq!(p.cycles_per_sec(), None);
        assert_eq!(p.fraction(Duration::from_secs(1)), 0.0);
        assert!(p.summary().contains("below timer resolution"));
    }

    #[test]
    fn summary_lists_every_phase() {
        let p = HostProfile {
            wall: Duration::from_millis(100),
            fetch: Duration::from_millis(40),
            commit: Duration::from_millis(10),
            committed: 1000,
            cycles: 2000,
            ..Default::default()
        };
        let text = p.summary();
        for name in ["fetch", "dispatch", "issue", "writeback", "commit"] {
            assert!(text.contains(name), "missing {name} in {text}");
        }
        assert!(text.contains("KIPS"));
    }
}
