//! The flight recorder: a bounded ring of recent per-cycle machine
//! snapshots, dumped when something goes wrong.
//!
//! The differential oracle, the per-cycle sanitizer, and `pp-check`'s
//! fuzz harness all report failures as panics from deep inside the cycle
//! loop — by the time the panic message is read, the machine state that
//! led up to it is gone. With a recorder enabled
//! ([`crate::Simulator::enable_flight_recorder`]), the simulator pushes
//! the cycle's [`CycleSample`] into a preallocated ring — O(1), no
//! allocation in the hot loop — and harnesses append
//! [`crate::Simulator::flight_dump`] to their failure reports: the last
//! N cycles of commit/stall/path history, CTX-tag annotated.
//!
//! Sizing policy: the default depth ([`DEFAULT_FLIGHT_DEPTH`]) covers a
//! few front-end latencies plus the longest cache-miss chain — enough to
//! see the squash or starvation that preceded a failure — while keeping
//! a dump under a screenful. Each record is under 150 bytes,
//! so even deep rings are negligible next to the window itself.

use crate::observer::CycleSample;
use crate::stall::StallCause;

/// Default ring depth used by the checking harnesses (`pp-check`,
/// `pp-sweep`): the last 64 cycles of history.
pub const DEFAULT_FLIGHT_DEPTH: usize = 64;

/// The ring's one-line rendering of a cycle.
impl std::fmt::Display for CycleSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cycle {:>8}: commits={} stall={:<15} paths={} div={} window={:>4} frontend={:>3}",
            self.cycle,
            self.committed,
            self.stall.map_or("-", StallCause::name),
            self.live_paths,
            self.live_divergences,
            self.window_occupancy,
            self.frontend_occupancy,
        )?;
        match &self.head {
            None => write!(f, " head=-"),
            Some(h) => write!(
                f,
                " head=[seq {} pc {} ctx {}]",
                h.seq,
                h.pc,
                h.ctx.annotate()
            ),
        }
    }
}

/// Fixed-capacity ring of [`CycleSample`]s: `push` is O(1) and allocation
/// happens only at construction, so the recorder can stay on during
/// checked runs without disturbing the hot loop.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Vec<CycleSample>,
    /// Ring capacity (a `Vec` may over-allocate, so track it ourselves).
    cap: usize,
    /// Next slot to overwrite.
    next: usize,
    /// Records pushed in total (saturates the ring at `cap`).
    pushed: u64,
}

impl FlightRecorder {
    /// A recorder keeping the last `depth` records (`depth` is clamped to
    /// at least 1).
    pub fn new(depth: usize) -> Self {
        let cap = depth.max(1);
        FlightRecorder {
            ring: Vec::with_capacity(cap),
            cap,
            next: 0,
            pushed: 0,
        }
    }

    /// Ring capacity.
    pub fn depth(&self) -> usize {
        self.cap
    }

    /// Records currently held (≤ depth).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total records ever pushed (so callers can tell how much history
    /// scrolled out of the ring).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Record one cycle, overwriting the oldest record once full.
    pub fn push(&mut self, rec: CycleSample) {
        if self.ring.len() < self.cap {
            self.ring.push(rec);
        } else {
            self.ring[self.next] = rec;
        }
        self.next += 1;
        if self.next == self.cap {
            self.next = 0;
        }
        self.pushed += 1;
    }

    /// Retained records, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &CycleSample> {
        let split = if self.ring.len() < self.cap {
            0
        } else {
            self.next
        };
        self.ring[split..].iter().chain(self.ring[..split].iter())
    }

    /// Render the retained history, oldest first, one line per cycle.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "flight recorder: {} of {} recorded cycle(s) retained (depth {}):",
            self.len(),
            self.pushed(),
            self.depth(),
        );
        for rec in self.iter() {
            let _ = writeln!(out, "  {rec}");
        }
        out
    }
}

/// The text a panic was raised with: the `panic!`/`assert!` message when
/// the payload is a string, else a placeholder.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Build a simulator, arm its flight recorder at
/// [`DEFAULT_FLIGHT_DEPTH`] and run `body` on it, all under one
/// `catch_unwind`. A panic anywhere — a configuration `build` rejects, a
/// sanitizer violation, a commit-check divergence — comes back as
/// `Err(panic text)`, followed by a newline and
/// [`Simulator::flight_dump`](crate::Simulator::flight_dump) when the
/// simulator had been built. This is the one path by which the sweep
/// engine, the served worker and the checking harnesses turn a failing
/// run into a report.
pub fn run_with_flight_dump<T>(
    build: impl FnOnce() -> crate::Simulator,
    body: impl FnOnce(&mut crate::Simulator) -> T,
) -> Result<T, String> {
    let mut sim = None;
    // AssertUnwindSafe: after a panic the simulator is only read by
    // `flight_dump`, which renders the recorder ring and the counters.
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let sim = sim.insert(build());
        sim.enable_flight_recorder(DEFAULT_FLIGHT_DEPTH);
        body(sim)
    }))
    .map_err(|payload| {
        let msg = panic_message(payload.as_ref());
        match &sim {
            Some(sim) => format!("{msg}\n{}", sim.flight_dump()),
            None => msg,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64) -> CycleSample {
        CycleSample {
            cycle,
            committed: (cycle % 3) as u32,
            stall: (!cycle.is_multiple_of(3)).then_some(StallCause::OperandWait),
            live_paths: 1,
            fetching_paths: 1,
            live_divergences: 0,
            window_occupancy: cycle as usize,
            frontend_occupancy: 0,
            head: None,
        }
    }

    #[test]
    fn fills_then_wraps_preserving_order() {
        let mut fr = FlightRecorder::new(4);
        assert!(fr.is_empty());
        for c in 0..3 {
            fr.push(rec(c));
        }
        let cycles: Vec<u64> = fr.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2], "partial fill keeps push order");

        for c in 3..11 {
            fr.push(rec(c));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.pushed(), 11);
        let cycles: Vec<u64> = fr.iter().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9, 10], "wrap keeps oldest-first order");
    }

    #[test]
    fn wrap_order_holds_at_every_fill_level() {
        for extra in 0..10u64 {
            let mut fr = FlightRecorder::new(3);
            let total = 3 + extra;
            for c in 0..total {
                fr.push(rec(c));
            }
            let cycles: Vec<u64> = fr.iter().map(|r| r.cycle).collect();
            let expect: Vec<u64> = (total - 3..total).collect();
            assert_eq!(cycles, expect, "after {total} pushes");
        }
    }

    #[test]
    fn zero_depth_is_clamped() {
        let mut fr = FlightRecorder::new(0);
        fr.push(rec(7));
        fr.push(rec(8));
        assert_eq!(fr.depth(), 1);
        assert_eq!(fr.iter().map(|r| r.cycle).collect::<Vec<_>>(), vec![8]);
    }

    #[test]
    fn render_lists_every_retained_cycle() {
        let mut fr = FlightRecorder::new(2);
        for c in 0..5 {
            fr.push(rec(c));
        }
        let dump = fr.render();
        assert!(dump.contains("flight recorder: 2 of 5"), "{dump}");
        assert!(dump.contains("cycle        3"), "{dump}");
        assert!(dump.contains("cycle        4"), "{dump}");
        assert!(!dump.contains("cycle        2"), "{dump}");
    }

    fn countdown() -> pp_isa::Program {
        use pp_isa::{reg, Asm};
        let mut a = Asm::new();
        a.li(reg::T0, 50);
        let top = a.here();
        a.addi(reg::T0, reg::T0, -1);
        a.bne(reg::T0, reg::ZERO, top);
        a.halt();
        a.assemble().expect("assembles")
    }

    #[test]
    fn run_with_flight_dump_reports_each_failure_once() {
        let p = countdown();
        let ok = run_with_flight_dump(
            || crate::Simulator::new(&p, crate::SimConfig::baseline()),
            crate::Simulator::run,
        );
        assert!(!ok.expect("a valid run completes").hit_cycle_limit);

        // A panic inside the run carries its text and the recorder's dump.
        let err = run_with_flight_dump(
            || crate::Simulator::new(&p, crate::SimConfig::baseline()),
            |sim| {
                sim.run();
                panic!("boom at cycle {}", sim.stats().cycles)
            },
        )
        .expect_err("the body panicked");
        let (msg, dump) = err.split_once('\n').expect("message, then dump");
        assert!(msg.starts_with("boom at cycle "), "{err}");
        assert!(dump.starts_with("flight recorder: "), "{err}");
        assert!(dump.contains("in-flight cycle"), "{err}");

        // A configuration the simulator rejects fails before any dump exists.
        let err = run_with_flight_dump(
            || crate::Simulator::new(&p, crate::SimConfig::baseline().with_pipeline_depth(2)),
            crate::Simulator::run,
        )
        .expect_err("validate rejects depth 2");
        let expected = crate::ConfigError::PipelineDepthOutOfRange { depth: 2 }.to_string();
        assert_eq!(err, expected);
    }

    #[test]
    fn panic_message_reads_string_payloads() {
        assert_eq!(panic_message(&"static"), "static");
        assert_eq!(panic_message(&String::from("owned")), "owned");
        assert_eq!(panic_message(&7u32), "<non-string panic payload>");
    }
}
