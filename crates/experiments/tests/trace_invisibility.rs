//! Observability must be byte-invisible: enabling self-profiling, the
//! stall accountant, the flight recorder, and a span-keeping observer
//! (a `PipeView`, or a `TelemetryObserver` for SEE/JRS) must leave every
//! committed golden `SimStats` snapshot untouched — the instrumented
//! machine is the *same* machine.
//!
//! This mirrors `self_profiling_is_invisible_to_stats` (pp-core), but at
//! the golden suite's scale and against the committed snapshots
//! themselves: all 8 workloads × 3 configurations. Tier-2 like the
//! golden suite (skipped in debug builds; CI runs `--release`). In
//! `PP_UPDATE_GOLDEN=1` runs the suite also skips — regeneration is
//! `tests/golden.rs`'s job, and two tests writing the same snapshot
//! concurrently would race.

use pp_core::{PipeView, PipelineObserver, Simulator, DEFAULT_FLIGHT_DEPTH};
use pp_experiments::experiments::BASELINE_HISTORY_BITS;
use pp_experiments::{named_config, Config};
use pp_telemetry::TelemetryObserver;
use pp_testutil::golden::{check_golden, golden_dir, GOLDEN_SCALE};
use pp_workloads::Workload;

/// Which observer rides in the observer slot.
#[derive(Clone, Copy)]
enum Slot {
    PipeView,
    Telemetry,
}

fn check_config(c: Config, key: &'static str, slot: Slot) {
    if cfg!(debug_assertions) || pp_testutil::golden::update_mode() {
        eprintln!(
            "trace_invisibility[{key}]: tier-2 suite, skipped in debug \
             builds and golden-update runs — run with --release"
        );
        return;
    }
    let cfg = named_config(c, BASELINE_HISTORY_BITS);
    for w in Workload::ALL {
        let program = w.build(GOLDEN_SCALE);
        let mut sim = Simulator::new(&program, cfg.clone());
        sim.enable_self_profiling();
        sim.enable_stall_accounting();
        sim.enable_flight_recorder(DEFAULT_FLIGHT_DEPTH);
        let observer: Box<dyn PipelineObserver> = match slot {
            Slot::PipeView => Box::new(PipeView::new()),
            Slot::Telemetry => Box::new(TelemetryObserver::new()),
        };
        sim.set_observer(observer);
        let stats = sim.run();

        // The full instrumentation stack ran...
        let st = sim.stall_stack().expect("accounting enabled");
        assert_eq!(
            st.total_slots(),
            stats.cycles * cfg.commit_width as u64,
            "{w}/{key}: stall conservation"
        );
        assert_eq!(
            sim.flight_recorder().expect("recorder enabled").pushed(),
            stats.cycles,
            "{w}/{key}: recorder saw every cycle"
        );
        assert_eq!(
            sim.host_profile().expect("profiling enabled").cycles,
            stats.cycles,
            "{w}/{key}: profiler saw every cycle"
        );
        let observer = sim.take_observer().expect("attached");
        let fetched = match slot {
            Slot::PipeView => PipeView::from_box(observer).expect("downcasts").len() as u64,
            Slot::Telemetry => {
                let tel = TelemetryObserver::from_box(observer).expect("downcasts");
                let (_, n) = tel
                    .registry()
                    .counters()
                    .find(|(n, _)| *n == "fetched")
                    .expect("fetched counter registered");
                n
            }
        };
        assert_eq!(fetched, stats.fetched_instructions, "{w}/{key}: fetched");

        // ...and the stats are still byte-identical to the committed
        // golden snapshot produced by an uninstrumented run.
        let path = golden_dir().join(format!("{}_{}.json", w.name(), key));
        check_golden(&path, &stats.to_json());
    }
}

#[test]
fn instrumented_monopath_matches_golden() {
    check_config(Config::Monopath, "monopath", Slot::PipeView);
}

#[test]
fn instrumented_see_jrs_matches_golden() {
    check_config(Config::SeeJrs, "see_jrs", Slot::PipeView);
}

#[test]
fn telemetry_see_jrs_matches_golden() {
    check_config(Config::SeeJrs, "see_jrs", Slot::Telemetry);
}

#[test]
fn instrumented_dual_jrs_matches_golden() {
    check_config(Config::DualJrs, "dual_jrs", Slot::PipeView);
}
