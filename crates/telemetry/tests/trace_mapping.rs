//! One Chrome-trace mapping: a finished [`pp_core::PipeView`] and a
//! [`TelemetryObserver`] over the same run must emit the same stage
//! spans, because both go through [`ChromeTrace::lifecycle`].

use pp_core::{PipeView, SimConfig, Simulator};
use pp_telemetry::{
    write_chrome_trace, ChromeTrace, TelemetryConfig, TelemetryObserver, DEFAULT_MAX_TRACE_EVENTS,
};
use pp_workloads::Workload;

/// Large enough that neither trace drops an event at this scale.
const MAX_EVENTS: usize = 1_000_000;

fn program() -> pp_isa::Program {
    Workload::Go.build(10)
}

/// SEE/JRS, stopped by the cycle limit when `max_cycles` is given, so
/// instructions are still in flight at the end.
fn config(max_cycles: Option<u64>) -> SimConfig {
    let mut cfg = SimConfig::baseline();
    if let Some(m) = max_cycles {
        cfg.max_cycles = m;
    }
    cfg
}

fn pipeview(cfg: SimConfig) -> PipeView {
    let mut sim = Simulator::new(&program(), cfg);
    sim.set_observer(Box::new(PipeView::new()));
    sim.run();
    PipeView::from_box(sim.take_observer().expect("attached")).expect("downcasts")
}

fn pipeview_run(cfg: SimConfig, max_events: usize) -> ChromeTrace {
    ChromeTrace::from_pipeview(&pipeview(cfg), max_events)
}

/// `(name, cat, tid, ts, dur)` of every complete event, sorted.
fn stage_spans(t: &ChromeTrace) -> Vec<(String, &'static str, u32, u64, u64)> {
    let mut v: Vec<_> = t
        .events()
        .iter()
        .filter(|e| e.ph == 'X')
        .map(|e| (e.name.clone(), e.cat, e.tid, e.ts, e.dur))
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn pipeview_chrome_trace_renders() {
    let t = pipeview_run(config(None), DEFAULT_MAX_TRACE_EVENTS);
    assert!(!t.events().is_empty());
    assert_eq!(t.dropped(), 0);
    assert!(t.events().iter().all(|e| e.ph != 'X' || e.dur >= 1));
}

#[test]
fn a_capped_trace_keeps_the_first_events_and_counts_the_rest() {
    let view = pipeview(config(None));
    let full = ChromeTrace::from_pipeview(&view, MAX_EVENTS);
    assert_eq!(full.dropped(), 0);
    let all = full.events();
    // Caps that cut the first lifecycles part-way, and two mid-trace.
    for cap in [0, 1, 2, 3, 4, 5, all.len() / 2, all.len() - 1] {
        let capped = ChromeTrace::from_pipeview(&view, cap);
        assert_eq!(capped.events(), &all[..cap], "cap {cap}");
        assert_eq!(capped.dropped(), (all.len() - cap) as u64, "cap {cap}");
        // The written artifact carries the count (an event-free trace is
        // an empty export, so cap 0 writes nothing).
        if cap > 0 {
            assert_eq!(written_dropped(&capped), capped.dropped(), "cap {cap}");
        }
    }
    assert_eq!(written_dropped(&full), 0);
}

/// `otherData.dropped_events` of `t` as `write_chrome_trace` writes it.
fn written_dropped(t: &ChromeTrace) -> u64 {
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, t).expect("a non-empty trace writes");
    let text = String::from_utf8(buf).expect("utf-8");
    let json = pp_core::json::parse(&text).expect("the trace is valid JSON");
    json.get("otherData")
        .and_then(|o| o.get("dropped_events"))
        .and_then(pp_core::json::Value::as_u64)
        .expect("otherData.dropped_events is a count")
}

#[test]
fn telemetry_and_pipeview_emit_the_same_stage_spans() {
    same_stage_spans(config(None));
}

#[test]
fn telemetry_and_pipeview_agree_on_a_cut_run() {
    same_stage_spans(config(Some(2_000)));
}

fn same_stage_spans(cfg: SimConfig) {
    let mut sim = Simulator::new(&program(), cfg.clone());
    sim.set_observer(Box::new(TelemetryObserver::with_config(TelemetryConfig {
        max_trace_events: MAX_EVENTS,
        ..Default::default()
    })));
    let stats = sim.run();
    assert!(stats.divergences > 0 && stats.killed_instructions > 0);
    let mut tel = TelemetryObserver::from_box(sim.take_observer().expect("attached"))
        .expect("a TelemetryObserver was attached");
    tel.seal();

    let view = pipeview_run(cfg, MAX_EVENTS);
    assert_eq!((tel.trace().dropped(), view.dropped()), (0, 0));
    let spans = stage_spans(tel.trace());
    assert!(!spans.is_empty());
    assert_eq!(spans, stage_spans(&view));

    // Both traces mark every killed instruction with a kill instant.
    let kills = |t: &ChromeTrace| t.events().iter().filter(|e| e.cat == "kill").count() as u64;
    assert_eq!(kills(tel.trace()), stats.killed_instructions);
    assert_eq!(kills(&view), stats.killed_instructions);
}

#[test]
fn seal_traces_the_instructions_still_in_flight() {
    let mut sim = Simulator::new(&program(), config(Some(2_000)));
    sim.set_observer(Box::new(TelemetryObserver::new()));
    let stats = sim.run();
    assert!(stats.hit_cycle_limit);
    let mut tel = TelemetryObserver::from_box(sim.take_observer().expect("attached"))
        .expect("a TelemetryObserver was attached");
    let in_flight =
        stats.fetched_instructions - stats.committed_instructions - stats.killed_instructions;
    assert!(in_flight > 0, "a cut run leaves instructions in flight");

    let fetch_spans = |t: &TelemetryObserver| {
        t.trace()
            .events()
            .iter()
            .filter(|e| e.cat == "fetch")
            .count() as u64
    };
    assert_eq!(
        fetch_spans(&tel),
        stats.committed_instructions + stats.killed_instructions
    );
    tel.seal();
    assert_eq!(fetch_spans(&tel), stats.fetched_instructions);
    let open = tel
        .trace()
        .events()
        .iter()
        .filter(|e| e.cat == "fetch" && e.args.iter().any(|a| a.1 == "\"in-flight\""))
        .count() as u64;
    assert_eq!(open, in_flight);
    tel.seal();
    assert_eq!(
        fetch_spans(&tel),
        stats.fetched_instructions,
        "seal is idempotent"
    );
}
