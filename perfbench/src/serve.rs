//! The `serve` workload: the registry grids served by an in-process
//! pp-serve daemon on `127.0.0.1:0` to two in-process `run_worker`
//! clients. The loop is closed: each worker leases its next cell only
//! after the previous one is done. After each served pass a local
//! engine renders every experiment from the served store (the warm
//! pass); the first served store is also compared byte for byte with a
//! local `SweepEngine` run of the same grid.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

use pp_serve::{
    run_worker, Reply, Request, ServeConfig, ServeSummary, Server, WorkerConfig, WorkerReport,
    PROTO_VERSION,
};
use pp_sweep::{Experiment, Rendered, ResultStore, SweepCell, SweepEngine};

use crate::sweep::{self, PassOut};
use crate::util::{lower_quartile, median, read_tree};
use crate::{kernel, layers, Run};

/// `PP_SCALE` of the `serve` workload: smaller cells than `sweep`, so
/// the per-cell fabric cost shows.
pub const SERVE_SCALE: &str = "0.005";
const BIND: &str = "127.0.0.1:0";
/// Worker threads and connections: the host's two cores.
const WORKERS: usize = 2;
/// Served passes per run: at least the first, never more than the
/// second, whatever the budget.
const MIN_PASSES: usize = 4;
const MAX_PASSES: usize = 50;
/// Socket timeout of the handshake probe.
const PROBE_TIMEOUT: Duration = Duration::from_secs(10);

/// One hello → welcome exchange with the daemon at `addr`, as a worker
/// opens its session, then an orderly bye. Returns the round-trip time.
///
/// # Errors
/// Connection failure, a timeout, or a reply other than `welcome`.
pub fn handshake(addr: &str) -> std::io::Result<Duration> {
    let t = Instant::now();
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(PROBE_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let hello = Request::Hello {
        client: "perfbench-probe".into(),
        proto: PROTO_VERSION,
    };
    writer.write_all(hello.to_line().as_bytes())?;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let elapsed = t.elapsed();
    match Reply::from_line(&line) {
        Ok(Reply::Welcome { .. }) => {
            writer.write_all(Request::Bye.to_line().as_bytes())?;
            Ok(elapsed)
        }
        other => Err(std::io::Error::other(format!(
            "expected welcome, got {other:?}"
        ))),
    }
}

/// Bind a daemon over `named` (no store), open `probes` sessions with
/// [`handshake`], and shut it down. Returns the bind-plus-handshake time
/// and the handshake time alone.
///
/// # Errors
/// Binding or a handshake failed.
pub fn bind_and_probe(
    named: Vec<(String, Vec<SweepCell>)>,
    store: Option<ResultStore>,
    probes: usize,
) -> std::io::Result<(Duration, Duration)> {
    let t = Instant::now();
    let server = Server::bind(BIND, named, store, ServeConfig::default())?;
    let addr = server.local_addr()?.to_string();
    let stop = server.shutdown_handle();
    std::thread::scope(|s| {
        let daemon = s.spawn(move || server.run(false));
        let mut shakes = Duration::ZERO;
        let mut result = Ok(());
        for _ in 0..probes {
            match handshake(&addr) {
                Ok(d) => shakes += d,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        let total = t.elapsed();
        stop.shutdown();
        // The daemon winds down only once every handle to it is gone.
        drop(stop);
        let _ = daemon.join();
        result.map(|()| (total, shakes))
    })
}

/// Serve the grids of `exps`: bind, two workers, wait for every cell.
/// Returns the time from bind to the first worker seeing `done` (the
/// grid is then complete), the daemon summary and the worker reports.
fn serve_pass(
    run: &mut Run,
    exps: &[Box<dyn Experiment>],
    store: &Path,
) -> Option<(f64, ServeSummary, Vec<WorkerReport>)> {
    let named: Vec<(String, Vec<SweepCell>)> = exps
        .iter()
        .map(|e| (e.name().to_string(), e.grid()))
        .collect();
    let grids = named.clone();
    let t = Instant::now();
    let id = run.tracer.begin("serve.bind");
    let server = match Server::bind(
        BIND,
        named,
        Some(ResultStore::new(store)),
        ServeConfig::default(),
    ) {
        Ok(s) => s,
        Err(e) => {
            run.fail(format!("binding {BIND}: {e}"));
            return None;
        }
    };
    run.tracer.end(id);
    let Ok(addr) = server.local_addr().map(|a| a.to_string()) else {
        run.fail("daemon has no local address");
        return None;
    };
    let stop = server.shutdown_handle();
    let resolver = |name: &str| {
        grids
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, g)| g.clone())
    };
    let id = run.tracer.begin("serve.run");
    let (summary, outcomes) = std::thread::scope(|s| {
        // The daemon serves until told to stop, so a worker that connects
        // after the grid is complete (a small or fully cached grid) still
        // gets its `done`. A worker that gives up leaves its leased cell
        // to be requeued for the other one.
        let daemon = s.spawn(move || server.run(false));
        let workers: Vec<_> = (0..WORKERS)
            .map(|i| {
                let addr = &addr;
                s.spawn(move || {
                    let cfg = WorkerConfig {
                        client: format!("perfbench-{i}"),
                        ..WorkerConfig::default()
                    };
                    (run_worker(addr, &cfg, resolver), Instant::now())
                })
            })
            .collect();
        let outcomes: Vec<_> = workers.into_iter().map(|w| w.join()).collect();
        stop.shutdown();
        // The daemon winds down only once every handle to it is gone.
        drop(stop);
        (daemon.join(), outcomes)
    });
    run.tracer.end(id);
    let mut reports = Vec::new();
    let mut done_at = None;
    for o in outcomes {
        match o {
            Ok((Ok(r), at)) => {
                reports.push(r);
                done_at = Some(done_at.map_or(at, |d: Instant| d.min(at)));
            }
            Ok((Err(e), _)) => run.fail(format!("worker: {e}")),
            Err(_) => run.fail("worker thread panicked"),
        }
    }
    let Ok(summary) = summary else {
        run.fail("daemon thread panicked");
        return None;
    };
    let wall = done_at.map_or_else(|| t.elapsed(), |d| d - t).as_secs_f64();
    Some((wall, summary, reports))
}

/// The `serve` workload.
pub fn run(run: &mut Run) {
    // Single-threaded here: no other thread reads the environment yet.
    std::env::set_var("PP_SCALE", SERVE_SCALE);

    let (mut setups, mut shakes) = (Vec::new(), Vec::new());
    let exps = sweep::registry(run.seed);
    let traced = run.tracer.enabled();
    let start = Instant::now();
    let (mut walls, mut warm_t) = (Vec::new(), sweep::ExpTimes::default());
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let (mut checked, mut warm_passes) = (None, Vec::new());
    let mut reference: Option<Vec<Option<Rendered>>> = None;
    let (mut requeued, mut redundant, mut failed) = (0u64, 0u64, 0u64);
    while walls.len() < MIN_PASSES || (start.elapsed() < run.budget && walls.len() < MAX_PASSES) {
        // Set-up repetitions spread over the run, like every other host
        // time.
        setup(run, &mut setups, &mut shakes);
        let spans_on = traced && walls.len() % 2 == 1;
        run.tracer.set_enabled(spans_on);
        let dir = run.scratch.fresh("served");
        let served = serve_pass(run, &exps, &dir);
        let engine = SweepEngine::new().with_workers(WORKERS).with_cache(&dir);
        let warm = served
            .as_ref()
            .map(|_| sweep::run_experiments(run, &exps, &engine, None));
        run.tracer.set_enabled(traced);
        let (Some((wall, summary, reports)), Some(warm)) = (served, warm) else {
            break;
        };
        run.attempt(summary.snapshot.total);
        for _ in summary.snapshot.complete..summary.snapshot.total {
            run.fail("served cell did not complete");
        }
        requeued += summary.snapshot.requeued;
        failed += summary.snapshot.failed;
        redundant += reports.iter().map(|r| r.redundant as u64).sum::<u64>();
        for w in &warm.exps {
            if w.cached != w.grid.len() {
                run.fail(format!(
                    "{}: {} of {} cells not in the served store",
                    w.name,
                    w.grid.len() - w.cached,
                    w.grid.len()
                ));
            }
        }
        let rendered: Vec<Option<Rendered>> =
            warm.exps.iter().map(|e| e.rendered.clone()).collect();
        match &reference {
            None => reference = Some(rendered),
            Some(r) if *r != rendered => run.fail("rendered output differs between served passes"),
            Some(_) => {}
        }
        if checked.is_none() {
            checked = Some(compare_with_local(run, &exps, &dir));
        }
        if spans_on { &mut spanned } else { &mut plain }.push(wall + warm.wall);
        walls.push(wall);
        warm_t.add(&warm);
        // Whole passes are kept only where needed, so peak memory does
        // not grow with the number of passes the budget allowed.
        if traced || warm_passes.is_empty() {
            warm_passes.push(warm);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let Some(first) = warm_passes.first() else {
        run.fail("no served pass completed");
        return;
    };
    println!(
        "lease table over all passes: requeued {requeued}, redundant {redundant}, failed {failed}"
    );

    if traced {
        run.metric(
            "trace.overhead_frac",
            median(&spanned) / median(&plain) - 1.0,
        );
        run.metric("serve.handshake_s", median(&shakes));
        let local = checked.into_iter().flatten().collect::<Vec<_>>();
        sweep::engine_layers(run, &local, &warm_passes, WORKERS);
        let (cells, stats): (Vec<SweepCell>, Vec<_>) = first.unique_stats().into_iter().unzip();
        let fig8: Vec<SweepCell> = exps
            .iter()
            .find(|e| e.name() == "fig8")
            .map(|e| e.grid())
            .unwrap_or_default();
        let probe = kernel::core_layers(run, &fig8, Duration::ZERO);
        layers::common(run, &probe, &cells, &stats);
        return;
    }
    let unique = first.unique_stats();
    let committed: u64 = unique.iter().map(|(_, s)| s.committed_instructions).sum();
    let ipcs: Vec<f64> = unique.iter().map(|(_, s)| s.ipc()).collect();
    let wall = lower_quartile(&walls);
    run.metric("kips", committed as f64 / 1e3 / wall);
    run.metric("ipc", crate::util::hmean(&ipcs));
    run.metric("wall_s", wall);
    run.metric("warm_s", warm_t.wall());
    run.metric("setup_s", lower_quartile(&setups));
    println!(
        "{} cells served per pass at PP_SCALE={SERVE_SCALE} to {WORKERS} workers over loopback, {} passes",
        first.exps.iter().map(|e| e.grid.len()).sum::<usize>(),
        walls.len()
    );
}

/// One repetition of the set-up: grid construction and store open, then
/// a daemon bound and probed by one handshake per worker. Appends the
/// whole time to `setups` and the handshakes' to `shakes`.
fn setup(run: &mut Run, setups: &mut Vec<f64>, shakes: &mut Vec<f64>) {
    let t = Instant::now();
    let id = run.tracer.begin("serve.setup");
    let named: Vec<(String, Vec<SweepCell>)> = sweep::registry(run.seed)
        .iter()
        .map(|e| (e.name().to_string(), e.grid()))
        .collect();
    let store = ResultStore::new(run.scratch.fresh("setup-store"));
    let grid = t.elapsed();
    let probed = bind_and_probe(named, Some(store), WORKERS);
    run.tracer.end(id);
    match probed {
        Ok((bound, shake)) => {
            setups.push((grid + bound).as_secs_f64());
            shakes.push(shake.as_secs_f64());
        }
        Err(e) => run.fail(format!("serve set-up: {e}")),
    }
}

/// Run the same grid through a local `SweepEngine` into a fresh store
/// and require the served store to match it byte for byte. Returns the
/// local pass (its cells feed the pp-sweep layer metrics).
fn compare_with_local(
    run: &mut Run,
    exps: &[Box<dyn Experiment>],
    served: &Path,
) -> Option<PassOut> {
    let dir = run.scratch.fresh("local");
    let engine = SweepEngine::new().with_workers(WORKERS).with_cache(&dir);
    let t = Instant::now();
    let id = run.tracer.begin("sweep.engine_run");
    let grid: Vec<SweepCell> = exps.iter().flat_map(|e| e.grid()).collect();
    let report = engine.run(&grid);
    run.tracer.end(id);
    let wall = t.elapsed().as_secs_f64();
    let same = match (read_tree(served), read_tree(&dir)) {
        (Ok(a), Ok(b)) => a == b,
        _ => false,
    };
    run.attempt(1);
    if !same || !report.errors.is_empty() {
        run.fail("served store differs from a local SweepEngine run of the same grid");
    }
    let _ = std::fs::remove_dir_all(&dir);
    Some(PassOut {
        wall,
        exps: vec![sweep::ExpRun {
            name: "local",
            grid,
            results: report.completed_owned(),
            cached: report.cached(),
            engine_s: wall,
            render_s: 0.0,
            rendered: None,
        }],
    })
}
