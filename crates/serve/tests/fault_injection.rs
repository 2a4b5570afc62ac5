//! Protocol fault injection against a live daemon.
//!
//! Every test drives a real `Server` on an ephemeral loopback port with
//! hand-rolled TCP clients that misbehave in a specific way — garbage
//! frames, truncation, silent disconnects mid-`result`, expired leases,
//! a slow client that stops reading — and pins the session invariant:
//! the daemon stays up, the dead client's lease is requeued **exactly
//! once**, its admission slot is released, and an honest worker then
//! completes the grid. A cell that fails on an honest worker is the
//! other half of the contract: simulated once, never requeued, and
//! reported exactly as a local sweep reports it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use pp_core::{SimConfig, SimStats};
use pp_serve::{
    run_worker, Reply, Request, ServeConfig, ServeSummary, Server, WorkStatus, WorkerConfig,
    PROTO_VERSION,
};
use pp_sweep::{SweepCell, SweepEngine};
use pp_workloads::Workload;

/// Cheap, fixed-scale cells (independent of `PP_SCALE`, like the store
/// unit tests) so fault tests stay fast in debug builds.
fn tiny_grid(n: usize) -> Vec<SweepCell> {
    sized_grid(n, 1200)
}

fn sized_grid(n: usize, scale: u64) -> Vec<SweepCell> {
    Workload::ALL
        .iter()
        .take(n)
        .map(|&w| SweepCell {
            workload: w,
            seed: None,
            scale,
            config: SimConfig::default(),
        })
        .collect()
}

fn quick_config() -> ServeConfig {
    ServeConfig {
        read_timeout: Duration::from_millis(20),
        retry_ms: 20,
        ..ServeConfig::default()
    }
}

/// Bind a daemon over `grid`, run it to completion on a thread, and
/// hand back the address plus the join handle for the summary.
fn start(
    grid: Vec<SweepCell>,
    cfg: ServeConfig,
) -> (String, std::thread::JoinHandle<ServeSummary>) {
    let server = Server::bind("127.0.0.1:0", vec![("tiny".to_string(), grid)], None, cfg)
        .expect("bind loopback");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run(true));
    (addr, handle)
}

/// A deliberately misbehaving client speaking raw lines.
struct RawClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawClient {
    fn open(addr: &str) -> RawClient {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        RawClient {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    fn send(&mut self, req: &Request) {
        self.send_raw(req.to_line().as_bytes()).expect("send frame");
    }

    fn recv(&mut self) -> Reply {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read reply");
        assert!(n > 0, "server closed before replying");
        Reply::from_line(&line).expect("parse reply")
    }

    /// `hello` + `welcome`, panicking on anything else.
    fn handshake(&mut self, name: &str) {
        self.send(&Request::Hello {
            client: name.to_string(),
            proto: PROTO_VERSION,
        });
        match self.recv() {
            Reply::Welcome { .. } => {}
            other => panic!("expected welcome, got {other:?}"),
        }
    }

    /// Lease one cell, retrying through `wait`, panicking on `done`.
    fn lease(&mut self) -> (u64, String) {
        loop {
            self.send(&Request::Lease);
            match self.recv() {
                Reply::Cell {
                    index, fingerprint, ..
                } => return (index, fingerprint),
                Reply::Wait { retry_ms } | Reply::Busy { retry_ms, .. } => {
                    std::thread::sleep(Duration::from_millis(retry_ms.max(1)));
                }
                other => panic!("expected cell, got {other:?}"),
            }
        }
    }
}

/// Run an honest worker over the same grid until the server says done.
fn honest_worker(addr: &str, grid: &[SweepCell], name: &str) -> pp_serve::WorkerReport {
    let grid = grid.to_vec();
    let cfg = WorkerConfig {
        client: name.to_string(),
        ..WorkerConfig::default()
    };
    run_worker(addr, &cfg, move |exp| (exp == "tiny").then(|| grid.clone()))
        .unwrap_or_else(|e| panic!("honest worker: {e}"))
}

fn counter(summary: &ServeSummary, name: &str) -> u64 {
    summary
        .registry
        .counters()
        .find(|(n, _)| *n == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn garbage_line_is_a_typed_error_and_the_daemon_survives() {
    let grid = tiny_grid(2);
    let (addr, handle) = start(grid.clone(), quick_config());

    let mut evil = RawClient::open(&addr);
    evil.handshake("garbage");
    evil.send_raw(b"{\"type\":\"lease\" this is not json\n")
        .expect("send garbage");
    match evil.recv() {
        Reply::Error { .. } => {}
        other => panic!("expected typed error, got {other:?}"),
    }

    let report = honest_worker(&addr, &grid, "honest");
    let summary = handle.join().expect("daemon thread");
    assert!(summary.all_complete(), "{}", summary.summary());
    assert_eq!(report.simulated, grid.len());
    assert!(counter(&summary, "serve.protocol_faults") >= 1);
}

#[test]
fn oversized_frame_is_rejected_without_buffering_it() {
    let grid = tiny_grid(1);
    let (addr, handle) = start(grid.clone(), quick_config());

    let mut evil = RawClient::open(&addr);
    evil.handshake("flooder");
    // Two megabytes of 'a' with no newline: the session must cap the
    // line buffer and drop the client, not allocate without bound.
    let blob = vec![b'a'; 2 << 20];
    let _ = evil.send_raw(&blob);
    match evil.recv() {
        Reply::Error { reason } => assert!(reason.contains("exceeds"), "{reason}"),
        other => panic!("expected oversized error, got {other:?}"),
    }

    honest_worker(&addr, &grid, "honest");
    let summary = handle.join().expect("daemon thread");
    assert!(summary.all_complete(), "{}", summary.summary());
}

#[test]
fn disconnect_mid_result_requeues_exactly_once() {
    let grid = tiny_grid(2);
    let (addr, handle) = start(grid.clone(), quick_config());

    // The doomed client leases a cell, starts writing its result frame,
    // and dies mid-line (a worker killed in the middle of reporting).
    let mut doomed = RawClient::open(&addr);
    doomed.handshake("doomed");
    let (index, fingerprint) = doomed.lease();
    let full = Request::Result {
        index,
        fingerprint,
        status: WorkStatus::Ok,
        stats: SimStats::default().to_json(),
        message: String::new(),
    }
    .to_line();
    doomed
        .send_raw(&full.as_bytes()[..full.len() / 2])
        .expect("send truncated result");
    drop(doomed);

    let report = honest_worker(&addr, &grid, "honest");
    let summary = handle.join().expect("daemon thread");
    assert!(summary.all_complete(), "{}", summary.summary());
    // The half-reported cell went back in the queue once, and the
    // honest worker simulated it once more — no cell ran twice beyond
    // that, none were lost.
    assert_eq!(summary.snapshot.requeued, 1);
    assert_eq!(report.simulated, grid.len());
    assert_eq!(report.redundant, 0);
}

#[test]
#[expect(clippy::disallowed_methods, reason = "deadline for the reaper wait")]
fn lease_expiry_requeues_and_the_late_result_is_redundant() {
    // Cells cheap enough that an honest worker's simulation always
    // finishes well inside the lease timeout — only the deliberately
    // silent zombie gets reaped.
    let grid = sized_grid(2, 300);
    let cfg = ServeConfig {
        lease_timeout: Duration::from_secs(5),
        ..quick_config()
    };
    let (addr, handle) = start(grid.clone(), cfg);

    // The zombie leases a cell and then goes silent — no frames, so no
    // deadline extension — until well past the lease timeout.
    let mut zombie = RawClient::open(&addr);
    zombie.handshake("zombie");
    let (index, fingerprint) = zombie.lease();
    // Its result is computed now, while it holds the lease silently:
    // simulating after the honest worker finishes could outlast the
    // daemon's `done_grace` on a loaded host.
    let late_stats = grid[index as usize].run().expect("cell runs").to_json();

    // An observer polls progress (its frames touch only its own,
    // nonexistent leases) until the reaper has requeued the zombie's
    // cell, so the test waits on the event instead of a guessed sleep.
    let mut observer = RawClient::open(&addr);
    observer.handshake("observer");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        observer.send(&Request::Progress);
        match observer.recv() {
            Reply::Progress { requeued, .. } if requeued >= 1 => break,
            Reply::Progress { .. } => std::thread::sleep(Duration::from_millis(50)),
            other => panic!("expected progress, got {other:?}"),
        }
        assert!(Instant::now() < deadline, "reaper never fired");
    }
    observer.send(&Request::Bye);
    drop(observer);

    let report = honest_worker(&addr, &grid, "honest");

    // The zombie wakes up and reports anyway: the daemon must shrug —
    // acknowledge as redundant, never double-count or crash.
    zombie.send(&Request::Result {
        index,
        fingerprint,
        status: WorkStatus::Ok,
        stats: late_stats,
        message: String::new(),
    });
    match zombie.recv() {
        Reply::Ack { cached, .. } => assert!(cached, "late result must be redundant"),
        other => panic!("expected ack, got {other:?}"),
    }
    zombie.send(&Request::Bye);
    drop(zombie);

    let summary = handle.join().expect("daemon thread");
    assert!(summary.all_complete(), "{}", summary.summary());
    assert_eq!(summary.snapshot.requeued, 1, "requeued exactly once");
    assert_eq!(report.simulated, grid.len());
}

#[test]
fn slow_client_write_timeout_releases_the_admission_slot() {
    let grid = tiny_grid(2);
    // One admission slot total: the honest worker can only ever get in
    // if the stalled client's slot is genuinely released.
    let cfg = ServeConfig {
        max_clients: 1,
        write_timeout: Duration::from_millis(100),
        ..quick_config()
    };
    let (addr, handle) = start(grid.clone(), cfg);

    let mut slow = RawClient::open(&addr);
    slow.handshake("slow");
    let _ = slow.lease();
    // Stop reading and flood requests: replies back up in the socket
    // buffers until the daemon's write blocks past its timeout and the
    // session is dropped. Cap our own writes so the test cannot hang.
    slow.writer
        .set_write_timeout(Some(Duration::from_millis(500)))
        .expect("write timeout");
    let frame = Request::Progress.to_line();
    for _ in 0..200_000 {
        if slow.send_raw(frame.as_bytes()).is_err() {
            break;
        }
    }

    // The honest worker's admission retries ride out the window until
    // the slot frees up (WorkerConfig retries busy admission).
    let report = honest_worker(&addr, &grid, "honest");
    drop(slow);
    let summary = handle.join().expect("daemon thread");
    assert!(summary.all_complete(), "{}", summary.summary());
    assert_eq!(summary.snapshot.requeued, 1, "stalled lease requeued once");
    assert_eq!(report.simulated, grid.len());
}

#[test]
fn wrong_protocol_version_is_refused_before_admission() {
    let grid = tiny_grid(1);
    let (addr, handle) = start(grid.clone(), quick_config());

    let mut old = RawClient::open(&addr);
    old.send(&Request::Hello {
        client: "museum-piece".to_string(),
        proto: PROTO_VERSION + 1,
    });
    match old.recv() {
        Reply::Error { reason } => assert!(reason.contains("protocol"), "{reason}"),
        other => panic!("expected protocol error, got {other:?}"),
    }
    drop(old);

    honest_worker(&addr, &grid, "honest");
    let summary = handle.join().expect("daemon thread");
    assert!(summary.all_complete(), "{}", summary.summary());
}

#[test]
fn a_served_failure_is_simulated_once_and_reported_like_a_local_one() {
    // The failing cell of the engine's own panic test: `Simulator::new`
    // rejects a 2-stage pipeline, deterministically, on any worker.
    let mut grid = sized_grid(3, 300);
    grid.insert(
        1,
        SweepCell {
            config: SimConfig::default().with_pipeline_depth(2),
            ..grid[0].clone()
        },
    );
    let (addr, handle) = start(grid.clone(), quick_config());
    let reports: Vec<pp_serve::WorkerReport> = std::thread::scope(|s| {
        let workers: Vec<_> = ["honest-a", "honest-b"]
            .into_iter()
            .map(|name| s.spawn(|| honest_worker(&addr, &grid, name)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker thread"))
            .collect()
    });
    let summary = handle.join().expect("daemon thread");

    assert_eq!(summary.snapshot.failed, 1, "{}", summary.summary());
    assert_eq!(summary.snapshot.requeued, 0, "a reported failure is final");
    assert_eq!(summary.snapshot.complete, 3, "{}", summary.summary());
    let failed: usize = reports.iter().map(|r| r.failed).sum();
    assert_eq!(
        failed, 1,
        "the failing cell was simulated once: {reports:?}"
    );

    let local = SweepEngine::new().with_workers(1).run(&grid);
    assert_eq!(local.errors.len(), 1, "{}", local.summary());
    assert_eq!(summary.errors.len(), 1);
    assert_eq!(summary.errors[0].to_string(), local.errors[0].to_string());
}
