//! The pp-serve daemon: accept loop, lease reaper, and lifecycle.
//!
//! [`Server::bind`] flattens the named experiment grids into one
//! [`Runtime`] over the shared [`ResultStore`]; [`Server::run`] then
//! accepts connections (one session thread per client — admission
//! control bounds the useful ones, and a refused client costs one
//! short-lived thread that sends `busy` and exits), expires stale
//! leases on every poll tick, and returns a [`ServeSummary`] once the
//! grid is complete (with `exit_when_done`) or the shutdown handle is
//! triggered.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pp_sweep::{CellError, ResultStore, SweepCell};
use pp_telemetry::Registry;

use crate::runtime::{Runtime, ServeConfig, Snapshot};
use crate::session::{self, Shared};

/// How often the accept loop polls for connections, expired leases,
/// and shutdown.
const POLL: Duration = Duration::from_millis(20);

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Cooperative shutdown switch for a running daemon (clone it before
/// calling [`Server::run`]).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Ask the daemon and every session to wind down.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }
}

/// What a daemon run ended with.
#[derive(Debug)]
pub struct ServeSummary {
    /// Final grid progress.
    pub snapshot: Snapshot,
    /// Failures workers reported, in grid order: what a local sweep of
    /// the grid reports, full message included.
    pub errors: Vec<CellError>,
    /// The runtime's telemetry registry (`serve.*` instruments), for
    /// JSONL export.
    pub registry: Registry,
}

impl ServeSummary {
    /// One-line human summary, mirroring `SweepReport::summary`.
    pub fn summary(&self) -> String {
        format!(
            "{} cells: {} complete, {} failed, {} requeue event{}",
            self.snapshot.total,
            self.snapshot.complete,
            self.snapshot.failed,
            self.snapshot.requeued,
            if self.snapshot.requeued == 1 { "" } else { "s" }
        )
    }

    /// Whether every cell completed.
    pub fn all_complete(&self) -> bool {
        self.snapshot.complete == self.snapshot.total
    }
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:0`) and stage `experiments` —
    /// `(registry name, grid)` pairs, concatenated in order — over the
    /// shared `store`.
    pub fn bind(
        addr: &str,
        experiments: Vec<(String, Vec<SweepCell>)>,
        store: Option<ResultStore>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let names: Vec<String> = experiments.iter().map(|(n, _)| n.clone()).collect();
        let cells: Vec<SweepCell> = experiments.into_iter().flat_map(|(_, g)| g).collect();
        let runtime = Runtime::new(cells, store, cfg);
        Ok(Server {
            listener,
            shared: Arc::new(session::shared(runtime, names)),
        })
    }

    /// The bound address (use with `addr` port `0` to discover the
    /// ephemeral port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A shutdown switch usable from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Run to completion. With `exit_when_done`, returns as soon as
    /// every cell is complete or failed; otherwise runs until the
    /// shutdown handle fires (serving late workers their `done`).
    pub fn run(self, exit_when_done: bool) -> ServeSummary {
        let Server { listener, shared } = self;
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        // Set when the grid first completes: the daemon then keeps
        // serving until every session drains (workers collect `done`
        // and say `bye`) or the grace ceiling passes — breaking the
        // instant the grid is done would cut off in-flight requests.
        let mut done_since: Option<Instant> = None;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let shared = Arc::clone(&shared);
                    sessions.push(std::thread::spawn(move || {
                        serve_guarded(stream, &shared);
                    }));
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    std::thread::sleep(POLL);
                }
                Err(_) => std::thread::sleep(POLL),
            }

            let done_grace = {
                let mut rt = shared.runtime.lock().expect("serve runtime lock");
                for index in rt.expire(Instant::now()) {
                    eprintln!("[pp-serve] lease on cell {index} expired; requeued");
                }
                if exit_when_done && rt.is_done() && done_since.is_none() {
                    done_since = Some(Instant::now());
                }
                rt.config().done_grace
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            sessions.retain(|h| !h.is_finished());
            if let Some(since) = done_since {
                if sessions.is_empty() || since.elapsed() >= done_grace {
                    break;
                }
            }
        }

        // Wind down: sessions notice the flag at their next read tick.
        shared.shutdown.store(true, Ordering::SeqCst);
        for h in sessions {
            let _ = h.join();
        }
        // Every session thread joined, so this is the last Arc; the
        // brief retry guards the window between a detached finished
        // thread's closure return and its Arc drop.
        let mut shared = shared;
        let shared = loop {
            match Arc::try_unwrap(shared) {
                Ok(s) => break s,
                Err(still_shared) => {
                    shared = still_shared;
                    std::thread::sleep(POLL);
                }
            }
        };
        shared
            .runtime
            .into_inner()
            .expect("serve runtime lock")
            .into_summary()
    }
}

/// Session wrapper: a panic inside one session must not take down the
/// daemon (as a panicking cell does not take down a sweep).
fn serve_guarded(stream: TcpStream, shared: &Shared) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session::serve_connection(stream, shared);
    }));
    if let Err(payload) = result {
        eprintln!(
            "[pp-serve] session panicked: {}",
            pp_core::panic_message(payload.as_ref())
        );
    }
}
