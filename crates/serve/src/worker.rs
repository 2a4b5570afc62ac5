//! The worker: a thin remote loop over the existing cell-execution
//! path.
//!
//! A worker never ships configurations over the wire. It rebuilds the
//! server's grid locally from the registry names in `welcome` (via the
//! caller-supplied resolver — `sweep work` passes the experiment
//! suite), then proves the grids identical with one `grid_sig`
//! comparison before accepting any lease. Per-cell fingerprints are
//! re-verified on every `cell` frame, so `PP_SCALE` or behavior-
//! revision skew between hosts degrades to a typed [`WorkerError`],
//! never a silently-wrong result in the shared cache.
//!
//! Execution reuses [`SweepCell::run`] unchanged, classification and
//! flight recorder included: a panicking cell reports `status=panic`
//! with the last recorded cycles of machine history in the message,
//! exactly what a local sweep's `CellErrorKind::Panic` would carry, and
//! the daemon records it as the same `CellError`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use pp_sweep::{CellErrorKind, SweepCell};

use crate::wire::{Reply, Request, WorkStatus, PROTO_VERSION};

/// Why a worker run gave up.
#[derive(Debug)]
pub enum WorkerError {
    /// Connecting, reading, or writing failed.
    Io(std::io::Error),
    /// The server sent something the protocol does not allow here, or
    /// reported a fault in something we sent.
    Protocol(String),
    /// The local grid does not match the server's (unknown experiment,
    /// cell-count or signature mismatch — usually `PP_SCALE` skew).
    GridSkew(String),
    /// Admission stayed `busy` past the retry budget.
    Busy,
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Io(e) => write!(f, "i/o: {e}"),
            WorkerError::Protocol(m) => write!(f, "protocol: {m}"),
            WorkerError::GridSkew(m) => write!(f, "grid skew: {m}"),
            WorkerError::Busy => write!(f, "server busy past the retry budget"),
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<std::io::Error> for WorkerError {
    fn from(e: std::io::Error) -> Self {
        WorkerError::Io(e)
    }
}

/// What one worker did over its connection lifetime.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WorkerReport {
    /// Cells simulated and accepted as fresh completions.
    pub simulated: usize,
    /// Cells whose result arrived after someone else's (acknowledged
    /// as redundant — counted separately so tests can assert the
    /// requeue-exactly-once property).
    pub redundant: usize,
    /// Cells reported as `panic`/`cycle_limit`.
    pub failed: usize,
}

/// Worker tuning.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Display name sent in `hello`.
    pub client: String,
    /// Admission retries before giving up with [`WorkerError::Busy`].
    pub admission_retries: u32,
    /// Ceiling on server-suggested back-off, so a misconfigured server
    /// cannot park the worker for minutes.
    pub max_backoff: Duration,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            client: "worker".to_string(),
            admission_retries: 100,
            max_backoff: Duration::from_secs(2),
        }
    }
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Connection {
    fn open(addr: &str) -> Result<Connection, WorkerError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Connection {
            reader,
            writer: stream,
            line: String::new(),
        })
    }

    fn send(&mut self, req: &Request) -> Result<(), WorkerError> {
        self.writer.write_all(req.to_line().as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Reply, WorkerError> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Err(WorkerError::Protocol(
                "server closed the connection".to_string(),
            ));
        }
        Reply::from_line(&self.line).map_err(|e| WorkerError::Protocol(e.to_string()))
    }
}

/// Connect to `addr`, rebuild the grid via `resolver` (registry name →
/// grid, in server order), and work until the server says `done`.
///
/// # Errors
/// Typed [`WorkerError`] on connection loss, protocol faults, grid
/// skew, or admission that stays busy past the retry budget.
pub fn run_worker(
    addr: &str,
    cfg: &WorkerConfig,
    resolver: impl Fn(&str) -> Option<Vec<SweepCell>>,
) -> Result<WorkerReport, WorkerError> {
    // --- Admission, with bounded busy-retry. -------------------------
    let mut attempts = 0u32;
    let (mut conn, welcome) = loop {
        let mut conn = Connection::open(addr)?;
        conn.send(&Request::Hello {
            client: cfg.client.clone(),
            proto: PROTO_VERSION,
        })?;
        match conn.recv()? {
            Reply::Welcome {
                proto,
                experiments,
                cells,
                grid_sig,
                ..
            } => {
                if proto != PROTO_VERSION {
                    return Err(WorkerError::Protocol(format!(
                        "server speaks protocol {proto}, this worker {PROTO_VERSION}"
                    )));
                }
                break (conn, (experiments, cells, grid_sig));
            }
            Reply::Busy { retry_ms, .. } => {
                attempts += 1;
                if attempts > cfg.admission_retries {
                    return Err(WorkerError::Busy);
                }
                backoff(cfg, retry_ms);
            }
            Reply::Error { reason } => return Err(WorkerError::Protocol(reason)),
            other => {
                return Err(WorkerError::Protocol(format!(
                    "expected welcome, got {other:?}"
                )))
            }
        }
    };

    // --- Grid reconstruction and verification. -----------------------
    let (experiments, cells, grid_sig) = welcome;
    let mut grid: Vec<SweepCell> = Vec::new();
    for name in &experiments {
        let Some(g) = resolver(name) else {
            return Err(WorkerError::GridSkew(format!(
                "unknown experiment {name:?} (registry drift between server and worker?)"
            )));
        };
        grid.extend(g);
    }
    if grid.len() as u64 != cells {
        return Err(WorkerError::GridSkew(format!(
            "grid has {} cells locally, {cells} at the server",
            grid.len()
        )));
    }
    let local_sig = crate::runtime::grid_signature(&grid);
    if local_sig != grid_sig {
        return Err(WorkerError::GridSkew(format!(
            "grid signature {local_sig} does not match the server's {grid_sig} \
             (check PP_SCALE and behavior revision)"
        )));
    }

    // --- Lease → run → result, until done. ---------------------------
    let mut report = WorkerReport::default();
    loop {
        conn.send(&Request::Lease)?;
        match conn.recv()? {
            Reply::Cell {
                index,
                fingerprint,
                label,
                ..
            } => {
                let cell = grid.get(index as usize).ok_or_else(|| {
                    WorkerError::Protocol(format!("leased index {index} out of range"))
                })?;
                if cell.fingerprint() != fingerprint {
                    return Err(WorkerError::GridSkew(format!(
                        "cell {index} fingerprint mismatch"
                    )));
                }
                eprintln!("[pp-work] {} cell {index} ({label})", cfg.client);
                let result = execute(cell, index, &fingerprint);
                let failed =
                    matches!(&result, Request::Result { status, .. } if *status != WorkStatus::Ok);
                conn.send(&result)?;
                match conn.recv()? {
                    Reply::Ack { cached, .. } => {
                        if failed {
                            report.failed += 1;
                        } else if cached {
                            report.redundant += 1;
                        } else {
                            report.simulated += 1;
                        }
                    }
                    Reply::Error { reason } => return Err(WorkerError::Protocol(reason)),
                    other => {
                        return Err(WorkerError::Protocol(format!(
                            "expected ack, got {other:?}"
                        )))
                    }
                }
            }
            Reply::Wait { retry_ms } | Reply::Busy { retry_ms, .. } => backoff(cfg, retry_ms),
            Reply::Done => {
                let _ = conn.send(&Request::Bye);
                return Ok(report);
            }
            Reply::Error { reason } => return Err(WorkerError::Protocol(reason)),
            other => {
                return Err(WorkerError::Protocol(format!(
                    "unexpected reply to lease: {other:?}"
                )))
            }
        }
    }
}

/// Run one cell through the standard execution path ([`SweepCell::run`],
/// which classifies the outcome and appends the flight-recorder dump to
/// a panic) and package it as a `result` frame.
fn execute(cell: &SweepCell, index: u64, fingerprint: &str) -> Request {
    let (status, stats, message) = match cell.run() {
        Ok(stats) => (WorkStatus::Ok, stats.to_json(), String::new()),
        Err(CellErrorKind::Panic(message)) => (WorkStatus::Panic, String::new(), message),
        Err(CellErrorKind::CycleLimit { .. }) => {
            (WorkStatus::CycleLimit, String::new(), String::new())
        }
    };
    Request::Result {
        index,
        fingerprint: fingerprint.to_string(),
        status,
        stats,
        message,
    }
}

fn backoff(cfg: &WorkerConfig, retry_ms: u64) {
    std::thread::sleep(Duration::from_millis(retry_ms.max(1)).min(cfg.max_backoff));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::{ConfigError, SimConfig};
    use pp_sweep::SweepEngine;
    use pp_workloads::Workload;

    #[test]
    fn a_panicking_cell_is_a_panic_result_with_the_local_message() {
        let cell = SweepCell {
            workload: Workload::Compress,
            seed: None,
            scale: 40,
            config: SimConfig::baseline().with_pipeline_depth(2),
        };
        let fp = cell.fingerprint();
        let Request::Result {
            index,
            fingerprint,
            status,
            stats,
            message,
        } = execute(&cell, 7, &fp)
        else {
            panic!("execute answers with a result frame");
        };
        assert_eq!((index, fingerprint.as_str()), (7, fp.as_str()));
        assert_eq!(status, WorkStatus::Panic);
        assert!(stats.is_empty());
        let rejected = ConfigError::PipelineDepthOutOfRange { depth: 2 }.to_string();
        assert_eq!(message, rejected);
        let local = SweepEngine::new().with_workers(1).run(&[cell]);
        assert_eq!(local.errors[0].kind, CellErrorKind::Panic(message));
    }
}
