//! One server-side session: socket ↔ wire frames ↔ runtime calls.
//!
//! A session owns exactly one client connection from accept to close.
//! It enforces the handshake (first frame must be a matching-protocol
//! `hello`), translates each subsequent request into a [`Runtime`]
//! call under the shared lock, and guarantees the client's slot is
//! departed — requeueing any leases it still holds — on *every* exit
//! path: orderly `bye`, protocol fault, socket error, EOF mid-frame,
//! write timeout, or daemon shutdown. That single invariant is what
//! the fault-injection suite pins: however a client dies, its work
//! goes back in the queue and its lease is released.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::runtime::{AdmitOutcome, ClientId, LeaseOutcome, Runtime};
use crate::wire::{Reply, Request, MAX_LINE_BYTES, PROTO_VERSION};

/// State shared between the daemon's accept loop and every session.
pub(crate) struct Shared {
    /// The lease table and everything behind it.
    pub runtime: Mutex<Runtime>,
    /// Registry experiment names, in grid order, for `welcome`.
    pub experiments: Vec<String>,
    /// Set once by the daemon; sessions close at their next read tick.
    pub shutdown: AtomicBool,
}

impl Shared {
    fn runtime(&self) -> std::sync::MutexGuard<'_, Runtime> {
        self.runtime.lock().expect("serve runtime lock")
    }
}

/// Outcome of one read attempt.
enum Read {
    Frame(String),
    /// Read timeout fired with no data — poll the shutdown flag.
    Idle,
    /// EOF or socket error: the peer is gone.
    Gone,
    /// The peer sent more than [`MAX_LINE_BYTES`] without a newline.
    Oversized,
}

fn read_frame(reader: &mut BufReader<TcpStream>, buf: &mut String) -> Read {
    buf.clear();
    // Bound the line length by reading through the BufReader's chunks
    // rather than `read_line` (which would buffer without limit).
    loop {
        let available = match reader.fill_buf() {
            Ok([]) => return Read::Gone,
            Ok(chunk) => chunk,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                return Read::Idle;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Read::Gone,
        };
        let (consumed, done) = match available.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (available.len(), false),
        };
        buf.push_str(&String::from_utf8_lossy(&available[..consumed]));
        reader.consume(consumed);
        if buf.len() > MAX_LINE_BYTES {
            return Read::Oversized;
        }
        if done {
            return Read::Frame(std::mem::take(buf));
        }
    }
}

fn send(stream: &mut TcpStream, reply: &Reply) -> std::io::Result<()> {
    stream.write_all(reply.to_line().as_bytes())?;
    stream.flush()
}

/// Serve one accepted connection to completion. Never panics the
/// daemon: every failure path closes this session only.
pub(crate) fn serve_connection(stream: TcpStream, shared: &Shared) {
    let (read_timeout, write_timeout) = {
        let rt = shared.runtime();
        (rt.config().read_timeout, rt.config().write_timeout)
    };
    // Timeouts bound every blocking call: reads so the session notices
    // shutdown, writes so a stalled client cannot pin the thread.
    if stream.set_read_timeout(Some(read_timeout)).is_err()
        || stream.set_write_timeout(Some(write_timeout)).is_err()
        || stream.set_nodelay(true).is_err()
    {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let mut buf = String::new();

    // --- Handshake: one hello, then admission. -----------------------
    let Some(client_id) = handshake(&mut reader, &mut writer, &mut buf, shared) else {
        return;
    };

    // --- Steady state. ------------------------------------------------
    let mut departed = false;
    loop {
        let frame = match read_frame(&mut reader, &mut buf) {
            Read::Frame(f) => f,
            Read::Idle => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Read::Gone => break,
            Read::Oversized => {
                shared.runtime().note_fault();
                let _ = send(
                    &mut writer,
                    &Reply::Error {
                        reason: format!("frame exceeds {MAX_LINE_BYTES} bytes"),
                    },
                );
                break;
            }
        };
        if frame.trim().is_empty() {
            continue;
        }
        let request = match Request::from_line(&frame) {
            Ok(r) => r,
            Err(e) => {
                // Garbage or truncated frame: typed error, then drop
                // the client (its leases requeue via depart below).
                shared.runtime().note_fault();
                let _ = send(
                    &mut writer,
                    &Reply::Error {
                        reason: e.to_string(),
                    },
                );
                break;
            }
        };
        let now = Instant::now();
        shared.runtime().touch(client_id, now);
        let reply = match request {
            Request::Hello { .. } => Reply::Error {
                reason: "duplicate hello".to_string(),
            },
            Request::Lease => match shared.runtime().lease(client_id, now) {
                LeaseOutcome::Leased {
                    index,
                    fingerprint,
                    label,
                    deadline_ms,
                } => Reply::Cell {
                    index: index as u64,
                    fingerprint,
                    label,
                    deadline_ms,
                },
                LeaseOutcome::Wait { retry_ms } => Reply::Wait { retry_ms },
                LeaseOutcome::Busy { retry_ms } => Reply::Busy {
                    reason: "quota".to_string(),
                    retry_ms,
                },
                LeaseOutcome::Done => Reply::Done,
            },
            Request::Result {
                index,
                fingerprint,
                status,
                stats,
                message,
            } => {
                if !message.is_empty() {
                    eprintln!(
                        "[pp-serve] cell {index} reported {status:?}: {}",
                        message.lines().next().unwrap_or("")
                    );
                }
                match shared.runtime().complete(
                    client_id,
                    index as usize,
                    &fingerprint,
                    status,
                    &stats,
                ) {
                    Ok(redundant) => Reply::Ack {
                        index,
                        cached: redundant,
                    },
                    Err(e) => Reply::Error {
                        reason: e.to_string(),
                    },
                }
            }
            Request::Progress => {
                let s = shared.runtime().snapshot();
                Reply::Progress {
                    total: s.total,
                    complete: s.complete,
                    leased: s.leased,
                    requeued: s.requeued,
                    failed: s.failed,
                }
            }
            Request::Bye => {
                shared.runtime().depart(client_id);
                departed = true;
                break;
            }
        };
        let fatal = matches!(reply, Reply::Error { .. });
        if send(&mut writer, &reply).is_err() || fatal {
            // A write timeout means the client stopped reading; either
            // way this session is over and depart() requeues its work.
            break;
        }
    }
    if !departed {
        shared.runtime().depart(client_id);
    }
}

/// Run the handshake: read exactly one `hello`, check the protocol,
/// admit. Returns `None` (after best-effort error/busy reply) if the
/// client never gets a slot.
fn handshake(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    buf: &mut String,
    shared: &Shared,
) -> Option<ClientId> {
    let frame = loop {
        match read_frame(reader, buf) {
            Read::Frame(f) if f.trim().is_empty() => {}
            Read::Frame(f) => break f,
            Read::Idle => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return None;
                }
            }
            Read::Gone | Read::Oversized => return None,
        }
    };
    let hello = Request::from_line(&frame);
    let (client, proto) = match hello {
        Ok(Request::Hello { client, proto }) => (client, proto),
        Ok(_) => {
            shared.runtime().note_fault();
            let _ = send(
                writer,
                &Reply::Error {
                    reason: "expected hello".to_string(),
                },
            );
            return None;
        }
        Err(e) => {
            shared.runtime().note_fault();
            let _ = send(
                writer,
                &Reply::Error {
                    reason: e.to_string(),
                },
            );
            return None;
        }
    };
    if proto != PROTO_VERSION {
        shared.runtime().note_fault();
        let _ = send(
            writer,
            &Reply::Error {
                reason: format!("protocol {proto} unsupported (server speaks {PROTO_VERSION})"),
            },
        );
        return None;
    }
    let (outcome, welcome) = {
        let mut rt = shared.runtime();
        let outcome = rt.admit(&client);
        let welcome = Reply::Welcome {
            proto: PROTO_VERSION,
            experiments: shared.experiments.clone(),
            cells: rt.total_cells() as u64,
            grid_sig: rt.grid_sig().to_string(),
            lease_ms: rt.config().lease_timeout.as_millis() as u64,
        };
        (outcome, welcome)
    };
    match outcome {
        AdmitOutcome::Admitted(id) => {
            if send(writer, &welcome).is_err() {
                shared.runtime().depart(id);
                return None;
            }
            Some(id)
        }
        AdmitOutcome::Busy { retry_ms } => {
            let _ = send(
                writer,
                &Reply::Busy {
                    reason: "clients".to_string(),
                    retry_ms,
                },
            );
            None
        }
    }
}

/// Convenience constructor used by the daemon.
pub(crate) fn shared(runtime: Runtime, experiments: Vec<String>) -> Shared {
    Shared {
        runtime: Mutex::new(runtime),
        experiments,
        shutdown: AtomicBool::new(false),
    }
}
