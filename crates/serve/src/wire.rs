//! The pp-serve wire format: line-framed JSONL, one flat JSON object
//! per `\n`-terminated line.
//!
//! This module is pure data — no sockets, no clocks — so every frame
//! round-trips in unit tests without a connection. The grammar is
//! deliberately flat: every value is a string, an unsigned integer, or
//! a boolean. Frames are read with the workspace's strict JSON reader
//! ([`pp_core::json`]), so truncation, garbage and duplicate keys are
//! protocol faults, never a partial success. List-valued fields
//! (the experiment names in `welcome`) are comma-joined strings —
//! registry names are identifiers and cannot contain commas.
//!
//! ```text
//! client → server:  hello · lease · result · progress · bye
//! server → client:  welcome · busy · cell · wait · ack · progress ·
//!                   done · error
//! ```
//!
//! Frames longer than [`MAX_LINE_BYTES`] are rejected before parsing so
//! a hostile or broken peer cannot balloon the session's memory.

use std::fmt::Write as _;

use pp_core::json::{self, escape, Value};

/// Wire protocol revision. Bumped on any frame-grammar change; the
/// `hello`/`welcome` handshake rejects a mismatch before any work is
/// leased.
pub const PROTO_VERSION: u64 = 1;

/// Hard cap on one frame's length, terminator included. Stats JSON for
/// a cell is ~2 KiB; 1 MiB leaves two orders of magnitude of headroom.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// A malformed frame: what broke and (best-effort) where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

/// Terminal status of one executed cell, as reported by a worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkStatus {
    /// The cell ran to completion; `stats` carries the result.
    Ok,
    /// The simulation panicked; `message` carries the payload (with
    /// the flight-recorder dump appended by the worker harness).
    Panic,
    /// The run hit its configured cycle limit without halting.
    CycleLimit,
}

impl WorkStatus {
    fn as_str(self) -> &'static str {
        match self {
            WorkStatus::Ok => "ok",
            WorkStatus::Panic => "panic",
            WorkStatus::CycleLimit => "cycle_limit",
        }
    }

    fn parse(s: &str) -> Result<Self, WireError> {
        match s {
            "ok" => Ok(WorkStatus::Ok),
            "panic" => Ok(WorkStatus::Panic),
            "cycle_limit" => Ok(WorkStatus::CycleLimit),
            other => err(format!("unknown status {other:?}")),
        }
    }
}

/// A client→server frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake: identify the client and its protocol revision.
    Hello {
        /// Client display name (worker host/pid label; informational).
        client: String,
        /// The client's [`PROTO_VERSION`].
        proto: u64,
    },
    /// Ask for the next cell to simulate.
    Lease,
    /// Report a finished cell.
    Result {
        /// Grid index of the cell (echoed from the `cell` frame).
        index: u64,
        /// The cell's content-address (echoed; the server re-verifies).
        fingerprint: String,
        /// How the run ended.
        status: WorkStatus,
        /// `SimStats::to_json` for an `ok` run, empty otherwise.
        stats: String,
        /// Failure detail for `panic`/`cycle_limit`, empty for `ok`.
        message: String,
    },
    /// Ask for a progress snapshot (also serves as a keepalive).
    Progress,
    /// Orderly goodbye; the server releases the client's slot.
    Bye,
}

/// A server→client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Handshake accepted: the grid on offer.
    Welcome {
        /// The server's [`PROTO_VERSION`].
        proto: u64,
        /// Registry experiment names whose grids, concatenated in this
        /// order, form the sweep (comma-joined on the wire).
        experiments: Vec<String>,
        /// Total cell count of the concatenated grid.
        cells: u64,
        /// Fingerprint over every cell's fingerprint, in grid order —
        /// one equality check proves both sides built the same grid.
        grid_sig: String,
        /// Lease deadline the server will apply, in milliseconds.
        lease_ms: u64,
    },
    /// Admission or lease refused; retry after `retry_ms`.
    Busy {
        /// Which limit refused: `clients` (every session slot is taken)
        /// or `quota` (the client already holds a lease).
        reason: String,
        /// Suggested client back-off in milliseconds.
        retry_ms: u64,
    },
    /// A leased cell: simulate it and send a `result`.
    Cell {
        /// Grid index of the cell.
        index: u64,
        /// The cell's content-address; the worker must verify its own
        /// grid agrees before running (catches `PP_SCALE` or
        /// behavior-revision skew).
        fingerprint: String,
        /// Human label for worker-side logs.
        label: String,
        /// Milliseconds until the lease expires and the cell is
        /// requeued to another worker.
        deadline_ms: u64,
    },
    /// Nothing leasable right now (all remaining cells are in flight);
    /// poll again after `retry_ms`.
    Wait {
        /// Suggested client back-off in milliseconds.
        retry_ms: u64,
    },
    /// A `result` was accepted. `cached` is true when the cell had
    /// already been completed by someone else (late duplicate).
    Ack {
        /// Grid index being acknowledged.
        index: u64,
        /// Whether the result was redundant with an earlier completion.
        cached: bool,
    },
    /// Progress snapshot.
    Progress {
        /// Total cells in the grid.
        total: u64,
        /// Cells complete (stored or already cached).
        complete: u64,
        /// Cells currently leased out.
        leased: u64,
        /// Lease expiries/worker deaths that requeued a cell so far.
        requeued: u64,
        /// Cells permanently failed (attempt budget exhausted).
        failed: u64,
    },
    /// Every cell is complete or failed; the client should `bye`.
    Done,
    /// Protocol fault; the server closes the connection after this.
    Error {
        /// Human-readable cause.
        reason: String,
    },
}

impl Request {
    /// Encode as one newline-terminated frame.
    pub fn to_line(&self) -> String {
        match self {
            Request::Hello { client, proto } => {
                let mut o = obj("hello");
                field_str(&mut o, "client", client);
                field_u64(&mut o, "proto", *proto);
                close(o)
            }
            Request::Lease => close(obj("lease")),
            Request::Result {
                index,
                fingerprint,
                status,
                stats,
                message,
            } => {
                let mut o = obj("result");
                field_u64(&mut o, "index", *index);
                field_str(&mut o, "fp", fingerprint);
                field_str(&mut o, "status", status.as_str());
                field_str(&mut o, "stats", stats);
                field_str(&mut o, "message", message);
                close(o)
            }
            Request::Progress => close(obj("progress")),
            Request::Bye => close(obj("bye")),
        }
    }

    /// Decode one frame (the line terminator may be present or not).
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        let f = Frame::parse(line)?;
        match f.str("type")? {
            "hello" => Ok(Request::Hello {
                client: f.str("client")?.to_string(),
                proto: f.u64("proto")?,
            }),
            "lease" => Ok(Request::Lease),
            "result" => Ok(Request::Result {
                index: f.u64("index")?,
                fingerprint: f.str("fp")?.to_string(),
                status: WorkStatus::parse(f.str("status")?)?,
                stats: f.str("stats")?.to_string(),
                message: f.str("message")?.to_string(),
            }),
            "progress" => Ok(Request::Progress),
            "bye" => Ok(Request::Bye),
            other => err(format!("unknown request type {other:?}")),
        }
    }
}

impl Reply {
    /// Encode as one newline-terminated frame.
    pub fn to_line(&self) -> String {
        match self {
            Reply::Welcome {
                proto,
                experiments,
                cells,
                grid_sig,
                lease_ms,
            } => {
                let mut o = obj("welcome");
                field_u64(&mut o, "proto", *proto);
                field_str(&mut o, "experiments", &experiments.join(","));
                field_u64(&mut o, "cells", *cells);
                field_str(&mut o, "grid_sig", grid_sig);
                field_u64(&mut o, "lease_ms", *lease_ms);
                close(o)
            }
            Reply::Busy { reason, retry_ms } => {
                let mut o = obj("busy");
                field_str(&mut o, "reason", reason);
                field_u64(&mut o, "retry_ms", *retry_ms);
                close(o)
            }
            Reply::Cell {
                index,
                fingerprint,
                label,
                deadline_ms,
            } => {
                let mut o = obj("cell");
                field_u64(&mut o, "index", *index);
                field_str(&mut o, "fp", fingerprint);
                field_str(&mut o, "label", label);
                field_u64(&mut o, "deadline_ms", *deadline_ms);
                close(o)
            }
            Reply::Wait { retry_ms } => {
                let mut o = obj("wait");
                field_u64(&mut o, "retry_ms", *retry_ms);
                close(o)
            }
            Reply::Ack { index, cached } => {
                let mut o = obj("ack");
                field_u64(&mut o, "index", *index);
                field_bool(&mut o, "cached", *cached);
                close(o)
            }
            Reply::Progress {
                total,
                complete,
                leased,
                requeued,
                failed,
            } => {
                let mut o = obj("progress");
                field_u64(&mut o, "total", *total);
                field_u64(&mut o, "complete", *complete);
                field_u64(&mut o, "leased", *leased);
                field_u64(&mut o, "requeued", *requeued);
                field_u64(&mut o, "failed", *failed);
                close(o)
            }
            Reply::Done => close(obj("done")),
            Reply::Error { reason } => {
                let mut o = obj("error");
                field_str(&mut o, "reason", reason);
                close(o)
            }
        }
    }

    /// Decode one frame (the line terminator may be present or not).
    pub fn from_line(line: &str) -> Result<Self, WireError> {
        let f = Frame::parse(line)?;
        match f.str("type")? {
            "welcome" => Ok(Reply::Welcome {
                proto: f.u64("proto")?,
                experiments: {
                    let joined = f.str("experiments")?;
                    if joined.is_empty() {
                        Vec::new()
                    } else {
                        joined.split(',').map(str::to_string).collect()
                    }
                },
                cells: f.u64("cells")?,
                grid_sig: f.str("grid_sig")?.to_string(),
                lease_ms: f.u64("lease_ms")?,
            }),
            "busy" => Ok(Reply::Busy {
                reason: f.str("reason")?.to_string(),
                retry_ms: f.u64("retry_ms")?,
            }),
            "cell" => Ok(Reply::Cell {
                index: f.u64("index")?,
                fingerprint: f.str("fp")?.to_string(),
                label: f.str("label")?.to_string(),
                deadline_ms: f.u64("deadline_ms")?,
            }),
            "wait" => Ok(Reply::Wait {
                retry_ms: f.u64("retry_ms")?,
            }),
            "ack" => Ok(Reply::Ack {
                index: f.u64("index")?,
                cached: f.bool("cached")?,
            }),
            "progress" => Ok(Reply::Progress {
                total: f.u64("total")?,
                complete: f.u64("complete")?,
                leased: f.u64("leased")?,
                requeued: f.u64("requeued")?,
                failed: f.u64("failed")?,
            }),
            "done" => Ok(Reply::Done),
            "error" => Ok(Reply::Error {
                reason: f.str("reason")?.to_string(),
            }),
            other => err(format!("unknown reply type {other:?}")),
        }
    }
}

// ----------------------------------------------------------------------
// Flat-JSON encoding helpers
// ----------------------------------------------------------------------

fn obj(ty: &str) -> String {
    format!("{{\"type\":\"{ty}\"")
}

fn field_str(o: &mut String, key: &str, v: &str) {
    let _ = write!(o, ",\"{key}\":\"{}\"", escape(v));
}

fn field_u64(o: &mut String, key: &str, v: u64) {
    let _ = write!(o, ",\"{key}\":{v}");
}

fn field_bool(o: &mut String, key: &str, v: bool) {
    let _ = write!(o, ",\"{key}\":{v}");
}

fn close(mut o: String) -> String {
    o.push_str("}\n");
    o
}

// ----------------------------------------------------------------------
// Frame parsing
// ----------------------------------------------------------------------

/// One parsed frame: a JSON object read by [`pp_core::json`], with
/// typed field access.
struct Frame(Value);

impl Frame {
    fn parse(line: &str) -> Result<Frame, WireError> {
        if line.len() > MAX_LINE_BYTES {
            return err(format!("frame exceeds {MAX_LINE_BYTES} bytes"));
        }
        let v = json::parse(line.trim_end_matches(['\r', '\n']))
            .map_err(|e| WireError(e.to_string()))?;
        if v.as_object().is_none() {
            return err("frame is not a JSON object");
        }
        Ok(Frame(v))
    }

    fn get(&self, key: &str) -> Result<&Value, WireError> {
        self.0
            .get(key)
            .map_or_else(|| err(format!("missing field {key:?}")), Ok)
    }

    fn str(&self, key: &str) -> Result<&str, WireError> {
        self.get(key)?
            .as_str()
            .map_or_else(|| err(format!("field {key:?} is not a string")), Ok)
    }

    fn u64(&self, key: &str) -> Result<u64, WireError> {
        self.get(key)?.as_u64().map_or_else(
            || err(format!("field {key:?} is not an unsigned integer")),
            Ok,
        )
    }

    fn bool(&self, key: &str) -> Result<bool, WireError> {
        self.get(key)?
            .as_bool()
            .map_or_else(|| err(format!("field {key:?} is not a boolean")), Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_request_round_trips() {
        let reqs = [
            Request::Hello {
                client: "worker@host:1".to_string(),
                proto: PROTO_VERSION,
            },
            Request::Lease,
            Request::Result {
                index: 7,
                fingerprint: "ab12".to_string(),
                status: WorkStatus::Ok,
                stats: "{\n  \"cycles\": 42\n}".to_string(),
                message: String::new(),
            },
            Request::Result {
                index: 8,
                fingerprint: "cd34".to_string(),
                status: WorkStatus::Panic,
                stats: String::new(),
                message: "boom\nflight: \"quoted\"".to_string(),
            },
            Request::Result {
                index: 9,
                fingerprint: "ef56".to_string(),
                status: WorkStatus::CycleLimit,
                stats: String::new(),
                message: "hit the limit".to_string(),
            },
            Request::Progress,
            Request::Bye,
        ];
        for r in reqs {
            let line = r.to_line();
            assert!(line.ends_with('\n'), "{line:?}");
            assert!(!line.trim_end().contains('\n'), "one frame, one line");
            assert_eq!(Request::from_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn every_reply_round_trips() {
        let replies = [
            Reply::Welcome {
                proto: PROTO_VERSION,
                experiments: vec!["table1".to_string(), "fig8".to_string()],
                cells: 32,
                grid_sig: "0011aabb".to_string(),
                lease_ms: 60_000,
            },
            Reply::Busy {
                reason: "clients".to_string(),
                retry_ms: 500,
            },
            Reply::Cell {
                index: 3,
                fingerprint: "ab12".to_string(),
                label: "compress".to_string(),
                deadline_ms: 60_000,
            },
            Reply::Wait { retry_ms: 250 },
            Reply::Ack {
                index: 3,
                cached: false,
            },
            Reply::Progress {
                total: 32,
                complete: 10,
                leased: 4,
                requeued: 1,
                failed: 0,
            },
            Reply::Done,
            Reply::Error {
                reason: "fingerprint mismatch".to_string(),
            },
        ];
        for r in replies {
            let line = r.to_line();
            assert!(line.ends_with('\n'), "{line:?}");
            assert_eq!(Reply::from_line(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn empty_experiment_list_round_trips() {
        let w = Reply::Welcome {
            proto: 1,
            experiments: Vec::new(),
            cells: 0,
            grid_sig: String::new(),
            lease_ms: 1,
        };
        assert_eq!(Reply::from_line(&w.to_line()).unwrap(), w);
    }

    #[test]
    fn garbage_and_truncation_are_typed_faults() {
        for bad in [
            "",
            "not json at all",
            "{\"type\":\"lease\"",             // truncated frame
            "{\"type\":\"lease\"} trailing",   // trailing bytes
            "{\"type\":\"warp\"}",             // unknown type
            "{\"type\":\"hello\",\"proto\":1}", // missing field
            "{\"type\":\"hello\",\"client\":3,\"proto\":1}", // wrong field type
            "{\"type\":\"result\",\"index\":1,\"fp\":\"x\",\"status\":\"maybe\",\"stats\":\"\",\"message\":\"\"}",
        ] {
            assert!(Request::from_line(bad).is_err(), "{bad:?} must not parse");
        }
        assert!(Reply::from_line("{\"type\":\"warp\"}").is_err());
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let huge = format!(
            "{{\"type\":\"hello\",\"client\":\"{}\",\"proto\":1}}",
            "x".repeat(MAX_LINE_BYTES)
        );
        assert!(Request::from_line(&huge).is_err());
    }

    #[test]
    fn u64_max_index_round_trips() {
        let r = Request::Result {
            index: u64::MAX,
            fingerprint: "f".to_string(),
            status: WorkStatus::Ok,
            stats: String::new(),
            message: String::new(),
        };
        assert_eq!(Request::from_line(&r.to_line()).unwrap(), r);
        let c = Reply::Cell {
            index: u64::MAX,
            fingerprint: "f".to_string(),
            label: "go".to_string(),
            deadline_ms: u64::MAX,
        };
        assert_eq!(Reply::from_line(&c.to_line()).unwrap(), c);
    }

    #[test]
    fn duplicate_key_is_a_typed_fault() {
        let e = Request::from_line("{\"type\":\"lease\",\"type\":\"bye\"}\n").unwrap_err();
        assert!(e.0.contains("duplicate"), "{e}");
        let e = Reply::from_line("{\"type\":\"ack\",\"index\":1,\"index\":2,\"cached\":true}")
            .unwrap_err();
        assert!(e.0.contains("duplicate"), "{e}");
    }

    #[test]
    fn control_characters_survive_the_frame() {
        let r = Request::Result {
            index: 0,
            fingerprint: "f".to_string(),
            status: WorkStatus::Panic,
            stats: String::new(),
            message: "line1\nline2\ttabbed \u{1}ctl".to_string(),
        };
        let line = r.to_line();
        assert!(!line.trim_end().contains('\n'));
        assert_eq!(Request::from_line(&line).unwrap(), r);
    }
}
