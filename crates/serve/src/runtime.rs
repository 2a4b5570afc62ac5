//! The serve runtime: lease table, admission control, and completion
//! accounting for one sweep grid.
//!
//! This module holds every piece of server state and none of the I/O —
//! sessions (`crate::session`) translate wire frames into calls here,
//! and the daemon's reaper calls [`Runtime::expire`] on a timer. Every
//! method that touches a deadline takes an explicit `now: Instant`, so
//! the whole lease state machine — expiry, requeue-exactly-once,
//! terminal failure reports, lease release — is unit-tested without a
//! socket or a sleep.
//!
//! ## Lease state machine
//!
//! ```text
//!            lease()                    complete(ok)
//! Pending ─────────────→ Leased ─────────────────────→ Complete
//!    ↑                      │
//!    │   expire()/depart(), first lease
//!    └──────────────────────┤
//!                           │  complete(fail), or expire()/depart()
//!                           │  of the second lease
//!                           └─────────────────────────→ Failed
//! ```
//!
//! A worker's failure report is final, as in a local sweep; a lost
//! worker's cell (expiry, disconnect) is requeued exactly once.
//!
//! A cell found in the shared [`ResultStore`] — at startup or by the
//! re-check when it comes up for lease — jumps straight to `Complete`
//! without ever being handed out; fingerprints make that safe across
//! processes and hosts.
//!
//! ## Backpressure
//!
//! Admission and leasing never queue. Past `max_clients` connected
//! sessions the caller gets a typed [`AdmitOutcome::Busy`] with a
//! suggested back-off, and the client retries. A client holds at most
//! one lease: the worker loop leases, simulates, reports and waits for
//! `ack` before it leases again, so a second `lease` while one is held
//! gets [`LeaseOutcome::Busy`]. Outstanding leases are therefore bounded
//! by `max_clients`, and a slow client can never starve the grid: its
//! lease expires and requeues.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use pp_core::SimStats;
use pp_sweep::{fingerprint_hex, CellError, CellErrorKind, ResultStore, SweepCell};
use pp_telemetry::{GaugeId, Registry};

use crate::daemon::ServeSummary;
use crate::wire::WorkStatus;

/// Leases a cell may get: a lost worker's cell is requeued exactly once.
const MAX_LEASES: u32 = 2;

/// Tuning knobs for the daemon. The defaults suit a loopback CI run;
/// production sweeps raise the limits, not the structure.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Connected-session cap; further `hello`s get `busy reason=clients`.
    pub max_clients: usize,
    /// How long a lease lives without a frame from its holder before
    /// the cell is requeued.
    pub lease_timeout: Duration,
    /// Back-off suggested to refused or waiting clients, milliseconds.
    pub retry_ms: u64,
    /// Socket read timeout for sessions (also the shutdown-notice
    /// latency: an idle session checks for shutdown this often).
    pub read_timeout: Duration,
    /// Socket write timeout for sessions: a client that stops reading
    /// is disconnected (and its leases requeued) after this.
    pub write_timeout: Duration,
    /// With `exit_when_done`, how long the daemon keeps serving after
    /// the grid completes so connected workers can collect their
    /// `done` and part with an orderly `bye` (it exits as soon as the
    /// last session drains, so this is a ceiling, not a sleep).
    pub done_grace: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_clients: 8,
            lease_timeout: Duration::from_secs(120),
            retry_ms: 250,
            read_timeout: Duration::from_millis(100),
            write_timeout: Duration::from_secs(10),
            done_grace: Duration::from_secs(2),
        }
    }
}

/// Handle to an admitted client. The token guards against a stale
/// handle reusing a slot after depart/readmit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientId {
    slot: usize,
    token: u64,
}

/// Why admission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmitOutcome {
    /// Admitted under this handle.
    Admitted(ClientId),
    /// All `max_clients` slots are taken; retry after `retry_ms`.
    Busy {
        /// Suggested back-off, milliseconds.
        retry_ms: u64,
    },
}

/// What a lease request produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseOutcome {
    /// A cell to simulate.
    Leased {
        /// Grid index.
        index: usize,
        /// The cell's content-address (precomputed).
        fingerprint: String,
        /// Human label for logs.
        label: String,
        /// Lease lifetime granted, milliseconds.
        deadline_ms: u64,
    },
    /// Nothing pending, but leases are outstanding — poll again.
    Wait {
        /// Suggested back-off, milliseconds.
        retry_ms: u64,
    },
    /// The client already holds a lease.
    Busy {
        /// Suggested back-off, milliseconds.
        retry_ms: u64,
    },
    /// Every cell is complete or failed.
    Done,
}

/// A rejected `result` frame (protocol fault; the session reports it
/// and disconnects the client).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResultError(pub String);

impl std::fmt::Display for ResultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rejected result: {}", self.0)
    }
}

impl std::error::Error for ResultError {}

/// Point-in-time grid progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    /// Cells in the grid.
    pub total: u64,
    /// Complete (simulated or served from the store).
    pub complete: u64,
    /// Currently leased out.
    pub leased: u64,
    /// Requeue events so far (expiries, departs, unparsable results): a
    /// lost worker's cell is retried once; a reported failure never is.
    pub requeued: u64,
    /// Permanently failed.
    pub failed: u64,
}

/// `Failed` holds the worker's report, or `None` when both leases were lost.
#[derive(Debug, Clone, PartialEq, Eq)]
enum CellState {
    Pending,
    Leased { holder: ClientId, deadline: Instant },
    Complete,
    Failed(Option<CellError>),
}

struct CellSlot {
    cell: SweepCell,
    fingerprint: String,
    state: CellState,
    /// Leases handed out so far (bounded by [`MAX_LEASES`]).
    attempts: u32,
}

struct ClientSlot {
    token: u64,
    /// The one cell this client holds, if any.
    lease: Option<usize>,
}

/// The server's entire mutable state: grid, lease table, client table,
/// store, and telemetry. One of these sits behind a mutex shared by
/// the session threads and the reaper.
pub struct Runtime {
    cfg: ServeConfig,
    cells: Vec<CellSlot>,
    /// Pending indexes in grid order; leases pop from the front and
    /// requeues push to the back, so a flaky cell cannot starve the
    /// tail of the grid.
    queue: VecDeque<usize>,
    clients: Vec<Option<ClientSlot>>,
    next_token: u64,
    store: Option<ResultStore>,
    grid_sig: String,
    requeue_events: u64,
    registry: Registry,
    ids: Counters,
}

struct Counters {
    complete: pp_telemetry::CounterId,
    cached: pp_telemetry::CounterId,
    requeued: pp_telemetry::CounterId,
    failed: pp_telemetry::CounterId,
    admitted: pp_telemetry::CounterId,
    rejected: pp_telemetry::CounterId,
    faults: pp_telemetry::CounterId,
    clients_connected: GaugeId,
    leases_inflight: GaugeId,
}

/// Signature over a grid: fingerprint of every cell's fingerprint in
/// order (plus the count). One string equality on the wire proves both
/// sides derived the same grid from the registry.
pub fn grid_signature(cells: &[SweepCell]) -> String {
    let mut material = format!("pp-serve grid v1 n={}", cells.len());
    for c in cells {
        material.push('\n');
        material.push_str(&c.fingerprint());
    }
    fingerprint_hex(material.as_bytes())
}

impl Runtime {
    /// A runtime over `cells`, completing against (and pre-populating
    /// from) `store` when given.
    pub fn new(cells: Vec<SweepCell>, store: Option<ResultStore>, cfg: ServeConfig) -> Self {
        let mut registry = Registry::new();
        let total = registry.counter("serve.cells_total");
        registry.inc(total, cells.len() as u64);
        let ids = Counters {
            complete: registry.counter("serve.cells_complete"),
            cached: registry.counter("serve.cells_cached"),
            requeued: registry.counter("serve.cells_requeued"),
            failed: registry.counter("serve.cells_failed"),
            admitted: registry.counter("serve.clients_admitted"),
            rejected: registry.counter("serve.clients_rejected"),
            faults: registry.counter("serve.protocol_faults"),
            clients_connected: registry.gauge("serve.clients_connected"),
            leases_inflight: registry.gauge("serve.leases_inflight"),
        };

        let grid_sig = grid_signature(&cells);
        let mut slots: Vec<CellSlot> = cells
            .into_iter()
            .map(|cell| CellSlot {
                fingerprint: cell.fingerprint(),
                cell,
                state: CellState::Pending,
                attempts: 0,
            })
            .collect();

        // Startup cache pass: anything the shared store already holds
        // is complete before the first worker connects.
        if let Some(store) = &store {
            for s in &mut slots {
                if store.load(&s.cell).is_some() {
                    s.state = CellState::Complete;
                    registry.inc(ids.complete, 1);
                    registry.inc(ids.cached, 1);
                }
            }
        }
        let queue = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == CellState::Pending)
            .map(|(i, _)| i)
            .collect();

        Runtime {
            clients: (0..cfg.max_clients).map(|_| None).collect(),
            cfg,
            cells: slots,
            queue,
            next_token: 1,
            store,
            grid_sig,
            requeue_events: 0,
            registry,
            ids,
        }
    }

    /// The serve configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The grid signature (see [`grid_signature`]).
    pub fn grid_sig(&self) -> &str {
        &self.grid_sig
    }

    /// Cells in the grid.
    pub fn total_cells(&self) -> usize {
        self.cells.len()
    }

    /// Whether every cell is complete or permanently failed.
    pub fn is_done(&self) -> bool {
        self.cells
            .iter()
            .all(|s| matches!(s.state, CellState::Complete | CellState::Failed(_)))
    }

    /// Record a protocol fault (malformed frame, bad handshake) for
    /// the telemetry export.
    pub fn note_fault(&mut self) {
        self.registry.inc(self.ids.faults, 1);
    }

    /// Admit a client, or refuse with a typed busy. `_name` is the
    /// client's `hello` name; the runtime keeps no copy of it.
    pub fn admit(&mut self, _name: &str) -> AdmitOutcome {
        let Some(slot) = self.clients.iter().position(Option::is_none) else {
            self.registry.inc(self.ids.rejected, 1);
            return AdmitOutcome::Busy {
                retry_ms: self.cfg.retry_ms,
            };
        };
        let token = self.next_token;
        self.next_token += 1;
        self.clients[slot] = Some(ClientSlot { token, lease: None });
        self.registry.inc(self.ids.admitted, 1);
        self.update_gauges();
        AdmitOutcome::Admitted(ClientId { slot, token })
    }

    /// Release a client's slot, requeueing the lease it still holds
    /// (the worker-death path).
    pub fn depart(&mut self, id: ClientId) {
        let Some(client) = self.client_mut(id) else {
            return;
        };
        let lease = client.lease;
        self.clients[id.slot] = None;
        if let Some(index) = lease {
            self.requeue(index);
        }
        self.update_gauges();
    }

    /// Extend the deadline of `id`'s lease — called on any frame from
    /// the client, so an alive-but-slow worker (or one streaming
    /// `progress` keepalives) is not expired mid-simulation.
    pub fn touch(&mut self, id: ClientId, now: Instant) {
        let timeout = self.cfg.lease_timeout;
        let Some(index) = self.client_mut(id).and_then(|c| c.lease) else {
            return;
        };
        if let CellState::Leased { holder, deadline } = &mut self.cells[index].state {
            if *holder == id {
                *deadline = now + timeout;
            }
        }
    }

    /// Hand out the next pending cell, or report why not.
    pub fn lease(&mut self, id: ClientId, now: Instant) -> LeaseOutcome {
        let retry_ms = self.cfg.retry_ms;
        let timeout = self.cfg.lease_timeout;
        let Some(client) = self.client_mut(id) else {
            // Stale handle (departed): nothing to lease.
            return LeaseOutcome::Done;
        };
        if client.lease.is_some() {
            return LeaseOutcome::Busy { retry_ms };
        }
        while let Some(index) = self.queue.pop_front() {
            if self.cells[index].state != CellState::Pending {
                continue; // completed out-of-band while queued
            }
            // Re-check the shared store: another process (or an earlier
            // duplicate cell in this grid) may have completed it since
            // startup.
            if let Some(store) = &self.store {
                if store.load(&self.cells[index].cell).is_some() {
                    self.cells[index].state = CellState::Complete;
                    self.registry.inc(self.ids.complete, 1);
                    self.registry.inc(self.ids.cached, 1);
                    continue;
                }
            }
            let slot = &mut self.cells[index];
            slot.state = CellState::Leased {
                holder: id,
                deadline: now + timeout,
            };
            slot.attempts += 1;
            let fingerprint = slot.fingerprint.clone();
            let label = slot.cell.label();
            self.client_mut(id).expect("validated above").lease = Some(index);
            self.update_gauges();
            return LeaseOutcome::Leased {
                index,
                fingerprint,
                label,
                deadline_ms: timeout.as_millis() as u64,
            };
        }
        if self.is_done() {
            LeaseOutcome::Done
        } else {
            LeaseOutcome::Wait { retry_ms }
        }
    }

    /// Accept a worker's result for `index`: `payload` is the stats JSON
    /// for [`WorkStatus::Ok`], else the failure message, and a failure
    /// is final. Returns `Ok(redundant)` where `redundant` means the
    /// cell had already finished (a late duplicate after an expiry —
    /// acknowledged, not an error).
    ///
    /// # Errors
    /// A fingerprint/index mismatch or unparsable stats is a protocol
    /// fault: the cell is requeued if this client held it, and the
    /// session should disconnect the client.
    pub fn complete(
        &mut self,
        id: ClientId,
        index: usize,
        fingerprint: &str,
        status: WorkStatus,
        payload: &str,
    ) -> Result<bool, ResultError> {
        if index >= self.cells.len() {
            self.note_fault();
            return Err(ResultError(format!("index {index} out of range")));
        }
        if self.cells[index].fingerprint != fingerprint {
            self.note_fault();
            return Err(ResultError(format!(
                "fingerprint mismatch for cell {index} (grid skew: check PP_SCALE \
                 and behavior revision)"
            )));
        }
        let outcome = match status {
            WorkStatus::Ok => match SimStats::from_json(payload) {
                Ok(s) => Ok(s),
                Err(e) => {
                    self.note_fault();
                    self.release_lease(id, index);
                    self.requeue(index);
                    return Err(ResultError(format!(
                        "unparsable stats for cell {index}: {e}"
                    )));
                }
            },
            WorkStatus::Panic => Err(CellErrorKind::Panic(payload.to_string())),
            WorkStatus::CycleLimit => Err(CellErrorKind::CycleLimit {
                max_cycles: self.cells[index].cell.config.max_cycles,
            }),
        };

        self.release_lease(id, index);
        let slot = &mut self.cells[index];
        let failed = matches!(slot.state, CellState::Failed(_));
        if slot.state == CellState::Complete || (failed && outcome.is_err()) {
            return Ok(true); // late duplicate; already counted
        }
        match outcome {
            Ok(stats) => {
                if let Some(store) = &self.store {
                    if let Err(e) = store.save(&slot.cell, &stats) {
                        eprintln!("[pp-serve] warning: could not store cell {index}: {e}");
                    }
                }
                slot.state = CellState::Complete;
                self.registry.inc(self.ids.complete, 1);
            }
            Err(kind) => {
                let error = CellError::new(index, &slot.cell, kind);
                eprintln!("[pp-serve] FAILED: {error}");
                slot.state = CellState::Failed(Some(error));
                self.registry.inc(self.ids.failed, 1);
            }
        }
        self.update_gauges();
        Ok(false)
    }

    /// Requeue every lease whose deadline has passed; returns the
    /// requeued indexes (the reaper logs them).
    pub fn expire(&mut self, now: Instant) -> Vec<usize> {
        let expired: Vec<(usize, ClientId)> = self
            .cells
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.state {
                CellState::Leased { holder, deadline } if deadline <= now => Some((i, holder)),
                _ => None,
            })
            .collect();
        let mut requeued = Vec::new();
        for (index, holder) in expired {
            self.release_lease(holder, index);
            self.requeue(index);
            requeued.push(index);
        }
        if !requeued.is_empty() {
            self.update_gauges();
        }
        requeued
    }

    /// Progress snapshot for `progress` frames and the daemon log.
    pub fn snapshot(&self) -> Snapshot {
        let mut complete = 0;
        let mut leased = 0;
        let mut failed = 0;
        for s in &self.cells {
            match s.state {
                CellState::Complete => complete += 1,
                CellState::Leased { .. } => leased += 1,
                CellState::Failed(_) => failed += 1,
                CellState::Pending => {}
            }
        }
        Snapshot {
            total: self.cells.len() as u64,
            complete,
            leased,
            requeued: self.requeue_events,
            failed,
        }
    }

    /// Consume the runtime into the daemon's final report, with every
    /// failure a worker reported in grid order.
    pub fn into_summary(self) -> ServeSummary {
        let snapshot = self.snapshot();
        let errors = self.cells.into_iter().filter_map(|s| match s.state {
            CellState::Failed(e) => e,
            _ => None,
        });
        ServeSummary {
            snapshot,
            errors: errors.collect(),
            registry: self.registry,
        }
    }

    fn client_mut(&mut self, id: ClientId) -> Option<&mut ClientSlot> {
        self.clients
            .get_mut(id.slot)?
            .as_mut()
            .filter(|c| c.token == id.token)
    }

    /// Clear `id`'s lease if it is `index`. The cell's own state is the
    /// caller's business.
    fn release_lease(&mut self, id: ClientId, index: usize) {
        if let Some(client) = self.client_mut(id) {
            if client.lease == Some(index) {
                client.lease = None;
            }
        }
    }

    /// Return a lost cell to the queue, or fail it when its
    /// [`MAX_LEASES`] are spent. One call = one requeue event.
    fn requeue(&mut self, index: usize) {
        let slot = &mut self.cells[index];
        if matches!(slot.state, CellState::Complete | CellState::Failed(_)) {
            return;
        }
        if slot.attempts >= MAX_LEASES {
            slot.state = CellState::Failed(None);
            self.registry.inc(self.ids.failed, 1);
            return;
        }
        slot.state = CellState::Pending;
        self.queue.push_back(index);
        self.requeue_events += 1;
        self.registry.inc(self.ids.requeued, 1);
    }

    fn update_gauges(&mut self) {
        let connected = self.clients.iter().flatten().count();
        let inflight = self
            .cells
            .iter()
            .filter(|s| matches!(s.state, CellState::Leased { .. }))
            .count();
        self.registry
            .set(self.ids.clients_connected, connected as f64);
        self.registry.set(self.ids.leases_inflight, inflight as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::SimConfig;
    use pp_workloads::Workload;

    fn grid(n: usize) -> Vec<SweepCell> {
        (0..n)
            .map(|i| SweepCell {
                workload: Workload::Compress,
                seed: Some(i as u64),
                scale: 40,
                config: SimConfig::baseline(),
            })
            .collect()
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            max_clients: 2,
            lease_timeout: Duration::from_millis(100),
            retry_ms: 10,
            ..ServeConfig::default()
        }
    }

    fn rt(n: usize) -> Runtime {
        Runtime::new(grid(n), None, cfg())
    }

    fn admit(rt: &mut Runtime, name: &str) -> ClientId {
        match rt.admit(name) {
            AdmitOutcome::Admitted(id) => id,
            AdmitOutcome::Busy { .. } => panic!("admission refused for {name}"),
        }
    }

    fn lease_index(rt: &mut Runtime, id: ClientId, now: Instant) -> (usize, String) {
        match rt.lease(id, now) {
            LeaseOutcome::Leased {
                index, fingerprint, ..
            } => (index, fingerprint),
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    #[test]
    fn admission_is_bounded_and_slots_are_reusable() {
        let mut rt = rt(4);
        let a = admit(&mut rt, "a");
        let _b = admit(&mut rt, "b");
        assert!(matches!(rt.admit("c"), AdmitOutcome::Busy { .. }));
        rt.depart(a);
        let c = admit(&mut rt, "c");
        // The freed slot's handle is regenerated: the stale `a` handle
        // cannot act on c's slot.
        let now = Instant::now();
        assert!(matches!(rt.lease(a, now), LeaseOutcome::Done));
        assert!(matches!(rt.lease(c, now), LeaseOutcome::Leased { .. }));
    }

    #[test]
    fn a_client_holds_one_lease_at_a_time() {
        let mut rt = rt(8);
        let now = Instant::now();
        let a = admit(&mut rt, "a");
        let b = admit(&mut rt, "b");
        let (i, fp) = lease_index(&mut rt, a, now);
        assert_eq!(rt.lease(a, now), LeaseOutcome::Busy { retry_ms: 10 });
        // Another client leases alongside a: both hold one cell at once.
        let (j, _) = lease_index(&mut rt, b, now);
        assert_ne!(i, j);
        assert_eq!(rt.snapshot().leased, 2);
        assert_eq!(rt.lease(b, now), LeaseOutcome::Busy { retry_ms: 10 });
        // Completing its cell frees a to lease again.
        rt.complete(a, i, &fp, WorkStatus::Ok, &SimStats::default().to_json())
            .unwrap();
        let (k, _) = lease_index(&mut rt, a, now);
        assert!(k != i && k != j);
    }

    #[test]
    fn ok_result_completes_and_releases_the_lease() {
        let mut rt = rt(2);
        let now = Instant::now();
        let a = admit(&mut rt, "a");
        let (i, fp) = lease_index(&mut rt, a, now);
        let stats = SimStats {
            cycles: 7,
            committed_instructions: 3,
            ..Default::default()
        };
        let redundant = rt
            .complete(a, i, &fp, WorkStatus::Ok, &stats.to_json())
            .unwrap();
        assert!(!redundant);
        // Lease released: the same client leases the next cell.
        let (j, _) = lease_index(&mut rt, a, now);
        assert_ne!(i, j);
        assert_eq!(rt.snapshot().complete, 1);
    }

    #[test]
    fn expiry_requeues_exactly_once_then_fails() {
        let mut rt = rt(1);
        let t0 = Instant::now();
        let a = admit(&mut rt, "a");
        let (i, _) = lease_index(&mut rt, a, t0);

        // Not yet expired: nothing requeues.
        assert!(rt.expire(t0 + Duration::from_millis(50)).is_empty());
        // Past the deadline: requeued exactly once.
        let late = t0 + Duration::from_millis(150);
        assert_eq!(rt.expire(late), vec![i]);
        assert_eq!(rt.expire(late), Vec::<usize>::new(), "no double requeue");
        assert_eq!(rt.snapshot().requeued, 1);

        // Second lease, second expiry: attempt budget (2) spent → failed.
        let b = admit(&mut rt, "b");
        let (j, _) = lease_index(&mut rt, b, late);
        assert_eq!(j, i);
        assert_eq!(rt.expire(late + Duration::from_millis(150)), vec![i]);
        assert_eq!(rt.snapshot().failed, 1);
        assert!(rt.is_done());
    }

    #[test]
    fn touch_extends_the_deadline() {
        let mut rt = rt(1);
        let t0 = Instant::now();
        let a = admit(&mut rt, "a");
        lease_index(&mut rt, a, t0);
        // At t0+80 the client is heard from; at t0+150 the original
        // deadline (t0+100) has passed but the extended one has not.
        rt.touch(a, t0 + Duration::from_millis(80));
        assert!(rt.expire(t0 + Duration::from_millis(150)).is_empty());
        assert_eq!(rt.expire(t0 + Duration::from_millis(200)).len(), 1);
    }

    #[test]
    fn depart_requeues_held_leases() {
        let mut rt = rt(2);
        let now = Instant::now();
        let a = admit(&mut rt, "a");
        let (i, _) = lease_index(&mut rt, a, now);
        rt.depart(a);
        assert_eq!(rt.snapshot().requeued, 1);
        // The cell is leasable again — behind the untouched remainder
        // of the grid (requeues go to the back of the queue).
        let b = admit(&mut rt, "b");
        let (j, _) = lease_index(&mut rt, b, now);
        assert_ne!(i, j, "fresh cells lease before requeued ones");
        let c = admit(&mut rt, "c");
        let _ = c;
        rt.complete(
            b,
            j,
            &rt.cells[j].fingerprint.clone(),
            WorkStatus::Ok,
            &SimStats::default().to_json(),
        )
        .unwrap();
        let (k, _) = lease_index(&mut rt, b, now);
        assert_eq!(i, k, "the departed client's cell comes back around");
    }

    #[test]
    fn failure_report_is_terminal() {
        for (status, kind) in [
            (
                WorkStatus::Panic,
                CellErrorKind::Panic("boom\nflight".to_string()),
            ),
            (
                WorkStatus::CycleLimit,
                CellErrorKind::CycleLimit {
                    max_cycles: SimConfig::baseline().max_cycles,
                },
            ),
        ] {
            let mut rt = rt(1);
            let now = Instant::now();
            let a = admit(&mut rt, "a");
            let (i, fp) = lease_index(&mut rt, a, now);
            assert!(!rt.complete(a, i, &fp, status, "boom\nflight").unwrap());
            let s = rt.snapshot();
            assert_eq!((s.failed, s.requeued), (1, 0), "{status:?}");
            assert_eq!(rt.lease(a, now), LeaseOutcome::Done, "{status:?}");
            let expected = CellError::new(i, &rt.cells[i].cell, kind);
            assert_eq!(rt.into_summary().errors, [expected]);
        }
    }

    #[test]
    fn fingerprint_mismatch_is_a_typed_fault() {
        let mut rt = rt(1);
        let now = Instant::now();
        let a = admit(&mut rt, "a");
        let (i, _) = lease_index(&mut rt, a, now);
        let e = rt
            .complete(a, i, "0000000000000000", WorkStatus::Ok, "{}")
            .unwrap_err();
        assert!(e.0.contains("grid skew"), "{e}");
        assert!(rt.complete(a, 99, "x", WorkStatus::Ok, "{}").is_err());
    }

    #[test]
    fn late_duplicate_after_expiry_is_acknowledged_not_failed() {
        let mut rt = rt(1);
        let t0 = Instant::now();
        let a = admit(&mut rt, "a");
        let (i, fp) = lease_index(&mut rt, a, t0);
        // a stalls; the lease expires and b redoes the cell.
        rt.expire(t0 + Duration::from_millis(150));
        let b = admit(&mut rt, "b");
        let (j, _) = lease_index(&mut rt, b, t0 + Duration::from_millis(150));
        assert_eq!(i, j);
        let stats = SimStats::default();
        assert!(!rt
            .complete(b, j, &fp, WorkStatus::Ok, &stats.to_json())
            .unwrap());
        // a's stale result arrives after b already completed the cell.
        assert!(rt
            .complete(a, i, &fp, WorkStatus::Ok, &stats.to_json())
            .unwrap());
        assert_eq!(rt.snapshot().complete, 1);
    }

    #[test]
    fn store_prepopulates_and_is_rechecked_on_lease() {
        let root = pp_testutil::scratch_dir("serve-rt-store");
        std::fs::remove_dir_all(&root).ok();
        let cells = grid(2);
        let stats = SimStats::default();
        // Cell 0 cached before startup; cell 1 cached after (simulating
        // another process completing it mid-run).
        let store = ResultStore::new(&root);
        store.save(&cells[0], &stats).unwrap();
        let mut rt = Runtime::new(cells.clone(), Some(ResultStore::new(&root)), cfg());
        assert_eq!(rt.snapshot().complete, 1);
        store.save(&cells[1], &stats).unwrap();
        let a = admit(&mut rt, "a");
        assert!(matches!(rt.lease(a, Instant::now()), LeaseOutcome::Done));
        assert_eq!(rt.snapshot().complete, 2);
        assert!(rt.is_done());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn telemetry_counters_track_the_lifecycle() {
        let mut rt = rt(2);
        let now = Instant::now();
        let a = admit(&mut rt, "a");
        let (i, fp) = lease_index(&mut rt, a, now);
        let stats = SimStats::default();
        rt.complete(a, i, &fp, WorkStatus::Ok, &stats.to_json())
            .unwrap();
        rt.depart(a);
        let reg = &rt.registry;
        let get = |name: &str| {
            reg.counters()
                .find(|(n, _)| *n == name)
                .map_or_else(|| panic!("missing counter {name}"), |(_, v)| v)
        };
        assert_eq!(get("serve.cells_total"), 2);
        assert_eq!(get("serve.cells_complete"), 1);
        assert_eq!(get("serve.clients_admitted"), 1);
        let gauges: Vec<_> = reg.gauges().collect();
        assert!(
            gauges.contains(&("serve.leases_inflight", 0.0)),
            "no lease outstanding after depart: {gauges:?}"
        );
    }

    #[test]
    fn grid_signature_is_order_and_content_sensitive() {
        let g = grid(3);
        assert_eq!(grid_signature(&g), grid_signature(&grid(3)));
        let mut rev = grid(3);
        rev.reverse();
        assert_ne!(grid_signature(&g), grid_signature(&rev));
        assert_ne!(grid_signature(&g), grid_signature(&grid(2)));
    }
}
