//! Typed per-cell failures.

use crate::cell::SweepCell;

/// Why a cell failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellErrorKind {
    /// Building or simulating the cell panicked: the panic text, then
    /// the flight-recorder dump when the simulator had been built.
    Panic(String),
    /// The run aborted at the configured `max_cycles` without
    /// committing `halt` — a mis-sized configuration, not a crash.
    CycleLimit {
        /// The limit that was hit.
        max_cycles: u64,
    },
}

/// A failed sweep cell: which (workload, config) pair failed and how.
/// The rest of the grid keeps running; the caller decides whether any
/// `CellError` fails the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellError {
    /// Index of the cell in the submitted grid.
    pub index: usize,
    /// Workload label (including input seed when non-default).
    pub workload: String,
    /// Short human description of the configuration.
    pub config: String,
    /// What went wrong.
    pub kind: CellErrorKind,
}

impl CellError {
    /// Grid cell `index`'s failure, as a local or served sweep reports it.
    pub fn new(index: usize, cell: &SweepCell, kind: CellErrorKind) -> Self {
        CellError {
            index,
            workload: cell.label(),
            config: cell.config_summary(),
            kind,
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} (workload {}, config {}) failed: ",
            self.index, self.workload, self.config
        )?;
        match &self.kind {
            CellErrorKind::Panic(msg) => write!(f, "panicked: {msg}"),
            CellErrorKind::CycleLimit { max_cycles } => {
                write!(f, "hit the {max_cycles}-cycle limit before halting")
            }
        }
    }
}

impl std::error::Error for CellError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_workload_and_config() {
        let e = CellError {
            index: 7,
            workload: "go".to_string(),
            config: "See window=256".to_string(),
            kind: CellErrorKind::Panic("boom".to_string()),
        };
        let msg = e.to_string();
        assert!(msg.contains("workload go"), "{msg}");
        assert!(msg.contains("config See window=256"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");

        let e = CellError {
            kind: CellErrorKind::CycleLimit { max_cycles: 10 },
            ..e
        };
        let msg = e.to_string();
        assert!(msg.contains("10-cycle limit"), "{msg}");
    }
}
