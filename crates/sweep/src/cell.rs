//! One cell of a sweep grid, and the scale plumbing shared by every
//! consumer.

use pp_core::{SimConfig, SimStats, Simulator};
use pp_workloads::Workload;

use crate::error::CellErrorKind;

/// The workload-scale multiplier from the `PP_SCALE` environment
/// variable (default 1.0). Benches and CI set e.g. `PP_SCALE=0.05` for
/// quick runs; the scale a cell actually ran at is part of its cache
/// fingerprint, so quick-run results can never masquerade as full-scale
/// ones.
pub fn scale_factor() -> f64 {
    std::env::var("PP_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|v: &f64| *v > 0.0)
        .unwrap_or(1.0)
}

/// The scale for `workload` under the current `PP_SCALE`.
pub fn scaled(workload: Workload) -> u64 {
    ((workload.default_scale() as f64 * scale_factor()) as u64).max(1)
}

/// One cell of a sweep: a workload (optionally with a non-default input
/// seed), the dynamic scale to build it at, and the machine
/// configuration to simulate it under.
///
/// Everything that determines the resulting [`SimStats`] is in here —
/// that is the contract the cache fingerprint relies on.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The workload simulated.
    pub workload: Workload,
    /// Input data seed; `None` uses the workload's default input
    /// (`Workload::build`), `Some(s)` uses `Workload::build_seeded`.
    pub seed: Option<u64>,
    /// Dynamic scale the program is built at.
    pub scale: u64,
    /// Machine configuration.
    pub config: SimConfig,
}

impl SweepCell {
    /// A cell for `workload` under `config` at the current `PP_SCALE`.
    pub fn new(workload: Workload, config: SimConfig) -> Self {
        SweepCell {
            workload,
            seed: None,
            scale: scaled(workload),
            config,
        }
    }

    /// Builder-style: use a seeded input data set.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// A one-line human label for progress lines and error reports:
    /// `compress` or `compress#5eed0001`.
    pub fn label(&self) -> String {
        match self.seed {
            None => self.workload.name().to_string(),
            Some(s) => format!("{}#{s:x}", self.workload.name()),
        }
    }

    /// A short human description of the configuration for error
    /// reports: mode plus the parameters the sweeps vary.
    pub fn config_summary(&self) -> String {
        format!(
            "{:?} predictor={:?} confidence={:?} window={} depth={} fus={}/{}/{}/{}/{}",
            self.config.mode,
            self.config.predictor,
            self.config.confidence,
            self.config.window_size,
            self.config.pipeline_depth,
            self.config.fus.int0,
            self.config.fus.int1,
            self.config.fus.fp_add,
            self.config.fus.fp_mul,
            self.config.fus.mem_ports,
        )
    }

    /// The complete key material the cache fingerprint hashes: workload
    /// identity, input seed, scale, simulator behavior revision, and the
    /// canonical configuration JSON. Also written verbatim into each
    /// cache entry, where it doubles as a collision guard and an audit
    /// trail.
    pub fn key_material(&self) -> String {
        format!(
            "pp-sweep cell key v1\nworkload: {}\nseed: {}\nscale: {}\nbehavior_rev: {}\nconfig: {}",
            self.workload.name(),
            match self.seed {
                None => "default".to_string(),
                Some(s) => format!("{s:#x}"),
            },
            self.scale,
            pp_core::BEHAVIOR_REV,
            self.config.to_canonical_json(),
        )
    }

    /// The cell's content-address: hex fingerprint of
    /// [`Self::key_material`].
    pub fn fingerprint(&self) -> String {
        crate::fingerprint::fingerprint_hex(self.key_material().as_bytes())
    }

    /// Simulate the cell and classify the outcome — the one classifier,
    /// shared by the local engine and the served worker.
    ///
    /// Builds and runs under [`pp_core::run_with_flight_dump`], so a
    /// panic anywhere in the cell — a configuration `Simulator::new`
    /// rejects, a sanitizer violation, a commit-check divergence, an
    /// internal bug — is [`CellErrorKind::Panic`] with the panic text and
    /// the last [`pp_core::DEFAULT_FLIGHT_DEPTH`] cycles of machine
    /// history (byte-invisible to the stats). A run stopped at
    /// `max_cycles` is [`CellErrorKind::CycleLimit`].
    pub fn run(&self) -> Result<SimStats, CellErrorKind> {
        let stats = pp_core::run_with_flight_dump(
            || {
                let program = match self.seed {
                    None => self.workload.build(self.scale),
                    Some(s) => self.workload.build_seeded(self.scale, s),
                };
                Simulator::new(&program, self.config.clone())
            },
            Simulator::run,
        )
        .map_err(CellErrorKind::Panic)?;
        if stats.hit_cycle_limit {
            return Err(CellErrorKind::CycleLimit {
                max_cycles: self.config.max_cycles,
            });
        }
        Ok(stats)
    }
}

/// A completed cell: its stats plus where they came from.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Index of the cell in the submitted grid.
    pub index: usize,
    /// The cell that produced this result.
    pub cell: SweepCell,
    /// Collected statistics.
    pub stats: SimStats,
    /// `true` if the stats were loaded from the result cache rather
    /// than simulated this run.
    pub cached: bool,
    /// Host wall time spent on this cell *this run* (≈0 for cache
    /// hits).
    pub wall: std::time::Duration,
}

impl CellResult {
    /// Host-side simulation speed in committed kilo-instructions per
    /// wall second; `None` for cache hits and sub-resolution walls.
    pub fn kips(&self) -> Option<f64> {
        let secs = self.wall.as_secs_f64();
        if self.cached || secs <= 0.0 {
            return None;
        }
        Some(self.stats.committed_instructions as f64 / 1000.0 / secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::ExecMode;

    fn tiny(workload: Workload) -> SweepCell {
        SweepCell {
            workload,
            seed: None,
            scale: 50,
            config: SimConfig::baseline(),
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = tiny(Workload::Compress);
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        // Workload, seed, scale, and config all perturb the address.
        assert_ne!(a.fingerprint(), tiny(Workload::Go).fingerprint());
        assert_ne!(a.fingerprint(), a.clone().with_seed(1).fingerprint());
        let mut b = a.clone();
        b.scale = 51;
        assert_ne!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.config = c.config.with_mode(ExecMode::Monopath);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn key_material_names_the_cell() {
        let k = tiny(Workload::Compress).with_seed(0x5eed).key_material();
        assert!(k.contains("workload: compress"), "{k}");
        assert!(k.contains("seed: 0x5eed"), "{k}");
        assert!(k.contains("scale: 50"), "{k}");
        assert!(k.contains("behavior_rev:"), "{k}");
        assert!(k.contains("\"window_size\": 256"), "{k}");
    }

    #[test]
    fn run_produces_stats() {
        let stats = tiny(Workload::Compress).run().expect("runs");
        assert!(stats.committed_instructions > 0);
        assert!(!stats.hit_cycle_limit);
    }

    #[test]
    fn labels() {
        assert_eq!(tiny(Workload::Compress).label(), "compress");
        assert_eq!(tiny(Workload::Go).with_seed(0xab).label(), "go#ab");
        assert!(tiny(Workload::Compress)
            .config_summary()
            .contains("window=256"));
    }
}
