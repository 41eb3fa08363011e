//! Scaled reconstruction of the paper's system under test.
//!
//! Every *size* (database, DRAM pool, SSD pool) is the paper's divided by
//! [`SCALE`], and every device *service time* is multiplied by [`SCALE`].
//! Rescaling sizes and rates by the same factor leaves all the ratios that
//! determine the evaluation's shape — hit rates, working-set-vs-SSD
//! crossovers, ramp-up duration relative to the run, λ-threshold dynamics —
//! exactly where the paper had them, while absolute throughput divides by
//! `SCALE` (reported numbers are "scaled tpmC/tpsE/QphH").

use std::sync::Arc;

use turbopool_bufpool::{AdmissionKind, ReplacementKind};
use turbopool_core::{MultiPageMode, SsdConfig, SsdDesign};
use turbopool_engine::{Database, DbConfig};
use turbopool_iosim::DeviceSetup;

/// The common scale factor: sizes ÷ 1000, service times × 1000.
pub const SCALE: f64 = 1000.0;

/// Page size (matches the paper's 8 KB pages — pages are not scaled).
pub const PAGE_SIZE: usize = 8192;

/// DRAM dedicated to the DBMS: 20 GB → 2,621,440 pages / SCALE.
pub const MEM_FRAMES: usize = 2621;

/// SSD buffer pool: 140 GB → 18,350,080 frames / SCALE (Table 2's `S`).
pub const SSD_FRAMES: u64 = 18350;

/// Pages per paper-gigabyte at this scale (2^30 / 8192 / 1000).
pub const PAGES_PER_GB: f64 = 131.072;

/// System design under test (Figure 5's series).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Design {
    NoSsd,
    Cw,
    Dw,
    Lc,
    Tac,
}

impl Design {
    pub fn label(self) -> &'static str {
        match self {
            Design::NoSsd => "noSSD",
            Design::Cw => "CW",
            Design::Dw => "DW",
            Design::Lc => "LC",
            Design::Tac => "TAC",
        }
    }

    /// All designs in the paper's plotting order.
    pub fn all() -> [Design; 5] {
        [
            Design::Dw,
            Design::Lc,
            Design::Tac,
            Design::Cw,
            Design::NoSsd,
        ]
    }

    /// The three designs Figure 5 plots (CW omitted as in the paper).
    pub fn figure5() -> [Design; 3] {
        [Design::Dw, Design::Lc, Design::Tac]
    }

    fn ssd_design(self) -> Option<SsdDesign> {
        match self {
            Design::NoSsd => None,
            Design::Cw => Some(SsdDesign::CleanWrite),
            Design::Dw => Some(SsdDesign::DualWrite),
            Design::Lc => Some(SsdDesign::LazyCleaning),
            Design::Tac => Some(SsdDesign::Tac),
        }
    }
}

/// Full specification of one system configuration.
#[derive(Clone, Debug)]
pub struct SystemSpec {
    pub design: Design,
    /// Database capacity in (scaled) pages, including growth headroom.
    pub db_pages: u64,
    /// DRAM pool frames.
    pub mem_frames: usize,
    /// SSD frames (`S`).
    pub ssd_frames: u64,
    /// LC dirty-fraction threshold λ.
    pub lambda: f64,
    /// Aggressive-filling threshold τ.
    pub tau: f64,
    /// Throttle-control threshold μ.
    pub mu: usize,
    /// SSD partition count N.
    pub partitions: usize,
    /// Multi-page read handling (Trim in the paper's final design).
    pub multipage: MultiPageMode,
    /// Warm-restart extension: persist/re-adopt the SSD buffer table
    /// across restarts (off in the paper).
    pub warm_restart: bool,
    /// DRAM replacement policy (the paper's LRU-2 by default).
    pub replacement: ReplacementKind,
    /// SSD admission policy (the paper's per-design rule by default).
    pub admission: AdmissionKind,
    /// Deterministic seed for the workload RNG streams.
    pub seed: u64,
}

impl SystemSpec {
    /// The paper's configuration for a database of `db_pages` pages.
    pub fn paper(design: Design, db_pages: u64) -> Self {
        SystemSpec {
            design,
            db_pages,
            mem_frames: MEM_FRAMES,
            ssd_frames: SSD_FRAMES,
            lambda: 0.5,
            tau: 0.95,
            mu: 100,
            partitions: 16,
            multipage: MultiPageMode::Trim,
            warm_restart: false,
            replacement: ReplacementKind::Lru2,
            admission: AdmissionKind::DesignDefault,
            seed: 0x5EED,
        }
    }
}

/// Open a database configured per `spec` over time-scaled paper devices.
pub fn build_db(spec: &SystemSpec) -> Arc<Database> {
    let mut cfg = DbConfig::new(PAGE_SIZE, spec.db_pages, spec.mem_frames);
    cfg.replacement = spec.replacement;
    cfg.ssd = spec.design.ssd_design().map(|d| {
        let mut s = SsdConfig::new(d, spec.ssd_frames);
        s.lambda = spec.lambda;
        s.tau = spec.tau;
        s.mu = spec.mu;
        s.partitions = spec.partitions;
        s.multipage = spec.multipage;
        s.warm_restart = spec.warm_restart;
        s.admission = spec.admission;
        s
    });
    cfg.devices = Some(DeviceSetup::paper_time_scaled(
        PAGE_SIZE,
        spec.db_pages,
        spec.ssd_frames.max(1),
        SCALE,
    ));
    Arc::new(Database::open(cfg))
}

/// Convert paper gigabytes to scaled pages.
pub fn gb_to_pages(gb: f64) -> u64 {
    (gb * PAGES_PER_GB).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_sizes_preserve_paper_ratios() {
        // SSD pool (140 GB) vs DRAM pool (20 GB) = 7x; vs 200 GB DB ≈ 0.7.
        let ssd_over_mem = SSD_FRAMES as f64 / MEM_FRAMES as f64;
        assert!((ssd_over_mem - 7.0).abs() < 0.01, "{ssd_over_mem}");
        let db200 = gb_to_pages(200.0);
        let ratio = SSD_FRAMES as f64 / db200 as f64;
        assert!((ratio - 0.7).abs() < 0.01, "{ratio}");
    }

    #[test]
    fn build_db_wires_the_requested_design() {
        let spec = SystemSpec {
            db_pages: 256,
            mem_frames: 16,
            ssd_frames: 32,
            ..SystemSpec::paper(Design::Lc, 0)
        };
        let db = build_db(&spec);
        assert!(db.ssd_manager().is_some());
        assert_eq!(
            db.ssd_manager().unwrap().config().design,
            SsdDesign::LazyCleaning
        );
        let spec = SystemSpec {
            design: Design::Tac,
            ..spec
        };
        let db = build_db(&spec);
        assert!(db.tac_cache().is_some());
        let spec = SystemSpec {
            design: Design::NoSsd,
            ..spec
        };
        let db = build_db(&spec);
        assert!(db.ssd_manager().is_none() && db.tac_cache().is_none());
    }

    #[test]
    fn time_scaled_devices_are_slower() {
        let spec = SystemSpec {
            db_pages: 64,
            mem_frames: 8,
            ssd_frames: 8,
            ..SystemSpec::paper(Design::NoSsd, 0)
        };
        let db = build_db(&spec);
        let rr = db.io().setup().disk_profile.rand_read_ns;
        // 985 us * 1000 ≈ 985 ms per aggregate random read.
        assert!(rr > 900_000_000, "{rr}");
    }
}
