//! Engine configuration.

use turbopool_bufpool::{ClassifierKind, ReplacementKind};
use turbopool_core::SsdConfig;
use turbopool_iosim::{DeviceSetup, FailSlowConfig, RetryPolicy};

/// Everything needed to open a [`crate::Database`].
#[derive(Clone, Debug)]
pub struct DbConfig {
    /// Page size in bytes (8192 in the paper; tests use smaller pages).
    pub page_size: usize,
    /// Total pages of the database file group (includes growth headroom).
    pub db_pages: u64,
    /// Main-memory buffer-pool frames.
    pub mem_frames: usize,
    /// SSD cache configuration; `None` is the paper's `noSSD` baseline.
    pub ssd: Option<SsdConfig>,
    /// Pool-fill read expansion (see `BufferPoolConfig::fill_expansion`).
    pub fill_expansion: u64,
    /// Random/sequential classifier for SSD admission.
    pub classifier: ClassifierKind,
    /// DRAM replacement policy (LRU-2 is the paper's and the default).
    pub replacement: ReplacementKind,
    /// Read-ahead window for table scans, in pages.
    pub readahead_window: u64,
    /// Override the device calibration (defaults to the paper's Table 1).
    pub devices: Option<DeviceSetup>,
    /// Retry/backoff policy for the noSSD baseline's synchronous reads
    /// (SSD designs carry their own copy inside [`SsdConfig`]).
    pub retry: RetryPolicy,
    /// Fail-slow detector tuning applied to both the disk group and the
    /// SSD when the database opens (gray-failure extension).
    pub failslow: FailSlowConfig,
}

impl DbConfig {
    /// A configuration with the paper's device calibration and the given
    /// sizes; SSD off until `ssd` is set.
    pub fn new(page_size: usize, db_pages: u64, mem_frames: usize) -> Self {
        DbConfig {
            page_size,
            db_pages,
            mem_frames,
            ssd: None,
            fill_expansion: 8,
            classifier: ClassifierKind::ReadAhead,
            replacement: ReplacementKind::Lru2,
            readahead_window: 32,
            devices: None,
            retry: RetryPolicy::default(),
            failslow: FailSlowConfig::default(),
        }
    }

    /// A tiny configuration for unit tests and doc examples: 256-byte
    /// pages, 512-page database, 32-frame pool.
    pub fn small_for_tests() -> Self {
        let mut cfg = DbConfig::new(256, 512, 32);
        cfg.fill_expansion = 1;
        cfg
    }

    /// The device setup this config resolves to.
    pub fn device_setup(&self) -> DeviceSetup {
        self.devices.clone().unwrap_or_else(|| {
            let ssd_frames = self.ssd.as_ref().map(|s| s.frames).unwrap_or(1);
            DeviceSetup::paper(self.page_size, self.db_pages, ssd_frames)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_setup_sizes_ssd_from_config() {
        let mut cfg = DbConfig::new(8192, 1000, 100);
        assert_eq!(cfg.device_setup().ssd_frames, 1);
        cfg.ssd = Some(SsdConfig::new(turbopool_core::SsdDesign::LazyCleaning, 640));
        let setup = cfg.device_setup();
        assert_eq!(setup.ssd_frames, 640);
        assert_eq!(setup.db_pages, 1000);
        assert_eq!(setup.page_size, 8192);
    }
}
