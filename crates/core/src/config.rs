//! SSD-manager configuration (the paper's Table 2 parameters, plus the
//! robustness extensions' retry / fail-slow / congestion knobs).

use turbopool_bufpool::AdmissionKind;
use turbopool_iosim::RetryPolicy;

/// Which dirty-page design the SSD manager runs.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SsdDesign {
    /// Never cache dirty pages (§2.3.1).
    CleanWrite,
    /// Write dirty evictions to SSD *and* disk — write-through (§2.3.2).
    DualWrite,
    /// Write dirty evictions to SSD only; clean lazily — write-back
    /// (§2.3.3).
    LazyCleaning,
    /// Temperature-Aware Caching baseline (Canim et al.; §2.5).
    Tac,
}

impl SsdDesign {
    /// Short label used by the benchmark harnesses ("DW", "LC", ...).
    pub fn label(self) -> &'static str {
        match self {
            SsdDesign::CleanWrite => "CW",
            SsdDesign::DualWrite => "DW",
            SsdDesign::LazyCleaning => "LC",
            SsdDesign::Tac => "TAC",
        }
    }
}

/// How multi-page read requests interact with SSD-resident pages (§3.3.3).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MultiPageMode {
    /// Trim leading/trailing SSD-resident pages, keep the middle as one
    /// disk I/O (the paper's final design).
    Trim,
    /// Split the request at every SSD-resident page (the paper's initial
    /// design, kept for the ablation — it was slower).
    Split,
    /// Ignore the SSD for multi-page reads entirely.
    DiskOnly,
}

/// All tunables of the SSD manager. Defaults are the paper's Table 2.
#[derive(Clone, Debug)]
pub struct SsdConfig {
    /// The design under test.
    pub design: SsdDesign,
    /// `S`: number of page-sized frames in the SSD buffer pool
    /// (18,350,080 = 140 GB in the paper).
    pub frames: u64,
    /// `τ`: aggressive-filling threshold as a fraction of `S` — until the
    /// SSD is this full, *every* evicted page is cached (§3.3.1).
    pub tau: f64,
    /// `μ`: throttle-control threshold — no optional SSD I/O is issued while
    /// the SSD queue is deeper than this (§3.3.2).
    pub mu: usize,
    /// `N`: number of SSD partitions (§3.3.4).
    pub partitions: usize,
    /// `α`: maximum dirty pages gathered into one group-cleaning write
    /// (§3.3.5).
    pub alpha: u64,
    /// `λ`: dirty fraction of SSD space above which the lazy cleaner runs
    /// (§2.3.3); 1% for TPC-E/H, 50% for TPC-C in the paper.
    pub lambda: f64,
    /// After a cleaning burst, dirty count is brought to `λ·S − slack·S`
    /// ("about 0.01% of the SSD space below the threshold").
    pub lambda_slack: f64,
    /// TAC extent size in pages (32 in the paper).
    pub tac_extent_pages: u64,
    /// Multi-page read handling.
    pub multipage: MultiPageMode,
    /// Warm restart (extension of the paper's §6 future work): persist the
    /// SSD buffer table in each checkpoint record and re-import still-valid
    /// entries after a crash, skipping the multi-hour SSD ramp-up.
    pub warm_restart: bool,
    /// Fault-tolerance extension: number of SSD I/O errors (transient,
    /// checksum, or device-dead) tolerated before the manager quarantines
    /// the SSD and degrades to the noSSD path. A `DeviceDead` error always
    /// quarantines immediately regardless of the remaining budget.
    /// Default 64: wide enough to ride out a transient-error storm, small
    /// enough that a persistently erroring device is retired quickly.
    pub ssd_error_budget: u64,
    /// Retry/backoff policy for the manager's synchronous I/O (attempt
    /// cap and exponential-backoff base/ceiling). Defaults to the
    /// crate-wide capped policy; see
    /// [`RetryPolicy`](turbopool_iosim::RetryPolicy).
    pub retry: RetryPolicy,
    /// Gray-failure extension: when the fail-slow detector flags the SSD
    /// degraded, serve SSD hits from the disk copy where one is valid
    /// (always for CW/DW, clean frames only for LC/TAC — a sole-copy
    /// dirty frame must still be read from the SSD) and stop admitting
    /// new pages until the device recovers. Default on.
    pub hedged_reads: bool,
    /// While hedging, every n-th hedge-eligible decision still goes to
    /// the SSD as a canary probe — a fully-hedged device would otherwise
    /// produce no more latency samples and the detector could never
    /// observe recovery. `0` disables probing (degraded mode then only
    /// clears via in-flight completions). Default 16.
    pub hedge_probe_interval: u64,
    /// Congestion-aware cleaning: the lazy cleaner skips a round when the
    /// disk group's queue depth exceeds this, so cleaning back-pressure
    /// never competes with foreground misses. Default 32 outstanding
    /// requests (4 per member of the paper's 8-disk group).
    pub cleaner_disk_queue_max: usize,
    /// Congestion-aware cleaning: with the disk queue at or below this
    /// depth the cleaner drains opportunistically even below the λ
    /// high-water mark. Default 1 (disk essentially idle).
    pub cleaner_idle_depth: usize,
    /// Hard ceiling on dirty SSD pages as a fraction of `S`: above it the
    /// cleaner ignores disk congestion, because unchecked dirty growth
    /// would strand the recovery path. Default 0.75.
    pub cleaner_dirty_ceiling: f64,
    /// Which admission policy qualifies pages for the SSD.
    /// [`AdmissionKind::DesignDefault`] is the paper's per-design rule
    /// (random-class-only for CW/DW/LC, extent temperature for TAC) and
    /// is regression-gated; the alternatives feed the policy-arena bench.
    pub admission: AdmissionKind,
}

impl SsdConfig {
    /// Table 2 defaults with a caller-chosen design and frame count.
    pub fn new(design: SsdDesign, frames: u64) -> Self {
        SsdConfig {
            design,
            frames,
            tau: 0.95,
            mu: 100,
            partitions: 16,
            alpha: 32,
            lambda: 0.50,
            lambda_slack: 0.0001,
            tac_extent_pages: 32,
            multipage: MultiPageMode::Trim,
            warm_restart: false,
            ssd_error_budget: 64,
            retry: RetryPolicy::default(),
            hedged_reads: true,
            hedge_probe_interval: 16,
            cleaner_disk_queue_max: 32,
            cleaner_idle_depth: 1,
            cleaner_dirty_ceiling: 0.75,
            admission: AdmissionKind::DesignDefault,
        }
    }

    /// Absolute number of frames below which aggressive filling stops.
    pub fn fill_target(&self) -> u64 {
        (self.frames as f64 * self.tau) as u64
    }

    /// Absolute dirty-page count that triggers the lazy cleaner.
    pub fn dirty_high_water(&self) -> u64 {
        (self.frames as f64 * self.lambda) as u64
    }

    /// Absolute dirty-page count a cleaning burst drains down to.
    pub fn dirty_low_water(&self) -> u64 {
        let low = self.frames as f64 * (self.lambda - self.lambda_slack);
        low.max(0.0) as u64
    }

    /// Absolute dirty-page ceiling above which the cleaner ignores disk
    /// congestion (never below the λ high-water mark, so raising λ keeps
    /// the ceiling meaningful).
    pub fn dirty_ceiling(&self) -> u64 {
        let ceil = (self.frames as f64 * self.cleaner_dirty_ceiling) as u64;
        ceil.max(self.dirty_high_water())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SsdConfig::new(SsdDesign::LazyCleaning, 18_350_080);
        assert_eq!(c.tau, 0.95);
        assert_eq!(c.mu, 100);
        assert_eq!(c.partitions, 16);
        assert_eq!(c.alpha, 32);
        assert_eq!(c.fill_target(), 17_432_576);
        assert_eq!(c.dirty_high_water(), 9_175_040);
        assert!(c.dirty_low_water() < c.dirty_high_water());
        assert_eq!(c.retry, RetryPolicy::default());
        assert!(c.hedged_reads);
        assert_eq!(c.hedge_probe_interval, 16);
        assert_eq!(c.cleaner_disk_queue_max, 32);
        assert_eq!(c.cleaner_idle_depth, 1);
        assert!(c.dirty_ceiling() > c.dirty_high_water());
    }

    #[test]
    fn dirty_ceiling_never_below_high_water() {
        let mut c = SsdConfig::new(SsdDesign::LazyCleaning, 1000);
        c.lambda = 0.90;
        c.cleaner_dirty_ceiling = 0.75;
        assert_eq!(c.dirty_ceiling(), c.dirty_high_water());
    }

    #[test]
    fn labels() {
        assert_eq!(SsdDesign::CleanWrite.label(), "CW");
        assert_eq!(SsdDesign::DualWrite.label(), "DW");
        assert_eq!(SsdDesign::LazyCleaning.label(), "LC");
        assert_eq!(SsdDesign::Tac.label(), "TAC");
    }

    #[test]
    fn watermarks_never_negative() {
        let mut c = SsdConfig::new(SsdDesign::LazyCleaning, 100);
        c.lambda = 0.0;
        assert_eq!(c.dirty_low_water(), 0);
        assert_eq!(c.dirty_high_water(), 0);
    }
}
