//! SSD-manager counters used by the evaluation harnesses.

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic counters; snapshot with [`SsdMetricsSnapshot`].
#[derive(Debug, Default)]
pub struct SsdMetrics {
    /// Page lookups served from the SSD.
    pub ssd_hits: AtomicU64,
    /// Page lookups that fell through to disk.
    pub ssd_misses: AtomicU64,
    /// SSD hits skipped because the SSD queue exceeded μ (read went to
    /// disk instead).
    pub throttled_reads: AtomicU64,
    /// SSD admissions skipped because the SSD queue exceeded μ.
    pub throttled_admissions: AtomicU64,
    /// Pages admitted to the SSD (any path).
    pub admissions: AtomicU64,
    /// Pages admitted while the aggressive-filling phase was active.
    pub fill_admissions: AtomicU64,
    /// Evictions rejected by the admission policy (sequential class).
    pub policy_rejections: AtomicU64,
    /// Admissions granted by a ghost hit (the `GhostHit` admission
    /// policy re-admitting a recently rejected or replaced page; always
    /// 0 under `DesignDefault`).
    pub admission_ghost_hits: AtomicU64,
    /// SSD frames reclaimed by replacement.
    pub replacements: AtomicU64,
    /// Invalidations triggered by in-memory dirtying.
    pub invalidations: AtomicU64,
    /// Pages cleaned (SSD -> disk) by the lazy cleaner.
    pub cleaned_pages: AtomicU64,
    /// Group-cleaning write requests issued.
    pub cleaner_writes: AtomicU64,
    /// Dirty SSD victims cleaned inline because no clean victim existed.
    pub inline_cleans: AtomicU64,
    /// Dirty SSD pages flushed by sharp checkpoints.
    pub checkpoint_cleaned: AtomicU64,
    /// TAC: on-read SSD writes cancelled because the page was dirtied
    /// before the write completed (§4.2 discussion).
    pub tac_cancelled_writes: AtomicU64,
    /// SSD hits that returned a *dirty* (newer-than-disk) page.
    pub dirty_hits: AtomicU64,
    /// Pages re-adopted from the SSD at restart (warm-restart extension).
    pub warm_imports: AtomicU64,
    /// Warm-restart candidates rejected as stale: the frame's in-page
    /// header no longer names the checkpointed page, or redo advanced the
    /// page's disk image past the cached copy.
    pub warm_rejected_stale: AtomicU64,
    /// Warm-restart candidates rejected because the frame's stored bytes
    /// failed checksum verification when probed at import time.
    pub warm_rejected_checksum: AtomicU64,
    /// Buffer-table state-machine violations caught by the invariant
    /// auditor (always 0 unless the state machine itself is broken).
    pub audit_violations: AtomicU64,
    /// SSD I/O operations that returned an error (transient, checksum, or
    /// device-dead). Feeds the quarantine error budget.
    pub ssd_io_errors: AtomicU64,
    /// SSD frame reads whose contents failed checksum verification
    /// (torn writes and silent bit-flips surface here).
    pub checksum_misses: AtomicU64,
    /// Disk I/O retry attempts consumed by the capped-backoff policy.
    pub disk_retries: AtomicU64,
    /// 1 once the SSD has been quarantined (device death or error budget
    /// exhausted) and the manager degraded to the noSSD path.
    pub ssd_quarantined: AtomicU64,
    /// Reads served from disk that arrived after quarantine — the hits the
    /// dead SSD can no longer serve.
    pub quarantined_reads: AtomicU64,
    /// Cached frames dropped when the table was cleared at quarantine.
    pub lost_frames: AtomicU64,
    /// Dirty (sole-copy) frames whose SSD copy became unreadable; each is
    /// queued for WAL-tail salvage by the engine.
    pub stranded_dirty: AtomicU64,
    /// Pages restored onto disk by WAL-tail salvage after stranding.
    pub salvaged_pages: AtomicU64,
    /// SSD hits redirected to disk because the fail-slow detector flagged
    /// the SSD degraded (gray-failure hedging; dirty sole-copy frames are
    /// exempt and still read from the SSD).
    pub hedged_reads: AtomicU64,
    /// SSD admissions skipped because the fail-slow detector flagged the
    /// SSD degraded — no optional traffic is sent to a browned-out device.
    pub hedged_admissions: AtomicU64,
    /// SSD I/O retry attempts consumed by the capped-backoff policy.
    pub ssd_retries: AtomicU64,
    /// Lazy-cleaner rounds skipped because the disk group was congested
    /// (queue depth above `cleaner_disk_queue_max`) and the dirty count
    /// was still below the hard ceiling.
    pub cleaner_backoffs: AtomicU64,
    /// Lazy-cleaner rounds run opportunistically below the high-water
    /// mark because the disk group was idle.
    pub cleaner_boosts: AtomicU64,
}

/// Plain-value snapshot of [`SsdMetrics`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SsdMetricsSnapshot {
    pub ssd_hits: u64,
    pub ssd_misses: u64,
    pub throttled_reads: u64,
    pub throttled_admissions: u64,
    pub admissions: u64,
    pub fill_admissions: u64,
    pub policy_rejections: u64,
    pub admission_ghost_hits: u64,
    pub replacements: u64,
    pub invalidations: u64,
    pub cleaned_pages: u64,
    pub cleaner_writes: u64,
    pub inline_cleans: u64,
    pub checkpoint_cleaned: u64,
    pub tac_cancelled_writes: u64,
    pub dirty_hits: u64,
    pub warm_imports: u64,
    pub warm_rejected_stale: u64,
    pub warm_rejected_checksum: u64,
    pub audit_violations: u64,
    pub ssd_io_errors: u64,
    pub checksum_misses: u64,
    pub disk_retries: u64,
    pub ssd_quarantined: u64,
    pub quarantined_reads: u64,
    pub lost_frames: u64,
    pub stranded_dirty: u64,
    pub salvaged_pages: u64,
    pub hedged_reads: u64,
    pub hedged_admissions: u64,
    pub ssd_retries: u64,
    pub cleaner_backoffs: u64,
    pub cleaner_boosts: u64,
}

impl SsdMetrics {
    pub fn snapshot(&self) -> SsdMetricsSnapshot {
        SsdMetricsSnapshot {
            ssd_hits: self.ssd_hits.load(Ordering::Relaxed),
            ssd_misses: self.ssd_misses.load(Ordering::Relaxed),
            throttled_reads: self.throttled_reads.load(Ordering::Relaxed),
            throttled_admissions: self.throttled_admissions.load(Ordering::Relaxed),
            admissions: self.admissions.load(Ordering::Relaxed),
            fill_admissions: self.fill_admissions.load(Ordering::Relaxed),
            policy_rejections: self.policy_rejections.load(Ordering::Relaxed),
            admission_ghost_hits: self.admission_ghost_hits.load(Ordering::Relaxed),
            replacements: self.replacements.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            cleaned_pages: self.cleaned_pages.load(Ordering::Relaxed),
            cleaner_writes: self.cleaner_writes.load(Ordering::Relaxed),
            inline_cleans: self.inline_cleans.load(Ordering::Relaxed),
            checkpoint_cleaned: self.checkpoint_cleaned.load(Ordering::Relaxed),
            tac_cancelled_writes: self.tac_cancelled_writes.load(Ordering::Relaxed),
            dirty_hits: self.dirty_hits.load(Ordering::Relaxed),
            warm_imports: self.warm_imports.load(Ordering::Relaxed),
            warm_rejected_stale: self.warm_rejected_stale.load(Ordering::Relaxed),
            warm_rejected_checksum: self.warm_rejected_checksum.load(Ordering::Relaxed),
            audit_violations: self.audit_violations.load(Ordering::Relaxed),
            ssd_io_errors: self.ssd_io_errors.load(Ordering::Relaxed),
            checksum_misses: self.checksum_misses.load(Ordering::Relaxed),
            disk_retries: self.disk_retries.load(Ordering::Relaxed),
            ssd_quarantined: self.ssd_quarantined.load(Ordering::Relaxed),
            quarantined_reads: self.quarantined_reads.load(Ordering::Relaxed),
            lost_frames: self.lost_frames.load(Ordering::Relaxed),
            stranded_dirty: self.stranded_dirty.load(Ordering::Relaxed),
            salvaged_pages: self.salvaged_pages.load(Ordering::Relaxed),
            hedged_reads: self.hedged_reads.load(Ordering::Relaxed),
            hedged_admissions: self.hedged_admissions.load(Ordering::Relaxed),
            ssd_retries: self.ssd_retries.load(Ordering::Relaxed),
            cleaner_backoffs: self.cleaner_backoffs.load(Ordering::Relaxed),
            cleaner_boosts: self.cleaner_boosts.load(Ordering::Relaxed),
        }
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl SsdMetricsSnapshot {
    /// SSD hit rate over all lookups that reached the SSD manager.
    pub fn hit_rate(&self) -> f64 {
        let total = self.ssd_hits + self.ssd_misses;
        if total == 0 {
            0.0
        } else {
            self.ssd_hits as f64 / total as f64
        }
    }

    /// Fraction of SSD hits that were to dirty pages — 83% for the 2K
    /// TPC-C run in the paper (§4.2).
    pub fn dirty_hit_fraction(&self) -> f64 {
        if self.ssd_hits == 0 {
            0.0
        } else {
            self.dirty_hits as f64 / self.ssd_hits as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters() {
        let m = SsdMetrics::default();
        SsdMetrics::bump(&m.ssd_hits);
        SsdMetrics::add(&m.cleaned_pages, 5);
        let s = m.snapshot();
        assert_eq!(s.ssd_hits, 1);
        assert_eq!(s.cleaned_pages, 5);
        assert_eq!(s.ssd_misses, 0);
    }

    #[test]
    fn rates() {
        let m = SsdMetrics::default();
        SsdMetrics::add(&m.ssd_hits, 89);
        SsdMetrics::add(&m.ssd_misses, 11);
        SsdMetrics::add(&m.dirty_hits, 70);
        let s = m.snapshot();
        assert!((s.hit_rate() - 0.89).abs() < 1e-12);
        assert!((s.dirty_hit_fraction() - 70.0 / 89.0).abs() < 1e-12);
        assert_eq!(SsdMetricsSnapshot::default().hit_rate(), 0.0);
    }
}
