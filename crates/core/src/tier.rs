//! The SSD-tier guard shared by [`crate::manager::SsdManager`] (CW, DW,
//! LC) and [`crate::tac::TacCache`] (TAC).
//!
//! Both caches sit on the same SSD and degrade the same way, so the
//! fault-tolerance rules live here once: the error budget and the
//! quarantine flag, throttle control (μ), fail-slow hedging with canary
//! probes, retried SSD and disk I/O, and the invariant auditor. Each
//! owner keeps its own buffer table; when [`SsdTier::note_error`] or
//! [`SsdTier::quarantine`] reports that quarantine just tripped, the owner
//! sweeps that table.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use turbopool_iosim::{
    fault, Clk, IoError, IoErrorKind, IoManager, Locality, PageBuf, PageId, Time,
};

use crate::audit::{AuditOp, InvariantAuditor};
use crate::config::SsdConfig;
use crate::metrics::SsdMetrics;

/// While hedging, every `HEDGE_PROBE_INTERVAL`-th hedge-eligible decision
/// still goes to the SSD as a canary probe: a fully-hedged device would
/// produce no more latency samples, and the fail-slow detector could
/// never observe recovery.
pub(crate) const HEDGE_PROBE_INTERVAL: u64 = 16;

/// Degraded-mode state and I/O helpers of one SSD tier.
pub(crate) struct SsdTier {
    pub(crate) io: Arc<IoManager>,
    /// Counters for the evaluation harnesses.
    pub(crate) metrics: SsdMetrics,
    /// Throttle threshold μ (`SsdConfig::mu`).
    mu: usize,
    /// SSD I/O errors tolerated before quarantine
    /// (`SsdConfig::ssd_error_budget`).
    error_budget: u64,
    /// SSD I/O errors observed so far.
    errors: AtomicU64,
    /// True once the SSD has been quarantined (device death or error
    /// budget exhausted); every path then bypasses the SSD.
    quarantined: AtomicBool,
    /// Degraded-mode decision counter driving canary probes.
    probe_tick: AtomicU64,
    /// Shadow state machine validating every buffer-table transition.
    auditor: InvariantAuditor,
}

impl SsdTier {
    pub(crate) fn new(cfg: &SsdConfig, io: Arc<IoManager>) -> Self {
        assert!(cfg.frames <= io.ssd_frames(), "SSD file too small");
        SsdTier {
            io,
            metrics: SsdMetrics::default(),
            mu: cfg.mu,
            error_budget: cfg.ssd_error_budget,
            errors: AtomicU64::new(0),
            quarantined: AtomicBool::new(false),
            probe_tick: AtomicU64::new(0),
            auditor: InvariantAuditor::new(cfg.design),
        }
    }

    /// True once the SSD is quarantined.
    pub(crate) fn is_quarantined(&self) -> bool {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Quarantine the SSD. Returns true only for the call that tripped
    /// it; that caller must then sweep its buffer table.
    pub(crate) fn quarantine(&self) -> bool {
        if self.quarantined.swap(true, Ordering::SeqCst) {
            return false;
        }
        SsdMetrics::bump(&self.metrics.ssd_quarantined);
        true
    }

    /// Record one SSD I/O error; quarantine on device death or once the
    /// error budget is exhausted. Returns true if this call tripped
    /// quarantine, in which case the caller must sweep its buffer table
    /// (so it must not hold the table latch here).
    pub(crate) fn note_error(&self, e: &IoError) -> bool {
        SsdMetrics::bump(&self.metrics.ssd_io_errors);
        if e.kind == IoErrorKind::ChecksumMismatch {
            SsdMetrics::bump(&self.metrics.checksum_misses);
        }
        let seen = self.errors.fetch_add(1, Ordering::Relaxed) + 1;
        (e.kind == IoErrorKind::DeviceDead || seen > self.error_budget) && self.quarantine()
    }

    /// Is the SSD queue deeper than the throttle threshold μ (§3.3.2)?
    pub(crate) fn throttled(&self, now: Time) -> bool {
        self.io.ssd_overloaded(now, self.mu)
    }

    /// Should this hedge-eligible decision divert away from the SSD?
    /// Healthy SSD: never. SSD flagged fail-slow: yes, except that every
    /// [`HEDGE_PROBE_INTERVAL`]-th decision goes through as a canary
    /// probe. Once a probe comes back fast the detector reports
    /// `clearing` and every decision probes, so the clear streak
    /// completes (or is refuted) in `clear_after` requests instead of
    /// `clear_after × interval`. The tick advances in deterministic
    /// submission order, so replay is exact.
    pub(crate) fn hedge_or_probe(&self) -> bool {
        if !self.io.ssd_slow() || self.io.ssd_clearing() {
            return false;
        }
        let t = self.probe_tick.fetch_add(1, Ordering::Relaxed);
        t % HEDGE_PROBE_INTERVAL != HEDGE_PROBE_INTERVAL - 1
    }

    /// SSD frame read with transient-error retries on `clk`. The final
    /// error (checksum mismatch, device death, or retries exhausted) is
    /// returned for the caller to classify.
    pub(crate) fn ssd_read(
        &self,
        clk: &mut Clk,
        frame: u64,
        buf: &mut [u8],
    ) -> Result<(), IoError> {
        let (retries, out) = fault::retry_sync(clk, |c| self.io.read_ssd(c, frame, buf));
        SsdMetrics::add(&self.metrics.ssd_retries, u64::from(retries));
        out
    }

    /// Synchronous disk read with transient-error retries on `clk`.
    pub(crate) fn disk_read(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut [u8],
    ) -> Result<(), IoError> {
        let (retries, out) = fault::retry_sync(clk, |c| self.io.read_disk(c, pid, buf, class));
        SsdMetrics::add(&self.metrics.disk_retries, u64::from(retries));
        out
    }

    /// Multi-page disk read with transient-error retries on `clk`.
    pub(crate) fn disk_read_run(
        &self,
        clk: &mut Clk,
        first: PageId,
        n: u64,
        loc: Locality,
    ) -> Result<Vec<PageBuf>, IoError> {
        let (retries, out) = fault::retry_sync(clk, |c| self.io.read_disk_run(c, first, n, loc));
        SsdMetrics::add(&self.metrics.disk_retries, u64::from(retries));
        out
    }

    /// Asynchronous disk write that must not drop data: transient errors
    /// retry without bound; only a dead disk — unrecoverable by any policy
    /// — falls through, and then there is nowhere left to persist to. The
    /// IoManager records the lost write so later readers surface the
    /// device error instead of treating the page as never-written.
    /// Returns the write's completion time (`now` for a dead disk, which
    /// completes nothing).
    pub(crate) fn disk_write(&self, now: Time, pid: PageId, data: &[u8]) -> Time {
        match fault::retry_write_forever(|| {
            self.io.write_disk_async(now, pid, data, Locality::Random)
        }) {
            Ok(done) => done,
            Err(e) => {
                debug_assert!(!e.is_transient());
                now
            }
        }
    }

    /// Invariant violations caught so far (see [`InvariantAuditor`]).
    pub(crate) fn audit_violations(&self) -> u64 {
        self.auditor.violations()
    }

    /// Report a buffer-table transition to the auditor. Violations are
    /// counted in the metrics and abort debug builds immediately.
    pub(crate) fn audit(&self, pid: PageId, op: AuditOp) {
        if let Err(e) = self.auditor.observe(pid, op) {
            SsdMetrics::bump(&self.metrics.audit_violations);
            if cfg!(debug_assertions) {
                // lint: allow(panic) — the auditor's whole point: fail the
                // test run at the first illegal state-machine transition.
                panic!("SSD buffer-table invariant violated: {e} (pid {pid})");
            }
        }
    }
}
