//! Experiment runners shared by the figure/table harnesses.

use std::sync::Arc;

use turbopool_bufpool::{AdmissionKind, PolicyStats, ReplacementKind};
use turbopool_core::metrics::SsdMetricsSnapshot;
use turbopool_engine::Database;
use turbopool_iosim::{Time, HOUR, MILLISECOND, MINUTE};
use turbopool_workload::driver::{CheckpointClient, CleanerClient, Driver, ThroughputRecorder};
use turbopool_workload::scenario::Design;
use turbopool_workload::{tpcc::Tpcc, tpce::Tpce};

/// Which OLTP benchmark to run.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum OltpKind {
    /// TPC-C with the given scaled warehouse count.
    TpcC { warehouses: u64 },
    /// TPC-E with the given scaled customer count.
    TpcE { customers: u64 },
}

/// Run configuration.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Virtual run length.
    pub duration: Time,
    /// Terminal count.
    pub clients: usize,
    /// LC λ (dirty fraction threshold).
    pub lambda: f64,
    /// Checkpoint interval; `None` disables checkpointing (the paper turns
    /// it off for TPC-C).
    pub checkpoint: Option<Time>,
    /// Device traffic series bucket (Figure 8); `None` disables.
    pub io_series: Option<Time>,
    /// DRAM replacement policy (the paper's LRU-2 by default).
    pub replacement: ReplacementKind,
    /// SSD admission policy (the paper's per-design rule by default).
    pub admission: AdmissionKind,
    /// DRAM pool frames override (`None` = the paper's scaled size).
    /// The policy arena shrinks the pools so replacement and admission
    /// actually churn within a short run.
    pub mem_frames: Option<usize>,
    /// SSD frames override (`None` = the paper's scaled size).
    pub ssd_frames: Option<u64>,
}

impl RunOptions {
    /// The paper's TPC-C settings: 10 hours, λ = 50%, checkpointing off.
    pub fn tpcc(duration: Time) -> Self {
        RunOptions {
            duration,
            clients: 25,
            lambda: 0.5,
            checkpoint: None,
            io_series: None,
            replacement: ReplacementKind::Lru2,
            admission: AdmissionKind::DesignDefault,
            mem_frames: None,
            ssd_frames: None,
        }
    }

    /// The paper's TPC-E settings: λ = 1%, checkpoint every ~40 minutes.
    pub fn tpce(duration: Time) -> Self {
        RunOptions {
            duration,
            clients: 25,
            lambda: 0.01,
            checkpoint: Some(40 * MINUTE),
            io_series: None,
            replacement: ReplacementKind::Lru2,
            admission: AdmissionKind::DesignDefault,
            mem_frames: None,
            ssd_frames: None,
        }
    }
}

/// Everything a harness needs from one completed OLTP run.
pub struct OltpRun {
    /// Design that ran.
    pub design: Design,
    /// The metric recorder (NewOrder commits / TradeResult commits).
    pub metric: Arc<ThroughputRecorder>,
    /// Virtual run length.
    pub duration: Time,
    /// Metric rate over the last hour (per minute for TPC-C, converted by
    /// callers for tpsE).
    pub last_hour_per_min: f64,
    /// Six-minute throughput series (per-minute rates).
    pub series: Vec<(f64, f64)>,
    /// SSD-manager counters (None for noSSD).
    pub ssd: Option<SsdMetricsSnapshot>,
    /// Buffer pool counters.
    pub pool: turbopool_bufpool::PoolStats,
    /// DRAM replacement-policy counters (all zero for plain LRU-2).
    pub policy: PolicyStats,
    /// Disk-group device totals.
    pub disk: turbopool_iosim::StatSnapshot,
    /// SSD device totals.
    pub ssd_dev: turbopool_iosim::StatSnapshot,
    /// Disk traffic series (if `io_series` was set).
    pub disk_series: Vec<(Time, u64, u64)>,
    /// SSD traffic series (if `io_series` was set).
    pub ssd_series: Vec<(Time, u64, u64)>,
    /// TAC wasted (invalid) SSD frames at end of run.
    pub tac_invalid_frames: u64,
}

/// Build + bulk load one design's database and attach its terminals plus
/// the checkpointer/cleaner pseudo-clients, all inside driver `domain`.
/// Each call owns a whole Database, so distinct domains are share-nothing
/// and the parallel driver may step them on different worker threads.
fn attach(
    kind: OltpKind,
    design: Design,
    opts: &RunOptions,
    driver: &mut Driver,
    domain: usize,
    metric: &Arc<ThroughputRecorder>,
) -> Arc<Database> {
    let tweak = |spec: &mut turbopool_workload::scenario::SystemSpec| {
        spec.replacement = opts.replacement;
        spec.admission = opts.admission;
        if let Some(frames) = opts.mem_frames {
            spec.mem_frames = frames;
        }
        if let Some(frames) = opts.ssd_frames {
            spec.ssd_frames = frames;
        }
    };
    let db = match kind {
        OltpKind::TpcC { warehouses } => {
            let t = Arc::new(Tpcc::setup_tweak(design, warehouses, opts.lambda, tweak));
            for c in 0..opts.clients {
                driver.add_in_domain(domain, 0, Box::new(t.client(c as u64, Arc::clone(metric))));
            }
            Arc::clone(&t.db)
        }
        OltpKind::TpcE { customers } => {
            let t = Arc::new(Tpce::setup_tweak(design, customers, opts.lambda, tweak));
            for c in 0..opts.clients {
                driver.add_in_domain(domain, 0, Box::new(t.client(c as u64, Arc::clone(metric))));
            }
            Arc::clone(&t.db)
        }
    };

    if let Some(bucket) = opts.io_series {
        db.io().enable_series(bucket);
    }
    if let Some(interval) = opts.checkpoint {
        driver.add_in_domain(
            domain,
            0,
            Box::new(CheckpointClient::new(Arc::clone(&db), interval)),
        );
    }
    if let Some(cleaner) = CleanerClient::for_db(&db) {
        driver.add_in_domain(domain, 0, Box::new(cleaner));
    }
    db
}

/// Collect every statistic the figures need from a finished run.
fn collect(
    design: Design,
    metric: Arc<ThroughputRecorder>,
    opts: &RunOptions,
    db: &Database,
) -> OltpRun {
    let last_hour_start = opts.duration.saturating_sub(HOUR);
    let last_hour_per_min = metric.rate_between(last_hour_start, opts.duration, MINUTE);
    // Drop the trailing partial bucket (overshoot artifacts).
    let mut series = metric.series_per_minute();
    series.truncate((opts.duration / (6 * MINUTE)) as usize);
    OltpRun {
        design,
        duration: opts.duration,
        last_hour_per_min,
        series,
        ssd: db.ssd_metrics(),
        pool: db.pool_stats(),
        policy: db.policy_stats(),
        disk: db.io().disk_stats(),
        ssd_dev: db.io().ssd_stats(),
        disk_series: db.io().disk_series(),
        ssd_series: db.io().ssd_series(),
        tac_invalid_frames: db.tac_cache().map(|t| t.invalid_frames()).unwrap_or(0),
        metric,
    }
}

/// Run one OLTP experiment end to end: build + bulk load the database,
/// attach terminals plus the checkpointer/cleaner pseudo-clients, run for
/// `opts.duration` of virtual time, and collect every statistic the
/// figures need.
pub fn run_oltp(kind: OltpKind, design: Design, opts: &RunOptions) -> OltpRun {
    let metric = ThroughputRecorder::new(6 * MINUTE);
    let mut driver = Driver::new();
    let db = attach(kind, design, opts, &mut driver, 0, &metric);
    driver.run_until(opts.duration);
    collect(design, metric, opts, &db)
}

/// Several designs' results plus the shared-driver totals.
pub struct OltpSet {
    /// One completed run per requested design, in input order.
    pub runs: Vec<OltpRun>,
    /// Total client steps executed across all designs.
    pub steps: u64,
    /// Worker threads the driver was given.
    pub threads: usize,
    /// Wall-clock seconds of the drive phase alone (setup/bulk-load is
    /// serial and excluded, so scaling numbers measure the simulation).
    pub drive_secs: f64,
}

/// How many minimum-service quanta one parallel window spans. Windows
/// only bound how far share-nothing domains drift apart in virtual time
/// (bit-identity holds for any width — see the driver docs), so a wide
/// window amortizes the per-window merge without changing results.
const WINDOW_QUANTA: u64 = 4096;

/// Run one OLTP experiment per design *concurrently*: each design gets
/// its own database and driver domain, and the parallel driver steps the
/// domains on up to `threads` worker threads. Results are bit-identical
/// to running `run_oltp` per design (same seeds, same virtual clocks) —
/// only wall-clock time changes.
pub fn run_oltp_set(
    kind: OltpKind,
    designs: &[Design],
    opts: &RunOptions,
    threads: usize,
) -> OltpSet {
    let mut driver = Driver::new();
    let mut handles = Vec::with_capacity(designs.len());
    for (domain, &design) in designs.iter().enumerate() {
        let metric = ThroughputRecorder::new(6 * MINUTE);
        let db = attach(kind, design, opts, &mut driver, domain, &metric);
        handles.push((design, metric, db));
    }
    let min_service = handles
        .iter()
        .map(|(_, _, db)| db.io().setup().min_service_ns())
        .min()
        .unwrap_or(MILLISECOND);
    driver.set_lookahead(min_service.saturating_mul(WINDOW_QUANTA));
    let timer = crate::json::WallTimer::start();
    driver.run_until_parallel(opts.duration, threads);
    let drive_secs = timer.secs();
    let steps = driver.steps();
    let runs = handles
        .into_iter()
        .map(|(design, metric, db)| collect(design, metric, opts, &db))
        .collect();
    OltpSet {
        runs,
        steps,
        threads,
        drive_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_tpcc_run_produces_metrics() {
        let opts = RunOptions {
            duration: 30 * MINUTE,
            clients: 4,
            ..RunOptions::tpcc(0)
        };
        let run = run_oltp(OltpKind::TpcC { warehouses: 2 }, Design::Dw, &opts);
        assert!(run.metric.total() > 0);
        assert!(run.ssd.is_some());
        assert!(!run.series.is_empty());
    }

    #[test]
    fn oltp_set_matches_individual_runs() {
        let opts = RunOptions {
            duration: 20 * MINUTE,
            clients: 3,
            ..RunOptions::tpcc(0)
        };
        let kind = OltpKind::TpcC { warehouses: 2 };
        let designs = [Design::Dw, Design::Lc];
        let set = run_oltp_set(kind, &designs, &opts, 2);
        assert_eq!(set.runs.len(), 2);
        for (i, &design) in designs.iter().enumerate() {
            let solo = run_oltp(kind, design, &opts);
            let par = &set.runs[i];
            assert_eq!(par.design, design);
            assert_eq!(par.metric.total(), solo.metric.total(), "{design:?}");
            assert_eq!(par.ssd, solo.ssd, "{design:?}");
            assert_eq!(par.pool, solo.pool, "{design:?}");
            assert_eq!(par.disk, solo.disk, "{design:?}");
            assert_eq!(par.ssd_dev, solo.ssd_dev, "{design:?}");
        }
    }
}
