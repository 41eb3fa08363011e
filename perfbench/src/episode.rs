//! One episode: set up, drive, digest, crash, restart, verify — with every
//! phase timed and every counter snapshot taken at the phase boundaries.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use turbopool::bufpool::{PolicyStats, PoolStats};
use turbopool::core::metrics::SsdMetricsSnapshot;
use turbopool::engine::{Database, RecoveryReport};
use turbopool::iosim::{fault, Clk, Locality, PageId, StatSnapshot, Time, HOUR, MINUTE, SECOND};
use turbopool::wal::{record, LogRecord, LogTail};
use turbopool::workload::Driver;

use crate::spec::{self, Role, Size, Workload};
use crate::timing::{SpanKind, StepLog, Timed};

/// What to do besides the plain measured episode.
#[derive(Copy, Clone, Debug)]
pub struct Opts {
    /// Keep one span per phase and per step (every episode takes one
    /// counter snapshot per virtual hour either way).
    pub traced: bool,
    /// Crash/restart cycles after the drive (each replays the same log):
    /// at least `min`, and more until they took `min_secs` or reached
    /// `max`.
    pub restarts: Restarts,
    /// Damage the durable log before the first restart (the gate's
    /// self-tests: the episode must fail).
    pub tamper: Tamper,
}

/// How a self-test damages the durable log between the digest and the
/// first crash.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Tamper {
    None,
    /// Flip one byte in the middle of the log: recovery reports damage.
    MidLog,
    /// Turn the log's last record, a commit, into a torn tail: recovery
    /// truncates it silently and reports no damage, so only the digest
    /// comparison can notice that a committed transaction is gone.
    TearLastCommit,
}

#[derive(Copy, Clone, Debug)]
pub struct Restarts {
    pub min: usize,
    pub max: usize,
    pub min_secs: f64,
}

impl Restarts {
    fn more(&self, times: &[f64]) -> bool {
        times.len() < self.min
            || (times.len() < self.max && times.iter().sum::<f64>() < self.min_secs)
    }
}

/// Every public counter, read at one phase boundary.
#[derive(Clone, Debug, Default)]
pub struct Snap {
    pub pool: PoolStats,
    pub policy: PolicyStats,
    pub ssd: SsdMetricsSnapshot,
    pub disk: StatSnapshot,
    pub ssd_dev: StatSnapshot,
    pub log_dev: StatSnapshot,
    pub log_len: u64,
    /// Log bytes ever made durable (checkpoints truncate the log but not
    /// this).
    pub flushed_lsn: u64,
    pub tac_invalid_frames: u64,
}

impl Snap {
    pub fn take(db: &Database) -> Snap {
        Snap {
            pool: db.pool_stats(),
            policy: db.policy_stats(),
            ssd: db.ssd_metrics().unwrap_or_default(),
            disk: db.io().disk_stats(),
            ssd_dev: db.io().ssd_stats(),
            log_dev: db.io().log_stats(),
            log_len: db.log().durable_len() as u64,
            flushed_lsn: db.log().flushed_lsn(),
            tac_invalid_frames: db.tac_cache().map_or(0, |t| t.invalid_frames()),
        }
    }
}

/// Counters at the end of one virtual hour of the drive.
#[derive(Clone, Debug)]
pub struct Window {
    pub end: Time,
    pub wall_s: f64,
    pub ops: u64,
    pub snap: Snap,
}

/// Everything one episode measured.
pub struct Episode {
    pub setup_s: f64,
    pub drive_s: f64,
    /// Virtual seconds the drive covered.
    pub vsecs: f64,
    pub restart_s: Vec<f64>,
    pub verify_s: f64,
    pub db_pages: u64,
    pub page_size: usize,
    /// Members of the striped disk group.
    pub disks: u64,
    pub ops: u64,
    pub steps: u64,
    pub result_per_vmin: f64,
    /// Counters at the start and the end of the drive.
    pub before: Snap,
    pub after: Snap,
    /// The last restart's report.
    pub recovery: Option<RecoveryReport>,
    pub windows: Vec<Window>,
    pub log: StepLog,
    /// Why the correctness gate failed (empty: passed).
    pub failures: Vec<String>,
    /// Peak resident set of the process so far (VmHWM), read at the end.
    /// The first episode of a process gives the footprint of one run;
    /// later ones add only the allocator's fragmentation.
    pub peak_rss_mb: f64,
    /// Hash of the virtual results: ops, steps, the paper's metric, every
    /// counter, the database digest and the redo counters.
    pub fingerprint: u64,
}

/// The gate failure of a restart that lost or changed committed data.
pub const DIGEST_DIFFERS: &str = "database digest after restart differs from before the crash";

/// Order-sensitive 64-bit hash of a page image, a word at a time.
fn page_hash(b: &[u8]) -> u64 {
    b.chunks_exact(8).fold(0x243F_6A88_85A3_08D3, |h, w| {
        (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    })
}

/// Read every database page through one transaction and fold the images
/// into one digest.
fn digest(db: &Database, at: Time) -> Result<u64, String> {
    let mut clk = Clk::at(at);
    let mut txn = db.begin(&mut clk);
    let mut h = 0u64;
    for pid in 0..db.config().db_pages {
        let p = txn.read_page(PageId(pid), Locality::Sequential, page_hash);
        h = (h ^ p).wrapping_mul(0xFF51_AFD7_ED55_8CCD).rotate_left(17);
    }
    if let Some(e) = txn.poisoned() {
        return Err(format!("digest read failed: {e:?}"));
    }
    txn.commit();
    Ok(h)
}

/// Damage `db`'s durable log as `how` says.
fn tamper(db: &Database, how: Tamper) {
    match how {
        Tamper::None => {}
        Tamper::MidLog => {
            let len = db.log().durable_len();
            assert!(db.corrupt_log(len / 2, 0xFF), "log too short to corrupt");
        }
        Tamper::TearLastCommit => {
            let scan = |db: &Database| record::decode_all(&db.log().durable_snapshot());
            let out = scan(db);
            let last = out.records.last().expect("log has records");
            assert!(
                matches!(last, LogRecord::Commit { .. }) && out.tail == LogTail::Clean,
                "log does not end with a commit"
            );
            // Commit tag 2 -> page-write tag 1: the scan then expects a
            // page-write header longer than the bytes left, i.e. a torn tail.
            let at = out.valid_len - last.encoded_len();
            assert!(db.corrupt_log(at, 0x03));
            assert_eq!(
                scan(db).tail,
                LogTail::Torn { at },
                "tear did not read as torn"
            );
        }
    }
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Time building and bulk-loading `w` once, then drop the database.
pub fn setup_only(w: Workload, size: Size, seed: u64) -> f64 {
    let t0 = Instant::now();
    let loaded = spec::setup(w, size, seed);
    let s = secs(t0);
    drop(loaded);
    s
}

pub fn run(w: Workload, size: Size, seed: u64, opts: Opts) -> Episode {
    let log = StepLog::new(opts.traced);
    let mut failures = Vec::new();

    let t0 = Instant::now();
    let loaded = spec::setup(w, size, seed);
    let setup_s = secs(t0);
    log.lock()
        .expect("step log")
        .phase(SpanKind::Setup, t0, Instant::now());
    let db_pages = loaded.db.config().db_pages;
    let page_size = loaded.db.page_size();
    let disks = loaded.db.io().setup().num_disks;

    let before = Snap::take(&loaded.db);
    let mut driver = Driver::new();
    for (role, client) in spec::clients(w, size, seed, &loaded) {
        driver.add(0, Box::new(Timed::new(role, client, &log)));
    }
    let mut windows = Vec::new();
    log.lock().expect("step log").open(SpanKind::Drive);
    let t0 = Instant::now();
    let end = size.duration.unwrap_or(Time::MAX);
    let mut hour = 1;
    while driver.runnable() > 0 && (hour - 1) * HOUR < end {
        let stop = end.min(hour * HOUR);
        driver.run_until(stop);
        let ops = log.lock().expect("step log").role_count(Role::Terminal);
        windows.push(Window {
            end: stop,
            wall_s: secs(t0),
            ops,
            snap: Snap::take(&loaded.db),
        });
        hour += 1;
    }
    let drive_s = secs(t0);
    log.lock().expect("step log").close();
    let steps = driver.steps();
    drop(driver);
    let after = Snap::take(&loaded.db);

    let (vend, result_per_vmin) = match size.duration {
        Some(d) => (
            d,
            loaded
                .result
                .rate_between(d.saturating_sub(HOUR), d, MINUTE),
        ),
        None => {
            let end = loaded.finished_at.load(Ordering::Relaxed);
            let per_min = loaded.result.total() as f64 * MINUTE as f64 / end.max(1) as f64;
            (end, per_min)
        }
    };
    let vsecs = vend as f64 / SECOND as f64;
    let ops = log.lock().expect("step log").role_count(Role::Terminal);
    if after.ssd.audit_violations > 0 {
        failures.push(format!(
            "{} buffer-table audit violations",
            after.ssd.audit_violations
        ));
    }

    if let Some(ops) = w.crash_tail_ops() {
        let t0 = Instant::now();
        loaded.db.checkpoint(&mut Clk::at(vend));
        spec::run_tail(w, size, seed, &loaded, vend, ops);
        log.lock()
            .expect("step log")
            .phase(SpanKind::Tail, t0, Instant::now());
    }

    let t0 = Instant::now();
    let before_digest = digest(&loaded.db, vend).unwrap_or_else(|e| {
        failures.push(e);
        0
    });
    log.lock()
        .expect("step log")
        .phase(SpanKind::Digest, t0, Instant::now());

    let mut db = Some(loaded.into_db());
    if let Some(db) = &db {
        tamper(db, opts.tamper);
    }
    let mut restart_s = Vec::new();
    let mut recovery = None;
    while opts.restarts.more(&restart_s) {
        let Some(live) = db.take() else { break };
        let image = live.crash();
        let t0 = Instant::now();
        let outcome = Database::try_recover(image);
        restart_s.push(secs(t0));
        log.lock()
            .expect("step log")
            .phase(SpanKind::Restart, t0, Instant::now());
        match outcome {
            Ok((recovered, report)) => {
                if report.is_damaged() {
                    failures.push(format!("restart found a damaged log: {:?}", report.log));
                }
                recovery = Some(report);
                db = Some(recovered);
            }
            Err(e) => failures.push(format!("restart failed: {:?}", e.error)),
        }
    }

    let mut verify_s = f64::NAN;
    if let Some(db) = &db {
        let t0 = Instant::now();
        match digest(db, 0) {
            Ok(d) if d == before_digest => {}
            Ok(_) => failures.push(DIGEST_DIFFERS.into()),
            Err(e) => failures.push(e),
        }
        verify_s = secs(t0);
        log.lock()
            .expect("step log")
            .phase(SpanKind::Verify, t0, Instant::now());
    }

    let fingerprint = fault::checksum(
        format!(
            "{ops}|{steps}|{:x}|{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{before_digest:x}|{:?}",
            result_per_vmin.to_bits(),
            after.pool,
            after.policy,
            after.ssd,
            after.disk,
            after.ssd_dev,
            after.log_dev,
            after.log_len,
            after.flushed_lsn,
            recovery.map(|r| (r.stats, r.duration)),
        )
        .as_bytes(),
    );
    let log = Arc::try_unwrap(log)
        .unwrap_or_else(|_| panic!("a timed client outlived the driver"))
        .into_inner()
        .expect("step log");
    Episode {
        setup_s,
        drive_s,
        vsecs,
        restart_s,
        verify_s,
        db_pages,
        page_size,
        disks,
        ops,
        steps,
        result_per_vmin,
        before,
        after,
        recovery,
        windows,
        log,
        failures,
        fingerprint,
        peak_rss_mb: peak_rss_mb(),
    }
}
