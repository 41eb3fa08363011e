//! Turning episodes into named metrics: end to end and per layer from
//! untraced episodes, the tracing overhead from a traced one.

use std::time::Instant;

use turbopool::iosim::fault;

use crate::episode::Episode;
use crate::spec::{Role, Workload};

/// One reported metric. `note` says what it is measured against, or why
/// it does not apply to this workload (the value is then 0).
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

fn m(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `(failed ops, correct)` of a run: a run that fails its gate counts
/// every op it attempted as failed.
pub fn outcome(failures: &[String], attempted: u64) -> (u64, bool) {
    if failures.is_empty() {
        (0, true)
    } else {
        (attempted, false)
    }
}

pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..100) of sorted samples, with the number
/// of samples above it.
fn percentile(sorted: &[u64], p: f64) -> (u64, usize) {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    let i = rank.min(sorted.len()) - 1;
    (sorted[i], sorted.len() - 1 - i)
}

/// The end-to-end metrics of untraced episodes; `setups` are set-up
/// times taken apart from them.
pub fn end_to_end(w: Workload, eps: &[Episode], setups: &[f64]) -> Vec<Metric> {
    let drive: f64 = eps.iter().map(|e| e.drive_s).sum();
    let vsecs: f64 = eps.iter().map(|e| e.vsecs).sum();
    let rates: Vec<f64> = eps.iter().map(|e| e.vsecs / e.drive_s).collect();
    let mut ops: Vec<u64> = eps
        .iter()
        .flat_map(|e| e.log.op_ns.iter().copied())
        .collect();
    ops.sort_unstable();
    let (p50, _) = percentile(&ops, 50.0);
    let (p99, beyond) = percentile(&ops, 99.0);
    let restarts: Vec<f64> = eps
        .iter()
        .flat_map(|e| e.restart_s.iter().copied())
        .collect();
    let restart_note = match w {
        Workload::TpccLc => "median over every restart; redo of the whole log",
        Workload::TpceTac | Workload::TpchNossd => {
            "median over every restart; short log, so mostly reopening the caches"
        }
    };
    vec![
        m(
            "vsec_per_s",
            median(&rates),
            "1/s",
            format!(
                "median of {} episodes; {vsecs:.0} virtual s in {drive:.3} wall s of drive",
                eps.len()
            ),
        ),
        m(
            "op_p50_us",
            p50 as f64 / 1e3,
            "us",
            format!("{} ops", ops.len()),
        ),
        m(
            "op_p99_us",
            p99 as f64 / 1e3,
            "us",
            format!("{} ops, {beyond} beyond", ops.len()),
        ),
        m(
            "setup_s",
            median(setups),
            "s",
            format!("median of {} set-ups", setups.len()),
        ),
        m(
            "restart_s",
            median(&restarts),
            "s",
            format!("{restart_note} ({})", restarts.len()),
        ),
        m(
            "peak_rss_mb",
            eps[0].peak_rss_mb,
            "MB",
            "VmHWM of the benchmark process after its first episode",
        ),
    ]
}

/// Median wall ns of one `fault::checksum` call over one page.
pub fn checksum_ns_per_page(page_size: usize) -> f64 {
    let page: Vec<u8> = (0..page_size).map(|i| (i * 31 % 251) as u8).collect();
    let mut per_call = Vec::new();
    for _ in 0..7 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..64 {
            acc ^= fault::checksum(std::hint::black_box(&page));
        }
        std::hint::black_box(acc);
        per_call.push(t0.elapsed().as_nanos() as f64 / 64.0);
    }
    median(&per_call)
}

/// Per-layer metrics of one untraced episode, so wall times carry no
/// tracing cost (its counters equal the traced episode's: the gate checks
/// the fingerprints). Counters are drive-phase deltas unless the note says
/// otherwise.
pub fn per_layer(w: Workload, e: &Episode) -> Vec<Metric> {
    let (b, a) = (&e.before, &e.after);
    let log = &e.log;
    let d = |x: u64, y: u64| (y - x) as f64;
    let vns = e.vsecs * 1e9;
    let has_ssd = w != Workload::TpchNossd;
    let ssd_na = |note: &str| {
        if has_ssd {
            note.to_string()
        } else {
            "N/A: noSSD design has no SSD tier (0)".to_string()
        }
    };
    let lc_only = |note: &str| {
        if w == Workload::TpccLc {
            note.to_string()
        } else {
            "N/A: only the LC design runs a lazy cleaner (0)".to_string()
        }
    };
    let step_s: f64 = [Role::Terminal, Role::Cleaner, Role::Checkpoint]
        .into_iter()
        .map(|r| log.role_secs(r))
        .sum();
    let gets = d(b.pool.hits, a.pool.hits) + d(b.pool.misses, a.pool.misses);
    let ssd_lookups = d(b.ssd.ssd_hits, a.ssd.ssd_hits) + d(b.ssd.ssd_misses, a.ssd.ssd_misses);
    let ssd_pages = d(b.ssd_dev.total_pages(), a.ssd_dev.total_pages());
    let log_bytes = d(b.flushed_lsn, a.flushed_lsn);
    let cks_ns = checksum_ns_per_page(e.page_size);
    let cks_bytes = ssd_pages * e.page_size as f64 + log_bytes;
    let rec = e.recovery.map(|r| r.stats).unwrap_or_default();
    let redo_s = median(&e.restart_s);
    let ckpt_note = if w == Workload::TpceTac {
        "sharp checkpoint every 40 virtual min"
    } else {
        "N/A: checkpointing off for this workload (0)"
    };
    vec![
        m(
            "workload.ops",
            e.ops as f64,
            "count",
            "terminal steps (transactions, queries, RFs)",
        ),
        m(
            "workload.steps",
            e.steps as f64,
            "count",
            "driver steps, all clients",
        ),
        m(
            "workload.op_s",
            log.role_secs(Role::Terminal),
            "s",
            "wall time inside terminal steps",
        ),
        m(
            "workload.driver_self_s",
            e.drive_s - step_s,
            "s",
            format!("drive {:.3} s minus wrapped steps {step_s:.3} s", e.drive_s),
        ),
        m(
            "workload.result_per_vmin",
            e.result_per_vmin,
            "1/min",
            match w {
                Workload::TpccLc => "NewOrder commits per virtual min, last virtual hour",
                Workload::TpceTac => "Trade-Result commits per virtual min, last virtual hour",
                Workload::TpchNossd => "queries per virtual min over the whole run",
            },
        ),
        m(
            "engine.checkpoints",
            log.role_count(Role::Checkpoint) as f64,
            "count",
            ckpt_note,
        ),
        m(
            "engine.checkpoint_s",
            log.role_secs(Role::Checkpoint),
            "s",
            ckpt_note,
        ),
        m(
            "engine.verify_us_per_page",
            ratio(e.verify_s * 1e6, e.db_pages as f64),
            "us",
            format!("cold full read after restart, {} pages", e.db_pages),
        ),
        m("bufpool.hits", d(b.pool.hits, a.pool.hits), "count", ""),
        m(
            "bufpool.misses",
            d(b.pool.misses, a.pool.misses),
            "count",
            "",
        ),
        m(
            "bufpool.hit_rate",
            ratio(d(b.pool.hits, a.pool.hits), gets),
            "ratio",
            format!("of {gets} gets"),
        ),
        m(
            "bufpool.evictions_clean",
            d(b.pool.evictions_clean, a.pool.evictions_clean),
            "count",
            "",
        ),
        m(
            "bufpool.evictions_dirty",
            d(b.pool.evictions_dirty, a.pool.evictions_dirty),
            "count",
            "",
        ),
        m(
            "bufpool.prefetched_pages",
            d(b.pool.prefetched_pages, a.pool.prefetched_pages),
            "count",
            "",
        ),
        m(
            "bufpool.checkpoint_writes",
            d(b.pool.checkpoint_writes, a.pool.checkpoint_writes),
            "count",
            "",
        ),
        m(
            "bufpool.latches_per_get",
            ratio(
                d(b.pool.shard_acquisitions, a.pool.shard_acquisitions),
                gets,
            ),
            "ratio",
            format!("shard latch acquisitions per get, of {gets} gets"),
        ),
        m(
            "bufpool.policy_scan_steps",
            d(b.policy.scan_steps, a.policy.scan_steps),
            "count",
            "",
        ),
        m(
            "core.ssd_hits",
            d(b.ssd.ssd_hits, a.ssd.ssd_hits),
            "count",
            ssd_na(""),
        ),
        m(
            "core.ssd_hit_rate",
            ratio(d(b.ssd.ssd_hits, a.ssd.ssd_hits), ssd_lookups),
            "ratio",
            ssd_na(&format!("of {ssd_lookups} SSD lookups (DRAM misses)")),
        ),
        m(
            "core.admissions",
            d(b.ssd.admissions, a.ssd.admissions),
            "count",
            ssd_na(""),
        ),
        m(
            "core.invalidations",
            d(b.ssd.invalidations, a.ssd.invalidations),
            "count",
            ssd_na(""),
        ),
        m(
            "core.throttled_reads",
            d(b.ssd.throttled_reads, a.ssd.throttled_reads),
            "count",
            ssd_na(""),
        ),
        m(
            "core.throttled_admissions",
            d(b.ssd.throttled_admissions, a.ssd.throttled_admissions),
            "count",
            ssd_na(""),
        ),
        m(
            "core.dirty_hits",
            d(b.ssd.dirty_hits, a.ssd.dirty_hits),
            "count",
            ssd_na(""),
        ),
        m(
            "core.cleaner_writes",
            d(b.ssd.cleaner_writes, a.ssd.cleaner_writes),
            "count",
            lc_only(""),
        ),
        m(
            "core.cleaner_steps",
            log.role_count(Role::Cleaner) as f64,
            "count",
            lc_only(""),
        ),
        m(
            "core.cleaner_s",
            log.role_secs(Role::Cleaner),
            "s",
            lc_only("wall time inside cleaner steps"),
        ),
        m(
            "core.tac_invalid_frames",
            a.tac_invalid_frames as f64,
            "count",
            if w == Workload::TpceTac {
                "at the end of the drive"
            } else {
                "N/A: TAC design only (0)"
            },
        ),
        m(
            "core.audit_violations",
            a.ssd.audit_violations as f64,
            "count",
            ssd_na("must be 0"),
        ),
        m(
            "iosim.disk_read_pages",
            d(b.disk.read_pages, a.disk.read_pages),
            "count",
            "",
        ),
        m(
            "iosim.disk_write_pages",
            d(b.disk.write_pages, a.disk.write_pages),
            "count",
            "",
        ),
        m(
            "iosim.ssd_read_pages",
            d(b.ssd_dev.read_pages, a.ssd_dev.read_pages),
            "count",
            ssd_na(""),
        ),
        m(
            "iosim.ssd_write_pages",
            d(b.ssd_dev.write_pages, a.ssd_dev.write_pages),
            "count",
            ssd_na(""),
        ),
        m(
            "iosim.disk_util",
            ratio(
                d(
                    b.disk.read_busy_ns + b.disk.write_busy_ns,
                    a.disk.read_busy_ns + a.disk.write_busy_ns,
                ),
                vns * e.disks as f64,
            ),
            "ratio",
            format!(
                "virtual busy time / (virtual drive time x {} disks)",
                e.disks
            ),
        ),
        m(
            "iosim.ssd_util",
            ratio(
                d(
                    b.ssd_dev.read_busy_ns + b.ssd_dev.write_busy_ns,
                    a.ssd_dev.read_busy_ns + a.ssd_dev.write_busy_ns,
                ),
                vns,
            ),
            "ratio",
            ssd_na("virtual busy time / virtual drive time"),
        ),
        m(
            "iosim.checksum_ns_per_page",
            cks_ns,
            "ns",
            format!("timed fault::checksum over one {} B page", e.page_size),
        ),
        m(
            "iosim.checksum_bytes",
            cks_bytes,
            "B",
            "SSD pages moved x page size + WAL bytes",
        ),
        m(
            "iosim.checksum_share_est",
            ratio(cks_ns / e.page_size as f64 * cks_bytes / 1e9, e.drive_s),
            "ratio",
            "estimate from outside: checksum cost x bytes / drive wall time",
        ),
        m(
            "wal.log_bytes",
            log_bytes,
            "B",
            "bytes made durable in the log over the drive",
        ),
        m(
            "wal.log_flushes",
            d(b.log_dev.write_ops, a.log_dev.write_ops),
            "count",
            "",
        ),
        m(
            "wal.txns_redone",
            rec.txns_redone as f64,
            "count",
            "last restart",
        ),
        m(
            "wal.redo_records",
            rec.records_scanned as f64,
            "count",
            "records scanned, last restart",
        ),
        m(
            "wal.redo_s",
            redo_s,
            "s",
            "median wall time of Database::try_recover (redo plus reopening the caches)",
        ),
        m(
            "wal.redo_us_per_record",
            ratio(redo_s * 1e6, rec.records_scanned as f64),
            "us",
            format!("of {} records", rec.records_scanned),
        ),
    ]
}

/// Drive wall time of the traced episode over the untraced one's, less 1.
pub fn tracing_overhead(untraced: &Episode, traced: &Episode) -> Metric {
    m(
        "trace.drive_overhead",
        traced.drive_s / untraced.drive_s - 1.0,
        "ratio",
        format!(
            "traced drive {:.3} s vs untraced {:.3} s, same seed, one episode each",
            traced.drive_s, untraced.drive_s
        ),
    )
}

/// Counter deltas per virtual hour of an episode. Long drives
/// (TPC-H runs for days of virtual time) merge consecutive hours so the
/// table keeps at most `MAX_ROWS` rows.
pub fn window_table(e: &Episode) -> Vec<String> {
    const MAX_ROWS: usize = 12;
    let group = e.windows.len().div_ceil(MAX_ROWS).max(1);
    let mut out = vec![format!(
        "{:>5} {:>8} {:>7} {:>8} {:>8} {:>9} {:>9} {:>9}",
        "to_vh", "wall_s", "ops", "pool_hit", "ssd_hit", "disk_pg", "ssd_pg", "log_KiB"
    )];
    let mut prev = (&e.before, 0.0, 0u64);
    let last = e.windows.len().saturating_sub(1);
    for (i, win) in e.windows.iter().enumerate() {
        if (i + 1) % group != 0 && i != last {
            continue;
        }
        let (b, a) = (prev.0, &win.snap);
        let gets = (a.pool.hits + a.pool.misses) - (b.pool.hits + b.pool.misses);
        let lookups = (a.ssd.ssd_hits + a.ssd.ssd_misses) - (b.ssd.ssd_hits + b.ssd.ssd_misses);
        out.push(format!(
            "{:>5.1} {:>8.3} {:>7} {:>8.4} {:>8.4} {:>9} {:>9} {:>9.1}",
            win.end as f64 / 3.6e12,
            win.wall_s - prev.1,
            win.ops - prev.2,
            ratio((a.pool.hits - b.pool.hits) as f64, gets as f64),
            ratio((a.ssd.ssd_hits - b.ssd.ssd_hits) as f64, lookups as f64),
            a.disk.total_pages() - b.disk.total_pages(),
            a.ssd_dev.total_pages() - b.ssd_dev.total_pages(),
            (a.flushed_lsn - b.flushed_lsn) as f64 / 1024.0,
        ));
        prev = (&win.snap, win.wall_s, win.ops);
    }
    out
}
