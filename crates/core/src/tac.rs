//! Temperature-Aware Caching (TAC) — the comparison baseline (§2.5).
//!
//! TAC (Canim et al., "SSD Bufferpool Extensions for Database Systems",
//! VLDB 2010) differs from the CW/DW/LC designs in its page flow:
//!
//! 1. On a (memory-pool) miss the SSD is probed; hit → read from SSD.
//! 2. After a page is read from *disk*, it is immediately written to the
//!    SSD if admitted — admission compares the page's extent *temperature*
//!    against the coldest extent resident in the SSD.
//! 3. When a buffer-pool page is updated, the SSD copy is *logically*
//!    invalidated: marked invalid but the frame is not reclaimed.
//! 4. When a dirty page is evicted it is written to disk (write-through);
//!    if an invalid version sits in the SSD it is also rewritten there.
//!
//! Temperature is tracked per extent of 32 consecutive pages: every
//! memory-pool miss adds the time that would be saved by reading the page
//! from SSD instead of disk.
//!
//! Two behaviours the paper highlights are modeled explicitly:
//!
//! * **Write-on-read races** — the on-read SSD write is asynchronous; if a
//!   transaction dirties the page before that write completes, the write is
//!   cancelled and the page never reaches the SSD (and, having no invalid
//!   version there, is not written on eviction either). This is the latch
//!   contention effect of §2.5/§4.2.
//! * **Logical-invalidation waste** — invalid frames keep occupying SSD
//!   space ([`TacCache::invalid_frames`] reproduces the 7.4–10.4 GB waste
//!   numbers of §2.5).

use std::collections::HashMap;

use std::sync::Arc;
use turbopool_iosim::sync::Mutex;

use turbopool_bufpool::{AdmissionKind, AdmissionPolicy, AdmitVerdict, PageIo};
use turbopool_iosim::{Clk, IoError, IoManager, Locality, PageBuf, PageId, Time};

use crate::audit::AuditOp;
use crate::config::{SsdConfig, SsdDesign};
use crate::metrics::SsdMetrics;
use crate::tier::SsdTier;

#[derive(Debug, Clone, Copy)]
struct TacRec {
    pid: PageId,
    /// Logically valid (invalid frames waste space until rewritten).
    valid: bool,
    /// The asynchronous SSD write that installed this copy completes at
    /// this instant; a dirtying before then cancels the write.
    valid_at: Time,
}

/// The TAC buffer table: everything the cache latch protects.
struct TacTable {
    /// `records[frame]` — the SSD buffer table.
    records: Vec<Option<TacRec>>,
    map: HashMap<PageId, usize>,
    free: Vec<usize>,
    /// Extent number → accumulated saved-time temperature (ns).
    temps: HashMap<u64, u64>,
    /// Lazy min-heap of (temperature snapshot, frame) over *valid* frames.
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(u64, usize)>>,
    /// Occupied frames holding logically invalid pages — maintained
    /// incrementally so `invalid_frames` never scans the table.
    invalid: u64,
}

/// The TAC SSD cache, implementing the same [`PageIo`] seam as
/// [`crate::manager::SsdManager`].
pub struct TacCache {
    cfg: SsdConfig,
    /// Quarantine, throttle, hedging, retried I/O, metrics and auditor.
    /// Once quarantined, TAC runs write-through to disk only (its natural
    /// degradation — nothing is ever stranded).
    tier: SsdTier,
    table: Mutex<TacTable>,
    /// Non-default admission policies (`AdmitAll`, `GhostHit`) replace
    /// TAC's extent-temperature comparison; `DesignDefault` keeps the
    /// inline temperature rule (it needs the extent table) and never
    /// consults this object.
    admission: Box<dyn AdmissionPolicy>,
}

impl TacCache {
    pub fn new(cfg: SsdConfig, io: Arc<IoManager>) -> Self {
        assert_eq!(cfg.design, SsdDesign::Tac, "TacCache runs TAC only");
        let frames = cfg.frames as usize;
        let admission = cfg.admission.build(frames);
        TacCache {
            admission,
            tier: SsdTier::new(&cfg, io),
            cfg,
            table: Mutex::new(TacTable {
                records: vec![None; frames],
                map: HashMap::with_capacity(frames),
                free: (0..frames).rev().collect(),
                temps: HashMap::new(),
                heap: std::collections::BinaryHeap::new(),
                invalid: 0,
            }),
        }
    }

    /// True once the SSD is quarantined and TAC runs disk-only.
    pub fn is_quarantined(&self) -> bool {
        self.tier.is_quarantined()
    }

    /// Counters for the evaluation harnesses.
    pub fn metrics(&self) -> &SsdMetrics {
        &self.tier.metrics
    }

    /// Charge `e` to the SSD error budget; if that trips quarantine, drop
    /// the whole cache. Must not be called while `table` is held. TAC is
    /// write-through, so quarantine loses no data — only hits. The table
    /// is swept in frame order so the audit stream stays deterministic.
    fn on_ssd_error(&self, e: &IoError) {
        if !self.tier.note_error(e) {
            return;
        }
        let live: Vec<PageId> = {
            let mut table = self.table.lock();
            table.map.clear();
            table.free.clear();
            table.heap.clear();
            table.temps.clear();
            table.invalid = 0;
            table
                .records
                .iter_mut()
                .filter_map(Option::take)
                .map(|r| r.pid)
                .collect()
        };
        for pid in live {
            self.tier.audit(pid, AuditOp::Quarantine);
            SsdMetrics::bump(&self.tier.metrics.lost_frames);
        }
    }

    /// Drop `pid`'s SSD copy after a failed frame read. Write-through: the
    /// copy was never the only current version, so nothing is lost.
    fn drop_corrupt(&self, pid: PageId) {
        let mut table = self.table.lock();
        if let Some(frame) = table.map.remove(&pid) {
            // lint: allow(panic) — map/records consistency: a mapped frame always holds a record.
            let rec = table.records[frame].take().unwrap();
            if !rec.valid {
                table.invalid -= 1;
            }
            table.free.push(frame);
            drop(table);
            self.tier.audit(pid, AuditOp::CorruptInvalidate);
            SsdMetrics::bump(&self.tier.metrics.lost_frames);
        }
    }

    pub fn config(&self) -> &SsdConfig {
        &self.cfg
    }

    /// Invariant violations caught so far (see
    /// [`InvariantAuditor`](crate::audit::InvariantAuditor)).
    pub fn audit_violations(&self) -> u64 {
        self.tier.audit_violations()
    }

    /// Occupied frames (valid + invalid).
    pub fn occupancy(&self) -> u64 {
        self.table.lock().map.len() as u64
    }

    /// Frames wasted on logically invalid pages (§2.5) — O(1), from the
    /// incrementally maintained counter.
    pub fn invalid_frames(&self) -> u64 {
        self.table.lock().invalid
    }

    /// SSD frame holding a *valid* copy of `pid`, if any (introspection).
    pub fn frame_of_valid(&self, pid: PageId) -> Option<u64> {
        let table = self.table.lock();
        table.map.get(&pid).and_then(|&l| {
            // lint: allow(panic) — map/records consistency: a mapped frame always holds a record.
            let rec = table.records[l].unwrap();
            rec.valid.then_some(l as u64)
        })
    }

    /// True if `pid` has a valid SSD copy.
    pub fn contains_valid(&self, pid: PageId) -> bool {
        let table = self.table.lock();
        table
            .map
            .get(&pid)
            // lint: allow(panic) — map/records consistency: a mapped frame always holds a record.
            .map(|&l| table.records[l].unwrap().valid)
            .unwrap_or(false)
    }

    fn extent(&self, pid: PageId) -> u64 {
        pid.0 / self.cfg.tac_extent_pages
    }

    /// Time saved by serving `class`-type read from SSD instead of disk.
    fn saved_ns(&self, class: Locality) -> u64 {
        let setup = self.tier.io.setup();
        let disk = match class {
            Locality::Random => setup.disk_profile.rand_read_ns,
            Locality::Sequential => setup.disk_profile.seq_read_ns,
        };
        disk.saturating_sub(setup.ssd_profile.rand_read_ns)
    }

    /// Record a memory-pool miss of `pid`: heat its extent.
    fn heat(&self, table: &mut TacTable, pid: PageId, class: Locality) {
        let e = self.extent(pid);
        let saved = self.saved_ns(class);
        *table.temps.entry(e).or_insert(0) += saved;
    }

    /// Find the coldest valid SSD frame: pop the lazy heap, reinserting
    /// entries whose temperature grew since they were pushed (temperatures
    /// only increase, so this terminates).
    fn pop_coldest_valid(&self, table: &mut TacTable) -> Option<(u64, usize)> {
        while let Some(std::cmp::Reverse((snap, frame))) = table.heap.pop() {
            let Some(rec) = table.records[frame] else {
                continue;
            };
            if !rec.valid {
                continue;
            }
            let cur = *table.temps.get(&self.extent(rec.pid)).unwrap_or(&0);
            if cur != snap {
                table.heap.push(std::cmp::Reverse((cur, frame)));
                continue;
            }
            return Some((snap, frame));
        }
        None
    }

    /// Admit `pid` (already read from disk) into the SSD at `now`,
    /// following TAC's admission/replacement rule.
    /// Free a frame for a qualified admission: take a free frame if one
    /// exists, else replace the coldest valid resident page. Used by the
    /// non-default admission kinds, which decide *whether* to admit
    /// without consulting temperature but still evict coldest-first.
    fn place_replacing_coldest(&self, table: &mut TacTable) -> Option<usize> {
        if let Some(f) = table.free.pop() {
            return Some(f);
        }
        let (_cold, cold_frame) = self.pop_coldest_valid(table)?;
        // lint: allow(panic) — cold_frame came off the temperature heap, which only holds mapped frames.
        let old = table.records[cold_frame].take().unwrap();
        table.map.remove(&old.pid);
        self.tier.audit(old.pid, AuditOp::Replace);
        SsdMetrics::bump(&self.tier.metrics.replacements);
        self.admission.note_evicted(old.pid);
        Some(cold_frame)
    }

    fn admit_on_read(&self, now: Time, pid: PageId, data: &[u8], class: Locality) {
        if self.is_quarantined() {
            return;
        }
        if self.tier.throttled(now) {
            SsdMetrics::bump(&self.tier.metrics.throttled_admissions);
            return;
        }
        if self.tier.hedge_or_probe() {
            SsdMetrics::bump(&self.tier.metrics.hedged_admissions);
            return;
        }
        let mut table = self.table.lock();
        if table.map.contains_key(&pid) {
            return;
        }
        let filling = table.map.len() < self.cfg.fill_target() as usize;
        let frame = match self.cfg.admission {
            AdmissionKind::DesignDefault => {
                if filling {
                    // Aggressive filling: admit everything while below τ.
                    table.free.pop()
                } else {
                    // Qualified admission: the page's extent must be hotter
                    // than the coldest extent resident in the SSD.
                    let my_temp = *table.temps.get(&self.extent(pid)).unwrap_or(&0);
                    match self.pop_coldest_valid(&mut table) {
                        Some((cold, cold_frame)) if my_temp > cold => {
                            if let Some(f) = table.free.pop() {
                                // A free frame exists; keep the cold page.
                                table.heap.push(std::cmp::Reverse((cold, cold_frame)));
                                Some(f)
                            } else {
                                // lint: allow(panic) — cold_frame came off the temperature heap, which only holds mapped frames.
                                let old = table.records[cold_frame].take().unwrap();
                                table.map.remove(&old.pid);
                                self.tier.audit(old.pid, AuditOp::Replace);
                                SsdMetrics::bump(&self.tier.metrics.replacements);
                                Some(cold_frame)
                            }
                        }
                        Some((cold, cold_frame)) => {
                            // Not hot enough; put the candidate back.
                            table.heap.push(std::cmp::Reverse((cold, cold_frame)));
                            SsdMetrics::bump(&self.tier.metrics.policy_rejections);
                            None
                        }
                        // No valid page to compare against: admit if space
                        // exists.
                        None => table.free.pop(),
                    }
                }
            }
            AdmissionKind::AdmitAll | AdmissionKind::GhostHit => {
                let verdict = self.admission.admit(pid, class, filling);
                match verdict {
                    AdmitVerdict::Admit => self.place_replacing_coldest(&mut table),
                    AdmitVerdict::AdmitGhost => {
                        SsdMetrics::bump(&self.tier.metrics.admission_ghost_hits);
                        self.place_replacing_coldest(&mut table)
                    }
                    AdmitVerdict::Reject => {
                        SsdMetrics::bump(&self.tier.metrics.policy_rejections);
                        None
                    }
                }
            }
        };
        let Some(frame) = frame else { return };
        // Reserve the frame and submit the write *outside* the latch: the
        // frame is in neither the free list nor the map, so no other path
        // can claim it while the latch is released. Install only on a
        // successful submission — a gate failure (dead or transient) must
        // not leave a record pointing at unwritten bytes.
        drop(table);
        let done = match self.tier.io.write_ssd_async(now, frame as u64, data, pid) {
            Ok(t) => t,
            Err(e) => {
                self.table.lock().free.push(frame);
                self.on_ssd_error(&e);
                return;
            }
        };
        let mut table = self.table.lock();
        if table.map.contains_key(&pid) {
            // Lost a race: another admission installed `pid` while the
            // latch was released. The submitted write is a harmless booking
            // against a frame that goes straight back to the free list.
            table.free.push(frame);
            return;
        }
        table.records[frame] = Some(TacRec {
            pid,
            valid: true,
            valid_at: done,
        });
        table.map.insert(pid, frame);
        let temp = *table.temps.get(&self.extent(pid)).unwrap_or(&0);
        table.heap.push(std::cmp::Reverse((temp, frame)));
        self.tier.audit(pid, AuditOp::Admit { dirty: false });
        SsdMetrics::bump(&self.tier.metrics.admissions);
        if filling {
            SsdMetrics::bump(&self.tier.metrics.fill_admissions);
        }
    }

    /// Logical invalidation (§2.5): `rec`'s frame stays occupied, but its
    /// version must never be read again.
    fn invalidate(&self, table: &mut TacTable, frame: usize, rec: TacRec) {
        table.records[frame] = Some(TacRec {
            valid: false,
            ..rec
        });
        table.invalid += 1;
        self.tier.audit(rec.pid, AuditOp::LogicalInvalidate);
        SsdMetrics::bump(&self.tier.metrics.invalidations);
    }

    /// The disk copy of `pid` just advanced (dirty eviction or checkpoint
    /// write), so ANY existing SSD version of it is now stale and must be
    /// refreshed (flow iv) or invalidated. The invalid case is the paper's
    /// flow; a *valid* record can also be stale here: a run-read admitted
    /// the disk version while this newer copy sat dirty in the memory pool
    /// (scan read-ahead does exactly that), and keeping it would serve
    /// lost updates. Returns true if an invalid frame was revalidated.
    fn refresh_stale(&self, now: Time, pid: PageId, data: &[u8]) -> bool {
        if self.is_quarantined() {
            return false;
        }
        let mut pending: Option<IoError> = None;
        let mut revalidated = false;
        {
            let mut table = self.table.lock();
            if let Some(&frame) = table.map.get(&pid) {
                // lint: allow(panic) — map/records consistency: a mapped frame always holds a record.
                let rec = table.records[frame].unwrap();
                let throttled = self.tier.throttled(now);
                let hedging = !throttled && self.tier.hedge_or_probe();
                if hedging {
                    // No refresh traffic to a browned-out SSD.
                    SsdMetrics::bump(&self.tier.metrics.hedged_admissions);
                }
                let refreshed = if throttled || hedging {
                    false
                } else {
                    // lint: allow(lock-across-io) — the refresh-or-invalidate
                    // decision must be atomic with the record's state, and
                    // write_ssd_async is an O(1) non-blocking booking; no
                    // other latch is ever taken under the table latch.
                    match self.tier.io.write_ssd_async(now, frame as u64, data, pid) {
                        Ok(done) => {
                            table.records[frame] = Some(TacRec {
                                pid,
                                valid: true,
                                valid_at: done,
                            });
                            if !rec.valid {
                                table.invalid -= 1;
                                revalidated = true;
                            }
                            let temp = *table.temps.get(&self.extent(pid)).unwrap_or(&0);
                            table.heap.push(std::cmp::Reverse((temp, frame)));
                            self.tier.audit(pid, AuditOp::Refresh);
                            true
                        }
                        Err(e) => {
                            pending = Some(e);
                            false
                        }
                    }
                };
                if !refreshed && rec.valid {
                    // Throttled, browned out, or the write failed: the
                    // stale version must never be read again.
                    self.invalidate(&mut table, frame, rec);
                }
            }
        }
        if let Some(e) = pending {
            self.on_ssd_error(&e);
        }
        revalidated
    }

    /// Extent temperature accessor for unit tests.
    #[cfg(test)]
    fn extent_temp(&self, extent: u64) -> u64 {
        *self.table.lock().temps.get(&extent).unwrap_or(&0)
    }
}

impl PageIo for TacCache {
    fn read_page(
        &self,
        clk: &mut Clk,
        pid: PageId,
        class: Locality,
        buf: &mut [u8],
    ) -> Result<(), IoError> {
        if self.is_quarantined() {
            SsdMetrics::bump(&self.tier.metrics.quarantined_reads);
            SsdMetrics::bump(&self.tier.metrics.ssd_misses);
            return self.tier.disk_read(clk, pid, class, buf);
        }
        let hit: Option<u64> = {
            let mut table = self.table.lock();
            // Every memory-pool miss heats the extent, wherever it is
            // served from.
            self.heat(&mut table, pid, class);
            match table.map.get(&pid) {
                Some(&frame) => {
                    // lint: allow(panic) — map/records consistency: a mapped frame always holds a record.
                    let rec = table.records[frame].unwrap();
                    // The copy must be valid AND its installing write
                    // complete; a usable hit still diverts to disk under
                    // throttle (§3.3.2) or a fail-slow flag (hedging).
                    if rec.valid && clk.now >= rec.valid_at {
                        if self.tier.throttled(clk.now) {
                            SsdMetrics::bump(&self.tier.metrics.throttled_reads);
                            None
                        } else if self.tier.hedge_or_probe() {
                            SsdMetrics::bump(&self.tier.metrics.hedged_reads);
                            None
                        } else {
                            Some(frame as u64)
                        }
                    } else {
                        None
                    }
                }
                None => None,
            }
        };
        if let Some(frame) = hit {
            match self.tier.ssd_read(clk, frame, buf) {
                Ok(()) => {
                    SsdMetrics::bump(&self.tier.metrics.ssd_hits);
                    return Ok(());
                }
                Err(e) => {
                    // Write-through: the disk copy is current, so a bad
                    // frame just costs the hit — drop it and fall through.
                    self.on_ssd_error(&e);
                    self.drop_corrupt(pid);
                }
            }
        }
        SsdMetrics::bump(&self.tier.metrics.ssd_misses);
        self.tier.disk_read(clk, pid, class, buf)?;
        // TAC writes the page to the SSD immediately after the disk read
        // (§2.5 page flow, step ii).
        self.admit_on_read(clk.now, pid, buf, class);
        Ok(())
    }

    fn read_run(&self, clk: &mut Clk, first: PageId, n: u64) -> Result<Vec<PageBuf>, IoError> {
        // Multi-page reads use the same leading/trailing trim as the other
        // designs (§3.3 optimizations were applied to TAC too). Run pages
        // are sequential, hence cold — TAC does not admit them on read.
        assert!(n > 0);
        if self.is_quarantined() {
            SsdMetrics::bump(&self.tier.metrics.quarantined_reads);
        }
        let ps = self.tier.io.page_size();
        let mut out: Vec<PageBuf> = (0..n).map(|_| PageBuf::zeroed(ps)).collect();
        let now0 = clk.now;
        let mut done = now0;
        let hedging = self.tier.hedge_or_probe();
        let throttled = self.tier.throttled(now0) || hedging;
        // Per-page status probe, under one latch for the whole run.
        let status: Vec<Option<u64>> = {
            let table = self.table.lock();
            (0..n)
                .map(|i| {
                    let pid = first.offset(i);
                    table.map.get(&pid).and_then(|&l| {
                        // lint: allow(panic) — map/records consistency: a mapped frame always holds a record.
                        let rec = table.records[l].unwrap();
                        let usable = rec.valid && now0 >= rec.valid_at;
                        if usable && hedging {
                            SsdMetrics::bump(&self.tier.metrics.hedged_reads);
                        }
                        (usable && !throttled).then_some(l as u64)
                    })
                })
                .collect()
        };
        let mut lead = 0usize;
        while lead < n as usize && status[lead].is_some() {
            lead += 1;
        }
        let mut trail = 0usize;
        while trail < n as usize - lead && status[n as usize - 1 - trail].is_some() {
            trail += 1;
        }
        let mid = lead..(n as usize - trail);
        if !mid.is_empty() {
            let mut tmp = Clk::at(now0);
            let pages = self.tier.disk_read_run(
                &mut tmp,
                first.offset(mid.start as u64),
                mid.len() as u64,
                Locality::Sequential,
            )?;
            done = done.max(tmp.now);
            for (k, page) in pages.into_iter().enumerate() {
                let pid = first.offset((mid.start + k) as u64);
                // TAC's write-on-read applies to every page it reads;
                // during aggressive filling even sequential pages are
                // admitted ("before the SSD is full, all pages are
                // admitted"). After filling, cold extents are rejected by
                // the temperature rule inside.
                self.admit_on_read(tmp.now, pid, page.as_slice(), Locality::Sequential);
                out[mid.start + k] = page;
            }
        }
        for i in (0..lead).chain(n as usize - trail..n as usize) {
            // lint: allow(panic) — lead/trail indices were counted as Some in the pass above.
            let frame = status[i].unwrap();
            let pid = first.offset(i as u64);
            let mut tmp = Clk::at(now0);
            match self.tier.ssd_read(&mut tmp, frame, out[i].as_mut_slice()) {
                Ok(()) => {
                    done = done.max(tmp.now);
                    SsdMetrics::bump(&self.tier.metrics.ssd_hits);
                }
                Err(e) => {
                    // Same fallback as read_page: drop the bad frame and
                    // fetch the current disk copy instead.
                    self.on_ssd_error(&e);
                    self.drop_corrupt(pid);
                    let mut tmp = Clk::at(now0);
                    self.tier.disk_read(
                        &mut tmp,
                        pid,
                        Locality::Sequential,
                        out[i].as_mut_slice(),
                    )?;
                    done = done.max(tmp.now);
                }
            }
        }
        clk.wait_until(done);
        Ok(out)
    }

    fn evict_page(&self, now: Time, pid: PageId, data: &[u8], dirty: bool, _class: Locality) {
        if !dirty {
            // Clean pages were already written on read; nothing happens.
            return;
        }
        // Write-through to disk, as in a traditional DBMS. This write must
        // not drop data, so it rides the retry-forever policy.
        self.tier.disk_write(now, pid, data);
        if self.refresh_stale(now, pid, data) {
            SsdMetrics::bump(&self.tier.metrics.admissions);
        }
    }

    fn note_dirtied(&self, now: Time, pid: PageId) {
        let mut table = self.table.lock();
        if let Some(&frame) = table.map.get(&pid) {
            // lint: allow(panic) — map/records consistency: a mapped frame always holds a record.
            let rec = table.records[frame].unwrap();
            if rec.valid {
                if now < rec.valid_at {
                    // The on-read SSD write had not completed: it is
                    // cancelled outright; the page never reaches the SSD
                    // (the §4.2 race that hurts TAC on update-heavy loads).
                    table.records[frame] = None;
                    table.map.remove(&pid);
                    table.free.push(frame);
                    self.tier.audit(pid, AuditOp::Cancel);
                    SsdMetrics::bump(&self.tier.metrics.tac_cancelled_writes);
                } else {
                    self.invalidate(&mut table, frame, rec);
                }
            }
        }
    }

    fn checkpoint_write(&self, now: Time, pid: PageId, data: &[u8], _class: Locality) -> Time {
        let done = self.tier.disk_write(now, pid, data);
        self.refresh_stale(now, pid, data);
        done
    }

    fn has_copy(&self, pid: PageId) -> bool {
        self.table.lock().map.contains_key(&pid)
    }

    fn checkpoint_flush(&self, _clk: &mut Clk) {
        // Write-through: the SSD never holds the only current copy.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbopool_iosim::DeviceSetup;

    const PS: usize = 32;

    fn mk(frames: u64) -> (Arc<IoManager>, TacCache) {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 4096, frames)));
        let mut cfg = SsdConfig::new(SsdDesign::Tac, frames);
        cfg.tac_extent_pages = 4;
        cfg.tau = 1.0; // fill every frame before qualified admission starts
        (Arc::clone(&io), TacCache::new(cfg, io))
    }

    fn read(t: &TacCache, clk: &mut Clk, pid: u64) -> u8 {
        let mut buf = vec![0u8; PS];
        t.read_page(clk, PageId(pid), Locality::Random, &mut buf)
            .unwrap();
        buf[0]
    }

    #[test]
    fn write_on_read_then_hit() {
        let (io, t) = mk(8);
        io.write_disk_async(0, PageId(3), &[7u8; PS], Locality::Random)
            .unwrap();
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        assert!(t.contains_valid(PageId(3)), "admitted immediately on read");
        // Let the in-flight SSD write complete before re-reading.
        clk.elapse(turbopool_iosim::SECOND);
        let disk_reads = io.disk_stats().read_ops;
        assert_eq!(read(&t, &mut clk, 3), 7);
        assert_eq!(io.disk_stats().read_ops, disk_reads, "second read hit SSD");
        assert_eq!(t.metrics().snapshot().ssd_hits, 1);
    }

    #[test]
    fn dirtying_before_write_completes_cancels_admission() {
        let (_io, t) = mk(8);
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        // The SSD write takes ~80 us; dirty the page "immediately".
        t.note_dirtied(clk.now, PageId(3));
        assert!(!t.contains_valid(PageId(3)));
        assert_eq!(t.occupancy(), 0, "cancelled write frees the frame");
        assert_eq!(t.metrics().snapshot().tac_cancelled_writes, 1);
        // Dirty eviction now finds NO invalid version: page skips the SSD.
        t.evict_page(clk.now + 1, PageId(3), &[9u8; PS], true, Locality::Random);
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn late_dirtying_invalidates_logically_and_wastes_space() {
        let (_io, t) = mk(8);
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        clk.elapse(turbopool_iosim::SECOND); // write long complete
        t.note_dirtied(clk.now, PageId(3));
        assert!(!t.contains_valid(PageId(3)));
        assert_eq!(t.occupancy(), 1, "frame still occupied");
        assert_eq!(t.invalid_frames(), 1);
        // Dirty eviction refreshes the invalid version.
        t.evict_page(clk.now, PageId(3), &[9u8; PS], true, Locality::Random);
        assert!(t.contains_valid(PageId(3)));
        assert_eq!(t.invalid_frames(), 0);
    }

    #[test]
    fn temperature_guides_replacement() {
        let (_io, t) = mk(2);
        let mut clk = Clk::new();
        // Extent 0 (pids 0..4) becomes hot: many misses.
        read(&t, &mut clk, 0);
        read(&t, &mut clk, 1); // fills both frames (extent 0)
                               // pid 8 (extent 2) read repeatedly heats extent 2 hugely.
        clk.elapse(turbopool_iosim::SECOND);
        for _ in 0..10 {
            read(&t, &mut clk, 8);
            t.note_dirtied(clk.now, PageId(8)); // keep it out of the SSD...
            clk.elapse(turbopool_iosim::SECOND);
        }
        // By now extent 2 is far hotter than extent 0; a fresh read of pid
        // 9 (extent 2) replaces a cold extent-0 page.
        read(&t, &mut clk, 9);
        assert!(t.contains_valid(PageId(9)));
        assert_eq!(t.metrics().snapshot().replacements, 1);
    }

    #[test]
    fn sequential_extents_stay_cold() {
        let (_io, t) = mk(4);
        // Sequential reads save (almost) nothing, so they add no heat.
        {
            let mut clk = Clk::new();
            let mut buf = vec![0u8; PS];
            t.read_page(&mut clk, PageId(100), Locality::Sequential, &mut buf)
                .unwrap();
        }
        // Disk seq read (38 us) is FASTER than SSD random read (82 us):
        // saved time clamps to zero.
        assert_eq!(t.extent_temp(100 / 4), 0);
        let mut clk = Clk::new();
        let mut buf = vec![0u8; PS];
        t.read_page(&mut clk, PageId(200), Locality::Random, &mut buf)
            .unwrap();
        let temp = t.extent_temp(200 / 4);
        assert!(temp > 800_000, "random miss heats extent: {temp}");
    }

    #[test]
    fn run_trim_uses_valid_ssd_pages() {
        let (io, t) = mk(8);
        let mut clk = Clk::new();
        // Put pages 0 and 1 into the SSD via reads, long ago.
        read(&t, &mut clk, 0);
        read(&t, &mut clk, 1);
        clk.elapse(turbopool_iosim::SECOND);
        io.reset_stats();
        let pages = t.read_run(&mut clk, PageId(0), 6).unwrap();
        assert_eq!(pages.len(), 6);
        assert_eq!(io.ssd_stats().read_ops, 2, "leading pages trimmed to SSD");
        assert_eq!(io.disk_stats().read_pages, 4);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    use turbopool_iosim::fault::{FaultConfig, FaultPlan};

    #[test]
    fn tac_death_quarantines_without_data_loss() {
        let (io, t) = mk(8);
        io.write_disk_async(0, PageId(3), &[7u8; PS], Locality::Random)
            .unwrap();
        let mut clk = Clk::new();
        read(&t, &mut clk, 3);
        clk.elapse(turbopool_iosim::SECOND);
        let plan = Arc::new(FaultPlan::new(FaultConfig::quiet(11)));
        io.set_ssd_fault(Some(Arc::clone(&plan)));
        plan.kill(clk.now);
        // Write-through: the disk copy is current, so the dead SSD only
        // costs the hit.
        assert_eq!(read(&t, &mut clk, 3), 7);
        assert!(t.is_quarantined());
        assert_eq!(t.occupancy(), 0);
        let s = t.metrics().snapshot();
        assert_eq!(s.ssd_quarantined, 1);
        assert_eq!(s.lost_frames, 1);
        assert_eq!(s.stranded_dirty, 0, "TAC never strands: write-through");
        // Dirty evictions still reach the disk after quarantine.
        t.evict_page(clk.now, PageId(3), &[9u8; PS], true, Locality::Random);
        clk.elapse(turbopool_iosim::SECOND);
        assert_eq!(read(&t, &mut clk, 3), 9);
        assert!(t.metrics().snapshot().quarantined_reads >= 1);
    }

    #[test]
    fn tac_torn_ssd_write_is_caught_by_checksum() {
        let (io, t) = mk(8);
        io.write_disk_async(0, PageId(5), &[3u8; PS], Locality::Random)
            .unwrap();
        // Every SSD write tears from here on (prefix-only persistence).
        let mut cfg = FaultConfig::quiet(12);
        cfg.torn_write_prob = 1.0;
        io.set_ssd_fault(Some(Arc::new(FaultPlan::new(cfg))));
        let mut clk = Clk::new();
        // The on-read admission write is torn...
        assert_eq!(read(&t, &mut clk, 5), 3);
        assert!(t.contains_valid(PageId(5)));
        clk.elapse(turbopool_iosim::SECOND);
        // ...so the next read fails verification and falls back to disk.
        assert_eq!(read(&t, &mut clk, 5), 3);
        let s = t.metrics().snapshot();
        assert_eq!(s.checksum_misses, 1);
        assert!(!t.is_quarantined());
    }
}
