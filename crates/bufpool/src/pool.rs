//! The buffer pool proper: frames, hash table, pluggable replacement, guards.
//!
//! One latch (`table`) guards the page table, frame metadata, free list,
//! replacement policy, classifier, counters and dirty list. Page bytes sit
//! behind per-frame latches (`data`), so device I/O never runs under the
//! pool latch.

use std::collections::HashMap;
use std::sync::Arc;

use turbopool_iosim::sync::{Mutex, MutexGuard, RwLock};
use turbopool_iosim::{Clk, IoError, Locality, PageBuf, PageBufPool, PageId, Time};

use crate::policy::{PolicyStats, ReplacementKind, ReplacementPolicy};
use crate::readahead::{Classifier, ClassifierKind, ClassifierStats};
use crate::traits::PageIo;

/// Buffer pool sizing and behaviour knobs.
#[derive(Clone, Debug)]
pub struct BufferPoolConfig {
    /// Number of page frames (the paper dedicates 20 GB of DRAM).
    pub frames: usize,
    /// Page size in bytes.
    pub page_size: usize,
    /// Total pages in the database (bounds fill expansion and read-ahead).
    pub db_pages: u64,
    /// Until the pool first fills, expand every single-page miss into a run
    /// of this many pages — the host-DBMS behaviour the paper observes in
    /// §4.3.2 ("expands every single-page read request to an 8 page request
    /// until the buffer pool is filled"). `<= 1` disables.
    pub fill_expansion: u64,
    /// How page accesses are classified random/sequential (§2.2).
    pub classifier: ClassifierKind,
    /// Which replacement policy picks eviction victims (LRU-2 is the
    /// paper's choice and the regression-gated default).
    pub replacement: ReplacementKind,
}

impl BufferPoolConfig {
    pub fn new(frames: usize, page_size: usize, db_pages: u64) -> Self {
        BufferPoolConfig {
            frames,
            page_size,
            db_pages,
            fill_expansion: 8,
            classifier: ClassifierKind::ReadAhead,
            replacement: ReplacementKind::Lru2,
        }
    }
}

turbopool_iosim::counters! {
    /// Buffer pool counters.
    pub struct PoolStats {
        hits,
        misses,
        evictions_clean,
        evictions_dirty,
        prefetched_pages,
        expanded_fill_pages,
        checkpoint_writes,
        /// Acquisitions of the one pool latch, bumped under that latch.
        /// Deterministic in driver runs — a pure function of the operation
        /// sequence — so it participates safely in replay equality checks.
        shard_acquisitions,
    }
}

impl PoolStats {
    /// Fraction of `get` calls served from memory.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct FrameMeta {
    pid: Option<PageId>,
    dirty: bool,
    pin: u32,
    class: Locality,
}

impl FrameMeta {
    fn empty() -> Self {
        FrameMeta {
            pid: None,
            dirty: false,
            pin: 0,
            class: Locality::Random,
        }
    }
}

/// An eviction decided under the pool latch whose write-behind I/O is
/// still owed. The slot is privately owned by the holder until new data
/// is installed, so the victim's bytes survive in the frame meanwhile.
#[derive(Clone, Copy, Debug)]
struct PendingEvict {
    slot: usize,
    victim: PageId,
    dirty: bool,
    class: Locality,
}

/// Sentinel for the intrusive dirty-list links.
const NIL: usize = usize::MAX;

/// Everything the pool latch protects.
struct PageTable {
    map: HashMap<PageId, usize>,
    meta: Vec<FrameMeta>,
    free: Vec<usize>,
    /// Victim selection + access bookkeeping, behind the policy trait.
    /// The default [`ReplacementKind::Lru2`] reproduces the pre-trait
    /// hardwired LRU-2 bit-for-bit (see `tests/policy_default_regression`).
    policy: Box<dyn ReplacementPolicy>,
    classifier: Classifier,
    filled_once: bool,
    stats: PoolStats,
    /// Intrusive doubly-linked list of dirty frames, so checkpoints and
    /// `dirty_count` never scan the whole frame table.
    /// Invariant: `meta[s].dirty` ⟺ `s` is linked ⟺ counted in `ndirty`.
    dprev: Vec<usize>,
    dnext: Vec<usize>,
    dhead: usize,
    dtail: usize,
    ndirty: usize,
}

impl PageTable {
    fn new(cfg: &BufferPoolConfig) -> Self {
        let frames = cfg.frames;
        PageTable {
            map: HashMap::with_capacity(frames),
            meta: vec![FrameMeta::empty(); frames],
            free: (0..frames).rev().collect(),
            policy: cfg.replacement.build(frames),
            classifier: Classifier::new(cfg.classifier),
            filled_once: false,
            stats: PoolStats::default(),
            dprev: vec![NIL; frames],
            dnext: vec![NIL; frames],
            dhead: NIL,
            dtail: NIL,
            ndirty: 0,
        }
    }

    /// Append slot `s` to the dirty list (must not be linked).
    fn link_dirty(&mut self, s: usize) {
        debug_assert!(self.dprev[s] == NIL && self.dnext[s] == NIL && self.dhead != s);
        self.dprev[s] = self.dtail;
        self.dnext[s] = NIL;
        if self.dtail == NIL {
            self.dhead = s;
        } else {
            self.dnext[self.dtail] = s;
        }
        self.dtail = s;
        self.ndirty += 1;
    }

    /// Unlink slot `s` from the dirty list (must be linked).
    fn unlink_dirty(&mut self, s: usize) {
        let (p, n) = (self.dprev[s], self.dnext[s]);
        if p == NIL {
            self.dhead = n;
        } else {
            self.dnext[p] = n;
        }
        if n == NIL {
            self.dtail = p;
        } else {
            self.dprev[n] = p;
        }
        self.dprev[s] = NIL;
        self.dnext[s] = NIL;
        self.ndirty -= 1;
    }

    /// Obtain a free slot, selecting and detaching the policy's victim if
    /// necessary — pure bookkeeping, no I/O, so it runs entirely under
    /// the pool latch. When a page is evicted the caller receives a
    /// [`PendingEvict`] and must hand the frame's bytes to the storage
    /// layer (after releasing the pool latch) *before* overwriting the
    /// frame, since the slot still holds the victim's data.
    fn vacate_slot(&mut self) -> (usize, Option<PendingEvict>) {
        if let Some(slot) = self.free.pop() {
            return (slot, None);
        }
        self.filled_once = true;
        // Split borrow: the policy mutates its own state while probing
        // frame metadata through the callback.
        let (policy, meta) = (&mut self.policy, &self.meta);
        let slot = policy
            .select_victim(&mut |s| meta[s].pid.is_some() && meta[s].pin == 0)
            // lint: allow(panic) — an unpinnable pool is a caller bug; the paper's pool sizes guarantee headroom.
            .expect("buffer pool exhausted: every frame is pinned");
        let m = self.meta[slot];
        // lint: allow(panic) — select_victim only returns slots the evictable callback approved.
        let victim = m.pid.expect("victim has a page");
        self.map.remove(&victim);
        self.policy.on_evict(slot, victim);
        if m.dirty {
            self.stats.evictions_dirty += 1;
            self.unlink_dirty(slot);
        } else {
            self.stats.evictions_clean += 1;
        }
        self.meta[slot] = FrameMeta::empty();
        (
            slot,
            Some(PendingEvict {
                slot,
                victim,
                dirty: m.dirty,
                class: m.class,
            }),
        )
    }
}

/// The main-memory buffer pool.
///
/// Thread-safe for the discrete-event usage pattern of this workspace (one
/// logical client active at a time per domain, many logical clients
/// interleaved). Every simulation path gives each share-nothing domain its
/// own pool, so one latch serves them all.
pub struct BufferPool {
    cfg: BufferPoolConfig,
    layer: Arc<dyn PageIo>,
    table: Mutex<PageTable>,
    /// Recycled page-sized staging buffers for checkpoint copy-out and
    /// prefetch victim snapshots (zero-allocation steady state).
    bufs: PageBufPool,
    data: Vec<RwLock<PageBuf>>,
}

impl BufferPool {
    pub fn new(cfg: BufferPoolConfig, layer: Arc<dyn PageIo>) -> Self {
        assert!(cfg.frames > 0, "pool needs at least one frame");
        let mut data = Vec::with_capacity(cfg.frames);
        data.resize_with(cfg.frames, || RwLock::new(PageBuf::zeroed(cfg.page_size)));
        BufferPool {
            table: Mutex::new(PageTable::new(&cfg)),
            bufs: PageBufPool::new(cfg.page_size, 8),
            data,
            cfg,
            layer,
        }
    }

    pub fn config(&self) -> &BufferPoolConfig {
        &self.cfg
    }

    /// Acquire the pool latch, counting the acquisition under it.
    fn latch(&self) -> MutexGuard<'_, PageTable> {
        let mut t = self.table.lock();
        t.stats.shard_acquisitions += 1;
        t
    }

    /// Pin page `pid`, reading it from below on a miss. `declared` is the
    /// access method's ground-truth locality (index lookup = random, scan =
    /// sequential); the pool's classifier decides the *assigned* class that
    /// drives SSD admission.
    ///
    /// `Err` means the disk tier failed even after the storage layer's
    /// retries; the installation is backed out and the pool is left exactly
    /// as if the `get` had never happened.
    pub fn get(
        &self,
        clk: &mut Clk,
        pid: PageId,
        declared: Locality,
    ) -> Result<PageGuard<'_>, IoError> {
        debug_assert!(pid.0 < self.cfg.db_pages, "page {pid} beyond database");
        let mut t = self.latch();
        if let Some(&slot) = t.map.get(&pid) {
            t.meta[slot].pin += 1;
            t.policy.on_access(slot);
            t.stats.hits += 1;
            return Ok(PageGuard {
                pool: self,
                slot,
                pid,
            });
        }
        t.stats.misses += 1;
        let assigned = t.classifier.classify_miss(pid, declared);

        // Pool-fill expansion: while the pool has never been full, a miss
        // fetches a run instead of one page.
        let expand = if !t.filled_once && self.cfg.fill_expansion > 1 {
            let run = self
                .cfg
                .fill_expansion
                .min(self.cfg.db_pages - pid.0)
                .min(t.free.len() as u64 + 1);
            run.max(1)
        } else {
            1
        };

        let (slot, evicted) = t.vacate_slot();
        t.meta[slot] = FrameMeta {
            pid: Some(pid),
            dirty: false,
            pin: 1,
            class: assigned,
        };
        t.map.insert(pid, slot);
        t.policy.on_install(slot, pid);
        drop(t);
        // Write-behind for the victim happens outside the pool latch but
        // before any read fills the frame, preserving per-thread I/O order.
        if let Some(ev) = evicted {
            self.flush_evicted(clk.now, &ev);
        }

        if expand > 1 {
            let pages = match self.layer.read_run(clk, pid, expand) {
                Ok(pages) => pages,
                Err(e) => {
                    self.abandon_install(slot, pid);
                    return Err(e);
                }
            };
            self.data[slot].write().copy_from(pages[0].as_slice());
            let mut t = self.latch();
            for (i, page) in pages.into_iter().enumerate().skip(1) {
                let extra = pid.offset(i as u64);
                if t.map.contains_key(&extra) {
                    continue;
                }
                let Some(s) = t.free.pop() else { break };
                t.meta[s] = FrameMeta {
                    pid: Some(extra),
                    dirty: false,
                    pin: 0,
                    // Expansion pages were not individually requested; they
                    // are opportunistic fill, classified random like the
                    // triggering request.
                    class: Locality::Random,
                };
                t.map.insert(extra, s);
                t.policy.on_install(s, extra);
                t.stats.expanded_fill_pages += 1;
                self.data[s].write().copy_from(page.as_slice());
            }
            if t.free.is_empty() {
                t.filled_once = true;
            }
        } else {
            let mut buf = self.data[slot].write();
            // lint: allow(lock-across-io) — frame write latch only, held so
            // the fill lands atomically; the pool latch is already released
            // and the frame is pinned by this caller.
            let read = self.layer.read_page(clk, pid, assigned, buf.as_mut_slice());
            drop(buf);
            if let Err(e) = read {
                self.abandon_install(slot, pid);
                return Err(e);
            }
        }

        Ok(PageGuard {
            pool: self,
            slot,
            pid,
        })
    }

    /// Back out a miss installation whose read from below failed: the map
    /// entry, frame metadata, and replacement state all revert, returning
    /// the slot to the free list.
    fn abandon_install(&self, slot: usize, pid: PageId) {
        let mut t = self.latch();
        debug_assert_eq!(t.meta[slot].pid, Some(pid));
        t.map.remove(&pid);
        t.meta[slot] = FrameMeta::empty();
        t.policy.on_remove(slot, pid);
        t.free.push(slot);
    }

    /// Pin a *fresh* page that has never been written: installs a zeroed,
    /// dirty frame without any read I/O (page allocation path).
    pub fn create(&self, now: Time, pid: PageId) -> PageGuard<'_> {
        debug_assert!(pid.0 < self.cfg.db_pages, "page {pid} beyond database");
        let mut t = self.latch();
        assert!(!t.map.contains_key(&pid), "create() of resident page {pid}");
        let (slot, evicted) = t.vacate_slot();
        t.meta[slot] = FrameMeta {
            pid: Some(pid),
            dirty: true,
            pin: 1,
            class: Locality::Random,
        };
        t.link_dirty(slot);
        t.map.insert(pid, slot);
        t.policy.on_install(slot, pid);
        drop(t);
        if let Some(ev) = evicted {
            self.flush_evicted(now, &ev);
        }
        self.layer.note_dirtied(now, pid);
        self.data[slot].write().as_mut_slice().fill(0);
        PageGuard {
            pool: self,
            slot,
            pid,
        }
    }

    /// Read-ahead: fetch the run `first .. first + n` below and install any
    /// pages not already resident, unpinned and classified *sequential*.
    pub fn prefetch_run(&self, clk: &mut Clk, first: PageId, n: u64) -> Result<(), IoError> {
        assert!(first.0 + n <= self.cfg.db_pages, "prefetch beyond database");
        if n == 0 {
            return Ok(());
        }
        // A failed read-ahead installs nothing; the scan that requested it
        // simply falls back to demand reads of the same pages.
        let pages = self.layer.read_run(clk, first, n)?;
        // Pages of this run evicted *while installing it*: their entries in
        // `pages` were snapshotted before the eviction wrote newer bytes
        // below, so installing them would resurrect stale data. They are
        // skipped here and re-read (fresh) if the scan reaches them.
        let mut stale: Vec<bool> = vec![false; n as usize];
        // Evictions decided inside the loop owe write-behind I/O that must
        // not run under the pool latch. The victims' bytes are snapshotted
        // (into recycled staging buffers) before their frames are reused
        // and flushed after unlock; every booking lands at the same
        // virtual instant either way, so the deferral is invisible to the
        // simulation.
        let mut owed: Vec<(PendingEvict, Vec<u8>)> = Vec::new();
        let mut t = self.latch();
        for (i, page) in pages.into_iter().enumerate() {
            let pid = first.offset(i as u64);
            if t.map.contains_key(&pid) || stale[i] {
                continue;
            }
            let assigned = t.classifier.classify_prefetch(pid);
            let (slot, evicted) = t.vacate_slot();
            if let Some(ev) = evicted {
                if ev.victim.0 >= first.0 && ev.victim.0 < first.0 + n {
                    stale[(ev.victim.0 - first.0) as usize] = true;
                }
                let mut snap = self.bufs.take();
                snap.copy_from_slice(self.data[ev.slot].read().as_slice());
                owed.push((ev, snap));
            }
            t.meta[slot] = FrameMeta {
                pid: Some(pid),
                dirty: false,
                pin: 0,
                class: assigned,
            };
            t.map.insert(pid, slot);
            // Double-stamp: install plus one protection access. Under
            // LRU-2 a single touch would leave the page with an empty
            // penultimate stamp, making it the preferred victim — a full
            // pool would evict read-ahead pages before the scan consumes
            // them, degrading every scan page to a random read. Other
            // policies interpret the extra access in their own idiom
            // (CLOCK/SIEVE set the reference bit, ARC promotes to
            // protected), matching the read-ahead page protection of a
            // production buffer manager.
            t.policy.on_install(slot, pid);
            t.policy.on_access(slot);
            t.stats.prefetched_pages += 1;
            self.data[slot].write().copy_from(page.as_slice());
        }
        drop(t);
        for (ev, snap) in owed {
            self.layer
                .evict_page(clk.now, ev.victim, &snap, ev.dirty, ev.class);
            self.bufs.put(snap);
        }
        Ok(())
    }

    /// Hand an evicted page's bytes to the storage layer (write-behind).
    /// Eviction writes are asynchronous: device time is charged at `now`
    /// but the caller does not wait. Must be called *without* the pool
    /// latch and *before* the vacated frame is overwritten.
    fn flush_evicted(&self, now: Time, ev: &PendingEvict) {
        let layer = &self.layer;
        let data = self.data[ev.slot].read();
        // lint: allow(lock-across-io) — only the frame's read latch is held
        // (the pool latch is released); the slot is privately owned by this
        // caller and evict_page is a non-blocking async booking.
        layer.evict_page(now, ev.victim, data.as_slice(), ev.dirty, ev.class);
    }

    /// Sharp checkpoint of the memory pool: write every dirty page below
    /// (asynchronously), wait for the slowest write, then ask the layer to
    /// flush anything *it* holds dirty (the SSD, under LC).
    ///
    /// Dirty frames come from the intrusive dirty list (no full
    /// frame-table scan) and are written in ascending slot order.
    pub fn checkpoint(&self, clk: &mut Clk) {
        let mut dirty: Vec<(usize, PageId, Locality)> = Vec::new();
        {
            let t = self.latch();
            let mut slots: Vec<usize> = Vec::with_capacity(t.ndirty);
            let mut s = t.dhead;
            while s != NIL {
                if t.meta[s].pin == 0 {
                    slots.push(s);
                }
                s = t.dnext[s];
            }
            slots.sort_unstable();
            for s in slots {
                // lint: allow(panic) — dirty-list members always hold a page.
                let pid = t.meta[s].pid.expect("dirty frame has a page");
                dirty.push((s, pid, t.meta[s].class));
            }
        }
        let mut done = clk.now;
        // Recycled copy-out buffer: the frame latch protects only the
        // memcpy, never the write I/O below it.
        let mut copy = self.bufs.lease();
        for (slot, pid, class) in dirty {
            {
                let data = self.data[slot].read();
                copy.as_mut_slice().copy_from_slice(data.as_slice());
            }
            let w = self
                .layer
                .checkpoint_write(clk.now, pid, copy.as_slice(), class);
            done = done.max(w);
            let mut t = self.latch();
            // Revalidate: the frame may have been recycled meanwhile.
            if t.meta[slot].pid == Some(pid) && t.meta[slot].dirty {
                t.meta[slot].dirty = false;
                t.unlink_dirty(slot);
            }
            t.stats.checkpoint_writes += 1;
        }
        drop(copy);
        clk.wait_until(done);
        self.layer.checkpoint_flush(clk);
    }

    /// True if `pid` is resident.
    pub fn contains(&self, pid: PageId) -> bool {
        self.latch().map.contains_key(&pid)
    }

    /// True if `pid` is resident and dirty.
    pub fn is_dirty(&self, pid: PageId) -> bool {
        let t = self.latch();
        t.map.get(&pid).map(|&s| t.meta[s].dirty).unwrap_or(false)
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.latch().map.len()
    }

    /// Number of dirty resident pages — O(1), from the dirty-list counter.
    pub fn dirty_count(&self) -> usize {
        self.latch().ndirty
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        self.latch().stats
    }

    /// Replacement-policy counter snapshot (ghost hits, scan cost, …).
    pub fn policy_stats(&self) -> PolicyStats {
        self.latch().policy.stats()
    }

    /// Short name of the active replacement policy.
    pub fn policy_name(&self) -> &'static str {
        self.latch().policy.name()
    }

    /// Classifier confusion-matrix snapshot (§2.2 accuracy experiment).
    pub fn classifier_stats(&self) -> ClassifierStats {
        self.latch().classifier.stats()
    }

    fn unpin(&self, slot: usize) {
        let mut t = self.latch();
        let m = &mut t.meta[slot];
        debug_assert!(m.pin > 0, "unpin of unpinned frame");
        m.pin -= 1;
    }

    fn mark_dirty(&self, slot: usize, pid: PageId, now: Time) {
        let mut t = self.latch();
        let m = &mut t.meta[slot];
        debug_assert_eq!(m.pid, Some(pid));
        if !m.dirty {
            m.dirty = true;
            t.link_dirty(slot);
            drop(t);
            // First dirtying invalidates any SSD copy (paper §2.2).
            self.layer.note_dirtied(now, pid);
        }
    }
}

/// A pinned page. Dropping the guard unpins the frame.
pub struct PageGuard<'a> {
    pool: &'a BufferPool,
    slot: usize,
    pid: PageId,
}

impl PageGuard<'_> {
    pub fn pid(&self) -> PageId {
        self.pid
    }

    /// Read access to the page bytes.
    pub fn read<R>(&self, f: impl FnOnce(&[u8]) -> R) -> R {
        f(self.pool.data[self.slot].read().as_slice())
    }

    /// Write access to the page bytes; marks the page dirty and invalidates
    /// any SSD copy on the first dirtying.
    pub fn write<R>(&mut self, now: Time, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let r = f(self.pool.data[self.slot].write().as_mut_slice());
        self.pool.mark_dirty(self.slot, self.pid, now);
        r
    }
}

impl Drop for PageGuard<'_> {
    fn drop(&mut self) {
        self.pool.unpin(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::DirectIo;
    use turbopool_iosim::{DeviceSetup, IoManager};

    const PS: usize = 32;

    fn pool(frames: usize, db_pages: u64) -> (Arc<IoManager>, BufferPool) {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, db_pages, 8)));
        let layer = Arc::new(DirectIo::new(Arc::clone(&io)));
        let mut cfg = BufferPoolConfig::new(frames, PS, db_pages);
        cfg.fill_expansion = 1; // keep unit tests one-page-per-miss
        (io, BufferPool::new(cfg, layer))
    }

    #[test]
    fn miss_then_hit() {
        let (_io, p) = pool(4, 64);
        let mut clk = Clk::new();
        {
            let g = p.get(&mut clk, PageId(1), Locality::Random).unwrap();
            assert_eq!(g.pid(), PageId(1));
        }
        let t_after_miss = clk.now;
        assert!(t_after_miss > 0);
        {
            let _g = p.get(&mut clk, PageId(1), Locality::Random).unwrap();
        }
        assert_eq!(clk.now, t_after_miss, "hit is free of I/O time");
        let s = p.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn writes_round_trip_through_eviction() {
        let (_io, p) = pool(2, 64);
        let mut clk = Clk::new();
        {
            let mut g = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = 0xEE);
        }
        // Force page 0 out with two more pages.
        p.get(&mut clk, PageId(1), Locality::Random).unwrap();
        p.get(&mut clk, PageId(2), Locality::Random).unwrap();
        assert!(!p.contains(PageId(0)));
        assert_eq!(p.stats().evictions_dirty, 1);
        // Re-read from disk: the dirty eviction wrote it back.
        let g = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        assert_eq!(g.read(|b| b[0]), 0xEE);
    }

    #[test]
    fn lru2_prefers_scanned_once_pages() {
        let (_io, p) = pool(3, 64);
        let mut clk = Clk::new();
        // Page 0 is hot (touched twice), pages 1 and 2 touched once.
        p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        p.get(&mut clk, PageId(1), Locality::Random).unwrap();
        p.get(&mut clk, PageId(2), Locality::Random).unwrap();
        // Pool full; a new page must evict 1 or 2, not the hot page 0.
        p.get(&mut clk, PageId(3), Locality::Random).unwrap();
        assert!(p.contains(PageId(0)));
        assert!(!p.contains(PageId(1)), "oldest once-touched page evicted");
    }

    #[test]
    fn pinned_pages_are_never_victims() {
        let (_io, p) = pool(2, 64);
        let mut clk = Clk::new();
        let _held = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        p.get(&mut clk, PageId(1), Locality::Random).unwrap();
        p.get(&mut clk, PageId(2), Locality::Random).unwrap(); // must evict 1, not 0
        assert!(p.contains(PageId(0)));
        assert!(!p.contains(PageId(1)));
    }

    #[test]
    #[should_panic(expected = "every frame is pinned")]
    fn all_pinned_pool_panics() {
        let (_io, p) = pool(1, 64);
        let mut clk = Clk::new();
        let _g = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
        let _h = p.get(&mut clk, PageId(1), Locality::Random).unwrap();
    }

    #[test]
    fn create_skips_read_io_and_is_dirty() {
        let (io, p) = pool(2, 64);
        let g = p.create(0, PageId(9));
        drop(g);
        assert_eq!(io.disk_stats().read_ops, 0);
        assert!(p.is_dirty(PageId(9)));
    }

    #[test]
    fn prefetch_installs_unpinned_sequential_pages() {
        let (io, p) = pool(8, 64);
        let mut clk = Clk::new();
        p.prefetch_run(&mut clk, PageId(0), 4).unwrap();
        assert_eq!(p.resident(), 4);
        assert_eq!(p.stats().prefetched_pages, 4);
        // One multi-page request, not four single reads.
        assert!(io.disk_stats().read_ops <= 4);
        let before = p.stats().misses;
        p.get(&mut clk, PageId(2), Locality::Sequential).unwrap();
        assert_eq!(p.stats().misses, before, "prefetched page is a hit");
    }

    #[test]
    fn prefetch_never_resurrects_page_evicted_mid_install() {
        // Regression: read_run snapshots the whole run up front; installing
        // its early pages can evict a *dirty* resident page that lies later
        // in the same run. The eviction writes fresh bytes to disk, so the
        // pre-read snapshot of that page is stale and must not be installed.
        let (_io, p) = pool(4, 64);
        let mut clk = Clk::new();
        // Page 5 (inside the run below) is dirtied first, making it the
        // LRU-2 victim; pages 8..11 (outside the run) fill the remaining
        // frames so the stale install would stay resident afterwards.
        {
            let mut g = p.get(&mut clk, PageId(5), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = 0xAB);
        }
        for pid in 8..11u64 {
            let mut g = p.get(&mut clk, PageId(pid), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = pid as u8);
        }
        assert_eq!(p.dirty_count(), 4);
        // Installing page 4 evicts dirty page 5 (writing 0xAB to disk);
        // page 5's slot in the run must then NOT be filled from the
        // pre-eviction snapshot (zeroes).
        p.prefetch_run(&mut clk, PageId(4), 4).unwrap();
        let g = p.get(&mut clk, PageId(5), Locality::Random).unwrap();
        g.read(|b| assert_eq!(b[0], 0xAB, "page 5 lost its committed write"));
    }

    #[test]
    fn checkpoint_flushes_all_dirty_pages() {
        let (io, p) = pool(4, 64);
        let mut clk = Clk::new();
        for i in 0..3u64 {
            let mut g = p.get(&mut clk, PageId(i), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = i as u8 + 1);
        }
        assert_eq!(p.dirty_count(), 3);
        let writes_before = io.disk_stats().write_ops;
        p.checkpoint(&mut clk);
        assert_eq!(p.dirty_count(), 0);
        assert_eq!(p.stats().checkpoint_writes, 3);
        assert_eq!(io.disk_stats().write_ops - writes_before, 3);
        // Disk now holds the new contents.
        let mut buf = [0u8; PS];
        io.disk_store().read(PageId(2), &mut buf);
        assert_eq!(buf[0], 3);
    }

    #[test]
    fn fill_expansion_reads_runs_until_full() {
        let io = Arc::new(IoManager::new(&DeviceSetup::paper(PS, 64, 8)));
        let layer = Arc::new(DirectIo::new(Arc::clone(&io)));
        let mut cfg = BufferPoolConfig::new(16, PS, 64);
        cfg.fill_expansion = 8;
        let p = BufferPool::new(cfg, layer);
        let mut clk = Clk::new();
        p.get(&mut clk, PageId(10), Locality::Random).unwrap();
        // One miss installed 8 pages (1 requested + 7 expansion).
        assert_eq!(p.resident(), 8);
        assert_eq!(p.stats().expanded_fill_pages, 7);
        assert!(p.contains(PageId(17)));
    }

    #[test]
    fn hit_rate_math() {
        let s = PoolStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(PoolStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn dirty_list_tracks_evictions_and_redirtying() {
        let (_io, p) = pool(2, 64);
        let mut clk = Clk::new();
        {
            let mut g = p.get(&mut clk, PageId(0), Locality::Random).unwrap();
            g.write(clk.now, |b| b[0] = 1);
            g.write(clk.now, |b| b[1] = 2); // second write: no double-link
        }
        assert_eq!(p.dirty_count(), 1);
        // Evicting the dirty page unlinks it.
        p.get(&mut clk, PageId(1), Locality::Random).unwrap();
        p.get(&mut clk, PageId(2), Locality::Random).unwrap();
        assert!(!p.contains(PageId(0)));
        assert_eq!(p.dirty_count(), 0);
        p.checkpoint(&mut clk);
        assert_eq!(p.stats().checkpoint_writes, 0, "nothing left to write");
    }
}
