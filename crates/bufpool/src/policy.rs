//! Pluggable DRAM replacement policies (ISSUE 8).
//!
//! The buffer pool used to hardwire LRU-2; this module extracts victim
//! selection behind the [`ReplacementPolicy`] trait so the policy becomes
//! a benchmarkable axis (the *Evolution of Buffer Management* survey maps
//! the space). Five policies ship:
//!
//! * [`Lru2Policy`] — the paper's LRU-2 with O'Neil's Retained
//!   Information Period, ported **verbatim** from the old `pool.rs`
//!   internals. It is the default and is regression-gated: same seeds
//!   must produce bit-identical counters to the pre-trait pool.
//! * [`ClockPolicy`] — second-chance CLOCK (reference bit + hand).
//! * [`SievePolicy`] — SIEVE (FIFO order, visited bit, hand moving from
//!   tail to head, hits never move nodes).
//! * [`LruKPolicy`] — LRU-K with configurable K and retained history.
//! * [`GhostPolicy`] — ARC-style adaptive policy with probationary/
//!   protected segments and two ghost lists steering the balance.
//!
//! # Determinism rules
//!
//! Policies are replay state: every decision must be a pure function of
//! the access sequence. Hash maps may be used for *lookup only*; any
//! iteration must be order-insensitive (the lint L9 rule enforces this
//! mechanically). No wall-clock, no RNG — tie-breaks use access stamps
//! or slot numbers.
//!
//! # Hot-path contract
//!
//! Hooks are called under the pool latch and must not allocate per call
//! on the steady-state path (amortized reallocation of internal vectors
//! and the lazy heaps' growth is fine; per-access allocation is not).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

use turbopool_iosim::PageId;

use crate::lru2::{KDist, Lru2};

/// Which replacement policy a pool runs (the `BufferPoolConfig`
/// knob). Matches over this enum must be exhaustive with no `_` arm —
/// lint rule L12 (`policy-match`) enforces it, like L4 does for
/// `SsdDesign`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReplacementKind {
    /// LRU-2 with retained history (the paper's policy; the default).
    Lru2,
    /// Second-chance CLOCK.
    Clock,
    /// SIEVE (Zhang et al., NSDI 2024): FIFO + visited bit, lazily
    /// promoting via the hand instead of moving nodes on hit.
    Sieve,
    /// LRU-K (O'Neil et al., SIGMOD 1993) with configurable K.
    LruK { k: usize },
    /// Adaptive ghost-list policy (ARC-style probation/protection).
    Ghost,
}

impl Default for ReplacementKind {
    fn default() -> Self {
        ReplacementKind::Lru2
    }
}

impl ReplacementKind {
    /// Stable label for reports and bench JSON.
    pub fn label(self) -> String {
        match self {
            ReplacementKind::Lru2 => "lru2".to_string(),
            ReplacementKind::Clock => "clock".to_string(),
            ReplacementKind::Sieve => "sieve".to_string(),
            ReplacementKind::LruK { k } => format!("lru{k}"),
            ReplacementKind::Ghost => "ghost".to_string(),
        }
    }

    /// The matrix the policy-arena bench sweeps (LRU-K at K=3 so it is
    /// distinct from both LRU-2 and plain recency).
    pub fn arena() -> [ReplacementKind; 5] {
        [
            ReplacementKind::Lru2,
            ReplacementKind::Clock,
            ReplacementKind::Sieve,
            ReplacementKind::LruK { k: 3 },
            ReplacementKind::Ghost,
        ]
    }

    /// Construct the policy for `frames` pool slots.
    pub fn build(self, frames: usize) -> Box<dyn ReplacementPolicy> {
        match self {
            ReplacementKind::Lru2 => Box::new(Lru2Policy::new(frames)),
            ReplacementKind::Clock => Box::new(ClockPolicy::new(frames)),
            ReplacementKind::Sieve => Box::new(SievePolicy::new(frames)),
            ReplacementKind::LruK { k } => Box::new(LruKPolicy::new(frames, k)),
            ReplacementKind::Ghost => Box::new(GhostPolicy::new(frames)),
        }
    }
}

turbopool_iosim::counters! {
    /// Policy-internal counters, shared across all implementations so the
    /// arena bench can compare eviction-scan cost and ghost effectiveness.
    pub struct PolicyStats {
        /// Reinstalled pages whose history/ghost entry was still retained
        /// (LRU-2/LRU-K retained stamps, ARC B1/B2 hits).
        ghost_hits,
        /// Victim-scan steps: heap pops (including stale entries), clock-hand
        /// advances, sieve-hand advances, list walks past pinned frames.
        scan_steps,
        /// Second chances granted (CLOCK reference-bit clears, SIEVE visited
        /// clears).
        second_chances,
        /// Victims taken from the probationary segment (ARC T1; other
        /// policies leave this 0).
        probation_evictions,
        /// Victims taken from the protected segment (ARC T2).
        protected_evictions,
    }
}

/// Victim selection + residency hooks for the DRAM pool.
///
/// The pool calls hooks under its latch; `slot` is the frame index. The
/// contract mirrors the pool's life cycle:
///
/// * [`on_install`](Self::on_install) — a page was installed into a
///   vacated slot; counts as the page's first access. Retained history
///   (if the policy keeps any) is adopted here.
/// * [`on_access`](Self::on_access) — a subsequent access (pool hit) or
///   an extra protection touch (read-ahead double-stamp).
/// * [`on_evict`](Self::on_evict) — the pool evicted the page in `slot`
///   (always the slot returned by the immediately preceding
///   [`select_victim`](Self::select_victim)); the policy may retain
///   per-page history for re-admission.
/// * [`on_remove`](Self::on_remove) — the page left the pool without
///   eviction semantics (failed install backed out); no history is kept.
/// * [`select_victim`](Self::select_victim) — pick an evictable slot;
///   `evictable(slot)` reports whether the frame is occupied and
///   unpinned. Returns `None` only if no evictable frame exists.
pub trait ReplacementPolicy: Send {
    /// Stable short name (diagnostics; bench JSON uses
    /// [`ReplacementKind::label`]).
    fn name(&self) -> &'static str;

    /// A page was installed into `slot` (first access included).
    fn on_install(&mut self, slot: usize, pid: PageId);

    /// The page in `slot` was accessed again.
    fn on_access(&mut self, slot: usize);

    /// The page in `slot` was evicted (history may be retained).
    fn on_evict(&mut self, slot: usize, pid: PageId);

    /// The page in `slot` was removed without eviction semantics.
    fn on_remove(&mut self, slot: usize, pid: PageId);

    /// Choose a victim among slots for which `evictable` returns true.
    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize>;

    /// Counter snapshot.
    fn stats(&self) -> PolicyStats;
}

// ------------------------------------------------------------ LRU-2 ----

/// The paper's LRU-2 with retained history — a verbatim extraction of
/// the pre-trait `pool.rs` internals (lazy min-heap over `(kdist, slot)`
/// with revalidate-on-pop, full rebuild when the heap drains, history
/// map pruned to 8× the frame count at the median `last` stamp). Every
/// semantic detail is preserved so default configurations replay
/// bit-identically; see `tests/policy_default_regression.rs`.
pub struct Lru2Policy {
    lru: Lru2,
    /// Retained LRU-2 history of evicted pages (O'Neil's Retained
    /// Information Period): re-referenced pages keep their penultimate
    /// access stamp across evictions, so a hot page that was pushed out
    /// does not re-enter looking like a scan-once page (which would make
    /// it the immediate next victim). Bounded to a multiple of the frame
    /// count.
    hist: HashMap<PageId, (u64, u64)>,
    /// Lazy min-heap of `(kdist, slot)`; entries are revalidated on pop.
    heap: BinaryHeap<Reverse<(KDist, usize)>>,
    frames: usize,
    stats: PolicyStats,
}

impl Lru2Policy {
    pub fn new(frames: usize) -> Self {
        Lru2Policy {
            lru: Lru2::new(frames),
            hist: HashMap::new(),
            heap: BinaryHeap::new(),
            frames,
            stats: PolicyStats::default(),
        }
    }

    fn touch(&mut self, slot: usize) {
        let kd = self.lru.touch(slot);
        self.heap.push(Reverse((kd, slot)));
    }

    /// Remember the evicted page's stamps, pruning the retained set to
    /// 8x the frame count by dropping the stalest half. The median is
    /// found with `select_nth_unstable` — O(n) instead of the old
    /// O(n log n) full sort, selecting the *same* element (the value at
    /// the sorted midpoint), so the retained set is unchanged.
    fn retain_history(&mut self, pid: PageId, last: u64, prev: u64) {
        self.hist.insert(pid, (last, prev));
        let cap = 8 * self.frames;
        if self.hist.len() > cap {
            let mut lasts: Vec<u64> = self.hist.values().map(|&(l, _)| l).collect();
            let mid = lasts.len() / 2;
            let (_, &mut median, _) = lasts.select_nth_unstable(mid);
            self.hist.retain(|_, &mut (l, _)| l >= median);
        }
    }
}

impl ReplacementPolicy for Lru2Policy {
    fn name(&self) -> &'static str {
        "lru2"
    }

    fn on_install(&mut self, slot: usize, pid: PageId) {
        // Restore retained history for a page being (re)installed.
        if let Some((last, prev)) = self.hist.remove(&pid) {
            self.lru.seed(slot, last, prev);
            self.stats.ghost_hits += 1;
        }
        self.touch(slot);
    }

    fn on_access(&mut self, slot: usize) {
        self.touch(slot);
    }

    fn on_evict(&mut self, slot: usize, pid: PageId) {
        let (prev, last) = self.lru.kdist(slot);
        self.retain_history(pid, last, prev);
        self.lru.reset(slot);
    }

    fn on_remove(&mut self, slot: usize, _pid: PageId) {
        self.lru.reset(slot);
        // Stale heap entries for this slot are revalidated (and skipped)
        // by `select_victim`, so they need no eager cleanup here.
    }

    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        loop {
            match self.heap.pop() {
                Some(Reverse((kd, slot))) => {
                    self.stats.scan_steps += 1;
                    if evictable(slot) && self.lru.kdist(slot) == kd {
                        return Some(slot);
                    }
                    // Stale entry (re-touched, freed, or pinned): skip.
                }
                None => {
                    // All entries were stale; rebuild from live frames.
                    let mut rebuilt = false;
                    for slot in 0..self.frames {
                        if evictable(slot) {
                            self.heap.push(Reverse((self.lru.kdist(slot), slot)));
                            rebuilt = true;
                        }
                    }
                    if !rebuilt {
                        return None;
                    }
                }
            }
        }
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

// ------------------------------------------------------------ CLOCK ----

/// Second-chance CLOCK: a hand sweeps the frame array; a set reference
/// bit buys one more lap, a clear one selects the victim. Pages install
/// with the bit clear, so scan-once pages fall out after a single lap.
pub struct ClockPolicy {
    refbit: Vec<bool>,
    occupied: Vec<bool>,
    hand: usize,
    stats: PolicyStats,
}

impl ClockPolicy {
    pub fn new(frames: usize) -> Self {
        ClockPolicy {
            refbit: vec![false; frames],
            occupied: vec![false; frames],
            hand: 0,
            stats: PolicyStats::default(),
        }
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn on_install(&mut self, slot: usize, _pid: PageId) {
        self.occupied[slot] = true;
        self.refbit[slot] = false;
    }

    fn on_access(&mut self, slot: usize) {
        self.refbit[slot] = true;
    }

    fn on_evict(&mut self, slot: usize, _pid: PageId) {
        self.occupied[slot] = false;
        self.refbit[slot] = false;
    }

    fn on_remove(&mut self, slot: usize, _pid: PageId) {
        self.occupied[slot] = false;
        self.refbit[slot] = false;
    }

    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        let n = self.refbit.len();
        // Two full laps suffice when any evictable frame exists: the
        // first clears reference bits, the second must then land.
        for _ in 0..2 * n + 1 {
            let slot = self.hand;
            self.hand = (self.hand + 1) % n;
            self.stats.scan_steps += 1;
            if !self.occupied[slot] || !evictable(slot) {
                // Pinned or empty frames are skipped without consuming
                // their reference bit.
                continue;
            }
            if self.refbit[slot] {
                self.refbit[slot] = false;
                self.stats.second_chances += 1;
            } else {
                return Some(slot);
            }
        }
        None
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

// ------------------------------------------------------------ SIEVE ----

/// SIEVE: insertion-ordered list (head = newest) with a visited bit; the
/// hand moves from tail (oldest) toward head, evicting the first
/// unvisited node and clearing visited bits as it passes. Hits only set
/// the bit — resident pages never move, making hits O(1) with no
/// promotion churn.
pub struct SievePolicy {
    /// Intrusive list links; `usize::MAX` is "none".
    prev: Vec<usize>, // toward head (newer)
    next: Vec<usize>, // toward tail (older)
    in_list: Vec<bool>,
    visited: Vec<bool>,
    head: usize,
    tail: usize,
    /// Current hand position (`usize::MAX` = restart from tail).
    hand: usize,
    stats: PolicyStats,
}

const NIL: usize = usize::MAX;

impl SievePolicy {
    pub fn new(frames: usize) -> Self {
        SievePolicy {
            prev: vec![NIL; frames],
            next: vec![NIL; frames],
            in_list: vec![false; frames],
            visited: vec![false; frames],
            head: NIL,
            tail: NIL,
            hand: NIL,
            stats: PolicyStats::default(),
        }
    }

    fn unlink(&mut self, slot: usize) {
        if !self.in_list[slot] {
            return;
        }
        if self.hand == slot {
            self.hand = self.prev[slot];
        }
        let (p, n) = (self.prev[slot], self.next[slot]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n] = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.in_list[slot] = false;
        self.visited[slot] = false;
    }

    fn push_head(&mut self, slot: usize) {
        self.prev[slot] = NIL;
        self.next[slot] = self.head;
        if self.head != NIL {
            self.prev[self.head] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
        self.in_list[slot] = true;
        self.visited[slot] = false;
    }
}

impl ReplacementPolicy for SievePolicy {
    fn name(&self) -> &'static str {
        "sieve"
    }

    fn on_install(&mut self, slot: usize, _pid: PageId) {
        self.push_head(slot);
    }

    fn on_access(&mut self, slot: usize) {
        if self.in_list[slot] {
            self.visited[slot] = true;
        }
    }

    fn on_evict(&mut self, slot: usize, _pid: PageId) {
        self.unlink(slot);
    }

    fn on_remove(&mut self, slot: usize, _pid: PageId) {
        self.unlink(slot);
    }

    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        let n = self.visited.len();
        // As with CLOCK, two passes over the list bound the scan: one to
        // clear visited bits, one to land on an unvisited node.
        for _ in 0..2 * n + 1 {
            let slot = if self.hand == NIL {
                self.tail
            } else {
                self.hand
            };
            if slot == NIL {
                return None;
            }
            self.stats.scan_steps += 1;
            if !evictable(slot) {
                // Pinned frames are passed over without clearing their
                // visited bit.
                self.hand = self.prev[slot];
                continue;
            }
            if self.visited[slot] {
                self.visited[slot] = false;
                self.stats.second_chances += 1;
                self.hand = self.prev[slot];
            } else {
                // The caller evicts this slot next; `on_evict`'s unlink
                // retreats the hand to the surviving newer neighbour.
                return Some(slot);
            }
        }
        None
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

// ------------------------------------------------------------ LRU-K ----

/// LRU-K: evict the page whose K-th most recent access is oldest (pages
/// with fewer than K accesses sort first, oldest last-access first).
/// Like [`Lru2Policy`] it keeps retained history for evicted pages, but
/// its lazy heap *re-pushes* entries for pinned frames instead of
/// discarding them, so the victim path never needs an O(frames) rebuild
/// scan.
pub struct LruKPolicy {
    k: usize,
    /// Per-slot access stamps, most recent first, at most `k` kept.
    stamps: Vec<Vec<u64>>,
    counter: u64,
    heap: BinaryHeap<Reverse<((u64, u64), usize)>>,
    /// Retained stamp history of evicted pages, bounded like LRU-2's.
    hist: HashMap<PageId, Vec<u64>>,
    frames: usize,
    /// Entries popped while pinned, re-pushed after selection.
    stash: Vec<Reverse<((u64, u64), usize)>>,
    stats: PolicyStats,
}

impl LruKPolicy {
    pub fn new(frames: usize, k: usize) -> Self {
        let k = k.max(1);
        LruKPolicy {
            k,
            stamps: vec![Vec::new(); frames],
            counter: 0,
            heap: BinaryHeap::new(),
            hist: HashMap::new(),
            frames,
            stash: Vec::new(),
            stats: PolicyStats::default(),
        }
    }

    /// Priority of `slot`: (K-th most recent stamp or 0, last stamp).
    fn key(&self, slot: usize) -> (u64, u64) {
        let s = &self.stamps[slot];
        let kth = if s.len() >= self.k { s[self.k - 1] } else { 0 };
        (kth, s.first().copied().unwrap_or(0))
    }

    fn touch(&mut self, slot: usize) {
        self.counter += 1;
        let c = self.counter;
        let s = &mut self.stamps[slot];
        s.insert(0, c);
        s.truncate(self.k);
        let key = self.key(slot);
        self.heap.push(Reverse((key, slot)));
    }
}

impl ReplacementPolicy for LruKPolicy {
    fn name(&self) -> &'static str {
        "lruk"
    }

    fn on_install(&mut self, slot: usize, pid: PageId) {
        if let Some(h) = self.hist.remove(&pid) {
            self.stamps[slot] = h;
            self.stats.ghost_hits += 1;
        }
        self.touch(slot);
    }

    fn on_access(&mut self, slot: usize) {
        self.touch(slot);
    }

    fn on_evict(&mut self, slot: usize, pid: PageId) {
        let s = std::mem::take(&mut self.stamps[slot]);
        if !s.is_empty() {
            self.hist.insert(pid, s);
            let cap = 8 * self.frames;
            if self.hist.len() > cap {
                let mut lasts: Vec<u64> = self
                    .hist
                    .values()
                    .map(|v| v.first().copied().unwrap_or(0))
                    .collect();
                let mid = lasts.len() / 2;
                let (_, &mut median, _) = lasts.select_nth_unstable(mid);
                self.hist
                    .retain(|_, v| v.first().copied().unwrap_or(0) >= median);
            }
        }
    }

    fn on_remove(&mut self, slot: usize, _pid: PageId) {
        self.stamps[slot].clear();
    }

    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        let mut victim = None;
        while let Some(Reverse((key, slot))) = self.heap.pop() {
            self.stats.scan_steps += 1;
            if key != self.key(slot) || self.stamps[slot].is_empty() {
                continue; // stale: re-touched or freed since pushed
            }
            if evictable(slot) {
                victim = Some(slot);
                break;
            }
            // Pinned but current: keep the entry alive for later picks.
            self.stash.push(Reverse((key, slot)));
        }
        for e in self.stash.drain(..) {
            self.heap.push(e);
        }
        victim
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

// ------------------------------------------------------------ Ghost ----

/// Which resident list a frame is on (ARC terminology).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Segment {
    None,
    /// Probation: pages seen once since (re)admission.
    T1,
    /// Protected: pages re-referenced while resident.
    T2,
}

/// One intrusive LRU list over the shared link arrays.
#[derive(Clone, Copy)]
struct ListEnds {
    head: usize, // MRU
    tail: usize, // LRU
    len: usize,
}

impl ListEnds {
    fn new() -> Self {
        ListEnds {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }
}

/// ARC-style adaptive ghost-list policy. Resident pages live on two
/// LRU lists — T1 (probation: referenced once) and T2 (protected:
/// re-referenced) — and evicted pages leave a ghost entry in B1/B2. A
/// ghost hit on re-admission proves the page deserved more retention,
/// so the adaptive target `p` (T1's share of the pool) grows on B1 hits
/// and shrinks on B2 hits, exactly ARC's learning rule. Ghost lists are
/// bounded FIFOs with sequence-stamped entries (a stale dequeued entry
/// whose stamp mismatches the map is skipped, so re-added pages keep
/// their full ghost lifetime).
pub struct GhostPolicy {
    prev: Vec<usize>, // toward MRU
    next: Vec<usize>, // toward LRU
    seg: Vec<Segment>,
    t1: ListEnds,
    t2: ListEnds,
    /// Adaptive target for T1's size.
    p: usize,
    frames: usize,
    /// Ghost membership: pid -> (list, seq). Lookup-only (never
    /// iterated), so replay determinism is preserved.
    ghost: HashMap<PageId, (bool, u64)>, // true = B1
    b1: VecDeque<(PageId, u64)>,
    b2: VecDeque<(PageId, u64)>,
    ghost_seq: u64,
    stats: PolicyStats,
}

impl GhostPolicy {
    pub fn new(frames: usize) -> Self {
        GhostPolicy {
            prev: vec![NIL; frames],
            next: vec![NIL; frames],
            seg: vec![Segment::None; frames],
            t1: ListEnds::new(),
            t2: ListEnds::new(),
            p: 0,
            frames,
            ghost: HashMap::new(),
            b1: VecDeque::new(),
            b2: VecDeque::new(),
            ghost_seq: 0,
            stats: PolicyStats::default(),
        }
    }

    fn list(&mut self, s: Segment) -> &mut ListEnds {
        match s {
            Segment::T1 => &mut self.t1,
            // `None` never reaches here: callers check `seg` first.
            Segment::None | Segment::T2 => &mut self.t2,
        }
    }

    fn unlink(&mut self, slot: usize) {
        let s = self.seg[slot];
        if s == Segment::None {
            return;
        }
        let (p, n) = (self.prev[slot], self.next[slot]);
        let ends = self.list(s);
        if p == NIL {
            ends.head = n;
        } else {
            self.next[p] = n;
        }
        if n == NIL {
            self.list(s).tail = p;
        } else {
            self.prev[n] = p;
        }
        self.list(s).len -= 1;
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
        self.seg[slot] = Segment::None;
    }

    fn push_mru(&mut self, slot: usize, s: Segment) {
        let ends = self.list(s);
        let old_head = ends.head;
        self.prev[slot] = NIL;
        self.next[slot] = old_head;
        if old_head != NIL {
            self.prev[old_head] = slot;
        }
        let ends = self.list(s);
        ends.head = slot;
        if ends.tail == NIL {
            ends.tail = slot;
        }
        ends.len += 1;
        self.seg[slot] = s;
    }

    fn ghost_insert(&mut self, pid: PageId, to_b1: bool) {
        self.ghost_seq += 1;
        let seq = self.ghost_seq;
        self.ghost.insert(pid, (to_b1, seq));
        let q = if to_b1 { &mut self.b1 } else { &mut self.b2 };
        q.push_back((pid, seq));
        // Bound each ghost list to the frame count, skipping entries
        // superseded by a later re-insertion of the same page.
        loop {
            let q = if to_b1 { &mut self.b1 } else { &mut self.b2 };
            if q.len() <= self.frames {
                break;
            }
            let Some((old, old_seq)) = q.pop_front() else {
                break;
            };
            match self.ghost.get(&old) {
                Some(&(l, s)) if l == to_b1 && s == old_seq => {
                    self.ghost.remove(&old);
                }
                _ => {} // stale queue entry; the live one is elsewhere
            }
        }
    }

    /// Walk `list` from its LRU end past pinned frames.
    fn lru_evictable(
        &mut self,
        s: Segment,
        evictable: &mut dyn FnMut(usize) -> bool,
    ) -> Option<usize> {
        let mut cur = self.list(s).tail;
        while cur != NIL {
            self.stats.scan_steps += 1;
            if evictable(cur) {
                return Some(cur);
            }
            cur = self.prev[cur];
        }
        None
    }
}

impl ReplacementPolicy for GhostPolicy {
    fn name(&self) -> &'static str {
        "ghost"
    }

    fn on_install(&mut self, slot: usize, pid: PageId) {
        match self.ghost.remove(&pid) {
            Some((true, _)) => {
                // B1 hit: recency working set is bigger than T1 — grow p.
                let delta = (self.b2.len() / self.b1.len().max(1)).max(1);
                self.p = (self.p + delta).min(self.frames);
                self.stats.ghost_hits += 1;
                self.push_mru(slot, Segment::T2);
            }
            Some((false, _)) => {
                // B2 hit: frequency set needs the space back — shrink p.
                let delta = (self.b1.len() / self.b2.len().max(1)).max(1);
                self.p = self.p.saturating_sub(delta);
                self.stats.ghost_hits += 1;
                self.push_mru(slot, Segment::T2);
            }
            None => self.push_mru(slot, Segment::T1),
        }
    }

    fn on_access(&mut self, slot: usize) {
        // Any re-reference promotes to (or refreshes) protected MRU.
        self.unlink(slot);
        self.push_mru(slot, Segment::T2);
    }

    fn on_evict(&mut self, slot: usize, pid: PageId) {
        let seg = self.seg[slot];
        self.unlink(slot);
        match seg {
            Segment::T1 => {
                self.stats.probation_evictions += 1;
                self.ghost_insert(pid, true);
            }
            Segment::T2 => {
                self.stats.protected_evictions += 1;
                self.ghost_insert(pid, false);
            }
            Segment::None => {}
        }
    }

    fn on_remove(&mut self, slot: usize, _pid: PageId) {
        self.unlink(slot);
    }

    fn select_victim(&mut self, evictable: &mut dyn FnMut(usize) -> bool) -> Option<usize> {
        // ARC's REPLACE: evict from T1 while it exceeds its target share,
        // else from T2; fall back to the other list when every frame of
        // the preferred one is pinned.
        let prefer_t1 = self.t1.len > self.p.max(1).min(self.frames) || self.t2.len == 0;
        let (first, second) = if prefer_t1 {
            (Segment::T1, Segment::T2)
        } else {
            (Segment::T2, Segment::T1)
        };
        self.lru_evictable(first, evictable)
            .or_else(|| self.lru_evictable(second, evictable))
    }

    fn stats(&self) -> PolicyStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a policy like the pool does, with no pins: install pages
    /// into `frames` slots, touch on hit, evict on overflow. Returns the
    /// eviction sequence.
    struct Sim {
        policy: Box<dyn ReplacementPolicy>,
        resident: HashMap<PageId, usize>,
        slots: Vec<Option<PageId>>,
        free: Vec<usize>,
        evictions: Vec<PageId>,
    }

    impl Sim {
        fn new(kind: ReplacementKind, frames: usize) -> Self {
            Sim {
                policy: kind.build(frames),
                resident: HashMap::new(),
                slots: vec![None; frames],
                free: (0..frames).rev().collect(),
                evictions: Vec::new(),
            }
        }

        fn access(&mut self, pid: PageId) {
            if let Some(&slot) = self.resident.get(&pid) {
                self.policy.on_access(slot);
                return;
            }
            let slot = match self.free.pop() {
                Some(s) => s,
                None => {
                    let slots = &self.slots;
                    let victim = self
                        .policy
                        .select_victim(&mut |s| slots[s].is_some())
                        .expect("no evictable frame");
                    let old = self.slots[victim].take().expect("victim occupied");
                    self.policy.on_evict(victim, old);
                    self.resident.remove(&old);
                    self.evictions.push(old);
                    victim
                }
            };
            self.slots[slot] = Some(pid);
            self.resident.insert(pid, slot);
            self.policy.on_install(slot, pid);
        }
    }

    #[test]
    fn every_policy_evicts_scan_once_pages_before_hot_pages() {
        for kind in ReplacementKind::arena() {
            let mut sim = Sim::new(kind, 4);
            // Page 0 is hot; 1..=3 touched once; 4 forces an eviction.
            sim.access(PageId(0));
            sim.access(PageId(0));
            sim.access(PageId(0));
            for p in 1..=3 {
                sim.access(PageId(p));
            }
            sim.access(PageId(4));
            assert_eq!(sim.evictions.len(), 1, "{kind:?}");
            assert_ne!(sim.evictions[0], PageId(0), "{kind:?} evicted the hot page");
        }
    }

    #[test]
    fn every_policy_survives_full_churn_and_stays_consistent() {
        for kind in ReplacementKind::arena() {
            let mut sim = Sim::new(kind, 8);
            // Cyclic + skewed churn far beyond capacity.
            for i in 0..600u64 {
                sim.access(PageId(i % 40));
                if i % 3 == 0 {
                    sim.access(PageId(i % 5)); // hot set
                }
            }
            assert_eq!(sim.resident.len(), 8, "{kind:?}");
            assert!(sim.evictions.len() > 100, "{kind:?}");
        }
    }

    #[test]
    fn pinned_slots_are_never_selected() {
        for kind in ReplacementKind::arena() {
            let mut policy = kind.build(3);
            for (slot, pid) in [(0usize, 77u64), (1, 78), (2, 79)] {
                policy.on_install(slot, PageId(pid));
            }
            // Slot 1 is the only evictable frame.
            for _ in 0..3 {
                let v = policy.select_victim(&mut |s| s == 1).expect("frame 1 free");
                assert_eq!(v, 1, "{kind:?}");
                policy.on_evict(1, PageId(78));
                policy.on_install(1, PageId(78));
            }
        }
    }

    #[test]
    fn all_pinned_returns_none() {
        for kind in ReplacementKind::arena() {
            let mut policy = kind.build(2);
            policy.on_install(0, PageId(1));
            policy.on_install(1, PageId(2));
            assert_eq!(policy.select_victim(&mut |_| false), None, "{kind:?}");
            // And the policy still works afterwards.
            assert!(policy.select_victim(&mut |_| true).is_some(), "{kind:?}");
        }
    }

    #[test]
    fn lru2_history_survives_eviction() {
        let mut p = Lru2Policy::new(2);
        p.on_install(0, PageId(10));
        p.on_access(0);
        p.on_evict(0, PageId(10));
        assert_eq!(p.stats().ghost_hits, 0);
        p.on_install(0, PageId(10));
        assert_eq!(p.stats().ghost_hits, 1, "retained history adopted");
    }

    #[test]
    fn ghost_policy_adapts_target_on_ghost_hits() {
        let mut p = GhostPolicy::new(4);
        // Install + evict from T1 -> B1 ghost.
        p.on_install(0, PageId(5));
        p.on_evict(0, PageId(5));
        assert_eq!(p.stats().probation_evictions, 1);
        let before = p.p;
        p.on_install(0, PageId(5)); // B1 ghost hit
        assert_eq!(p.stats().ghost_hits, 1);
        assert!(p.p > before, "B1 hit grows the probation target");
        // The readmitted page is protected now; evicting it feeds B2.
        p.on_evict(0, PageId(5));
        assert_eq!(p.stats().protected_evictions, 1);
        p.on_install(0, PageId(5));
        assert_eq!(p.stats().ghost_hits, 2, "B2 ghost hit");
    }

    #[test]
    fn sieve_hand_resumes_after_eviction() {
        let mut p = SievePolicy::new(3);
        for (slot, pid) in [(0usize, 1u64), (1, 2), (2, 3)] {
            p.on_install(slot, PageId(pid));
        }
        // Oldest (slot 0) is unvisited -> first victim.
        let v = p.select_victim(&mut |_| true).expect("victim");
        assert_eq!(v, 0);
        p.on_evict(0, PageId(1));
        // Visit slot 1; next selection should skip it once and take 2.
        p.on_access(1);
        let v = p.select_victim(&mut |_| true).expect("victim");
        assert_eq!(v, 2, "visited node got its second chance");
        assert!(p.stats().second_chances >= 1);
    }

    #[test]
    fn lruk_prefers_pages_with_fewer_than_k_accesses() {
        let mut p = LruKPolicy::new(3, 3);
        p.on_install(0, PageId(1)); // 1 access
        p.on_install(1, PageId(2));
        p.on_install(2, PageId(3));
        // Page in slot 1 reaches K=3 accesses.
        p.on_access(1);
        p.on_access(1);
        let v = p.select_victim(&mut |_| true).expect("victim");
        assert_ne!(v, 1, "K-saturated page outlives once-touched pages");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ReplacementKind::Lru2.label(), "lru2");
        assert_eq!(ReplacementKind::LruK { k: 3 }.label(), "lru3");
        assert_eq!(ReplacementKind::default(), ReplacementKind::Lru2);
    }
}
