//! Microbenchmarks for the SSD manager's data structures and the engine's
//! hot paths. Self-contained std-only harness (this environment has no
//! registry access, so no criterion): each benchmark runs a warmup batch,
//! then reports mean ns/iter over a fixed iteration budget.

use std::sync::{Arc, Mutex};

use turbopool_bench::{BenchReport, Json, WallTimer};
use turbopool_bufpool::{Lru2, PageIo};
use turbopool_core::heaps::{DualHeap, Side};
use turbopool_core::partition::Partition;
use turbopool_core::{SsdConfig, SsdDesign, SsdManager};
use turbopool_engine::{Database, DbConfig};
use turbopool_iosim::{Clk, DeviceSetup, IoManager, Locality, PageBufPool, PageId};

/// `(name, ns_per_iter, iters)` rows collected for BENCH_micro.json.
static RESULTS: Mutex<Vec<(String, f64, u64)>> = Mutex::new(Vec::new());

/// Time `iters` calls of `f` after `iters / 10` warmup calls and print
/// mean ns/iter. Wall-clock by necessity: these measure real CPU cost of
/// the data structures, not simulated I/O time.
fn bench(name: &str, iters: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    // lint: allow(wallclock) — harness-side timing of real CPU work; the
    // virtual clock cannot observe host execution cost.
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        f();
    }
    let elapsed = t0.elapsed();
    let ns = elapsed.as_nanos() as f64 / iters as f64;
    println!("{name:<34} {ns:>10.1} ns/iter ({iters} iters)");
    if let Ok(mut r) = RESULTS.lock() {
        r.push((name.to_string(), ns, iters));
    }
    ns
}

fn bench_dual_heap() {
    bench("dual_heap_insert_pop_1k", 200, || {
        let mut h = DualHeap::new(1024);
        for i in 0..1024usize {
            let side = if i % 3 == 0 { Side::Dirty } else { Side::Clean };
            h.insert(side, ((i as u64 * 7919) % 4096, i as u64), i);
        }
        while h.pop_min(Side::Clean).is_some() {}
        while h.pop_min(Side::Dirty).is_some() {}
    });

    let mut h = DualHeap::new(1024);
    for i in 0..1024usize {
        h.insert(Side::Clean, (i as u64, 0), i);
    }
    let mut stamp = 10_000u64;
    bench("dual_heap_update_reposition", 1_000_000, || {
        stamp += 1;
        h.update((stamp % 1024) as usize, (stamp, stamp));
    });
}

fn bench_partition() {
    bench("partition_insert_lookup_remove", 200, || {
        let mut p = Partition::new(0, 4096);
        for i in 0..4096u64 {
            p.insert(PageId(i * 3), i % 2 == 0, i);
        }
        for i in 0..4096u64 {
            std::hint::black_box(p.lookup(PageId(i * 3)));
        }
        for i in 0..4096u64 {
            let idx = p.lookup(PageId(i * 3)).unwrap();
            p.remove(idx);
        }
    });
}

fn bench_lru2() {
    let mut l = Lru2::new(8192);
    let mut i = 0usize;
    bench("lru2_touch", 1_000_000, || {
        i = (i + 127) % 8192;
        std::hint::black_box(l.touch(i));
    });
}

/// The LRU-2 history-prune delta (PR 8 satellite): finding the median
/// `last` stamp used to fully sort the collected stamps (O(n log n));
/// the policy now uses `select_nth_unstable` (O(n)), which picks the
/// same element — the bit-identity regression gate proves behavior is
/// unchanged, this proves the victim-path cost actually dropped.
fn bench_history_prune() {
    const N: usize = 8192;
    let stamps: Vec<u64> = (0..N as u64)
        .map(|i| (i * 2_654_435_761) % 100_000)
        .collect();
    let mid = N / 2;
    let sort_ns = bench("hist_prune_median_sort", 2_000, || {
        let mut lasts = stamps.clone();
        lasts.sort_unstable();
        std::hint::black_box(lasts[mid]);
    });
    let nth_ns = bench("hist_prune_median_select_nth", 2_000, || {
        let mut lasts = stamps.clone();
        let (_, &mut median, _) = lasts.select_nth_unstable(mid);
        std::hint::black_box(median);
    });
    // Both must select the same median, and the O(n) path must win.
    let mut a = stamps.clone();
    a.sort_unstable();
    let mut b = stamps.clone();
    let (_, &mut m, _) = b.select_nth_unstable(mid);
    assert_eq!(a[mid], m, "select_nth picked a different median than sort");
    assert!(
        nth_ns < sort_ns,
        "select_nth prune ({nth_ns:.0} ns) not faster than sort prune ({sort_ns:.0} ns)"
    );
    println!(
        "hist_prune delta: select_nth is {:.1}x faster than sort",
        sort_ns / nth_ns.max(1e-9)
    );
}

fn bench_ssd_manager() {
    let io = Arc::new(IoManager::new(&DeviceSetup::paper(512, 1 << 20, 1 << 16)));
    let cfg = SsdConfig::new(SsdDesign::DualWrite, 1 << 16);
    let m = SsdManager::new(cfg, io);
    let data = vec![0u8; 512];
    let mut buf = vec![0u8; 512];
    let mut clk = Clk::new();
    let mut i = 0u64;
    bench("ssd_manager_evict_hit_cycle", 200_000, || {
        i += 1;
        let pid = PageId((i * 7919) % 1_000_000);
        m.evict_page(clk.now, pid, &data, false, Locality::Random);
        m.read_page(&mut clk, pid, Locality::Random, &mut buf)
            .expect("ssd_manager_evict_hit_cycle: read_page failed");
    });
}

/// The clean-batch staging-buffer delta (ISSUE 4 satellite): gathering a
/// page used to allocate a fresh `Vec<u8>` per page; `PageBufPool`
/// recycles them. Both variants do the same page-sized fill the gather
/// path does, so the difference is purely the allocator round-trip.
fn bench_page_buf() {
    const PAGE: usize = 8192;
    let src = vec![0xA5u8; PAGE];
    bench("page_buf_alloc_fresh", 200_000, || {
        let mut buf = vec![0u8; PAGE];
        buf.copy_from_slice(&src);
        std::hint::black_box(&buf);
    });
    let pool = PageBufPool::new(PAGE, 64);
    bench("page_buf_pool_reuse", 200_000, || {
        let mut buf = pool.take();
        buf.copy_from_slice(&src);
        std::hint::black_box(&buf);
        pool.put(buf);
    });
}

fn bench_engine() {
    {
        let mut cfg = DbConfig::small_for_tests();
        cfg.db_pages = 4096;
        cfg.mem_frames = 512;
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let idx = db.create_index(&mut clk, "i", 2048);
        let mut k = 0u64;
        // Bounded key domain: inserts become upserts once the domain is
        // covered, so the tree (and its extent) stays fixed-size no matter
        // how many iterations run.
        bench("btree_upsert_get_txn", 50_000, || {
            k += 1;
            let mut txn = db.begin(&mut clk);
            txn.index_insert(idx, (k * 2_654_435_761) % 5_000, k);
            txn.index_get(idx, (k * 48_271) % 5_000);
            txn.commit();
        });
    }

    {
        let mut cfg = DbConfig::small_for_tests();
        cfg.db_pages = 1 << 12;
        cfg.mem_frames = 512;
        let db = Database::open(cfg);
        let mut clk = Clk::new();
        let h = db.create_heap(&mut clk, "t", 64, 1 << 10);
        let rec = [7u8; 64];
        // Pre-populate a bounded row set, then benchmark updates.
        let mut txn = db.begin(&mut clk);
        for _ in 0..1_000 {
            txn.heap_insert(h, &rec).unwrap();
        }
        txn.commit();
        let mut k = 0u64;
        bench("heap_update_txn", 50_000, || {
            k += 1;
            let mut txn = db.begin(&mut clk);
            let mut r = rec;
            r[0] = k as u8;
            txn.heap_update(h, k % 1_000, &r);
            txn.commit();
        });
    }
}

fn main() {
    let timer = WallTimer::start();
    bench_dual_heap();
    bench_partition();
    bench_lru2();
    bench_history_prune();
    bench_ssd_manager();
    bench_page_buf();
    bench_engine();

    let rows = RESULTS.lock().map(|r| r.clone()).unwrap_or_default();
    let total_iters: u64 = rows.iter().map(|&(_, _, n)| n).sum();
    let results = rows
        .iter()
        .map(|(name, ns, iters)| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str(name.clone())),
                ("ns_per_iter".to_string(), Json::Num(*ns)),
                ("iters".to_string(), Json::Int(*iters)),
            ])
        })
        .collect();
    let mut report = BenchReport::new("micro");
    // Microbenches have no virtual-time component; steps = iterations.
    report
        .standard(timer.secs(), 1, 0, total_iters)
        .set("results", Json::Arr(results));
    report.emit();
}
