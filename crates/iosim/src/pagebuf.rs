//! Reusable page-buffer pool for gather/flush/copy hot paths.
//!
//! Several layers stage whole pages in temporary `Vec<u8>` buffers: the
//! SSD manager's cleaner gathers up to α pages before one disk run, the
//! buffer pool snapshots victims during prefetch installs, and the
//! transaction layer captures before-images for redo diffing. Allocating
//! those buffers fresh puts an allocator round-trip on every such
//! operation (measured in `benches/micro.rs`, `page_buf_*`); this pool
//! recycles them instead.
//!
//! The pool lives in `iosim` (the workspace's base crate) so that both
//! `bufpool` and `core` can share the implementation.
//!
//! The spare list is its own innermost lock class (`spare` in
//! `lock_order.toml`): `take`/`put` acquire it only inside this module
//! and never while any other workspace lock is held.

use crate::sync::Mutex;

/// A bounded free list of page-sized byte buffers.
pub struct PageBufPool {
    page_size: usize,
    /// Recycled buffers, each exactly `page_size` bytes.
    spare: Mutex<Vec<Vec<u8>>>,
    /// Maximum buffers kept; beyond this, `put` lets them drop.
    cap: usize,
}

impl PageBufPool {
    /// A pool handing out `page_size`-byte buffers, retaining at most
    /// `cap` spares.
    pub fn new(page_size: usize, cap: usize) -> Self {
        assert!(page_size > 0);
        PageBufPool {
            page_size,
            spare: Mutex::new(Vec::new()),
            cap,
        }
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Get a `page_size`-byte buffer. Contents are unspecified — callers
    /// must fully overwrite it (every user reads a whole page into it).
    pub fn take(&self) -> Vec<u8> {
        let recycled = {
            let mut s = self.spare.lock();
            s.pop()
        };
        recycled.unwrap_or_else(|| vec![0u8; self.page_size])
    }

    /// Return a buffer to the pool. Wrong-sized buffers (callers that
    /// truncated or grew it) and overflow beyond `cap` are dropped.
    pub fn put(&self, buf: Vec<u8>) {
        if buf.len() != self.page_size {
            return;
        }
        let mut s = self.spare.lock();
        if s.len() < self.cap {
            s.push(buf);
        }
    }

    /// Borrow a buffer as a scoped lease that returns itself to the
    /// pool on drop. Contents are unspecified, as with [`take`].
    ///
    /// [`take`]: PageBufPool::take
    pub fn lease(&self) -> PageLease<'_> {
        PageLease {
            pool: self,
            buf: Some(self.take()),
        }
    }

    /// Like [`lease`], but the buffer is zero-filled — for callers that
    /// serve fresh/unwritten pages and must expose all-zero bytes.
    ///
    /// [`lease`]: PageBufPool::lease
    pub fn lease_zeroed(&self) -> PageLease<'_> {
        let mut l = self.lease();
        l.as_mut_slice().fill(0);
        l
    }

    /// Spare buffers currently retained (tests and metrics).
    pub fn spares(&self) -> usize {
        self.spare.lock().len()
    }
}

/// A scoped loan of one page buffer; returns it to the pool on drop.
pub struct PageLease<'a> {
    pool: &'a PageBufPool,
    buf: Option<Vec<u8>>,
}

impl PageLease<'_> {
    pub fn as_slice(&self) -> &[u8] {
        self.buf
            .as_deref()
            .expect("lease buffer present until drop")
    }

    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        self.buf
            .as_deref_mut()
            .expect("lease buffer present until drop")
    }

    /// Detach the buffer from the lease, keeping it past the scope.
    /// The caller owns it and may `put` it back explicitly.
    pub fn into_inner(mut self) -> Vec<u8> {
        self.buf.take().expect("lease buffer present until drop")
    }
}

impl std::ops::Deref for PageLease<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for PageLease<'_> {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.as_mut_slice()
    }
}

impl Drop for PageLease<'_> {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.put(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_recycles_allocations() {
        let pool = PageBufPool::new(512, 4);
        let a = pool.take();
        assert_eq!(a.len(), 512);
        pool.put(a);
        assert_eq!(pool.spares(), 1);
        let b = pool.take();
        assert_eq!(b.len(), 512);
        assert_eq!(pool.spares(), 0);
        pool.put(b);
        assert_eq!(pool.spares(), 1);
    }

    #[test]
    fn cap_bounds_retention() {
        let pool = PageBufPool::new(64, 2);
        let bufs: Vec<_> = (0..5).map(|_| pool.take()).collect();
        for b in bufs {
            pool.put(b);
        }
        assert_eq!(pool.spares(), 2);
    }

    #[test]
    fn wrong_size_buffers_are_dropped() {
        let pool = PageBufPool::new(64, 2);
        pool.put(vec![0u8; 63]);
        pool.put(Vec::new());
        assert_eq!(pool.spares(), 0);
    }

    #[test]
    fn lease_returns_buffer_on_drop() {
        let pool = PageBufPool::new(32, 2);
        {
            let mut l = pool.lease();
            l.as_mut_slice()[0] = 0xAB;
            assert_eq!(pool.spares(), 0);
        }
        assert_eq!(pool.spares(), 1);
        let z = pool.lease_zeroed();
        assert!(z.iter().all(|&b| b == 0), "recycled lease is re-zeroed");
    }

    #[test]
    fn lease_into_inner_detaches() {
        let pool = PageBufPool::new(16, 2);
        let buf = pool.lease().into_inner();
        assert_eq!(buf.len(), 16);
        assert_eq!(pool.spares(), 0);
        pool.put(buf);
        assert_eq!(pool.spares(), 1);
    }
}
