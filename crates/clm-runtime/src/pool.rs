//! Pinned host staging-buffer pool.
//!
//! Every micro-batch gather lands in a pinned host buffer before the DMA
//! engine ships it to the GPU (§5.2).  Allocating pinned memory is expensive
//! and its footprint is what Table 6 reports, so a real runtime keeps a
//! small pool of recycled buffers — one per prefetch slot — instead of
//! allocating per micro-batch.  [`PinnedBufferPool`] reproduces that:
//! buffers are acquired for one micro-batch's staged rows, released once its
//! compute has consumed them, and reused for later gathers.  The pool tracks
//! the accounting a capacity planner needs: how many buffers/bytes were ever
//! live at once (the high-water mark) and how often an acquire was served by
//! recycling rather than a fresh allocation.

use gs_core::gaussian::NON_CRITICAL_FLOATS;

/// Bytes of one staged row (the non-critical attributes of one Gaussian).
pub const ROW_BYTES: usize = NON_CRITICAL_FLOATS * 4;

pub use clm_core::StagingBuffer;

/// Usage statistics of a [`PinnedBufferPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Buffers currently checked out.
    pub outstanding: usize,
    /// Most buffers ever checked out simultaneously.
    pub high_water_buffers: usize,
    /// Peak pinned bytes owned by the pool (checked-out + free capacity).
    pub high_water_bytes: u64,
    /// Total acquire calls.
    pub acquires: u64,
    /// Acquires served by recycling a previously released buffer.
    pub recycled: u64,
    /// Acquires that had to allocate a fresh buffer.
    pub allocated: u64,
    /// Times the pool was re-leased for a model resize
    /// ([`PinnedBufferPool::reprovision`]).
    pub reprovisions: u64,
    /// Acquires denied by injected exhaustion
    /// ([`PinnedBufferPool::note_denied`]).
    pub denied: u64,
}

impl PoolStats {
    /// Fraction of acquires served from the free list (0 when none yet).
    pub fn recycle_rate(&self) -> f64 {
        if self.acquires == 0 {
            0.0
        } else {
            self.recycled as f64 / self.acquires as f64
        }
    }
}

/// A recycling pool of pinned host staging buffers with high-water
/// accounting.
#[derive(Debug, Default)]
pub struct PinnedBufferPool {
    free: Vec<StagingBuffer>,
    outstanding: usize,
    outstanding_bytes: u64,
    free_bytes: u64,
    stats: PoolStats,
}

impl PinnedBufferPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one denied acquisition injected from outside the pool (a
    /// fault plan simulating exhaustion without the pool being full).
    pub fn note_denied(&mut self) {
        self.stats.denied += 1;
    }

    /// Checks out a buffer with capacity for at least `min_rows` rows,
    /// recycling a released buffer when one is available.  The returned
    /// buffer is empty (length 0).
    pub fn acquire(&mut self, min_rows: usize) -> StagingBuffer {
        self.stats.acquires += 1;
        let mut buf = if let Some(mut buf) = self.free.pop() {
            self.stats.recycled += 1;
            self.free_bytes -= (buf.capacity() * ROW_BYTES) as u64;
            buf.clear();
            buf
        } else {
            self.stats.allocated += 1;
            StagingBuffer::new()
        };
        if buf.capacity() < min_rows {
            buf.reserve(min_rows - buf.len());
        }
        self.outstanding += 1;
        self.outstanding_bytes += (buf.capacity() * ROW_BYTES) as u64;
        self.stats.outstanding = self.outstanding;
        self.stats.high_water_buffers = self.stats.high_water_buffers.max(self.outstanding);
        self.stats.high_water_bytes = self
            .stats
            .high_water_bytes
            .max(self.outstanding_bytes + self.free_bytes);
        buf
    }

    /// Returns a buffer to the pool for reuse.
    ///
    /// # Panics
    /// Panics if more buffers are released than were acquired.
    pub fn release(&mut self, buf: StagingBuffer) {
        assert!(self.outstanding > 0, "release without matching acquire");
        self.outstanding -= 1;
        // The buffer may have grown while checked out; saturate rather than
        // underflow if its capacity now exceeds what acquire() recorded.
        self.outstanding_bytes = self
            .outstanding_bytes
            .saturating_sub((buf.capacity() * ROW_BYTES) as u64);
        self.free_bytes += (buf.capacity() * ROW_BYTES) as u64;
        self.free.push(buf);
        self.stats.outstanding = self.outstanding;
        // Capacity may have grown while checked out (a reserve inside the
        // gather); the pool's owned footprint can therefore peak on release.
        self.stats.high_water_bytes = self
            .stats
            .high_water_bytes
            .max(self.outstanding_bytes + self.free_bytes);
    }

    /// Re-leases the pool for a densification resize: every **free** buffer
    /// is regrown to hold at least `min_rows` staged rows, so the first
    /// post-resize gathers run from right-sized pinned allocations instead
    /// of growing mid-lane (a pinned realloc inside a gather is exactly the
    /// stall the pool exists to avoid).  Outstanding buffers are untouched —
    /// the caller drains its lanes before resizing, so at a boundary there
    /// are none.  The owned-footprint high-water mark accounts for any
    /// growth, and the event is counted in [`PoolStats::reprovisions`].
    pub fn reprovision(&mut self, min_rows: usize) {
        self.stats.reprovisions += 1;
        for buf in &mut self.free {
            if buf.capacity() < min_rows {
                self.free_bytes -= (buf.capacity() * ROW_BYTES) as u64;
                buf.clear();
                buf.reserve(min_rows);
                self.free_bytes += (buf.capacity() * ROW_BYTES) as u64;
            }
        }
        self.stats.high_water_bytes = self
            .stats
            .high_water_bytes
            .max(self.outstanding_bytes + self.free_bytes);
    }

    /// Current usage statistics.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Pinned bytes currently owned by the pool (checked-out + free).
    pub fn owned_bytes(&self) -> u64 {
        self.outstanding_bytes + self.free_bytes
    }

    /// Number of buffers currently available for recycling.
    pub fn free_buffers(&self) -> usize {
        self.free.len()
    }
}

/// The simulated engine's staging: every buffer a walk stages through is
/// leased from (and returned to) the pool, so its accounting sees them all.
impl clm_core::StagingSource for PinnedBufferPool {
    fn acquire(&mut self, rows: usize) -> StagingBuffer {
        PinnedBufferPool::acquire(self, rows)
    }

    fn release(&mut self, buf: StagingBuffer) {
        PinnedBufferPool::release(self, buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_recycles() {
        let mut pool = PinnedBufferPool::new();
        let mut a = pool.acquire(100);
        assert!(a.capacity() >= 100);
        a.push([0.5; NON_CRITICAL_FLOATS]);
        pool.release(a);
        // The next acquire reuses the buffer: no fresh allocation, contents
        // cleared.
        let b = pool.acquire(50);
        assert!(b.is_empty());
        assert!(b.capacity() >= 100, "recycled buffer keeps its capacity");
        let stats = pool.stats();
        assert_eq!(stats.acquires, 2);
        assert_eq!(stats.allocated, 1);
        assert_eq!(stats.recycled, 1);
        assert!((stats.recycle_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn high_water_tracks_concurrent_buffers() {
        let mut pool = PinnedBufferPool::new();
        let a = pool.acquire(10);
        let b = pool.acquire(20);
        let c = pool.acquire(30);
        assert_eq!(pool.stats().outstanding, 3);
        assert_eq!(pool.stats().high_water_buffers, 3);
        pool.release(a);
        pool.release(b);
        let d = pool.acquire(5);
        // Still only ever 3 live at once.
        assert_eq!(pool.stats().high_water_buffers, 3);
        assert_eq!(pool.stats().outstanding, 2);
        pool.release(c);
        pool.release(d);
        assert_eq!(pool.stats().outstanding, 0);
        assert_eq!(pool.free_buffers(), 3);
    }

    #[test]
    fn high_water_bytes_covers_owned_capacity() {
        let mut pool = PinnedBufferPool::new();
        let a = pool.acquire(64);
        let owned = pool.owned_bytes();
        assert!(owned >= (64 * ROW_BYTES) as u64);
        pool.release(a);
        // Released buffers still count toward the pool's pinned footprint.
        assert_eq!(pool.owned_bytes(), owned);
        assert!(pool.stats().high_water_bytes >= owned);
        // Re-acquiring does not grow the footprint.
        let b = pool.acquire(32);
        assert_eq!(pool.owned_bytes(), owned);
        pool.release(b);
        assert_eq!(pool.stats().high_water_bytes, owned);
    }

    #[test]
    fn reprovision_regrows_free_buffers_and_tracks_footprint() {
        let mut pool = PinnedBufferPool::new();
        let a = pool.acquire(8);
        let b = pool.acquire(8);
        pool.release(a);
        // One buffer free, one outstanding: re-leasing at a larger row
        // count must grow only the free one and count the event.
        pool.reprovision(64);
        assert_eq!(pool.stats().reprovisions, 1);
        let regrown = pool.acquire(1);
        assert!(
            regrown.capacity() >= 64,
            "free buffer re-leased at the new row count"
        );
        assert!(pool.stats().high_water_bytes >= pool.owned_bytes());
        pool.release(b);
        pool.release(regrown);
        assert_eq!(pool.stats().outstanding, 0);
        // Already-large-enough buffers are left alone.
        let owned = pool.owned_bytes();
        pool.reprovision(4);
        assert_eq!(pool.owned_bytes(), owned);
        assert_eq!(pool.stats().reprovisions, 2);
    }

    #[test]
    fn zero_row_acquire_is_fine() {
        let mut pool = PinnedBufferPool::new();
        let buf = pool.acquire(0);
        assert!(buf.is_empty());
        pool.release(buf);
        assert_eq!(pool.stats().acquires, 1);
    }

    #[test]
    #[should_panic(expected = "release without matching acquire")]
    fn unmatched_release_panics() {
        let mut pool = PinnedBufferPool::new();
        pool.release(StagingBuffer::new());
    }

    #[test]
    fn injected_denials_count_without_consuming_capacity() {
        let mut pool = PinnedBufferPool::new();
        pool.note_denied();
        pool.note_denied();
        let stats = pool.stats();
        assert_eq!(stats.denied, 2);
        assert_eq!(stats.acquires, 0);
        assert_eq!(stats.outstanding, 0);
        // The pool still serves normally afterwards.
        let buf = pool.acquire(16);
        pool.release(buf);
        assert_eq!(pool.stats().acquires, 1);
    }

    #[test]
    fn two_device_lane_groups_contending_share_one_high_water_budget() {
        // Regression guard for the sharded gather path: two device lane
        // groups draw staging buffers from one shared pool.  Two real
        // threads each hold `per_lane` buffers simultaneously (a barrier
        // forces the overlap), so the high-water mark must account for the
        // sum of both lanes' frontiers — not either lane alone — and
        // buffers released by one lane must recycle into the other.
        use std::sync::{Barrier, Mutex};

        let pool = Mutex::new(PinnedBufferPool::new());
        let barrier = Barrier::new(2);
        let per_lane = 3usize;
        let rounds = 4usize;

        std::thread::scope(|scope| {
            for lane in 0..2 {
                let pool = &pool;
                let barrier = &barrier;
                scope.spawn(move || {
                    for round in 0..rounds {
                        let mut held = Vec::with_capacity(per_lane);
                        for slot in 0..per_lane {
                            // Differing row counts per lane/slot so buffers
                            // genuinely grow and recycling is observable.
                            let rows = 16 * (lane + 1) * (slot + 1) + round;
                            held.push(pool.lock().unwrap().acquire(rows));
                        }
                        // Both lanes hold their full frontier before either
                        // releases: the contention point.
                        barrier.wait();
                        let mut pool = pool.lock().unwrap();
                        for buf in held {
                            pool.release(buf);
                        }
                        drop(pool);
                        barrier.wait();
                    }
                });
            }
        });

        let pool = pool.into_inner().unwrap();
        let stats = pool.stats();
        assert_eq!(stats.outstanding, 0, "both lanes returned everything");
        assert_eq!(stats.acquires, (2 * per_lane * rounds) as u64);
        assert_eq!(
            stats.high_water_buffers,
            2 * per_lane,
            "the barrier guarantees both frontiers were live at once: {stats:?}"
        );
        assert!(
            stats.recycled >= (2 * per_lane * (rounds - 1)) as u64,
            "later rounds must run from recycled buffers: {stats:?}"
        );
        assert_eq!(pool.free_buffers(), 2 * per_lane);
        assert!(stats.high_water_bytes >= pool.owned_bytes());
        // Zero extra copies: gathers stage straight into checked-out
        // buffers, so the only fresh
        // allocations are the ones that first raised the high-water mark —
        // every later acquire must be served by recycling.
        assert_eq!(
            stats.allocated, stats.high_water_buffers as u64,
            "extra staging buffers were allocated beyond the live frontier: {stats:?}"
        );
        assert_eq!(stats.recycled, stats.acquires - stats.allocated);
    }
}
