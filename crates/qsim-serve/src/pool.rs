//! The state-buffer pool: size-bucketed recycling of amplitude
//! allocations.
//!
//! Allocating and fault-zeroing the state vector dominates per-job setup
//! at service scale — a 30-qubit single-precision job touches 8 GiB
//! before the first gate runs. The pool keeps the allocations of finished
//! jobs bucketed by `(precision, length)`; a same-sized successor adopts
//! one through `RunContext::reuse_buffer` and pays only a memset. Hit and
//! miss counts feed the service's `metrics` verb, which is how the bench
//! harness demonstrates the warm-pool speedup.
//!
//! Recency discipline inside a bucket:
//!
//! - [`StateBufferPool::acquire`] hands back the **most recently
//!   released** buffer (MRU) — the one whose pages are most likely still
//!   resident in cache and the TLB.
//! - a release into a full bucket evicts the **least recently used**
//!   buffer (LRU) rather than dropping the incoming, still-warm one.
//!
//! Per-bucket hit/miss/occupancy counters back the `metrics` verb's
//! `buffer_pool.buckets` array and the worker size-affinity heuristic.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

use qsim_core::lockorder::Mutex;
use qsim_core::types::{Cplx, Float, Precision};
use qsim_core::AlignedAmps;

/// Hit/miss/occupancy counters, snapshot via [`StateBufferPool::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Acquisitions served from a recycled buffer.
    pub hits: u64,
    /// Acquisitions that fell through to a fresh allocation.
    pub misses: u64,
    /// Buffers currently parked in the pool.
    pub pooled_buffers: u64,
    /// Bytes currently parked in the pool.
    pub pooled_bytes: u64,
    /// Buffers dropped by LRU eviction from full buckets.
    pub evicted: u64,
}

impl PoolStats {
    /// Hits over all acquisitions (0 when nothing was acquired yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters for one `(precision, length)` bucket, the rows of the
/// `metrics` verb's `buffer_pool.buckets` array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketStats {
    /// Amplitude precision of the bucket's buffers.
    pub precision: Precision,
    /// Amplitude count of the bucket's buffers.
    pub len: usize,
    /// Buffers currently parked in this bucket.
    pub pooled: u64,
    /// Bytes currently parked in this bucket.
    pub pooled_bytes: u64,
    /// Acquisitions this bucket served warm.
    pub hits: u64,
    /// Acquisitions of this shape that missed.
    pub misses: u64,
    /// Buffers this bucket dropped by LRU eviction.
    pub evicted: u64,
}

/// One bucket: parked buffers in release order (front = LRU, back = MRU)
/// plus its lifetime counters. Counters survive the bucket draining to
/// empty.
#[derive(Debug)]
struct Bucket<F> {
    parked: VecDeque<AlignedAmps<F>>,
    hits: u64,
    misses: u64,
    evicted: u64,
}

impl<F> Default for Bucket<F> {
    fn default() -> Self {
        Bucket { parked: VecDeque::new(), hits: 0, misses: 0, evicted: 0 }
    }
}

/// One precision's buckets: amplitude length → parked buffers.
#[derive(Debug)]
pub struct TypedPool<F> {
    buckets: Mutex<HashMap<usize, Bucket<F>>>,
}

impl<F: Float> Default for TypedPool<F> {
    fn default() -> Self {
        TypedPool { buckets: Mutex::new("qsim-serve::pool::TypedPool.buckets", HashMap::new()) }
    }
}

impl<F: Float> TypedPool<F> {
    fn bucket_stats(&self, out: &mut Vec<BucketStats>) {
        let buckets = self.buckets.lock();
        for (&len, bucket) in buckets.iter() {
            out.push(BucketStats {
                precision: F::PRECISION,
                len,
                pooled: bucket.parked.len() as u64,
                pooled_bytes: bucket.parked.len() as u64
                    * (len * std::mem::size_of::<Cplx<F>>()) as u64,
                hits: bucket.hits,
                misses: bucket.misses,
                evicted: bucket.evicted,
            });
        }
    }
}

/// Selects the typed sub-pool for a scalar type — the trick that lets
/// `StateBufferPool` hold `f32` and `f64` buffers behind one handle while
/// workers stay fully monomorphized.
pub trait PoolSlot: Float {
    /// The sub-pool holding buffers of this precision.
    fn typed(pool: &StateBufferPool) -> &TypedPool<Self>;
}

impl PoolSlot for f32 {
    fn typed(pool: &StateBufferPool) -> &TypedPool<f32> {
        &pool.f32_pool
    }
}

impl PoolSlot for f64 {
    fn typed(pool: &StateBufferPool) -> &TypedPool<f64> {
        &pool.f64_pool
    }
}

/// A thread-safe pool of recycled state-vector allocations, bucketed by
/// precision and amplitude count.
#[derive(Debug)]
pub struct StateBufferPool {
    f32_pool: TypedPool<f32>,
    f64_pool: TypedPool<f64>,
    hits: AtomicU64,
    misses: AtomicU64,
    pooled_buffers: AtomicU64,
    pooled_bytes: AtomicU64,
    evicted: AtomicU64,
    /// Cap on parked buffers per `(precision, length)` bucket; a release
    /// into a full bucket evicts the LRU buffer (bounds idle memory).
    max_per_bucket: usize,
}

/// Default cap on parked buffers per bucket.
pub const DEFAULT_MAX_PER_BUCKET: usize = 8;

impl StateBufferPool {
    /// An empty pool with the default per-bucket cap.
    pub fn new() -> Self {
        Self::with_max_per_bucket(DEFAULT_MAX_PER_BUCKET)
    }

    /// An empty pool keeping at most `max_per_bucket` buffers per
    /// `(precision, length)` bucket.
    pub fn with_max_per_bucket(max_per_bucket: usize) -> Self {
        StateBufferPool {
            f32_pool: TypedPool::default(),
            f64_pool: TypedPool::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            pooled_buffers: AtomicU64::new(0),
            pooled_bytes: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            max_per_bucket,
        }
    }

    /// Take a recycled buffer of exactly `len` amplitudes, or `None` on a
    /// pool miss (the caller allocates fresh). Counts the hit/miss. The
    /// buffer handed back is the most recently released one — the one
    /// most likely still cache-warm.
    pub fn acquire<F: PoolSlot>(&self, len: usize) -> Option<AlignedAmps<F>> {
        let mut buckets = F::typed(self).buckets.lock();
        let bucket = buckets.entry(len).or_default();
        match bucket.parked.pop_back() {
            Some(buf) => {
                bucket.hits += 1;
                drop(buckets);
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.pooled_buffers.fetch_sub(1, Ordering::Relaxed);
                self.pooled_bytes.fetch_sub(Self::bytes_of(&buf), Ordering::Relaxed);
                Some(buf)
            }
            None => {
                bucket.misses += 1;
                drop(buckets);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Park a finished job's buffer for reuse. A release into a full
    /// bucket evicts (frees) the least recently used buffer and keeps the
    /// incoming, cache-warm one.
    pub fn release<F: PoolSlot>(&self, buf: AlignedAmps<F>) {
        let bytes = Self::bytes_of(&buf);
        let len = buf.len();
        let mut buckets = F::typed(self).buckets.lock();
        let bucket = buckets.entry(len).or_default();
        let evicted = if bucket.parked.len() >= self.max_per_bucket.max(1) {
            bucket.evicted += 1;
            bucket.parked.pop_front()
        } else {
            None
        };
        bucket.parked.push_back(buf);
        let net_parked = evicted.is_none();
        drop(buckets);
        if net_parked {
            self.pooled_buffers.fetch_add(1, Ordering::Relaxed);
            self.pooled_bytes.fetch_add(bytes, Ordering::Relaxed);
        } else {
            // Same-shaped buffer swapped out: counts are unchanged.
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            pooled_buffers: self.pooled_buffers.load(Ordering::Relaxed),
            pooled_bytes: self.pooled_bytes.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }

    /// Per-bucket counter snapshot, sorted by (precision, length) so the
    /// `metrics` verb's output is deterministic.
    pub fn bucket_stats(&self) -> Vec<BucketStats> {
        let mut out = Vec::new();
        self.f32_pool.bucket_stats(&mut out);
        self.f64_pool.bucket_stats(&mut out);
        out.sort_by_key(|b| (b.precision.amplitude_bytes(), b.len));
        out
    }

    fn bytes_of<F: Float>(buf: &[Cplx<F>]) -> u64 {
        std::mem::size_of_val(buf) as u64
    }
}

impl Default for StateBufferPool {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zeroed<F: Float>(len: usize) -> AlignedAmps<F> {
        AlignedAmps::try_zeroed(len).expect("a small buffer")
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let pool = StateBufferPool::new();
        assert!(pool.acquire::<f32>(1 << 10).is_none(), "cold pool misses");
        let buf = zeroed::<f32>(1 << 10);
        let addr = buf.as_ptr();
        pool.release(buf);

        let got = pool.acquire::<f32>(1 << 10).expect("warm pool hits");
        assert_eq!(got.as_ptr(), addr, "must hand back the same allocation");
        assert!(got.as_ptr().addr().is_multiple_of(qsim_core::amps::ALIGN));
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn buckets_are_keyed_by_length_and_precision() {
        let pool = StateBufferPool::new();
        pool.release(zeroed::<f32>(16));
        assert!(pool.acquire::<f32>(32).is_none(), "different length misses");
        assert!(pool.acquire::<f64>(16).is_none(), "different precision misses");
        assert!(pool.acquire::<f32>(16).is_some());
    }

    #[test]
    fn bucket_cap_bounds_idle_memory() {
        let pool = StateBufferPool::with_max_per_bucket(2);
        for _ in 0..5 {
            pool.release(zeroed::<f64>(8));
        }
        let stats = pool.stats();
        assert_eq!(stats.pooled_buffers, 2);
        assert_eq!(stats.pooled_bytes, 2 * 8 * 16);
        assert_eq!(stats.evicted, 3, "over-cap releases evict instead of dropping");
    }

    #[test]
    fn occupancy_accounting_tracks_acquires() {
        let pool = StateBufferPool::new();
        pool.release(zeroed::<f32>(64));
        assert_eq!(pool.stats().pooled_bytes, 64 * 8);
        let _buf = pool.acquire::<f32>(64).unwrap();
        let stats = pool.stats();
        assert_eq!((stats.pooled_buffers, stats.pooled_bytes), (0, 0));
    }

    #[test]
    fn acquire_is_mru_eviction_is_lru() {
        let pool = StateBufferPool::with_max_per_bucket(2);
        let a = zeroed::<f32>(32);
        let b = zeroed::<f32>(32);
        let c = zeroed::<f32>(32);
        let (pa, pb, pc) = (a.as_ptr(), b.as_ptr(), c.as_ptr());
        pool.release(a);
        pool.release(b);
        // Full bucket: releasing `c` must evict `a` (the LRU), not `c`.
        pool.release(c);

        let first = pool.acquire::<f32>(32).expect("bucket holds two buffers");
        assert_eq!(first.as_ptr(), pc, "acquire must return the MRU buffer");
        let second = pool.acquire::<f32>(32).expect("one buffer left");
        assert_eq!(second.as_ptr(), pb);
        assert_ne!(second.as_ptr(), pa, "LRU buffer must have been evicted");
        assert!(pool.acquire::<f32>(32).is_none());
    }

    #[test]
    fn bucket_stats_snapshot_per_shape() {
        let pool = StateBufferPool::new();
        pool.release(zeroed::<f32>(16));
        pool.release(zeroed::<f32>(16));
        pool.release(zeroed::<f64>(16));
        let _ = pool.acquire::<f32>(16);
        let _ = pool.acquire::<f32>(64); // miss in a fresh bucket

        let stats = pool.bucket_stats();
        assert_eq!(stats.len(), 3);
        let f32_16 = stats
            .iter()
            .find(|b| b.precision == Precision::Single && b.len == 16)
            .expect("f32/16 bucket");
        assert_eq!((f32_16.pooled, f32_16.hits, f32_16.misses), (1, 1, 0));
        assert_eq!(f32_16.pooled_bytes, 16 * 8);
        let f64_16 = stats
            .iter()
            .find(|b| b.precision == Precision::Double && b.len == 16)
            .expect("f64/16 bucket");
        assert_eq!((f64_16.pooled, f64_16.hits), (1, 0));
        let f32_64 = stats
            .iter()
            .find(|b| b.precision == Precision::Single && b.len == 64)
            .expect("f32/64 bucket");
        assert_eq!((f32_64.pooled, f32_64.misses), (0, 1));
    }
}
