//! Device memory: byte reservations drawn from a capacity-tracked pool.
//!
//! The simulated GPU's kernels run on host memory, so a [`DeviceBuffer`]
//! holds no data; its reservation goes through the device's
//! [`MemoryPool`] so capacity limits and peak memory behave like
//! `hipMalloc`.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::error::GpuError;

/// Lock `m`, recovering the guard if a panicking holder poisoned it: the
/// device's locks do not poison.
pub(crate) fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Accounting for one device's memory.
#[derive(Debug)]
pub struct MemoryPool {
    capacity: u64,
    allocated: u64,
    peak: u64,
    num_allocs: u64,
}

impl MemoryPool {
    /// Pool with `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        MemoryPool { capacity, allocated: 0, peak: 0, num_allocs: 0 }
    }

    fn reserve(&mut self, bytes: u64) -> Result<(), GpuError> {
        let free = self.capacity - self.allocated;
        if bytes > free {
            return Err(GpuError::OutOfMemory { requested_bytes: bytes, free_bytes: free });
        }
        self.allocated += bytes;
        self.num_allocs += 1;
        self.peak = self.peak.max(self.allocated);
        Ok(())
    }

    fn release(&mut self, bytes: u64) {
        debug_assert!(self.allocated >= bytes, "double free or accounting bug");
        self.allocated = self.allocated.saturating_sub(bytes);
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// High-water mark.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Bytes still available.
    pub fn free(&self) -> u64 {
        self.capacity - self.allocated
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Lifetime allocation count.
    pub fn num_allocs(&self) -> u64 {
        self.num_allocs
    }

    /// Restart high-water-mark tracking from the current allocation level
    /// (so a long-lived device can report a per-job peak).
    pub fn reset_peak(&mut self) {
        self.peak = self.allocated;
    }
}

/// A device allocation (`hipMalloc` result): bytes reserved in the pool,
/// released on drop. It holds no data — kernels run on host buffers —
/// only the accounting capacity limits and peak memory need.
#[derive(Debug)]
pub struct DeviceBuffer {
    bytes: u64,
    pool: Arc<Mutex<MemoryPool>>,
}

impl DeviceBuffer {
    /// Reserve `bytes`, or fail with [`GpuError::OutOfMemory`].
    pub(crate) fn new(bytes: u64, pool: Arc<Mutex<MemoryPool>>) -> Result<Self, GpuError> {
        lock(&pool).reserve(bytes)?;
        Ok(DeviceBuffer { bytes, pool })
    }

    /// Allocation size in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for DeviceBuffer {
    fn drop(&mut self) {
        lock(&self.pool).release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(cap: u64) -> Arc<Mutex<MemoryPool>> {
        Arc::new(Mutex::new(MemoryPool::new(cap)))
    }

    #[test]
    fn peak_reset_restarts_high_water_mark() {
        let p = pool(1024);
        drop(DeviceBuffer::new(512, p.clone()).unwrap());
        assert_eq!(lock(&p).peak(), 512);
        lock(&p).reset_peak();
        assert_eq!(lock(&p).peak(), 0);
        drop(DeviceBuffer::new(128, p.clone()).unwrap());
        assert_eq!(lock(&p).peak(), 128);
    }

    #[test]
    fn alloc_and_free_accounting() {
        let p = pool(1024);
        {
            let b = DeviceBuffer::new(512, p.clone()).unwrap();
            assert_eq!(b.bytes(), 512);
            assert_eq!(lock(&p).allocated(), 512);
            assert_eq!(lock(&p).free(), 512);
        }
        assert_eq!(lock(&p).allocated(), 0);
        assert_eq!(lock(&p).peak(), 512);
        assert_eq!(lock(&p).num_allocs(), 1);
    }

    #[test]
    fn oom_is_reported_with_sizes() {
        let p = pool(100);
        let err = DeviceBuffer::new(512, p.clone()).unwrap_err();
        match err {
            GpuError::OutOfMemory { requested_bytes, free_bytes } => {
                assert_eq!(requested_bytes, 512);
                assert_eq!(free_bytes, 100);
            }
            e => panic!("wrong error {e:?}"),
        }
        // Failed allocation must not leak accounting.
        assert_eq!(lock(&p).allocated(), 0);
    }

    #[test]
    fn exact_fit_succeeds() {
        let p = pool(512);
        let b = DeviceBuffer::new(512, p.clone()).unwrap();
        assert_eq!(lock(&p).free(), 0);
        drop(b);
        assert_eq!(lock(&p).free(), 512);
    }
}
