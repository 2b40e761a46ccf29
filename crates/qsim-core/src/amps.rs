//! The one owner of amplitude storage, [`AlignedAmps`] (DESIGN.md §5.1
//! "State buffers"). It derefs to `[Cplx<F>]`, so kernels never see it, and
//! starts on an [`ALIGN`]-byte boundary, so no 64-byte tile load or store of a
//! lane kernel straddles two cache lines. A fresh buffer is already zero:
//! from [`MAP_MIN_BYTES`] up on x86-64 Linux a `MAP_POPULATE` mapping, whose
//! pages the kernel zeroes and maps inside the one call (no fill, no fault
//! per page); below that, and always under miri, an `alloc_zeroed` block.

use std::alloc::{self, Layout};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::ptr::NonNull;

use crate::types::{Cplx, Float};

/// Alignment of every buffer, in bytes: one cache line, one AVX-512 register.
pub const ALIGN: usize = 64;

/// Smallest buffer, in bytes, that is a mapping rather than a heap block:
/// 2 MiB. A fresh state this large is a one-off (one per CLI run, a service
/// pool miss) and pays for the first touch of every page: allocate, one write
/// pass and free took 0.95 ms heap against 0.38 ms mapped at 2 MiB, 17.9
/// against 8.9 ms at 32 MiB (2-vCPU Sapphire Rapids VM, glibc). Smaller states
/// are what a service churns through, and glibc hands a freed block back with
/// its pages resident (2 MiB over and over: 0.14 against 0.40 ms) — up to its
/// 32 MiB mmap ceiling, past which the heap too faults every page every time.
pub const MAP_MIN_BYTES: usize = 2 << 20;

/// `len` amplitudes at [`ALIGN`]-byte alignment, uniquely owned.
pub struct AlignedAmps<F> {
    ptr: NonNull<Cplx<F>>,
    len: usize,
}

// SAFETY: it owns its buffer outright, as a `Box<[Cplx<F>]>` does.
unsafe impl<F: Send> Send for AlignedAmps<F> {}
// SAFETY: `&AlignedAmps` gives out nothing but `&[Cplx<F>]`.
unsafe impl<F: Sync> Sync for AlignedAmps<F> {}

/// `len` amplitudes at [`ALIGN`]; `None` past `isize::MAX` bytes.
fn layout<F>(len: usize) -> Option<Layout> {
    Layout::array::<Cplx<F>>(len).ok()?.align_to(ALIGN).ok()
}

impl<F: Float> AlignedAmps<F> {
    /// `len ≥ 1` zero amplitudes, or `None` when the host cannot provide
    /// them — the caller decides whether that is fatal.
    pub fn try_zeroed(len: usize) -> Option<Self> {
        assert!(len > 0, "an amplitude buffer holds at least one amplitude");
        let layout = layout::<F>(len)?;
        let raw = match layout.size() {
            #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
            bytes if bytes >= MAP_MIN_BYTES => map::populated(bytes),
            // SAFETY: the size is non-zero: `len ≥ 1`, a `Cplx<F>` is 8 or 16 B.
            _ => unsafe { alloc::alloc_zeroed(layout) },
        };
        Some(AlignedAmps { ptr: NonNull::new(raw.cast())?, len })
    }
}

impl<F> Drop for AlignedAmps<F> {
    fn drop(&mut self) {
        // The constructor checked this layout, so it exists.
        let Some(layout) = layout::<F>(self.len) else { return };
        let raw = self.ptr.as_ptr().cast::<u8>();
        match layout.size() {
            #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
            // SAFETY: a buffer this size is a mapping of this size; not used again.
            bytes if bytes >= MAP_MIN_BYTES => unsafe { map::unmap(raw, bytes) },
            // SAFETY: it came from `alloc_zeroed` with this layout; not used again.
            _ => unsafe { alloc::dealloc(raw, layout) },
        }
    }
}

impl<F> Deref for AlignedAmps<F> {
    type Target = [Cplx<F>];

    fn deref(&self) -> &[Cplx<F>] {
        // SAFETY: `len` amplitudes, owned and initialised (zeroed at birth:
        // all-zero bytes are `+0.0` for the sealed `Float`, f32 and f64).
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl<F> DerefMut for AlignedAmps<F> {
    fn deref_mut(&mut self) -> &mut [Cplx<F>] {
        // SAFETY: as in `deref`, borrowed uniquely for `&mut self`'s lifetime.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl<F: Float> Clone for AlignedAmps<F> {
    fn clone(&self) -> Self {
        Self::from(&**self)
    }
}

/// A copy in a fresh buffer; panics if the host cannot provide one.
impl<F: Float> From<&[Cplx<F>]> for AlignedAmps<F> {
    fn from(amps: &[Cplx<F>]) -> Self {
        let mut out = Self::try_zeroed(amps.len()).expect("cannot allocate an amplitude buffer");
        out.copy_from_slice(amps);
        out
    }
}

impl<F: Float> From<Vec<Cplx<F>>> for AlignedAmps<F> {
    fn from(amps: Vec<Cplx<F>>) -> Self {
        Self::from(amps.as_slice())
    }
}

impl<F: PartialEq> PartialEq for AlignedAmps<F> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<F: fmt::Debug> fmt::Debug for AlignedAmps<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Private anonymous mappings, populated at birth (x86-64 Linux flag values).
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
mod map {
    use std::ffi::c_void;

    extern "C" {
        fn mmap(a: *mut c_void, n: usize, prot: i32, flags: i32, fd: i32, o: i64) -> *mut c_void;
        fn munmap(a: *mut c_void, n: usize) -> i32;
    }

    /// `bytes` of zeroed, resident, page-aligned memory, or null when the
    /// kernel refuses (`MAP_FAILED`).
    pub fn populated(bytes: usize) -> *mut u8 {
        // PROT_READ | PROT_WRITE; MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE.
        let (prot, flags) = (0x1 | 0x2, 0x02 | 0x20 | 0x8000);
        // SAFETY: a new anonymous mapping, at an address the kernel picks,
        // aliases no memory this program uses.
        let p = unsafe { mmap(std::ptr::null_mut(), bytes, prot, flags, -1, 0) };
        if p.addr() == usize::MAX {
            std::ptr::null_mut()
        } else {
            p.cast()
        }
    }

    /// # Safety
    ///
    /// `ptr` and `bytes` are a mapping [`populated`] made, not used again.
    pub unsafe fn unmap(ptr: *mut u8, bytes: usize) {
        // SAFETY: the caller's contract; unmapping a whole mapping of ours
        // cannot fail.
        let _ = unsafe { munmap(ptr.cast(), bytes) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAPS: bool = cfg!(all(target_os = "linux", target_arch = "x86_64", not(miri)));

    fn aligned<F>(amps: &[Cplx<F>], to: usize) -> bool {
        amps.as_ptr().addr().is_multiple_of(to)
    }

    #[test]
    fn fresh_buffers_are_aligned_zeros_on_both_paths() {
        // 2^6 amplitudes is a heap block; under miri both sizes are.
        let small = AlignedAmps::<f32>::try_zeroed(1 << 6).unwrap();
        assert!(aligned(&small, ALIGN));
        assert!(small.iter().all(|a| a.re.to_bits() == 0 && a.im.to_bits() == 0));

        let len = MAP_MIN_BYTES / std::mem::size_of::<Cplx<f64>>();
        let big = AlignedAmps::<f64>::try_zeroed(len).unwrap();
        assert_eq!(big.len(), len);
        assert!(aligned(&big, if MAPS { 4096 } else { ALIGN }));
        assert!(big.iter().all(|a| a.re.to_bits() == 0 && a.im.to_bits() == 0));
    }

    /// Heap blocks are freed on drop: the miri job runs this and fails on
    /// a leak.
    #[test]
    fn clone_is_an_aligned_equal_copy_on_both_paths() {
        for len in [3, MAP_MIN_BYTES / 8] {
            let mut amps = AlignedAmps::<f32>::try_zeroed(len).unwrap();
            amps[len - 1] = Cplx::new(0.5, -0.25);
            let copy = amps.clone();
            assert_ne!(copy.as_ptr(), amps.as_ptr());
            assert!(aligned(&copy, ALIGN));
            assert_eq!(copy, amps);
        }
        let from_vec = AlignedAmps::from(vec![Cplx::new(1.0f64, 2.0); 5]);
        assert!(aligned(&from_vec, ALIGN));
        assert_eq!(&*from_vec, &[Cplx::new(1.0, 2.0); 5][..]);
    }

    /// Resident set of this process, KiB.
    fn rss_kib() -> u64 {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    }

    /// A mapping is resident from birth and its pages go back on drop. No
    /// other test of this crate holds more than a few MiB at a time.
    #[test]
    fn a_mapping_is_resident_at_birth_and_released_on_drop() {
        if !MAPS {
            return;
        }
        let before = rss_kib();
        let amps = AlignedAmps::<f32>::try_zeroed(1 << 23).unwrap(); // 64 MiB
        let alive = rss_kib();
        drop(amps);
        let after = rss_kib();
        assert!(alive >= before + (48 << 10), "populated: {before} -> {alive} KiB");
        assert!(alive >= after + (48 << 10), "released: {alive} -> {after} KiB");
    }

    #[test]
    #[cfg_attr(miri, ignore = "asks the interpreter for petabytes")]
    fn unmappable_lengths_are_errors() {
        // 2^58 bytes: past any address space, refused whatever the
        // overcommit policy.
        assert!(AlignedAmps::<f32>::try_zeroed(1 << 55).is_none());
        // The byte count overflows before any allocator is asked.
        assert!(AlignedAmps::<f64>::try_zeroed(usize::MAX / 2).is_none());
    }
}
