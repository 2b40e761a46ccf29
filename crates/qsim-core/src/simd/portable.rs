//! Portable 4-lane reference backend.
//!
//! Implements [`LaneVec`] with plain arrays and scalar arithmetic so the
//! generic tile kernel — including the lane-level Low path with its
//! permutes and per-lane coefficient tables — can be exercised on any
//! architecture and under miri. Dispatch never selects it for production
//! use (the scalar kernels in [`crate::kernels`] are faster than emulated
//! lanes); it exists to pin down the kernel's semantics.

use crate::types::{Cplx, Float};

use super::kernel::LaneVec;

/// Four scalar lanes of `F`, emulated with an array.
#[derive(Clone, Copy)]
pub(crate) struct P4<F: Float>([F; 4]);

impl<F: Float> LaneVec<F> for P4<F> {
    const LANES: usize = 4;
    // The AVX-512 block shapes, so miri walks the widest instances.
    const ACC_PAIRS: usize = 8;
    const MAX_ROWS: usize = 4;

    type Perm = [u8; 4];

    fn make_perm(indices: &[usize]) -> Self::Perm {
        let mut p = [0u8; 4];
        for (out, &src) in p.iter_mut().zip(indices) {
            debug_assert!(src < 4);
            *out = src as u8;
        }
        p
    }

    fn from_fn(lane: impl FnMut(usize) -> F) -> Self {
        P4(std::array::from_fn(lane))
    }

    fn zero() -> Self {
        P4([F::ZERO; 4])
    }

    unsafe fn load_re_im(ptr: *const Cplx<F>) -> (Self, Self) {
        let mut re = [F::ZERO; 4];
        let mut im = [F::ZERO; 4];
        for l in 0..4 {
            // SAFETY: caller guarantees `ptr` is valid for `LANES` reads.
            let a = unsafe { *ptr.add(l) };
            re[l] = a.re;
            im[l] = a.im;
        }
        (P4(re), P4(im))
    }

    unsafe fn store_re_im(re: Self, im: Self, ptr: *mut Cplx<F>) {
        for l in 0..4 {
            // SAFETY: caller guarantees `ptr` is valid for `LANES` writes.
            unsafe { *ptr.add(l) = Cplx { re: re.0[l], im: im.0[l] } };
        }
    }

    unsafe fn permute(self, perm: &Self::Perm) -> Self {
        let mut v = [F::ZERO; 4];
        for (slot, &src) in v.iter_mut().zip(perm) {
            *slot = self.0[src as usize];
        }
        P4(v)
    }

    unsafe fn mul_add(self, a: Self, b: Self) -> Self {
        let mut v = self.0;
        for (l, slot) in v.iter_mut().enumerate() {
            *slot += a.0[l] * b.0[l];
        }
        P4(v)
    }

    unsafe fn mul_sub(self, a: Self, b: Self) -> Self {
        let mut v = self.0;
        for (l, slot) in v.iter_mut().enumerate() {
            *slot -= a.0[l] * b.0[l];
        }
        P4(v)
    }

    unsafe fn mul(a: Self, b: Self) -> Self {
        let mut v = [F::ZERO; 4];
        for (l, slot) in v.iter_mut().enumerate() {
            *slot = a.0[l] * b.0[l];
        }
        P4(v)
    }
}
