//! AVX-512F lane backend: 16 `f32` or 8 `f64` amplitudes per tile.
//!
//! Uses `vpermt2ps`/`vpermt2pd` (two-source permutes) for the
//! deinterleave/interleave at tile boundaries and `vpermps`/`vpermpd` for
//! the lane-qubit gate permutes. Everything is AVX512F, so detection only
//! gates on that one feature.

use std::arch::x86_64::{
    __m512, __m512d, __m512i, _mm512_fmadd_pd, _mm512_fmadd_ps, _mm512_fnmadd_pd, _mm512_fnmadd_ps,
    _mm512_load_si512, _mm512_loadu_pd, _mm512_loadu_ps, _mm512_mul_pd, _mm512_mul_ps,
    _mm512_permutex2var_pd, _mm512_permutex2var_ps, _mm512_permutexvar_pd, _mm512_permutexvar_ps,
    _mm512_setzero_pd, _mm512_setzero_ps, _mm512_storeu_pd, _mm512_storeu_ps,
};
use std::ops::Range;

use crate::types::Cplx;

use super::kernel::{apply_diag_range, apply_mat_range, LaneVec};
use super::plan::{DiagPlan, MatPlan};

/// Of the 32 `zmm` registers, 16 hold a block's accumulators: 4 rows × 2
/// groups for a gate with two or more high targets, 2 × 4 with one, 1 × 8
/// with none.
const ACC_PAIRS: usize = 8;
const MAX_ROWS: usize = 4;

/// Aligned 512-bit index pattern for `vpermps`/`vpermt2ps`.
#[derive(Clone, Copy)]
#[repr(align(64))]
pub(crate) struct Idx16(pub [i32; 16]);

/// Aligned 512-bit index pattern for `vpermpd`/`vpermt2pd`.
#[derive(Clone, Copy)]
#[repr(align(64))]
pub(crate) struct Idx8(pub [i64; 8]);

impl Idx16 {
    #[inline(always)]
    fn as_vec(&self) -> __m512i {
        // SAFETY: `Idx16` is 64 bytes, 64-byte aligned; plain data.
        unsafe { _mm512_load_si512(std::ptr::from_ref(&self.0).cast()) }
    }
}

impl Idx8 {
    #[inline(always)]
    fn as_vec(&self) -> __m512i {
        // SAFETY: `Idx8` is 64 bytes, 64-byte aligned; plain data.
        unsafe { _mm512_load_si512(std::ptr::from_ref(&self.0).cast()) }
    }
}

/// Even interleaved floats from (a, b): the real parts in lane order.
const EVEN16: Idx16 = Idx16([0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30]);
/// Odd interleaved floats from (a, b): the imaginary parts.
const ODD16: Idx16 = Idx16([1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31]);
/// Interleave (re, im) → first 8 complex amplitudes.
const ILO16: Idx16 = Idx16([0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23]);
/// Interleave (re, im) → last 8 complex amplitudes.
const IHI16: Idx16 = Idx16([8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31]);

const EVEN8: Idx8 = Idx8([0, 2, 4, 6, 8, 10, 12, 14]);
const ODD8: Idx8 = Idx8([1, 3, 5, 7, 9, 11, 13, 15]);
const ILO8: Idx8 = Idx8([0, 8, 1, 9, 2, 10, 3, 11]);
const IHI8: Idx8 = Idx8([4, 12, 5, 13, 6, 14, 7, 15]);

/// Sixteen packed `f32` lanes (one `__m512`).
#[derive(Clone, Copy)]
pub(crate) struct F32x16(__m512);

impl LaneVec<f32> for F32x16 {
    const LANES: usize = 16;
    const ACC_PAIRS: usize = ACC_PAIRS;
    const MAX_ROWS: usize = MAX_ROWS;

    type Perm = Idx16;

    fn make_perm(indices: &[usize]) -> Self::Perm {
        let mut p = [0i32; 16];
        for (out, &src) in p.iter_mut().zip(indices) {
            debug_assert!(src < 16);
            *out = src as i32;
        }
        Idx16(p)
    }

    fn from_fn(lane: impl FnMut(usize) -> f32) -> Self {
        let lanes: [f32; 16] = std::array::from_fn(lane);
        // SAFETY: same size, and every bit pattern is a valid `__m512`.
        F32x16(unsafe { std::mem::transmute::<[f32; 16], __m512>(lanes) })
    }

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: AVX512F available per dispatch.
        F32x16(unsafe { _mm512_setzero_ps() })
    }

    #[inline(always)]
    unsafe fn load_re_im(ptr: *const Cplx<f32>) -> (Self, Self) {
        // SAFETY: caller guarantees 16 complex (32 float) reads; AVX512F
        // available. `vpermt2ps` gathers even/odd floats across both
        // registers directly into lane order.
        unsafe {
            let a = _mm512_loadu_ps(ptr.cast::<f32>());
            let b = _mm512_loadu_ps(ptr.cast::<f32>().add(16));
            (
                F32x16(_mm512_permutex2var_ps(a, EVEN16.as_vec(), b)),
                F32x16(_mm512_permutex2var_ps(a, ODD16.as_vec(), b)),
            )
        }
    }

    #[inline(always)]
    unsafe fn store_re_im(re: Self, im: Self, ptr: *mut Cplx<f32>) {
        // SAFETY: caller guarantees 16 complex writes; AVX512F available.
        unsafe {
            _mm512_storeu_ps(ptr.cast::<f32>(), _mm512_permutex2var_ps(re.0, ILO16.as_vec(), im.0));
            _mm512_storeu_ps(
                ptr.cast::<f32>().add(16),
                _mm512_permutex2var_ps(re.0, IHI16.as_vec(), im.0),
            );
        }
    }

    #[inline(always)]
    unsafe fn permute(self, perm: &Self::Perm) -> Self {
        // SAFETY: AVX512F available per the caller contract.
        F32x16(unsafe { _mm512_permutexvar_ps(perm.as_vec(), self.0) })
    }

    #[inline(always)]
    unsafe fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: AVX512F available per the caller contract.
        F32x16(unsafe { _mm512_fmadd_ps(a.0, b.0, self.0) })
    }

    #[inline(always)]
    unsafe fn mul_sub(self, a: Self, b: Self) -> Self {
        // SAFETY: AVX512F available per the caller contract.
        F32x16(unsafe { _mm512_fnmadd_ps(a.0, b.0, self.0) })
    }

    #[inline(always)]
    unsafe fn mul(a: Self, b: Self) -> Self {
        // SAFETY: AVX512F available per the caller contract.
        F32x16(unsafe { _mm512_mul_ps(a.0, b.0) })
    }
}

/// Eight packed `f64` lanes (one `__m512d`).
#[derive(Clone, Copy)]
pub(crate) struct F64x8(__m512d);

impl LaneVec<f64> for F64x8 {
    const LANES: usize = 8;
    const ACC_PAIRS: usize = ACC_PAIRS;
    const MAX_ROWS: usize = MAX_ROWS;

    type Perm = Idx8;

    fn make_perm(indices: &[usize]) -> Self::Perm {
        let mut p = [0i64; 8];
        for (out, &src) in p.iter_mut().zip(indices) {
            debug_assert!(src < 8);
            *out = src as i64;
        }
        Idx8(p)
    }

    fn from_fn(lane: impl FnMut(usize) -> f64) -> Self {
        let lanes: [f64; 8] = std::array::from_fn(lane);
        // SAFETY: same size, and every bit pattern is a valid `__m512d`.
        F64x8(unsafe { std::mem::transmute::<[f64; 8], __m512d>(lanes) })
    }

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: AVX512F available per dispatch.
        F64x8(unsafe { _mm512_setzero_pd() })
    }

    #[inline(always)]
    unsafe fn load_re_im(ptr: *const Cplx<f64>) -> (Self, Self) {
        // SAFETY: caller guarantees 8 complex (16 double) reads; AVX512F
        // available.
        unsafe {
            let a = _mm512_loadu_pd(ptr.cast::<f64>());
            let b = _mm512_loadu_pd(ptr.cast::<f64>().add(8));
            (
                F64x8(_mm512_permutex2var_pd(a, EVEN8.as_vec(), b)),
                F64x8(_mm512_permutex2var_pd(a, ODD8.as_vec(), b)),
            )
        }
    }

    #[inline(always)]
    unsafe fn store_re_im(re: Self, im: Self, ptr: *mut Cplx<f64>) {
        // SAFETY: caller guarantees 8 complex writes; AVX512F available.
        unsafe {
            _mm512_storeu_pd(ptr.cast::<f64>(), _mm512_permutex2var_pd(re.0, ILO8.as_vec(), im.0));
            _mm512_storeu_pd(
                ptr.cast::<f64>().add(8),
                _mm512_permutex2var_pd(re.0, IHI8.as_vec(), im.0),
            );
        }
    }

    #[inline(always)]
    unsafe fn permute(self, perm: &Self::Perm) -> Self {
        // SAFETY: AVX512F available per the caller contract.
        F64x8(unsafe { _mm512_permutexvar_pd(perm.as_vec(), self.0) })
    }

    #[inline(always)]
    unsafe fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: AVX512F available per the caller contract.
        F64x8(unsafe { _mm512_fmadd_pd(a.0, b.0, self.0) })
    }

    #[inline(always)]
    unsafe fn mul_sub(self, a: Self, b: Self) -> Self {
        // SAFETY: AVX512F available per the caller contract.
        F64x8(unsafe { _mm512_fnmadd_pd(a.0, b.0, self.0) })
    }

    #[inline(always)]
    unsafe fn mul(a: Self, b: Self) -> Self {
        // SAFETY: AVX512F available per the caller contract.
        F64x8(unsafe { _mm512_mul_pd(a.0, b.0) })
    }
}

/// # Safety
/// Per [`apply_mat_range`], plus: AVX512F must be available.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn mat_f32(
    amps: *mut Cplx<f32>,
    plan: &MatPlan<f32, F32x16>,
    groups: Range<usize>,
) {
    // SAFETY: contract forwarded from the caller.
    unsafe { apply_mat_range(amps, plan, groups) }
}

/// # Safety
/// Per [`apply_mat_range`], plus: AVX512F must be available.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn mat_f64(
    amps: *mut Cplx<f64>,
    plan: &MatPlan<f64, F64x8>,
    groups: Range<usize>,
) {
    // SAFETY: contract forwarded from the caller.
    unsafe { apply_mat_range(amps, plan, groups) }
}

/// # Safety
/// Per [`apply_diag_range`], plus: AVX512F must be available.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn diag_f32(
    amps: *mut Cplx<f32>,
    plan: &DiagPlan<f32, F32x16>,
    tiles: Range<usize>,
) {
    // SAFETY: contract forwarded from the caller.
    unsafe { apply_diag_range(amps, plan, tiles) }
}

/// # Safety
/// Per [`apply_diag_range`], plus: AVX512F must be available.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn diag_f64(
    amps: *mut Cplx<f64>,
    plan: &DiagPlan<f64, F64x8>,
    tiles: Range<usize>,
) {
    // SAFETY: contract forwarded from the caller.
    unsafe { apply_diag_range(amps, plan, tiles) }
}
