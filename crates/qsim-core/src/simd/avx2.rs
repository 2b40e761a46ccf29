//! AVX2+FMA lane backend: 8 `f32` or 4 `f64` amplitudes per tile.
//!
//! Everything funnels into the four `#[target_feature]` entry points at
//! the bottom; the `#[inline(always)]` trait methods collapse into them at
//! codegen so the intrinsics execute under the enabled features.

use std::arch::x86_64::{
    __m256, __m256d, __m256i, _mm256_castpd_ps, _mm256_castps_pd, _mm256_fmadd_pd, _mm256_fmadd_ps,
    _mm256_fnmadd_pd, _mm256_fnmadd_ps, _mm256_load_si256, _mm256_loadu_pd, _mm256_loadu_ps,
    _mm256_mul_pd, _mm256_mul_ps, _mm256_permute4x64_pd, _mm256_permutevar8x32_ps,
    _mm256_setzero_pd, _mm256_setzero_ps, _mm256_shuffle_ps, _mm256_storeu_pd, _mm256_storeu_ps,
    _mm256_unpackhi_pd, _mm256_unpackhi_ps, _mm256_unpacklo_pd, _mm256_unpacklo_ps,
};
use std::ops::Range;

use crate::types::Cplx;

use super::kernel::{apply_diag_range, apply_mat_range, LaneVec};
use super::plan::{DiagPlan, MatPlan};

/// Of the 16 `ymm` registers, 8 hold a block's accumulators — half the
/// AVX-512 block: 2 rows × 2 groups for a gate with a high target, 1 × 4
/// without.
const ACC_PAIRS: usize = 4;
const MAX_ROWS: usize = 2;

/// Lane-crossing pattern mapping the `shuffle_ps` deinterleave output
/// `[x0 x1 x4 x5 | x2 x3 x6 x7]` to lane order — an involution, so the
/// same pattern re-prepares vectors for interleaved stores.
const DEINT8: PermBits8 = PermBits8([0, 1, 4, 5, 2, 3, 6, 7]);

/// Aligned `vpermps` index pattern (32-byte so `_mm256_load_si256` is an
/// aligned load).
#[derive(Clone, Copy)]
#[repr(align(32))]
pub(crate) struct PermBits8(pub [i32; 8]);

impl PermBits8 {
    #[inline(always)]
    fn as_vec(&self) -> __m256i {
        // SAFETY: `PermBits8` is 32 bytes, 32-byte aligned; plain data.
        unsafe { _mm256_load_si256(std::ptr::from_ref(&self.0).cast::<__m256i>()) }
    }
}

/// Eight packed `f32` lanes (one `__m256`).
#[derive(Clone, Copy)]
pub(crate) struct F32x8(__m256);

impl LaneVec<f32> for F32x8 {
    const LANES: usize = 8;
    const ACC_PAIRS: usize = ACC_PAIRS;
    const MAX_ROWS: usize = MAX_ROWS;

    type Perm = PermBits8;

    fn make_perm(indices: &[usize]) -> Self::Perm {
        let mut p = [0i32; 8];
        for (out, &src) in p.iter_mut().zip(indices) {
            debug_assert!(src < 8);
            *out = src as i32;
        }
        PermBits8(p)
    }

    fn from_fn(lane: impl FnMut(usize) -> f32) -> Self {
        let lanes: [f32; 8] = std::array::from_fn(lane);
        // SAFETY: same size, and every bit pattern is a valid `__m256`.
        F32x8(unsafe { std::mem::transmute::<[f32; 8], __m256>(lanes) })
    }

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: `vxorps` needs only AVX, available per dispatch.
        F32x8(unsafe { _mm256_setzero_ps() })
    }

    #[inline(always)]
    unsafe fn load_re_im(ptr: *const Cplx<f32>) -> (Self, Self) {
        // SAFETY: caller guarantees 8 complex (16 float) reads; AVX2
        // available. Deinterleave: shuffle picks even/odd floats per
        // 128-bit half, then a lane-crossing permute restores lane order.
        unsafe {
            let a = _mm256_loadu_ps(ptr.cast::<f32>());
            let b = _mm256_loadu_ps(ptr.cast::<f32>().add(8));
            let re = _mm256_shuffle_ps(a, b, 0x88);
            let im = _mm256_shuffle_ps(a, b, 0xDD);
            let p = DEINT8.as_vec();
            (F32x8(_mm256_permutevar8x32_ps(re, p)), F32x8(_mm256_permutevar8x32_ps(im, p)))
        }
    }

    #[inline(always)]
    unsafe fn store_re_im(re: Self, im: Self, ptr: *mut Cplx<f32>) {
        // SAFETY: caller guarantees 8 complex writes; AVX2 available. The
        // permute (involution of the load one) groups each half's floats,
        // then unpack interleaves re/im pairs.
        unsafe {
            let p = DEINT8.as_vec();
            let rp = _mm256_permutevar8x32_ps(re.0, p);
            let ip = _mm256_permutevar8x32_ps(im.0, p);
            _mm256_storeu_ps(ptr.cast::<f32>(), _mm256_unpacklo_ps(rp, ip));
            _mm256_storeu_ps(ptr.cast::<f32>().add(8), _mm256_unpackhi_ps(rp, ip));
        }
    }

    #[inline(always)]
    unsafe fn permute(self, perm: &Self::Perm) -> Self {
        // SAFETY: AVX2 available per the caller contract.
        F32x8(unsafe { _mm256_permutevar8x32_ps(self.0, perm.as_vec()) })
    }

    #[inline(always)]
    unsafe fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: FMA available per the caller contract.
        F32x8(unsafe { _mm256_fmadd_ps(a.0, b.0, self.0) })
    }

    #[inline(always)]
    unsafe fn mul_sub(self, a: Self, b: Self) -> Self {
        // SAFETY: FMA available per the caller contract.
        F32x8(unsafe { _mm256_fnmadd_ps(a.0, b.0, self.0) })
    }

    #[inline(always)]
    unsafe fn mul(a: Self, b: Self) -> Self {
        // SAFETY: AVX available per the caller contract.
        F32x8(unsafe { _mm256_mul_ps(a.0, b.0) })
    }
}

/// Four packed `f64` lanes (one `__m256d`).
#[derive(Clone, Copy)]
pub(crate) struct F64x4(__m256d);

impl LaneVec<f64> for F64x4 {
    const LANES: usize = 4;
    const ACC_PAIRS: usize = ACC_PAIRS;
    const MAX_ROWS: usize = MAX_ROWS;

    /// `f64` lane permutes reuse `vpermps` through a bitcast, so each
    /// double lane `p` stores float indices `[2p, 2p+1]`.
    type Perm = PermBits8;

    fn make_perm(indices: &[usize]) -> Self::Perm {
        let mut p = [0i32; 8];
        for (l, &src) in indices.iter().enumerate() {
            debug_assert!(src < 4);
            p[2 * l] = 2 * src as i32;
            p[2 * l + 1] = 2 * src as i32 + 1;
        }
        PermBits8(p)
    }

    fn from_fn(lane: impl FnMut(usize) -> f64) -> Self {
        let lanes: [f64; 4] = std::array::from_fn(lane);
        // SAFETY: same size, and every bit pattern is a valid `__m256d`.
        F64x4(unsafe { std::mem::transmute::<[f64; 4], __m256d>(lanes) })
    }

    #[inline(always)]
    fn zero() -> Self {
        // SAFETY: `vxorpd` needs only AVX, available per dispatch.
        F64x4(unsafe { _mm256_setzero_pd() })
    }

    #[inline(always)]
    unsafe fn load_re_im(ptr: *const Cplx<f64>) -> (Self, Self) {
        // SAFETY: caller guarantees 4 complex (8 double) reads; AVX2
        // available. Unpack gathers re/im per 128-bit half as
        // `[x0 x2 x1 x3]`; `vpermpd 0xD8` (an involution) restores order.
        unsafe {
            let a = _mm256_loadu_pd(ptr.cast::<f64>());
            let b = _mm256_loadu_pd(ptr.cast::<f64>().add(4));
            let re = _mm256_unpacklo_pd(a, b);
            let im = _mm256_unpackhi_pd(a, b);
            (F64x4(_mm256_permute4x64_pd(re, 0xD8)), F64x4(_mm256_permute4x64_pd(im, 0xD8)))
        }
    }

    #[inline(always)]
    unsafe fn store_re_im(re: Self, im: Self, ptr: *mut Cplx<f64>) {
        // SAFETY: caller guarantees 4 complex writes; AVX2 available.
        unsafe {
            let rp = _mm256_permute4x64_pd(re.0, 0xD8);
            let ip = _mm256_permute4x64_pd(im.0, 0xD8);
            _mm256_storeu_pd(ptr.cast::<f64>(), _mm256_unpacklo_pd(rp, ip));
            _mm256_storeu_pd(ptr.cast::<f64>().add(4), _mm256_unpackhi_pd(rp, ip));
        }
    }

    #[inline(always)]
    unsafe fn permute(self, perm: &Self::Perm) -> Self {
        // SAFETY: AVX2 available; the bitcast through `f32` lanes is a
        // pure bit-pattern move (`vpermps` with paired indices).
        unsafe {
            let ps = _mm256_castpd_ps(self.0);
            F64x4(_mm256_castps_pd(_mm256_permutevar8x32_ps(ps, perm.as_vec())))
        }
    }

    #[inline(always)]
    unsafe fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: FMA available per the caller contract.
        F64x4(unsafe { _mm256_fmadd_pd(a.0, b.0, self.0) })
    }

    #[inline(always)]
    unsafe fn mul_sub(self, a: Self, b: Self) -> Self {
        // SAFETY: FMA available per the caller contract.
        F64x4(unsafe { _mm256_fnmadd_pd(a.0, b.0, self.0) })
    }

    #[inline(always)]
    unsafe fn mul(a: Self, b: Self) -> Self {
        // SAFETY: AVX available per the caller contract.
        F64x4(unsafe { _mm256_mul_pd(a.0, b.0) })
    }
}

/// # Safety
/// Per [`apply_mat_range`], plus: AVX2 and FMA must be available.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn mat_f32(
    amps: *mut Cplx<f32>,
    plan: &MatPlan<f32, F32x8>,
    groups: Range<usize>,
) {
    // SAFETY: contract forwarded from the caller.
    unsafe { apply_mat_range(amps, plan, groups) }
}

/// # Safety
/// Per [`apply_mat_range`], plus: AVX2 and FMA must be available.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn mat_f64(
    amps: *mut Cplx<f64>,
    plan: &MatPlan<f64, F64x4>,
    groups: Range<usize>,
) {
    // SAFETY: contract forwarded from the caller.
    unsafe { apply_mat_range(amps, plan, groups) }
}

/// # Safety
/// Per [`apply_diag_range`], plus: AVX2 and FMA must be available.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn diag_f32(
    amps: *mut Cplx<f32>,
    plan: &DiagPlan<f32, F32x8>,
    tiles: Range<usize>,
) {
    // SAFETY: contract forwarded from the caller.
    unsafe { apply_diag_range(amps, plan, tiles) }
}

/// # Safety
/// Per [`apply_diag_range`], plus: AVX2 and FMA must be available.
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn diag_f64(
    amps: *mut Cplx<f64>,
    plan: &DiagPlan<f64, F64x4>,
    tiles: Range<usize>,
) {
    // SAFETY: contract forwarded from the caller.
    unsafe { apply_diag_range(amps, plan, tiles) }
}
