//! The generic split-complex tile kernel: one algorithm, instantiated per
//! lane backend (AVX2, AVX-512, portable reference lanes).
//!
//! A tile is [`LaneVec::LANES`] *consecutive* amplitudes: the low
//! `log2(LANES)` qubits of the state index live in SIMD lanes, exactly as
//! the low 5 qubits of a GPU group live inside one 32-amplitude warp tile
//! (paper §2.2). On load a tile is split into separate re/im vectors
//! (split-complex form), so the matrix-vector product lowers to real FMA
//! lanes instead of scalar complex multiply-adds; gates on lane qubits are
//! resolved with in-register permutes driven by per-lane coefficient
//! tables — the CPU mirror of `ApplyGateL_Kernel`'s shared-memory
//! shuffles. See [`super::plan`] for how the tables are prepared.

use std::mem::MaybeUninit;
use std::ops::Range;

use crate::kernels::insert_zero_bits;
use crate::types::{Cplx, Float};

use super::plan::{DiagPlan, MatPlan};

/// A vector of [`LaneVec::LANES`] scalars of type `F` — one SIMD register
/// worth of either real or imaginary amplitude parts.
///
/// # Safety contract
///
/// Methods marked `unsafe` are implemented with ISA-specific intrinsics;
/// callers must guarantee the backing instruction set is available on the
/// running CPU (the dispatcher only constructs plans for detected ISAs)
/// and that every pointer is valid for `LANES` elements of exclusive
/// access.
pub(crate) trait LaneVec<F: Float>: Copy + Send + Sync {
    /// Number of scalar lanes (= complex amplitudes per tile).
    const LANES: usize;

    /// Accumulator (re, im) pairs the micro-kernel keeps in registers:
    /// half the register file, the rest holds sources and coefficients.
    const ACC_PAIRS: usize;

    /// Most output rows of one block; a block is `R` rows by
    /// `ACC_PAIRS / R` groups with `R = min(tiles per group, MAX_ROWS)`.
    const MAX_ROWS: usize;

    /// Precomputed lane-permutation selector (one per gate column).
    type Perm: Copy + Send + Sync + 'static;

    /// Build a permutation taking output lane `l` from source lane
    /// `indices[l]`. Called at plan-build time only.
    fn make_perm(indices: &[usize]) -> Self::Perm;

    /// The vector whose lane `l` is `lane(l)` (one coefficient-table
    /// entry). Called at plan-build time only, so it must not need the
    /// ISA: a plain copy into the register type.
    fn from_fn(lane: impl FnMut(usize) -> F) -> Self;

    /// All-zero vector.
    fn zero() -> Self;

    /// Load `LANES` consecutive complex amplitudes and split them into
    /// `(re, im)` vectors in lane order.
    ///
    /// # Safety
    /// `ptr` must be valid for `LANES` reads and the ISA available.
    unsafe fn load_re_im(ptr: *const Cplx<F>) -> (Self, Self);

    /// Interleave `(re, im)` back into `LANES` consecutive complex
    /// amplitudes.
    ///
    /// # Safety
    /// `ptr` must be valid for `LANES` writes and the ISA available.
    unsafe fn store_re_im(re: Self, im: Self, ptr: *mut Cplx<F>);

    /// Lane permutation: `out[l] = self[perm[l]]`.
    ///
    /// # Safety
    /// The ISA must be available.
    unsafe fn permute(self, perm: &Self::Perm) -> Self;

    /// `self + a * b` (fused when the ISA has FMA).
    ///
    /// # Safety
    /// The ISA must be available.
    unsafe fn mul_add(self, a: Self, b: Self) -> Self;

    /// `self - a * b` (fused when the ISA has FMA).
    ///
    /// # Safety
    /// The ISA must be available.
    unsafe fn mul_sub(self, a: Self, b: Self) -> Self;

    /// Lane-wise product `a * b`.
    ///
    /// # Safety
    /// The ISA must be available.
    unsafe fn mul(a: Self, b: Self) -> Self;
}

/// Scratch capacity in (re, im) vector pairs: a block stages `dimk · G`
/// permuted sources. With `R = min(tiles, MAX_ROWS)` and `G = ACC_PAIRS / R`
/// that is `2^k · ACC_PAIRS / MAX_ROWS ≤ 64 · 2` when the gate has
/// `MAX_ROWS` tiles or more, and `2^(low targets) · ACC_PAIRS ≤ 16 · 8`
/// when it has fewer.
const SCRATCH_VECS: usize = 128;

/// Uninitialised staging area of one block, laid out `[c][part][g]`: gate
/// column `c`'s lane-permuted source of group `g`, its `G` real vectors
/// then its `G` imaginary ones. (Two arrays a power of two apart would
/// alias every real store with an imaginary load 4 KiB away.)
type Scratch<V> = [MaybeUninit<V>; 2 * SCRATCH_VECS];

/// Apply the planned gate to the tile groups in `groups`.
///
/// This is a register-blocked micro-kernel in the shape of a GEMM one. A
/// block is `R` output tile rows of `G` consecutive groups, its `2·R·G`
/// accumulators live in registers for the whole column loop, each
/// column's coefficient pair is loaded once per `G` groups and each
/// group's source once per `R` rows. The lane permutes of a low-target
/// gate depend on the column only, so they are done once per group while
/// its tiles are staged, not once per row. Every accumulator still sums
/// its columns in ascending order with the same two FMAs per part, so the
/// block shape (a constant of the lane backend) never moves a bit.
///
/// # Safety
///
/// * `amps` must point to the `2^plan.n` amplitudes the plan was built
///   for, with exclusive access to every tile addressed by `groups`
///   (distinct groups touch disjoint tiles, so disjoint ranges may run
///   concurrently);
/// * the lane backend `V`'s ISA must be available on the running CPU.
#[inline(always)]
pub(crate) unsafe fn apply_mat_range<F: Float, V: LaneVec<F>>(
    amps: *mut Cplx<F>,
    plan: &MatPlan<F, V>,
    groups: Range<usize>,
) {
    let rows = (1usize << plan.kh).min(V::MAX_ROWS);
    // SAFETY: the caller's contract, forwarded; `rows` is a power of two
    // no larger than the plan's tiles per group, so it divides them.
    unsafe {
        match (rows, V::ACC_PAIRS / rows) {
            (4, 2) => apply_blocks::<F, V, 4, 2>(amps, plan, groups),
            (2, 4) => apply_blocks::<F, V, 2, 4>(amps, plan, groups),
            (1, 8) => apply_blocks::<F, V, 1, 8>(amps, plan, groups),
            (2, 2) => apply_blocks::<F, V, 2, 2>(amps, plan, groups),
            (1, 4) => apply_blocks::<F, V, 1, 4>(amps, plan, groups),
            (r, g) => unreachable!("no micro-kernel instance for a {r}x{g} block"),
        }
    }
}

/// Walk `groups` in blocks of `G`, then the remainder one group at a time.
///
/// # Safety
/// Per [`apply_mat_range`]; `R` must divide the plan's tiles per group.
#[inline(always)]
unsafe fn apply_blocks<F: Float, V: LaneVec<F>, const R: usize, const G: usize>(
    amps: *mut Cplx<F>,
    plan: &MatPlan<F, V>,
    groups: Range<usize>,
) {
    // The bound every scratch index below relies on.
    assert!(plan.dimk * G <= SCRATCH_VECS, "block stages more sources than the scratch holds");
    let mut scratch: Scratch<V> = [const { MaybeUninit::uninit() }; 2 * SCRATCH_VECS];
    let mut g = groups.start;
    while g + G <= groups.end {
        // SAFETY: groups `g..g + G` are inside the caller's range.
        unsafe { apply_block::<F, V, R, G>(amps, plan, g, &mut scratch) };
        g += G;
    }
    while g < groups.end {
        // SAFETY: as above, one group.
        unsafe { apply_block::<F, V, R, 1>(amps, plan, g, &mut scratch) };
        g += 1;
    }
}

/// One block: groups `g0..g0 + G`, every row, `R` rows at a time.
///
/// # Safety
/// Per [`apply_mat_range`] for the groups `g0..g0 + G`; `R` must divide
/// the plan's tiles per group and `plan.dimk * G <= SCRATCH_VECS`.
#[inline(always)]
unsafe fn apply_block<F: Float, V: LaneVec<F>, const R: usize, const G: usize>(
    amps: *mut Cplx<F>,
    plan: &MatPlan<F, V>,
    g0: usize,
    scratch: &mut Scratch<V>,
) {
    let lambda = V::LANES.trailing_zeros() as usize;
    let dimk = plan.dimk;
    let tiles = 1usize << plan.kh;
    let cols_per_tile = dimk >> plan.kh;
    let mut base_t = [0usize; G];
    for (g, base) in base_t.iter_mut().enumerate() {
        *base = insert_zero_bits(g0 + g, &plan.strip_t) | plan.control_mask_t;
    }

    // Stage: each tile is loaded once and lands, lane-permuted, in the
    // slots of every column it sources.
    for (m, cols) in plan.tile_cols.chunks_exact(cols_per_tile).enumerate() {
        for (g, &base) in base_t.iter().enumerate() {
            // SAFETY: `(base | tile_off[m]) << lambda` indexes within the
            // `2^plan.n` amplitudes (the plan strips exactly the high
            // target/control bits), and the caller grants access.
            let (sre, sim) =
                unsafe { V::load_re_im(amps.add((base | plan.tile_off[m]) << lambda)) };
            for &c in cols {
                let (pre, pim) = if plan.has_low_targets {
                    // SAFETY: ISA availability per the caller contract.
                    unsafe { (sre.permute(&plan.perms[c]), sim.permute(&plan.perms[c])) }
                } else {
                    (sre, sim)
                };
                scratch[2 * c * G + g].write(pre);
                scratch[(2 * c + 1) * G + g].write(pim);
            }
        }
    }
    // SAFETY: `tile_cols` is a permutation of `0..dimk`, so the staging
    // loops above initialised exactly the first `2 * dimk * G` slots.
    let src: &[V] = unsafe { std::slice::from_raw_parts(scratch.as_ptr().cast(), 2 * dimk * G) };
    let src = src.as_chunks::<G>().0.as_chunks::<2>().0;

    // Every source is staged, so rows may be stored as they finish.
    for r0 in (0..tiles).step_by(R) {
        let coef_re: [&[V]; R] = std::array::from_fn(|r| &plan.coef_re[(r0 + r) * dimk..][..dimk]);
        let coef_im: [&[V]; R] = std::array::from_fn(|r| &plan.coef_im[(r0 + r) * dimk..][..dimk]);
        let mut acc_re = [[V::zero(); G]; R];
        let mut acc_im = [[V::zero(); G]; R];
        for c in 0..dimk {
            let [sre, sim] = &src[c];
            for r in 0..R {
                let (cre, cim) = (coef_re[r][c], coef_im[r][c]);
                for g in 0..G {
                    // Complex multiply-accumulate in split form:
                    //   acc += coef * src
                    // SAFETY: ISA availability per the caller contract.
                    unsafe {
                        acc_re[r][g] = acc_re[r][g].mul_add(cre, sre[g]);
                        acc_re[r][g] = acc_re[r][g].mul_sub(cim, sim[g]);
                        acc_im[r][g] = acc_im[r][g].mul_add(cre, sim[g]);
                        acc_im[r][g] = acc_im[r][g].mul_add(cim, sre[g]);
                    }
                }
            }
        }
        for r in 0..R {
            for (g, &base) in base_t.iter().enumerate() {
                // SAFETY: same index bound as the loads.
                unsafe {
                    V::store_re_im(
                        acc_re[r][g],
                        acc_im[r][g],
                        amps.add((base | plan.tile_off[r0 + r]) << lambda),
                    );
                }
            }
        }
    }
}

/// Apply the planned diagonal gate to the tiles in `tile_range`.
///
/// # Safety
///
/// * `amps` must be valid for the addressed tiles (`tile << lambda`,
///   `LANES` amplitudes each) with exclusive access;
/// * the lane backend `V`'s ISA must be available on the running CPU.
#[inline(always)]
pub(crate) unsafe fn apply_diag_range<F: Float, V: LaneVec<F>>(
    amps: *mut Cplx<F>,
    plan: &DiagPlan<F, V>,
    tile_range: Range<usize>,
) {
    let lambda = V::LANES.trailing_zeros() as usize;
    for t in tile_range {
        let m = crate::matrix::extract_bits(t, &plan.hq_t);
        let p = amps.wrapping_add(t << lambda);
        // SAFETY: the caller grants access to this tile.
        let (sre, sim) = unsafe { V::load_re_im(p) };
        // The tables hold one vector per high-target pattern, and
        // `m < 2^kh` by construction of `extract_bits`.
        let (cre, cim) = (plan.dre[m], plan.dim[m]);
        // out = s * d, complex: (sre*dre - sim*dim, sre*dim + sim*dre).
        // SAFETY: ISA availability per the caller contract.
        unsafe {
            let ore = V::mul(sre, cre).mul_sub(sim, cim);
            let oim = V::mul(sre, cim).mul_add(sim, cre);
            V::store_re_im(ore, oim, p);
        }
    }
}
