//! Plan construction for the tile kernels, plus the precision-erased
//! [`SimdPlan`] handle the rest of the crate dispatches through.
//!
//! The key trick that makes the Low (lane-qubit) and High (address-qubit)
//! paths *one* kernel is the per-lane coefficient table. With
//! `λ = log2(LANES)` lane qubits, split a k-qubit gate's targets into low
//! (`q < λ`) and high (`q ≥ λ`) sets. Each output tile row `r` (choice of
//! high-target bits) is a sum over gate columns `c` of
//! `coef[r][c][l] * permute_c(src[tile of c])[l]`, where
//! `coef[r][c][l] = M[row(l, r), c]` resolves the matrix row from lane
//! `l`'s low-target bits and `r`'s high-target bits, and `permute_c`
//! replaces each lane's low-target bits with column `c`'s — in-register
//! data movement instead of strided loads, the CPU mirror of the paper's
//! `ApplyGateL_Kernel` shared-memory rearrangement. A gate with no low
//! targets degenerates to splat coefficients and no permutes, i.e. the
//! strided High path, for free. Low *controls* fold into the same tables:
//! lanes whose control bits mismatch get identity coefficients
//! (`coef[r][c][l] = [c == row(l, r)]`) and pass through unchanged.

use std::any::TypeId;
use std::marker::PhantomData;
use std::ops::Range;

use crate::kernels::{validate_gate_args, PAR_GRAIN_AMPS};
use crate::matrix::GateMatrix;
use crate::types::{Cplx, Float, Precision};

use super::kernel::{Lane, LaneVec, Splat};
use super::portable::P4;
use super::Isa;

/// Precomputed tile-level plan for a (controlled) dense gate.
pub(crate) struct MatPlan<F: Float, V: LaneVec<F>> {
    /// Qubit count the plan was built for (`amps.len() == 1 << n`).
    pub n: usize,
    /// Gate dimension `2^k`.
    pub dimk: usize,
    /// Number of high (tile-address) target qubits.
    pub kh: usize,
    /// Tile-coordinate positions stripped from the group counter: high
    /// targets and high controls, sorted ascending.
    pub strip_t: Vec<usize>,
    /// High-control value bits in tile coordinates.
    pub control_mask_t: usize,
    /// Tile-index offsets of the `2^kh` tiles of a group.
    pub tile_off: Vec<usize>,
    /// Gate columns ordered by the tile that sources them: tile `m`'s
    /// are `tile_cols[m * dimk / 2^kh..][..dimk / 2^kh]`, ascending.
    pub tile_cols: Vec<usize>,
    /// For each gate column, the lane permutation selecting the column's
    /// low-target bits (none without low targets).
    pub perms: Vec<V::Perm>,
    pub has_low_targets: bool,
    /// Split-complex coefficient tables, one entry per `[r * dimk + c]`.
    pub coefs: Coefs<F, V>,
    /// Number of tile groups: `1 << (n - λ - strip_t.len())`.
    pub num_groups: usize,
    marker: PhantomData<F>,
}

/// A [`MatPlan`]'s split-complex coefficient tables.
pub(crate) enum Coefs<F: Float, V: LaneVec<F>> {
    /// One lane vector per entry — aligned as `V`, so every entry is a
    /// single aligned load (a `Vec<F>` of lanes sits 16 bytes off a cache line
    /// and splits each).
    Lanes { re: Vec<Lane<V>>, im: Vec<Lane<V>> },
    /// A lane-uniform table (no low target, no low control): every lane
    /// of an entry is the same matrix entry, stored once and splatted at
    /// load, in `1 / LANES` of the bytes.
    Splat { re: Vec<Splat<F>>, im: Vec<Splat<F>> },
}

/// Precomputed tile-level plan for an uncontrolled diagonal gate.
pub(crate) struct DiagPlan<F: Float, V: LaneVec<F>> {
    /// Qubit count the plan was built for (`amps.len() == 1 << n`).
    pub n: usize,
    /// Tile-coordinate positions of the high targets (ascending).
    pub hq_t: Vec<usize>,
    /// Split-complex diagonal tables, one lane vector per high-target
    /// bit pattern `m`.
    pub dre: Vec<V>,
    pub dim: Vec<V>,
    marker: PhantomData<F>,
}

/// The geometry and size of a tile plan.
trait Shape {
    /// `(n, group_count, amps_per_group)` of the plan's `2^n` amplitudes.
    fn shape(&self) -> (usize, usize, usize);
    /// Bytes the plan holds on the heap.
    fn heap_bytes(&self) -> usize;
}

impl<F: Float, V: LaneVec<F>> Shape for MatPlan<F, V> {
    fn shape(&self) -> (usize, usize, usize) {
        (self.n, self.num_groups, (1 << self.kh) * V::LANES)
    }

    fn heap_bytes(&self) -> usize {
        let coefs = match &self.coefs {
            Coefs::Lanes { re, im } => size_of_val(&re[..]) + size_of_val(&im[..]),
            Coefs::Splat { re, im } => size_of_val(&re[..]) + size_of_val(&im[..]),
        };
        let indices = self.strip_t.len() + self.tile_off.len() + self.tile_cols.len();
        coefs + size_of_val(&self.perms[..]) + indices * size_of::<usize>()
    }
}

impl<F: Float, V: LaneVec<F>> Shape for DiagPlan<F, V> {
    fn shape(&self) -> (usize, usize, usize) {
        (self.n, (1 << self.n) / V::LANES, V::LANES)
    }

    fn heap_bytes(&self) -> usize {
        size_of_val(&self.hq_t[..]) + size_of_val(&self.dre[..]) + size_of_val(&self.dim[..])
    }
}

/// Build a [`MatPlan`] or report `None` when the state is too small to
/// tile (`n < λ + #high targets + #high controls`). Argument validation
/// matches the scalar kernels exactly (same panics on malformed input).
///
/// Never inlined: the `SimdPlan` constructors are instantiated per
/// precision in every crate that prepares a gate, and each site would
/// carry a copy of this per lane backend.
#[inline(never)]
pub(crate) fn build_mat<F: Float, V: LaneVec<F>>(
    n: usize,
    qubits: &[usize],
    controls: &[usize],
    control_values: usize,
    matrix: &GateMatrix<F>,
) -> Option<MatPlan<F, V>> {
    validate_gate_args(n, qubits, controls, control_values, matrix.dim());
    let lanes = V::LANES;
    let lambda = lanes.trailing_zeros() as usize;
    let k = qubits.len();
    let dimk = 1usize << k;

    // Split targets and controls at the lane boundary. `j` is the bit
    // position within gate row/column indices, `q`/`p` the state qubit.
    let low_t: Vec<(usize, usize)> =
        qubits.iter().enumerate().filter(|&(_, &q)| q < lambda).map(|(j, &q)| (j, q)).collect();
    let high_t: Vec<(usize, usize)> =
        qubits.iter().enumerate().filter(|&(_, &q)| q >= lambda).map(|(j, &q)| (j, q)).collect();
    let kh = high_t.len();

    let mut lc_mask = 0usize;
    let mut lc_val = 0usize;
    let mut strip_t: Vec<usize> = Vec::new();
    let mut control_mask_t = 0usize;
    for (j, &c) in controls.iter().enumerate() {
        let want = (control_values >> j) & 1;
        if c < lambda {
            lc_mask |= 1 << c;
            lc_val |= want << c;
        } else {
            strip_t.push(c - lambda);
            control_mask_t |= want << (c - lambda);
        }
    }
    if n < lambda + kh + strip_t.len() {
        return None;
    }
    for &(_, q) in &high_t {
        strip_t.push(q - lambda);
    }
    strip_t.sort_unstable();

    let tile_off: Vec<usize> = (0..1usize << kh)
        .map(|m| {
            let mut off = 0usize;
            for (i, &(_, q)) in high_t.iter().enumerate() {
                off |= ((m >> i) & 1) << (q - lambda);
            }
            off
        })
        .collect();
    // The tile that sources column `c`: its high-target bits.
    let col_tile = |c: usize| -> usize {
        high_t.iter().enumerate().map(|(i, &(j, _))| ((c >> j) & 1) << i).sum()
    };
    let mut tile_cols: Vec<usize> = (0..dimk).collect();
    tile_cols.sort_by_key(|&c| col_tile(c));

    let has_low_targets = !low_t.is_empty();
    let lmask: usize = low_t.iter().map(|&(_, p)| 1usize << p).sum();
    let mut idx = [0usize; MAX_LANES];
    let perms: Vec<V::Perm> = (0..if has_low_targets { dimk } else { 0 })
        .map(|c| {
            let dep: usize = low_t.iter().map(|&(j, p)| ((c >> j) & 1) << p).sum();
            for (l, i) in idx[..lanes].iter_mut().enumerate() {
                *i = (l & !lmask) | dep;
            }
            V::make_perm(&idx[..lanes])
        })
        .collect();

    // The matrix row of output lane `l` under high-row pattern `r` is
    // `high_row[r] | low_row[l]`.
    let (high_row, low_row) = row_bits(&high_t, &low_t, lanes);
    // With no low target and no low control every lane reads the same
    // entry: store it once.
    let coefs = if !has_low_targets && lc_mask == 0 {
        let entries = || high_row.iter().flat_map(|&high| (0..dimk).map(move |c| (high, c)));
        Coefs::Splat {
            re: entries().map(|(high, c)| Splat(matrix.get(high, c).re)).collect(),
            im: entries().map(|(high, c)| Splat(matrix.get(high, c).im)).collect(),
        }
    } else {
        let mut re = Vec::with_capacity((1 << kh) * dimk);
        let mut im = Vec::with_capacity((1 << kh) * dimk);
        let mut lane = [Cplx { re: F::ZERO, im: F::ZERO }; MAX_LANES];
        for &high in &high_row {
            for c in 0..dimk {
                for (l, z) in lane[..lanes].iter_mut().enumerate() {
                    let row = high | low_row[l];
                    *z = if (l & lc_mask) == lc_val {
                        matrix.get(row, c)
                    } else {
                        // Lane fails a low control: identity pass-through.
                        Cplx { re: if c == row { F::ONE } else { F::ZERO }, im: F::ZERO }
                    };
                }
                re.push(Lane(V::from_fn(|l| lane[l].re)));
                im.push(Lane(V::from_fn(|l| lane[l].im)));
            }
        }
        Coefs::Lanes { re, im }
    };

    let num_groups = 1usize << (n - lambda - strip_t.len());
    Some(MatPlan {
        n,
        dimk,
        kh,
        strip_t,
        control_mask_t,
        tile_off,
        tile_cols,
        perms,
        has_low_targets,
        coefs,
        num_groups,
        marker: PhantomData,
    })
}

/// Build a [`DiagPlan`] for an uncontrolled diagonal gate, or `None` when
/// the state has fewer qubits than SIMD lanes. Never inlined, as
/// [`build_mat`].
#[inline(never)]
pub(crate) fn build_diag<F: Float, V: LaneVec<F>>(
    n: usize,
    qubits: &[usize],
    matrix: &GateMatrix<F>,
) -> Option<DiagPlan<F, V>> {
    validate_gate_args(n, qubits, &[], 0, matrix.dim());
    let lanes = V::LANES;
    let lambda = lanes.trailing_zeros() as usize;
    if n < lambda {
        return None;
    }
    let low_t: Vec<(usize, usize)> =
        qubits.iter().enumerate().filter(|&(_, &q)| q < lambda).map(|(j, &q)| (j, q)).collect();
    let high_t: Vec<(usize, usize)> =
        qubits.iter().enumerate().filter(|&(_, &q)| q >= lambda).map(|(j, &q)| (j, q)).collect();
    let hq_t: Vec<usize> = high_t.iter().map(|&(_, q)| q - lambda).collect();
    let kh = high_t.len();
    // Lane `l` of high-target pattern `m` multiplies by diagonal entry
    // `high_row[m] | low_row[l]`.
    let (high_row, low_row) = row_bits(&high_t, &low_t, lanes);
    let entry = |m: usize, l: usize| matrix.get(high_row[m] | low_row[l], high_row[m] | low_row[l]);
    let dre = (0..1usize << kh).map(|m| V::from_fn(|l| entry(m, l).re)).collect();
    let dim = (0..1usize << kh).map(|m| V::from_fn(|l| entry(m, l).im)).collect();
    Some(DiagPlan { n, hq_t, dre, dim, marker: PhantomData })
}

/// Widest lane count of any backend (AVX-512 `f32`).
const MAX_LANES: usize = 16;

/// Gate-row bits per high-target pattern (`2^#high` entries) and per lane
/// (`lanes` entries), from `(bit within the gate index, qubit)` pairs: a
/// lane's matrix row is the OR of its pattern's entry and its own.
fn row_bits(
    high_t: &[(usize, usize)],
    low_t: &[(usize, usize)],
    lanes: usize,
) -> (Vec<usize>, [usize; MAX_LANES]) {
    assert!(lanes <= MAX_LANES, "{lanes} lanes exceed {MAX_LANES}");
    let high_row = (0..1usize << high_t.len())
        .map(|r| high_t.iter().enumerate().map(|(i, &(j, _))| ((r >> i) & 1) << j).sum())
        .collect();
    let mut low_row = [0usize; MAX_LANES];
    for (l, row) in low_row[..lanes].iter_mut().enumerate() {
        *row = low_t.iter().map(|&(j, p)| ((l >> p) & 1) << j).sum();
    }
    (high_row, low_row)
}

/// Reinterpret a generic `F` gate matrix as a concrete precision.
/// Returns `None` when `F` is not `G` (precision mismatch). A `Some`
/// result proves `F == G`.
fn cast_matrix<F: Float, G: Float>(matrix: &GateMatrix<F>) -> Option<&GateMatrix<G>> {
    if TypeId::of::<F>() == TypeId::of::<G>() {
        // SAFETY: `F` and `G` are the same type (TypeId equality above),
        // so the reference cast is the identity.
        Some(unsafe { &*(matrix as *const GateMatrix<F> as *const GateMatrix<G>) })
    } else {
        None
    }
}

/// A kernel over tile plan `P` at precision `G`: an ISA entry point, or
/// the generic kernel on [`P4`] lanes.
type Kernel<G, P> = unsafe fn(*mut Cplx<G>, &P, Range<usize>);

/// A tile plan and its kernel, boxed as `Tiles<F>` only for `G == F`.
struct Planned<G, P> {
    plan: P,
    kernel: Kernel<G, P>,
}

/// A [`Planned`] with its precision erased to its [`SimdPlan`]'s `F`.
trait Tiles<F>: Send + Sync {
    fn plan(&self) -> &dyn Shape;

    /// # Safety
    /// `amps` must point to the plan's `2^n` amplitudes, with exclusive
    /// access to the tiles of `groups`, and the kernel's ISA must be
    /// available.
    unsafe fn apply(&self, amps: *mut Cplx<F>, groups: Range<usize>);
}

impl<F: Float, G: Float, P: Shape + Send + Sync> Tiles<F> for Planned<G, P> {
    fn plan(&self) -> &dyn Shape {
        &self.plan
    }

    unsafe fn apply(&self, amps: *mut Cplx<F>, groups: Range<usize>) {
        // SAFETY: a `Planned` is erased only at `G == F` (asserted where it
        // is built), so the cast is the identity; the rest is the caller's.
        unsafe { (self.kernel)(amps.cast(), &self.plan, groups) }
    }
}

/// A gate's tile plan on lanes `V` — a [`DiagPlan`] for an uncontrolled
/// diagonal matrix, else a [`MatPlan`] — with the kernel that applies it,
/// as `F`'s tiles. Panics unless `G` is `F`.
fn build_tiles<F: Float, G: Float, V: LaneVec<G> + 'static>(
    (n, qubits, controls, control_values): (usize, &[usize], &[usize], usize),
    matrix: &GateMatrix<G>,
    mat: Kernel<G, MatPlan<G, V>>,
    diag: Kernel<G, DiagPlan<G, V>>,
) -> Option<Box<dyn Tiles<F>>> {
    assert_eq!(TypeId::of::<F>(), TypeId::of::<G>(), "tiles of another precision");
    if controls.is_empty() && crate::kernels::is_diagonal(matrix) {
        let plan = build_diag(n, qubits, matrix)?;
        Some(Box::new(Planned { plan, kernel: diag }))
    } else {
        let plan = build_mat(n, qubits, controls, control_values, matrix)?;
        Some(Box::new(Planned { plan, kernel: mat }))
    }
}

/// ISA- and shape-erased plan: build once per (gate, state-size), apply to
/// any number of amplitude slices (full states or sweep blocks).
pub struct SimdPlan<F: Float> {
    tiles: Box<dyn Tiles<F>>,
}

impl<F: Float> SimdPlan<F> {
    /// Plan a (controlled) gate for the active ISA. `None` means the
    /// caller should use the scalar kernels (scalar ISA active, state too
    /// small to tile, or SIMD disabled).
    ///
    /// Panics on malformed arguments with the same messages as the scalar
    /// kernels.
    pub fn new(
        n: usize,
        qubits: &[usize],
        controls: &[usize],
        control_values: usize,
        matrix: &GateMatrix<F>,
    ) -> Option<Self> {
        Self::new_with_isa(super::active_isa(), n, qubits, controls, control_values, matrix)
    }

    /// Plan for a specific ISA tier rather than the globally active one.
    /// The cap still applies to the hardware, not the request: asking for
    /// an ISA the CPU lacks returns `None` rather than executing illegal
    /// instructions. Intended for A/B benchmarking and tests that must not
    /// depend on process-global dispatch state.
    pub fn new_with_isa(
        isa: Isa,
        n: usize,
        qubits: &[usize],
        controls: &[usize],
        control_values: usize,
        matrix: &GateMatrix<F>,
    ) -> Option<Self> {
        if isa > super::detected_isa() {
            return None;
        }
        let gate = (n, qubits, controls, control_values);
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        use super::{avx2, avx512};
        let tiles = match (isa, F::PRECISION) {
            (Isa::Scalar, _) => None,
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            (Isa::Avx2, Precision::Single) => {
                build_tiles(gate, cast_matrix::<F, f32>(matrix)?, avx2::mat_f32, avx2::diag_f32)
            }
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            (Isa::Avx2, Precision::Double) => {
                build_tiles(gate, cast_matrix::<F, f64>(matrix)?, avx2::mat_f64, avx2::diag_f64)
            }
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            (Isa::Avx512, Precision::Single) => {
                build_tiles(gate, cast_matrix::<F, f32>(matrix)?, avx512::mat_f32, avx512::diag_f32)
            }
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            (Isa::Avx512, Precision::Double) => {
                build_tiles(gate, cast_matrix::<F, f64>(matrix)?, avx512::mat_f64, avx512::diag_f64)
            }
            #[cfg(not(all(target_arch = "x86_64", not(miri))))]
            (_, _) => None,
        }?;
        Some(SimdPlan { tiles })
    }

    /// Plan with the portable 4-lane reference backend regardless of the
    /// detected ISA: the identical tile machinery in safe-by-construction
    /// arithmetic, for tests (including miri) of the lane-level Low path
    /// without x86 intrinsics. Dispatch never selects it; its kernels are
    /// pointers taken here, so only a binary that calls it carries the
    /// emulated-lane instances.
    pub fn new_portable(
        n: usize,
        qubits: &[usize],
        controls: &[usize],
        control_values: usize,
        matrix: &GateMatrix<F>,
    ) -> Option<Self> {
        let tiles = build_tiles(
            (n, qubits, controls, control_values),
            matrix,
            super::kernel::apply_mat_range::<F, P4<F>>,
            super::kernel::apply_diag_range::<F, P4<F>>,
        )?;
        Some(SimdPlan { tiles })
    }

    /// Bytes the plan holds on the heap: its tables and the plan itself.
    pub fn heap_bytes(&self) -> usize {
        size_of_val(&*self.tiles) + self.tiles.plan().heap_bytes()
    }

    /// Apply to a full state or block slice, single-threaded.
    ///
    /// Panics if `amps.len()` is not the `2^n` the plan was built for.
    pub fn apply_seq(&self, amps: &mut [Cplx<F>]) {
        self.apply_range(amps, None);
    }

    /// Apply with rayon over disjoint tile-group ranges.
    pub fn apply_par(&self, amps: &mut [Cplx<F>]) {
        use rayon::prelude::*;

        struct SendPtr<T>(*mut T);
        // SAFETY: each parallel task touches the disjoint tile set of its
        // own group range, so sharing the raw base pointer is sound.
        unsafe impl<T> Send for SendPtr<T> {}
        // SAFETY: as above.
        unsafe impl<T> Sync for SendPtr<T> {}

        let (num_groups, amps_per_group) = self.group_shape(amps.len());
        let grain = (PAR_GRAIN_AMPS / amps_per_group).max(1);
        if num_groups <= grain {
            return self.apply_seq(amps);
        }
        let ptr = SendPtr(amps.as_mut_ptr());
        let n_chunks = num_groups.div_ceil(grain);
        (0..n_chunks).into_par_iter().for_each(|ci| {
            let start = ci * grain;
            let end = ((ci + 1) * grain).min(num_groups);
            let p = &ptr;
            // SAFETY: the slice holds the plan's `2^n` amplitudes (checked
            // by `group_shape`), each task's groups address its own tiles,
            // and a plan exists only for a detected ISA.
            unsafe { self.tiles.apply(p.0, start..end) };
        });
    }

    /// `(group_count, amps_per_group)` of the plan, which must be applied
    /// to `len` amplitudes.
    fn group_shape(&self, len: usize) -> (usize, usize) {
        let (n, groups, amps_per_group) = self.tiles.plan().shape();
        assert_eq!(len, 1 << n, "SimdPlan applied to mismatched state size");
        (groups, amps_per_group)
    }

    fn apply_range(&self, amps: &mut [Cplx<F>], groups: Option<Range<usize>>) {
        let (num_groups, _) = self.group_shape(amps.len());
        let groups = groups.unwrap_or(0..num_groups);
        // SAFETY: as in `apply_par`, on the calling thread.
        unsafe { self.tiles.apply(amps.as_mut_ptr(), groups) }
    }
}

#[cfg(test)]
impl<F: Float> SimdPlan<F> {
    /// The plan, built on `tier` (the portable lanes when `None`), with a
    /// lane-uniform table rebuilt lane by lane from `matrix`
    /// ([`tests::per_lane_tables`]), as every run built it before such
    /// tables were stored one scalar per entry.
    pub(crate) fn with_per_lane_tables(
        self,
        tier: Option<Isa>,
        qubits: &[usize],
        controls: &[usize],
        control_values: usize,
        matrix: &GateMatrix<F>,
    ) -> Self {
        fn rebuild<F: Float, G: Float, V: LaneVec<G> + 'static>(
            (n, qubits, controls, control_values): (usize, &[usize], &[usize], usize),
            matrix: Option<&GateMatrix<G>>,
            kernel: Kernel<G, MatPlan<G, V>>,
        ) -> Box<dyn Tiles<F>> {
            assert_eq!(TypeId::of::<F>(), TypeId::of::<G>());
            let matrix = matrix.expect("the plan's precision");
            let mut plan =
                build_mat::<G, V>(n, qubits, controls, control_values, matrix).expect("tiled");
            if let Coefs::Splat { .. } = plan.coefs {
                let (re, im) =
                    tests::per_lane_tables(V::LANES, qubits, controls, control_values, matrix);
                let lanes = |bits: Vec<u64>| -> Vec<Lane<V>> {
                    let at = |i: usize| G::from_f64(f64::from_bits(bits[i]));
                    (0..bits.len() / V::LANES)
                        .map(|e| Lane(V::from_fn(|l| at(e * V::LANES + l))))
                        .collect()
                };
                plan.coefs = Coefs::Lanes { re: lanes(re), im: lanes(im) };
            }
            Box::new(Planned { plan, kernel })
        }
        if controls.is_empty() && crate::kernels::is_diagonal(matrix) {
            return self;
        }
        let gate = (self.tiles.plan().shape().0, qubits, controls, control_values);
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        use super::{avx2, avx512};
        let tiles = match (tier, F::PRECISION) {
            (None, _) => rebuild(gate, Some(matrix), super::kernel::apply_mat_range::<F, P4<F>>),
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            (Some(Isa::Avx2), Precision::Single) => {
                rebuild(gate, cast_matrix(matrix), avx2::mat_f32)
            }
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            (Some(Isa::Avx2), Precision::Double) => {
                rebuild(gate, cast_matrix(matrix), avx2::mat_f64)
            }
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            (Some(Isa::Avx512), Precision::Single) => {
                rebuild(gate, cast_matrix(matrix), avx512::mat_f32)
            }
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            (Some(Isa::Avx512), Precision::Double) => {
                rebuild(gate, cast_matrix(matrix), avx512::mat_f64)
            }
            (Some(isa), _) => unreachable!("no tile plan on {isa:?}"),
        };
        SimdPlan { tiles }
    }
}

/// Miri-tractable coverage of the portable lane backend: the generic tile
/// kernel's raw-pointer arithmetic on small states, without intrinsics
/// (the integration suite in `tests/simd_equivalence.rs` covers the x86
/// tiers on real hardware at scale).
#[cfg(test)]
mod tests {
    use super::*;

    fn h_matrix() -> GateMatrix<f64> {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        GateMatrix::from_f64_pairs(2, &[(h, 0.), (h, 0.), (h, 0.), (-h, 0.)])
    }

    fn test_state(n: usize) -> Vec<Cplx<f64>> {
        let norm = 1.0 / ((1u64 << n) as f64).sqrt();
        (0..1usize << n)
            .map(|i| Cplx::from_f64(norm * (0.25 * i as f64).cos(), norm * (0.25 * i as f64).sin()))
            .collect()
    }

    fn assert_close(a: &[Cplx<f64>], b: &[Cplx<f64>]) {
        for (x, y) in a.iter().zip(b) {
            assert!((x.re - y.re).abs() < 1e-12 && (x.im - y.im).abs() < 1e-12);
        }
    }

    #[test]
    fn portable_mat_matches_scalar_on_every_qubit() {
        let n = 5;
        let m = h_matrix();
        let mut amps = test_state(n);
        let mut reference = amps.clone();
        for q in 0..n {
            let plan = SimdPlan::new_portable(n, &[q], &[], 0, &m).expect("n >= lane qubits");
            plan.apply_seq(&mut amps);
            crate::kernels::apply_gate_seq(&mut reference, &[q], &m);
        }
        assert_close(&amps, &reference);
    }

    #[test]
    fn portable_controlled_and_diag_match_scalar() {
        let n = 5;
        let m = h_matrix();
        let mut amps = test_state(n);
        let mut reference = amps.clone();
        // Controlled gate with one low and one high control.
        let plan = SimdPlan::new_portable(n, &[2], &[0, 4], 0b01, &m).expect("plannable");
        plan.apply_seq(&mut amps);
        crate::kernels::apply_controlled_gate_seq(&mut reference, &[2], &[0, 4], 0b01, &m);
        // Diagonal gate spanning the lane boundary.
        let mut cz = GateMatrix::<f64>::identity(4);
        cz.set(3, 3, -Cplx::one());
        let plan = SimdPlan::new_portable(n, &[1, 3], &[], 0, &cz).expect("plannable");
        plan.apply_par(&mut amps);
        crate::kernels::apply_gate_seq(&mut reference, &[1, 3], &cz);
        assert_close(&amps, &reference);
    }

    // ---- Block remainders and range edges --------------------------------
    //
    // The micro-kernel walks a group range in blocks of `G` groups and
    // finishes one group at a time. These tests cut `0..num_groups` into
    // pieces whose lengths are not multiples of any `G` (2, 4, 8) and that
    // start at offsets no `G` divides, and use states with fewer groups
    // than a block. Every lane backend must reproduce, bit for bit, the
    // unblocked order: each amplitude the sum of its gate columns,
    // ascending, two multiply-adds per part.

    /// The arithmetic of one lane backend: `(acc + a·b, acc − a·b)`.
    #[derive(Clone, Copy)]
    struct Madd<F> {
        add: fn(F, F, F) -> F,
        sub: fn(F, F, F) -> F,
    }

    /// The portable lanes round the product, then the sum.
    fn unfused<F: Float>() -> Madd<F> {
        Madd { add: |acc, a, b| acc + a * b, sub: |acc, a, b| acc - a * b }
    }

    fn rng_f64(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / (1u64 << 53) as f64 * 2.0 - 1.0
    }

    /// One output amplitude at a time, columns ascending: no tiles, no
    /// blocks, no staging.
    fn unblocked<F: Float>(
        amps: &[Cplx<F>],
        qubits: &[usize],
        controls: &[usize],
        control_values: usize,
        matrix: &GateMatrix<F>,
        madd: Madd<F>,
    ) -> Vec<Cplx<F>> {
        use crate::matrix::{deposit_bits, extract_bits};
        let target_mask = deposit_bits(matrix.dim() - 1, qubits);
        (0..amps.len())
            .map(|i| {
                if extract_bits(i, controls) != control_values {
                    return amps[i];
                }
                let row = extract_bits(i, qubits);
                let mut acc = Cplx { re: F::ZERO, im: F::ZERO };
                for c in 0..matrix.dim() {
                    let (m, s) =
                        (matrix.get(row, c), amps[(i & !target_mask) | deposit_bits(c, qubits)]);
                    acc.re = (madd.sub)((madd.add)(acc.re, m.re, s.re), m.im, s.im);
                    acc.im = (madd.add)((madd.add)(acc.im, m.re, s.im), m.im, s.re);
                }
                acc
            })
            .collect()
    }

    fn bits<F: Float>(amps: &[Cplx<F>]) -> Vec<(u64, u64)> {
        amps.iter().map(|a| (a.re.to_f64().to_bits(), a.im.to_f64().to_bits())).collect()
    }

    /// Gate shapes as `(low targets, high targets, low control, high
    /// control)` counts; qubits are placed around the lane boundary `lambda`.
    const EDGE_SHAPES: [(usize, usize, bool, bool); 7] = [
        (1, 0, false, false),
        (2, 0, true, false),
        (0, 1, false, false),
        (1, 1, false, true),
        (0, 2, false, false),
        (2, 2, false, false),
        (0, 3, true, true),
    ];

    /// Apply every shape to states of `groups` tile groups, in ragged
    /// pieces, and compare with the whole-state application, the
    /// unblocked order and the scalar kernel.
    fn check_range_edges<F: Float>(
        lambda: usize,
        madd: Madd<F>,
        plan_for: impl Fn(usize, &[usize], &[usize], usize, &GateMatrix<F>) -> Option<SimdPlan<F>>,
    ) {
        let mut seed = 0x5eed_0000 + lambda as u64;
        for (low, high, low_ctrl, high_ctrl) in EDGE_SHAPES {
            if low + usize::from(low_ctrl) > lambda {
                continue;
            }
            for group_qubits in [0usize, 1, 2, 5] {
                // Low targets from qubit 0 up, the low control on the top
                // lane qubit. The stripped high qubits (targets, then the
                // control) take every other position above the lane
                // boundary while the state has room, so group-counter bits
                // sit below, between and above them.
                let stripped = high + usize::from(high_ctrl);
                let n = lambda + stripped + group_qubits;
                let mut above = (0..stripped).map(|i| (lambda + 2 * i + 1).min(n - (stripped - i)));
                let mut qubits: Vec<usize> = (0..low).collect();
                qubits.extend(above.by_ref().take(high));
                let mut controls = Vec::new();
                if low_ctrl {
                    controls.push(lambda - 1);
                }
                controls.extend(above);
                let control_values = (1usize << controls.len()) - 1;
                let dim = 1usize << qubits.len();
                // Entries the size of a unitary's, as the tolerances assume.
                let scale = 1.0 / (dim as f64).sqrt();
                let entries: Vec<Cplx<F>> = (0..dim * dim)
                    .map(|_| Cplx::from_f64(rng_f64(&mut seed) * scale, rng_f64(&mut seed) * scale))
                    .collect();
                let matrix = GateMatrix::from_slice(dim, &entries);
                let state: Vec<Cplx<F>> = (0..1usize << n)
                    .map(|_| Cplx::from_f64(rng_f64(&mut seed), rng_f64(&mut seed)))
                    .collect();
                let plan = plan_for(n, &qubits, &controls, control_values, &matrix)
                    .expect("sized to tile");
                let (num_groups, _) = plan.group_shape(state.len());
                let what = format!("n={n} qubits={qubits:?} controls={controls:?}");

                let mut whole = state.clone();
                plan.apply_seq(&mut whole);
                let mut par = state.clone();
                plan.apply_par(&mut par);
                assert_eq!(bits(&whole), bits(&par), "apply_par, {what}");

                // One group, then 25 = 3·8 + 1 from offset 1, then 3 and 3:
                // no length a multiple of 2, 4 or 8. Last piece first.
                let mut cuts = vec![0, 1, 26, 29];
                cuts.retain(|&c| c < num_groups);
                cuts.push(num_groups);
                let mut ragged = state.clone();
                for piece in cuts.windows(2).rev() {
                    plan.apply_range(&mut ragged, Some(piece[0]..piece[1]));
                }
                assert_eq!(bits(&whole), bits(&ragged), "ragged pieces {cuts:?}, {what}");

                let reference =
                    unblocked(&state, &qubits, &controls, control_values, &matrix, madd);
                assert_eq!(bits(&whole), bits(&reference), "unblocked order, {what}");

                let mut scalar = state.clone();
                crate::kernels::apply_controlled_gate_seq(
                    &mut scalar,
                    &qubits,
                    &controls,
                    control_values,
                    &matrix,
                );
                let tol = match F::PRECISION {
                    Precision::Single => 1e-6,
                    Precision::Double => 1e-12,
                };
                for (x, y) in whole.iter().zip(&scalar) {
                    let d = (x.re.to_f64() - y.re.to_f64())
                        .abs()
                        .max((x.im.to_f64() - y.im.to_f64()).abs());
                    assert!(d <= tol, "scalar kernel differs by {d}, {what}");
                }
            }
        }
    }

    #[test]
    fn portable_block_remainders_and_range_edges() {
        check_range_edges::<f32>(2, unfused(), SimdPlan::new_portable);
        check_range_edges::<f64>(2, unfused(), SimdPlan::new_portable);
    }

    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[test]
    fn hardware_block_remainders_and_range_edges() {
        for isa in [Isa::Avx2, Isa::Avx512] {
            if isa > crate::simd::detected_isa() {
                println!("range edges: host lacks {}, tier skipped", isa.name());
                continue;
            }
            // The hardware lanes fuse: one rounding per multiply-add.
            check_range_edges::<f32>(
                isa.lane_qubits(Precision::Single),
                Madd { add: |acc, a, b| a.mul_add(b, acc), sub: |acc, a, b| (-a).mul_add(b, acc) },
                |n, q, c, v, m| SimdPlan::new_with_isa(isa, n, q, c, v, m),
            );
            check_range_edges::<f64>(
                isa.lane_qubits(Precision::Double),
                Madd { add: |acc, a, b| a.mul_add(b, acc), sub: |acc, a, b| (-a).mul_add(b, acc) },
                |n, q, c, v, m| SimdPlan::new_with_isa(isa, n, q, c, v, m),
            );
        }
    }

    #[test]
    fn portable_plan_rejects_too_small_states() {
        // One qubit < 2 lane qubits of the portable backend.
        assert!(SimdPlan::<f64>::new_portable(1, &[0], &[], 0, &h_matrix()).is_none());
    }

    // ---- Lane-uniform coefficient tables ---------------------------------

    /// The lanes of `v`, in lane order.
    fn lanes_of<F: Float, V: LaneVec<F>>(v: &V) -> Vec<F> {
        assert_eq!(std::mem::size_of::<V>(), V::LANES * std::mem::size_of::<F>());
        // SAFETY: every lane vector is `LANES` packed `F`s (size checked
        // above) and at least as aligned as `F`.
        unsafe { std::slice::from_raw_parts(v as *const V as *const F, V::LANES) }.to_vec()
    }

    /// The coefficient tables as the module doc defines them, one lane at
    /// a time: lane `l` of entry `r·dimk + c` is `M[row(l, r), c]`, or the
    /// identity's entry when `l` fails a low control. Lanes as `f64` bits.
    pub(super) fn per_lane_tables<F: Float>(
        lanes: usize,
        qubits: &[usize],
        controls: &[usize],
        control_values: usize,
        matrix: &GateMatrix<F>,
    ) -> (Vec<u64>, Vec<u64>) {
        let lambda = lanes.trailing_zeros() as usize;
        let high: Vec<usize> = (0..qubits.len()).filter(|&j| qubits[j] >= lambda).collect();
        let (mut re, mut im) = (Vec::new(), Vec::new());
        for r in 0..1usize << high.len() {
            for c in 0..matrix.dim() {
                for l in 0..lanes {
                    let mut row: usize =
                        high.iter().enumerate().map(|(i, &j)| ((r >> i) & 1) << j).sum();
                    for (j, &q) in qubits.iter().enumerate().filter(|&(_, &q)| q < lambda) {
                        row |= ((l >> q) & 1) << j;
                    }
                    let passes = controls
                        .iter()
                        .enumerate()
                        .all(|(j, &q)| q >= lambda || (l >> q) & 1 == (control_values >> j) & 1);
                    let z = if passes {
                        matrix.get(row, c)
                    } else {
                        Cplx { re: if c == row { F::ONE } else { F::ZERO }, im: F::ZERO }
                    };
                    re.push(z.re.to_f64().to_bits());
                    im.push(z.im.to_f64().to_bits());
                }
            }
        }
        (re, im)
    }

    /// `build_mat`'s tables on lane backend `V` against [`per_lane_tables`]:
    /// stored one scalar per entry (the gate is lane-uniform), and each
    /// scalar splatted as the kernel loads it. The caller has checked that
    /// the host runs `V`.
    fn tables_match_per_lane<F: Float, V: LaneVec<F>>(
        n: usize,
        qubits: &[usize],
        controls: &[usize],
        control_values: usize,
        matrix: &GateMatrix<F>,
    ) -> bool {
        let plan =
            build_mat::<F, V>(n, qubits, controls, control_values, matrix).expect("sized to tile");
        let Coefs::Splat { re, im } = &plan.coefs else { return false };
        let flat = |table: &[Splat<F>]| -> Vec<u64> {
            table
                .iter()
                .flat_map(|&Splat(x)| lanes_of::<F, V>(&V::splat(x)))
                .map(|x| x.to_f64().to_bits())
                .collect()
        };
        let want = per_lane_tables(V::LANES, qubits, controls, control_values, matrix);
        (flat(re), flat(im)) == want
    }

    /// Every lane backend the host has, plus the portable one, in `F`.
    fn tables_match_on_every_tier<F: Float>(
        n: usize,
        qubits: &[usize],
        controls: &[usize],
        control_values: usize,
        matrix: &GateMatrix<F>,
    ) -> bool {
        let (q, c, v) = (qubits, controls, control_values);
        let mut ok = tables_match_per_lane::<F, P4<F>>(n, q, c, v, matrix);
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            use crate::simd::{avx2, avx512};
            let has = |isa: Isa| isa <= crate::simd::detected_isa();
            if let Some(m) = cast_matrix::<F, f32>(matrix) {
                ok &= !has(Isa::Avx2) || tables_match_per_lane::<f32, avx2::F32x8>(n, q, c, v, m);
                ok &= !has(Isa::Avx512)
                    || tables_match_per_lane::<f32, avx512::F32x16>(n, q, c, v, m);
            }
            if let Some(m) = cast_matrix::<F, f64>(matrix) {
                ok &= !has(Isa::Avx2) || tables_match_per_lane::<f64, avx2::F64x4>(n, q, c, v, m);
                ok &=
                    !has(Isa::Avx512) || tables_match_per_lane::<f64, avx512::F64x8>(n, q, c, v, m);
            }
        }
        ok
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// A gate with every target and control above the widest lane
        /// boundary (16 lanes) stores one matrix entry per table entry;
        /// splatted, the tables equal the per-lane construction bit for
        /// bit.
        #[test]
        fn uniform_tables_equal_the_per_lane_construction(
            seed in 0u64..u64::MAX,
            k in 1usize..=6,
            num_controls in 0usize..=2,
        ) {
            let rng = &mut proptest::TestRng::from_seed(seed);
            let n = 4 + 6 + 2;
            let mut pool: Vec<usize> = (4..n).collect();
            let mut draw = |rng: &mut proptest::TestRng| {
                pool.swap_remove(rng.below(pool.len() as u64) as usize)
            };
            let mut qubits: Vec<usize> = (0..k).map(|_| draw(rng)).collect();
            qubits.sort_unstable();
            let controls: Vec<usize> = (0..num_controls).map(|_| draw(rng)).collect();
            let control_values = rng.below(1 << num_controls) as usize;
            let dim = 1usize << k;
            // Signed zeros among the entries: a splat must keep their sign.
            let mut entry = |i: usize| match i % 7 {
                0 => -0.0,
                _ => rng.unit_f64() * 2.0 - 1.0,
            };
            let pairs: Vec<(f64, f64)> =
                (0..dim * dim).map(|i| (entry(i), entry(i + 3))).collect();
            let m64 = GateMatrix::<f64>::from_f64_pairs(dim, &pairs);
            let m32 = GateMatrix::<f32>::from_f64_pairs(dim, &pairs);
            let what = format!("qubits {qubits:?} controls {controls:?} values {control_values:b}");
            proptest::prop_assert!(
                tables_match_on_every_tier(n, &qubits, &controls, control_values, &m64),
                "f64, {what}"
            );
            proptest::prop_assert!(
                tables_match_on_every_tier(n, &qubits, &controls, control_values, &m32),
                "f32, {what}"
            );
        }
    }
}
