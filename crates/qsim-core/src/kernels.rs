//! Matrix-free gate-application kernels.
//!
//! A `k`-qubit gate on qubits `qs` (sorted ascending) partitions the `2^n`
//! amplitudes into `2^{n-k}` independent groups of `2^k` amplitudes whose
//! indices differ only in the bits at positions `qs`. The kernel gathers
//! each group, multiplies by the `2^k × 2^k` gate matrix, and scatters the
//! result back — never materialising the sparse `2^n × 2^n` operator
//! (paper §2.2, Figure 4).
//!
//! Because groups are disjoint, the loop over groups is embarrassingly
//! parallel, mirroring how qsim's CUDA/HIP kernels assign groups to GPU
//! threads.
//!
//! **One ladder.** Every call into these kernels goes through a
//! [`PreparedGate`], which picks once — SIMD tile plan, else diagonal sweep,
//! else scalar groups — and then applies itself to `2^n` slices sequentially
//! or across cores. Four functions wrap it: the dispatching entry
//! ([`apply_gate_par`], [`apply_controlled_gate_slice_par`]) and the
//! sequential scalar reference ([`apply_gate_seq`],
//! [`apply_controlled_gate_seq`]), which is the prepared gate built without
//! its tile rung — the only path on a scalar ISA, and the oracle the SIMD
//! tiers are tested against. Amplitude slices are the one argument type; a
//! [`crate::StateVector`] derefs to one.
//!
//! The module also exposes the **high/low kernel split** used by the GPU
//! backends: gates whose targets are all `≥ 5` map to qsim's
//! `ApplyGateH_Kernel` (regular strided access), gates touching a qubit
//! `< 5` map to `ApplyGateL_Kernel` (intra-warp shuffles, extra work) —
//! see [`classify_gate`].

use std::borrow::Cow;

use rayon::prelude::*;

use crate::matrix::GateMatrix;
use crate::simd::SimdPlan;
use crate::types::{Cplx, Float};
use crate::LOW_QUBIT_THRESHOLD;

/// Maximum number of target qubits a single (fused) gate may act on.
/// qsim's fuser produces fused gates of up to 6 qubits; scratch buffers in
/// the kernels are sized accordingly (`2^6 = 64` amplitudes).
pub const MAX_GATE_QUBITS: usize = 6;

/// Parallel granularity of one gate on one state, in amplitudes.
///
/// It governs the parallel-vs-sequential decisions of the gate kernels and
/// the sweep: slices shorter than this run sequentially (rayon task
/// overhead would dominate the handful of groups), and parallel loops are
/// chunked so each rayon task touches at least this many amplitudes
/// (`with_min_len(PAR_GRAIN_AMPS / amps_per_item)`). How many *states* of a
/// gang share a task is a separate quantity, private to [`crate::batch`].
/// A backend that applies gates to a prefix of a state must keep the
/// prefix at least this long, or the dispatching entry switches to the
/// scalar reference and rounds differently (DESIGN.md §5.1).
/// 2^12 amplitudes is
/// 32–64 KiB — about one L1 cache worth of work per task, large enough to
/// amortize work-stealing overhead and small enough to load-balance.
pub const PAR_GRAIN_AMPS: usize = 1 << 12;

/// GPU kernel class a gate routes to, after qsim's shared-memory design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// All target qubits `≥ log2(32) = 5`: plain strided gather/scatter
    /// (`ApplyGateH_Kernel`).
    High,
    /// At least one target qubit `< 5`: amplitudes for one group live in
    /// the same 32-amplitude shared-memory tile, requiring data
    /// rearrangement (`ApplyGateL_Kernel`).
    Low,
}

impl KernelClass {
    /// The kernel symbol name as it appears in rocprof/nsys traces.
    pub const fn kernel_name(self) -> &'static str {
        match self {
            KernelClass::High => "ApplyGateH_Kernel",
            KernelClass::Low => "ApplyGateL_Kernel",
        }
    }
}

/// Classify which GPU kernel a gate on `qubits` routes to.
pub fn classify_gate(qubits: &[usize]) -> KernelClass {
    classify_gate_at(qubits, LOW_QUBIT_THRESHOLD)
}

/// Classify a gate against an arbitrary rearrangement boundary: targets
/// below `threshold` live inside one data tile (GPU: the 32-amplitude
/// warp tile, threshold 5; CPU: the SIMD register, threshold
/// `log2(lanes)`) and need the Low rearrangement path. A `threshold` of 0
/// (scalar CPU) classifies every gate as High.
pub fn classify_gate_at(qubits: &[usize], threshold: usize) -> KernelClass {
    if qubits.iter().any(|&q| q < threshold) {
        KernelClass::Low
    } else {
        KernelClass::High
    }
}

/// Insert zero bits into `g` at the (sorted ascending) `positions`,
/// producing the base index of group `g`.
#[inline]
pub fn insert_zero_bits(g: usize, positions: &[usize]) -> usize {
    let mut base = g;
    for &p in positions {
        let low = base & ((1usize << p) - 1);
        base = ((base >> p) << (p + 1)) | low;
    }
    base
}

/// Precompute, for each `m in 0..2^k`, the index offset obtained by
/// depositing the bits of `m` at the target-qubit positions (see
/// [`crate::matrix::deposit_bits`]).
fn group_offsets(qubits: &[usize]) -> Vec<usize> {
    let k = qubits.len();
    (0..1usize << k).map(|m| crate::matrix::deposit_bits(m, qubits)).collect()
}

/// Validate gate-application arguments; panics with a diagnostic message
/// on malformed input. Shared by [`PreparedGate`] and the SIMD tile plans so
/// every rung rejects bad input identically.
pub(crate) fn validate_gate_args(
    n: usize,
    qubits: &[usize],
    controls: &[usize],
    control_values: usize,
    matrix_dim: usize,
) {
    let k = qubits.len();
    assert!(
        (1..=MAX_GATE_QUBITS).contains(&k),
        "gate must act on 1..={MAX_GATE_QUBITS} qubits, got {k}"
    );
    assert_eq!(matrix_dim, 1usize << k, "matrix dimension does not match qubit count");
    assert!(
        qubits.windows(2).all(|w| w[0] < w[1]),
        "target qubits must be sorted ascending and distinct: {qubits:?}"
    );
    assert!(qubits.iter().all(|&q| q < n), "target qubit out of range for {n}-qubit state");
    assert!(controls.iter().all(|&q| q < n), "control qubit out of range for {n}-qubit state");
    assert!(
        controls.iter().all(|c| !qubits.contains(c)),
        "control qubits must not overlap target qubits"
    );
    assert!(
        controls.iter().enumerate().all(|(j, c)| !controls[..j].contains(c)),
        "control qubits must be distinct: {controls:?}"
    );
    assert!(
        control_values < (1usize << controls.len().max(1)) || controls.is_empty(),
        "control_values has bits beyond the control count"
    );
}

/// Scalar group decomposition of a gate: which amplitudes form each of the
/// `2^{n-k-c}` disjoint groups the `dim × dim` product is applied to. It
/// depends only on the register size and the qubit indices — not on the
/// matrix entries or the scalar precision. Building one is `O(2^k + n)`
/// against the `O(2^n)` pass it serves, so [`PreparedGate`] builds it on
/// demand and nothing caches it.
struct GatePlan {
    /// Sorted union of targets and controls (positions to strip from the
    /// group index).
    strip: Vec<usize>,
    /// Per-group amplitude offsets for the target qubits: `2^k` of them,
    /// the gate dimension.
    offsets: Vec<usize>,
    /// OR-mask of control bits that must be set in every touched index.
    control_mask: usize,
    /// Number of groups.
    num_groups: usize,
}

impl GatePlan {
    /// Precompute the group decomposition of a gate on `qubits` (with
    /// optional `controls`) over an `n`-qubit register. The arguments have
    /// passed [`validate_gate_args`].
    fn new(n: usize, qubits: &[usize], controls: &[usize], control_values: usize) -> GatePlan {
        let mut strip: Vec<usize> = qubits.iter().chain(controls.iter()).copied().collect();
        strip.sort_unstable();
        debug_assert!(strip.windows(2).all(|w| w[0] < w[1]));

        let mut control_mask = 0usize;
        for (j, &c) in controls.iter().enumerate() {
            if (control_values >> j) & 1 == 1 {
                control_mask |= 1usize << c;
            }
        }

        GatePlan {
            num_groups: 1usize << (n - strip.len()),
            strip,
            offsets: group_offsets(qubits),
            control_mask,
        }
    }
}

/// Process one amplitude group with a **compile-time** gate dimension —
/// the Rust analogue of qsim's size-templated kernels: with `DIM` known,
/// the gather, the `DIM×DIM` multiply-add and the scatter fully unroll.
#[inline(always)]
fn apply_group_fixed<F: Float, const DIM: usize>(
    amps: &mut [Cplx<F>],
    base: usize,
    offsets: &[usize],
    mat: &[Cplx<F>],
) {
    debug_assert_eq!(offsets.len(), DIM);
    debug_assert_eq!(mat.len(), DIM * DIM);
    let mut scratch = [Cplx::<F>::zero(); DIM];
    for m in 0..DIM {
        scratch[m] = amps[base | offsets[m]];
    }
    for r in 0..DIM {
        let row = &mat[r * DIM..(r + 1) * DIM];
        let mut acc = Cplx::zero();
        for m in 0..DIM {
            acc.mul_add_assign(row[m], scratch[m]);
        }
        amps[base | offsets[r]] = acc;
    }
}

/// Whether a gate matrix is diagonal (within exact zero off-diagonals —
/// fused CZ/CPhase/Rz chains produce exactly-zero entries).
pub fn is_diagonal<F: Float>(matrix: &GateMatrix<F>) -> bool {
    let dim = matrix.dim();
    for r in 0..dim {
        for c in 0..dim {
            if r != c {
                let v = matrix.get(r, c);
                if v.re != F::ZERO || v.im != F::ZERO {
                    return false;
                }
            }
        }
    }
    true
}

/// Diagonal rung: one linear sweep, no gather/scatter, no group
/// decomposition — each amplitude is scaled by the entry of `diag` selected
/// by its target-qubit bits (qsim's specialized diagonal kernels). Also
/// correct on any *aligned* `2^m`-amplitude sub-block of a larger state as
/// long as all target qubits are `< m` (the low `m` index bits are preserved
/// within such a block), which is how the cache-blocked sweep applies
/// diagonal gates block-locally.
fn apply_diagonal<F: Float>(
    amps: &mut [Cplx<F>],
    qubits: &[usize],
    diag: &[Cplx<F>],
    parallel: bool,
) {
    let scale = |(i, a): (usize, &mut Cplx<F>)| *a *= diag[crate::matrix::extract_bits(i, qubits)];
    if parallel {
        amps.par_iter_mut().enumerate().with_min_len(PAR_GRAIN_AMPS).for_each(scale);
    } else {
        amps.iter_mut().enumerate().for_each(scale);
    }
}

/// Sendable raw pointer to the amplitude array. Groups index disjoint
/// amplitude sets, so concurrent group processing is race-free; this
/// wrapper is the narrow unsafe bridge that lets rayon see that.
struct AmpsPtr<F>(*mut Cplx<F>);
// SAFETY: the pointer is only dereferenced inside the per-group closures,
// and each group touches a disjoint set of amplitudes (see `apply_groups`).
unsafe impl<F> Send for AmpsPtr<F> {}
// SAFETY: shared access is read-only bookkeeping (copying the pointer);
// writes through it target disjoint index sets per group.
unsafe impl<F> Sync for AmpsPtr<F> {}

impl<F> AmpsPtr<F> {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `Sync` wrapper, not the bare `*mut` field.
    #[inline(always)]
    fn get(&self) -> *mut Cplx<F> {
        self.0
    }
}

/// Scalar rung: every group of the plan's decomposition gets the
/// `dim × dim` matrix-vector product, the group range run inline or fanned
/// out across cores. The gate dimension is monomorphized here and nowhere
/// else. This is the arithmetic the SIMD kernels are validated against.
fn apply_groups<F: Float>(
    amps: &mut [Cplx<F>],
    p: &GatePlan,
    matrix: &GateMatrix<F>,
    parallel: bool,
) {
    fn run<F: Float, const DIM: usize>(
        amps: &mut [Cplx<F>],
        p: &GatePlan,
        mat: &[Cplx<F>],
        parallel: bool,
    ) {
        let base = |g: usize| insert_zero_bits(g, &p.strip) | p.control_mask;
        if !parallel {
            for g in 0..p.num_groups {
                apply_group_fixed::<F, DIM>(amps, base(g), &p.offsets, mat);
            }
            return;
        }
        let len = amps.len();
        let min_groups = (PAR_GRAIN_AMPS / DIM).max(1);
        let ptr = AmpsPtr(amps.as_mut_ptr());
        (0..p.num_groups).into_par_iter().with_min_len(min_groups).for_each(|g| {
            // SAFETY: distinct `g` produce disjoint index sets
            // `{base | off}` (the stripped bits uniquely identify the
            // group), and every index is `< len`.
            let amps = unsafe { std::slice::from_raw_parts_mut(ptr.get(), len) };
            apply_group_fixed::<F, DIM>(amps, base(g), &p.offsets, mat);
        });
    }
    let mat = matrix.as_slice();
    match p.offsets.len() {
        2 => run::<F, 2>(amps, p, mat, parallel),
        4 => run::<F, 4>(amps, p, mat, parallel),
        8 => run::<F, 8>(amps, p, mat, parallel),
        16 => run::<F, 16>(amps, p, mat, parallel),
        32 => run::<F, 32>(amps, p, mat, parallel),
        64 => run::<F, 64>(amps, p, mat, parallel),
        dim => unreachable!(
            "validate_gate_args bounds gates to {MAX_GATE_QUBITS} qubits, got dim {dim}"
        ),
    }
}

/// One gate, planned once for `2^n`-amplitude slices: the single place
/// that picks how a gate is applied. The ladder, first rung that fits:
///
/// 1. the SIMD tile plan of the active ISA ([`SimdPlan`]);
/// 2. the diagonal sweep, for an uncontrolled diagonal matrix;
/// 3. the scalar group kernel — the only rung on a scalar ISA and on
///    slices too small to tile.
///
/// A prepared gate applies to any number of `2^n` slices, sequentially or
/// across cores: the cache-blocked sweep applies one prepared at block
/// size sequentially to every block of every state of a gang;
/// [`apply_controlled_gate_slice_par`] builds one at state size and applies
/// it in parallel. [`PreparedGate::into_owned`] stops borrowing.
pub struct PreparedGate<'g, F: Float> {
    n: usize,
    rung: Rung<'g, F>,
}

enum Rung<'g, F: Float> {
    Tiles(SimdPlan<F>),
    Diagonal { qubits: Cow<'g, [usize]>, diag: Vec<Cplx<F>> },
    Groups { plan: GatePlan, matrix: Cow<'g, GateMatrix<F>> },
}

impl<'g, F: Float> PreparedGate<'g, F> {
    /// Plan a `k`-qubit gate on `qubits` (sorted ascending) over an
    /// `n`-qubit slice. `control_values` bit `j` gives the required value of
    /// `controls[j]` (qsim convention; all-ones for ordinary controlled
    /// gates). Panics with a diagnostic message on malformed arguments.
    pub fn new(
        n: usize,
        qubits: &'g [usize],
        controls: &[usize],
        control_values: usize,
        matrix: &'g GateMatrix<F>,
    ) -> Self {
        let simd = SimdPlan::new(n, qubits, controls, control_values, matrix);
        Self::with_tiles(n, qubits, controls, control_values, matrix, simd)
    }

    /// The gate [`apply_controlled_gate_slice_par`] applies to a `2^n`
    /// slice: below [`PAR_GRAIN_AMPS`] the scalar reference, else
    /// [`PreparedGate::new`].
    pub fn dispatching(
        n: usize,
        qubits: &'g [usize],
        controls: &[usize],
        control_values: usize,
        matrix: &'g GateMatrix<F>,
    ) -> Self {
        let simd = (1usize << n >= PAR_GRAIN_AMPS)
            .then(|| SimdPlan::new(n, qubits, controls, control_values, matrix));
        Self::with_tiles(n, qubits, controls, control_values, matrix, simd.flatten())
    }

    /// The ladder over a tile plan built by the caller; without one the
    /// gate is the scalar reference.
    pub(crate) fn with_tiles(
        n: usize,
        qubits: &'g [usize],
        controls: &[usize],
        control_values: usize,
        matrix: &'g GateMatrix<F>,
        simd: Option<SimdPlan<F>>,
    ) -> Self {
        validate_gate_args(n, qubits, controls, control_values, matrix.dim());
        let rung = match simd {
            Some(plan) => Rung::Tiles(plan),
            None if controls.is_empty() && is_diagonal(matrix) => Rung::Diagonal {
                qubits: Cow::Borrowed(qubits),
                diag: (0..matrix.dim()).map(|m| matrix.get(m, m)).collect(),
            },
            None => Rung::Groups {
                plan: GatePlan::new(n, qubits, controls, control_values),
                matrix: Cow::Borrowed(matrix),
            },
        };
        PreparedGate { n, rung }
    }

    /// The same gate, owning what its rung borrowed.
    pub fn into_owned(self) -> PreparedGate<'static, F> {
        let rung = match self.rung {
            Rung::Tiles(plan) => Rung::Tiles(plan),
            Rung::Diagonal { qubits, diag } => {
                Rung::Diagonal { qubits: Cow::Owned(qubits.into_owned()), diag }
            }
            Rung::Groups { plan, matrix } => {
                Rung::Groups { plan, matrix: Cow::Owned(matrix.into_owned()) }
            }
        };
        PreparedGate { n: self.n, rung }
    }

    /// Bytes the gate holds once owned.
    pub fn heap_bytes(&self) -> usize {
        size_of::<Self>()
            + match &self.rung {
                Rung::Tiles(plan) => plan.heap_bytes(),
                Rung::Diagonal { qubits, diag } => size_of_val(&**qubits) + size_of_val(&diag[..]),
                Rung::Groups { plan, matrix } => {
                    size_of_val(matrix.as_slice())
                        + size_of_val(&plan.strip[..])
                        + size_of_val(&plan.offsets[..])
                }
            }
    }

    /// Apply to one `2^n` slice on the calling thread.
    pub fn apply_seq(&self, amps: &mut [Cplx<F>]) {
        self.apply(amps, false);
    }

    /// Apply to one `2^n` slice across cores, in tasks of at least
    /// [`PAR_GRAIN_AMPS`] amplitudes (a shorter slice runs on the calling
    /// thread).
    pub fn apply_par(&self, amps: &mut [Cplx<F>]) {
        self.apply(amps, amps.len() >= PAR_GRAIN_AMPS);
    }

    fn apply(&self, amps: &mut [Cplx<F>], parallel: bool) {
        assert_eq!(amps.len(), 1usize << self.n, "gate prepared for 2^{} amplitudes", self.n);
        match &self.rung {
            Rung::Tiles(plan) if parallel => plan.apply_par(amps),
            Rung::Tiles(plan) => plan.apply_seq(amps),
            Rung::Diagonal { qubits, diag } => apply_diagonal(amps, qubits, diag, parallel),
            Rung::Groups { plan, matrix } => apply_groups(amps, plan, matrix, parallel),
        }
    }
}

/// Number of qubits represented by an amplitude slice (its log2 length).
fn slice_qubits<F>(amps: &[Cplx<F>]) -> usize {
    assert!(
        amps.len().is_power_of_two() && amps.len() >= 2,
        "amplitude slice length must be 2^n, got {}",
        amps.len()
    );
    amps.len().trailing_zeros() as usize
}

/// Apply a `k`-qubit gate sequentially with the scalar kernels — the
/// reference implementation every backend and every SIMD tier is validated
/// against. `amps` is a [`crate::StateVector`] (it derefs to its
/// amplitudes) or any other `2^n` slice, e.g. a simulated device buffer.
pub fn apply_gate_seq<F: Float>(amps: &mut [Cplx<F>], qubits: &[usize], matrix: &GateMatrix<F>) {
    apply_controlled_gate_seq(amps, qubits, &[], 0, matrix);
}

/// Controlled form of [`apply_gate_seq`]; see [`PreparedGate::new`] for the
/// control convention. Never dispatches to SIMD.
pub fn apply_controlled_gate_seq<F: Float>(
    amps: &mut [Cplx<F>],
    qubits: &[usize],
    controls: &[usize],
    control_values: usize,
    matrix: &GateMatrix<F>,
) {
    let n = slice_qubits(amps);
    PreparedGate::with_tiles(n, qubits, controls, control_values, matrix, None).apply_seq(amps);
}

/// Apply a `k`-qubit gate with the fastest kernels the host has, on all
/// cores; see [`apply_controlled_gate_slice_par`].
pub fn apply_gate_par<F: Float>(amps: &mut [Cplx<F>], qubits: &[usize], matrix: &GateMatrix<F>) {
    apply_controlled_gate_slice_par(amps, qubits, &[], 0, matrix);
}

/// The dispatching entry: a [`PreparedGate`] built at state size and
/// applied across cores. A slice shorter than [`PAR_GRAIN_AMPS`] goes
/// straight to the sequential scalar reference instead, never SIMD: it is
/// a handful of groups, less work than planning tiles and forking for them.
pub fn apply_controlled_gate_slice_par<F: Float>(
    amps: &mut [Cplx<F>],
    qubits: &[usize],
    controls: &[usize],
    control_values: usize,
    matrix: &GateMatrix<F>,
) {
    let n = slice_qubits(amps);
    PreparedGate::dispatching(n, qubits, controls, control_values, matrix).apply_par(amps);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statespace;
    use crate::statevec::StateVector;

    type SV = StateVector<f64>;

    fn h_matrix() -> GateMatrix<f64> {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        GateMatrix::from_f64_pairs(2, &[(h, 0.), (h, 0.), (h, 0.), (-h, 0.)])
    }

    fn x_matrix() -> GateMatrix<f64> {
        GateMatrix::from_f64_pairs(2, &[(0., 0.), (1., 0.), (1., 0.), (0., 0.)])
    }

    fn cnot_full() -> GateMatrix<f64> {
        // Control = qubit 0 (low bit), target = qubit 1, matching the
        // expand convention bit j ↔ qubits[j].
        GateMatrix::from_f64_pairs(
            4,
            &[
                (1., 0.),
                (0., 0.),
                (0., 0.),
                (0., 0.),
                (0., 0.),
                (0., 0.),
                (0., 0.),
                (1., 0.),
                (0., 0.),
                (0., 0.),
                (1., 0.),
                (0., 0.),
                (0., 0.),
                (1., 0.),
                (0., 0.),
                (0., 0.),
            ],
        )
    }

    #[test]
    fn x_flips_each_qubit() {
        for q in 0..4 {
            let mut sv = SV::new(4);
            apply_gate_seq(&mut sv, &[q], &x_matrix());
            assert_eq!(sv.amplitude(1 << q), Cplx::one(), "qubit {q}");
        }
    }

    #[test]
    fn hadamard_creates_superposition() {
        let mut sv = SV::new(1);
        apply_gate_seq(&mut sv, &[0], &h_matrix());
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!((sv.amplitude(0).re - h).abs() < 1e-15);
        assert!((sv.amplitude(1).re - h).abs() < 1e-15);
    }

    #[test]
    fn bell_state_via_two_qubit_matrix() {
        // H on qubit 0 then CNOT(0 -> 1) as a full 2-qubit matrix.
        let mut sv = SV::new(2);
        apply_gate_seq(&mut sv, &[0], &h_matrix());
        apply_gate_seq(&mut sv, &[0, 1], &cnot_full());
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!((sv.amplitude(0).re - h).abs() < 1e-15);
        assert!((sv.amplitude(3).re - h).abs() < 1e-15);
        assert!(sv.amplitude(1).abs() < 1e-15);
        assert!(sv.amplitude(2).abs() < 1e-15);
    }

    #[test]
    fn controlled_x_is_cnot() {
        // |10⟩ (qubit 0 = 0, qubit 1 = 1): control on qubit 1 fires, X on 0.
        let mut sv = SV::new(2);
        sv.set_basis_state(0b10);
        apply_controlled_gate_seq(&mut sv, &[0], &[1], 1, &x_matrix());
        assert_eq!(sv.amplitude(0b11), Cplx::one());

        // control not satisfied: state unchanged.
        let mut sv = SV::new(2);
        sv.set_basis_state(0b00);
        apply_controlled_gate_seq(&mut sv, &[0], &[1], 1, &x_matrix());
        assert_eq!(sv.amplitude(0b00), Cplx::one());
    }

    #[test]
    fn zero_control_values() {
        // Anti-controlled X: fires when control qubit is 0.
        let mut sv = SV::new(2);
        apply_controlled_gate_seq(&mut sv, &[0], &[1], 0, &x_matrix());
        assert_eq!(sv.amplitude(0b01), Cplx::one());
    }

    #[test]
    fn controlled_matches_expanded_matrix() {
        // A controlled gate must equal the equivalent full matrix applied
        // to the union of qubits.
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        let mut rnd = || {
            rng_state =
                rng_state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((rng_state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
        };
        let n = 5;
        let mut sv1 = SV::new(n);
        // random-ish normalized state
        {
            let amps = sv1.amplitudes_mut();
            for a in amps.iter_mut() {
                *a = Cplx::new(rnd(), rnd());
            }
        }
        statespace::normalize(&mut sv1);
        let mut sv2 = sv1.clone();

        // CX with control 3, target 1 via the controlled kernel...
        apply_controlled_gate_seq(&mut sv1, &[1], &[3], 1, &x_matrix());
        // ...and via a full 2-qubit matrix on {1,3}: |c t⟩ with bit0=q1
        // (target), bit1=q3 (control) ⇒ swap rows/cols 2,3 of identity.
        let cx = GateMatrix::from_f64_pairs(
            4,
            &[
                (1., 0.),
                (0., 0.),
                (0., 0.),
                (0., 0.),
                (0., 0.),
                (1., 0.),
                (0., 0.),
                (0., 0.),
                (0., 0.),
                (0., 0.),
                (0., 0.),
                (1., 0.),
                (0., 0.),
                (0., 0.),
                (1., 0.),
                (0., 0.),
            ],
        );
        apply_gate_seq(&mut sv2, &[1, 3], &cx);
        assert!(sv1.max_abs_diff(&sv2) < 1e-14);
    }

    #[test]
    fn par_matches_seq() {
        let n = 13; // above PAR_GRAIN_AMPS
        let mut seq = SV::new(n);
        // Build a non-trivial state with a few gates.
        for q in 0..n {
            apply_gate_seq(&mut seq, &[q], &h_matrix());
        }
        apply_gate_seq(&mut seq, &[0, 7], &cnot_full());
        let mut par = seq.clone();

        let big = h_matrix().expand_to(&[2], &[2, 6, 9]);
        apply_gate_seq(&mut seq, &[2, 6, 9], &big);
        apply_gate_par(&mut par, &[2, 6, 9], &big);
        assert!(seq.max_abs_diff(&par) < 1e-13);

        apply_controlled_gate_seq(&mut seq, &[3], &[10, 11], 0b11, &x_matrix());
        apply_controlled_gate_slice_par(par.amplitudes_mut(), &[3], &[10, 11], 0b11, &x_matrix());
        assert!(seq.max_abs_diff(&par) < 1e-13);
    }

    #[test]
    fn insert_zero_bits_basics() {
        // Insert a zero at bit 1: g=0b11 -> 0b101.
        assert_eq!(insert_zero_bits(0b11, &[1]), 0b101);
        // Insert at 0 and 2: g=0b11 -> 0b1010 (bits land at 1 and 3).
        assert_eq!(insert_zero_bits(0b11, &[0, 2]), 0b1010);
        // No positions: unchanged.
        assert_eq!(insert_zero_bits(42, &[]), 42);
    }

    #[test]
    fn group_enumeration_covers_all_indices_once() {
        let n = 6;
        let qubits = [1usize, 4];
        let offsets = group_offsets(&qubits);
        let mut seen = vec![false; 1 << n];
        for g in 0..(1usize << (n - 2)) {
            let base = insert_zero_bits(g, &qubits);
            for &off in &offsets {
                let idx = base | off;
                assert!(!seen[idx], "index {idx} visited twice");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn classify_and_name() {
        assert_eq!(classify_gate(&[5, 9]), KernelClass::High);
        assert_eq!(classify_gate(&[4, 9]), KernelClass::Low);
        assert_eq!(classify_gate(&[0]), KernelClass::Low);
        assert_eq!(KernelClass::High.kernel_name(), "ApplyGateH_Kernel");
        assert_eq!(KernelClass::Low.kernel_name(), "ApplyGateL_Kernel");
    }

    #[test]
    fn classify_at_arbitrary_thresholds() {
        // AVX2 f32 boundary (3 lane qubits).
        assert_eq!(classify_gate_at(&[2, 9], 3), KernelClass::Low);
        assert_eq!(classify_gate_at(&[3, 9], 3), KernelClass::High);
        // Scalar CPU: no lane qubits, everything is High.
        assert_eq!(classify_gate_at(&[0], 0), KernelClass::High);
        // Threshold 5 must agree with the GPU classification.
        for qs in [&[0usize, 7][..], &[4], &[5], &[6, 11]] {
            assert_eq!(classify_gate_at(qs, 5), classify_gate(qs));
        }
    }

    #[test]
    fn group_offsets_agree_with_deposit_bits() {
        // `group_offsets` is defined in terms of `matrix::deposit_bits`;
        // pin the agreement against a hand-rolled bit deposit.
        for qubits in [&[0usize][..], &[1, 4], &[0, 2, 5], &[1, 3, 6, 9]] {
            let offsets = group_offsets(qubits);
            assert_eq!(offsets.len(), 1 << qubits.len());
            for (m, &off) in offsets.iter().enumerate() {
                let mut expect = 0usize;
                for (j, &q) in qubits.iter().enumerate() {
                    expect |= ((m >> j) & 1) << q;
                }
                assert_eq!(off, expect, "qubits {qubits:?}, m={m}");
                assert_eq!(off, crate::matrix::deposit_bits(m, qubits));
            }
        }
    }

    #[test]
    fn norm_preserved_by_random_unitaries() {
        let mut sv = SV::new(8);
        for q in 0..8 {
            apply_gate_par(&mut sv, &[q], &h_matrix());
        }
        let norm: f64 = sv.amplitudes().iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_fast_path_matches_general() {
        // CZ ⊗ phase structure: a fused diagonal over 3 qubits.
        let mut d = GateMatrix::<f64>::identity(8);
        for (i, theta) in [(1usize, 0.3), (3, -0.9), (5, 1.4), (7, 2.2)] {
            d.set(i, i, Cplx::cis(theta));
        }
        assert!(d.is_unitary(1e-12));

        let n = 9;
        let mut state = SV::new(n);
        for q in 0..n {
            apply_gate_seq(&mut state, &[q], &h_matrix());
        }
        let reference = state.clone();
        let qs = [1usize, 4, 7];
        apply_gate_seq(&mut state, &qs, &d); // diagonal fast path

        // Reference: expand D to the full register and matvec.
        let full = d.expand_to(&qs, &(0..n).collect::<Vec<_>>());
        let expected = StateVector::from_amplitudes(full.matvec(reference.amplitudes()));
        let diff = state.max_abs_diff(&expected);
        assert!(diff < 1e-13, "diagonal path diverges by {diff}");
    }

    #[test]
    fn diagonal_par_matches_seq() {
        let mut d = GateMatrix::<f64>::identity(4);
        d.set(3, 3, Cplx::cis(0.7));
        let mut a = SV::new(13);
        for q in 0..13 {
            apply_gate_seq(&mut a, &[q], &h_matrix());
        }
        let mut b = a.clone();
        apply_gate_seq(&mut a, &[2, 9], &d);
        apply_gate_par(&mut b, &[2, 9], &d);
        assert!(a.max_abs_diff(&b) < 1e-14);
    }

    #[test]
    fn is_diagonal_detection() {
        assert!(super::is_diagonal(&GateMatrix::<f64>::identity(8)));
        assert!(!super::is_diagonal(&h_matrix()));
        let mut cz = GateMatrix::<f64>::identity(4);
        cz.set(3, 3, -Cplx::one());
        assert!(super::is_diagonal(&cz));
    }

    #[test]
    fn fixed_dim_kernels_cover_all_sizes() {
        // Exercise every monomorphized size 1..=6 against the full-matrix
        // reference (matvec on the whole state).
        let n = 8;
        for k in 1..=6usize {
            let qs: Vec<usize> = (0..k).map(|j| j + 1).collect(); // 1..=k
                                                                  // A non-trivial unitary: tensor power of H with a phase twist.
            let mut m = h_matrix();
            for _ in 1..k {
                m = m.tensor_high(&h_matrix());
            }
            m.set(0, 0, m.get(0, 0) * Cplx::cis(0.0)); // no-op, keeps m unitary
            let mut sv = SV::new(n);
            sv.set_basis_state(0b1010_1010 & ((1 << n) - 1));
            let mut reference = sv.clone();
            apply_gate_seq(&mut sv, &qs, &m);
            // reference: expand to full n-qubit matrix and matvec.
            let full = m.expand_to(&qs, &(0..n).collect::<Vec<_>>());
            let out = full.matvec(reference.amplitudes());
            reference = StateVector::from_amplitudes(out);
            let diff = sv.max_abs_diff(&reference);
            assert!(diff < 1e-12, "k={k}: diff {diff}");
        }
    }

    #[test]
    #[should_panic(expected = "sorted ascending")]
    fn unsorted_qubits_rejected() {
        let mut sv = SV::new(3);
        let m = GateMatrix::identity(4);
        apply_gate_seq(&mut sv, &[2, 1], &m);
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_control_rejected() {
        let mut sv = SV::new(3);
        apply_controlled_gate_seq(&mut sv, &[1], &[1], 1, &x_matrix());
    }

    #[test]
    #[should_panic(expected = "must be distinct")]
    fn duplicate_control_rejected() {
        // Release builds used to accept this and update half the groups.
        let mut sv = SV::new(5);
        apply_controlled_gate_seq(&mut sv, &[1], &[3, 3], 0b11, &x_matrix());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_rejected() {
        let mut sv = SV::new(3);
        apply_gate_seq(&mut sv, &[3], &x_matrix());
    }

    #[test]
    #[should_panic(expected = "matrix dimension")]
    fn matrix_size_mismatch_rejected() {
        let mut sv = SV::new(3);
        apply_gate_seq(&mut sv, &[0, 1], &x_matrix());
    }
}
