//! # qsim-fusion
//!
//! Gate-fusion transpiler: combines circuit gates into larger *fused
//! gates* of up to `max_fused_qubits` qubits, the optimization the paper
//! sweeps in every figure ("maximum number of fused gates", qsim's `-f`
//! flag).
//!
//! Fusion trades memory passes for arithmetic (paper §2.2, Figure 5): two
//! gates acting on the same qubit fuse by matrix product (*time fusion*),
//! gates on different qubits fuse by tensor product (*space fusion*). A
//! fused `k`-qubit gate applies one `2^k × 2^k` matrix in a single pass
//! over the state vector instead of several small passes — each pass reads
//! and writes the entire state, so on bandwidth-bound hardware fewer,
//! denser passes win until the `2^k`-sized matrix work and the shrinking
//! parallelism (`2^{n-k}` groups) take over; qsim (and this
//! reproduction) find the optimum at 4 fused qubits.
//!
//! The fuser decides, then builds. One order-preserving frontier scan in
//! [`planner`] (the `MultiQubitGateFuser` strategy) settles, on qubit sets
//! alone, which gates share a fused gate: a gate may merge into the most
//! recent fused gate that already owns its qubit frontier whenever the
//! merged qubit set still fits in `max_fused_qubits`; measurements are
//! fusion barriers. The default policy takes every such merge; the
//! cost-model-driven strategies price each one with a per-backend
//! [`cost::FusionCostModel`] first. `build` then records, for the one
//! layout that was chosen, each fused gate's site, source gates and
//! unitarity certificate; a gate composes its matrix when it is first
//! read ([`FusedGate::matrix`]), so a plan that is only estimated never
//! forms a product.

use std::borrow::Cow;
use std::collections::HashMap;
use std::mem::Discriminant;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use qsim_circuit::circuit::{Circuit, GateOp};
use qsim_circuit::gates::GateKind;
use qsim_core::kernels::MAX_GATE_QUBITS;
use qsim_core::matrix::{GateMatrix, SplitMatrix};
use qsim_core::types::{Cplx, Float};

mod certificate;
pub mod cost;
pub mod planner;

pub use certificate::gram_rounding;
pub use cost::{FusionCostModel, LaunchCostModel, LaunchPolicy, TrafficEstimate};
pub use planner::{plan, FusionPlan, FusionStrategy};

/// A fused unitary acting on a sorted set of qubits.
///
/// Sealed: its fields are private and nothing changes a gate once it is
/// made, so the unitarity certificate `build` derives beside a product
/// always speaks of the matrix it stands for. Where the gate acts and
/// what it folds read through `Deref` to its [`GateSite`]; the matrix
/// through [`FusedGate::matrix`], which composes it on the first read.
/// Clones share the product, so a plan and its copies compose each
/// matrix at most once.
#[derive(Debug, Clone)]
pub struct FusedGate {
    site: GateSite,
    product: Arc<Product>,
    /// An upper bound on `‖M·M† − I‖₂` for the matrix, from `build`.
    certificate: Option<f64>,
}

/// Where a [`FusedGate`] acts and which source gates it folds.
#[derive(Debug, Clone, PartialEq)]
pub struct GateSite {
    /// Sorted target qubits (bit `j` of the matrix index ↔ `qubits[j]`).
    pub qubits: Vec<usize>,
    /// How many source-circuit gates were folded into this one.
    pub source_gates: usize,
    /// `(first, last)` source time slices folded in.
    pub time_range: (usize, usize),
}

/// A fused gate's matrix: its source gates in merge order, and the
/// product once it is composed, always in `f64` (backends cast to their
/// working precision at application time).
#[derive(Debug)]
struct Product {
    /// Empty for a gate made by hand, whose matrix is given, and once the
    /// product is composed: the composition takes them.
    factors: Mutex<Vec<Factor>>,
    matrix: OnceLock<GateMatrix<f64>>,
    /// The identity probe's outcome, once run: the largest `|wᵢ − vᵢ|`
    /// and the rounding bound per unit of `‖v‖₂`; `None` for a product
    /// the probe does not run on.
    probe: OnceLock<Option<(f64, f64)>>,
}

/// One source gate of a product: its matrix over its sorted targets and
/// the controls that embed it, as qubit masks (a plan has at most 64
/// qubits).
#[derive(Debug, Clone)]
struct Factor {
    source: Arc<Source>,
    targets: u64,
    controls: u64,
}

impl std::ops::Deref for FusedGate {
    type Target = GateSite;

    fn deref(&self) -> &GateSite {
        &self.site
    }
}

/// Equal site and matrix bits; the certificate is how the matrix was
/// made, not what it is.
impl PartialEq for FusedGate {
    fn eq(&self, other: &FusedGate) -> bool {
        self.site == other.site && self.matrix() == other.matrix()
    }
}

impl FusedGate {
    /// A gate made by hand. It carries no certificate, so the pre-run
    /// check measures its matrix.
    pub fn new(
        qubits: Vec<usize>,
        matrix: GateMatrix<f64>,
        source_gates: usize,
        time_range: (usize, usize),
    ) -> FusedGate {
        let product = Product {
            factors: Mutex::default(),
            matrix: OnceLock::from(matrix),
            probe: OnceLock::new(),
        };
        FusedGate {
            site: GateSite { qubits, source_gates, time_range },
            product: Arc::new(product),
            certificate: None,
        }
    }

    /// The fused unitary in `f64`, composed from the source gates on the
    /// first read of this gate or any of its clones.
    pub fn matrix(&self) -> &GateMatrix<f64> {
        self.product.matrix.get_or_init(|| self.product.compose(self.certificate))
    }

    /// Whether [`FusedGate::matrix`] has been composed (or was given).
    pub fn is_composed(&self) -> bool {
        self.product.matrix.get().is_some()
    }

    /// The matrix dimension, without composing it: `2^width` for a built
    /// gate, the given matrix's for one made by hand.
    pub fn dim(&self) -> usize {
        self.product.matrix.get().map_or_else(|| 1 << self.width(), GateMatrix::dim)
    }

    /// An upper bound on the spectral norm `‖M·M† − I‖₂` of
    /// [`FusedGate::matrix`], derived by `build` from its source gates
    /// and the rounding of each merge; `None` for a gate made by
    /// [`FusedGate::new`] or with a non-finite factor.
    pub fn certificate(&self) -> Option<f64> {
        self.certificate
    }

    /// The fused matrix cast to the backend's working precision.
    pub fn matrix_as<F: Float>(&self) -> GateMatrix<F> {
        self.matrix().cast()
    }

    /// `self.matrix().is_identity(tol)`, composing the matrix only when a
    /// probe of the source gates cannot rule the identity out.
    ///
    /// The probe applies the factors, one after the other, to a fixed
    /// vector `v` of `2^k` unit-modulus entries: `2^k` work per factor
    /// column where composing costs `4^k`, once per product (clones share
    /// it). If the composed `M` passed, every `|Mᵢⱼ − δᵢⱼ|` would be below
    /// `tol` (to a few `u`, `u = 2⁻⁵³`), so `|(Mv − v)ᵢ| ≤ tol·‖v‖₁`; the
    /// probe `w` differs from the composed `Mv` by at most
    /// `certificate::ProbeRounding`'s bound times `‖v‖₂`. A probe with
    /// some `|wᵢ − vᵢ|` above twice their sum (the factor two covers the
    /// rounding of the figures themselves) proves `M` is not the identity
    /// within `tol`; any other composes `M` and decides as `is_identity`
    /// does. The verdict is `is_identity`'s either way.
    ///
    /// A product of one source gate is that gate's matrix, or its
    /// controlled expansion, whose other entries are exact zeros and
    /// ones: the gate's own `is_identity` is the verdict.
    pub fn is_identity(&self, tol: f64) -> bool {
        let verdict = if self.is_composed() {
            None
        } else {
            self.product.identity_verdict(&self.qubits, tol)
        };
        verdict.unwrap_or_else(|| self.matrix().is_identity(tol))
    }

    /// Number of target qubits (the fused gate's width `k`).
    pub fn width(&self) -> usize {
        self.qubits.len()
    }

    /// Highest target qubit — what decides whether the gate fits inside a
    /// cache block of the sweep executor.
    pub fn max_qubit(&self) -> usize {
        *self.qubits.last().expect("fused gate acts on at least one qubit")
    }

    /// Whether this gate applies block-locally for blocks of
    /// `2^block_qubits` amplitudes (see [`qsim_core::sweep`]).
    pub fn is_block_local(&self, block_qubits: usize) -> bool {
        qsim_core::sweep::is_block_local(&self.qubits, block_qubits)
    }

    /// Heap bytes the gate's product holds of its own: the product, its
    /// factor list and, once composed, the matrix. The source gates the
    /// factors share are counted by [`FusedCircuit::heap_bytes`].
    fn product_bytes(&self) -> usize {
        let factors = self.product.factors().capacity() * size_of::<Factor>();
        let matrix = self.product.matrix.get().map_or(0, |m| size_of_val(m.as_slice()));
        size_of::<Product>() + factors + matrix
    }
}

impl Product {
    /// The factors not yet composed.
    fn factors(&self) -> MutexGuard<'_, Vec<Factor>> {
        // Nothing panics while holding the lock but the allocator; the
        // list is whole either way.
        self.factors.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Compose the factors in merge order: the first enters as it is,
    /// each next one multiplies in through [`SplitMatrix::set_product`] on
    /// the union of the qubits so far, the product widened in place, and
    /// the split planes interleave once at the end; the factors are freed.
    /// Debug builds measure the product's Gram matrix against its
    /// certificate, so every test run that reads a product checks the
    /// proof.
    fn compose(&self, certificate: Option<f64>) -> GateMatrix<f64> {
        count_composed();
        let factors = std::mem::take(&mut *self.factors());
        let (first, rest) = factors.split_first().expect("a built product has a factor");
        let (mut qubits, first) = first.operand();
        let mut product = SplitMatrix::default();
        let mut next = SplitMatrix::default();
        for (i, factor) in rest.iter().enumerate() {
            let (gate_qubits, gate) = factor.operand();
            let union = union_sorted(&qubits, &gate_qubits);
            match i {
                0 => product.set_expanded(&first, &qubits, &union),
                _ => product.widen(&qubits, &union),
            }
            next.set_product(&gate, &gate_qubits, &union, &product);
            std::mem::swap(&mut product, &mut next);
            qubits = union;
        }
        let matrix = if rest.is_empty() { first.into_owned() } else { product.to_matrix() };
        if let (true, Some(cert)) = (cfg!(debug_assertions), certificate) {
            let (d, measured) = (matrix.dim(), matrix.unitarity_deviation(f64::INFINITY));
            assert!(
                measured.is_some_and(|m| m <= cert + gram_rounding(d, cert)),
                "a {d}×{d} product certified within {cert:e} measures {measured:?}"
            );
        }
        matrix
    }

    /// [`FusedGate::is_identity`]'s verdict on the product on the sorted
    /// `qubits` where it needs no composing: a lone source gate's own, or
    /// `false` where the probe rules the identity out; `None` otherwise.
    /// The probe runs once per product, whatever the `tol`.
    fn identity_verdict(&self, qubits: &[usize], tol: f64) -> Option<bool> {
        let probe = match self.probe.get() {
            Some(probe) => *probe,
            None => {
                let factors = self.factors();
                if let [only] = factors.as_slice() {
                    return Some(only.source.matrix.is_identity(tol));
                }
                *self.probe.get_or_init(|| probe(&factors, qubits))
            }
        };
        let d = (1usize << qubits.len()) as f64;
        let (gap, rounding) = probe?;
        // |vⱼ| = 1 to within 2u, which the factor two covers; NaN composes.
        (gap > 2.0 * (tol * d + rounding * d.sqrt())).then_some(false)
    }
}

/// Apply `factors` to the probe vector `v`: the largest `|wᵢ − vᵢ|`
/// of the result `w`, and the rounding bound. `None` for a
/// factor without a certificate, one on more than two targets, or a
/// product wider than the kernels (a controlled gate that passes
/// unfused).
fn probe(factors: &[Factor], qubits: &[usize]) -> Option<(f64, f64)> {
    let site = qubits.iter().fold(0u64, |mask, &q| mask | 1 << q);
    match 1usize << qubits.len() {
        d @ ..=4 => probe_in::<4>(factors, site, d),
        d @ ..=16 => probe_in::<16>(factors, site, d),
        d @ ..=PROBE_DIM => probe_in::<PROBE_DIM>(factors, site, d),
        _ => None,
    }
}

/// [`probe`] over the first `d ≤ D` entries.
fn probe_in<const D: usize>(factors: &[Factor], site: u64, d: usize) -> Option<(f64, f64)> {
    let v: &[Cplx<f64>; D] = probe_vector()[..D].try_into().expect("D ≤ PROBE_DIM");
    let mut buffers = (*v, *v);
    let (mut w, mut out) = (&mut buffers.0, &mut buffers.1);
    let mut rounding = certificate::ProbeRounding::new(d);
    for f in factors {
        let (t, c) = (positions(f.targets, site), positions(f.controls, site));
        rounding.add(f.source.certificate?, 1 << (t | c).count_ones());
        match t.count_ones() {
            1 => f.apply::<2, D>(t, c, d, w, out),
            2 => f.apply::<4, D>(t, c, d, w, out),
            _ => return None,
        }
        std::mem::swap(&mut w, &mut out);
    }
    let gap = w[..d].iter().zip(v).map(|(w, v)| (*w - *v).norm_sqr()).fold(0.0, f64::max);
    Some((gap.sqrt(), rounding.bound()))
}

/// The widest product the identity probe runs on: the kernels' widest.
const PROBE_DIM: usize = 1 << MAX_GATE_QUBITS;

/// The identity probe's vector: unit-modulus entries whose phases step by
/// the golden angle, so no two entries line up with a small gate's
/// symmetries.
fn probe_vector() -> &'static [Cplx<f64>; PROBE_DIM] {
    static PROBE: OnceLock<[Cplx<f64>; PROBE_DIM]> = OnceLock::new();
    PROBE.get_or_init(|| {
        std::array::from_fn(|j| {
            let phase = j as f64 * 2.399_963_229_728_653 + 0.5;
            Cplx::new(phase.cos(), phase.sin())
        })
    })
}

impl Factor {
    /// The factor as it multiplies in: its matrix over its sorted qubits,
    /// a controlled gate expanded over its targets and controls.
    fn operand(&self) -> (Vec<usize>, Cow<'_, GateMatrix<f64>>) {
        let targets: Vec<usize> = bits(self.targets).collect();
        if self.controls == 0 {
            return (targets, Cow::Borrowed(&self.source.matrix));
        }
        let controls: Vec<usize> = bits(self.controls).collect();
        let (qubits, matrix) = expand_controlled(&targets, &controls, &self.source.matrix);
        (qubits, Cow::Owned(matrix))
    }

    /// `out = G·w` over the first `d` entries, `G` the factor, of `N`
    /// columns, on the index bits `t` under the controls `c`: a row whose
    /// controls are not all set keeps its entry, every other sums its
    /// gate row.
    fn apply<const N: usize, const D: usize>(
        &self,
        t: usize,
        c: usize,
        d: usize,
        w: &[Cplx<f64>; D],
        out: &mut [Cplx<f64>; D],
    ) {
        let at = D - 1;
        // The gate by columns, in split planes: `g[j][r]` is `m[r][j]`.
        let m = self.source.matrix.as_slice();
        let g_re: [[f64; N]; N] = std::array::from_fn(|j| std::array::from_fn(|r| m[r * N + j].re));
        let g_im: [[f64; N]; N] = std::array::from_fn(|j| std::array::from_fn(|r| m[r * N + j].im));
        let mut offsets = [0; N];
        for j in 1..N {
            offsets[j] = next_submask(offsets[j - 1], t);
        }
        let rest = (d - 1) & !t;
        let mut base = 0;
        loop {
            let x: [Cplx<f64>; N] = std::array::from_fn(|j| w[(base | offsets[j]) & at]);
            let (mut re, mut im) = ([0.0; N], [0.0; N]);
            for j in 0..N {
                for r in 0..N {
                    re[r] += g_re[j][r] * x[j].re - g_im[j][r] * x[j].im;
                    im[r] += g_re[j][r] * x[j].im + g_im[j][r] * x[j].re;
                }
            }
            let active = base & c == c;
            for r in 0..N {
                let z = if active { Cplx::new(re[r], im[r]) } else { x[r] };
                out[(base | offsets[r]) & at] = z;
            }
            base = next_submask(base, rest);
            if base == 0 {
                break;
            }
        }
    }
}

/// The qubits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let q = (mask != 0).then(|| mask.trailing_zeros() as usize);
        mask &= mask.wrapping_sub(1);
        q
    })
}

/// The index bits of the qubits `mask` within the sorted set `site`.
fn positions(mask: u64, site: u64) -> usize {
    bits(mask).map(|q| 1 << (site & ((1 << q) - 1)).count_ones()).sum()
}

/// The next submask of `mask` after `x`, ascending; `0` after the last.
fn next_submask(x: usize, mask: usize) -> usize {
    (x | !mask).wrapping_add(1) & mask
}

/// One operation of a fused circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum FusedOp {
    /// A fused unitary gate.
    Unitary(FusedGate),
    /// A measurement barrier (kept in place; never fused across).
    Measurement { qubits: Vec<usize>, time: usize },
}

/// The fuser's output: an op list equivalent to the source circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedCircuit {
    pub num_qubits: usize,
    pub ops: Vec<FusedOp>,
    /// The `max_fused_qubits` this circuit was fused with.
    pub max_fused_qubits: usize,
}

impl FusedCircuit {
    /// Number of fused unitary passes (the quantity that determines
    /// memory traffic).
    pub fn num_unitaries(&self) -> usize {
        self.ops.iter().filter(|op| matches!(op, FusedOp::Unitary(_))).count()
    }

    /// Iterator over the fused unitaries.
    pub fn unitaries(&self) -> impl Iterator<Item = &FusedGate> {
        self.ops.iter().filter_map(|op| match op {
            FusedOp::Unitary(g) => Some(g),
            FusedOp::Measurement { .. } => None,
        })
    }

    /// Iterator over the measurement barriers as `(sorted qubits, time)`,
    /// in plan order — the metadata plan-level lint rules cross-check
    /// against the source circuit.
    pub fn measurements(&self) -> impl Iterator<Item = (&[usize], usize)> {
        self.ops.iter().filter_map(|op| match op {
            FusedOp::Unitary(_) => None,
            FusedOp::Measurement { qubits, time } => Some((qubits.as_slice(), *time)),
        })
    }

    /// Total source-circuit gates folded into this plan's unitaries
    /// (excludes measurements). A correct plan accounts for every
    /// non-measurement gate of its source circuit exactly once.
    pub fn source_gate_count(&self) -> usize {
        self.unitaries().map(|g| g.source_gates).sum()
    }

    /// Fusion statistics for reporting.
    pub fn stats(&self) -> FusionStats {
        let mut stats = FusionStats {
            source_gates: 0,
            fused_gates: 0,
            fused_by_qubit_count: [0; MAX_GATE_QUBITS + 1],
            over_wide: 0,
        };
        for g in self.unitaries() {
            match stats.fused_by_qubit_count.get_mut(g.width()) {
                Some(count) => *count += 1,
                None => stats.over_wide += 1,
            }
            stats.source_gates += g.source_gates;
            stats.fused_gates += 1;
        }
        stats
    }

    /// Pass accounting of this circuit under the cache-blocked sweep:
    /// how many full passes over the state the sweep executor would make
    /// (measurements are sweep barriers, like fusion barriers).
    pub fn sweep_stats(
        &self,
        config: &qsim_core::sweep::SweepConfig,
    ) -> qsim_core::sweep::SweepStats {
        qsim_core::sweep::sweep_stats(self.op_shapes(), config, self.num_qubits)
    }

    /// The plan reduced to what pass accounting, cost models and swap
    /// scheduling read: per op, the sorted qubits of a unitary or `None`
    /// for a measurement barrier (the [`qsim_core::sweep::sweep_stats`]
    /// convention).
    pub fn op_shapes(&self) -> Vec<Option<&[usize]>> {
        self.ops
            .iter()
            .map(|op| match op {
                FusedOp::Unitary(g) => Some(g.qubits.as_slice()),
                FusedOp::Measurement { .. } => None,
            })
            .collect()
    }

    /// Heap bytes the plan's products hold: each gate's product, its
    /// factor list until it composes and its `f64` matrix after, and each
    /// distinct source gate the remaining factors share, once.
    pub fn heap_bytes(&self) -> usize {
        // Each source gate by address, with its bytes.
        let mut sources: Vec<(*const Source, usize)> = Vec::new();
        for g in self.unitaries() {
            sources.extend(g.product.factors().iter().map(|f| {
                (
                    Arc::as_ptr(&f.source),
                    size_of::<Source>() + size_of_val(f.source.matrix.as_slice()),
                )
            }));
        }
        sources.sort_unstable();
        sources.dedup();
        let source_bytes: usize = sources.iter().map(|&(_, bytes)| bytes).sum();
        self.unitaries().map(FusedGate::product_bytes).sum::<usize>() + source_bytes
    }

    /// Order-sensitive hash of the plan's *functional* content: qubit
    /// count, op sequence, target sets, and bit-exact matrix entries —
    /// ignoring provenance (`source_gates`, `time_range`). Two plans with
    /// equal hashes execute identically, which is what lets the serve
    /// layer's coalescing queue gang-schedule hash-equal Batch-class jobs
    /// through one `run_batch` call.
    /// Variable-length fields (op list, qubit sets, matrix entries) are
    /// hashed with explicit `write_u64` length prefixes, mirroring
    /// `Circuit::content_hash`: adjacent fields must not be able to alias
    /// even if std's `Hash` encodings for `str`/`Vec` change.
    pub fn content_hash(&self) -> u64 {
        use std::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        h.write_u64(self.num_qubits as u64);
        h.write_u64(self.ops.len() as u64);
        for op in &self.ops {
            match op {
                FusedOp::Unitary(g) => {
                    h.write_u8(0);
                    h.write_u64(g.qubits.len() as u64);
                    for &q in &g.qubits {
                        h.write_u64(q as u64);
                    }
                    let entries = g.matrix().as_slice();
                    h.write_u64(entries.len() as u64);
                    for a in entries {
                        h.write_u64(a.re.to_bits());
                        h.write_u64(a.im.to_bits());
                    }
                }
                FusedOp::Measurement { qubits, time } => {
                    h.write_u8(1);
                    h.write_u64(qubits.len() as u64);
                    for &q in qubits {
                        h.write_u64(q as u64);
                    }
                    h.write_u64(*time as u64);
                }
            }
        }
        h.finish()
    }
}

/// Summary statistics of a fusion pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionStats {
    /// Unitary gates in the source circuit.
    pub source_gates: usize,
    /// Fused unitaries produced.
    pub fused_gates: usize,
    /// Histogram: `fused_by_qubit_count[k]` = fused gates acting on `k`
    /// qubits.
    pub fused_by_qubit_count: [usize; MAX_GATE_QUBITS + 1],
    /// Fused gates wider than [`MAX_GATE_QUBITS`], outside the histogram: a
    /// gate with enough controls passes through unfused that wide, and no
    /// kernel applies it (the pre-run check refuses the plan).
    pub over_wide: usize,
}

impl FusionStats {
    /// Average source gates folded per fused gate — the compression ratio
    /// that drives the bandwidth saving.
    pub fn compression(&self) -> f64 {
        if self.fused_gates == 0 {
            0.0
        } else {
            self.source_gates as f64 / self.fused_gates as f64
        }
    }
}

/// Fuse `circuit` with the given `max_fused_qubits` (1..=6; qsim default 2,
/// paper optimum 4), taking every legal merge.
///
/// Semantics are preserved exactly: the emitted op sequence applies the
/// same unitary (and the same measurements, in order) as the source
/// circuit. Gates wider than `max_fused_qubits` pass through unfused.
pub fn fuse(circuit: &Circuit, max_fused_qubits: usize) -> FusedCircuit {
    planner::check(circuit, max_fused_qubits);
    build(circuit, &planner::decide(circuit, max_fused_qubits, planner::Policy::Greedy))
}

/// Replay a decided `layout` over `circuit`: each output slot's qubits,
/// source count and time range, its source gates in order, and its
/// [`FusedGate::certificate`] — everything but the product, which the
/// gate composes from those source gates when it is first read.
///
/// Each source gate's matrix and certificate come from [`Sources`], once
/// per distinct gate, shared by every slot that folds it. Beside each
/// slot runs its certificate: a slot opens with its first gate's measured
/// deviation, and every merge adds the next gate's and a bound on the
/// merge's rounding (`certificate.rs`), from dimensions alone, so neither
/// the pre-run check nor `build` forms the product to certify it.
fn build(circuit: &Circuit, layout: &planner::Layout) -> FusedCircuit {
    // How many source gates each output slot folds.
    let mut folds: Vec<usize> = Vec::with_capacity(layout.slots.len());
    for action in &layout.actions {
        match *action {
            planner::Action::Merge(t) => folds[t] += 1,
            planner::Action::New => folds.push(1),
        }
    }
    let mut sources = Sources::default();
    let mut ops: Vec<FusedOp> = Vec::with_capacity(folds.len());
    for (op, action) in circuit.ops.iter().zip(&layout.actions) {
        if op.is_measurement() {
            let mut qs = op.qubits.clone();
            qs.sort_unstable();
            ops.push(FusedOp::Measurement { qubits: qs, time: op.time });
            continue;
        }

        // Extra controls make a gate opaque to the fuser: it enters as a
        // plain unitary over targets+controls with the expanded matrix.
        // They embed the gate as `I ⊕ matrix`, which leaves `‖M·M† − I‖₂`
        // as it was: the certificate is the bare gate's.
        let mask = |qubits: &[usize]| qubits.iter().fold(0u64, |mask, &q| mask | 1 << q);
        let factor = Factor {
            source: sources.get(op).clone(),
            targets: mask(&op.qubits),
            controls: mask(&op.controls),
        };
        let (mut buf, mut n) = ([0; 64], 0);
        for q in bits(factor.targets | factor.controls) {
            (buf[n], n) = (q, n + 1);
        }
        let qubits = &buf[..n];
        let certificate = factor.source.certificate;

        match *action {
            planner::Action::Merge(t) => {
                let FusedOp::Unitary(b) = &mut ops[t] else {
                    unreachable!("merge target is a gate slot")
                };
                let mut union = [0; MAX_GATE_QUBITS];
                let n = union_into(&b.qubits, qubits, &mut union);
                b.certificate = certificate.zip(b.certificate).map(|(gate, product)| {
                    certificate::of_product(gate, product, 1 << qubits.len(), 1 << n)
                });
                let product = Arc::get_mut(&mut b.product).expect("build owns its products");
                product.factors.get_mut().unwrap_or_else(PoisonError::into_inner).push(factor);
                b.site.qubits.clear();
                b.site.qubits.extend_from_slice(&union[..n]);
                b.site.source_gates += 1;
                b.site.time_range.1 = op.time;
            }
            planner::Action::New => {
                let slot = ops.len();
                let mut site = Vec::with_capacity(layout.slots[slot].as_ref().map_or(0, Vec::len));
                site.extend_from_slice(qubits);
                let mut factors = Vec::with_capacity(folds[slot]);
                factors.push(factor);
                ops.push(FusedOp::Unitary(FusedGate {
                    site: GateSite {
                        qubits: site,
                        source_gates: 1,
                        time_range: (op.time, op.time),
                    },
                    product: Arc::new(Product {
                        factors: Mutex::new(factors),
                        matrix: OnceLock::new(),
                        probe: OnceLock::new(),
                    }),
                    certificate,
                }));
            }
        }
    }
    FusedCircuit { num_qubits: circuit.num_qubits, ops, max_fused_qubits: layout.max_fused_qubits }
}

/// A source gate as a product folds it: its matrix over its sorted
/// targets, and that matrix's certificate.
#[derive(Debug)]
struct Source {
    matrix: GateMatrix<f64>,
    certificate: Option<f64>,
}

/// The source gates one [`build`] has met, each once: keyed by kind,
/// the bits of its parameters (`Rz(0.0) == Rz(-0.0)`, but their matrices
/// differ in the sign of a zero) and the order of its operands (the
/// permutation `sorted_matrix` applies). A controlled gate keys on its
/// bare gate, whose certificate it shares. It lives for one `build`, so a
/// build starts cold, as a fresh process would, and holds one entry per
/// distinct gate. The last few keys found are compared before any is
/// hashed: a circuit of a handful of gate kinds never hashes a hit.
#[derive(Default)]
struct Sources {
    list: Vec<Arc<Source>>,
    index: HashMap<SourceKey, usize>,
    recent: [Option<(SourceKey, usize)>; 4],
}

type SourceKey = (Discriminant<GateKind>, u64, u64, usize);

impl Sources {
    fn get(&mut self, op: &GateOp) -> &Arc<Source> {
        let ([p0, p1], _) = op.kind.params_fixed();
        let order = op
            .qubits
            .iter()
            .fold(0, |order, q| order << 4 | op.qubits.iter().filter(|&p| p < q).count());
        let key = (std::mem::discriminant(&op.kind), p0.to_bits(), p1.to_bits(), order);
        if let Some((_, i)) = self.recent.iter().flatten().find(|(seen, _)| *seen == key) {
            return &self.list[*i];
        }
        let list = &mut self.list;
        let i = *self.index.entry(key).or_insert_with(|| {
            let (_, matrix) =
                op.sorted_matrix::<f64>().expect("non-measurement gates have matrices");
            list.push(Arc::new(Source { certificate: certificate::of_source(&matrix), matrix }));
            list.len() - 1
        });
        self.recent.rotate_right(1);
        self.recent[0] = Some((key, i));
        &self.list[i]
    }
}

/// Expand a gate with extra always-one controls into a plain unitary over
/// `targets ∪ controls`.
fn expand_controlled(
    targets: &[usize],
    controls: &[usize],
    matrix: &GateMatrix<f64>,
) -> (Vec<usize>, GateMatrix<f64>) {
    let union = {
        let mut u: Vec<usize> = targets.iter().chain(controls.iter()).copied().collect();
        u.sort_unstable();
        u
    };
    let dim = 1usize << union.len();
    let mut out = GateMatrix::<f64>::identity(dim);
    let control_mask: usize = controls
        .iter()
        .map(|c| 1usize << union.iter().position(|u| u == c).expect("control in union"))
        .sum();
    let target_pos: Vec<usize> = targets
        .iter()
        .map(|t| union.iter().position(|u| u == t).expect("target in union"))
        .collect();
    let tmask = targets_mask(&target_pos);
    for r in 0..dim {
        if r & control_mask != control_mask {
            continue; // identity row (already set)
        }
        let rt = qsim_core::matrix::extract_bits(r, &target_pos);
        // Clear the identity diagonal for this controlled row.
        out.set(r, r, qsim_core::types::Cplx::zero());
        for ct in 0..matrix.dim() {
            let c = (r & !tmask) | qsim_core::matrix::deposit_bits(ct, &target_pos);
            out.set(r, c, matrix.get(rt, ct));
        }
    }
    (union, out)
}

fn targets_mask(positions: &[usize]) -> usize {
    positions.iter().map(|&p| 1usize << p).sum()
}

/// Merge two sorted, distinct qubit lists into `out`; returns the
/// union's length.
fn union_into(a: &[usize], b: &[usize], out: &mut [usize]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() || j < b.len() {
        let x = a.get(i).copied().unwrap_or(usize::MAX);
        let y = b.get(j).copied().unwrap_or(usize::MAX);
        out[n] = x.min(y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
        n += 1;
    }
    n
}

/// [`union_into`] as a new list.
fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = vec![0; a.len() + b.len()];
    let n = union_into(a, b, &mut out);
    out.truncate(n);
    out
}

#[cfg(not(test))]
fn count_composed() {}
#[cfg(test)]
use tests::count_composed;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qsim_circuit::gates::GateKind;
    use qsim_circuit::library;

    thread_local! {
        /// Products composed on this thread.
        static COMPOSED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    pub(super) fn count_composed() {
        COMPOSED.set(COMPOSED.get() + 1);
    }

    /// Products composed on this thread while `f` ran.
    fn composed_by<R>(f: impl FnOnce() -> R) -> (usize, R) {
        let before = COMPOSED.get();
        let out = f();
        (COMPOSED.get() - before, out)
    }

    /// A random circuit on `n` qubits with cancelling pairs (`H·H`,
    /// `X·X`, `CZ·CZ`) spliced in at random places, each op at its own
    /// time.
    fn with_cancelling_pairs(n: usize, gates: usize, seed: u64) -> Circuit {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut c = Circuit::new(n);
        for op in library::random_dense(n, gates, seed).ops {
            if rng.gen_range(0..3) == 0 {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(1..n));
                let (kind, qubits) = match rng.gen_range(0..3) {
                    0 => (GateKind::H, vec![a]),
                    1 => (GateKind::X, vec![a]),
                    _ => (GateKind::Cz, vec![a, (a + b) % n]),
                };
                for _ in 0..2 {
                    c.add(c.ops.len(), kind, &qubits);
                }
            }
            c.add(c.ops.len(), op.kind, &op.qubits);
        }
        c
    }

    /// A cancelling pair opens every slot: `H·H` on 0, `X·X` then
    /// `CZ·CZ` on 1 and 0 (one slot from `-f 2` on), then a gate that
    /// does not cancel.
    fn pairs_first() -> Circuit {
        let mut c = Circuit::new(3);
        for (kind, qubits) in [
            (GateKind::H, &[0][..]),
            (GateKind::H, &[0]),
            (GateKind::X, &[1]),
            (GateKind::X, &[1]),
            (GateKind::Cz, &[1, 0]),
            (GateKind::Cz, &[0, 1]),
            (GateKind::T, &[2]),
        ] {
            c.add(c.ops.len(), kind, qubits);
        }
        c
    }

    /// A product composes on its first read, once for the gate and every
    /// clone, and frees its factors; `fuse` and `is_identity` on a
    /// product its probe rules out compose nothing, and the verdicts are
    /// the composed matrices'.
    #[test]
    fn products_compose_once_on_first_read() {
        for f in 1..=3 {
            let (built, fused) = composed_by(|| fuse(&pairs_first(), f));
            assert_eq!(built, 0, "f={f}: build composes nothing");
            let copy = fused.clone();
            let (probed, verdicts) =
                composed_by(|| copy.unitaries().map(|g| g.is_identity(1e-12)).collect::<Vec<_>>());
            let identities = verdicts.iter().filter(|&&v| v).count();
            assert!(identities >= 2, "f={f}: {verdicts:?}");
            assert_eq!(probed, identities, "f={f}: only identity candidates compose");
            let (read, matrices) = composed_by(|| {
                fused.unitaries().map(|g| g.matrix().is_identity(1e-12)).collect::<Vec<_>>()
            });
            assert_eq!(matrices, verdicts, "f={f}");
            assert_eq!(read, fused.num_unitaries() - identities, "f={f}: the rest compose once");
            let (again, _) = composed_by(|| copy.unitaries().map(FusedGate::matrix).count());
            assert_eq!(again, 0, "f={f}: a clone shares its products");
            let held = |g: &FusedGate| size_of::<Product>() + size_of_val(g.matrix().as_slice());
            let composed: usize = fused.unitaries().map(held).sum();
            assert_eq!(fused.heap_bytes(), composed, "f={f}: a composed product frees its factors");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// For every strategy and budget, each lazily composed product is
        /// the eager per-gate replay of its layout bit for bit, its
        /// certificate too, and `is_identity` — probe first — gives the
        /// composed matrix's verdict.
        #[test]
        fn lazy_products_are_the_eager_replay_and_the_identity_verdict_is_exact(
            seed in 0u64..u64::MAX,
            n in 3usize..=7,
        ) {
            let circuit = with_cancelling_pairs(n, 40, seed);
            let model = LaunchCostModel {
                spec: gpu_model::specs::DeviceSpec::mi250x_gcd(),
                policy: LaunchPolicy {
                    tpb_high: 64,
                    tpb_low: 32,
                    low_qubit_byte_overhead: 2.0,
                    shuffle_flops_per_low_qubit: 4.0,
                    uploads_matrices: true,
                    lane_qubits: 0,
                    sweep: qsim_core::sweep::SweepConfig::disabled(),
                },
                precision: qsim_core::types::Precision::Single,
            };
            for strategy in FusionStrategy::ALL {
                for f in 1..=6 {
                    let (layout, _) = planner::decide_strategy(&circuit, strategy, f, &model);
                    let replay = per_gate_replay(&circuit, &layout);
                    let (verdicts, lazy) = (build(&circuit, &layout), build(&circuit, &layout));
                    for ((probed, op), reference) in verdicts.ops.iter().zip(&lazy.ops).zip(&replay) {
                        let (FusedOp::Unitary(probed), FusedOp::Unitary(g), Some((_, matrix, cert))) =
                            (probed, op, reference)
                        else {
                            continue;
                        };
                        prop_assert!(bits(g.matrix()) == bits(matrix), "{strategy} f={f}");
                        prop_assert_eq!(g.certificate().map(f64::to_bits), cert.map(f64::to_bits));
                        prop_assert_eq!(probed.is_identity(1e-12), matrix.is_identity(1e-12));
                    }
                }
            }
        }
    }

    fn bits(m: &GateMatrix<f64>) -> Vec<(u64, u64)> {
        m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Apply a circuit (unfused reference) and a fused circuit to fresh
    /// states and compare.
    fn check_equivalence(circuit: &Circuit, max_f: usize) {
        use qsim_core::kernels::apply_gate_seq;
        use qsim_core::StateVector;

        let mut reference = StateVector::<f64>::new(circuit.num_qubits);
        for op in &circuit.ops {
            if op.is_measurement() {
                continue; // equivalence checked on unitary part only
            }
            let (qs, m) = op.sorted_matrix::<f64>().unwrap();
            apply_gate_seq(&mut reference, &qs, &m);
        }

        let fused = fuse(circuit, max_f);
        let mut state = StateVector::<f64>::new(circuit.num_qubits);
        for op in &fused.ops {
            if let FusedOp::Unitary(g) = op {
                apply_gate_seq(&mut state, &g.qubits, g.matrix());
            }
        }
        let diff = reference.max_abs_diff(&state);
        assert!(diff < 1e-12, "fused(f={max_f}) diverges from reference by {diff}");
    }

    #[test]
    fn single_qubit_chain_fuses_to_one_gate() {
        let mut c = Circuit::new(1);
        c.push(GateKind::H, &[0]).push(GateKind::T, &[0]).push(GateKind::X, &[0]);
        let f = fuse(&c, 2);
        assert_eq!(f.num_unitaries(), 1);
        let g = f.unitaries().next().unwrap();
        assert_eq!(g.source_gates, 3);
        assert!(g.matrix().is_unitary(1e-12));
        check_equivalence(&c, 2);
    }

    #[test]
    fn two_qubit_gate_absorbs_neighbors() {
        let mut c = Circuit::new(2);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::Cz, &[0, 1]);
        c.add(2, GateKind::T, &[1]);
        let f = fuse(&c, 2);
        assert_eq!(f.num_unitaries(), 1);
        assert_eq!(f.unitaries().next().unwrap().source_gates, 3);
        check_equivalence(&c, 2);
    }

    #[test]
    fn max_one_qubit_leaves_two_qubit_gates_alone() {
        let mut c = Circuit::new(2);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::Cz, &[0, 1]);
        c.add(2, GateKind::T, &[1]);
        let f = fuse(&c, 1);
        // CZ cannot fuse with anything; H and T stay single.
        assert_eq!(f.num_unitaries(), 3);
        check_equivalence(&c, 1);
    }

    #[test]
    fn fusion_preserves_order_dependencies() {
        let mut c = Circuit::new(3);
        c.add(0, GateKind::X, &[0]);
        c.add(1, GateKind::Cz, &[0, 1]);
        c.add(2, GateKind::Cnot, &[1, 2]);
        c.add(3, GateKind::H, &[0]);
        c.add(4, GateKind::Cz, &[0, 2]);
        for f in 1..=4 {
            check_equivalence(&c, f);
        }
    }

    #[test]
    fn rqc_equivalence_across_fusion_sizes() {
        let c = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(12, 8, 42));
        for f in 1..=6 {
            check_equivalence(&c, f);
        }
    }

    #[test]
    fn random_dense_equivalence() {
        for seed in 0..5 {
            let c = library::random_dense(8, 60, seed);
            for f in [2, 4, 6] {
                check_equivalence(&c, f);
            }
        }
    }

    #[test]
    fn qft_equivalence() {
        let c = library::qft(7);
        for f in 1..=5 {
            check_equivalence(&c, f);
        }
    }

    #[test]
    fn fused_matrices_are_unitary() {
        let c = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(10, 6, 3));
        let f = fuse(&c, 4);
        for g in f.unitaries() {
            assert!(g.matrix().is_unitary(1e-10));
            assert!(g.qubits.len() <= 4);
            assert!(g.qubits.windows(2).all(|w| w[0] < w[1]));
        }
    }

    /// A product composes in split planes; replaying the same layout
    /// through the two expansions and the dense product must give the same bits,
    /// controls, barriers and slots that never widen included.
    #[test]
    fn fused_matrix_bits_match_the_dense_replay() {
        use qsim_circuit::circuit::GateOp;

        let mut controlled = library::random_dense(7, 50, 9);
        let t = controlled.ops.iter().map(|op| op.time).max().unwrap() + 1;
        controlled.add(t, GateKind::Measurement, &[2, 3]);
        controlled.ops.push(GateOp::with_controls(t + 1, GateKind::H, vec![0], vec![5]));
        controlled.add(t + 2, GateKind::X, &[0]);
        controlled.add(t + 2, GateKind::Cz, &[4, 5]);
        let rqc = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(12, 8, 5));
        for circuit in [controlled, rqc, library::qft(6)] {
            for f in 1..=6 {
                let layout = planner::decide(&circuit, f, planner::Policy::Greedy);
                let mut dense: Vec<Option<(Vec<usize>, GateMatrix<f64>)>> = Vec::new();
                for (op, action) in circuit.ops.iter().zip(&layout.actions) {
                    let Some((qubits, matrix)) = op.sorted_matrix::<f64>() else {
                        dense.push(None);
                        continue;
                    };
                    let (qubits, matrix) = if op.controls.is_empty() {
                        (qubits, matrix)
                    } else {
                        expand_controlled(&qubits, &op.controls, &matrix)
                    };
                    match *action {
                        planner::Action::Merge(t) => {
                            let (slot_qubits, slot) = dense[t].as_mut().unwrap();
                            let union = union_sorted(slot_qubits, &qubits);
                            *slot = matrix
                                .expand_to(&qubits, &union)
                                .matmul(&slot.expand_to(slot_qubits, &union));
                            *slot_qubits = union;
                        }
                        planner::Action::New => dense.push(Some((qubits, matrix))),
                    }
                }
                let built = build(&circuit, &layout);
                assert_eq!(built.ops.len(), dense.len());
                for (op, reference) in built.ops.iter().zip(&dense) {
                    let (FusedOp::Unitary(g), Some((qubits, matrix))) = (op, reference) else {
                        assert!(matches!(op, FusedOp::Measurement { .. }) && reference.is_none());
                        continue;
                    };
                    assert_eq!(&g.qubits, qubits);
                    let bits = |m: &GateMatrix<f64>| -> Vec<(u64, u64)> {
                        m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
                    };
                    assert_eq!(bits(g.matrix()), bits(matrix), "f={f} qubits {qubits:?}");
                }
            }
        }
    }

    /// A slot as a per-gate replay composes it: qubits, dense matrix and
    /// certificate.
    type Replayed = (Vec<usize>, GateMatrix<f64>, Option<f64>);

    /// The slots of `layout` over `circuit`, one gate at a time: each
    /// source gate through `sorted_matrix` and `of_source`, each merge
    /// through the dense product of both expansions and `of_product`.
    fn per_gate_replay(circuit: &Circuit, layout: &planner::Layout) -> Vec<Option<Replayed>> {
        let mut replay: Vec<Option<Replayed>> = Vec::new();
        for (op, action) in circuit.ops.iter().zip(&layout.actions) {
            let Some((qubits, matrix)) = op.sorted_matrix::<f64>() else {
                replay.push(None);
                continue;
            };
            let gate_cert = certificate::of_source(&matrix);
            let (qubits, matrix) = if op.controls.is_empty() {
                (qubits, matrix)
            } else {
                expand_controlled(&qubits, &op.controls, &matrix)
            };
            match *action {
                planner::Action::Merge(t) => {
                    let (slot_qubits, slot, cert) = replay[t].as_mut().unwrap();
                    let union = union_sorted(slot_qubits, &qubits);
                    *cert = gate_cert.zip(*cert).map(|(gate, product)| {
                        certificate::of_product(gate, product, matrix.dim(), 1 << union.len())
                    });
                    *slot = matrix
                        .expand_to(&qubits, &union)
                        .matmul(&slot.expand_to(slot_qubits, &union));
                    *slot_qubits = union;
                }
                planner::Action::New => replay.push(Some((qubits, matrix, gate_cert))),
            }
        }
        replay
    }

    /// The source table, the stack unions and the narrow operands read
    /// through their expansion leave every product and every certificate
    /// where a per-gate replay puts them: angles that compare equal but
    /// differ in a zero's sign, one gate on both operand orders, a gate
    /// bare and controlled, all-distinct angles, and slots that widen on
    /// their first merge.
    #[test]
    fn fused_matrix_and_certificate_bits_match_the_per_gate_replay() {
        use qsim_circuit::circuit::GateOp;

        let mut hazards = Circuit::new(7);
        hazards.add(0, GateKind::Rz(0.0), &[0]);
        hazards.add(0, GateKind::Rz(-0.0), &[1]);
        hazards.add(0, GateKind::H, &[2]);
        hazards.add(1, GateKind::FSim(0.4, 0.9), &[6, 0]);
        hazards.add(1, GateKind::Cnot, &[3, 1]);
        hazards.add(2, GateKind::FSim(0.4, 0.9), &[0, 6]);
        hazards.add(2, GateKind::Cnot, &[1, 3]);
        hazards.ops.push(GateOp::with_controls(3, GateKind::H, vec![2], vec![4]));
        hazards.add(4, GateKind::Rz(-0.0), &[5]);
        hazards.add(4, GateKind::Rz(0.0), &[4]);
        // Each slot opens on one qubit and widens at its first merge, by a
        // disjoint gate or by one that overlaps it.
        let mut widening = Circuit::new(6);
        widening.add(0, GateKind::H, &[0]);
        widening.add(0, GateKind::T, &[2]);
        widening.add(0, GateKind::X12, &[4]);
        widening.add(1, GateKind::Y12, &[1]);
        widening.add(1, GateKind::Cnot, &[3, 2]);
        widening.add(1, GateKind::Cz, &[4, 5]);
        widening.add(2, GateKind::FSim(1.1, 0.2), &[1, 3]);
        widening.add(3, GateKind::Hz12, &[5]);
        for circuit in [hazards, library::qft(8), widening] {
            for f in 1..=6 {
                let layout = planner::decide(&circuit, f, planner::Policy::Greedy);
                let replay = per_gate_replay(&circuit, &layout);
                let built = build(&circuit, &layout);
                assert_eq!(built.ops.len(), replay.len());
                for (op, reference) in built.ops.iter().zip(&replay) {
                    let (FusedOp::Unitary(g), Some((qubits, matrix, cert))) = (op, reference)
                    else {
                        assert!(matches!(op, FusedOp::Measurement { .. }) && reference.is_none());
                        continue;
                    };
                    assert_eq!(&g.qubits, qubits);
                    let bits = |m: &GateMatrix<f64>| -> Vec<(u64, u64)> {
                        m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
                    };
                    assert_eq!(bits(g.matrix()), bits(matrix), "f={f} qubits {qubits:?}");
                    assert_eq!(
                        g.certificate().map(f64::to_bits),
                        cert.map(f64::to_bits),
                        "f={f} qubits {qubits:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn higher_fusion_yields_fewer_passes() {
        let c = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(16, 10, 1));
        let passes: Vec<usize> = (1..=6).map(|f| fuse(&c, f).num_unitaries()).collect();
        for w in passes.windows(2) {
            assert!(w[1] <= w[0], "fusion must not increase pass count: {passes:?}");
        }
        assert!(passes[3] < passes[0] / 2, "f=4 should compress well: {passes:?}");
    }

    #[test]
    fn stats_account_for_every_gate() {
        let c = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(12, 8, 9));
        let (one, two, _) = c.gate_counts();
        for f in 1..=6 {
            let s = fuse(&c, f).stats();
            assert_eq!(s.source_gates, one + two, "f={f}");
            assert!(s.compression() >= 1.0);
            assert_eq!(s.fused_by_qubit_count.iter().sum::<usize>(), s.fused_gates);
            // Gates wider than f pass through unfused, so the histogram may
            // extend to the circuit's native max arity (2) even for f = 1.
            let cap = f.max(2);
            assert!(s.fused_by_qubit_count[cap + 1..].iter().all(|&x| x == 0));
        }
    }

    /// A gate with six controls is a valid 7-qubit op that no budget
    /// fuses; the statistics count it without a bucket of its own.
    #[test]
    fn stats_count_a_gate_wider_than_the_kernels() {
        use qsim_circuit::circuit::GateOp;

        let mut c = Circuit::new(8);
        c.ops.push(GateOp::with_controls(0, GateKind::X, vec![0], (1..=6).collect()));
        c.add(1, GateKind::H, &[7]);
        assert!(c.validate().is_ok());
        let f = fuse(&c, 6);
        assert_eq!(f.unitaries().map(FusedGate::width).collect::<Vec<_>>(), [7, 1]);
        let s = f.stats();
        assert_eq!((s.fused_gates, s.source_gates, s.over_wide), (2, 2, 1));
        assert_eq!(s.fused_by_qubit_count, [0, 1, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn measurement_is_a_barrier() {
        let mut c = Circuit::new(1);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::Measurement, &[0]);
        c.add(2, GateKind::X, &[0]);
        let f = fuse(&c, 4);
        // H | M | X: three ops; H and X must not fuse across M.
        assert_eq!(f.ops.len(), 3);
        assert!(matches!(f.ops[1], FusedOp::Measurement { .. }));
        assert_eq!(f.num_unitaries(), 2);
    }

    #[test]
    fn controlled_op_expansion() {
        use qsim_circuit::circuit::GateOp;
        use qsim_core::kernels::{apply_controlled_gate_seq, apply_gate_seq};
        use qsim_core::StateVector;

        // A controlled-H (control 2, target 0) via the fuser's expansion
        // must match the controlled kernel.
        let mut c = Circuit::new(3);
        c.ops.push(GateOp::with_controls(0, GateKind::H, vec![0], vec![2]));
        let f = fuse(&c, 3);
        let g = f.unitaries().next().unwrap();
        assert_eq!(g.qubits, vec![0, 2]);
        assert!(g.matrix().is_unitary(1e-12));

        let mut a = StateVector::<f64>::new(3);
        a.set_basis_state(0b100);
        let mut b = a.clone();
        apply_gate_seq(&mut a, &g.qubits, g.matrix());
        let h = GateKind::H.matrix::<f64>().unwrap();
        apply_controlled_gate_seq(&mut b, &[0], &[2], 1, &h);
        assert!(a.max_abs_diff(&b) < 1e-14);
    }

    #[test]
    #[should_panic(expected = "max_fused_qubits")]
    fn zero_fusion_rejected() {
        let c = library::bell();
        let _ = fuse(&c, 0);
    }

    #[test]
    fn union_sorted_merges() {
        assert_eq!(union_sorted(&[1, 3], &[2, 3, 5]), vec![1, 2, 3, 5]);
        assert_eq!(union_sorted(&[], &[0]), vec![0]);
        assert_eq!(union_sorted(&[4], &[]), vec![4]);
    }

    #[test]
    fn matrix_precision_cast() {
        let c = library::bell();
        let f = fuse(&c, 2);
        let g = f.unitaries().next().unwrap();
        let m32 = g.matrix_as::<f32>();
        assert!(m32.is_unitary(1e-5));
    }

    #[test]
    fn block_locality_of_fused_gates() {
        let c = library::bell();
        let f = fuse(&c, 2);
        let g = f.unitaries().next().unwrap();
        assert_eq!(g.max_qubit(), 1);
        assert!(g.is_block_local(2));
        assert!(!g.is_block_local(1));
    }

    #[test]
    fn sweep_stats_counts_measurement_barriers() {
        use qsim_circuit::circuit::GateOp;
        use qsim_core::sweep::SweepConfig;
        // Bell circuit + measurement, then more gates: the measurement
        // must split the runs even though all gates are block-local.
        let mut c = library::bell();
        c.ops.push(GateOp::new(2, GateKind::Measurement, vec![0, 1]));
        c.ops.push(GateOp::new(3, GateKind::H, vec![0]));
        c.ops.push(GateOp::new(3, GateKind::H, vec![1]));
        let f = fuse(&c, 2);
        let s = f.sweep_stats(&SweepConfig::default());
        assert_eq!(s.gates as usize, f.num_unitaries());
        assert_eq!(s.barrier_gates, 0, "all targets below default block");
        assert_eq!(s.runs, 2, "measurement closes the first run");
        assert_eq!(s.full_passes, 2);
        // With the sweep disabled every fused gate is its own pass.
        let off = f.sweep_stats(&SweepConfig::disabled());
        assert_eq!(off.full_passes, off.gates);
    }
}
