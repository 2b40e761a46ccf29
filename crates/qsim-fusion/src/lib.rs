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
//! [`cost::FusionCostModel`] first. [`build`] then composes the matrices
//! of the one layout that was chosen.

use std::collections::HashMap;
use std::mem::Discriminant;

use qsim_circuit::circuit::{Circuit, GateOp};
use qsim_circuit::gates::GateKind;
use qsim_core::kernels::MAX_GATE_QUBITS;
use qsim_core::matrix::{GateMatrix, SplitMatrix};
use qsim_core::types::Float;

mod certificate;
pub mod cost;
pub mod planner;

pub use certificate::gram_rounding;
pub use cost::{FusionCostModel, LaunchCostModel, LaunchPolicy, TrafficEstimate};
pub use planner::{plan, FusionPlan, FusionStrategy};

/// A fused unitary acting on a sorted set of qubits.
///
/// Sealed: its fields are private and nothing changes a gate once it is
/// made, so the unitarity certificate `build` composes beside a product
/// always speaks of the matrix it sits next to. Where the gate acts and
/// what it folds read through `Deref` to its [`GateSite`]; the matrix
/// through [`FusedGate::matrix`].
#[derive(Debug, Clone)]
pub struct FusedGate {
    site: GateSite,
    /// The fused unitary, always composed in `f64`; backends cast to
    /// their working precision at application time.
    matrix: GateMatrix<f64>,
    /// An upper bound on `‖M·M† − I‖₂` for `matrix`, from `build`.
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
        self.site == other.site && self.matrix == other.matrix
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
        FusedGate { site: GateSite { qubits, source_gates, time_range }, matrix, certificate: None }
    }

    /// The fused unitary in `f64`.
    pub fn matrix(&self) -> &GateMatrix<f64> {
        &self.matrix
    }

    /// An upper bound on the spectral norm `‖M·M† − I‖₂` of
    /// [`FusedGate::matrix`], composed by `build` from its source gates
    /// and the rounding of each merge; `None` for a gate made by
    /// [`FusedGate::new`] or with a non-finite factor.
    pub fn certificate(&self) -> Option<f64> {
        self.certificate
    }

    /// The fused matrix cast to the backend's working precision.
    pub fn matrix_as<F: Float>(&self) -> GateMatrix<F> {
        self.matrix.cast()
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

/// Replay a decided `layout` over `circuit`, composing each output slot's
/// matrix in source-op order — the only place fused matrices are built,
/// whatever strategy chose the layout.
///
/// From its first merge on, a slot's product lives in split planes
/// ([`SplitMatrix`]): each merge writes `expand(gate) · product` into a
/// spare pair of planes and returns the old pair to the spares. The slot's
/// first gate enters as it is and a widening union widens the product in
/// place, both read through the expansion by `set_product`, so no
/// expansion is ever formed; the interleaved [`FusedGate::matrix`] is
/// written once, at the slot's last merge. Each source gate's matrix and
/// certificate come from [`Sources`], once per distinct gate.
///
/// Beside each product runs its [`FusedGate::certificate`]: a slot opens
/// with its first gate's measured deviation, and every merge adds the
/// next gate's and a bound on the merge's rounding (`certificate.rs`), so
/// the pre-run check need not form the product's Gram matrix again.
fn build(circuit: &Circuit, layout: &planner::Layout) -> FusedCircuit {
    // The source op after which each output slot takes no more merges.
    let mut last_merge: Vec<usize> = Vec::with_capacity(layout.slots.len());
    for (i, action) in layout.actions.iter().enumerate() {
        match *action {
            planner::Action::Merge(t) => last_merge[t] = i,
            planner::Action::New => last_merge.push(i),
        }
    }
    let mut open: Vec<Option<SplitMatrix<f64>>> = vec![None; last_merge.len()];
    let mut spares = Spares::default();
    let mut sources = Sources::default();
    let mut ops: Vec<FusedOp> = Vec::with_capacity(last_merge.len());
    for (i, (op, action)) in circuit.ops.iter().zip(&layout.actions).enumerate() {
        if op.is_measurement() {
            let mut qs = op.qubits.clone();
            qs.sort_unstable();
            ops.push(FusedOp::Measurement { qubits: qs, time: op.time });
            continue;
        }

        let source = sources.get(op);
        let mut targets = [0; MAX_GATE_QUBITS];
        let targets = &mut targets[..op.qubits.len()];
        targets.copy_from_slice(&op.qubits);
        targets.sort_unstable();
        // Extra controls make a gate opaque to the fuser: it enters as a
        // plain unitary over targets+controls with the expanded matrix.
        // They embed the gate as `I ⊕ matrix`, which leaves `‖M·M† − I‖₂`
        // as it was: the certificate is the bare gate's.
        let controlled;
        let (qubits, matrix) = if op.controls.is_empty() {
            (&*targets, &source.matrix)
        } else {
            controlled = expand_controlled(targets, &op.controls, &source.matrix);
            (&controlled.0[..], &controlled.1)
        };

        match *action {
            planner::Action::Merge(t) => {
                let FusedOp::Unitary(b) = &mut ops[t] else {
                    unreachable!("merge target is a gate slot")
                };
                // matrix_new = expand(gate) · expand(existing)
                let mut union = [0; MAX_GATE_QUBITS];
                let n = union_into(&b.qubits, qubits, &mut union);
                let union = &union[..n];
                let width = b.width();
                let product = match open[t].take() {
                    Some(mut planes) => {
                        planes.widen(&b.qubits, union);
                        planes
                    }
                    None => {
                        let mut planes = spares.take(width);
                        planes.set_expanded(&b.matrix, &b.qubits, union);
                        planes
                    }
                };
                let mut next = spares.take(union.len());
                next.set_product(matrix, qubits, union, &product);
                spares.put(width, product);
                if last_merge[t] == i {
                    b.matrix = next.to_matrix();
                    spares.put(union.len(), next);
                } else {
                    open[t] = Some(next);
                }
                b.certificate = source.certificate.zip(b.certificate).map(|(gate, product)| {
                    certificate::of_product(gate, product, matrix.dim(), 1 << union.len())
                });
                b.site.qubits.clear();
                b.site.qubits.extend_from_slice(union);
                b.site.source_gates += 1;
                b.site.time_range.1 = op.time;
            }
            planner::Action::New => {
                let mut site =
                    Vec::with_capacity(layout.slots[ops.len()].as_ref().map_or(0, Vec::len));
                site.extend_from_slice(qubits);
                ops.push(FusedOp::Unitary(FusedGate {
                    certificate: source.certificate,
                    ..FusedGate::new(site, matrix.clone(), 1, (op.time, op.time))
                }));
            }
        }
    }
    FusedCircuit { num_qubits: circuit.num_qubits, ops, max_fused_qubits: layout.max_fused_qubits }
}

/// A source gate as [`build`] composes it: its matrix over its sorted
/// targets, and that matrix's certificate.
struct Source {
    matrix: GateMatrix<f64>,
    certificate: Option<f64>,
}

/// The source gates one [`build`] has composed, each once: keyed by kind,
/// the bits of its parameters (`Rz(0.0) == Rz(-0.0)`, but their matrices
/// differ in the sign of a zero) and the order of its operands (the
/// permutation `sorted_matrix` applies). A controlled gate keys on its
/// bare gate, whose certificate it shares. It lives for one `build`, so a
/// build starts cold, as a fresh process would, and holds one entry per
/// distinct gate. The last few keys found are compared before any is
/// hashed: a circuit of a handful of gate kinds never hashes a hit.
#[derive(Default)]
struct Sources {
    list: Vec<Source>,
    index: HashMap<SourceKey, usize>,
    recent: [Option<(SourceKey, usize)>; 4],
}

type SourceKey = (Discriminant<GateKind>, u64, u64, usize);

impl Sources {
    fn get(&mut self, op: &GateOp) -> &Source {
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
            list.push(Source { certificate: certificate::of_source(&matrix), matrix });
            list.len() - 1
        });
        self.recent.rotate_right(1);
        self.recent[0] = Some((key, i));
        &self.list[i]
    }
}

/// Planes no slot holds, by the width of the matrix they held, so a pair
/// is reused only at its own size and never reallocated. They are kept
/// while they weigh at most 256 KiB (four 64 × 64 pairs of `f64` planes);
/// a pair returned past that is freed.
#[derive(Default)]
struct Spares {
    by_width: [Vec<SplitMatrix<f64>>; MAX_GATE_QUBITS + 1],
    bytes: usize,
}

impl Spares {
    fn take(&mut self, width: usize) -> SplitMatrix<f64> {
        let planes = self.by_width[width].pop();
        self.bytes -= planes.as_ref().map_or(0, |_| 16 << (2 * width));
        planes.unwrap_or_default()
    }

    fn put(&mut self, width: usize, planes: SplitMatrix<f64>) {
        if self.bytes + (16 << (2 * width)) <= 256 << 10 {
            self.bytes += 16 << (2 * width);
            self.by_width[width].push(planes);
        }
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
#[cfg(test)]
fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = vec![0; a.len() + b.len()];
    let n = union_into(a, b, &mut out);
    out.truncate(n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::gates::GateKind;
    use qsim_circuit::library;

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

    /// `build` composes in place; replaying the same layout through the
    /// two expansions and the dense product must give the same bits,
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
