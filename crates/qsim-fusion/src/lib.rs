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

use qsim_circuit::circuit::Circuit;
use qsim_core::matrix::{GateMatrix, SplitMatrix};
use qsim_core::types::Float;

pub mod cost;
pub mod planner;

pub use cost::{FusionCostModel, LaunchCostModel, LaunchPolicy, TrafficEstimate};
pub use planner::{plan, FusionPlan, FusionStrategy};

/// A fused unitary acting on a sorted set of qubits.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedGate {
    /// Sorted target qubits (bit `j` of the matrix index ↔ `qubits[j]`).
    pub qubits: Vec<usize>,
    /// The fused unitary, always composed in `f64`; backends cast to
    /// their working precision at application time.
    pub matrix: GateMatrix<f64>,
    /// How many source-circuit gates were folded into this one.
    pub source_gates: usize,
    /// `(first, last)` source time slices folded in.
    pub time_range: (usize, usize),
}

impl FusedGate {
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
        let mut by_qubits = [0usize; qsim_core::kernels::MAX_GATE_QUBITS + 1];
        let mut source = 0usize;
        let mut fused = 0usize;
        for g in self.unitaries() {
            by_qubits[g.qubits.len()] += 1;
            source += g.source_gates;
            fused += 1;
        }
        FusionStats { source_gates: source, fused_gates: fused, fused_by_qubit_count: by_qubits }
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
                    let entries = g.matrix.as_slice();
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
    pub fused_by_qubit_count: [usize; qsim_core::kernels::MAX_GATE_QUBITS + 1],
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
/// spare pair of planes and returns the old pair to the spares, a
/// widening union first scatters the product into wider planes, and the
/// interleaved [`FusedGate::matrix`] is written once, at the slot's last
/// merge. A merge takes at most two spares, so no more are kept.
fn build(circuit: &Circuit, layout: &planner::Layout) -> FusedCircuit {
    // The source op after which each output slot takes no more merges.
    let mut last_merge: Vec<usize> = Vec::new();
    for (i, action) in layout.actions.iter().enumerate() {
        match *action {
            planner::Action::Merge(t) => last_merge[t] = i,
            planner::Action::New => last_merge.push(i),
        }
    }
    let mut open: Vec<Option<SplitMatrix<f64>>> = vec![None; last_merge.len()];
    let mut spare: Vec<SplitMatrix<f64>> = Vec::with_capacity(2);
    let recycle = |spare: &mut Vec<SplitMatrix<f64>>, planes| {
        if spare.len() < 2 {
            spare.push(planes);
        }
    };
    let mut ops: Vec<FusedOp> = Vec::with_capacity(circuit.ops.len());
    for (i, (op, action)) in circuit.ops.iter().zip(&layout.actions).enumerate() {
        if op.is_measurement() {
            let mut qs = op.qubits.clone();
            qs.sort_unstable();
            ops.push(FusedOp::Measurement { qubits: qs, time: op.time });
            continue;
        }

        let (sorted_qubits, matrix) =
            op.sorted_matrix::<f64>().expect("non-measurement gates have matrices");
        // Extra controls make a gate opaque to the fuser: it enters as a
        // plain unitary over targets+controls with the expanded matrix.
        let (sorted_qubits, matrix) = if op.controls.is_empty() {
            (sorted_qubits, matrix)
        } else {
            expand_controlled(&sorted_qubits, &op.controls, &matrix)
        };

        match *action {
            planner::Action::Merge(t) => {
                let FusedOp::Unitary(b) = &mut ops[t] else {
                    unreachable!("merge target is a gate slot")
                };
                // matrix_new = expand(gate) · expand(existing)
                let union = union_sorted(&b.qubits, &sorted_qubits);
                let product = match open[t].take() {
                    None => {
                        let mut planes = spare.pop().unwrap_or_default();
                        planes.set_expanded(&b.matrix, &b.qubits, &union);
                        planes
                    }
                    Some(planes) if union != b.qubits => {
                        let mut wide = spare.pop().unwrap_or_default();
                        wide.set_widened(&planes, &b.qubits, &union);
                        recycle(&mut spare, planes);
                        wide
                    }
                    Some(planes) => planes,
                };
                let mut next = spare.pop().unwrap_or_default();
                next.set_product(&matrix, &sorted_qubits, &union, &product);
                recycle(&mut spare, product);
                if last_merge[t] == i {
                    b.matrix = next.to_matrix();
                    recycle(&mut spare, next);
                } else {
                    open[t] = Some(next);
                }
                b.qubits = union;
                b.source_gates += 1;
                b.time_range.1 = op.time;
            }
            planner::Action::New => ops.push(FusedOp::Unitary(FusedGate {
                qubits: sorted_qubits,
                matrix,
                source_gates: 1,
                time_range: (op.time, op.time),
            })),
        }
    }
    FusedCircuit { num_qubits: circuit.num_qubits, ops, max_fused_qubits: layout.max_fused_qubits }
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

/// Merge two sorted, distinct qubit lists.
fn union_sorted(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
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
                apply_gate_seq(&mut state, &g.qubits, &g.matrix);
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
        assert!(g.matrix.is_unitary(1e-12));
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
            assert!(g.matrix.is_unitary(1e-10));
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
                    assert_eq!(bits(&g.matrix), bits(matrix), "f={f} qubits {qubits:?}");
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
        assert!(g.matrix.is_unitary(1e-12));

        let mut a = StateVector::<f64>::new(3);
        a.set_basis_state(0b100);
        let mut b = a.clone();
        apply_gate_seq(&mut a, &g.qubits, &g.matrix);
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
