//! # qsim-hybrid
//!
//! A Feynman-style **hybrid simulator**, the Rust analogue of qsim's
//! `qsimh`: the qubit set is cut into two parts, each simulated with its
//! own (much smaller) state vector; two-qubit gates crossing the cut are
//! decomposed into *Schmidt terms*
//!
//! ```text
//! M = Σ_{a_out, a_in}  |a_out⟩⟨a_in|  ⊗  B_{a_out, a_in}
//! ```
//!
//! and the simulator sums over every combination of terms (*paths*),
//! multiplying the two parts' amplitudes at the end. With `c` crossing
//! gates of branch factor `r`, the cost is `O(r^c · 2^{max(k, n-k)})`
//! time with only `O(2^k + 2^{n-k})` memory — the memory/time trade that
//! lets qsimh reach qubit counts a single state vector cannot hold.
//!
//! Paths are enumerated recursively so shared *prefixes* of the path tree
//! are simulated once (qsimh's prefix optimization).

use qsim_circuit::Circuit;
use qsim_core::kernels::apply_gate_seq;
use qsim_core::matrix::GateMatrix;
use qsim_core::types::Cplx;
use qsim_core::StateVector;

/// Why a circuit cannot be hybrid-simulated with the given cut.
#[derive(Debug, Clone, PartialEq)]
pub enum HybridError {
    /// The cut must leave at least one qubit on each side.
    BadCut { num_qubits: usize, part_a: usize },
    /// Mid-circuit measurement has no path-sum semantics here.
    MeasurementUnsupported,
    /// A gate acts on 3+ qubits spanning the cut (fuse within parts only).
    WideCrossingGate { qubits: Vec<usize> },
}

impl std::fmt::Display for HybridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HybridError::BadCut { num_qubits, part_a } => {
                write!(f, "cut at {part_a} invalid for {num_qubits} qubits (need 1..{num_qubits})")
            }
            HybridError::MeasurementUnsupported => {
                write!(f, "hybrid simulation does not support mid-circuit measurement")
            }
            HybridError::WideCrossingGate { qubits } => {
                write!(f, "gate on {qubits:?} spans the cut with more than 2 qubits")
            }
        }
    }
}

impl std::error::Error for HybridError {}

/// One Schmidt term of a crossing gate.
struct SchmidtTerm {
    /// `|a_out⟩⟨a_in|` on the part-A qubit.
    a_op: GateMatrix<f64>,
    /// The matching 2×2 block on the part-B qubit.
    b_op: GateMatrix<f64>,
}

/// A circuit op lowered onto the two parts.
enum PartOp {
    /// Gate entirely inside part A (qubit indices already local).
    ALocal { qubits: Vec<usize>, matrix: GateMatrix<f64> },
    /// Gate entirely inside part B (indices re-based to the part).
    BLocal { qubits: Vec<usize>, matrix: GateMatrix<f64> },
    /// Two-qubit gate across the cut, decomposed into Schmidt terms.
    Crossing { qa: usize, qb: usize, terms: Vec<SchmidtTerm> },
}

/// The hybrid simulator: a fixed cut position.
#[derive(Debug, Clone, Copy)]
pub struct HybridSimulator {
    /// Qubits `0..part_a_qubits` form part A; the rest form part B.
    pub part_a_qubits: usize,
}

impl HybridSimulator {
    /// Simulator with the cut after `part_a_qubits` qubits.
    pub fn new(part_a_qubits: usize) -> Self {
        HybridSimulator { part_a_qubits }
    }

    /// Lower a circuit onto the parts, decomposing crossing gates.
    fn lower(&self, circuit: &Circuit) -> Result<Vec<PartOp>, HybridError> {
        let n = circuit.num_qubits;
        let k = self.part_a_qubits;
        if k == 0 || k >= n {
            return Err(HybridError::BadCut { num_qubits: n, part_a: k });
        }
        let mut ops = Vec::with_capacity(circuit.ops.len());
        for op in &circuit.ops {
            if op.is_measurement() {
                return Err(HybridError::MeasurementUnsupported);
            }
            let (sorted, matrix) = op.sorted_matrix::<f64>().expect("unitary gate");
            let in_a = sorted.iter().filter(|&&q| q < k).count();
            if in_a == sorted.len() {
                ops.push(PartOp::ALocal { qubits: sorted, matrix });
            } else if in_a == 0 {
                let qubits = sorted.iter().map(|&q| q - k).collect();
                ops.push(PartOp::BLocal { qubits, matrix });
            } else {
                if sorted.len() != 2 {
                    return Err(HybridError::WideCrossingGate { qubits: sorted });
                }
                // sorted[0] < k <= sorted[1]; sorted convention: bit 0 ↔
                // sorted[0] (the A-side qubit) — exactly what the block
                // decomposition below assumes.
                let qa = sorted[0];
                let qb = sorted[1] - k;
                let mut terms = Vec::new();
                for a_out in 0..2usize {
                    for a_in in 0..2usize {
                        let mut b = GateMatrix::<f64>::zeros(2);
                        let mut nonzero = false;
                        for b_out in 0..2usize {
                            for b_in in 0..2usize {
                                let v = matrix.get(a_out | (b_out << 1), a_in | (b_in << 1));
                                if v.re != 0.0 || v.im != 0.0 {
                                    nonzero = true;
                                }
                                b.set(b_out, b_in, v);
                            }
                        }
                        if !nonzero {
                            continue;
                        }
                        let mut a = GateMatrix::<f64>::zeros(2);
                        a.set(a_out, a_in, Cplx::one());
                        terms.push(SchmidtTerm { a_op: a, b_op: b });
                    }
                }
                ops.push(PartOp::Crossing { qa, qb, terms });
            }
        }
        Ok(ops)
    }

    /// Number of Feynman paths the cut induces (product of the crossing
    /// gates' branch factors).
    pub fn num_paths(&self, circuit: &Circuit) -> Result<u64, HybridError> {
        let ops = self.lower(circuit)?;
        Ok(ops
            .iter()
            .map(|op| match op {
                PartOp::Crossing { terms, .. } => terms.len() as u64,
                _ => 1,
            })
            .product())
    }

    /// Choose the cut position minimizing total cost
    /// `paths × (2^k + 2^{n−k})` — the knob a qsimh user tunes by hand.
    /// Returns `(simulator, paths)` for the best cut, or an error if no
    /// cut is valid (e.g. a wide gate at every position).
    pub fn best_cut(circuit: &Circuit) -> Result<(Self, u64), HybridError> {
        let n = circuit.num_qubits;
        let mut best: Option<(Self, u64, f64)> = None;
        let mut last_err = HybridError::BadCut { num_qubits: n, part_a: 0 };
        for k in 1..n {
            let sim = HybridSimulator::new(k);
            match sim.num_paths(circuit) {
                Ok(paths) => {
                    let cost = paths as f64 * ((1u64 << k) as f64 + (1u64 << (n - k)) as f64);
                    if best.as_ref().is_none_or(|&(_, _, c)| cost < c) {
                        best = Some((sim, paths, cost));
                    }
                }
                Err(e) => last_err = e,
            }
        }
        best.map(|(sim, paths, _)| (sim, paths)).ok_or(last_err)
    }

    /// Amplitudes of the requested basis states after running `circuit`
    /// from `|0…0⟩` (bit `q` of a bitstring = qubit `q`).
    pub fn amplitudes(
        &self,
        circuit: &Circuit,
        bitstrings: &[u64],
    ) -> Result<Vec<Cplx<f64>>, HybridError> {
        let ops = self.lower(circuit)?;
        let k = self.part_a_qubits;
        let m = circuit.num_qubits - k;
        let a_mask = (1u64 << k) - 1;

        let mut out = vec![Cplx::<f64>::zero(); bitstrings.len()];
        let mut state_a = vec![Cplx::<f64>::zero(); 1 << k];
        let mut state_b = vec![Cplx::<f64>::zero(); 1 << m];
        state_a[0] = Cplx::one();
        state_b[0] = Cplx::one();

        // Recursive path walk with prefix sharing: local ops mutate the
        // current states in place; each crossing gate clones per term.
        fn walk(
            ops: &[PartOp],
            mut state_a: Vec<Cplx<f64>>,
            mut state_b: Vec<Cplx<f64>>,
            bitstrings: &[u64],
            a_mask: u64,
            k: usize,
            out: &mut [Cplx<f64>],
        ) {
            for (i, op) in ops.iter().enumerate() {
                match op {
                    PartOp::ALocal { qubits, matrix } => {
                        apply_gate_seq(&mut state_a, qubits, matrix);
                    }
                    PartOp::BLocal { qubits, matrix } => {
                        apply_gate_seq(&mut state_b, qubits, matrix);
                    }
                    PartOp::Crossing { qa, qb, terms } => {
                        for term in terms {
                            let mut sa = state_a.clone();
                            let mut sb = state_b.clone();
                            apply_gate_seq(&mut sa, &[*qa], &term.a_op);
                            apply_gate_seq(&mut sb, &[*qb], &term.b_op);
                            walk(&ops[i + 1..], sa, sb, bitstrings, a_mask, k, out);
                        }
                        return;
                    }
                }
            }
            // Path complete: accumulate products.
            for (slot, &bits) in out.iter_mut().zip(bitstrings) {
                let xa = (bits & a_mask) as usize;
                let xb = (bits >> k) as usize;
                *slot += state_a[xa] * state_b[xb];
            }
        }

        walk(&ops, state_a, state_b, bitstrings, a_mask, k, &mut out);
        Ok(out)
    }

    /// The full state vector via the hybrid path sum (exponential in `n`;
    /// for validation at small sizes).
    pub fn full_state(&self, circuit: &Circuit) -> Result<StateVector<f64>, HybridError> {
        let n = circuit.num_qubits;
        let all: Vec<u64> = (0..1u64 << n).collect();
        let amps = self.amplitudes(circuit, &all)?;
        Ok(StateVector::from_amplitudes(amps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::gates::GateKind;
    use qsim_circuit::library;
    use qsim_core::kernels::apply_gate_seq;

    fn direct_state(circuit: &Circuit) -> StateVector<f64> {
        let mut state = StateVector::new(circuit.num_qubits);
        for op in &circuit.ops {
            let (qs, matrix) = op.sorted_matrix::<f64>().expect("unitary");
            apply_gate_seq(&mut state, &qs, &matrix);
        }
        state
    }

    #[test]
    fn bell_across_the_cut() {
        let circuit = library::bell();
        let hybrid = HybridSimulator::new(1);
        let state = hybrid.full_state(&circuit).expect("hybrid");
        assert!(direct_state(&circuit).max_abs_diff(&state) < 1e-14);
        // CNOT has two non-zero blocks ⇒ two paths.
        assert_eq!(hybrid.num_paths(&circuit).unwrap(), 2);
    }

    #[test]
    fn ghz_chain_single_crossing() {
        let circuit = library::ghz(6);
        for cut in 1..6 {
            let hybrid = HybridSimulator::new(cut);
            let state = hybrid.full_state(&circuit).expect("hybrid");
            assert!(direct_state(&circuit).max_abs_diff(&state) < 1e-13, "cut at {cut}");
        }
    }

    #[test]
    fn branch_factors_match_gate_structure() {
        // CZ is diagonal in the cut index: 2 paths. fSim: 4 paths.
        let mut c = Circuit::new(2);
        c.add(0, GateKind::Cz, &[0, 1]);
        assert_eq!(HybridSimulator::new(1).num_paths(&c).unwrap(), 2);

        let mut c = Circuit::new(2);
        c.add(0, GateKind::FSim(0.4, 0.7), &[0, 1]);
        assert_eq!(HybridSimulator::new(1).num_paths(&c).unwrap(), 4);

        let mut c = Circuit::new(2);
        c.add(0, GateKind::ISwap, &[0, 1]);
        // iSwap blocks: E00→|0⟩⟨0| part… nonzero blocks are (0,0),(0,1),
        // (1,0),(1,1)? Its matrix has entries at (0,0),(1,2),(2,1),(3,3):
        // blocks (a_out,a_in) = (0,0): diag(1,0); (1,0): b(0,1)... count:
        assert_eq!(HybridSimulator::new(1).num_paths(&c).unwrap(), 4);

        // Two crossing CZs multiply: 4 paths.
        let mut c = Circuit::new(2);
        c.add(0, GateKind::Cz, &[0, 1]);
        c.add(1, GateKind::Cz, &[0, 1]);
        assert_eq!(HybridSimulator::new(1).num_paths(&c).unwrap(), 4);
    }

    #[test]
    fn random_circuits_match_direct_simulation() {
        for seed in 0..6 {
            let circuit = library::random_dense(7, 30, seed);
            let hybrid = HybridSimulator::new(3);
            let paths = hybrid.num_paths(&circuit).unwrap();
            assert!(paths >= 1);
            let state = hybrid.full_state(&circuit).expect("hybrid");
            let diff = direct_state(&circuit).max_abs_diff(&state);
            assert!(diff < 1e-11, "seed {seed}: diff {diff} ({paths} paths)");
        }
    }

    #[test]
    fn rqc_matches_direct_simulation() {
        let circuit = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(8, 3, 5));
        let hybrid = HybridSimulator::new(4);
        let state = hybrid.full_state(&circuit).expect("hybrid");
        assert!(direct_state(&circuit).max_abs_diff(&state) < 1e-11);
    }

    #[test]
    fn selected_amplitudes_only() {
        let circuit = library::random_dense(6, 25, 7);
        let hybrid = HybridSimulator::new(3);
        let queries = [0u64, 5, 17, 63];
        let amps = hybrid.amplitudes(&circuit, &queries).expect("hybrid");
        let direct = direct_state(&circuit);
        for (&q, a) in queries.iter().zip(&amps) {
            assert!(a.dist(direct.amplitude(q as usize)) < 1e-12, "bitstring {q}");
        }
    }

    #[test]
    fn qft_across_cut() {
        let circuit = library::qft(6);
        let hybrid = HybridSimulator::new(3);
        let state = hybrid.full_state(&circuit).expect("hybrid");
        assert!(direct_state(&circuit).max_abs_diff(&state) < 1e-12);
    }

    #[test]
    fn bad_cut_rejected() {
        let circuit = library::bell();
        assert!(matches!(
            HybridSimulator::new(0).amplitudes(&circuit, &[0]),
            Err(HybridError::BadCut { .. })
        ));
        assert!(matches!(
            HybridSimulator::new(2).amplitudes(&circuit, &[0]),
            Err(HybridError::BadCut { .. })
        ));
    }

    #[test]
    fn measurement_rejected() {
        let mut c = Circuit::new(2);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::Measurement, &[0]);
        assert_eq!(
            HybridSimulator::new(1).amplitudes(&c, &[0]).unwrap_err(),
            HybridError::MeasurementUnsupported
        );
    }

    #[test]
    fn best_cut_prefers_few_crossings() {
        // GHZ chain: cutting anywhere crosses exactly one CNOT, so the
        // cost is minimized at the balanced middle cut.
        let circuit = library::ghz(8);
        let (sim, paths) = HybridSimulator::best_cut(&circuit).expect("cut");
        assert_eq!(sim.part_a_qubits, 4, "balanced cut expected");
        assert_eq!(paths, 2);

        // A circuit entangling only qubits 0-1 heavily: best cut isolates
        // that block rather than splitting it.
        let mut c = Circuit::new(6);
        for t in 0..6 {
            c.add(t, GateKind::FSim(0.3, 0.4), &[0, 1]);
        }
        c.add(6, GateKind::Cz, &[2, 3]);
        let (sim, paths) = HybridSimulator::best_cut(&c).expect("cut");
        assert_ne!(sim.part_a_qubits, 1, "must not split the fSim block");
        assert!(paths <= 2, "at most the single CZ crossing: {paths}");
        // And the chosen cut still reproduces the state.
        let state = sim.full_state(&c).expect("run");
        assert!(direct_state(&c).max_abs_diff(&state) < 1e-12);
    }

    #[test]
    fn norm_of_hybrid_state_is_one() {
        let circuit = library::random_dense(6, 20, 11);
        let state = HybridSimulator::new(2).full_state(&circuit).expect("hybrid");
        let norm: f64 = state.amplitudes().iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-11);
    }
}
