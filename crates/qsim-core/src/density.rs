//! Density-matrix simulation — the second simulation technique in the
//! paper's taxonomy (§1: "state vector, density matrix, tensor networks,
//! quantum trajectories"). Where the trajectory simulator samples one
//! Kraus branch per run, the density matrix evolves the full mixed state
//! `ρ` exactly: unitaries as `ρ → UρU†`, channels as `ρ → Σ K_i ρ K_i†`,
//! at the cost of `4^n` amplitudes.
//!
//! Storage uses the *vectorized* (doubled-register) representation:
//! `ρ` over `n` qubits is a `2n`-qubit vector with index
//! `row | (col << n)`, so `UρU†` is two ordinary matrix-free gate
//! applications — `U` on the row qubits and `conj(U)` on the column
//! qubits — reusing the state-vector kernels unchanged.

use crate::kernels::{apply_gate_par, MAX_GATE_QUBITS};
use crate::matrix::GateMatrix;
use crate::noise::KrausChannel;
use crate::observables::{PauliString, PauliSum};
use crate::statevec::StateVector;
use crate::types::{Cplx, Float};

/// Practical qubit cap: `4^13` double-precision amplitudes ≈ 1 GiB.
pub const MAX_DENSITY_QUBITS: usize = 13;

/// A mixed state over `n` qubits (`4^n` complex entries).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix<F> {
    num_qubits: usize,
    /// Vectorized entries: `data[row | (col << n)] = ρ_{row,col}`.
    data: Vec<Cplx<F>>,
}

impl<F: Float> DensityMatrix<F> {
    /// The pure state `|0…0⟩⟨0…0|`.
    pub fn new(num_qubits: usize) -> Self {
        assert!(
            (1..=MAX_DENSITY_QUBITS).contains(&num_qubits),
            "num_qubits must be in 1..={MAX_DENSITY_QUBITS}, got {num_qubits}"
        );
        let mut data = vec![Cplx::zero(); 1usize << (2 * num_qubits)];
        data[0] = Cplx::one();
        DensityMatrix { num_qubits, data }
    }

    /// Build from raw vectorized entries (`data[row | (col << n)]`).
    /// The caller is responsible for Hermiticity/trace.
    pub fn from_vectorized(num_qubits: usize, data: Vec<Cplx<F>>) -> Self {
        assert!((1..=MAX_DENSITY_QUBITS).contains(&num_qubits));
        assert_eq!(data.len(), 1usize << (2 * num_qubits), "need 4^n entries");
        DensityMatrix { num_qubits, data }
    }

    /// `|ψ⟩⟨ψ|` from a pure state.
    pub fn from_pure(state: &StateVector<F>) -> Self {
        let n = state.num_qubits();
        assert!(n <= MAX_DENSITY_QUBITS, "state too large for a density matrix");
        let len = state.len();
        let mut data = vec![Cplx::zero(); len * len];
        for row in 0..len {
            for col in 0..len {
                data[row | (col << n)] = state.amplitude(row) * state.amplitude(col).conj();
            }
        }
        DensityMatrix { num_qubits: n, data }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Entry `ρ_{row, col}`.
    pub fn get(&self, row: usize, col: usize) -> Cplx<F> {
        self.data[row | (col << self.num_qubits)]
    }

    /// `Tr ρ` (1 for a valid state).
    pub fn trace(&self) -> f64 {
        let len = 1usize << self.num_qubits;
        (0..len).map(|i| self.get(i, i).re.to_f64()).sum()
    }

    /// Purity `Tr ρ²` — 1 for pure states, `1/2^n` for the maximally
    /// mixed state.
    pub fn purity(&self) -> f64 {
        // Tr ρ² = Σ_{rc} ρ_rc · ρ_cr = Σ |ρ_rc|² for Hermitian ρ.
        self.data.iter().map(|z| z.norm_sqr().to_f64()).sum()
    }

    /// Maximum Hermiticity violation `|ρ_rc − conj(ρ_cr)|`.
    pub fn hermiticity_error(&self) -> f64 {
        let len = 1usize << self.num_qubits;
        let mut worst = 0.0f64;
        for r in 0..len {
            for c in 0..=r {
                let d = self.get(r, c).to_f64().dist(self.get(c, r).to_f64().conj());
                worst = worst.max(d);
            }
        }
        worst
    }

    /// Apply a unitary on `qubits` (sorted ascending): `ρ → UρU†`.
    pub fn apply_unitary(&mut self, qubits: &[usize], matrix: &GateMatrix<F>) {
        assert!(qubits.len() <= MAX_GATE_QUBITS);
        assert!(qubits.iter().all(|&q| q < self.num_qubits), "qubit out of range");
        let n = self.num_qubits;
        // Row side: U on the low register.
        apply_gate_par(&mut self.data, qubits, matrix);
        // Column side: conj(U) on the high register.
        let conj = conjugate(matrix);
        let col_qubits: Vec<usize> = qubits.iter().map(|&q| q + n).collect();
        apply_gate_par(&mut self.data, &col_qubits, &conj);
    }

    /// Apply a Kraus channel exactly: `ρ → Σ_i K_i ρ K_i†`.
    pub fn apply_channel(&mut self, channel: &KrausChannel<F>) {
        let mut acc = vec![Cplx::<F>::zero(); self.data.len()];
        for k in channel.operators() {
            let mut branch = self.clone();
            branch.apply_unitary_unchecked(channel.qubits(), k);
            for (a, b) in acc.iter_mut().zip(&branch.data) {
                *a += *b;
            }
        }
        self.data = acc;
    }

    /// Like [`Self::apply_unitary`] but without the unitarity assumption
    /// (Kraus operators are generally non-unitary; the math is identical).
    fn apply_unitary_unchecked(&mut self, qubits: &[usize], matrix: &GateMatrix<F>) {
        self.apply_unitary(qubits, matrix);
    }

    /// Probability of measuring `|1⟩` on `qubit` (diagonal sum).
    pub fn prob_one(&self, qubit: usize) -> f64 {
        assert!(qubit < self.num_qubits, "qubit out of range");
        let len = 1usize << self.num_qubits;
        let mask = 1usize << qubit;
        (0..len).filter(|i| i & mask != 0).map(|i| self.get(i, i).re.to_f64()).sum()
    }

    /// The diagonal (outcome probabilities), in `f64`.
    pub fn probabilities(&self) -> Vec<f64> {
        let len = 1usize << self.num_qubits;
        (0..len).map(|i| self.get(i, i).re.to_f64()).collect()
    }

    /// `Tr(Pρ)` for a Pauli string, via
    /// `Σ_i P_{i, i⊕x} · ρ_{i⊕x, i}` — one pass, no copies.
    pub fn expectation_string(&self, string: &PauliString) -> f64 {
        assert!(string.min_qubits() <= self.num_qubits, "Pauli string out of range");
        let len = 1usize << self.num_qubits;
        let xmask = string.xmask();
        let mut acc = Cplx::<f64>::zero();
        for i in 0..len {
            let p = string.phase(i);
            acc += p * self.get(i ^ xmask, i).to_f64();
        }
        debug_assert!(acc.im.abs() < 1e-9, "Tr(Pρ) must be real, got {}i", acc.im);
        acc.re
    }

    /// `Tr(Hρ)` for a Pauli sum.
    pub fn expectation(&self, sum: &PauliSum) -> f64 {
        sum.terms().iter().map(|(c, p)| c * self.expectation_string(p)).sum()
    }

    /// Fidelity with a pure state: `⟨ψ|ρ|ψ⟩`.
    pub fn fidelity_pure(&self, state: &StateVector<F>) -> f64 {
        assert_eq!(state.num_qubits(), self.num_qubits, "qubit count mismatch");
        let len = state.len();
        let mut acc = Cplx::<f64>::zero();
        for r in 0..len {
            for c in 0..len {
                acc += state.amplitude(r).to_f64().conj()
                    * self.get(r, c).to_f64()
                    * state.amplitude(c).to_f64();
            }
        }
        acc.re
    }
}

/// Entry-wise complex conjugate of a gate matrix (not the adjoint).
fn conjugate<F: Float>(m: &GateMatrix<F>) -> GateMatrix<F> {
    let dim = m.dim();
    let mut out = GateMatrix::zeros(dim);
    for r in 0..dim {
        for c in 0..dim {
            out.set(r, c, m.get(r, c).conj());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::apply_gate_seq;
    use crate::noise::{bit_flip, depolarizing};
    use crate::observables::Pauli;

    fn h_matrix() -> GateMatrix<f64> {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        GateMatrix::from_f64_pairs(2, &[(h, 0.), (h, 0.), (h, 0.), (-h, 0.)])
    }

    fn cnot_sorted() -> GateMatrix<f64> {
        // control = qubit 0 (bit 0), target = qubit 1.
        let mut m = GateMatrix::zeros(4);
        m.set(0, 0, Cplx::one());
        m.set(2, 2, Cplx::one());
        m.set(1, 3, Cplx::one());
        m.set(3, 1, Cplx::one());
        m
    }

    #[test]
    fn fresh_density_matrix_is_pure_zero_state() {
        let rho = DensityMatrix::<f64>::new(3);
        assert!((rho.trace() - 1.0).abs() < 1e-14);
        assert!((rho.purity() - 1.0).abs() < 1e-14);
        assert_eq!(rho.get(0, 0), Cplx::one());
    }

    #[test]
    fn unitary_evolution_matches_state_vector() {
        // Bell circuit on both representations.
        let mut rho = DensityMatrix::<f64>::new(2);
        rho.apply_unitary(&[0], &h_matrix());
        rho.apply_unitary(&[0, 1], &cnot_sorted());

        let mut psi = StateVector::<f64>::new(2);
        apply_gate_seq(&mut psi, &[0], &h_matrix());
        apply_gate_seq(&mut psi, &[0, 1], &cnot_sorted());

        let from_pure = DensityMatrix::from_pure(&psi);
        for r in 0..4 {
            for c in 0..4 {
                assert!(
                    rho.get(r, c).to_f64().dist(from_pure.get(r, c).to_f64()) < 1e-14,
                    "entry ({r},{c})"
                );
            }
        }
        assert!((rho.purity() - 1.0).abs() < 1e-13);
        assert!((rho.fidelity_pure(&psi) - 1.0).abs() < 1e-13);
    }

    #[test]
    fn depolarizing_channel_exact_form() {
        // ρ' = (1-p)ρ + p/3 (XρX + YρY + ZρZ); on |0⟩⟨0| this gives
        // diag(1 - 2p/3, 2p/3).
        let p = 0.3;
        let mut rho = DensityMatrix::<f64>::new(1);
        rho.apply_channel(&depolarizing(0, p));
        assert!((rho.get(0, 0).re - (1.0 - 2.0 * p / 3.0)).abs() < 1e-12);
        assert!((rho.get(1, 1).re - 2.0 * p / 3.0).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!(rho.purity() < 1.0);
        assert!(rho.hermiticity_error() < 1e-14);
    }

    #[test]
    fn channel_preserves_trace_and_hermiticity() {
        let mut rho = DensityMatrix::<f64>::new(2);
        rho.apply_unitary(&[0], &h_matrix());
        rho.apply_unitary(&[0, 1], &cnot_sorted());
        rho.apply_channel(&depolarizing(0, 0.2));
        rho.apply_channel(&bit_flip(1, 0.1));
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!(rho.hermiticity_error() < 1e-12);
        assert!(rho.purity() < 1.0);
    }

    #[test]
    fn full_depolarizing_reaches_maximally_mixed() {
        let mut rho = DensityMatrix::<f64>::new(1);
        // p = 3/4 is the fully-depolarizing point: ρ → I/2.
        rho.apply_channel(&depolarizing(0, 0.75));
        assert!((rho.get(0, 0).re - 0.5).abs() < 1e-12);
        assert!((rho.get(1, 1).re - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expectation_matches_state_vector_observables() {
        let mut psi = StateVector::<f64>::new(3);
        apply_gate_seq(&mut psi, &[0], &h_matrix());
        apply_gate_seq(&mut psi, &[1], &h_matrix());
        let rho = DensityMatrix::from_pure(&psi);
        for string in [
            PauliString::single(0, Pauli::X),
            PauliString::single(2, Pauli::Z),
            PauliString::two(0, Pauli::X, 1, Pauli::X),
            PauliString::two(0, Pauli::Y, 2, Pauli::Z),
        ] {
            let via_rho = rho.expectation_string(&string);
            let via_psi = string.expectation(&psi);
            assert!((via_rho - via_psi).abs() < 1e-12, "{string:?}");
        }
    }

    #[test]
    fn prob_one_and_probabilities() {
        let mut rho = DensityMatrix::<f64>::new(2);
        rho.apply_unitary(&[1], &h_matrix());
        assert!((rho.prob_one(1) - 0.5).abs() < 1e-13);
        assert!(rho.prob_one(0).abs() < 1e-13);
        let p = rho.probabilities();
        assert_eq!(p.len(), 4);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-13);
    }

    #[test]
    fn noisy_ghz_fidelity_has_closed_form_check() {
        // GHZ-2 (Bell) then depolarizing p on qubit 0: fidelity with the
        // ideal Bell state is 1 - 2p/3·(1) … compute both ways: channel
        // on ρ vs analytic mixture.
        let p = 0.25;
        let mut psi = StateVector::<f64>::new(2);
        apply_gate_seq(&mut psi, &[0], &h_matrix());
        apply_gate_seq(&mut psi, &[0, 1], &cnot_sorted());
        let mut rho = DensityMatrix::from_pure(&psi);
        rho.apply_channel(&depolarizing(0, p));
        let f = rho.fidelity_pure(&psi);
        // X, Y, Z on one Bell qubit all give orthogonal Bell states ⇒
        // F = 1 - p.
        assert!((f - (1.0 - p)).abs() < 1e-12, "fidelity {f}");
    }

    #[test]
    #[should_panic(expected = "num_qubits must be in")]
    fn too_many_qubits_rejected() {
        let _ = DensityMatrix::<f64>::new(MAX_DENSITY_QUBITS + 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_qubit_rejected() {
        let mut rho = DensityMatrix::<f64>::new(2);
        rho.apply_unitary(&[2], &h_matrix());
    }
}
