//! The state vector: `2^n` complex amplitudes representing the joint state
//! of `n` qubits.

use crate::amps::AlignedAmps;
use crate::types::{Cplx, Float};

/// Maximum number of qubits this crate will allocate a state vector for.
///
/// `2^34` single-precision amplitudes is 128 GiB — the capacity of one
/// MI250X GCD in the paper's Table 1. We cap a little above that to permit
/// large-memory hosts while still catching accidental `new(200)` calls.
pub const MAX_QUBITS: usize = 36;

/// A `2^n`-amplitude quantum state.
///
/// Freshly-created states are initialised to the computational basis state
/// `|0…0⟩` (amplitude 1 at index 0). Index `i`'s bit `q` is the value of
/// qubit `q` in basis state `|i⟩` — qubit 0 is the least-significant bit.
#[derive(Debug, PartialEq)]
pub struct StateVector<F> {
    num_qubits: usize,
    amps: AlignedAmps<F>,
}

impl<F: Float> Clone for StateVector<F> {
    fn clone(&self) -> Self {
        StateVector { num_qubits: self.num_qubits, amps: self.amps.clone() }
    }
}

impl<F: Float> StateVector<F> {
    /// Create the `n`-qubit state `|0…0⟩` (panics if the host cannot
    /// provide the buffer).
    pub fn new(num_qubits: usize) -> Self {
        assert!(
            (1..=MAX_QUBITS).contains(&num_qubits),
            "num_qubits must be in 1..={MAX_QUBITS}, got {num_qubits}"
        );
        let mut amps = AlignedAmps::try_zeroed(1usize << num_qubits)
            .unwrap_or_else(|| panic!("cannot allocate a {num_qubits}-qubit state"));
        amps[0] = Cplx::one();
        StateVector { num_qubits, amps }
    }

    /// Create a state from raw amplitudes (length must be a power of two).
    /// The caller is responsible for normalization. An [`AlignedAmps`]
    /// moves in; a `Vec` is copied into one.
    pub fn from_amplitudes(amps: impl Into<AlignedAmps<F>>) -> Self {
        let amps = amps.into();
        assert!(amps.len().is_power_of_two() && amps.len() >= 2, "amplitude count must be 2^n");
        let num_qubits = amps.len().trailing_zeros() as usize;
        StateVector { num_qubits, amps }
    }

    /// Build the `n`-qubit `|0…0⟩` state inside a recycled allocation —
    /// the state-buffer-pool constructor: a warm 2^30-amplitude buffer
    /// skips the multi-GiB allocate-and-fault of [`StateVector::new`] and
    /// only pays the reinitialising sweep. `amps` must have exactly
    /// `2^num_qubits` elements (pools are size-bucketed, so a wrong-sized
    /// buffer is a caller bug).
    pub fn from_recycled(num_qubits: usize, amps: AlignedAmps<F>) -> Self {
        assert!(
            (1..=MAX_QUBITS).contains(&num_qubits),
            "num_qubits must be in 1..={MAX_QUBITS}, got {num_qubits}"
        );
        assert!(
            amps.len() == 1usize << num_qubits,
            "recycled buffer has {} amplitudes, want 2^{num_qubits}",
            amps.len()
        );
        let mut sv = StateVector { num_qubits, amps };
        sv.set_zero_state();
        sv
    }

    /// Consume the state and return its amplitude buffer — the other half
    /// of the recycling cycle: hand this to a buffer pool so the next
    /// same-sized job reuses the allocation via
    /// [`StateVector::from_recycled`].
    pub fn into_amplitudes(self) -> AlignedAmps<F> {
        self.amps
    }

    /// Reset to `|0…0⟩` without reallocating.
    pub fn set_zero_state(&mut self) {
        self.set_basis_state(0);
    }

    /// Set to the computational basis state `|i⟩`.
    pub fn set_basis_state(&mut self, i: usize) {
        assert!(i < self.len(), "basis state index out of range");
        for a in self.amps.iter_mut() {
            *a = Cplx::zero();
        }
        self.amps[i] = Cplx::one();
    }

    /// Set to the uniform superposition `H^{⊗n}|0…0⟩` (all amplitudes
    /// `1/√N`), qsim's `SetStateUniform`.
    pub fn set_uniform_state(&mut self) {
        let amp = F::ONE / F::from_f64((self.len() as f64).sqrt());
        for a in self.amps.iter_mut() {
            *a = Cplx::new(amp, F::ZERO);
        }
    }

    /// Number of qubits `n`.
    #[inline(always)]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of amplitudes `2^n`.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.amps.len()
    }

    /// Always false — a state vector has at least 2 amplitudes.
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Amplitude of basis state `|i⟩`.
    #[inline(always)]
    pub fn amplitude(&self, i: usize) -> Cplx<F> {
        self.amps[i]
    }

    /// Borrow the amplitudes.
    #[inline(always)]
    pub fn amplitudes(&self) -> &[Cplx<F>] {
        &self.amps
    }

    /// Mutably borrow the amplitudes.
    #[inline(always)]
    pub fn amplitudes_mut(&mut self) -> &mut [Cplx<F>] {
        &mut self.amps
    }

    /// Memory footprint of the amplitude array in bytes — the quantity that
    /// limits state-vector simulation to ~35-36 qubits on terabyte-class
    /// machines (paper §1).
    pub fn memory_bytes(&self) -> usize {
        self.amps.len() * std::mem::size_of::<Cplx<F>>()
    }

    /// Maximum absolute amplitude difference to another state of the same
    /// size (possibly at different precision); NaN if any amplitude of
    /// either is NaN.
    pub fn max_abs_diff<G: Float>(&self, other: &StateVector<G>) -> f64 {
        assert_eq!(self.len(), other.len(), "state size mismatch");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| {
                let a = a.to_f64();
                let b = b.to_f64();
                a.dist(b)
            })
            .fold(0.0, |max, d| if d > max || d.is_nan() { d } else { max })
    }
}

/// A state vector is its amplitudes: every kernel and state-space function
/// takes an amplitude slice, and `&state` / `&mut state` coerce to one.
impl<F> std::ops::Deref for StateVector<F> {
    type Target = [Cplx<F>];

    fn deref(&self) -> &[Cplx<F>] {
        &self.amps
    }
}

/// Mutable access keeps the length, so the `2^n` invariant holds.
impl<F> std::ops::DerefMut for StateVector<F> {
    fn deref_mut(&mut self) -> &mut [Cplx<F>] {
        &mut self.amps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_state_is_zero_ket() {
        // 2^3 amplitudes are a heap block, 2^18 f64 ones (4 MiB) a mapping.
        let bits = |a: &Cplx<f64>| (a.re.to_bits(), a.im.to_bits());
        for n in [3, 18] {
            let sv = StateVector::<f64>::new(n);
            assert_eq!(sv.num_qubits(), n);
            assert_eq!(sv.len(), 1 << n);
            assert!(sv.as_ptr().addr().is_multiple_of(crate::amps::ALIGN));
            assert_eq!(bits(&sv[0]), (1.0f64.to_bits(), 0));
            assert!(sv[1..].iter().all(|a| bits(a) == (0, 0)), "exact +0 above |0…0⟩");
        }
    }

    #[test]
    fn max_abs_diff_is_nan_when_any_amplitude_is() {
        let a = StateVector::<f64>::new(3);
        let mut b = StateVector::<f32>::new(3);
        b[1] = Cplx::new(f32::NAN, 0.0);
        // A finite difference after the NaN must not hide it.
        b[7] = Cplx::new(5.0, 0.0);
        assert!(a.max_abs_diff(&b).is_nan());
        assert!(b.max_abs_diff(&a).is_nan());
    }

    #[test]
    fn basis_state() {
        let mut sv = StateVector::<f32>::new(2);
        sv.set_basis_state(3);
        assert_eq!(sv.amplitude(3), Cplx::one());
        assert_eq!(sv.amplitude(0), Cplx::zero());
    }

    #[test]
    fn uniform_state_is_normalized() {
        let mut sv = StateVector::<f64>::new(4);
        sv.set_uniform_state();
        let norm: f64 = sv.amplitudes().iter().map(|a| a.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12);
    }

    #[test]
    fn memory_accounting() {
        let sv32 = StateVector::<f32>::new(10);
        let sv64 = StateVector::<f64>::new(10);
        assert_eq!(sv32.memory_bytes(), 1024 * 8);
        assert_eq!(sv64.memory_bytes(), 1024 * 16);
    }

    #[test]
    fn from_amplitudes_roundtrip() {
        let amps = vec![Cplx::new(0.6, 0.0), Cplx::new(0.0, 0.8)];
        let sv = StateVector::from_amplitudes(amps.clone());
        assert_eq!(sv.num_qubits(), 1);
        assert_eq!(sv.amplitudes(), amps.as_slice());
    }

    #[test]
    fn cross_precision_diff() {
        let a = StateVector::<f32>::new(3);
        let b = StateVector::<f64>::new(3);
        assert!(a.max_abs_diff(&b) < 1e-7);
    }

    #[test]
    fn set_zero_state_resets() {
        let mut sv = StateVector::<f64>::new(2);
        sv.set_basis_state(2);
        sv.set_zero_state();
        assert_eq!(sv.amplitude(0), Cplx::one());
        assert_eq!(sv.amplitude(2), Cplx::zero());
    }

    #[test]
    #[should_panic(expected = "num_qubits must be in")]
    fn zero_qubits_rejected() {
        let _ = StateVector::<f64>::new(0);
    }

    #[test]
    fn recycling_reuses_the_allocation_and_reinitialises() {
        let mut sv = StateVector::<f64>::new(4);
        sv.set_uniform_state();
        let buf = sv.into_amplitudes();
        let addr = buf.as_ptr();
        let recycled = StateVector::<f64>::from_recycled(4, buf);
        assert_eq!(recycled.amplitudes().as_ptr(), addr, "must not reallocate");
        assert_eq!(recycled.amplitude(0), Cplx::one());
        assert!(recycled.amplitudes()[1..].iter().all(|&a| a == Cplx::zero()));
    }

    #[test]
    #[should_panic(expected = "recycled buffer")]
    fn recycling_rejects_wrong_size() {
        let buf = StateVector::<f32>::new(3).into_amplitudes();
        let _ = StateVector::<f32>::from_recycled(4, buf);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn basis_state_out_of_range() {
        let mut sv = StateVector::<f64>::new(2);
        sv.set_basis_state(4);
    }
}
