//! Dense small complex matrices (`2^k × 2^k`, `k ≤ ~6`) representing
//! (possibly fused) quantum gates, plus the algebra the gate-fusion
//! transpiler relies on: matrix product, tensor (Kronecker) product,
//! adjoint, unitarity checks, and *expansion* of a gate matrix onto a
//! larger qubit set.
//!
//! ## Index convention
//!
//! A matrix over qubits `[q_0, q_1, …, q_{k-1}]` (always kept sorted
//! ascending) indexes its rows/columns so that **bit `j` of the index
//! corresponds to qubit `q_j`** — i.e. the lowest-numbered qubit is the
//! least-significant bit of the matrix index. This matches qsim's fused
//! gate representation.

use crate::types::{Cplx, Float};

/// A dense, row-major `dim × dim` complex matrix with `dim = 2^k`.
#[derive(Debug, Clone, PartialEq)]
pub struct GateMatrix<F> {
    dim: usize,
    data: Vec<Cplx<F>>,
}

impl<F: Float> GateMatrix<F> {
    /// Zero matrix of dimension `dim` (must be a power of two).
    pub fn zeros(dim: usize) -> Self {
        assert!(dim.is_power_of_two(), "gate matrix dimension must be 2^k, got {dim}");
        GateMatrix { dim, data: vec![Cplx::zero(); dim * dim] }
    }

    /// Identity matrix of dimension `dim`.
    pub fn identity(dim: usize) -> Self {
        let mut m = Self::zeros(dim);
        for i in 0..dim {
            m.data[i * dim + i] = Cplx::one();
        }
        m
    }

    /// Build from a row-major slice of complex entries.
    pub fn from_slice(dim: usize, entries: &[Cplx<F>]) -> Self {
        assert!(dim.is_power_of_two(), "gate matrix dimension must be 2^k, got {dim}");
        assert_eq!(entries.len(), dim * dim, "entry count must be dim^2");
        GateMatrix { dim, data: entries.to_vec() }
    }

    /// Build from row-major `(re, im)` pairs given as `f64` (gate tables).
    pub fn from_f64_pairs(dim: usize, entries: &[(f64, f64)]) -> Self {
        assert_eq!(entries.len(), dim * dim, "entry count must be dim^2");
        GateMatrix { dim, data: entries.iter().map(|&(re, im)| Cplx::from_f64(re, im)).collect() }
    }

    /// Matrix dimension (`2^k`).
    #[inline(always)]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of qubits this matrix acts on (`log2(dim)`).
    #[inline(always)]
    pub fn num_qubits(&self) -> usize {
        self.dim.trailing_zeros() as usize
    }

    /// Row-major entries.
    #[inline(always)]
    pub fn as_slice(&self) -> &[Cplx<F>] {
        &self.data
    }

    /// Entry at `(row, col)`.
    #[inline(always)]
    pub fn get(&self, row: usize, col: usize) -> Cplx<F> {
        self.data[row * self.dim + col]
    }

    /// Set entry at `(row, col)`.
    #[inline(always)]
    pub fn set(&mut self, row: usize, col: usize, v: Cplx<F>) {
        self.data[row * self.dim + col] = v;
    }

    /// Matrix product `self · rhs` (apply `rhs` first, then `self`, when the
    /// matrices act on states as column vectors).
    pub fn matmul(&self, rhs: &GateMatrix<F>) -> GateMatrix<F> {
        assert_eq!(self.dim, rhs.dim, "matmul dimension mismatch");
        let d = self.dim;
        let mut out = GateMatrix::zeros(d);
        for i in 0..d {
            for l in 0..d {
                let a = self.get(i, l);
                if a.re == F::ZERO && a.im == F::ZERO {
                    continue;
                }
                for j in 0..d {
                    let mut o = out.get(i, j);
                    o.mul_add_assign(a, rhs.get(l, j));
                    out.set(i, j, o);
                }
            }
        }
        out
    }

    /// Matrix–vector product (used by tests and by the reference
    /// full-matrix simulator; kernels use the matrix-free path instead).
    pub fn matvec(&self, v: &[Cplx<F>]) -> Vec<Cplx<F>> {
        assert_eq!(v.len(), self.dim, "matvec dimension mismatch");
        let d = self.dim;
        let mut out = vec![Cplx::zero(); d];
        for (i, slot) in out.iter_mut().enumerate() {
            let mut acc = Cplx::zero();
            for (j, &vj) in v.iter().enumerate() {
                acc.mul_add_assign(self.get(i, j), vj);
            }
            *slot = acc;
        }
        out
    }

    /// Tensor (Kronecker) product where **`self` occupies the low bits** of
    /// the result index and `high` the high bits: `result = high ⊗ self`.
    ///
    /// With the index convention of this crate (bit `j` ↔ `qubits[j]`),
    /// `a.tensor_high(b)` is the matrix of "`a` on the lower-numbered
    /// qubits, `b` on the higher-numbered qubits".
    pub fn tensor_high(&self, high: &GateMatrix<F>) -> GateMatrix<F> {
        let dl = self.dim;
        let dh = high.dim;
        let d = dl * dh;
        let mut out = GateMatrix::zeros(d);
        for rh in 0..dh {
            for ch in 0..dh {
                let hv = high.get(rh, ch);
                if hv.re == F::ZERO && hv.im == F::ZERO {
                    continue;
                }
                for rl in 0..dl {
                    for cl in 0..dl {
                        let v = hv * self.get(rl, cl);
                        out.set(rh * dl + rl, ch * dl + cl, v);
                    }
                }
            }
        }
        out
    }

    /// Conjugate transpose (adjoint / dagger).
    pub fn adjoint(&self) -> GateMatrix<F> {
        let d = self.dim;
        let mut out = GateMatrix::zeros(d);
        for i in 0..d {
            for j in 0..d {
                out.set(j, i, self.get(i, j).conj());
            }
        }
        out
    }

    /// Maximum absolute entry-wise difference to another matrix (NaN if any entry is NaN).
    pub fn max_abs_diff(&self, other: &GateMatrix<F>) -> f64 {
        assert_eq!(self.dim, other.dim);
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a.dist(*b).to_f64())
            .fold(0.0, |max, d| if d > max || d.is_nan() { d } else { max })
    }

    /// `self.max_abs_diff(&identity(dim)) < tol` without building the identity.
    pub fn is_identity(&self, tol: f64) -> bool {
        self.data.iter().enumerate().all(|(k, &z)| {
            let one = if k % (self.dim + 1) == 0 { Cplx::one() } else { Cplx::zero() };
            z.dist(one).to_f64() < tol
        })
    }

    /// Whether `self · self† = I` within `tol`; `false` on a non-finite entry.
    pub fn is_unitary(&self, tol: f64) -> bool {
        self.unitarity_deviation(tol).is_some()
    }

    /// The largest `|(self · self† − I)ᵢⱼ|` when every entry is within `tol`;
    /// `None` otherwise, and when any entry is NaN or infinite.
    pub fn unitarity_deviation(&self, tol: f64) -> Option<f64> {
        let mut worst = 0.0f64;
        let within = self.gram_rows_minus_identity(|re, im| {
            re.iter().zip(im).all(|(&re, &im)| {
                let dev = Cplx::new(re, im).abs().to_f64();
                worst = worst.max(dev);
                dev <= tol
            })
        });
        within.then_some(worst)
    }

    /// Hands `visit` the columns `i..` of row `i` of `self · self† − I` as real
    /// and imaginary planes, for `i = 0, 1, …` until it returns `false`; returns
    /// whether it never did. Each entry sums over `l` in the dense product's
    /// order with [`Cplx::mul_add_assign`]'s expression, so its bits are the
    /// dense product's; the lower triangle is their exact conjugate. Against a
    /// split-complex copy of `self†`, the column loop vectorizes.
    fn gram_rows_minus_identity(&self, mut visit: impl FnMut(&[F], &[F]) -> bool) -> bool {
        let d = self.dim;
        // One buffer of `2d² + 2d` scalars: the planes of `self†`, then a row.
        let mut scratch = vec![F::ZERO; 2 * d * d + 2 * d];
        let (t_re, rest) = scratch.split_at_mut(d * d);
        let (t_im, acc) = rest.split_at_mut(d * d);
        let (acc_re, acc_im) = acc.split_at_mut(d);
        for (j, row) in self.data.chunks_exact(d).enumerate() {
            for (l, z) in row.iter().enumerate() {
                t_re[l * d + j] = z.re;
                t_im[l * d + j] = -z.im;
            }
        }
        self.data.chunks_exact(d).enumerate().all(|(i, row)| {
            let (acc_re, acc_im) = (&mut acc_re[i..], &mut acc_im[i..]);
            acc_re.fill(F::ZERO);
            acc_im.fill(F::ZERO);
            for (l, a) in row.iter().enumerate() {
                let (br, bi) = (&t_re[l * d + i..(l + 1) * d], &t_im[l * d + i..(l + 1) * d]);
                for (((or, oi), &br), &bi) in
                    acc_re.iter_mut().zip(acc_im.iter_mut()).zip(br).zip(bi)
                {
                    *or += a.re * br - a.im * bi;
                    *oi += a.re * bi + a.im * br;
                }
            }
            acc_re[0] -= F::ONE;
            visit(acc_re, acc_im)
        })
    }

    /// Expand a gate matrix acting on `own_qubits` to an equivalent matrix
    /// acting on `target_qubits` (a sorted superset): tensors with identity
    /// on the extra qubits and permutes bits into the target ordering.
    ///
    /// Both qubit lists must be sorted ascending; `own_qubits ⊆
    /// target_qubits`. This is the workhorse of *space fusion* (combining
    /// gates on different qubits into one fused matrix).
    pub fn expand_to(&self, own_qubits: &[usize], target_qubits: &[usize]) -> GateMatrix<F> {
        let mut out = GateMatrix::zeros(1 << target_qubits.len());
        self.for_each_expanded(own_qubits, target_qubits, |row, col, a| out.set(row, col, a));
        out
    }

    /// `self.expand_to(own_qubits, target_qubits).matmul(rhs)` without forming
    /// the expansion: its non-zero entries are visited in the dense product's
    /// order, so the sums accumulate term for term alike and the bits are equal.
    pub fn expand_matmul(
        &self,
        own_qubits: &[usize],
        target_qubits: &[usize],
        rhs: &GateMatrix<F>,
    ) -> GateMatrix<F> {
        assert_eq!(rhs.num_qubits(), target_qubits.len(), "rhs does not act on target_qubits");
        let d = rhs.dim;
        let mut out = GateMatrix::zeros(d);
        self.for_each_expanded(own_qubits, target_qubits, |row, l, a| {
            if a.re != F::ZERO || a.im != F::ZERO {
                let out_row = &mut out.data[row * d..(row + 1) * d];
                for (o, &b) in out_row.iter_mut().zip(&rhs.data[l * d..(l + 1) * d]) {
                    o.mul_add_assign(a, b);
                }
            }
        });
        out
    }

    /// Visit as `(row, col, entry)` what [`Self::expand_to`]'s result takes
    /// from `self` (the rest is zero), rows then columns ascending.
    fn for_each_expanded(
        &self,
        own_qubits: &[usize],
        target_qubits: &[usize],
        mut visit: impl FnMut(usize, usize, Cplx<F>),
    ) {
        assert_eq!(self.num_qubits(), own_qubits.len(), "qubit list does not match matrix size");
        debug_assert!(own_qubits.windows(2).all(|w| w[0] < w[1]), "own_qubits must be sorted");
        debug_assert!(
            target_qubits.windows(2).all(|w| w[0] < w[1]),
            "target_qubits must be sorted"
        );
        // Position of each own qubit within the target list.
        let pos: Vec<usize> = own_qubits
            .iter()
            .map(|q| target_qubits.binary_search(q).expect("own_qubits ⊆ target_qubits"))
            .collect();
        // Mask over target-index bits that belong to this gate.
        let own_mask: usize = pos.iter().map(|&p| 1usize << p).sum();
        for row in 0..1usize << target_qubits.len() {
            // Bits of `row` outside the gate must match the column's.
            let ctx = row & !own_mask;
            let r_own = extract_bits(row, &pos);
            for c_own in 0..self.dim {
                visit(row, ctx | deposit_bits(c_own, &pos), self.get(r_own, c_own));
            }
        }
    }

    /// Convert entries to another float precision.
    pub fn cast<G: Float>(&self) -> GateMatrix<G> {
        GateMatrix {
            dim: self.dim,
            data: self.data.iter().map(|z| Cplx::from_f64(z.re.to_f64(), z.im.to_f64())).collect(),
        }
    }
}

/// Gather the bits of `x` located at `positions` into a compact integer
/// (bit `j` of the result = bit `positions[j]` of `x`).
#[inline]
pub fn extract_bits(x: usize, positions: &[usize]) -> usize {
    let mut out = 0usize;
    for (j, &p) in positions.iter().enumerate() {
        out |= ((x >> p) & 1) << j;
    }
    out
}

/// Scatter the low bits of `x` to `positions` (inverse of [`extract_bits`]
/// on the covered bits).
#[inline]
pub fn deposit_bits(x: usize, positions: &[usize]) -> usize {
    let mut out = 0usize;
    for (j, &p) in positions.iter().enumerate() {
        out |= ((x >> j) & 1) << p;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    type M = GateMatrix<f64>;

    fn pauli_x() -> M {
        M::from_f64_pairs(2, &[(0., 0.), (1., 0.), (1., 0.), (0., 0.)])
    }

    fn pauli_z() -> M {
        M::from_f64_pairs(2, &[(1., 0.), (0., 0.), (0., 0.), (-1., 0.)])
    }

    fn hadamard() -> M {
        let h = std::f64::consts::FRAC_1_SQRT_2;
        M::from_f64_pairs(2, &[(h, 0.), (h, 0.), (h, 0.), (-h, 0.)])
    }

    #[test]
    fn identity_is_unitary() {
        assert!(M::identity(4).is_unitary(1e-12));
    }

    #[test]
    fn x_squared_is_identity() {
        let x = pauli_x();
        assert_eq!(x.matmul(&x), M::identity(2));
    }

    #[test]
    fn hzh_equals_x() {
        let h = hadamard();
        let hzh = h.matmul(&pauli_z()).matmul(&h);
        assert!(hzh.max_abs_diff(&pauli_x()) < 1e-15);
    }

    #[test]
    fn matvec_identity() {
        let v = vec![Cplx::new(0.6, 0.0), Cplx::new(0.0, 0.8)];
        assert_eq!(M::identity(2).matvec(&v), v);
    }

    #[test]
    fn matvec_x_swaps() {
        let v = vec![Cplx::new(1.0, 0.0), Cplx::new(0.0, 0.0)];
        let w = pauli_x().matvec(&v);
        assert_eq!(w, vec![Cplx::new(0.0, 0.0), Cplx::new(1.0, 0.0)]);
    }

    #[test]
    fn tensor_identity_low() {
        // I (low) ⊗-combined with Z (high): result applies Z to bit 1.
        let m = M::identity(2).tensor_high(&pauli_z());
        assert_eq!(m.dim(), 4);
        // Basis |00>,|01> unaffected; |10>,|11> negated (bit1 = 1).
        for idx in 0..4 {
            let sign = if idx & 2 != 0 { -1.0 } else { 1.0 };
            assert_eq!(m.get(idx, idx), Cplx::new(sign, 0.0));
        }
    }

    #[test]
    fn tensor_is_unitary() {
        let m = hadamard().tensor_high(&pauli_x());
        assert!(m.is_unitary(1e-12));
        assert_eq!(m.num_qubits(), 2);
    }

    #[test]
    fn adjoint_of_unitary_is_inverse() {
        let h = hadamard();
        assert!(h.matmul(&h.adjoint()).max_abs_diff(&M::identity(2)) < 1e-15);
    }

    #[test]
    fn extract_deposit_roundtrip() {
        let positions = [0usize, 2, 5];
        for x in 0..8usize {
            let dep = deposit_bits(x, &positions);
            assert_eq!(extract_bits(dep, &positions), x);
        }
        assert_eq!(deposit_bits(0b111, &positions), 0b100101);
    }

    #[test]
    fn expand_to_same_qubits_is_identity_transform() {
        let h = hadamard();
        let e = h.expand_to(&[3], &[3]);
        assert_eq!(e, h);
    }

    #[test]
    fn expand_matches_tensor_product() {
        // X on qubit 0 expanded to {0,1} should be I(high) ⊗ X(low).
        let x = pauli_x();
        let direct = x.tensor_high(&M::identity(2));
        let expanded = x.expand_to(&[0], &[0, 1]);
        assert!(direct.max_abs_diff(&expanded) < 1e-15);

        // Z on qubit 1 expanded to {0,1} should be Z(high) ⊗ I(low).
        let z = pauli_z();
        let direct = M::identity(2).tensor_high(&z);
        let expanded = z.expand_to(&[1], &[0, 1]);
        assert!(direct.max_abs_diff(&expanded) < 1e-15);
    }

    #[test]
    fn expand_preserves_unitarity() {
        let h = hadamard();
        let e = h.expand_to(&[1], &[0, 1, 4]);
        assert_eq!(e.dim(), 8);
        assert!(e.is_unitary(1e-12));
    }

    #[test]
    fn expanded_gates_on_disjoint_qubits_commute() {
        let a = hadamard().expand_to(&[0], &[0, 1]);
        let b = pauli_z().expand_to(&[1], &[0, 1]);
        assert!(a.matmul(&b).max_abs_diff(&b.matmul(&a)) < 1e-15);
    }

    #[test]
    fn cast_roundtrip() {
        let h = hadamard();
        let h32: GateMatrix<f32> = h.cast();
        let back: GateMatrix<f64> = h32.cast();
        assert!(h.max_abs_diff(&back) < 1e-7);
    }

    /// `x` with its zeros signed, so products carry `-0.0` terms.
    fn signed_zero_x() -> M {
        M::from_f64_pairs(2, &[(-0.0, 0.0), (1., 0.), (1., -0.0), (0., -0.0)])
    }

    fn cz() -> M {
        let mut m = M::identity(4);
        m.set(3, 3, Cplx::new(-1.0, 0.0));
        m
    }

    /// A random `k`-qubit unitary: two layers of random single-qubit
    /// rotations (or `x`) and `cz` links, so entries are dense floats in
    /// some columns and exact or signed zeros in others.
    fn random_unitary(k: usize, rng: &mut TestRng) -> M {
        let all: Vec<usize> = (0..k).collect();
        let mut u = M::identity(1 << k);
        for _ in 0..2 {
            for q in 0..k {
                let g = if rng.below(4) == 0 {
                    signed_zero_x()
                } else {
                    let mut angle = || rng.unit_f64() * std::f64::consts::TAU;
                    let (t, p, l) = (angle(), angle(), angle());
                    let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
                    M::from_f64_pairs(
                        2,
                        &[
                            (c, 0.0),
                            (-l.cos() * s, -l.sin() * s),
                            (p.cos() * s, p.sin() * s),
                            ((p + l).cos() * c, (p + l).sin() * c),
                        ],
                    )
                };
                u = g.expand_to(&[q], &all).matmul(&u);
            }
            for q in 1..k {
                if rng.below(2) == 0 {
                    u = cz().expand_to(&[q - 1, q], &all).matmul(&u);
                }
            }
        }
        u
    }

    /// `count` distinct qubits out of `pool`, sorted.
    fn pick(pool: &[usize], count: usize, rng: &mut TestRng) -> Vec<usize> {
        let mut pool = pool.to_vec();
        let mut out: Vec<usize> =
            (0..count).map(|_| pool.swap_remove(rng.below(pool.len() as u64) as usize)).collect();
        out.sort_unstable();
        out
    }

    fn bits(m: &M) -> Vec<(u64, u64)> {
        m.as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// The check `is_unitary` replaced: the full product against the
    /// identity.
    fn dense_verdict<F: Float>(m: &GateMatrix<F>, tol: f64) -> bool {
        m.matmul(&m.adjoint()).max_abs_diff(&GateMatrix::identity(m.dim())) <= tol
    }

    fn entry_bits<F: Float>(re: F, im: F) -> (u64, u64) {
        (re.to_f64().to_bits(), im.to_f64().to_bits())
    }

    /// The upper triangle of `m · m† − I` as the split-complex pass forms it.
    fn split_gram_bits<F: Float>(m: &GateMatrix<F>) -> Vec<(u64, u64)> {
        let mut bits = Vec::new();
        m.gram_rows_minus_identity(|re, im| {
            bits.extend(re.iter().zip(im).map(|(&re, &im)| entry_bits(re, im)));
            true
        });
        bits
    }

    /// The same triangle as the interleaved loop it replaced forms it,
    /// against a built adjoint.
    fn interleaved_gram_bits<F: Float>(m: &GateMatrix<F>) -> Vec<(u64, u64)> {
        let (d, adjoint) = (m.dim(), m.adjoint());
        let mut bits = Vec::new();
        for i in 0..d {
            let mut upper = vec![Cplx::zero(); d - i];
            for l in 0..d {
                for (o, &b) in upper.iter_mut().zip(&adjoint.as_slice()[l * d + i..(l + 1) * d]) {
                    o.mul_add_assign(m.get(i, l), b);
                }
            }
            upper[0] -= Cplx::one();
            bits.extend(upper.iter().map(|z| entry_bits(z.re, z.im)));
        }
        bits
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The in-place composition is the dense product of the two
        /// expansions, bit for bit, whether the gate sits inside the slot
        /// (no widening), overlaps it, or is disjoint from it.
        #[test]
        fn expand_matmul_matches_dense_product_bit_for_bit(
            seed in 0u64..u64::MAX,
            width in 1usize..=6,
            shape in 0usize..3,
        ) {
            let rng = &mut TestRng::from_seed(seed);
            let pool: Vec<usize> = (0..9).collect();
            let union = pick(&pool, width, rng);
            let some_of = |set: &[usize], rng: &mut TestRng| {
                pick(set, 1 + rng.below(set.len() as u64) as usize, rng)
            };
            let (gate_qubits, slot_qubits) = match shape {
                // gate ⊆ slot: the slot already is the union.
                0 => (some_of(&union, rng), union.clone()),
                // disjoint: the union splits between them.
                1 if width > 1 => {
                    let gate = pick(&union, 1 + rng.below(width as u64 - 1) as usize, rng);
                    let slot = union.iter().copied().filter(|q| !gate.contains(q)).collect();
                    (gate, slot)
                }
                // overlapping, neither inside the other in general.
                _ => {
                    let gate = some_of(&union, rng);
                    let mut slot = some_of(&union, rng);
                    slot.extend(union.iter().filter(|q| !gate.contains(q)));
                    slot.sort_unstable();
                    slot.dedup();
                    (gate, slot)
                }
            };
            let gate = random_unitary(gate_qubits.len(), rng);
            let slot = random_unitary(slot_qubits.len(), rng).expand_to(&slot_qubits, &union);
            let dense = gate.expand_to(&gate_qubits, &union).matmul(&slot);
            let sparse = gate.expand_matmul(&gate_qubits, &union, &slot);
            prop_assert!(
                bits(&sparse) == bits(&dense),
                "gate {gate_qubits:?} slot {slot_qubits:?} union {union:?}"
            );
        }

        /// The half-triangle check returns the full product's verdict: on
        /// unitaries, either side of the tolerance, and after the `f32`
        /// cast at the analyzer's single-precision tolerance.
        #[test]
        fn is_unitary_matches_the_dense_verdict(
            seed in 0u64..u64::MAX,
            width in 1usize..=6,
        ) {
            const TOL: f64 = 1e-9;
            let rng = &mut TestRng::from_seed(seed);
            let u = random_unitary(width, rng);
            prop_assert!(u.is_unitary(TOL) && dense_verdict(&u, TOL));
            let u32 = u.cast::<f32>();
            prop_assert_eq!(u32.is_unitary(1e-4), dense_verdict(&u32, 1e-4));
            prop_assert_eq!(u32.is_unitary(1e-8), dense_verdict(&u32, 1e-8));

            let d = u.dim() as u64;
            let (r, c) = (rng.below(d) as usize, rng.below(d) as usize);
            for eps in [0.5 * TOL, 2.0 * TOL, 1e-3] {
                let mut off = u.clone();
                off.set(r, c, off.get(r, c) + Cplx::new(eps, -eps));
                prop_assert!(off.is_unitary(TOL) == dense_verdict(&off, TOL), "eps {eps}");
            }
            let mut scaled = u.clone();
            scaled.set(r, c, scaled.get(r, c).scale(1.5) + Cplx::new(0.25, 0.0));
            prop_assert!(!scaled.is_unitary(TOL) && !dense_verdict(&scaled, TOL));
        }

        /// Every upper-triangle entry of the split-complex pass is the
        /// interleaved loop's, bit for bit, at both precisions, and the
        /// deviation it reports is the dense product's largest entry.
        #[test]
        fn gram_rows_match_the_interleaved_loop_bit_for_bit(
            seed in 0u64..u64::MAX,
            width in 1usize..=6,
        ) {
            let rng = &mut TestRng::from_seed(seed);
            let u = random_unitary(width, rng);
            let d = u.dim() as u64;
            let (r, c) = (rng.below(d) as usize, rng.below(d) as usize);
            let mut off = u.clone();
            off.set(r, c, off.get(r, c) + Cplx::new(1e-3, -1e-3));
            for m in [u, off] {
                prop_assert!(split_gram_bits(&m) == interleaved_gram_bits(&m));
                let m32 = m.cast::<f32>();
                prop_assert!(split_gram_bits(&m32) == interleaved_gram_bits(&m32));
                let dense = m.matmul(&m.adjoint()).max_abs_diff(&M::identity(m.dim()));
                prop_assert_eq!(m.unitarity_deviation(1.0), Some(dense));
            }
        }
    }

    #[test]
    fn is_identity_matches_the_built_identity() {
        let mut m = M::identity(4);
        assert!(m.is_identity(1e-12) && !hadamard().is_identity(1e-12));
        m.set(2, 2, Cplx::new(1.0, 1e-13));
        assert!(m.is_identity(1e-12) && !m.is_identity(1e-13));
        m.set(3, 1, Cplx::new(f64::NAN, 0.0));
        assert!(!m.is_identity(1e-12) && m.max_abs_diff(&M::identity(4)).is_nan());
    }

    #[test]
    fn is_unitary_rejects_stretched_diagonals_and_non_finite_entries() {
        // Unit-modulus diagonal: unitary. Stretched: `D·D†` is not `I`
        // although `D` is as diagonal as the identity.
        let phases = M::from_f64_pairs(2, &[(0.6, 0.8), (0., 0.), (0., 0.), (0., -1.)]);
        assert!(phases.is_unitary(1e-12) && dense_verdict(&phases, 1e-12));
        let stretched = M::from_f64_pairs(2, &[(1., 0.), (0., 0.), (0., 0.), (0., 2.)]);
        assert!(!stretched.is_unitary(1e-12) && !dense_verdict(&stretched, 1e-12));

        // The old fold (`f64::max`) dropped NaN and called this unitary.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for at in [(0, 0), (0, 3), (3, 1)] {
                let mut m = M::identity(4);
                m.set(at.0, at.1, Cplx::new(0.0, bad));
                assert!(!m.is_unitary(1e-9), "{bad} at {at:?}");
                let diff = m.max_abs_diff(&M::identity(4));
                assert!(diff.is_nan() || diff == f64::INFINITY, "{bad} at {at:?}: {diff}");
            }
        }
        assert!(M::from_f64_pairs(1, &[(f64::NAN, f64::NAN)])
            .max_abs_diff(&M::identity(1))
            .is_nan());
    }

    #[test]
    #[should_panic(expected = "dimension must be 2^k")]
    fn non_power_of_two_rejected() {
        let _ = M::zeros(3);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_dim_mismatch_rejected() {
        let _ = M::identity(2).matmul(&M::identity(4));
    }
}
