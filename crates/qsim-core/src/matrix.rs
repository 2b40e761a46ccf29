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

use crate::kernels::MAX_GATE_QUBITS;
use crate::simd::{self, Tiered};
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
    /// dense product's on every SIMD tier; the lower triangle is their exact
    /// conjugate. Rows are formed four at a time in register tiles of 4 × 8
    /// entries against a split-complex copy of `self†`.
    pub fn gram_rows_minus_identity(&self, visit: impl FnMut(&[F], &[F]) -> bool) -> bool {
        let d = self.dim;
        // `2d² + 8d` scalars from a 64-byte boundary on (see `aligned`):
        // the planes of `self†`, then four output rows.
        let (mut scratch, at) = aligned(Vec::new(), 2 * d * d + 8 * d);
        let (t_re, rest) = scratch[at..].split_at_mut(d * d);
        let (t_im, rows) = rest.split_at_mut(d * d);
        for (j, row) in self.data.chunks_exact(d).enumerate() {
            for (l, z) in row.iter().enumerate() {
                t_re[l * d + j] = z.re;
                t_im[l * d + j] = -z.im;
            }
        }
        let (out_re, out_im) = rows.split_at_mut(4 * d);
        simd::dispatch(GramRows { a: &self.data, d, t_re, t_im, out_re, out_im, visit })
    }

    /// Expand a gate matrix acting on `own_qubits` to an equivalent matrix
    /// acting on `target_qubits` (a sorted superset): tensors with identity
    /// on the extra qubits and permutes bits into the target ordering.
    ///
    /// Both qubit lists must be sorted ascending; `own_qubits ⊆
    /// target_qubits`. This is the workhorse of *space fusion* (combining
    /// gates on different qubits into one fused matrix).
    pub fn expand_to(&self, own_qubits: &[usize], target_qubits: &[usize]) -> GateMatrix<F> {
        assert_eq!(self.num_qubits(), own_qubits.len(), "qubit list does not match matrix size");
        self.expand_bits(position_mask(own_qubits, target_qubits), 1 << target_qubits.len())
    }

    /// `self` on the index bits `own` of a `dim × dim` matrix, the identity
    /// on the rest.
    fn expand_bits(&self, own: usize, dim: usize) -> GateMatrix<F> {
        let mut out = GateMatrix::zeros(dim);
        for_each_expanded(own, dim, |row, col, k| out.data[row * dim + col] = self.data[k]);
        out
    }

    /// Convert entries to another float precision.
    pub fn cast<G: Float>(&self) -> GateMatrix<G> {
        GateMatrix {
            dim: self.dim,
            data: self.data.iter().map(|z| Cplx::from_f64(z.re.to_f64(), z.im.to_f64())).collect(),
        }
    }
}

/// Visit as `(row, col, k)` each entry of a `dim × dim` expansion that
/// comes from its source, a matrix on the index bits `own`: `k` is the
/// row-major source index (the rest is zero), rows then columns ascending.
fn for_each_expanded(own: usize, dim: usize, mut visit: impl FnMut(usize, usize, usize)) {
    let own_dim = 1usize << own.count_ones();
    for row in 0..dim {
        // Bits of `row` outside the gate must match the column's.
        let ctx = row & !own;
        let k0 = pext(row, own) * own_dim;
        let mut off = 0;
        for c_own in 0..own_dim {
            visit(row, ctx | off, k0 + c_own);
            off = next_submask(off, own);
        }
    }
}

/// The index bits of a matrix on `target_qubits` that `own_qubits` take.
fn position_mask(own_qubits: &[usize], target_qubits: &[usize]) -> usize {
    debug_assert!(own_qubits.windows(2).all(|w| w[0] < w[1]), "own_qubits must be sorted");
    debug_assert!(target_qubits.windows(2).all(|w| w[0] < w[1]), "target_qubits must be sorted");
    own_qubits.iter().fold(0, |mask, q| {
        mask | 1 << target_qubits.binary_search(q).expect("own_qubits ⊆ target_qubits")
    })
}

/// [`extract_bits`] with the positions as a mask: the bits of `x` under
/// `mask`, packed from bit 0 up.
#[inline(always)]
fn pext(x: usize, mask: usize) -> usize {
    if mask & mask.wrapping_add(1) == 0 {
        return x & mask; // the low bits: nothing moves
    }
    let (mut out, mut rest, mut j) = (0, mask, 0);
    while rest != 0 {
        let bit = rest & rest.wrapping_neg();
        out |= usize::from(x & bit != 0) << j;
        rest ^= bit;
        j += 1;
    }
    out
}

/// The submask of `mask` after `x` in ascending order, `0` after the last:
/// `pdep(c + 1, mask)` from `pdep(c, mask)`.
#[inline(always)]
fn next_submask(x: usize, mask: usize) -> usize {
    (x | !mask).wrapping_add(1) & mask
}

/// The loop of [`GateMatrix::gram_rows_minus_identity`]: `a` is the
/// matrix's row-major entries, `t_re`/`t_im` the planes of its adjoint,
/// `out_re`/`out_im` room for four rows.
struct GramRows<'a, F, V> {
    a: &'a [Cplx<F>],
    d: usize,
    t_re: &'a [F],
    t_im: &'a [F],
    out_re: &'a mut [F],
    out_im: &'a mut [F],
    visit: V,
}

impl<F: Float, V: FnMut(&[F], &[F]) -> bool> Tiered for GramRows<'_, F, V> {
    type Output = bool;

    #[inline(always)]
    fn run(self) -> bool {
        match self.d {
            1 => self.blocks::<1, 1>(),
            2 => self.blocks::<2, 2>(),
            4 => self.blocks::<4, 4>(),
            _ => self.blocks::<4, 8>(),
        }
    }
}

impl<F: Float, V: FnMut(&[F], &[F]) -> bool> GramRows<'_, F, V> {
    /// Rows in blocks of `R`, each formed in `R × C` register tiles from
    /// the tile holding its diagonal entry rightwards, then visited in
    /// order. Every accumulator starts at zero and adds its `l` terms
    /// ascending, as the dense product does.
    #[inline(always)]
    fn blocks<const R: usize, const C: usize>(mut self) -> bool {
        let d = self.d;
        for (i0, rows) in (0..d).step_by(R).zip(self.a.chunks_exact(R * d)) {
            for j0 in (i0 / C * C..d).step_by(C) {
                let mut acc_re = [[F::ZERO; C]; R];
                let mut acc_im = [[F::ZERO; C]; R];
                let planes = self.t_re.chunks_exact(d).zip(self.t_im.chunks_exact(d));
                for (l, (br, bi)) in planes.enumerate() {
                    let br: &[F; C] = br[j0..j0 + C].try_into().expect("tile inside the row");
                    let bi: &[F; C] = bi[j0..j0 + C].try_into().expect("tile inside the row");
                    for (r, (acc_re, acc_im)) in acc_re.iter_mut().zip(&mut acc_im).enumerate() {
                        let z = rows[r * d + l];
                        for c in 0..C {
                            acc_re[c] += z.re * br[c] - z.im * bi[c];
                            acc_im[c] += z.re * bi[c] + z.im * br[c];
                        }
                    }
                }
                for r in 0..R {
                    self.out_re[r * d + j0..][..C].copy_from_slice(&acc_re[r]);
                    self.out_im[r * d + j0..][..C].copy_from_slice(&acc_im[r]);
                }
            }
            for r in 0..R {
                let upper = r * d + i0 + r..(r + 1) * d;
                self.out_re[upper.start] -= F::ONE;
                if !(self.visit)(&self.out_re[upper.clone()], &self.out_im[upper]) {
                    return false;
                }
            }
        }
        true
    }
}

/// A `dim × dim` complex matrix as two row-major planes, real and
/// imaginary: the form fusion composes a product in. The planes may hold a
/// narrower matrix on some of the index bits, standing for its expansion
/// (the identity on the other bits, as [`GateMatrix::expand_to`] lays it
/// out) without forming it. A `set_*` call overwrites the whole matrix and
/// reuses the planes' allocation, so a pair of them can be swapped merge
/// after merge without allocating.
#[derive(Debug, Clone, Default)]
pub struct SplitMatrix<F> {
    dim: usize,
    /// The index bits the planes act on, all of `dim − 1` unless the
    /// matrix is an expansion.
    bits: usize,
    /// Both planes, from the 64-byte boundary at `at` on.
    buf: Vec<F>,
    at: usize,
}

impl<F: Float> SplitMatrix<F> {
    /// `m.expand_to(own_qubits, target_qubits)`; the planes hold `m` as it is.
    pub fn set_expanded(
        &mut self,
        m: &GateMatrix<F>,
        own_qubits: &[usize],
        target_qubits: &[usize],
    ) {
        assert_eq!(m.num_qubits(), own_qubits.len(), "qubit list does not match matrix size");
        self.reset(1 << target_qubits.len(), position_mask(own_qubits, target_qubits));
        let (re, im) = self.planes_mut();
        for ((re, im), z) in re.iter_mut().zip(im).zip(&m.data) {
            (*re, *im) = (z.re, z.im);
        }
    }

    /// The matrix, which acts on `own_qubits`, widened in place onto
    /// `target_qubits`: no entry is written or moved.
    pub fn widen(&mut self, own_qubits: &[usize], target_qubits: &[usize]) {
        assert_eq!(self.dim, 1 << own_qubits.len(), "qubit list does not match matrix size");
        let stored = own_qubits.iter().enumerate().filter(|&(j, _)| self.bits >> j & 1 == 1);
        self.bits = stored.fold(0, |bits, (_, q)| {
            bits | 1 << target_qubits.binary_search(q).expect("own_qubits ⊆ target_qubits")
        });
        self.dim = 1 << target_qubits.len();
    }

    /// `gate.expand_to(gate_qubits, target_qubits).matmul(rhs)`, bit for bit,
    /// without forming either expansion: each output row sums the rows of
    /// `rhs` its non-zero gate entries select, in the dense product's
    /// order and with [`Cplx::mul_add_assign`]'s expression, in register
    /// tiles of up to 16 columns on the widest tier the host allows.
    ///
    /// An `rhs` that is an expansion is read through it: a term reaches
    /// only the columns where its `rhs` row is not a structural zero, the
    /// `+0` of the identity's off-diagonal. Skipping the others moves no
    /// bit. With `a` finite, the skipped term `a.re·(+0) − a.im·(+0)` is
    /// `±0`; an accumulator that starts at `+0` is never `−0` (a sum is
    /// `−0` only when both addends are, and an exact cancellation rounds
    /// to `+0`), and adding `±0` to a value that is not `−0` returns it
    /// unchanged. A non-finite gate entry would have made those terms
    /// NaN; such a product stays non-finite either way (its own columns
    /// carry the `∞`/NaN) and has no unitarity certificate, so the
    /// pre-run check measures it and refuses it as before.
    pub fn set_product(
        &mut self,
        gate: &GateMatrix<F>,
        gate_qubits: &[usize],
        target_qubits: &[usize],
        rhs: &SplitMatrix<F>,
    ) {
        assert_eq!(gate.num_qubits(), gate_qubits.len(), "qubit list does not match matrix size");
        assert!(gate_qubits.len() <= MAX_GATE_QUBITS, "gate wider than {MAX_GATE_QUBITS} qubits");
        assert_eq!(rhs.dim, 1 << target_qubits.len(), "rhs does not act on target_qubits");
        self.reset(rhs.dim, rhs.dim - 1);
        let gate_bits = position_mask(gate_qubits, target_qubits);
        let (rhs_re, rhs_im) = rhs.planes();
        let (out_re, out_im) = self.planes_mut();
        simd::dispatch(Compose {
            gate,
            gate_bits,
            d: rhs.dim,
            rhs_bits: rhs.bits,
            rhs_re,
            rhs_im,
            out_re,
            out_im,
        });
    }

    /// The row-major interleaved matrix.
    pub fn to_matrix(&self) -> GateMatrix<F> {
        let (re, im) = self.planes();
        let data = re.iter().zip(im).map(|(&re, &im)| Cplx::new(re, im)).collect();
        let stored = GateMatrix { dim: self.stored_dim(), data };
        if stored.dim == self.dim {
            stored
        } else {
            stored.expand_bits(self.bits, self.dim)
        }
    }

    /// The dimension of the matrix the planes hold.
    fn stored_dim(&self) -> usize {
        1 << self.bits.count_ones()
    }

    fn planes(&self) -> (&[F], &[F]) {
        let d2 = self.stored_dim().pow(2);
        self.buf[self.at..][..2 * d2].split_at(d2)
    }

    fn planes_mut(&mut self) -> (&mut [F], &mut [F]) {
        let d2 = self.stored_dim().pow(2);
        self.buf[self.at..][..2 * d2].split_at_mut(d2)
    }

    /// Size the planes for a matrix on the index `bits` of `dim`, the real
    /// plane on a 64-byte boundary (so is the imaginary one from a stored
    /// dimension of 4 on): a tile load that straddles two cache lines
    /// costs two. Entries are left as they were.
    fn reset(&mut self, dim: usize, bits: usize) {
        (self.dim, self.bits) = (dim, bits);
        let (buf, at) = aligned(std::mem::take(&mut self.buf), 2 * self.stored_dim().pow(2));
        (self.buf, self.at) = (buf, at);
    }
}

/// `buf` grown to hold `len` scalars from a 64-byte boundary on, and the
/// offset of that boundary. A larger buffer keeps its capacity: the
/// caller that reuses one picks it by size.
fn aligned<F: Float>(mut buf: Vec<F>, len: usize) -> (Vec<F>, usize) {
    let want = len + 64 / std::mem::size_of::<F>();
    buf.reserve_exact(want.saturating_sub(buf.len()));
    buf.resize(want, F::ZERO);
    let pad = want - len;
    let at = buf.as_ptr().align_offset(64);
    (buf, if at < pad { at } else { 0 })
}

/// The loop of [`SplitMatrix::set_product`]: `gate_bits` are the index
/// bits the gate acts on, `rhs_bits` those the `rhs` planes do.
struct Compose<'a, F> {
    gate: &'a GateMatrix<F>,
    gate_bits: usize,
    d: usize,
    rhs_bits: usize,
    rhs_re: &'a [F],
    rhs_im: &'a [F],
    out_re: &'a mut [F],
    out_im: &'a mut [F],
}

impl<F: Float> Tiered for Compose<'_, F> {
    type Output = ();

    #[inline(always)]
    fn run(self) {
        // Source gates act on one or two qubits; only a controlled one
        // needs room for more terms. A full `rhs`, what most merges read,
        // takes the body with the expansion's bookkeeping compiled out.
        const WIDE: usize = 1 << MAX_GATE_QUBITS;
        match (self.gate.dim <= 4, self.rhs_bits == self.d - 1) {
            (true, true) => self.tiles::<4, false>(),
            (true, false) => self.tiles::<4, true>(),
            (false, true) => self.tiles::<WIDE, false>(),
            (false, false) => self.tiles::<WIDE, true>(),
        }
    }
}

impl<F: Float> Compose<'_, F> {
    #[inline(always)]
    fn tiles<const T: usize, const VIEW: bool>(self) {
        match 1usize << self.rhs_bits.count_ones() {
            1 => self.rows::<1, T, VIEW>(),
            2 => self.rows::<2, T, VIEW>(),
            4 => self.rows::<4, T, VIEW>(),
            8 => self.rows::<8, T, VIEW>(),
            _ => self.rows::<16, T, VIEW>(),
        }
    }

    /// Each output row: gather its non-zero gate entries (zeros are
    /// skipped, as the dense product skips them) with the `rhs` rows they
    /// select, then, for each group of columns that agree on the bits
    /// `rhs` is the identity on, accumulate tiles of `C` columns in
    /// registers over the terms of that group, ascending. A full `rhs`
    /// (`!VIEW`) is one group of consecutive columns.
    #[inline(always)]
    fn rows<const C: usize, const T: usize, const VIEW: bool>(self) {
        let (d, g, rhs_bits) = (self.d, self.gate.dim, self.rhs_bits);
        let (rhs_re, rhs_im) = (self.rhs_re, self.rhs_im);
        let rd = 1usize << rhs_bits.count_ones();
        let spread = if VIEW { (d - 1) & !rhs_bits } else { 0 };
        let consecutive = !VIEW || rhs_bits == rd - 1;
        // (group, offset of the `rhs` row, gate entry) per term.
        let mut terms = [(0usize, 0usize, Cplx::zero()); T];
        let rows = self.out_re.chunks_exact_mut(d).zip(self.out_im.chunks_exact_mut(d));
        for (row, (out_re, out_im)) in rows.enumerate() {
            let ctx = row & !self.gate_bits;
            let gate_row = &self.gate.as_slice()[pext(row, self.gate_bits) * g..][..g];
            let (mut n, mut off) = (0, 0);
            for &a in gate_row {
                if a.re != F::ZERO || a.im != F::ZERO {
                    let l = ctx | off;
                    let r = if VIEW { pext(l, rhs_bits) * rd } else { l * d };
                    terms[n] = (l & spread, r, a);
                    n += 1;
                }
                off = next_submask(off, self.gate_bits);
            }
            let mut group = 0;
            loop {
                let mut col = 0;
                for j0 in (0..rd).step_by(C) {
                    let mut acc_re = [F::ZERO; C];
                    let mut acc_im = [F::ZERO; C];
                    for &(at, r, a) in &terms[..n] {
                        if VIEW && at != group {
                            continue;
                        }
                        let br: &[F; C] =
                            rhs_re[r + j0..][..C].try_into().expect("tile inside the row");
                        let bi: &[F; C] =
                            rhs_im[r + j0..][..C].try_into().expect("tile inside the row");
                        for c in 0..C {
                            acc_re[c] += a.re * br[c] - a.im * bi[c];
                            acc_im[c] += a.re * bi[c] + a.im * br[c];
                        }
                    }
                    if consecutive {
                        out_re[group + j0..][..C].copy_from_slice(&acc_re);
                        out_im[group + j0..][..C].copy_from_slice(&acc_im);
                    } else {
                        for c in 0..C {
                            (out_re[group | col], out_im[group | col]) = (acc_re[c], acc_im[c]);
                            col = next_submask(col, rhs_bits);
                        }
                    }
                }
                group = next_submask(group, spread);
                if group == 0 {
                    break;
                }
            }
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

        /// The split-plane composition is the dense product of the two
        /// expansions, bit for bit, whether the gate sits inside the slot
        /// (no widening), overlaps it, or is disjoint from it; and the
        /// planes widen as `expand_to` does.
        #[test]
        fn split_product_matches_dense_product_bit_for_bit(
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
            let narrow = random_unitary(slot_qubits.len(), rng);
            let slot = narrow.expand_to(&slot_qubits, &union);
            let dense = gate.expand_to(&gate_qubits, &union).matmul(&slot);
            let (mut wide, mut product) = (SplitMatrix::default(), SplitMatrix::default());
            wide.set_expanded(&narrow, &slot_qubits, &slot_qubits);
            wide.widen(&slot_qubits, &union);
            prop_assert!(bits(&wide.to_matrix()) == bits(&slot));
            product.set_product(&gate, &gate_qubits, &union, &wide);
            prop_assert!(
                bits(&product.to_matrix()) == bits(&dense),
                "gate {gate_qubits:?} slot {slot_qubits:?} union {union:?}"
            );
            // Planes reused at another size keep no stale entries.
            wide.set_expanded(&gate, &gate_qubits, &union);
            prop_assert!(bits(&wide.to_matrix()) == bits(&gate.expand_to(&gate_qubits, &union)));
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
