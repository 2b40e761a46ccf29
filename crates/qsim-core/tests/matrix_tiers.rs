//! The planning path's two dense loops, the unitarity Gram pass
//! (`GateMatrix::gram_rows_minus_identity`) and the split-plane
//! composition (`SplitMatrix::set_product`), run on the SIMD tier
//! `qsim_core::simd::active_isa` picks. The tier must not move a bit:
//! every entry is the same sequence of IEEE operations at any vector
//! width. Here the dispatched tier, and AVX2 on a host that has it, are
//! held to the scalar body (what `set_isa_cap(Some(Isa::Scalar))`
//! selects) on random dense unitaries of widths 1–6 and on products of a
//! narrower gate into them.
//!
//! The test sets the process-wide ISA cap, so it is the only test in this
//! binary.

use proptest::prelude::*;
use proptest::TestRng;
use qsim_core::matrix::{GateMatrix, SplitMatrix};
use qsim_core::simd::{detected_isa, set_isa_cap, Isa};
use qsim_core::types::{Cplx, Float};

/// Two layers of random single-qubit unitaries and `cz` links: dense
/// entries in some columns, exact zeros in others.
fn random_unitary(k: usize, rng: &mut TestRng) -> GateMatrix<f64> {
    let all: Vec<usize> = (0..k).collect();
    let mut u = GateMatrix::identity(1 << k);
    for _ in 0..2 {
        for q in 0..k {
            let mut angle = || rng.unit_f64() * std::f64::consts::TAU;
            let (t, p, l) = (angle(), angle(), angle());
            let (c, s) = ((t / 2.0).cos(), (t / 2.0).sin());
            let g = GateMatrix::from_f64_pairs(
                2,
                &[
                    (c, 0.0),
                    (-l.cos() * s, -l.sin() * s),
                    (p.cos() * s, p.sin() * s),
                    ((p + l).cos() * c, (p + l).sin() * c),
                ],
            );
            u = g.expand_to(&[q], &all).matmul(&u);
        }
        for q in 1..k {
            if rng.below(2) == 0 {
                let mut cz = GateMatrix::identity(4);
                cz.set(3, 3, Cplx::new(-1.0, 0.0));
                u = cz.expand_to(&[q - 1, q], &all).matmul(&u);
            }
        }
    }
    u
}

fn gram_bits<F: Float>(m: &GateMatrix<F>) -> Vec<(u64, u64)> {
    let mut bits = Vec::new();
    m.gram_rows_minus_identity(|re, im| {
        bits.extend(
            re.iter().zip(im).map(|(re, im)| (re.to_f64().to_bits(), im.to_f64().to_bits())),
        );
        true
    });
    bits
}

fn split_bits(m: &SplitMatrix<f64>) -> Vec<(u64, u64)> {
    m.to_matrix().as_slice().iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn matrix_tiers_match_the_scalar_body_bit_for_bit(
        seed in 0u64..u64::MAX,
        width in 1usize..=6,
    ) {
        let rng = &mut TestRng::from_seed(seed);
        let u = random_unitary(width, rng);
        let mut off = u.clone();
        let (r, c) = (rng.below(u.dim() as u64) as usize, rng.below(u.dim() as u64) as usize);
        off.set(r, c, off.get(r, c) + Cplx::new(1e-3, -1e-3));
        let all: Vec<usize> = (0..width).collect();
        let mut gate_qubits: Vec<usize> =
            all.iter().copied().filter(|_| rng.below(2) == 0).collect();
        if gate_qubits.is_empty() {
            gate_qubits.push(rng.below(width as u64) as usize);
        }
        let gate = random_unitary(gate_qubits.len(), rng);
        let mut slot = SplitMatrix::default();
        slot.set_expanded(&u, &all, &all);

        let outcome = |cap: Option<Isa>| {
            set_isa_cap(cap);
            let mut product = SplitMatrix::default();
            product.set_product(&gate, &gate_qubits, &all, &slot);
            (gram_bits(&u), gram_bits(&off), gram_bits(&u.cast::<f32>()), split_bits(&product))
        };
        let scalar = outcome(Some(Isa::Scalar));
        let dispatched = outcome(None);
        let avx2 = (detected_isa() >= Isa::Avx2).then(|| outcome(Some(Isa::Avx2)));
        set_isa_cap(None);
        prop_assert!(dispatched == scalar, "dispatched tier, gate on {gate_qubits:?}");
        prop_assert!(avx2.is_none_or(|avx2| avx2 == scalar), "avx2 tier, gate on {gate_qubits:?}");
    }
}
