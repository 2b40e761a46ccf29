//! Unitarity certificates: what [`crate::build`] knows about each product
//! it composes. A certificate is an upper bound on the spectral norm
//! `‖M·M† − I‖₂`. The bound is derived beside `f32_deviation_bound` in
//! `qsim-analyze`'s `rules.rs`, where `PlanUnitarity` reads it.

use qsim_core::matrix::GateMatrix;
use qsim_core::types::Cplx;

/// Higham's `γₙ = nu/(1 − nu)` for the `f64` unit roundoff `u = 2⁻⁵³`.
#[inline(always)]
fn gamma(n: usize) -> f64 {
    let nu = n as f64 * (f64::EPSILON / 2.0);
    nu / (1.0 - nu)
}

/// How far an entry of `M·M† − I` formed in `f64` may lie from the exact
/// one, either way, for a `dim × dim` matrix `M` whose entries of
/// `M·M† − I` are within `dev`: the complex dot's `√2·γ_{dim+2}`, the
/// `− 1` and the `abs`, times a row norm² `ρ ≤ 1 + dev`, with room to
/// spare when `dev` is itself a formed figure.
#[inline]
pub fn gram_rounding(dim: usize, dev: f64) -> f64 {
    2.0 * gamma(dim + 4) * (1.0 + dev)
}

/// A source gate's certificate: `‖g·g† − I‖_F` as formed, plus what its
/// rounding may hide; `None` when that is not finite. Source gates act on
/// one or two qubits, so this is at most ten complex dots of four terms.
pub(crate) fn of_source(g: &GateMatrix<f64>) -> Option<f64> {
    // Constant dimensions unroll the loops and fold the `γ`s of the two
    // that occur.
    match g.dim() {
        2 => source_bound(g.as_slice(), 2),
        4 => source_bound(g.as_slice(), 4),
        d => source_bound(g.as_slice(), d),
    }
}

#[inline(always)]
fn source_bound(a: &[Cplx<f64>], d: usize) -> Option<f64> {
    let mut sum = 0.0;
    for (i, row) in a.chunks_exact(d).enumerate() {
        for (j, other) in a.chunks_exact(d).enumerate().skip(i) {
            let mut e = Cplx::zero();
            for (&x, &y) in row.iter().zip(other) {
                e.mul_add_assign(x, y.conj());
            }
            if i == j {
                e.re -= 1.0;
                sum += e.norm_sqr();
            } else {
                sum += 2.0 * e.norm_sqr();
            }
        }
    }
    let frobenius = sum.sqrt();
    let bound = frobenius * (1.0 + gamma(2 * d * d + 8)) + d as f64 * gram_rounding(d, frobenius);
    bound.is_finite().then_some(bound)
}

/// The certificate of `fl(G·P)`: `G` a gate of `gate_dim` columns whose
/// certificate is `gate`, expanded onto `dim`; `P` the product so far,
/// certified by `product`.
pub(crate) fn of_product(gate: f64, product: f64, gate_dim: usize, dim: usize) -> f64 {
    // ‖G‖²·‖P‖² and ‖fl(GP) − GP‖₂ / (‖G‖·‖P‖).
    let scale = (1.0 + gate) * (1.0 + product);
    let eta = ((2 * gate_dim * dim) as f64).sqrt() * gamma(gate_dim + 2);
    gate + (1.0 + gate) * product + scale * eta * (2.0 + eta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;
    use qsim_circuit::circuit::Circuit;
    use qsim_circuit::gates::GateKind;
    use qsim_circuit::library;
    use qsim_core::matrix::SplitMatrix;

    /// `circuit` with a control added to every third gate, on a qubit the
    /// gate does not act on.
    fn with_controls(mut circuit: Circuit) -> Circuit {
        let n = circuit.num_qubits;
        for (i, op) in circuit.ops.iter_mut().enumerate().step_by(3) {
            let control = (i..i + n).map(|q| q % n).find(|q| !op.qubits.contains(q));
            op.controls = control.into_iter().collect();
        }
        circuit
    }

    /// `m` with `eps·(1 − i)` added to a random entry.
    fn perturbed(m: &GateMatrix<f64>, eps: f64, rng: &mut TestRng) -> GateMatrix<f64> {
        let mut m = m.clone();
        let d = m.dim() as u64;
        let (r, c) = (rng.below(d) as usize, rng.below(d) as usize);
        m.set(r, c, m.get(r, c) + Cplx::new(eps, -eps));
        m
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `build` certifies every product of random gates, controlled
        /// ones among them, far inside the tolerance the pre-run check
        /// reads, and each product measures within its certificate.
        #[test]
        fn build_certifies_every_product_within_its_measured_deviation(
            seed in 0u64..u64::MAX,
            budget in 1usize..=6,
        ) {
            let circuit = with_controls(library::random_dense(7, 24 * budget, seed));
            for g in crate::fuse(&circuit, budget).unitaries() {
                let cert = g.certificate().unwrap_or(f64::NAN);
                prop_assert!(cert < 1e-11, "{}-qubit product certified {cert:e}", g.width());
                let d = g.matrix().dim();
                let measured = g.matrix().unitarity_deviation(f64::INFINITY).unwrap_or(f64::NAN);
                prop_assert!(
                    measured <= cert + gram_rounding(d, cert),
                    "{d}×{d} product measures {measured:e} against {cert:e}"
                );
            }
        }

        /// The merge bound holds for factors off unitary by up to 10⁻³:
        /// the product `set_product` forms from a perturbed gate and a
        /// perturbed product measures within the certificate `build`
        /// would give it, and a factor perturbed past the pre-run
        /// tolerance leaves the product's certificate past it too.
        #[test]
        fn merge_certificate_bounds_perturbed_factors(
            seed in 0u64..u64::MAX,
            width in 1usize..=5,
            gate_eps in 0.0f64..1e-3,
            product_eps in 0.0f64..1e-3,
        ) {
            let rng = &mut TestRng::from_seed(seed);
            let source = library::random_dense(width.max(2), 10 * width, seed);
            let fused = crate::fuse(&source, width);
            let widest = fused.unitaries().max_by_key(|g| g.width()).expect("a unitary");
            let p_qubits: Vec<usize> = (0..widest.width()).collect();
            let p = perturbed(widest.matrix(), product_eps, rng);
            let op = &source.ops[rng.below(source.ops.len() as u64) as usize];
            let (_, g) = op.sorted_matrix::<f64>().expect("a unitary gate");
            let g = perturbed(&g, gate_eps, rng);
            // The gate lands on the product's qubits or one past them.
            let mut g_qubits: Vec<usize> = Vec::new();
            while g_qubits.len() < op.qubits.len() {
                let q = rng.below(p_qubits.len() as u64 + 1) as usize;
                if !g_qubits.contains(&q) {
                    g_qubits.push(q);
                }
            }
            g_qubits.sort_unstable();
            let union = crate::union_sorted(&p_qubits, &g_qubits);
            let mut planes = SplitMatrix::default();
            planes.set_expanded(&p, &p_qubits, &union);
            let mut c = SplitMatrix::default();
            c.set_product(&g, &g_qubits, &union, &planes);

            let (g_cert, p_cert) = (of_source(&g), of_source(&p));
            prop_assert!(g_cert.is_some() && p_cert.is_some());
            let (g_cert, p_cert) = (g_cert.unwrap_or_default(), p_cert.unwrap_or_default());
            let d = 1 << union.len();
            let cert = of_product(g_cert, p_cert, g.dim(), d);
            let measured = c.to_matrix().unitarity_deviation(f64::INFINITY).unwrap_or(f64::NAN);
            prop_assert!(
                measured <= cert + gram_rounding(d, cert),
                "{d}×{d} product measures {measured:e} against {cert:e}"
            );
            if gate_eps.max(product_eps) > 1e-7 {
                prop_assert!(cert > 5e-9, "a 1e-7 perturbation certified within {cert:e}");
            }
        }
    }

    /// A source gate with a non-finite entry gets no certificate, and
    /// neither does any product it joins; its neighbours keep theirs.
    #[test]
    fn a_non_finite_source_leaves_its_product_uncertified() {
        for angle in [f64::NAN, f64::INFINITY] {
            let rz = GateKind::Rz(angle).matrix::<f64>().expect("a matrix");
            assert_eq!(of_source(&rz), None);
            let mut c = Circuit::new(4);
            c.add(0, GateKind::H, &[0]);
            c.add(0, GateKind::H, &[2]);
            c.add(1, GateKind::Rz(angle), &[0]);
            c.add(1, GateKind::Cnot, &[2, 3]);
            c.add(2, GateKind::Cz, &[0, 1]);
            let fused = crate::fuse(&c, 2);
            let certs: Vec<_> =
                fused.unitaries().map(|g| (g.qubits.clone(), g.certificate())).collect();
            assert_eq!(certs.len(), 2, "{certs:?}");
            assert_eq!(certs[0], (vec![0, 1], None));
            assert!(certs[1].1.is_some_and(|cert| cert < 1e-13), "{certs:?}");
        }
        let mut broken = GateKind::H.matrix::<f64>().expect("a matrix");
        broken.set(0, 0, Cplx::new(3.0, 0.0));
        assert!(of_source(&broken).is_some_and(|cert| cert > 1.0));
    }
}
