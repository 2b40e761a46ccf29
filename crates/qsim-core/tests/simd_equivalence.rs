//! SIMD-vs-scalar equivalence: the vectorized tile kernels must agree
//! with the scalar reference (`apply_controlled_gate_seq`) to
//! floating-point roundoff for every gate shape — low/high/mixed targets,
//! controls on either side of the lane boundary, diagonal fast paths, and
//! the sweep's block-local application pattern.

use proptest::prelude::*;

use qsim_core::kernels::{apply_controlled_gate_seq, apply_gate_par, PreparedGate};
use qsim_core::simd::{detected_isa, Isa, SimdPlan};
use qsim_core::types::{Cplx, Float};
use qsim_core::GateMatrix;

/// Absolute-difference tolerance the ISSUE pins for each precision.
fn tol<F: Float>() -> f64 {
    match F::PRECISION {
        qsim_core::Precision::Single => 1e-6,
        qsim_core::Precision::Double => 1e-12,
    }
}

fn max_abs_diff<F: Float>(a: &[Cplx<F>], b: &[Cplx<F>]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let dr = (x.re.to_f64() - y.re.to_f64()).abs();
            let di = (x.im.to_f64() - y.im.to_f64()).abs();
            dr.max(di)
        })
        .fold(0.0, f64::max)
}

/// Deterministic splitmix-style generator so the fixed (non-proptest)
/// tests get varied but reproducible states and matrices.
struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 11) as f64) / (1u64 << 53) as f64 * 2.0 - 1.0
    }
}

fn random_state<F: Float>(n: usize, rng: &mut Rng) -> Vec<Cplx<F>> {
    (0..1usize << n).map(|_| Cplx::from_f64(rng.next_f64(), rng.next_f64())).collect()
}

fn random_matrix<F: Float>(k: usize, rng: &mut Rng) -> GateMatrix<F> {
    let dim = 1usize << k;
    // Scale entries like a unitary's (~1/sqrt(dim)) so row sums stay O(1)
    // and the f32 tolerance reflects realistic gate magnitudes.
    let s = 1.0 / (dim as f64).sqrt();
    let entries: Vec<Cplx<F>> =
        (0..dim * dim).map(|_| Cplx::from_f64(rng.next_f64() * s, rng.next_f64() * s)).collect();
    GateMatrix::from_slice(dim, &entries)
}

fn random_diagonal<F: Float>(k: usize, rng: &mut Rng) -> GateMatrix<F> {
    let dim = 1usize << k;
    let mut m = GateMatrix::zeros(dim);
    for i in 0..dim {
        m.set(i, i, Cplx::from_f64(rng.next_f64(), rng.next_f64()));
    }
    m
}

/// Every ISA tier this host can actually run, strongest first.
fn available_isas() -> Vec<Isa> {
    [Isa::Avx512, Isa::Avx2].into_iter().filter(|&i| i <= detected_isa()).collect()
}

/// Compare one gate application across: scalar reference, the prepared
/// gate's ladder under the active ISA (its diagonal and scalar rungs under
/// `QSIM_NO_SIMD=1`), every available hardware ISA (seq + par), and the
/// portable reference lanes.
fn check_gate<F: Float>(
    n: usize,
    qubits: &[usize],
    controls: &[usize],
    control_values: usize,
    matrix: &GateMatrix<F>,
    amps: &[Cplx<F>],
) {
    let mut reference = amps.to_vec();
    apply_controlled_gate_seq(&mut reference, qubits, controls, control_values, matrix);

    let gate = PreparedGate::new(n, qubits, controls, control_values, matrix);
    for parallel in [false, true] {
        let mut laddered = amps.to_vec();
        if parallel {
            gate.apply_par(&mut laddered);
        } else {
            gate.apply_seq(&mut laddered);
        }
        let d = max_abs_diff(&laddered, &reference);
        assert!(
            d <= tol::<F>(),
            "prepared gate (parallel: {parallel}) diverges by {d} (n={n}, qubits={qubits:?}, \
             controls={controls:?})"
        );
    }

    for isa in available_isas() {
        let Some(plan) = SimdPlan::new_with_isa(isa, n, qubits, controls, control_values, matrix)
        else {
            continue; // state too small to tile at this ISA's lane count
        };
        let mut seq = amps.to_vec();
        plan.apply_seq(&mut seq);
        let d = max_abs_diff(&seq, &reference);
        assert!(
            d <= tol::<F>(),
            "{isa:?} seq diverges by {d} (n={n}, qubits={qubits:?}, controls={controls:?})"
        );

        let mut par = amps.to_vec();
        plan.apply_par(&mut par);
        let d = max_abs_diff(&par, &reference);
        assert!(
            d <= tol::<F>(),
            "{isa:?} par diverges by {d} (n={n}, qubits={qubits:?}, controls={controls:?})"
        );
    }

    if let Some(plan) = SimdPlan::new_portable(n, qubits, controls, control_values, matrix) {
        let mut portable = amps.to_vec();
        plan.apply_seq(&mut portable);
        let d = max_abs_diff(&portable, &reference);
        assert!(
            d <= tol::<F>(),
            "portable lanes diverge by {d} (n={n}, qubits={qubits:?}, controls={controls:?})"
        );
    }
}

/// Derive `(qubits, controls, control_values)` from a seed: 1..=3 targets
/// and 0..=2 controls scattered over low and high positions, so
/// non-lane-aligned mixes and both control sides appear by construction.
fn gate_shape(n: usize, rng: &mut Rng) -> (Vec<usize>, Vec<usize>, usize) {
    let mut pick = |limit: usize| (rng.next_f64().abs() * limit as f64) as usize % limit;
    let k = 1 + pick(3);
    let num_controls = pick(3);
    let mut pool: Vec<usize> = (0..n).collect();
    // Fisher–Yates prefix: draw k + num_controls distinct positions.
    for i in 0..(k + num_controls).min(n) {
        let j = i + pick(n - i);
        pool.swap(i, j);
    }
    let mut qubits: Vec<usize> = pool[..k.min(n)].to_vec();
    qubits.sort_unstable();
    let controls: Vec<usize> = pool[k.min(n)..(k + num_controls).min(n)].to_vec();
    let cv = if controls.is_empty() { 0 } else { pick(1 << controls.len()) };
    (qubits, controls, cv)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_controlled_gates_match_scalar_f64(
        n in 6usize..=10,
        seed in 1u64..u64::MAX,
    ) {
        let mut rng = Rng(seed);
        let (qubits, controls, cv) = gate_shape(n, &mut rng);
        let amps = random_state::<f64>(n, &mut rng);
        let m = random_matrix::<f64>(qubits.len(), &mut rng);
        check_gate(n, &qubits, &controls, cv, &m, &amps);
    }

    #[test]
    fn random_controlled_gates_match_scalar_f32(
        n in 6usize..=10,
        seed in 1u64..u64::MAX,
    ) {
        let mut rng = Rng(seed);
        let (qubits, controls, cv) = gate_shape(n, &mut rng);
        let amps = random_state::<f32>(n, &mut rng);
        let m = random_matrix::<f32>(qubits.len(), &mut rng);
        check_gate(n, &qubits, &controls, cv, &m, &amps);
    }

    #[test]
    fn random_diagonal_gates_match_scalar(
        n in 6usize..=10,
        seed in 1u64..u64::MAX,
    ) {
        let mut rng = Rng(seed);
        let (qubits, _, _) = gate_shape(n, &mut rng);
        let amps64 = random_state::<f64>(n, &mut rng);
        let d64 = random_diagonal::<f64>(qubits.len(), &mut rng);
        check_gate(n, &qubits, &[], 0, &d64, &amps64);

        let amps32 = random_state::<f32>(n, &mut rng);
        let d32 = random_diagonal::<f32>(qubits.len(), &mut rng);
        check_gate(n, &qubits, &[], 0, &d32, &amps32);
    }

    /// The sweep applies a block-size plan to each aligned block; SIMD
    /// must agree with the scalar reference under that pattern too.
    #[test]
    fn sweep_block_local_application_matches(
        seed in 1u64..u64::MAX,
        block_qubits in 5usize..=7,
        num_targets in 1usize..=3,
    ) {
        let n = block_qubits + 2; // 4 blocks
        let mut rng = Rng(seed);
        let amps = random_state::<f64>(n, &mut rng);
        // Targets drawn from the low (block-local) positions 0..5.
        let mut pool: Vec<usize> = (0..5).collect();
        for i in 0..num_targets {
            let j = i + (rng.next_f64().abs() * (5 - i) as f64) as usize % (5 - i);
            pool.swap(i, j);
        }
        let mut qubits: Vec<usize> = pool[..num_targets].to_vec();
        qubits.sort_unstable();
        let m = random_matrix::<f64>(qubits.len(), &mut rng);

        let mut reference = amps.clone();
        for block in reference.chunks_mut(1 << block_qubits) {
            apply_controlled_gate_seq(block, &qubits, &[], 0, &m);
        }

        let gate = PreparedGate::new(block_qubits, &qubits, &[], 0, &m);
        let mut blocked = amps.clone();
        for block in blocked.chunks_mut(1 << block_qubits) {
            gate.apply_seq(block);
        }
        let d = max_abs_diff(&blocked, &reference);
        prop_assert!(d <= 1e-12, "prepared gate block-local diverges by {d}");

        for isa in available_isas() {
            if let Some(plan) = SimdPlan::new_with_isa(isa, block_qubits, &qubits, &[], 0, &m) {
                let mut blocked = amps.clone();
                for block in blocked.chunks_mut(1 << block_qubits) {
                    plan.apply_seq(block);
                }
                let d = max_abs_diff(&blocked, &reference);
                prop_assert!(d <= 1e-12, "{isa:?} block-local diverges by {d}");
            }
        }
        if let Some(plan) = SimdPlan::new_portable(block_qubits, &qubits, &[], 0, &m) {
            let mut blocked = amps.clone();
            for block in blocked.chunks_mut(1 << block_qubits) {
                plan.apply_seq(block);
            }
            let d = max_abs_diff(&blocked, &reference);
            prop_assert!(d <= 1e-12, "portable block-local diverges by {d}");
        }
    }
}

/// Deterministic sweep over every gate width 1..=6 and systematic qubit
/// placements (all-low, all-high, straddling the lane boundary).
#[test]
fn all_gate_widths_and_placements_match() {
    let n = 11;
    let mut rng = Rng(0x5EED_CAFE);
    for k in 1..=6usize {
        let placements: Vec<Vec<usize>> = vec![
            (0..k).collect(),                // all-low for every ISA
            (n - k..n).collect(),            // all-high
            (0..k).map(|j| j * 2).collect(), // straddling, stride 2
            (0..k).map(|j| j + 2).collect(), // shifted low
        ];
        for qubits in placements {
            let amps = random_state::<f64>(n, &mut rng);
            let m = random_matrix::<f64>(k, &mut rng);
            check_gate(n, &qubits, &[], 0, &m, &amps);
            let amps = random_state::<f32>(n, &mut rng);
            let m = random_matrix::<f32>(k, &mut rng);
            check_gate(n, &qubits, &[], 0, &m, &amps);
        }
    }
}

/// Controls on both sides of the lane boundary, including anti-controls.
#[test]
fn controls_across_lane_boundary_match() {
    let n = 10;
    let mut rng = Rng(0xC0FFEE);
    let cases: &[(&[usize], &[usize], usize)] = &[
        (&[5], &[0], 1),          // low control, high target
        (&[5], &[0], 0),          // low anti-control
        (&[0], &[5], 1),          // high control, low target
        (&[1, 6], &[0, 9], 0b01), // mixed controls, mixed values
        (&[2], &[0, 1], 0b11),    // two low controls
        (&[0, 1], &[2, 3], 0b10), // low targets, low controls
    ];
    for &(qubits, controls, cv) in cases {
        let amps = random_state::<f64>(n, &mut rng);
        let m = random_matrix::<f64>(qubits.len(), &mut rng);
        check_gate(n, qubits, controls, cv, &m, &amps);
        let amps = random_state::<f32>(n, &mut rng);
        let m = random_matrix::<f32>(qubits.len(), &mut rng);
        check_gate(n, qubits, controls, cv, &m, &amps);
    }
}

/// `apply_gate_par` (the backend entry point) agrees with the
/// scalar reference on a state large enough to take the SIMD+rayon path.
#[test]
fn par_entry_point_uses_simd_and_matches() {
    let n = 13;
    let mut rng = Rng(0xAB1E);
    for qubits in [&[0usize][..], &[1, 7], &[0, 3, 9]] {
        let amps = random_state::<f64>(n, &mut rng);
        let m = random_matrix::<f64>(qubits.len(), &mut rng);
        let mut reference = amps.clone();
        apply_controlled_gate_seq(&mut reference, qubits, &[], 0, &m);
        let mut par = amps.clone();
        apply_gate_par(&mut par, qubits, &m);
        let d = max_abs_diff(&par, &reference);
        assert!(d <= 1e-12, "par entry diverges by {d} on {qubits:?}");
    }
}

/// Tiny states (below one tile) must fall back to scalar, not crash.
#[test]
fn tiny_states_fall_back() {
    for n in 1..=4usize {
        let mut rng = Rng(7);
        let amps = random_state::<f32>(n, &mut rng);
        let m = random_matrix::<f32>(1, &mut rng);
        check_gate(n, &[0], &[], 0, &m, &amps);
    }
}
