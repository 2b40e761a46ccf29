//! Property-based tests on the gate-fusion transpiler: for *any* circuit
//! and *any* fusion setting, the fused circuit applies exactly the same
//! unitary as the gate-by-gate reference.

use proptest::prelude::*;

use qsim_rs::circuit::library::random_dense;
use qsim_rs::prelude::*;
use qsim_rs::sim::kernels::apply_gate_seq;

/// Gate-by-gate reference execution (no fusion, sequential kernel).
fn reference_state(circuit: &Circuit) -> StateVector<f64> {
    let mut state = StateVector::new(circuit.num_qubits);
    for op in &circuit.ops {
        if op.is_measurement() {
            continue;
        }
        let (qs, m) = op.sorted_matrix::<f64>().expect("unitary");
        apply_gate_seq(&mut state, &qs, &m);
    }
    state
}

/// Fused execution through the sequential kernel.
fn fused_state(circuit: &Circuit, max_f: usize) -> StateVector<f64> {
    let fused = fuse(circuit, max_f);
    let mut state = StateVector::new(circuit.num_qubits);
    for g in fused.unitaries() {
        apply_gate_seq(&mut state, &g.qubits, g.matrix());
    }
    state
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fused_equals_unfused(
        n in 2usize..8,
        gates in 1usize..60,
        seed in 0u64..10_000,
        max_f in 1usize..=6,
    ) {
        let circuit = random_dense(n, gates, seed);
        let reference = reference_state(&circuit);
        let fused = fused_state(&circuit, max_f);
        let diff = reference.max_abs_diff(&fused);
        prop_assert!(diff < 1e-11, "diff {diff} (n={n}, gates={gates}, f={max_f})");
    }

    #[test]
    fn fused_gates_are_unitary_and_within_bounds(
        n in 2usize..8,
        gates in 1usize..60,
        seed in 0u64..10_000,
        max_f in 1usize..=6,
    ) {
        let circuit = random_dense(n, gates, seed);
        let fused = fuse(&circuit, max_f);
        for g in fused.unitaries() {
            prop_assert!(g.matrix().is_unitary(1e-9));
            prop_assert!(g.qubits.len() <= max_f.max(2));
            prop_assert!(g.qubits.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(g.qubits.iter().all(|&q| q < n));
            prop_assert!(g.source_gates >= 1);
            prop_assert!(g.time_range.0 <= g.time_range.1);
        }
    }

    #[test]
    fn fusion_conserves_gate_count(
        n in 2usize..8,
        gates in 1usize..60,
        seed in 0u64..10_000,
        max_f in 1usize..=6,
    ) {
        let circuit = random_dense(n, gates, seed);
        let stats = fuse(&circuit, max_f).stats();
        prop_assert_eq!(stats.source_gates, gates);
        prop_assert!(stats.fused_gates <= gates);
    }

    #[test]
    fn higher_fusion_never_increases_pass_count(
        n in 3usize..8,
        gates in 5usize..60,
        seed in 0u64..10_000,
    ) {
        let circuit = random_dense(n, gates, seed);
        let counts: Vec<usize> = (1..=6).map(|f| fuse(&circuit, f).num_unitaries()).collect();
        for w in counts.windows(2) {
            prop_assert!(w[1] <= w[0], "pass counts {counts:?}");
        }
    }

    #[test]
    fn circuit_then_inverse_is_identity(
        n in 2usize..7,
        gates in 1usize..40,
        seed in 0u64..10_000,
    ) {
        // Run the circuit, then its adjoint in reverse, through the fuser.
        let circuit = random_dense(n, gates, seed);
        let fused = fuse(&circuit, 4);
        let mut state = StateVector::<f64>::new(n);
        for g in fused.unitaries() {
            apply_gate_seq(&mut state, &g.qubits, g.matrix());
        }
        let gs: Vec<_> = fused.unitaries().collect();
        for g in gs.into_iter().rev() {
            apply_gate_seq(&mut state, &g.qubits, &g.matrix().adjoint());
        }
        prop_assert!((state.amplitude(0).re - 1.0).abs() < 1e-10);
        let tail: f64 = state.amplitudes()[1..].iter().map(|a| a.norm_sqr()).sum();
        prop_assert!(tail < 1e-10, "residual weight {tail}");
    }

    #[test]
    fn norm_preserved_through_fusion_and_backends(
        n in 2usize..7,
        gates in 1usize..40,
        seed in 0u64..10_000,
        max_f in 1usize..=5,
    ) {
        let circuit = random_dense(n, gates, seed);
        let state = fused_state(&circuit, max_f);
        let norm = statespace::norm_sqr(&state);
        prop_assert!((norm - 1.0).abs() < 1e-10, "norm {norm}");
    }

    #[test]
    fn sweep_executor_equals_per_gate_across_block_sizes(
        n in 2usize..9,
        gates in 1usize..60,
        seed in 0u64..10_000,
        max_f in 1usize..=6,
        // Blocks from 2 amplitudes (every gate on qubits ≥ 1 is a sweep
        // barrier) up to 2^10 (≥ the full state for every n here, so the
        // whole circuit is one block-local run).
        block_pow in 1usize..=10,
    ) {
        use qsim_rs::sim::sweep::{SweepConfig, SweepExecutor};

        let circuit = random_dense(n, gates, seed);
        let fused = fuse(&circuit, max_f);
        let reference = fused_state(&circuit, max_f);

        let plain: Vec<(Vec<usize>, qsim_rs::sim::GateMatrix<f64>)> =
            fused.unitaries().map(|g| (g.qubits.clone(), g.matrix().clone())).collect();
        let exec = SweepExecutor::new(SweepConfig::with_block_amps(1 << block_pow));
        let mut state = StateVector::<f64>::new(n);
        let stats = exec.execute(state.amplitudes_mut(), &plain);

        let diff = reference.max_abs_diff(&state);
        prop_assert!(
            diff < 1e-12,
            "diff {diff} (n={n}, gates={gates}, f={max_f}, block=2^{block_pow})"
        );
        // The accounting invariants hold for every configuration…
        prop_assert_eq!(stats.gates as usize, fused.num_unitaries());
        prop_assert_eq!(stats.full_passes, stats.runs + stats.barrier_gates);
        prop_assert_eq!(stats.block_local_gates + stats.barrier_gates, stats.gates);
        // …and the two accounting paths agree gate for gate.
        prop_assert_eq!(stats, fused.sweep_stats(&SweepConfig::with_block_amps(1 << block_pow)));
        // A block at least as large as the state makes the whole circuit
        // one run (no measurements in random_dense circuits).
        if (1 << block_pow) >= (1 << n) && stats.gates > 0 {
            prop_assert_eq!(stats.full_passes, 1);
            prop_assert_eq!(stats.barrier_gates, 0);
        }
    }
}
