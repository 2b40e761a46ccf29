//! Property tests for batched multi-state execution: `run_batch` over N
//! random circuits must be **bit-for-bit** equal to N sequential
//! `run_with` calls — same final amplitudes, same measurement records,
//! same samples — in both precisions, and cancelling one sub-job mid-batch
//! must leave every other sub-job's result untouched. `run_with` is itself
//! a gang of one through the same walker, so a third case checks gang
//! members against an oracle that shares no code with it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qsim_backends::batch_run::BatchJob;
use qsim_backends::{BackendError, CancelToken, Flavor, RunContext, RunOptions, SimBackend};
use qsim_circuit::circuit::Circuit;
use qsim_circuit::gates::GateKind;
use qsim_core::kernels::apply_gate_seq;
use qsim_core::types::Float;
use qsim_core::{statespace, StateVector};
use qsim_fusion::{fuse, FusedCircuit, FusedOp};

/// A random circuit mixing one-qubit gates, two-qubit gates, and
/// mid-circuit measurements (measurements exercise the per-sub RNG split).
fn random_circuit(n: usize, ops: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for t in 0..ops {
        let a: f64 = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        let b: f64 = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        let kind = match rng.gen_range(0..12) {
            0 => GateKind::H,
            1 => GateKind::T,
            2 => GateKind::X12,
            3 => GateKind::Y12,
            4 => GateKind::Rx(a),
            5 => GateKind::Ry(a),
            6 => GateKind::Rz(a),
            7 => GateKind::Cz,
            8 => GateKind::Cnot,
            9 => GateKind::ISwap,
            10 => GateKind::FSim(a, b),
            _ => GateKind::Measurement,
        };
        match kind.num_qubits() {
            1 => {
                c.add(t, kind, &[rng.gen_range(0..n)]);
            }
            _ => {
                let q0 = rng.gen_range(0..n);
                let mut q1 = rng.gen_range(0..n);
                while q1 == q0 {
                    q1 = rng.gen_range(0..n);
                }
                c.add(t, kind, &[q0, q1]);
            }
        }
    }
    c
}

/// Assert a batch over `plans` matches per-plan sequential `run_with`
/// exactly (amplitudes via `to_bits`, measurements, samples).
fn assert_batch_matches_sequential<F: Float>(
    backend: &SimBackend,
    plans: &[FusedCircuit],
    seeds: &[u64],
    sample_count: usize,
) -> Result<(), TestCaseError> {
    let jobs: Vec<BatchJob<'_, F>> = plans
        .iter()
        .zip(seeds)
        .map(|(fused, &seed)| BatchJob {
            fused,
            opts: RunOptions { seed, sample_count },
            ctx: RunContext::default(),
        })
        .collect();
    let results = backend.run_batch::<F>(jobs);
    prop_assert_eq!(results.len(), plans.len());

    for (i, ((fused, &seed), result)) in plans.iter().zip(seeds).zip(&results).enumerate() {
        let opts = RunOptions { seed, sample_count };
        let (ref_state, ref_report) = backend
            .run_with::<F>(fused, &opts, RunContext::default())
            .map_err(|f| TestCaseError::fail(format!("sequential run failed: {}", f.error)))?;
        let (state, report) = match result {
            Ok(pair) => pair,
            Err(f) => return Err(TestCaseError::fail(format!("sub {i} failed: {}", f.error))),
        };
        for (k, (a, b)) in state.amplitudes().iter().zip(ref_state.amplitudes()).enumerate() {
            // `to_bits` on the f64 widening is still bit-exact: f32→f64
            // conversion is injective.
            let bits = |c: &qsim_core::Cplx<F>| (c.re.to_f64().to_bits(), c.im.to_f64().to_bits());
            prop_assert!(
                bits(a) == bits(b),
                "sub {} amplitude {} differs from sequential run_with",
                i,
                k
            );
        }
        prop_assert_eq!(&report.measurements, &ref_report.measurements);
        prop_assert_eq!(&report.samples, &ref_report.samples);
        prop_assert!(report.batch_id.is_some());
        prop_assert_eq!(report.batch_size, plans.len());
    }
    Ok(())
}

/// The walker-independent oracle: the plan's ops applied one by one
/// through the sequential reference kernel on a fresh state, measurements
/// collapsing under the member's own seed.
fn oracle(fused: &FusedCircuit, seed: u64) -> (StateVector<f64>, Vec<(Vec<usize>, usize)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = StateVector::<f64>::new(fused.num_qubits);
    let mut measurements = Vec::new();
    for op in &fused.ops {
        match op {
            FusedOp::Unitary(g) => apply_gate_seq(&mut state, &g.qubits, g.matrix()),
            FusedOp::Measurement { qubits, .. } => {
                let outcome = statespace::measure(&mut state, qubits, &mut rng);
                measurements.push((qubits.clone(), outcome));
            }
        }
    }
    (state, measurements)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every member of a gang of N matches the oracle: same measurement
    /// record for its seed, same final amplitudes up to kernel rounding
    /// (the oracle is scalar and per-gate; the walker sweeps SIMD blocks).
    #[test]
    fn gang_members_match_the_sequential_oracle(
        n in 3usize..=7,
        ops in 6usize..=24,
        circuit_seed in 0u64..300,
        gang in 2usize..=4,
        seed0 in 0u64..40,
    ) {
        let fused = fuse(&random_circuit(n, ops, circuit_seed), 3);
        for flavor in [Flavor::CpuAvx, Flavor::Hip] {
            let jobs: Vec<BatchJob<'_, f64>> = (0..gang as u64)
                .map(|i| BatchJob {
                    fused: &fused,
                    opts: RunOptions { seed: seed0 + 5 * i, sample_count: 0 },
                    ctx: RunContext::default(),
                })
                .collect();
            let results = SimBackend::new(flavor).run_batch::<f64>(jobs);
            for (i, result) in results.into_iter().enumerate() {
                let (state, report) = result
                    .map_err(|f| TestCaseError::fail(format!("sub {i} failed: {}", f.error)))?;
                let (want, measurements) = oracle(&fused, seed0 + 5 * i as u64);
                prop_assert_eq!(&report.measurements, &measurements);
                let diff = want.max_abs_diff(&state);
                prop_assert!(diff < 1e-12, "{:?} sub {} off the oracle by {}", flavor, i, diff);
            }
        }
    }

    /// run_batch ≡ N × run_with, bit for bit, in both precisions — over
    /// random circuits (some hash-equal within the batch, some distinct),
    /// seeds, and sample counts, on the CPU flavor (the one with the
    /// cache-blocked sweep) and a matrix-uploading GPU flavor.
    #[test]
    fn batch_is_bit_identical_to_sequential(
        n in 3usize..=7,
        ops in 6usize..=24,
        circuit_seed in 0u64..300,
        distinct in 1usize..=3,
        copies in 1usize..=3,
        seed0 in 0u64..40,
        sample_count in prop::sample::select(vec![0usize, 64]),
    ) {
        // `distinct` different circuits, each submitted `copies` times →
        // the batch contains hash-equal gangs *and* cross-gang grouping.
        let mut plans = Vec::new();
        for d in 0..distinct {
            let fused = fuse(&random_circuit(n, ops, circuit_seed + d as u64), 3);
            for _ in 0..copies {
                plans.push(fused.clone());
            }
        }
        let seeds: Vec<u64> = (0..plans.len() as u64).map(|i| seed0 + 3 * i).collect();

        for flavor in [Flavor::CpuAvx, Flavor::Hip] {
            let backend = SimBackend::new(flavor);
            assert_batch_matches_sequential::<f64>(&backend, &plans, &seeds, sample_count)?;
            assert_batch_matches_sequential::<f32>(&backend, &plans, &seeds, sample_count)?;
        }
    }

    /// Cancelling one sub-job mid-batch fails exactly that sub-job (its
    /// buffer rides back) and leaves every other sub-job's state bit-equal
    /// to a sequential run.
    #[test]
    fn mid_batch_cancel_leaves_others_bit_identical(
        n in 3usize..=6,
        ops in 6usize..=20,
        circuit_seed in 0u64..200,
        gang in 2usize..=4,
        victim_index in 0usize..4,
    ) {
        let victim = victim_index % gang;
        let fused = fuse(&random_circuit(n, ops, circuit_seed), 3);
        let cancel = CancelToken::new();
        cancel.cancel(); // fires at the first op boundary

        let jobs: Vec<BatchJob<'_, f64>> = (0..gang)
            .map(|i| BatchJob {
                fused: &fused,
                opts: RunOptions { seed: i as u64, sample_count: 0 },
                ctx: RunContext {
                    reuse_buffer: Some(qsim_core::AlignedAmps::try_zeroed(1 << n).unwrap()),
                    cancel: (i == victim).then(|| cancel.clone()),
                },
            })
            .collect();
        let backend = SimBackend::new(Flavor::CpuAvx);
        let mut results = backend.run_batch::<f64>(jobs);

        for (i, result) in results.drain(..).enumerate() {
            if i == victim {
                let failure = match result {
                    Err(f) => f,
                    Ok(_) => return Err(TestCaseError::fail("victim completed despite cancel")),
                };
                prop_assert!(
                    matches!(failure.error, BackendError::Cancelled { .. }),
                    "victim failed with {:?}",
                    failure.error
                );
                // The pooled buffer comes back for recycling.
                prop_assert_eq!(failure.buffer.map(|b| b.len()), Some(1 << n));
            } else {
                let opts = RunOptions { seed: i as u64, sample_count: 0 };
                let (ref_state, _) = backend
                    .run_with::<f64>(&fused, &opts, RunContext::default())
                    .map_err(|f| TestCaseError::fail(format!("sequential: {}", f.error)))?;
                let (state, report) = result
                    .map_err(|f| TestCaseError::fail(format!("sub {i} failed: {}", f.error)))?;
                for (a, b) in state.amplitudes().iter().zip(ref_state.amplitudes()) {
                    prop_assert_eq!((a.re.to_bits(), a.im.to_bits()), (b.re.to_bits(), b.im.to_bits()));
                }
                prop_assert!(report.buffer_reused);
            }
        }
    }
}
