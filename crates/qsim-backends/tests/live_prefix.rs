//! Differential test of live-prefix execution (DESIGN.md §5.1): the walker
//! applies every gate, measurement and sampling scan to
//! `amps[..1 << live]`, `live = max(floor, highest qubit touched + 1)`,
//! because a state born `|0…0⟩` is exact `+0` above that.
//!
//! **Oracle:** the same fused plan applied at full width, outside the
//! walker — [`SweepExecutor::execute`] over the whole state (block-local
//! runs through the sweep, barrier gates through `apply_gate_par`),
//! `statespace::measure` / `sample` on the whole state under the same
//! seeded RNG.
//!
//! **Equality** is IEEE `==` on every component. On finite values that is
//! bit-equality except for the sign of zero, which is the one thing allowed
//! to differ: a full-width pass multiplies the still-zero region and can
//! write `-0` there (`-0.7·(+0)`), where the prefix leaves the `+0`
//! acquisition wrote. The sign never reaches a non-zero amplitude.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use gpu_model::trace::{SpanKind, TraceSink, TraceSpan};
use qsim_backends::batch_run::BatchJob;
use qsim_backends::{BackendError, CancelToken, Flavor, RunContext, RunOptions, SimBackend};
use qsim_circuit::circuit::{Circuit, GateOp};
use qsim_circuit::gates::GateKind;
use qsim_core::kernels::PAR_GRAIN_AMPS;
use qsim_core::sweep::{SweepConfig, SweepExecutor};
use qsim_core::types::{Cplx, Float};
use qsim_core::{statespace, AlignedAmps, GateMatrix, StateVector};
use qsim_fusion::{fuse, FusedCircuit, FusedGate, FusedOp};

const PI: f64 = std::f64::consts::PI;

fn pick(rng: &mut StdRng, from: &[usize]) -> Option<usize> {
    (!from.is_empty()).then(|| from[rng.gen_range(0..from.len())])
}

/// `0..n` in a seeded Fisher–Yates order.
fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// A source circuit that touches qubits in `order`: each new qubit gets a
/// rotation, is entangled with an already-touched one, and two more random
/// gates land on the touched set before the next qubit joins.
fn touching(n: usize, order: &[usize], seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    let mut touched: Vec<usize> = Vec::new();
    for &q in order {
        c.push(GateKind::Ry(rng.gen_range(0.3..PI - 0.3)), &[q]);
        if let Some(p) = pick(&mut rng, &touched) {
            c.push(GateKind::FSim(rng.gen_range(0.2..1.4), rng.gen_range(0.2..1.4)), &[p, q]);
        }
        touched.push(q);
        for _ in 0..2 {
            let a = pick(&mut rng, &touched).expect("just pushed");
            match pick(&mut rng, &touched) {
                Some(b) if b != a => c.push(GateKind::Cz, &[a, b]),
                _ => c.push(GateKind::Rx(rng.gen_range(-PI..PI)), &[a]),
            };
        }
    }
    c
}

/// One source gate as a fused op of its own.
fn lone(kind: GateKind, qubits: &[usize]) -> FusedOp {
    let (qubits, matrix) =
        GateOp::new(0, kind, qubits.to_vec()).sorted_matrix::<f64>().expect("a unitary gate");
    FusedOp::Unitary(FusedGate::new(qubits, matrix, 1, (0, 0)))
}

/// How one backend under test is configured, and the floor its walker
/// derives from that: `max(sweep block, PAR_GRAIN_AMPS)` in qubits.
struct Config {
    name: &'static str,
    flavor: Flavor,
    /// What the oracle sweeps with: the backend's sweep on `cpu`, none on a
    /// GPU flavor (every gate a barrier).
    sweep: SweepConfig,
    floor: usize,
}

fn configs() -> [Config; 3] {
    let grain = PAR_GRAIN_AMPS.trailing_zeros() as usize;
    let default_block = SweepConfig::default().block_qubits(usize::MAX);
    [
        Config {
            name: "cpu",
            flavor: Flavor::CpuAvx,
            sweep: SweepConfig::default(),
            floor: default_block.max(grain),
        },
        // A 2^8 block is below the parallel grain: the floor is the grain.
        Config {
            name: "cpu -B 256",
            flavor: Flavor::CpuAvx,
            sweep: SweepConfig::with_block_amps(256),
            floor: grain,
        },
        Config {
            name: "hip",
            flavor: Flavor::Hip,
            sweep: SweepConfig::disabled(),
            floor: default_block.max(grain),
        },
    ]
}

impl Config {
    fn backend(&self) -> SimBackend {
        let mut backend = SimBackend::new(self.flavor);
        if self.flavor == Flavor::CpuAvx {
            backend.set_sweep_config(self.sweep);
        }
        backend
    }
}

/// What a run leaves behind.
struct Outcome<F: Float> {
    amps: AlignedAmps<F>,
    measurements: Vec<(Vec<usize>, usize)>,
    samples: Vec<u64>,
}

/// The oracle: `fused` at full width, outside the walker.
fn full_width<F: Float>(fused: &FusedCircuit, sweep: SweepConfig, opts: &RunOptions) -> Outcome<F> {
    let exec = SweepExecutor::new(sweep);
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut state = StateVector::<F>::new(fused.num_qubits);
    let mut measurements = Vec::new();
    let mut segment: Vec<(Vec<usize>, GateMatrix<F>)> = Vec::new();
    for op in &fused.ops {
        match op {
            FusedOp::Unitary(g) => segment.push((g.qubits.clone(), g.matrix_as::<F>())),
            FusedOp::Measurement { qubits, .. } => {
                exec.execute(state.amplitudes_mut(), &segment);
                segment.clear();
                let outcome = statespace::measure(state.amplitudes_mut(), qubits, &mut rng);
                measurements.push((qubits.clone(), outcome));
            }
        }
    }
    exec.execute(state.amplitudes_mut(), &segment);
    let samples = statespace::sample(&state, opts.sample_count, &mut rng);
    Outcome { amps: state.into_amplitudes(), measurements, samples }
}

/// The walker's `amp_updates`, recomputed from the plan and the floor.
fn expected_updates(fused: &FusedCircuit, floor: usize) -> u64 {
    let mut live = floor.min(fused.num_qubits);
    let mut updates = 0u64;
    for op in &fused.ops {
        match op {
            FusedOp::Unitary(g) => {
                live = live.max(g.max_qubit() + 1);
                updates += 1 << live;
            }
            FusedOp::Measurement { qubits, .. } => {
                live = live.max(qubits.iter().max().map_or(0, |q| q + 1));
            }
        }
    }
    updates
}

fn assert_same_amps<F: Float>(got: &[Cplx<F>], want: &[Cplx<F>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        // `==`, not `to_bits`: see the module doc on `±0`.
        assert!(a.re == b.re && a.im == b.im, "{what}: amplitude {i} is {a:?}, oracle {b:?}");
    }
}

/// Run `fused` through the walker under every config and compare with the
/// oracle; returns the `cpu` report's `amp_updates`.
fn check<F: Float>(what: &str, fused: &FusedCircuit) -> u64 {
    let opts = RunOptions { seed: 77, sample_count: 300 };
    let mut cpu_updates = 0;
    for config in configs() {
        let what = format!("{what} / {} / {:?}", config.name, F::PRECISION);
        let (state, report) =
            config.backend().run::<F>(fused, &opts).unwrap_or_else(|e| panic!("{what}: {e}"));
        let want = full_width::<F>(fused, config.sweep, &opts);
        assert_same_amps(state.amplitudes(), &want.amps, &what);
        assert_eq!(report.measurements, want.measurements, "{what}");
        assert_eq!(report.samples, want.samples, "{what}");
        assert_eq!(report.amp_updates, expected_updates(fused, config.floor), "{what}");
        if config.name == "cpu" {
            cpu_updates = report.amp_updates;
        }
    }
    cpu_updates
}

fn check_both(what: &str, fused: &FusedCircuit) -> u64 {
    let updates = check::<f32>(what, fused);
    assert_eq!(check::<f64>(what, fused), updates, "{what}: amp_updates is precision-blind");
    updates
}

fn full_updates(fused: &FusedCircuit) -> u64 {
    (fused.num_unitaries() as u64) << fused.num_qubits
}

#[test]
fn ascending_touch_order_grows_the_prefix_gate_by_gate() {
    let n = 18;
    let order: Vec<usize> = (0..n).collect();
    let fused = fuse(&touching(n, &order, 1), 3);
    assert!(check_both("ascending", &fused) < full_updates(&fused));
}

#[test]
fn first_gate_on_the_top_qubit_is_full_width_from_op_zero() {
    // Descending order: the first fused gate holds the top qubit.
    let n = 17;
    let order: Vec<usize> = (0..n).rev().collect();
    let fused = fuse(&touching(n, &order, 2), 2);
    let first = fused.unitaries().next().expect("the plan has gates");
    assert_eq!(first.max_qubit(), n - 1);
    assert_eq!(check_both("descending", &fused), full_updates(&fused));
}

#[test]
fn shuffled_touch_order_at_twenty_qubits() {
    let n = 20;
    let mut order = shuffled(n, 3);
    // Keep the top qubit out of the first half so the prefix does grow.
    let top = order.iter().position(|&q| q == n - 1).expect("top is in the order");
    order.swap(top, n - 2);
    let fused = fuse(&touching(n, &order, 3), 4);
    assert!(check::<f32>("shuffled", &fused) < full_updates(&fused));
}

#[test]
fn states_at_or_below_the_floor_run_at_full_width() {
    // Every `serve-*` shape: the prefix is the state from the start under
    // the default block (under `-B 256` the floor is 2^12 < 2^16).
    for (n, f) in [(16, 3), (13, 4), (9, 2)] {
        let fused = fuse(&touching(n, &shuffled(n, n as u64), 4), f);
        assert_eq!(check_both("at the floor", &fused), full_updates(&fused), "{n} qubits");
    }
}

#[test]
fn control_on_the_new_top_qubit_and_a_lone_diagonal_widen_the_prefix() {
    let n = 19;
    let low: Vec<usize> = (0..12).collect();
    let mut ops = fuse(&touching(n, &low, 5), 3).ops;
    // A CNOT whose control is the (still |0⟩) new top qubit: the gate does
    // nothing to the state but must widen the prefix over its control.
    ops.push(lone(GateKind::Cnot, &[17, 3]));
    // Lone diagonal gates on untouched and touched qubits while qubit 18
    // is not live. cos(2.0) < 0 < sin(2.0): at full width this Rz writes
    // `-0` into the zero region, the prefix never visits it.
    ops.push(lone(GateKind::Rz(4.0), &[16]));
    ops.push(lone(GateKind::T, &[18]));
    ops.push(lone(GateKind::CPhase(1.1), &[2, 15]));
    // Now populate what was widened over.
    let late: Vec<usize> = (12..n).rev().collect();
    ops.extend(fuse(&touching(n, &late, 6), 2).ops);
    ops.push(lone(GateKind::FSim(0.7, 0.4), &[5, 18]));
    let fused = FusedCircuit { num_qubits: n, ops, max_fused_qubits: 3 };
    assert!(check_both("control + diagonal", &fused) < full_updates(&fused));
}

#[test]
fn mid_circuit_measurement_does_not_widen_the_support() {
    let n = 18;
    let mut c = touching(n, &(0..14).collect::<Vec<_>>(), 7);
    c.push(GateKind::Measurement, &[2, 11]);
    let after = touching(n, &[3, 14, 15], 8);
    for op in &after.ops {
        c.push(op.kind, &op.qubits);
    }
    c.push(GateKind::Measurement, &[0, 15]);
    let tail = touching(n, &[16, 1], 9);
    for op in &tail.ops {
        c.push(op.kind, &op.qubits);
    }
    let mut fused = fuse(&c, 3);
    assert_eq!(fused.ops.iter().filter(|op| matches!(op, FusedOp::Measurement { .. })).count(), 2);
    // Qubit 17 is never touched: the top half of the state stays zero to
    // the end — `+0` under the walker, but this last Rz (cos 2 < 0) turns
    // it into `-0` at full width. `==` is what holds, not `to_bits`.
    fused.ops.push(lone(GateKind::Rz(4.0), &[2]));
    assert!(check_both("measurement", &fused) < full_updates(&fused) / 2);
}

/// Cancels its token when the `after`-th kernel span is recorded: a
/// deterministic mid-walk cancellation (the walker polls between ops).
struct CancelAfter {
    token: CancelToken,
    after: usize,
    seen: AtomicUsize,
}

impl TraceSink for CancelAfter {
    fn record(&self, span: TraceSpan) {
        if span.kind == SpanKind::Kernel
            && self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.after
        {
            self.token.cancel();
        }
    }
}

#[test]
fn gang_with_a_dirty_recycled_buffer_and_a_mid_run_cancel() {
    // The top two qubits are never touched, so whatever a recycled buffer
    // held above the prefix can only have been cleared by acquisition.
    let n = 18;
    let fused = fuse(&touching(n, &(0..n - 2).collect::<Vec<_>>(), 10), 3);
    let token = CancelToken::new();
    let sink = Arc::new(CancelAfter { token: token.clone(), after: 6, seen: AtomicUsize::new(0) });
    let backend = SimBackend::with_trace(Flavor::CpuAvx, sink);

    let opts = |seed| RunOptions { seed, sample_count: 200 };
    let garbage = AlignedAmps::from(vec![Cplx::<f32>::new(0.5, -0.25); 1 << n]);
    let jobs: Vec<BatchJob<'_, f32>> = vec![
        BatchJob { fused: &fused, opts: opts(1), ctx: RunContext::default() },
        BatchJob {
            fused: &fused,
            opts: opts(2),
            ctx: RunContext { reuse_buffer: Some(garbage), cancel: None },
        },
        BatchJob {
            fused: &fused,
            opts: opts(3),
            ctx: RunContext { reuse_buffer: None, cancel: Some(token) },
        },
    ];
    let mut results = backend.run_batch::<f32>(jobs);

    let cancelled = results.pop().expect("three results").expect_err("slot 2 was cancelled");
    match cancelled.error {
        BackendError::Cancelled { at_op, .. } => {
            assert!(0 < at_op && at_op < fused.ops.len(), "cancelled at op {at_op}, not mid-run");
        }
        other => panic!("slot 2 failed with {other:?}"),
    }
    assert_eq!(cancelled.buffer.map(|b| b.len()), Some(1 << n));

    for (slot, result) in results.into_iter().enumerate() {
        let (state, report) = result.unwrap_or_else(|f| panic!("slot {slot}: {}", f.error));
        let want = full_width::<f32>(&fused, SweepConfig::default(), &opts(slot as u64 + 1));
        assert_same_amps(state.amplitudes(), &want.amps, &format!("gang slot {slot}"));
        assert_eq!(report.samples, want.samples, "gang slot {slot}");
        assert_eq!(report.buffer_reused, slot == 1);
        assert!(state.amplitudes()[1 << (n - 2)..].iter().all(|a| *a == Cplx::zero()));
    }
}
