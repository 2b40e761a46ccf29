//! Cache-blocked sweep vs per-gate execution on an RQC, the CPU analogue
//! of the paper's fusion argument: fewer full passes over the state beat
//! more, smaller ones on bandwidth-bound hardware. For each fusion
//! setting f ∈ {2, 3, 4} the same fused circuit runs once gate-by-gate
//! through the strided parallel kernel and once through the sweep
//! executor, and the pass accounting lands in `results/sweep_blocking.csv`.
//!
//! Full-size runs (24-qubit RQC) happen under `cargo bench`; plain
//! `cargo test` smoke-runs a 16-qubit circuit once.

use std::fmt::Write as _;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use qsim_circuit::{generate_rqc, RqcOptions};
use qsim_core::kernels::apply_gate_par;
use qsim_core::matrix::GateMatrix;
use qsim_core::sweep::{SweepConfig, SweepExecutor, SweepStats};
use qsim_core::StateVector;
use qsim_fusion::fuse;

const FUSION_SETTINGS: [usize; 3] = [2, 3, 4];

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// Fused RQC as plain `(qubits, matrix)` pairs for the executors.
fn fused_gates(n: usize, cycles: usize, max_f: usize) -> Vec<(Vec<usize>, GateMatrix<f64>)> {
    let circuit = generate_rqc(&RqcOptions::for_qubits(n, cycles, 1));
    fuse(&circuit, max_f).unitaries().map(|g| (g.qubits.clone(), g.matrix().clone())).collect()
}

fn bench_sweep(c: &mut Criterion) {
    // 24 qubits = 256 MiB of f64 amplitudes: big enough that every full
    // pass is genuinely memory-bound, small enough for CI.
    let (n, cycles) = if bench_mode() { (24, 14) } else { (16, 8) };
    let mut group = c.benchmark_group("sweep_vs_per_gate");
    group.sample_size(10);
    group.throughput(Throughput::Bytes((1u64 << n) * 16));

    let mut csv_rows: Vec<(usize, SweepStats)> = Vec::new();
    for max_f in FUSION_SETTINGS {
        let gates = fused_gates(n, cycles, max_f);

        group.bench_with_input(BenchmarkId::new("per_gate", max_f), &gates, |b, gs| {
            let mut sv = StateVector::<f64>::new(n);
            b.iter(|| {
                for (qs, m) in gs {
                    apply_gate_par(sv.amplitudes_mut(), qs, m);
                }
            });
        });

        group.bench_with_input(BenchmarkId::new("sweep", max_f), &gates, |b, gs| {
            let exec = SweepExecutor::new(SweepConfig::default());
            let mut sv = StateVector::<f64>::new(n);
            b.iter(|| exec.execute(sv.amplitudes_mut(), gs));
        });

        let exec = SweepExecutor::new(SweepConfig::default());
        let mut sv = StateVector::<f64>::new(n);
        let stats = exec.execute(sv.amplitudes_mut(), &gates);
        assert!(
            stats.full_passes < stats.gates,
            "f={max_f}: sweep should save passes ({} for {} gates)",
            stats.full_passes,
            stats.gates
        );
        csv_rows.push((max_f, stats));
    }
    group.finish();

    write_csv(n, &csv_rows).expect("cannot write results CSV");
}

/// Pass accounting → `results/sweep_blocking.csv` at the workspace root
/// (benches run with the package directory as cwd).
fn write_csv(n: usize, rows: &[(usize, SweepStats)]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir)?;
    let mut csv = String::from(
        "qubits,max_fused,gates,block_local_gates,barrier_gates,runs,full_passes,passes_saved\n",
    );
    for (max_f, s) in rows {
        let _ = writeln!(
            csv,
            "{n},{max_f},{},{},{},{},{},{}",
            s.gates,
            s.block_local_gates,
            s.barrier_gates,
            s.runs,
            s.full_passes,
            s.passes_saved()
        );
    }
    std::fs::write(dir.join("sweep_blocking.csv"), csv)
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
