//! Scalar vs SIMD lane-kernel microbenchmarks, the CPU counterpart of the
//! paper's per-kernel-class GPU measurements: for each gate shape (lane-Low,
//! strided High, diagonal), gate width, and precision, the same gate is
//! applied to a cache-resident 2^16-amplitude state through the scalar
//! kernels and through each SIMD tier the host supports
//! ([`SimdPlan::new_with_isa`] pins the tier without touching the global
//! dispatch state). Per-apply times and speedups land in
//! `results/simd_kernels.csv`, with the vector FMAs the kernel issues per
//! nanosecond (four per gate column per tile; two for a diagonal) beside a
//! `fma_peak` row per tier: 16 independent register-to-register FMA
//! chains, the most the core can issue.
//!
//! Full-length sampling happens under `cargo bench`; plain `cargo test`
//! smoke-runs everything once with minimal repetitions.

use std::fmt::Write as _;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use qsim_core::kernels::{apply_gate_seq, classify_gate_at, KernelClass};
use qsim_core::matrix::GateMatrix;
use qsim_core::simd::{detected_isa, Isa, SimdPlan};
use qsim_core::types::{Cplx, Float, Precision};
use qsim_core::StateVector;

/// 2^16 amplitudes: 512 KiB in `f32`, 1 MiB in `f64` — cache-resident, so
/// the comparison measures kernel arithmetic, not memory bandwidth.
const N: usize = 16;

fn bench_mode() -> bool {
    std::env::args().any(|a| a == "--bench")
}

/// `H^{⊗k}` times a global phase: unitary (amplitudes stay bounded under
/// thousands of repeated applications) yet fully complex, so both the
/// real and imaginary FMA chains do real work.
fn dense_matrix<F: Float>(k: usize) -> GateMatrix<F> {
    let dim = 1usize << k;
    let scale = 1.0 / (dim as f64).sqrt();
    let (sin, cos) = 0.3f64.sin_cos();
    let mut m = GateMatrix::<F>::zeros(dim);
    for r in 0..dim {
        for c in 0..dim {
            let sign = if (r & c).count_ones() % 2 == 0 { scale } else { -scale };
            m.set(r, c, Cplx::from_f64(sign * cos, sign * sin));
        }
    }
    m
}

/// Unitary diagonal: a phase per basis state.
fn diag_matrix<F: Float>(k: usize) -> GateMatrix<F> {
    let dim = 1usize << k;
    let mut m = GateMatrix::<F>::zeros(dim);
    for r in 0..dim {
        let (sin, cos) = (0.4 * (r + 1) as f64).sin_cos();
        m.set(r, r, Cplx::from_f64(cos, sin));
    }
    m
}

/// Gate shapes swept by the benchmark. Qubits < `log2(lanes)` of a tier
/// exercise its in-register Low path; qubits ≥ that boundary its strided
/// High path (the boundary differs per tier and precision, so the CSV
/// records the class per row).
fn cases() -> Vec<(&'static str, Vec<usize>, bool)> {
    vec![
        ("low1", vec![0], false),
        ("low2", vec![0, 1], false),
        ("low3", vec![0, 1, 2], false),
        ("low4", vec![0, 1, 2, 3], false),
        ("mixed2", vec![1, 12], false),
        ("mixed3", vec![1, 11, 13], false),
        ("mixed4", vec![0, 2, 11, 13], false),
        ("high1", vec![12], false),
        ("high2", vec![11, 13], false),
        ("high3", vec![9, 11, 13], false),
        ("high4", vec![8, 10, 12, 14], false),
        ("high5", vec![7, 9, 11, 13, 15], false),
        ("diag_low2", vec![0, 1], true),
        ("diag_high2", vec![11, 13], true),
    ]
}

/// Best-of-`samples` time of one application, nanoseconds.
fn time_ns<F: Float>(
    amps: &mut [Cplx<F>],
    reps: usize,
    samples: usize,
    mut apply: impl FnMut(&mut [Cplx<F>]),
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..reps {
            apply(amps);
        }
        best = best.min(t.elapsed().as_nanos() as f64 / reps as f64);
    }
    best
}

/// Vector FMAs per nanosecond of 16 independent accumulator chains at
/// the tier's register width: the issue-rate ceiling of a tile kernel.
#[cfg(target_arch = "x86_64")]
fn fma_peak_per_ns<F: Float>(tier: Isa, samples: usize) -> f64 {
    use std::arch::x86_64::*;
    use std::hint::black_box;

    const ROUNDS: usize = 1 << 16;

    macro_rules! chains {
        ($features:literal, $vec:ty, $splat:ident, $fma:ident, $x:expr) => {{
            #[target_feature(enable = $features)]
            fn run(x: $vec) -> $vec {
                // Floating-point FMAs do not reassociate, so the compiler
                // keeps all 16 chains and every round.
                let mut acc = [x; 16];
                for _ in 0..ROUNDS {
                    for a in &mut acc {
                        *a = $fma(x, x, *a);
                    }
                }
                acc.into_iter().fold(x, |s, a| $fma(s, x, a))
            }
            let mut best = f64::INFINITY;
            for _ in 0..samples {
                let t = Instant::now();
                // SAFETY: the caller only passes tiers `detected_isa()`
                // reports, so the enabled features exist on this CPU.
                black_box(unsafe { run($splat(black_box($x))) });
                best = best.min(t.elapsed().as_nanos() as f64);
            }
            (16 * ROUNDS) as f64 / best
        }};
    }
    match (tier, F::PRECISION) {
        (Isa::Avx512, Precision::Single) => {
            chains!("avx512f", __m512, _mm512_set1_ps, _mm512_fmadd_ps, 1e-3f32)
        }
        (Isa::Avx512, Precision::Double) => {
            chains!("avx512f", __m512d, _mm512_set1_pd, _mm512_fmadd_pd, 1e-3f64)
        }
        (Isa::Avx2, Precision::Single) => {
            chains!("avx2,fma", __m256, _mm256_set1_ps, _mm256_fmadd_ps, 1e-3f32)
        }
        (Isa::Avx2, Precision::Double) => {
            chains!("avx2,fma", __m256d, _mm256_set1_pd, _mm256_fmadd_pd, 1e-3f64)
        }
        (Isa::Scalar, _) => f64::NAN,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn fma_peak_per_ns<F: Float>(_tier: Isa, _samples: usize) -> f64 {
    f64::NAN
}

/// Measure every case at precision `F`, appending CSV rows.
fn measure_precision<F: Float>(rows: &mut Vec<String>, reps: usize, samples: usize) {
    let tiers: Vec<Isa> =
        [Isa::Avx2, Isa::Avx512].into_iter().filter(|&t| t <= detected_isa()).collect();
    for &tier in &tiers {
        let peak = fma_peak_per_ns::<F>(tier, samples);
        rows.push(format!("{},{},fma_peak,,peak,,,,{peak:.2}", F::PRECISION, tier.name()));
    }
    for (label, qubits, diagonal) in cases() {
        let matrix =
            if diagonal { diag_matrix::<F>(qubits.len()) } else { dense_matrix::<F>(qubits.len()) };
        let mut sv = StateVector::<F>::new(N);
        let scalar_ns = time_ns(sv.amplitudes_mut(), reps, samples, |amps| {
            apply_gate_seq(amps, &qubits, &matrix);
        });
        for &tier in &tiers {
            let Some(plan) = SimdPlan::new_with_isa(tier, N, &qubits, &[], 0, &matrix) else {
                continue;
            };
            let mut sv = StateVector::<F>::new(N);
            let simd_ns = time_ns(sv.amplitudes_mut(), reps, samples, |amps| plan.apply_seq(amps));
            let class = if diagonal {
                "diag"
            } else {
                match classify_gate_at(&qubits, tier.lane_qubits(F::PRECISION)) {
                    KernelClass::Low => "low",
                    KernelClass::High => "high",
                }
            };
            let tiles = (1usize << N) / tier.lanes(F::PRECISION);
            let fmas_per_tile = if diagonal { 2 } else { 4 << qubits.len() };
            let mut row = String::new();
            let _ = write!(
                row,
                "{},{},{label},{},{class},{scalar_ns:.1},{simd_ns:.1},{:.3},{:.2}",
                F::PRECISION,
                tier.name(),
                qubits.iter().map(ToString::to_string).collect::<Vec<_>>().join(";"),
                scalar_ns / simd_ns,
                (tiles * fmas_per_tile) as f64 / simd_ns
            );
            rows.push(row);
        }
    }
}

fn bench_simd_kernels(c: &mut Criterion) {
    let (reps, samples) = if bench_mode() { (32, 9) } else { (2, 2) };

    // CSV sweep: every case × precision × available tier.
    let mut rows = Vec::new();
    measure_precision::<f32>(&mut rows, reps, samples);
    measure_precision::<f64>(&mut rows, reps, samples);
    write_csv(&rows).expect("cannot write results CSV");

    // Criterion view of the headline comparison: 2-qubit lane-Low gate,
    // scalar vs the strongest tier, both precisions.
    let mut group = c.benchmark_group("simd_low2");
    group.sample_size(10);
    group.throughput(Throughput::Bytes((1u64 << N) * 8));
    let qubits = vec![0usize, 1];
    let m32 = dense_matrix::<f32>(2);
    group.bench_function(BenchmarkId::new("scalar", "f32"), |b| {
        let mut sv = StateVector::<f32>::new(N);
        b.iter(|| apply_gate_seq(sv.amplitudes_mut(), &qubits, &m32));
    });
    if let Some(plan) = SimdPlan::new_with_isa(detected_isa(), N, &qubits, &[], 0, &m32) {
        group.bench_function(BenchmarkId::new(detected_isa().name(), "f32"), |b| {
            let mut sv = StateVector::<f32>::new(N);
            b.iter(|| plan.apply_seq(sv.amplitudes_mut()));
        });
    }
    let m64 = dense_matrix::<f64>(2);
    group.bench_function(BenchmarkId::new("scalar", "f64"), |b| {
        let mut sv = StateVector::<f64>::new(N);
        b.iter(|| apply_gate_seq(sv.amplitudes_mut(), &qubits, &m64));
    });
    if let Some(plan) = SimdPlan::new_with_isa(detected_isa(), N, &qubits, &[], 0, &m64) {
        group.bench_function(BenchmarkId::new(detected_isa().name(), "f64"), |b| {
            let mut sv = StateVector::<f64>::new(N);
            b.iter(|| plan.apply_seq(sv.amplitudes_mut()));
        });
    }
    group.finish();
}

/// Rows → `results/simd_kernels.csv` at the workspace root.
fn write_csv(rows: &[String]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir)?;
    let mut csv = String::from(
        "precision,isa,gate,qubits,lane_class,scalar_ns_per_apply,simd_ns_per_apply,speedup,\
         fma_per_ns\n",
    );
    for row in rows {
        let _ = writeln!(csv, "{row}");
    }
    std::fs::write(dir.join("simd_kernels.csv"), csv)
}

criterion_group!(benches, bench_simd_kernels);
criterion_main!(benches);
