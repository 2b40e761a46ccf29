//! The paper's Table 1 and Figures 1/6, 7, 8 and 9, and the model
//! ablations beyond them. Each figure is a row list priced by
//! [`evaluate`] plus the paper claims it checks.

use std::sync::Arc;

use gpu_model::specs::SoftwareSetup;
use qsim_backends::{BackendError, Flavor, RunOptions, SimBackend};
use qsim_circuit::{generate_rqc, RqcOptions};
use qsim_core::types::Precision::{Double, Single};
use qsim_fusion::fuse;
use qsim_trace::{Profiler, TraceStats};

use crate::*;

/// **Table 1** (hardware and software setup): the paper's reported
/// numbers next to this reproduction's modeled device specs.
pub fn table1() -> Outcome {
    let row = |setup: &str, paper: &str, model: &str| println!("{setup:<40} {paper:<22} {model}");
    let cpu = DeviceSpec::epyc_trento();
    let mi = DeviceSpec::mi250x_gcd();
    let a100 = DeviceSpec::a100();
    let sw = SoftwareSetup::default();
    let gib = |b: u64| format!("{} GB", b >> 30);

    println!("Table 1: Hardware and software setup (paper vs model)\n");
    row("Setup", "Paper", "Model");
    row("-----", "-----", "-----");
    row("CPU", "AMD 7A53 Trento", &cpu.name);
    row("Cores", "64", &cpu.compute_units.to_string());
    row("Clock frequency", "2.75 GHz (base)", "2.75 GHz (base)");
    row("Memory", "512 GB DDR4", &gib(cpu.memory_bytes));
    row("AMD GPU (# GCD)", "AMD MI250X (2)", "AMD MI250X (1 GCD modeled)");
    row("Memory per GCD", "128 GB HBM2", &gib(mi.memory_bytes));
    let bw = |spec: &DeviceSpec| format!("{} GiB/s", spec.mem_bw_gib_s);
    row("Theoretical peak memory BW per GCD", "1638.4 GiB/s", &bw(&mi));
    let tflops = |spec: &DeviceSpec| format!("{} TFLOP/s", spec.sp_tflops);
    row("Theoretical peak SP FLOPs per GCD", "23.95 TFLOP/s", &tflops(&mi));
    row("Nvidia GPU", "Nvidia A100", &a100.name);
    row("Memory per GPU", "40 GB HBM2", &gib(a100.memory_bytes));
    row("Theoretical peak memory BW per GPU", "1448 GiB/s", &bw(&a100));
    let a100_sp = format!("{} (datasheet FP32; see specs.rs)", tflops(&a100));
    row("Theoretical peak SP FLOPs per GPU", "10.5 TFLOP/s", &a100_sp);
    row("qsim", "0.16.3", sw.qsim_version);
    row("Compiler", "GCC 8.5.0", sw.compiler);
    row("ROCm", "5.3.3", sw.rocm);
    row("CUDA Toolkit", "CUDA 11.5", sw.cuda_toolkit);
    row("cuQuantum", "23.03.0", sw.cuquantum);

    println!("\nmodel calibration constants (see gpu-model/src/specs.rs for rationale):");
    for spec in [&cpu, &a100, &mi] {
        println!(
            "  {:<28} mem_eff {:.2}  flop_eff {:.2}  wave_sens {:.2}  launch {:>4.1} us  SIMT {:>2}",
            spec.name,
            spec.mem_efficiency,
            spec.flop_efficiency,
            spec.wave_mem_sensitivity,
            spec.launch_latency_us,
            spec.wavefront_width
        );
    }
    Outcome::default()
}

/// The min and max of a series.
fn range(s: &Series) -> (f64, f64) {
    s.values.iter().fold((f64::INFINITY, 0.0), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// **Figure 7**: the Trento CPU vs the MI250X (HIP) over the fusion sweep.
/// Claims: f=4 optimal on both, the GPU 7–9× faster, fusion < 2 % of the
/// total. `validate: Some(n)` also runs a reduced n-qubit RQC for real on
/// the cpu and hip flavors and requires their amplitudes to agree.
pub fn fig7(validate: Option<usize>) -> Result<Outcome, String> {
    let (one, two, _) = paper_circuit().gate_counts();
    println!("Figure 7: RQC n=30 ({one} single-qubit + {two} two-qubit gates), single precision\n");
    let rows = [
        Row::new("AMD Trento CPU (128 threads)", Flavor::CpuAvx, Single),
        Row::new("AMD MI250X GPU (HIP)", Flavor::Hip, Single),
    ];
    let sweep = paper_sweep();
    let mut series = evaluate(&rows, &sweep);
    series.push(Series::derived("speedup CPU/GPU", &series[0], &series[1], |c, h| c / h));
    print!("{}", render_table("execution time vs max fused gates", "s", &series[..2]));
    print!("{}", render_table("\nderived", "x", &series[2..]));

    let fusion_frac = rows[1].report(&sweep[3]).fusion_fraction();
    let (cpu_opt, hip_opt) = (series[0].optimal_fusion(), series[1].optimal_fusion());
    let (min_speedup, max_speedup) = range(&series[2]);
    let claims = vec![
        Claim::new(
            "fusion of 4 gates optimal on the CPU",
            "f=4",
            format!("f={cpu_opt}"),
            cpu_opt == 4,
        ),
        Claim::new(
            "fusion of 4 gates optimal on the MI250X (HIP)",
            "f=4",
            format!("f={hip_opt}"),
            hip_opt == 4,
        ),
        Claim::new(
            "GPU is 7-9x faster than the CPU",
            "7-9x",
            format!("{min_speedup:.1}-{max_speedup:.1}x"),
            min_speedup >= 6.0 && max_speedup <= 10.5,
        ),
        Claim::new(
            "gate fusion costs < 2 % of the total (f=4, HIP)",
            "< 2 %",
            format!("{:.2} %", 100.0 * fusion_frac),
            fusion_frac < 0.02,
        ),
    ];
    let outcome = Outcome { artifacts: vec![Csv::series("fig7.csv", &series).artifact()], claims };

    if let Some(n) = validate {
        println!("\nfunctional cross-validation at n={n} (states computed for real):");
        let fused = fuse(&generate_rqc(&RqcOptions::for_qubits(n, 14, 2023)), 4);
        let run = |flavor| SimBackend::new(flavor).run::<f64>(&fused, &RunOptions::default());
        let (cpu_state, _) = run(Flavor::CpuAvx).map_err(|e| format!("cpu run: {e}"))?;
        let (hip_state, hip_report) = run(Flavor::Hip).map_err(|e| format!("hip run: {e}"))?;
        let diff = cpu_state.max_abs_diff(&hip_state);
        println!("  max |amp(cpu) - amp(hip)| = {diff:.3e} (expected ~1e-13)");
        println!(
            "  hip functional wall {:.3} s; modeled-at-n={n} {:.3} s",
            hip_report.wall_seconds, hip_report.simulated_seconds
        );
        if diff >= 1e-10 {
            return Err(format!("cpu and hip amplitudes diverged by {diff:.3e} at n={n}"));
        }
    }
    Ok(outcome)
}

/// **Figure 8**: single vs double precision on the HIP backend. Claims:
/// double 1.8–2× slower, no substantial accuracy disparity (checked by a
/// real 20-qubit run at both precisions), half the state memory.
pub fn fig8() -> Result<Outcome, String> {
    println!("Figure 8: RQC n=30, HIP backend on MI250X, single vs double precision\n");
    let rows = [
        Row::new("single precision", Flavor::Hip, Single),
        Row::new("double precision", Flavor::Hip, Double),
    ];
    let sweep = paper_sweep();
    let mut series = evaluate(&rows, &sweep);
    series.push(Series::derived("double/single ratio", &series[1], &series[0], |d, s| d / s));
    print!("{}", render_table("execution time vs max fused gates", "s", &series[..2]));
    print!("{}", render_table("\nderived", "x", &series[2..]));

    // The paper examined the state-vector results and found no
    // substantial disparity; checked for real at a reduced size.
    let fused = fuse(&generate_rqc(&RqcOptions::for_qubits(20, 14, 2023)), 4);
    let backend = SimBackend::new(Flavor::Hip);
    let (s32, _) = backend.run::<f32>(&fused, &RunOptions::default()).map_err(|e| e.to_string())?;
    let (s64, _) = backend.run::<f64>(&fused, &RunOptions::default()).map_err(|e| e.to_string())?;
    let max_diff = s64.max_abs_diff(&s32);
    println!("\nfunctional accuracy at n=20: max |amp(f32) - amp(f64)| = {max_diff:.3e}");

    let (min_r, max_r) = range(&series[2]);
    let [mem32, mem64] = [&rows[0], &rows[1]].map(|row| row.report(&sweep[3]).state_bytes);
    let claims = vec![
        Claim::new(
            "double precision is 1.8-2x slower",
            "1.8-2x",
            format!("{min_r:.2}-{max_r:.2}x"),
            min_r >= 1.7 && max_r <= 2.1,
        ),
        Claim::new(
            "no substantial accuracy disparity (RQC)",
            "none observed",
            format!("max diff {max_diff:.1e}"),
            max_diff < 1e-3,
        ),
        Claim::new(
            "single precision halves the state memory",
            "half of double",
            format!("{} vs {} GiB", mem32 >> 30, mem64 >> 30),
            mem64 == 2 * mem32,
        ),
    ];
    Ok(Outcome { artifacts: vec![Csv::series("fig8.csv", &series).artifact()], claims })
}

/// **Figure 9**: CUDA and cuStateVec on the A100 vs HIP on the MI250X.
/// Claims: f=4 optimal everywhere, cuQuantum < 10 % over CUDA, the A100
/// ahead by ~5 % at f=2 widening to ~44 % at f=4, and HIP alone
/// deteriorating past the optimum.
pub fn fig9() -> Outcome {
    println!("Figure 9: RQC n=30, GPU backends, single precision\n");
    let rows = [
        Row::new("A100, CUDA backend", Flavor::Cuda, Single),
        Row::new("A100, cuStateVec backend", Flavor::CuStateVec, Single),
        Row::new("MI250X, HIP backend", Flavor::Hip, Single),
    ];
    let mut series = evaluate(&rows, &paper_sweep());
    let (cuda, cusv, hip) = (&series[0], &series[1], &series[2]);
    let gap = Series::derived("HIP vs CUDA gap (%)", hip, cuda, |h, c| 100.0 * (h / c - 1.0));
    let adv = Series::derived("cuStateVec advantage over CUDA (%)", cuda, cusv, |c, v| {
        100.0 * (1.0 - v / c)
    });
    series.extend([gap, adv]);
    print!("{}", render_table("execution time vs max fused gates", "s", &series[..3]));
    print!("{}", render_table("\nderived", "%", &series[3..]));

    let [cuda_opt, cusv_opt, hip_opt] = [0, 1, 2].map(|i| series[i].optimal_fusion());
    let (cuda, hip, gap) = (&series[0].values, &series[2].values, &series[3].values);
    let (_, max_cusv) = range(&series[4]);
    // Nvidia's post-optimum rise vs HIP's (deterioration comparison):
    let (cuda_rise, hip_rise) = (cuda[5] / cuda[3], hip[5] / hip[3]);
    let claims = vec![
        Claim::new(
            "four fused gates optimal on all GPU backends",
            "f=4",
            format!("cuda f={cuda_opt}, cusv f={cusv_opt}, hip f={hip_opt}"),
            cuda_opt == 4 && cusv_opt == 4 && hip_opt == 4,
        ),
        Claim::new(
            "cuQuantum < 10 % faster than CUDA",
            "< 10 %",
            format!("{max_cusv:.1} % max"),
            max_cusv > 0.0 && max_cusv < 10.0,
        ),
        Claim::new(
            "A100-MI250X gap at two-gate fusion",
            "~5 %",
            format!("{:.1} %", gap[1]),
            (2.0..=9.0).contains(&gap[1]),
        ),
        Claim::new(
            "A100-MI250X gap at four-gate fusion",
            "~44 %",
            format!("{:.1} %", gap[3]),
            (38.0..=50.0).contains(&gap[3]),
        ),
        Claim::new(
            "gap widens with optimal gate fusion",
            "widens 2->4",
            format!("{:.1} % -> {:.1} %", gap[1], gap[3]),
            gap[3] > gap[1] + 20.0,
        ),
        Claim::new(
            "HIP deteriorates past f=4 more than Nvidia",
            "HIP only",
            format!("rise f4->f6: cuda {cuda_rise:.2}x, hip {hip_rise:.2}x"),
            hip_rise > cuda_rise,
        ),
    ];
    Outcome { artifacts: vec![Csv::series("fig9.csv", &series).artifact()], claims }
}

/// **Figures 1 and 6**: a rocprof-style trace of the HIP backend on the
/// RQC at f=4, written as Perfetto/Chrome trace-event JSON to `out`
/// (load it at <https://ui.perfetto.dev>), plus the per-kernel statistics
/// behind Figure 6 (`ApplyGateL_Kernel` slower than `ApplyGateH_Kernel`,
/// `hipMemcpyAsync` on a second stream). The paper's n=30 circuit is
/// traced through the device model (identical launch sequence, no 8 GiB
/// state); `functional: Some(n)` traces a real run at n qubits instead.
pub fn trace(functional: Option<usize>, out: &str) -> Result<Outcome, String> {
    let circuit = match functional {
        Some(n) => generate_rqc(&RqcOptions::for_qubits(n, 14, 2023)),
        None => paper_circuit(),
    };
    let fused = fuse(&circuit, 4);
    println!(
        "tracing HIP backend: RQC n={}, f=4, {} fused passes{}",
        circuit.num_qubits,
        fused.num_unitaries(),
        if functional.is_some() { " (functional run)" } else { " (device-model dry run)" }
    );

    let profiler = Arc::new(Profiler::new());
    let backend = SimBackend::with_trace(Flavor::Hip, profiler.clone());
    let report = match functional {
        Some(_) => backend.run::<f32>(&fused, &RunOptions::default()).map(|(_, report)| report),
        None => backend.estimate(&fused, Single),
    }
    .map_err(|e| format!("traced run: {e}"))?;

    let spans = profiler.spans();
    let stats = TraceStats::from_spans(&spans);
    println!("\nper-kernel statistics (Figure 6 view):");
    print!("{}", stats.table());
    if let (Some(l), Some(h)) = (stats.get("ApplyGateL_Kernel"), stats.get("ApplyGateH_Kernel")) {
        let (l, h) = (l.mean_us, h.mean_us);
        let matches = "(matches Figure 6: the L kernel takes more time)";
        let verdict = if l > h { matches } else { "(MISMATCH with Figure 6)" };
        println!(
            "ApplyGateL mean {l:.1} us vs ApplyGateH mean {h:.1} us -> L/H = {:.2}x {verdict}",
            l / h
        );
    }
    let copies = spans.iter().filter(|s| s.kind != gpu_model::SpanKind::Kernel).count();
    println!(
        "async copies in trace: {copies} (hipMemcpyAsync overlap on the copy stream, Figure 1)"
    );
    println!("total simulated time: {:.4} s", report.simulated_seconds);
    println!("open https://ui.perfetto.dev and load {out}");
    let json = qsim_trace::perfetto::to_json(&spans);
    Ok(Outcome { artifacts: vec![(out.to_string(), json.into_bytes())], claims: Vec::new() })
}

/// Model ablations beyond the paper: (1) an `ApplyGateL_Kernel` redesign
/// bringing the MI250X's low-qubit overhead to the CUDA warp-shuffle
/// level — the "significant algorithmic overhaul" of the paper's §4;
/// (2) launch-latency and (3) wavefront-underfill sensitivity of the
/// fusion sweep; (4) modeled time and memory walls vs qubit count at f=4.
pub fn ablations() -> Outcome {
    let sweep = paper_sweep();
    let hip_with = |label: String, edit: &dyn Fn(&mut DeviceSpec)| {
        let mut spec = Flavor::Hip.default_spec();
        edit(&mut spec);
        Row::new(label, Flavor::Hip, Single).on(Device::Spec(spec))
    };
    let mut csvs = Vec::new();

    println!("ablation 1: redesigned ApplyGateL_Kernel on the MI250X");
    println!("(low-qubit overhead reduced to the CUDA warp-shuffle level)\n");
    let redesign = Device::LowQubitOverhead(Flavor::Cuda.low_qubit_byte_overhead());
    let rows = [
        Row::new("A100, CUDA", Flavor::Cuda, Single),
        Row::new("MI250X, HIP (as ported)", Flavor::Hip, Single),
        Row::new("MI250X, HIP (L redesigned)", Flavor::Hip, Single).on(redesign),
    ];
    let series = evaluate(&rows, &sweep);
    print!("{}", render_table("execution time", "s", &series));
    let [cuda, hip, fixed] = [0, 1, 2].map(|i| series[i].values[3]);
    println!(
        "\nat f=4 the redesign recovers {:.0} % of the gap; with its higher peak bandwidth\n\
         the MI250X would then {} the A100 ({fixed:.3} s vs {cuda:.3} s).\n",
        100.0 * (hip - fixed) / (hip - cuda),
        if fixed < cuda { "overtake" } else { "still trail" },
    );
    csvs.push(Csv::series("ablation_l_redesign.csv", &series));

    println!("ablation 2: HIP launch-latency sensitivity (f sweep per latency)\n");
    let rows = [0.0, 7.0, 20.0, 50.0].map(|lat| {
        hip_with(format!("launch latency {lat:>4.0} us"), &|s| s.launch_latency_us = lat)
    });
    let series = evaluate(&rows, &sweep);
    print!("{}", render_table("execution time", "s", &series));
    println!(
        "\nlaunch overhead is negligible at n=30 (ms-scale kernels); fusion's win is\n\
         bandwidth, not launch amortization, at this size.\n"
    );
    csvs.push(Csv::series("ablation_launch_latency.csv", &series));

    println!("ablation 3: wavefront-underfill bandwidth sensitivity (HIP)\n");
    let rows = [0.0, 0.1, 0.3, 0.6, 1.0].map(|sens| {
        hip_with(format!("wave_mem_sensitivity {sens:.1}"), &|s| s.wave_mem_sensitivity = sens)
    });
    let series = evaluate(&rows, &sweep);
    print!("{}", render_table("execution time", "s", &series));
    csvs.push(Csv::series("ablation_wave_sensitivity.csv", &series));

    println!("\nablation 4: modeled time vs qubit count (f=4, single precision)\n");
    println!(
        "{:<8} {:>14} {:>15} {:>15} {:>12}",
        "qubits", "cpu (s)", "a100 cuda (s)", "mi250x hip (s)", "state"
    );
    for n in [26usize, 28, 30, 31, 32, 33, 34, 35, 36] {
        let fc = fuse(&generate_rqc(&RqcOptions::for_qubits(n, 14, 2023)), 4);
        let time = |flavor: Flavor| match SimBackend::new(flavor).estimate(&fc, Single) {
            Ok(r) => format!("{:.3}", r.simulated_seconds),
            Err(BackendError::Gpu(gpu_model::GpuError::OutOfMemory { .. })) => "OOM".to_string(),
            Err(e) => format!("error: {e}"),
        };
        let gib = ((1u64 << n) * 8) >> 30;
        let [cpu, cuda, hip] = [Flavor::CpuAvx, Flavor::Cuda, Flavor::Hip].map(time);
        println!("{n:<8} {cpu:>14} {cuda:>15} {hip:>15} {gib:>9} GiB");
    }
    println!(
        "\nthe 40 GB A100 hits its memory wall at 33 qubits single precision; the 128 GB\n\
         MI250X GCD at 35; the 512 GB CPU fits 36 exactly — the paper's \"35-36 qubits\n\
         on Terabyte-size systems\" limit (§1), reproduced by the capacity model."
    );
    Outcome::files(csvs)
}
